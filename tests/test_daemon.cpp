// Memory daemon (Algorithm 1): serialized order, WAR-hazard avoidance,
// epoch resets, concurrency stress, and abort teardown — re-verified
// under the zero-copy protocol (trainer-owned slice/write buffers lent
// to the daemon through pointer-carrying slots).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>

#include "distributed/fabric_error.hpp"
#include "memory/daemon.hpp"

namespace disttgl {
namespace {

// Runs `fn(rank)` on group_size threads and joins.
template <typename Fn>
void run_trainers(std::size_t group_size, Fn&& fn) {
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < group_size; ++r)
    threads.emplace_back([&fn, r] { fn(r); });
  for (auto& t : threads) t.join();
}

MemoryWrite make_write(NodeId node, float value, std::size_t mem_dim,
                       std::size_t mail_dim, float ts) {
  MemoryWrite w;
  w.nodes = {node};
  w.mem = Matrix(1, mem_dim, value);
  w.mem_ts = {ts};
  w.mail = Matrix(1, mail_dim, value);
  w.mail_ts = {ts};
  return w;
}

TEST(Daemon, SerializesRoundRobinBrackets) {
  // i=2, j=2 → expected trace (R0R1)(W0W1)(R2R3)(W2W3)(R0R1)(W0W1)…
  MemoryState state(8, 2, 3);
  DaemonConfig cfg;
  cfg.i = 2;
  cfg.j = 2;
  cfg.reset_before_round = {1, 0, 0, 0};  // 4 rounds
  MemoryDaemon daemon(state, cfg);
  daemon.enable_trace();
  daemon.start();

  run_trainers(4, [&](std::size_t rank) {
    const std::size_t sub = rank / 2;  // subgroup
    for (std::size_t round = sub; round < 4; round += 2) {
      std::vector<NodeId> nodes = {static_cast<NodeId>(rank)};
      daemon.read(rank, nodes);
      daemon.write(rank, make_write(static_cast<NodeId>(rank), 1.0f, 2, 3,
                                    static_cast<float>(round)));
    }
  });
  daemon.join();

  const auto trace = daemon.trace();
  ASSERT_EQ(trace.size(), 16u);  // 4 rounds × (2 reads + 2 writes)
  const std::vector<std::string> expected = {
      "R0", "R1", "W0", "W1", "R2", "R3", "W2", "W3",
      "R0", "R1", "W0", "W1", "R2", "R3", "W2", "W3"};
  EXPECT_EQ(trace, expected);
}

TEST(Daemon, ReadsSeePreviousRoundsWrites) {
  // j=2, i=1: rank 0 writes value v at round 2t; rank 1 reads at round
  // 2t+1 and must observe exactly rank 0's latest write.
  MemoryState state(4, 2, 2);
  DaemonConfig cfg;
  cfg.i = 1;
  cfg.j = 2;
  const std::size_t rounds = 6;
  cfg.reset_before_round.assign(rounds, 0);
  cfg.reset_before_round[0] = 1;
  MemoryDaemon daemon(state, cfg);
  daemon.start();

  std::vector<float> observed;
  run_trainers(2, [&](std::size_t rank) {
    for (std::size_t round = rank; round < rounds; round += 2) {
      if (rank == 0) {
        daemon.read(0, std::vector<NodeId>{0});
        daemon.write(0, make_write(0, static_cast<float>(round + 1), 2, 2, 1.0f));
      } else {
        MemorySlice s = daemon.read(1, std::vector<NodeId>{0});
        observed.push_back(s.mem(0, 0));
        daemon.write(1, MemoryWrite{{}, Matrix(0, 2), {}, Matrix(0, 2), {}});
      }
    }
  });
  daemon.join();
  // Rank 1 reads at rounds 1,3,5 observe writes from rounds 0,2,4.
  ASSERT_EQ(observed.size(), 3u);
  EXPECT_FLOAT_EQ(observed[0], 1.0f);
  EXPECT_FLOAT_EQ(observed[1], 3.0f);
  EXPECT_FLOAT_EQ(observed[2], 5.0f);
}

TEST(Daemon, WarHazardAvoided) {
  // Within one round, both trainers of a subgroup must read the state
  // BEFORE either's write applies (the WAR guarantee of §3.2.1).
  MemoryState state(2, 1, 1);
  DaemonConfig cfg;
  cfg.i = 2;
  cfg.j = 1;
  cfg.reset_before_round = {1, 0};
  MemoryDaemon daemon(state, cfg);
  daemon.start();

  // Round 0: both write 7 to node 0; round 1: both read. If reads of
  // round 0 had seen writes of round 0 the observed round-0 values would
  // be 7 already.
  std::vector<float> round0(2), round1(2);
  run_trainers(2, [&](std::size_t rank) {
    MemorySlice s = daemon.read(rank, std::vector<NodeId>{0});
    round0[rank] = s.mem(0, 0);
    daemon.write(rank, make_write(0, 7.0f, 1, 1, 1.0f));
    s = daemon.read(rank, std::vector<NodeId>{0});
    round1[rank] = s.mem(0, 0);
    daemon.write(rank, make_write(0, 9.0f, 1, 1, 2.0f));
  });
  daemon.join();
  EXPECT_FLOAT_EQ(round0[0], 0.0f);
  EXPECT_FLOAT_EQ(round0[1], 0.0f);
  EXPECT_FLOAT_EQ(round1[0], 7.0f);
  EXPECT_FLOAT_EQ(round1[1], 7.0f);
}

TEST(Daemon, EpochResetZeroesState) {
  MemoryState state(2, 1, 1);
  DaemonConfig cfg;
  cfg.i = 1;
  cfg.j = 1;
  cfg.reset_before_round = {1, 0, 1};  // reset before rounds 0 and 2
  MemoryDaemon daemon(state, cfg);
  daemon.start();

  std::vector<float> seen(3);
  run_trainers(1, [&](std::size_t) {
    for (int round = 0; round < 3; ++round) {
      MemorySlice s = daemon.read(0, std::vector<NodeId>{0});
      seen[round] = s.mem(0, 0);
      daemon.write(0, make_write(0, 5.0f, 1, 1, 1.0f));
    }
  });
  daemon.join();
  EXPECT_FLOAT_EQ(seen[0], 0.0f);
  EXPECT_FLOAT_EQ(seen[1], 5.0f);  // no reset before round 1
  EXPECT_FLOAT_EQ(seen[2], 0.0f);  // reset before round 2
}

// The zero-copy path: each trainer keeps ONE MemorySlice and ONE
// MemoryWrite for the whole run; the daemon gathers into / applies from
// them directly. The serialized trace must still obey the (R…R)(W…W)
// bracket order of Algorithm 1, and every recycled slice must be
// bit-exactly what a fresh allocating read would have produced.
TEST(Daemon, ZeroCopyRecycledSlicesMatchFreshAndKeepBracketOrder) {
  MemoryState state(8, 2, 3);
  MemoryState shadow(8, 2, 3);  // serial replica for fresh-slice reference
  DaemonConfig cfg;
  cfg.i = 2;
  cfg.j = 2;
  cfg.reset_before_round = {1, 0, 0, 0, 0, 0, 0, 0};  // 8 rounds
  MemoryDaemon daemon(state, cfg);
  daemon.enable_trace();
  daemon.start();

  // Per-rank recycled buffers + captured slice bytes per round.
  std::vector<std::vector<MemorySlice>> seen(4);
  run_trainers(4, [&](std::size_t rank) {
    const std::size_t sub = rank / 2;
    MemorySlice slice;  // recycled across all rounds
    MemoryWrite write;  // recycled across all rounds
    for (std::size_t round = sub; round < 8; round += 2) {
      // Vary the request size so the recycled buffers shrink and grow.
      std::vector<NodeId> nodes;
      for (std::size_t x = 0; x <= (round + rank) % 3; ++x)
        nodes.push_back(static_cast<NodeId>((rank + x) % 8));
      daemon.read(rank, nodes, slice);
      seen[rank].push_back(slice);  // copy for later comparison
      write = make_write(static_cast<NodeId>(rank),
                         static_cast<float>(round + 1), 2, 3,
                         static_cast<float>(round));
      daemon.write(rank, write);
    }
  });
  daemon.join();

  // Bracket order: rounds alternate subgroups {0,1} and {2,3}.
  // (Expected entries built via insert to dodge GCC 12's -Wrestrict
  // false positive on `"R" + std::to_string(r)`, as in daemon.cpp.)
  const auto op = [](char tag, std::size_t rank) {
    std::string s = std::to_string(rank);
    s.insert(s.begin(), tag);
    return s;
  };
  const auto trace = daemon.trace();
  ASSERT_EQ(trace.size(), 32u);  // 8 rounds × (2 reads + 2 writes)
  for (std::size_t round = 0; round < 8; ++round) {
    const std::size_t base = (round % 2) * 2;
    const auto* t = &trace[round * 4];
    EXPECT_EQ(t[0], op('R', base));
    EXPECT_EQ(t[1], op('R', base + 1));
    EXPECT_EQ(t[2], op('W', base));
    EXPECT_EQ(t[3], op('W', base + 1));
  }

  // Replay the same serialized schedule against the shadow state with
  // fresh allocating reads; every recycled slice must match bit-exactly.
  std::vector<std::size_t> next(4, 0);
  std::vector<std::size_t> round_of(4);
  for (std::size_t rank = 0; rank < 4; ++rank) round_of[rank] = rank / 2;
  shadow.reset();
  for (std::size_t round = 0; round < 8; ++round) {
    const std::size_t base = (round % 2) * 2;
    for (std::size_t rank = base; rank < base + 2; ++rank) {
      std::vector<NodeId> nodes;
      for (std::size_t x = 0; x <= (round + rank) % 3; ++x)
        nodes.push_back(static_cast<NodeId>((rank + x) % 8));
      const MemorySlice fresh = shadow.read(nodes);
      const MemorySlice& recycled = seen[rank][next[rank]++];
      ASSERT_EQ(recycled.size(), fresh.size());
      EXPECT_EQ(0, std::memcmp(recycled.mem.data(), fresh.mem.data(),
                               fresh.mem.size() * sizeof(float)));
      EXPECT_EQ(recycled.mem_ts, fresh.mem_ts);
      EXPECT_EQ(0, std::memcmp(recycled.mail.data(), fresh.mail.data(),
                               fresh.mail.size() * sizeof(float)));
      EXPECT_EQ(recycled.mail_ts, fresh.mail_ts);
      EXPECT_EQ(recycled.has_mail, fresh.has_mail);
    }
    for (std::size_t rank = base; rank < base + 2; ++rank) {
      shadow.write(make_write(static_cast<NodeId>(rank),
                              static_cast<float>(round + 1), 2, 3,
                              static_cast<float>(round)));
    }
  }
}

// A daemon given a gather pool must produce the same serialized
// behaviour (parallel_for fan-out is bit-identical and ordering is
// unchanged because the daemon still serves slots one at a time).
TEST(Daemon, GatherPoolKeepsProtocolSemantics) {
  MemoryState state(4096, 3, 2);
  {
    MemoryWrite w;
    for (NodeId v = 0; v < 4096; v += 2) w.nodes.push_back(v);
    const std::size_t n = w.nodes.size();
    w.mem.resize(n, 3, 1.25f);
    w.mem_ts.assign(n, 1.0f);
    w.mail.resize(n, 2, -0.5f);
    w.mail_ts.assign(n, 1.5f);
    state.write(w);
  }
  MemoryState reference = state;

  ThreadPool pool(3);
  DaemonConfig cfg;
  cfg.i = 1;
  cfg.j = 1;
  cfg.reset_before_round = {0, 0};
  cfg.gather_pool = &pool;
  MemoryDaemon daemon(state, cfg);
  daemon.start();

  std::vector<NodeId> nodes(3000);
  for (std::size_t x = 0; x < nodes.size(); ++x)
    nodes[x] = static_cast<NodeId>((x * 7) % 4096);
  run_trainers(1, [&](std::size_t) {
    MemorySlice slice;
    MemoryWrite write;
    for (std::size_t round = 0; round < 2; ++round) {
      daemon.read(0, nodes, slice);
      const MemorySlice fresh = reference.read(nodes);
      EXPECT_EQ(0, std::memcmp(slice.mem.data(), fresh.mem.data(),
                               fresh.mem.size() * sizeof(float)));
      EXPECT_EQ(slice.has_mail, fresh.has_mail);
      write = make_write(0, static_cast<float>(round), 3, 2, 1.0f);
      daemon.write(0, write);
      reference.write(write);
    }
  });
  daemon.join();
}

TEST(Daemon, StressManyRoundsStaysConsistent) {
  // Single subgroup of 4, many rounds: the final value must equal the
  // highest-rank trainer's last write (rank-ordered writes).
  MemoryState state(1, 1, 1);
  DaemonConfig cfg;
  cfg.i = 4;
  cfg.j = 1;
  const std::size_t rounds = 200;
  cfg.reset_before_round.assign(rounds, 0);
  cfg.reset_before_round[0] = 1;
  MemoryDaemon daemon(state, cfg);
  daemon.start();

  run_trainers(4, [&](std::size_t rank) {
    for (std::size_t round = 0; round < rounds; ++round) {
      daemon.read(rank, std::vector<NodeId>{0});
      daemon.write(rank, make_write(0, static_cast<float>(rank * 1000 + round),
                                    1, 1, 1.0f));
    }
  });
  daemon.join();
  EXPECT_FLOAT_EQ(state.read(std::vector<NodeId>{0}).mem(0, 0),
                  3000.0f + (rounds - 1));
}

TEST(Daemon, ZeroSpinBudgetCompletes) {
  // spin_polls = 0 parks every slot wait immediately — the regression
  // for the hoisted spin→park threshold: every wake path must issue a
  // real futex wake, not rely on waiters re-polling.
  MemoryState state(8, 2, 2);
  DaemonConfig cfg;
  cfg.i = 2;
  cfg.j = 2;
  const std::size_t rounds = 20;
  cfg.reset_before_round.assign(rounds, 0);
  cfg.reset_before_round[0] = 1;
  cfg.wait = WaitPolicy{.spin_polls = 0};
  MemoryDaemon daemon(state, cfg);
  daemon.start();

  run_trainers(4, [&](std::size_t rank) {
    const std::size_t sub = rank / 2;
    for (std::size_t round = sub; round < rounds; round += 2) {
      daemon.read(rank, std::vector<NodeId>{static_cast<NodeId>(rank)});
      daemon.write(rank, make_write(static_cast<NodeId>(rank),
                                    static_cast<float>(round), 2, 2, 1.0f));
    }
  });
  daemon.join();
  // Rank 3's last write (round 19) must land; completion is the point.
  EXPECT_FLOAT_EQ(state.read(std::vector<NodeId>{3}).mem(0, 0), 19.0f);
}

// Abort teardown with requests in flight: each trainer lends a fresh
// slice (or write) per request and frees it as soon as the request
// throws. A trainer must not get its kAborted before the daemon thread
// has let go of the lent buffers; under -DDISTTGL_SANITIZE=thread an
// early throw shows as the slice's free racing the daemon's gather.
TEST(Daemon, AbortWithRequestsInFlightUnwindsAfterDaemonLetsGo) {
  constexpr std::size_t kTrainers = 4;
  constexpr std::size_t kNodes = 1024;
  constexpr std::size_t kRepeats = 200;
  MemoryState state(kNodes, 16, 16);
  std::vector<NodeId> nodes(kNodes);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});

  for (std::size_t rep = 0; rep < kRepeats; ++rep) {
    DaemonConfig cfg;
    cfg.i = kTrainers;
    cfg.j = 1;
    cfg.reset_before_round.assign(1u << 20, 0);  // never runs out
    MemoryDaemon daemon(state, cfg);
    daemon.start();

    // Abort once some reads have been served, at staggered offsets into
    // the traffic that follows (relaxed: the counter must add no
    // happens-before of its own).
    std::atomic<std::size_t> reads_done{0};
    std::thread aborter([&] {
      while (reads_done.load(std::memory_order_relaxed) < 1 + rep % kTrainers)
        std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::microseconds(rep % 5 * 20));
      daemon.abort();
    });
    run_trainers(kTrainers, [&](std::size_t rank) {
      try {
        for (;;) {
          {
            MemorySlice slice;
            daemon.read(rank, nodes, slice);
          }
          reads_done.fetch_add(1, std::memory_order_relaxed);
          daemon.write(rank, make_write(static_cast<NodeId>(rank), 1.0f, 16,
                                        16, 1.0f));
        }
      } catch (const dist::FabricError& e) {
        EXPECT_EQ(e.code(), dist::FabricErrc::kAborted);
      }
    });
    aborter.join();
    daemon.join();
  }
}

TEST(Daemon, AbortBeforeStartFailsFastTyped) {
  MemoryState state(4, 2, 2);
  DaemonConfig cfg;
  cfg.reset_before_round.assign(1, 0);
  MemoryDaemon daemon(state, cfg);
  daemon.abort();
  try {
    daemon.read(0, std::vector<NodeId>{0});
    FAIL() << "read on an aborted daemon must throw";
  } catch (const dist::FabricError& e) {
    EXPECT_EQ(e.code(), dist::FabricErrc::kAborted);
  }
}

}  // namespace
}  // namespace disttgl
