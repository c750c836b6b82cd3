// Process-fabric correctness: the cross-process collective (ProcComm)
// and daemon channel (ShmDaemonChannel) must be drop-in equivalents of
// their in-process counterparts — bit-identical collective results,
// bit-identical served slices, same accounting — plus the rendezvous
// handshake and the spin→park threshold regression (threshold 0 must
// complete on every transport). Fault injection lives in
// tests/test_fabric_faults.cpp, wire fuzzing in tests/test_fabric_wire.cpp,
// allocation pinning in tests/test_fabric_alloc.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "distributed/hier_comm.hpp"
#include "distributed/launch.hpp"
#include "distributed/proc_comm.hpp"
#include "distributed/rendezvous.hpp"
#include "distributed/shm.hpp"
#include "distributed/socket.hpp"
#include "distributed/wire.hpp"
#include "memory/shm_channel.hpp"

namespace disttgl::dist {
namespace {

constexpr std::chrono::milliseconds kTimeout{30'000};

std::vector<std::vector<float>> make_payloads(std::size_t ranks,
                                              std::size_t size,
                                              std::uint32_t salt) {
  std::vector<std::vector<float>> data(ranks, std::vector<float>(size));
  for (std::size_t r = 0; r < ranks; ++r)
    for (std::size_t i = 0; i < size; ++i)
      data[r][i] = 0.25f * static_cast<float>((r * 31 + i * 7 + salt) % 23) -
                   1.5f + 1e-3f * static_cast<float>(i);
  return data;
}

// The bit-exactness reference, computed here rather than by any
// transport: per element a left fold in double over ranks 0..R-1, times
// 1/R, rounded once to float.
std::vector<float> rank_ordered_fold(
    const std::vector<std::vector<float>>& data) {
  const double inv = 1.0 / static_cast<double>(data.size());
  std::vector<float> out(data[0].size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    double acc = 0.0;
    for (const std::vector<float>& row : data)
      acc += static_cast<double>(row[i]);
    out[i] = static_cast<float>(acc * inv);
  }
  return out;
}

TEST(ProcCommFabric, ZeroSpinBudgetCompletes) {
  // spin_polls = 0 parks on the futex immediately at every wait site —
  // the regression for the hoisted spin→park threshold (a wake that only
  // worked because a spinning waiter happened to re-poll would hang).
  const std::size_t world = 2, size = 64;
  const Comm::Options opts{.wait = WaitPolicy{.spin_polls = 0}};
  const auto data = make_payloads(world, size, 5);
  const std::vector<float> want = rank_ordered_fold(data);

  const std::string prefix = make_session_prefix();
  {
    ProcComm owner =
        ProcComm::create(prefix + ".comm", world, size, opts, kTimeout);
    const auto payloads = disttgl_launch(
        world,
        [&](std::size_t rank) {
          ProcComm comm =
              ProcComm::attach(prefix + ".comm", world, opts, kTimeout);
          std::vector<float> mine = data[rank];
          comm.allreduce_mean(rank, mine);
          WireWriter w;
          w.put_f32s(mine);
          return w.take();
        },
        kTimeout);
    for (std::size_t r = 0; r < world; ++r) {
      WireCursor c(payloads[r]);
      ASSERT_EQ(c.get_f32s(), want);
    }
  }
  EXPECT_TRUE(list_shm(prefix).empty());
}

TEST(ProcCommFabric, ReserveBeyondSegmentCapacityIsTyped) {
  const std::string prefix = make_session_prefix();
  {
    ProcComm owner = ProcComm::create(prefix + ".comm", 2, 100,
                                      Comm::Options{}, kTimeout);
    EXPECT_EQ(owner.capacity(), 100u);
    owner.reserve(100);  // at capacity: fine
    try {
      owner.reserve(101);
      FAIL() << "reserve beyond a fixed segment must throw";
    } catch (const FabricError& e) {
      EXPECT_EQ(e.code(), FabricErrc::kCapacity);
    }
  }
  EXPECT_TRUE(list_shm(prefix).empty());
}

// ---- hierarchical TCP comm (simulated multi-machine) ---------------------

TEST(HierTopology, BalancedSpansCoverTheWorldInOrder) {
  for (const std::size_t world : {1u, 2u, 4u, 5u, 7u}) {
    for (std::size_t hosts = 1; hosts <= world; ++hosts) {
      std::size_t prev_end = 0;
      std::size_t min_len = world, max_len = 0;
      for (std::size_t h = 0; h < hosts; ++h) {
        const auto [begin, end] = host_span(h, world, hosts);
        ASSERT_EQ(begin, prev_end) << "gap before host " << h;
        ASSERT_LT(begin, end) << "empty host " << h;
        min_len = std::min(min_len, end - begin);
        max_len = std::max(max_len, end - begin);
        for (std::size_t r = begin; r < end; ++r)
          ASSERT_EQ(host_of_rank(r, world, hosts), h);
        prev_end = end;
      }
      ASSERT_EQ(prev_end, world);
      ASSERT_LE(max_len - min_len, 1u) << "unbalanced split";
    }
  }
}

TEST(HierTopology, TopologyForAgreesWithSpans) {
  const std::size_t world = 5, hosts = 2;  // spans [0,3) and [3,5)
  for (std::size_t r = 0; r < world; ++r) {
    const auto t = HierComm::topology_for(r, world, hosts);
    EXPECT_EQ(t.world, world);
    EXPECT_EQ(t.hosts, hosts);
    EXPECT_EQ(t.global_rank, r);
    EXPECT_EQ(t.host, r < 3 ? 0u : 1u);
    EXPECT_EQ(t.local_rank, r < 3 ? r : r - 3);
    EXPECT_EQ(t.local_world, r < 3 ? 3u : 2u);
  }
}

// Forked multi-host harness mirroring train_multiprocess's TCP setup:
// per-host shm segments, a loopback TCP rendezvous, leaders on a real
// loopback ring. `fn` runs inside each forked rank with its HierComm.
// `host_counters`, when given, receives each host segment's
// {num_allreduces(), logical_bytes()} after the ranks exit.
std::vector<std::vector<std::uint8_t>> run_hier(
    std::size_t world, std::size_t hosts, Comm::Options opts,
    std::size_t max_elems,
    const std::function<std::vector<std::uint8_t>(std::size_t, HierComm&)>&
        fn,
    std::vector<std::pair<std::uint64_t, std::uint64_t>>* host_counters =
        nullptr) {
  const std::string prefix = make_session_prefix();
  ClusterMap map;
  map.world = static_cast<std::uint32_t>(world);
  map.session_prefix = prefix;
  map.bind_host = "127.0.0.1";
  std::vector<ProcComm> owners;
  for (std::size_t h = 0; h < hosts; ++h) {
    const auto [begin, end] = host_span(h, world, hosts);
    const std::string name = prefix + ".hc" + std::to_string(h);
    owners.push_back(
        ProcComm::create(name, end - begin, max_elems, opts, kTimeout));
    map.host_comm_shms.push_back(name);
    map.spans.push_back({static_cast<std::uint32_t>(begin),
                         static_cast<std::uint32_t>(end), 0});
  }
  std::uint16_t rdv_port = 0;
  FdHandle listener = tcp_listen("127.0.0.1", 0, 16, rdv_port);

  ProcGroup group = ProcGroup::spawn(world, [&](std::size_t rank) {
    const auto topo = HierComm::topology_for(rank, world, hosts);
    FdHandle ring_listen;
    std::uint16_t ring_port = 0;
    if (topo.local_rank == 0 && hosts > 1)
      ring_listen = tcp_listen("127.0.0.1", 0, 16, ring_port);
    const ClusterMap m = tcp_rendezvous_client(
        "127.0.0.1", rdv_port, static_cast<std::uint32_t>(world),
        static_cast<std::uint32_t>(rank), ring_port, kTimeout);
    ProcComm local = ProcComm::attach(m.host_comm_shms[topo.host],
                                      topo.local_world, opts, kTimeout);
    RingEndpoints ring;
    if (topo.local_rank == 0 && hosts > 1)
      ring = connect_ring(ring_listen.get(), m, topo.host,
                          deadline_after(kTimeout), true);
    ring_listen.reset();
    HierComm comm(std::move(local), topo, std::move(ring), kTimeout);
    return fn(rank, comm);
  });
  tcp_rendezvous_host(listener.get(), map, kTimeout);

  std::vector<ChildResult> results = group.wait(kTimeout);
  for (const ChildResult& r : results)
    if (!r.ok)
      throw_fabric(r.errc, "rank " + std::to_string(r.rank) +
                               " failed: " + r.message);
  if (host_counters != nullptr)
    for (const ProcComm& owner : owners)
      host_counters->emplace_back(owner.num_allreduces(),
                                  owner.logical_bytes());
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.reserve(world);
  for (ChildResult& r : results) payloads.push_back(std::move(r.payload));
  return payloads;
}

TEST(HierCommFabric, AccountingMatchesThreadCommConvention) {
  // Global rank 0 accounts into host 0's segment header with the GLOBAL
  // ring_bytes formula — so the parent's owning handle for host 0 sees
  // exactly what a ThreadComm/ProcComm of the same world would report.
  const std::size_t world = 4, hosts = 2, size = 256;
  const auto data = make_payloads(world, size, 2);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> counters;
  run_hier(
      world, hosts, Comm::Options{}, size,
      [&](std::size_t rank, HierComm& comm) {
        std::vector<float> mine = data[rank];
        comm.allreduce_mean(rank, mine);
        return std::vector<std::uint8_t>{};
      },
      &counters);
  ASSERT_EQ(counters.size(), hosts);
  EXPECT_EQ(counters[0].first, 1u);
  EXPECT_EQ(counters[0].second,
            static_cast<std::uint64_t>(2.0 * (world - 1) / world * size *
                                       sizeof(float) * world));
  // Host 1's segment carries no global counters (rank 0 lives on host 0).
  EXPECT_EQ(counters[1].first, 0u);
}

// ---- one cross-transport table --------------------------------------------

// Every transport runs the same engine (Comm::allreduce_mean) over its
// own memory and barrier, so each must land bit for bit on the
// rank-ordered fold, for empty, tiny, odd and multi-chunk payloads and
// any chunk option. Host 0's counters must read one call of ring
// traffic over the global world.
enum class Transport { kThread, kProc, kHier1, kHier2, kHier3 };
constexpr std::size_t kTableWorld = 4;

using TableCase = std::tuple<Transport, std::size_t, std::size_t>;

std::string table_case_name(const ::testing::TestParamInfo<TableCase>& info) {
  static const char* const kNames[] = {"Thread", "Proc", "Hier1host",
                                       "Hier2hosts", "Hier3hosts"};
  const auto [transport, size, chunk] = info.param;
  return std::string(kNames[static_cast<int>(transport)]) + "_size" +
         std::to_string(size) + "_chunk" + std::to_string(chunk);
}

std::vector<std::uint8_t> allreduce_and_encode(Comm& comm, std::size_t rank,
                                               std::vector<float> mine) {
  comm.allreduce_mean(rank, mine);
  WireWriter w;
  w.put_f32s(mine);
  return w.take();
}

class CommTransportTable : public ::testing::TestWithParam<TableCase> {};

TEST_P(CommTransportTable, AllreduceMeanBitIdenticalToRankOrderedFold) {
  const auto [transport, size, chunk] = GetParam();
  const std::size_t world = kTableWorld;
  const auto data = make_payloads(world, size, 9);
  const Comm::Options opts{.chunk_elems = chunk};
  const std::string prefix = make_session_prefix();

  std::vector<std::vector<std::uint8_t>> payloads(world);
  std::pair<std::uint64_t, std::uint64_t> host0;  // {calls, bytes}
  if (transport == Transport::kThread) {
    ThreadComm comm(world, opts);
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < world; ++r)
      threads.emplace_back(
          [&, r] { payloads[r] = allreduce_and_encode(comm, r, data[r]); });
    for (auto& t : threads) t.join();
    host0 = {comm.num_allreduces(), comm.logical_bytes()};
  } else if (transport == Transport::kProc) {
    ProcComm owner =
        ProcComm::create(prefix + ".comm", world, size, opts, kTimeout);
    payloads = disttgl_launch(
        world,
        [&](std::size_t rank) {
          ProcComm comm =
              ProcComm::attach(prefix + ".comm", world, opts, kTimeout);
          return allreduce_and_encode(comm, rank, data[rank]);
        },
        kTimeout);
    host0 = {owner.num_allreduces(), owner.logical_bytes()};
  } else {
    const std::size_t hosts = static_cast<std::size_t>(transport) -
                              static_cast<std::size_t>(Transport::kHier1) + 1;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> counters;
    payloads = run_hier(
        world, hosts, opts, size,
        [&](std::size_t rank, HierComm& comm) {
          return allreduce_and_encode(comm, rank, data[rank]);
        },
        &counters);
    host0 = counters.at(0);
  }

  const std::vector<float> want = rank_ordered_fold(data);
  for (std::size_t r = 0; r < world; ++r) {
    WireCursor c(payloads[r]);
    ASSERT_EQ(c.get_f32s(), want) << "rank " << r;
  }
  EXPECT_EQ(host0.first, 1u);
  EXPECT_EQ(host0.second,
            static_cast<std::uint64_t>(2.0 * (world - 1) / world * size *
                                       sizeof(float) * world));
  EXPECT_TRUE(list_shm(prefix).empty()) << "leaked shm segment";
}

INSTANTIATE_TEST_SUITE_P(
    Table, CommTransportTable,
    ::testing::Combine(::testing::Values(Transport::kThread, Transport::kProc,
                                         Transport::kHier1, Transport::kHier2,
                                         Transport::kHier3),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         kTableWorld - 1, std::size_t{1000},
                                         std::size_t{4097}),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{37})),
    table_case_name);

// ---- TCP endpoint + deadline plumbing ------------------------------------

TEST(TcpSocket, FramedRoundTripOverLoopback) {
  std::uint16_t port = 0;
  FdHandle listener = tcp_listen("127.0.0.1", 0, 4, port);
  ASSERT_GT(port, 0);

  const Deadline deadline = deadline_after(kTimeout);
  FdHandle dialed = tcp_connect("127.0.0.1", port, deadline);
  FdHandle accepted = accept_conn(listener.get(), deadline);
  tcp_set_nodelay(accepted.get());

  TcpEndpoint a(std::move(dialed));
  TcpEndpoint b(std::move(accepted));
  const std::vector<std::uint8_t> payload = {1, 2, 3, 42, 0, 255};
  a.send(MsgType::kCollective, payload, deadline);
  Frame f;
  ASSERT_TRUE(b.recv(f, deadline));
  EXPECT_EQ(f.type, MsgType::kCollective);
  EXPECT_EQ(f.payload, payload);
  // Header (16B) + payload, counted on the sender.
  EXPECT_EQ(a.bytes_sent(), 16u + payload.size());
  EXPECT_EQ(b.bytes_sent(), 0u);

  // Duplex: the accepted side answers on the same connection.
  b.send(MsgType::kHeartbeat, {}, deadline);
  ASSERT_TRUE(a.recv(f, deadline));
  EXPECT_EQ(f.type, MsgType::kHeartbeat);
  EXPECT_TRUE(f.payload.empty());
}

TEST(TcpSocket, SecondListenerOnSamePortIsAddrInUse) {
  std::uint16_t port = 0;
  FdHandle listener = tcp_listen("127.0.0.1", 0, 4, port);
  std::uint16_t other = 0;
  try {
    FdHandle second = tcp_listen("127.0.0.1", port, 4, other);
    FAIL() << "binding a live TCP port must throw";
  } catch (const FabricError& e) {
    EXPECT_EQ(e.code(), FabricErrc::kAddrInUse);
  }
}

TEST(SocketDeadline, DeadlineAfterSaturatesInsteadOfOverflowing) {
  // milliseconds::max() used to overflow now + ms into the distant past,
  // which turned every poll timeout into 0 ms — a busy spin.
  const Deadline d = deadline_after(std::chrono::milliseconds::max());
  EXPECT_EQ(d, kNoDeadline);
  EXPECT_EQ(poll_timeout_ms(d), 60'000);  // bounded slice, not 0

  // A deadline already in the past polls 0 (immediate), never negative.
  const Deadline past =
      std::chrono::steady_clock::now() - std::chrono::seconds(5);
  EXPECT_EQ(poll_timeout_ms(past), 0);

  // A near deadline yields a positive bounded slice.
  const Deadline soon = deadline_after(std::chrono::milliseconds(1'500));
  const int ms = poll_timeout_ms(soon);
  EXPECT_GT(ms, 0);
  EXPECT_LE(ms, 1'500);
}

// ---- rendezvous ----------------------------------------------------------

TEST(Rendezvous, HandshakeDeliversSessionInfoToEveryRank) {
  const std::string prefix = make_session_prefix();
  const std::string sock = "/tmp" + prefix + ".sock";
  RendezvousInfo info;
  info.world = 3;
  info.session_prefix = prefix;
  info.comm_shm = prefix + ".comm";
  info.daemon_shms = {prefix + ".mem0", prefix + ".mem1"};

  ProcGroup group = ProcGroup::spawn(3, [&](std::size_t rank) {
    const RendezvousInfo got = rendezvous_client(
        sock, 3, static_cast<std::uint32_t>(rank), kTimeout);
    return encode_rendezvous_info(got);
  });
  rendezvous_host(sock, info, kTimeout);
  const std::vector<ChildResult> results = group.wait(kTimeout);

  const std::vector<std::uint8_t> want = encode_rendezvous_info(info);
  for (const ChildResult& r : results) {
    ASSERT_TRUE(r.ok) << "rank " << r.rank << ": " << r.message;
    EXPECT_EQ(r.payload, want) << "rank " << r.rank;
  }
}

// ---- cross-process daemon channel ----------------------------------------

ShmDaemonSpec small_spec() {
  ShmDaemonSpec spec;
  spec.slots = 2;  // i=2, j=1
  spec.mem_dim = 3;
  spec.mail_dim = 5;
  spec.max_read_nodes = 16;
  spec.max_write_nodes = 8;
  return spec;
}

DaemonConfig daemon_config(std::size_t rounds) {
  DaemonConfig dc;
  dc.i = 2;
  dc.j = 1;
  dc.reset_before_round.assign(rounds, 0);
  dc.reset_before_round[0] = 1;
  return dc;
}

// One client rank's scripted protocol run: `rounds` rounds of
// read-then-write with per-round varying shapes, appending every served
// slice to a WireWriter so runs can be compared byte-for-byte.
template <typename Channel>
std::vector<std::uint8_t> run_daemon_client(Channel& ch, std::size_t rank,
                                            std::size_t rounds) {
  WireWriter log;
  MemorySlice slice;
  MemoryWrite write;
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<NodeId> nodes;
    for (std::size_t x = 0; x <= (round + rank) % 3; ++x)
      nodes.push_back(static_cast<NodeId>((rank * 7 + round + x) % 10));
    ch.read(rank, nodes, slice);
    log.put_u64(slice.size());
    for (std::size_t n = 0; n < slice.size(); ++n) {
      log.put_f32s(std::span<const float>(slice.mem.row(n)));
      log.put_f32s(std::span<const float>(slice.mail.row(n)));
      log.put_f32s(std::span<const float>(&slice.mem_ts[n], 1));
      log.put_f32s(std::span<const float>(&slice.mail_ts[n], 1));
      log.put_u32(slice.has_mail[n]);
    }
    write.clear();
    // Disjoint per-rank node sets keep the round's writes commutative.
    const auto node = static_cast<NodeId>(rank * 5 + round % 5);
    write.nodes = {node};
    write.mem = Matrix(1, 3, static_cast<float>(rank + 1) + 0.1f * round);
    write.mem_ts = {static_cast<float>(round)};
    write.mail = Matrix(1, 5, static_cast<float>(rank) - 0.2f * round);
    write.mail_ts = {static_cast<float>(round) + 0.5f};
    ch.write(rank, write);
  }
  return log.take();
}

TEST(ShmDaemonFabric, ServedSlicesAndFinalStateMatchInProcessDaemon) {
  constexpr std::size_t kRounds = 6;

  // In-process reference: MemoryDaemon over the same scripted protocol.
  MemoryState ref_state(10, 3, 5);
  std::vector<std::vector<std::uint8_t>> ref_logs(2);
  {
    MemoryDaemon daemon(ref_state, daemon_config(kRounds));
    daemon.start();
    std::vector<std::thread> clients;
    for (std::size_t rank = 0; rank < 2; ++rank)
      clients.emplace_back([&, rank] {
        ref_logs[rank] = run_daemon_client(daemon, rank, kRounds);
      });
    for (auto& t : clients) t.join();
    daemon.join();
  }

  // Cross-process: clients in forked ranks, server in the parent.
  const std::string prefix = make_session_prefix();
  MemoryState shm_state(10, 3, 5);
  {
    ShmSegment segment =
        ShmDaemonChannel::create_segment(prefix + ".mem0", small_spec());
    ProcGroup group = ProcGroup::spawn(2, [&](std::size_t rank) {
      ShmDaemonChannel ch =
          ShmDaemonChannel::attach(prefix + ".mem0", WaitPolicy{}, kTimeout);
      return run_daemon_client(ch, rank, kRounds);
    });
    ShmDaemonChannel host =
        ShmDaemonChannel::attach(prefix + ".mem0", WaitPolicy{}, kTimeout);
    ShmDaemonServer server(shm_state, daemon_config(kRounds), host);
    server.start();
    const std::vector<ChildResult> results = group.wait(kTimeout);
    server.join();
    for (const ChildResult& r : results) {
      ASSERT_TRUE(r.ok) << "rank " << r.rank << ": " << r.message;
      EXPECT_EQ(r.payload, ref_logs[r.rank])
          << "rank " << r.rank << " saw different slices across fabrics";
    }
  }
  EXPECT_EQ(memory_digest(shm_state), memory_digest(ref_state));
  EXPECT_TRUE(list_shm(prefix).empty());
}

TEST(ShmDaemonFabric, InProcessClientsZeroSpinCompletes) {
  // Same channel + server, single process, spin_polls = 0 everywhere:
  // the park-immediately regression for the shm slot handshake.
  constexpr std::size_t kRounds = 4;
  const std::string prefix = make_session_prefix();
  MemoryState state(10, 3, 5);
  {
    ShmSegment segment =
        ShmDaemonChannel::create_segment(prefix + ".mem0", small_spec());
    const WaitPolicy park_now{.spin_polls = 0};
    ShmDaemonChannel ch =
        ShmDaemonChannel::attach(prefix + ".mem0", park_now, kTimeout);
    DaemonConfig dc = daemon_config(kRounds);
    dc.wait = park_now;
    ShmDaemonServer server(state, dc, ch);
    server.start();
    std::vector<std::thread> clients;
    for (std::size_t rank = 0; rank < 2; ++rank)
      clients.emplace_back([&, rank] { run_daemon_client(ch, rank, kRounds); });
    for (auto& t : clients) t.join();
    server.join();
  }
  EXPECT_TRUE(list_shm(prefix).empty());
}

}  // namespace
}  // namespace disttgl::dist
