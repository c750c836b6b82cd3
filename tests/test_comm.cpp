// The gradient-sync layer (src/distributed/comm.*): chunked
// reduce-scatter + allgather semantics, bitwise determinism across
// thread counts / arrival orders / chunk sizes, odd payloads vs chunk
// boundaries, capacity growth, and logical-byte accounting. The
// allocation contract lives in tests/test_comm_alloc.cpp; the
// cross-transport table (ThreadComm ≡ ProcComm ≡ HierComm) in
// tests/test_fabric.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "distributed/comm.hpp"

namespace disttgl::dist {
namespace {

// Reference: elementwise double accumulation in rank order, times
// 1/ranks — the exact arithmetic the reduce-scatter owner performs, so
// results must match bit for bit.
std::vector<float> reference_mean(const std::vector<std::vector<float>>& data) {
  const std::size_t ranks = data.size();
  std::vector<float> out(data[0].size());
  const double inv = 1.0 / static_cast<double>(ranks);
  for (std::size_t i = 0; i < out.size(); ++i) {
    double acc = 0.0;
    for (std::size_t r = 0; r < ranks; ++r)
      acc += static_cast<double>(data[r][i]);
    out[i] = static_cast<float>(acc * inv);
  }
  return out;
}

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

// Runs one allreduce_mean on `comm` with one thread per rank; optional
// per-rank pre-call delays to force specific arrival orders.
void run_allreduce(ThreadComm& comm, std::vector<std::vector<float>>& data,
                   const std::vector<int>& delay_us = {}) {
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < comm.ranks(); ++r) {
    threads.emplace_back([&, r] {
      if (!delay_us.empty() && delay_us[r] > 0)
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us[r]));
      comm.allreduce_mean(r, data[r]);
    });
  }
  for (auto& t : threads) t.join();
}

TEST(ThreadCommRing, MatchesRankOrderedReferenceAcrossShapes) {
  for (const std::size_t ranks : {2u, 3u, 4u, 8u}) {
    for (const std::size_t size : {1u, 5u, 8u, 17u, 64u, 1000u}) {
      for (const std::size_t chunk : {0u, 1u, 3u, 8u, 64u}) {
        ThreadComm comm(ranks, ThreadComm::Options{.chunk_elems = chunk});
        auto data = make_payloads(ranks, size, 3);
        const std::vector<float> want = reference_mean(data);
        run_allreduce(comm, data);
        for (std::size_t r = 0; r < ranks; ++r)
          for (std::size_t i = 0; i < size; ++i)
            ASSERT_EQ(data[r][i], want[i])
                << "ranks=" << ranks << " size=" << size << " chunk=" << chunk
                << " rank=" << r << " i=" << i;
      }
    }
  }
}

TEST(ThreadCommRing, ChunkSizeDoesNotChangeBits) {
  // The owned-chunk partition is an implementation schedule, not a math
  // change: every chunking of the same payload must produce identical
  // bits (each element is still reduced in fixed rank order).
  const std::size_t ranks = 4, size = 237;
  auto base = make_payloads(ranks, size, 11);
  std::vector<float> want;
  {
    ThreadComm comm(ranks);
    auto data = base;
    run_allreduce(comm, data);
    want = data[0];
  }
  for (const std::size_t chunk : {1u, 2u, 7u, 16u, 100u, 237u, 1000u}) {
    ThreadComm comm(ranks, ThreadComm::Options{.chunk_elems = chunk});
    auto data = base;
    run_allreduce(comm, data);
    for (std::size_t r = 0; r < ranks; ++r)
      ASSERT_EQ(data[r], want) << "chunk=" << chunk << " rank=" << r;
  }
}

TEST(ThreadCommRing, ArrivalOrderGridIsDeterministic) {
  // Force every rank in turn to be the straggler (and one round with
  // reversed staggering): the fixed rank-order reduction must make the
  // result independent of who arrives last.
  const std::size_t ranks = 4, size = 53;
  auto base = make_payloads(ranks, size, 7);
  std::vector<float> want;
  {
    ThreadComm comm(ranks);
    auto data = base;
    run_allreduce(comm, data);
    want = data[0];
  }
  for (std::size_t straggler = 0; straggler <= ranks; ++straggler) {
    ThreadComm comm(ranks);
    auto data = base;
    std::vector<int> delays(ranks, 0);
    if (straggler < ranks) {
      delays[straggler] = 3000;
    } else {
      for (std::size_t r = 0; r < ranks; ++r)
        delays[r] = static_cast<int>((ranks - r) * 1000);
    }
    run_allreduce(comm, data, delays);
    for (std::size_t r = 0; r < ranks; ++r)
      ASSERT_EQ(data[r], want) << "straggler=" << straggler << " rank=" << r;
  }
}

TEST(ThreadCommRing, RepeatedRoundsReusePersistentStaging) {
  // Back-to-back rounds (no joins between calls inside a thread) must be
  // correct — this exercises the re-entry window where a fast rank
  // deposits round t+1 while slower ranks still allgather round t.
  const std::size_t ranks = 3, size = 40, rounds = 50;
  ThreadComm comm(ranks);
  comm.reserve(size);
  std::vector<std::vector<float>> data(ranks, std::vector<float>(size));
  std::vector<std::vector<float>> want(rounds);
  for (std::size_t t = 0; t < rounds; ++t)
    want[t] = reference_mean(make_payloads(ranks, size, static_cast<std::uint32_t>(t)));

  std::vector<int> failures(ranks, -1);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      for (std::size_t t = 0; t < rounds; ++t) {
        data[r] = make_payloads(ranks, size, static_cast<std::uint32_t>(t))[r];
        comm.allreduce_mean(r, data[r]);
        if (data[r] != want[t] && failures[r] < 0)
          failures[r] = static_cast<int>(t);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t r = 0; r < ranks; ++r)
    EXPECT_EQ(failures[r], -1) << "rank " << r << " diverged at that round";
  EXPECT_EQ(comm.num_allreduces(), rounds);
}

TEST(ThreadCommRing, ZeroSpinBudgetCompletes) {
  // spin_polls = 0 makes every barrier wait park immediately — the
  // regression for the hoisted spin→park threshold (a barrier release
  // that only worked because waiters happened to re-poll would hang).
  const std::size_t ranks = 4, size = 129, rounds = 8;
  ThreadComm comm(ranks, ThreadComm::Options{
                             .wait = WaitPolicy{.spin_polls = 0}});
  comm.reserve(size);
  auto base = make_payloads(ranks, size, 13);
  const std::vector<float> want = reference_mean(base);
  std::vector<std::thread> threads;
  std::vector<int> failures(ranks, -1);
  for (std::size_t r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> data;
      for (std::size_t t = 0; t < rounds; ++t) {
        data = base[r];
        comm.allreduce_mean(r, data);
        if (data != want && failures[r] < 0)
          failures[r] = static_cast<int>(t);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t r = 0; r < ranks; ++r)
    EXPECT_EQ(failures[r], -1) << "rank " << r << " diverged at that round";
}

TEST(ThreadCommRing, SingleRankIsIdentity) {
  ThreadComm comm(1);
  std::vector<float> data = {1.0f, 2.0f};
  comm.allreduce_mean(0, data);
  EXPECT_FLOAT_EQ(data[0], 1.0f);
  EXPECT_FLOAT_EQ(data[1], 2.0f);
  EXPECT_EQ(comm.num_allreduces(), 0u);
  EXPECT_EQ(comm.logical_bytes(), 0u);
}

TEST(ThreadCommRing, EmptyPayloadIsANoOp) {
  const std::size_t ranks = 4;
  ThreadComm comm(ranks);
  std::vector<std::vector<float>> data(ranks);
  run_allreduce(comm, data);  // must not hang or touch anything
  EXPECT_EQ(comm.num_allreduces(), 1u);
  EXPECT_EQ(comm.logical_bytes(), 0u);
}

TEST(ThreadCommRing, PayloadSmallerThanRankCount) {
  // With auto chunking, size < ranks leaves trailing ranks owning no
  // chunk at all; they must still participate in the barriers.
  const std::size_t ranks = 8, size = 3;
  ThreadComm comm(ranks);
  auto data = make_payloads(ranks, size, 5);
  const std::vector<float> want = reference_mean(data);
  run_allreduce(comm, data);
  for (std::size_t r = 0; r < ranks; ++r) EXPECT_EQ(data[r], want);
}

TEST(ThreadCommRing, ReserveAndGrowth) {
  const std::size_t ranks = 2;
  ThreadComm comm(ranks);
  EXPECT_EQ(comm.capacity(), 0u);
  comm.reserve(100);
  EXPECT_EQ(comm.capacity(), 100u);
  comm.reserve(10);  // never shrinks
  EXPECT_EQ(comm.capacity(), 100u);

  // A payload beyond capacity grows inside the collective.
  auto data = make_payloads(ranks, 300, 1);
  const std::vector<float> want = reference_mean(data);
  run_allreduce(comm, data);
  EXPECT_GE(comm.capacity(), 300u);
  for (std::size_t r = 0; r < ranks; ++r) EXPECT_EQ(data[r], want);
}

TEST(ThreadCommRing, LogicalBytesFollowRingFormula) {
  const std::size_t ranks = 4, size = 128;
  ThreadComm comm(ranks);
  auto data = make_payloads(ranks, size, 2);
  run_allreduce(comm, data);
  const auto expected = static_cast<std::uint64_t>(
      2.0 * (ranks - 1) / ranks * size * sizeof(float) * ranks);
  EXPECT_EQ(comm.logical_bytes(), expected);
  EXPECT_EQ(comm.num_allreduces(), 1u);
}

}  // namespace
}  // namespace disttgl::dist
