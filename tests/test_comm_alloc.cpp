// Allocation-freedom of the gradient-sync layer: once the persistent
// staging is at its high-water mark (reserve(), or the first call's
// barrier-protected growth), allreduce_mean must never touch the
// allocator again — the per-iteration collective is pure memcpy +
// reduce over preallocated buffers. Same counting-global-allocator
// technique as test_kernels /
// test_batch_alloc / test_memory_alloc; the counter lives in this
// binary only.
//
// Thread lifecycle matters for the measurement: the rank threads are
// spawned once (spawning allocates), warm rounds run, rank 0 snapshots
// the counter between rounds, measured rounds run, and the final count
// is compared after the join. The comm's own barriers keep ranks in
// lockstep, so when rank 0 snapshots after its round W every rank has
// passed round W's barriers and can only be executing non-allocating
// tail copies.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "distributed/comm.hpp"

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (size + static_cast<std::size_t>(al) - 1) /
                                       static_cast<std::size_t>(al) *
                                       static_cast<std::size_t>(al)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace disttgl::dist {
namespace {

constexpr std::size_t kWarm = 3;
constexpr std::size_t kMeasured = 12;

// Runs kWarm + kMeasured rounds on `ranks` persistent threads. Returns
// the allocation delta observed across the measured rounds.
std::size_t measured_alloc_delta(ThreadComm& comm, std::size_t size) {
  const std::size_t ranks = comm.ranks();
  std::vector<std::vector<float>> grads(ranks, std::vector<float>(size, 0.5f));
  std::atomic<std::size_t> before{0};

  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      for (std::size_t t = 0; t < kWarm + kMeasured; ++t) {
        if (r == 0 && t == kWarm)
          before.store(g_alloc_count.load(), std::memory_order_relaxed);
        comm.allreduce_mean(r, grads[r]);
      }
    });
  }
  for (auto& t : threads) t.join();
  return g_alloc_count.load() - before.load();
}

TEST(CommAllocationFree, ReservedAllreduceSteadyState) {
  ThreadComm comm(4);
  comm.reserve(4096);
  EXPECT_EQ(measured_alloc_delta(comm, 4096), 0u)
      << "steady-state allreduce_mean allocated";
}

TEST(CommAllocationFree, FirstCallGrowsThenSteadyState) {
  // No reserve(): the first round's barrier-protected growth is the only
  // allocating event; warm rounds absorb it and the measured window must
  // stay clean.
  ThreadComm comm(3);
  EXPECT_EQ(measured_alloc_delta(comm, 1000), 0u)
      << "post-growth allreduce_mean allocated";
  EXPECT_GE(comm.capacity(), 1000u);
}

TEST(CommAllocationFree, OddPayloadSteadyState) {
  // Payloads that straddle chunk boundaries exercise the partial tail
  // chunk on every round.
  ThreadComm comm(4, ThreadComm::Options{.chunk_elems = 64});
  comm.reserve(999);
  EXPECT_EQ(measured_alloc_delta(comm, 999), 0u);
}

}  // namespace
}  // namespace disttgl::dist
