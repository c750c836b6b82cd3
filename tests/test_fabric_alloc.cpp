// Allocation-freedom of the process fabric's steady state: once a
// ProcComm rank handle and a ShmDaemonChannel client have passed their
// first (high-water) round, collective and slot-protocol rounds must
// never touch the allocator — the data plane is memcpy + atomics over
// the pre-sized shm segment, and futex parking is a raw syscall. Same
// counting-global-allocator technique as tests/test_comm_alloc.cpp;
// the counter lives in this binary only.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "distributed/proc_comm.hpp"
#include "distributed/shm.hpp"
#include "memory/shm_channel.hpp"

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
constexpr std::chrono::milliseconds kTimeout{30'000};

// Two rank handles over one segment, driven by two threads in this
// process — the shm data plane is address-space agnostic, so in-process
// clients measure exactly what forked clients would execute, where the
// counting allocator can actually observe them.
std::size_t proc_comm_alloc_delta(ProcComm& rank0, ProcComm& rank1,
                                  std::size_t size) {
  std::vector<std::vector<float>> grads(2, std::vector<float>(size, 0.5f));
  std::atomic<std::size_t> before{0};
  ProcComm* comms[2] = {&rank0, &rank1};

  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      for (std::size_t t = 0; t < kWarm + kMeasured; ++t) {
        if (r == 0 && t == kWarm)
          before.store(g_alloc_count.load(), std::memory_order_relaxed);
        comms[r]->allreduce_mean(r, grads[r]);
      }
    });
  }
  for (auto& t : threads) t.join();
  return g_alloc_count.load() - before.load();
}

TEST(FabricAllocationFree, ProcCommAllreduceSteadyState) {
  const std::string prefix = make_session_prefix();
  {
    const Comm::Options opts{.chunk_elems = 64};
    ProcComm rank0 =
        ProcComm::create(prefix + ".comm", 2, 1000, opts, kTimeout);
    ProcComm rank1 =
        ProcComm::attach(prefix + ".comm", 2, opts, kTimeout);
    EXPECT_EQ(proc_comm_alloc_delta(rank0, rank1, 999), 0u)
        << "steady-state cross-process allreduce_mean allocated";
  }
  EXPECT_TRUE(list_shm(prefix).empty());
}

TEST(FabricAllocationFree, ShmDaemonChannelSteadyState) {
  const std::string prefix = make_session_prefix();
  {
    ShmDaemonSpec spec;
    spec.slots = 1;  // i=1, j=1: one client, pure protocol measurement
    spec.mem_dim = 8;
    spec.mail_dim = 12;
    spec.max_read_nodes = 32;
    spec.max_write_nodes = 16;
    ShmSegment segment =
        ShmDaemonChannel::create_segment(prefix + ".mem0", spec);
    ShmDaemonChannel ch =
        ShmDaemonChannel::attach(prefix + ".mem0", WaitPolicy{}, kTimeout);

    MemoryState state(64, 8, 12);
    DaemonConfig dc;
    dc.i = 1;
    dc.j = 1;
    dc.reset_before_round.assign(kWarm + kMeasured, 0);
    dc.reset_before_round[0] = 1;
    ShmDaemonServer server(state, dc, ch);
    server.start();

    // Client: fixed-shape read+write per round; buffers hit their
    // high-water mark during the warm rounds.
    MemorySlice slice;
    MemoryWrite write;
    std::vector<NodeId> nodes = {1, 5, 9, 13};
    write.nodes = {2, 6};
    write.mem = Matrix(2, 8, 0.5f);
    write.mem_ts = {1.0f, 2.0f};
    write.mail = Matrix(2, 12, -0.5f);
    write.mail_ts = {1.5f, 2.5f};

    std::size_t before = 0;
    for (std::size_t t = 0; t < kWarm + kMeasured; ++t) {
      if (t == kWarm) before = g_alloc_count.load();
      ch.read(0, nodes, slice);
      ch.write(0, write);
    }
    const std::size_t measured = g_alloc_count.load() - before;
    server.join();
    EXPECT_EQ(measured, 0u)
        << "steady-state shm daemon read/write rounds allocated";
  }
  EXPECT_TRUE(list_shm(prefix).empty());
}

}  // namespace
}  // namespace disttgl::dist
