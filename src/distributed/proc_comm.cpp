#include "distributed/proc_comm.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "util/check.hpp"
#include "util/futex.hpp"

namespace disttgl::dist {

// Shared header at offset 0 of the segment. The barrier is the epoch
// kind: arrivals count `remaining` down; the last one resets it, bumps
// `epoch`, and wakes. No per-rank sense bit needed — a rank's "sense"
// is the epoch value it read on arrival.
struct ProcCommHeader {
  std::uint32_t magic;
  std::uint32_t world;
  std::uint64_t max_elems;
  std::uint64_t chunk_elems_opt;
  alignas(64) std::atomic<std::uint32_t> remaining;
  std::atomic<std::uint32_t> epoch;
  std::atomic<std::uint32_t> aborted;
  alignas(64) std::atomic<std::uint64_t> logical_bytes;
  std::atomic<std::uint64_t> num_calls;
};

static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "shm words must be address-free for cross-process use");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);

namespace {

constexpr std::uint32_t kProcCommMagic = 0x43474444u;  // "DDGC"

std::size_t align_up(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}

struct Layout {
  std::size_t sizes_off, result_off, staged_off, total;
};

Layout layout_for(std::size_t world, std::size_t max_elems) {
  Layout l{};
  std::size_t off = align_up(sizeof(ProcCommHeader), 64);
  l.sizes_off = off;
  off = align_up(off + world * sizeof(std::uint64_t), 64);
  l.result_off = off;
  off = align_up(off + max_elems * sizeof(float), 64);
  l.staged_off = off;
  off = align_up(off + world * max_elems * sizeof(float), 64);
  l.total = off;
  return l;
}

}  // namespace

std::size_t ProcComm::segment_bytes(std::size_t world,
                                    std::size_t max_elems) {
  return layout_for(world, max_elems).total;
}

ProcComm::ProcComm(ShmSegment segment, std::size_t world, Options opts,
                   std::chrono::milliseconds timeout)
    : Comm(world, opts), segment_(std::move(segment)), timeout_(timeout) {
  hdr_ = segment_.as<ProcCommHeader>();
  const Layout l = layout_for(world, hdr_->max_elems);
  sizes_ = segment_.as<std::uint64_t>(l.sizes_off);
  result_ = segment_.as<float>(l.result_off);
  staged_ = segment_.as<float>(l.staged_off);
}

ProcComm ProcComm::create(const std::string& shm_name, std::size_t world,
                          std::size_t max_elems, Options opts,
                          std::chrono::milliseconds timeout) {
  DT_CHECK_GT(world, 0u);
  ShmSegment seg =
      ShmSegment::create(shm_name, segment_bytes(world, max_elems));
  auto* hdr = seg.as<ProcCommHeader>();
  hdr->world = static_cast<std::uint32_t>(world);
  hdr->max_elems = max_elems;
  hdr->chunk_elems_opt = opts.chunk_elems;
  hdr->remaining.store(static_cast<std::uint32_t>(world),
                       std::memory_order_relaxed);
  hdr->epoch.store(0, std::memory_order_relaxed);
  hdr->aborted.store(0, std::memory_order_relaxed);
  hdr->logical_bytes.store(0, std::memory_order_relaxed);
  hdr->num_calls.store(0, std::memory_order_relaxed);
  // Magic last: an attacher that somehow races creation sees a
  // not-yet-valid header, not a valid-looking half-initialized one.
  hdr->magic = kProcCommMagic;
  return ProcComm(std::move(seg), world, opts, timeout);
}

ProcComm ProcComm::attach(const std::string& shm_name, std::size_t world,
                          Options opts, std::chrono::milliseconds timeout) {
  // Map the header alone first to learn max_elems, then remap in full.
  std::uint64_t max_elems = 0;
  {
    ShmSegment peek = ShmSegment::attach(shm_name, sizeof(ProcCommHeader));
    const auto* hdr = peek.as<ProcCommHeader>();
    if (hdr->magic != kProcCommMagic)
      throw_fabric(FabricErrc::kBadMagic,
                   "shm " + shm_name + " is not a ProcComm segment");
    if (hdr->world != world)
      throw_fabric(FabricErrc::kShmFailure,
                   "shm " + shm_name + " world " +
                       std::to_string(hdr->world) + " != expected " +
                       std::to_string(world));
    if (hdr->chunk_elems_opt != opts.chunk_elems)
      throw_fabric(FabricErrc::kShmFailure,
                   "shm " + shm_name + " chunk_elems " +
                       std::to_string(hdr->chunk_elems_opt) +
                       " != expected " + std::to_string(opts.chunk_elems));
    max_elems = hdr->max_elems;
  }
  ShmSegment seg =
      ShmSegment::attach(shm_name, segment_bytes(world, max_elems));
  return ProcComm(std::move(seg), world, opts, timeout);
}

void ProcComm::reserve(std::size_t max_elems) {
  if (max_elems > hdr_->max_elems)
    throw_fabric(FabricErrc::kCapacity,
                 "ProcComm segment holds " + std::to_string(hdr_->max_elems) +
                     " elems, reserve(" + std::to_string(max_elems) +
                     ") cannot grow a shared mapping");
}

std::size_t ProcComm::capacity() const { return hdr_->max_elems; }

std::uint64_t ProcComm::logical_bytes() const {
  return hdr_->logical_bytes.load(std::memory_order_relaxed);
}

std::uint64_t ProcComm::num_allreduces() const {
  return hdr_->num_calls.load(std::memory_order_relaxed);
}

void ProcComm::abort_session() {
  hdr_->aborted.store(1, std::memory_order_release);
  futex_wake_all_shared(&hdr_->epoch);
}

bool ProcComm::aborted() const {
  return hdr_->aborted.load(std::memory_order_acquire) != 0;
}

void ProcComm::sync(std::size_t) {
  if (aborted()) throw_fabric(FabricErrc::kAborted, "collective poisoned");
  const std::uint32_t my_epoch = hdr_->epoch.load(std::memory_order_acquire);
  if (hdr_->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    hdr_->remaining.store(static_cast<std::uint32_t>(ranks_),
                          std::memory_order_relaxed);
    hdr_->epoch.fetch_add(1, std::memory_order_release);
    futex_wake_all_shared(&hdr_->epoch);
  } else {
    for (std::uint32_t p = 0; p < opts_.wait.spin_polls; ++p) {
      if (hdr_->epoch.load(std::memory_order_acquire) != my_epoch) break;
      if ((p & 0x3f) == 0x3f) std::this_thread::yield();
    }
    const auto deadline = std::chrono::steady_clock::now() + timeout_;
    while (hdr_->epoch.load(std::memory_order_acquire) == my_epoch) {
      if (aborted()) throw_fabric(FabricErrc::kAborted, "collective poisoned");
      const auto left = deadline - std::chrono::steady_clock::now();
      if (left.count() <= 0) {
        // This rank's peers never arrived (died, wedged). Poison the
        // session so survivors fail fast instead of each waiting out a
        // full timeout.
        abort_session();
        throw_fabric(FabricErrc::kPeerTimeout,
                     "collective barrier: peers absent after " +
                         std::to_string(timeout_.count()) + " ms");
      }
      // Park in bounded slices so the abort flag is rechecked even if a
      // wake gets lost in the load→wait window.
      futex_wait_shared(
          &hdr_->epoch, my_epoch,
          std::min(std::chrono::duration_cast<std::chrono::nanoseconds>(left),
                   std::chrono::nanoseconds(100'000'000)));
    }
  }
  if (aborted()) throw_fabric(FabricErrc::kAborted, "collective poisoned");
}

Comm::Staging ProcComm::stage(std::size_t rank, std::size_t size) {
  reserve(size);  // typed kCapacity error on overflow; never grows
  return {staged_, hdr_->max_elems, result_, sizes_, ranks_, rank};
}

void ProcComm::record(std::uint64_t bytes) {
  hdr_->num_calls.fetch_add(1, std::memory_order_relaxed);
  hdr_->logical_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

}  // namespace disttgl::dist
