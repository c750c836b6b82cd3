// Chunked, allocation-free collective for trainers — the seam between
// the in-process (thread), multi-process (shm) and multi-machine (TCP)
// transport fabrics.
//
// Plays the role NCCL plays in the paper: synchronous gradient averaging
// across trainers. The payload is partitioned into fixed-size chunks,
// each owned by one rank; an allreduce is a reduce-scatter (each rank
// reduces only the chunks it owns, in fixed rank order, so results are
// bitwise deterministic regardless of thread/process count or arrival
// order) followed by an allgather from a shared result row. Per-rank
// work is O(size), staging is persistent and sized once (reserve()), so
// steady-state calls never touch the allocator, and logical traffic is
// accounted per the ring algorithm so Table 1's "synchronization across
// trainers" row can be measured rather than asserted.
//
// The algorithm is written once, here, in Comm::allreduce_mean. A
// transport supplies only memory and a barrier: stage() hands the engine
// a Staging view (one contribution row per rank at a fixed stride, the
// shared result row, the per-rank size words), sync() is the barrier,
// record() bumps the traffic counters. ThreadComm backs the view with
// process-local vectors and a SpinBarrier, ProcComm with a POSIX shm
// segment and a futex barrier, and HierComm stacks on a ProcComm and
// replaces the reduce step with its cross-host leader fold. Running the
// same code over different memory is what makes the cross-fabric
// equivalence grid in tests/test_equivalence.cpp a bit-identical
// comparison rather than a tolerance test.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "util/barrier.hpp"
#include "util/wait.hpp"

namespace disttgl::dist {

class Comm {
 public:
  struct Options {
    // Elements per reduce-scatter chunk; chunk c is owned by rank
    // c % ranks. 0 = one balanced chunk per rank (ceil(size / ranks)).
    // Smaller chunks interleave ownership across the payload (useful
    // when per-element cost is skewed); they do not change results.
    std::size_t chunk_elems = 0;
    // Bounded-spin → park budget for every wait inside the collective.
    WaitPolicy wait;
  };

  virtual ~Comm() = default;

  std::size_t ranks() const { return ranks_; }
  const Options& options() const { return opts_; }

  // Pre-sizes the persistent staging buffers for payloads up to
  // `max_elems`. Call once before the trainers start. ThreadComm can
  // grow later (barrier-protected, allocating); ProcComm cannot — its
  // segment is fixed at creation, and an oversize payload is a typed
  // kCapacity error.
  virtual void reserve(std::size_t max_elems) = 0;
  virtual std::size_t capacity() const = 0;

  // Replace `data` on every rank with the elementwise mean across ranks.
  // All ranks must call with equally-sized spans. Blocking.
  void allreduce_mean(std::size_t rank, std::span<float> data);

  // Logical bytes a ring allreduce would have moved so far (all calls).
  virtual std::uint64_t logical_bytes() const = 0;
  virtual std::uint64_t num_allreduces() const = 0;

  // Poisons the collective: peers currently parked (or arriving later)
  // fail with kAborted instead of waiting for a rank that will never
  // come. Error paths and the recovery supervisor use this for fast
  // group teardown. Idempotent; callable from any thread.
  virtual void abort_session() = 0;
  virtual bool aborted() const = 0;

  // Full-group synchronization point, used by the checkpoint protocol.
  // A size-0 allreduce: the memcpys are guarded and the chunk loops are
  // no-ops, so this reuses every transport's deadline/abort machinery
  // instead of adding a second barrier implementation per transport.
  void barrier(std::size_t rank) { allreduce_mean(rank, {}); }

  // Chunk partition of a payload of `size` elements.
  std::size_t chunk_elems_for(std::size_t size) const;
  std::size_t num_chunks_for(std::size_t size) const;

  // The memory a transport lends the engine for one call. Row r of the
  // `rows` ranks sharing it starts at staged + r * stride.
  struct Staging {
    float* staged = nullptr;
    std::size_t stride = 0;
    float* result = nullptr;          // shared result row (the means)
    std::uint64_t* sizes = nullptr;   // per-row payload size (contract check)
    std::size_t rows = 0;
    std::size_t row = 0;              // the calling rank's row
  };

 protected:
  Comm(std::size_t ranks, Options opts);

  // ---- transport hooks ----
  // Makes room for a `size`-element payload (grow, or a typed kCapacity
  // error) and returns the staging view for `rank`.
  virtual Staging stage(std::size_t rank, std::size_t size) = 0;
  // Barrier across the rows. Throws the transport's typed FabricError
  // (kAborted, kPeerTimeout) instead of returning when the group fails.
  virtual void sync(std::size_t rank) = 0;
  // Counts one call moving `bytes` of logical ring traffic.
  virtual void record(std::uint64_t bytes) = 0;
  // Between the two barriers: fill s.result[0, size) with the means.
  // The default is the reduce-scatter — `rank` folds the chunks it owns.
  virtual void reduce(std::size_t rank, std::size_t size, const Staging& s);

  // Every row deposited a payload of `size` elements.
  static void check_uniform_size(const Staging& s, std::size_t size);

  // Ring allreduce volume for one call: each rank sends 2(r−1)/r of the
  // payload.
  std::uint64_t ring_bytes(std::size_t size) const;

  std::size_t ranks_;
  Options opts_;
};

// In-process transport: trainer threads over process-local staging
// vectors, synchronized by a SpinBarrier.
class ThreadComm final : public Comm {
 public:
  explicit ThreadComm(std::size_t ranks);
  ThreadComm(std::size_t ranks, Options opts);

  void reserve(std::size_t max_elems) override;
  std::size_t capacity() const override { return max_elems_; }

  std::uint64_t logical_bytes() const override {
    return logical_bytes_.load();
  }
  std::uint64_t num_allreduces() const override { return num_calls_.load(); }

  void abort_session() override {
    aborted_.store(true, std::memory_order_release);
    barrier_.poison();
  }
  bool aborted() const override {
    return aborted_.load(std::memory_order_acquire);
  }

 private:
  Staging stage(std::size_t rank, std::size_t size) override;
  // Barrier arrival that converts a poisoned barrier into the same
  // typed kAborted the proc fabric throws, so trainer error handling is
  // fabric-independent.
  void sync(std::size_t rank) override;
  void record(std::uint64_t bytes) override;

  SpinBarrier barrier_;
  std::vector<BarrierToken> tokens_;
  // Persistent staging: one contribution row per rank at stride
  // max_elems_, one shared result row.
  std::vector<float> staged_;
  std::vector<float> result_;
  std::vector<std::uint64_t> sizes_;
  std::size_t max_elems_ = 0;
  std::atomic<std::uint64_t> logical_bytes_{0};
  std::atomic<std::uint64_t> num_calls_{0};
  std::atomic<bool> aborted_{false};
};

}  // namespace disttgl::dist
