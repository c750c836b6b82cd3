// Memory daemon process (§3.3, Algorithm 1).
//
// Within one memory-copy group of i×j trainers, reads and writes to the
// shared node memory must follow the serialized order
//
//   (R_{s0}) (W_{s0}) (R_{s1}) (W_{s1}) … ,
//
// where s_r is the r-th mini-batch-parallel subgroup of i trainers and
// subgroups rotate round-robin (one global batch per round). Instead of a
// cross-process lock, DistTGL dedicates a daemon thread per group that
// owns the MemoryState outright and serves requests from per-trainer
// shared slots, each guarded by an atomic status word — the C++ analogue
// of the paper's `read_status`/`write_status` shared buffers:
//
//   trainer:  fill slot → status.store(1, release) → await 0
//   daemon :  await 1 (acquire) → serve → status.store(0, release)
//
// The protocol is zero-copy: a slot carries only pointers into the
// requesting trainer's buffers — the node list and the MemorySlice the
// daemon gathers straight into on read, the MemoryWrite it applies
// straight from on write. No payload crosses the slot by value, so the
// per-iteration slice allocation + move and the write-request handoff
// copy of the pre-zero-copy protocol are gone; steady-state protocol
// traffic is two atomic transitions per operation. The trainer blocks
// until served, which is what makes lending its buffers safe.
//
// Waiting is bounded spin → std::atomic::wait parking. A trainer whose
// turn is imminent stays in the cheap spin; one that is scheduled out
// for a while (oversubscribed container, long round) parks on a futex
// instead of burning a core on yield loops. Each status word has at most
// one waiter at a time, so notify_one after every transition suffices.
//
// The daemon enforces the serialization: all i reads of a subgroup are
// served before any of its writes (preventing the Write-After-Read hazard
// of §3.2.1), and a subgroup's writes are served before the next
// subgroup's reads (so iteration t+1 observes iteration t's updates).
// Epoch resets (zeroing memory and mailbox) happen between rounds at the
// positions listed in DaemonConfig::reset_before_round, which the
// schedule builder derives from where each memory copy's batch stream
// wraps to batch 0.
#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "memory/daemon_channel.hpp"
#include "memory/memory_state.hpp"
#include "util/wait.hpp"

namespace disttgl {

struct DaemonConfig {
  std::size_t i = 1;  // trainers per mini-batch subgroup
  std::size_t j = 1;  // subgroups (epoch parallelism degree)
  // Per-round epoch-reset flags; size() is the total number of rounds
  // this daemon will serve before exiting.
  std::vector<std::uint8_t> reset_before_round;
  // First round to serve (resumed runs skip the rounds already executed
  // before the snapshot; reset flags for skipped rounds never fire).
  std::size_t start_round = 0;
  // Optional pool for fanning large gathers/scatters over
  // ThreadPool::parallel_for (results stay bit-identical; see
  // MemoryState::read_into). Borrowed; must outlive the daemon.
  ThreadPool* gather_pool = nullptr;
  // Bounded-spin → park budget for the slot-protocol waits
  // (TrainingConfig::fabric.spin_polls; 0 = park immediately).
  WaitPolicy wait;
};

class MemoryDaemon final : public DaemonChannel {
 public:
  // The daemon borrows `state`; the caller keeps it alive and must not
  // touch it between start() and join().
  MemoryDaemon(MemoryState& state, DaemonConfig config);
  ~MemoryDaemon() override;

  MemoryDaemon(const MemoryDaemon&) = delete;
  MemoryDaemon& operator=(const MemoryDaemon&) = delete;

  std::size_t group_size() const { return slots_.size(); }

  void start();
  // Waits for the daemon to finish serving all configured rounds.
  void join();

  // ---- trainer-side API (rank ∈ [0, i*j)) ----
  // Posts a read request for `nodes` and blocks until the daemon has
  // gathered the slice directly into `out` (capacity-preserving, zero
  // copies through the slot). `nodes` and `out` are lent to the daemon
  // for the duration of the call only.
  void read(std::size_t rank, std::span<const NodeId> nodes,
            MemorySlice& out) override;
  // Allocating convenience wrapper around the zero-copy read.
  MemorySlice read(std::size_t rank, std::span<const NodeId> nodes) {
    MemorySlice s;
    read(rank, nodes, s);
    return s;
  }
  // Posts a write request and blocks until the daemon has applied it
  // straight from `w` (lent for the duration of the call only).
  void write(std::size_t rank, const MemoryWrite& w) override;
  // Blocks until the daemon has completed >= `rounds` brackets (abort
  // wakes the wait with a kAborted throw).
  void await_rounds(std::size_t rounds) override;

  // Poisons every slot status word and wakes all parked parties —
  // trainers mid-handshake and the daemon thread itself bail with
  // kAborted instead of waiting for peers that will never post. A
  // trainer throws only once the daemon thread has left its serve loop,
  // so no lent buffer is unwound while the daemon still uses it. The
  // in-process analogue of ShmDaemonChannel::abort_session, used by the
  // threaded trainer's failure teardown. Idempotent, any thread.
  void abort();
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  // Diagnostics: serialized operation trace "(R|W)<rank>" in service
  // order, captured when trace_enabled (used by tests and Fig 7 dump).
  void enable_trace() { trace_enabled_ = true; }
  std::vector<std::string> trace() const;

 private:
  struct Slot {
    std::atomic<int> read_status{0};
    std::atomic<int> write_status{0};
    // Zero-copy request descriptors: pointers into trainer-owned
    // buffers, valid exactly while the matching status word is 1.
    const NodeId* read_nodes = nullptr;
    std::size_t read_count = 0;
    MemorySlice* read_out = nullptr;
    const MemoryWrite* write_req = nullptr;
  };

  void run();
  // Waits until the daemon thread has left run() — so it no longer
  // touches any lent buffer — then throws kAborted.
  [[noreturn]] void throw_aborted(const char* what);

  MemoryState& state_;
  DaemonConfig config_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::thread thread_;
  std::atomic<bool> aborted_{false};
  // True from start() until the daemon thread leaves run() (cleared with
  // release; the abort path acquires it before unwinding).
  std::atomic<bool> running_{false};
  // Completed (R…R)(W…W) brackets, counted from round 0 of the full
  // schedule (initialized to start_round on resume); bumped with a
  // release store + notify_all so await_rounds establishes
  // happens-before with everything the bracket wrote.
  std::atomic<std::uint64_t> rounds_served_{0};
  bool started_ = false;
  bool trace_enabled_ = false;
  std::vector<std::string> trace_;  // daemon-thread only until join()
};

}  // namespace disttgl
