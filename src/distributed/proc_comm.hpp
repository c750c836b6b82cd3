// Multi-process transport for the collective: the segment layout and
// the barrier that Comm::allreduce_mean runs over, in a POSIX
// shared-memory segment.
//
// Layout (offsets computed identically by creator and attachers from
// {world, max_elems} — the header exists to *validate* that agreement,
// not to communicate it):
//
//   ProcCommHeader   magic/world/max_elems/chunk option, epoch barrier
//                    words, abort flag, traffic counters
//   sizes[world]     per-rank payload size (contract check)
//   result[max]      shared result row (means)
//   staged[world*max] per-rank contribution rows
//
// Synchronization is a sense-free epoch barrier: the last arrival
// resets the countdown, bumps the epoch, and futex-wakes the parked
// ranks; everyone else spins (WaitPolicy) then parks on the epoch word
// with the *shared* futex variant. Plain float staging is safe for the
// same reason ThreadComm's is — every access is ordered across the
// barrier's release/acquire epoch bump.
//
// Fault containment: every park slice carries the deadline. A rank that
// times out sets the abort word, wakes everyone, and throws
// kPeerTimeout; the woken peers observe the flag and throw kAborted.
// Nothing in this class ever blocks without a deadline, which is what
// lets tests/test_fabric_faults.cpp SIGKILL a peer mid-collective and
// still get a typed error and a clean teardown from the survivors.
//
// Lifecycle: the launcher parent create()s the segment (and unlinks it
// on destruction); ranks attach() by name and only munmap. Capacity is
// fixed at creation — reserve() beyond it is a typed kCapacity error,
// not a grow.
#pragma once

#include <chrono>
#include <string>

#include "distributed/comm.hpp"
#include "distributed/shm.hpp"

namespace disttgl::dist {

class ProcComm final : public Comm {
 public:
  // Bytes create() will allocate for a given geometry (layout + padding).
  static std::size_t segment_bytes(std::size_t world, std::size_t max_elems);

  // Parent/creator side: makes + initializes the segment. The returned
  // ProcComm owns the segment (unlink on destruction) and is itself
  // usable as a rank handle.
  static ProcComm create(const std::string& shm_name, std::size_t world,
                         std::size_t max_elems, Options opts,
                         std::chrono::milliseconds timeout);

  // Rank side: attaches to an existing segment, validating the header
  // against this rank's expected geometry.
  static ProcComm attach(const std::string& shm_name, std::size_t world,
                         Options opts, std::chrono::milliseconds timeout);

  void reserve(std::size_t max_elems) override;
  std::size_t capacity() const override;

  std::uint64_t logical_bytes() const override;
  std::uint64_t num_allreduces() const override;

  // Poisons the barrier: peers currently parked (or arriving later)
  // throw kAborted instead of waiting out their deadline. Error paths
  // and the fault tests use this for fast collective teardown.
  void abort_session() override;
  bool aborted() const override;

  const std::string& shm_name() const { return segment_.name(); }

  // Transport hooks, public so HierComm can stack its cross-host reduce
  // step on this segment's rows and barrier (hier_comm.hpp). stage()
  // is the capacity check (kCapacity, never a grow), sync() the epoch
  // barrier, record() the header counters.
  Staging stage(std::size_t rank, std::size_t size) override;
  void sync(std::size_t rank) override;
  void record(std::uint64_t bytes) override;

 private:
  ProcComm(ShmSegment segment, std::size_t world, Options opts,
           std::chrono::milliseconds timeout);

  // Typed views into the mapped segment (set once in the ctor).
  struct ProcCommHeader* hdr_ = nullptr;
  std::uint64_t* sizes_ = nullptr;
  float* result_ = nullptr;
  float* staged_ = nullptr;

  ShmSegment segment_;
  std::chrono::milliseconds timeout_;
};

}  // namespace disttgl::dist
