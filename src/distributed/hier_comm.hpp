// Hierarchical collective for the simulated multi-machine fabric:
// shm staging intra-host, a framed-TCP leader ring inter-host.
//
// Topology: the global world is split into `hosts` contiguous, balanced
// rank spans (host_span below). Ranks of one host share a ProcComm
// segment — its staging view and epoch barrier are this collective's
// transport hooks — and the first rank of each span is the host's leader,
// holding two TCP connections: one dialed to the successor leader, one
// accepted from the predecessor (all ring traffic flows in successor
// direction, so one duplex pair per leader suffices).
//
// Bitwise equivalence with ThreadComm/ProcComm is the load-bearing
// property (tests/test_equivalence.cpp compares weights, losses, and
// memory digests across fabrics with ASSERT_EQ, not tolerances), and it
// forbids the textbook hierarchical trick of reducing per-host partial
// sums and then combining them — float/double addition is not
// associative, so ((a+b)+(c+d)) need not equal (((a+b)+c)+d). Instead
// the reduction is a single left fold in double over global ranks 0..R-1
// in rank order, exactly the fold Comm::reduce runs per element. It is
// HierComm's reduce step; deposit, barriers and copy-out are the shared
// engine's (Comm::allreduce_mean):
//
//   reduce:    a running double accumulator travels the leader chain
//              host 0 → 1 → … → H-1; each leader folds its local ranks'
//              staged rows one rank at a time (local order == contiguous
//              global order)
//   mean:      the last host computes mean = float(acc * (1/R)) — the
//              identical rounding point Comm::reduce uses
//   broadcast: the float means ring forward H-1 → 0 → … → H-2; every
//              leader deposits them in its host's shared result row
//
// The chain serializes the payload through each host, which costs
// latency a production ring reduce-scatter would pipeline away — that
// trade (bitwise determinism over peak bandwidth) is deliberate and
// measured in BENCH_fabric.json against the throughput_model's
// cross-machine prediction.
//
// Fault containment matches ProcComm: every TCP wait carries a deadline,
// a leader that fails its ring I/O poisons the local barrier before
// rethrowing, so non-leader ranks fail kAborted instead of waiting out
// their own timeout, and a SIGKILLed remote host surfaces as a typed
// kPeerClosed/kPeerTimeout on its ring neighbours.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "distributed/chaos.hpp"
#include "distributed/proc_comm.hpp"
#include "distributed/rendezvous.hpp"
#include "distributed/socket.hpp"

namespace disttgl::dist {

// Balanced contiguous split: host h of H runs global ranks
// [h*base + min(h, rem), …) with base = world/H, rem = world%H. Pure
// function of (world, hosts) so the launcher, rendezvous map, and every
// rank derive the identical layout.
std::pair<std::size_t, std::size_t> host_span(std::size_t host,
                                              std::size_t world,
                                              std::size_t hosts);
std::size_t host_of_rank(std::size_t rank, std::size_t world,
                         std::size_t hosts);

// The two ring connections a host leader holds (invalid for followers
// and for hosts == 1). ChaosEndpoints so the whole ring can run under
// seeded fault injection; with chaos disabled they are plain framed
// endpoints.
struct RingEndpoints {
  ChaosEndpoint next;  // dialed to the successor leader (all sends)
  ChaosEndpoint prev;  // accepted from the predecessor (all receives)
};

// Leader side of ring setup: dial the successor's ring listener, accept
// the predecessor, and exchange an identity handshake both ways. Safe in
// any leader order — the kernel backlog completes a dial before the
// peer's accept runs, so dial-then-accept cannot deadlock.
//
// `epoch` is the collective sequence number the caller is (re)joining
// at: 0 on initial setup, the in-flight seq on a reconnect. It rides the
// handshake's seq field, and the accept side uses it to agree on where
// the retried collective resumes — a stale dial from an abandoned
// earlier attempt (lower seq) is discarded and re-accepted, while a
// predecessor at a *different* live epoch is a typed kAborted: the
// leaders disagree about which collective is in flight, which only the
// checkpoint-restart tier can reconcile.
RingEndpoints connect_ring(int listen_fd, const ClusterMap& map,
                           std::size_t host, Deadline deadline, bool nodelay,
                           const ChaosConfig& chaos = {},
                           std::uint64_t epoch = 0);

class HierComm final : public Comm {
 public:
  // Sub-kind word inside kCollective frames.
  enum class RingMsg : std::uint32_t {
    kHandshake = 1,  // ring setup: {host_from}
    kReduce = 2,     // forward chain: running double accumulator
    kBroadcast = 3,  // forward chain: final float means
  };

  struct Topology {
    std::size_t world = 0;
    std::size_t hosts = 0;
    std::size_t host = 0;
    std::size_t global_rank = 0;
    std::size_t local_rank = 0;
    std::size_t local_world = 0;
  };
  static Topology topology_for(std::size_t rank, std::size_t world,
                               std::size_t hosts);

  // `local` is this host's shared staging segment (attach()ed by ranks,
  // create()d by the launcher), already sized for the payload. Leaders
  // pass their connected ring; followers pass a default RingEndpoints.
  HierComm(ProcComm local, Topology topo, RingEndpoints ring,
           std::chrono::milliseconds timeout);

  void reserve(std::size_t max_elems) override { local_.reserve(max_elems); }
  std::size_t capacity() const override { return local_.capacity(); }

  // Counters live in host 0's segment header and are bumped by global
  // rank 0 (the convention every fabric shares: rank 0 accounts, rank 0
  // reports).
  std::uint64_t logical_bytes() const override {
    return local_.logical_bytes();
  }
  std::uint64_t num_allreduces() const override {
    return local_.num_allreduces();
  }

  void abort_session() override { local_.abort_session(); }
  bool aborted() const override { return local_.aborted(); }

  const Topology& topology() const { return topo_; }
  // Wire bytes this leader framed onto the ring (0 on followers).
  std::uint64_t tcp_bytes() const { return ring_.next.bytes_sent(); }

  // Reconnect tier (docs/ARCHITECTURE.md "Recovery ladder"): with a
  // policy installed, a leader whose ring phase dies with a *transient*
  // FabricError (fabric_errc_transient, plus kBadMagic stream desync —
  // a fresh stream plus an epoch-checked retry heals both) re-dials the
  // ring through the retained listener and re-runs the whole phase.
  // Re-running is bitwise safe: every phase reads only staged/result
  // rows frozen by the preceding barrier and rewrites its outputs by
  // idempotent copies, so a phase retried from its last completed
  // barrier epoch lands the identical bytes. Exhausted attempts or a
  // fatal code escalate to the existing poison-and-rethrow, i.e. the
  // supervisor's checkpoint-restart tier.
  struct ReconnectPolicy {
    FdHandle listener;  // the leader's ring listener, kept alive
    ClusterMap map;
    bool nodelay = true;
    RetryConfig retry;
    // Chaos knobs re-applied to the fresh endpoints; reset_at_byte is
    // disarmed on re-dial (the injected reset models ONE transient
    // fault), while the probabilistic knobs persist — they model the
    // environment, which a reconnect does not fix.
    ChaosConfig chaos;
    std::uint64_t jitter_seed = 0;  // deterministic backoff jitter
  };
  void enable_reconnect(ReconnectPolicy policy);
  // Reconnect accounting for BENCH_recovery and the soak tests.
  std::uint64_t reconnects() const { return reconnects_; }
  double reconnect_seconds() const { return reconnect_seconds_; }

 private:
  bool is_leader() const { return topo_.local_rank == 0; }

  // Transport hooks: the host segment's rows (this rank's local row),
  // its epoch barrier, and host 0's header counters.
  Staging stage(std::size_t rank, std::size_t size) override;
  void sync(std::size_t rank) override;
  void record(std::uint64_t bytes) override;
  // The leader runs the cross-host fold into the host's result row;
  // followers only wait at the engine's barrier. Any ring failure
  // poisons the local barrier before rethrowing.
  void reduce(std::size_t rank, std::size_t size, const Staging& s) override;

  // One attempt at the leader chain: fold, mean, broadcast.
  void leader_reduce_broadcast(const Staging& s, std::size_t size);
  // Runs the leader chain under the reconnect policy: transient failure
  // → backoff (capped exponential + deterministic jitter) → re-dial at
  // the current seq → re-run the chain, up to retry.max_attempts times.
  void run_leader_phase(const Staging& s, std::size_t size);
  void redial_ring(std::size_t attempt);

  void send_ring(RingMsg kind, std::size_t block_host,
                 std::span<const std::uint8_t> body, Deadline deadline);
  // Receives one kCollective frame, validating kind/seq/host; returns
  // the body (payload after the mini-header).
  std::span<const std::uint8_t> recv_ring(RingMsg kind,
                                          std::size_t expect_host,
                                          Deadline deadline);

  ProcComm local_;
  Topology topo_;
  RingEndpoints ring_;
  std::chrono::milliseconds timeout_;
  std::optional<ReconnectPolicy> reconnect_;
  std::uint64_t reconnects_ = 0;
  double reconnect_seconds_ = 0.0;

  // Leader scratch (persistent so steady-state calls stay cheap).
  std::vector<double> acc_;
  std::vector<std::uint8_t> body_;
  Frame frame_;
  std::uint64_t seq_ = 0;
};

}  // namespace disttgl::dist
