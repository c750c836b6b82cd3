// Model and training configuration.
#pragma once

#include <cstdint>
#include <string>

#include "distributed/chaos.hpp"
#include "memory/mailbox.hpp"

namespace disttgl {

// TGN-attn architecture hyperparameters (§4.0.1: memory dim 100, 10 most
// recent neighbors, one attention layer). Defaults here are scaled to the
// synthetic datasets; benches override as needed.
struct ModelConfig {
  std::size_t mem_dim = 32;         // node memory width (paper: 100)
  std::size_t time_dim = 8;         // time encoding width
  std::size_t attn_dim = 32;        // attention q/K/V width (all heads)
  std::size_t num_heads = 2;
  std::size_t emb_dim = 32;         // output embedding width
  std::size_t num_neighbors = 10;   // K most recent neighbors
  std::size_t static_dim = 0;       // 0 = no static node memory (§3.1)
  std::size_t head_hidden = 32;     // predictor/classifier MLP hidden
  CombPolicy comb = CombPolicy::kMostRecent;
  // false disables the GRU dynamic memory entirely (static-only ablation
  // used by the Fig 5 study and the EDGE-style comparison).
  bool dynamic_memory = true;
};

// Parallel training configuration i×j×k (§3.2.4): i = mini-batch
// parallelism, j = epoch parallelism, k = memory parallelism, laid out on
// `machines` × `gpus_per_machine` trainers.
struct ParallelConfig {
  std::size_t i = 1;
  std::size_t j = 1;
  std::size_t k = 1;
  std::size_t machines = 1;
  std::size_t gpus_per_machine = 1;

  std::size_t total_trainers() const { return i * j * k; }
};

// Mini-batch generation pipeline (docs/ARCHITECTURE.md "The batch
// pipeline"). kPooled is the system path: prefetchers dispatch
// construction jobs to a shared worker pool and recycle buffers through
// per-trainer MiniBatchPools (steady-state allocation-free). kLegacy is
// the pre-pipeline behaviour — one dedicated worker thread per
// prefetcher, a fresh heap MiniBatch per build — kept as the
// before/after baseline for bench/training_throughput.
enum class PipelineMode : std::uint8_t { kLegacy, kPooled };

// Transport fabric for collective + daemon traffic (docs/ARCHITECTURE.md
// "The process fabric"). kThread is the in-process system path: trainer
// threads over shared vectors. kProc forks one OS process per rank and
// runs the identical algorithms over POSIX shared memory, with control
// traffic on UNIX sockets — the single-machine analogue of the paper's
// per-GPU worker processes. kTcp layers the multi-machine topology on
// top: ranks are grouped into `fabric.tcp.hosts` simulated hosts, the
// collective runs shm intra-host and a framed-TCP leader ring
// inter-host (docs/ARCHITECTURE.md "The multi-machine fabric"), with
// reduction order fixed by global rank so results stay bitwise
// identical to the other two fabrics.
enum class FabricKind : std::uint8_t { kThread, kProc, kTcp };

// Chaos-injection knobs for the recovery test/bench harness
// (docs/TUNING.md "Fault injection"). All default-off; armed faults fire
// exactly once inside run_rank and are disarmed by the supervisor before
// it restarts the group, so a restarted run trains clean.
struct FaultConfig {
  // SIGKILL (proc fabric) / throw kInjectedFault (thread fabric) on rank
  // `kill_rank` at the top of global iteration `kill_iteration`.
  bool kill_armed = false;
  std::size_t kill_rank = 0;
  std::size_t kill_iteration = 0;
  // Stop making progress (and heartbeating) on `stall_rank` at iteration
  // `stall_iteration` without dying — exercises hung-rank detection.
  // Proc fabric only: a stalled thread would wedge the in-process group.
  bool stall_armed = false;
  std::size_t stall_rank = 0;
  std::size_t stall_iteration = 0;
  // Supervisor-side: flip one payload byte in the newest snapshot before
  // the first restart, forcing the fallback-to-previous path.
  bool corrupt_latest_checkpoint = false;
  // Sleep this long inside every snapshot write, after the pre-save
  // kCheckpointNote is emitted — deterministically simulates an
  // fsync-bound save that outlasts heartbeat_timeout_ms, exercising the
  // checkpoint grace window in ProcGroup::wait. 0 = off.
  std::size_t slow_save_ms = 0;
};

// TCP-fabric knobs (FabricKind::kTcp only; docs/TUNING.md "Fabric").
struct TcpFabricConfig {
  // Simulated host count: ranks are split into `hosts` contiguous,
  // balanced spans; each span shares one shm segment and elects its
  // first rank as leader for the inter-host TCP ring.
  std::size_t hosts = 2;
  // Interface the rendezvous listener and the leader rings bind. The
  // simulated topology runs everything over loopback.
  std::string bind_host = "127.0.0.1";
  // Rendezvous listener port; 0 = ephemeral (kernel-assigned).
  std::uint16_t port = 0;
  // TCP_NODELAY on every fabric connection: collective frames are
  // latency-bound request/response pairs, so Nagle only hurts.
  bool nodelay = true;
  // Per-connect bound while dialing the rendezvous host / ring peers.
  std::size_t connect_timeout_ms = 10'000;
  std::size_t listen_backlog = 64;
};

struct FabricConfig {
  FabricKind kind = FabricKind::kThread;
  // Bounded-spin budget before every fabric wait parks on a futex
  // (collective barrier, daemon slot protocol, shm handshakes); 0 parks
  // immediately. One knob for all sites — previously hardcoded per call
  // site (docs/TUNING.md).
  std::uint32_t spin_polls = 4096;
  // Per-wait deadline inside collectives / slot protocol. A peer absent
  // past this is a typed kPeerTimeout, never a hang.
  std::size_t timeout_ms = 30'000;
  // Parent-side bound on the whole multi-process run; stragglers past it
  // are SIGKILLed and reported kChildFailed.
  std::size_t launch_timeout_ms = 600'000;
  // Fixed per-rank shm slot capacities for the cross-process daemon
  // channel, in nodes; 0 = auto from the config (bounded by the graph's
  // node count). An oversized request is a typed kCapacity error.
  std::size_t slot_read_nodes = 0;
  std::size_t slot_write_nodes = 0;
  // Multi-machine (simulated) topology knobs, used when kind == kTcp.
  TcpFabricConfig tcp;
  // Chaos harness (tests/benches only in practice; defaults are inert).
  FaultConfig fault;
  // Wire-level chaos injection (kTcp only): seeded per-frame faults on
  // the leader ring, surfacing as typed FabricErrors (docs/TUNING.md
  // "Network chaos"). Defaults are inert.
  dist::ChaosConfig chaos;
  // Ring reconnect tier: on a transient leader-connection failure the
  // leaders re-dial and retry the in-flight collective from its last
  // completed barrier epoch, up to max_attempts times before escalating
  // to checkpoint restart. 0 attempts = tier disabled (fail straight to
  // the supervisor, the pre-chaos behaviour).
  dist::RetryConfig retry;
};

// Elastic-recovery knobs (docs/TUNING.md "Recovery",
// docs/ARCHITECTURE.md "Recovery"). Defaults keep every PR 6 behaviour:
// no snapshots, no restarts, no heartbeats — a dead rank is a fail-fast
// typed FabricError exactly as before.
struct RecoveryConfig {
  // Write a full-state snapshot after every N global iterations
  // (0 = never). Snapshots land in `checkpoint_dir` as ckpt_<iter>.*
  // shard sets committed by an atomically-renamed .commit marker.
  std::size_t checkpoint_every = 0;
  std::string checkpoint_dir;
  // Retain the newest K committed snapshots (>=1); older sets are
  // deleted marker-first so an interrupted sweep never leaves a
  // commit pointing at missing shards.
  std::size_t keep_last = 2;
  // Supervisor restart budget for train_supervised; 0 = fail fast on the
  // first FabricError (identical to calling train_distributed).
  std::size_t max_restarts = 0;
  // Exponential backoff between restart attempts: backoff_ms * 2^attempt
  // capped at backoff_cap_ms.
  std::size_t backoff_ms = 100;
  std::size_t backoff_cap_ms = 5'000;
  // Proc fabric: children emit a heartbeat frame on the result pipe at
  // least every heartbeat_ms (0 = off); the parent SIGKILLs the group
  // and reports kHeartbeatLost when a rank goes silent longer than
  // heartbeat_timeout_ms (0 = auto: 10 x heartbeat_ms).
  std::size_t heartbeat_ms = 0;
  std::size_t heartbeat_timeout_ms = 0;
  // Extra silence allowed after a rank announces a snapshot write (the
  // pre-save kCheckpointNote): an fsync-bound save stalls the beat loop
  // without the rank being dead or hung, so the supervisor widens the
  // window instead of firing a false kHeartbeatLost. 0 = auto:
  // max(30 s, 10 x the effective heartbeat timeout).
  std::size_t checkpoint_grace_ms = 0;
  // Resume from this snapshot stem (".../ckpt_<iter>", no extension);
  // empty = fresh start. Set by the supervisor, settable by hand.
  std::string resume_from;
  // Sliding-window restart budget: more than restart_window_max restarts
  // inside any restart_window_ms span is a crash loop — the supervisor
  // fails fast with a typed kRestartStorm instead of burning the whole
  // max_restarts budget one backoff at a time. 0/0 = disabled; both must
  // be set together.
  std::size_t restart_window_ms = 0;
  std::size_t restart_window_max = 0;
};

struct TrainingConfig {
  ModelConfig model;
  ParallelConfig parallel;

  std::size_t local_batch = 200;    // positive events per trainer iteration
  std::size_t num_neg = 1;          // training negatives per positive
  std::size_t neg_groups = 10;      // pre-generated negative groups (§4.0.2)
  std::size_t epochs = 10;          // traversals of the training events
  float base_lr = 1e-3f;
  bool scale_lr_with_world = true;  // lr linear in global batch (§4.0.1)
  float grad_clip = 10.0f;
  std::uint64_t seed = 7;

  std::size_t eval_negs = 49;       // MRR negatives (§4: 49 sampled)
  double train_frac = 0.70;
  double val_frac = 0.15;
  bool collect_grad_stats = false;  // record TrainResult::grad_* series

  // Batch-generation pipeline (ThreadedTrainer; SequentialTrainer always
  // recycles buffers but never threads).
  PipelineMode pipeline = PipelineMode::kPooled;
  std::size_t prefetch_ahead = 0;    // in-flight bound; 0 = auto (j + 1)
  // Shared pool size; 0 = auto: one per trainer, or one per spare core
  // for a lone trainer (which also computes on the pool).
  std::size_t prefetch_workers = 0;
  std::size_t batch_pool_slots = 0;  // initial buffers per trainer pool

  // Gradient-sync layer (ThreadedTrainer; docs/ARCHITECTURE.md "The
  // gradient-sync layer", docs/TUNING.md). comm_chunk_elems sets the
  // reduce-scatter chunk size (0 = one balanced chunk per rank); results
  // are identical for every value.
  std::size_t comm_chunk_elems = 0;

  // Transport fabric selection + knobs (docs/TUNING.md "Fabric").
  FabricConfig fabric;

  // Checkpointing + supervised-restart knobs (docs/TUNING.md "Recovery").
  RecoveryConfig recovery;

  float lr() const {
    return scale_lr_with_world
               ? base_lr * static_cast<float>(parallel.total_trainers())
               : base_lr;
  }
};

// Throws on invalid configurations (dimension mismatches, k < machines…).
void validate(const TrainingConfig& cfg);

}  // namespace disttgl
