// Threaded orchestrator: the real DistTGL system (§3.3).
//
// One OS thread per trainer, one memory-daemon thread per memory copy
// (Algorithm 1), per-trainer prefetchers preparing super-batches ahead
// of schedule, and a deterministic in-process chunked reduce-scatter
// allreduce for gradient averaging, fed zero-copy from each replica's
// flat parameter storage. Each trainer owns a full model replica and
// optimizer (the data-parallel pattern); replicas start identical and
// stay identical because the allreduce is bitwise deterministic.
//
// Batch generation runs through the pooled pipeline by default
// (PipelineMode::kPooled): every prefetcher dispatches its construction
// jobs to one shared worker pool, building into per-trainer
// MiniBatchPool buffers that trainers hold while training and release
// back on the next pop — steady-state batch construction allocates
// nothing. kLegacy keeps the pre-pipeline behaviour (a dedicated worker
// thread per prefetcher, a fresh heap batch per build) as the
// before/after baseline for bench/training_throughput.
//
// Compute parallelism is decided here, where it is known how busy the
// cores are. With more than one trainer, each trainer thread computes
// serially (its GEMMs and row loops get no pool): the trainers already
// fill the cores, and fanning out would only queue them behind each
// other. A lone trainer passes the prefetch workers, which are then
// sized to the spare cores. The final evaluation runs after every
// trainer has joined and splits each batch over the then-idle prefetch
// workers (on the process fabric: rank 0's own pool).
//
// The protocol per iteration, per trainer:
//   version-0 item : pop prefetched batch → daemon read (blocks until the
//                    serialized order admits it) → compute → daemon write
//                    → allreduce → local optimizer step.
//   version>0 item : recompute on cached inputs with fresh weights and
//                    the variant's negatives → allreduce → step.
//   no item        : contribute zero gradients to the allreduce.
// Trainers whose chunk of the global batch is empty still post empty
// reads/writes to keep the daemon's round protocol in lockstep.
//
// Produces results identical to SequentialTrainer for the same config
// (asserted by tests/test_equivalence).
#pragma once

#include "core/metrics_log.hpp"
#include "core/schedule.hpp"
#include "core/tgn_model.hpp"
#include "distributed/comm.hpp"
#include "eval/evaluator.hpp"
#include "memory/daemon.hpp"
#include "pipeline/prefetcher.hpp"
#include "util/thread_pool.hpp"

#include <exception>

namespace disttgl {

struct ThreadedTrainResult {
  double final_val = 0.0;
  double final_test = 0.0;
  std::size_t iterations = 0;
  double wall_seconds = 0.0;

  // Raw positive events processed: every executed work item counts its
  // chunk, so epoch-parallel recomputes (version > 0) count each time.
  std::size_t raw_events = 0;
  double events_per_second = 0.0;  // raw_events / wall_seconds
  // Chronological traversals of the training range: epochs × train
  // events — what one epoch-equivalent of progress costs. This was the
  // quantity the old `events_per_second` actually measured.
  std::size_t traversals = 0;
  double traversals_per_second = 0.0;

  // Pipeline attribution, summed across trainers/prefetch jobs:
  double batch_build_seconds = 0.0;    // inside build_into on workers
  double prefetch_wait_seconds = 0.0;  // trainers blocked popping a batch
  double compute_seconds = 0.0;        // inside train_step
  // Memory-protocol attribution: seconds trainers spent blocked in
  // daemon.read / daemon.write (serialization wait + the gather/scatter
  // itself). Previously this time was folded into the iteration's
  // compute share; splitting it out is what lets BENCH_training show
  // where memory-protocol time goes.
  double mem_read_wait_seconds = 0.0;
  double mem_write_wait_seconds = 0.0;
  // Rank 0's per-iteration (wait, compute, mem-read, mem-write) tuple —
  // the threaded analogue of TrainResult::timings (batch gen happens
  // off-thread, so the wait is what generation failed to hide).
  TimingLog rank0_timings;

  std::vector<float> weights;  // final replica-0 weights

  // Training-loss totals, summed over per-rank subtotals in rank order
  // (deterministic regardless of thread/process completion order — the
  // cross-fabric equivalence grid compares these bit-exactly).
  double loss_sum = 0.0;
  std::size_t loss_count = 0;
  // memory_digest() of each memory copy at end of training, indexed by
  // copy. Lets equivalence tests compare final memory state across
  // address spaces without shipping whole states.
  std::vector<std::uint64_t> memory_digests;
};

class ThreadedTrainer {
 public:
  ThreadedTrainer(const TrainingConfig& cfg, const TemporalGraph& graph,
                  const Matrix* static_memory);

  ThreadedTrainResult train();

  const Schedule& schedule() const { return schedule_; }
  const EventSplit& split() const { return split_; }

  // ---- process-fabric hooks (core/proc_trainer.cpp) ----
  // Runs exactly one rank's training loop over externally provided
  // transports. train() routes every rank here with the in-process
  // MemoryDaemon + ThreadComm; a forked rank of the process fabric calls
  // it directly with its ShmDaemonChannel + ProcComm attachments — the
  // loop itself is transport-blind.
  void run_rank(std::size_t rank, DaemonChannel& daemon, dist::Comm& comm);
  // Final evaluation + weight harvest from replica 0 against memory
  // copy 0 (valid on the process that hosts copy 0 after training).
  void final_eval_into(ThreadedTrainResult& result);

  MemoryState& state(std::size_t m) { return states_[m]; }
  std::size_t num_parameters() const { return models_[0]->num_parameters(); }
  std::size_t mail_raw_dim() const { return models_[0]->mail_raw_dim(); }
  // Iterations already completed by the snapshot this trainer resumed
  // from (0 = fresh start). run_rank starts its loop here; daemons must
  // be started at round min(start_iteration, rounds_per_group).
  std::size_t start_iteration() const { return start_iteration_; }
  std::uint64_t fingerprint() const { return fingerprint_; }
  double rank_loss(std::size_t r) const { return rank_loss_[r]; }
  std::size_t rank_loss_count(std::size_t r) const {
    return rank_loss_count_[r];
  }
  std::size_t rank_events(std::size_t r) const { return rank_events_[r]; }

 private:
  void trainer_thread(std::size_t rank);
  std::pair<std::size_t, std::size_t> chunk_events(std::size_t global_batch,
                                                   std::size_t chunk) const;
  // Replicated-state restore from cfg.recovery.resume_from: weights into
  // every replica, every memory copy, start_iteration_. Per-rank state
  // (Adam moments, loss subtotals, in-flight slice) is restored inside
  // run_rank from that rank's own shard.
  void restore_from_snapshot();
  // The coordinated snapshot at an iteration boundary (`done` iterations
  // complete): every rank writes its rank shard; group hosts quiesce
  // their daemon (await_rounds) and capture the memory copy; rank 0
  // writes weights — then one barrier, and rank 0 commits + prunes.
  void write_snapshot(std::size_t rank, std::size_t done,
                      DaemonChannel& daemon, dist::Comm& comm, nn::Adam& opt,
                      double loss_sum, std::size_t loss_count,
                      std::size_t events, bool mid_chain,
                      const MemorySlice& slice);

  TrainingConfig cfg_;
  const TemporalGraph* graph_;
  const Matrix* static_memory_;
  EventSplit split_;
  std::vector<BatchRange> batches_;
  Schedule schedule_;

  std::unique_ptr<NeighborSampler> sampler_;
  std::unique_ptr<NegativeSampler> negatives_;
  std::unique_ptr<MiniBatchBuilder> builder_;
  std::vector<MemoryState> states_;
  std::vector<std::unique_ptr<MemoryDaemon>> daemons_;
  std::unique_ptr<dist::Comm> comm_;

  // Pooled pipeline (PipelineMode::kPooled): one worker pool shared by
  // every prefetcher (and by the builder's sample_many fan-out), one
  // buffer pool per trainer. Both outlive the trainer threads, which
  // join inside train(). prefetch_ahead_ is the resolved in-flight
  // bound — computed once so the pool pre-sizing and the prefetcher
  // ring can never desync.
  std::unique_ptr<ThreadPool> prefetch_workers_;
  std::vector<std::unique_ptr<MiniBatchPool>> batch_pools_;
  std::size_t prefetch_ahead_ = 1;
  // prefetch_workers_ on a multi-core host, else null: the pool handed to
  // sample_many, the daemons' gathers, a lone trainer's train steps and
  // the final evaluation.
  ThreadPool* fanout_pool_ = nullptr;

  // Per-trainer replicas (created identically from the shared seed).
  std::vector<std::unique_ptr<TGNModel>> models_;
  std::vector<std::unique_ptr<nn::Adam>> optimizers_;

  // Aggregated stats (guarded by stats_mu_; written once per trainer).
  // Loss/event totals are kept per rank and summed in rank order so the
  // totals are independent of thread completion order (and comparable
  // bit-for-bit across fabrics).
  // Elastic-recovery state: the config fingerprint stamped into every
  // shard, and the resume position (0 = fresh).
  std::uint64_t fingerprint_ = 0;
  std::size_t start_iteration_ = 0;

  // Thread-fabric failure funnel: the first exception a trainer thread
  // (or daemon) dies with; siblings then fail kAborted via the poisoned
  // comm/daemons and train() rethrows this one after joining everything.
  std::exception_ptr first_failure_;

  std::mutex stats_mu_;
  std::vector<double> rank_loss_;
  std::vector<std::size_t> rank_loss_count_;
  std::vector<std::size_t> rank_events_;
  double batch_build_seconds_ = 0.0;
  double prefetch_wait_seconds_ = 0.0;
  double compute_seconds_ = 0.0;
  double mem_read_wait_seconds_ = 0.0;
  double mem_write_wait_seconds_ = 0.0;
  TimingLog rank0_timings_;
};

}  // namespace disttgl
