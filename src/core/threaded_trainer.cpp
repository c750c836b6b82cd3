#include "core/threaded_trainer.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <span>
#include <thread>

#include "core/checkpoint.hpp"
#include "distributed/launch.hpp"
#include "distributed/socket.hpp"
#include "distributed/wire.hpp"
#include "util/timer.hpp"

namespace disttgl {

ThreadedTrainer::ThreadedTrainer(const TrainingConfig& cfg,
                                 const TemporalGraph& graph,
                                 const Matrix* static_memory)
    : cfg_(cfg),
      graph_(&graph),
      static_memory_(static_memory),
      split_(chronological_split(graph, cfg.train_frac, cfg.val_frac)) {
  const auto& par = cfg_.parallel;
  const std::size_t global_batch = cfg_.local_batch * par.i;
  batches_ = make_batches(split_.train_begin, split_.train_end, global_batch);
  schedule_ = build_schedule(par, batches_.size(), cfg_.epochs, cfg_.neg_groups);

  sampler_ = std::make_unique<NeighborSampler>(graph, cfg_.model.num_neighbors);
  negatives_ = std::make_unique<NegativeSampler>(graph, cfg_.neg_groups,
                                                 cfg_.seed ^ 0x5eedULL);

  const std::size_t n = par.total_trainers();
  prefetch_ahead_ = cfg_.prefetch_ahead != 0 ? cfg_.prefetch_ahead : par.j + 1;
  if (cfg_.pipeline == PipelineMode::kPooled) {
    // One worker per trainer; a lone trainer also fans its own compute
    // out over the workers, so it gets one per spare core instead.
    const std::size_t spare_cores =
        std::max<std::size_t>(2, std::thread::hardware_concurrency()) - 1;
    const std::size_t workers = cfg_.prefetch_workers != 0
                                    ? cfg_.prefetch_workers
                                    : (n > 1 ? n : spare_cores);
    prefetch_workers_ = std::make_unique<ThreadPool>(workers);
    // +1: the trainer holds one batch while `ahead` more are in flight.
    const std::size_t slots = cfg_.batch_pool_slots != 0
                                  ? cfg_.batch_pool_slots
                                  : prefetch_ahead_ + 1;
    batch_pools_.reserve(n);
    for (std::size_t r = 0; r < n; ++r)
      batch_pools_.push_back(std::make_unique<MiniBatchPool>(slots));
  }

  // In pooled mode on a multi-core host the prefetch workers double as
  // the fan-out pool: of sample_many (a construction job's root ranges
  // spread over idle workers; parallel_for's caller participation makes
  // calling it from a job on the same pool safe), of the daemons' large
  // gathers, of a lone trainer's compute and of the final evaluation.
  // Every one of them is thread-count independent, so the equivalence
  // contract is unaffected. On a single hardware thread the fan-out is
  // pure handoff overhead (measured +2x batch_gen in
  // BENCH_training.json), so everything stays serial.
  fanout_pool_ = std::thread::hardware_concurrency() > 1
                     ? prefetch_workers_.get()
                     : nullptr;
  const bool link = !graph.has_edge_labels();
  builder_ = std::make_unique<MiniBatchBuilder>(graph, *sampler_, *negatives_,
                                                link ? cfg_.num_neg : 0,
                                                fanout_pool_);

  // Every replica must be initialized with an identical RNG stream —
  // reproduce SequentialTrainer's derivation exactly.
  models_.reserve(n);
  optimizers_.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    Rng root(cfg_.seed);
    Rng model_rng = root.split();
    models_.push_back(
        std::make_unique<TGNModel>(cfg_.model, graph, static_memory, model_rng));
    // Flat storage feeds the gradient-sync layer zero-copy: the comm
    // operates directly on the replica's contiguous grad/value buffers.
    models_.back()->freeze_flat_storage();
    optimizers_.push_back(std::make_unique<nn::Adam>(
        models_.back()->parameters(), nn::AdamOptions{.lr = cfg_.lr()}));
  }

  const std::size_t mail_dim = models_[0]->mail_raw_dim();
  states_.reserve(par.k);
  for (std::size_t m = 0; m < par.k; ++m)
    states_.emplace_back(graph.num_nodes(), cfg_.model.mem_dim, mail_dim);

  comm_ = std::make_unique<dist::ThreadComm>(
      n, dist::Comm::Options{
             .chunk_elems = cfg_.comm_chunk_elems,
             .wait = WaitPolicy{.spin_polls = cfg_.fabric.spin_polls}});
  comm_->reserve(models_[0]->num_parameters());

  rank_loss_.assign(n, 0.0);
  rank_loss_count_.assign(n, 0);
  rank_events_.assign(n, 0);

  fingerprint_ =
      config_fingerprint(cfg_, graph.num_nodes(), graph.num_events());
  if (!cfg_.recovery.resume_from.empty()) restore_from_snapshot();
}

void ThreadedTrainer::restore_from_snapshot() {
  const std::string& stem = cfg_.recovery.resume_from;
  const auto& par = cfg_.parallel;
  const CoreShard core = read_core_shard(stem);
  if (core.fingerprint != fingerprint_)
    throw CheckpointError(
        CheckpointErrc::kFingerprintMismatch, stem + ".core",
        "snapshot " + stem + " belongs to a different run configuration",
        fingerprint_, core.fingerprint);
  if (core.world != par.total_trainers() || core.mem_copies != par.k)
    throw CheckpointError(CheckpointErrc::kShapeMismatch, stem + ".core",
                          "snapshot " + stem + " world/memory geometry "
                          "disagrees with the configuration",
                          par.total_trainers(), core.world);
  if (core.weights.size() != models_[0]->num_parameters())
    throw CheckpointError(CheckpointErrc::kShapeMismatch, stem + ".core",
                          "snapshot weight count disagrees with the model",
                          models_[0]->num_parameters(), core.weights.size());
  if (core.iteration >= schedule_.total_iterations)
    throw CheckpointError(CheckpointErrc::kShapeMismatch, stem + ".core",
                          "snapshot iteration is past the end of the run",
                          schedule_.total_iterations, core.iteration);
  for (auto& model : models_) {
    const std::span<float> values = model->flat_values();
    std::copy(core.weights.begin(), core.weights.end(), values.begin());
  }
  for (std::size_t m = 0; m < par.k; ++m)
    apply_mem_shard(read_mem_shard(stem, m), states_[m]);
  start_iteration_ = core.iteration;
}

std::pair<std::size_t, std::size_t> ThreadedTrainer::chunk_events(
    std::size_t global_batch, std::size_t chunk) const {
  const BatchRange& range = batches_[global_batch];
  const std::size_t per = (range.size() + cfg_.parallel.i - 1) / cfg_.parallel.i;
  const std::size_t begin = std::min(range.begin + chunk * per, range.end);
  const std::size_t end = std::min(begin + per, range.end);
  return {begin, end};
}

void ThreadedTrainer::trainer_thread(std::size_t rank) {
  try {
    run_rank(rank, *daemons_[schedule_.trainers[rank].mem_copy], *comm_);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (!first_failure_) first_failure_ = std::current_exception();
    }
    // Poison every rendezvous point so siblings blocked in the
    // collective or the daemon protocol fail kAborted instead of
    // hanging on a partner that will never arrive.
    comm_->abort_session();
    for (auto& d : daemons_) d->abort();
  }
}

void ThreadedTrainer::run_rank(std::size_t rank, DaemonChannel& daemon,
                               dist::Comm& comm) {
  const auto& par = cfg_.parallel;
  const TrainerSchedule& ts = schedule_.trainers[rank];
  TGNModel& model = *models_[rank];
  nn::Adam& opt = *optimizers_[rank];
  const std::vector<nn::Parameter*>& params = model.cached_parameters();
  // Concurrent trainers already fill the cores, so each computes on its
  // own thread; a lone trainer splits its compute over the idle workers.
  ThreadPool* compute_pool =
      par.total_trainers() == 1 ? fanout_pool_ : nullptr;

  const std::size_t t0 = start_iteration_;

  // Prefetch requests: one per version-0 (memory-op) item. Empty chunks
  // yield no request but still take part in the daemon protocol. On
  // resume, items already executed by the snapshot yield none either.
  std::vector<Prefetcher::Request> requests;
  for (const WorkItem& item : ts.items) {
    if (!item.memory_ops || item.iteration < t0) continue;
    const auto [begin, end] = chunk_events(item.global_batch, ts.chunk);
    if (begin >= end) continue;
    Prefetcher::Request req;
    req.batch_idx = item.global_batch * par.i + ts.chunk;
    req.begin = begin;
    req.end = end;
    if (model.task() == TGNModel::Task::kLinkPrediction) {
      for (std::size_t v = 0; v < par.j; ++v)
        req.neg_groups.push_back(
            (item.cycle * par.j * par.k + ts.mem_copy * par.j + v) %
            cfg_.neg_groups);
    }
    requests.push_back(std::move(req));
  }
  const bool pooled = cfg_.pipeline == PipelineMode::kPooled;
  Prefetcher prefetcher(*builder_, std::move(requests), prefetch_ahead_,
                        pooled ? prefetch_workers_.get() : nullptr,
                        pooled ? batch_pools_[rank].get() : nullptr);

  PooledBatch batch;
  // The trainer's persistent memory-protocol buffers: the daemon gathers
  // straight into `slice` and applies writes straight from `write`
  // (zero-copy slots), so both keep their heap capacity for the whole
  // run — the memory path allocates nothing at steady state.
  MemorySlice slice;
  MemoryWrite write;
  TGNModel::StepResult step;  // reused result buffers (train_step_into)
  // Flat storage makes the gradient hand-off zero-copy: `grads` IS the
  // replica's parameter-gradient buffer, so the allreduce reduces it in
  // place and there is nothing to flatten or unflatten per iteration.
  const std::span<float> grads = model.flat_grads();
  double local_loss = 0.0;
  std::size_t local_count = 0;
  std::size_t local_events = 0;
  double wait_seconds = 0.0;
  double compute_seconds = 0.0;
  double read_wait_seconds = 0.0;
  double write_wait_seconds = 0.0;
  TimingLog iteration_log;  // filled for rank 0 only

  std::size_t cursor = 0;
  while (cursor < ts.items.size() && ts.items[cursor].iteration < t0) ++cursor;

  // A rank snapshotted mid version-chain resumes with the chain's read
  // slice from its shard and the chain's batch rebuilt here — the
  // builder is a pure function of (graph, batch range, negative
  // groups), so the rebuild is bit-identical to the batch the
  // interrupted run popped.
  MiniBatch resume_batch;
  bool resume_active = false;
  if (t0 > 0) {
    const RankShard shard = read_rank_shard(cfg_.recovery.resume_from, rank);
    if (shard.fingerprint != fingerprint_)
      throw CheckpointError(CheckpointErrc::kFingerprintMismatch,
                            cfg_.recovery.resume_from + ".rank" +
                                std::to_string(rank),
                            "rank shard belongs to a different run",
                            fingerprint_, shard.fingerprint);
    local_loss = shard.loss_sum;
    local_count = shard.loss_count;
    local_events = shard.events;
    opt.restore_state(shard.adam_steps, shard.adam_m, shard.adam_v);
    if (shard.has_slice) {
      DT_CHECK(cursor < ts.items.size());
      const WorkItem& item = ts.items[cursor];
      DT_CHECK(!item.memory_ops);  // mid-chain ⇒ next item recomputes
      slice.mem.resize(shard.slice_nodes, shard.slice_mem_dim);
      std::copy(shard.slice_mem.begin(), shard.slice_mem.end(),
                slice.mem.data());
      slice.mem_ts = shard.slice_mem_ts;
      slice.mail.resize(shard.slice_nodes, shard.slice_mail_dim);
      std::copy(shard.slice_mail.begin(), shard.slice_mail.end(),
                slice.mail.data());
      slice.mail_ts = shard.slice_mail_ts;
      slice.has_mail = shard.slice_flags;
      const auto [begin, end] = chunk_events(item.global_batch, ts.chunk);
      DT_CHECK_LT(begin, end);  // an empty chunk never holds a batch
      std::vector<std::size_t> groups;
      if (model.task() == TGNModel::Task::kLinkPrediction) {
        for (std::size_t v = 0; v < par.j; ++v)
          groups.push_back(
              (item.cycle * par.j * par.k + ts.mem_copy * par.j + v) %
              cfg_.neg_groups);
        DT_CHECK_EQ(groups[item.version], item.neg_group);
      }
      builder_->build_into(item.global_batch * par.i + ts.chunk, begin, end,
                           groups, resume_batch);
      resume_active = true;
    }
  }

  // Fault injection + heartbeat state (both inert by default).
  const FaultConfig& fault = cfg_.fabric.fault;
  // Forked fabrics (proc, tcp) have a parent process supervising: an
  // injected kill can be a real SIGKILL and a stall is survivable.
  const bool proc_fabric = cfg_.fabric.kind != FabricKind::kThread;
  const int control_fd = dist::child_control_fd();
  const auto beat_every = std::chrono::milliseconds(cfg_.recovery.heartbeat_ms);
  const bool beat = cfg_.recovery.heartbeat_ms != 0 && control_fd >= 0;
  // First beat fires on the first iteration: supervision starts at a
  // rank's first frame, so beating must begin before any injected stall
  // can silence the rank.
  auto last_beat = std::chrono::steady_clock::now() - beat_every;
  const std::size_t ckpt_every = cfg_.recovery.checkpoint_every;
  const bool snapshots = ckpt_every != 0 && !cfg_.recovery.checkpoint_dir.empty();

  for (std::size_t t = t0; t < schedule_.total_iterations; ++t) {
    if (fault.kill_armed && rank == fault.kill_rank &&
        t == fault.kill_iteration) {
      // Proc fabric: die exactly as a crashed worker does. Thread
      // fabric: a SIGKILL would take the whole test process, so the
      // typed throw stands in for the death.
      if (proc_fabric) ::raise(SIGKILL);
      dist::throw_fabric(dist::FabricErrc::kInjectedFault,
                         "injected kill on rank " + std::to_string(rank) +
                             " at iteration " + std::to_string(t));
    }
    if (fault.stall_armed && proc_fabric && rank == fault.stall_rank &&
        t == fault.stall_iteration) {
      // Hang without dying (and without heartbeating) — the supervisor
      // must notice via heartbeat silence, not via an EOF.
      std::this_thread::sleep_for(std::chrono::hours(24));
    }
    if (beat) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_beat >= beat_every) {
        dist::WireWriter w;
        w.put_u64(rank);
        w.put_u64(t);
        dist::write_frame(control_fd, dist::MsgType::kHeartbeat, w.bytes(),
                          dist::deadline_after(std::chrono::milliseconds(
                              cfg_.fabric.timeout_ms)));
        last_beat = now;
      }
    }
    const WorkItem* item = nullptr;
    if (cursor < ts.items.size() && ts.items[cursor].iteration == t)
      item = &ts.items[cursor];

    // Inactive iterations contribute zero gradients to the collective;
    // active ones overwrite this with train_step's accumulation.
    model.zero_grad();
    bool post_write = false;
    double iter_wait = 0.0;
    double iter_compute = 0.0;
    double iter_read_wait = 0.0;
    double iter_write_wait = 0.0;

    if (item != nullptr) {
      if (item->memory_ops) {
        resume_active = false;  // a fresh chain replaces the resumed one
        write.clear();  // train_step refills it for non-empty chunks
        const auto [begin, end] = chunk_events(item->global_batch, ts.chunk);
        if (begin >= end) {
          // Empty chunk: keep the daemon protocol in lockstep.
          batch.release();
          ScopedAccumulator acc(iter_read_wait);
          daemon.read(ts.group_rank, {}, slice);
          post_write = true;  // empty write below
        } else {
          {
            // Popping releases the previous batch back to the pool and
            // blocks only when generation hasn't kept ahead of compute.
            ScopedAccumulator acc(iter_wait);
            batch = prefetcher.next();
          }
          DT_CHECK(batch.has_value());
          {
            ScopedAccumulator acc(iter_read_wait);
            daemon.read(ts.group_rank, batch->unique_nodes, slice);
          }
          post_write = true;
        }
      }
      const MiniBatch* mb = batch.has_value()
                                ? &*batch
                                : (resume_active ? &resume_batch : nullptr);
      if (mb != nullptr) {
        ScopedAccumulator acc(iter_compute);
        model.train_step_into(*mb, slice, item->version,
                              item->memory_ops ? &write : nullptr, step,
                              compute_pool);
        local_loss += step.loss;
        ++local_count;
        local_events += mb->num_pos();
      }
      ++cursor;
    }

    if (post_write) {
      ScopedAccumulator acc(iter_write_wait);
      daemon.write(ts.group_rank, write);
    }

    comm.allreduce_mean(rank, grads);
    nn::clip_grad_norm(params, cfg_.grad_clip);
    opt.step();

    wait_seconds += iter_wait;
    compute_seconds += iter_compute;
    read_wait_seconds += iter_read_wait;
    write_wait_seconds += iter_write_wait;
    if (rank == 0)
      iteration_log.add(iter_wait, iter_compute, iter_read_wait,
                        iter_write_wait);

    if (snapshots && (t + 1) % ckpt_every == 0 &&
        t + 1 < schedule_.total_iterations) {
      // Mid-chain ⇔ the next item recomputes on the currently held
      // batch+slice, so the read slice must ride along in the shard.
      const bool mid_chain = cursor < ts.items.size() &&
                             !ts.items[cursor].memory_ops &&
                             (batch.has_value() || resume_active);
      write_snapshot(rank, t + 1, daemon, comm, opt, local_loss, local_count,
                     local_events, mid_chain, slice);
    }
  }

  batch.release();  // hand the buffer back before the prefetcher drains
  const double build_seconds = prefetcher.build_seconds();

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    rank_loss_[rank] = local_loss;
    rank_loss_count_[rank] = local_count;
    rank_events_[rank] = local_events;
    batch_build_seconds_ += build_seconds;
    prefetch_wait_seconds_ += wait_seconds;
    compute_seconds_ += compute_seconds;
    mem_read_wait_seconds_ += read_wait_seconds;
    mem_write_wait_seconds_ += write_wait_seconds;
    if (rank == 0) rank0_timings_ = std::move(iteration_log);
  }
}

void ThreadedTrainer::write_snapshot(std::size_t rank, std::size_t done,
                                     DaemonChannel& daemon, dist::Comm& comm,
                                     nn::Adam& opt, double loss_sum,
                                     std::size_t loss_count,
                                     std::size_t events, bool mid_chain,
                                     const MemorySlice& slice) {
  const TrainerSchedule& ts = schedule_.trainers[rank];
  const std::string stem =
      snapshot_stem(cfg_.recovery.checkpoint_dir, done);

  // Announce the save *before* the fsync-bound shard writes: the
  // supervisor widens this rank's heartbeat window (checkpoint grace in
  // ProcGroup::wait) so a slow disk doesn't read as a dead rank.
  {
    const int control_fd = dist::child_control_fd();
    if (control_fd >= 0) {
      dist::WireWriter w;
      w.put_u64(done);
      dist::write_frame(control_fd, dist::MsgType::kCheckpointNote, w.bytes(),
                        dist::deadline_after(std::chrono::milliseconds(
                            cfg_.fabric.timeout_ms)));
    }
  }
  if (cfg_.fabric.fault.slow_save_ms > 0)
    std::this_thread::sleep_for(
        std::chrono::milliseconds(cfg_.fabric.fault.slow_save_ms));

  RankShard rs;
  rs.fingerprint = fingerprint_;
  rs.iteration = done;
  rs.rank = rank;
  rs.loss_sum = loss_sum;
  rs.loss_count = loss_count;
  rs.events = events;
  rs.adam_steps = opt.steps_taken();
  rs.adam_m.assign(opt.moment1().begin(), opt.moment1().end());
  rs.adam_v.assign(opt.moment2().begin(), opt.moment2().end());
  rs.has_slice = mid_chain;
  if (mid_chain) {
    rs.slice_nodes = slice.size();
    rs.slice_mem_dim = slice.mem.cols();
    rs.slice_mail_dim = slice.mail.cols();
    rs.slice_mem.assign(slice.mem.data(), slice.mem.data() + slice.mem.size());
    rs.slice_mem_ts = slice.mem_ts;
    rs.slice_mail.assign(slice.mail.data(),
                         slice.mail.data() + slice.mail.size());
    rs.slice_mail_ts = slice.mail_ts;
    rs.slice_flags = slice.has_mail;
  }
  write_rank_shard(stem, rs);

  if (ts.group_rank == 0) {
    // Quiesce the group's daemon: every round before `done` is fully
    // served (writes applied), and no round-`done` traffic can start
    // until every rank passes the barrier below — so this capture races
    // nothing, including the (deferred) epoch-wrap reset.
    daemon.await_rounds(std::min(done, schedule_.rounds_per_group));
    write_mem_shard(stem, make_mem_shard(states_[ts.mem_copy], fingerprint_,
                                         done, ts.mem_copy));
  }
  if (rank == 0) {
    CoreShard cs;
    cs.fingerprint = fingerprint_;
    cs.iteration = done;
    cs.world = cfg_.parallel.total_trainers();
    cs.mem_copies = cfg_.parallel.k;
    const std::span<const float> values = models_[rank]->flat_values();
    cs.weights.assign(values.begin(), values.end());
    write_core_shard(stem, cs);
  }

  // Every shard durable ⇒ commit. Only rank 0 lingers to write the
  // marker and prune; everyone else resumes training immediately.
  comm.barrier(rank);
  if (rank == 0) {
    CommitShard commit;
    commit.fingerprint = fingerprint_;
    commit.iteration = done;
    commit.world = cfg_.parallel.total_trainers();
    commit.mem_copies = cfg_.parallel.k;
    write_commit_shard(stem, commit);
    retain_snapshots(cfg_.recovery.checkpoint_dir, cfg_.recovery.keep_last);
    const int control_fd = dist::child_control_fd();
    if (control_fd >= 0) {
      dist::WireWriter w;
      w.put_u64(done);
      dist::write_frame(control_fd, dist::MsgType::kCheckpointNote, w.bytes(),
                        dist::deadline_after(std::chrono::milliseconds(
                            cfg_.fabric.timeout_ms)));
    }
  }
}

ThreadedTrainResult ThreadedTrainer::train() {
  const auto& par = cfg_.parallel;
  const std::size_t n = par.total_trainers();

  daemons_.clear();
  for (std::size_t m = 0; m < par.k; ++m) {
    DaemonConfig dc;
    dc.i = par.i;
    dc.j = par.j;
    dc.reset_before_round = schedule_.groups[m].reset_before_round;
    dc.start_round = std::min(start_iteration_, schedule_.rounds_per_group);
    // Fan large gathers/scatters over the shared prefetch workers
    // (parallel_for's caller participation means a busy pool can never
    // stall the daemon).
    dc.gather_pool = fanout_pool_;
    dc.wait = WaitPolicy{.spin_polls = cfg_.fabric.spin_polls};
    daemons_.push_back(std::make_unique<MemoryDaemon>(states_[m], dc));
    daemons_.back()->start();
  }

  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t r = 0; r < n; ++r)
    threads.emplace_back([this, r] { trainer_thread(r); });
  for (auto& th : threads) th.join();
  for (auto& d : daemons_) {
    try {
      d->join();
    } catch (...) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (!first_failure_) first_failure_ = std::current_exception();
    }
  }

  // A failed rank poisons everything, every thread and daemon is joined
  // above — now surface the root cause, not a secondary kAborted.
  if (first_failure_) std::rethrow_exception(first_failure_);

  ThreadedTrainResult result;
  result.wall_seconds = timer.seconds();
  result.iterations = schedule_.total_iterations;
  // Rank-ordered reductions: independent of thread completion order.
  for (std::size_t r = 0; r < n; ++r) {
    result.raw_events += rank_events_[r];
    result.loss_sum += rank_loss_[r];
    result.loss_count += rank_loss_count_[r];
  }
  result.events_per_second =
      static_cast<double>(result.raw_events) / result.wall_seconds;
  result.traversals = cfg_.epochs * split_.num_train();
  result.traversals_per_second =
      static_cast<double>(result.traversals) / result.wall_seconds;
  result.batch_build_seconds = batch_build_seconds_;
  result.prefetch_wait_seconds = prefetch_wait_seconds_;
  result.compute_seconds = compute_seconds_;
  result.mem_read_wait_seconds = mem_read_wait_seconds_;
  result.mem_write_wait_seconds = mem_write_wait_seconds_;
  result.rank0_timings = rank0_timings_;

  result.memory_digests.reserve(par.k);
  for (std::size_t m = 0; m < par.k; ++m)
    result.memory_digests.push_back(memory_digest(states_[m]));

  final_eval_into(result);
  return result;
}

void ThreadedTrainer::final_eval_into(ThreadedTrainResult& result) {
  // Final evaluation on memory copy 0 (validation then test, one clone),
  // split over the prefetch workers: training has joined, so they idle.
  MemoryState clone = states_[0];
  EvalConfig ec;
  ec.batch_size = cfg_.local_batch;
  ec.num_negs = cfg_.eval_negs;
  ec.seed = cfg_.seed ^ 0xe7a1ULL;
  result.final_val = evaluate_range(*models_[0], clone, *graph_, *sampler_,
                                    split_.train_end, split_.val_end, ec,
                                    fanout_pool_)
                         .metric;
  result.final_test = evaluate_range(*models_[0], clone, *graph_, *sampler_,
                                     split_.val_end, split_.test_end, ec,
                                     fanout_pool_)
                          .metric;
  const std::span<const float> weights = models_[0]->flat_values();
  result.weights.assign(weights.begin(), weights.end());
}

}  // namespace disttgl
