// Distributed training end-to-end: plan an i×j×k configuration for a
// simulated cluster with the §3.2.4 heuristics, run it on the real
// threaded system (trainer threads, zero-copy memory daemons, pooled
// prefetch pipeline, chunked reduce-scatter gradient sync), and compare
// convergence/iterations against single-GPU.
#include <cstdio>

#include "core/planner.hpp"
#include "core/threaded_trainer.hpp"
#include "core/trainer.hpp"
#include "datagen/presets.hpp"
#include "datagen/generator.hpp"

int main() {
  using namespace disttgl;

  TemporalGraph graph = datagen::generate(datagen::mooc_like(0.4));
  EventSplit split = chronological_split(graph);
  std::printf("dataset: %s, %zu nodes, %zu events (train %zu)\n",
              graph.name().c_str(), graph.num_nodes(), graph.num_events(),
              split.num_train());

  // Ask the planner for the best configuration on one 8-GPU machine.
  PlannerInputs hw;
  hw.machines = 1;
  hw.gpus_per_machine = 8;
  hw.mem_copies_per_machine = 8;
  hw.gpu_saturation_batch = 100;
  Plan plan = plan_training(graph, split, hw);
  std::printf("planned configuration: %zux%zux%zu (ixjxk), local batch %zu, "
              "capture fraction %.3f\n",
              plan.parallel.i, plan.parallel.j, plan.parallel.k,
              plan.local_batch, plan.capture_fraction);

  TrainingConfig cfg;
  cfg.model.mem_dim = 16;
  cfg.model.time_dim = 8;
  cfg.model.attn_dim = 16;
  cfg.model.emb_dim = 16;
  cfg.model.head_hidden = 16;
  cfg.local_batch = std::min<std::size_t>(plan.local_batch, 120);
  cfg.epochs = 8;
  cfg.base_lr = 1e-3f;

  // Single-GPU reference.
  SequentialTrainer single(cfg, graph, nullptr);
  TrainResult single_res = single.train();

  // Planned distributed configuration on the threaded system.
  TrainingConfig dist_cfg = cfg;
  dist_cfg.parallel = plan.parallel;
  validate(dist_cfg);
  ThreadedTrainer distributed(dist_cfg, graph, nullptr);
  ThreadedTrainResult dist_res = distributed.train();

  std::printf("\n%-24s iterations  val MRR   test MRR\n", "configuration");
  std::printf("%-24s %9zu  %.4f    %.4f\n", "1x1x1 (single GPU)",
              single_res.iterations, single_res.final_val,
              single_res.final_test);
  char label[64];
  std::snprintf(label, sizeof(label), "%zux%zux%zu (threaded)",
                dist_cfg.parallel.i, dist_cfg.parallel.j, dist_cfg.parallel.k);
  std::printf("%-24s %9zu  %.4f    %.4f\n", label, dist_res.iterations,
              dist_res.final_val, dist_res.final_test);
  std::printf("\niteration reduction: %.1fx with %zu trainers\n",
              static_cast<double>(single_res.iterations) / dist_res.iterations,
              dist_cfg.parallel.total_trainers());
  return 0;
}
