// Isolated gradient-sync cost per iteration — the trajectory behind
// BENCH_comm.json (bench/run_comm.sh appends one labelled entry per
// invocation; docs/BENCHMARKS.md).
//
// DistTGL's scaling argument charges synchronous gradient averaging to
// every iteration (Table 1, "synchronization across trainers"). This
// bench measures exactly that path, detached from training: an
// allreduce over the real model-scale flat gradient payload (parameter
// count taken from a paper-dim TGNModel), swept over trainer counts.
//
//   ring_us     ThreadComm::allreduce_mean — persistent staging,
//               chunked reduce-scatter + allgather, two barriers.
//   ring_opt_us the same collective plus the per-iteration optimizer
//               tail the trainer pays after it (global grad-clip + Adam
//               over the full payload).
//
// The seed collective's columns (legacy_*, speedup) and the fused
// allreduce→step columns (fused_*) are frozen in BENCH_comm.json.
//
//   bench_comm_ops [--iters=N] [--ranks=R] [--elems=E]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/tgn_model.hpp"
#include "datagen/generator.hpp"
#include "datagen/presets.hpp"
#include "distributed/comm.hpp"
#include "nn/optim.hpp"
#include "util/barrier.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace disttgl {
namespace {

// Parameter count of the paper-scale model (§4.0.1 dims: mem 100,
// attention 100, embedding 100) on a Wikipedia-like feature layout —
// the real per-iteration allreduce payload.
std::size_t model_flat_elems() {
  datagen::SynthSpec spec = datagen::wikipedia_like(0.02);
  const TemporalGraph g = datagen::generate(spec);
  ModelConfig mc;
  mc.mem_dim = 100;
  mc.time_dim = 16;
  mc.attn_dim = 100;
  mc.emb_dim = 100;
  mc.head_hidden = 100;
  Rng rng(3);
  TGNModel model(mc, g, nullptr, rng);
  return model.num_parameters();
}

// Per-rank state for the optimizer tail: the flat payload as a single
// Parameter (contiguous by construction, like a flat-frozen model) plus
// its own Adam replica.
struct RankOpt {
  nn::Parameter param;
  nn::Adam opt;
  explicit RankOpt(std::size_t elems)
      : param("flat", 1, elems),
        opt({&param}, nn::AdamOptions{.lr = 1e-3f}) {}
};

constexpr float kClip = 10.0f;

// Runs `iters` rounds per rep on `ranks` persistent threads (rank 0
// times each rep between alignment barriers) and returns the best
// us/round — same best-of-reps methodology as bench_memory_ops.
template <typename PerRankBody>
double time_rounds(std::size_t ranks, std::size_t iters, PerRankBody&& body) {
  constexpr std::size_t kReps = 5;
  SpinBarrier gate(ranks);
  double best = 1e30;
  std::vector<std::thread> threads;
  for (std::size_t rank = 0; rank < ranks; ++rank) {
    threads.emplace_back([&, rank] {
      BarrierToken token(gate);
      for (std::size_t w = 0; w < 2; ++w) body(rank);  // warm-up
      for (std::size_t rep = 0; rep < kReps; ++rep) {
        (void)token.wait();
        WallTimer timer;
        for (std::size_t it = 0; it < iters; ++it) body(rank);
        (void)token.wait();
        if (rank == 0)
          best = std::min(best,
                          timer.seconds() * 1e6 / static_cast<double>(iters));
      }
    });
  }
  for (auto& t : threads) t.join();
  return best;
}

void fill_payloads(std::vector<std::vector<float>>& data, std::size_t elems) {
  Rng rng(17);
  for (auto& row : data) {
    row.resize(elems);
    for (auto& v : row) v = static_cast<float>(rng.uniform(-0.1, 0.1));
  }
}

void run_ranks(std::size_t ranks, std::size_t elems, std::size_t iters) {
  bench::section(std::to_string(ranks) + " ranks");
  std::vector<std::vector<float>> payload(ranks);
  fill_payloads(payload, elems);

  dist::ThreadComm ring(ranks);
  ring.reserve(elems);
  const double ring_us = time_rounds(ranks, iters, [&](std::size_t r) {
    ring.allreduce_mean(r, payload[r]);
  });

  // -- collective + optimizer tail (what an iteration actually pays) --
  std::vector<std::unique_ptr<RankOpt>> opts;
  for (std::size_t r = 0; r < ranks; ++r)
    opts.push_back(std::make_unique<RankOpt>(elems));
  const double ring_opt_us = time_rounds(ranks, iters, [&](std::size_t r) {
    RankOpt& o = *opts[r];
    std::memcpy(o.param.grad.data(), payload[r].data(),
                elems * sizeof(float));
    ring.allreduce_mean(r, std::span<float>(o.param.grad.data(), elems));
    nn::clip_grad_norm({&o.param}, kClip);
    o.opt.step();
  });

  std::printf("comm_ops ranks=%zu elems=%zu mb=%.2f ring_us=%.1f "
              "ring_opt_us=%.1f\n",
              ranks, elems, elems * sizeof(float) / 1e6, ring_us, ring_opt_us);
  std::fflush(stdout);
}

}  // namespace
}  // namespace disttgl

int main(int argc, char** argv) {
  using namespace disttgl;
  std::size_t iters = 200;
  std::size_t only_ranks = 0;
  std::size_t elems = 0;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--iters=", 8) == 0) {
      iters = static_cast<std::size_t>(std::stoul(argv[a] + 8));
    } else if (std::strncmp(argv[a], "--ranks=", 8) == 0) {
      only_ranks = static_cast<std::size_t>(std::stoul(argv[a] + 8));
    } else if (std::strncmp(argv[a], "--elems=", 8) == 0) {
      elems = static_cast<std::size_t>(std::stoul(argv[a] + 8));
    } else {
      std::fprintf(stderr, "usage: %s [--iters=N] [--ranks=R] [--elems=E]\n",
                   argv[0]);
      return 2;
    }
  }
  bench::header(
      "comm_ops — gradient-sync cost per iteration at model payload size",
      "chunked reduce-scatter (O(size)/rank, 2 barriers, persistent "
      "staging), alone and with the clip+Adam tail an iteration pays");
  if (elems == 0) elems = model_flat_elems();
  std::printf("payload: %zu parameters (%.2f MB), iters=%zu\n", elems,
              elems * sizeof(float) / 1e6, iters);
  for (const std::size_t ranks : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    if (only_ranks != 0 && ranks != only_ranks) continue;
    run_ranks(ranks, elems, iters);
  }
  return 0;
}
