// google-benchmark microbenchmarks for the kernel-level hot paths: GEMM
// (all three layout-tag products, allocating and `_into` forms), masked
// softmax, GRU cell, temporal attention, neighbor sampling, memory
// gather/scatter. These are the quantities the throughput model's
// gpu_flops/bytes inputs abstract over.
//
// The `_into` / reused-Ctx variants measure the steady-state training
// iteration: scratch reaches its high-water mark during warm-up and the
// timed loop performs zero heap allocations (see
// test_kernels.AllocationFree for the enforced version of that claim).
//
// bench/run_kernels.sh runs this target and appends a labelled entry to
// BENCH_kernels.json, the kernel-layer perf trajectory.
#include <benchmark/benchmark.h>

#include "datagen/generator.hpp"
#include "memory/memory_state.hpp"
#include "nn/attention.hpp"
#include "nn/gru_cell.hpp"
#include "nn/time_encoding.hpp"
#include "sampling/minibatch.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace disttgl;

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.normal());
  return m;
}

void set_gemm_counters(benchmark::State& state, std::size_t m, std::size_t n,
                       std::size_t k) {
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);  // FLOPs
  state.SetBytesProcessed(state.iterations() * (m * k + k * n + m * n) *
                          sizeof(float));
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  for (auto _ : state) {
    Matrix c = matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmInto(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c;
  matmul_into(a, b, c);  // warm-up: c reaches steady-state capacity
  for (auto _ : state) {
    matmul_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmInto)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmNtInto(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c;
  matmul_nt_into(a, b, c);
  for (auto _ : state) {
    matmul_nt_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmNtInto)->Arg(128)->Arg(256);

void BM_GemmTnInto(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c;
  matmul_tn_into(a, b, c);
  for (auto _ : state) {
    matmul_tn_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmTnInto)->Arg(128)->Arg(256);

// The narrow products of one mooc-like training step, at its shapes
// (m x n x k): the attention K/V projection forward (NN 36000x8x12),
// its input gradient (NT 36000x12x8, accumulated into C) and its weight
// gradient (TN 12x8x36000). A step issues 2 NN, 2 NT (one accumulating)
// and 2 TN of these. Serial, as concurrent trainers run them.
enum class NarrowProduct { kNN, kNTAcc, kTN };

void BM_GemmNarrow(benchmark::State& state, NarrowProduct product) {
  constexpr std::size_t kRows = 36000, kIn = 12, kOut = 8;
  Rng rng(4);
  const Matrix x = random_matrix(kRows, kIn, rng);    // layer input
  const Matrix w = random_matrix(kIn, kOut, rng);     // weight
  const Matrix dy = random_matrix(kRows, kOut, rng);  // output gradient
  Matrix c;
  auto run = [&] {
    switch (product) {
      case NarrowProduct::kNN: matmul_into(x, w, c); break;
      case NarrowProduct::kNTAcc: matmul_nt_acc(dy, w, c); break;
      case NarrowProduct::kTN: matmul_tn_into(x, dy, c); break;
    }
  };
  if (product == NarrowProduct::kNTAcc) c = Matrix(kRows, kIn);
  run();  // warm-up: packed-panel scratch reaches its high-water mark
  for (auto _ : state) {
    run();
    benchmark::DoNotOptimize(c.data());
  }
  switch (product) {
    case NarrowProduct::kNN: set_gemm_counters(state, kRows, kOut, kIn); break;
    case NarrowProduct::kNTAcc: set_gemm_counters(state, kRows, kIn, kOut); break;
    case NarrowProduct::kTN: set_gemm_counters(state, kIn, kOut, kRows); break;
  }
}
BENCHMARK_CAPTURE(BM_GemmNarrow, nn_36000x8x12, NarrowProduct::kNN);
BENCHMARK_CAPTURE(BM_GemmNarrow, nt_acc_36000x12x8, NarrowProduct::kNTAcc);
BENCHMARK_CAPTURE(BM_GemmNarrow, tn_12x8x36000, NarrowProduct::kTN);

void BM_MaskedSoftmax(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  Matrix scores = random_matrix(rows, 10, rng);
  std::vector<std::size_t> valid(rows);
  for (std::size_t r = 0; r < rows; ++r) valid[r] = r % 11;
  Matrix y;
  for (auto _ : state) {
    masked_row_softmax_into(scores, valid, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() * 2 * scores.size() * sizeof(float));
}
BENCHMARK(BM_MaskedSoftmax)->Arg(600)->Arg(2400);

void BM_GruCell(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  nn::GRUCell cell("g", 72, 32, rng);
  Matrix x = random_matrix(rows, 72, rng);
  Matrix h = random_matrix(rows, 32, rng);
  for (auto _ : state) {
    Matrix y = cell.forward(x, h);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_GruCell)->Arg(600)->Arg(2400);

// Steady-state form: Ctx and output reused, so iterations after the first
// are allocation-free.
void BM_GruCellInto(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  nn::GRUCell cell("g", 72, 32, rng);
  Matrix x = random_matrix(rows, 72, rng);
  Matrix h = random_matrix(rows, 32, rng);
  nn::GRUCell::Ctx ctx;
  Matrix y;
  cell.forward_into(x, h, ctx, y);  // warm-up
  for (auto _ : state) {
    cell.forward_into(x, h, ctx, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_GruCellInto)->Arg(600)->Arg(2400);

// Ctx hoisted out of the loop: after the first (warm-up) call every
// iteration reuses the Ctx-held scratch — the steady-state training shape.
void BM_TemporalAttention(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t K = 10;
  Rng rng(4);
  nn::AttentionDims dims;
  dims.node_dim = 32;
  dims.edge_dim = 16;
  dims.time_dim = 8;
  dims.attn_dim = 32;
  dims.out_dim = 32;
  dims.num_heads = 2;
  dims.max_neighbors = K;
  nn::TemporalAttention attn("a", dims, rng);
  Matrix node = random_matrix(n, 32, rng);
  Matrix neigh = random_matrix(n * K, 32, rng);
  Matrix edge = random_matrix(n * K, 16, rng);
  std::vector<float> dt(n * K, 1.0f);
  std::vector<std::size_t> valid(n, K);
  nn::TemporalAttention::Ctx ctx;
  attn.forward(node, neigh, edge, dt, valid, &ctx);  // warm-up
  for (auto _ : state) {
    const Matrix& out = attn.forward(node, neigh, edge, dt, valid, &ctx);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TemporalAttention)->Arg(200)->Arg(600);

// The training step's shape on the mooc-like workload: 3600 roots with
// K = 10 neighbour slots, Δt drawn from [0, 2.6e5] (the time encoding
// reaches libm's large-argument path) and each window's tail padded
// with Δt = +0, as the sampler leaves it.
constexpr std::size_t kStepRoots = 3600, kStepK = 10;

void step_deltas(Rng& rng, std::vector<float>& dt,
                 std::vector<std::size_t>& valid) {
  valid.resize(kStepRoots);
  dt.assign(kStepRoots * kStepK, 0.0f);
  for (std::size_t r = 0; r < kStepRoots; ++r) {
    valid[r] = 1 + rng.uniform_int(kStepK);
    for (std::size_t k = 0; k < valid[r]; ++k)
      dt[r * kStepK + k] = static_cast<float>(rng.uniform(0.0, 2.6e5));
  }
}

void BM_TimeEncoding(benchmark::State& state) {  // forward + backward
  Rng rng(6);
  std::vector<float> dt;
  std::vector<std::size_t> valid;
  step_deltas(rng, dt, valid);
  nn::TimeEncoding enc("t", 4);
  nn::TimeEncoding::Ctx ctx;
  Matrix phi, dphi = random_matrix(dt.size(), 4, rng);
  for (auto _ : state) {
    enc.forward_into(dt, &ctx, phi);
    enc.backward(ctx, dphi);
    benchmark::DoNotOptimize(phi.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * dt.size());
}
BENCHMARK(BM_TimeEncoding);

void BM_TemporalAttentionStep(benchmark::State& state) {  // fwd + bwd
  Rng rng(7);
  std::vector<float> dt;
  std::vector<std::size_t> valid;
  step_deltas(rng, dt, valid);
  nn::AttentionDims dims{.node_dim = 8, .edge_dim = 0, .time_dim = 4,
                         .attn_dim = 8, .out_dim = 8, .num_heads = 2,
                         .max_neighbors = kStepK};
  nn::TemporalAttention attn("a", dims, rng);
  Matrix node = random_matrix(kStepRoots, 8, rng);
  Matrix neigh = random_matrix(kStepRoots * kStepK, 8, rng);
  Matrix edge(kStepRoots * kStepK, 0);
  Matrix dout = random_matrix(kStepRoots, 8, rng);
  nn::TemporalAttention::Ctx ctx;
  nn::TemporalAttention::InputGrads grads;
  for (auto _ : state) {
    attn.forward(node, neigh, edge, dt, valid, &ctx);
    attn.backward_into(ctx, dout, grads);
    benchmark::DoNotOptimize(grads.dneigh_repr.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kStepRoots);
}
BENCHMARK(BM_TemporalAttentionStep);

void BM_MiniBatchBuild(benchmark::State& state) {
  datagen::SynthSpec spec;
  spec.num_src = 440;
  spec.num_dst = 220;
  spec.num_events = 12000;
  spec.seed = 5;
  static TemporalGraph g = datagen::generate(spec);
  NeighborSampler sampler(g, 10);
  NegativeSampler negs(g, 10, 7);
  MiniBatchBuilder builder(g, sampler, negs, 1);
  std::size_t b = 0;
  for (auto _ : state) {
    MiniBatch mb = builder.build(b, 6000, 6600, b % 10);
    benchmark::DoNotOptimize(mb.unique_nodes.data());
    ++b;
  }
  state.SetItemsProcessed(state.iterations() * 600);
}
BENCHMARK(BM_MiniBatchBuild);

// Distinct random node ids (a shuffled-prefix draw): MemoryState::write
// requires distinct nodes, the contract that makes its parallel fan-out
// race-free.
std::vector<NodeId> distinct_nodes(std::size_t rows, std::size_t num_nodes,
                                   Rng& rng) {
  std::vector<NodeId> all(num_nodes);
  for (std::size_t v = 0; v < num_nodes; ++v) all[v] = static_cast<NodeId>(v);
  for (std::size_t i = 0; i < rows; ++i)
    std::swap(all[i], all[i + rng.uniform_int(num_nodes - i)]);
  all.resize(rows);
  return all;
}

void BM_MemoryReadWrite(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  MemoryState mem(20000, 32, 80);
  Rng rng(6);
  const std::vector<NodeId> nodes = distinct_nodes(rows, 20000, rng);
  MemoryWrite w;
  w.nodes = nodes;
  w.mem = Matrix(rows, 32, 1.0f);
  w.mem_ts.assign(rows, 1.0f);
  w.mail = Matrix(rows, 80, 1.0f);
  w.mail_ts.assign(rows, 1.0f);
  for (auto _ : state) {
    MemorySlice s = mem.read(nodes);
    benchmark::DoNotOptimize(s.mem.data());
    mem.write(w);
  }
  state.SetBytesProcessed(state.iterations() * rows * (32 + 80) * 4 * 2);
}
BENCHMARK(BM_MemoryReadWrite)->Arg(1024)->Arg(4096);

// The allocation-free steady state: fused blocked-row gather into a
// recycled slice + in-place write (the trainers' actual memory path).
void BM_MemoryReadWriteInto(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  MemoryState mem(20000, 32, 80);
  Rng rng(6);
  const std::vector<NodeId> nodes = distinct_nodes(rows, 20000, rng);
  MemoryWrite w;
  w.nodes = nodes;
  w.mem = Matrix(rows, 32, 1.0f);
  w.mem_ts.assign(rows, 1.0f);
  w.mail = Matrix(rows, 80, 1.0f);
  w.mail_ts.assign(rows, 1.0f);
  MemorySlice slice;
  for (auto _ : state) {
    mem.read_into(nodes, slice);
    benchmark::DoNotOptimize(slice.mem.data());
    mem.write(w);
  }
  state.SetBytesProcessed(state.iterations() * rows * (32 + 80) * 4 * 2);
}
BENCHMARK(BM_MemoryReadWriteInto)->Arg(1024)->Arg(4096);

}  // namespace
