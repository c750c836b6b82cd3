// Behavioural tests for NN layers beyond raw gradients: shapes, masking,
// optimizer dynamics, parameter flattening.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/attention.hpp"
#include "nn/gru_cell.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "nn/time_encoding.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace disttgl {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.normal());
  return m;
}

TEST(Linear, ForwardShapeAndBias) {
  Rng rng(1);
  nn::Linear layer("l", 3, 2, rng);
  Matrix x(4, 3, 0.0f);
  Matrix y = layer.forward(x);
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 2u);
  // Zero input -> output equals bias on every row.
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 2; ++c)
      EXPECT_FLOAT_EQ(y(r, c), layer.bias().value(0, c));
}

TEST(Linear, NoBiasVariant) {
  Rng rng(2);
  nn::Linear layer("l", 3, 2, rng, /*bias=*/false);
  Matrix x(1, 3, 0.0f);
  Matrix y = layer.forward(x);
  EXPECT_FLOAT_EQ(y(0, 0), 0.0f);
  EXPECT_EQ(layer.parameters().size(), 1u);
}

TEST(TimeEncoding, ZeroDeltaGivesCosPhase) {
  nn::TimeEncoding enc("te", 4);
  std::vector<float> dt = {0.0f};
  Matrix y = enc.forward(dt);
  // φ initialized to 0 ⇒ cos(0) = 1 everywhere.
  for (std::size_t c = 0; c < 4; ++c) EXPECT_NEAR(y(0, c), 1.0f, 1e-6f);
}

TEST(TimeEncoding, DistinguishesScales) {
  nn::TimeEncoding enc("te", 8);
  std::vector<float> dt = {1.0f, 1000.0f};
  Matrix y = enc.forward(dt);
  float diff = 0.0f;
  for (std::size_t c = 0; c < 8; ++c) diff += std::abs(y(0, c) - y(1, c));
  EXPECT_GT(diff, 0.1f);
}

TEST(GRUCell, InterpolatesBetweenInputAndHidden) {
  Rng rng(3);
  nn::GRUCell cell("g", 2, 3, rng);
  Matrix x = random_matrix(4, 2, rng);
  Matrix h = random_matrix(4, 3, rng);
  Matrix y = cell.forward(x, h);
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 3u);
  // h' = (1−z)n + zh with n ∈ (−1,1): outputs are bounded by the convex
  // combination of tanh range and previous hidden values.
  for (std::size_t i = 0; i < y.size(); ++i) {
    const float bound = std::max(1.0f, std::abs(h.data()[i])) + 1e-5f;
    EXPECT_LE(std::abs(y.data()[i]), bound);
  }
}

TEST(GRUCell, StateDependsOnInput) {
  Rng rng(4);
  nn::GRUCell cell("g", 2, 3, rng);
  Matrix h = random_matrix(1, 3, rng);
  Matrix x1(1, 2, {1.0f, -1.0f});
  Matrix x2(1, 2, {-1.0f, 1.0f});
  Matrix y1 = cell.forward(x1, h);
  Matrix y2 = cell.forward(x2, h);
  EXPECT_GT(max_rel_diff(y1, y2), 1e-3f);
}

TEST(Attention, OutputShapesAndIsolatedRoots) {
  Rng rng(5);
  nn::AttentionDims dims;
  dims.node_dim = 4;
  dims.edge_dim = 0;  // no edge features (MOOC/Flights style)
  dims.time_dim = 4;
  dims.attn_dim = 8;
  dims.out_dim = 6;
  dims.num_heads = 2;
  dims.max_neighbors = 4;
  nn::TemporalAttention attn("a", dims, rng);

  const std::size_t n = 3, K = 4;
  Matrix node = random_matrix(n, 4, rng);
  Matrix neigh = random_matrix(n * K, 4, rng);
  Matrix edge(n * K, 0);
  std::vector<float> dt(n * K, 1.0f);
  std::vector<std::size_t> valid = {4, 0, 2};
  nn::TemporalAttention::Ctx ctx;
  Matrix out = attn.forward(node, neigh, edge, dt, valid, &ctx);
  EXPECT_EQ(out.rows(), n);
  EXPECT_EQ(out.cols(), dims.out_dim);
  // The isolated root (valid = 0) still produces an embedding (from its
  // own representation through W_o), generally nonzero.
  float norm1 = 0.0f;
  for (std::size_t c = 0; c < dims.out_dim; ++c) norm1 += std::abs(out(1, c));
  EXPECT_GT(norm1, 0.0f);
}

TEST(Attention, AttendsToRelevantNeighbor) {
  // A root whose query matches one specific key should weight that
  // neighbor's value most. Engineer it via identical node dims and a
  // near-identity setup: just check the alpha distribution is not flat
  // when keys differ strongly.
  Rng rng(6);
  nn::AttentionDims dims;
  dims.node_dim = 3;
  dims.edge_dim = 0;
  dims.time_dim = 2;
  dims.attn_dim = 4;
  dims.out_dim = 3;
  dims.num_heads = 1;
  dims.max_neighbors = 2;
  nn::TemporalAttention attn("a", dims, rng);
  Matrix node = random_matrix(1, 3, rng);
  Matrix neigh(2, 3);
  neigh.copy_row_from(0, node.row(0));  // neighbor 0 similar to root
  for (std::size_t c = 0; c < 3; ++c) neigh(1, c) = -node(0, c);
  Matrix edge(2, 0);
  std::vector<float> dt = {0.0f, 0.0f};
  std::vector<std::size_t> valid = {2};
  nn::TemporalAttention::Ctx ctx;
  attn.forward(node, neigh, edge, dt, valid, &ctx);
  const Matrix& alpha = ctx.alpha[0];
  EXPECT_NEAR(alpha(0, 0) + alpha(0, 1), 1.0f, 1e-5f);
  EXPECT_NE(alpha(0, 0), alpha(0, 1));
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize ||w - target||² with Adam through the Parameter interface.
  nn::Parameter w("w", 1, 4);
  Matrix target(1, 4, {1.0f, -2.0f, 3.0f, 0.5f});
  nn::Adam opt({&w}, nn::AdamOptions{.lr = 0.05f});
  for (int step = 0; step < 500; ++step) {
    for (std::size_t i = 0; i < 4; ++i)
      w.grad.data()[i] = 2.0f * (w.value.data()[i] - target.data()[i]);
    opt.step();
    opt.zero_grad();
  }
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(w.value.data()[i], target.data()[i], 1e-2f);
}

TEST(Sgd, MomentumAccelerates) {
  nn::Parameter a("a", 1, 1), b("b", 1, 1);
  a.value(0, 0) = b.value(0, 0) = 10.0f;
  nn::Sgd plain({&a}, 0.01f);
  nn::Sgd momentum({&b}, 0.01f, 0.9f);
  for (int step = 0; step < 50; ++step) {
    a.grad(0, 0) = 2.0f * a.value(0, 0);
    b.grad(0, 0) = 2.0f * b.value(0, 0);
    plain.step();
    momentum.step();
  }
  EXPECT_LT(std::abs(b.value(0, 0)), std::abs(a.value(0, 0)));
}

TEST(Optim, ClipGradNorm) {
  nn::Parameter w("w", 1, 3);
  w.grad = Matrix(1, 3, {3.0f, 4.0f, 0.0f});  // norm 5
  const float pre = nn::clip_grad_norm({&w}, 1.0f);
  EXPECT_FLOAT_EQ(pre, 5.0f);
  EXPECT_NEAR(std::sqrt(w.grad.squared_norm()), 1.0f, 1e-5f);
  // Below the limit: untouched.
  w.grad = Matrix(1, 3, {0.1f, 0.0f, 0.0f});
  nn::clip_grad_norm({&w}, 1.0f);
  EXPECT_FLOAT_EQ(w.grad(0, 0), 0.1f);
}

TEST(Module, FlattenRoundTrip) {
  Rng rng(9);
  nn::Linear l1("l1", 3, 2, rng);
  nn::Linear l2("l2", 2, 2, rng);
  std::vector<nn::Parameter*> params;
  l1.collect_parameters(params);
  l2.collect_parameters(params);

  std::vector<float> flat;
  nn::flatten_values(params, flat);
  EXPECT_EQ(flat.size(), nn::flat_size(params));

  std::vector<float> modified = flat;
  for (float& v : modified) v += 1.0f;
  nn::unflatten_values(modified, params);
  std::vector<float> flat2;
  nn::flatten_values(params, flat2);
  for (std::size_t i = 0; i < flat.size(); ++i)
    EXPECT_FLOAT_EQ(flat2[i], flat[i] + 1.0f);
}

// Minimal Module wrapping two Linears — the flat-storage test subject.
struct TwoLayer : nn::Module {
  nn::Linear a, b;
  TwoLayer(Rng& rng) : a("a", 3, 4, rng), b("b", 4, 2, rng) {}
  void collect_parameters(std::vector<nn::Parameter*>& out) override {
    a.collect_parameters(out);
    b.collect_parameters(out);
  }
};

TEST(Module, FreezeFlatStoragePreservesValuesAndAliases) {
  Rng rng(31);
  TwoLayer m(rng);
  std::vector<float> before;
  nn::flatten_values(m.cached_parameters(), before);

  EXPECT_FALSE(m.has_flat_storage());
  m.freeze_flat_storage();
  m.freeze_flat_storage();  // idempotent
  EXPECT_TRUE(m.has_flat_storage());

  // Contents preserved, layout identical to flatten_values order.
  const std::span<const float> flat = m.flat_values();
  ASSERT_EQ(flat.size(), before.size());
  for (std::size_t i = 0; i < flat.size(); ++i)
    EXPECT_EQ(flat[i], before[i]) << "element " << i;

  // Parameters are now contiguous views: writing through a parameter is
  // visible in the flat span and vice versa.
  std::vector<nn::Parameter*> params = m.parameters();
  EXPECT_TRUE(params[0]->value.is_view());
  const float* base = params[0]->value.data();
  std::size_t off = 0;
  for (const nn::Parameter* p : params) {
    EXPECT_EQ(p->value.data(), base + off);
    off += p->size();
  }
  params[1]->value.data()[0] = 42.0f;
  EXPECT_EQ(m.flat_values()[params[0]->size()], 42.0f);
  m.flat_grads()[0] = 7.0f;
  EXPECT_EQ(params[0]->grad.data()[0], 7.0f);
  m.zero_grad();
  EXPECT_EQ(params[0]->grad.data()[0], 0.0f);
}

TEST(Loss, LinkPredictionDirection) {
  // High positive score + low negative score ⇒ small loss.
  Matrix good_pos(2, 1, {5.0f, 6.0f}), good_neg(2, 2, {-5.0f, -6.0f, -4.0f, -7.0f});
  Matrix bad_pos(2, 1, {-5.0f, -6.0f}), bad_neg(2, 2, {5.0f, 6.0f, 4.0f, 7.0f});
  Matrix d1, d2;
  const float good = nn::link_prediction_loss(good_pos, good_neg, d1, d2);
  const float bad = nn::link_prediction_loss(bad_pos, bad_neg, d1, d2);
  EXPECT_LT(good, 0.1f);
  EXPECT_GT(bad, 2.0f);
}

}  // namespace
}  // namespace disttgl
