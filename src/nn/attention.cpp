#include "nn/attention.hpp"

#include <cmath>
#include <cstring>

#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace disttgl::nn {

namespace {
// Per-root attention scale 1/sqrt(|N_v|) from Eq. 7.
float root_scale(std::size_t valid) {
  return valid == 0 ? 0.0f : 1.0f / std::sqrt(static_cast<float>(valid));
}
}  // namespace

TemporalAttention::TemporalAttention(std::string name, const AttentionDims& dims,
                                     Rng& rng)
    : dims_(dims),
      wq_(name + ".wq", dims.node_dim + dims.time_dim, dims.attn_dim, rng),
      wk_(name + ".wk", dims.node_dim + dims.edge_dim + dims.time_dim,
          dims.attn_dim, rng),
      wv_(name + ".wv", dims.node_dim + dims.edge_dim + dims.time_dim,
          dims.attn_dim, rng),
      wo_(name + ".wo", dims.attn_dim + dims.node_dim, dims.out_dim, rng),
      time_enc_(name + ".time_enc", dims.time_dim) {
  DT_CHECK_GT(dims.num_heads, 0u);
  DT_CHECK_EQ(dims.attn_dim % dims.num_heads, 0u);
  DT_CHECK_GT(dims.max_neighbors, 0u);
}

void TemporalAttention::project_kv(Ctx& ctx, ThreadPool* pool) const {
  const Matrix& x = ctx.kv_in;
  const std::size_t m = x.rows(), in = x.cols(), da = dims_.attn_dim;
  const Matrix& wk = wk_.weight().value;
  const Matrix& wv = wv_.weight().value;
  ctx.wkv.reset_shape(in, 2 * da);
  for (std::size_t p = 0; p < in; ++p) {
    std::memcpy(ctx.wkv.row_ptr(p), wk.row_ptr(p), da * sizeof(float));
    std::memcpy(ctx.wkv.row_ptr(p) + da, wv.row_ptr(p), da * sizeof(float));
  }
  ctx.bkv.reset_shape(1, 2 * da);
  std::memcpy(ctx.bkv.row_ptr(0), wk_.bias().value.row_ptr(0),
              da * sizeof(float));
  std::memcpy(ctx.bkv.row_ptr(0) + da, wv_.bias().value.row_ptr(0),
              da * sizeof(float));

  // Every element of a product sums its k terms in the same order at
  // any panel width, so [K | V] equals two da-wide products bit for bit
  // — as long as both run on the same path. A product twice as wide
  // can cross kGemmSmallFlops while each half would stay below it, so a
  // small half is computed as its own small product.
  ctx.kv.reset_shape(m, 2 * da);
  const auto product = [&](std::size_t col0, std::size_t cols) {
    kernel::gemm(kernel::Layout::kNormal, kernel::Layout::kNormal, m, cols,
                 in, x.data(), in, ctx.wkv.data() + col0, 2 * da,
                 ctx.kv.data() + col0, 2 * da, /*accumulate=*/false, pool);
  };
  if (m * da * in < kernel::kGemmSmallFlops) {
    product(0, da);
    product(da, da);
  } else {
    product(0, 2 * da);
  }
  add_bias_inplace(ctx.kv, ctx.bkv, pool);
  ctx.k_ctx.input = &x;
  ctx.v_ctx.input = &x;
}

const Matrix& TemporalAttention::forward(const Matrix& node_repr,
                                         const Matrix& neigh_repr,
                                         const Matrix& edge_feat,
                                         std::span<const float> dt,
                                         std::span<const std::size_t> valid,
                                         Ctx* ctx, ThreadPool* pool) const {
  DT_CHECK(ctx != nullptr);
  const std::size_t n = node_repr.rows();
  const std::size_t K = dims_.max_neighbors;
  const std::size_t H = dims_.num_heads;
  const std::size_t dh = dims_.attn_dim / H;
  DT_CHECK_EQ(neigh_repr.rows(), n * K);
  DT_CHECK_EQ(dt.size(), n * K);
  DT_CHECK_EQ(valid.size(), n);

  ctx->n = n;
  ctx->valid.assign(valid.begin(), valid.end());

  // Query: {s_v || Φ(0)}.
  ctx->dt0.assign(n, 0.0f);
  concat_cols_into({&node_repr}, ctx->q_in, pool, dims_.time_dim);
  time_enc_.forward_cols(ctx->dt0, &ctx->t0_ctx, ctx->q_in, dims_.node_dim,
                         pool);
  wq_.forward_into(ctx->q_in, &ctx->q_ctx, ctx->q, pool);

  // Keys/values: {S_w || E_vw || Φ(Δt)}.
  if (dims_.edge_dim > 0)
    concat_cols_into({&neigh_repr, &edge_feat}, ctx->kv_in, pool,
                     dims_.time_dim);
  else
    concat_cols_into({&neigh_repr}, ctx->kv_in, pool, dims_.time_dim);
  time_enc_.forward_cols(dt, &ctx->tdt_ctx, ctx->kv_in,
                         dims_.node_dim + dims_.edge_dim, pool);
  project_kv(*ctx, pool);
  const Matrix& kv = ctx->kv;
  const std::size_t da = dims_.attn_dim;

  // Per-head scaled dot-product with masked softmax over valid slots,
  // one root at a time: a root's scores, weights and aggregate depend
  // only on its own rows, so roots split freely over the pool.
  ctx->alpha.resize(H);
  for (Matrix& alpha : ctx->alpha) alpha.reset_shape(n, K);
  ctx->scores.reset_shape(n, K);
  ctx->h_att.resize(n, da, 0.0f);
  const auto attend = [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const float scale = root_scale(valid[r]);
      float* srow = ctx->scores.row_ptr(r);
      for (std::size_t h = 0; h < H; ++h) {
        const std::size_t off = h * dh;
        const float* qrow = ctx->q.row_ptr(r) + off;
        for (std::size_t k = 0; k < valid[r]; ++k) {
          const float* krow = kv.row_ptr(r * K + k) + off;
          float acc = 0.0f;
          for (std::size_t c = 0; c < dh; ++c) acc += qrow[c] * krow[c];
          srow[k] = acc * scale;
        }
        float* arow = ctx->alpha[h].row_ptr(r);
        masked_softmax_row(srow, valid[r], K, arow);
        float* hrow = ctx->h_att.row_ptr(r) + off;
        for (std::size_t k = 0; k < valid[r]; ++k) {
          const float* vrow = kv.row_ptr(r * K + k) + da + off;
          const float a = arow[k];
          for (std::size_t c = 0; c < dh; ++c) hrow[c] += a * vrow[c];
        }
      }
    }
  };
  parallel_rows(pool, n, 3 * K * dims_.attn_dim, attend);

  // Output head: ReLU(W_o {h_v || s_v}).
  concat_cols_into({&ctx->h_att, &node_repr}, ctx->o_in, pool);
  wo_.forward_into(ctx->o_in, &ctx->o_ctx, ctx->out, pool);
  relu_inplace(ctx->out, pool);
  return ctx->out;
}

TemporalAttention::InputGrads TemporalAttention::backward(Ctx& ctx,
                                                          const Matrix& dout) {
  InputGrads grads;
  backward_into(ctx, dout, grads);
  return grads;
}

void TemporalAttention::backward_into(Ctx& ctx, const Matrix& dout,
                                      InputGrads& grads, ThreadPool* pool) {
  const std::size_t n = ctx.n;
  const std::size_t K = dims_.max_neighbors;
  const std::size_t H = dims_.num_heads;
  const std::size_t dh = dims_.attn_dim / H;
  const std::size_t dn = dims_.node_dim;
  const std::size_t da = dims_.attn_dim;

  // Output head. dh_att is columns [0, da) of do_in, read in place.
  relu_backward_into(ctx.out, dout, ctx.dpre);
  wo_.backward_into(ctx.o_ctx, ctx.dpre, ctx.do_in, false, pool);
  grads.dnode_repr.resize(n, dn, 0.0f);
  for (std::size_t r = 0; r < n; ++r) {
    float* dst = grads.dnode_repr.row_ptr(r);
    const float* src = ctx.do_in.row_ptr(r) + da;
    for (std::size_t c = 0; c < dn; ++c) dst[c] += src[c];
  }

  // Attention core, per head.
  ctx.dq.resize(n, da, 0.0f);
  ctx.dk.resize(n * K, da, 0.0f);
  ctx.dv.resize(n * K, da, 0.0f);
  for (std::size_t h = 0; h < H; ++h) {
    const std::size_t off = h * dh;
    const Matrix& alpha = ctx.alpha[h];
    ctx.dalpha.reset_shape(n, K);
    for (std::size_t r = 0; r < n; ++r) {
      const float* grow = ctx.do_in.row_ptr(r) + off;
      const float* arow = alpha.row_ptr(r);
      float* darow = ctx.dalpha.row_ptr(r);
      for (std::size_t k = 0; k < ctx.valid[r]; ++k) {
        const float* vrow = ctx.kv.row_ptr(r * K + k) + da + off;
        float* dvrow = ctx.dv.row_ptr(r * K + k) + off;
        float acc = 0.0f;
        for (std::size_t c = 0; c < dh; ++c) {
          acc += grow[c] * vrow[c];
          dvrow[c] += arow[k] * grow[c];
        }
        darow[k] = acc;
      }
    }
    masked_row_softmax_backward_into(alpha, ctx.dalpha, ctx.valid, ctx.dscores);
    for (std::size_t r = 0; r < n; ++r) {
      const float scale = root_scale(ctx.valid[r]);
      const float* qrow = ctx.q.row_ptr(r) + off;
      float* dqrow = ctx.dq.row_ptr(r) + off;
      const float* dsrow = ctx.dscores.row_ptr(r);
      for (std::size_t k = 0; k < ctx.valid[r]; ++k) {
        const float ds = dsrow[k] * scale;
        const float* krow = ctx.kv.row_ptr(r * K + k) + off;
        float* dkrow = ctx.dk.row_ptr(r * K + k) + off;
        for (std::size_t c = 0; c < dh; ++c) {
          dqrow[c] += ds * krow[c];
          dkrow[c] += ds * qrow[c];
        }
      }
    }
  }

  // Query projection path: q_in = {s_v || Φ(0)}.
  wq_.backward_into(ctx.q_ctx, ctx.dq, ctx.dq_in, false, pool);
  for (std::size_t r = 0; r < n; ++r) {
    float* dst = grads.dnode_repr.row_ptr(r);
    const float* src = ctx.dq_in.row_ptr(r);
    for (std::size_t c = 0; c < dn; ++c) dst[c] += src[c];
  }
  time_enc_.backward_cols(ctx.t0_ctx, ctx.dq_in, dn);

  // Key/value projection path: kv_in = {S_w || E_vw || Φ(Δt)}; W_k and
  // W_v get their own weight products.
  wk_.backward_into(ctx.k_ctx, ctx.dk, ctx.dkv_in, false, pool);
  wv_.backward_into(ctx.v_ctx, ctx.dv, ctx.dkv_in, /*accumulate_dx=*/true,
                    pool);
  ctx.dkv_in.slice_cols_into(0, dn, grads.dneigh_repr);
  const std::size_t t_off = dn + dims_.edge_dim;
  time_enc_.backward_cols(ctx.tdt_ctx, ctx.dkv_in, t_off);
  // Edge-feature gradients are dropped: features are dataset constants.
}

void TemporalAttention::collect_parameters(std::vector<Parameter*>& out) {
  wq_.collect_parameters(out);
  wk_.collect_parameters(out);
  wv_.collect_parameters(out);
  wo_.collect_parameters(out);
  time_enc_.collect_parameters(out);
}

}  // namespace disttgl::nn
