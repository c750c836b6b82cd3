#include "nn/time_encoding.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace disttgl::nn {

TimeEncoding::TimeEncoding(std::string name, std::size_t dim)
    : omega_(name + ".omega", 1, dim), phi_(name + ".phi", 1, dim) {
  // Geometric ladder from TGAT: ω_i = 1 / 10^(4i/d). Covers time scales
  // from O(1) up to O(10^4) units.
  for (std::size_t i = 0; i < dim; ++i) {
    omega_.value(0, i) =
        1.0f / std::pow(10.0f, 4.0f * static_cast<float>(i) / static_cast<float>(dim));
    phi_.value(0, i) = 0.0f;
  }
}

Matrix TimeEncoding::forward(std::span<const float> dt, Ctx* ctx) const {
  Matrix out;
  forward_into(dt, ctx, out);
  return out;
}

void TimeEncoding::forward_into(std::span<const float> dt, Ctx* ctx,
                                Matrix& out, ThreadPool* pool) const {
  out.reset_shape(dt.size(), dim());
  forward_cols(dt, ctx, out, 0, pool);
}

void TimeEncoding::forward_cols(std::span<const float> dt, Ctx* ctx,
                                Matrix& out, std::size_t col0,
                                ThreadPool* pool) const {
  const std::size_t n = dt.size(), d = dim();
  DT_CHECK_EQ(out.rows(), n);
  DT_CHECK_LE(col0 + d, out.cols());
  const float* om = omega_.value.row_ptr(0);
  const float* ph = phi_.value.row_ptr(0);
  const float* zero_cos = nullptr;
  const float* zero_sin = nullptr;
  if (ctx != nullptr) {
    ctx->dt.assign(dt.begin(), dt.end());
    ctx->sin.reset_shape(n, d);
    // The Δt = +0 row, by the same expression as every other row.
    ctx->zero_row.resize(2 * d);
    float* zc = ctx->zero_row.data();
    for (std::size_t c = 0; c < d; ++c)
      ::sincosf(0.0f * om[c] + ph[c], zc + d + c, zc + c);
    zero_cos = zc;
    zero_sin = zc + d;
  }
  // A sincos costs about as much as a few dozen multiply-adds.
  parallel_rows(pool, n, 32 * d, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      float* orow = out.row_ptr(r) + col0;
      float* srow = ctx != nullptr ? ctx->sin.row_ptr(r) : nullptr;
      if (zero_cos != nullptr && std::bit_cast<std::uint32_t>(dt[r]) == 0) {
        std::memcpy(orow, zero_cos, d * sizeof(float));
        std::memcpy(srow, zero_sin, d * sizeof(float));
        continue;
      }
      for (std::size_t c = 0; c < d; ++c) {
        float s, co;
        ::sincosf(dt[r] * om[c] + ph[c], &s, &co);
        orow[c] = co;
        if (srow != nullptr) srow[c] = s;
      }
    }
  });
}

void TimeEncoding::backward(const Ctx& ctx, const Matrix& dy) {
  DT_CHECK_EQ(dy.cols(), dim());
  backward_cols(ctx, dy, 0);
}

void TimeEncoding::backward_cols(const Ctx& ctx, const Matrix& dy,
                                 std::size_t col0) {
  const std::size_t n = ctx.dt.size(), d = dim();
  DT_CHECK_EQ(dy.rows(), n);
  DT_CHECK_LE(col0 + d, dy.cols());
  float* dom = omega_.grad.row_ptr(0);
  float* dph = phi_.grad.row_ptr(0);
  // d/dx cos(x) = -sin(x); x = Δt·ω + φ. Rows accumulate in order, so
  // each gradient element sums the same terms in the same order as a
  // per-element loop.
  for (std::size_t r = 0; r < n; ++r) {
    const float* s = ctx.sin.row_ptr(r);
    const float* g = dy.row_ptr(r) + col0;
    const float t = ctx.dt[r];
    for (std::size_t c = 0; c < d; ++c) {
      const float dphase = -s[c] * g[c];
      dom[c] += dphase * t;
      dph[c] += dphase;
    }
  }
}

void TimeEncoding::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&omega_);
  out.push_back(&phi_);
}

}  // namespace disttgl::nn
