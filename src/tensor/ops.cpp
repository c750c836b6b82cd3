#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/gemm.hpp"
#include "util/thread_pool.hpp"

namespace disttgl {

namespace {
using kernel::Layout;

void gemm_checked(Layout la, Layout lb, const Matrix& a, const Matrix& b,
                  Matrix& c, bool accumulate, ThreadPool* pool) {
  const bool ta = la == Layout::kTransposed;
  const bool tb = lb == Layout::kTransposed;
  const std::size_t m = ta ? a.cols() : a.rows();
  const std::size_t ka = ta ? a.rows() : a.cols();
  const std::size_t kb = tb ? b.cols() : b.rows();
  const std::size_t n = tb ? b.rows() : b.cols();
  DT_CHECK_EQ(ka, kb);
  DT_CHECK(&c != &a);
  DT_CHECK(&c != &b);
  if (accumulate) {
    DT_CHECK_EQ(c.rows(), m);
    DT_CHECK_EQ(c.cols(), n);
  } else {
    c.reset_shape(m, n);
  }
  kernel::gemm(la, lb, m, n, ka, a.data(), a.cols(), b.data(), b.cols(),
               c.data(), c.cols(), accumulate, pool);
}
}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b, ThreadPool* pool) {
  Matrix c;
  matmul_into(a, b, c, pool);
  return c;
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c,
                 ThreadPool* pool) {
  gemm_checked(Layout::kNormal, Layout::kNormal, a, b, c,
               /*accumulate=*/false, pool);
}

void matmul_acc(const Matrix& a, const Matrix& b, Matrix& c,
                ThreadPool* pool) {
  gemm_checked(Layout::kNormal, Layout::kNormal, a, b, c,
               /*accumulate=*/true, pool);
}

Matrix matmul_nt(const Matrix& a, const Matrix& b, ThreadPool* pool) {
  Matrix c;
  matmul_nt_into(a, b, c, pool);
  return c;
}

void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& c,
                    ThreadPool* pool) {
  gemm_checked(Layout::kNormal, Layout::kTransposed, a, b, c,
               /*accumulate=*/false, pool);
}

void matmul_nt_acc(const Matrix& a, const Matrix& b, Matrix& c,
                   ThreadPool* pool) {
  gemm_checked(Layout::kNormal, Layout::kTransposed, a, b, c,
               /*accumulate=*/true, pool);
}

Matrix matmul_tn(const Matrix& a, const Matrix& b, ThreadPool* pool) {
  Matrix c;
  matmul_tn_into(a, b, c, pool);
  return c;
}

void matmul_tn_into(const Matrix& a, const Matrix& b, Matrix& c,
                    ThreadPool* pool) {
  gemm_checked(Layout::kTransposed, Layout::kNormal, a, b, c,
               /*accumulate=*/false, pool);
}

void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c,
                   ThreadPool* pool) {
  gemm_checked(Layout::kTransposed, Layout::kNormal, a, b, c,
               /*accumulate=*/true, pool);
}

void concat_cols_into(std::initializer_list<const Matrix*> parts, Matrix& out,
                      ThreadPool* pool, std::size_t spare) {
  const std::size_t rows = (*parts.begin())->rows();
  std::size_t cols = 0;
  for (const Matrix* p : parts) {
    DT_CHECK_EQ(p->rows(), rows);
    DT_CHECK(p != &out);
    cols += p->cols();
  }
  out.reset_shape(rows, cols + spare);
  parallel_rows(pool, rows, cols, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      float* dst = out.row_ptr(r);
      for (const Matrix* p : parts) {
        if (p->cols() == 0) continue;
        std::memcpy(dst, p->row_ptr(r), p->cols() * sizeof(float));
        dst += p->cols();
      }
    }
  });
}

Matrix add_bias(const Matrix& m, const Matrix& bias) {
  Matrix out;
  add_bias_into(m, bias, out);
  return out;
}

void add_bias_into(const Matrix& m, const Matrix& bias, Matrix& out) {
  DT_CHECK_EQ(bias.rows(), 1u);
  DT_CHECK_EQ(bias.cols(), m.cols());
  out.reset_shape(m.rows(), m.cols());
  const float* b = bias.row_ptr(0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const float* src = m.row_ptr(r);
    float* dst = out.row_ptr(r);
    for (std::size_t c = 0; c < m.cols(); ++c) dst[c] = src[c] + b[c];
  }
}

void add_bias_inplace(Matrix& m, const Matrix& bias, ThreadPool* pool) {
  DT_CHECK_EQ(bias.rows(), 1u);
  DT_CHECK_EQ(bias.cols(), m.cols());
  const float* b = bias.row_ptr(0);
  parallel_rows(pool, m.rows(), m.cols(), [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      float* row = m.row_ptr(r);
      for (std::size_t c = 0; c < m.cols(); ++c) row[c] += b[c];
    }
  });
}

Matrix column_sums(const Matrix& dy) {
  Matrix out(1, dy.cols());
  column_sums_acc(dy, out);
  return out;
}

void column_sums_acc(const Matrix& dy, Matrix& acc) {
  DT_CHECK_EQ(acc.rows(), 1u);
  DT_CHECK_EQ(acc.cols(), dy.cols());
  float* o = acc.row_ptr(0);
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    const float* row = dy.row_ptr(r);
    for (std::size_t c = 0; c < dy.cols(); ++c) o[c] += row[c];
  }
}

Matrix masked_row_softmax(const Matrix& scores, std::span<const std::size_t> valid) {
  Matrix out;
  masked_row_softmax_into(scores, valid, out);
  return out;
}

void masked_row_softmax_into(const Matrix& scores,
                             std::span<const std::size_t> valid, Matrix& out) {
  DT_CHECK_EQ(valid.size(), scores.rows());
  DT_CHECK(&out != &scores);
  out.reset_shape(scores.rows(), scores.cols());
  for (std::size_t r = 0; r < scores.rows(); ++r)
    masked_softmax_row(scores.row_ptr(r), valid[r], scores.cols(),
                       out.row_ptr(r));
}

void masked_softmax_row(const float* srow, std::size_t n, std::size_t cols,
                        float* orow) {
  DT_CHECK_LE(n, cols);
  // Masked entries carry probability 0 (and the whole row when n == 0:
  // no neighbors, no attention). Explicit so reused buffers stay clean.
  for (std::size_t c = n; c < cols; ++c) orow[c] = 0.0f;
  if (n == 0) return;
  float mx = srow[0];
  for (std::size_t c = 1; c < n; ++c) mx = std::max(mx, srow[c]);
  float denom = 0.0f;
  for (std::size_t c = 0; c < n; ++c) {
    orow[c] = std::exp(srow[c] - mx);
    denom += orow[c];
  }
  const float inv = 1.0f / denom;
  for (std::size_t c = 0; c < n; ++c) orow[c] *= inv;
}

Matrix masked_row_softmax_backward(const Matrix& y, const Matrix& dy,
                                   std::span<const std::size_t> valid) {
  Matrix dx;
  masked_row_softmax_backward_into(y, dy, valid, dx);
  return dx;
}

void masked_row_softmax_backward_into(const Matrix& y, const Matrix& dy,
                                      std::span<const std::size_t> valid,
                                      Matrix& dx) {
  DT_CHECK(y.same_shape(dy));
  DT_CHECK_EQ(valid.size(), y.rows());
  DT_CHECK(&dx != &y);
  dx.reset_shape(y.rows(), y.cols());
  for (std::size_t r = 0; r < y.rows(); ++r) {
    const std::size_t n = valid[r];
    float* drow = dx.row_ptr(r);
    for (std::size_t c = n; c < y.cols(); ++c) drow[c] = 0.0f;
    if (n == 0) continue;
    const float* yrow = y.row_ptr(r);
    const float* grow = dy.row_ptr(r);
    float dot = 0.0f;
    for (std::size_t c = 0; c < n; ++c) dot += yrow[c] * grow[c];
    for (std::size_t c = 0; c < n; ++c) drow[c] = yrow[c] * (grow[c] - dot);
  }
}

Matrix sigmoid(const Matrix& x) {
  Matrix out;
  sigmoid_into(x, out);
  return out;
}

void sigmoid_into(const Matrix& x, Matrix& out) {
  out.reset_shape(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i)
    out.data()[i] = stable_sigmoid(x.data()[i]);
}

Matrix tanh_m(const Matrix& x) {
  Matrix out;
  tanh_into(x, out);
  return out;
}

void tanh_into(const Matrix& x, Matrix& out) {
  out.reset_shape(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) out.data()[i] = std::tanh(x.data()[i]);
}

Matrix relu(const Matrix& x) {
  Matrix out;
  relu_into(x, out);
  return out;
}

void relu_into(const Matrix& x, Matrix& out) {
  out.reset_shape(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i)
    out.data()[i] = std::max(0.0f, x.data()[i]);
}

void relu_inplace(Matrix& x, ThreadPool* pool) {
  parallel_rows(pool, x.rows(), x.cols(), [&](std::size_t r0, std::size_t r1) {
    float* p = x.data();
    for (std::size_t i = r0 * x.cols(); i < r1 * x.cols(); ++i)
      p[i] = std::max(0.0f, p[i]);
  });
}

Matrix sigmoid_backward(const Matrix& y, const Matrix& dy) {
  Matrix dx;
  sigmoid_backward_into(y, dy, dx);
  return dx;
}

void sigmoid_backward_into(const Matrix& y, const Matrix& dy, Matrix& dx) {
  DT_CHECK(y.same_shape(dy));
  dx.reset_shape(y.rows(), y.cols());
  for (std::size_t i = 0; i < y.size(); ++i) {
    const float yi = y.data()[i];
    dx.data()[i] = dy.data()[i] * yi * (1.0f - yi);
  }
}

Matrix tanh_backward(const Matrix& y, const Matrix& dy) {
  Matrix dx;
  tanh_backward_into(y, dy, dx);
  return dx;
}

void tanh_backward_into(const Matrix& y, const Matrix& dy, Matrix& dx) {
  DT_CHECK(y.same_shape(dy));
  dx.reset_shape(y.rows(), y.cols());
  for (std::size_t i = 0; i < y.size(); ++i) {
    const float yi = y.data()[i];
    dx.data()[i] = dy.data()[i] * (1.0f - yi * yi);
  }
}

Matrix relu_backward(const Matrix& y, const Matrix& dy) {
  Matrix dx;
  relu_backward_into(y, dy, dx);
  return dx;
}

void relu_backward_into(const Matrix& y, const Matrix& dy, Matrix& dx) {
  DT_CHECK(y.same_shape(dy));
  dx.reset_shape(y.rows(), y.cols());
  for (std::size_t i = 0; i < y.size(); ++i)
    dx.data()[i] = y.data()[i] > 0.0f ? dy.data()[i] : 0.0f;
}

float log_sigmoid(float x) {
  // log(1/(1+e^-x)) = -log1p(e^-x) for x>=0; x - log1p(e^x) otherwise.
  return x >= 0.0f ? -std::log1p(std::exp(-x)) : x - std::log1p(std::exp(x));
}

float max_rel_diff(const Matrix& a, const Matrix& b, float eps) {
  DT_CHECK(a.same_shape(b));
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float x = a.data()[i], y = b.data()[i];
    const float denom = std::max({std::abs(x), std::abs(y), eps});
    worst = std::max(worst, std::abs(x - y) / denom);
  }
  return worst;
}

}  // namespace disttgl
