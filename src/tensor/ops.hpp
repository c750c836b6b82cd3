// Kernel-level linear algebra on Matrix.
//
// These free functions are the compute hot path (the "GPU kernels" of
// this CPU reproduction). The three GEMM products share one blocked,
// packed, register-tiled implementation (tensor/gemm.hpp) selected by
// layout tags; everything else is a fused elementwise or reduction loop.
//
// Every op comes in two forms:
//   * a Matrix-returning form — convenient, allocates the result;
//   * an `_into` / `_acc` / `_inplace` form writing a caller-owned
//     output, which `reset_shape`s (capacity-reusing) so steady-state
//     training iterations perform no heap allocations.
// The hot path (nn/ layers, core/tgn_model) uses the second form with
// scratch held in layer Ctx structs and Workspace arenas.
//
// Ops taking a trailing `ThreadPool* pool` split their rows over the
// caller's pool when given one (and the work is large enough); with
// none they run on the calling thread. Rows are never split, so the
// result is bit-identical either way.
#pragma once

#include <cmath>
#include <initializer_list>

#include "tensor/matrix.hpp"

namespace disttgl {

class ThreadPool;

// ---- GEMM family: C = A·B, A·Bᵀ, Aᵀ·B (overwrite / accumulate) ----

// C = A * B ([m x k] * [k x n]).
Matrix matmul(const Matrix& a, const Matrix& b, ThreadPool* pool = nullptr);
void matmul_into(const Matrix& a, const Matrix& b, Matrix& c,
                 ThreadPool* pool = nullptr);
// C += A * B.
void matmul_acc(const Matrix& a, const Matrix& b, Matrix& c,
                ThreadPool* pool = nullptr);

// C = A * Bᵀ ([m x k] * [n x k]ᵀ) — attention scores, dx = dy·Wᵀ.
Matrix matmul_nt(const Matrix& a, const Matrix& b, ThreadPool* pool = nullptr);
void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& c,
                    ThreadPool* pool = nullptr);
void matmul_nt_acc(const Matrix& a, const Matrix& b, Matrix& c,
                   ThreadPool* pool = nullptr);

// C = Aᵀ * B ([k x m]ᵀ * [k x n]) — weight gradients.
Matrix matmul_tn(const Matrix& a, const Matrix& b, ThreadPool* pool = nullptr);
void matmul_tn_into(const Matrix& a, const Matrix& b, Matrix& c,
                    ThreadPool* pool = nullptr);
void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c,
                   ThreadPool* pool = nullptr);

// ---- row assembly ----

// out = {parts[0] || parts[1] || ...} column-wise: every part must have
// out's row count. Allocation-free (out is reshaped in place). With
// `spare` > 0, out gets that many more trailing columns, left unwritten
// for the caller to fill in place (TimeEncoding::forward_cols).
void concat_cols_into(std::initializer_list<const Matrix*> parts, Matrix& out,
                      ThreadPool* pool = nullptr, std::size_t spare = 0);

// ---- bias / reductions ----

// out[r] = m[r] + bias (bias is [1 x cols]).
Matrix add_bias(const Matrix& m, const Matrix& bias);
void add_bias_into(const Matrix& m, const Matrix& bias, Matrix& out);
// m[r] += bias, in place — the hot-path form after matmul_into.
void add_bias_inplace(Matrix& m, const Matrix& bias, ThreadPool* pool = nullptr);

// bias_grad[0][c] = sum_r dy(r, c).
Matrix column_sums(const Matrix& dy);
// acc[0][c] += sum_r dy(r, c) — accumulating form for bias gradients.
void column_sums_acc(const Matrix& dy, Matrix& acc);

// ---- masked softmax ----

// Row-wise softmax over the leading `valid[r]` entries of each row;
// entries at and beyond valid[r] receive probability 0. Used to mask
// variable neighbor counts in temporal attention.
Matrix masked_row_softmax(const Matrix& scores, std::span<const std::size_t> valid);
void masked_row_softmax_into(const Matrix& scores,
                             std::span<const std::size_t> valid, Matrix& out);
// One row of masked_row_softmax_into: out[0, cols) from scores[0, valid),
// for callers that already loop over rows themselves.
void masked_softmax_row(const float* scores, std::size_t valid,
                        std::size_t cols, float* out);
// Backward of masked_row_softmax: given y = softmax(x) and dL/dy,
// returns dL/dx with the same masking.
Matrix masked_row_softmax_backward(const Matrix& y, const Matrix& dy,
                                   std::span<const std::size_t> valid);
void masked_row_softmax_backward_into(const Matrix& y, const Matrix& dy,
                                      std::span<const std::size_t> valid,
                                      Matrix& dx);

// ---- elementwise activations and backwards expressed in terms of the
//      *outputs* (cheap for sigmoid/tanh). The `_into` forms allow
//      dx aliasing dy (pure elementwise). ----
Matrix sigmoid(const Matrix& x);
void sigmoid_into(const Matrix& x, Matrix& out);
Matrix tanh_m(const Matrix& x);
void tanh_into(const Matrix& x, Matrix& out);
Matrix relu(const Matrix& x);
void relu_into(const Matrix& x, Matrix& out);
void relu_inplace(Matrix& x, ThreadPool* pool = nullptr);
// dx = dy ⊙ y(1-y), where y = sigmoid(x).
Matrix sigmoid_backward(const Matrix& y, const Matrix& dy);
void sigmoid_backward_into(const Matrix& y, const Matrix& dy, Matrix& dx);
// dx = dy ⊙ (1-y²), where y = tanh(x).
Matrix tanh_backward(const Matrix& y, const Matrix& dy);
void tanh_backward_into(const Matrix& y, const Matrix& dy, Matrix& dx);
// dx = dy ⊙ 1[y > 0].
Matrix relu_backward(const Matrix& y, const Matrix& dy);
void relu_backward_into(const Matrix& y, const Matrix& dy, Matrix& dx);

// Numerically-stable log-sigmoid, elementwise.
float log_sigmoid(float x);

// Numerically-stable scalar sigmoid (never exponentiates a positive
// argument) — the single definition behind sigmoid_into, the GRU gates,
// and the loss/static-memory score paths.
inline float stable_sigmoid(float x) {
  return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                   : std::exp(x) / (1.0f + std::exp(x));
}

// Max relative elementwise difference; utility for gradient checks.
float max_rel_diff(const Matrix& a, const Matrix& b, float eps = 1e-6f);

}  // namespace disttgl
