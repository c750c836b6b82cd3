#include "nn/linear.hpp"

#include "nn/init.hpp"
#include "tensor/ops.hpp"

namespace disttgl::nn {

Linear::Linear(std::string name, std::size_t in_dim, std::size_t out_dim,
               Rng& rng, bool bias)
    : w_(name + ".weight", in_dim, out_dim),
      b_(name + ".bias", 1, out_dim),
      has_bias_(bias) {
  xavier_uniform(w_.value, rng, in_dim, out_dim);
  if (has_bias_) kaiming_uniform_fanin(b_.value, rng, in_dim);
}

Matrix Linear::forward(const Matrix& x, Ctx* ctx) const {
  Matrix y;
  forward_into(x, ctx, y);
  return y;
}

void Linear::forward_into(const Matrix& x, Ctx* ctx, Matrix& y,
                          ThreadPool* pool) const {
  DT_CHECK_EQ(x.cols(), w_.value.rows());
  matmul_into(x, w_.value, y, pool);
  if (has_bias_) add_bias_inplace(y, b_.value, pool);
  if (ctx != nullptr) ctx->input = &x;
}

Matrix Linear::backward(const Ctx& ctx, const Matrix& dy) {
  Matrix dx;
  backward_into(ctx, dy, dx);
  return dx;
}

void Linear::backward_into(const Ctx& ctx, const Matrix& dy, Matrix& dx,
                           bool accumulate_dx, ThreadPool* pool) {
  DT_CHECK_EQ(dy.cols(), w_.value.cols());
  DT_CHECK(ctx.input != nullptr);
  DT_CHECK_EQ(dy.rows(), ctx.input->rows());
  matmul_tn_acc(*ctx.input, dy, w_.grad, pool);
  if (has_bias_) column_sums_acc(dy, b_.grad);
  if (accumulate_dx) matmul_nt_acc(dy, w_.value, dx, pool);  // dx += dy Wᵀ
  else matmul_nt_into(dy, w_.value, dx, pool);               // dx = dy Wᵀ
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&w_);
  if (has_bias_) out.push_back(&b_);
}

}  // namespace disttgl::nn
