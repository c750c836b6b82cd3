// Fully-connected layer y = xW + b.
#pragma once

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace disttgl::nn {

class Linear : public Module {
 public:
  // References the caller-owned input instead of copying it: x must
  // stay alive and unchanged until backward has read it.
  struct Ctx {
    const Matrix* input = nullptr;  // x, read by the weight gradient.
  };

  Linear(std::string name, std::size_t in_dim, std::size_t out_dim, Rng& rng,
         bool bias = true);

  // y = xW + b. If `ctx` is non-null it records x for backward.
  Matrix forward(const Matrix& x, Ctx* ctx = nullptr) const;
  // Allocation-free form: y is reshaped in place (capacity-reusing).
  // With a `pool`, the product and bias add split x's rows over it.
  void forward_into(const Matrix& x, Ctx* ctx, Matrix& y,
                    ThreadPool* pool = nullptr) const;

  // Accumulates dW, db; returns dx.
  Matrix backward(const Ctx& ctx, const Matrix& dy);
  // Allocation-free form: dx = dy Wᵀ written (or, with `accumulate_dx`,
  // added — used when several projections share one input) into dx.
  // `pool` fans the three products out (tensor/ops.hpp).
  void backward_into(const Ctx& ctx, const Matrix& dy, Matrix& dx,
                     bool accumulate_dx = false, ThreadPool* pool = nullptr);

  std::size_t in_dim() const { return w_.value.rows(); }
  std::size_t out_dim() const { return w_.value.cols(); }

  void collect_parameters(std::vector<Parameter*>& out) override;

  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }
  const Parameter& weight() const { return w_; }
  const Parameter& bias() const { return b_; }
  bool has_bias() const { return has_bias_; }

 private:
  Parameter w_;  // [in x out]
  Parameter b_;  // [1 x out]
  bool has_bias_;
};

}  // namespace disttgl::nn
