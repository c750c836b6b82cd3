#include "nn/optim.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace disttgl::nn {

float clip_grad_norm(const std::vector<Parameter*>& params, float max_norm) {
  double sq = 0.0;
  for (const Parameter* p : params) sq += p->grad.squared_norm();
  const float norm = static_cast<float>(std::sqrt(sq));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (Parameter* p : params) p->grad *= scale;
  }
  return norm;
}

Adam::Adam(std::vector<Parameter*> params, Options opts)
    : params_(std::move(params)), opts_(opts) {
  std::size_t total = 0;
  for (const Parameter* p : params_) total += p->size();
  m_.assign(total, 0.0f);
  v_.assign(total, 0.0f);
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(opts_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(opts_.beta2, static_cast<float>(t_));
  std::size_t j = 0;  // flat moment index, parameter order
  for (Parameter* p : params_) {
    float* values = p->value.data();
    const float* grads = p->grad.data();
    for (std::size_t e = 0; e < p->value.size(); ++e, ++j) {
      float g = grads[e];
      if (opts_.weight_decay > 0.0f) g += opts_.weight_decay * values[e];
      m_[j] = opts_.beta1 * m_[j] + (1.0f - opts_.beta1) * g;
      v_[j] = opts_.beta2 * v_[j] + (1.0f - opts_.beta2) * g * g;
      const float mhat = m_[j] / bc1;
      const float vhat = v_[j] / bc2;
      values[e] -= opts_.lr * mhat / (std::sqrt(vhat) + opts_.eps);
    }
  }
}

void Adam::restore_state(std::size_t steps, std::span<const float> m,
                         std::span<const float> v) {
  DT_CHECK_EQ(m.size(), m_.size());
  DT_CHECK_EQ(v.size(), v_.size());
  t_ = steps;
  std::copy(m.begin(), m.end(), m_.begin());
  std::copy(v.begin(), v.end(), v_.begin());
}

void Adam::zero_grad() {
  for (Parameter* p : params_) p->zero_grad();
}

Sgd::Sgd(std::vector<Parameter*> params, float lr, float momentum)
    : params_(std::move(params)), lr_(lr), momentum_(momentum) {
  if (momentum_ > 0.0f) {
    velocity_.reserve(params_.size());
    for (const Parameter* p : params_)
      velocity_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    if (momentum_ > 0.0f) {
      Matrix& vel = velocity_[i];
      vel *= momentum_;
      vel.add_scaled(p.grad, 1.0f);
      p.value.add_scaled(vel, -lr_);
    } else {
      p.value.add_scaled(p.grad, -lr_);
    }
  }
}

void Sgd::zero_grad() {
  for (Parameter* p : params_) p->zero_grad();
}

}  // namespace disttgl::nn
