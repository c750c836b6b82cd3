// Optimizers over Parameter sets.
#pragma once

#include <span>
#include <vector>

#include "nn/module.hpp"

namespace disttgl::nn {

// Clip gradients to a global L2 norm; returns the pre-clip norm.
float clip_grad_norm(const std::vector<Parameter*>& params, float max_norm);

struct AdamOptions {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;
};

// Adam with optional decoupled weight decay. Moment state is stored as
// two flat buffers laid out in parameter order (stable for a fixed
// model), which is what the checkpoint shards snapshot.
class Adam {
 public:
  using Options = AdamOptions;

  explicit Adam(std::vector<Parameter*> params, Options opts = Options());

  void step();
  void zero_grad();
  void set_lr(float lr) { opts_.lr = lr; }
  float lr() const { return opts_.lr; }
  std::size_t steps_taken() const { return t_; }

  // ---- checkpoint support (core/checkpoint.hpp) ----
  // The full optimizer trajectory is (t_, m_, v_): bias corrections are
  // recomputed from t_ at the next step(), so restoring these three
  // reproduces the update stream bitwise.
  std::span<const float> moment1() const { return m_; }
  std::span<const float> moment2() const { return v_; }
  void restore_state(std::size_t steps, std::span<const float> m,
                     std::span<const float> v);

 private:
  std::vector<Parameter*> params_;
  Options opts_;
  std::vector<float> m_, v_;  // flat moments, parameter order
  std::size_t t_ = 0;
};

// Plain SGD, used by the static-memory pre-trainer and as an ablation.
class Sgd {
 public:
  Sgd(std::vector<Parameter*> params, float lr, float momentum = 0.0f);

  void step();
  void zero_grad();
  void set_lr(float lr) { lr_ = lr; }

 private:
  std::vector<Parameter*> params_;
  float lr_;
  float momentum_;
  std::vector<Matrix> velocity_;
};

}  // namespace disttgl::nn
