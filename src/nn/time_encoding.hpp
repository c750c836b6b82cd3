// Learnable time encoding Φ(Δt) = cos(Δt·ω + φ)  [23, TGAT].
//
// Maps a column of time deltas to a d-dimensional feature. ω is
// initialized to a geometric frequency ladder (as in TGAT) so short and
// long horizons are distinguishable from the first iteration; both ω and
// φ are trained.
//
// Forward costs one `sincosf` per element: the cosine is the output and
// the sine, cos's derivative up to sign, is cached in the Ctx, so
// backward evaluates no transcendental. A Δt of +0 (every query row of
// the attention, and every padded neighbour slot) takes a row computed
// once per call. glibc's `sincosf` equals `sinf`/`cosf` bit for bit, so
// the results are those of calling `std::cos` and `std::sin` per
// element.
#pragma once

#include <span>

#include "nn/module.hpp"

namespace disttgl::nn {

class TimeEncoding : public Module {
 public:
  struct Ctx {
    std::vector<float> dt;  // input deltas
    Matrix sin;             // sin(Δt·ω + φ), cached for backward
    // Scratch: [cos | sin] of the Δt = +0 row, shared by every +0 row.
    std::vector<float> zero_row;
  };

  TimeEncoding(std::string name, std::size_t dim);

  std::size_t dim() const { return omega_.value.cols(); }

  // [n] deltas -> [n x dim].
  Matrix forward(std::span<const float> dt, Ctx* ctx = nullptr) const;
  // Allocation-free form: out is reshaped in place. With a `pool`, the
  // rows (one sincos per element) split over it.
  void forward_into(std::span<const float> dt, Ctx* ctx, Matrix& out,
                    ThreadPool* pool = nullptr) const;
  // As forward_into, but writing Φ into columns [col0, col0 + dim) of an
  // already shaped `out` (the trailing block of a projection input), so
  // the caller needs no separate encoding buffer or concat. Other
  // columns are left untouched. `ctx` may be null only for inference.
  void forward_cols(std::span<const float> dt, Ctx* ctx, Matrix& out,
                    std::size_t col0, ThreadPool* pool = nullptr) const;

  // Accumulates dω, dφ. (Time deltas are data, so no input gradient.)
  void backward(const Ctx& ctx, const Matrix& dy);
  // As backward, but reading dy from columns [col0, col0 + dim) of a
  // wider gradient matrix — avoids slicing a temporary on the hot path.
  void backward_cols(const Ctx& ctx, const Matrix& dy, std::size_t col0);

  void collect_parameters(std::vector<Parameter*>& out) override;

 private:
  Parameter omega_;  // [1 x dim] frequencies
  Parameter phi_;    // [1 x dim] phases
};

}  // namespace disttgl::nn
