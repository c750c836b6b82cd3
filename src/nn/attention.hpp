// Temporal graph attention aggregator (Eq. 4–7 of the paper).
//
//   q   = W_q {s_v || Φ(0)} + b_q
//   K   = W_k {S_w || E_vw || Φ(Δt)} + b_k
//   V   = W_v {S_w || E_vw || Φ(Δt)} + b_v
//   h_v = softmax(q K^T / sqrt(|N_v|)) V            (per attention head)
//   out = ReLU(W_o {h_v || s_v} + b_o)
//
// Batch layout: n root nodes, each with a fixed-capacity window of
// max_neighbors slots; `valid[r]` gives the populated prefix length.
// Neighbor tensors are flattened so slot k of root r lives at row
// r*max_neighbors + k. The per-root 1/sqrt(|N_v|) scaling follows the
// paper (not the more common 1/sqrt(d_head)).
//
// K and V come from one product of {S_w || E_vw || Φ(Δt)} with the
// packed [W_k | W_v]; W_k and W_v stay separate parameters, and backward
// runs their two products. Φ is written straight into the trailing
// columns of the projection inputs.
//
// The Ctx owns every intermediate tensor the layer touches, so reusing
// one Ctx across iterations makes forward and backward allocation-free
// in steady state (same batch shape → same buffer shapes → capacity
// reuse). forward returns a reference into the Ctx.
#pragma once

#include <memory>

#include "nn/linear.hpp"
#include "nn/time_encoding.hpp"

namespace disttgl::nn {

struct AttentionDims {
  std::size_t node_dim = 0;      // root / neighbor representation width
  std::size_t edge_dim = 0;      // edge feature width (0 allowed)
  std::size_t time_dim = 0;      // time encoding width
  std::size_t attn_dim = 0;      // q/K/V width (all heads concatenated)
  std::size_t out_dim = 0;       // output embedding width
  std::size_t num_heads = 1;
  std::size_t max_neighbors = 0; // K, the neighbor window capacity
};

class TemporalAttention : public Module {
 public:
  struct Ctx {
    Linear::Ctx q_ctx, k_ctx, v_ctx, o_ctx;
    TimeEncoding::Ctx t0_ctx, tdt_ctx;
    // Projection inputs {s_v || Φ(0)}, {S_w || E_vw || Φ(Δt)} and
    // {h_v || s_v}. The Linear Ctxs point at them, so backward reads
    // them: they must not change between forward and backward.
    Matrix q_in, kv_in, o_in;
    Matrix q;                         // post-projection query
    Matrix kv;                        // [n*K x 2*attn_dim] = [K | V]
    std::vector<Matrix> alpha;        // per head: [n x K] attention weights
    Matrix h_att;                     // pre-output aggregated values
    Matrix out;                       // post-ReLU output (for relu backward)
    std::vector<std::size_t> valid;   // neighbor counts
    std::size_t n = 0;
    // Scratch (not read across the forward/backward boundary):
    std::vector<float> dt0;           // all-zero deltas for Φ(0)
    Matrix wkv, bkv;                  // [W_k | W_v] and [b_k | b_v] packs
    Matrix scores;                    // per-head raw attention scores
    Matrix dpre, do_in;               // backward: pre-ReLU grad, W_o input grad
    Matrix dq, dk, dv;                // backward: projection grads
    Matrix dalpha, dscores;           // backward: per-head softmax grads
    Matrix dq_in, dkv_in;             // backward: concat input grads
  };

  TemporalAttention(std::string name, const AttentionDims& dims, Rng& rng);

  const AttentionDims& dims() const { return dims_; }

  // node_repr:  [n x node_dim]
  // neigh_repr: [n*K x node_dim]
  // edge_feat:  [n*K x edge_dim] (ignored when edge_dim == 0)
  // dt:         [n*K] time deltas (event time − neighbor memory time)
  // valid:      [n] populated neighbor counts (≤ K)
  // Returns a reference to ctx->out, valid until the next forward call
  // on the same Ctx. The inputs are copied into the Ctx and need not
  // outlive the call. With a `pool`, every stage — time encodings,
  // concats, projections, per-root scores + masked softmax + aggregation,
  // and the output ReLU — splits its rows over it.
  const Matrix& forward(const Matrix& node_repr, const Matrix& neigh_repr,
                        const Matrix& edge_feat, std::span<const float> dt,
                        std::span<const std::size_t> valid, Ctx* ctx,
                        ThreadPool* pool = nullptr) const;

  struct InputGrads {
    Matrix dnode_repr;   // [n x node_dim]
    Matrix dneigh_repr;  // [n*K x node_dim]
  };
  InputGrads backward(Ctx& ctx, const Matrix& dout);
  // Allocation-free form writing into caller-owned grads; `pool` fans
  // the projection products out.
  void backward_into(Ctx& ctx, const Matrix& dout, InputGrads& grads,
                     ThreadPool* pool = nullptr);

  void collect_parameters(std::vector<Parameter*>& out) override;

 private:
  // ctx.kv = ctx.kv_in · [W_k | W_v] + [b_k | b_v], bit-identical to the
  // two separate projections; points k_ctx and v_ctx at kv_in.
  void project_kv(Ctx& ctx, ThreadPool* pool) const;

  AttentionDims dims_;
  Linear wq_, wk_, wv_, wo_;
  TimeEncoding time_enc_;
};

}  // namespace disttgl::nn
