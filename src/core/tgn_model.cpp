#include "core/tgn_model.hpp"

#include <algorithm>
#include <cstring>

#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace disttgl {

TGNModel::TGNModel(const ModelConfig& cfg, const TemporalGraph& graph,
                   const Matrix* static_memory, Rng& rng)
    : cfg_(cfg),
      graph_(&graph),
      static_memory_(static_memory),
      task_(graph.has_edge_labels() ? Task::kEdgeClassification
                                    : Task::kLinkPrediction),
      mail_raw_dim_(2 * cfg.mem_dim + graph.edge_feat_dim()),
      node_feat_dim_(graph.node_feat_dim()),
      mail_time_enc_("tgn.mail_time", cfg.time_dim),
      updater_("tgn.updater", mail_raw_dim_ + cfg.time_dim, cfg.mem_dim, rng),
      attention_("tgn.attn",
                 nn::AttentionDims{
                     .node_dim =
                         cfg.mem_dim + cfg.static_dim + graph.node_feat_dim(),
                     .edge_dim = graph.edge_feat_dim(),
                     .time_dim = cfg.time_dim,
                     .attn_dim = cfg.attn_dim,
                     .out_dim = cfg.emb_dim,
                     .num_heads = cfg.num_heads,
                     .max_neighbors = cfg.num_neighbors,
                 },
                 rng) {
  if (static_memory_ != nullptr) {
    DT_CHECK_EQ(static_memory_->rows(), graph.num_nodes());
    DT_CHECK_EQ(static_memory_->cols(), cfg.static_dim);
  } else {
    DT_CHECK_EQ(cfg.static_dim, 0u);
  }
  if (task_ == Task::kLinkPrediction) {
    predictor_.emplace("tgn.pred", cfg.emb_dim, cfg.head_hidden, rng);
  } else {
    classifier_.emplace("tgn.cls", cfg.emb_dim, cfg.head_hidden,
                        graph.num_classes(), rng);
  }
}

const Matrix& TGNModel::embed(const MiniBatch& mb, const MemorySlice& slice,
                              std::size_t version, EmbedCtx& ctx,
                              ThreadPool* pool) {
  Workspace& ws = scratch_.ws;
  const std::size_t U = mb.unique_nodes.size();
  const std::size_t n = mb.num_pos();
  const std::size_t K = cfg_.num_neighbors;
  DT_CHECK_EQ(slice.mem.rows(), U);
  DT_CHECK_EQ(mb.root_to_unique.size(), mb.roots.size());
  ctx.n = n;

  // ---- 1. UPDT: batched GRU over unique nodes holding a mail. ----
  ctx.gru_rows.clear();
  if (cfg_.dynamic_memory) {
    for (std::size_t u = 0; u < U; ++u) {
      if (slice.has_mail[u]) ctx.gru_rows.push_back(u);
    }
  }
  ctx.s_new = slice.mem;  // nodes without mail keep their memory
  if (!ctx.gru_rows.empty()) {
    // gru_in = {mail || Φ(mail_ts − mem_ts)}, Φ written in place.
    const std::size_t G = ctx.gru_rows.size();
    DT_CHECK_EQ(slice.mail.cols(), mail_raw_dim_);
    Matrix& gru_in = ws.mat(G, mail_raw_dim_ + cfg_.time_dim);
    Matrix& mem_rows = ws.mat(0, 0);
    slice.mem.gather_rows_into(ctx.gru_rows, mem_rows);
    std::vector<float>& dts = ws.floats(G);
    for (std::size_t r = 0; r < G; ++r) {
      const std::size_t u = ctx.gru_rows[r];
      std::memcpy(gru_in.row_ptr(r), slice.mail.row_ptr(u),
                  mail_raw_dim_ * sizeof(float));
      dts[r] = slice.mail_ts[u] - slice.mem_ts[u];
    }
    mail_time_enc_.forward_cols(dts, &ctx.mail_time_ctx, gru_in,
                                mail_raw_dim_, pool);
    Matrix& updated = ws.mat(0, 0);
    updater_.forward_into(gru_in, mem_rows, ctx.gru_ctx, updated, pool);
    ctx.s_new.scatter_rows(ctx.gru_rows, updated);
  }

  // ---- 2. Node representations {s_new || static || node features}. ----
  const Matrix* repr_unique = &ctx.s_new;
  if (static_memory_ != nullptr || node_feat_dim_ > 0) {
    Matrix& extended = ws.mat(U, cfg_.mem_dim + cfg_.static_dim + node_feat_dim_);
    for (std::size_t u = 0; u < U; ++u) {
      float* dst = extended.row_ptr(u);
      std::memcpy(dst, ctx.s_new.row_ptr(u), cfg_.mem_dim * sizeof(float));
      dst += cfg_.mem_dim;
      if (static_memory_ != nullptr) {
        std::memcpy(dst, static_memory_->row_ptr(mb.unique_nodes[u]),
                    cfg_.static_dim * sizeof(float));
        dst += cfg_.static_dim;
      }
      if (node_feat_dim_ > 0) {
        std::memcpy(dst, graph_->node_features().row_ptr(mb.unique_nodes[u]),
                    node_feat_dim_ * sizeof(float));
      }
    }
    repr_unique = &extended;
  }

  // ---- 3. Gather the version-v root subset and its neighbor windows. ----
  ctx.root_rows.clear();
  ctx.root_rows.reserve(n * (2 + mb.num_neg));
  for (std::size_t r = 0; r < 2 * n; ++r) ctx.root_rows.push_back(r);
  const std::size_t negs = mb.num_neg * (mb.neg_variants > 0 ? n : 0);
  if (negs > 0) {
    DT_CHECK_LT(version, mb.neg_variants);
    const std::size_t nb = mb.neg_begin(version);
    for (std::size_t r = 0; r < n * mb.num_neg; ++r)
      ctx.root_rows.push_back(nb + r);
  }
  const std::size_t Rv = ctx.root_rows.size();

  Matrix& root_repr = ws.mat(Rv, repr_unique->cols());
  Matrix& neigh_repr = ws.mat(Rv * K, repr_unique->cols());
  Matrix& edge_feat = ws.mat(Rv * K, graph_->edge_feat_dim());
  std::vector<float>& dt = ws.floats(Rv * K);
  std::vector<std::size_t>& valid = ws.indices();
  valid.resize(Rv);
  const bool has_ef = graph_->has_edge_features();
  const auto gather = [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const std::size_t g = ctx.root_rows[r];  // row in the full root list
      root_repr.copy_row_from(r, repr_unique->row(mb.root_to_unique[g]));
      valid[r] = mb.roots.valid[g];
      for (std::size_t k = 0; k < valid[r]; ++k) {
        const std::size_t uidx = mb.neigh_to_unique[g * K + k];
        neigh_repr.copy_row_from(r * K + k, repr_unique->row(uidx));
        // Δt for Φ in Eq. 5: query time − neighbor edge time (the TGN/TGL
        // convention; it directly encodes how recent the relationship is,
        // which the recency-driven workloads need).
        dt[r * K + k] = mb.roots.neigh_dt[g * K + k];
        if (has_ef) {
          edge_feat.copy_row_from(
              r * K + k,
              graph_->edge_features().row(mb.roots.neigh_edge[g * K + k]));
        }
      }
      // Empty slots (and every edge row of a graph without edge
      // features) are zero: attention masks them out of the scores, but
      // they still pass through the key/value projections.
      const std::size_t filled = has_ef ? valid[r] : 0;
      std::fill(neigh_repr.row_ptr(r * K + valid[r]),
                neigh_repr.row_ptr(r * K + K), 0.0f);
      std::fill(edge_feat.row_ptr(r * K + filled),
                edge_feat.row_ptr(r * K + K), 0.0f);
    }
  };
  parallel_rows(pool, Rv, K * (repr_unique->cols() + edge_feat.cols()),
                gather);

  return attention_.forward(root_repr, neigh_repr, edge_feat, dt, valid,
                            &ctx.attn_ctx, pool);
}

void TGNModel::embed_backward(const MiniBatch& mb, EmbedCtx& ctx,
                              const Matrix& demb, ThreadPool* pool) {
  Workspace& ws = scratch_.ws;
  const std::size_t U = mb.unique_nodes.size();
  const std::size_t K = cfg_.num_neighbors;

  nn::TemporalAttention::InputGrads& grads = scratch_.attn_grads;
  attention_.backward_into(ctx.attn_ctx, demb, grads, pool);

  // Scatter-add root and neighbor representation gradients back to the
  // unique-node axis, then split off the dynamic-memory block (the
  // static block is frozen; raw node features are data).
  Matrix& drepr = ws.zeros(U, cfg_.mem_dim + cfg_.static_dim + node_feat_dim_);
  for (std::size_t r = 0; r < ctx.root_rows.size(); ++r) {
    const std::size_t g = ctx.root_rows[r];
    drepr.add_row_from(mb.root_to_unique[g], grads.dnode_repr.row(r));
    for (std::size_t k = 0; k < mb.roots.valid[g]; ++k) {
      drepr.add_row_from(mb.neigh_to_unique[g * K + k],
                         grads.dneigh_repr.row(r * K + k));
    }
  }
  const Matrix* ds_new = &drepr;
  if (drepr.cols() > cfg_.mem_dim) {
    Matrix& sliced = ws.mat(0, 0);
    drepr.slice_cols_into(0, cfg_.mem_dim, sliced);
    ds_new = &sliced;
  }

  // Through the GRU for the rows it touched; the chain stops at the
  // previous memory and the mail contents (both inputs from storage).
  if (!ctx.gru_rows.empty()) {
    Matrix& dh = ws.mat(0, 0);
    ds_new->gather_rows_into(ctx.gru_rows, dh);
    updater_.backward_into(ctx.gru_ctx, dh, scratch_.gru_grads, pool);
    // The trailing time_dim columns of dx feed the mail time encoding.
    mail_time_enc_.backward_cols(ctx.mail_time_ctx, scratch_.gru_grads.dx,
                                 mail_raw_dim_);
  }
}

void TGNModel::make_write(const MiniBatch& mb, const MemorySlice& slice,
                          const EmbedCtx& ctx, BatchDiagnostics& diag,
                          MemoryWrite& w) {
  const std::size_t n = mb.num_pos();

  // COMB = most recent: iterate events chronologically; the last mail per
  // node survives. Track per-unique-node write slots for positive roots.
  // All working buffers persist in scratch_ (capacity-preserving).
  std::vector<std::size_t>& slot_of_unique = scratch_.slot_of_unique;
  slot_of_unique.assign(mb.unique_nodes.size(), static_cast<std::size_t>(-1));
  const std::size_t edim = graph_->edge_feat_dim();
  std::vector<float>& mail_row = scratch_.mail_row;
  mail_row.resize(mail_raw_dim_);

  // First pass: count distinct positive roots to size the buffers.
  std::vector<std::size_t>& uniq_roots = scratch_.uniq_roots;
  uniq_roots.clear();
  for (std::size_t r = 0; r < 2 * n; ++r) {
    const std::size_t u = mb.root_to_unique[r];
    if (slot_of_unique[u] == static_cast<std::size_t>(-1)) {
      slot_of_unique[u] = uniq_roots.size();
      uniq_roots.push_back(u);
    }
  }
  const bool comb_mean = cfg_.comb == CombPolicy::kMean;
  w.nodes.resize(uniq_roots.size());
  w.mem.reset_shape(uniq_roots.size(), cfg_.mem_dim);
  w.mem_ts.resize(uniq_roots.size());
  // Every distinct positive root receives at least one mail below, so
  // most-recent rows need no clearing; mean rows accumulate from zero.
  if (comb_mean) {
    w.mail.resize(uniq_roots.size(), mail_raw_dim_, 0.0f);
  } else {
    w.mail.reset_shape(uniq_roots.size(), mail_raw_dim_);
  }
  w.mail_ts.resize(uniq_roots.size());
  std::vector<float>& mail_counts = scratch_.mail_counts;
  mail_counts.assign(comb_mean ? uniq_roots.size() : 0, 0.0f);

  // Memory rows: post-UPDT values; last-update time = consumed mail's
  // timestamp for GRU-touched rows, previous value otherwise.
  for (std::size_t s = 0; s < uniq_roots.size(); ++s) {
    const std::size_t u = uniq_roots[s];
    w.nodes[s] = mb.unique_nodes[u];
    w.mem.copy_row_from(s, ctx.s_new.row(u));
    w.mem_ts[s] = slice.has_mail[u] ? slice.mail_ts[u] : slice.mem_ts[u];
  }

  // Mails, in event order so the most recent one per node wins.
  for (std::size_t e = 0; e < n; ++e) {
    const std::size_t u_src = mb.root_to_unique[e];
    const std::size_t u_dst = mb.root_to_unique[n + e];
    const float t = mb.ts[e];
    diag.mails_generated += 2;
    diag.staleness_sum += (t - slice.mem_ts[u_src]) + (t - slice.mem_ts[u_dst]);
    diag.staleness_count += 2;
    auto fill = [&](std::size_t u_self, std::size_t u_other) {
      std::memcpy(mail_row.data(), ctx.s_new.row_ptr(u_self),
                  cfg_.mem_dim * sizeof(float));
      std::memcpy(mail_row.data() + cfg_.mem_dim, ctx.s_new.row_ptr(u_other),
                  cfg_.mem_dim * sizeof(float));
      if (edim > 0) {
        std::memcpy(mail_row.data() + 2 * cfg_.mem_dim,
                    graph_->edge_features().row_ptr(mb.events[e]),
                    edim * sizeof(float));
      }
      const std::size_t s = slot_of_unique[u_self];
      if (comb_mean) {
        // COMB = mean: accumulate now, normalize after the event loop.
        w.mail.add_row_from(s, mail_row);
        mail_counts[s] += 1.0f;
      } else {
        // COMB = most recent: later events overwrite (chronological loop).
        w.mail.copy_row_from(s, mail_row);
      }
      w.mail_ts[s] = t;
    };
    fill(u_src, u_dst);
    fill(u_dst, u_src);
  }
  if (comb_mean) {
    for (std::size_t s = 0; s < uniq_roots.size(); ++s) {
      const float inv = mail_counts[s] > 0.0f ? 1.0f / mail_counts[s] : 0.0f;
      float* row = w.mail.row_ptr(s);
      for (std::size_t c = 0; c < mail_raw_dim_; ++c) row[c] *= inv;
    }
  }
  diag.mails_kept += uniq_roots.size();
}

void TGNModel::run(const MiniBatch& mb, const MemorySlice& slice,
                   std::size_t version, MemoryWrite* write, bool train,
                   StepResult& result, ThreadPool* pool) {
  Scratch& s = scratch_;
  s.ws.reset();
  EmbedCtx& ctx = s.embed;
  const Matrix& emb = embed(mb, slice, version, ctx, pool);
  const std::size_t n = mb.num_pos();
  const std::size_t Q = mb.num_neg;

  result.loss = 0.0f;
  result.diag = BatchDiagnostics{};
  s.demb.resize(emb.rows(), emb.cols(), 0.0f);

  if (task_ == Task::kLinkPrediction) {
    DT_CHECK_GT(mb.neg_variants, 0u);
    Matrix& src_emb = s.ws.mat(0, 0);
    emb.slice_rows_into(0, n, src_emb);
    Matrix& dst_emb = s.ws.mat(0, 0);
    emb.slice_rows_into(n, 2 * n, dst_emb);
    // Repeat each src row Q times to pair with its negatives.
    Matrix& neg_emb = s.ws.mat(0, 0);
    emb.slice_rows_into(2 * n, 2 * n + n * Q, neg_emb);
    Matrix& src_rep = s.ws.mat(n * Q, emb.cols());
    for (std::size_t e = 0; e < n; ++e)
      for (std::size_t q = 0; q < Q; ++q)
        src_rep.copy_row_from(e * Q + q, src_emb.row(e));

    predictor_->forward_into(src_emb, dst_emb, &s.pos_ctx, result.pos_scores,
                             pool);
    Matrix& neg_flat = s.ws.mat(0, 0);
    predictor_->forward_into(src_rep, neg_emb, &s.neg_ctx, neg_flat, pool);

    Matrix& dpos = s.ws.mat(0, 0);
    Matrix& dneg = s.ws.mat(0, 0);
    result.loss = nn::link_prediction_loss(result.pos_scores, neg_flat, dpos, dneg);
    result.neg_scores = neg_flat;
    result.neg_scores.reshape(n, Q);

    if (train) {
      predictor_->backward_into(s.pos_ctx, dpos, s.gpos, pool);
      predictor_->backward_into(s.neg_ctx, dneg, s.gneg, pool);
      for (std::size_t e = 0; e < n; ++e) {
        s.demb.add_row_from(e, s.gpos.dsrc.row(e));
        s.demb.add_row_from(n + e, s.gpos.ddst.row(e));
        for (std::size_t q = 0; q < Q; ++q) {
          s.demb.add_row_from(e, s.gneg.dsrc.row(e * Q + q));
          s.demb.add_row_from(2 * n + e * Q + q, s.gneg.ddst.row(e * Q + q));
        }
      }
    }
  } else {
    Matrix& src_emb = s.ws.mat(0, 0);
    emb.slice_rows_into(0, n, src_emb);
    Matrix& dst_emb = s.ws.mat(0, 0);
    emb.slice_rows_into(n, 2 * n, dst_emb);
    classifier_->forward_into(src_emb, dst_emb, &s.cls_ctx, result.logits,
                              pool);
    Matrix& targets = s.ws.mat(n, classifier_->num_classes());
    for (std::size_t e = 0; e < n; ++e)
      targets.copy_row_from(e, graph_->edge_labels().row(mb.events[e]));
    Matrix& dlogits = s.ws.mat(0, 0);
    result.loss = nn::multilabel_bce_loss(result.logits, targets, dlogits);
    if (train) {
      classifier_->backward_into(s.cls_ctx, dlogits, s.gcls, pool);
      for (std::size_t e = 0; e < n; ++e) {
        s.demb.add_row_from(e, s.gcls.dsrc.row(e));
        s.demb.add_row_from(n + e, s.gcls.ddst.row(e));
      }
    }
  }

  if (train) embed_backward(mb, ctx, s.demb, pool);
  if (write != nullptr) make_write(mb, slice, ctx, result.diag, *write);
}

void TGNModel::train_step_into(const MiniBatch& mb, const MemorySlice& slice,
                               std::size_t version, MemoryWrite* write,
                               StepResult& out, ThreadPool* pool) {
  run(mb, slice, version, write, /*train=*/true, out, pool);
}

TGNModel::StepResult TGNModel::train_step(const MiniBatch& mb,
                                          const MemorySlice& slice,
                                          std::size_t version,
                                          MemoryWrite* write) {
  StepResult result;
  run(mb, slice, version, write, /*train=*/true, result, nullptr);
  return result;
}

void TGNModel::infer_into(const MiniBatch& mb, const MemorySlice& slice,
                          MemoryWrite* write, StepResult& out,
                          ThreadPool* pool) {
  run(mb, slice, /*version=*/0, write, /*train=*/false, out, pool);
}

TGNModel::StepResult TGNModel::infer(const MiniBatch& mb,
                                     const MemorySlice& slice,
                                     MemoryWrite* write) {
  StepResult result;
  run(mb, slice, /*version=*/0, write, /*train=*/false, result, nullptr);
  return result;
}

void TGNModel::collect_parameters(std::vector<nn::Parameter*>& out) {
  mail_time_enc_.collect_parameters(out);
  updater_.collect_parameters(out);
  attention_.collect_parameters(out);
  if (predictor_) predictor_->collect_parameters(out);
  if (classifier_) classifier_->collect_parameters(out);
}

}  // namespace disttgl
