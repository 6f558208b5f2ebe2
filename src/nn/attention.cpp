#include "nn/attention.hpp"

#include <cmath>

#include "util/status.hpp"

namespace star::nn {

Tensor attention_scores(const Tensor& q, const Tensor& k) {
  require(q.cols() == k.cols(), "attention_scores: d_k mismatch between Q and K");
  Tensor s = q.matmul(k.transposed());
  s.scale(1.0 / std::sqrt(static_cast<double>(q.cols())));
  return s;
}

Tensor scaled_dot_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                            RowSoftmaxInto& softmax_impl) {
  require(k.rows() == v.rows(), "scaled_dot_attention: K/V length mismatch");
  const Tensor s = attention_scores(q, k);
  Tensor p(s.rows(), s.cols());
  for (std::size_t r = 0; r < s.rows(); ++r) {
    softmax_impl(s.row(r), p.row(r));
  }
  return p.matmul(v);
}

namespace {

/// Scatter one (d_model x d_k) head's worth of rng draws (row-major, the
/// historical Tensor::randn order) into flat columns [h*d_k, (h+1)*d_k).
void fill_head(Tensor& flat, std::size_t h, std::size_t d_model, std::size_t d_k,
               Rng& rng, double stddev) {
  for (std::size_t r = 0; r < d_model; ++r) {
    for (std::size_t c = 0; c < d_k; ++c) {
      flat.at(r, h * d_k + c) = rng.normal(0.0, stddev);
    }
  }
}

/// Dense copy of columns [h*d_k, (h+1)*d_k) of a flat projection block.
Tensor head_slice(const Tensor& flat, std::size_t h, std::size_t d_k) {
  require(h * d_k + d_k <= flat.cols(), "MhaWeights: head index out of range");
  Tensor out(flat.rows(), d_k);
  for (std::size_t r = 0; r < flat.rows(); ++r) {
    for (std::size_t c = 0; c < d_k; ++c) {
      out.at(r, c) = flat.at(r, h * d_k + c);
    }
  }
  return out;
}

}  // namespace

MhaWeights MhaWeights::random(std::size_t heads, std::size_t d_model, std::size_t d_k,
                              Rng& rng) {
  require(heads >= 1 && d_model >= 1 && d_k >= 1, "MhaWeights::random: bad dims");
  MhaWeights w;
  w.heads = heads;
  w.d_k = d_k;
  w.wq = Tensor(d_model, heads * d_k);
  w.wk = Tensor(d_model, heads * d_k);
  w.wv = Tensor(d_model, heads * d_k);
  // Xavier-style scale keeps score magnitudes realistic. The draw order is
  // the historical per-head sequence (wq[h], wk[h], wv[h] per head, then
  // wo), so existing weight streams reproduce value-for-value.
  const double proj_std = 1.0 / std::sqrt(static_cast<double>(d_model));
  for (std::size_t h = 0; h < heads; ++h) {
    fill_head(w.wq, h, d_model, d_k, rng, proj_std);
    fill_head(w.wk, h, d_model, d_k, rng, proj_std);
    fill_head(w.wv, h, d_model, d_k, rng, proj_std);
  }
  w.wo = Tensor::randn(heads * d_k, d_model, rng, 0.0, proj_std);
  return w;
}

Tensor MhaWeights::head_wq(std::size_t h) const { return head_slice(wq, h, d_k); }
Tensor MhaWeights::head_wk(std::size_t h) const { return head_slice(wk, h, d_k); }
Tensor MhaWeights::head_wv(std::size_t h) const { return head_slice(wv, h, d_k); }

Tensor multi_head_attention(const Tensor& x, const MhaWeights& w,
                            RowSoftmaxInto& softmax_impl) {
  require(w.heads >= 1, "multi_head_attention: no heads");
  const std::size_t heads = w.heads;
  const std::size_t d_k = w.d_k;
  require(w.wo.rows() == heads * d_k, "multi_head_attention: Wo shape mismatch");

  // Deliberately the naive allocating reference: fresh per-head dense
  // slices, fresh Q/K/V/score tensors, materialized transpose. The
  // arena-backed multi_head_attention_into (nn/workspace.hpp) must stay
  // bit-identical to this spec — tests/test_workspace.cpp compares them.
  Tensor concat(x.rows(), heads * d_k);
  for (std::size_t h = 0; h < heads; ++h) {
    const Tensor q = x.matmul(w.head_wq(h));
    const Tensor k = x.matmul(w.head_wk(h));
    const Tensor v = x.matmul(w.head_wv(h));
    const Tensor head = scaled_dot_attention(q, k, v, softmax_impl);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      for (std::size_t c = 0; c < d_k; ++c) {
        concat.at(r, h * d_k + c) = head.at(r, c);
      }
    }
  }
  return concat.matmul(w.wo);
}

}  // namespace star::nn
