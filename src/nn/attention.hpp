// Scaled dot-product and multi-head attention with a pluggable softmax.
//
// The softmax is injected as a RowSoftmaxInto so the same attention code runs
// bit-exactly on the reference, the STAR crossbar engine, Softermax and the
// CMOS baseline — which is how the accuracy side of the paper's trade-off
// is evaluated.
#pragma once

#include <vector>

#include "nn/softmax_ref.hpp"
#include "nn/tensor.hpp"

namespace star::nn {

/// softmax(Q K^T / sqrt(d_k)) V for one head.
/// q: (L_q x d_k), k: (L_k x d_k), v: (L_k x d_v).
Tensor scaled_dot_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                            RowSoftmaxInto& softmax_impl);

/// The raw score matrix Q K^T / sqrt(d_k) (exposed for the bitwidth study,
/// which analyses score distributions before softmax).
Tensor attention_scores(const Tensor& q, const Tensor& k);

/// Weights of one multi-head attention block, stored SoA: instead of a
/// per-head std::vector<Tensor>, each projection is ONE flat weight block
/// (d_model x heads * d_k) whose column slice [h*d_k, (h+1)*d_k) is head
/// h's matrix. One fused X * Wq matmul then produces every head's Q in a
/// single pass — and because the shared matmul kernel accumulates each
/// output element independently over ascending k, the fused product is
/// bit-identical per column to the per-head products it replaces.
struct MhaWeights {
  std::size_t heads = 0;
  std::size_t d_k = 0;
  Tensor wq;  ///< (d_model x heads * d_k), head h = columns [h*d_k, (h+1)*d_k)
  Tensor wk;
  Tensor wv;
  Tensor wo;  ///< (heads * d_k x d_model)

  /// Same RNG draw order as the historical per-head layout (per head:
  /// wq[h] row-major, wk[h], wv[h]; then wo), scattered into the flat
  /// blocks — weight VALUES are unchanged for any given rng stream.
  static MhaWeights random(std::size_t heads, std::size_t d_model, std::size_t d_k,
                           Rng& rng);

  /// Dense copy of head h's projection slice (allocates; reference/test
  /// use — the hot path reads the flat blocks directly).
  [[nodiscard]] Tensor head_wq(std::size_t h) const;
  [[nodiscard]] Tensor head_wk(std::size_t h) const;
  [[nodiscard]] Tensor head_wv(std::size_t h) const;
};

/// Full multi-head attention: x (L x d_model) -> (L x d_model).
Tensor multi_head_attention(const Tensor& x, const MhaWeights& w,
                            RowSoftmaxInto& softmax_impl);

}  // namespace star::nn
