#include "nn/workspace.hpp"

#include <algorithm>
#include <cmath>

#include "nn/ops.hpp"
#include "util/math.hpp"
#include "util/status.hpp"

namespace star::nn {

ConstTensorView ConstTensorView::block_cols(std::size_t c0, std::size_t n) const {
  STAR_ASSERT(c0 + n <= cols, "ConstTensorView::block_cols: slice out of range");
  return {data + c0, rows, n, stride};
}

ConstTensorView TensorView::block_cols(std::size_t c0, std::size_t n) const {
  STAR_ASSERT(c0 + n <= cols, "TensorView::block_cols: slice out of range");
  return {data + c0, rows, n, stride};
}

ConstTensorView view_of(const Tensor& t) {
  return {t.flat().data(), t.rows(), t.cols(), t.cols()};
}

TensorView view_of(Tensor& t) {
  return {t.flat().data(), t.rows(), t.cols(), t.cols()};
}

void Workspace::require_capacity(std::size_t doubles) {
  if (buf_.size() < doubles) {
    buf_.resize(doubles);
  }
}

void Workspace::rewind(std::size_t m) {
  STAR_ASSERT(m <= used_, "Workspace::rewind: mark beyond bump offset");
  used_ = m;
}

// STAR_HOT
double* Workspace::alloc(std::size_t doubles) {
  STAR_ASSERT(used_ + doubles <= buf_.size(),
              "Workspace::alloc: arena undersized (call require_capacity "
              "before taking views)");
  double* p = buf_.data() + used_;
  used_ += doubles;
  return p;
}

// STAR_HOT
TensorView Workspace::alloc_view(std::size_t rows, std::size_t cols) {
  return {alloc(rows * cols), rows, cols, cols};
}

namespace {

// Register block of the matmul kernels: an 8-column panel of `out`, whose
// running sums fill four SSE2 registers, over a 128-deep chunk of the inner
// dimension, so one packed tile of the right operand is 8 KB and stays in L1.
constexpr std::size_t kPanel = 8;
constexpr std::size_t kDepth = 128;

// Columns [j0, j0 + W) of out = a * B, where B(k, j) = b[k * k_step + j * j_step].
// Each 128-deep chunk of the panel's B is packed into a contiguous stack
// tile, then every row of `a` runs over it with the W sums in registers; a
// chunk after the first continues from the partial sums it left in `out`.
// So every output element starts at +0.0 and adds a(i,k) * B(k,j) over
// ascending k, skipping a(i,k) == 0.0: Tensor::matmul's per-element rule,
// bit for bit, NaN and +-Inf included.
// STAR_HOT
template <std::size_t W>
void packed_panel(ConstTensorView a, const double* b, std::size_t k_step,
                  std::size_t j_step, TensorView out, std::size_t j0) {
  std::size_t k0 = 0;
  do {  // at least once, so a zero-depth product still writes +0.0
    const std::size_t chunk = std::min(kDepth, a.cols - k0);
    double tile[kDepth][W];
    for (std::size_t kk = 0; kk < chunk; ++kk) {
      const double* src = b + (k0 + kk) * k_step + j0 * j_step;
      for (std::size_t jj = 0; jj < W; ++jj) {
        tile[kk][jj] = src[jj * j_step];
      }
    }
    for (std::size_t i = 0; i < a.rows; ++i) {
      const double* arow = a.data + i * a.stride + k0;
      double* orow = out.data + i * out.stride + j0;
      double sum[W] = {};
      if (k0 > 0) {
        for (std::size_t jj = 0; jj < W; ++jj) {
          sum[jj] = orow[jj];
        }
      }
      for (std::size_t kk = 0; kk < chunk; ++kk) {
        const double av = arow[kk];
        if (av == 0.0) {
          continue;
        }
        for (std::size_t jj = 0; jj < W; ++jj) {
          sum[jj] += av * tile[kk][jj];
        }
      }
      for (std::size_t jj = 0; jj < W; ++jj) {
        orow[jj] = sum[jj];
      }
    }
    k0 += kDepth;
  } while (k0 < a.cols);
}

// out = a * B: 8-column panels, then at most one 4-column panel. From
// n = 4 on, a remainder of 1 to 3 columns is one more 4-column panel
// ending at column n. It overlaps finished columns, but its first chunk
// starts their sums from +0.0 again, so they are recomputed to the same
// bits. Only n < 4 runs single columns.
// STAR_HOT
void packed_matmul(ConstTensorView a, const double* b, std::size_t k_step,
                   std::size_t j_step, TensorView out) {
  constexpr std::size_t kHalf = kPanel / 2;
  const std::size_t n = out.cols;
  std::size_t j0 = 0;
  for (; j0 + kPanel <= n; j0 += kPanel) {
    packed_panel<kPanel>(a, b, k_step, j_step, out, j0);
  }
  for (; j0 + kHalf <= n; j0 += kHalf) {
    packed_panel<kHalf>(a, b, k_step, j_step, out, j0);
  }
  if (j0 < n && n >= kHalf) {
    packed_panel<kHalf>(a, b, k_step, j_step, out, n - kHalf);
    return;
  }
  for (; j0 < n; ++j0) {
    packed_panel<1>(a, b, k_step, j_step, out, j0);
  }
}

}  // namespace

// STAR_HOT
void matmul_into(ConstTensorView a, ConstTensorView b, TensorView out) {
  STAR_ASSERT(a.cols == b.rows, "matmul_into: inner dimension mismatch");
  STAR_ASSERT(out.rows == a.rows && out.cols == b.cols,
              "matmul_into: output shape mismatch");
  packed_matmul(a, b.data, b.stride, 1, out);  // B(k, j) = b(k, j)
}

// STAR_HOT
void matmul_transb_into(ConstTensorView a, ConstTensorView b, TensorView out) {
  STAR_ASSERT(a.cols == b.cols, "matmul_transb_into: inner dimension mismatch");
  STAR_ASSERT(out.rows == a.rows && out.cols == b.rows,
              "matmul_transb_into: output shape mismatch");
  packed_matmul(a, b.data, 1, b.stride, out);  // B(k, j) = b(j, k)
}

// STAR_HOT
void scale_inplace(TensorView x, double k) {
  for (std::size_t r = 0; r < x.rows; ++r) {
    double* row = x.data + r * x.stride;
    for (std::size_t c = 0; c < x.cols; ++c) {
      row[c] *= k;
    }
  }
}

// STAR_HOT
void add_into(ConstTensorView a, ConstTensorView b, TensorView out) {
  STAR_ASSERT(a.rows == b.rows && a.cols == b.cols && out.rows == a.rows &&
                  out.cols == a.cols,
              "add_into: shape mismatch");
  for (std::size_t r = 0; r < a.rows; ++r) {
    const double* arow = a.data + r * a.stride;
    const double* brow = b.data + r * b.stride;
    double* orow = out.data + r * out.stride;
    for (std::size_t c = 0; c < a.cols; ++c) {
      orow[c] = arow[c] + brow[c];
    }
  }
}

// STAR_HOT
void layer_norm_into(ConstTensorView x, TensorView out, double eps) {
  STAR_ASSERT(out.rows == x.rows && out.cols == x.cols,
              "layer_norm_into: shape mismatch");
  for (std::size_t r = 0; r < x.rows; ++r) {
    const auto row = x.row(r);
    // Row statistics first, then the writes — which is why in-place
    // normalization (out == x) is safe.
    const double m = mean(row);
    const double sd = stddev(row);
    const double inv = 1.0 / std::sqrt(sd * sd + eps);
    const auto orow = out.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      orow[c] = (row[c] - m) * inv;
    }
  }
}

// STAR_HOT
void gelu_inplace(TensorView x) {
  for (std::size_t r = 0; r < x.rows; ++r) {
    double* row = x.data + r * x.stride;
    for (std::size_t c = 0; c < x.cols; ++c) {
      row[c] = gelu(row[c]);
    }
  }
}

// STAR_HOT
void multi_head_attention_into(ConstTensorView x, const MhaWeights& w,
                               RowSoftmaxInto& softmax_impl, Workspace& ws,
                               TensorView out) {
  const std::size_t heads = w.heads;
  const std::size_t d_k = w.d_k;
  STAR_ASSERT(heads >= 1, "multi_head_attention_into: no heads");
  STAR_ASSERT(x.cols == w.wq.rows(), "multi_head_attention_into: d_model mismatch");
  STAR_ASSERT(out.rows == x.rows && out.cols == w.wo.cols(),
              "multi_head_attention_into: output shape mismatch");

  const std::size_t seq = x.rows;
  const std::size_t d_qkv = heads * d_k;
  const std::size_t scratch_mark = ws.mark();

  // Fused SoA projections: one matmul per operand produces EVERY head's
  // slice (column block h*d_k..) bit-identical to the per-head products.
  const TensorView q = ws.alloc_view(seq, d_qkv);
  const TensorView k = ws.alloc_view(seq, d_qkv);
  const TensorView v = ws.alloc_view(seq, d_qkv);
  matmul_into(x, view_of(w.wq), q);
  matmul_into(x, view_of(w.wk), k);
  matmul_into(x, view_of(w.wv), v);

  // Per-head scratch is shared across heads; the context lands directly in
  // its concat column block (what the legacy path copied row by row).
  const TensorView ctx = ws.alloc_view(seq, d_qkv);
  const TensorView scores = ws.alloc_view(seq, seq);
  for (std::size_t h = 0; h < heads; ++h) {
    const ConstTensorView qh = q.block_cols(h * d_k, d_k);
    const ConstTensorView kh = k.block_cols(h * d_k, d_k);
    const ConstTensorView vh = v.block_cols(h * d_k, d_k);
    matmul_transb_into(qh, kh, scores);
    scale_inplace(scores, 1.0 / std::sqrt(static_cast<double>(d_k)));
    // Rows in ascending order — the fault-RNG draw order every legacy
    // softmax consumer established — each overwritten by its probabilities
    // (RowSoftmaxInto's aliasing contract), which need no buffer of their own.
    for (std::size_t r = 0; r < seq; ++r) {
      softmax_impl(scores.row(r), scores.row(r));
    }
    matmul_into(scores, vh, TensorView{ctx.data + h * d_k, seq, d_k, ctx.stride});
  }
  matmul_into(ctx, view_of(w.wo), out);
  ws.rewind(scratch_mark);
}

// STAR_HOT
void encoder_layer_forward_into(ConstTensorView x, const EncoderLayerWeights& w,
                                RowSoftmaxInto& softmax_impl, Workspace& ws,
                                TensorView out) {
  const std::size_t seq = x.rows;
  const std::size_t d_model = x.cols;
  STAR_ASSERT(out.rows == seq && out.cols == d_model,
              "encoder_layer_forward_into: output shape mismatch");

  const std::size_t layer_mark = ws.mark();
  // attn <- MHA(x); then in place: attn <- LN(x + attn) == y.
  const TensorView attn = ws.alloc_view(seq, d_model);
  multi_head_attention_into(x, w.mha, softmax_impl, ws, attn);
  add_into(x, attn, attn);
  layer_norm_into(attn, attn);

  // FFN: ff <- gelu(y * W_ff1) * W_ff2; then ff <- y + ff, out <- LN(ff).
  const TensorView ff1 = ws.alloc_view(seq, w.w_ff1.cols());
  matmul_into(attn, view_of(w.w_ff1), ff1);
  gelu_inplace(ff1);
  const TensorView ff = ws.alloc_view(seq, d_model);
  matmul_into(ff1, view_of(w.w_ff2), ff);
  add_into(attn, ff, ff);
  layer_norm_into(ff, out);
  ws.rewind(layer_mark);
}

std::size_t encoder_workspace_doubles(const BertConfig& bert,
                                      std::size_t max_seq_len) {
  bert.validate();
  const auto seq = max_seq_len;
  const auto d_model = static_cast<std::size_t>(bert.d_model);
  const auto d_ff = static_cast<std::size_t>(bert.d_ff);
  // Ping-pong chain buffers + one layer's peak scratch, summed without the
  // mark/rewind savings (attention and FFN scratch never coexist) — a safe
  // upper bound that stays stack-depth independent.
  const std::size_t chain = 2 * seq * d_model;
  const std::size_t residual = seq * d_model;
  const std::size_t mha = 4 * seq * d_model + seq * seq;
  const std::size_t ffn = seq * d_ff + seq * d_model;
  return chain + residual + mha + ffn;
}

}  // namespace star::nn
