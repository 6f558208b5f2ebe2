// Arena-backed tensor workspaces and allocation-free fused kernels.
//
// A warm functional request must allocate ZERO heap memory end-to-end.
// This header provides the three pieces that make that possible:
//
//  * Workspace — a bump allocator over one contiguous double buffer, sized
//    once (lazily grown while cold) and reused request after request. An
//    alloc() is a pointer bump; mark()/rewind() reclaim per-layer scratch;
//    reset() recycles the whole arena for the next request.
//  * TensorView / ConstTensorView — non-owning strided 2-D views over
//    arena (or Tensor) storage, so column slices of a fused SoA weight
//    block or of a shared Q/K/V buffer are first-class operands.
//  * *_into fused kernels — in-place/span-output counterparts of the
//    Tensor/ops primitives, each replicating its legacy counterpart's
//    per-element operation order EXACTLY. Bit-identity is the contract:
//    matmul_into accumulates over ascending k with the same
//    skip-zero-operand test as Tensor::matmul, matmul_transb_into matches
//    matmul-against-materialized-transpose, layer_norm_into matches
//    nn::layer_norm, softmax rows go through nn::RowSoftmaxInto. The
//    allocating nn:: entry points (multi_head_attention,
//    encoder_layer_forward) are deliberately KEPT as an independent
//    reference spec; tests/test_workspace.cpp compares the two paths
//    bit-for-bit.
//
// Aliasing rules: add_into(a, b, out) may alias b/out (per-element read
// happens before the write at the same index); layer_norm_into may run in
// place (row statistics are read before any element is written), and so
// may every RowSoftmaxInto. matmul outputs must not alias either input.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/attention.hpp"
#include "nn/bert.hpp"
#include "nn/softmax_ref.hpp"
#include "nn/tensor.hpp"

namespace star::nn {

/// Non-owning strided read-only 2-D view (row r starts at data + r*stride).
struct ConstTensorView {
  const double* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t stride = 0;

  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return data[r * stride + c];
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    return {data + r * stride, cols};
  }
  /// Column slice [c0, c0 + n) — same storage, same stride.
  [[nodiscard]] ConstTensorView block_cols(std::size_t c0, std::size_t n) const;
};

/// Non-owning strided mutable 2-D view.
struct TensorView {
  double* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t stride = 0;

  [[nodiscard]] double& at(std::size_t r, std::size_t c) const {
    return data[r * stride + c];
  }
  [[nodiscard]] std::span<double> row(std::size_t r) const {
    return {data + r * stride, cols};
  }
  [[nodiscard]] ConstTensorView block_cols(std::size_t c0, std::size_t n) const;
  // NOLINTNEXTLINE(google-explicit-constructor): views decay like pointers.
  operator ConstTensorView() const { return {data, rows, cols, stride}; }
};

[[nodiscard]] ConstTensorView view_of(const Tensor& t);
[[nodiscard]] TensorView view_of(Tensor& t);

/// Bump allocator over one contiguous double buffer.
///
/// Discipline: require_capacity() (which MAY reallocate) is only legal
/// while no views into the arena are live — size before slicing. alloc()
/// never grows; it asserts instead, so an undersized arena fails loudly in
/// every build type rather than silently invalidating live views.
class Workspace {
 public:
  Workspace() = default;

  /// Grow the backing buffer to at least `doubles` capacity. Cold-path
  /// only (allocates on growth); a no-op once the high-water mark is
  /// reached, which is what makes warm requests allocation-free.
  void require_capacity(std::size_t doubles);

  /// Recycle the whole arena (capacity kept) for the next request.
  void reset() { used_ = 0; }

  /// Current bump offset; pair with rewind() to reclaim scratch.
  [[nodiscard]] std::size_t mark() const { return used_; }
  void rewind(std::size_t m);

  /// Bump-allocate `doubles` values. Asserts capacity — never grows.
  [[nodiscard]] double* alloc(std::size_t doubles);

  /// Bump-allocate a contiguous rows x cols view (stride == cols).
  [[nodiscard]] TensorView alloc_view(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  [[nodiscard]] std::size_t used() const { return used_; }

 private:
  std::vector<double> buf_;
  std::size_t used_ = 0;
};

// --- fused kernels (bit-identical to their allocating counterparts) ---

/// out = a * b, bit-identical to Tensor::matmul by its per-element rule:
/// out(i,j) starts at +0.0 and adds a(i,k) * b(k,j) over ascending k,
/// skipping the product when a(i,k) == 0.0. out must not alias either
/// input.
void matmul_into(ConstTensorView a, ConstTensorView b, TensorView out);

/// out = a * b^T without materializing the transpose, by the same
/// per-element rule as matmul_into(a, transposed(b)).
void matmul_transb_into(ConstTensorView a, ConstTensorView b, TensorView out);

/// Element-wise in-place scale (Tensor::scale).
void scale_inplace(TensorView x, double k);

/// out = a + b element-wise (Tensor operator+); b and out may alias.
void add_into(ConstTensorView a, ConstTensorView b, TensorView out);

/// Row-wise layer norm (nn::layer_norm); in-place (out == x) is safe.
void layer_norm_into(ConstTensorView x, TensorView out, double eps = 1e-12);

/// Element-wise exact GELU in place (nn::gelu).
void gelu_inplace(TensorView x);

/// Multi-head attention into a caller view, with every intermediate (fused
/// Q/K/V, per-head scores, context) in arena scratch that is rewound before
/// returning. The softmax runs in place over the score rows. Bit-identical
/// to nn::multi_head_attention.
void multi_head_attention_into(ConstTensorView x, const MhaWeights& w,
                               RowSoftmaxInto& softmax_impl, Workspace& ws,
                               TensorView out);

/// One encoder layer into a caller view (bit-identical to
/// nn::encoder_layer_forward). `out` may alias the storage `x` was read
/// from in a ping-pong chain — the final layer_norm reads its summed
/// operand, not x.
void encoder_layer_forward_into(ConstTensorView x, const EncoderLayerWeights& w,
                                RowSoftmaxInto& softmax_impl, Workspace& ws,
                                TensorView out);

/// Arena sizing rule: an upper bound on the doubles a full encoder-layer
/// chain needs at sequence length <= max_seq_len — two L x d_model
/// ping-pong buffers for the layer chain, plus one layer's peak scratch
/// (attention residual + fused Q/K/V/context + one L x L score matrix,
/// softmaxed in place + FFN intermediates). Stack-depth independent:
/// every layer reuses the same scratch via mark()/rewind().
[[nodiscard]] std::size_t encoder_workspace_doubles(const BertConfig& bert,
                                                    std::size_t max_seq_len);

}  // namespace star::nn
