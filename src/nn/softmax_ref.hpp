// Reference (exact, numerically stable) softmax — the ground truth every
// hardware softmax in this repo is measured against.
#pragma once

#include <span>
#include <vector>

#include "nn/tensor.hpp"

namespace star::nn {

/// Numerically stable softmax of one row: exp(x - max) / sum(exp(x - max)).
std::vector<double> softmax(std::span<const double> x);

/// Allocation-free softmax: writes the probabilities into `out` (same
/// length as `x`; may alias it). Identical operation order to softmax(),
/// so the two are bit-identical element for element.
void softmax_into(std::span<const double> x, std::span<double> out);

/// Row-wise softmax of a matrix.
Tensor softmax_rows(const Tensor& x);

/// log(sum(exp(x))) computed stably (used by tests as an independent oracle:
/// softmax(x)_i == exp(x_i - logsumexp(x))).
double logsumexp(std::span<const double> x);

/// The one row-softmax interface, the shape of cuBERT's
/// Softmax::compute_(batch, inout): the reference, the STAR engine,
/// Softermax and the CMOS baseline all write the x.size() probabilities of
/// `x` into the caller's `out`, so attention runs on any of them
/// interchangeably. The engine's implementation (core::SoftmaxEngineRowRef)
/// does not allocate on the warm path — its per-run scratch lives in a
/// core::SoftmaxRunState.
///
/// Aliasing contract: `out` may be `x` itself (the attention kernel
/// overwrites each score row with its probabilities). Every implementation
/// reads what it needs of an input element before writing that element's
/// output, so in place and out of place give the same bits.
class RowSoftmaxInto {
 public:
  virtual ~RowSoftmaxInto() = default;
  virtual void operator()(std::span<const double> x, std::span<double> out) = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

/// The exact implementation of RowSoftmaxInto (bit-identical to softmax()).
class ExactSoftmaxInto final : public RowSoftmaxInto {
 public:
  void operator()(std::span<const double> x, std::span<double> out) override {
    softmax_into(x, out);
  }
  [[nodiscard]] const char* name() const override { return "exact"; }
};

/// Allocating convenience over any RowSoftmaxInto: the probabilities of
/// one row as a fresh vector.
[[nodiscard]] std::vector<double> softmax_row(RowSoftmaxInto& impl,
                                              std::span<const double> x);

}  // namespace star::nn
