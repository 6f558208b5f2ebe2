// BERT model configuration and encoder layer: the evaluation workload of
// the paper (BERT-base on CNEWS/MRPC/CoLA).
#pragma once

#include <cstdint>

#include "nn/attention.hpp"
#include "nn/tensor.hpp"

namespace star::nn {

struct BertConfig {
  std::int64_t layers = 12;
  std::int64_t heads = 12;
  std::int64_t d_model = 768;
  std::int64_t d_ff = 3072;

  [[nodiscard]] std::int64_t d_head() const { return d_model / heads; }

  /// BERT-base, the paper's evaluation model.
  static BertConfig base();
  /// A small configuration for fast functional tests.
  static BertConfig tiny();

  void validate() const;
};

/// Weights of one encoder layer (attention + FFN).
struct EncoderLayerWeights {
  MhaWeights mha;
  Tensor w_ff1;  ///< (d_model x d_ff)
  Tensor w_ff2;  ///< (d_ff x d_model)

  static EncoderLayerWeights random(const BertConfig& cfg, Rng& rng);
};

/// One full encoder layer forward pass:
/// y = LN(x + MHA(x)); out = LN(y + FF2(gelu(FF1(y)))).
Tensor encoder_layer_forward(const Tensor& x, const EncoderLayerWeights& w,
                             RowSoftmaxInto& softmax_impl);

}  // namespace star::nn
