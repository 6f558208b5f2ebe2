// Tests for attention, BERT encoder layer and the analytic op counts.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/attention.hpp"
#include "nn/bert.hpp"
#include "nn/opcount.hpp"
#include "nn/softmax_ref.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace star::nn {
namespace {

TEST(Attention, ScoresAreScaledDotProducts) {
  Rng rng(1);
  const auto q = Tensor::randn(4, 8, rng);
  const auto k = Tensor::randn(6, 8, rng);
  const auto s = attention_scores(q, k);
  ASSERT_EQ(s.rows(), 4u);
  ASSERT_EQ(s.cols(), 6u);
  double expected = 0.0;
  for (std::size_t d = 0; d < 8; ++d) {
    expected += q.at(1, d) * k.at(2, d);
  }
  expected /= std::sqrt(8.0);
  EXPECT_NEAR(s.at(1, 2), expected, 1e-12);
}

TEST(Attention, MatchesManualComposition) {
  Rng rng(2);
  const auto q = Tensor::randn(5, 8, rng);
  const auto k = Tensor::randn(7, 8, rng);
  const auto v = Tensor::randn(7, 3, rng);
  ExactSoftmaxInto sm;
  const auto out = scaled_dot_attention(q, k, v, sm);
  const auto p = softmax_rows(attention_scores(q, k));
  const auto expected = p.matmul(v);
  EXPECT_LT(Tensor::max_abs_diff(out, expected), 1e-12);
}

TEST(Attention, RowsAreConvexCombinationsOfV) {
  Rng rng(3);
  const auto q = Tensor::randn(4, 8, rng);
  const auto k = Tensor::randn(6, 8, rng);
  Tensor v(6, 2, 1.0);  // all-ones values -> every output must be exactly 1
  ExactSoftmaxInto sm;
  const auto out = scaled_dot_attention(q, k, v, sm);
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      EXPECT_NEAR(out.at(r, c), 1.0, 1e-12);
    }
  }
}

TEST(Attention, KvLengthMismatchRejected) {
  Rng rng(4);
  const auto q = Tensor::randn(4, 8, rng);
  const auto k = Tensor::randn(6, 8, rng);
  const auto v = Tensor::randn(5, 2, rng);
  ExactSoftmaxInto sm;
  EXPECT_THROW(scaled_dot_attention(q, k, v, sm), InvalidArgument);
}

TEST(MultiHeadAttention, ShapesAndDeterminism) {
  Rng rng(5);
  const auto w = MhaWeights::random(4, 32, 8, rng);
  Rng xrng(6);
  const auto x = Tensor::randn(10, 32, xrng);
  ExactSoftmaxInto sm;
  const auto y1 = multi_head_attention(x, w, sm);
  const auto y2 = multi_head_attention(x, w, sm);
  ASSERT_EQ(y1.rows(), 10u);
  ASSERT_EQ(y1.cols(), 32u);
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(y1, y2), 0.0);
}

TEST(Bert, ConfigsValidate) {
  EXPECT_NO_THROW(BertConfig::base().validate());
  EXPECT_NO_THROW(BertConfig::tiny().validate());
  EXPECT_EQ(BertConfig::base().d_head(), 64);
  BertConfig bad = BertConfig::base();
  bad.heads = 7;  // 768 not divisible by 7
  EXPECT_THROW(bad.validate(), InvalidArgument);
}

TEST(Bert, EncoderLayerForwardRuns) {
  const BertConfig cfg = BertConfig::tiny();
  Rng rng(7);
  const auto w = EncoderLayerWeights::random(cfg, rng);
  const auto x = Tensor::randn(6, static_cast<std::size_t>(cfg.d_model), rng);
  ExactSoftmaxInto sm;
  const auto y = encoder_layer_forward(x, w, sm);
  ASSERT_EQ(y.rows(), 6u);
  ASSERT_EQ(y.cols(), static_cast<std::size_t>(cfg.d_model));
  for (double v : y.flat()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

// ---------- op counts ----------

TEST(OpCount, BertBaseAt128MatchesHandComputation) {
  const auto c = attention_op_counts(BertConfig::base(), 128);
  EXPECT_DOUBLE_EQ(c.proj_macs, 4.0 * 128.0 * 768.0 * 768.0);
  EXPECT_DOUBLE_EQ(c.score_macs, 12.0 * 128.0 * 128.0 * 64.0);
  EXPECT_DOUBLE_EQ(c.context_macs, 12.0 * 128.0 * 128.0 * 64.0);
  EXPECT_DOUBLE_EQ(c.softmax_elems, 12.0 * 128.0 * 128.0);
  EXPECT_DOUBLE_EQ(c.matmul_ops(),
                   2.0 * (c.proj_macs + c.score_macs + c.context_macs));
  EXPECT_DOUBLE_EQ(c.softmax_ops(), 5.0 * c.softmax_elems);
}

TEST(OpCount, SoftmaxShareOfOpsGrowsWithLength) {
  const auto cfg = BertConfig::base();
  double prev = 0.0;
  for (std::int64_t l : {64, 128, 256, 512, 1024}) {
    const auto c = attention_op_counts(cfg, l);
    const double share = c.softmax_ops() / c.total_ops();
    EXPECT_GT(share, prev);
    prev = share;
  }
}

TEST(OpCount, FfnMacs) {
  EXPECT_DOUBLE_EQ(ffn_macs(BertConfig::base(), 128),
                   2.0 * 128.0 * 768.0 * 3072.0);
}

TEST(OpCount, RejectsBadSeqLen) {
  EXPECT_THROW(attention_op_counts(BertConfig::base(), 0), InvalidArgument);
}

}  // namespace
}  // namespace star::nn
