// Tests for the STAR accelerator top model — including the Fig. 3 bands.
#include <gtest/gtest.h>

#include "core/accelerator.hpp"
#include "util/status.hpp"

namespace star::core {
namespace {

StarConfig nine_bit_cfg() {
  StarConfig cfg;
  cfg.softmax_format = fxp::kMrpcFormat;
  return cfg;
}

TEST(StarAccelerator, Fig3EfficiencyBand) {
  const StarAccelerator acc(nine_bit_cfg());
  const auto res = acc.run_attention_layer(nn::BertConfig::base(), 128);
  // Paper: 612.66 GOPs/s/W. Allow a +/-10% modelling band.
  EXPECT_GT(res.report.gops_per_watt(), 550.0);
  EXPECT_LT(res.report.gops_per_watt(), 680.0);
}

TEST(StarAccelerator, ReportFieldsConsistent) {
  const StarAccelerator acc(nine_bit_cfg());
  const auto res = acc.run_attention_layer(nn::BertConfig::base(), 128);
  EXPECT_EQ(res.report.engine_name, "STAR");
  EXPECT_GT(res.latency.as_us(), 0.0);
  EXPECT_GT(res.energy.as_uJ(), 0.0);
  EXPECT_GT(res.power.as_W(), 0.0);
  EXPECT_NEAR(res.report.latency.as_s(), res.latency.as_s(), 1e-15);
  EXPECT_GT(res.report.total_ops, 6.0e8);  // BERT-base @128 ~ 6.6e8 ops
  EXPECT_LT(res.report.total_ops, 7.0e8);
}

TEST(StarAccelerator, SoftmaxEnergyIsSmallShare) {
  const StarAccelerator acc(nine_bit_cfg());
  const auto res = acc.run_attention_layer(nn::BertConfig::base(), 128);
  // The whole point: the softmax engine contributes little energy.
  EXPECT_LT(res.softmax_energy.as_J() / res.energy.as_J(), 0.10);
  EXPECT_GT(res.softmax_energy.as_J(), 0.0);
}

TEST(StarAccelerator, VectorPipelineBeatsOperandOnSameHardware) {
  const StarAccelerator acc(nine_bit_cfg());
  const auto res = acc.run_attention_layer(nn::BertConfig::base(), 128);
  EXPECT_GT(res.pipeline_speedup, 1.0);
}

TEST(StarAccelerator, EnginesAutoSizedToKeepPace) {
  const StarAccelerator acc(nine_bit_cfg());
  const nn::BertConfig bert = nn::BertConfig::base();
  const int engines = acc.engines_needed(bert, 128);
  EXPECT_GE(engines, static_cast<int>(bert.heads));
  const StageTimes t = acc.stage_times(bert, 128);
  // After replication the softmax stage is not the pipeline bottleneck.
  EXPECT_LE(t.softmax_row.as_ns(), t.score_row.as_ns() + 1e-9);
}

TEST(StarAccelerator, TileCountMatchesBertGeometry) {
  const StarAccelerator acc(nine_bit_cfg());
  const auto tiles = acc.run_attention_layer(nn::BertConfig::base(), 128).matmul_tiles;
  // 4 projections x 144 tiles + 12 heads x (K^T 4 + V 1 tiles) = 636.
  // (K^T: 64x128 -> 1x4 grid; V: 128x64 -> 1x2 grid.)
  EXPECT_GT(tiles, 500);
  EXPECT_LT(tiles, 800);
}

TEST(StarAccelerator, LatencyGrowsWithSequenceLength) {
  const StarAccelerator acc(nine_bit_cfg());
  const auto a = acc.run_attention_layer(nn::BertConfig::base(), 64);
  const auto b = acc.run_attention_layer(nn::BertConfig::base(), 256);
  EXPECT_GT(b.latency.as_us(), a.latency.as_us());
  EXPECT_GT(b.energy.as_uJ(), a.energy.as_uJ());
}

TEST(StarAccelerator, EfficiencyStaysHighAtLongSequences) {
  const StarAccelerator acc(nine_bit_cfg());
  const auto short_run = acc.run_attention_layer(nn::BertConfig::base(), 128);
  const auto long_run = acc.run_attention_layer(nn::BertConfig::base(), 512);
  // Unlike the GPU, STAR's softmax engine keeps the long-sequence
  // efficiency within a factor ~2 of the short-sequence point.
  EXPECT_GT(long_run.report.gops_per_watt(),
            0.5 * short_run.report.gops_per_watt());
}

TEST(StarAccelerator, WriteEnergyCountedButHidden) {
  const StarAccelerator acc(nine_bit_cfg());
  const auto res = acc.run_attention_layer(nn::BertConfig::base(), 128);
  EXPECT_GT(res.write_energy.as_nJ(), 0.0);
  EXPECT_LT(res.write_energy.as_J() / res.energy.as_J(), 0.5);
}

TEST(StarAccelerator, RejectsBadSeqLen) {
  const StarAccelerator acc(nine_bit_cfg());
  EXPECT_THROW(acc.run_attention_layer(nn::BertConfig::base(), 1), InvalidArgument);
}

}  // namespace
}  // namespace star::core
