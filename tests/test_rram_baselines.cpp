// Tests for the ReTransformer and PipeLayer architecture models and the
// full Fig. 3 ordering/ratio bands.
#include <gtest/gtest.h>

#include "baseline/gpu_model.hpp"
#include "baseline/pipelayer.hpp"
#include "baseline/retransformer.hpp"
#include "core/accelerator.hpp"
#include "util/status.hpp"

namespace star::baseline {
namespace {

core::StarConfig nine_bit_cfg() {
  core::StarConfig cfg;
  cfg.softmax_format = fxp::kMrpcFormat;
  return cfg;
}

const nn::BertConfig kBert = nn::BertConfig::base();

struct Fig3 {
  double gpu, pipelayer, retransformer, star;
};

Fig3 run_fig3(std::int64_t seq_len) {
  const auto cfg = nine_bit_cfg();
  const core::StarAccelerator star_acc(cfg);
  const ReTransformerModel retx(cfg);
  const PipeLayerModel pl(cfg);
  const GpuModel gpu;
  return Fig3{gpu.run_attention_layer(kBert, seq_len).gops_per_watt(),
              pl.run_attention_layer(kBert, seq_len).report.gops_per_watt(),
              retx.run_attention_layer(kBert, seq_len).report.gops_per_watt(),
              star_acc.run_attention_layer(kBert, seq_len).report.gops_per_watt()};
}

TEST(Fig3Ordering, StrictAtPaperOperatingPoint) {
  const Fig3 f = run_fig3(128);
  EXPECT_LT(f.gpu, f.pipelayer);
  EXPECT_LT(f.pipelayer, f.retransformer);
  EXPECT_LT(f.retransformer, f.star);
}

TEST(Fig3Ratios, MatchPaperBands) {
  const Fig3 f = run_fig3(128);
  // Paper: 30.63x / 4.32x / 1.31x.
  EXPECT_GT(f.star / f.gpu, 26.0);
  EXPECT_LT(f.star / f.gpu, 36.0);
  EXPECT_GT(f.star / f.pipelayer, 3.7);
  EXPECT_LT(f.star / f.pipelayer, 5.0);
  EXPECT_GT(f.star / f.retransformer, 1.20);
  EXPECT_LT(f.star / f.retransformer, 1.50);
}

TEST(Fig3Ordering, HoldsAcrossSequenceLengths) {
  for (std::int64_t l : {64, 256, 512}) {
    const Fig3 f = run_fig3(l);
    EXPECT_LT(f.gpu, f.pipelayer) << "L=" << l;
    EXPECT_LT(f.pipelayer, f.retransformer) << "L=" << l;
    EXPECT_LT(f.retransformer, f.star) << "L=" << l;
  }
}

TEST(ReTransformer, OperandGranularityCostsTime) {
  const auto cfg = nine_bit_cfg();
  const ReTransformerModel retx(cfg);
  const core::StarAccelerator star_acc(cfg);
  const auto r = retx.run_attention_layer(kBert, 128);
  const auto s = star_acc.run_attention_layer(kBert, 128);
  EXPECT_GT(r.latency.as_us(), s.latency.as_us());
  EXPECT_EQ(r.report.engine_name, "ReTransformer");
}

TEST(ReTransformer, CmosSoftmaxDominatesItsSoftmaxEnergy) {
  const ReTransformerModel retx(nine_bit_cfg());
  const core::StarAccelerator star_acc(nine_bit_cfg());
  const auto r = retx.run_attention_layer(kBert, 128);
  const auto s = star_acc.run_attention_layer(kBert, 128);
  EXPECT_GT(r.softmax_energy.as_uJ(), s.softmax_energy.as_uJ());
}

TEST(ReTransformer, WritesHiddenButCounted) {
  const ReTransformerModel retx(nine_bit_cfg());
  const auto r = retx.run_attention_layer(kBert, 128);
  EXPECT_GT(r.write_energy.as_nJ(), 0.0);
}

TEST(ReTransformer, StageTimesExposeCmosSoftmax) {
  const ReTransformerModel retx(nine_bit_cfg());
  const auto t = retx.stage_times(kBert, 128);
  EXPECT_GT(t.softmax_row.as_ns(), 0.0);
  EXPECT_NEAR(t.proj_row.as_ns(), t.score_row.as_ns(), 1e-9);
}

TEST(PipeLayer, PaysWritesOnCriticalPath) {
  const PipeLayerModel pl(nine_bit_cfg());
  const ReTransformerModel retx(nine_bit_cfg());
  const auto p = pl.run_attention_layer(kBert, 128);
  const auto r = retx.run_attention_layer(kBert, 128);
  EXPECT_GT(p.latency.as_us(), r.latency.as_us());
  // PipeLayer also writes the probability matrix P.
  EXPECT_GT(p.write_energy.as_J(), r.write_energy.as_J());
}

TEST(AllAccelerators, SameOpsAccounting) {
  const auto cfg = nine_bit_cfg();
  const core::StarAccelerator star_acc(cfg);
  const ReTransformerModel retx(cfg);
  const PipeLayerModel pl(cfg);
  const GpuModel gpu;
  const double ops = star_acc.run_attention_layer(kBert, 128).report.total_ops;
  EXPECT_DOUBLE_EQ(retx.run_attention_layer(kBert, 128).report.total_ops, ops);
  EXPECT_DOUBLE_EQ(pl.run_attention_layer(kBert, 128).report.total_ops, ops);
  EXPECT_DOUBLE_EQ(gpu.run_attention_layer(kBert, 128).total_ops, ops);
}

}  // namespace
}  // namespace star::baseline
