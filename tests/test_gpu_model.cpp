// Tests for the GPU analytical model — including the paper's motivation
// observation (softmax share of execution time vs sequence length).
#include <gtest/gtest.h>

#include "baseline/gpu_model.hpp"
#include "util/status.hpp"

namespace star::baseline {
namespace {

const nn::BertConfig kBert = nn::BertConfig::base();

TEST(GpuModel, SoftmaxShareAnchorAt512) {
  const GpuModel gpu;
  const auto t = gpu.attention_layer_timing(kBert, 512);
  // Paper: softmax reaches 59.20% of execution time at L = 512.
  EXPECT_NEAR(t.softmax_share(), 0.592, 0.01);
}

TEST(GpuModel, SoftmaxExceedsMatmulAtFiveTwelve) {
  const GpuModel gpu;
  const auto t = gpu.attention_layer_timing(kBert, 512);
  EXPECT_GT(t.softmax.as_s(), t.matmul.as_s());
}

TEST(GpuModel, CrossoverBetween256And512) {
  const GpuModel gpu;
  EXPECT_LT(gpu.attention_layer_timing(kBert, 256).softmax_share(), 0.5);
  EXPECT_GT(gpu.attention_layer_timing(kBert, 512).softmax_share(), 0.5);
}

TEST(GpuModel, ShareGrowsMonotonicallyWithLength) {
  const GpuModel gpu;
  double prev = 0.0;
  for (std::int64_t l : {64, 128, 256, 384, 512, 768, 1024}) {
    const double share = gpu.attention_layer_timing(kBert, l).softmax_share();
    EXPECT_GT(share, prev) << "L=" << l;
    prev = share;
  }
}

TEST(GpuModel, ShareSaturatesBelowAsymptote) {
  const GpuModel gpu;
  const double s4096 = gpu.attention_layer_timing(kBert, 4096).softmax_share();
  EXPECT_LT(s4096, 0.90);
  EXPECT_GT(s4096, 0.70);
}

TEST(GpuModel, EfficiencyNearTwentyAt128) {
  const GpuModel gpu;
  const auto rep = gpu.run_attention_layer(kBert, 128);
  // Implied by the paper's 30.63x over 612.66 GOPs/s/W.
  EXPECT_NEAR(rep.gops_per_watt(), 20.0, 1.5);
}

TEST(GpuModel, ReportConsistency) {
  const GpuModel gpu;
  const auto rep = gpu.run_attention_layer(kBert, 128);
  const auto t = gpu.attention_layer_timing(kBert, 128);
  EXPECT_NEAR(rep.latency.as_s(), t.total().as_s(), 1e-15);
  EXPECT_NEAR(rep.avg_power.as_W(), 280.0, 1e-9);
  EXPECT_NEAR(rep.energy.as_J(), 280.0 * t.total().as_s(), 1e-12);
}

TEST(GpuModel, OverheadIncludedInTotalNotInShare) {
  const GpuModel gpu;
  const auto t = gpu.attention_layer_timing(kBert, 128);
  EXPECT_GT(t.total().as_s(), (t.matmul + t.softmax).as_s());
  // The share leaves the launch overhead out, so it exceeds the softmax
  // fraction of the whole layer time.
  EXPECT_LT(t.softmax.as_s() / t.total().as_s(), t.softmax_share());
}

TEST(GpuModel, MatmulTimeScalesWithWork) {
  const GpuModel gpu;
  const auto a = gpu.attention_layer_timing(kBert, 128);
  const auto b = gpu.attention_layer_timing(kBert, 256);
  EXPECT_GT(b.matmul.as_s(), 1.9 * a.matmul.as_s());   // superlinear (L^2 term)
  EXPECT_NEAR(b.softmax.as_s(), 4.0 * a.softmax.as_s(), 1e-9);  // exactly L^2
}

TEST(GpuModel, ConfigValidation) {
  GpuModelConfig bad;
  bad.matmul_tflops = 0.0;
  EXPECT_THROW(GpuModel{bad}, InvalidArgument);
}

}  // namespace
}  // namespace star::baseline
