// Analytical GPU model (NVIDIA Titan RTX, the paper's GPU platform).
//
// A two-throughput roofline: matrix multiplications run near the device's
// effective GEMM throughput; softmax runs at a flat, far lower effective
// rate because it is launch/memory-bound (many small unfused kernels over
// L x L score matrices). The shape of the paper's motivation observation —
// softmax share grows with sequence length, crossing 50% between 256 and
// 512 — emerges from O(L d^2) vs O(L^2) scaling against these two rates;
// the three constants are calibrated to the paper's published anchors
// (59.20% softmax share at L = 512; 30.63x efficiency gap at L = 128).
#pragma once

#include <cstdint>

#include "hw/report.hpp"
#include "nn/bert.hpp"
#include "nn/opcount.hpp"
#include "util/units.hpp"

namespace star::baseline {

struct GpuModelConfig {
  // calibrated: effective GEMM throughput of BERT-base attention layers
  // (Titan RTX peaks at 16.3 FP32 TFLOPS; sustained GEMM efficiency ~60%).
  double matmul_tflops = 10.0;
  // calibrated: effective softmax throughput; pins the 59.20% @ L=512 anchor.
  double softmax_gops = 33.7;
  // calibrated: per-layer kernel launch/sync overhead; pins the 30.63x
  // efficiency gap at L = 128.
  Time layer_overhead = Time::us(22.0);
  // Titan RTX board power.
  Power board_power = Power::W(280.0);
};

struct GpuLayerTiming {
  Time matmul{};
  Time softmax{};
  Time overhead{};
  [[nodiscard]] Time total() const { return matmul + softmax + overhead; }
  /// Softmax share of matmul + softmax execution time (the paper's
  /// "percentage of whole execution time" for the two kernels).
  [[nodiscard]] double softmax_share() const;
};

class GpuModel {
 public:
  explicit GpuModel(GpuModelConfig cfg = {});

  [[nodiscard]] GpuLayerTiming attention_layer_timing(const nn::BertConfig& bert,
                                                      std::int64_t seq_len) const;

  /// Fig. 3 record: GOPs/s/W over one attention layer.
  [[nodiscard]] hw::RunReport run_attention_layer(const nn::BertConfig& bert,
                                                  std::int64_t seq_len) const;

  [[nodiscard]] const GpuModelConfig& config() const { return cfg_; }

 private:
  GpuModelConfig cfg_;
};

}  // namespace star::baseline
