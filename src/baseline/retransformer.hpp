// ReTransformer (Yang et al., ICCAD 2020) architecture model — the
// state-of-the-art RRAM attention accelerator STAR compares against.
//
// Same crossbar MatMul engine as STAR (STAR adopts ReTransformer's design),
// and its matrix-decomposition trick hides dynamic-matrix writes off the
// critical path. The two structural differences to STAR:
//   1. softmax runs on a CMOS arithmetic unit, and
//   2. the pipeline is operand-grained: the softmax block consumes the
//      whole score matrix before the context matmul can start. Its makespan
//      is the favourable bound of core/pipeline.hpp, not a causal schedule.
#pragma once

#include "baseline/cmos_softmax.hpp"
#include "core/accelerator.hpp"
#include "core/config.hpp"
#include "core/matmul_engine.hpp"
#include "core/pipeline.hpp"
#include "hw/report.hpp"
#include "nn/bert.hpp"

namespace star::baseline {

class ReTransformerModel {
 public:
  /// ReTransformer on the same crossbar tiles as STAR, with the compact
  /// CMOS softmax unit; `overheads` are the shared system figures.
  explicit ReTransformerModel(const core::StarConfig& cfg,
                              core::SystemOverheads overheads = {});

  [[nodiscard]] core::AttentionRunResult run_attention_layer(
      const nn::BertConfig& bert, std::int64_t seq_len) const;

  [[nodiscard]] core::StageTimes stage_times(const nn::BertConfig& bert,
                                             std::int64_t seq_len) const;

 private:
  core::StarConfig cfg_;
  core::SystemOverheads overheads_;
  core::MatmulEngine matmul_;
  CmosSoftmaxUnit softmax_;
};

}  // namespace star::baseline
