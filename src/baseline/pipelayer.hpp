// PipeLayer (Song et al., HPCA 2017) architecture model.
//
// PipeLayer is a layer-pipelined RRAM CNN accelerator retrofitted to the
// attention workload (as the paper's Fig. 3 does). Three structural
// penalties against ReTransformer/STAR:
//   1. no matrix-decomposition: the dynamic matrices (K^T, V *and* the
//      probability matrix P) must be programmed into crossbars on the
//      critical path before they can be multiplied;
//   2. spike-based input encoding: activations stream as unary spike
//      trains, multiplying the number of read passes per input vector;
//   3. softmax is a CMOS unit at operand granularity (as in ReTransformer).
// The spike pass factor and the weight replication are fixed constants of
// the model (src/baseline/pipelayer.cpp); the config varies only what STAR
// varies too.
#pragma once

#include "baseline/cmos_softmax.hpp"
#include "core/accelerator.hpp"
#include "core/config.hpp"
#include "core/matmul_engine.hpp"
#include "core/pipeline.hpp"
#include "hw/report.hpp"
#include "nn/bert.hpp"

namespace star::baseline {

class PipeLayerModel {
 public:
  /// PipeLayer on the same crossbar tiles as STAR, with the compact CMOS
  /// softmax unit; `overheads` are the shared system figures.
  explicit PipeLayerModel(const core::StarConfig& cfg,
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
