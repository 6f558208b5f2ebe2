// Multi-layer pipelined encoder stacks.
//
// Real BERT-class workloads run 12-24 stacked encoder layers; the paper's
// vector-grained pipeline is modelled for one. This model chains N
// EncoderModel layers through the vector-grained pipeline: row i of layer
// L+1 starts as soon as layer L produces it (layer L's FFN stripes stream
// rows directly into layer L+1's projections), versus the operand-grained
// baseline that holds the full activation matrix at every layer boundary.
// The per-layer model is EncoderModel::run_encoder_layer unchanged, so an
// N = 1 stack is bit-identical to a single-layer run (invariant locked in
// tests/test_encoder_stack.cpp).
#pragma once

#include "core/encoder_model.hpp"
#include "core/pipeline.hpp"

namespace star::core {

struct EncoderStackResult {
  hw::RunReport report;
  std::int64_t num_layers = 1;
  /// One layer's full record (layers are identical hardware, so this is
  /// also the per-layer latency/energy breakdown). Bit-identical to
  /// EncoderModel::run_encoder_layer for every N.
  EncoderRunResult layer;

  Time latency{};           ///< vector-grained stack makespan
  Time operand_latency{};   ///< barrier-between-layers baseline makespan
  double stack_speedup = 1.0;          ///< operand_latency / latency
  double analytic_stack_speedup = 1.0; ///< constant-service closed form
  double softmax_stage_util = 0.0;     ///< softmax busy share of the stack
  Energy energy{};          ///< num_layers * layer.energy
  Power power{};            ///< same provisioned chip, deeper pipeline
  // Device residency across the whole stack (zero without a manager or
  // with a warm cache): cold weight uploads for every layer plus the
  // dataset's LUT image, included in latency/energy above. `layer` stays
  // the pure steady-state per-layer record.
  Time programming_latency{};
  Energy programming_energy{};
};

/// Chains N identical encoder layers through the stack-level pipeline
/// schedule (see core/pipeline.hpp for the composition and the closed
/// form). Latency overlaps across layer boundaries; energy adds linearly;
/// static power is unchanged because the chip already provisions weight
/// tiles for every layer.
class EncoderStackModel {
 public:
  explicit EncoderStackModel(const StarConfig& cfg);

  /// `num_layers` = 0 uses bert.layers (the model's nominal depth).
  /// `residency` (optional) charges cold weight-upload / LUT-image
  /// programming for each of the N layers (layer_id = 0..N-1) before the
  /// stack streams; a warm cache charges nothing and the result is
  /// bit-identical to the legacy call (see EncoderModel::run_encoder_layer).
  /// Each call computes the per-layer record (`result.layer`) once and
  /// composes the stack from it: one LayerStageTimes streamed N times
  /// through run_stack_pipeline, plus the residency charges.
  [[nodiscard]] EncoderStackResult run_encoder_stack(
      const nn::BertConfig& bert, std::int64_t seq_len,
      std::int64_t num_layers = 0, xbar::ResidencyManager* residency = nullptr,
      workload::Dataset dataset = workload::Dataset::kDefault) const;

 private:
  EncoderModel layer_;
};

}  // namespace star::core
