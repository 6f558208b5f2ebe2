// The attention pipeline model (paper §II end: "vector-grained pipeline").
//
// An attention layer is a five-stage row pipeline:
//   projection -> score (QK^T) -> softmax -> context (PV) -> output proj.
//
// STAR runs it at *vector* (row) granularity: row i enters softmax while
// row i+1 is still being produced. Prior accelerators run the softmax at
// *operand* granularity: softmax starts only after the full score matrix
// exists, and the context matmul only after the full probability matrix
// exists — two barriers around the softmax stage.
//
// This header turns per-row stage service times into layer makespans under
// the two disciplines, through the item-granular recurrence in src/sim
// (sim::simulate). Every stage list is a fixed-size std::array, so none of
// these functions allocates. Utilisation has one rule: a stage that serves
// `rows` rows at `service` each is busy rows x service, divided by the
// makespan of the schedule it runs in.
#pragma once

#include <array>
#include <cstddef>

#include "util/units.hpp"

namespace star::core {

/// Per-row service time of each attention stage.
struct StageTimes {
  Time proj_row{};      ///< one activation row through Wq/Wk/Wv (parallel tiles)
  Time score_row{};     ///< one query row against K^T
  Time softmax_row{};   ///< one score row through the softmax unit(s)
  Time context_row{};   ///< one probability row against V
  Time outproj_row{};   ///< one context row through Wo

  /// The five services in pipeline order.
  [[nodiscard]] std::array<Time, 5> stages() const;
  [[nodiscard]] Time max_stage() const;
  [[nodiscard]] Time sum_stages() const;
};

enum class PipelineDiscipline {
  kVectorGrained,   ///< STAR: full row-granular overlap across all stages
  kOperandGrained,  ///< prior work: barriers around the softmax stage
};

struct PipelineReport {
  Time makespan{};
  double softmax_stage_util = 0.0;  ///< rows x softmax_row / makespan
  /// rows x the slowest pipelined stage / that pipeline's makespan (under
  /// kOperandGrained: the four matmul stages, without the softmax block).
  double bottleneck_util = 0.0;
};

/// Makespan of `rows` rows through the five stages under `discipline`.
/// kVectorGrained: item-granular simulation over all five stages.
/// kOperandGrained: matmul stages stay row-pipelined (prior accelerators
/// pipeline their crossbar stages), but the softmax block is a barrier:
///   T = vector(proj, score, context, outproj) + rows * softmax_row.
/// That T is a bound favourable to the operand-grained accelerators
/// (PipeLayer, ReTransformer), not a causal schedule: it lets context row 0
/// start before the softmax block ends. A causal barrier would refill the
/// context/outproj pipeline after the block, (rows - 1) x the matmul row
/// time longer at equal stage times (8 rows: about 26.5 us instead of
/// 18.34 us). STAR's speedup over ReTransformer is measured against this
/// bound.
PipelineReport run_pipeline(const StageTimes& t, std::size_t rows,
                            PipelineDiscipline discipline);

/// Closed-form speedup of vector- over operand-grained for identical
/// service times (used by property tests; exact in the constant-service
/// case).
double analytic_speedup(const StageTimes& t, std::size_t rows);

// --- multi-layer encoder stacks -----------------------------------------
//
// A stacked encoder repeats the per-layer row pipeline N times. Each layer
// is the five attention stages followed by the two FFN matmul stripes; the
// layer model (core::EncoderModel) drains the attention block before the
// FFN starts, and the stack keeps that intra-layer structure. The stack
// disciplines differ at the LAYER boundary only:
//
//  * kVectorGrained — layer L's FFN streams output rows directly into
//    layer L+1's attention: row i of layer L+1 starts as soon as layer L
//    produces it. The composed schedule is a chain of item-granular
//    segments [attn_0] [ffn_0 + attn_1] ... [ffn_{N-2} + attn_{N-1}]
//    [ffn_{N-1}], each segment one item-granular schedule. The N layers
//    are identical hardware, so the N - 1 middle segments share one
//    makespan.
//  * kOperandGrained — a barrier between layers (prior accelerators hold
//    the full activation matrix between layers): the stack makespan is the
//    sum of N standalone layer makespans.

/// Per-row service times of one encoder layer: the five attention stages
/// plus the two position-wise FFN matmul stages (each serving one
/// activation row in `ffn_row`).
struct LayerStageTimes {
  StageTimes attention;
  Time ffn_row{};  ///< one row through either FFN stripe (W1 or W2)
};

struct StackPipelineReport {
  Time makespan{};
  double softmax_stage_util = 0.0;  ///< all layers' softmax busy / makespan
  double bottleneck_util = 0.0;     ///< peak busy fraction over all 7N stages
};

/// Makespan of `rows` rows through `num_layers` stacked copies of `layer`.
/// With a single layer both disciplines reduce to the layer's own
/// makespan: attention pipeline + FFN drain, composed exactly as
/// EncoderModel::run_encoder_layer composes latency.
StackPipelineReport run_stack_pipeline(const LayerStageTimes& layer,
                                       std::size_t num_layers, std::size_t rows,
                                       PipelineDiscipline discipline);

/// Closed-form vector- over operand-grained stack speedup for `num_layers`
/// identical layers (exact in the constant-service case, which the tests
/// cross-check against run_stack_pipeline):
///   A = sum5 + (rows-1)*max5              (one attention segment)
///   F = (rows+1)*ffn_row                  (one FFN segment)
///   M = sum5 + 2*ffn_row + (rows-1)*max(max5, ffn_row)   (steady segment)
///   speedup = N*(A+F) / (A + (N-1)*M + F)
double analytic_stack_speedup(const LayerStageTimes& t, std::size_t num_layers,
                              std::size_t rows);

}  // namespace star::core
