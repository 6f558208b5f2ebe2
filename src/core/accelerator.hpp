// STAR accelerator top-level model: MatMul engine + replicated softmax
// engines + the vector-grained global pipeline, evaluated on the BERT-base
// attention workload (paper §III / Fig. 3).
//
// Every matmul cost and stage row time comes from one ShardedMatmulEngine
// at the config's shard count and policy; the model has no shard-count
// branch of its own. An uncached evaluation allocates nothing
// (DesignPointAllocations.UncachedEvaluationAllocatesNothing).
#pragma once

#include <memory>

#include "core/config.hpp"
#include "core/matmul_engine.hpp"
#include "core/pipeline.hpp"
#include "core/sharded_matmul.hpp"
#include "core/softmax_engine.hpp"
#include "hw/report.hpp"
#include "nn/bert.hpp"
#include "nn/opcount.hpp"

namespace star::core {

/// System-level overheads shared by every crossbar accelerator model in the
/// comparison (STAR, ReTransformer, PipeLayer). Structural differences
/// between the architectures live in their schedules, not here.
struct SystemOverheads {
  /// Extra per-row time for inter-tile accumulation, H-tree traversal and
  /// buffer staging on top of the raw tile latency.
  // calibrated: absolute Fig. 3 scale (see DESIGN.md §4.3).
  Time per_row_overhead = Time::ns(800.0);

  /// Static power per instantiated tile (clock distribution, control,
  /// buffer retention) on top of modelled leakage.
  // calibrated: absolute Fig. 3 scale.
  /// The chip provisions weight tiles for every layer of the model (weights
  /// are resident in RRAM, the whole point of PIM), so static power scales
  /// with the full-model tile count even when one layer is being measured.
  Power static_per_tile = Power::uW(875.0);
};

/// Everything the Fig. 3 comparison needs from one run.
struct AttentionRunResult {
  hw::RunReport report;
  Time latency{};
  Energy energy{};
  Power power{};
  // Breakdown
  Time softmax_block_latency{};   ///< softmax stage contribution
  Energy softmax_energy{};
  Energy write_energy{};
  std::int64_t matmul_tiles = 0;  ///< tiles one layer's attention block
                                  ///< instantiates (projections + every
                                  ///< head's score/context tiles)
  int softmax_engines = 0;
  double pipeline_speedup = 1.0;  ///< vector- vs operand-grained, same HW
  // Crossbar sharding (one shard: num_shards 1, zero interconnect).
  int num_shards = 1;
  Time interconnect_latency{};    ///< inter-shard merge time, whole layer
  Energy interconnect_energy{};   ///< partial-sum / gather link traffic
};

class StarAccelerator {
 public:
  StarAccelerator(const StarConfig& cfg, SystemOverheads overheads = {});

  // sharded_ points at matmul_, so a memberwise copy would alias the
  // source accelerator's engine; the model is "one shared engine pair" —
  // construct in place, never copy.
  StarAccelerator(const StarAccelerator&) = delete;
  StarAccelerator& operator=(const StarAccelerator&) = delete;

  /// Model one BERT attention layer at sequence length `seq_len` and report
  /// latency / energy / power / GOPs/s/W.
  [[nodiscard]] AttentionRunResult run_attention_layer(const nn::BertConfig& bert,
                                                       std::int64_t seq_len) const;

  /// The per-row stage times the pipeline sees (exposed for the ablation
  /// bench, which flips the discipline on identical hardware).
  [[nodiscard]] StageTimes stage_times(const nn::BertConfig& bert,
                                       std::int64_t seq_len) const;

  [[nodiscard]] MatmulEngine& matmul_engine() { return matmul_; }
  [[nodiscard]] const MatmulEngine& matmul_engine() const { return matmul_; }
  /// The sharded composition layer over matmul_engine(), at the config's
  /// shard count and policy: every matmul cost the model reads comes from it.
  [[nodiscard]] const ShardedMatmulEngine& sharded_matmul() const { return sharded_; }
  /// The softmax engines' cost figures. The analytic model reads nothing
  /// else of the engine, so it builds no functional table.
  [[nodiscard]] const SoftmaxCosts& softmax_costs() const { return softmax_; }
  [[nodiscard]] const StarConfig& config() const { return cfg_; }
  [[nodiscard]] const SystemOverheads& overheads() const { return overheads_; }

  /// Softmax engine replicas needed to keep the softmax stage off the
  /// critical path at this sequence length.
  [[nodiscard]] int engines_needed(const nn::BertConfig& bert,
                                   std::int64_t seq_len) const;

 private:
  /// stage_times() once its arguments are checked, given the softmax row
  /// latency at seq_len.
  [[nodiscard]] StageTimes stage_times_for(const nn::BertConfig& bert,
                                           std::int64_t seq_len,
                                           Time softmax_row_latency) const;

  StarConfig cfg_;
  SystemOverheads overheads_;
  MatmulEngine matmul_;
  SoftmaxCosts softmax_;
  ShardedMatmulEngine sharded_;  ///< references matmul_; declared after it
};

}  // namespace star::core
