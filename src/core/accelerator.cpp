#include "core/accelerator.hpp"

#include <algorithm>
#include <cmath>

#include "util/math.hpp"
#include "util/status.hpp"

namespace star::core {

namespace {

/// Softmax engine replicas per head that keep a row of this latency off
/// the critical path of a pipeline paced at `proj_row`.
int engines_per_head(Time softmax_row_latency, Time proj_row) {
  return std::max(1, static_cast<int>(std::ceil(softmax_row_latency / proj_row)));
}

}  // namespace

StarAccelerator::StarAccelerator(const StarConfig& cfg, SystemOverheads overheads)
    : cfg_(cfg),
      overheads_(overheads),
      matmul_(cfg),
      softmax_(cfg),
      sharded_(matmul_, cfg, overheads.per_row_overhead) {
  cfg_.validate();
}

StageTimes StarAccelerator::stage_times(const nn::BertConfig& bert,
                                        std::int64_t seq_len) const {
  bert.validate();
  require(seq_len >= 2, "stage_times: seq_len must be >= 2");
  return stage_times_for(bert, seq_len, softmax_.row_latency(static_cast<int>(seq_len)));
}

StageTimes StarAccelerator::stage_times_for(const nn::BertConfig& bert,
                                            std::int64_t seq_len,
                                            Time softmax_row_latency) const {
  // Each stage's row service carries its own shard-local accumulation share
  // plus the inter-shard merge stream (geometry-dependent: wide-output
  // stages stream more partial-sum flits); one shard is the calibrated
  // monolithic figure for every stage.
  StageTimes t;
  t.proj_row = sharded_.row_service(bert.d_model, bert.d_model);
  t.score_row = sharded_.row_service(bert.d_head(), seq_len);
  t.context_row = sharded_.row_service(seq_len, bert.d_head());
  t.outproj_row = sharded_.row_service(bert.d_model, bert.d_model);
  t.softmax_row = softmax_row_latency /
                  static_cast<double>(engines_per_head(softmax_row_latency, t.proj_row));
  return t;
}

int StarAccelerator::engines_needed(const nn::BertConfig& bert,
                                    std::int64_t seq_len) const {
  // Paced against the projection stage's row service, as stage_times is.
  const Time mm_row = sharded_.row_service(bert.d_model, bert.d_model);
  return engines_per_head(softmax_.row_latency(static_cast<int>(seq_len)), mm_row) *
         static_cast<int>(bert.heads);
}

AttentionRunResult StarAccelerator::run_attention_layer(const nn::BertConfig& bert,
                                                        std::int64_t seq_len) const {
  bert.validate();
  require(seq_len >= 2, "run_attention_layer: seq_len must be >= 2");

  const auto counts = nn::attention_op_counts(bert, seq_len);
  // One softmax row record serves the stage times, the engine count and
  // the softmax energy.
  const SoftmaxRowStats softmax_row = softmax_.compute_row_stats(static_cast<int>(seq_len));
  const StageTimes t = stage_times_for(bert, seq_len, softmax_row.latency);

  // All heads run in parallel hardware; the layer makespan is one head's
  // row pipeline over seq_len rows.
  const PipelineReport pipe =
      run_pipeline(t, static_cast<std::size_t>(seq_len),
                   PipelineDiscipline::kVectorGrained);
  const PipelineReport operand_pipe =
      run_pipeline(t, static_cast<std::size_t>(seq_len),
                   PipelineDiscipline::kOperandGrained);

  // --- energy ---
  // Sharded stream costs: at K > 1 energy already includes the partial-sum
  // / gather link traffic. The tile count reads the same three.
  const auto proj = sharded_.stream_cost(seq_len, bert.d_model, bert.d_model, false);
  const auto score = sharded_.stream_cost(seq_len, bert.d_head(), seq_len, true);
  const auto context = sharded_.stream_cost(seq_len, seq_len, bert.d_head(), true);
  const double heads = static_cast<double>(bert.heads);

  Energy e_mm =
      proj.total.energy * 4.0 + (score.total.energy + context.total.energy) * heads;
  // Dynamic-matrix programming (K^T and V per head). STAR hides the write
  // latency under the projection phase but pays the energy.
  const Energy e_write =
      (score.total.write_energy + context.total.write_energy) * heads;
  const Energy e_softmax = softmax_row.energy * (heads * static_cast<double>(seq_len));

  AttentionRunResult res;
  res.latency = pipe.makespan;
  res.energy = e_mm + e_write + e_softmax;
  res.softmax_energy = e_softmax;
  res.write_energy = e_write;
  res.num_shards = cfg_.num_shards;
  res.interconnect_latency =
      proj.interconnect_latency * 4.0 +
      (score.interconnect_latency + context.interconnect_latency) * heads;
  res.interconnect_energy =
      proj.interconnect_energy * 4.0 +
      (score.interconnect_energy + context.interconnect_energy) * heads;
  res.softmax_block_latency = t.softmax_row * static_cast<double>(seq_len);
  res.matmul_tiles =
      4 * proj.total.tiles + bert.heads * (score.total.tiles + context.total.tiles);
  res.softmax_engines = engines_per_head(softmax_row.latency, t.proj_row) *
                        static_cast<int>(bert.heads);
  res.pipeline_speedup = operand_pipe.makespan / pipe.makespan;

  // --- power ---
  // The chip provisions weight tiles for every layer of the model.
  const std::int64_t chip_tiles = res.matmul_tiles * bert.layers;
  const Power p_static =
      matmul_.leakage_for_tiles(chip_tiles) +
      overheads_.static_per_tile * static_cast<double>(chip_tiles) +
      softmax_.leakage() * static_cast<double>(res.softmax_engines);
  res.power = res.energy / res.latency + p_static;

  res.report.engine_name = "STAR";
  res.report.total_ops = counts.total_ops();
  res.report.latency = res.latency;
  res.report.energy = res.energy;
  res.report.avg_power = res.power;
  return res;
}

}  // namespace star::core
