#include "baseline/retransformer.hpp"

#include "util/status.hpp"

namespace star::baseline {

ReTransformerModel::ReTransformerModel(const core::StarConfig& cfg,
                                       core::SystemOverheads overheads)
    : cfg_(cfg),
      overheads_(overheads),
      matmul_(cfg),
      softmax_(cfg.tech, compact_cmos_softmax()) {
  cfg_.validate();
}

core::StageTimes ReTransformerModel::stage_times(const nn::BertConfig& bert,
                                                 std::int64_t seq_len) const {
  bert.validate();
  require(seq_len >= 2, "ReTransformerModel::stage_times: seq_len must be >= 2");
  (void)bert;
  const Time mm_row = matmul_.tile_latency() + overheads_.per_row_overhead;
  core::StageTimes t;
  t.proj_row = mm_row;
  t.score_row = mm_row;
  t.softmax_row = softmax_.row_latency(static_cast<int>(seq_len));
  t.context_row = mm_row;
  t.outproj_row = mm_row;
  return t;
}

core::AttentionRunResult ReTransformerModel::run_attention_layer(
    const nn::BertConfig& bert, std::int64_t seq_len) const {
  bert.validate();
  require(seq_len >= 2, "ReTransformerModel: seq_len must be >= 2");

  const auto counts = nn::attention_op_counts(bert, seq_len);
  const core::StageTimes t = stage_times(bert, seq_len);

  // Operand-grained: the softmax block is a barrier around the pipelined
  // matmul stages (ReTransformer's own sub-matrix pipeline covers those).
  const core::PipelineReport pipe = core::run_pipeline(
      t, static_cast<std::size_t>(seq_len), core::PipelineDiscipline::kOperandGrained);
  const core::PipelineReport vector_pipe = core::run_pipeline(
      t, static_cast<std::size_t>(seq_len), core::PipelineDiscipline::kVectorGrained);

  const auto proj = matmul_.stream_cost(seq_len, bert.d_model, bert.d_model, false);
  const auto score = matmul_.stream_cost(seq_len, bert.d_head(), seq_len, true);
  const auto context = matmul_.stream_cost(seq_len, seq_len, bert.d_head(), true);
  const double heads = static_cast<double>(bert.heads);

  const Energy e_mm = proj.energy * 4.0 + (score.energy + context.energy) * heads;
  // Matrix decomposition keeps the writes off the critical path but the
  // energy is still spent.
  const Energy e_write = (score.write_energy + context.write_energy) * heads;
  const Energy e_softmax = softmax_.row_energy(static_cast<int>(seq_len)) *
                           (heads * static_cast<double>(seq_len));

  core::AttentionRunResult res;
  res.latency = pipe.makespan;
  res.energy = e_mm + e_write + e_softmax;
  res.softmax_energy = e_softmax;
  res.write_energy = e_write;
  res.softmax_block_latency = t.softmax_row * static_cast<double>(seq_len);
  res.matmul_tiles =
      4 * proj.tiles + bert.heads * (score.tiles + context.tiles);
  res.softmax_engines = 1;  // one CMOS softmax unit per head pipeline
  res.pipeline_speedup = pipe.makespan / vector_pipe.makespan;

  // The chip provisions weight tiles for every layer of the model.
  const std::int64_t chip_tiles = res.matmul_tiles * bert.layers;
  const Power p_static =
      matmul_.leakage_for_tiles(chip_tiles) +
      overheads_.static_per_tile * static_cast<double>(chip_tiles) +
      softmax_.leakage() * static_cast<double>(bert.heads);
  res.power = res.energy / res.latency + p_static;

  res.report.engine_name = "ReTransformer";
  res.report.total_ops = counts.total_ops();
  res.report.latency = res.latency;
  res.report.energy = res.energy;
  res.report.avg_power = res.power;
  return res;
}

}  // namespace star::baseline
