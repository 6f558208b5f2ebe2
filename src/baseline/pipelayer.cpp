#include "baseline/pipelayer.hpp"

#include "util/status.hpp"

namespace star::baseline {

namespace {

/// Read-pass multiplier of the spike encoding relative to bit-serial
/// binary inputs (unary coding of b-bit values needs 2^b/b more passes;
/// PipeLayer's hybrid coding lands far below that worst case).
constexpr double kSpikePassFactor = 3.25;
/// PipeLayer duplicates weight arrays across pipeline stages to sustain
/// its intra-layer parallelism (a headline design choice of the paper),
/// which multiplies the provisioned tile count and hence static power.
constexpr std::int64_t kWeightReplication = 2;

}  // namespace

PipeLayerModel::PipeLayerModel(const core::StarConfig& cfg,
                               core::SystemOverheads overheads)
    : cfg_(cfg),
      overheads_(overheads),
      matmul_(cfg),
      softmax_(cfg.tech, compact_cmos_softmax()) {
  cfg_.validate();
}

core::StageTimes PipeLayerModel::stage_times(const nn::BertConfig& bert,
                                             std::int64_t seq_len) const {
  bert.validate();
  require(seq_len >= 2, "PipeLayerModel::stage_times: seq_len must be >= 2");
  (void)bert;
  const Time mm_row = matmul_.tile_latency() * kSpikePassFactor +
                      overheads_.per_row_overhead;
  core::StageTimes t;
  t.proj_row = mm_row;
  t.score_row = mm_row;
  t.softmax_row = softmax_.row_latency(static_cast<int>(seq_len));
  t.context_row = mm_row;
  t.outproj_row = mm_row;
  return t;
}

core::AttentionRunResult PipeLayerModel::run_attention_layer(
    const nn::BertConfig& bert, std::int64_t seq_len) const {
  bert.validate();
  require(seq_len >= 2, "PipeLayerModel: seq_len must be >= 2");

  const auto counts = nn::attention_op_counts(bert, seq_len);
  const core::StageTimes t = stage_times(bert, seq_len);

  const core::PipelineReport pipe = core::run_pipeline(
      t, static_cast<std::size_t>(seq_len), core::PipelineDiscipline::kOperandGrained);

  const auto proj = matmul_.stream_cost(seq_len, bert.d_model, bert.d_model, false);
  const auto score = matmul_.stream_cost(seq_len, bert.d_head(), seq_len, true);
  const auto context = matmul_.stream_cost(seq_len, seq_len, bert.d_head(), true);
  const double heads = static_cast<double>(bert.heads);

  // The probability matrix P (seq_len x seq_len) must also be programmed
  // before the context multiply: PipeLayer's dataflow keeps one operand of
  // every matmul resident in RRAM.
  const auto p_write = matmul_.stream_cost(seq_len, seq_len, bert.d_head(), true);

  // Spike encoding multiplies read passes, hence read energy.
  const Energy e_mm = (proj.energy * 4.0 + (score.energy + context.energy) * heads) *
                      kSpikePassFactor;
  const Energy e_write =
      (score.write_energy + context.write_energy + p_write.write_energy) * heads;
  const Energy e_softmax = softmax_.row_energy(static_cast<int>(seq_len)) *
                           (heads * static_cast<double>(seq_len));

  // Writes sit on the critical path: K^T/V before the score/context
  // streams, P between softmax and context.
  const Time write_stalls =
      score.write_latency + context.write_latency + p_write.write_latency;

  core::AttentionRunResult res;
  res.latency = pipe.makespan + write_stalls;
  res.energy = e_mm + e_write + e_softmax;
  res.softmax_energy = e_softmax;
  res.write_energy = e_write;
  res.softmax_block_latency = t.softmax_row * static_cast<double>(seq_len);
  res.matmul_tiles =
      4 * proj.tiles + bert.heads * (score.tiles + context.tiles + p_write.tiles);
  res.softmax_engines = 1;
  res.pipeline_speedup = 1.0;

  const std::int64_t chip_tiles = res.matmul_tiles * bert.layers * kWeightReplication;
  const Power p_static =
      matmul_.leakage_for_tiles(chip_tiles) +
      overheads_.static_per_tile * static_cast<double>(chip_tiles) +
      softmax_.leakage() * static_cast<double>(bert.heads);
  res.power = res.energy / res.latency + p_static;

  res.report.engine_name = "PipeLayer";
  res.report.total_ops = counts.total_ops();
  res.report.latency = res.latency;
  res.report.energy = res.energy;
  res.report.avg_power = res.power;
  return res;
}

}  // namespace star::baseline
