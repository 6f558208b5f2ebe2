#include "core/encoder_model.hpp"

#include <algorithm>

#include "core/weight_images.hpp"
#include "hw/gates.hpp"
#include "nn/opcount.hpp"
#include "util/status.hpp"

namespace star::core {

EncoderModel::EncoderModel(const StarConfig& cfg) : accel_(cfg) {}

LayerStageTimes EncoderModel::layer_stage_times(const nn::BertConfig& bert,
                                                std::int64_t seq_len) const {
  LayerStageTimes t;
  t.attention = accel_.stage_times(bert, seq_len);
  // The two FFN stripes row-pipeline against each other; the slower
  // sharded stripe (typically the d_ff-wide output of W1) paces the stage.
  const ShardedMatmulEngine& sharded = accel_.sharded_matmul();
  t.ffn_row = std::max(sharded.row_service(bert.d_model, bert.d_ff),
                       sharded.row_service(bert.d_ff, bert.d_model));
  return t;
}

hw::ProgramCost EncoderModel::charge_residency(const nn::BertConfig& bert,
                                               xbar::ResidencyManager& residency,
                                               workload::Dataset dataset,
                                               std::int64_t layer_id) const {
  require(layer_id >= 0, "charge_residency: layer_id must be >= 0");
  // One key per static weight matrix, in the shared per-layer namespace of
  // core/weight_images.hpp. The dynamic score / context matrices are NOT
  // residency-managed: they are fresh per inference and stream_cost already
  // charges their writes every run. Miss bills are priced lazily — a warm
  // run partitions/sizes nothing.
  const ShardedMatmulEngine& matmul = accel_.sharded_matmul();
  hw::ProgramCost charged;
  for (const LayerWeightImage& w : layer_weight_images(bert)) {
    charged += residency
                   .acquire(layer_weight_key(layer_id, w.slot),
                            [&] { return matmul.weight_image_cost(w.m, w.n); })
                   .charged;
  }
  const StarConfig& cfg = accel_.config();
  const fxp::QFormat& fmt = workload::format_for(dataset, cfg.softmax_format);
  charged +=
      residency
          .acquire(xbar::lut_image_key(fmt),
                   [&] { return SoftmaxEngine::preload_cost_for(cfg, fmt); })
          .charged;
  return charged;
}

EncoderRunResult EncoderModel::compute_layer(const nn::BertConfig& bert,
                                             std::int64_t seq_len) const {
  EncoderRunResult res;
  res.attention = accel_.run_attention_layer(bert, seq_len);

  // FFN: two static matmuls (d_model x d_ff and d_ff x d_model) streamed at
  // the same row rate; both stripes pipeline behind the attention block, so
  // the FFN adds its own row-pipelined makespan.
  const ShardedMatmulEngine& matmul = accel_.sharded_matmul();
  const auto ff1 = matmul.stream_cost(seq_len, bert.d_model, bert.d_ff, false);
  const auto ff2 = matmul.stream_cost(seq_len, bert.d_ff, bert.d_model, false);
  const Time ffn_row = layer_stage_times(bert, seq_len).ffn_row;
  // The two FFN matmuls row-pipeline against each other: one fill plus
  // seq_len rows at the bottleneck rate.
  res.ffn_latency = ffn_row * static_cast<double>(seq_len + 1);
  res.ffn_energy = ff1.total.energy + ff2.total.energy;
  res.interconnect_latency = res.attention.interconnect_latency +
                             ff1.interconnect_latency + ff2.interconnect_latency;
  res.interconnect_energy = res.attention.interconnect_energy +
                            ff1.interconnect_energy + ff2.interconnect_energy;

  // Digital vector unit: 2 layernorms (5 ops/elem) + GELU (4 ops/elem) over
  // L x d_model, plus GELU over L x d_ff, at ~0.5 pJ/op (32 nm datapath).
  const double vec_ops =
      static_cast<double>(seq_len) *
      (static_cast<double>(bert.d_model) * (2.0 * 5.0 + 4.0) +
       static_cast<double>(bert.d_ff) * 4.0);
  res.vector_unit_energy = Energy::pJ(0.5 * vec_ops);

  res.latency = res.attention.latency + res.ffn_latency;
  res.energy = res.attention.energy + res.ffn_energy + res.vector_unit_energy;
  res.attention_time_share = res.attention.latency / res.latency;

  // Power: attention-phase power plus the FFN tiles' share. The FFN tiles
  // are part of the same provisioned chip, so static power carries over;
  // only the dynamic component changes between phases.
  const auto counts = nn::attention_op_counts(bert, seq_len);
  const double ffn_ops = 2.0 * nn::ffn_macs(bert, seq_len);
  const Power p_static = res.attention.power - res.attention.energy / res.attention.latency;
  res.power = res.energy / res.latency + p_static +
              // FFN tiles (1152 for BERT-base) add their own static share,
              // provisioned for every layer.
              accel_.overheads().static_per_tile *
                  static_cast<double>((ff1.total.tiles + ff2.total.tiles) * bert.layers);

  res.report.engine_name = "STAR (full encoder layer)";
  res.report.total_ops = counts.total_ops() + ffn_ops + vec_ops;
  res.report.latency = res.latency;
  res.report.energy = res.energy;
  res.report.avg_power = res.power;
  return res;
}

EncoderRunResult EncoderModel::run_encoder_layer(const nn::BertConfig& bert,
                                                 std::int64_t seq_len,
                                                 xbar::ResidencyManager* residency,
                                                 workload::Dataset dataset,
                                                 std::int64_t layer_id) const {
  bert.validate();
  require(seq_len >= 2, "EncoderModel: seq_len must be >= 2");

  // Residency first: its acquire side effects (installs and the hit/miss
  // ledger) belong to this request, before the compute is priced.
  hw::ProgramCost charged;
  if (residency != nullptr) {
    charged = charge_residency(bert, *residency, dataset, layer_id);
  }
  EncoderRunResult res = compute_layer(bert, seq_len);

  // Compose the programming charge AFTER the pure steady-state record —
  // the same additions in the same order as the historical single-pass
  // computation, so a warm cache (charged == 0) leaves the result
  // bit-identical to the legacy call. Power and attention_time_share stay
  // compute-phase quantities by design.
  if (residency != nullptr) {
    res.programming_latency = charged.latency;
    res.programming_energy = charged.energy;
    res.latency += charged.latency;
    res.energy += charged.energy;
    res.report.latency = res.latency;
    res.report.energy = res.energy;
  }
  return res;
}

}  // namespace star::core
