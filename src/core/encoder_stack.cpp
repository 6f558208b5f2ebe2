#include "core/encoder_stack.hpp"

#include <string>

#include "util/status.hpp"

namespace star::core {

EncoderStackModel::EncoderStackModel(const StarConfig& cfg) : layer_(cfg) {}

EncoderStackResult EncoderStackModel::run_encoder_stack(
    const nn::BertConfig& bert, std::int64_t seq_len, std::int64_t num_layers,
    xbar::ResidencyManager* residency, workload::Dataset dataset) const {
  bert.validate();
  if (num_layers == 0) {
    num_layers = bert.layers;
  }
  require(num_layers >= 1, "run_encoder_stack: num_layers must be >= 1");

  EncoderStackResult res;
  res.num_layers = num_layers;
  res.layer = layer_.run_encoder_layer(bert, seq_len);

  const auto n = static_cast<std::size_t>(num_layers);
  const LayerStageTimes times = layer_.layer_stage_times(bert, seq_len);
  const std::size_t rows = static_cast<std::size_t>(seq_len);
  const auto vec =
      run_stack_pipeline(times, n, rows, PipelineDiscipline::kVectorGrained);
  const auto op =
      run_stack_pipeline(times, n, rows, PipelineDiscipline::kOperandGrained);

  res.latency = vec.makespan;
  res.operand_latency = op.makespan;
  res.stack_speedup = op.makespan / vec.makespan;
  res.analytic_stack_speedup = analytic_stack_speedup(times, n, rows);
  res.softmax_stage_util = vec.softmax_stage_util;

  res.energy = res.layer.energy * static_cast<double>(num_layers);
  // Static power is unchanged — the chip provisions every layer's weight
  // tiles whether one or N layers are streaming — so only the dynamic
  // (energy / makespan) component recomposes. N = 1 keeps the layer's own
  // power verbatim: the extract-and-re-add below is FP-exact only then.
  res.power = num_layers == 1
                  ? res.layer.power
                  : res.energy / res.latency +
                        (res.layer.power - res.layer.energy / res.layer.latency);

  // Cold weight uploads serialise before the stack can stream (one write
  // port per shard, layers programmed back to back); a warm cache charges
  // exactly zero and every figure above is untouched.
  if (residency != nullptr) {
    hw::ProgramCost charged;
    for (std::int64_t l = 0; l < num_layers; ++l) {
      charged += layer_.charge_residency(bert, *residency, dataset, l);
    }
    res.programming_latency = charged.latency;
    res.programming_energy = charged.energy;
    res.latency += charged.latency;
    res.energy += charged.energy;
  }

  res.report.engine_name =
      "STAR (" + std::to_string(num_layers) + "-layer encoder stack)";
  res.report.total_ops =
      res.layer.report.total_ops * static_cast<double>(num_layers);
  res.report.latency = res.latency;
  res.report.energy = res.energy;
  res.report.avg_power = res.power;
  return res;
}

}  // namespace star::core
