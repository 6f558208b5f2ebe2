#include "baseline/gpu_model.hpp"

#include "util/status.hpp"

namespace star::baseline {

double GpuLayerTiming::softmax_share() const {
  const double mm = matmul.as_s();
  const double sm = softmax.as_s();
  return (mm + sm) > 0.0 ? sm / (mm + sm) : 0.0;
}

GpuModel::GpuModel(GpuModelConfig cfg) : cfg_(cfg) {
  require(cfg.matmul_tflops > 0.0 && cfg.softmax_gops > 0.0,
          "GpuModel: throughputs must be positive");
  require(cfg.board_power.as_W() > 0.0, "GpuModel: board power must be positive");
}

GpuLayerTiming GpuModel::attention_layer_timing(const nn::BertConfig& bert,
                                                std::int64_t seq_len) const {
  const auto counts = nn::attention_op_counts(bert, seq_len);
  GpuLayerTiming t;
  t.matmul = Time::s(counts.matmul_ops() / (cfg_.matmul_tflops * 1e12));
  t.softmax = Time::s(counts.softmax_ops() / (cfg_.softmax_gops * 1e9));
  t.overhead = cfg_.layer_overhead;
  return t;
}

hw::RunReport GpuModel::run_attention_layer(const nn::BertConfig& bert,
                                            std::int64_t seq_len) const {
  const auto counts = nn::attention_op_counts(bert, seq_len);
  const auto timing = attention_layer_timing(bert, seq_len);
  hw::RunReport rep;
  rep.engine_name = "GPU (Titan RTX)";
  rep.total_ops = counts.total_ops();
  rep.latency = timing.total();
  rep.avg_power = cfg_.board_power;
  rep.energy = rep.avg_power * rep.latency;
  return rep;
}

}  // namespace star::baseline
