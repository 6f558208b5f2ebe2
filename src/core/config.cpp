#include "core/config.hpp"

#include "util/status.hpp"

namespace star::core {

void StarConfig::validate() const {
  softmax_format.validate();
  require(!softmax_format.is_signed,
          "StarConfig: softmax operands are unsigned magnitudes (sign removed)");
  require(softmax_format.total_bits() >= 4 && softmax_format.total_bits() <= 12,
          "StarConfig: softmax format must be 4..12 bits total");
  device.validate();
  require(matmul_rows >= 1 && matmul_cols >= 1, "StarConfig: matmul dims must be >= 1");
  require(matmul_adc_bits >= 1 && matmul_adc_bits <= 12,
          "StarConfig: matmul_adc_bits in [1, 12]");
  require(matmul_input_bits >= 1 && matmul_input_bits <= 16,
          "StarConfig: matmul_input_bits in [1, 16]");
  require(matmul_weight_bits >= 1 && matmul_weight_bits <= 16,
          "StarConfig: matmul_weight_bits in [1, 16]");
  require(num_shards >= 1 && num_shards <= 256,
          "StarConfig: num_shards must be in [1, 256]");
  require(softmax_engines >= 1, "StarConfig: at least one softmax engine");
  require(max_seq_len >= 2, "StarConfig: max_seq_len must be >= 2");
  require(cam_miss_prob >= 0.0 && cam_miss_prob < 1.0,
          "StarConfig: cam_miss_prob must be in [0, 1)");
  require(residency_capacity >= 0,
          "StarConfig: residency_capacity must be >= 0 (0 = unbounded)");
}

const StarConfig& StarConfig::validated() const {
  validate();
  return *this;
}

}  // namespace star::core
