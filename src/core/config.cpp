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
  require(num_shards >= 1 && num_shards <= 256,
          "StarConfig: num_shards must be in [1, 256]");
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
