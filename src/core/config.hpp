// Top-level STAR configuration (paper §III experimental setup).
#pragma once

#include "fxp/qformat.hpp"
#include "hw/tech.hpp"
#include "xbar/device.hpp"
#include "xbar/sharded_mapper.hpp"

namespace star::core {

struct StarConfig {
  hw::TechNode tech = hw::TechNode::n32();
  xbar::RramDevice device = xbar::RramDevice::ideal(2);

  /// Softmax operand format. Default: the paper's 9-bit MRPC format, the
  /// widest of the three datasets (the engine geometry is sized for it:
  /// CAM/SUB 512x18, CAM/LUT/VMM 256x18).
  fxp::QFormat softmax_format = fxp::kMrpcFormat;

  /// MatMul engine geometry (paper: 128x128 crossbars, 5-bit ADC,
  /// "by referring to [ReTransformer]").
  int matmul_rows = 128;
  int matmul_cols = 128;
  int matmul_adc_bits = 5;
  int matmul_input_bits = 8;
  int matmul_weight_bits = 8;

  /// Crossbar sharding: how many parallel shards (chiplets / banks) the
  /// MatMul engine's tile grid is partitioned into, joined by an explicit
  /// H-tree interconnect (see core/sharded_matmul.hpp). 1 = the monolithic
  /// engine; every sharded path is bit-identical to the legacy model then.
  /// Provisioning bound for serving: a request may use at most this many.
  int num_shards = 1;
  /// Operand partitioning policy used when num_shards > 1.
  xbar::ShardPolicy shard_policy = xbar::ShardPolicy::kRow;

  /// Number of softmax engine replicas the accelerator instantiates so the
  /// softmax stage keeps pace with the MatMul engine in the vector-grained
  /// pipeline (each replica is tiny; see Table I).
  int softmax_engines = 6;

  /// Maximum sequence length the counters must support.
  int max_seq_len = 1024;

  /// Fault injection: probability that a CAM matchline fails to rise on a
  /// search (0 = fault-free). Exercises the engine's graceful-degradation
  /// path (missed values read as underflowed exponentials).
  double cam_miss_prob = 0.0;

  /// Device residency (xbar::ResidencyManager): how many programmed images
  /// (weight matrices + CAM/LUT table sets) the fabric holds at once before
  /// LRU eviction. 0 = unbounded — the legacy assumption that everything
  /// ever touched stays resident, which keeps steady-state single-dataset
  /// runs bit-identical to the pre-residency model.
  int residency_capacity = 0;

  void validate() const;
  /// validate(), then *this: lets an engine check the config in its first
  /// member initialiser, before any later member sizes hardware from it.
  [[nodiscard]] const StarConfig& validated() const;
};

}  // namespace star::core
