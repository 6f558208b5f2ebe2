// Top-level STAR configuration (paper §III experimental setup): what a
// design point varies. The MatMul engine's tile geometry is the paper's and
// fixed (core/matmul_engine.hpp); the softmax engine count is derived from
// the pipeline (StarAccelerator::engines_needed).
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

  /// Crossbar sharding: how many parallel shards (chiplets / banks) the
  /// MatMul engine's tile grid is partitioned into, joined by an explicit
  /// H-tree interconnect (see core/sharded_matmul.hpp). The only source of
  /// the shard count the cost model prices; 1 = the monolithic engine.
  /// Provisioning bound for serving: a request may use at most this many.
  int num_shards = 1;
  /// Operand partitioning policy used when num_shards > 1: the shape of
  /// the rk x ck shard grid (see xbar/sharded_mapper.hpp).
  xbar::ShardPolicy shard_policy = xbar::ShardPolicy::kRow;

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
