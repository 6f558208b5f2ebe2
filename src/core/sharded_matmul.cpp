#include "core/sharded_matmul.hpp"

#include <algorithm>
#include <cmath>

#include "hw/interconnect.hpp"
#include "util/math.hpp"
#include "util/status.hpp"

namespace star::core {

namespace {

/// The inter-shard H-tree: K leaf "macro tiles", each a shard spanning
/// ~tiles_per_shard crossbar tiles, so the leaf pitch scales with the
/// shard's own extent.
hw::HTree inter_shard_tree(const hw::TechNode& tech, int num_shards,
                           std::int64_t tiles_per_shard) {
  const double shard_extent =
      std::sqrt(static_cast<double>(std::max<std::int64_t>(tiles_per_shard, 1)));
  return hw::HTree(tech, num_shards, ShardedMatmulEngine::kBusBits,
                   shard_extent * ShardedMatmulEngine::kTilePitchUm);
}

/// Flits one hop of `width` partial-sum words occupies on a link.
std::int64_t flits_for(std::int64_t width) {
  return ceil_div(width * ShardedMatmulEngine::kAccBits, ShardedMatmulEngine::kBusBits);
}

}  // namespace

ShardedMatmulEngine::ShardedMatmulEngine(const MatmulEngine& base,
                                         const StarConfig& cfg,
                                         Time per_row_overhead)
    : base_(&base),
      cfg_(cfg.validated()),
      shards_(cfg.num_shards, cfg.shard_policy),
      per_row_overhead_(per_row_overhead) {}

Time ShardedMatmulEngine::local_row_overhead(std::int64_t m, std::int64_t n) const {
  // The calibrated monolithic overhead prices the accumulation network of a
  // T-tile grid; a shard's local network spans ~T/K tiles. Scale by the
  // structural HTree WIRE-flight ratio: the steady-state per-row rate is
  // paced by the wire RC across the tree's extent, while the per-level
  // registers pipeline (they are charged once, in the merge fill). The
  // ratio is < 1 whenever the shard tree is genuinely smaller and exactly
  // 1 for single-tile grids — no free lunch from sharding a 1-tile matmul.
  const std::int64_t grid_tiles = base_->mapper().grid_for(m, n).total();
  const std::int64_t shard_tiles = ceil_div(grid_tiles, cfg_.num_shards);
  const hw::HTree local(cfg_.tech, static_cast<int>(shard_tiles), kBusBits);
  const hw::HTree mono(cfg_.tech, static_cast<int>(grid_tiles), kBusBits);
  const double ratio = local.wire_latency() / mono.wire_latency();
  return per_row_overhead_ * ratio;
}

Time ShardedMatmulEngine::link_row_time(std::int64_t m, std::int64_t n) const {
  // Tree links run in parallel and the reduce levels pipeline at flit
  // granularity, so one row occupies the merge for its widest hop's flits.
  return cfg_.tech.clock_period() *
         static_cast<double>(flits_for(shards_.plan_for(m, n).max_hop_width()));
}

hw::ProgramCost ShardedMatmulEngine::weight_image_cost(std::int64_t m,
                                                       std::int64_t n) const {
  if (cfg_.num_shards == 1) {
    // Delegate, don't recompute: the K = 1 bill is the monolithic one.
    return base_->weight_image_cost(m, n);
  }
  hw::ProgramCost pc;
  shards_.plan_for(m, n).for_each_slice([&](std::int64_t sm, std::int64_t sn) {
    pc = pc.parallel_with(base_->mapper().weight_program_cost(sm, sn, cfg_.device));
  });
  return pc;
}

// STAR_HOT
Time ShardedMatmulEngine::row_service(std::int64_t m, std::int64_t n) const {
  if (cfg_.num_shards == 1) {
    // The monolithic stage-time expression, bit-identical.
    return base_->tile_latency() + per_row_overhead_;
  }
  return base_->tile_latency() + local_row_overhead(m, n) + link_row_time(m, n);
}

// STAR_HOT
ShardedMatmulCost ShardedMatmulEngine::stream_cost(std::int64_t b, std::int64_t m,
                                                   std::int64_t n,
                                                   bool dynamic_matrix) const {
  require(b >= 1 && m >= 1 && n >= 1,
          "ShardedMatmulEngine::stream_cost: dims must be >= 1");
  ShardedMatmulCost out;
  if (cfg_.num_shards == 1) {
    // Delegate, don't recompute: K = 1 is the unsharded path by construction.
    out.total = base_->stream_cost(b, m, n, dynamic_matrix);
    return out;
  }

  const xbar::ShardPlan plan = shards_.plan_for(m, n);
  MatmulCost& total = out.total;
  Time max_shard_compute{};
  plan.for_each_slice([&](std::int64_t sm, std::int64_t sn) {
    const MatmulCost c = base_->stream_cost(b, sm, sn, dynamic_matrix);
    total.tiles += c.tiles;
    total.tile_ops += c.tile_ops;
    total.macs += c.macs;
    total.energy += c.energy;
    total.write_energy += c.write_energy;
    max_shard_compute = std::max(max_shard_compute, c.latency);
    total.write_latency = std::max(total.write_latency, c.write_latency);
    total.row_service = std::max(total.row_service, c.row_service);
  });

  // --- interconnect ---
  const std::int64_t grid_tiles = base_->mapper().grid_for(m, n).total();
  const hw::HTree tree = inter_shard_tree(cfg_.tech, cfg_.num_shards,
                                          ceil_div(grid_tiles, cfg_.num_shards));
  // Fill: one root-to-leaf traversal per merge level, paid once; steady
  // state streams each row's widest hop at one flit per clock.
  const Time fill = tree.traversal_latency() * static_cast<double>(plan.merge_levels);
  const Time stream = cfg_.tech.clock_period() *
                      static_cast<double>(flits_for(plan.max_hop_width())) *
                      static_cast<double>(b);
  out.interconnect_latency = fill + stream;
  // Traffic: every hop's words cross one tree link per input row.
  std::int64_t traffic_flits = 0;
  plan.for_each_hop_width([&](std::int64_t w) { traffic_flits += flits_for(w); });
  out.interconnect_energy =
      tree.flit_energy() * static_cast<double>(traffic_flits) * static_cast<double>(b);

  total.latency = max_shard_compute + out.interconnect_latency;
  total.energy += out.interconnect_energy;
  return out;
}

}  // namespace star::core
