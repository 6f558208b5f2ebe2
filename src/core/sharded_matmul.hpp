// Sharded crossbar matmul: K parallel tile-grid shards composed through an
// explicit H-tree interconnect (ROADMAP "Sharded crossbar tiles").
//
// The monolithic MatmulEngine::stream_cost maps one matmul onto one tile
// grid and the calibrated SystemOverheads::per_row_overhead prices the
// grid's whole accumulation network as a flat per-row figure. This layer
// splits the matmul over the StarConfig's K shards on one rk x ck block
// grid (xbar::ShardedMapper), prices each shard with the UNCHANGED base
// engine, and makes the interconnect explicit. It is the one place that
// composes base-engine costs over shards, and the one place that knows
// K = 1: there every call delegates to the monolithic expressions, so K = 1
// is the unsharded model bit for bit. Determinism: every call is const and
// a pure function of (config, shape), and the K > 1 partial-sum reduce is
// an exact integer composition, so shard count never perturbs payloads:
//
//   latency = max-shard compute + merge fill + per-row flit streaming
//             (merge fill = merge_levels H-tree traversals, paid once;
//              the reduce tree is pipelined at flit granularity, so the
//              steady state adds one widest-hop flit stream per row)
//   energy  = sum of shard energies + link traffic
//             (every hop's partial-sum words cross one tree link per row)
//
// For the pipeline's stage times the monolithic per-row overhead is
// decomposed structurally: a shard's local accumulation tree spans ~T/K of
// the grid's T tiles, so the calibrated figure is scaled by the ratio of
// the two hw::HTree wire-flight latencies, and the inter-shard merge is
// charged on top. No call stores a per-shard record or allocates.
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "core/matmul_engine.hpp"
#include "xbar/sharded_mapper.hpp"

namespace star::core {

/// Composed analytic cost of one matmul spread over K shards.
struct ShardedMatmulCost {
  /// At K = 1 this is MatmulEngine::stream_cost (delegation, not
  /// recomputation). At K > 1: latency = slowest shard + interconnect,
  /// energy includes interconnect_energy, tiles/tile_ops/macs/writes sum
  /// over shards.
  MatmulCost total;
  Time interconnect_latency{};   ///< merge fill + per-row flit streaming
  Energy interconnect_energy{};  ///< partial-sum / gather link traffic
};

/// Composition layer over a (shared, read-only) MatmulEngine. Cheap to
/// construct — it holds no tiles, only the base engine pointer, the config,
/// its shard grid and the calibrated per-row overhead it decomposes.
class ShardedMatmulEngine {
 public:
  /// Inter-shard link width: one 512-bit flit carries 16 partial sums.
  static constexpr int kBusBits = 512;
  /// Partial-sum word moved per output element (8b x 8b MACs over up to
  /// 2^10 rows fit in 26 bits; 32 is the routed word).
  static constexpr int kAccBits = 32;
  /// Leaf pitch of the inter-shard tree, matching hw::HTree's default.
  static constexpr double kTilePitchUm = 160.0;

  /// `base` must outlive this engine. `per_row_overhead` is the calibrated
  /// monolithic figure (SystemOverheads::per_row_overhead) the sharded row
  /// service decomposes; cfg supplies num_shards / shard_policy / tech.
  ShardedMatmulEngine(const MatmulEngine& base, const StarConfig& cfg,
                      Time per_row_overhead);

  /// Cost of x (b x m) * W (m x n) over the configured shards.
  [[nodiscard]] ShardedMatmulCost stream_cost(std::int64_t b, std::int64_t m,
                                              std::int64_t n,
                                              bool dynamic_matrix) const;

  /// Residency hook: programming an m x n weight image over the shards.
  /// Shards own independent write ports, so slices program in parallel —
  /// latency is the slowest slice's, energy sums (the cell writes are
  /// conserved exactly: slices partition the matrix).
  [[nodiscard]] hw::ProgramCost weight_image_cost(std::int64_t m, std::int64_t n) const;

  /// Per-row service time of this matmul INCLUDING the system overhead —
  /// the stage-times hook: tile_latency + per_row_overhead at K = 1, and
  /// tile_latency + the shard-local overhead share + the per-row link
  /// streaming time at K > 1.
  [[nodiscard]] Time row_service(std::int64_t m, std::int64_t n) const;

 private:
  /// The shard-local share of the per-row overhead (K > 1): the calibrated
  /// figure scaled by HTree(ceil(T/K)) / HTree(T) wire latencies, T the
  /// tiles of the monolithic grid.
  [[nodiscard]] Time local_row_overhead(std::int64_t m, std::int64_t n) const;
  /// Per-row inter-shard streaming time (K > 1): widest-hop flits at one
  /// flit per clock (tree links run in parallel and levels pipeline).
  [[nodiscard]] Time link_row_time(std::int64_t m, std::int64_t n) const;

  const MatmulEngine* base_;
  StarConfig cfg_;
  xbar::ShardedMapper shards_;
  Time per_row_overhead_;
};

}  // namespace star::core
