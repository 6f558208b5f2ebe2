// The MatMul engine: ReTransformer-style crossbar matrix-multiply unit
// (paper §II: "The MatMul engine follows the design in ReTransformer";
// §III: 128x128 crossbars, 5-bit ADC). The tile geometry is fixed at the
// paper's; a StarConfig varies only the technology and the device.
//
// Two faces:
//  * functional — quantisation-aware matrix multiply routed through
//    BitSlicedVmm tiles (asymmetric 8-bit activations, symmetric 8-bit
//    weights, digital zero-point correction), used by the accuracy studies;
//  * analytic — latency/energy/area of streaming a B x M activation matrix
//    against an M x N matrix mapped over the tile grid, used by the
//    accelerator models (both STAR's and the baselines').
//
// Determinism: both faces are pure functions of (config, operands) — the
// engine holds no per-run mutable state, multiply()/stream_cost() are
// const, and any stochastic device effects draw from an explicitly seeded
// star::Rng fixed at construction, so (seed, code-path) reproduces every
// result bit-for-bit across threads and hosts.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "nn/tensor.hpp"
#include "xbar/mapper.hpp"
#include "xbar/tile.hpp"

namespace star::core {

/// Analytic cost of one streamed matmul.
struct MatmulCost {
  Time latency{};          ///< makespan with all grid tiles in parallel
  Time row_service{};      ///< per-input-vector initiation interval
  Energy energy{};
  Energy write_energy{};   ///< dynamic-matrix programming (0 if static)
  Time write_latency{};    ///< programming time before streaming can start
  std::int64_t tile_ops = 0;
  std::int64_t tiles = 0;
  double macs = 0.0;
};

class MatmulEngine {
 public:
  /// The paper's tile: 128 x 128 crossbars with a 5-bit ADC, 8-bit inputs
  /// and 8-bit weights ("by referring to [ReTransformer]").
  static constexpr int kTileRows = 128;
  static constexpr int kTileCols = 128;
  static constexpr int kAdcBits = 5;
  static constexpr int kInputBits = 8;
  static constexpr int kWeightBits = 8;

  explicit MatmulEngine(const StarConfig& cfg);

  /// Quantisation-aware functional multiply: x (B x M) * w (M x N).
  /// Routed through real BitSlicedVmm tiles; intended for accuracy studies
  /// on moderate shapes (the analytic face covers BERT-scale shapes).
  /// All tile state is per-call, so a shared engine is thread-safe here.
  [[nodiscard]] nn::Tensor multiply(const nn::Tensor& x, const nn::Tensor& w) const;

  /// Analytic cost of x (B x M) * W (M x N); `dynamic_matrix` adds the
  /// cost of programming W first (the PipeLayer-vs-ReTransformer divide).
  [[nodiscard]] MatmulCost stream_cost(std::int64_t b, std::int64_t m, std::int64_t n,
                                       bool dynamic_matrix) const;

  /// Residency hook: the bill for (re)programming an M x N static weight
  /// image onto this engine's tile grid — charged by the ResidencyManager
  /// when the image is not resident (weight upload / model switch).
  [[nodiscard]] hw::ProgramCost weight_image_cost(std::int64_t m, std::int64_t n) const;

  /// Silicon of `tiles` instantiated tiles.
  [[nodiscard]] Area area_for_tiles(std::int64_t tiles) const;
  [[nodiscard]] Power leakage_for_tiles(std::int64_t tiles) const;

  /// Per-tile-op quantities of one tile, from the cost-only tile figures.
  /// The tile's array is never programmed, so its mean conductance is the
  /// device's g_off.
  [[nodiscard]] Time tile_latency() const;
  [[nodiscard]] Energy tile_energy(int active_rows) const;
  [[nodiscard]] int tile_rows() const;
  [[nodiscard]] int tile_logical_cols() const;

  /// The matrix-to-tile mapper behind stream_cost (ShardedMatmulEngine
  /// re-maps operand slices through the same geometry).
  [[nodiscard]] const xbar::Mapper& mapper() const { return mapper_; }

 private:
  StarConfig cfg_;
  xbar::VmmConfig vmm_cfg_;
  xbar::TileCosts tile_;
  xbar::Mapper mapper_;
};

}  // namespace star::core
