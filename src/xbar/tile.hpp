// A processing tile: one BitSlicedVmm plus its staging SRAM. The MatMul
// engine and the baseline accelerator models compose tiles via the Mapper.
#pragma once

#include "hw/component.hpp"
#include "hw/tech.hpp"
#include "xbar/vmm_engine.hpp"

namespace star::xbar {

/// The cost figures of one tile: its VMM plus the input and output staging
/// buffers. Computed once; a cost-only tile (MatmulEngine's) holds just
/// this, with no crossbar array behind it.
class TileCosts {
 public:
  TileCosts(const hw::TechNode& tech, const VmmCosts& vmm);

  /// Tile totals (crossbar + periphery + buffers).
  [[nodiscard]] Area area() const;
  [[nodiscard]] Power leakage() const;

  /// Cost of one VMM invocation including buffer traffic for the input
  /// vector and output vector, over cells of mean conductance `g_mean_us`.
  [[nodiscard]] Energy op_energy(int active_rows, double g_mean_us) const;
  [[nodiscard]] Time op_latency() const;

 private:
  VmmCosts vmm_;
  hw::Cost in_buf_;
  hw::Cost out_buf_;
};

class XbarTile {
 public:
  XbarTile(const hw::TechNode& tech, RramDevice device, VmmConfig cfg,
           Rng rng = Rng(0x711E));

  [[nodiscard]] BitSlicedVmm& vmm() { return vmm_; }
  [[nodiscard]] const BitSlicedVmm& vmm() const { return vmm_; }

  /// Tile totals (crossbar + periphery + buffers).
  [[nodiscard]] Area area() const { return costs_.area(); }
  [[nodiscard]] Power leakage() const { return costs_.leakage(); }

  /// Cost of one VMM invocation including buffer traffic for the input
  /// vector and output vector.
  [[nodiscard]] Energy op_energy(int active_rows) const {
    return costs_.op_energy(active_rows, vmm_.array().mean_conductance());
  }
  [[nodiscard]] Time op_latency() const { return costs_.op_latency(); }

 private:
  BitSlicedVmm vmm_;
  TileCosts costs_;
};

}  // namespace star::xbar
