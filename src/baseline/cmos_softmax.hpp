// Baseline CMOS softmax unit (Table I row "baseline").
//
// A straightforward parallel-lane implementation of the standard
// numerically-stable softmax:
//   pass 1: comparator tree finds x_max;
//   pass 2: per lane, a floating/fixed exponential datapath computes
//           e^(x_i - x_max); an adder tree accumulates the sum;
//   pass 3: per lane, a divider normalises.
// This is the architecture a Design-Compiler "just synthesise softmax"
// baseline produces; its area/power are dominated by the per-lane
// exponential and divide datapaths — exactly what STAR's CAM+LUT replaces.
#pragma once

#include <span>
#include <vector>

#include "hw/component.hpp"
#include "hw/tech.hpp"
#include "nn/softmax_ref.hpp"

namespace star::baseline {

struct CmosSoftmaxConfig {
  int lanes = 32;          ///< parallel element datapaths
  int operand_bits = 24;   ///< exponential datapath width (FP-equivalent)
  int output_bits = 16;    ///< probability output width
};

/// The compact configuration the RRAM accelerator baselines embed per head
/// (one serial datapath — the area budget of a PIM chip does not allow a
/// wide softmax array next to every head's crossbars).
constexpr CmosSoftmaxConfig compact_cmos_softmax() { return {1, 24, 16}; }

class CmosSoftmaxUnit final : public nn::RowSoftmaxInto {
 public:
  CmosSoftmaxUnit(const hw::TechNode& tech, CmosSoftmaxConfig cfg = {});

  // --- functional ---
  /// Bit-faithful at the IO boundaries: inputs quantised to operand_bits
  /// fixed point, exponentials exact (the wide datapath's error is below
  /// the output quantisation), outputs quantised to output_bits.
  void operator()(std::span<const double> x, std::span<double> out) override;
  [[nodiscard]] const char* name() const override { return "cmos-baseline"; }

  // --- cost ---
  [[nodiscard]] Area area() const;
  [[nodiscard]] Power leakage() const;
  [[nodiscard]] Time row_latency(int d) const;
  [[nodiscard]] Energy row_energy(int d) const;
  /// Average power streaming rows of length d back-to-back.
  [[nodiscard]] Power active_power(int d) const;
  [[nodiscard]] hw::CostSheet cost_sheet(int d) const;
  [[nodiscard]] const CmosSoftmaxConfig& config() const { return cfg_; }

 private:
  hw::TechNode tech_;
  CmosSoftmaxConfig cfg_;
  hw::Cost exp_lane_;
  hw::Cost div_lane_;
  hw::Cost max_tree_;
  hw::Cost add_tree_;
  hw::Cost regs_;
};

}  // namespace star::baseline
