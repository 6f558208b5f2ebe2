// Bit-sliced crossbar VMM engine.
//
// Digital-in / digital-out vector-matrix multiplication on an analog
// crossbar: unsigned weights are sliced over ceil(weight_bits /
// bits_per_cell) physical column groups; unsigned inputs stream in
// bit-serially; each (input bit, weight slice) pair produces a partial sum
// digitised by the column ADCs and combined by shift-and-add. With a
// sufficiently wide ADC the result is bit-exact integer VMM; with a narrow
// ADC (e.g. the paper's 5-bit MatMul readout) partial sums are clipped and
// quantised, which is the accuracy/efficiency trade-off STAR exploits.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hw/tech.hpp"
#include "util/rng.hpp"
#include "xbar/array.hpp"

namespace star::xbar {

struct VmmConfig {
  int rows = 128;          ///< crossbar rows (vector length per tile)
  int cols = 128;          ///< physical columns
  int weight_bits = 8;     ///< unsigned weight precision
  int input_bits = 8;      ///< unsigned input precision (bit-serial cycles)
  int adc_bits = 5;        ///< column ADC resolution (paper: 5 for MatMul)
  int adc_mux_ratio = 8;   ///< columns sharing one ADC
  /// Fraction of the *profiled* worst-case column sum (the discharge the
  /// programmed weights could produce with every row driven) the ADC full
  /// scale is set to. NeuroSim-style flows calibrate ADC ranges per column
  /// from the programmed conductances; 1.0 = no clipping of any reachable
  /// sum, <1.0 trades clipping of rare peaks for finer resolution.
  double adc_full_scale_frac = 1.0;
  /// When true, bypass ADC quantisation entirely (ideal digital readout);
  /// used by the softmax engine's summation crossbar whose narrow value
  /// range fits the ADC exactly.
  bool ideal_readout = false;

  [[nodiscard]] int slices(int bits_per_cell) const;
  void validate() const;
};

/// The cost figures of one bit-sliced VMM. They depend on (tech, device,
/// config) alone, plus the array's mean conductance for read energy, so
/// they are computed once here and shared by BitSlicedVmm and the
/// cost-only tiles that build no array (MatmulEngine's). Construction runs
/// every check BitSlicedVmm runs on its config.
class VmmCosts {
 public:
  VmmCosts(const hw::TechNode& tech, const RramDevice& device, const VmmConfig& cfg);

  [[nodiscard]] const VmmConfig& config() const { return cfg_; }
  [[nodiscard]] int slices() const { return cfg_.slices(device_.bits_per_cell); }
  /// Logical output columns = physical cols / slices.
  [[nodiscard]] int logical_cols() const { return cfg_.cols / slices(); }

  /// One multiply() with `active_rows` driven rows over cells whose mean
  /// conductance is `g_mean_us`.
  [[nodiscard]] Energy op_energy(int active_rows, double g_mean_us) const;
  [[nodiscard]] Time op_latency() const { return op_latency_; }
  [[nodiscard]] Area area() const { return area_; }
  [[nodiscard]] Power leakage() const { return leakage_; }

 private:
  RramDevice device_;
  VmmConfig cfg_;
  // Per input bit: the row drivers' energy per driven row, then the
  // sample-and-holds, ADC conversions and shift-adds of all columns.
  Energy driver_energy_{};
  Energy snh_energy_{};
  Energy adc_energy_{};
  Energy shift_add_energy_{};
  Time op_latency_{};
  Area area_{};
  Power leakage_{};
};

class BitSlicedVmm {
 public:
  BitSlicedVmm(const hw::TechNode& tech, RramDevice device, VmmConfig cfg,
               Rng rng = Rng(0x77));

  [[nodiscard]] const VmmConfig& config() const { return costs_.config(); }
  /// Logical output columns = physical cols / slices.
  [[nodiscard]] int logical_cols() const { return costs_.logical_cols(); }
  [[nodiscard]] int slices() const { return costs_.slices(); }
  [[nodiscard]] const VmmCosts& costs() const { return costs_; }
  [[nodiscard]] const CrossbarArray& array() const { return array_; }

  /// Program an unsigned weight matrix (logical: rows x logical_cols,
  /// entries < 2^weight_bits). Rows beyond weights.size() stay at level 0.
  void program_weights(const std::vector<std::vector<std::int64_t>>& weights);

  /// y = x^T W for an unsigned input vector (entries < 2^input_bits).
  /// Entries beyond the programmed rows must be absent (x.size() <= rows).
  [[nodiscard]] std::vector<std::int64_t> multiply(std::span<const std::int64_t> x);

  // --- cost model ---
  /// Cost of one multiply() invocation with `active_rows` driven rows.
  [[nodiscard]] Energy op_energy(int active_rows) const {
    return costs_.op_energy(active_rows, array_.mean_conductance());
  }
  [[nodiscard]] Time op_latency() const { return costs_.op_latency(); }
  [[nodiscard]] Area area() const { return costs_.area(); }
  [[nodiscard]] Power leakage() const { return costs_.leakage(); }

  /// Cost of programming the current weights (dynamic-matrix accounting
  /// for PipeLayer-style mappings).
  [[nodiscard]] Energy program_energy() const;
  [[nodiscard]] Time program_latency() const;

 private:
  VmmCosts costs_;  ///< first: checks the config before the array is sized
  CrossbarArray array_;
  int programmed_rows_ = 0;
  std::vector<double> col_max_counts_;  ///< per-column profiled ADC range
};

}  // namespace star::xbar
