// Analog crossbar array simulator.
//
// Stores one programmed conductance per crosspoint and evaluates
// current-domain MVMs: I_c = sum_r V_r * G[r][c], with optional IR-drop
// attenuation, read noise and stuck-at faults inherited from the device
// model. Digital engines (VMM/CAM/LUT) sit on top and convert between codes
// and voltages/levels.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"
#include "xbar/device.hpp"

namespace star::xbar {

/// First-order IR-drop model: the effective conductance seen by cell (r, c)
/// is attenuated by (1 - alpha * (r / rows + c / cols) / 2) where alpha is
/// `ir_drop_alpha`. alpha = 0 disables the effect; a 128x128 array with
/// typical wire resistance corresponds to alpha ~ 0.02-0.05.
struct ArrayConfig {
  int rows = 128;
  int cols = 128;
  double ir_drop_alpha = 0.0;
  bool model_read_noise = true;  ///< apply device read noise on every MVM
};

class CrossbarArray {
 public:
  CrossbarArray(ArrayConfig cfg, RramDevice device, Rng rng);

  [[nodiscard]] int rows() const { return cfg_.rows; }
  [[nodiscard]] int cols() const { return cfg_.cols; }
  [[nodiscard]] const RramDevice& device() const { return device_; }

  /// Program cell (r, c) to `level` (re-draws variation/faults).
  void program_cell(int r, int c, int level);

  /// Program a whole level matrix (rows x cols, row-major).
  void program(const std::vector<std::vector<int>>& levels);

  /// Bulk form of program_cell: program the leading levels.size() / cols()
  /// rows from a row-major level matrix, drawing cells in row-major order.
  /// Later rows keep their contents. Every level is checked before any
  /// cell is written.
  void program_rows(std::span<const int> levels);

  /// Stored (post-variation) conductance in uS.
  [[nodiscard]] double conductance(int r, int c) const;

  /// Ideal level last requested for cell (r, c).
  [[nodiscard]] int stored_level(int r, int c) const;

  /// Analog MVM: bitline currents (uA) for wordline voltages `v_rows` (V).
  /// Applies IR drop and read noise per the config.
  [[nodiscard]] std::vector<double> mvm_currents(const std::vector<double>& v_rows);

  /// Full-array read pulse energy given how many rows were driven at v_read.
  [[nodiscard]] Energy read_energy(int active_rows) const;

  /// Mean stored conductance (uS). Re-summed in row-major order whenever
  /// cells are programmed; g_off for an array that was never programmed,
  /// since every cell then holds g_off.
  [[nodiscard]] double mean_conductance() const { return mean_g_us_; }

  /// Energy/latency to program `cells` cell updates.
  [[nodiscard]] Energy write_energy(std::int64_t cells) const;
  [[nodiscard]] Time write_latency(std::int64_t cells, int parallel_rows = 1) const;

  /// Cell-array silicon area (periphery belongs to the tile model).
  [[nodiscard]] Area cell_array_area(double feature_nm) const;

  /// Number of programmed (non-default) cells — used by write accounting.
  [[nodiscard]] std::int64_t cell_count() const {
    return static_cast<std::int64_t>(cfg_.rows) * cfg_.cols;
  }

 private:
  [[nodiscard]] double ir_factor(int r, int c) const;
  void check_level(int level) const;
  void update_mean();

  ArrayConfig cfg_;
  RramDevice device_;
  Rng rng_;
  std::vector<double> g_us_;    // rows * cols conductances
  std::vector<int> levels_;     // rows * cols ideal levels
  double mean_g_us_;            // mean of g_us_
};

/// Read-pulse energy of `active_rows` driven rows across `cols` columns of
/// cells whose mean conductance is `g_mean_us`: the column loading each
/// driven row sees. CrossbarArray::read_energy and the cost-only tiles
/// share this one formula.
[[nodiscard]] Energy array_read_energy(const RramDevice& device, double g_mean_us,
                                       int active_rows, int cols);

}  // namespace star::xbar
