#include "xbar/vmm_engine.hpp"

#include <cmath>

#include "hw/adc.hpp"
#include "hw/dac.hpp"
#include "hw/sample_hold.hpp"
#include "hw/shift_add.hpp"
#include "util/math.hpp"
#include "util/status.hpp"

namespace star::xbar {

int VmmConfig::slices(int bits_per_cell) const {
  return static_cast<int>(ceil_div(weight_bits, bits_per_cell));
}

void VmmConfig::validate() const {
  require(rows >= 1 && cols >= 1, "VmmConfig: dimensions must be >= 1");
  require(weight_bits >= 1 && weight_bits <= 16, "VmmConfig: weight_bits in [1, 16]");
  require(input_bits >= 1 && input_bits <= 16, "VmmConfig: input_bits in [1, 16]");
  require(adc_bits >= 1 && adc_bits <= 12, "VmmConfig: adc_bits in [1, 12]");
  require(adc_mux_ratio >= 1 && adc_mux_ratio <= cols,
          "VmmConfig: adc_mux_ratio in [1, cols]");
  require(adc_full_scale_frac > 0.0 && adc_full_scale_frac <= 1.0,
          "VmmConfig: adc_full_scale_frac in (0, 1]");
}

VmmCosts::VmmCosts(const hw::TechNode& tech, const RramDevice& device,
                   const VmmConfig& cfg)
    : device_(device), cfg_(cfg) {
  cfg_.validate();
  device_.validate();
  require(cfg_.cols % slices() == 0,
          "BitSlicedVmm: cols must be a multiple of the weight slice count");

  const hw::SarAdc adc(tech, cfg_.adc_bits);
  const hw::RowDriver driver(tech, 1);
  const hw::SampleHold snh(tech);
  const hw::ShiftAdd shift_add(tech, cfg_.adc_bits + cfg_.input_bits + cfg_.weight_bits +
                                         bits_for(static_cast<std::uint64_t>(cfg_.rows)));
  const double rows = static_cast<double>(cfg_.rows);
  const double cols = static_cast<double>(cfg_.cols);
  const double n_adc = static_cast<double>(ceil_div(cfg_.cols, cfg_.adc_mux_ratio));
  const Area cell_array =
      device_.cell_area(tech.feature_nm) *
      static_cast<double>(static_cast<std::int64_t>(cfg_.rows) * cfg_.cols);
  area_ = cell_array + driver.cost().area * rows + snh.cost().area * cols +
          adc.cost().area * n_adc + shift_add.cost().area * n_adc;
  leakage_ = driver.cost().leakage * rows + snh.cost().leakage * cols +
             adc.cost().leakage * n_adc + shift_add.cost().leakage * n_adc;

  driver_energy_ = driver.cost().energy_per_op;
  snh_energy_ = snh.cost().energy_per_op * cols;
  adc_energy_ = adc.cost().energy_per_op * cols;
  shift_add_energy_ = shift_add.cost().energy_per_op * n_adc *
                      static_cast<double>(cfg_.adc_mux_ratio);
  // Per input bit: array settle, then the ADC walks its mux group; the
  // shift-add keeps up at one accumulation per conversion.
  const Time per_bit =
      device_.read_pulse + adc.cost().latency * static_cast<double>(cfg_.adc_mux_ratio);
  op_latency_ = per_bit * static_cast<double>(cfg_.input_bits);
}

Energy VmmCosts::op_energy(int active_rows, double g_mean_us) const {
  require(active_rows >= 0 && active_rows <= cfg_.rows,
          "BitSlicedVmm::op_energy: active_rows out of range");
  // On average half the driven rows carry a 1 in any bit plane.
  const double mean_active = 0.5 * active_rows;
  const Energy per_bit =
      driver_energy_ * mean_active +
      array_read_energy(device_, g_mean_us, static_cast<int>(mean_active), cfg_.cols) +
      snh_energy_ + adc_energy_ + shift_add_energy_;
  return per_bit * static_cast<double>(cfg_.input_bits);
}

BitSlicedVmm::BitSlicedVmm(const hw::TechNode& tech, RramDevice device, VmmConfig cfg,
                           Rng rng)
    : costs_(tech, device, cfg),
      array_(ArrayConfig{cfg.rows, cfg.cols, 0.0, true}, device, rng) {}

void BitSlicedVmm::program_weights(const std::vector<std::vector<std::int64_t>>& weights) {
  const VmmConfig& cfg = config();
  require(static_cast<int>(weights.size()) <= cfg.rows,
          "BitSlicedVmm::program_weights: too many rows");
  const int cell_bits = array_.device().bits_per_cell;
  const int n_slices = slices();
  const int n_cols = logical_cols();
  const std::int64_t level_mask = (std::int64_t{1} << cell_bits) - 1;
  const std::int64_t w_max = (std::int64_t{1} << cfg.weight_bits) - 1;

  // Slice every weight into its row-major cell levels: logical column lc,
  // slice s lands in physical column lc * n_slices + s.
  std::vector<int> levels;
  levels.reserve(weights.size() * static_cast<std::size_t>(cfg.cols));
  for (const auto& row : weights) {
    require(static_cast<int>(row.size()) == n_cols, [&] {
      return expected_got("BitSlicedVmm::program_weights cols", n_cols,
                          static_cast<long long>(row.size()));
    });
    for (const std::int64_t w : row) {
      require(w >= 0 && w <= w_max,
              "BitSlicedVmm::program_weights: weight out of unsigned range");
      for (int s = 0; s < n_slices; ++s) {
        levels.push_back(static_cast<int>((w >> (s * cell_bits)) & level_mask));
      }
    }
  }
  array_.program_rows(levels);
  programmed_rows_ = static_cast<int>(weights.size());

  // Profile the per-column worst-case discharge (all programmed rows
  // driven) to calibrate the ADC full scale, as NeuroSim-style flows do.
  col_max_counts_.assign(static_cast<std::size_t>(cfg.cols), 0.0);
  for (std::size_t i = 0; i < levels.size(); ++i) {
    col_max_counts_[i % col_max_counts_.size()] += levels[i];
  }
}

std::vector<std::int64_t> BitSlicedVmm::multiply(std::span<const std::int64_t> x) {
  const VmmConfig& cfg = config();
  const RramDevice& device = array_.device();
  require(static_cast<int>(x.size()) <= cfg.rows,
          "BitSlicedVmm::multiply: input longer than crossbar rows");
  const std::int64_t x_max = (std::int64_t{1} << cfg.input_bits) - 1;
  for (const auto v : x) {
    require(v >= 0 && v <= x_max, "BitSlicedVmm::multiply: input out of unsigned range");
  }

  const int n_slices = slices();
  const int cell_bits = device.bits_per_cell;
  const int max_level = device.levels() - 1;
  const double g_span = device.g_on_us - device.g_off_us;

  // Per-column profiled worst case defines each ADC full scale; fall back
  // to the theoretical bound for unprogrammed engines.
  const double fs_fallback = static_cast<double>(cfg.rows) * max_level;
  const double adc_levels = std::ldexp(1.0, cfg.adc_bits) - 1.0;

  std::vector<double> acc(static_cast<std::size_t>(logical_cols()), 0.0);
  std::vector<double> v_rows(static_cast<std::size_t>(cfg.rows), 0.0);

  for (int b = 0; b < cfg.input_bits; ++b) {
    // Drive the b-th bit of every input element.
    int driven = 0;
    for (std::size_t r = 0; r < x.size(); ++r) {
      const bool bit = ((x[r] >> b) & 1) != 0;
      v_rows[r] = bit ? device.v_read : 0.0;
      driven += bit ? 1 : 0;
    }
    if (driven == 0) {
      continue;  // all-zero bit plane: bitlines stay discharged
    }
    const auto currents = array_.mvm_currents(v_rows);

    for (int lc = 0; lc < logical_cols(); ++lc) {
      for (int s = 0; s < n_slices; ++s) {
        const double i_col = currents[static_cast<std::size_t>(lc * n_slices + s)];
        // Convert current back to level counts: remove the g_off pedestal of
        // the `driven` active rows, scale by the conductance step.
        const double pedestal = device.v_read * device.g_off_us * driven;
        double counts =
            (i_col - pedestal) / (device.v_read * g_span) * max_level;
        counts = std::max(counts, 0.0);

        double digitised;
        if (cfg.ideal_readout) {
          digitised = round_half_even(counts);
        } else {
          const std::size_t pc = static_cast<std::size_t>(lc * n_slices + s);
          const double col_max =
              col_max_counts_.empty() || col_max_counts_[pc] <= 0.0
                  ? fs_fallback
                  : col_max_counts_[pc];
          const double fs_counts =
              std::max(1.0, cfg.adc_full_scale_frac * col_max);
          const double clipped = std::min(counts, fs_counts);
          const double code = round_half_even(clipped / fs_counts * adc_levels);
          digitised = code / adc_levels * fs_counts;
        }
        acc[static_cast<std::size_t>(lc)] +=
            std::ldexp(digitised, b + s * cell_bits);
      }
    }
  }

  std::vector<std::int64_t> y(acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    y[i] = static_cast<std::int64_t>(round_half_even(acc[i]));
  }
  return y;
}

Energy BitSlicedVmm::program_energy() const {
  const std::int64_t cells =
      static_cast<std::int64_t>(programmed_rows_) * config().cols;
  return array_.write_energy(cells);
}

Time BitSlicedVmm::program_latency() const {
  const std::int64_t cells =
      static_cast<std::int64_t>(programmed_rows_) * config().cols;
  return array_.write_latency(cells);
}

}  // namespace star::xbar
