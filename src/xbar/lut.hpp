// LUT crossbar: a one-hot wordline read returns the word stored in that row.
//
// In STAR's exponential unit the LUT rows hold round(e^x * 2^m) for every
// representable x = x_i - x_max; the CAM's matchline vector directly drives
// the LUT wordlines, so a search+read pair computes exp() in two crossbar
// cycles with no arithmetic.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/component.hpp"
#include "hw/tech.hpp"
#include "util/status.hpp"
#include "xbar/device.hpp"

namespace star::xbar {

/// The cost figures of one LUT crossbar, from (tech, device, rows,
/// word_bits) alone: no stored word. LutCrossbar holds one; construction
/// runs every check LutCrossbar's constructor runs.
class LutCosts {
 public:
  LutCosts(const hw::TechNode& tech, const RramDevice& device, int rows, int word_bits);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int word_bits() const { return word_bits_; }

  [[nodiscard]] hw::Cost read_cost() const { return read_cost_; }
  [[nodiscard]] Area area() const { return area_; }

  [[nodiscard]] Energy program_energy() const { return program_energy_; }
  [[nodiscard]] Time program_latency() const { return program_latency_; }

 private:
  int rows_;
  int word_bits_;
  hw::Cost read_cost_;
  Area area_{};
  Energy program_energy_{};
  Time program_latency_{};
};

class LutCrossbar {
 public:
  /// `rows` words of `word_bits` bits (1 cell per bit; binary states).
  LutCrossbar(const hw::TechNode& tech, RramDevice device, int rows, int word_bits);
  /// An all-zero crossbar with these (already checked) costs.
  explicit LutCrossbar(const LutCosts& costs);

  [[nodiscard]] int rows() const { return costs_.rows(); }
  [[nodiscard]] int word_bits() const { return costs_.word_bits(); }

  /// Program row `r` to hold `word`.
  void store(int r, std::int64_t word);

  /// Fill rows 0..n-1. All or nothing: the count and every word are
  /// checked before any row is written.
  void fill(const std::vector<std::int64_t>& words);

  /// Read with a one-hot wordline vector; returns the selected word
  /// (0 if no line is raised — matches the discharged-bitline behaviour).
  [[nodiscard]] std::int64_t read(const std::vector<bool>& one_hot) const;

  /// Direct indexed read of the row a resolved search selects (same cost
  /// as read(); the engine's hot path).
  // STAR_HOT
  [[nodiscard]] std::int64_t word_at(int r) const {
    require(r >= 0 && r < rows(), "LutCrossbar::word_at: row out of range");
    return words_[static_cast<std::size_t>(r)];
  }

  [[nodiscard]] hw::Cost read_cost() const { return costs_.read_cost(); }
  [[nodiscard]] Area area() const { return costs_.area(); }

  [[nodiscard]] Energy program_energy() const { return costs_.program_energy(); }
  [[nodiscard]] Time program_latency() const { return costs_.program_latency(); }

 private:
  void check_word(std::int64_t word) const;

  LutCosts costs_;
  std::vector<std::int64_t> words_;
};

}  // namespace star::xbar
