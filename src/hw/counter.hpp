// Match counter array (paper Fig. 2): one counter per CAM row accumulates
// how many inputs matched that row; the resulting histogram becomes the
// input vector of the summation VMM crossbar.
//
// The array also lists the counters an input row moves off zero, in the
// order it does. reset() and the summation VMM then visit only those rows:
// a short input row costs O(d), not O(rows). Integer addition makes the
// touched-row sum bit-identical to the dense one, saturation included.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hw/component.hpp"
#include "hw/tech.hpp"
#include "util/status.hpp"

namespace star::hw {

/// The cost figures of one counter array, from (tech, rows, bits) alone:
/// no count. CounterArray holds one; construction runs every check
/// CounterArray's constructor runs.
class CounterCosts {
 public:
  CounterCosts(const TechNode& tech, int rows, int bits);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int bits() const { return bits_; }

  /// Unit cost of one counter; the array cost is unit * rows.
  [[nodiscard]] Cost unit_cost() const { return unit_; }
  [[nodiscard]] Cost array_cost() const;

 private:
  int rows_;
  int bits_;
  Cost unit_;
};

class CounterArray {
 public:
  /// `rows` counters of `bits` bits each (bits must cover the maximum
  /// sequence length: e.g. 10 bits for 1024 inputs).
  CounterArray(const TechNode& tech, int rows, int bits);
  /// A zeroed array with these (already checked) costs.
  explicit CounterArray(const CounterCosts& costs);

  [[nodiscard]] int rows() const { return costs_.rows(); }
  [[nodiscard]] int bits() const { return costs_.bits(); }

  /// Unit cost of one counter; the array cost is unit * rows.
  [[nodiscard]] Cost unit_cost() const { return costs_.unit_cost(); }
  [[nodiscard]] Cost array_cost() const { return costs_.array_cost(); }

  // --- functional model ---

  /// Reset every counter to zero (only the touched ones can be non-zero).
  void reset();

  /// Accumulate a one-hot match vector (at most one bit set; saturates at
  /// 2^bits - 1 like the physical counter).
  void accumulate(const std::vector<bool>& one_hot);

  /// O(1) accumulate of a known single matchline: identical saturation rule
  /// to accumulate() with only bit `row` set. Hot-path companion for CAM
  /// searches that resolve the matching row directly.
  // STAR_HOT
  void accumulate_row(int row) {
    require(row >= 0 && row < rows(), "CounterArray::accumulate_row: row out of range");
    bump(static_cast<std::size_t>(row));
  }

  /// Current histogram.
  [[nodiscard]] const std::vector<std::int64_t>& counts() const { return counts_; }

  /// The rows with a non-zero count since the last reset(), each once, in
  /// the order they were first touched.
  [[nodiscard]] std::span<const std::int32_t> touched() const {
    return {touched_.data(), touched_count_};
  }

 private:
  // Branch-free: whether a row was touched before is data-dependent. The
  // row is always written one past the list and kept only on a first touch.
  void bump(std::size_t row) {
    const std::int64_t sat = (std::int64_t{1} << bits()) - 1;
    std::int64_t& c = counts_[row];
    touched_[touched_count_] = static_cast<std::int32_t>(row);
    touched_count_ += static_cast<std::size_t>(c == 0);
    c += static_cast<std::int64_t>(c < sat);
  }

  CounterCosts costs_;
  std::vector<std::int64_t> counts_;
  // Sized to rows() + 1 up front (each row enters once per reset, plus the
  // scratch slot bump() writes), so a copy never grows it on the hot path.
  std::vector<std::int32_t> touched_;
  std::size_t touched_count_ = 0;
};

}  // namespace star::hw
