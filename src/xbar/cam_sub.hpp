// CAM/SUB crossbar — stage 1 of the STAR softmax engine (paper Fig. 1).
//
// One crossbar is time-multiplexed between two functions:
//
//  Phase A (CAM): all representable codes are preloaded in *descending*
//  order (row 0 holds the largest code). Each input x_i is searched in one
//  cycle; its matchline goes high on the row storing x_i. Matchlines of all
//  d searches are OR-merged; because rows are sorted descending, the first
//  set bit of the merged vector is the row of x_max.
//
//  Phase B (SUB): for each x_i the crossbar is read with +V on x_i's
//  matched row and -V on the x_max row; the source-line outputs realise
//  x_i - x_max (always <= 0; the engine keeps the magnitude).
//
// Geometry for b-bit data: 2^b rows x 2b columns (complementary cell pairs),
// e.g. the paper's 512x18 for 9-bit operands.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hw/component.hpp"
#include "hw/tech.hpp"
#include "util/rng.hpp"
#include "xbar/cam.hpp"

namespace star::xbar {

/// Result of the max-find phase.
struct MaxFindResult {
  int max_row = -1;                      ///< row index of x_max (first set bit)
  std::int64_t max_code = 0;             ///< the code stored on that row
  std::vector<bool> merged_matchlines;   ///< OR of all per-input matchlines
  std::vector<int> input_rows;           ///< matched row per input (-1 = search miss)
  int misses = 0;                        ///< failed searches (fault injection)
};

/// The cost figures of one CAM/SUB crossbar, from (tech, device, bits)
/// alone: no preload, no index. CamSubCrossbar holds one; construction
/// runs every check CamSubCrossbar's constructor runs.
class CamSubCosts {
 public:
  CamSubCosts(const hw::TechNode& tech, const RramDevice& device, int bits);

  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] int rows() const { return cam_.rows(); }
  [[nodiscard]] int physical_cols() const { return cam_.physical_cols(); }
  /// The CAM's own figures (2^bits rows of bits-wide codes).
  [[nodiscard]] const CamCosts& cam() const { return cam_; }

  [[nodiscard]] Area area() const { return area_; }
  [[nodiscard]] Power leakage() const { return leakage_; }

  /// Costs of a whole find_max over d inputs / a whole subtract pass.
  [[nodiscard]] Energy maxfind_energy(int d) const;
  [[nodiscard]] Time maxfind_latency(int d) const;
  [[nodiscard]] Energy subtract_energy(int d) const;
  [[nodiscard]] Time subtract_latency(int d) const;

  /// One-time preload cost (all 2^bits rows).
  [[nodiscard]] Energy program_energy() const { return cam_.program_energy(); }
  [[nodiscard]] Time program_latency() const { return cam_.program_latency(); }

 private:
  int bits_;
  CamCosts cam_;
  hw::Cost or_merge_;
  hw::Cost priority_enc_;
  hw::Cost sub_read_;
  Area area_{};
  Power leakage_{};
};

class CamSubCrossbar {
 public:
  /// `bits`-wide operands; rows = 2^bits, preloaded descending.
  CamSubCrossbar(const hw::TechNode& tech, RramDevice device, int bits);
  /// The crossbar these (already checked) costs describe, preloaded.
  explicit CamSubCrossbar(const CamSubCosts& costs);

  [[nodiscard]] int bits() const { return costs_.bits(); }
  [[nodiscard]] int rows() const { return costs_.rows(); }
  [[nodiscard]] int physical_cols() const { return costs_.physical_cols(); }

  /// Code stored on row r (descending preload: 2^bits - 1 - r).
  [[nodiscard]] std::int64_t code_at(int row) const;
  /// Row storing `code`.
  [[nodiscard]] int row_of(std::int64_t code) const;

  /// One phase-A search cycle: the row whose matchline `code` raises, or
  /// -1 when an injected sensing fault drops it. Draws the fault sample
  /// find_max() draws for that input (none when miss_prob is 0).
  // STAR_HOT
  [[nodiscard]] int search_row(std::int64_t code, double miss_prob, Rng& rng) const {
    return cam_.search_row(code, miss_prob, rng);
  }

  /// Phase A over all inputs: d search cycles + OR merge + priority encode.
  /// `miss_prob` injects matchline sensing failures: a missed input raises
  /// no matchline, is excluded from the max vote and later reads as a deep
  /// (underflowed) magnitude. Fault samples come from the caller's per-run
  /// stream; the crossbar is never mutated. Throws SimulationError if
  /// *every* search misses (no matchline to encode).
  [[nodiscard]] MaxFindResult find_max(std::span<const std::int64_t> codes,
                                       double miss_prob, Rng& rng) const;

  /// Allocation-free find_max: the result's vectors are caller-owned and
  /// reused across rows (assign/clear keep capacity, so a warm row
  /// allocates nothing). find_max() delegates here.
  void find_max_into(std::span<const std::int64_t> codes, double miss_prob,
                     Rng& rng, MaxFindResult& res) const;

  /// Phase B: per-element x_i - x_max (non-positive), given a find_max
  /// result. Missed inputs return -(2^bits) (below every representable
  /// magnitude, i.e. their exponential underflows to zero downstream).
  [[nodiscard]] std::vector<std::int64_t> subtract_all(const MaxFindResult& mf,
                                                       std::span<const std::int64_t> codes) const;

  /// Allocation-free subtract: writes into a caller span of codes.size().
  void subtract_into(const MaxFindResult& mf, std::span<const std::int64_t> codes,
                     std::span<std::int64_t> out) const;

  // --- cost model ---
  [[nodiscard]] Area area() const { return costs_.area(); }
  [[nodiscard]] Power leakage() const { return costs_.leakage(); }

  /// Costs of a whole find_max over d inputs / a whole subtract pass.
  [[nodiscard]] Energy maxfind_energy(int d) const { return costs_.maxfind_energy(d); }
  [[nodiscard]] Time maxfind_latency(int d) const { return costs_.maxfind_latency(d); }
  [[nodiscard]] Energy subtract_energy(int d) const { return costs_.subtract_energy(d); }
  [[nodiscard]] Time subtract_latency(int d) const { return costs_.subtract_latency(d); }

  /// One-time preload cost (all 2^bits rows).
  [[nodiscard]] Energy program_energy() const { return costs_.program_energy(); }
  [[nodiscard]] Time program_latency() const { return costs_.program_latency(); }

 private:
  CamSubCosts costs_;
  CamCrossbar cam_;
};

}  // namespace star::xbar
