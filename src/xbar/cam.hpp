// CAM crossbar: content-addressable search over stored codes.
//
// Each row stores one `bits`-wide pattern in complementary cell pairs
// (2 cells per bit, hence the paper's 256x18 geometry for 9-bit data:
// 2^9 / 2 = 256 rows per bank is NOT the encoding — the 256 rows hold the
// 256 representable 8-bit magnitudes and 18 columns = 9 bits x 2 cells).
// A search drives the query on the search lines; a row's matchline stays
// high iff every bit matches. The digital-equivalent semantics is exact
// pattern match; an optional miss rate models matchline sensing errors.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hw/component.hpp"
#include "hw/tech.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "xbar/device.hpp"

namespace star::xbar {

/// The cost figures of one CAM crossbar. They depend on (tech, device,
/// rows, bits) alone, so a cost model builds them without storing a
/// pattern or an index; CamCrossbar holds one. Construction runs every
/// check CamCrossbar's constructor runs.
class CamCosts {
 public:
  CamCosts(const hw::TechNode& tech, const RramDevice& device, int rows, int bits);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] int physical_cols() const { return 2 * bits_; }

  /// Per-search dynamic energy, latency; total area incl. sense amps.
  [[nodiscard]] hw::Cost search_cost() const { return search_cost_; }
  [[nodiscard]] Area area() const { return area_; }
  [[nodiscard]] Power leakage() const { return leakage_; }

  /// Cost of programming the full pattern set (row-serial).
  [[nodiscard]] Energy program_energy() const { return program_energy_; }
  [[nodiscard]] Time program_latency() const { return program_latency_; }

 private:
  int rows_;
  int bits_;
  hw::Cost search_cost_;
  Area area_{};
  Power leakage_{};
  Energy program_energy_{};
  Time program_latency_{};
};

class CamCrossbar {
 public:
  /// `rows` stored patterns of `bits` bits (2 cells/bit on the die).
  CamCrossbar(const hw::TechNode& tech, RramDevice device, int rows, int bits);
  /// An unprogrammed crossbar with these (already checked) costs.
  explicit CamCrossbar(const CamCosts& costs);

  [[nodiscard]] int rows() const { return costs_.rows(); }
  [[nodiscard]] int bits() const { return costs_.bits(); }
  [[nodiscard]] int physical_cols() const { return costs_.physical_cols(); }

  /// Program row `r` to match `code` (0 <= code < 2^bits).
  void store(int r, std::int64_t code);

  /// Fill rows 0..n-1 with `codes`. All or nothing: the count and every
  /// code are checked before any row is written, and the search index is
  /// rebuilt once.
  void fill(const std::vector<std::int64_t>& codes);

  /// One search cycle: matchline vector for `code` (search-error rate
  /// `miss_prob` flips a matching line low with that probability). Fault
  /// samples come from the caller's per-run stream; the crossbar is shared
  /// read-only contents and never mutated by a search.
  [[nodiscard]] std::vector<bool> search(std::int64_t code, double miss_prob,
                                         Rng& rng) const;

  /// The dense row scan behind search(), into caller-owned scratch
  /// (resized to rows()). It is the reference the O(1) search_row() is
  /// tested against.
  void search_into(std::int64_t code, double miss_prob, Rng& rng,
                   std::vector<bool>& match) const;

  /// True when every programmed row holds a distinct code (and the code
  /// space is small enough to index). Then a search can match at most one
  /// row, which enables the O(1) search_row() fast path.
  [[nodiscard]] bool unique_codes() const { return unique_codes_; }

  /// O(1) search over the inverted code->row index: returns the matching
  /// row, or -1 on a stored miss / injected sensing fault. Draws exactly
  /// the fault samples the dense scan would (one bernoulli iff a row
  /// matches and miss_prob > 0), so the matchline contents implied by the
  /// result are bit- and RNG-stream-identical to search_into(). Only
  /// valid when unique_codes().
  // STAR_HOT
  [[nodiscard]] int search_row(std::int64_t code, double miss_prob, Rng& rng) const {
    require(code >= 0 && code < (std::int64_t{1} << costs_.bits()),
            "CamCrossbar::search: code out of range");
    STAR_ASSERT(unique_codes_, "CamCrossbar::search_row: requires unique stored codes");
    const std::int32_t r = row_of_code_[static_cast<std::size_t>(code)];
    if (r < 0) {
      return -1;
    }
    // Same fault-draw rule as the dense scan: with unique codes exactly one
    // row matches, so exactly one bernoulli is consumed (and none when fault
    // injection is off) — the RNG stream stays bit-identical.
    const bool sensed = miss_prob <= 0.0 || !rng.bernoulli(miss_prob);
    return sensed ? static_cast<int>(r) : -1;
  }

  /// Fault-free lookup: the first row storing `code`, if any.
  [[nodiscard]] std::optional<int> search_index(std::int64_t code) const;

  /// Per-search dynamic energy, latency; total area incl. sense amps.
  [[nodiscard]] hw::Cost search_cost() const { return costs_.search_cost(); }
  [[nodiscard]] Area area() const { return costs_.area(); }
  [[nodiscard]] Power leakage() const { return costs_.leakage(); }

  /// Cost of programming the full pattern set.
  [[nodiscard]] Energy program_energy() const { return costs_.program_energy(); }
  [[nodiscard]] Time program_latency() const { return costs_.program_latency(); }

 private:
  void check_code(std::int64_t code) const;

  CamCosts costs_;

  std::vector<std::int64_t> stored_;  // -1 = unprogrammed (never matches)
  // Inverted index over stored_: code -> row, -1 = absent. Rebuilt after
  // every store() and once per fill() (programming is cold; searching is
  // the hot path), valid only while the stored codes are pairwise
  // distinct. Skipped entirely when 2^bits would make the table
  // unreasonable.
  void rebuild_index();
  std::vector<std::int32_t> row_of_code_;
  bool unique_codes_ = false;
};

}  // namespace star::xbar
