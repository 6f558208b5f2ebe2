#include "xbar/cam.hpp"

#include <algorithm>
#include <string>

#include "hw/sense_amp.hpp"
#include "util/status.hpp"

namespace star::xbar {

CamCosts::CamCosts(const hw::TechNode& tech, const RramDevice& device, int rows,
                   int bits)
    : rows_(rows), bits_(bits) {
  require(rows >= 1, "CamCrossbar: rows must be >= 1");
  require(bits >= 1 && bits <= 32, "CamCrossbar: bits must be in [1, 32]");
  device.validate();

  // Area: 2 cells/bit crosspoints + one matchline sense amp per row +
  // search-line drivers per bit pair.
  const hw::SenseAmp sa(tech);
  const double cells = static_cast<double>(rows_) * physical_cols();
  area_ = device.cell_area(tech.feature_nm) * cells +
          sa.cost().area * static_cast<double>(rows_) +
          Area::um2(1.4 * physical_cols());

  // Search energy is capacitive, not resistive: every matchline precharges
  // and (on mismatch) discharges through ON cells within ~1 ns; search
  // lines swing across the full column height. C ~ 0.2 fF per attached
  // cell is representative of 32 nm crosspoint wiring.
  constexpr double kCapPerCellFf = 0.04;  // nanoscale crosspoint + wire share
  // Matchlines and search lines swing at the logic supply, not the analog
  // read voltage.
  const double v2 = tech.vdd * tech.vdd;
  const double matchline_fj =
      static_cast<double>(rows_) * physical_cols() * kCapPerCellFf * v2;
  // Half the search lines toggle per search on average.
  const double searchline_fj =
      0.5 * physical_cols() * static_cast<double>(rows_) * kCapPerCellFf * v2;
  Energy search = Energy::fJ(matchline_fj + searchline_fj);
  search += sa.cost().energy_per_op * static_cast<double>(rows_);

  constexpr double kSearchPulseNs = 1.0;  // matchline evaluate time
  search_cost_.area = area_;
  search_cost_.energy_per_op = search;
  search_cost_.latency = Time::ns(kSearchPulseNs) + sa.cost().latency;
  leakage_ = sa.cost().leakage * static_cast<double>(rows_);
  search_cost_.leakage = leakage_;

  program_energy_ = device.write_energy() * cells;
  // Row-serial programming.
  program_latency_ = device.write_latency() * static_cast<double>(rows_);
}

CamCrossbar::CamCrossbar(const hw::TechNode& tech, RramDevice device, int rows, int bits)
    : CamCrossbar(CamCosts(tech, device, rows, bits)) {}

CamCrossbar::CamCrossbar(const CamCosts& costs)
    : costs_(costs), stored_(static_cast<std::size_t>(costs.rows()), -1) {
  rebuild_index();
}

void CamCrossbar::rebuild_index() {
  // 2^16 * 4 B caps the table at 256 KiB; every crossbar the engine builds
  // (<= 12-bit codes) is far below that, wider configs just keep the scan.
  constexpr int kIndexMaxBits = 16;
  if (bits() > kIndexMaxBits) {
    unique_codes_ = false;
    row_of_code_.clear();
    return;
  }
  row_of_code_.assign(std::size_t{1} << bits(), -1);
  unique_codes_ = true;
  for (int r = 0; r < rows(); ++r) {
    const std::int64_t code = stored_[static_cast<std::size_t>(r)];
    if (code < 0) {
      continue;  // unprogrammed rows never match
    }
    std::int32_t& slot = row_of_code_[static_cast<std::size_t>(code)];
    if (slot >= 0) {
      // A duplicate code can raise two matchlines; only the dense scan
      // reproduces that, so the O(1) path switches itself off.
      unique_codes_ = false;
      return;
    }
    slot = r;
  }
}

void CamCrossbar::check_code(std::int64_t code) const {
  require(code >= 0 && code < (std::int64_t{1} << bits()), [&] {
    return "CamCrossbar::store: code out of range for " + std::to_string(bits()) +
           " bits";
  });
}

void CamCrossbar::store(int r, std::int64_t code) {
  require(r >= 0 && r < rows(), "CamCrossbar::store: row out of range");
  check_code(code);
  stored_[static_cast<std::size_t>(r)] = code;
  rebuild_index();
}

void CamCrossbar::fill(const std::vector<std::int64_t>& codes) {
  require(static_cast<int>(codes.size()) <= rows(),
          "CamCrossbar::fill: more codes than rows");
  for (const auto code : codes) {
    check_code(code);
  }
  std::copy(codes.begin(), codes.end(), stored_.begin());
  rebuild_index();
}

std::vector<bool> CamCrossbar::search(std::int64_t code, double miss_prob,
                                      Rng& rng) const {
  std::vector<bool> match;
  search_into(code, miss_prob, rng, match);
  return match;
}

void CamCrossbar::search_into(std::int64_t code, double miss_prob, Rng& rng,
                              std::vector<bool>& match) const {
  require(code >= 0 && code < (std::int64_t{1} << bits()),
          "CamCrossbar::search: code out of range");
  match.assign(static_cast<std::size_t>(rows()), false);
  for (int r = 0; r < rows(); ++r) {
    if (stored_[static_cast<std::size_t>(r)] == code) {
      const bool sensed = miss_prob <= 0.0 || !rng.bernoulli(miss_prob);
      match[static_cast<std::size_t>(r)] = sensed;
    }
  }
}

std::optional<int> CamCrossbar::search_index(std::int64_t code) const {
  require(code >= 0 && code < (std::int64_t{1} << bits()),
          "CamCrossbar::search: code out of range");
  for (int r = 0; r < rows(); ++r) {
    if (stored_[static_cast<std::size_t>(r)] == code) {
      return r;
    }
  }
  return std::nullopt;
}

}  // namespace star::xbar
