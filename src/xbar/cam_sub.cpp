#include "xbar/cam_sub.hpp"

#include <algorithm>

#include "hw/gates.hpp"
#include "hw/sense_amp.hpp"
#include "util/status.hpp"

namespace star::xbar {

namespace {

/// Checked before the CAM is sized from it.
int rows_for(int bits) {
  require(bits >= 2 && bits <= 12, "CamSubCrossbar: bits must be in [2, 12]");
  return 1 << bits;
}

}  // namespace

CamSubCosts::CamSubCosts(const hw::TechNode& tech, const RramDevice& device, int bits)
    : bits_(bits), cam_(tech, device, rows_for(bits), bits) {
  const hw::GateLibrary lib(tech);
  // OR merge: one OR gate per matchline accumulating into a register bank.
  or_merge_ =
      lib.or_tree(cam_.rows()).parallel_with(lib.reg(std::max(1, cam_.rows() / 8)));
  priority_enc_ = lib.priority_encoder(cam_.rows());

  // SUB read: one pulse with two active rows; per-column multi-level sense
  // (modelled as one sense amp per physical column plus a bits-wide
  // correction adder).
  const hw::SenseAmp sa(tech);
  sub_read_.energy_per_op =
      cam_.search_cost().energy_per_op * (2.0 / cam_.rows()) +  // 2 active rows
      sa.cost().energy_per_op * static_cast<double>(physical_cols()) +
      lib.adder(bits_).energy_per_op;
  sub_read_.latency = cam_.search_cost().latency + lib.adder(bits_).latency;
  sub_read_.area = sa.cost().area * static_cast<double>(physical_cols()) +
                   lib.adder(bits_).area;
  sub_read_.leakage = sa.cost().leakage * static_cast<double>(physical_cols());

  area_ = cam_.area() + or_merge_.area + priority_enc_.area + sub_read_.area;
  leakage_ = cam_.leakage() + or_merge_.leakage + priority_enc_.leakage +
             sub_read_.leakage;
}

Energy CamSubCosts::maxfind_energy(int d) const {
  require(d >= 1, "maxfind_energy: d must be >= 1");
  return cam_.search_cost().energy_per_op * static_cast<double>(d) +
         or_merge_.energy_per_op * static_cast<double>(d) +
         priority_enc_.energy_per_op;
}

Time CamSubCosts::maxfind_latency(int d) const {
  require(d >= 1, "maxfind_latency: d must be >= 1");
  // Searches are pipelined one per search cycle; the OR merge overlaps.
  return cam_.search_cost().latency * static_cast<double>(d) + priority_enc_.latency;
}

Energy CamSubCosts::subtract_energy(int d) const {
  require(d >= 1, "subtract_energy: d must be >= 1");
  return sub_read_.energy_per_op * static_cast<double>(d);
}

Time CamSubCosts::subtract_latency(int d) const {
  require(d >= 1, "subtract_latency: d must be >= 1");
  return sub_read_.latency * static_cast<double>(d);
}

CamSubCrossbar::CamSubCrossbar(const hw::TechNode& tech, RramDevice device, int bits)
    : CamSubCrossbar(CamSubCosts(tech, device, bits)) {}

CamSubCrossbar::CamSubCrossbar(const CamSubCosts& costs)
    : costs_(costs), cam_(costs.cam()) {
  // Preload every representable code in descending order.
  std::vector<std::int64_t> codes(static_cast<std::size_t>(1) << bits());
  for (std::size_t r = 0; r < codes.size(); ++r) {
    codes[r] = static_cast<std::int64_t>(codes.size() - 1 - r);
  }
  cam_.fill(codes);
}

std::int64_t CamSubCrossbar::code_at(int row) const {
  require(row >= 0 && row < rows(), "CamSubCrossbar::code_at: row out of range");
  return static_cast<std::int64_t>(rows() - 1 - row);
}

int CamSubCrossbar::row_of(std::int64_t code) const {
  require(code >= 0 && code < rows(), "CamSubCrossbar::row_of: code out of range");
  return rows() - 1 - static_cast<int>(code);
}

MaxFindResult CamSubCrossbar::find_max(std::span<const std::int64_t> codes,
                                       double miss_prob, Rng& rng) const {
  MaxFindResult res;
  find_max_into(codes, miss_prob, rng, res);
  return res;
}

// STAR_HOT
void CamSubCrossbar::find_max_into(std::span<const std::int64_t> codes,
                                   double miss_prob, Rng& rng,
                                   MaxFindResult& res) const {
  require(!codes.empty(), "CamSubCrossbar::find_max: empty input");
  require(miss_prob >= 0.0 && miss_prob <= 1.0,
          "CamSubCrossbar::find_max: miss_prob in [0, 1]");
  res.max_row = -1;
  res.max_code = 0;
  res.misses = 0;
  res.merged_matchlines.assign(static_cast<std::size_t>(rows()), false);
  res.input_rows.clear();
  res.input_rows.reserve(codes.size());

  // The descending preload is bijective, so each search raises at most
  // one matchline: search_row resolves it (and draws its one fault sample)
  // in O(1), and setting that line is the OR-gate cascade (Fig. 1, step 3).
  // The priority encoder's answer, the first set bit of the merged vector,
  // is the smallest matched row, so it is tracked here instead of scanned.
  int first_set = rows();
  for (const std::int64_t code : codes) {
    const int matched_row = search_row(code, miss_prob, rng);
    if (matched_row >= 0) {
      res.merged_matchlines[static_cast<std::size_t>(matched_row)] = true;
      first_set = std::min(first_set, matched_row);
    }
    STAR_ASSERT(matched_row >= 0 || miss_prob > 0.0,
                "CamSubCrossbar::find_max: every preloaded code must match");
    res.misses += (matched_row < 0) ? 1 : 0;
    res.input_rows.push_back(matched_row);
  }

  // Priority encode: first set bit == largest code (descending preload).
  if (first_set < rows()) {
    res.max_row = first_set;
    res.max_code = code_at(first_set);
  }
  if (res.max_row < 0) {
    throw SimulationError(
        "CamSubCrossbar::find_max: every search missed; no matchline to encode");
  }
}

std::vector<std::int64_t> CamSubCrossbar::subtract_all(
    const MaxFindResult& mf, std::span<const std::int64_t> codes) const {
  std::vector<std::int64_t> out(codes.size());
  subtract_into(mf, codes, out);
  return out;
}

// STAR_HOT
void CamSubCrossbar::subtract_into(const MaxFindResult& mf,
                                   std::span<const std::int64_t> codes,
                                   std::span<std::int64_t> out) const {
  require(mf.input_rows.size() == codes.size(),
          "CamSubCrossbar::subtract_all: find_max result does not cover inputs");
  STAR_ASSERT(out.size() == codes.size(),
              "CamSubCrossbar::subtract_into: output span length mismatch");
  for (std::size_t i = 0; i < codes.size(); ++i) {
    if (mf.input_rows[i] < 0) {
      // Search miss: no row to drive; the SL stays discharged, which the
      // downstream exp CAM reads as a below-range magnitude.
      out[i] = -static_cast<std::int64_t>(rows());
      continue;
    }
    // +V on the input's row, -V on the max row: SL output = x_i - x_max.
    out[i] = code_at(mf.input_rows[i]) - mf.max_code;
    if (mf.misses > 0) {
      // find_max elects the smallest matched row, so over the same codes
      // every survivor sits at or below the elected max, even when the
      // true maximum's search missed, and this clamp never fires. It
      // guards a MaxFindResult that find_max did not produce over these
      // codes: the analog subtractor saturates at zero.
      out[i] = std::min<std::int64_t>(out[i], 0);
    }
    STAR_ASSERT(out[i] <= 0, "CamSubCrossbar::subtract_all: difference must be <= 0");
  }
}

}  // namespace star::xbar
