// The STAR RRAM-crossbar softmax engine (paper §II, Figs. 1 and 2).
//
// Datapath per score row x_1..x_d:
//
//   CAM/SUB crossbar (2^b x 2b)   max find + subtraction   -> |x_i - x_max|
//   CAM crossbar     (R x 2b)     magnitude search         -> one-hot row
//   LUT crossbar     (R x w)      e^-mag word readout      -> e_i
//   Counter array                  match histogram          -> counts[r]
//   Summation crossbar             counts . table           -> sum e_j
//   Divider                        e_i / sum                -> p_i
//
// The exp CAM holds the magnitudes 0..R-1. A magnitude beyond them
// produces *no* match: the LUT bitlines stay discharged (e_i = 0) and the
// counters do not advance. That is exact only while every such magnitude's
// LUT word rounds to 0, so R = 2^(b-1) when the word of magnitude 2^(b-1)
// rounds to 0 (e^-mag falls, so every larger word does too): the paper's
// 256x18 for its 9-bit data, and every paper format. Otherwise R = 2^b,
// the whole magnitude range: narrow formats with few integer bits (a Q2.2
// magnitude of 8 codes is 2.0, whose word is far from 0) keep every word.
//
// Costs versus tables: SoftmaxCosts holds every cost figure of an engine
// (row stats, area, leakage, row latency and energy, the preload bill,
// the image key and the cost sheet), built from the crossbars' table-free
// cost values (xbar::CamSubCosts, CamCosts, LutCosts, hw::CounterCosts):
// no stored code, LUT word or search index, and no std::exp per LUT row. The
// analytic models (StarAccelerator, the residency bills) hold only that.
// SoftmaxEngine holds one SoftmaxCosts and builds its functional tables on
// the same cost values, so each cost formula has one copy and an engine's
// figures are its SoftmaxCosts' bit for bit.
//
// The engine is bit-exact (under an ideal device) with the pure-math oracle
// workload::quantized_softmax; tests enforce the equivalence.
//
// Host datapath: four passes over per-run int32 scratch, shared by
// softmax_row_into() and forward_codes_into(), each O(d) and free of
// allocation on a warm run state:
//   0. quantise: code_i = round_half_even(clamp(x_i * 2^f)) + 2^(b-1),
//      computed on the double so no NaN or out-of-window value is ever
//      cast to an integer; a NaN is only flagged, and rejected after the
//      pass, before any search (forward_codes_into checks its codes here);
//   1. the CAM/SUB search of every element, keeping the smallest matched
//      row — the priority encoder's first set bit of the OR-merged
//      matchlines;
//   2. the subtraction, the exp CAM search and the counter bump;
//   3. the summation VMM, one division per touched LUT row, then the
//      gather of each element's quotient.
// Fault-draw order: every CAM/SUB search of a row draws its sample (when
// cam_miss_prob > 0) in element order in pass 1, then every exp search in
// element order in pass 2 — the order of the phase-level crossbar calls
// (CamSubCrossbar::find_max, then one CamCrossbar search per element), so
// a run state's stream, and every payload, stays the same.
//
// Determinism: the engine is shared read-only geometry; every per-run
// mutable fact (the fault-injection stream, the counters, the datapath
// scratch) lives in a caller-owned SoftmaxRunState whose Rng is explicitly
// seeded. The const softmax_row_into()/forward_codes_into() datapath
// therefore makes (seed, code-path) reproduce every probability code
// bit-for-bit no matter how many threads share the engine.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "hw/component.hpp"
#include "hw/counter.hpp"
#include "hw/divider.hpp"
#include "hw/sram.hpp"
#include "nn/softmax_ref.hpp"
#include "xbar/cam.hpp"
#include "xbar/cam_sub.hpp"
#include "xbar/lut.hpp"
#include "xbar/residency.hpp"

namespace star::core {

/// Cost record of one row (compute_row_stats).
struct SoftmaxRowStats {
  int elements = 0;
  Time latency{};
  Energy energy{};
  // Stage split, for the pipeline model and ablations.
  Time t_maxfind{}, t_subtract{}, t_exp{}, t_sum{}, t_divide{};
  Energy e_maxfind{}, e_subtract{}, e_exp{}, e_sum{}, e_divide{};
};

/// Reusable per-run scratch buffers of the softmax datapath, one int32 lane
/// per element (codes are at most 12 bits). Sized on the first row
/// (resize keeps capacity), so every subsequent row of the same or smaller
/// length allocates nothing — the arena discipline applied to the engine
/// internals.
struct SoftmaxScratch {
  std::vector<std::int32_t> codes;     ///< operand code per element (pass 0)
  /// CAM/SUB row whose matchline each element raised, -1 on a sensing
  /// miss (pass 1).
  std::vector<std::int32_t> sub_rows;
  /// Exp row per element: the LUT row its search matched, or exp_rows()
  /// when no matchline rose (its word reads as 0) (pass 2).
  std::vector<std::int32_t> e_rows;
  /// Probability code per exp row, written for this row's touched rows
  /// and the no-match slot at exp_rows() (pass 3).
  std::vector<std::int64_t> quotients;
};

/// Per-run mutable state of one stream through a (shared, read-only)
/// SoftmaxEngine: the fault-injection RNG stream, the counter array and the
/// datapath scratch. Each concurrent sequence owns one; the engine itself
/// is never mutated.
struct SoftmaxRunState {
  explicit SoftmaxRunState(std::uint64_t seed = 0xCA3) : rng(seed) {}

  /// Rebind this state to a new request without discarding warmed-up
  /// buffers: the RNG restarts exactly as a freshly constructed
  /// SoftmaxRunState(seed) would (bit-identical fault streams), while the
  /// cloned counters and scratch keep their capacity — reseeding is how a
  /// pooled per-worker state serves request after request allocation-free.
  void reseed(std::uint64_t seed) { rng = Rng(seed); }

  Rng rng;
  /// Per-run counter array, cloned from the engine's prototype on first
  /// use and reset per row (so the hot loop never allocates).
  std::optional<hw::CounterArray> counters;
  /// Datapath scratch, reused across rows and requests.
  SoftmaxScratch scratch;
};

/// Every cost figure of one softmax engine, from a validated StarConfig and
/// no functional table (see the file comment). Pure and cheap: the
/// uncached design-point model builds one per StarAccelerator.
class SoftmaxCosts {
 public:
  /// Validates `cfg` first: an out-of-range format fails with StarConfig's
  /// message before any crossbar is sized from it.
  explicit SoftmaxCosts(const StarConfig& cfg);

  [[nodiscard]] const StarConfig& config() const { return cfg_; }
  [[nodiscard]] const fxp::QFormat& format() const { return cfg_.softmax_format; }
  [[nodiscard]] int lut_frac_bits() const { return lut_frac_bits_; }
  [[nodiscard]] int prob_frac_bits() const { return kProbFracBits; }
  /// Rows of the exp CAM, LUT, counters and summation table (R above).
  [[nodiscard]] int exp_rows() const { return exp_cam_.rows(); }

  // --- the crossbars' cost values (SoftmaxEngine builds its tables on them) ---
  [[nodiscard]] const xbar::CamSubCosts& cam_sub() const { return cam_sub_; }
  [[nodiscard]] const xbar::CamCosts& exp_cam() const { return exp_cam_; }
  [[nodiscard]] const xbar::LutCosts& exp_lut() const { return exp_lut_; }
  [[nodiscard]] const hw::CounterCosts& counters() const { return counters_; }
  [[nodiscard]] const hw::Divider& divider() const { return divider_; }

  // --- cost model ---
  [[nodiscard]] Area area() const;
  [[nodiscard]] Power leakage() const;
  /// Average power while streaming rows of length d back-to-back.
  [[nodiscard]] Power active_power(int d) const;
  [[nodiscard]] Time row_latency(int d) const;
  [[nodiscard]] Energy row_energy(int d) const;
  /// Full cost record of one row of length d (pure; thread-safe).
  [[nodiscard]] SoftmaxRowStats compute_row_stats(int d) const;
  /// One-time table preload cost (CAM/SUB codes, exp table, sum table).
  [[nodiscard]] Energy preload_energy() const;
  /// Time to program those tables (serial phases on the one write port:
  /// CAM/SUB codes, exp CAM patterns, exp LUT words, summation table).
  [[nodiscard]] Time preload_latency() const;
  /// The full programming bill of the engine's CAM/LUT image — what the
  /// residency layer charges when the image must be (re)programmed.
  [[nodiscard]] hw::ProgramCost preload_cost() const;
  /// Residency identity of the engine's image (keyed by operand format).
  [[nodiscard]] xbar::ImageKey image_key() const;
  [[nodiscard]] hw::CostSheet cost_sheet(int d) const;

 private:
  /// The engine's probability output precision (divider fraction bits).
  static constexpr int kProbFracBits = 15;

  StarConfig cfg_;
  int lut_frac_bits_;
  xbar::CamSubCosts cam_sub_;
  xbar::CamCosts exp_cam_;
  xbar::LutCosts exp_lut_;
  hw::CounterCosts counters_;
  hw::Divider divider_;
  // Summation crossbar periphery (the VMM stores the same table as the LUT).
  hw::Cost sum_op_cost_;
  Area sum_area_{};
  Power sum_leakage_{};
  // Row staging buffers and the phase sequencer.
  hw::Sram in_buf_;
  hw::Sram out_buf_;
  hw::Cost control_;
};

class SoftmaxEngine final {
 public:
  explicit SoftmaxEngine(const StarConfig& cfg);

  // --- functional datapath (shared read-only engine, per-run state) ---
  /// Softmax of a real-valued row through the full quantised crossbar
  /// datapath, written into a caller span of x.size() that may alias x.
  /// All mutation (fault RNG draws, counters, scratch) lands in `run`, so
  /// many threads may share one engine with one SoftmaxRunState each; warm
  /// rows allocate nothing. Scores beyond the operand window (+-Inf
  /// included) saturate to its edge; NaN scores and rows longer than
  /// max_seq_len (the counters are sized for it) are rejected.
  void softmax_row_into(std::span<const double> x, SoftmaxRunState& run,
                        std::span<double> out) const;
  /// The datapath after input quantisation (white-box tests call it
  /// directly): operand codes (unsigned, < 2^b) in, probability codes with
  /// prob_frac_bits() fraction bits out.
  void forward_codes_into(std::span<const std::int64_t> codes,
                          SoftmaxRunState& run,
                          std::span<std::int64_t> probs_out) const;

  // --- formats ---
  [[nodiscard]] const fxp::QFormat& format() const { return costs_.format(); }
  [[nodiscard]] int lut_frac_bits() const { return costs_.lut_frac_bits(); }
  [[nodiscard]] int prob_frac_bits() const { return costs_.prob_frac_bits(); }
  [[nodiscard]] int exp_rows() const { return exp_cam_.rows(); }

  // --- cost model: the engine's SoftmaxCosts ---
  [[nodiscard]] Area area() const { return costs_.area(); }
  [[nodiscard]] Power leakage() const { return costs_.leakage(); }
  /// Average power while streaming rows of length d back-to-back.
  [[nodiscard]] Power active_power(int d) const { return costs_.active_power(d); }
  [[nodiscard]] Time row_latency(int d) const { return costs_.row_latency(d); }
  [[nodiscard]] Energy row_energy(int d) const { return costs_.row_energy(d); }
  /// Full cost record of one row of length d (pure; thread-safe).
  [[nodiscard]] SoftmaxRowStats compute_row_stats(int d) const {
    return costs_.compute_row_stats(d);
  }
  /// One-time table preload cost (CAM/SUB codes, exp table, sum table).
  [[nodiscard]] Energy preload_energy() const { return costs_.preload_energy(); }
  /// Time to program those tables (see SoftmaxCosts::preload_latency).
  [[nodiscard]] Time preload_latency() const { return costs_.preload_latency(); }
  /// The full programming bill of this engine's CAM/LUT image — what the
  /// residency layer charges when the image must be (re)programmed.
  [[nodiscard]] hw::ProgramCost preload_cost() const { return costs_.preload_cost(); }
  /// Residency identity of this engine's image (keyed by operand format).
  [[nodiscard]] xbar::ImageKey image_key() const { return costs_.image_key(); }
  /// Programming bill of the CAM/LUT image for `fmt` on `cfg`'s substrate
  /// (tech node, device): the per-dataset miss cost of the LUT image cache.
  /// Prices SoftmaxCosts for `fmt`; builds no table.
  [[nodiscard]] static hw::ProgramCost preload_cost_for(const StarConfig& cfg,
                                                        const fxp::QFormat& fmt);
  [[nodiscard]] hw::CostSheet cost_sheet(int d) const { return costs_.cost_sheet(d); }

 private:
  /// Empty and over-long rows are rejected before any stage runs.
  void check_row(std::size_t d) const;
  /// Passes 1-3 over run.scratch.codes: leaves each element's exp row in
  /// run.scratch.e_rows and the probability code of every touched row (and
  /// of the no-match slot) in run.scratch.quotients.
  void run_datapath(std::size_t d, SoftmaxRunState& run) const;
  [[nodiscard]] std::int64_t summation_vmm(const hw::CounterArray& counters) const;

  SoftmaxCosts costs_;  ///< first: validates the config before any table
  // The functional tables, built on costs_' crossbar cost values.
  xbar::CamSubCrossbar cam_sub_;
  xbar::CamCrossbar exp_cam_;
  xbar::LutCrossbar exp_lut_;
  hw::CounterArray counters_;
};

/// The engine as an nn::RowSoftmaxInto: binds a shared const
/// SoftmaxEngine to a BORROWED per-run state. Construction is free, so the
/// encoder path builds one per request over a pooled, reseeded
/// SoftmaxRunState; a fault stream continues across every row it serves.
class SoftmaxEngineRowRef final : public nn::RowSoftmaxInto {
 public:
  SoftmaxEngineRowRef(const SoftmaxEngine& engine, SoftmaxRunState& run)
      : engine_(&engine), run_(&run) {}

  void operator()(std::span<const double> x, std::span<double> out) override {
    engine_->softmax_row_into(x, *run_, out);
  }
  [[nodiscard]] const char* name() const override { return "star-crossbar"; }

 private:
  const SoftmaxEngine* engine_;
  SoftmaxRunState* run_;
};

}  // namespace star::core
