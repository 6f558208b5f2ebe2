#include "core/softmax_engine.hpp"

#include <algorithm>
#include <cmath>

#include "hw/adc.hpp"
#include "hw/dac.hpp"
#include "hw/gates.hpp"
#include "hw/shift_add.hpp"
#include "util/math.hpp"
#include "util/status.hpp"
#include "workload/accuracy_proxy.hpp"

namespace star::core {

namespace {

/// The LUT word of magnitude code `mag`: round(e^(-mag * res) * 2^m)
/// (paper Fig. 2's WL_i = round(e^(x_i) * 2^m) * 2^(-m) construction).
std::int64_t exp_word(const fxp::QFormat& fmt, int lut_frac_bits, int mag) {
  const double res = fmt.resolution();
  const double scale = std::ldexp(1.0, lut_frac_bits);
  return static_cast<std::int64_t>(
      round_half_even(std::exp(-static_cast<double>(mag) * res) * scale));
}

int exp_rows_for(const fxp::QFormat& fmt, int lut_frac_bits) {
  // Half the code space suffices when the word of its first missing
  // magnitude rounds to 0, since every larger magnitude's word does too
  // (see file header): the paper's 512-row CAM/SUB vs 256-row
  // CAM/LUT/VMM geometry. Otherwise the exp CAM spans every magnitude.
  const int half = 1 << (fmt.total_bits() - 1);
  return exp_word(fmt, lut_frac_bits, half) == 0 ? half : 2 * half;
}

}  // namespace

SoftmaxCosts::SoftmaxCosts(const StarConfig& cfg)
    // Validated first: an out-of-range format must fail with StarConfig's
    // message, not size a 2^b-row CAM first.
    : cfg_(cfg.validated()),
      lut_frac_bits_(workload::default_lut_frac_bits(cfg.softmax_format)),
      cam_sub_(cfg.tech, cfg.device, cfg.softmax_format.total_bits()),
      exp_cam_(cfg.tech, cfg.device, exp_rows_for(cfg.softmax_format, lut_frac_bits_),
               cfg.softmax_format.total_bits()),
      exp_lut_(cfg.tech, cfg.device, exp_cam_.rows(), lut_frac_bits_ + 1),
      counters_(cfg.tech, exp_cam_.rows(),
                bits_for(static_cast<std::uint64_t>(cfg.max_seq_len))),
      divider_(cfg.tech,
               std::min(31, lut_frac_bits_ + 1 +
                                bits_for(static_cast<std::uint64_t>(cfg.max_seq_len))),
               /*cost_bits=*/9),  // normalised 8-bit division + guard bit
      in_buf_(cfg.tech,
              static_cast<double>(cfg.max_seq_len) * cfg.softmax_format.total_bits() /
                  8.0),
      out_buf_(cfg.tech, static_cast<double>(cfg.max_seq_len) * 2.0) {
  // Phase sequencer + address generation for the four crossbar phases.
  control_ = hw::GateLibrary(cfg_.tech).block(3000.0);

  // Summation crossbar periphery: the VMM stores the same table as the LUT;
  // its input is the counter histogram applied bit-serially.
  const hw::SarAdc sum_adc(cfg_.tech, 8);
  const hw::RowDriver sum_driver(cfg_.tech, 1);
  const hw::ShiftAdd sum_shift_add(
      cfg_.tech, std::min(47, lut_frac_bits_ + 1 + counters_.bits() +
                                  bits_for(static_cast<std::uint64_t>(exp_cam_.rows()))));
  const double rows = exp_cam_.rows();
  const double cells = rows * (lut_frac_bits_ + 1);
  sum_area_ = cfg_.device.cell_area(cfg_.tech.feature_nm) * cells +
              sum_adc.cost().area + sum_shift_add.cost().area +
              sum_driver.cost().area * rows;
  sum_leakage_ = sum_adc.cost().leakage + sum_shift_add.cost().leakage +
                 sum_driver.cost().leakage * rows;
  const double count_bits = counters_.bits();
  sum_op_cost_.energy_per_op =
      (sum_driver.cost().energy_per_op * (0.25 * rows) +
       cfg_.device.read_energy(cfg_.device.g_on_us * 0.5) * (0.25 * cells) +
       sum_adc.cost().energy_per_op + sum_shift_add.cost().energy_per_op) *
      count_bits;
  sum_op_cost_.latency =
      (cfg_.device.read_pulse + sum_adc.cost().latency) * count_bits;
  sum_op_cost_.area = sum_area_;
  sum_op_cost_.leakage = sum_leakage_;
}

SoftmaxEngine::SoftmaxEngine(const StarConfig& cfg)
    : costs_(cfg),
      cam_sub_(costs_.cam_sub()),
      exp_cam_(costs_.exp_cam()),
      exp_lut_(costs_.exp_lut()),
      counters_(costs_.counters()) {
  // Preload the exponent tables: row r holds the magnitude code r in the
  // CAM and its LUT word in the LUT.
  std::vector<std::int64_t> cam_codes(static_cast<std::size_t>(exp_cam_.rows()));
  std::vector<std::int64_t> lut_words(cam_codes.size());
  for (std::size_t r = 0; r < cam_codes.size(); ++r) {
    cam_codes[r] = static_cast<std::int64_t>(r);
    lut_words[r] = exp_word(format(), lut_frac_bits(), static_cast<int>(r));
  }
  exp_cam_.fill(cam_codes);
  exp_lut_.fill(lut_words);
}

void SoftmaxEngine::check_row(std::size_t d) const {
  require(d != 0, "SoftmaxEngine: empty row");
  require(d <= static_cast<std::size_t>(costs_.config().max_seq_len),
          "SoftmaxEngine: row longer than max_seq_len");
}

// STAR_HOT
void SoftmaxEngine::forward_codes_into(std::span<const std::int64_t> codes,
                                       SoftmaxRunState& run,
                                       std::span<std::int64_t> probs_out) const {
  check_row(codes.size());
  STAR_ASSERT(probs_out.size() == codes.size(),
              "SoftmaxEngine::forward_codes_into: output span length mismatch");
  SoftmaxScratch& scratch = run.scratch;

  // Pass 0: the codes arrive quantised. They are narrowed to the scratch
  // lanes, and the row is rejected before any search if one lies outside
  // the operand range.
  const std::int64_t code_max_allowed = (std::int64_t{1} << format().total_bits()) - 1;
  scratch.codes.resize(codes.size());
  bool out_of_range = false;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    out_of_range |= codes[i] < 0 || codes[i] > code_max_allowed;
    scratch.codes[i] = static_cast<std::int32_t>(codes[i]);
  }
  require(!out_of_range, "SoftmaxEngine::forward_codes: code out of operand range");

  run_datapath(codes.size(), run);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    probs_out[i] = scratch.quotients[static_cast<std::size_t>(scratch.e_rows[i])];
  }
}

// STAR_HOT
void SoftmaxEngine::softmax_row_into(std::span<const double> x,
                                     SoftmaxRunState& run,
                                     std::span<double> out) const {
  check_row(x.size());
  STAR_ASSERT(out.size() == x.size(),
              "SoftmaxEngine::softmax_row_into: output span length mismatch");
  SoftmaxScratch& scratch = run.scratch;

  // Pass 0, input conditioning: scores arrive as biased-signed fixed point
  // — code = round(x / res) + 2^(b-1), clamped into the window. Values
  // below the window floor are exactly the ones whose exponential
  // underflows. res = 2^-f, so x * 2^f is x / res exactly. The clamp runs
  // on the double, so +-Inf and huge scores saturate and no value outside
  // the window reaches the int cast. std::min and std::max keep their
  // first operand on an unordered compare, so the two clamp orders below
  // send a NaN to opposite edges and every other score to one code: the
  // XOR of the two codes flags a NaN, rejected before any search. (GCC 12
  // does not vectorise a loop whose double compare feeds an integer flag;
  // this one it does.) Adding and subtracting 1.5 * 2^52 rounds a value
  // of magnitude below 2^51 to the nearest integer, ties to even in the
  // default rounding mode, as round_half_even does.
  const double scale = std::ldexp(1.0, format().frac_bits);
  const std::int32_t bias = std::int32_t{1} << (format().total_bits() - 1);
  const double lo = -static_cast<double>(bias);
  const double hi = static_cast<double>(bias - 1);
  constexpr double kRoundEven = 0x1.8p52;
  scratch.codes.resize(x.size());
  std::int32_t* const codes = scratch.codes.data();
  std::int32_t nan_seen = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double scaled = x[i] * scale;
    const double to_floor = std::max(lo, std::min(scaled, hi));
    const double to_top = std::min(hi, std::max(scaled, lo));
    const auto code = static_cast<std::int32_t>((to_floor + kRoundEven) - kRoundEven);
    nan_seen |= code ^ static_cast<std::int32_t>((to_top + kRoundEven) - kRoundEven);
    codes[i] = code + bias;
  }
  require(nan_seen == 0, "SoftmaxEngine: NaN score");

  // Every score has been read, so `out` may alias x from here on.
  run_datapath(x.size(), run);
  const double inv = std::ldexp(1.0, -prob_frac_bits());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = static_cast<double>(
                 scratch.quotients[static_cast<std::size_t>(scratch.e_rows[i])]) *
             inv;
  }
}

// STAR_HOT
void SoftmaxEngine::run_datapath(std::size_t d, SoftmaxRunState& run) const {
  SoftmaxScratch& scratch = run.scratch;
  const double miss_prob = costs_.config().cam_miss_prob;  // validated to [0, 1)
  Rng& rng = run.rng;

  // Pass 1: CAM/SUB phase A (Fig. 1). Each search raises at most one
  // matchline; the priority encoder's answer, the first set bit of the
  // merged matchlines, is the smallest matched row. A missed search (-1)
  // reads as the largest unsigned value, so it never wins the vote.
  scratch.sub_rows.resize(d);
  const std::int32_t* const codes = scratch.codes.data();
  std::int32_t* const sub_rows = scratch.sub_rows.data();
  const auto none_matched = static_cast<std::uint32_t>(cam_sub_.rows());
  std::uint32_t max_row = none_matched;
  for (std::size_t i = 0; i < d; ++i) {
    const int row = cam_sub_.search_row(codes[i], miss_prob, rng);
    STAR_ASSERT(row >= 0 || miss_prob > 0.0,
                "SoftmaxEngine: every preloaded code must match");
    sub_rows[i] = row;
    max_row = std::min(max_row, static_cast<std::uint32_t>(row));
  }
  if (max_row == none_matched) {
    throw SimulationError(
        "CamSubCrossbar::find_max: every search missed; no matchline to encode");
  }

  // Pass 2: phase B, the exponential and the counters (Figs. 1 and 2).
  // Rows store codes descending, so x_i - x_max = max_row - row_i <= 0; a
  // missed search leaves its SL discharged, below every magnitude the exp
  // CAM holds. The exp CAM's identity preload (row r stores magnitude r) is
  // bijective, so search_row resolves the one matchline — and its one fault
  // draw — in O(1). The counter array is per-run state: each stream clones
  // the prototype once, so concurrent rows through a shared engine never
  // collide and the per-row cost is a reset of the rows the previous row
  // touched, not an allocation.
  if (!run.counters) {
    run.counters.emplace(counters_);
  }
  hw::CounterArray& counters = *run.counters;
  counters.reset();
  const int no_match = exp_cam_.rows();
  const auto elected = static_cast<std::int32_t>(max_row);
  scratch.e_rows.resize(d);
  std::int32_t* const e_rows = scratch.e_rows.data();
  for (std::size_t i = 0; i < d; ++i) {
    const std::int32_t row = sub_rows[i];
    const std::int32_t mag = row < 0 ? cam_sub_.rows() : row - elected;
    int e_row = no_match;  // no matchline rises: the word reads 0, counters hold
    if (mag < no_match) {
      const int hit = exp_cam_.search_row(mag, miss_prob, rng);
      if (hit >= 0) {
        counters.accumulate_row(hit);
        e_row = hit;
      }
    }
    e_rows[i] = e_row;
  }

  // Pass 3: summation VMM (counter histogram . stored table), then the
  // division. A quotient depends only on the LUT word, so each touched row
  // is divided once and its elements share the result.
  const std::int64_t denom = summation_vmm(counters);
  const hw::Divider& divider = costs_.divider();
  const int prob_bits = prob_frac_bits();
  scratch.quotients.resize(static_cast<std::size_t>(no_match) + 1);
  for (const std::int32_t r : counters.touched()) {
    scratch.quotients[static_cast<std::size_t>(r)] =
        divider.divide(exp_lut_.word_at(r), denom, prob_bits);
  }
  scratch.quotients[static_cast<std::size_t>(no_match)] =
      divider.divide(0, denom, prob_bits);
}

std::int64_t SoftmaxEngine::summation_vmm(const hw::CounterArray& counters) const {
  STAR_ASSERT(counters.rows() == exp_lut_.rows(),
              "summation_vmm: histogram size mismatch");
  // Digital-equivalent of the analog dot product: the VMM crossbar stores
  // exactly the LUT table and the counts stream in bit-serially. Only the
  // touched rows hold non-zero counts; integer addition makes their sum
  // identical to the full dot product.
  const std::vector<std::int64_t>& counts = counters.counts();
  std::int64_t acc = 0;
  for (const std::int32_t r : counters.touched()) {
    acc += counts[static_cast<std::size_t>(r)] * exp_lut_.word_at(r);
  }
  return acc;
}

SoftmaxRowStats SoftmaxCosts::compute_row_stats(int d) const {
  SoftmaxRowStats s;
  s.elements = d;
  s.t_maxfind = cam_sub_.maxfind_latency(d);
  s.e_maxfind = cam_sub_.maxfind_energy(d);
  s.t_subtract = cam_sub_.subtract_latency(d);
  s.e_subtract = cam_sub_.subtract_energy(d);
  // Exp phase: CAM search and LUT read are pipelined; the LUT read pulse is
  // the stage bottleneck. Counter toggles ride along.
  const Time exp_stage =
      std::max(exp_cam_.search_cost().latency, exp_lut_.read_cost().latency);
  s.t_exp = exp_stage * static_cast<double>(d) + exp_cam_.search_cost().latency;
  s.e_exp = (exp_cam_.search_cost().energy_per_op + exp_lut_.read_cost().energy_per_op +
             counters_.unit_cost().energy_per_op) *
            static_cast<double>(d);
  s.t_sum = sum_op_cost_.latency;
  s.e_sum = sum_op_cost_.energy_per_op;
  // Pipelined divider: initiation interval one cycle, depth `bits` cycles.
  s.t_divide = cfg_.tech.clock_period() * static_cast<double>(d) + divider_.cost().latency;
  s.e_divide = divider_.cost().energy_per_op * static_cast<double>(d);

  // Row staging traffic (8-bit-class operands pack several per SRAM word).
  const Energy e_buffers =
      (in_buf_.cost().energy_per_op + out_buf_.cost().energy_per_op) *
      (static_cast<double>(d) / 4.0);

  s.latency = s.t_maxfind + s.t_subtract + s.t_exp + s.t_sum + s.t_divide;
  s.energy = s.e_maxfind + s.e_subtract + s.e_exp + s.e_sum + s.e_divide + e_buffers;
  return s;
}

Area SoftmaxCosts::area() const {
  return cam_sub_.area() + exp_cam_.area() + exp_lut_.area() + sum_area_ +
         counters_.array_cost().area + divider_.cost().area +
         in_buf_.cost().area + out_buf_.cost().area + control_.area;
}

Power SoftmaxCosts::leakage() const {
  return cam_sub_.leakage() + exp_cam_.search_cost().leakage +
         exp_lut_.read_cost().leakage + sum_leakage_ +
         counters_.array_cost().leakage + divider_.cost().leakage +
         in_buf_.cost().leakage + out_buf_.cost().leakage + control_.leakage;
}

Time SoftmaxCosts::row_latency(int d) const {
  require(d >= 1, "SoftmaxCosts::row_latency: d must be >= 1");
  return compute_row_stats(d).latency;
}

Energy SoftmaxCosts::row_energy(int d) const {
  require(d >= 1, "SoftmaxCosts::row_energy: d must be >= 1");
  return compute_row_stats(d).energy;
}

Power SoftmaxCosts::active_power(int d) const {
  const Time t = row_latency(d);
  return row_energy(d) / t + leakage();
}

Energy SoftmaxCosts::preload_energy() const {
  return cam_sub_.program_energy() + exp_cam_.program_energy() +
         exp_lut_.program_energy() * 2.0;  // LUT + identical summation table
}

Time SoftmaxCosts::preload_latency() const {
  // The four tables share one programming port, so the phases serialise
  // (the energy rule above prices the same four programs).
  return cam_sub_.program_latency() + exp_cam_.program_latency() +
         exp_lut_.program_latency() * 2.0;
}

hw::ProgramCost SoftmaxCosts::preload_cost() const {
  return hw::ProgramCost{preload_latency(), preload_energy()};
}

xbar::ImageKey SoftmaxCosts::image_key() const {
  return xbar::lut_image_key(format());
}

hw::ProgramCost SoftmaxEngine::preload_cost_for(const StarConfig& cfg,
                                                const fxp::QFormat& fmt) {
  StarConfig sized = cfg;
  sized.softmax_format = fmt;
  return SoftmaxCosts(sized).preload_cost();
}

hw::CostSheet SoftmaxCosts::cost_sheet(int d) const {
  hw::CostSheet sheet;
  sheet.add("CAM/SUB crossbar " + std::to_string(cam_sub_.rows()) + "x" +
                std::to_string(cam_sub_.physical_cols()),
            hw::Cost{cam_sub_.area(), cam_sub_.maxfind_energy(d) +
                                          cam_sub_.subtract_energy(d),
                     Time{}, cam_sub_.leakage()});
  sheet.add("CAM crossbar " + std::to_string(exp_cam_.rows()) + "x" +
                std::to_string(exp_cam_.physical_cols()),
            hw::Cost{exp_cam_.area(),
                     exp_cam_.search_cost().energy_per_op * static_cast<double>(d),
                     Time{}, exp_cam_.search_cost().leakage});
  sheet.add("LUT crossbar " + std::to_string(exp_lut_.rows()) + "x" +
                std::to_string(exp_lut_.word_bits()),
            hw::Cost{exp_lut_.area(),
                     exp_lut_.read_cost().energy_per_op * static_cast<double>(d),
                     Time{}, exp_lut_.read_cost().leakage});
  sheet.add("summation VMM crossbar",
            hw::Cost{sum_area_, sum_op_cost_.energy_per_op, Time{}, sum_leakage_});
  sheet.add("counter array",
            hw::Cost{counters_.array_cost().area,
                     counters_.unit_cost().energy_per_op * static_cast<double>(d),
                     Time{}, counters_.array_cost().leakage});
  sheet.add("divider",
            hw::Cost{divider_.cost().area,
                     divider_.cost().energy_per_op * static_cast<double>(d), Time{},
                     divider_.cost().leakage});
  sheet.add("row buffers + sequencer",
            hw::Cost{in_buf_.cost().area + out_buf_.cost().area + control_.area,
                     (in_buf_.cost().energy_per_op + out_buf_.cost().energy_per_op) *
                         (static_cast<double>(d) / 4.0),
                     Time{},
                     in_buf_.cost().leakage + out_buf_.cost().leakage +
                         control_.leakage});
  sheet.set_latency(row_latency(d));
  return sheet;
}

}  // namespace star::core
