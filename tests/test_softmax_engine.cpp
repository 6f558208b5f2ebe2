// Tests for the STAR crossbar softmax engine — functional equivalence with
// the pure-math oracle, paper geometry, and cost-model sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/cmos_softmax.hpp"
#include "core/accelerator.hpp"
#include "core/batch_encoder.hpp"
#include "core/softmax_engine.hpp"
#include "nn/attention.hpp"
#include "nn/softmax_ref.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "workload/accuracy_proxy.hpp"
#include "workload/dataset_profile.hpp"

namespace star::core {
namespace {

StarConfig config_for(const fxp::QFormat& fmt) {
  StarConfig cfg;
  cfg.softmax_format = fmt;
  return cfg;
}

/// The engine's probabilities of one row, on a continuing run state.
std::vector<double> run_row(const SoftmaxEngine& eng, SoftmaxRunState& run,
                            std::span<const double> row) {
  SoftmaxEngineRowRef star(eng, run);
  return nn::softmax_row(star, row);
}

/// The engine's probability codes of one code row.
std::vector<std::int64_t> run_codes(const SoftmaxEngine& eng, SoftmaxRunState& run,
                                    std::span<const std::int64_t> codes) {
  std::vector<std::int64_t> probs(codes.size());
  eng.forward_codes_into(codes, run, probs);
  return probs;
}

/// Rows whose values stay inside the engine's biased-signed input window
/// (|x| < 2^(b-1) * resolution), where engine and oracle are bit-equivalent.
std::vector<double> in_window_row(const fxp::QFormat& fmt, std::size_t n, Rng& rng) {
  const double half_range = std::ldexp(1.0, fmt.total_bits() - 1) * fmt.resolution();
  std::vector<double> row(n);
  for (auto& v : row) {
    v = rng.uniform(-half_range * 0.9, half_range * 0.9);
  }
  return row;
}

TEST(SoftmaxEngine, GeometryMatchesPaperForNineBits) {
  const SoftmaxEngine eng(config_for(fxp::kMrpcFormat));  // 9-bit
  // CAM/SUB 512x18; CAM/LUT/VMM with 256 rows (paper Section III).
  EXPECT_EQ(eng.exp_rows(), 256);
  EXPECT_EQ(eng.format().total_bits(), 9);
}

TEST(SoftmaxEngine, MatchesOracleWithinDividerStep) {
  const SoftmaxEngine eng(config_for(fxp::kMrpcFormat));
  SoftmaxRunState run;
  Rng rng(1);
  const double tol = std::ldexp(1.0, -eng.prob_frac_bits()) * 1.5;
  for (int trial = 0; trial < 30; ++trial) {
    const auto row = in_window_row(eng.format(), 64, rng);
    const auto oracle =
        workload::quantized_softmax(row, eng.format(), eng.lut_frac_bits());
    const auto got = run_row(eng, run, row);
    ASSERT_EQ(got.size(), oracle.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], oracle[i], tol) << "trial " << trial << " i " << i;
    }
  }
}

TEST(SoftmaxEngine, OutputsSumToOneWithinFlooring) {
  const SoftmaxEngine eng(config_for(fxp::kCnewsFormat));
  SoftmaxRunState run;
  Rng rng(2);
  const auto row = in_window_row(eng.format(), 128, rng);
  const auto p = run_row(eng, run, row);
  const double sum = std::accumulate(p.begin(), p.end(), 0.0);
  // Each element floors away < 1 divider LSB.
  EXPECT_LE(sum, 1.0 + 1e-9);
  EXPECT_GE(sum, 1.0 - 128.0 * std::ldexp(1.0, -eng.prob_frac_bits()));
}

TEST(SoftmaxEngine, OrderPreservingOnCodes) {
  const SoftmaxEngine eng(config_for(fxp::kCnewsFormat));
  SoftmaxRunState run;
  // Codes within e^-x LUT resolution of the max (Q6.2: code 40 = value 10,
  // so the magnitudes below stay representable in the LUT words).
  const std::vector<std::int64_t> codes{16, 40, 30, 40};
  const auto p = run_codes(eng, run, codes);
  EXPECT_LT(p[0], p[2]);
  EXPECT_LT(p[2], p[1]);
  EXPECT_EQ(p[1], p[3]);  // equal codes -> identical probabilities
}

TEST(SoftmaxEngine, DeepElementsUnderflowToZero) {
  const SoftmaxEngine eng(config_for(fxp::kCnewsFormat));
  SoftmaxRunState run;
  // Max code and an element farther than the exp CAM row range below it.
  const std::vector<std::int64_t> codes{255, 255 - eng.exp_rows() - 1};
  const auto p = run_codes(eng, run, codes);
  EXPECT_EQ(p[1], 0);
  EXPECT_GT(p[0], 0);
}

TEST(SoftmaxEngine, AgreesWithExactSoftmaxOnTypicalRows) {
  const SoftmaxEngine eng(config_for(fxp::kMrpcFormat));
  SoftmaxRunState run;
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const auto row = in_window_row(eng.format(), 32, rng);
    const auto exact = nn::softmax(row);
    const auto got = run_row(eng, run, row);
    EXPECT_EQ(argmax(exact), argmax(got));
    EXPECT_LT(max_abs_diff(exact, got), 0.04);
  }
}

TEST(SoftmaxEngine, WorksAsRowSoftmaxInAttention) {
  const SoftmaxEngine eng(config_for(fxp::kMrpcFormat));
  SoftmaxRunState run;
  SoftmaxEngineRowRef star(eng, run);
  nn::ExactSoftmaxInto exact;
  Rng rng(4);
  const auto q = nn::Tensor::randn(8, 16, rng);
  const auto k = nn::Tensor::randn(8, 16, rng);
  const auto v = nn::Tensor::randn(8, 4, rng);
  const auto out_star = nn::scaled_dot_attention(q, k, v, star);
  const auto out_exact = nn::scaled_dot_attention(q, k, v, exact);
  EXPECT_LT(nn::Tensor::max_abs_diff(out_star, out_exact), 0.15);
}

TEST(SoftmaxEngine, RowStatsPopulatedAndConsistent) {
  const SoftmaxEngine eng(config_for(fxp::kCnewsFormat));
  const SoftmaxRowStats st = eng.compute_row_stats(64);
  EXPECT_EQ(st.elements, 64);
  EXPECT_GT(st.latency.as_ns(), 0.0);
  EXPECT_GT(st.energy.as_pJ(), 0.0);
  const double stage_sum = st.t_maxfind.as_ns() + st.t_subtract.as_ns() +
                           st.t_exp.as_ns() + st.t_sum.as_ns() + st.t_divide.as_ns();
  EXPECT_NEAR(st.latency.as_ns(), stage_sum, 1e-6);
}

TEST(SoftmaxEngine, CostsGrowWithRowLength) {
  const SoftmaxEngine eng(config_for(fxp::kMrpcFormat));
  EXPECT_GT(eng.row_latency(256).as_ns(), eng.row_latency(64).as_ns());
  EXPECT_GT(eng.row_energy(256).as_pJ(), eng.row_energy(64).as_pJ());
  EXPECT_GT(eng.active_power(128).as_uW(), 0.0);
  EXPECT_GT(eng.preload_energy().as_nJ(), 0.0);
}

// ---------- table preload costs across the paper's dataset formats ----------
// Groundwork for the LUT-programming cache (ROADMAP): per-dataset formats
// imply CAM/LUT table swaps, and the cache will charge preload_energy()
// only on a miss — so its per-format value must be pinned down.

TEST(SoftmaxEngine, PreloadEnergyPositiveAndDeterministicPerFormat) {
  for (const auto& fmt : {fxp::kCnewsFormat, fxp::kMrpcFormat, fxp::kColaFormat}) {
    const SoftmaxEngine eng(config_for(fmt));
    EXPECT_GT(eng.preload_energy().as_nJ(), 0.0) << fmt.name();
    // Same format -> the same programmed image -> the same bits of energy
    // (what a cache hit must be allowed to skip).
    const SoftmaxEngine again(config_for(fmt));
    EXPECT_EQ(eng.preload_energy().as_J(), again.preload_energy().as_J())
        << fmt.name();
  }
}

TEST(SoftmaxEngine, PreloadEnergyGrowsWithOperandWidth) {
  // b-bit operands program a 2^b x 2b CAM/SUB and 2^(b-1)-row CAM/LUT:
  // every extra operand bit doubles the programmed cells, so the ordering
  // CoLA (7b) < CNEWS (8b) < MRPC (9b) is structural.
  const SoftmaxEngine cola(config_for(fxp::kColaFormat));
  const SoftmaxEngine cnews(config_for(fxp::kCnewsFormat));
  const SoftmaxEngine mrpc(config_for(fxp::kMrpcFormat));
  EXPECT_LT(cola.preload_energy().as_nJ(), cnews.preload_energy().as_nJ());
  EXPECT_LT(cnews.preload_energy().as_nJ(), mrpc.preload_energy().as_nJ());
}

TEST(SoftmaxEngine, PreloadEnergyIndependentOfRuntimeKnobs) {
  // The preload prices the programmed tables only — fault injection and
  // the counter range are runtime concerns and must not leak into it (a
  // cache keyed by QFormat alone relies on this).
  StarConfig base = config_for(fxp::kCnewsFormat);
  StarConfig faulty = base;
  faulty.cam_miss_prob = 0.2;
  faulty.max_seq_len = 256;
  EXPECT_EQ(SoftmaxEngine(base).preload_energy().as_J(),
            SoftmaxEngine(faulty).preload_energy().as_J());
}

TEST(SoftmaxEngine, PreloadCostBundlesEnergyAndLatency) {
  const SoftmaxEngine eng(config_for(fxp::kMrpcFormat));
  const hw::ProgramCost pc = eng.preload_cost();
  EXPECT_EQ(pc.energy.as_J(), eng.preload_energy().as_J());
  EXPECT_EQ(pc.latency.as_ns(), eng.preload_latency().as_ns());
  EXPECT_GT(pc.latency.as_ns(), 0.0);
  // The static per-format helper prices exactly the engine an on-the-fly
  // construction would: the residency layer's miss bill is well defined.
  const hw::ProgramCost via_helper =
      SoftmaxEngine::preload_cost_for(config_for(fxp::kCnewsFormat),
                                      fxp::kMrpcFormat);
  EXPECT_EQ(via_helper.energy.as_J(), pc.energy.as_J());
  EXPECT_EQ(via_helper.latency.as_ns(), pc.latency.as_ns());
}

// ---------- golden-file regression: per-format preload bills ----------
// tests/golden/softmax_preload.csv pins the exact doubles of each paper
// format's CAM/LUT image programming bill — the miss cost the residency
// cache charges. Doubles are written with 17 significant digits, so strtod
// round-trips the recorded bits (same discipline as matmul_costs.csv).

TEST(SoftmaxEngineGolden, PreloadCostsMatchGoldenExactly) {
  const std::string path =
      std::string(STAR_TEST_GOLDEN_DIR) + "/softmax_preload.csv";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file: " << path;
  std::string line;
  std::getline(in, line);  // header
  int rows = 0;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::stringstream ss(line);
    std::string cell;
    std::vector<std::string> cells;
    while (std::getline(ss, cell, ',')) {
      cells.push_back(cell);
    }
    ASSERT_EQ(cells.size(), 6u) << "malformed golden row: " << line;
    const fxp::QFormat fmt =
        fxp::make_unsigned(std::atoi(cells[1].c_str()), std::atoi(cells[2].c_str()));
    const SoftmaxEngine eng(config_for(fmt));
    EXPECT_EQ(fmt.name(), cells[0]);
    EXPECT_EQ(fmt.total_bits(), std::atoi(cells[3].c_str())) << cells[0];
    EXPECT_EQ(eng.preload_energy().as_nJ(),
              std::strtod(cells[4].c_str(), nullptr))
        << cells[0];
    EXPECT_EQ(eng.preload_latency().as_ns(),
              std::strtod(cells[5].c_str(), nullptr))
        << cells[0];
    ++rows;
  }
  EXPECT_EQ(rows, 3) << "golden must cover CNEWS, MRPC and CoLA";
}

TEST(SoftmaxEngine, WiderFormatCostsMoreArea) {
  const SoftmaxEngine small(config_for(fxp::kColaFormat));   // 7-bit
  const SoftmaxEngine big(config_for(fxp::kMrpcFormat));     // 9-bit
  EXPECT_GT(big.area().as_um2(), small.area().as_um2());
}

TEST(SoftmaxEngine, AreaFarBelowCmosBaseline) {
  const SoftmaxEngine eng(config_for(fxp::kCnewsFormat));
  const baseline::CmosSoftmaxUnit base(hw::TechNode::n32());
  const double ratio = eng.area() / base.area();
  // Paper Table I: 0.06x. Band allows model tolerance.
  EXPECT_GT(ratio, 0.02);
  EXPECT_LT(ratio, 0.09);
}

TEST(SoftmaxEngine, CostSheetListsAllBlocks) {
  const SoftmaxEngine eng(config_for(fxp::kMrpcFormat));
  const auto sheet = eng.cost_sheet(128);
  EXPECT_GE(sheet.items().size(), 6u);
  const std::string breakdown = sheet.breakdown();
  EXPECT_NE(breakdown.find("CAM/SUB"), std::string::npos);
  EXPECT_NE(breakdown.find("LUT"), std::string::npos);
  EXPECT_NE(breakdown.find("divider"), std::string::npos);
  EXPECT_NEAR(sheet.total_area().as_um2(), eng.area().as_um2(),
              eng.area().as_um2() * 0.01);
}

TEST(SoftmaxEngine, RejectsBadInputs) {
  const SoftmaxEngine eng(config_for(fxp::kCnewsFormat));
  SoftmaxRunState run;
  EXPECT_THROW(run_row(eng, run, std::vector<double>{}), InvalidArgument);
  EXPECT_THROW(run_codes(eng, run, std::vector<std::int64_t>{256}), InvalidArgument);
  EXPECT_THROW(run_codes(eng, run, std::vector<std::int64_t>{-1}), InvalidArgument);
  EXPECT_THROW((void)eng.row_latency(0), InvalidArgument);
}

TEST(SoftmaxEngine, RejectsRowsLongerThanMaxSeqLen) {
  // The counters are sized by bits_for(max_seq_len): a longer row would
  // saturate them and the probabilities would stop summing to one.
  StarConfig cfg = config_for(fxp::kCnewsFormat);
  cfg.max_seq_len = 16;
  const SoftmaxEngine eng(cfg);
  SoftmaxRunState run;
  EXPECT_THROW(run_row(eng, run, std::vector<double>(17, 0.5)), InvalidArgument);
  EXPECT_THROW(run_codes(eng, run, std::vector<std::int64_t>(64, 40)), InvalidArgument);
  EXPECT_EQ(run_row(eng, run, std::vector<double>(16, 0.5)).size(), 16u);
}

TEST(SoftmaxEngine, SignedFormatRejectedByConfig) {
  StarConfig cfg;
  cfg.softmax_format = fxp::make_signed(6, 2);
  EXPECT_THROW(SoftmaxEngine{cfg}, InvalidArgument);
}

TEST(SoftmaxEngine, OversizedFormatsFailConfigValidationFirst) {
  // The config is validated before any crossbar is sized from it: a 20-bit
  // format must not build a 2^20-row CAM/SUB first, and a 31-bit one must
  // not escape as std::length_error.
  for (const int bits : {13, 20, 31}) {
    const StarConfig cfg = config_for(fxp::make_unsigned(bits - 4, 4));
    const auto expect_config_error = [&](const std::function<void()>& build,
                                         const char* what) {
      std::string message = "accepted";
      try {
        build();
      } catch (const InvalidArgument& e) {
        message = e.what();
      }
      EXPECT_NE(message.find("StarConfig"), std::string::npos)
          << what << ", " << bits << " bits: " << message;
    };
    expect_config_error([&] { const SoftmaxEngine eng(cfg); }, "SoftmaxEngine");
    expect_config_error([&] { const StarAccelerator acc(cfg); }, "StarAccelerator");
    expect_config_error([&] { const BatchEncoderSim sim(cfg, nn::BertConfig::tiny()); },
                        "BatchEncoderSim");
  }
}

// ---------- every format StarConfig accepts ----------

/// Every unsigned format of 4..12 bits: the formats StarConfig accepts.
std::vector<fxp::QFormat> accepted_formats() {
  std::vector<fxp::QFormat> formats;
  for (int bits = 4; bits <= 12; ++bits) {
    for (int int_bits = 0; int_bits <= bits; ++int_bits) {
      formats.push_back(fxp::make_unsigned(int_bits, bits - int_bits));
    }
  }
  return formats;
}

/// The LUT word of magnitude code `mag`, from the paper's construction.
std::int64_t lut_word(const fxp::QFormat& fmt, int lut_frac_bits, std::int64_t mag) {
  return static_cast<std::int64_t>(
      round_half_even(std::exp(-static_cast<double>(mag) * fmt.resolution()) *
                      std::ldexp(1.0, lut_frac_bits)));
}

TEST(SoftmaxEngine, ExpTableHoldsEveryMagnitudeWithANonZeroWord) {
  // A magnitude beyond the exp CAM's rows reads as a zero word, so every
  // such magnitude's word must round to 0. With 2^(b-1) rows that failed
  // for narrow formats: a Q2.2 engine read [1.0, -1.0] as [1.0, 0.0].
  const std::vector<fxp::QFormat> formats = accepted_formats();
  ASSERT_EQ(formats.size(), 81u);
  int full_tables = 0;
  for (const fxp::QFormat& fmt : formats) {
    const SoftmaxEngine eng(config_for(fmt));
    const std::int64_t codes = std::int64_t{1} << fmt.total_bits();
    ASSERT_TRUE(eng.exp_rows() == codes / 2 || eng.exp_rows() == codes) << fmt.name();
    full_tables += eng.exp_rows() == codes ? 1 : 0;
    for (std::int64_t mag = eng.exp_rows(); mag < codes; ++mag) {
      ASSERT_EQ(lut_word(fmt, eng.lut_frac_bits(), mag), 0)
          << fmt.name() << " magnitude " << mag << " of " << eng.exp_rows() << " rows";
    }
    SoftmaxRunState run;
    const std::vector<double> row{1.0, -1.0};
    const auto oracle = workload::quantized_softmax(row, fmt, eng.lut_frac_bits());
    const auto got = run_row(eng, run, row);
    const double tol = std::ldexp(1.0, -eng.prob_frac_bits()) * 1.5;
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_NEAR(got[i], oracle[i], tol) << fmt.name() << " element " << i;
    }
  }
  // The paper's formats keep half the code space (256 rows at 9 bits).
  EXPECT_EQ(SoftmaxEngine(config_for(fxp::kCnewsFormat)).exp_rows(), 128);
  EXPECT_EQ(SoftmaxEngine(config_for(fxp::kMrpcFormat)).exp_rows(), 256);
  EXPECT_EQ(SoftmaxEngine(config_for(fxp::kColaFormat)).exp_rows(), 64);
  EXPECT_EQ(full_tables, 41);
  // The reported case against the oracle's figures.
  SoftmaxRunState run;
  const auto q22 =
      run_row(SoftmaxEngine(config_for(fxp::make_unsigned(2, 2))), run,
              std::vector<double>{1.0, -1.0});
  EXPECT_NEAR(q22[0], 0.8834, 1e-3);
  EXPECT_NEAR(q22[1], 0.1166, 1e-3);
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(SoftmaxCosts, EqualsAFullEnginesFiguresBitForBit) {
  // StarAccelerator holds SoftmaxCosts and builds no table; its figures
  // must be the ones a full engine reports, for every accepted format.
  const xbar::RramDevice devices[] = {xbar::RramDevice::ideal(2),
                                      xbar::RramDevice::noisy(1)};
  int configs = 0;
  for (const fxp::QFormat& fmt : accepted_formats()) {
    for (const xbar::RramDevice& device : devices) {
      for (const int max_seq_len : {2, 384, 1024, 4096}) {
        StarConfig cfg = config_for(fmt);
        cfg.device = device;
        cfg.max_seq_len = max_seq_len;
        const SoftmaxCosts costs(cfg);
        const SoftmaxEngine eng(cfg);
        const std::string where = fmt.name() + " max_seq_len " + std::to_string(max_seq_len) +
                                  " bits/cell " + std::to_string(device.bits_per_cell);
        ASSERT_EQ(costs.exp_rows(), eng.exp_rows()) << where;
        ASSERT_EQ(costs.lut_frac_bits(), eng.lut_frac_bits()) << where;
        ASSERT_EQ(costs.prob_frac_bits(), eng.prob_frac_bits()) << where;
        ASSERT_EQ(bits_of(costs.area().as_mm2()), bits_of(eng.area().as_mm2())) << where;
        ASSERT_EQ(bits_of(costs.leakage().as_W()), bits_of(eng.leakage().as_W())) << where;
        ASSERT_EQ(bits_of(costs.preload_energy().as_J()), bits_of(eng.preload_energy().as_J()))
            << where;
        ASSERT_EQ(bits_of(costs.preload_latency().as_s()),
                  bits_of(eng.preload_latency().as_s()))
            << where;
        // The residency layer's per-format bill, priced from another
        // format's config on the same substrate, is the same image's.
        StarConfig other = config_for(fxp::kColaFormat);
        other.device = device;
        const hw::ProgramCost via_helper = SoftmaxEngine::preload_cost_for(other, fmt);
        ASSERT_EQ(bits_of(costs.preload_cost().energy.as_J()), bits_of(via_helper.energy.as_J()))
            << where;
        ASSERT_EQ(bits_of(costs.preload_cost().latency.as_s()),
                  bits_of(via_helper.latency.as_s()))
            << where;
        ASSERT_TRUE(costs.image_key() == eng.image_key()) << where;
        for (const int d : {1, 2, 7, max_seq_len}) {
          const SoftmaxRowStats a = costs.compute_row_stats(d);
          const SoftmaxRowStats b = eng.compute_row_stats(d);
          const double fa[] = {a.latency.as_s(),    a.energy.as_J(),     a.t_maxfind.as_s(),
                               a.t_subtract.as_s(), a.t_exp.as_s(),      a.t_sum.as_s(),
                               a.t_divide.as_s(),   a.e_maxfind.as_J(),  a.e_subtract.as_J(),
                               a.e_exp.as_J(),      a.e_sum.as_J(),      a.e_divide.as_J(),
                               costs.row_latency(d).as_s(), costs.row_energy(d).as_J(),
                               costs.active_power(d).as_W()};
          const double fb[] = {b.latency.as_s(),    b.energy.as_J(),     b.t_maxfind.as_s(),
                               b.t_subtract.as_s(), b.t_exp.as_s(),      b.t_sum.as_s(),
                               b.t_divide.as_s(),   b.e_maxfind.as_J(),  b.e_subtract.as_J(),
                               b.e_exp.as_J(),      b.e_sum.as_J(),      b.e_divide.as_J(),
                               eng.row_latency(d).as_s(), eng.row_energy(d).as_J(),
                               eng.active_power(d).as_W()};
          ASSERT_EQ(a.elements, b.elements) << where;
          for (std::size_t f = 0; f < std::size(fa); ++f) {
            ASSERT_EQ(bits_of(fa[f]), bits_of(fb[f])) << where << " d " << d << " field " << f;
          }
          const hw::CostSheet sa = costs.cost_sheet(d);
          const hw::CostSheet sb = eng.cost_sheet(d);
          ASSERT_EQ(sa.items().size(), sb.items().size()) << where;
          for (std::size_t i = 0; i < sa.items().size(); ++i) {
            const hw::CostItem& ia = sa.items()[i];
            const hw::CostItem& ib = sb.items()[i];
            ASSERT_EQ(ia.name, ib.name) << where;
            ASSERT_EQ(bits_of(ia.total_area().as_mm2()), bits_of(ib.total_area().as_mm2()))
                << where << " " << ia.name;
            ASSERT_EQ(bits_of(ia.total_energy().as_J()), bits_of(ib.total_energy().as_J()))
                << where << " " << ia.name;
            ASSERT_EQ(bits_of(ia.total_leakage().as_W()), bits_of(ib.total_leakage().as_W()))
                << where << " " << ia.name;
          }
          ASSERT_EQ(bits_of(sa.latency().as_s()), bits_of(sb.latency().as_s())) << where;
        }
        ++configs;
      }
    }
  }
  EXPECT_EQ(configs, 81 * 2 * 4);
}

TEST(SoftmaxCosts, ConfigChecksStillThrowFromStarAccelerator) {
  std::vector<std::pair<const char*, StarConfig>> bad;
  const auto with = [&](const char* what, auto&& edit) {
    StarConfig cfg;
    edit(cfg);
    bad.emplace_back(what, cfg);
  };
  with("signed format", [](StarConfig& c) { c.softmax_format = fxp::make_signed(6, 2); });
  with("3-bit format", [](StarConfig& c) { c.softmax_format = fxp::make_unsigned(1, 2); });
  with("13-bit format", [](StarConfig& c) { c.softmax_format = fxp::make_unsigned(9, 4); });
  with("max_seq_len 1", [](StarConfig& c) { c.max_seq_len = 1; });
  with("cam_miss_prob 1", [](StarConfig& c) { c.cam_miss_prob = 1.0; });
  with("g_off above g_on", [](StarConfig& c) { c.device.g_off_us = 2.0 * c.device.g_on_us; });
  for (const auto& [what, cfg] : bad) {
    EXPECT_THROW(SoftmaxCosts{cfg}, InvalidArgument) << what;
    EXPECT_THROW(SoftmaxEngine{cfg}, InvalidArgument) << what;
    EXPECT_THROW(StarAccelerator{cfg}, InvalidArgument) << what;
  }
}

// Oracle-equivalence sweep across all three paper formats and distributions.
class EngineOracleSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(EngineOracleSweep, BitConsistentWithOracle) {
  const auto [ib, fb, seed] = GetParam();
  const fxp::QFormat fmt = fxp::make_unsigned(ib, fb);
  const SoftmaxEngine eng(config_for(fmt));
  SoftmaxRunState run;
  Rng rng(static_cast<std::uint64_t>(seed) * 7919);
  const double tol = std::ldexp(1.0, -eng.prob_frac_bits()) * 1.5;
  for (int trial = 0; trial < 5; ++trial) {
    const auto row = in_window_row(fmt, 48, rng);
    const auto oracle = workload::quantized_softmax(row, fmt, eng.lut_frac_bits());
    const auto got = run_row(eng, run, row);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], oracle[i], tol);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, EngineOracleSweep,
    ::testing::Combine(::testing::Values(5, 6), ::testing::Values(2, 3),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace star::core
