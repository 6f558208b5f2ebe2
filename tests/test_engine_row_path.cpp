// The softmax engine's O(d) row path against the dense references it
// replaced, plus its behaviour on hostile scores.
//
// A row touches only the counters, LUT rows and quotients its own elements
// reach, so each shortcut is pinned to the dense model it stands for:
//   * the counters' touched-row list: reset() and the summation VMM visit
//     only those rows, which must equal clearing and summing all of them;
//   * the priority encoder as the smallest matched row, which must equal the
//     first set bit of the OR-merged matchlines, fault draws included;
//   * the quantise pass (multiply by 2^f, clamp, round half to even) and
//     the code path behind it, which must equal the reference quantiser
//     followed by forward_codes_into();
//   * the whole row, which must equal the phase-level crossbar calls it
//     fuses, output bits and fault-stream position alike;
//   * per-run scratch reused across rows, which must leave no trace of the
//     previous row;
//   * RowSoftmaxInto's aliasing contract, on which the attention kernel's
//     in-place softmax over the score buffer rests.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baseline/cmos_softmax.hpp"
#include "baseline/softermax.hpp"
#include "core/batch_encoder.hpp"
#include "core/softmax_engine.hpp"
#include "hw/counter.hpp"
#include "hw/divider.hpp"
#include "nn/softmax_ref.hpp"
#include "serve/request.hpp"
#include "serve/star_server.hpp"
#include "sim/batch_scheduler.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "workload/dataset_profile.hpp"
#include "workload/trace_gen.hpp"
#include "xbar/cam.hpp"
#include "xbar/cam_sub.hpp"

namespace star {
namespace {

const hw::TechNode kTech = hw::TechNode::n32();

core::StarConfig mrpc_config(double miss_prob = 0.0) {
  core::StarConfig cfg;
  cfg.softmax_format = fxp::kMrpcFormat;
  cfg.cam_miss_prob = miss_prob;
  return cfg;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

bool same_stream(Rng a, Rng b) { return a() == b() && a() == b(); }

/// One input row's worth of matches into `counters`, through both
/// accumulate paths at random. Rows come from [0, hot_rows) so small
/// ranges pile enough matches onto one counter to saturate it.
void accumulate_mix(hw::CounterArray& counters, Rng& rng, int hot_rows, int matches) {
  std::vector<bool> one_hot;
  for (int m = 0; m < matches; ++m) {
    const auto row = static_cast<std::size_t>(rng.uniform_int(0, hot_rows - 1));
    if (rng.bernoulli(0.5)) {
      counters.accumulate_row(static_cast<int>(row));
    } else {
      one_hot.assign(static_cast<std::size_t>(counters.rows()), false);
      one_hot[row] = rng.bernoulli(0.9);  // sometimes no matchline at all
      counters.accumulate(one_hot);
    }
  }
}

// ---------- sparse counters against the dense array ----------

TEST(SparseCounters, ResetClearsEveryCounterAfterAnyMix) {
  // 3-bit counters saturate at 7; 40 matches over 2 hot rows pass it.
  hw::CounterArray counters(kTech, 16, 3);
  Rng rng(0xC0C0);
  for (int round = 0; round < 60; ++round) {
    const int hot_rows = round % 3 == 0 ? 2 : 16;
    accumulate_mix(counters, rng, hot_rows, static_cast<int>(rng.uniform_int(0, 40)));
    counters.reset();
    EXPECT_EQ(counters.counts(), std::vector<std::int64_t>(16, 0)) << "round " << round;
    EXPECT_TRUE(counters.touched().empty()) << "round " << round;
  }
}

TEST(SparseCounters, TouchedRowSumEqualsDenseDotProduct) {
  constexpr int kRows = 32;
  hw::CounterArray counters(kTech, kRows, 3);
  Rng rng(0x5A5A);
  std::vector<std::int64_t> words(kRows);
  for (auto& w : words) {
    w = rng.uniform_int(1, (1 << 17) - 1);  // LUT-word range of the 9-bit engine
  }
  for (int round = 0; round < 60; ++round) {
    counters.reset();
    const int hot_rows = round % 3 == 0 ? 3 : kRows;
    accumulate_mix(counters, rng, hot_rows, static_cast<int>(rng.uniform_int(1, 80)));
    const std::vector<std::int64_t>& counts = counters.counts();
    std::int64_t dense = 0;
    for (std::size_t r = 0; r < counts.size(); ++r) {
      dense += counts[r] * words[r];
    }
    std::int64_t sparse = 0;
    std::vector<int> listed(kRows, 0);
    for (const std::int32_t r : counters.touched()) {
      sparse += counts[static_cast<std::size_t>(r)] * words[static_cast<std::size_t>(r)];
      ++listed[static_cast<std::size_t>(r)];
    }
    EXPECT_EQ(sparse, dense) << "round " << round;
    for (std::size_t r = 0; r < counts.size(); ++r) {
      EXPECT_EQ(listed[r], counts[r] > 0 ? 1 : 0) << "round " << round << " row " << r;
    }
  }
}

// ---------- priority encode against the dense merged matchlines ----------

TEST(MinRowEncode, MaxRowIsTheFirstSetMatchlineWithTheDenseScansDraws) {
  constexpr int kBits = 7;
  constexpr int kRows = 1 << kBits;
  const xbar::RramDevice device = xbar::RramDevice::ideal(2);
  const xbar::CamSubCrossbar cam_sub(kTech, device, kBits);
  // The dense reference: the same descending preload, searched row by row.
  xbar::CamCrossbar dense(kTech, device, kRows, kBits);
  std::vector<std::int64_t> preload(kRows);
  for (int r = 0; r < kRows; ++r) {
    preload[static_cast<std::size_t>(r)] = kRows - 1 - r;
  }
  dense.fill(preload);

  for (const double miss : {0.0, 0.3}) {
    Rng rows_rng(0x0E0C);
    Rng fast(0xFA57);
    Rng ref(0xFA57);
    xbar::MaxFindResult res;
    std::vector<bool> match;
    std::vector<bool> merged;
    for (int trial = 0; trial < 300; ++trial) {
      // Narrow code ranges repeat codes; wide ones spread the max around.
      const auto n = static_cast<std::size_t>(rows_rng.uniform_int(1, 48));
      const std::int64_t lo = rows_rng.uniform_int(0, kRows - 1);
      const std::int64_t hi =
          std::min<std::int64_t>(kRows - 1, lo + rows_rng.uniform_int(0, 40));
      std::vector<std::int64_t> codes(n);
      for (auto& c : codes) {
        c = rows_rng.uniform_int(lo, hi);
      }
      merged.assign(kRows, false);
      for (const std::int64_t c : codes) {
        dense.search_into(c, miss, ref, match);
        for (std::size_t r = 0; r < match.size(); ++r) {
          merged[r] = merged[r] || match[r];
        }
      }
      int first_set = -1;
      for (int r = 0; r < kRows && first_set < 0; ++r) {
        first_set = merged[static_cast<std::size_t>(r)] ? r : -1;
      }
      if (first_set < 0) {
        EXPECT_THROW(cam_sub.find_max_into(codes, miss, fast, res), SimulationError);
      } else {
        cam_sub.find_max_into(codes, miss, fast, res);
        EXPECT_EQ(res.max_row, first_set) << "miss " << miss << " trial " << trial;
        EXPECT_EQ(res.max_code, cam_sub.code_at(first_set));
        EXPECT_EQ(res.merged_matchlines, merged) << "miss " << miss << " trial " << trial;
      }
      ASSERT_TRUE(same_stream(fast, ref)) << "miss " << miss << " trial " << trial;
    }
  }
}

// ---------- the quantise pass against the reference quantiser ----------

/// The reference input rule: code = round_half_even(clamp(x / res)) + 2^(b-1).
std::vector<std::int64_t> reference_codes(std::span<const double> x,
                                          const fxp::QFormat& fmt) {
  const double bias = std::ldexp(1.0, fmt.total_bits() - 1);
  std::vector<std::int64_t> codes;
  for (const double v : x) {
    const double c = round_half_even(std::clamp(v / fmt.resolution(), -bias, bias - 1.0));
    codes.push_back(static_cast<std::int64_t>(c + bias));
  }
  return codes;
}

TEST(QuantisePass, RowEqualsReferenceCodesThroughTheCodePath) {
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (const fxp::QFormat fmt :
       {fxp::make_unsigned(2, 2), fxp::kColaFormat, fxp::kCnewsFormat,
        fxp::kMrpcFormat, fxp::make_unsigned(7, 5)}) {
    core::StarConfig cfg;
    cfg.softmax_format = fmt;
    const core::SoftmaxEngine eng(cfg);
    // Every half-code tie from 4 codes below the window to 4 above it, and
    // the specials, in ascending order: a row is a run of neighbours, so
    // its elements sit within the exp CAM's reach of its maximum and a
    // wrong code shows in the output.
    const double res = fmt.resolution();
    const auto half = static_cast<std::int64_t>(1) << (fmt.total_bits() - 1);
    std::vector<double> values{-inf, -1e300};
    for (std::int64_t k = -half - 4; k < half + 4; ++k) {
      values.push_back((static_cast<double>(k) + 0.5) * res);
    }
    values.insert(values.end(), {-tiny, -0.0, 0.0, tiny, 1e300, inf});
    std::sort(values.begin(), values.end());
    const std::size_t len = std::min<std::size_t>(32, eng.exp_rows() / 2);
    core::SoftmaxRunState by_row(0x0A);
    core::SoftmaxRunState by_codes(0x0A);
    std::vector<std::int64_t> probs;
    std::vector<double> out;
    for (std::size_t start = 0; start < values.size(); start += len / 2) {
      const std::span<const double> row(values.data() + start,
                                        std::min(len, values.size() - start));
      out.resize(row.size());
      probs.resize(row.size());
      eng.softmax_row_into(row, by_row, out);
      eng.forward_codes_into(reference_codes(row, fmt), by_codes, probs);
      for (std::size_t i = 0; i < row.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                  std::bit_cast<std::uint64_t>(
                      std::ldexp(static_cast<double>(probs[i]), -eng.prob_frac_bits())))
            << fmt.name() << " x " << row[i] << " at " << i << " of the row from "
            << row[0];
      }
    }
  }
}

// ---------- the row against the phase-level crossbar calls ----------

/// The engine's datapath composed from the crossbars' phase-level calls:
/// find_max and subtract_all on the CAM/SUB, a dense search of the exp CAM
/// per element, the counters' one-hot accumulate, the summation VMM as the
/// dot product over every row, and the divider.
class PhaseReference {
 public:
  PhaseReference(const core::StarConfig& cfg, int lut_frac_bits, int prob_frac_bits)
      : miss_(cfg.cam_miss_prob),
        prob_frac_bits_(prob_frac_bits),
        cam_sub_(cfg.tech, cfg.device, cfg.softmax_format.total_bits()),
        exp_cam_(cfg.tech, cfg.device, 1 << (cfg.softmax_format.total_bits() - 1),
                 cfg.softmax_format.total_bits()),
        counters_(cfg.tech, exp_cam_.rows(),
                  bits_for(static_cast<std::uint64_t>(cfg.max_seq_len))),
        divider_(cfg.tech,
                 std::min(31, lut_frac_bits + 1 +
                                  bits_for(static_cast<std::uint64_t>(cfg.max_seq_len))),
                 9) {
    const double res = cfg.softmax_format.resolution();
    std::vector<std::int64_t> magnitudes;
    for (int r = 0; r < exp_cam_.rows(); ++r) {
      magnitudes.push_back(r);
      words_.push_back(static_cast<std::int64_t>(round_half_even(
          std::exp(-static_cast<double>(r) * res) * std::ldexp(1.0, lut_frac_bits))));
    }
    exp_cam_.fill(magnitudes);
  }

  /// Probability codes of one row of operand codes; draws from `rng`.
  std::vector<std::int64_t> operator()(const std::vector<std::int64_t>& codes, Rng& rng) {
    const xbar::MaxFindResult mf = cam_sub_.find_max(codes, miss_, rng);
    const std::vector<std::int64_t> diffs = cam_sub_.subtract_all(mf, codes);
    counters_.reset();
    std::vector<std::int64_t> e(codes.size(), 0);
    std::vector<bool> match;
    for (std::size_t i = 0; i < codes.size(); ++i) {
      // A missed CAM/SUB search leaves the SL discharged: no magnitude at all.
      if (mf.input_rows[i] < 0) {
        continue;
      }
      exp_cam_.search_into(-diffs[i], miss_, rng, match);
      counters_.accumulate(match);
      for (std::size_t r = 0; r < match.size(); ++r) {
        e[i] = match[r] ? words_[r] : e[i];
      }
    }
    std::int64_t denom = 0;
    for (std::size_t r = 0; r < words_.size(); ++r) {
      denom += counters_.counts()[r] * words_[r];
    }
    std::vector<std::int64_t> probs;
    for (const std::int64_t word : e) {
      probs.push_back(divider_.divide(word, denom, prob_frac_bits_));
    }
    return probs;
  }

 private:
  double miss_;
  int prob_frac_bits_;
  xbar::CamSubCrossbar cam_sub_;
  xbar::CamCrossbar exp_cam_;
  hw::CounterArray counters_;
  hw::Divider divider_;
  std::vector<std::int64_t> words_;
};

TEST(PhaseReference, EngineRowMatchesThePhaseLevelCrossbarCalls) {
  const std::pair<fxp::QFormat, workload::DatasetProfile> datasets[] = {
      {fxp::kCnewsFormat, workload::DatasetProfile::cnews()},
      {fxp::kMrpcFormat, workload::DatasetProfile::mrpc()},
      {fxp::kColaFormat, workload::DatasetProfile::cola()}};
  for (const auto& [fmt, profile] : datasets) {
    for (const double miss : {0.0, 0.05, 0.5}) {
      core::StarConfig cfg;
      cfg.softmax_format = fmt;
      cfg.cam_miss_prob = miss;
      const core::SoftmaxEngine eng(cfg);
      PhaseReference reference(cfg, eng.lut_frac_bits(), eng.prob_frac_bits());
      core::SoftmaxRunState run(0xD1A6);
      Rng ref_rng(0xD1A6);
      Rng rows_rng(0x5C0E);
      int all_missed = 0;
      for (int trial = 0; trial < 3; ++trial) {
        for (const std::size_t d : {1u, 2u, 7u, 8u, 9u, 127u, 128u, 383u, 1024u}) {
          const auto row = d == 1 ? std::vector<double>{rows_rng.uniform(-8.0, 8.0)}
                                  : profile.sample_row(d, rows_rng);
          const auto codes = reference_codes(row, fmt);
          std::vector<double> out(d);
          bool engine_threw = false;
          bool reference_threw = false;
          std::vector<std::int64_t> want;
          try {
            eng.softmax_row_into(row, run, out);
          } catch (const SimulationError&) {
            engine_threw = true;
          }
          try {
            want = reference(codes, ref_rng);
          } catch (const SimulationError&) {
            reference_threw = true;
          }
          const std::string where = fmt.name() + " miss " + std::to_string(miss) +
                                    " d " + std::to_string(d) + " trial " +
                                    std::to_string(trial);
          ASSERT_EQ(engine_threw, reference_threw) << where;
          ASSERT_TRUE(same_stream(run.rng, ref_rng)) << where;
          all_missed += engine_threw ? 1 : 0;
          if (engine_threw) {
            continue;
          }
          for (std::size_t i = 0; i < d; ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                      std::bit_cast<std::uint64_t>(std::ldexp(
                          static_cast<double>(want[i]), -eng.prob_frac_bits())))
                << where << " element " << i;
          }
        }
      }
      // Fault-free rows always match; at miss 0.5 one- and two-element
      // rows lose every search now and then, and both sides must throw.
      if (miss == 0.0) {
        EXPECT_EQ(all_missed, 0) << fmt.name();
      } else if (miss == 0.5) {
        EXPECT_GT(all_missed, 0) << fmt.name();
      }
    }
  }
}

// ---------- per-run scratch carries nothing between rows ----------

TEST(EngineRunState, StateThatServedALongerRowMatchesAFreshOne) {
  const auto profile = workload::DatasetProfile::cnews();
  for (const double miss : {0.0, 0.3}) {
    const core::SoftmaxEngine eng(mrpc_config(miss));
    Rng rng(0x10A6);
    for (int trial = 0; trial < 24; ++trial) {
      const auto longer =
          profile.sample_row(static_cast<std::size_t>(rng.uniform_int(65, 384)), rng);
      const auto shorter =
          profile.sample_row(static_cast<std::size_t>(rng.uniform_int(2, 64)), rng);
      const auto seed = static_cast<std::uint64_t>(0x5EED + trial);

      core::SoftmaxRunState reused(seed ^ 0xFFFF);
      std::vector<double> sink(longer.size());
      eng.softmax_row_into(longer, reused, sink);
      reused.reseed(seed);
      core::SoftmaxRunState fresh(seed);

      std::vector<double> from_reused(shorter.size());
      std::vector<double> from_fresh(shorter.size());
      eng.softmax_row_into(shorter, reused, from_reused);
      eng.softmax_row_into(shorter, fresh, from_fresh);
      EXPECT_TRUE(same_bits(from_reused, from_fresh))
          << "miss " << miss << " trial " << trial << " d " << shorter.size();
    }
  }
}

// ---------- in place == out of place for every implementation ----------

TEST(InPlaceSoftmax, EveryImplementationWritesTheSameBitsInPlace) {
  // The engine with fault injection on: both run states see the same rows
  // in the same order, so they draw the same faults.
  const core::SoftmaxEngine eng(mrpc_config(0.05));
  core::SoftmaxRunState run_apart(0xA7);
  core::SoftmaxRunState run_aliased(0xA7);
  core::SoftmaxEngineRowRef star_apart(eng, run_apart);
  core::SoftmaxEngineRowRef star_aliased(eng, run_aliased);
  nn::ExactSoftmaxInto exact;
  baseline::SoftermaxUnit softermax(kTech);
  baseline::CmosSoftmaxUnit cmos(kTech);
  struct Impl {
    nn::RowSoftmaxInto* apart;
    nn::RowSoftmaxInto* aliased;
  };
  const std::vector<Impl> impls{{&exact, &exact},
                                {&star_apart, &star_aliased},
                                {&softermax, &softermax},
                                {&cmos, &cmos}};

  const auto profile = workload::DatasetProfile::cnews();
  Rng rng(0x1A1A);
  for (const std::size_t d : {1u, 8u, 64u, 384u}) {
    for (int trial = 0; trial < 4; ++trial) {
      // A profile row needs two scores; d = 1 takes one uniform score.
      const auto row = d == 1 ? std::vector<double>{rng.uniform(-8.0, 8.0)}
                              : profile.sample_row(d, rng);
      for (const Impl& impl : impls) {
        std::vector<double> apart(d);
        (*impl.apart)(row, apart);
        std::vector<double> aliased = row;
        (*impl.aliased)(aliased, aliased);
        EXPECT_TRUE(same_bits(apart, aliased))
            << impl.apart->name() << " d " << d << " trial " << trial;
      }
    }
  }
}

// ---------- hostile scores ----------

TEST(HostileScores, InfiniteAndHugeScoresTakeTheWholeRow) {
  // They saturate to the top of the operand window, as any score above it
  // does, instead of going through an undefined int64 cast.
  const core::SoftmaxEngine eng(mrpc_config());
  core::SoftmaxRunState run;
  for (const double big : {std::numeric_limits<double>::infinity(), 1e300}) {
    const std::vector<double> row{0.0, 1.0, big};
    std::vector<double> out(row.size());
    eng.softmax_row_into(row, run, out);
    EXPECT_GE(out[2], 0.99) << "score " << big;
    EXPECT_LE(out[0] + out[1], 0.01) << "score " << big;
  }
}

TEST(HostileScores, NegativeInfinityReadsAsTheWindowFloor) {
  const core::SoftmaxEngine eng(mrpc_config());
  core::SoftmaxRunState run;
  const double floor =
      -std::ldexp(1.0, eng.format().total_bits() - 1) * eng.format().resolution();
  std::vector<double> from_inf(3);
  std::vector<double> from_floor(3);
  const double inf = std::numeric_limits<double>::infinity();
  eng.softmax_row_into(std::vector<double>{-inf, 0.0, 1.0}, run, from_inf);
  eng.softmax_row_into(std::vector<double>{floor, 0.0, 1.0}, run, from_floor);
  EXPECT_TRUE(same_bits(from_inf, from_floor));
  EXPECT_EQ(from_inf[0], 0.0);
  EXPECT_GT(from_inf[2], from_inf[1]);
}

TEST(HostileScores, NaNScoreIsRejected) {
  // At every position of rows up to 9 long: the quantise pass runs in
  // vector-wide steps and a scalar tail. The search would draw fault
  // samples, so an untouched stream shows the row stopped before it.
  const core::SoftmaxEngine eng(mrpc_config(0.3));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t d = 1; d <= 9; ++d) {
    for (std::size_t at = 0; at < d; ++at) {
      std::vector<double> row(d);
      for (std::size_t i = 0; i < d; ++i) {
        row[i] = i % 3 == 0 ? inf : -static_cast<double>(i);
      }
      row[at] = nan;
      core::SoftmaxRunState run(0xF00D);
      std::vector<double> out(d);
      EXPECT_THROW(eng.softmax_row_into(row, run, out), InvalidArgument)
          << "d " << d << " at " << at;
      EXPECT_TRUE(same_stream(run.rng, Rng(0xF00D))) << "d " << d << " at " << at;
    }
  }
}

TEST(HostileScores, NaNRequestFailsItsServerFuture) {
  core::StarConfig cfg;
  cfg.max_seq_len = 128;
  const nn::BertConfig bert = nn::BertConfig::tiny();
  const core::BatchEncoderSim model(cfg, bert);
  auto inputs = workload::embedding_batch(2, 10, static_cast<std::size_t>(bert.d_model),
                                          1.0, 0xBAD5EED);
  inputs[0].at(3, 5) = std::numeric_limits<double>::quiet_NaN();

  sim::BatchScheduler sched(2);
  serve::StarServer server(model, sched);
  auto poisoned = server.submit(serve::EncoderRequest{inputs[0], 0x1});
  auto clean = server.submit(serve::EncoderRequest{inputs[1], 0x2});
  EXPECT_THROW(poisoned.get(), InvalidArgument);
  EXPECT_EQ(clean.get().output.rows(), 10u);
}

}  // namespace
}  // namespace star
