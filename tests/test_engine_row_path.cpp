// The softmax engine's O(d) row path against the dense references it
// replaced, plus its behaviour on hostile scores.
//
// A row touches only the counters, LUT rows and quotients its own elements
// reach, so each shortcut is pinned to the dense model it stands for:
//   * the counters' touched-row list: reset() and the summation VMM visit
//     only those rows, which must equal clearing and summing all of them;
//   * the priority encoder as the smallest matched row, which must equal the
//     first set bit of the OR-merged matchlines, fault draws included;
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
#include <vector>

#include "baseline/cmos_softmax.hpp"
#include "baseline/softermax.hpp"
#include "core/batch_encoder.hpp"
#include "core/softmax_engine.hpp"
#include "hw/counter.hpp"
#include "nn/softmax_ref.hpp"
#include "serve/request.hpp"
#include "serve/star_server.hpp"
#include "sim/batch_scheduler.hpp"
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
  const core::SoftmaxEngine eng(mrpc_config());
  core::SoftmaxRunState run;
  const std::vector<double> row{0.0, std::numeric_limits<double>::quiet_NaN(), 1.0};
  std::vector<double> out(row.size());
  EXPECT_THROW(eng.softmax_row_into(row, run, out), InvalidArgument);
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
