// Tests for the generic stage-pipeline simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/pipeline_sim.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace star::sim {
namespace {

std::vector<Stage> three_stages() {
  return {Stage{"a", Time::ns(10.0)}, Stage{"b", Time::ns(30.0)},
          Stage{"c", Time::ns(20.0)}};
}

TEST(PipelineSim, SingleItemIsSumOfServices) {
  const auto res = simulate(three_stages(), 1, Discipline::kItemGranular);
  EXPECT_NEAR(res.makespan.as_ns(), 60.0, 1e-9);
}

TEST(PipelineSim, ItemGranularMatchesClosedForm) {
  for (std::size_t n : {1u, 2u, 7u, 64u, 333u}) {
    const auto res = simulate(three_stages(), n, Discipline::kItemGranular);
    const Time cf = closed_form_makespan(three_stages(), n, Discipline::kItemGranular);
    EXPECT_NEAR(res.makespan.as_ns(), cf.as_ns(), 1e-6) << "n=" << n;
  }
}

TEST(PipelineSim, BarrierMatchesClosedForm) {
  for (std::size_t n : {1u, 2u, 7u, 64u}) {
    const auto res = simulate(three_stages(), n, Discipline::kBarrier);
    const Time cf = closed_form_makespan(three_stages(), n, Discipline::kBarrier);
    EXPECT_NEAR(res.makespan.as_ns(), cf.as_ns(), 1e-6) << "n=" << n;
  }
}

TEST(PipelineSim, ItemGranularNeverSlowerThanBarrier) {
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Stage> stages;
    const int k = static_cast<int>(rng.uniform_int(1, 6));
    for (int s = 0; s < k; ++s) {
      stages.push_back(Stage{"s", Time::ns(rng.uniform(1.0, 100.0))});
    }
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 50));
    const auto fast = simulate(stages, n, Discipline::kItemGranular);
    const auto slow = simulate(stages, n, Discipline::kBarrier);
    EXPECT_LE(fast.makespan.as_ns(), slow.makespan.as_ns() + 1e-9);
  }
}

TEST(PipelineSim, CompletionTimesMonotonic) {
  const auto res = simulate(three_stages(), 10, Discipline::kItemGranular);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t s = 1; s < 3; ++s) {
      EXPECT_GT(res.completion[i][s], res.completion[i][s - 1]);
    }
    if (i > 0) {
      EXPECT_GT(res.completion[i][2], res.completion[i - 1][2]);
    }
  }
}

TEST(PipelineSim, BottleneckUtilApproachesOne) {
  const auto res = simulate(three_stages(), 1000, Discipline::kItemGranular);
  EXPECT_GT(res.bottleneck_util(), 0.95);
  EXPECT_LE(res.bottleneck_util(), 1.0 + 1e-9);
}

TEST(PipelineSim, HeterogeneousServiceScales) {
  const std::vector<double> scale{1.0, 2.0, 1.0};
  const auto res = simulate({Stage{"a", Time::ns(10.0)}}, 3,
                            Discipline::kItemGranular, scale);
  EXPECT_NEAR(res.makespan.as_ns(), 40.0, 1e-9);  // 10 + 20 + 10
}

TEST(PipelineSim, ZeroItems) {
  const auto res = simulate(three_stages(), 0, Discipline::kItemGranular);
  EXPECT_DOUBLE_EQ(res.makespan.as_s(), 0.0);
}

TEST(PipelineSim, RejectsBadArguments) {
  EXPECT_THROW(simulate({}, 5, Discipline::kItemGranular), InvalidArgument);
  EXPECT_THROW(simulate(three_stages(), 5, Discipline::kItemGranular, {1.0}),
               InvalidArgument);
}

// ---------- the item-granular recurrence, bit for bit ----------

/// The item-granular loop as the simulator ran it with one heap row per
/// item and std::max: the oracle for the blocked, stack-resident loop.
PipelineResult rolling_row_simulate(const std::vector<Stage>& stages, std::size_t items,
                                    const std::vector<double>& service_scale) {
  const std::size_t k = stages.size();
  PipelineResult res;
  res.completion.assign(items, std::vector<double>(k, 0.0));
  res.stage_busy_s.assign(k, 0.0);
  res.stage_util.assign(k, 0.0);
  auto scale = [&](std::size_t i) {
    return service_scale.empty() ? 1.0 : service_scale[i];
  };
  std::vector<double> prev(k, 0.0);
  std::vector<double> cur(k, 0.0);
  for (std::size_t i = 0; i < items; ++i) {
    for (std::size_t s = 0; s < k; ++s) {
      const double ready_item = (s == 0) ? 0.0 : cur[s - 1];
      const double ready_stage = (i == 0) ? 0.0 : prev[s];
      const double t = stages[s].service.as_s() * scale(i);
      cur[s] = std::max(ready_item, ready_stage) + t;
      res.stage_busy_s[s] += t;
    }
    res.completion[i] = cur;
    std::swap(prev, cur);
  }
  res.makespan = Time::s(prev[k - 1]);
  const double span = res.makespan.as_s();
  for (std::size_t s = 0; s < k; ++s) {
    res.stage_util[s] = span > 0.0 ? res.stage_busy_s[s] / span : 0.0;
  }
  return res;
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(PipelineSim, ItemGranularEqualsTheRollingRowLoopBitForBit) {
  // 1-40 stages cross the stack buffer's edge; the item counts sit on and
  // around the register block's edges. Half the stage sets draw from three
  // service times, so the max sees ties; half the runs scale every item.
  Rng rng(0x51A6E);
  std::vector<std::size_t> counts{1, 2, 7, 8, 9, 15, 16, 17, 64, 127, 128, 129, 384, 600};
  for (int extra = 0; extra < 6; ++extra) {
    counts.push_back(static_cast<std::size_t>(rng.uniform_int(1, 600)));
  }
  int cases = 0;
  for (std::size_t k = 1; k <= 40; ++k) {
    for (const std::size_t n : counts) {
      const bool ties = rng.bernoulli(0.5);
      std::vector<Stage> stages;
      for (std::size_t s = 0; s < k; ++s) {
        const double ns = ties ? 10.0 * static_cast<double>(rng.uniform_int(1, 3))
                               : rng.uniform(0.5, 500.0);
        stages.push_back(Stage{"s" + std::to_string(s), Time::ns(ns)});
      }
      for (const bool scaled : {false, true}) {
        std::vector<double> scale;
        if (scaled) {
          for (std::size_t i = 0; i < n; ++i) {
            scale.push_back(rng.uniform(0.25, 2.0));
          }
        }
        const std::string where = "k=" + std::to_string(k) + " n=" + std::to_string(n) +
                                  (scaled ? " scaled" : "");
        const PipelineResult want = rolling_row_simulate(stages, n, scale);
        const PipelineResult got = simulate(stages, n, Discipline::kItemGranular, scale);
        const PipelineResult summary =
            simulate(stages, n, Discipline::kItemGranular, scale,
                     SimOptions{.record_completion = false});
        ASSERT_EQ(bits_of(got.makespan.as_s()), bits_of(want.makespan.as_s())) << where;
        ASSERT_EQ(bits_of(summary.makespan.as_s()), bits_of(want.makespan.as_s())) << where;
        EXPECT_TRUE(summary.completion.empty()) << where;
        for (std::size_t s = 0; s < k; ++s) {
          ASSERT_EQ(bits_of(got.stage_busy_s[s]), bits_of(want.stage_busy_s[s]))
              << where << " stage " << s;
          ASSERT_EQ(bits_of(got.stage_util[s]), bits_of(want.stage_util[s]))
              << where << " stage " << s;
          ASSERT_EQ(bits_of(summary.stage_busy_s[s]), bits_of(want.stage_busy_s[s]))
              << where << " stage " << s;
          ASSERT_EQ(bits_of(summary.stage_util[s]), bits_of(want.stage_util[s]))
              << where << " stage " << s;
        }
        ASSERT_EQ(got.completion.size(), n) << where;
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t s = 0; s < k; ++s) {
            ASSERT_EQ(bits_of(got.completion[i][s]), bits_of(want.completion[i][s]))
                << where << " item " << i << " stage " << s;
          }
        }
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 40 * 20 * 2);
}

// Parameterized cross-check: closed form == simulation for many shapes.
class ClosedFormSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ClosedFormSweep, SimulationMatches) {
  const auto [k, n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  std::vector<Stage> stages;
  for (int s = 0; s < k; ++s) {
    stages.push_back(Stage{"s", Time::ns(rng.uniform(1.0, 50.0))});
  }
  for (auto d : {Discipline::kItemGranular, Discipline::kBarrier}) {
    const auto sim_res = simulate(stages, static_cast<std::size_t>(n), d);
    const auto cf = closed_form_makespan(stages, static_cast<std::size_t>(n), d);
    EXPECT_NEAR(sim_res.makespan.as_ns(), cf.as_ns(), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClosedFormSweep,
    ::testing::Combine(::testing::Values(1, 2, 5), ::testing::Values(1, 16, 128),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace star::sim
