// Tests for the item-granular stage-pipeline recurrence.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/pipeline_sim.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace star::sim {
namespace {

std::vector<Time> three_stages() {
  return {Time::ns(10.0), Time::ns(30.0), Time::ns(20.0)};
}

/// Closed-form makespan for constant service times:
/// sum(service) + (N-1) * max(service).
Time closed_form_makespan(std::span<const Time> services, std::size_t items) {
  if (items == 0) {
    return Time::s(0.0);
  }
  double sum = 0.0;
  double peak = 0.0;
  for (const Time s : services) {
    sum += s.as_s();
    peak = std::max(peak, s.as_s());
  }
  return Time::s(sum + static_cast<double>(items - 1) * peak);
}

/// Makespan of the same items when every stage waits for all items of the
/// stage before it (a full barrier between stages): N * sum(service).
Time barrier_makespan(std::span<const Time> services, std::size_t items) {
  double sum = 0.0;
  for (const Time s : services) {
    sum += s.as_s();
  }
  return Time::s(static_cast<double>(items) * sum);
}

TEST(PipelineSim, SingleItemIsSumOfServices) {
  EXPECT_NEAR(simulate(three_stages(), 1).as_ns(), 60.0, 1e-9);
}

TEST(PipelineSim, ItemGranularMatchesClosedForm) {
  for (std::size_t n : {1u, 2u, 7u, 64u, 333u}) {
    const Time cf = closed_form_makespan(three_stages(), n);
    EXPECT_NEAR(simulate(three_stages(), n).as_ns(), cf.as_ns(), 1e-6) << "n=" << n;
  }
}

TEST(PipelineSim, ItemGranularNeverSlowerThanBarrier) {
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Time> stages;
    const int k = static_cast<int>(rng.uniform_int(1, 6));
    for (int s = 0; s < k; ++s) {
      stages.push_back(Time::ns(rng.uniform(1.0, 100.0)));
    }
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 50));
    EXPECT_LE(simulate(stages, n).as_ns(), barrier_makespan(stages, n).as_ns() + 1e-9);
  }
}

TEST(PipelineSim, CompletionTimesMonotonic) {
  // Row i's finish at stage s depends only on rows 0..i and stages 0..s,
  // so it is the makespan of that prefix.
  const std::vector<Time> stages = three_stages();
  auto finish = [&](std::size_t i, std::size_t s) {
    return simulate(std::span<const Time>(stages).first(s + 1), i + 1).as_s();
  };
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t s = 1; s < 3; ++s) {
      EXPECT_GT(finish(i, s), finish(i, s - 1));
    }
    if (i > 0) {
      EXPECT_GT(finish(i, 2), finish(i - 1, 2));
    }
  }
}

TEST(PipelineSim, ZeroItems) {
  EXPECT_DOUBLE_EQ(simulate(three_stages(), 0).as_s(), 0.0);
}

TEST(PipelineSim, RejectsBadArguments) {
  EXPECT_THROW((void)simulate({}, 5), InvalidArgument);
  const std::vector<Time> too_many(kMaxStages + 1, Time::ns(1.0));
  EXPECT_THROW((void)simulate(too_many, 5), InvalidArgument);
  EXPECT_NO_THROW((void)simulate(std::span<const Time>(too_many).first(kMaxStages), 5));
}

// ---------- the item-granular recurrence, bit for bit ----------

/// The item-granular loop as the simulator ran it with one heap row per
/// item and std::max: the oracle for the blocked, stack-resident loop.
double rolling_row_makespan(const std::vector<Time>& stages, std::size_t items) {
  const std::size_t k = stages.size();
  std::vector<double> prev(k, 0.0);
  std::vector<double> cur(k, 0.0);
  for (std::size_t i = 0; i < items; ++i) {
    for (std::size_t s = 0; s < k; ++s) {
      const double ready_item = (s == 0) ? 0.0 : cur[s - 1];
      const double ready_stage = (i == 0) ? 0.0 : prev[s];
      cur[s] = std::max(ready_item, ready_stage) + stages[s].as_s();
    }
    std::swap(prev, cur);
  }
  return prev[k - 1];
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(PipelineSim, ItemGranularEqualsTheRollingRowLoopBitForBit) {
  // Every stage count the recurrence takes, 1 to kMaxStages; the item
  // counts sit on and around the register block's edges. Half the stage
  // sets draw from three service times, so the max sees ties.
  Rng rng(0x51A6E);
  std::vector<std::size_t> counts{1, 2, 7, 8, 9, 15, 16, 17, 64, 127, 128, 129, 384, 600};
  for (int extra = 0; extra < 6; ++extra) {
    counts.push_back(static_cast<std::size_t>(rng.uniform_int(1, 600)));
  }
  int cases = 0;
  for (std::size_t k = 1; k <= kMaxStages; ++k) {
    for (const std::size_t n : counts) {
      for (const bool ties : {false, true}) {
        std::vector<Time> stages;
        for (std::size_t s = 0; s < k; ++s) {
          const double ns = ties ? 10.0 * static_cast<double>(rng.uniform_int(1, 3))
                                 : rng.uniform(0.5, 500.0);
          stages.push_back(Time::ns(ns));
        }
        const std::string where = "k=" + std::to_string(k) + " n=" + std::to_string(n) +
                                  (ties ? " ties" : "");
        ASSERT_EQ(bits_of(simulate(stages, n).as_s()),
                  bits_of(rolling_row_makespan(stages, n)))
            << where;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, static_cast<int>(kMaxStages) * 20 * 2);
}

// Parameterized cross-check: closed form == simulation for many shapes.
class ClosedFormSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ClosedFormSweep, SimulationMatches) {
  const auto [k, n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  std::vector<Time> stages;
  for (int s = 0; s < k; ++s) {
    stages.push_back(Time::ns(rng.uniform(1.0, 50.0)));
  }
  const auto items = static_cast<std::size_t>(n);
  EXPECT_NEAR(simulate(stages, items).as_ns(),
              closed_form_makespan(stages, items).as_ns(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClosedFormSweep,
    ::testing::Combine(::testing::Values(1, 2, 5), ::testing::Values(1, 16, 128),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace star::sim
