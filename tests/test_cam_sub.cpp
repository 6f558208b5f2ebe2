// Tests for the CAM/SUB crossbar (paper Fig. 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "hw/tech.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "xbar/cam_sub.hpp"

namespace star::xbar {
namespace {

const hw::TechNode kTech = hw::TechNode::n32();

CamSubCrossbar make_camsub(int bits = 6) {
  return CamSubCrossbar(kTech, RramDevice::ideal(2), bits);
}

/// Fault-free max find (no fault sample is drawn at miss_prob 0).
MaxFindResult find_max(const CamSubCrossbar& cs, std::span<const std::int64_t> xs) {
  Rng rng(0xCA5B);
  return cs.find_max(xs, 0.0, rng);
}

TEST(CamSub, GeometryMatchesPaper) {
  // 9-bit operands -> 512 x 18 (paper Section III).
  const auto cs = CamSubCrossbar(kTech, RramDevice::ideal(2), 9);
  EXPECT_EQ(cs.rows(), 512);
  EXPECT_EQ(cs.physical_cols(), 18);
}

TEST(CamSub, DescendingPreloadInvariant) {
  const auto cs = make_camsub(5);
  for (int r = 1; r < cs.rows(); ++r) {
    EXPECT_LT(cs.code_at(r), cs.code_at(r - 1));
  }
  EXPECT_EQ(cs.code_at(0), cs.rows() - 1);
  EXPECT_EQ(cs.code_at(cs.rows() - 1), 0);
  for (std::int64_t c = 0; c < cs.rows(); ++c) {
    EXPECT_EQ(cs.code_at(cs.row_of(c)), c);
  }
}

TEST(CamSub, FindMaxWalkthroughFromFigure1) {
  // The paper's 4-input example: searches merge onto matchlines and the
  // first set line (descending order) is the maximum.
  const auto cs = make_camsub(4);
  const std::vector<std::int64_t> xs{3, 9, 7, 9};
  const auto mf = find_max(cs, xs);
  EXPECT_EQ(mf.max_code, 9);
  EXPECT_EQ(mf.max_row, cs.row_of(9));
  // Merged matchlines contain exactly the distinct input values.
  int set = 0;
  for (int r = 0; r < cs.rows(); ++r) {
    if (mf.merged_matchlines[static_cast<std::size_t>(r)]) {
      ++set;
      const auto code = cs.code_at(r);
      EXPECT_TRUE(code == 3 || code == 9 || code == 7);
    }
  }
  EXPECT_EQ(set, 3);
}

TEST(CamSub, FindMaxMatchesStdMaxElement) {
  const auto cs = make_camsub(8);
  Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 64));
    std::vector<std::int64_t> xs(n);
    for (auto& x : xs) {
      x = rng.uniform_int(0, 255);
    }
    const auto mf = find_max(cs, xs);
    EXPECT_EQ(mf.max_code, *std::max_element(xs.begin(), xs.end()));
  }
}

TEST(CamSub, SubtractAllProducesNonPositiveDiffs) {
  const auto cs = make_camsub(8);
  Rng rng(37);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::int64_t> xs(32);
    for (auto& x : xs) {
      x = rng.uniform_int(0, 255);
    }
    const auto mf = find_max(cs, xs);
    const auto diffs = cs.subtract_all(mf, xs);
    const auto mx = *std::max_element(xs.begin(), xs.end());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(diffs[i], xs[i] - mx);
      EXPECT_LE(diffs[i], 0);
    }
  }
}

TEST(CamSub, MissedSearchesNeverLeaveASurvivorAboveTheElectedMax) {
  // find_max elects the smallest matched row, so even when the true
  // maximum's search misses, every surviving input sits at or below the
  // elected max: the pre-clamp difference is never positive and
  // subtract_all's clamp never changes a value.
  const auto cs = make_camsub(8);
  Rng rows_rng(0x5AB);
  Rng fault_rng(0xFA17);
  int rows_with_misses = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::int64_t> xs(static_cast<std::size_t>(rows_rng.uniform_int(1, 40)));
    for (auto& x : xs) {
      x = rows_rng.uniform_int(0, 255);
    }
    MaxFindResult mf;
    try {
      mf = cs.find_max(xs, 0.5, fault_rng);
    } catch (const SimulationError&) {
      continue;  // every search missed: nothing to subtract
    }
    rows_with_misses += mf.misses > 0 ? 1 : 0;
    const auto diffs = cs.subtract_all(mf, xs);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (mf.input_rows[i] < 0) {
        EXPECT_EQ(diffs[i], -cs.rows()) << "trial " << trial << " element " << i;
        continue;
      }
      const std::int64_t pre_clamp = cs.code_at(mf.input_rows[i]) - mf.max_code;
      EXPECT_LE(pre_clamp, 0) << "trial " << trial << " element " << i;
      EXPECT_EQ(diffs[i], pre_clamp) << "trial " << trial << " element " << i;
    }
  }
  EXPECT_GT(rows_with_misses, 300);
}

TEST(CamSub, InputRowsTrackMatchedRows) {
  const auto cs = make_camsub(5);
  const std::vector<std::int64_t> xs{0, 31, 15};
  const auto mf = find_max(cs, xs);
  ASSERT_EQ(mf.input_rows.size(), 3u);
  EXPECT_EQ(cs.code_at(mf.input_rows[0]), 0);
  EXPECT_EQ(cs.code_at(mf.input_rows[1]), 31);
  EXPECT_EQ(cs.code_at(mf.input_rows[2]), 15);
}

TEST(CamSub, CostsGrowWithInputCount) {
  const auto cs = make_camsub(8);
  EXPECT_GT(cs.maxfind_energy(128).as_pJ(), cs.maxfind_energy(16).as_pJ());
  EXPECT_GT(cs.maxfind_latency(128).as_ns(), cs.maxfind_latency(16).as_ns());
  EXPECT_GT(cs.subtract_energy(128).as_pJ(), cs.subtract_energy(16).as_pJ());
  EXPECT_GT(cs.subtract_latency(128).as_ns(), cs.subtract_latency(16).as_ns());
  EXPECT_GT(cs.area().as_um2(), 0.0);
  EXPECT_GT(cs.program_energy().as_nJ(), 0.0);
}

TEST(CamSub, SubtractRequiresMatchingFindMax) {
  const auto cs = make_camsub(4);
  const std::vector<std::int64_t> xs{1, 2, 3};
  const auto mf = find_max(cs, xs);
  const std::vector<std::int64_t> other{1, 2};
  EXPECT_THROW(cs.subtract_all(mf, other), InvalidArgument);
}

TEST(CamSub, RejectsBadArguments) {
  EXPECT_THROW(make_camsub(1), InvalidArgument);
  EXPECT_THROW(make_camsub(13), InvalidArgument);
  const auto cs = make_camsub(4);
  EXPECT_THROW((void)find_max(cs, std::vector<std::int64_t>{}), InvalidArgument);
  EXPECT_THROW((void)find_max(cs, std::vector<std::int64_t>{16}), InvalidArgument);
  EXPECT_THROW((void)cs.maxfind_energy(0), InvalidArgument);
}

// Property sweep over operand widths: max-find correct at every width.
class CamSubWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(CamSubWidthSweep, MaxFindCorrectAcrossWidths) {
  const int bits = GetParam();
  const auto cs = make_camsub(bits);
  Rng rng(100 + bits);
  const std::int64_t top = (1 << bits) - 1;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::int64_t> xs(16);
    for (auto& x : xs) {
      x = rng.uniform_int(0, top);
    }
    const auto mf = find_max(cs, xs);
    EXPECT_EQ(mf.max_code, *std::max_element(xs.begin(), xs.end()));
    const auto diffs = cs.subtract_all(mf, xs);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(diffs[i], xs[i] - mf.max_code);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, CamSubWidthSweep, ::testing::Values(2, 4, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace star::xbar
