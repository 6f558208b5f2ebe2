// Tests for the CAM and LUT crossbars.
#include <gtest/gtest.h>

#include "hw/counter.hpp"
#include "hw/tech.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "xbar/cam.hpp"
#include "xbar/lut.hpp"

namespace star::xbar {
namespace {

const hw::TechNode kTech = hw::TechNode::n32();

CamCrossbar make_cam(int rows = 16, int bits = 6) {
  return CamCrossbar(kTech, RramDevice::ideal(2), rows, bits);
}

std::vector<bool> search(const CamCrossbar& cam, std::int64_t code, double miss = 0.0) {
  Rng rng(0xCA3);
  return cam.search(code, miss, rng);
}

TEST(CamCrossbar, SearchReturnsOneHotMatch) {
  auto cam = make_cam();
  cam.store(3, 42);
  cam.store(7, 13);
  const auto m = search(cam, 42);
  int set = 0;
  for (std::size_t r = 0; r < m.size(); ++r) {
    if (m[r]) {
      ++set;
      EXPECT_EQ(r, 3u);
    }
  }
  EXPECT_EQ(set, 1);
}

TEST(CamCrossbar, NoMatchForUnstoredCode) {
  auto cam = make_cam();
  cam.store(0, 1);
  const auto m = search(cam, 2);
  for (bool b : m) {
    EXPECT_FALSE(b);
  }
  EXPECT_FALSE(cam.search_index(2).has_value());
}

TEST(CamCrossbar, SearchIndexFindsRow) {
  auto cam = make_cam();
  cam.store(11, 5);
  const auto idx = cam.search_index(5);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 11);
}

TEST(CamCrossbar, FillStoresSequentially) {
  auto cam = make_cam(8, 4);
  cam.fill({3, 1, 4, 1});
  EXPECT_EQ(cam.search_index(3).value(), 0);
  EXPECT_EQ(cam.search_index(4).value(), 2);
  // Duplicate codes match multiple rows.
  const auto m = search(cam, 1);
  EXPECT_TRUE(m[1]);
  EXPECT_TRUE(m[3]);
}

TEST(CamCrossbar, MissProbabilityOneDropsAll) {
  auto cam = make_cam();
  cam.store(2, 9);
  const auto m = search(cam, 9, 1.0);
  for (bool b : m) {
    EXPECT_FALSE(b);
  }
}

TEST(CamCrossbar, GeometryAndCosts) {
  const auto cam = make_cam(256, 9);
  EXPECT_EQ(cam.physical_cols(), 18);  // 2 cells per bit (paper: 256x18)
  EXPECT_GT(cam.area().as_um2(), 0.0);
  EXPECT_GT(cam.search_cost().energy_per_op.as_fJ(), 0.0);
  EXPECT_GT(cam.search_cost().latency.as_ns(), 0.0);
  EXPECT_GT(cam.program_energy().as_pJ(), 0.0);
  EXPECT_GT(cam.program_latency().as_us(), 0.0);
}

TEST(CamCrossbar, LargerCamCostsMore) {
  const auto small = make_cam(64, 8);
  const auto big = make_cam(512, 8);
  EXPECT_GT(big.area().as_um2(), small.area().as_um2());
  EXPECT_GT(big.search_cost().energy_per_op.as_fJ(),
            small.search_cost().energy_per_op.as_fJ());
}

TEST(CamCrossbar, RangeChecks) {
  auto cam = make_cam(8, 4);
  EXPECT_THROW(cam.store(8, 0), InvalidArgument);
  EXPECT_THROW(cam.store(0, 16), InvalidArgument);
  EXPECT_THROW(search(cam, 16), InvalidArgument);
  EXPECT_THROW((void)cam.search_index(16), InvalidArgument);
  EXPECT_THROW(cam.fill(std::vector<std::int64_t>(9, 0)), InvalidArgument);
}

// ---------- LUT ----------

LutCrossbar make_lut(int rows = 16, int word_bits = 12) {
  return LutCrossbar(kTech, RramDevice::ideal(2), rows, word_bits);
}

TEST(LutCrossbar, OneHotReadReturnsWord) {
  auto lut = make_lut();
  lut.store(5, 1234);
  std::vector<bool> one_hot(16, false);
  one_hot[5] = true;
  EXPECT_EQ(lut.read(one_hot), 1234);
  EXPECT_EQ(lut.word_at(5), 1234);
}

TEST(LutCrossbar, NoWordlineReadsZero) {
  auto lut = make_lut();
  lut.store(0, 77);
  EXPECT_EQ(lut.read(std::vector<bool>(16, false)), 0);
}

TEST(LutCrossbar, NonOneHotAborts) {
  auto lut = make_lut();
  std::vector<bool> two(16, false);
  two[1] = two[2] = true;
  EXPECT_DEATH((void)lut.read(two), "one-hot");
}

TEST(LutCrossbar, FillAndRange) {
  auto lut = make_lut(4, 8);
  lut.fill({10, 20, 30});
  EXPECT_EQ(lut.word_at(1), 20);
  EXPECT_EQ(lut.word_at(3), 0);  // unfilled row
  EXPECT_THROW(lut.store(0, 256), InvalidArgument);
  EXPECT_THROW(lut.store(4, 0), InvalidArgument);
  EXPECT_THROW((void)lut.read(std::vector<bool>(3, false)), InvalidArgument);
}

TEST(LutCrossbar, CostsPositiveAndScale) {
  const auto small = make_lut(16, 8);
  const auto big = make_lut(256, 16);
  EXPECT_GT(big.area().as_um2(), small.area().as_um2());
  EXPECT_GT(small.read_cost().energy_per_op.as_fJ(), 0.0);
  EXPECT_GT(big.program_latency().as_us(), small.program_latency().as_us());
}

// ---------- O(1) paths against the dense reference scans ----------
// The engine's hot loop runs search_row, word_at and accumulate_row; the
// dense search_into, read and accumulate are the reference they must
// equal, result for result and fault draw for fault draw.

/// Equal next draws: the two streams stand at the same position.
bool same_stream(Rng a, Rng b) { return a() == b() && a() == b(); }

TEST(CamFastPath, SearchRowMatchesDenseScan) {
  // The exp CAM's identity preload (half the code space, so codes 32..63
  // are stored nowhere) and the CAM/SUB's full descending preload.
  auto identity = make_cam(32, 6);
  auto descending = make_cam(64, 6);
  for (int r = 0; r < 64; ++r) {
    if (r < 32) {
      identity.store(r, r);
    }
    descending.store(r, 63 - r);
  }
  for (const CamCrossbar* cam : {&identity, &descending}) {
    ASSERT_TRUE(cam->unique_codes());
    for (const double miss : {0.0, 0.3}) {
      Rng fast(0xFA57);
      Rng dense(0xFA57);
      std::vector<bool> match;
      for (int pass = 0; pass < 3; ++pass) {
        for (std::int64_t code = 0; code < 64; ++code) {
          const int row = cam->search_row(code, miss, fast);
          cam->search_into(code, miss, dense, match);
          int dense_row = -1;
          for (std::size_t r = 0; r < match.size(); ++r) {
            if (match[r]) {
              ASSERT_EQ(dense_row, -1) << "a unique preload raised two matchlines";
              dense_row = static_cast<int>(r);
            }
          }
          ASSERT_EQ(row, dense_row) << "rows=" << cam->rows() << " miss=" << miss
                                    << " code=" << code;
          ASSERT_TRUE(same_stream(fast, dense))
              << "rows=" << cam->rows() << " miss=" << miss << " code=" << code;
        }
      }
    }
  }
}

TEST(CamFastPath, WordAtMatchesOneHotRead) {
  auto lut = make_lut();
  for (int r = 0; r < 16; ++r) {
    lut.store(r, 100 + 37 * r);  // distinct words: a row mix-up cannot read equal
  }
  std::vector<bool> one_hot;
  for (int r = 0; r < 16; ++r) {
    one_hot.assign(16, false);
    one_hot[static_cast<std::size_t>(r)] = true;
    EXPECT_EQ(lut.word_at(r), lut.read(one_hot)) << "row " << r;
  }
}

TEST(CamFastPath, AccumulateRowMatchesOneHotAccumulate) {
  // 2-bit counters saturate at 3; the row sequence drives row 1 past it.
  hw::CounterArray fast(kTech, 4, 2);
  hw::CounterArray dense(kTech, 4, 2);
  for (const int row : {1, 1, 3, 1, 1, 1, 0, 3}) {
    fast.accumulate_row(row);
    std::vector<bool> one_hot(4, false);
    one_hot[static_cast<std::size_t>(row)] = true;
    dense.accumulate(one_hot);
    ASSERT_EQ(fast.counts(), dense.counts()) << "after row " << row;
  }
  EXPECT_EQ(fast.counts(), (std::vector<std::int64_t>{1, 3, 0, 2}));
}

}  // namespace
}  // namespace star::xbar
