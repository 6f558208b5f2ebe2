// Unit and property tests for the fixed-point module.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>

#include "fxp/qformat.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace star::fxp {
namespace {

TEST(QFormat, PaperFormatsHaveDocumentedWidths) {
  EXPECT_EQ(kCnewsFormat.total_bits(), 8);  // 6-bit integer, 2-bit decimal
  EXPECT_EQ(kMrpcFormat.total_bits(), 9);   // 6-bit integer, 3-bit decimal
  EXPECT_EQ(kColaFormat.total_bits(), 7);   // 5-bit integer, 2-bit decimal
}

TEST(QFormat, RangeAndResolution) {
  const QFormat f = make_unsigned(6, 2);
  EXPECT_DOUBLE_EQ(f.resolution(), 0.25);
  EXPECT_DOUBLE_EQ(f.min_value(), 0.0);
  EXPECT_DOUBLE_EQ(f.max_value(), 64.0 - 0.25);
  EXPECT_EQ(f.code_count(), 256);

  const QFormat s = make_signed(3, 1);
  EXPECT_DOUBLE_EQ(s.min_value(), -8.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 8.0 - 0.5);
  EXPECT_EQ(s.code_count(), 32);
}

TEST(QFormat, CodeRoundTripIsExactOnGrid) {
  const QFormat f = make_unsigned(4, 3);
  for (std::int64_t c = 0; c < f.code_count(); ++c) {
    EXPECT_EQ(f.to_code(f.from_code(c)), c);
  }
}

TEST(QFormat, QuantizeIdempotent) {
  const QFormat f = make_unsigned(5, 2);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(0.0, 31.0);
    const double q = f.quantize(v);
    EXPECT_DOUBLE_EQ(f.quantize(q), q);
    EXPECT_LE(std::fabs(v - q), f.resolution() / 2.0 + 1e-12);
  }
}

TEST(QFormat, RoundingModes) {
  const QFormat f = make_unsigned(4, 0);  // integers 0..15
  EXPECT_DOUBLE_EQ(f.quantize(2.5, Rounding::kNearestEven), 2.0);
  EXPECT_DOUBLE_EQ(f.quantize(3.5, Rounding::kNearestEven), 4.0);
  EXPECT_DOUBLE_EQ(f.quantize(2.5, Rounding::kNearest), 3.0);
  EXPECT_DOUBLE_EQ(f.quantize(2.9, Rounding::kFloor), 2.0);
}

TEST(QFormat, SaturationAndThrow) {
  const QFormat f = make_unsigned(3, 1);  // [0, 7.5]
  EXPECT_DOUBLE_EQ(f.quantize(100.0), 7.5);
  EXPECT_DOUBLE_EQ(f.quantize(-5.0), 0.0);
  EXPECT_THROW((void)f.quantize(100.0, Rounding::kNearestEven, Overflow::kThrow),
               SimulationError);
}

TEST(QFormat, SignedSaturation) {
  const QFormat f = make_signed(3, 1);  // [-8, 7.5]
  EXPECT_DOUBLE_EQ(f.quantize(-100.0), -8.0);
  EXPECT_DOUBLE_EQ(f.quantize(100.0), 7.5);
}

TEST(QFormat, Representable) {
  const QFormat f = make_unsigned(4, 2);
  EXPECT_TRUE(f.representable(3.25));
  EXPECT_FALSE(f.representable(3.30));
  EXPECT_FALSE(f.representable(-1.0));
  EXPECT_FALSE(f.representable(16.0));
}

TEST(QFormat, Name) {
  EXPECT_EQ(make_unsigned(6, 2).name(), "Q6.2u");
  EXPECT_EQ(make_signed(5, 3).name(), "Q5.3s");
}

TEST(QFormat, ValidateRejectsBadWidths) {
  const QFormat negative{-1, 2, false};
  EXPECT_THROW(negative.validate(), InvalidArgument);
  const QFormat too_wide{30, 30, false};
  EXPECT_THROW(too_wide.validate(), InvalidArgument);
  EXPECT_NO_THROW(kMrpcFormat.validate());
}

// Property sweep: code round trip across all formats up to 10 total bits.
class QFormatSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QFormatSweep, AllCodesRoundTrip) {
  const auto [ib, fb] = GetParam();
  const QFormat f = make_unsigned(ib, fb);
  f.validate();
  for (std::int64_t c = 0; c < f.code_count(); ++c) {
    const double v = f.from_code(c);
    EXPECT_EQ(f.to_code(v), c);
    EXPECT_TRUE(f.representable(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, QFormatSweep,
                         ::testing::Values(std::pair{4, 2}, std::pair{5, 2},
                                           std::pair{6, 2}, std::pair{6, 3},
                                           std::pair{5, 3}, std::pair{7, 3},
                                           std::pair{8, 2}, std::pair{3, 5}));

}  // namespace
}  // namespace star::fxp
