// star::round_half_even checked bit for bit against the body it replaced.
//
// Every quantiser (scores, weights, LUT words, ADC codes) rounds through
// it, so one changed bit moves payload and cost digests. The oracle below
// is the earlier floor/fmod/nearbyint body, kept verbatim; the inline
// version must reproduce it exactly, signed zeros, ties, non-finite values
// and already-integral magnitudes included.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/math.hpp"
#include "util/rng.hpp"

namespace star {
namespace {

double oracle_round_half_even(double v) {
  const double r = std::nearbyint(v);
  // std::nearbyint honours the current rounding mode, which defaults to
  // round-to-nearest-even; make the intent explicit and mode-independent.
  const double floor_v = std::floor(v);
  const double frac = v - floor_v;
  if (frac == 0.5) {
    return (std::fmod(floor_v, 2.0) == 0.0) ? floor_v : floor_v + 1.0;
  }
  return (frac > 0.5) ? floor_v + 1.0 : (frac < 0.5 ? floor_v : r);
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(RoundHalfEven, EdgeCasesMatchOracleBitForBit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTwo52 = 4503599627370496.0;
  const std::vector<double> edges{
      0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 3.5, -3.5,
      0.49999999999999994, -0.49999999999999994, 0.3, -0.3, 1e-20, -1e-20,
      kTwo52, -kTwo52, kTwo52 - 0.5, -(kTwo52 - 0.5), kTwo52 + 0.5, -(kTwo52 + 0.5),
      kTwo52 / 2 + 0.5, -(kTwo52 / 2 + 0.5), kTwo52 * 2 + 2, std::ldexp(1.0, 63),
      -std::ldexp(1.0, 63), 1e300, -1e300, kInf, -kInf,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      -std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max()};
  for (const double v : edges) {
    EXPECT_EQ(bits_of(round_half_even(v)), bits_of(oracle_round_half_even(v)))
        << std::hexfloat << "v = " << v << ": got " << round_half_even(v)
        << ", oracle " << oracle_round_half_even(v);
  }
  // The signed zeros and ties the quantisers rely on, spelled out.
  EXPECT_EQ(bits_of(round_half_even(-0.0)), bits_of(-0.0));
  EXPECT_EQ(bits_of(round_half_even(-0.5)), bits_of(0.0));
  EXPECT_EQ(round_half_even(2.5), 2.0);
  EXPECT_EQ(round_half_even(-2.5), -2.0);
  EXPECT_TRUE(std::isnan(round_half_even(std::numeric_limits<double>::quiet_NaN())));
}

TEST(RoundHalfEven, SeededValuesMatchOracleBitForBit) {
  // Four families per draw: ordinary scores, exact ties k + 0.5, values
  // spread over 120 binary orders of magnitude, and values next to 2^52
  // where the fraction has a single bit left.
  Rng rng(0x20E7);
  long mismatches = 0;
  double first_bad = 0.0;
  const auto check = [&](double v) {
    if (bits_of(round_half_even(v)) != bits_of(oracle_round_half_even(v))) {
      first_bad = mismatches == 0 ? v : first_bad;
      ++mismatches;
    }
  };
  for (int i = 0; i < 300000; ++i) {
    check(rng.uniform(-1000.0, 1000.0));
    check(static_cast<double>(rng.uniform_int(-(1 << 20), 1 << 20)) + 0.5);
    check(std::ldexp(rng.uniform(-1.0, 1.0), static_cast<int>(rng.uniform_int(-60, 60))));
    check(std::ldexp(1.0, 52) - static_cast<double>(rng.uniform_int(0, 64)) * 0.5);
  }
  EXPECT_EQ(mismatches, 0) << std::hexfloat << "first mismatch at v = " << first_bad;
}

}  // namespace
}  // namespace star
