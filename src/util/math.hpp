// Small numeric helpers shared across the simulator.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace star {

/// ceil(a / b) for positive integers.
constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Number of bits needed to represent values 0..n-1 (ceil(log2(n)), min 1).
constexpr int bits_for(std::uint64_t n) {
  int bits = 1;
  while ((1ULL << bits) < n) {
    ++bits;
  }
  return bits;
}

/// True if n is a power of two (n > 0).
constexpr bool is_pow2(std::uint64_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Round to nearest, ties to even (the hardware-friendly rounding the
/// quantisers use by default). Inline and without libm: truncation through
/// int64 needs no rounding mode, and the tie and direction tests are
/// arithmetic, not branches. A zero result is +0.0 unless v is -0.0;
/// |v| >= 2^52, +-Inf and NaN pass through.
inline double round_half_even(double v) {
  if (!(std::fabs(v) < 0x1p52)) {
    return v;  // already integral, or not a number
  }
  const auto whole = static_cast<std::int64_t>(v);           // toward zero
  const double frac = v - static_cast<double>(whole);        // exact, |frac| < 1
  const double mag = std::fabs(frac);
  const std::int64_t away = static_cast<std::int64_t>(mag > 0.5) |
                            (static_cast<std::int64_t>(mag == 0.5) & whole);
  const std::int64_t rounded = whole + (v < 0.0 ? -away : away);
  return frac == 0.0 ? v : static_cast<double>(rounded);
}

/// Clamp helper mirroring std::clamp but tolerant of lo > hi input checks.
double clamp(double v, double lo, double hi);

/// Mean of a span (0 for empty).
double mean(std::span<const double> xs);

/// Population standard deviation of a span (0 for size < 2).
double stddev(std::span<const double> xs);

/// max |a_i - b_i| over paired spans (asserts equal size).
double max_abs_diff(std::span<const double> a, std::span<const double> b);

/// Root mean square of (a_i - b_i).
double rms_diff(std::span<const double> a, std::span<const double> b);

/// Kullback-Leibler divergence KL(p || q) for probability vectors.
/// Entries of q are floored at `eps` to keep the result finite.
double kl_divergence(std::span<const double> p, std::span<const double> q,
                     double eps = 1e-12);

/// Index of the maximum element (first occurrence). Asserts non-empty.
std::size_t argmax(std::span<const double> xs);

/// Cosine similarity between two vectors; 1.0 when either has zero norm
/// and both are zero, 0.0 if exactly one is zero.
double cosine_similarity(std::span<const double> a, std::span<const double> b);

}  // namespace star
