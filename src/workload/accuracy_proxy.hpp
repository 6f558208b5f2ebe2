// Accuracy proxy and required-bitwidth search (paper §II bitwidth analysis).
//
// Ground truth per row is the exact softmax; the candidate is a pure-math
// model of the STAR datapath at a given QFormat:
//   1. d_i = quantize(x_i - x_max) to Q(int, frac) magnitude,
//   2. e_i = round(exp(-d_i) * 2^m) / 2^m   (the LUT word, m = lut frac bits),
//   3. p_i = e_i / sum(e_j)                  (integer-exact summation+divide).
// The proxy metrics are the mean KL divergence (primary) and the top-1
// agreement of the resulting attention weights (secondary). The search
// returns the smallest (int_bits, frac_bits) meeting the thresholds —
// the experiment that should reproduce the paper's 8/9/7-bit findings.
#pragma once

#include <span>
#include <vector>

#include "fxp/qformat.hpp"
#include "util/rng.hpp"
#include "workload/dataset_profile.hpp"

namespace star::workload {

/// Quantised-softmax model of the STAR datapath (shared oracle: the real
/// crossbar engine in src/core must match this bit-for-bit under ideal
/// devices; tests enforce that). Takes the engine's input rule: scores
/// saturate at the edges of the operand window (+-Inf included) and a NaN
/// score throws InvalidArgument.
std::vector<double> quantized_softmax(std::span<const double> x,
                                      const fxp::QFormat& fmt, int lut_frac_bits);

/// Default LUT output precision for a given operand format: total bits - 1
/// fraction bits (one integer bit represents e^0 = 1.0).
int default_lut_frac_bits(const fxp::QFormat& fmt);

struct ProxyMetrics {
  double mean_kl = 0.0;          ///< mean KL(exact || quantised) per row
  double top1_agreement = 1.0;   ///< fraction of rows with matching argmax
  double max_spread = 0.0;       ///< observed max |x_i - x_max|
  double prob_rmse = 0.0;        ///< RMS probability error
};

struct ProxyConfig {
  std::size_t rows = 400;
  std::size_t row_len = 128;
  /// Primary gate: fraction of rows whose attention argmax survives
  /// quantisation (the classification-accuracy proxy).
  double top1_threshold = 0.985;
  /// Secondary sanity gate; loose because the raw KL is dominated by LUT
  /// underflow of negligible-probability tail elements.
  double kl_threshold = 2.0e-2;
  std::uint64_t seed = 42;
};

/// Evaluate a format against a dataset profile.
ProxyMetrics evaluate_format(const DatasetProfile& profile, const fxp::QFormat& fmt,
                             const ProxyConfig& cfg = {});

struct BitwidthResult {
  int int_bits = 0;
  int frac_bits = 0;
  ProxyMetrics metrics_at_choice;
  [[nodiscard]] int total_bits() const { return int_bits + frac_bits; }
};

/// Smallest format meeting the thresholds: integer bits are fixed by the
/// observed spread; fraction bits grow from 0 until the proxy passes.
BitwidthResult required_bitwidth(const DatasetProfile& profile,
                                 const ProxyConfig& cfg = {}, int max_frac_bits = 6);

}  // namespace star::workload
