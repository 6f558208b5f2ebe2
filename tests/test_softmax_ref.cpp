// Tests for the reference softmax and log-sum-exp oracle.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/softmax_ref.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace star::nn {
namespace {

TEST(SoftmaxRef, SumsToOne) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> x(64);
    for (auto& v : x) {
      v = rng.uniform(-30.0, 30.0);
    }
    const auto p = softmax(x);
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(SoftmaxRef, ShiftInvariant) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> shifted{101.0, 102.0, 103.0};
  const auto a = softmax(x);
  const auto b = softmax(shifted);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-12);
  }
}

TEST(SoftmaxRef, MatchesLogSumExpOracle) {
  Rng rng(2);
  std::vector<double> x(32);
  for (auto& v : x) {
    v = rng.uniform(-10.0, 10.0);
  }
  const double lse = logsumexp(x);
  const auto p = softmax(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(p[i], std::exp(x[i] - lse), 1e-12);
  }
}

TEST(SoftmaxRef, StableAtExtremeMagnitudes) {
  const std::vector<double> x{1000.0, 999.0, -1000.0};
  const auto p = softmax(x);
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_GT(p[0], p[1]);
  EXPECT_NEAR(p[2], 0.0, 1e-12);
}

TEST(SoftmaxRef, UniformInputGivesUniformOutput) {
  const std::vector<double> x(10, 4.2);
  const auto p = softmax(x);
  for (double v : p) {
    EXPECT_NEAR(v, 0.1, 1e-12);
  }
}

TEST(SoftmaxRef, OrderPreserving) {
  const std::vector<double> x{0.5, 2.5, 1.5};
  const auto p = softmax(x);
  EXPECT_GT(p[1], p[2]);
  EXPECT_GT(p[2], p[0]);
}

TEST(SoftmaxRef, SoftmaxRowsAppliesPerRow) {
  const auto x = Tensor::from_flat(2, 2, {0.0, 0.0, 0.0, 100.0});
  const auto p = softmax_rows(x);
  EXPECT_NEAR(p.at(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(p.at(1, 1), 1.0, 1e-12);
}

TEST(SoftmaxRef, EmptyRowRejected) {
  EXPECT_THROW(softmax(std::vector<double>{}), InvalidArgument);
  EXPECT_THROW(logsumexp(std::vector<double>{}), InvalidArgument);
}

TEST(SoftmaxRef, ExactSoftmaxAdapter) {
  ExactSoftmaxInto impl;
  const std::vector<double> x{1.0, 2.0};
  const auto p = softmax_row(impl, x);
  EXPECT_EQ(std::string(impl.name()), "exact");
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
}

}  // namespace
}  // namespace star::nn
