#include "nn/softmax_ref.hpp"

#include <algorithm>
#include <cmath>

#include "util/status.hpp"

namespace star::nn {

std::vector<double> softmax(std::span<const double> x) {
  std::vector<double> out(x.size());
  softmax_into(x, out);
  return out;
}

// STAR_HOT
void softmax_into(std::span<const double> x, std::span<double> out) {
  require(!x.empty(), "softmax: empty input");
  STAR_ASSERT(out.size() == x.size(), "softmax_into: output span length mismatch");
  const double m = *std::max_element(x.begin(), x.end());
  double denom = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = std::exp(x[i] - m);
    denom += out[i];
  }
  for (auto& v : out) {
    v /= denom;
  }
}

Tensor softmax_rows(const Tensor& x) {
  Tensor out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto s = softmax(x.row(r));
    std::copy(s.begin(), s.end(), out.row(r).begin());
  }
  return out;
}

std::vector<double> softmax_row(RowSoftmaxInto& impl, std::span<const double> x) {
  std::vector<double> out(x.size());
  impl(x, out);
  return out;
}

double logsumexp(std::span<const double> x) {
  require(!x.empty(), "logsumexp: empty input");
  const double m = *std::max_element(x.begin(), x.end());
  double acc = 0.0;
  for (double v : x) {
    acc += std::exp(v - m);
  }
  return m + std::log(acc);
}

}  // namespace star::nn
