#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/status.hpp"

namespace star::nn {

Tensor::Tensor(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  require(rows >= 1 && cols >= 1, "Tensor: dimensions must be >= 1");
}

Tensor Tensor::from_flat(std::size_t rows, std::size_t cols,
                         std::span<const double> data) {
  require(rows >= 1 && cols >= 1, "Tensor::from_flat: empty shape");
  require(data.size() == rows * cols,
          "Tensor::from_flat: data length must equal rows * cols");
  Tensor t(rows, cols);
  std::copy(data.begin(), data.end(), t.data_.begin());
  return t;
}

Tensor Tensor::from_flat(std::size_t rows, std::size_t cols,
                         std::initializer_list<double> data) {
  return from_flat(rows, cols, std::span<const double>(data.begin(), data.size()));
}

Tensor Tensor::randn(std::size_t rows, std::size_t cols, Rng& rng, double mean,
                     double stddev) {
  Tensor t(rows, cols);
  for (auto& v : t.data_) {
    v = rng.normal(mean, stddev);
  }
  return t;
}

double& Tensor::at(std::size_t r, std::size_t c) {
  STAR_ASSERT(r < rows_ && c < cols_, "Tensor::at: index out of range");
  return data_[r * cols_ + c];
}

double Tensor::at(std::size_t r, std::size_t c) const {
  STAR_ASSERT(r < rows_ && c < cols_, "Tensor::at: index out of range");
  return data_[r * cols_ + c];
}

std::span<double> Tensor::row(std::size_t r) {
  STAR_ASSERT(r < rows_, "Tensor::row: index out of range");
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Tensor::row(std::size_t r) const {
  STAR_ASSERT(r < rows_, "Tensor::row: index out of range");
  return {data_.data() + r * cols_, cols_};
}

Tensor Tensor::matmul(const Tensor& other) const {
  require(cols_ == other.rows_, [&] {
    return expected_got("Tensor::matmul inner dim", static_cast<long long>(cols_),
                        static_cast<long long>(other.rows_));
  });
  Tensor out(rows_, other.cols_);
  // ikj loop order: streams `other` rows, cache-friendly for row-major data.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = data_[i * cols_ + k];
      if (a == 0.0) {
        continue;
      }
      const double* brow = other.data_.data() + k * other.cols_;
      double* orow = out.data_.data() + i * other.cols_;
      for (std::size_t j = 0; j < other.cols_; ++j) {
        orow[j] += a * brow[j];
      }
    }
  }
  return out;
}

Tensor Tensor::transposed() const {
  Tensor out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      out.data_[c * rows_ + r] = data_[r * cols_ + c];
    }
  }
  return out;
}

void Tensor::reshape(std::size_t rows, std::size_t cols) {
  require(rows >= 1 && cols >= 1, "Tensor::reshape: dimensions must be >= 1");
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

Tensor& Tensor::scale(double k) {
  for (auto& v : data_) {
    v *= k;
  }
  return *this;
}

Tensor Tensor::map(const std::function<double(double)>& f) const {
  Tensor out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = f(data_[i]);
  }
  return out;
}

Tensor operator+(const Tensor& a, const Tensor& b) {
  require(a.rows_ == b.rows_ && a.cols_ == b.cols_, "Tensor operator+: shape mismatch");
  Tensor out(a.rows_, a.cols_);
  for (std::size_t i = 0; i < out.data_.size(); ++i) {
    out.data_[i] = a.data_[i] + b.data_[i];
  }
  return out;
}

Tensor operator-(const Tensor& a, const Tensor& b) {
  require(a.rows_ == b.rows_ && a.cols_ == b.cols_, "Tensor operator-: shape mismatch");
  Tensor out(a.rows_, a.cols_);
  for (std::size_t i = 0; i < out.data_.size(); ++i) {
    out.data_[i] = a.data_[i] - b.data_[i];
  }
  return out;
}

double Tensor::max_abs_diff(const Tensor& a, const Tensor& b) {
  require(a.rows_ == b.rows_ && a.cols_ == b.cols_,
          "Tensor::max_abs_diff: shape mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    worst = std::max(worst, std::fabs(a.data_[i] - b.data_[i]));
  }
  return worst;
}

bool Tensor::bit_identical(const Tensor& a, const Tensor& b) {
  return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
         std::memcmp(a.data_.data(), b.data_.data(),
                     a.data_.size() * sizeof(double)) == 0;
}

}  // namespace star::nn
