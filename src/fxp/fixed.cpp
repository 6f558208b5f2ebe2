#include "fxp/fixed.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace star::fxp {

Fixed Fixed::from_real(double v, const QFormat& fmt, Rounding r, Overflow o) {
  fmt.validate();
  return Fixed(fmt.to_code(v, r, o), fmt);
}

Fixed Fixed::from_code(std::int64_t code, const QFormat& fmt) {
  fmt.validate();
  const std::int64_t lo =
      fmt.is_signed ? -(std::int64_t{1} << (fmt.int_bits + fmt.frac_bits)) : 0;
  const std::int64_t hi = (std::int64_t{1} << (fmt.int_bits + fmt.frac_bits)) - 1;
  require(code >= lo && code <= hi,
          [&] { return "Fixed::from_code: code out of range for " + fmt.name(); });
  return Fixed(code, fmt);
}

Fixed Fixed::cast(const QFormat& to, Rounding r, Overflow o) const {
  return Fixed::from_real(real(), to, r, o);
}

namespace {
Fixed saturating_combine(const Fixed& a, const Fixed& b, bool subtract) {
  require(a.format() == b.format(),
          "Fixed arithmetic requires identical formats; cast() explicitly");
  const QFormat& fmt = a.format();
  const std::int64_t lo =
      fmt.is_signed ? -(std::int64_t{1} << (fmt.int_bits + fmt.frac_bits)) : 0;
  const std::int64_t hi = (std::int64_t{1} << (fmt.int_bits + fmt.frac_bits)) - 1;
  const std::int64_t raw = subtract ? a.code() - b.code() : a.code() + b.code();
  return Fixed::from_code(std::clamp(raw, lo, hi), fmt);
}
}  // namespace

Fixed operator+(const Fixed& a, const Fixed& b) { return saturating_combine(a, b, false); }
Fixed operator-(const Fixed& a, const Fixed& b) { return saturating_combine(a, b, true); }

auto operator<=>(const Fixed& a, const Fixed& b) {
  require(a.format() == b.format(), "Fixed comparison requires identical formats");
  return a.code() <=> b.code();
}

std::vector<double> quantize_vector(const std::vector<double>& xs, const QFormat& fmt,
                                    Rounding r, Overflow o) {
  fmt.validate();
  std::vector<double> out(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out[i] = fmt.quantize(xs[i], r, o);
  }
  return out;
}

std::vector<std::int64_t> codes_for(const std::vector<double>& xs, const QFormat& fmt,
                                    Rounding r, Overflow o) {
  fmt.validate();
  std::vector<std::int64_t> out(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out[i] = fmt.to_code(xs[i], r, o);
  }
  return out;
}

}  // namespace star::fxp
