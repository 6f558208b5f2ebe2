#include "baseline/cmos_softmax.hpp"

#include <algorithm>
#include <cmath>

#include "hw/gates.hpp"
#include "util/math.hpp"
#include "util/status.hpp"

namespace star::baseline {

CmosSoftmaxUnit::CmosSoftmaxUnit(const hw::TechNode& tech, CmosSoftmaxConfig cfg)
    : tech_(tech), cfg_(cfg) {
  require(cfg.lanes >= 1 && cfg.lanes <= 512, "CmosSoftmaxUnit: lanes in [1, 512]");
  require(cfg.operand_bits >= 8 && cfg.operand_bits <= 32,
          "CmosSoftmaxUnit: operand_bits in [8, 32]");
  require(cfg.output_bits >= 4 && cfg.output_bits <= 32,
          "CmosSoftmaxUnit: output_bits in [4, 32]");

  const hw::GateLibrary lib(tech);
  exp_lane_ = lib.exp_unit(cfg.operand_bits);
  div_lane_ = lib.divider(cfg.operand_bits);
  max_tree_ = lib.comparator(cfg.operand_bits);  // per element-compare
  add_tree_ = lib.adder(cfg.operand_bits + 8);   // per accumulate
  regs_ = lib.reg(cfg.operand_bits);
}

void CmosSoftmaxUnit::operator()(std::span<const double> x, std::span<double> out) {
  require(!x.empty(), "CmosSoftmaxUnit: empty row");
  STAR_ASSERT(out.size() == x.size(), "CmosSoftmaxUnit: output span length mismatch");
  // Fixed-point input grid: operand_bits with half the bits fraction.
  const int frac = cfg_.operand_bits / 2;
  const double in_step = std::ldexp(1.0, -frac);
  const double out_step = std::ldexp(1.0, -cfg_.output_bits);

  double x_max = -1e300;
  std::vector<double> q(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    q[i] = round_half_even(x[i] / in_step) * in_step;
    x_max = std::max(x_max, q[i]);
  }
  double denom = 0.0;
  std::vector<double> e(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    e[i] = std::exp(q[i] - x_max);
    denom += e[i];
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = round_half_even(e[i] / denom / out_step) * out_step;
  }
}

Area CmosSoftmaxUnit::area() const {
  const double lanes = cfg_.lanes;
  return exp_lane_.area * lanes + div_lane_.area * lanes + max_tree_.area * lanes +
         add_tree_.area * lanes + regs_.area * (3.0 * lanes);
}

Power CmosSoftmaxUnit::leakage() const {
  const double lanes = cfg_.lanes;
  return exp_lane_.leakage * lanes + div_lane_.leakage * lanes +
         max_tree_.leakage * lanes + add_tree_.leakage * lanes +
         regs_.leakage * (3.0 * lanes);
}

Time CmosSoftmaxUnit::row_latency(int d) const {
  require(d >= 1, "CmosSoftmaxUnit::row_latency: d must be >= 1");
  const double groups = static_cast<double>(ceil_div(d, cfg_.lanes));
  // Three passes over the row (max, exp+sum, divide); the exp pipeline and
  // the divider dominate their passes.
  const Time pass1 = max_tree_.latency * groups;
  const Time pass2 = exp_lane_.latency + tech_.clock_period() * (groups - 1.0) +
                     add_tree_.latency;
  const Time pass3 = div_lane_.latency + tech_.clock_period() * (groups - 1.0);
  return pass1 + pass2 + pass3;
}

Energy CmosSoftmaxUnit::row_energy(int d) const {
  require(d >= 1, "CmosSoftmaxUnit::row_energy: d must be >= 1");
  const double n = static_cast<double>(d);
  return (max_tree_.energy_per_op + exp_lane_.energy_per_op + add_tree_.energy_per_op +
          div_lane_.energy_per_op + regs_.energy_per_op * 3.0) *
         n;
}

Power CmosSoftmaxUnit::active_power(int d) const {
  return row_energy(d) / row_latency(d) + leakage();
}

hw::CostSheet CmosSoftmaxUnit::cost_sheet(int d) const {
  const double lanes = cfg_.lanes;
  const double n = static_cast<double>(d);
  hw::CostSheet sheet;
  sheet.add("exp datapath", exp_lane_, lanes, n / lanes);
  sheet.add("divider", div_lane_, lanes, n / lanes);
  sheet.add("max comparator tree", max_tree_, lanes, n / lanes);
  sheet.add("sum adder tree", add_tree_, lanes, n / lanes);
  sheet.add("operand registers", regs_, 3.0 * lanes, n / lanes);
  sheet.set_latency(row_latency(d));
  return sheet;
}

}  // namespace star::baseline
