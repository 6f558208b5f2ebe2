#include "hw/report.hpp"

namespace star::hw {

double RunReport::gops() const {
  const double s = latency.as_s();
  return s > 0.0 ? total_ops / s / 1e9 : 0.0;
}

double RunReport::gops_per_watt() const {
  const double w = avg_power.as_W();
  return w > 0.0 ? gops() / w : 0.0;
}

}  // namespace star::hw
