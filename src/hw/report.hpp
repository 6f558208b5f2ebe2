// Engine-level efficiency reporting shared by STAR and every baseline:
// a normalized (ops, time, energy, power) record and the GOPs/s/W metric
// the paper's Fig. 3 plots.
#pragma once

#include <string>

#include "util/units.hpp"

namespace star::hw {

/// Result of running a workload on an (modelled) engine.
struct RunReport {
  std::string engine_name;
  double total_ops = 0.0;  ///< operations performed (MAC = 2 ops convention)
  Time latency{};
  Energy energy{};
  Power avg_power{};       ///< includes leakage over the run

  /// Throughput in giga-operations per second.
  [[nodiscard]] double gops() const;

  /// The paper's computing-efficiency metric: GOPs/s/W.
  [[nodiscard]] double gops_per_watt() const;
};

}  // namespace star::hw
