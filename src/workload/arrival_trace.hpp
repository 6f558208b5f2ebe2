// Open-loop arrival traces for driving the serving front end.
//
// A trace is the sequence of absolute arrival times (in abstract "ticks";
// the driver decides how long a tick is; the batch replay never converts
// them) at which independent requests reach the server. The
// generator is seeded and fully deterministic: (n, process, mean, seed)
// reproduces the identical trace on every host, which is what lets
// open-loop benchmark runs be compared across machines and commits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace star::workload {

enum class ArrivalProcess {
  kPoisson,  ///< exponential inter-arrival times (memoryless user traffic)
  kUniform,  ///< inter-arrival ~ U[0, 2*mean): same rate, bounded burstiness
};

/// Square-wave rate modulation: within the first `duty` fraction of every
/// `period_ticks` window the arrival rate is `intensity` times the overall
/// rate; outside it the rate drops so the OVERALL mean inter-arrival time
/// stays `mean_inter_arrival_ticks` (flash-crowd / retry-storm traffic).
struct BurstShape {
  double mean_inter_arrival_ticks = 1.0;
  double period_ticks = 256.0;
  double duty = 0.25;      ///< in-burst fraction of the period, in (0, 1)
  double intensity = 4.0;  ///< in-burst rate multiplier, >= 1, duty*intensity <= 1

  void validate() const;
  /// Instantaneous rate at absolute time `t` (arrivals per tick).
  [[nodiscard]] double rate_at(double t) const;
  [[nodiscard]] double peak_rate() const { return intensity / mean_inter_arrival_ticks; }
};

struct ArrivalTrace {
  /// Strictly increasing absolute arrival times; arrivals[0] is the first
  /// request's offset from the trace start. Strictness is an invariant of
  /// every constructor path (generate / from_gaps): a drawn gap of exactly
  /// zero, or one small enough to be absorbed by floating-point addition
  /// (t + gap == t), would otherwise produce duplicate ticks that an
  /// open-loop driver replays as simultaneous arrivals — distorting the
  /// offered load the batcher sees.
  std::vector<double> arrival_ticks;

  [[nodiscard]] std::size_t size() const { return arrival_ticks.size(); }
  [[nodiscard]] bool empty() const { return arrival_ticks.empty(); }

  /// Time of the last arrival (0 for an empty trace).
  [[nodiscard]] double makespan_ticks() const {
    return arrival_ticks.empty() ? 0.0 : arrival_ticks.back();
  }

  /// Gap before arrival i (arrival_ticks[0] itself for i == 0).
  [[nodiscard]] double inter_arrival_ticks(std::size_t i) const;

  /// `n` arrivals with the given process and mean inter-arrival time.
  /// Deterministic in all arguments; `mean_inter_arrival_ticks` must be
  /// positive (it sets the offered load: rate = 1 / mean).
  static ArrivalTrace generate(std::size_t n, ArrivalProcess process,
                               double mean_inter_arrival_ticks,
                               std::uint64_t seed);

  /// `n` arrivals of an inhomogeneous Poisson process with the square-wave
  /// burst rate profile (Lewis-Shedler thinning against the peak rate, so
  /// the process is exact, not a per-gap approximation). Deterministic in
  /// (n, shape, seed); routed through from_gaps like every generator.
  static ArrivalTrace generate_burst(std::size_t n, const BurstShape& shape,
                                     std::uint64_t seed);

  /// Accumulates non-negative, finite `gaps` into absolute ticks, nudging
  /// any tick that would not strictly exceed its predecessor up to the
  /// next representable double. All generated traces pass through here;
  /// exposed so the degenerate gap == 0 / absorbed-addition paths are
  /// directly testable.
  static ArrivalTrace from_gaps(const std::vector<double>& gaps);
};

}  // namespace star::workload
