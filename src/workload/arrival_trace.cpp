#include "workload/arrival_trace.hpp"

#include <cmath>
#include <limits>

#include "util/contract.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace star::workload {

double ArrivalTrace::inter_arrival_ticks(std::size_t i) const {
  require(i < arrival_ticks.size(), "inter_arrival_ticks: index out of range");
  return i == 0 ? arrival_ticks[0] : arrival_ticks[i] - arrival_ticks[i - 1];
}

ArrivalTrace ArrivalTrace::from_gaps(const std::vector<double>& gaps) {
  ArrivalTrace trace;
  trace.arrival_ticks.reserve(gaps.size());
  double t = 0.0;
  for (const double gap : gaps) {
    require(gap >= 0.0 && std::isfinite(gap),
            "ArrivalTrace: gaps must be finite and non-negative");
    double next = t + gap;
    if (!(next > t)) {
      // A zero gap, or one absorbed by the addition (t >> gap), would
      // duplicate the previous tick; nudge to the next representable
      // double to keep the trace strictly increasing.
      next = std::nextafter(t, std::numeric_limits<double>::infinity());
    }
    // Post-condition of the nudge above — the documented invariant of
    // every constructor path: ticks strictly increase.
    STAR_CONTRACT(trace.arrival_ticks.empty() || next > trace.arrival_ticks.back(),
                  "ArrivalTrace: ticks must be strictly increasing");
    t = next;
    trace.arrival_ticks.push_back(t);
  }
  return trace;
}

void BurstShape::validate() const {
  require(mean_inter_arrival_ticks > 0.0 && std::isfinite(mean_inter_arrival_ticks),
          "BurstShape: mean inter-arrival time must be positive");
  require(period_ticks > 0.0 && std::isfinite(period_ticks),
          "BurstShape: period must be positive");
  require(duty > 0.0 && duty < 1.0, "BurstShape: duty must be in (0, 1)");
  require(intensity >= 1.0 && std::isfinite(intensity),
          "BurstShape: intensity must be >= 1");
  // The off-window rate (1 - duty*intensity)/(1 - duty) * r must stay
  // non-negative, i.e. the burst cannot carry more than all the traffic.
  require(duty * intensity <= 1.0,
          "BurstShape: duty * intensity must be <= 1 (off-window rate >= 0)");
}

double BurstShape::rate_at(double t) const {
  const double r = 1.0 / mean_inter_arrival_ticks;
  const double phase = std::fmod(t, period_ticks);
  if (phase < duty * period_ticks) {
    return intensity * r;
  }
  return r * (1.0 - duty * intensity) / (1.0 - duty);
}

ArrivalTrace ArrivalTrace::generate_burst(std::size_t n, const BurstShape& shape,
                                          std::uint64_t seed) {
  shape.validate();
  // Lewis-Shedler thinning: candidate arrivals at the constant peak rate,
  // kept with probability rate(t)/peak — an exact draw from the
  // inhomogeneous process, deterministic in (n, shape, seed).
  const double peak_rate = shape.peak_rate();
  Rng rng(seed);
  std::vector<double> gaps;
  gaps.reserve(n);
  double t = 0.0;
  double last_kept = 0.0;
  while (gaps.size() < n) {
    t += -std::log(1.0 - rng.uniform()) / peak_rate;
    if (rng.uniform() * peak_rate < shape.rate_at(t)) {
      gaps.push_back(t - last_kept);
      last_kept = t;
    }
  }
  return from_gaps(gaps);
}

ArrivalTrace ArrivalTrace::generate(std::size_t n, ArrivalProcess process,
                                    double mean_inter_arrival_ticks,
                                    std::uint64_t seed) {
  require(mean_inter_arrival_ticks > 0.0,
          "ArrivalTrace: mean inter-arrival time must be positive");
  Rng rng(seed);
  std::vector<double> gaps;
  gaps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double gap = 0.0;
    switch (process) {
      case ArrivalProcess::kPoisson:
        // Inverse-CDF of Exp(1/mean); uniform() < 1 so the log is finite.
        gap = -mean_inter_arrival_ticks * std::log(1.0 - rng.uniform());
        break;
      case ArrivalProcess::kUniform:
        gap = rng.uniform(0.0, 2.0 * mean_inter_arrival_ticks);
        break;
    }
    gaps.push_back(gap);
  }
  return from_gaps(gaps);
}

}  // namespace star::workload
