#include "serve/batch_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/batch_encoder.hpp"
#include "serve/batch_policy.hpp"
#include "util/contract.hpp"
#include "util/status.hpp"

namespace star::serve {

void BatchSimConfig::validate() const {
  require(max_batch >= 1, "BatchSimConfig: max_batch must be >= 1");
  require(std::isfinite(batch_overhead_ticks) && batch_overhead_ticks >= 0.0,
          "BatchSimConfig: batch_overhead_ticks must be finite and >= 0");
  require(std::isfinite(ticks_per_token) && ticks_per_token >= 0.0,
          "BatchSimConfig: ticks_per_token must be finite and >= 0");
  require(std::isfinite(analytic_ticks_per_us) && analytic_ticks_per_us > 0.0,
          "BatchSimConfig: analytic_ticks_per_us must be finite and > 0");
  bucketing.validate();
}

BatchSimResult simulate_batching(const workload::ArrivalTrace& trace,
                                 const std::vector<std::int64_t>& seq_lens,
                                 const BatchSimConfig& cfg) {
  cfg.validate();
  require(seq_lens.size() == trace.size(),
          "simulate_batching: one seq_len per arrival required");
  for (const std::int64_t len : seq_lens) {
    require(len >= 1, "simulate_batching: seq_lens must be >= 1");
  }
  if constexpr (contracts_enabled()) {
    // The event loop below (arrivals admit before equal-tick dispatches,
    // head age-out windows) assumes the documented ArrivalTrace invariant.
    // A hand-built trace can violate it; audit before simulating.
    for (std::size_t i = 1; i < trace.size(); ++i) {
      STAR_CONTRACT(trace.arrival_ticks[i] > trace.arrival_ticks[i - 1],
                    "simulate_batching: arrival ticks must be strictly "
                    "increasing");
    }
  }

  struct Pending {
    double enqueued = 0.0;  ///< arrival tick
    std::int64_t seq_len = 0;
    std::uint64_t id = 0;
  };
  using Policy = BatchPolicy<Pending, double>;
  StatsAccumulator acc;
  Policy policy(cfg.bucketing, cfg.max_batch, cfg.max_wait_ticks, 1.0, acc);
  std::vector<Pending> members;

  constexpr double kInf = std::numeric_limits<double>::infinity();
  double now = 0.0;
  double engine_free = 0.0;  // never falls, so it ends as the makespan
  double busy = 0.0;
  std::size_t next_arrival = 0;
  for (;;) {
    // The next dispatch: now if a queue is ready, else at the earliest
    // age-out deadline; never before the engine is free.
    const Policy::Next due = policy.next(now, /*force=*/false);
    const double at = std::max(
        due.queue != Policy::kNone ? now : due.deadline.value_or(kInf), engine_free);
    // Arrivals at or before that instant admit first: one can fill a queue
    // and bring the dispatch forward.
    if (next_arrival < trace.size() && trace.arrival_ticks[next_arrival] <= at) {
      now = trace.arrival_ticks[next_arrival];
      acc.on_submitted();
      acc.on_admitted();
      policy.admit(Pending{now, seq_lens[next_arrival], /*id=*/0});  // admit stamps it
      ++next_arrival;
      continue;
    }
    if (policy.empty()) {
      break;
    }
    now = at;
    const std::size_t q = policy.next(now, /*force=*/false).queue;
    members.clear();
    const Policy::Formed batch =
        policy.form(q, [&](const Pending& p) { members.push_back(p); });
    // STAR-calibrated service when an analytic model is attached (cached —
    // repeated padded lengths are O(1) CostCache hits), linear token proxy
    // otherwise.
    const double marginal =
        cfg.analytic_model != nullptr
            ? cfg.analytic_ticks_per_us *
                  cfg.analytic_model->price_analytic(batch.padded_len)
                      .latency.as_us()
            : cfg.ticks_per_token * static_cast<double>(batch.padded_len);
    const double service =
        cfg.batch_overhead_ticks + static_cast<double>(batch.size) * marginal;
    for (const Pending& p : members) {
      RequestStats rs;
      rs.request_id = p.id;
      rs.batch_size = batch.size;
      rs.queue_wait_s = now - p.enqueued;  // ticks, not seconds
      rs.service_s = service;
      rs.seq_len = p.seq_len;
      rs.padded_len = batch.padded_len;
      rs.bucket = q;
      acc.on_done(rs, /*ok=*/true);
    }
    busy += service;
    engine_free = now + service;
  }

  BatchSimResult result;
  result.stats = acc.snapshot();
  result.makespan_ticks = engine_free;
  result.busy_ticks = busy;
  result.utilization = engine_free > 0.0 ? busy / engine_free : 0.0;
  return result;
}

}  // namespace star::serve
