#include "serve/batch_sim.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "core/batch_encoder.hpp"
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

namespace {

struct SimPending {
  double arrival = 0.0;
  std::int64_t seq_len = 0;
  std::uint64_t id = 0;
};

}  // namespace

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
    // The replay's event loop (arrivals admit before equal-tick dispatches,
    // head age-out windows) assumes the documented ArrivalTrace invariant.
    // A hand-built trace can violate it; audit before simulating.
    for (std::size_t i = 1; i < trace.size(); ++i) {
      STAR_CONTRACT(trace.arrival_ticks[i] > trace.arrival_ticks[i - 1],
                    "simulate_batching: arrival ticks must be strictly "
                    "increasing");
    }
  }

  const std::size_t num_queues = cfg.bucketing.num_queues();
  std::vector<std::deque<SimPending>> queues(num_queues);

  StatsAccumulator acc;
  {
    std::vector<std::int64_t> edges;
    edges.reserve(num_queues);
    for (std::size_t q = 0; q < num_queues; ++q) {
      edges.push_back(cfg.bucketing.edge_of(q));
    }
    acc.configure_buckets(std::move(edges));
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  double engine_free = 0.0;
  double busy = 0.0;
  double makespan = 0.0;
  std::uint64_t served = 0;
  std::size_t next_arrival = 0;
  std::size_t pending = 0;

  // A queue's trigger time: the instant its policy wants a dispatch —
  // head age-out, or the moment the queue FILLED (the arrival of its
  // max_batch-th member, never earlier: the batch must not dispatch before
  // its own members exist). The dispatch itself additionally waits for the
  // engine.
  const auto trigger_of = [&](std::size_t q) {
    if (queues[q].empty()) {
      return kInf;
    }
    const std::size_t cap = cfg.bucketing.max_batch_for(q, cfg.max_batch);
    double t = queues[q].front().arrival +
               static_cast<double>(
                   cfg.bucketing.max_wait_for(q, cfg.max_wait_ticks));
    if (queues[q].size() >= cap) {
      t = std::min(t, queues[q][cap - 1].arrival);
    }
    return t;
  };

  while (next_arrival < trace.size() || pending > 0) {
    // Earliest dispatch across queues; oldest head breaks ties so bucket
    // fairness matches the live batcher.
    std::size_t best_q = num_queues;
    double best_dispatch = kInf;
    std::uint64_t best_id = 0;
    for (std::size_t q = 0; q < num_queues; ++q) {
      if (queues[q].empty()) {
        continue;
      }
      const double dispatch = std::max(trigger_of(q), engine_free);
      if (dispatch < best_dispatch ||
          (dispatch == best_dispatch && queues[q].front().id < best_id)) {
        best_q = q;
        best_dispatch = dispatch;
        best_id = queues[q].front().id;
      }
    }

    // Admit every arrival at or before the decided dispatch instant FIRST:
    // an arrival can fill a queue and advance (never delay) its trigger,
    // and arrivals-before-dispatch at the same tick is the deterministic
    // tie rule. With no dispatchable queue, admit the next arrival.
    if (next_arrival < trace.size() &&
        trace.arrival_ticks[next_arrival] <= best_dispatch) {
      SimPending p;
      p.arrival = trace.arrival_ticks[next_arrival];
      p.seq_len = seq_lens[next_arrival];
      p.id = next_arrival;
      acc.on_submitted();
      acc.on_admitted();
      queues[cfg.bucketing.bucket_of(p.seq_len)].push_back(p);
      ++pending;
      ++next_arrival;
      continue;
    }
    if (best_q == num_queues) {
      break;  // unreachable: pending > 0 implies a non-empty queue
    }

    std::deque<SimPending>& queue = queues[best_q];
    const std::size_t cap = cfg.bucketing.max_batch_for(best_q, cfg.max_batch);
    const std::size_t take = std::min(queue.size(), cap);
    std::int64_t batch_max_len = 0;
    std::int64_t effective = 0;
    std::vector<SimPending> formed;
    formed.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch_max_len = std::max(batch_max_len, queue.front().seq_len);
      effective += queue.front().seq_len;
      formed.push_back(queue.front());
      queue.pop_front();
    }
    pending -= take;

    const std::int64_t padded_len =
        cfg.bucketing.padded_len(best_q, batch_max_len);
    // STAR-calibrated service when an analytic model is attached (cached —
    // repeated padded lengths are O(1) CostCache hits), linear token proxy
    // otherwise.
    const double marginal =
        cfg.analytic_model != nullptr
            ? cfg.analytic_ticks_per_us *
                  cfg.analytic_model->price_analytic(padded_len)
                      .latency.as_us()
            : cfg.ticks_per_token * static_cast<double>(padded_len);
    const double service =
        cfg.batch_overhead_ticks + static_cast<double>(take) * marginal;
    const double finish = best_dispatch + service;

    acc.on_batch(take, best_q, static_cast<std::uint64_t>(effective),
                 static_cast<std::uint64_t>(take) *
                     static_cast<std::uint64_t>(padded_len),
                 static_cast<std::uint64_t>(cap) *
                     static_cast<std::uint64_t>(padded_len));
    for (const SimPending& p : formed) {
      RequestStats rs;
      rs.request_id = p.id;
      rs.batch_size = take;
      rs.queue_wait_s = best_dispatch - p.arrival;  // ticks, not seconds
      rs.service_s = service;
      rs.seq_len = p.seq_len;
      rs.padded_len = padded_len;
      rs.bucket = best_q;
      acc.on_done(rs, /*ok=*/true);
    }
    served += take;
    busy += service;
    engine_free = finish;
    makespan = std::max(makespan, finish);
  }

  BatchSimResult result;
  result.stats = acc.snapshot();
  result.makespan_ticks = makespan;
  result.busy_ticks = busy;
  result.utilization = makespan > 0.0 ? busy / makespan : 0.0;
  result.served = served;
  return result;
}

}  // namespace star::serve
