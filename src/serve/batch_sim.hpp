// Deterministic virtual-time replay of the dynamic batcher.
//
// StarServer's batcher runs on wall-clock time, so its formed batches (and
// therefore its occupancy/waste accounting) vary run to run with scheduler
// jitter. This simulator runs the same serve::BatchPolicy — the one copy of
// the (max_batch, max_wait, LengthBucketing) rule, serve/batch_policy.hpp —
// against an ArrivalTrace in virtual ticks with an analytic service model,
// making batch formation a pure function of (trace, lengths, config). That
// is what the 10^6-arrival soak of bench_batched_encoder runs, and
// tests/golden/batch_replay.csv pins that soak and smaller replays bit for
// bit: big enough to exercise the steady state, deterministic enough that
// "bucketed waste < pad-to-max waste" is an exact, reproducible relation.
//
// Model: one engine, one batcher, as a discrete-event loop over the
// policy. The next dispatch is due now if a queue is dispatchable, else at
// the earliest head age-out; it never starts before the engine is free.
// Arrivals at or before that instant admit first, and each dispatch forms
// one batch (a StarServer round on a 1-thread scheduler). A dispatch
// occupies the engine for
//     service = batch_overhead_ticks + ticks_per_token * B * P
// ticks (B = formed size, P = padded length — padding is billed, which is
// exactly the cost model that makes padding waste mean something).
//
// The result reuses ServerStats with TICKS in the seconds-named latency
// fields (queue_wait_mean_s etc.); the token-occupancy block is denominated
// in tokens as usual, so waste/occupancy compare directly with live runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/length_buckets.hpp"
#include "serve/server_stats.hpp"
#include "workload/arrival_trace.hpp"

namespace star::core {
class BatchEncoderSim;
}  // namespace star::core

namespace star::serve {

/// The batcher policy + analytic service model of one simulated server.
struct BatchSimConfig {
  std::size_t max_batch = 8;        ///< policy-wide dispatch-size cap
  std::uint32_t max_wait_ticks = 4; ///< policy-wide head age-out window
  LengthBucketing bucketing{};      ///< no buckets = pad-to-max
  /// Fixed per-dispatch cost (ticks) — models kernel launch / programming.
  double batch_overhead_ticks = 1.0;
  /// Marginal cost (ticks) of one BILLED token-slot: a batch of B requests
  /// padded to P tokens serves in overhead + ticks_per_token * B * P.
  double ticks_per_token = 0.01;

  /// Optional STAR-calibrated service model. When non-null, a dispatch's
  /// marginal cost is the accelerator's own analytic latency at the billed
  /// padded length instead of the linear per-token proxy:
  ///     service = overhead + take * analytic_ticks_per_us
  ///                               * price_analytic(padded_len).latency_us
  /// Any padded length >= 2 is priced, including one above the model's
  /// max_seq_len (a bucket edge past it, or a what-if trace): the replay
  /// bills batches and serves no request, so run_analytic_one's request
  /// bound does not apply.
  /// The model is shared, not copied; it must outlive the simulation.
  /// The replay hits the same few padded lengths millions of times, so this
  /// leg runs out of the model's memoized CostCache: once every padded
  /// length is priced, each lookup hits. Still deterministic:
  /// price_analytic is a pure analytic figure and the steady-state record
  /// is residency-independent.
  const core::BatchEncoderSim* analytic_model = nullptr;
  /// Virtual-ticks per microsecond of modelled accelerator latency (scales
  /// the analytic service into the trace's tick domain).
  double analytic_ticks_per_us = 1.0;

  void validate() const;
};

/// Outcome of one simulated trace. `stats` follows the live ServerStats
/// semantics except that every *_s latency field is in TICKS; every arrival
/// is served, so stats.completed equals the trace size.
struct BatchSimResult {
  ServerStats stats;
  double makespan_ticks = 0.0;     ///< last batch completion time
  double busy_ticks = 0.0;         ///< engine-occupied ticks (sum of services)
  double utilization = 0.0;        ///< busy / makespan
};

/// Replay `trace` (request i arrives at trace.arrival_ticks[i] with length
/// seq_lens[i]) through the batcher policy in `cfg`. `seq_lens` must match
/// the trace size with every length >= 1. Deterministic in all arguments.
[[nodiscard]] BatchSimResult simulate_batching(
    const workload::ArrivalTrace& trace,
    const std::vector<std::int64_t>& seq_lens, const BatchSimConfig& cfg);

}  // namespace star::serve
