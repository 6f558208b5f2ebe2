// Request/response types of the asynchronous serving front end.
//
// A request carries exactly what determines its payload: the input data and
// a per-request `run_seed`. The response a caller's future resolves to is
// bit-identical to a solo closed-batch run of the same input with the same
// seed (see the seed-derivation rule in core/batch_encoder.hpp) — batch
// placement never leaks into the payload. Everything timing-related lands
// in the attached RequestStats, which IS placement-dependent by design.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/accelerator.hpp"
#include "core/functional_attention.hpp"
#include "nn/tensor.hpp"
#include "workload/trace_gen.hpp"

namespace star::serve {

/// Default per-request seed; matches the closed-batch calls' default
/// `run_seed` so an unseeded request reproduces an unseeded solo batch.
inline constexpr std::uint64_t kDefaultRunSeed = 0x5EED;

/// Per-request observability: where the request landed and how long each
/// serving phase took. Wall-clock fields vary run to run; only the payload
/// is covered by the determinism contract.
struct RequestStats {
  std::uint64_t request_id = 0;  ///< admission order, unique per server
  std::uint64_t batch_id = 0;    ///< dispatch order of the formed batch
  std::size_t batch_size = 0;    ///< how many requests shared the batch
  double queue_wait_s = 0.0;     ///< admission -> dispatch
  double service_s = 0.0;        ///< dispatch -> completion (compute)

  // Cluster placement: which node (chip instance) served the request
  // (ServerOptions::node_id — 0 on a standalone server) and the modelled
  // front-end -> node round-trip transport bill the router charged
  // (hw::HostLink; 0 when the request was submitted to the node directly).
  // Transport, like residency, is ACCOUNTING-ONLY: it never delays or
  // alters the payload.
  std::uint32_t node = 0;
  double transport_us = 0.0;

  // What the request asked for (mixed-depth / mixed-shard traffic
  // attribution; 0 on request kinds without the knob, e.g. attention).
  std::int64_t num_layers = 0;
  std::int64_t num_shards = 0;

  // Length placement: every request kind has a sequence length (encoder:
  // input rows, attention: q rows, analytic: the seq_len field), and the
  // dynamic batcher buckets on it. `seq_len` is the request's EFFECTIVE
  // slot width; `padded_len` is what its batch slot was billed at (the
  // bucket edge, or the batch max under pad-to-max) — padding never
  // executes, so padded_len - seq_len is pure accounting waste. `bucket`
  // is the batcher queue the request coalesced in (the overflow queue is
  // the last index, and the only one under pad-to-max).
  std::int64_t seq_len = 0;
  std::int64_t padded_len = 0;
  std::size_t bucket = 0;

  // Device-residency accounting of THIS request (encoder requests only):
  // modelled programming time charged for images that were not resident,
  // and the hit/miss attribution behind it. Which request of a batch pays
  // a shared cold miss depends on dispatch interleaving — totals across a
  // trace are deterministic whenever the residency capacity is not
  // exceeded, per-request attribution is not.
  double programming_us = 0.0;
  std::uint64_t lut_hits = 0;
  std::uint64_t lut_misses = 0;
  std::uint64_t weight_hits = 0;
  std::uint64_t weight_misses = 0;
};

struct EncoderRequest {
  nn::Tensor input;  ///< seq_len x d_model embeddings
  std::uint64_t run_seed = kDefaultRunSeed;
  /// Chained encoder layers to run (multi-layer pipelined stack). Must be
  /// in [1, model.stack_depth()]; a violation resolves the future with
  /// InvalidArgument. Part of the determinism contract: the payload is a
  /// function of (input, run_seed, num_layers).
  std::int64_t num_layers = 1;
  /// Crossbar shards the request runs on. Must be in
  /// [1, model.config().num_shards] (the provisioned bound); a violation
  /// resolves the future with InvalidArgument. Sharding is
  /// payload-invariant (the inter-shard partial-sum merge is an exact
  /// integer reduce), so the payload stays a function of
  /// (input, run_seed, num_layers) for every admissible shard count.
  std::int64_t num_shards = 1;
  /// The dataset whose softmax CAM/LUT image must be resident (selects the
  /// operand QFormat: CNEWS/MRPC/CoLA, or kDefault = the model's configured
  /// format). ACCOUNTING-ONLY and payload-invariant by construction — the
  /// datapath always computes in the configured format; a non-resident
  /// image charges reprogramming cost into this request's RequestStats and
  /// the server's residency counters. The payload therefore remains a
  /// function of (input, run_seed, num_layers) under mixed-dataset traffic.
  workload::Dataset dataset = workload::Dataset::kDefault;
  /// Modelled front-end -> node transport bill, stamped by the cluster
  /// router before submission (serve::Cluster); leave 0 when submitting to
  /// a StarServer directly. Echoed into RequestStats.transport_us —
  /// accounting-only, payload-invariant.
  double transport_us = 0.0;
};

struct EncoderResponse {
  nn::Tensor output;
  RequestStats stats;
};

struct AttentionRequest {
  workload::QkvTriple qkv;
  std::uint64_t run_seed = kDefaultRunSeed;
  /// See EncoderRequest::transport_us.
  double transport_us = 0.0;
};

struct AttentionResponse {
  core::FunctionalAttentionResult result;
  RequestStats stats;
};

struct AnalyticRequest {
  std::int64_t seq_len = 0;
  /// The dataset whose softmax CAM/LUT image the analytic request needs
  /// resident (see EncoderRequest::dataset — same accounting-only
  /// semantics). A non-resident image charges its programming bill into
  /// the response's latency/energy (the EncoderRunResult composition
  /// convention) and RequestStats; the steady-state warm result is
  /// bit-identical to the pre-dataset analytic path and is served from the
  /// model's memoized CostCache. As with encoder programming charges,
  /// WHICH request of a concurrent burst pays a shared cold miss is
  /// interleaving-dependent; totals across a trace are deterministic.
  workload::Dataset dataset = workload::Dataset::kDefault;
  /// See EncoderRequest::transport_us.
  double transport_us = 0.0;
};

struct AnalyticResponse {
  core::AttentionRunResult result;
  RequestStats stats;
};

/// Base of every admission-control failure delivered through a future.
class AdmissionError : public std::runtime_error {
 public:
  explicit AdmissionError(const std::string& what) : std::runtime_error(what) {}
};

/// The bounded queue was full under AdmissionPolicy::kReject, or the
/// request arrived after shutdown().
class RejectedError : public AdmissionError {
 public:
  explicit RejectedError(const std::string& what) : AdmissionError(what) {}
};

/// This (oldest-pending) request was evicted to admit a newer one under
/// AdmissionPolicy::kShedOldest.
class ShedError : public AdmissionError {
 public:
  explicit ShedError(const std::string& what) : AdmissionError(what) {}
};

}  // namespace star::serve
