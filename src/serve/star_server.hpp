// Asynchronous serving front end over the batched STAR simulator.
//
// Callers submit INDIVIDUAL requests and get std::futures back; they never
// see a batch boundary. Inside, a StarServer is three cooperating pieces:
//
//   1. Admission: a bounded pending queue (`max_queue`) with a
//      backpressure policy — block the submitter, reject the newcomer, or
//      shed the oldest pending request to make room. Each admitted request
//      is ONE heap record (RequestRecord) that owns the request's promise
//      and its compute; run(ctx) computes, stamps and fulfils it, fail(e)
//      fulfils it with an exception (reject, shed, shutdown). Besides the
//      record, a submit allocates only the promise's shared state and
//      result slot, plus a queue chunk every 64 pushes.
//   2. Dynamic batcher: a dedicated thread that runs serve::BatchPolicy
//      (serve/batch_policy.hpp) on steady_clock time — the same rule the
//      virtual-time replay runs. A queue dispatches once it holds its
//      `max_batch`, once its head has aged `max_wait_ticks` ticks, on
//      shutdown, or under kBlock once the admission bound is reached. With
//      length-bucketed batching (BatcherPolicy::bucketing) each bucket is
//      its own queue with its own effective knobs; a formed batch never
//      mixes buckets and is billed at the bucket's padded length instead
//      of the batch max (see serve/length_buckets.hpp).
//   3. Dispatch in rounds: once one queue is dispatchable the batcher
//      forms a ROUND of up to sched.thread_count() batches, each from the
//      oldest-head queue dispatchable at the same instant; one queue may
//      supply several. Every batch keeps its own BatchContext (id, size,
//      dispatch stamp, padded length, bucket) and its own on_batch bill,
//      exactly as if it had been dispatched alone. The round runs as ONE
//      fork-join on the caller-supplied sim::BatchScheduler (request i
//      executes core::BatchEncoderSim::run_*_one with its own derived
//      seed), and the batcher waits for it: dispatch is stop-and-wait per
//      round. With a 1-thread scheduler a round is one batch — the same
//      loop.
//
// Determinism contract: a response payload depends ONLY on (request
// payload, request run_seed) — never on which batch or round the request
// landed in, the batcher policy, or the thread count. Each request
// executes with engine seed workload::sequence_seed(run_seed, 0), exactly
// the seed of index 0 of a closed batch seeded with run_seed, so server
// responses are bit-identical to solo closed-batch runs. Timing
// (RequestStats, ServerStats) is wall-clock and placement-dependent by
// design.
//
// Threading: submit()/drain()/stats() are safe from any thread. The
// scheduler passed in must not be used by anyone else while the server is
// live (BatchScheduler::run is single-caller; the batcher thread is that
// caller). Compute exceptions propagate through the request's own future
// and never affect batchmates or the server loop. Two mutexes guard the
// state, always taken in this order when both are held:
//
//   * mu_ (admission and dispatch): the policy (queues and admission ids),
//     the batch id counter, stopping_/batch_in_flight_, and the ServerStats
//     fields billed at admission or dispatch — submitted, admitted,
//     rejected, shed, batches, the occupancy and token ledger, and per
//     bucket its batches, occupancy and tokens.
//   * done_mu_ (completion): the fields billed when a request resolves —
//     completed, failed, the latency sums and reservoirs, the seq_len,
//     shape, residency and transport sums, and per bucket its requests and
//     queue-wait sum. Completions therefore never contend with submit()
//     or the batcher.
//
// stats() and stats_accumulator() take mu_ and then done_mu_, so every
// snapshot (and the cluster's fleet merge) sees one instant and the
// conservation contracts hold. A request's completion is recorded before
// its future is fulfilled, so a resolved future is already counted in
// stats().
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/batch_encoder.hpp"
#include "serve/batch_policy.hpp"
#include "serve/length_buckets.hpp"
#include "serve/request.hpp"
#include "serve/server_stats.hpp"
#include "sim/batch_scheduler.hpp"

namespace star::serve {

/// What to do with a submit() when the pending queue is full.
enum class AdmissionPolicy {
  kBlock,      ///< block the submitter until the batcher frees space
  kReject,     ///< fail the NEW request's future with RejectedError
  kShedOldest  ///< fail the OLDEST pending future with ShedError, admit new
};

/// The (max batch, max wait) coalescing policy of the dynamic batcher.
struct BatcherPolicy {
  /// Dispatch as soon as this many requests are pending (also the cap on
  /// formed-batch size).
  std::size_t max_batch = 8;
  /// Dispatch a partial batch once the oldest pending request has waited
  /// this many ticks. 0 dispatches whatever is pending immediately
  /// (latency-optimal, occupancy-pessimal).
  std::uint32_t max_wait_ticks = 4;
  /// Duration of one tick.
  std::chrono::microseconds tick{100};
  /// The length dimension: pad-to-max (default: no buckets, one queue) or
  /// length-bucketed (one queue per bucket + overflow, each with its own
  /// effective (max_batch, max_wait_ticks); batches never mix buckets).
  /// Bucketing is scheduling/accounting-only — payloads are bit-identical
  /// across every bucket-edge choice.
  LengthBucketing bucketing{};
};

struct ServerOptions {
  std::size_t max_queue = 64;  ///< pending-queue bound (admission control)
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  BatcherPolicy batcher{};
  /// Which cluster node this server is (stamped into every
  /// RequestStats.node). 0 for a standalone server; serve::Cluster numbers
  /// its nodes 0..N-1.
  std::uint32_t node_id = 0;
};

class StarServer {
 public:
  /// The model and scheduler must outlive the server; the scheduler must
  /// not be driven concurrently by other callers while the server is live.
  StarServer(const core::BatchEncoderSim& model, sim::BatchScheduler& sched,
             ServerOptions opts = {});
  ~StarServer();  ///< shutdown(): every admitted future resolves first

  StarServer(const StarServer&) = delete;
  StarServer& operator=(const StarServer&) = delete;

  /// Admit one request; the future resolves to the response (or to the
  /// compute/admission exception). Never throws on the submit path itself —
  /// admission failures travel through the future too, so open-loop
  /// drivers need no try/catch. An analytic seq_len outside
  /// [2, model().config().max_seq_len] is refused before admission
  /// (InvalidArgument through the future, counted as rejected).
  [[nodiscard]] std::future<EncoderResponse> submit(EncoderRequest req);
  [[nodiscard]] std::future<AttentionResponse> submit(AttentionRequest req);
  [[nodiscard]] std::future<AnalyticResponse> submit(AnalyticRequest req);

  /// Block until every admitted request has resolved (queue empty and no
  /// batch in flight). New submissions during a drain() may extend it.
  void drain();

  /// Stop admitting, dispatch everything still pending, join the batcher.
  /// Idempotent; called by the destructor. Post-shutdown submits are
  /// rejected (RejectedError) regardless of policy.
  void shutdown();

  [[nodiscard]] ServerStats stats() const;
  /// Locked copy of the raw accumulator — what the cluster merges into its
  /// fleet view (StatsAccumulator::merge), not just the snapshot.
  [[nodiscard]] StatsAccumulator stats_accumulator() const;
  /// Queued, not yet dispatched. Requests of the round in flight are not
  /// counted: with a multi-thread scheduler that is up to
  /// thread_count() x max_batch requests.
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] const ServerOptions& options() const { return opts_; }
  [[nodiscard]] const core::BatchEncoderSim& model() const { return model_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Dispatch-time facts shared by every request of one formed batch.
  struct BatchContext {
    std::uint64_t batch_id = 0;
    std::size_t batch_size = 0;
    Clock::time_point dispatched{};
    std::int64_t padded_len = 0;  ///< billed slot width of this batch
    std::size_t bucket = 0;       ///< queue the batch was formed from
  };

  /// One admitted request, type-erased over its response type: the one
  /// heap record a submit() makes for it (the promise allocates its own
  /// shared state). The typed record owns the promise and the compute; `run`
  /// computes, stamps RequestStats, records the completion and fulfils the
  /// future, `fail` fulfils it with an exception without running
  /// (reject/shed/shutdown). The fields below are what the batching policy
  /// reads; it stamps `id` at admission.
  struct RequestRecord {
    RequestRecord() = default;
    RequestRecord(const RequestRecord&) = delete;
    RequestRecord& operator=(const RequestRecord&) = delete;
    virtual ~RequestRecord() = default;
    virtual void run(const BatchContext& ctx) = 0;
    virtual void fail(std::exception_ptr e) = 0;

    std::uint64_t id = 0;  ///< admission order
    std::int64_t seq_len = 0;
    double transport_us = 0.0;
    Clock::time_point enqueued{};  ///< admission stamp (age-out + queue wait)
  };
  using RecordPtr = std::unique_ptr<RequestRecord>;
  using Policy = BatchPolicy<RecordPtr, Clock::time_point>;
  template <typename Response, typename Compute>
  class Record;

  /// One request of a formed round and the batch (index into the round's
  /// contexts) it was formed into.
  struct RoundSlot {
    RecordPtr record;
    std::size_t batch = 0;
  };

  template <typename Response, typename Compute>
  std::future<Response> submit_impl(std::int64_t seq_len, double transport_us,
                                    Compute compute);
  void batcher_loop();
  /// Stamp the placement and timing facts of `rec` into `rs` and record
  /// its completion; shared by a record's success and failure branches.
  void settle(const RequestRecord& rec, const BatchContext& ctx,
              Clock::time_point started, RequestStats& rs, bool ok);
  /// Every non-empty queue dispatches on shutdown, and under kBlock once
  /// the admission bound stalls submitters (no size trigger fires when
  /// max_batch > max_queue); under kReject/kShedOldest a full queue is the
  /// admission policy's domain.
  [[nodiscard]] bool force_locked() const;

  const core::BatchEncoderSim& model_;
  sim::BatchScheduler& sched_;
  const ServerOptions opts_;

  mutable std::mutex mu_;       ///< admission + dispatch (see file comment)
  mutable std::mutex done_mu_;  ///< completion accounting; after mu_
  std::condition_variable batcher_cv_;  ///< work arrived / shutdown
  std::condition_variable space_cv_;    ///< queue space freed (kBlock)
  std::condition_variable idle_cv_;     ///< fully drained (drain())
  bool stopping_ = false;
  bool batch_in_flight_ = false;
  std::uint64_t next_batch_id_ = 0;
  /// Split by writer: on_done under done_mu_, every other call under mu_
  /// (the two touch disjoint fields; see StatsAccumulator).
  StatsAccumulator stats_;
  /// The per-bucket queues and the batching rule; the admission bound
  /// `max_queue` applies to its total size. Bills stats_ (declared first).
  Policy policy_;

  std::mutex join_mu_;   ///< serialises shutdown()'s join
  std::thread batcher_;  ///< last member: starts after all state exists
};

}  // namespace star::serve
