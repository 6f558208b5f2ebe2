#include "serve/star_server.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace star::serve {

namespace {

ServerOptions validated(ServerOptions opts) {
  require(opts.max_queue >= 1, "StarServer: max_queue must be >= 1");
  require(opts.batcher.max_batch >= 1, "StarServer: max_batch must be >= 1");
  require(opts.batcher.tick.count() >= 0,
          "StarServer: tick duration must be non-negative");
  opts.batcher.bucketing.validate();
  // tick * a queue's effective max_wait (in steady_clock units) may take
  // half the clock's range; the admission time it is added to keeps the rest.
  std::uint32_t longest_wait = 1;
  for (std::size_t q = 0; q < opts.batcher.bucketing.num_queues(); ++q) {
    longest_wait = std::max(longest_wait, opts.batcher.bucketing.max_wait_for(
                                              q, opts.batcher.max_wait_ticks));
  }
  constexpr auto kHalfRange = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::duration::max() / 2);
  require(opts.batcher.tick <= kHalfRange / longest_wait,
          "StarServer: tick * max_wait_ticks exceeds half the steady_clock range");
  return opts;
}

}  // namespace

StarServer::StarServer(const core::BatchEncoderSim& model,
                       sim::BatchScheduler& sched, ServerOptions opts)
    : model_(model),
      sched_(sched),
      opts_(validated(std::move(opts))),
      policy_(opts_.batcher.bucketing, opts_.batcher.max_batch,
              opts_.batcher.max_wait_ticks, opts_.batcher.tick, stats_),
      batcher_([this] { batcher_loop(); }) {}

StarServer::~StarServer() { shutdown(); }

bool StarServer::force_locked() const {
  return stopping_ || (opts_.admission == AdmissionPolicy::kBlock &&
                       policy_.size() >= opts_.max_queue);
}

template <typename Response, typename Compute>
class StarServer::Record final : public StarServer::RequestRecord {
 public:
  Record(StarServer& server, Compute compute)
      : server_(server), compute_(std::move(compute)) {}

  std::future<Response> future() { return promise_.get_future(); }

  void run(const BatchContext& ctx) override {
    const auto started = Clock::now();
    try {
      // compute() pre-fills the request-shape and residency fields of
      // resp.stats; settle() stamps the placement/timing facts.
      Response resp = compute_();
      server_.settle(*this, ctx, started, resp.stats, /*ok=*/true);
      promise_.set_value(std::move(resp));
    } catch (...) {
      RequestStats failed;
      server_.settle(*this, ctx, started, failed, /*ok=*/false);
      promise_.set_exception(std::current_exception());
    }
  }

  void fail(std::exception_ptr e) override { promise_.set_exception(std::move(e)); }

 private:
  StarServer& server_;
  std::promise<Response> promise_;
  Compute compute_;
};

template <typename Response, typename Compute>
std::future<Response> StarServer::submit_impl(std::int64_t seq_len,
                                              double transport_us,
                                              Compute compute) {
  auto record = std::make_unique<Record<Response, Compute>>(*this, std::move(compute));
  std::future<Response> fut = record->future();
  record->seq_len = seq_len;
  record->transport_us = transport_us;
  record->enqueued = Clock::now();

  RecordPtr victim;  // shed target; its future is failed outside the lock
  {
    std::unique_lock<std::mutex> lk(mu_);
    stats_.on_submitted();
    if (!stopping_ && policy_.size() >= opts_.max_queue) {
      switch (opts_.admission) {
        case AdmissionPolicy::kBlock:
          space_cv_.wait(lk, [&] {
            return stopping_ || policy_.size() < opts_.max_queue;
          });
          // Re-stamp: queue_wait measures admission -> dispatch (not the
          // submitter's blocked time) and the batcher's age-out window
          // starts at admission, not at the original submit call.
          record->enqueued = Clock::now();
          break;
        case AdmissionPolicy::kReject:
          stats_.on_rejected();
          lk.unlock();
          record->fail(std::make_exception_ptr(RejectedError(
              "StarServer: admission queue full (max_queue=" +
              std::to_string(opts_.max_queue) + ", policy=reject)")));
          return fut;
        case AdmissionPolicy::kShedOldest: {
          // Shed the GLOBALLY oldest pending request, whatever bucket it
          // waits in — admission control is a server-wide property.
          victim = policy_.evict();
          stats_.on_shed();
          break;
        }
      }
    }
    if (stopping_) {
      stats_.on_rejected();
      lk.unlock();
      if (victim) {
        // Unreachable in practice (shed only happens pre-stop), but never
        // leave a popped request's future unresolved.
        victim->fail(std::make_exception_ptr(
            RejectedError("StarServer: shut down while pending")));
      }
      record->fail(std::make_exception_ptr(
          RejectedError("StarServer: submit after shutdown")));
      return fut;
    }
    stats_.on_admitted();
    policy_.admit(std::move(record));
    batcher_cv_.notify_one();
  }
  if (victim) {
    victim->fail(std::make_exception_ptr(ShedError(
        "StarServer: request shed by a newer arrival (policy=shed-oldest)")));
  }
  return fut;
}

void StarServer::settle(const RequestRecord& rec, const BatchContext& ctx,
                        Clock::time_point started, RequestStats& rs, bool ok) {
  rs.request_id = rec.id;
  rs.batch_id = ctx.batch_id;
  rs.batch_size = ctx.batch_size;
  rs.queue_wait_s = std::chrono::duration<double>(ctx.dispatched - rec.enqueued).count();
  rs.service_s = std::chrono::duration<double>(Clock::now() - started).count();
  rs.seq_len = rec.seq_len;
  rs.padded_len = ctx.padded_len;
  rs.bucket = ctx.bucket;
  rs.node = opts_.node_id;
  rs.transport_us = rec.transport_us;
  std::lock_guard<std::mutex> lk(done_mu_);
  stats_.on_done(rs, ok);
}

std::future<EncoderResponse> StarServer::submit(EncoderRequest req) {
  const auto seq_len = static_cast<std::int64_t>(req.input.rows());
  const double transport_us = req.transport_us;
  return submit_impl<EncoderResponse>(seq_len, transport_us,
                                      [this, req = std::move(req)] {
    EncoderResponse resp;
    core::ResidencyCharge charge;
    resp.output = model_.run_encoder_one(req.input,
                                         workload::sequence_seed(req.run_seed, 0),
                                         req.num_layers, req.num_shards,
                                         req.dataset, &charge);
    resp.stats.num_layers = req.num_layers;
    resp.stats.num_shards = req.num_shards;
    resp.stats.programming_us = charge.programming.latency.as_us();
    resp.stats.lut_hits = charge.lut_hits;
    resp.stats.lut_misses = charge.lut_misses;
    resp.stats.weight_hits = charge.weight_hits;
    resp.stats.weight_misses = charge.weight_misses;
    return resp;
  });
}

std::future<AttentionResponse> StarServer::submit(AttentionRequest req) {
  const auto seq_len = static_cast<std::int64_t>(req.qkv.q.rows());
  const double transport_us = req.transport_us;
  return submit_impl<AttentionResponse>(seq_len, transport_us,
                                        [this, req = std::move(req)] {
    AttentionResponse resp;
    resp.result = model_.run_attention_one(
        req.qkv, workload::sequence_seed(req.run_seed, 0));
    return resp;
  });
}

std::future<AnalyticResponse> StarServer::submit(AnalyticRequest req) {
  if (req.seq_len < 2 || req.seq_len > model_.config().max_seq_len) {
    // Refused before admission, like run_analytic_one's own check: the
    // length never reaches a queue, a batch's padded length or the token
    // ledger, and the model never sees it.
    {
      std::lock_guard<std::mutex> lk(mu_);
      stats_.on_submitted();
      stats_.on_rejected();
    }
    std::promise<AnalyticResponse> refused;
    refused.set_exception(std::make_exception_ptr(InvalidArgument(
        "StarServer: analytic seq_len " + std::to_string(req.seq_len) +
        " outside [2, max_seq_len=" +
        std::to_string(model_.config().max_seq_len) + "]")));
    return refused.get_future();
  }
  return submit_impl<AnalyticResponse>(req.seq_len, req.transport_us,
                                       [this, req] {
    AnalyticResponse resp;
    core::ResidencyCharge charge;
    resp.result = model_.run_analytic_one(req.seq_len, req.dataset, &charge);
    resp.stats.programming_us = charge.programming.latency.as_us();
    resp.stats.lut_hits = charge.lut_hits;
    resp.stats.lut_misses = charge.lut_misses;
    return resp;
  });
}

void StarServer::batcher_loop() {
  const auto round_batches = static_cast<std::size_t>(sched_.thread_count());
  // Reused across rounds (cleared, capacity kept): forming a round on the
  // steady-state path allocates nothing once capacity reaches the largest
  // round.
  std::vector<RoundSlot> round;
  std::vector<BatchContext> batches;
  batches.reserve(round_batches);
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    batcher_cv_.wait(lk, [&] { return stopping_ || !policy_.empty(); });
    if (policy_.empty()) {
      return;  // stopping, nothing left
    }
    // Sleep until some queue is dispatchable: a queue filling up, the
    // kBlock bound or shutdown wakes the wait early; otherwise it ends at
    // the earliest head deadline.
    auto now = Clock::now();
    Policy::Next due = policy_.next(now, force_locked());
    while (due.queue == Policy::kNone && due.deadline) {
      // At time_point::min() no head has aged out, so the predicate sees
      // only the size, kBlock and shutdown triggers; age-outs end the wait
      // at its deadline.
      batcher_cv_.wait_until(lk, *due.deadline, [&] {
        return policy_.next(Clock::time_point::min(), force_locked()).queue !=
               Policy::kNone;
      });
      now = Clock::now();
      due = policy_.next(now, force_locked());
    }
    if (due.queue == Policy::kNone) {
      continue;  // queues drained while waiting (shed) — re-wait for work
    }
    // One round: this batch, then whatever else is dispatchable at the
    // same instant, up to one batch per scheduler thread.
    do {
      const Policy::Formed formed = policy_.form(due.queue, [&](RecordPtr record) {
        round.push_back(RoundSlot{std::move(record), batches.size()});
      });
      batches.push_back(BatchContext{next_batch_id_++, formed.size, Clock::now(),
                                     formed.padded_len, due.queue});
      due = batches.size() < round_batches ? policy_.next(now, force_locked())
                                           : Policy::Next{};
    } while (due.queue != Policy::kNone);
    batch_in_flight_ = true;
    space_cv_.notify_all();
    lk.unlock();
    // Records run, fulfil and free themselves on the workers. Jobs catch
    // their own exceptions (into their futures), so the scheduler never
    // rethrows into the serving loop.
    sched_.run(round.size(), [&](std::size_t i) {
      const RecordPtr record = std::move(round[i].record);
      record->run(batches[round[i].batch]);
    });
    round.clear();
    batches.clear();
    lk.lock();
    batch_in_flight_ = false;
    if (policy_.empty()) {
      idle_cv_.notify_all();
    }
  }
}

void StarServer::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [&] { return policy_.empty() && !batch_in_flight_; });
}

void StarServer::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  batcher_cv_.notify_all();
  space_cv_.notify_all();
  {
    // Serialise concurrent shutdown() calls around the join.
    std::lock_guard<std::mutex> jl(join_mu_);
    if (batcher_.joinable()) {
      batcher_.join();
    }
  }
}

StatsAccumulator StarServer::stats_accumulator() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::lock_guard<std::mutex> done(done_mu_);
  return stats_;
}

ServerStats StarServer::stats() const {
  // Copy the accumulator under the lock; the percentile selects over the
  // latency reservoirs run after release so a polling monitor never stalls
  // submit(), completions or the batcher for two O(n) nth_elements.
  StatsAccumulator copy;
  {
    std::lock_guard<std::mutex> lk(mu_);
    std::lock_guard<std::mutex> done(done_mu_);
    copy = stats_;
  }
  ServerStats s = copy.snapshot();
  // The model's analytic cost-cache ledger (internally synchronized;
  // model-lifetime counters), audited so every poll re-proves conservation.
  overlay_cost_cache(s, model_.cost_cache().stats());
  return s;
}

std::size_t StarServer::pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return policy_.size();
}

}  // namespace star::serve
