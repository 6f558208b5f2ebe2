#include "serve/star_server.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/contract.hpp"
#include "util/status.hpp"

namespace star::serve {

StarServer::StarServer(const core::BatchEncoderSim& model,
                       sim::BatchScheduler& sched, ServerOptions opts)
    : model_(model), sched_(sched), opts_(opts) {
  require(opts_.max_queue >= 1, "StarServer: max_queue must be >= 1");
  require(opts_.batcher.max_batch >= 1, "StarServer: max_batch must be >= 1");
  require(opts_.batcher.tick.count() >= 0,
          "StarServer: tick duration must be non-negative");
  opts_.batcher.bucketing.validate();
  const std::size_t num_queues = opts_.batcher.bucketing.num_queues();
  queues_.resize(num_queues);
  std::vector<std::int64_t> edges;
  edges.reserve(num_queues);
  for (std::size_t q = 0; q < num_queues; ++q) {
    edges.push_back(opts_.batcher.bucketing.edge_of(q));
  }
  stats_.configure_buckets(std::move(edges));
  batcher_ = std::thread([this] { batcher_loop(); });
}

StarServer::~StarServer() { shutdown(); }

std::size_t StarServer::pending_locked() const {
  std::size_t total = 0;
  for (const auto& q : queues_) {
    total += q.size();
  }
  return total;
}

std::size_t StarServer::oldest_head_locked() const {
  std::size_t best = queues_.size();
  std::uint64_t best_id = 0;
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    if (queues_[q].empty()) {
      continue;
    }
    // Admission ids are strictly increasing, so the smallest head id is
    // the globally oldest pending request.
    if (best == queues_.size() || queues_[q].front()->id < best_id) {
      best = q;
      best_id = queues_[q].front()->id;
    }
  }
  return best;
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
    if (!stopping_ && pending_locked() >= opts_.max_queue) {
      switch (opts_.admission) {
        case AdmissionPolicy::kBlock:
          space_cv_.wait(lk, [&] {
            return stopping_ || pending_locked() < opts_.max_queue;
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
          const std::size_t victim_q = oldest_head_locked();
          victim = std::move(queues_[victim_q].front());
          queues_[victim_q].pop_front();
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
    record->id = next_request_id_++;
    stats_.on_admitted();
    queues_[opts_.batcher.bucketing.bucket_of(seq_len)].push_back(std::move(record));
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

std::size_t StarServer::ready_queue_locked(Clock::time_point now,
                                           Clock::time_point* next_deadline) const {
  // A queue is dispatchable once it holds its effective max_batch, once
  // its head ages out past its effective max_wait window, or on shutdown.
  // Under kBlock a full ADMISSION queue (total across buckets) also
  // dispatches — submitters are stalled and no size trigger may ever fire
  // when max_batch > max_queue. Under kReject/kShedOldest a full queue is
  // the admission policy's domain, so the per-queue (max_batch, max_wait)
  // policy is honoured strictly. Deadlines are derived from the CURRENT
  // heads: kShedOldest may evict a head mid-wait, and the replacement is
  // owed its own full age-out window. Among several dispatchable queues
  // the one whose head waited longest wins (FIFO fairness across buckets).
  const LengthBucketing& bucketing = opts_.batcher.bucketing;
  const bool admission_full = opts_.admission == AdmissionPolicy::kBlock &&
                              pending_locked() >= opts_.max_queue;
  std::size_t best = queues_.size();
  Clock::time_point earliest = Clock::time_point::max();
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    const std::deque<RecordPtr>& queue = queues_[q];
    if (queue.empty()) {
      continue;
    }
    const auto deadline =
        queue.front()->enqueued +
        opts_.batcher.tick * bucketing.max_wait_for(q, opts_.batcher.max_wait_ticks);
    const bool ready = stopping_ || admission_full ||
                       queue.size() >= bucketing.max_batch_for(q, opts_.batcher.max_batch) ||
                       now >= deadline;
    if (ready) {
      if (best == queues_.size() || queue.front()->id < queues_[best].front()->id) {
        best = q;
      }
    } else {
      earliest = std::min(earliest, deadline);
    }
  }
  if (next_deadline != nullptr) {
    *next_deadline = earliest;
  }
  return best;
}

void StarServer::form_batch_locked(std::size_t q, std::vector<RoundSlot>& round,
                                   std::vector<BatchContext>& batches) {
  const LengthBucketing& bucketing = opts_.batcher.bucketing;
  std::deque<RecordPtr>& queue = queues_[q];
  const std::size_t max_batch = bucketing.max_batch_for(q, opts_.batcher.max_batch);
  const std::size_t take = std::min(queue.size(), max_batch);
  std::int64_t batch_max_len = 0;
  std::int64_t effective = 0;
  for (std::size_t i = 0; i < take; ++i) {
    batch_max_len = std::max(batch_max_len, queue.front()->seq_len);
    effective += queue.front()->seq_len;
    round.push_back(RoundSlot{std::move(queue.front()), batches.size()});
    queue.pop_front();
  }
  const std::int64_t padded_len = bucketing.padded_len(q, batch_max_len);
  // The billed slot width covers every member (LengthBucketing routes a
  // request only to a bucket whose edge fits it), so the token ledger's
  // effective <= padded holds per batch by construction.
  STAR_CONTRACT(padded_len >= batch_max_len,
                "batcher: billed slot width below the batch's longest member");
  batches.push_back(BatchContext{next_batch_id_++, take, Clock::now(), padded_len, q});
  // Token accounting: `take * padded_len` billed slots holding `effective`
  // real tokens, out of a bucket capacity of max_batch rows at the same
  // padded width. Padded slots never execute — they exist only in this
  // accounting.
  stats_.on_batch(take, q, static_cast<std::uint64_t>(effective),
                  static_cast<std::uint64_t>(take) * static_cast<std::uint64_t>(padded_len),
                  static_cast<std::uint64_t>(max_batch) *
                      static_cast<std::uint64_t>(padded_len));
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
    batcher_cv_.wait(lk, [&] { return stopping_ || pending_locked() > 0; });
    if (pending_locked() == 0) {
      if (stopping_) {
        return;
      }
      continue;
    }
    // Sleep until some queue is dispatchable: a queue filling up, the
    // kBlock bound or shutdown wakes the wait early; otherwise it ends at
    // the earliest head deadline.
    auto now = Clock::now();
    Clock::time_point deadline{};
    std::size_t q = ready_queue_locked(now, &deadline);
    while (q == queues_.size() && deadline != Clock::time_point::max()) {
      // At time_point::min() no head has aged out, so the predicate sees
      // only the size, kBlock and shutdown triggers; age-outs end the wait
      // at its deadline.
      batcher_cv_.wait_until(lk, deadline, [&] {
        return ready_queue_locked(Clock::time_point::min(), nullptr) != queues_.size();
      });
      now = Clock::now();
      q = ready_queue_locked(now, &deadline);
    }
    if (q == queues_.size()) {
      continue;  // queues drained while waiting (shed) — re-wait for work
    }
    // One round: this batch, then whatever else is dispatchable at the
    // same instant, up to one batch per scheduler thread.
    do {
      form_batch_locked(q, round, batches);
      q = batches.size() < round_batches ? ready_queue_locked(now, nullptr)
                                         : queues_.size();
    } while (q != queues_.size());
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
    if (pending_locked() == 0) {
      idle_cv_.notify_all();
    }
  }
}

void StarServer::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [&] { return pending_locked() == 0 && !batch_in_flight_; });
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
  // Overlay the model's analytic cost-cache ledger (internally
  // synchronized; model-lifetime counters — see the ServerStats field
  // docs). Audited here so every stats() poll re-proves conservation.
  const core::CostCacheStats cc = model_.cost_cache().stats();
  core::audit_cost_ledger(cc);
  s.cost_cache_lookups = cc.lookups;
  s.cost_cache_hits = cc.hits;
  s.cost_cache_misses = cc.misses;
  s.cost_cache_bypasses = cc.bypasses;
  s.cost_cache_hit_rate = cc.hit_rate();
  return s;
}

std::size_t StarServer::pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pending_locked();
}

}  // namespace star::serve
