// Length-bucketed dynamic batching: the padding-equivalence and soak suite.
//
// The load-bearing property is that bucketing is SCHEDULING/ACCOUNTING-ONLY:
// a response payload is bit-identical to a solo closed-batch run of the
// same (input, run_seed) under EVERY batching policy x bucket-edge choice x
// thread count, with or without fault-injection streams riding along —
// padded slots never execute. On top of that: the conservation laws (every
// admitted request is served exactly once; per-bucket sums equal totals),
// deterministic token accounting under full-batch formation, the
// batching rule itself in virtual time (serve/batch_policy.hpp), the
// virtual-time replay (serve/batch_sim.hpp) against its golden figures,
// and a bounded multi-threaded soak that the CI TSan job runs
// race-detection over.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_encoder.hpp"
#include "serve/batch_policy.hpp"
#include "serve/batch_sim.hpp"
#include "serve/length_buckets.hpp"
#include "serve/request.hpp"
#include "serve/server_stats.hpp"
#include "serve/star_server.hpp"
#include "sim/batch_scheduler.hpp"
#include "util/status.hpp"
#include "workload/arrival_trace.hpp"
#include "workload/dataset_profile.hpp"
#include "workload/trace_gen.hpp"

namespace star {
namespace {

core::StarConfig tiny_cfg() {
  core::StarConfig cfg;
  cfg.max_seq_len = 128;
  return cfg;
}

const nn::BertConfig kBert = nn::BertConfig::tiny();

const core::BatchEncoderSim& shared_model() {
  static const core::BatchEncoderSim model(tiny_cfg(), kBert);
  return model;
}

/// One embedding of `seq_len` tokens (variable-length test traffic).
nn::Tensor input_of_len(std::size_t seq_len, std::uint64_t seed) {
  return workload::embedding_batch(
      1, seq_len, static_cast<std::size_t>(kBert.d_model), 1.0, seed)[0];
}

nn::Tensor solo_reference(const core::BatchEncoderSim& model,
                          const nn::Tensor& input, std::uint64_t run_seed) {
  // The serving seed rule: a solo run is batch index 0 of run_seed.
  return model.run_encoder_one(input, workload::sequence_seed(run_seed, 0));
}

/// How long a test waits for one future. Far above any batch's service
/// time here and far below ctest's 120 s limit: the cases whose batches
/// never age out (max_wait_ticks 1000000, 100 s at the default tick) then
/// fail in seconds, naming the request, when the batcher stops
/// dispatching, instead of stalling until the timeout.
constexpr std::chrono::seconds kResolveBound{10};

template <typename T>
T resolved(std::future<T>& fut, const std::string& what) {
  if (fut.wait_for(kResolveBound) != std::future_status::ready) {
    throw std::runtime_error(what + " did not resolve within " +
                             std::to_string(kResolveBound.count()) + " s");
  }
  return fut.get();
}

/// A deliberately varied length mix spanning several buckets of the edge
/// lists used below (all within tiny_cfg()'s max_seq_len).
std::vector<std::size_t> mixed_lengths(std::size_t n) {
  static const std::size_t kLens[] = {4, 10, 16, 24, 40, 64, 96, 7, 33, 12};
  std::vector<std::size_t> lens(n);
  for (std::size_t i = 0; i < n; ++i) {
    lens[i] = kLens[i % (sizeof(kLens) / sizeof(kLens[0]))];
  }
  return lens;
}

// ---------- LengthBucketing configuration ----------

TEST(LengthBucketing, PadToMaxIsSingleBatchMaxQueue) {
  const auto b = serve::LengthBucketing::pad_to_max();
  EXPECT_EQ(b.num_queues(), 1u);
  EXPECT_EQ(b.bucket_of(2), 0u);
  EXPECT_EQ(b.bucket_of(1 << 20), 0u);
  EXPECT_TRUE(b.pads_to_batch_max(0));
  EXPECT_EQ(b.padded_len(0, 37), 37);
  EXPECT_EQ(b.edge_of(0), 0);
}

TEST(LengthBucketing, BucketedQueueLayoutAndRouting) {
  const auto b = serve::LengthBucketing::bucketed({16, 32, 64});
  EXPECT_EQ(b.num_queues(), 4u);  // 3 buckets + overflow
  EXPECT_EQ(b.bucket_of(2), 0u);
  EXPECT_EQ(b.bucket_of(16), 0u);  // edges are inclusive upper bounds
  EXPECT_EQ(b.bucket_of(17), 1u);
  EXPECT_EQ(b.bucket_of(32), 1u);
  EXPECT_EQ(b.bucket_of(64), 2u);
  EXPECT_EQ(b.bucket_of(65), 3u);  // overflow
  EXPECT_FALSE(b.pads_to_batch_max(0));
  EXPECT_TRUE(b.pads_to_batch_max(3));
  EXPECT_EQ(b.padded_len(1, 20), 32);  // bucket edge, not batch max
  EXPECT_EQ(b.padded_len(3, 100), 100);  // overflow pads to batch max
  EXPECT_EQ(b.edge_of(2), 64);
  EXPECT_EQ(b.edge_of(3), 0);
}

TEST(LengthBucketing, ValidateRejectsMalformedEdges) {
  serve::LengthBucketing undersized;
  undersized.buckets.push_back(serve::LengthBucket{1});
  EXPECT_THROW(undersized.validate(), InvalidArgument);
  EXPECT_THROW(serve::LengthBucketing::bucketed({16, 16}), InvalidArgument);
  EXPECT_THROW(serve::LengthBucketing::bucketed({32, 16}), InvalidArgument);
  serve::LengthBucketing bad_wait;
  bad_wait.buckets.push_back(serve::LengthBucket{16, 0, -2});
  EXPECT_THROW(bad_wait.validate(), InvalidArgument);
  // A window past the uint32 tick count would wrap (2^32 reads as 0).
  bad_wait.buckets.back().max_wait_ticks = std::int64_t{1} << 32;
  EXPECT_THROW(bad_wait.validate(), InvalidArgument);
  bad_wait.buckets.back().max_wait_ticks = (std::int64_t{1} << 32) - 1;
  EXPECT_NO_THROW(bad_wait.validate());
}

TEST(LengthBucketing, PerBucketKnobsInheritGlobalsViaSentinels) {
  auto b = serve::LengthBucketing::bucketed({16, 64});
  b.buckets[0].max_batch = 2;       // override
  b.buckets[0].max_wait_ticks = 0;  // override
  // bucket 1 keeps the sentinels (0 / -1): inherits the globals.
  EXPECT_EQ(b.max_batch_for(0, 8), 2u);
  EXPECT_EQ(b.max_wait_for(0, 7), 0u);
  EXPECT_EQ(b.max_batch_for(1, 8), 8u);
  EXPECT_EQ(b.max_wait_for(1, 7), 7u);
  // Overflow and pad-to-max queues always use the globals.
  EXPECT_EQ(b.max_batch_for(2, 8), 8u);
  EXPECT_EQ(serve::LengthBucketing::pad_to_max().max_batch_for(0, 5), 5u);
}

// ---------- StatsAccumulator token accounting ----------

TEST(LengthBucketingStats, OccupancySplitArithmetic) {
  serve::StatsAccumulator acc;
  // Batch 1: 2 requests padded to 32 (effective 20+30=50), capacity 4x32.
  // Batch 2: 4 requests padded to 16 (effective 10+10+16+4=40), cap 4x16.
  acc.on_batch(2, 0, 50, 2 * 32, 4 * 32);
  acc.on_batch(4, 0, 40, 4 * 16, 4 * 16);
  const auto s = acc.snapshot();
  EXPECT_EQ(s.effective_tokens, 90u);
  EXPECT_EQ(s.padded_tokens, 128u);
  EXPECT_EQ(s.capacity_tokens, 192u);
  EXPECT_DOUBLE_EQ(s.padded_occupancy, 128.0 / 192.0);
  EXPECT_DOUBLE_EQ(s.effective_occupancy, 90.0 / 192.0);
  EXPECT_DOUBLE_EQ(s.padding_waste, 1.0 - 90.0 / 128.0);
  EXPECT_LE(s.effective_occupancy, s.padded_occupancy);
}

TEST(LengthBucketingStats, FixedLengthTrafficHasZeroWaste) {
  serve::StatsAccumulator acc;
  for (int i = 0; i < 10; ++i) {
    acc.on_batch(3, 0, 3 * 48, 3 * 48, 8 * 48);  // effective == padded
  }
  const auto s = acc.snapshot();
  EXPECT_DOUBLE_EQ(s.padding_waste, 0.0);
  EXPECT_DOUBLE_EQ(s.effective_occupancy, s.padded_occupancy);
}

TEST(LengthBucketingStats, PerBucketSumsEqualTotals) {
  serve::StatsAccumulator acc;
  acc.configure_buckets({16, 64, 0});
  acc.on_batch(2, 0, 20, 32, 64);
  acc.on_batch(3, 1, 100, 192, 512);
  acc.on_batch(1, 2, 90, 90, 720);
  serve::RequestStats rs;
  rs.seq_len = 10;
  for (std::size_t q = 0; q < 3; ++q) {
    // Keep the admission ledger balanced: the Debug-build STAR_CONTRACT
    // audit in snapshot() rejects resolutions that were never admitted.
    acc.on_submitted();
    acc.on_admitted();
    rs.bucket = q;
    acc.on_done(rs, true);
  }
  const auto s = acc.snapshot();
  ASSERT_EQ(s.per_bucket.size(), 3u);
  std::uint64_t eff = 0, padded = 0, batches = 0, requests = 0;
  for (const auto& b : s.per_bucket) {
    eff += b.effective_tokens;
    padded += b.padded_tokens;
    batches += b.batches;
    requests += b.requests;
  }
  EXPECT_EQ(eff, s.effective_tokens);
  EXPECT_EQ(padded, s.padded_tokens);
  EXPECT_EQ(batches, s.batches);
  EXPECT_EQ(requests, s.completed + s.failed);
  EXPECT_EQ(s.per_bucket[0].edge, 16);
  EXPECT_EQ(s.per_bucket[2].edge, 0);
}

TEST(LengthBucketingStats, OutOfLayoutBucketFoldsIntoLastSlot) {
  serve::StatsAccumulator acc;
  acc.configure_buckets({16, 0});
  acc.on_batch(1, 7, 10, 10, 80);  // bucket 7 was never configured
  const auto s = acc.snapshot();
  ASSERT_EQ(s.per_bucket.size(), 2u);
  EXPECT_EQ(s.per_bucket[1].batches, 1u);  // folded, not dropped
  EXPECT_EQ(s.per_bucket[1].effective_tokens, s.effective_tokens);
}

// ---------- BatchPolicy in virtual time: no threads, no clock ----------

struct Item {
  double enqueued = 0.0;
  std::int64_t seq_len = 0;
  std::uint64_t id = 0;
};
using Policy = serve::BatchPolicy<Item, double>;
constexpr std::size_t kNone = Policy::kNone;

Item item_at(double t, std::int64_t seq_len) { return Item{t, seq_len, 0}; }

std::vector<std::uint64_t> form_ids(Policy& policy, std::size_t q) {
  std::vector<std::uint64_t> ids;
  (void)policy.form(q, [&](const Item& it) { ids.push_back(it.id); });
  return ids;
}

TEST(BatchPolicy, OldestHeadWinsAcrossBuckets) {
  serve::StatsAccumulator stats;
  Policy policy(serve::LengthBucketing::bucketed({16}), 4, 5, 1.0, stats);
  policy.admit(item_at(0.0, 40));  // overflow queue 1
  policy.admit(item_at(1.0, 8));   // queue 0
  // Both heads have aged out at t = 6; queue 1's was admitted first.
  EXPECT_EQ(policy.next(6.0, false).queue, 1u);
  EXPECT_EQ(form_ids(policy, 1), (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(policy.next(6.0, false).queue, 0u);
}

TEST(BatchPolicy, SizeTriggerFiresBeforeTheDeadline) {
  serve::StatsAccumulator stats;
  Policy policy(serve::LengthBucketing::pad_to_max(), 2, 100, 1.0, stats);
  policy.admit(item_at(0.0, 8));
  const Policy::Next waiting = policy.next(1.0, false);
  EXPECT_EQ(waiting.queue, kNone);
  EXPECT_EQ(waiting.deadline, 100.0);
  policy.admit(item_at(1.0, 8));
  EXPECT_EQ(policy.next(1.0, false).queue, 0u);
}

TEST(BatchPolicy, AgeOutFiresExactlyAtTheDeadline) {
  serve::StatsAccumulator stats;
  // A window of 4 ticks of 0.5: the head admitted at 1.0 ages out at 3.0.
  Policy policy(serve::LengthBucketing::pad_to_max(), 8, 4, 0.5, stats);
  policy.admit(item_at(1.0, 8));
  const Policy::Next early = policy.next(std::nextafter(3.0, 0.0), false);
  EXPECT_EQ(early.queue, kNone);
  EXPECT_EQ(early.deadline, 3.0);
  EXPECT_EQ(policy.next(3.0, false).queue, 0u);
}

TEST(BatchPolicy, ForceMakesEveryNonEmptyQueueReady) {
  serve::StatsAccumulator stats;
  Policy policy(serve::LengthBucketing::bucketed({16, 32}), 8, 100, 1.0, stats);
  policy.admit(item_at(0.0, 20));  // queue 1
  policy.admit(item_at(1.0, 8));   // queue 0; queue 2 stays empty
  EXPECT_EQ(policy.next(2.0, false).queue, kNone);
  const Policy::Next forced = policy.next(2.0, true);
  EXPECT_EQ(forced.queue, 1u);
  EXPECT_FALSE(forced.deadline);  // no queue is left waiting
  (void)form_ids(policy, 1);
  EXPECT_EQ(policy.next(2.0, true).queue, 0u);
  (void)form_ids(policy, 0);
  EXPECT_EQ(policy.next(2.0, true).queue, kNone);  // empty queues never are
  EXPECT_TRUE(policy.empty());
}

TEST(BatchPolicy, NextDeadlineIgnoresReadyQueues) {
  auto bucketing = serve::LengthBucketing::bucketed({16});
  bucketing.buckets[0].max_batch = 2;
  bucketing.buckets[0].max_wait_ticks = 3;
  serve::StatsAccumulator stats;
  Policy policy(bucketing, 8, 10, 1.0, stats);
  policy.admit(item_at(0.0, 8));
  policy.admit(item_at(1.0, 8));   // queue 0 full; its head's deadline is 3
  policy.admit(item_at(2.0, 40));  // overflow head ages out at 12
  const Policy::Next due = policy.next(2.0, false);
  EXPECT_EQ(due.queue, 0u);
  EXPECT_EQ(due.deadline, 12.0);
}

TEST(BatchPolicy, OneInstantTakesSeveralBatchesFromAFullQueueThenStops) {
  serve::StatsAccumulator stats;
  Policy policy(serve::LengthBucketing::pad_to_max(), 2, 10, 1.0, stats);
  for (int i = 0; i < 5; ++i) {
    policy.admit(item_at(i, 8));
  }
  std::vector<std::vector<std::uint64_t>> batches;
  for (Policy::Next due = policy.next(4.0, false); due.queue != kNone;
       due = policy.next(4.0, false)) {
    batches.push_back(form_ids(policy, due.queue));
  }
  EXPECT_EQ(batches, (std::vector<std::vector<std::uint64_t>>{{0, 1}, {2, 3}}));
  EXPECT_EQ(policy.size(), 1u);
  // The leftover head (admitted at 4) waits its own full window.
  EXPECT_EQ(policy.next(4.0, false).deadline, 14.0);
}

TEST(BatchPolicy, EvictPicksTheGloballyOldestEntry) {
  serve::StatsAccumulator stats;
  Policy policy(serve::LengthBucketing::bucketed({16}), 8, 10, 1.0, stats);
  policy.admit(item_at(0.0, 40));  // queue 1
  policy.admit(item_at(1.0, 8));   // queue 0
  policy.admit(item_at(2.0, 40));  // queue 1
  EXPECT_EQ(policy.evict().id, 0u);
  EXPECT_EQ(policy.evict().id, 1u);
  EXPECT_EQ(policy.evict().id, 2u);
  EXPECT_TRUE(policy.empty());
}

TEST(BatchPolicy, FormBillsTheBatchAtItsPaddedLength) {
  serve::StatsAccumulator stats;
  Policy policy(serve::LengthBucketing::bucketed({16}), 4, 10, 1.0, stats);
  for (const std::int64_t len : {3, 9, 12, 20, 33}) {
    policy.admit(item_at(static_cast<double>(len), len));
  }
  std::vector<std::uint64_t> ids;
  const Policy::Formed edge =
      policy.form(0, [&](const Item& it) { ids.push_back(it.id); });
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{0, 1, 2}));  // admission order
  EXPECT_EQ(edge.size, 3u);
  EXPECT_EQ(edge.padded_len, 16);  // the bucket edge
  const Policy::Formed overflow = policy.form(1, [](const Item&) {});
  EXPECT_EQ(overflow.size, 2u);
  EXPECT_EQ(overflow.padded_len, 33);  // its own batch max

  // on_batch(take, q, effective, take x padded, cap x padded) per batch,
  // into the layout the policy declared.
  const serve::ServerStats s = stats.snapshot();
  ASSERT_EQ(s.per_bucket.size(), 2u);
  EXPECT_EQ(s.per_bucket[0].edge, 16);
  EXPECT_EQ(s.per_bucket[1].edge, 0);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.batch_occupancy_max, 3u);
  EXPECT_EQ(s.per_bucket[0].effective_tokens, 3u + 9 + 12);
  EXPECT_EQ(s.per_bucket[0].padded_tokens, 3u * 16);
  EXPECT_EQ(s.per_bucket[1].effective_tokens, 20u + 33);
  EXPECT_EQ(s.per_bucket[1].padded_tokens, 2u * 33);
  EXPECT_EQ(s.capacity_tokens, 4u * 16 + 4u * 33);
}

// ---------- live server: payload equivalence ----------

struct ServedRun {
  std::vector<nn::Tensor> outputs;
  std::vector<serve::RequestStats> stats;
  serve::ServerStats server;
};

/// Serve `lens`-shaped requests (seeds kSeedBase + i) through a fresh
/// server and return payloads + per-request stats + the final snapshot.
ServedRun serve_mixed(const serve::LengthBucketing& bucketing, int threads,
                      const std::vector<std::size_t>& lens,
                      std::size_t max_batch = 4,
                      std::uint32_t max_wait_ticks = 1) {
  const auto& model = shared_model();
  sim::BatchScheduler sched(threads);
  serve::ServerOptions opts;
  opts.batcher.max_batch = max_batch;
  opts.batcher.max_wait_ticks = max_wait_ticks;
  opts.batcher.bucketing = bucketing;
  serve::StarServer server(model, sched, opts);
  std::vector<std::future<serve::EncoderResponse>> futs;
  futs.reserve(lens.size());
  for (std::size_t i = 0; i < lens.size(); ++i) {
    futs.push_back(server.submit(
        serve::EncoderRequest{input_of_len(lens[i], 0xABC + i), 0x700 + i}));
  }
  ServedRun run;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    auto resp = resolved(futs[i], "request " + std::to_string(i));
    run.outputs.push_back(std::move(resp.output));
    run.stats.push_back(resp.stats);
  }
  server.shutdown();
  run.server = server.stats();
  return run;
}

TEST(LengthBucketedServer, PayloadBitIdenticalAcrossPolicyEdgeThreadMatrix) {
  // The headline invariant: policy x edges x threads never touches the
  // payload. Every cell must match the solo closed-batch reference
  // bit-for-bit.
  const auto& model = shared_model();
  const auto lens = mixed_lengths(10);
  std::vector<nn::Tensor> expected;
  for (std::size_t i = 0; i < lens.size(); ++i) {
    expected.push_back(
        solo_reference(model, input_of_len(lens[i], 0xABC + i), 0x700 + i));
  }
  const serve::LengthBucketing policies[] = {
      serve::LengthBucketing::pad_to_max(),
      serve::LengthBucketing::bucketed({16}),
      serve::LengthBucketing::bucketed({16, 32}),
      serve::LengthBucketing::bucketed({8, 24, 48, 96}),
  };
  for (const auto& policy : policies) {
    for (const int threads : {1, 4}) {
      const auto run = serve_mixed(policy, threads, lens);
      ASSERT_EQ(run.outputs.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_TRUE(nn::Tensor::bit_identical(run.outputs[i], expected[i]))
            << "buckets=" << policy.buckets.size() << " threads=" << threads
            << " request " << i;
      }
    }
  }
}

TEST(LengthBucketedServer, BatchesNeverMixBuckets) {
  const auto bucketing = serve::LengthBucketing::bucketed({16, 32, 64});
  const auto run = serve_mixed(bucketing, 4, mixed_lengths(20));
  std::map<std::uint64_t, std::set<std::size_t>> batch_buckets;
  for (const auto& rs : run.stats) {
    EXPECT_EQ(rs.bucket, bucketing.bucket_of(rs.seq_len))
        << "request routed to the wrong queue";
    batch_buckets[rs.batch_id].insert(rs.bucket);
  }
  for (const auto& [batch_id, buckets] : batch_buckets) {
    EXPECT_EQ(buckets.size(), 1u)
        << "batch " << batch_id << " mixed requests from different buckets";
  }
}

TEST(LengthBucketedServer, SeqLenAndPaddedLenStamping) {
  const auto bucketing = serve::LengthBucketing::bucketed({16, 32, 64});
  const auto lens = mixed_lengths(12);
  const auto run = serve_mixed(bucketing, 2, lens);
  ASSERT_EQ(run.stats.size(), lens.size());
  for (std::size_t i = 0; i < lens.size(); ++i) {
    const auto& rs = run.stats[i];
    EXPECT_EQ(rs.seq_len, static_cast<std::int64_t>(lens[i]));
    EXPECT_GE(rs.padded_len, rs.seq_len);  // padding never shrinks a request
    if (!bucketing.pads_to_batch_max(rs.bucket)) {
      EXPECT_EQ(rs.padded_len, bucketing.buckets[rs.bucket].edge);
    }
  }
}

TEST(LengthBucketedServer, OverflowRequestsPadToBatchMax) {
  const auto bucketing = serve::LengthBucketing::bucketed({8, 16});
  // All longer than the last edge: everything lands in the overflow queue
  // and pads to its own batch max, exactly the pad-to-max rule.
  const std::vector<std::size_t> lens = {20, 33, 20, 41};
  const auto run = serve_mixed(bucketing, 2, lens);
  for (const auto& rs : run.stats) {
    EXPECT_EQ(rs.bucket, 2u);
    EXPECT_GE(rs.padded_len, rs.seq_len);
    EXPECT_LE(rs.padded_len, 41);  // never beyond the longest batchmate
  }
  ASSERT_EQ(run.server.per_bucket.size(), 3u);
  EXPECT_EQ(run.server.per_bucket[2].requests, lens.size());
  EXPECT_EQ(run.server.per_bucket[0].requests, 0u);
}

TEST(LengthBucketedServer, ConservationEveryAdmittedServedExactlyOnce) {
  const auto run =
      serve_mixed(serve::LengthBucketing::bucketed({16, 48}), 4,
                  mixed_lengths(24));
  std::set<std::uint64_t> ids;
  std::uint64_t effective = 0;
  for (const auto& rs : run.stats) {
    ids.insert(rs.request_id);
    effective += static_cast<std::uint64_t>(rs.seq_len);
  }
  EXPECT_EQ(ids.size(), 24u);  // no request served twice
  EXPECT_EQ(run.server.submitted, 24u);
  EXPECT_EQ(run.server.admitted, 24u);
  EXPECT_EQ(run.server.completed, 24u);
  EXPECT_EQ(run.server.failed, 0u);
  // Padded slots never execute: the server's effective-token ledger is
  // EXACTLY the sum of true request lengths, whatever the padding did.
  EXPECT_EQ(run.server.effective_tokens, effective);
  EXPECT_GE(run.server.padded_tokens, run.server.effective_tokens);
  std::uint64_t per_bucket_requests = 0;
  for (const auto& b : run.server.per_bucket) {
    per_bucket_requests += b.requests;
  }
  EXPECT_EQ(per_bucket_requests, 24u);
}

TEST(LengthBucketedServer, FixedLengthTrafficHasZeroWasteUnderBothModes) {
  const std::vector<std::size_t> lens(8, 24);
  for (const auto& policy : {serve::LengthBucketing::pad_to_max(),
                             serve::LengthBucketing::bucketed({24, 64})}) {
    const auto run = serve_mixed(policy, 2, lens);
    EXPECT_EQ(run.server.effective_tokens, run.server.padded_tokens)
        << "buckets=" << policy.buckets.size();
    EXPECT_DOUBLE_EQ(run.server.padding_waste, 0.0);
  }
}

TEST(LengthBucketedServer, DeterministicTokenAccountingOnFullBatches) {
  // max_wait huge + counts divide max_batch: batches are exactly the
  // per-queue arrival groups, so the token ledger is a closed-form number.
  const auto bucketing = serve::LengthBucketing::bucketed({16});
  // Queue 0 (<=16): lengths 4, 16, 8, 12 -> one batch of 4 padded to 16.
  // Overflow: 20, 40, 30, 50 -> one batch of 4 padded to its max, 50.
  const std::vector<std::size_t> lens = {4, 20, 16, 40, 8, 30, 12, 50};
  const auto run = serve_mixed(bucketing, 2, lens, 4, 1000000);
  EXPECT_EQ(run.server.batches, 2u);
  EXPECT_EQ(run.server.effective_tokens, 4u + 16 + 8 + 12 + 20 + 40 + 30 + 50);
  EXPECT_EQ(run.server.padded_tokens, 4u * 16 + 4u * 50);
  EXPECT_EQ(run.server.capacity_tokens, 4u * 16 + 4u * 50);
  ASSERT_EQ(run.server.per_bucket.size(), 2u);
  EXPECT_EQ(run.server.per_bucket[0].padded_tokens, 4u * 16);
  EXPECT_EQ(run.server.per_bucket[1].padded_tokens, 4u * 50);
}

TEST(LengthBucketedServer, PerBucketMaxBatchOverrideCapsDispatch) {
  auto bucketing = serve::LengthBucketing::bucketed({16});
  bucketing.buckets[0].max_batch = 2;  // global stays 4
  const std::vector<std::size_t> lens = {4, 8, 12, 16};  // all bucket 0
  const auto run = serve_mixed(bucketing, 2, lens, 4, 1000000);
  // The override dispatches 2+2 instead of one batch of 4.
  EXPECT_EQ(run.server.batches, 2u);
  EXPECT_EQ(run.server.batch_occupancy_max, 2u);
  EXPECT_EQ(run.server.per_bucket[0].batches, 2u);
}

TEST(LengthBucketedServer, FaultInjectionStreamsLeavePayloadsUntouched) {
  // Interleave poisoned requests (num_layers beyond the stack depth -> the
  // future carries InvalidArgument) with good ones, under both policies:
  // failures must neither corrupt batchmates' payloads nor leak out of
  // their own future, and the stats ledger must split completed/failed.
  const auto& model = shared_model();
  const auto lens = mixed_lengths(8);
  std::vector<nn::Tensor> expected;
  for (std::size_t i = 0; i < lens.size(); ++i) {
    expected.push_back(
        solo_reference(model, input_of_len(lens[i], 0xFA17 + i), 0x900 + i));
  }
  for (const auto& policy : {serve::LengthBucketing::pad_to_max(),
                             serve::LengthBucketing::bucketed({16, 32})}) {
    sim::BatchScheduler sched(4);
    serve::ServerOptions opts;
    opts.batcher.max_batch = 4;
    opts.batcher.max_wait_ticks = 1;
    opts.batcher.bucketing = policy;
    serve::StarServer server(model, sched, opts);
    std::vector<std::future<serve::EncoderResponse>> good;
    std::vector<std::future<serve::EncoderResponse>> bad;
    for (std::size_t i = 0; i < lens.size(); ++i) {
      good.push_back(server.submit(
          serve::EncoderRequest{input_of_len(lens[i], 0xFA17 + i), 0x900 + i}));
      serve::EncoderRequest poison{input_of_len(lens[i], 0xBAD + i),
                                   0x900 + i};
      poison.num_layers = 99;  // > stack_depth: compute throws
      bad.push_back(server.submit(poison));
    }
    for (std::size_t i = 0; i < good.size(); ++i) {
      EXPECT_TRUE(
          nn::Tensor::bit_identical(good[i].get().output, expected[i]))
          << "buckets=" << policy.buckets.size() << " request " << i;
      EXPECT_THROW(bad[i].get(), InvalidArgument);
    }
    server.shutdown();
    const auto s = server.stats();
    EXPECT_EQ(s.completed, lens.size());
    EXPECT_EQ(s.failed, lens.size());
  }
}

// ---------- admission control across buckets ----------

TEST(LengthBucketedServer, AdmissionBoundIsTotalAcrossBuckets) {
  // max_batch is unreachably large and max_wait huge, so nothing
  // dispatches: submissions pile up across the two queues until the TOTAL
  // hits max_queue, and the next one must be rejected even though each
  // individual queue is far below max_queue.
  const auto& model = shared_model();
  sim::BatchScheduler sched(2);
  serve::ServerOptions opts;
  opts.max_queue = 6;
  opts.admission = serve::AdmissionPolicy::kReject;
  opts.batcher.max_batch = 64;
  opts.batcher.max_wait_ticks = 1000000;
  opts.batcher.bucketing = serve::LengthBucketing::bucketed({16});
  serve::StarServer server(model, sched, opts);
  std::vector<std::future<serve::AnalyticResponse>> futs;
  for (std::size_t i = 0; i < 6; ++i) {
    // Alternate buckets: 3 land in bucket 0, 3 in overflow.
    futs.push_back(server.submit(
        serve::AnalyticRequest{i % 2 == 0 ? std::int64_t{8} : std::int64_t{32}}));
  }
  auto refused = server.submit(serve::AnalyticRequest{8});
  EXPECT_THROW(resolved(refused, "request 6 (over the bound)"),
               serve::RejectedError);
  server.shutdown();  // dispatches the backlog; every admitted future resolves
  for (std::size_t i = 0; i < futs.size(); ++i) {
    EXPECT_NO_THROW(resolved(futs[i], "request " + std::to_string(i)));
  }
  const auto s = server.stats();
  EXPECT_EQ(s.admitted, 6u);
  EXPECT_EQ(s.rejected, 1u);
}

TEST(LengthBucketedServer, ShedOldestEvictsGloballyOldestAcrossBuckets) {
  const auto& model = shared_model();
  sim::BatchScheduler sched(2);
  serve::ServerOptions opts;
  opts.max_queue = 4;
  opts.admission = serve::AdmissionPolicy::kShedOldest;
  opts.batcher.max_batch = 64;
  opts.batcher.max_wait_ticks = 1000000;
  opts.batcher.bucketing = serve::LengthBucketing::bucketed({16});
  serve::StarServer server(model, sched, opts);
  // First admitted request goes to bucket 0; the queue then fills with
  // overflow-bucket requests. The overflowing submit must shed the FIRST
  // request — the globally oldest — even though its own bucket queue has
  // just that one entry.
  auto oldest = server.submit(serve::AnalyticRequest{8});
  std::vector<std::future<serve::AnalyticResponse>> rest;
  for (int i = 0; i < 4; ++i) {
    rest.push_back(server.submit(serve::AnalyticRequest{32}));
  }
  EXPECT_THROW(resolved(oldest, "request 0 (the oldest)"), serve::ShedError);
  server.shutdown();
  for (std::size_t i = 0; i < rest.size(); ++i) {
    EXPECT_NO_THROW(resolved(rest[i], "request " + std::to_string(i + 1)));
  }
  EXPECT_EQ(server.stats().shed, 1u);
}

TEST(LengthBucketedServer, AnalyticRequestsBucketBySeqLenField) {
  const auto bucketing = serve::LengthBucketing::bucketed({16, 64});
  const auto& model = shared_model();
  sim::BatchScheduler sched(2);
  serve::ServerOptions opts;
  opts.batcher.bucketing = bucketing;
  serve::StarServer server(model, sched, opts);
  auto a = server.submit(serve::AnalyticRequest{10}).get();
  auto b = server.submit(serve::AnalyticRequest{40}).get();
  auto c = server.submit(serve::AnalyticRequest{100}).get();
  EXPECT_EQ(a.stats.bucket, 0u);
  EXPECT_EQ(b.stats.bucket, 1u);
  EXPECT_EQ(c.stats.bucket, 2u);
  EXPECT_EQ(a.stats.seq_len, 10);
  EXPECT_EQ(c.stats.padded_len, 100);  // overflow pads to batch max
}

TEST(LengthBucketedServer, AttentionRequestsBucketByQRows) {
  const auto& model = shared_model();
  sim::BatchScheduler sched(2);
  serve::ServerOptions opts;
  opts.batcher.bucketing = serve::LengthBucketing::bucketed({16});
  serve::StarServer server(model, sched, opts);
  const auto qkv = workload::qkv_batch(1, 24, 16, 2.0, 0xA77)[0];
  auto resp = server.submit(serve::AttentionRequest{qkv}).get();
  EXPECT_EQ(resp.stats.seq_len, 24);
  EXPECT_EQ(resp.stats.bucket, 1u);  // 24 > edge 16 -> overflow
}

// ---------- virtual-time batching simulator ----------

serve::BatchSimConfig sim_cfg(const serve::LengthBucketing& bucketing) {
  serve::BatchSimConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_ticks = 8;
  cfg.bucketing = bucketing;
  return cfg;
}

TEST(BatchSim, DeterministicReplay) {
  const auto hist = workload::length_histogram_for(workload::Dataset::kMrpc);
  const auto lens = workload::sample_lengths(hist, 5000, 0x1234);
  const auto trace = workload::ArrivalTrace::generate_burst(
      5000, workload::BurstShape{}, 0x777);
  const auto cfg = sim_cfg(serve::LengthBucketing::bucketed({32, 64}));
  const auto a = serve::simulate_batching(trace, lens, cfg);
  const auto b = serve::simulate_batching(trace, lens, cfg);
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.batches, b.stats.batches);
  EXPECT_EQ(a.stats.effective_tokens, b.stats.effective_tokens);
  EXPECT_EQ(a.stats.padded_tokens, b.stats.padded_tokens);
  EXPECT_EQ(a.makespan_ticks, b.makespan_ticks);
  EXPECT_EQ(a.stats.queue_wait_p99_s, b.stats.queue_wait_p99_s);
}

TEST(BatchSim, ConservationLaws) {
  const auto hist = workload::length_histogram_for(workload::Dataset::kDefault);
  const std::size_t n = 20000;
  const auto lens = workload::sample_lengths(hist, n, 0xC0DE);
  std::uint64_t total_len = 0;
  for (const auto l : lens) {
    total_len += static_cast<std::uint64_t>(l);
  }
  const auto trace = workload::ArrivalTrace::generate(
      n, workload::ArrivalProcess::kPoisson, 1.0, 0x99);
  for (const auto& policy :
       {serve::LengthBucketing::pad_to_max(),
        serve::LengthBucketing::bucketed({16, 32, 64, 128, 256})}) {
    const auto r = serve::simulate_batching(trace, lens, sim_cfg(policy));
    EXPECT_EQ(r.stats.completed, n);  // every arrival served exactly once
    EXPECT_EQ(r.stats.effective_tokens, total_len);  // padding never executes
    EXPECT_GE(r.stats.padded_tokens, r.stats.effective_tokens);
    EXPECT_GE(r.stats.capacity_tokens, r.stats.padded_tokens);
    std::uint64_t per_bucket = 0;
    for (const auto& b : r.stats.per_bucket) {
      per_bucket += b.requests;
    }
    EXPECT_EQ(per_bucket, n);
  }
}

TEST(BatchSim, FixedLengthHasZeroWasteUnderEveryPolicy) {
  const std::vector<std::int64_t> lens(4000, 48);
  const auto trace = workload::ArrivalTrace::generate(
      4000, workload::ArrivalProcess::kUniform, 0.3, 0x42);
  for (const auto& policy : {serve::LengthBucketing::pad_to_max(),
                             serve::LengthBucketing::bucketed({48, 96})}) {
    const auto r = serve::simulate_batching(trace, lens, sim_cfg(policy));
    EXPECT_DOUBLE_EQ(r.stats.padding_waste, 0.0)
        << "buckets=" << policy.buckets.size();
    EXPECT_DOUBLE_EQ(r.stats.effective_occupancy, r.stats.padded_occupancy);
  }
}

TEST(BatchSim, BucketedBeatsPadToMaxOnMixedLengths) {
  // Saturating mixed-length traffic with edges matched to the histogram:
  // bucketing must strictly cut waste and strictly raise effective
  // occupancy — the relation the bench JSON and CI pin.
  const auto hist = workload::length_histogram_for(workload::Dataset::kDefault);
  const std::size_t n = 50000;
  const auto lens = workload::sample_lengths(hist, n, 0xBEEF);
  workload::BurstShape burst;
  burst.mean_inter_arrival_ticks = 0.4;  // ~2x the service rate: backlogged
  const auto trace = workload::ArrivalTrace::generate_burst(n, burst, 0x8);
  std::vector<std::int64_t> edges;
  for (const auto& bin : hist.bins) {
    edges.push_back(bin.len);
  }
  const auto ptm = serve::simulate_batching(
      trace, lens, sim_cfg(serve::LengthBucketing::pad_to_max()));
  const auto bkt = serve::simulate_batching(
      trace, lens, sim_cfg(serve::LengthBucketing::bucketed(edges)));
  EXPECT_GT(ptm.stats.padding_waste, 0.0);
  EXPECT_LT(bkt.stats.padding_waste, ptm.stats.padding_waste);
  EXPECT_GT(bkt.stats.effective_occupancy, ptm.stats.effective_occupancy);
  // Edges at the histogram bins make intra-bucket padding impossible.
  EXPECT_DOUBLE_EQ(bkt.stats.padding_waste, 0.0);
}

TEST(BatchSim, CausalityAndUtilizationBounds) {
  const auto hist = workload::length_histogram_for(workload::Dataset::kCnews);
  const auto lens = workload::sample_lengths(hist, 10000, 0x5);
  const auto trace = workload::ArrivalTrace::generate_burst(
      10000, workload::BurstShape{}, 0x6);
  const auto r = serve::simulate_batching(
      trace, lens, sim_cfg(serve::LengthBucketing::bucketed({128, 256})));
  EXPECT_GE(r.stats.queue_wait_mean_s, 0.0);  // no batch before its members
  EXPECT_GE(r.stats.queue_wait_p99_s, 0.0);
  EXPECT_GE(r.makespan_ticks, trace.makespan_ticks());
  EXPECT_GT(r.utilization, 0.0);
  EXPECT_LE(r.utilization, 1.0 + 1e-12);
  EXPECT_LE(r.busy_ticks, r.makespan_ticks + 1e-9);
}

TEST(BatchSim, RejectsMalformedInputs) {
  const auto trace = workload::ArrivalTrace::generate(
      4, workload::ArrivalProcess::kPoisson, 1.0, 0x1);
  const auto cfg = sim_cfg(serve::LengthBucketing::pad_to_max());
  EXPECT_THROW(serve::simulate_batching(trace, {1, 2, 3}, cfg),
               InvalidArgument);  // size mismatch
  EXPECT_THROW(serve::simulate_batching(trace, {4, 0, 4, 4}, cfg),
               InvalidArgument);  // non-positive length
  serve::BatchSimConfig bad = cfg;
  bad.ticks_per_token = -1.0;
  EXPECT_THROW(serve::simulate_batching(trace, {4, 4, 4, 4}, bad),
               InvalidArgument);
}

TEST(BatchSim, PerBucketWaitsReflectPerBucketWaitOverrides) {
  // A zero-wait bucket dispatches its head immediately; a long-wait bucket
  // coalesces. Under light load the zero-wait bucket must therefore see
  // strictly more batches per request.
  auto bucketing = serve::LengthBucketing::bucketed({16, 64});
  bucketing.buckets[0].max_wait_ticks = 0;
  bucketing.buckets[1].max_wait_ticks = 500;
  std::vector<std::int64_t> lens;
  for (int i = 0; i < 2000; ++i) {
    lens.push_back(i % 2 == 0 ? 8 : 32);
  }
  const auto trace = workload::ArrivalTrace::generate(
      2000, workload::ArrivalProcess::kUniform, 5.0, 0x33);
  auto cfg = sim_cfg(bucketing);
  cfg.ticks_per_token = 0.001;  // light service: policy, not backlog, decides
  const auto r = serve::simulate_batching(trace, lens, cfg);
  ASSERT_EQ(r.stats.per_bucket.size(), 3u);
  const auto& fast = r.stats.per_bucket[0];
  const auto& slow = r.stats.per_bucket[1];
  ASSERT_GT(fast.requests, 0u);
  ASSERT_GT(slow.requests, 0u);
  EXPECT_LT(fast.batch_occupancy_mean, slow.batch_occupancy_mean);
  EXPECT_LE(fast.queue_wait_mean_s, slow.queue_wait_mean_s);
}

// ---------- golden replay ----------
//
// The replay's figures pinned against recorded values, not against a
// second implementation: tests/golden/batch_replay.csv holds one row per
// cell, doubles written with %.17g so the comparison is bitwise. On a
// mismatch or a missing file the test prints every computed row in the
// file's format. There is no switch that rewrites the file: changing it is
// a change of the batching rule and needs a stated reason.

const char* const kReplayGolden = STAR_TEST_GOLDEN_DIR "/batch_replay.csv";
const char* const kReplayHeader =
    "cell,served,batches,effective_tokens,padded_tokens,capacity_tokens,"
    "makespan_ticks,busy_ticks,utilization,queue_wait_mean,queue_wait_p99,"
    "service_mean,service_p99,occupancy_mean,occupancy_max,"
    "per_bucket(requests:batches:effective:padded:queue_wait_mean)";

std::string exact(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string replay_row(const std::string& cell, const serve::BatchSimResult& r) {
  const serve::ServerStats& s = r.stats;
  std::string row = cell;
  for (const std::string& field :
       {std::to_string(s.completed), std::to_string(s.batches),
        std::to_string(s.effective_tokens), std::to_string(s.padded_tokens),
        std::to_string(s.capacity_tokens), exact(r.makespan_ticks),
        exact(r.busy_ticks), exact(r.utilization), exact(s.queue_wait_mean_s),
        exact(s.queue_wait_p99_s), exact(s.service_mean_s),
        exact(s.service_p99_s), exact(s.batch_occupancy_mean),
        std::to_string(s.batch_occupancy_max)}) {
    row += ',' + field;
  }
  row += ',';
  for (std::size_t q = 0; q < s.per_bucket.size(); ++q) {
    const auto& b = s.per_bucket[q];
    row += (q == 0 ? "" : " ") + std::to_string(b.requests) + ':' +
           std::to_string(b.batches) + ':' + std::to_string(b.effective_tokens) +
           ':' + std::to_string(b.padded_tokens) + ':' + exact(b.queue_wait_mean_s);
  }
  return row;
}

/// The 10^6-arrival soak of `bench_batched_encoder --length-dist mixed
/// --soak-arrivals 1000000`: a bursty trace offered at twice the full-batch
/// service rate over the mixed length histogram, max_batch 8, max_wait 8
/// ticks, replayed under pad-to-max and under auto edges (one bucket per
/// histogram bin).
struct Soak {
  workload::LengthHistogram hist;
  workload::ArrivalTrace trace;
  std::vector<std::int64_t> lens;
  serve::BatchSimConfig pad_to_max;
  serve::BatchSimConfig bucketed;
};

const Soak& soak() {
  static const Soak s = [] {
    constexpr std::uint64_t kSeed = 0xBA7C4ED;
    constexpr std::size_t kArrivals = 1000000;
    Soak out;
    out.hist = workload::length_histogram_for(workload::Dataset::kDefault);
    serve::BatchSimConfig cfg;
    cfg.max_batch = 8;
    cfg.max_wait_ticks = 8;
    workload::BurstShape shape;
    shape.mean_inter_arrival_ticks =
        0.5 * (cfg.batch_overhead_ticks / static_cast<double>(cfg.max_batch) +
               cfg.ticks_per_token * out.hist.mean_len());
    out.trace = workload::ArrivalTrace::generate_burst(kArrivals, shape, kSeed);
    out.lens = workload::sample_lengths(out.hist, kArrivals, kSeed ^ 0x50AC);
    std::vector<std::int64_t> edges;
    for (const auto& bin : out.hist.bins) {
      edges.push_back(bin.len);
    }
    out.pad_to_max = cfg;
    out.pad_to_max.bucketing = serve::LengthBucketing::pad_to_max();
    out.bucketed = cfg;
    out.bucketed.bucketing = serve::LengthBucketing::bucketed(edges);
    return out;
  }();
  return s;
}

/// The bucketed soak on the STAR-calibrated service model of the bench's
/// model (default StarConfig, tiny BERT), with the cost-cache ledger of the
/// replay alone. Every length the soak pads to is priced first, so each
/// lookup of the replay finds a warm entry; ticks_per_us scales the
/// analytic latency at the histogram mean to the linear model's cost there.
struct CalibratedSoak {
  serve::BatchSimResult result;
  core::CostCacheStats ledger;
};

const CalibratedSoak& calibrated_soak() {
  static const CalibratedSoak s = [] {
    const Soak& base = soak();
    const core::BatchEncoderSim model(core::StarConfig{}, kBert, 0xB127,
                                      kBert.layers);
    serve::BatchSimConfig cfg = base.bucketed;
    cfg.analytic_model = &model;
    const auto mean_len = static_cast<std::int64_t>(base.hist.mean_len());
    cfg.analytic_ticks_per_us = cfg.ticks_per_token *
                                static_cast<double>(mean_len) /
                                model.price_analytic(mean_len).latency.as_us();
    for (const auto& bin : base.hist.bins) {
      (void)model.price_analytic(bin.len);
    }
    model.cost_cache().reset_stats();
    CalibratedSoak out;
    out.result = serve::simulate_batching(base.trace, base.lens, cfg);
    out.ledger = model.cost_cache().stats();
    return out;
  }();
  return s;
}

/// The replay grid: pad-to-max, bucketed and per-bucket overrides over
/// burst, Poisson and uniform traces; one cell past the latency reservoir
/// (its p99 comes from the sampled reservoir), one on the analytic service
/// model, and the three 10^6-arrival soak cells.
std::vector<std::string> replay_rows() {
  using serve::LengthBucketing;
  const auto mixed = workload::length_histogram_for(workload::Dataset::kDefault);
  const auto mrpc = workload::length_histogram_for(workload::Dataset::kMrpc);
  const auto cola = workload::length_histogram_for(workload::Dataset::kCola);
  const auto cnews = workload::length_histogram_for(workload::Dataset::kCnews);
  workload::BurstShape backlog;
  backlog.mean_inter_arrival_ticks = 0.4;
  const auto burst = [](std::size_t n, const workload::BurstShape& shape,
                        std::uint64_t seed) {
    return workload::ArrivalTrace::generate_burst(n, shape, seed);
  };
  const auto poisson = [](std::size_t n, double mean, std::uint64_t seed) {
    return workload::ArrivalTrace::generate(n, workload::ArrivalProcess::kPoisson,
                                            mean, seed);
  };
  const auto uniform = [](std::size_t n, double mean, std::uint64_t seed) {
    return workload::ArrivalTrace::generate(n, workload::ArrivalProcess::kUniform,
                                            mean, seed);
  };
  const auto config = [](const LengthBucketing& bucketing, std::size_t max_batch,
                         std::uint32_t max_wait) {
    serve::BatchSimConfig cfg;
    cfg.max_batch = max_batch;
    cfg.max_wait_ticks = max_wait;
    cfg.bucketing = bucketing;
    return cfg;
  };
  std::vector<std::string> rows;
  const auto run = [&](const std::string& cell, const workload::ArrivalTrace& trace,
                       const std::vector<std::int64_t>& lens,
                       const serve::BatchSimConfig& cfg) {
    rows.push_back(replay_row(cell, serve::simulate_batching(trace, lens, cfg)));
  };

  std::vector<std::int64_t> hist_edges;
  for (const auto& bin : mixed.bins) {
    hist_edges.push_back(bin.len);
  }
  auto overrides = LengthBucketing::bucketed({32, 64, 128});
  overrides.buckets[0].max_batch = 16;
  overrides.buckets[0].max_wait_ticks = 1;
  overrides.buckets[1].max_batch = 2;
  overrides.buckets[2].max_wait_ticks = 0;
  auto split_waits = LengthBucketing::bucketed({16, 64});
  split_waits.buckets[0].max_wait_ticks = 0;
  split_waits.buckets[1].max_wait_ticks = 500;
  auto short_fast = LengthBucketing::bucketed({16, 48});
  short_fast.buckets[0].max_batch = 3;
  short_fast.buckets[0].max_wait_ticks = 12;
  short_fast.buckets[1].max_wait_ticks = 0;
  std::vector<std::int64_t> alternating;
  for (int i = 0; i < 2000; ++i) {
    alternating.push_back(i % 2 == 0 ? 8 : 32);
  }

  run("ptm/burst/mrpc/b8w8", burst(5000, {}, 0x777),
      workload::sample_lengths(mrpc, 5000, 0x1234),
      config(LengthBucketing::pad_to_max(), 8, 8));
  run("ptm/poisson/mixed/b4w2", poisson(20000, 1.0, 0x99),
      workload::sample_lengths(mixed, 20000, 0xC0DE),
      config(LengthBucketing::pad_to_max(), 4, 2));
  run("ptm/uniform/cola/b1w0", uniform(4000, 0.3, 0x42),
      workload::sample_lengths(cola, 4000, 0xF00),
      config(LengthBucketing::pad_to_max(), 1, 0));
  {
    auto cfg = config(LengthBucketing::pad_to_max(), 16, 39);
    cfg.batch_overhead_ticks = 0.0;
    cfg.ticks_per_token = 0.02;
    run("ptm/uniform/cnews/b16w39/no-overhead", uniform(6000, 2.0, 0x5),
        workload::sample_lengths(cnews, 6000, 0x6), cfg);
  }
  run("bkt/burst/mixed/hist-edges/backlog", burst(20000, backlog, 0x8),
      workload::sample_lengths(mixed, 20000, 0xBEEF),
      config(LengthBucketing::bucketed(hist_edges), 8, 8));
  run("bkt/poisson/mixed/16-32-64-128-256", poisson(20000, 1.0, 0x99),
      workload::sample_lengths(mixed, 20000, 0xC0DE),
      config(LengthBucketing::bucketed({16, 32, 64, 128, 256}), 8, 8));
  run("bkt/uniform/cola/48-96", uniform(4000, 0.3, 0x42),
      workload::sample_lengths(cola, 4000, 0xF00),
      config(LengthBucketing::bucketed({48, 96}), 8, 8));
  {
    auto cfg = config(split_waits, 8, 8);
    cfg.ticks_per_token = 0.001;
    run("ovr/uniform/alternating/16w0-64w500", uniform(2000, 5.0, 0x33),
        alternating, cfg);
  }
  run("ovr/poisson/mixed/32b16w1-64b2-128w0", poisson(20000, 0.5, 0x51),
      workload::sample_lengths(mixed, 20000, 0x52), config(overrides, 6, 5));
  run("ovr/burst/mrpc/16b3w12-48w0", burst(10000, {}, 0x61),
      workload::sample_lengths(mrpc, 10000, 0x62), config(short_fast, 4, 3));
  run("large/bkt/burst/mixed/64-128-256/backlog", burst(100000, backlog, 0x71),
      workload::sample_lengths(mixed, 100000, 0x72),
      config(LengthBucketing::bucketed({64, 128, 256}), 8, 4));
  {
    workload::BurstShape shape;
    shape.mean_inter_arrival_ticks = 1.0;
    auto cfg = config(LengthBucketing::bucketed({32, 64, 128}), 8, 8);
    cfg.analytic_model = &shared_model();
    cfg.analytic_ticks_per_us = 0.5;
    run("analytic/bkt/burst/mixed/32-64-128", burst(2000, shape, 0xBA7C4ED),
        workload::sample_lengths(mixed, 2000, 0xCAC4E), cfg);
  }
  run("soak/ptm/burst/mixed/b8w8", soak().trace, soak().lens, soak().pad_to_max);
  run("soak/bkt/burst/mixed/hist-edges/b8w8", soak().trace, soak().lens,
      soak().bucketed);
  rows.push_back(replay_row("soak/calibrated/bkt/burst/mixed/hist-edges/b8w8",
                            calibrated_soak().result));
  return rows;
}

TEST(BatchSim, MatchesGoldenReplay) {
  std::vector<std::string> golden;
  {
    std::ifstream in(kReplayGolden);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      if (!line.empty()) {
        golden.push_back(line);
      }
    }
  }
  const std::vector<std::string> got = replay_rows();
  EXPECT_FALSE(golden.empty()) << "missing or empty golden file: " << kReplayGolden;
  EXPECT_EQ(got.size(), golden.size()) << "cell count differs";
  bool same = got.size() == golden.size();
  for (std::size_t i = 0; i < got.size() && i < golden.size(); ++i) {
    EXPECT_EQ(got[i], golden[i]) << "row " << i;
    same = same && got[i] == golden[i];
  }
  if (!same) {
    std::printf("computed rows:\n%s\n", kReplayHeader);
    for (const std::string& row : got) {
      std::printf("%s\n", row.c_str());
    }
  }
}

TEST(BatchSim, CalibratedSoakServesEveryLookupFromTheWarmCache) {
  // One cost-cache lookup per dispatched batch, each a hit: the soak pads
  // only to lengths priced before the replay. A cold cache would take one
  // miss per distinct padded length (12 here).
  const CalibratedSoak& s = calibrated_soak();
  EXPECT_EQ(s.ledger.lookups, 125007u);
  EXPECT_EQ(s.ledger.lookups, s.result.stats.batches);
  EXPECT_EQ(s.ledger.hits, s.ledger.lookups);
  EXPECT_EQ(s.ledger.misses, 0u);
  EXPECT_EQ(s.ledger.bypasses, 0u);
  EXPECT_EQ(s.ledger.hit_rate(), 1.0);
}

// ---------- bounded multi-threaded soak (TSan target) ----------

TEST(LengthBucketedServer, BoundedSoakMixedLengthsManySubmitters) {
  // Four submitter threads hammer one bucketed server with mixed-length
  // analytic requests under the blocking admission policy, while a monitor
  // thread polls stats() concurrently. Every future must resolve and the
  // ledger must balance; the CI ThreadSanitizer job runs this binary, so
  // the soak doubles as the data-race probe for the multi-queue batcher.
  const auto& model = shared_model();
  sim::BatchScheduler sched(4);
  serve::ServerOptions opts;
  opts.max_queue = 16;
  opts.admission = serve::AdmissionPolicy::kBlock;
  opts.batcher.max_batch = 4;
  opts.batcher.max_wait_ticks = 1;
  opts.batcher.bucketing = serve::LengthBucketing::bucketed({16, 48});
  serve::StarServer server(model, sched, opts);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 64;
  std::atomic<std::uint64_t> resolved{0};
  std::atomic<bool> monitoring{true};
  std::thread monitor([&] {
    while (monitoring.load()) {
      const auto s = server.stats();
      // Invariants that must hold at EVERY instant, not just at the end.
      EXPECT_LE(s.effective_tokens, s.padded_tokens);
      EXPECT_LE(s.padded_tokens, s.capacity_tokens);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      const std::int64_t lens[] = {8, 16, 32, 48, 64, 96};
      for (std::size_t i = 0; i < kPerThread; ++i) {
        auto fut = server.submit(
            serve::AnalyticRequest{lens[(t * kPerThread + i) % 6]});
        fut.get();
        resolved.fetch_add(1);
      }
    });
  }
  for (auto& th : submitters) {
    th.join();
  }
  monitoring.store(false);
  monitor.join();
  server.shutdown();
  EXPECT_EQ(resolved.load(), kThreads * kPerThread);
  const auto s = server.stats();
  EXPECT_EQ(s.completed, kThreads * kPerThread);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.submitted, s.admitted);  // kBlock never drops
  std::uint64_t per_bucket = 0;
  for (const auto& b : s.per_bucket) {
    per_bucket += b.requests;
  }
  EXPECT_EQ(per_bucket, s.completed);
}

}  // namespace
}  // namespace star
