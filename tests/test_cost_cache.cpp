// core::CostCache: the memoized analytic cost table on the serve hot path.
//
// The central claim under test is the determinism contract of
// core/cost_cache.hpp: a cached lookup is bit-identical to a fresh
// analytic compute for every key, the hit/miss ledger obeys its
// conservation law (lookups == hits + misses + bypasses), cold residency
// transients bypass the table, and a residency flush needs no cache flush.
// The concurrent suite runs the batcher-pool shape under TSan in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "core/batch_encoder.hpp"
#include "core/cost_cache.hpp"
#include "serve/batch_sim.hpp"
#include "serve/cluster.hpp"
#include "serve/star_server.hpp"
#include "sim/batch_scheduler.hpp"
#include "util/contract.hpp"
#include "util/status.hpp"
#include "workload/arrival_trace.hpp"
#include "workload/dataset_profile.hpp"
#include "workload/trace_gen.hpp"

namespace star {
namespace {

using core::BatchEncoderSim;
using core::CostCacheStats;

const nn::BertConfig kBert = nn::BertConfig::tiny();

core::StarConfig tiny_cfg(int num_shards = 1) {
  core::StarConfig cfg;
  cfg.max_seq_len = 256;
  cfg.num_shards = num_shards;
  return cfg;
}

// ---------- ledger ----------

TEST(CostCache, LedgerConservationAndReset) {
  const BatchEncoderSim model(tiny_cfg(), kBert);
  const std::vector<std::int64_t> lens = {16, 32, 16, 64, 32, 16, 128, 64};
  const std::set<std::int64_t> distinct(lens.begin(), lens.end());

  model.cost_cache().reset_stats();
  for (const std::int64_t len : lens) {
    (void)model.run_analytic_one(len);
  }
  const CostCacheStats stats = model.cost_cache().stats();
  EXPECT_EQ(stats.lookups, lens.size());
  EXPECT_EQ(stats.misses, distinct.size());
  EXPECT_EQ(stats.hits, lens.size() - distinct.size());
  EXPECT_EQ(stats.bypasses, 0u);
  EXPECT_NO_THROW(core::audit_cost_ledger(stats));
  EXPECT_DOUBLE_EQ(stats.hit_rate(),
                   static_cast<double>(stats.hits) /
                       static_cast<double>(stats.lookups));

  // reset_stats zeroes the ledger but keeps the entries: the next lookup
  // of a seen length is a hit on a one-lookup ledger.
  model.cost_cache().reset_stats();
  EXPECT_EQ(model.cost_cache().stats().lookups, 0u);
  EXPECT_DOUBLE_EQ(model.cost_cache().stats().hit_rate(), 0.0);
  (void)model.run_analytic_one(lens.front());
  EXPECT_EQ(model.cost_cache().stats().hits, 1u);
  EXPECT_EQ(model.cost_cache().stats().misses, 0u);
}

TEST(CostCache, ForgedLedgerTripsAudit) {
  CostCacheStats forged;
  forged.lookups = 5;
  forged.hits = 1;
  forged.misses = 1;
  forged.bypasses = 1;  // 1 + 1 + 1 != 5
  if (contracts_enabled()) {
    EXPECT_THROW(core::audit_cost_ledger(forged), ContractViolation);
  } else {
    EXPECT_NO_THROW(core::audit_cost_ledger(forged));
  }
}

// ---------- bit-identity: cached vs fresh ----------

TEST(CostCache, AnalyticCachedBitIdenticalToFreshAcrossShardSweep) {
  for (const int num_shards : {1, 2, 4}) {
    const BatchEncoderSim model(tiny_cfg(num_shards), kBert);
    for (const std::int64_t len : {8, 16, 32, 64, 128}) {
      // First call populates, the repeats hit; every one must equal a
      // fresh uncached compute bit-for-bit.
      const auto fresh = model.accelerator().run_attention_layer(kBert, len);
      for (int repeat = 0; repeat < 3; ++repeat) {
        const auto cached = model.run_analytic_one(len);
        EXPECT_TRUE(core::bit_identical(cached, fresh))
            << "shards " << num_shards << " len " << len << " repeat "
            << repeat;
      }
    }
    const CostCacheStats stats = model.cost_cache().stats();
    EXPECT_EQ(stats.misses, 5u);
    EXPECT_EQ(stats.hits, 10u);
    EXPECT_NO_THROW(core::audit_cost_ledger(stats));
  }
}

// ---------- warm/cold lookups and residency flushes ----------

TEST(CostCache, ColdLookupsBypassAndResidencyFlushKeepsEntries) {
  const BatchEncoderSim model(tiny_cfg(), kBert);
  constexpr std::int64_t kLen = 40;
  constexpr auto kForeign = workload::Dataset::kCnews;
  model.cost_cache().reset_stats();

  // 1) Foreign-format image not resident yet: a cold transient. Counted
  //    as a bypass, never inserted, and the programming bill is composed
  //    into the result.
  core::ResidencyCharge charge;
  const auto cold = model.run_analytic_one(kLen, kForeign, &charge);
  EXPECT_EQ(model.cost_cache().stats().bypasses, 1u);
  EXPECT_EQ(model.cost_cache().size(), 0u);
  EXPECT_EQ(charge.lut_misses, 1u);
  EXPECT_GT(charge.programming.latency.as_s(), 0.0);

  // 2) Image now resident: warm lookups populate then hit, bit-identical
  //    to the fresh pure compute (the steady state charges nothing).
  const auto fresh = model.accelerator().run_attention_layer(kBert, kLen);
  const auto warm = model.run_analytic_one(kLen, kForeign, &charge);
  EXPECT_EQ(charge.lut_hits, 1u);
  EXPECT_EQ(charge.programming.latency.as_s(), 0.0);
  EXPECT_TRUE(core::bit_identical(warm, fresh));
  EXPECT_GT(cold.latency.as_s(), warm.latency.as_s());
  const auto warm_hit = model.run_analytic_one(kLen, kForeign, nullptr);
  EXPECT_TRUE(core::bit_identical(warm_hit, fresh));
  EXPECT_EQ(model.cost_cache().stats().misses, 1u);
  EXPECT_EQ(model.cost_cache().stats().hits, 1u);

  // 3) A residency flush needs no cache flush: the cached record never
  //    depended on residency. The next lookup finds the image gone, so it
  //    bypasses as a cold transient with the same programming bill; the
  //    one after that hits the entry kept from before the flush.
  model.residency().invalidate_all();
  EXPECT_EQ(model.cost_cache().size(), 1u);
  const auto recold = model.run_analytic_one(kLen, kForeign, &charge);
  EXPECT_EQ(charge.lut_misses, 1u);
  EXPECT_GT(charge.programming.latency.as_s(), 0.0);
  EXPECT_TRUE(core::bit_identical(recold, cold));
  EXPECT_EQ(model.cost_cache().stats().bypasses, 2u);
  EXPECT_EQ(model.cost_cache().size(), 1u);
  const auto kept = model.run_analytic_one(kLen, kForeign, &charge);
  EXPECT_EQ(charge.lut_hits, 1u);
  EXPECT_EQ(charge.programming.latency.as_s(), 0.0);
  EXPECT_TRUE(core::bit_identical(
      kept, model.accelerator().run_attention_layer(kBert, kLen)));

  const CostCacheStats stats = model.cost_cache().stats();
  EXPECT_EQ(stats.lookups, 5u);
  EXPECT_EQ(stats.bypasses, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_NO_THROW(core::audit_cost_ledger(stats));
}

TEST(CostCache, DistinctShapesGetDistinctEntries) {
  // Each model owns its table, keyed by seq_len alone: two models with
  // different shard provisioning never share records, and within one model
  // every distinct length is its own entry.
  const BatchEncoderSim mono(tiny_cfg(1), kBert);
  const BatchEncoderSim sharded(tiny_cfg(4), kBert);
  const auto a = mono.run_analytic_one(32);
  const auto b = sharded.run_analytic_one(32);
  EXPECT_FALSE(core::bit_identical(a, b));  // different shard composition
  (void)mono.run_analytic_one(33);
  EXPECT_EQ(mono.cost_cache().size(), 2u);
  EXPECT_EQ(sharded.cost_cache().size(), 1u);
  EXPECT_TRUE(core::bit_identical(sharded.run_analytic_one(32), b));
  EXPECT_EQ(sharded.cost_cache().stats().hits, 1u);
}

// ---------- concurrency (run under TSan in CI) ----------

TEST(CostCache, ConcurrentLookupsAreCleanAndDeterministic) {
  const BatchEncoderSim model(tiny_cfg(), kBert);
  constexpr std::size_t kRequests = 256;
  const std::vector<std::int64_t> pool = {8, 16, 24, 32, 48, 64, 96, 128};
  std::vector<std::int64_t> lens(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    lens[i] = pool[i % pool.size()];
  }
  model.cost_cache().reset_stats();

  sim::BatchScheduler sched(8);
  const auto results = sched.map<core::AttentionRunResult>(
      kRequests, [&](std::size_t i) { return model.run_analytic_one(lens[i]); });

  for (const std::int64_t len : pool) {
    const auto fresh = model.accelerator().run_attention_layer(kBert, len);
    for (std::size_t i = 0; i < kRequests; ++i) {
      if (lens[i] == len) {
        EXPECT_TRUE(core::bit_identical(results[i], fresh)) << "index " << i;
      }
    }
  }
  // Miss-side compute runs under the lock, so the miss count equals the
  // number of distinct warm keys for EVERY thread interleaving.
  const CostCacheStats stats = model.cost_cache().stats();
  EXPECT_EQ(stats.lookups, kRequests);
  EXPECT_EQ(stats.misses, pool.size());
  EXPECT_EQ(stats.hits, kRequests - pool.size());
  EXPECT_EQ(stats.bypasses, 0u);
  EXPECT_NO_THROW(core::audit_cost_ledger(stats));
}

// ---------- batch-sim analytic service model ----------

TEST(CostCache, BatchSimAnalyticServiceModelDeterministicAndCached) {
  const BatchEncoderSim model(tiny_cfg(), kBert);
  const auto hist =
      workload::length_histogram_for(workload::Dataset::kDefault);
  constexpr std::size_t kArrivals = 2000;
  const auto lens = workload::sample_lengths(hist, kArrivals, 0xCAC4E);
  workload::BurstShape burst;
  burst.mean_inter_arrival_ticks = 1.0;
  const auto trace =
      workload::ArrivalTrace::generate_burst(kArrivals, burst, 0xBA7C4ED);

  serve::BatchSimConfig cfg;
  cfg.analytic_model = &model;
  cfg.analytic_ticks_per_us = 0.5;
  model.cost_cache().reset_stats();
  const auto first = serve::simulate_batching(trace, lens, cfg);
  const auto again = serve::simulate_batching(trace, lens, cfg);
  EXPECT_EQ(first.stats.batches, again.stats.batches);
  EXPECT_EQ(first.makespan_ticks, again.makespan_ticks);
  EXPECT_EQ(first.busy_ticks, again.busy_ticks);
  EXPECT_GT(first.busy_ticks, 0.0);

  // One lookup per dispatched batch against a handful of padded lengths:
  // the steady state is nearly all hits.
  const CostCacheStats stats = model.cost_cache().stats();
  EXPECT_EQ(stats.lookups, first.stats.batches + again.stats.batches);
  EXPECT_EQ(stats.bypasses, 0u);
  EXPECT_GT(stats.hit_rate(), 0.9);
}

TEST(CostCache, BatchSimPricesPaddedLengthsAboveMaxSeqLen) {
  // Every request fits the model (max_seq_len 256), but the one bucket
  // pads to 512. The replay bills each batch at 512 — a length
  // run_analytic_one refuses as a request — and completes.
  const BatchEncoderSim model(tiny_cfg(), kBert);
  constexpr std::int64_t kEdge = 512;
  ASSERT_GT(kEdge, model.config().max_seq_len);
  EXPECT_THROW((void)model.run_analytic_one(kEdge), InvalidArgument);

  constexpr std::size_t kArrivals = 200;
  std::vector<std::int64_t> lens;
  for (std::size_t i = 0; i < kArrivals; ++i) {
    lens.push_back(static_cast<std::int64_t>(16 + (i * 37) % 241));  // 16..256
  }
  workload::BurstShape burst;
  burst.mean_inter_arrival_ticks = 1.0;
  const auto trace =
      workload::ArrivalTrace::generate_burst(kArrivals, burst, 0xBA7C4ED);

  serve::BatchSimConfig cfg;
  cfg.bucketing = serve::LengthBucketing::bucketed({kEdge});
  cfg.batch_overhead_ticks = 0.0;
  cfg.analytic_model = &model;
  const auto result = serve::simulate_batching(trace, lens, cfg);
  EXPECT_EQ(result.stats.completed, kArrivals);
  EXPECT_EQ(result.stats.padded_tokens,
            kArrivals * static_cast<std::uint64_t>(kEdge));

  // Zero overhead: the busy time is one edge-length bill per request.
  const double per_request = model.price_analytic(kEdge).latency.as_us();
  EXPECT_GT(per_request, 0.0);
  EXPECT_NEAR(result.busy_ticks, static_cast<double>(kArrivals) * per_request,
              1e-9 * result.busy_ticks);
}

// ---------- stats surfacing through the serve layer ----------

TEST(CostCache, ServerSnapshotsModelCacheLedger) {
  const BatchEncoderSim model(tiny_cfg(), kBert);
  model.cost_cache().reset_stats();
  sim::BatchScheduler sched(2);
  serve::StarServer server(model, sched);
  std::vector<std::future<serve::AnalyticResponse>> futs;
  for (int i = 0; i < 12; ++i) {
    futs.push_back(server.submit(serve::AnalyticRequest{48}));
  }
  for (auto& fut : futs) {
    (void)fut.get();
  }
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.cost_cache_lookups, 12u);
  EXPECT_EQ(stats.cost_cache_misses, 1u);
  EXPECT_EQ(stats.cost_cache_hits, 11u);
  EXPECT_EQ(stats.cost_cache_bypasses, 0u);
  EXPECT_DOUBLE_EQ(stats.cost_cache_hit_rate, 11.0 / 12.0);
  server.shutdown();
}

TEST(CostCache, ClusterSumsPerNodeCacheLedgers) {
  serve::ClusterOptions opts;
  opts.num_nodes = 2;
  opts.threads_per_node = 1;
  opts.policy = serve::RoutePolicyKind::kRoundRobin;
  serve::Cluster cluster(tiny_cfg(), kBert, opts);
  std::vector<std::future<serve::AnalyticResponse>> futs;
  for (int i = 0; i < 8; ++i) {
    futs.push_back(cluster.submit(serve::AnalyticRequest{32}));
  }
  for (auto& fut : futs) {
    (void)fut.get();
  }
  cluster.shutdown();
  const serve::ClusterStats stats = cluster.stats();
  std::uint64_t per_node_lookups = 0;
  for (const serve::ServerStats& node : stats.per_node) {
    per_node_lookups += node.cost_cache_lookups;
  }
  EXPECT_EQ(stats.cost_cache_lookups, per_node_lookups);
  EXPECT_EQ(stats.cost_cache_lookups, 8u);
  // Round-robin over 2 nodes with one length: each node misses once.
  EXPECT_EQ(stats.cost_cache_misses, 2u);
  EXPECT_EQ(stats.cost_cache_hits, 6u);
  EXPECT_DOUBLE_EQ(stats.cost_cache_hit_rate, 6.0 / 8.0);
}

}  // namespace
}  // namespace star
