// Sharded crossbar tiles: the xbar::ShardedMapper block grid, the
// core::ShardedMatmulEngine interconnect composition, num_shards flowing
// through the accelerator / encoder / serving layers, and the golden file
// of every crossbar accelerator cost figure.
//
// Anchoring invariant: K = 1 is the unsharded engine BY CONSTRUCTION —
// every K = 1 quantity must be bit-identical (exact doubles) to the
// monolithic MatmulEngine / stage-time expressions. Sharding may only ever
// EXTEND the cost model, never perturb it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "baseline/pipelayer.hpp"
#include "baseline/retransformer.hpp"
#include "core/batch_encoder.hpp"
#include "core/encoder_model.hpp"
#include "core/encoder_stack.hpp"
#include "core/sharded_matmul.hpp"
#include "core/weight_images.hpp"
#include "serve/star_server.hpp"
#include "sim/batch_scheduler.hpp"
#include "util/status.hpp"
#include "workload/trace_gen.hpp"
#include "xbar/sharded_mapper.hpp"

namespace star {
namespace {

using core::ShardedMatmulEngine;
using xbar::ShardPolicy;

const ShardPolicy kPolicies[] = {ShardPolicy::kRow, ShardPolicy::kColumn,
                                 ShardPolicy::kBlockCyclic};

core::StarConfig cfg_with_shards(int num_shards,
                                 ShardPolicy policy = ShardPolicy::kRow) {
  core::StarConfig cfg;
  cfg.num_shards = num_shards;
  cfg.shard_policy = policy;
  return cfg;
}

/// A sharded engine over a standalone base engine (the accelerator's
/// calibrated per-row overhead).
struct EngineUnderTest {
  explicit EngineUnderTest(const core::StarConfig& cfg)
      : base(cfg), sharded(base, cfg, core::SystemOverheads{}.per_row_overhead) {}
  EngineUnderTest(int num_shards, ShardPolicy policy)
      : EngineUnderTest(cfg_with_shards(num_shards, policy)) {}
  core::MatmulEngine base;
  ShardedMatmulEngine sharded;
};

// ---------- ShardedMapper: the block grid ----------

/// The slices and hop widths a plan visits, in visiting order.
struct PlanLists {
  std::vector<std::pair<std::int64_t, std::int64_t>> slices;
  std::vector<std::int64_t> hops;
};

PlanLists lists_of(const xbar::ShardPlan& plan) {
  PlanLists out;
  plan.for_each_slice(
      [&](std::int64_t m, std::int64_t n) { out.slices.emplace_back(m, n); });
  plan.for_each_hop_width([&](std::int64_t w) { out.hops.push_back(w); });
  return out;
}

xbar::ShardPlan plan(int num_shards, ShardPolicy policy, std::int64_t m,
                     std::int64_t n) {
  return xbar::ShardedMapper(num_shards, policy).plan_for(m, n);
}

TEST(ShardedMapper, RowPolicySlicesPartitionM) {
  const auto p = lists_of(plan(4, ShardPolicy::kRow, 100, 40));
  ASSERT_EQ(p.slices.size(), 4u);
  std::int64_t sum = 0;
  for (const auto& [m, n] : p.slices) {
    EXPECT_EQ(n, 40);
    EXPECT_GE(m, 25);
    EXPECT_LE(m, 26);  // near-equal: sizes differ by at most 1
    sum += m;
  }
  EXPECT_EQ(sum, 100);
}

TEST(ShardedMapper, ColumnPolicySlicesPartitionN) {
  const auto p = lists_of(plan(3, ShardPolicy::kColumn, 64, 40));
  ASSERT_EQ(p.slices.size(), 3u);
  std::int64_t sum = 0;
  for (const auto& [m, n] : p.slices) {
    EXPECT_EQ(m, 64);
    sum += n;
  }
  EXPECT_EQ(sum, 40);
  EXPECT_EQ(p.slices[0].second, 14);  // the remainder lands on the first slices
  EXPECT_EQ(p.slices[2].second, 13);
}

TEST(ShardedMapper, BlockCyclicFactorsNearSquare) {
  // K = 4 -> 2 x 2 blocks; K = 6 -> 2 x 3; K = 8 -> 2 x 4; prime K = 3 ->
  // 1 x 3 (column).
  const auto p4 = plan(4, ShardPolicy::kBlockCyclic, 100, 40);
  EXPECT_EQ(p4.rk, 2);
  EXPECT_EQ(p4.ck, 2);
  const auto s4 = lists_of(p4).slices;
  ASSERT_EQ(s4.size(), 4u);
  EXPECT_EQ(s4[0], std::make_pair(std::int64_t{50}, std::int64_t{20}));
  const auto s6 = lists_of(plan(6, ShardPolicy::kBlockCyclic, 100, 40)).slices;
  ASSERT_EQ(s6.size(), 6u);
  EXPECT_EQ(s6[0].first, 50);   // 2 row blocks
  EXPECT_EQ(s6[0].second, 14);  // 3 column blocks
  // Row-major over (row block, column block).
  EXPECT_EQ(s6[3], std::make_pair(std::int64_t{50}, std::int64_t{14}));
  EXPECT_EQ(s6[5], std::make_pair(std::int64_t{50}, std::int64_t{13}));
  const auto p8 = plan(8, ShardPolicy::kBlockCyclic, 100, 40);
  EXPECT_EQ(p8.rk, 2);
  EXPECT_EQ(p8.ck, 4);
  const auto p3 = plan(3, ShardPolicy::kBlockCyclic, 100, 40);
  EXPECT_EQ(p3.rk, 1);  // degenerates to a pure column split
  EXPECT_EQ(lists_of(p3).slices[0].first, 100);
}

TEST(ShardedMapper, SingleShardPlanIsMonolithic) {
  for (const auto policy : kPolicies) {
    const auto p = plan(1, policy, 300, 70);
    const auto l = lists_of(p);
    ASSERT_EQ(l.slices.size(), 1u);
    EXPECT_EQ(l.slices[0], std::make_pair(std::int64_t{300}, std::int64_t{70}));
    EXPECT_EQ(p.merge_levels, 0);
    EXPECT_TRUE(l.hops.empty());
    EXPECT_EQ(p.max_hop_width(), 0);
  }
}

TEST(ShardedMapper, HopShapesPerPolicy) {
  // Row: K-1 full-width ADD hops.
  const auto row = plan(4, ShardPolicy::kRow, 100, 40);
  EXPECT_EQ(lists_of(row).hops, (std::vector<std::int64_t>{40, 40, 40}));
  EXPECT_EQ(row.merge_levels, 2);
  EXPECT_EQ(row.max_hop_width(), 40);
  // Column: K-1 slice-width gather hops (slices 1..K-1), no adds.
  const auto col = plan(4, ShardPolicy::kColumn, 100, 42);
  EXPECT_EQ(lists_of(col).hops, (std::vector<std::int64_t>{11, 10, 10}));
  EXPECT_EQ(col.max_hop_width(), 11);
  // Block 2 x 4: one ADD hop per column group, then the gathers of column
  // groups 1..3.
  const auto blk = plan(8, ShardPolicy::kBlockCyclic, 100, 42);
  EXPECT_EQ(lists_of(blk).hops,
            (std::vector<std::int64_t>{11, 11, 10, 10, 11, 10, 10}));
  EXPECT_EQ(blk.max_hop_width(), 11);
  // Merge depth is logarithmic in K.
  EXPECT_EQ(plan(2, ShardPolicy::kRow, 64, 8).merge_levels, 1);
  EXPECT_EQ(plan(8, ShardPolicy::kRow, 64, 8).merge_levels, 3);
}

TEST(ShardedMapper, DynamicCellWritesConservedExactly) {
  const xbar::Mapper base(128, 32, 4);
  for (const auto policy : kPolicies) {
    for (const int k : {2, 3, 4, 8}) {
      std::int64_t writes = 0;
      plan(k, policy, 96, 48).for_each_slice([&](std::int64_t m, std::int64_t n) {
        writes += base.map_dynamic(8, m, n).cell_writes;
      });
      EXPECT_EQ(writes, base.map_dynamic(8, 96, 48).cell_writes)
          << to_string(policy) << " K=" << k;
    }
  }
}

TEST(ShardedMapper, MacsConservedAcrossPoliciesAndShardCounts) {
  const xbar::Mapper base(128, 32, 4);
  const std::int64_t geoms[][2] = {{64, 64}, {128, 768}, {768, 768}, {100, 40}};
  for (const auto policy : kPolicies) {
    for (const int k : {1, 2, 3, 4, 8}) {
      for (const auto& g : geoms) {
        double macs = 0.0;
        plan(k, policy, g[0], g[1]).for_each_slice(
            [&](std::int64_t m, std::int64_t n) {
              macs += base.map_static(16, m, n).mac_ops;
            });
        // Integer-valued doubles: the sum is exact, not just close.
        EXPECT_DOUBLE_EQ(macs, 16.0 * static_cast<double>(g[0]) *
                                   static_cast<double>(g[1]))
            << to_string(policy) << " K=" << k;
      }
    }
  }
}

TEST(ShardedMapper, RejectsInfeasiblePartitions) {
  EXPECT_THROW(xbar::ShardedMapper(0, ShardPolicy::kRow), InvalidArgument);
  EXPECT_THROW(xbar::ShardedMapper(-2, ShardPolicy::kRow), InvalidArgument);
  // Every shard must receive a non-empty slice: rk <= m and ck <= n.
  EXPECT_THROW((void)plan(4, ShardPolicy::kRow, 3, 64), InvalidArgument);
  EXPECT_THROW((void)plan(4, ShardPolicy::kColumn, 64, 3), InvalidArgument);
  EXPECT_THROW((void)plan(4, ShardPolicy::kBlockCyclic, 1, 64), InvalidArgument);
  EXPECT_THROW((void)plan(8, ShardPolicy::kBlockCyclic, 64, 3), InvalidArgument);
  EXPECT_THROW((void)plan(2, ShardPolicy::kRow, 0, 4), InvalidArgument);
  EXPECT_NO_THROW((void)plan(4, ShardPolicy::kRow, 4, 1));
}

// ---------- ShardedMatmulEngine: K = 1 exact identity ----------

TEST(ShardedMatmul, SingleShardStreamCostBitIdenticalToBase) {
  const std::int64_t geoms[][3] = {
      {128, 768, 768}, {128, 64, 128}, {128, 128, 64}, {16, 768, 3072}, {1, 1, 1}};
  for (const auto policy : kPolicies) {
    const EngineUnderTest eng(1, policy);
    for (const auto& g : geoms) {
      for (const bool dynamic : {false, true}) {
        const auto ref = eng.base.stream_cost(g[0], g[1], g[2], dynamic);
        const auto got = eng.sharded.stream_cost(g[0], g[1], g[2], dynamic);
        // Exact double equality on every field — delegation, not recomputation.
        EXPECT_EQ(got.total.latency.as_s(), ref.latency.as_s());
        EXPECT_EQ(got.total.row_service.as_s(), ref.row_service.as_s());
        EXPECT_EQ(got.total.energy.as_J(), ref.energy.as_J());
        EXPECT_EQ(got.total.write_energy.as_J(), ref.write_energy.as_J());
        EXPECT_EQ(got.total.write_latency.as_s(), ref.write_latency.as_s());
        EXPECT_EQ(got.total.tile_ops, ref.tile_ops);
        EXPECT_EQ(got.total.tiles, ref.tiles);
        EXPECT_EQ(got.total.macs, ref.macs);
        EXPECT_EQ(got.interconnect_latency.as_s(), 0.0);
        EXPECT_EQ(got.interconnect_energy.as_J(), 0.0);
      }
    }
  }
}

TEST(ShardedMatmul, SingleShardRowServiceIsLegacyExpression) {
  for (const auto policy : kPolicies) {
    const EngineUnderTest eng(1, policy);
    const Time mono =
        eng.base.tile_latency() + core::SystemOverheads{}.per_row_overhead;
    EXPECT_EQ(eng.sharded.row_service(768, 768).as_s(), mono.as_s());
    EXPECT_EQ(eng.sharded.row_service(64, 128).as_s(), mono.as_s());
    EXPECT_EQ(eng.sharded.row_service(768, 3072).as_s(), mono.as_s());
    const auto w = eng.sharded.weight_image_cost(256, 3072);
    EXPECT_EQ(w.latency.as_s(), eng.base.weight_image_cost(256, 3072).latency.as_s());
    EXPECT_EQ(w.energy.as_J(), eng.base.weight_image_cost(256, 3072).energy.as_J());
  }
}

// ---------- ShardedMatmulEngine: composition invariants ----------

/// The per-row link streaming time: how much the interconnect latency grows
/// with one more input row (the merge fill is paid once).
double link_row_ns(const ShardedMatmulEngine& eng, std::int64_t m, std::int64_t n) {
  return (eng.stream_cost(2, m, n, false).interconnect_latency -
          eng.stream_cost(1, m, n, false).interconnect_latency)
      .as_ns();
}

TEST(ShardedMatmul, LatencyComposesMaxShardComputePlusInterconnect) {
  for (const auto policy : kPolicies) {
    const EngineUnderTest eng(4, policy);
    const auto c = eng.sharded.stream_cost(128, 768, 768, false);
    Time max_compute{};
    int shards = 0;
    plan(4, policy, 768, 768).for_each_slice([&](std::int64_t m, std::int64_t n) {
      max_compute = std::max(max_compute, eng.base.stream_cost(128, m, n, false).latency);
      ++shards;
    });
    EXPECT_EQ(shards, 4);
    EXPECT_EQ(c.total.latency.as_s(), (max_compute + c.interconnect_latency).as_s());
  }
}

TEST(ShardedMatmul, InterconnectPositiveIffSharded) {
  for (const auto policy : kPolicies) {
    for (const int k : {2, 4, 8}) {
      const EngineUnderTest eng(k, policy);
      const auto c = eng.sharded.stream_cost(64, 768, 768, false);
      EXPECT_GT(c.interconnect_latency.as_ns(), 0.0)
          << to_string(policy) << " K=" << k;
      EXPECT_GT(c.interconnect_energy.as_pJ(), 0.0)
          << to_string(policy) << " K=" << k;
    }
    const auto mono = EngineUnderTest(1, policy).sharded.stream_cost(64, 768, 768, false);
    EXPECT_EQ(mono.interconnect_latency.as_s(), 0.0);
    EXPECT_EQ(mono.interconnect_energy.as_J(), 0.0);
  }
}

TEST(ShardedMatmul, CostConservationAcrossPolicyAndShardSweep) {
  const EngineUnderTest mono_eng(1, ShardPolicy::kRow);
  const std::int64_t geoms[][3] = {
      {16, 64, 64}, {128, 768, 768}, {16, 768, 3072}, {128, 64, 128}};
  for (const auto& g : geoms) {
    const auto mono = mono_eng.sharded.stream_cost(g[0], g[1], g[2], false);
    for (const auto policy : kPolicies) {
      for (const int k : {2, 4, 8}) {
        const auto c =
            EngineUnderTest(k, policy).sharded.stream_cost(g[0], g[1], g[2], false);
        // Work is conserved exactly; silicon and energy never shrink:
        // slices round up to whole tiles and the merge traffic is extra.
        EXPECT_DOUBLE_EQ(c.total.macs, mono.total.macs)
            << to_string(policy) << " K=" << k;
        EXPECT_GE(c.total.tiles, mono.total.tiles);
        EXPECT_GE(c.total.tile_ops, mono.total.tile_ops);
        EXPECT_GE(c.total.energy.as_J(), mono.total.energy.as_J());
      }
    }
  }
}

TEST(ShardedMatmul, DynamicWritesConservedAndProgrammedInParallel) {
  const auto mono =
      EngineUnderTest(1, ShardPolicy::kRow).sharded.stream_cost(128, 64, 128, true);
  for (const auto policy : kPolicies) {
    for (const int k : {2, 4}) {
      const auto c = EngineUnderTest(k, policy).sharded.stream_cost(128, 64, 128, true);
      // Same cells programmed (slices tile the matrix); tiny FP slack for
      // the per-shard product-then-sum order.
      EXPECT_NEAR(c.total.write_energy.as_J(), mono.total.write_energy.as_J(),
                  1e-12 * mono.total.write_energy.as_J());
      // Shards program concurrently: the write wall is the deepest slice,
      // never more than the monolithic stripe.
      EXPECT_LE(c.total.write_latency.as_s(), mono.total.write_latency.as_s());
      if (policy == ShardPolicy::kRow) {
        EXPECT_LT(c.total.write_latency.as_s(), mono.total.write_latency.as_s());
      }
    }
  }
}

TEST(ShardedMatmul, RowOverheadMonotoneWithDiminishingReturns) {
  for (const auto policy : kPolicies) {
    std::vector<double> overhead_ns;
    for (const int k : {2, 4, 8, 16}) {
      const EngineUnderTest eng(k, policy);
      overhead_ns.push_back(
          (eng.sharded.row_service(768, 768) - eng.base.tile_latency()).as_ns());
    }
    for (std::size_t i = 1; i < overhead_ns.size(); ++i) {
      EXPECT_LT(overhead_ns[i], overhead_ns[i - 1])
          << to_string(policy) << " step " << i;
    }
    // Diminishing returns: each doubling shaves less than the one before.
    for (std::size_t i = 2; i < overhead_ns.size(); ++i) {
      EXPECT_LT(overhead_ns[i - 1] - overhead_ns[i],
                overhead_ns[i - 2] - overhead_ns[i - 1])
          << to_string(policy) << " step " << i;
    }
  }
}

TEST(ShardedMatmul, WideOutputsStreamMoreLinkFlits) {
  const EngineUnderTest row(4, ShardPolicy::kRow);
  // Row policy merges full-width partial sums: the d_ff-wide FFN output
  // streams more flits per row than the d_model-wide projection.
  const double narrow = link_row_ns(row.sharded, 768, 768);
  const double wide = link_row_ns(row.sharded, 768, 3072);
  EXPECT_GT(wide, narrow);
  // Column policy moves only slice-width results: cheaper than row policy
  // on the same geometry.
  const EngineUnderTest col(4, ShardPolicy::kColumn);
  EXPECT_LT(link_row_ns(col.sharded, 768, 3072), wide);
}

TEST(ShardedMatmul, SingleTileGridGainsNothingLocally) {
  const EngineUnderTest eng(4, ShardPolicy::kRow);
  // A 1-tile matmul has no accumulation network to shrink: the local share
  // stays the full calibrated overhead (no free lunch); the 16-wide partial
  // sums stream in one flit per row.
  const auto grid = eng.base.mapper().grid_for(16, 16);
  ASSERT_EQ(grid.total(), 1);
  const Time expect = eng.base.tile_latency() +
                      core::SystemOverheads{}.per_row_overhead +
                      core::StarConfig{}.tech.clock_period() * 1.0;
  EXPECT_EQ(eng.sharded.row_service(16, 16).as_s(), expect.as_s());
}

TEST(ShardedMatmul, RejectsBadArguments) {
  const EngineUnderTest eng(1, ShardPolicy::kRow);
  EXPECT_THROW((void)eng.sharded.stream_cost(0, 8, 8, false), InvalidArgument);
  EXPECT_THROW(ShardedMatmulEngine(eng.base, cfg_with_shards(0), Time::ns(800.0)),
               InvalidArgument);
  // Row policy cannot feed 8 shards from 4 rows.
  const EngineUnderTest eight(8, ShardPolicy::kRow);
  EXPECT_THROW((void)eight.sharded.stream_cost(8, 4, 64, false), InvalidArgument);
  EXPECT_THROW((void)eight.sharded.row_service(4, 64), InvalidArgument);
  EXPECT_THROW((void)eight.sharded.weight_image_cost(4, 64), InvalidArgument);
  EXPECT_THROW(core::StarConfig bad = cfg_with_shards(0); bad.validate(),
               InvalidArgument);
  EXPECT_THROW(core::StarConfig bad = cfg_with_shards(257); bad.validate(),
               InvalidArgument);
}

// ---------- accelerator / encoder integration ----------

TEST(ShardedAccelerator, MonolithicConfigReportsNoInterconnect) {
  const core::StarAccelerator acc(cfg_with_shards(1));
  const auto res = acc.run_attention_layer(nn::BertConfig::base(), 128);
  EXPECT_EQ(res.num_shards, 1);
  EXPECT_EQ(res.interconnect_latency.as_s(), 0.0);
  EXPECT_EQ(res.interconnect_energy.as_J(), 0.0);
  // Stage times are the legacy single-figure expression.
  const auto t = acc.stage_times(nn::BertConfig::base(), 128);
  const Time mm_row = acc.matmul_engine().tile_latency() +
                      acc.overheads().per_row_overhead;
  EXPECT_EQ(t.proj_row.as_s(), mm_row.as_s());
  EXPECT_EQ(t.score_row.as_s(), mm_row.as_s());
  EXPECT_EQ(t.context_row.as_s(), mm_row.as_s());
  EXPECT_EQ(t.outproj_row.as_s(), mm_row.as_s());
}

TEST(ShardedAccelerator, FourShardsSpeedUpBertBaseAttention) {
  const nn::BertConfig bert = nn::BertConfig::base();
  const core::StarAccelerator mono(cfg_with_shards(1));
  for (const auto policy : kPolicies) {
    const core::StarAccelerator sharded(cfg_with_shards(4, policy));
    const auto a = mono.run_attention_layer(bert, 128);
    const auto b = sharded.run_attention_layer(bert, 128);
    EXPECT_LT(b.latency.as_us(), a.latency.as_us()) << to_string(policy);
    EXPECT_GT(b.interconnect_latency.as_us(), 0.0) << to_string(policy);
    EXPECT_GT(b.interconnect_energy.as_uJ(), 0.0) << to_string(policy);
    EXPECT_GE(b.energy.as_J(), a.energy.as_J()) << to_string(policy);
    EXPECT_GE(b.matmul_tiles, a.matmul_tiles) << to_string(policy);
    EXPECT_EQ(b.num_shards, 4);
  }
}

TEST(ShardedAccelerator, ShardedStageTimesAreGeometryDependent) {
  const core::StarAccelerator acc(cfg_with_shards(4));
  const auto t = acc.stage_times(nn::BertConfig::base(), 128);
  // Projection (768x768, 144 tiles) shards well; the context matmul
  // (128x64, 2 tiles) barely has a network to split — its row service
  // stays closer to the calibrated figure.
  EXPECT_LT(t.proj_row.as_ns(), t.context_row.as_ns());
  const Time legacy = acc.matmul_engine().tile_latency() +
                      acc.overheads().per_row_overhead;
  EXPECT_LT(t.proj_row.as_ns(), legacy.as_ns());
  EXPECT_LE(t.context_row.as_ns(), legacy.as_ns());
}

TEST(ShardedEncoder, LayerAccountsInterconnectAndSpeedsUp) {
  const nn::BertConfig bert = nn::BertConfig::base();
  const core::EncoderModel mono(cfg_with_shards(1));
  const core::EncoderModel sharded(cfg_with_shards(4));
  const auto a = mono.run_encoder_layer(bert, 128);
  const auto b = sharded.run_encoder_layer(bert, 128);
  EXPECT_EQ(a.interconnect_latency.as_s(), 0.0);
  EXPECT_EQ(a.interconnect_energy.as_J(), 0.0);
  EXPECT_LT(b.latency.as_us(), a.latency.as_us());
  EXPECT_GT(b.interconnect_latency.as_us(), 0.0);
  EXPECT_GT(b.interconnect_energy.as_uJ(), 0.0);
  EXPECT_GE(b.energy.as_J(), a.energy.as_J());
}

TEST(ShardedEncoder, StackMakespanShrinksAtDepth) {
  const nn::BertConfig bert = nn::BertConfig::base();
  const core::EncoderStackModel mono(cfg_with_shards(1));
  const core::EncoderStackModel sharded(cfg_with_shards(4));
  const auto a = mono.run_encoder_stack(bert, 128, 6);
  const auto b = sharded.run_encoder_stack(bert, 128, 6);
  EXPECT_LT(b.latency.as_us(), a.latency.as_us());
  EXPECT_GE(b.energy.as_J(), a.energy.as_J());
  EXPECT_GT(b.stack_speedup, 1.0);  // the stack overlap survives sharding
}

TEST(ShardedEncoder, MoreShardsKeepHelpingBertBase) {
  // Monotone end-to-end: each doubling shortens the BERT-base layer (wide
  // grids shard well at these K), with diminishing gains.
  const nn::BertConfig bert = nn::BertConfig::base();
  std::vector<double> latency_us;
  for (const int k : {1, 2, 4, 8}) {
    const core::EncoderModel model(cfg_with_shards(k));
    latency_us.push_back(model.run_encoder_layer(bert, 128).latency.as_us());
  }
  for (std::size_t i = 1; i < latency_us.size(); ++i) {
    EXPECT_LT(latency_us[i], latency_us[i - 1]) << "K step " << i;
  }
}

// ---------- golden: every crossbar accelerator cost figure ----------
//
// tests/golden/accelerator_costs.csv pins the cost figures of the crossbar
// accelerator models against recorded values, not against a second
// implementation: one row per (cell, field), doubles in SI units written
// with %.17g so the comparison is bitwise. STAR is priced at K = 1, 2, 4
// and 8 shards under every policy: the five BERT-base matmuls at b = 128
// (every MatmulCost field, the interconnect split and the stage row
// service), the six weight images of one layer, the attention layer at
// L = 64/128/256/384 (every record field and the five stage times) and the
// encoder layer at L = 128. PipeLayer and ReTransformer, which take no
// shard count, are priced once per length. On a mismatch or a missing file
// the test prints every computed row in the file's format. There is no
// switch that rewrites the file: changing it is a change of the cost model
// and needs a stated reason.

const char* const kCostsGolden = STAR_TEST_GOLDEN_DIR "/accelerator_costs.csv";
const std::int64_t kGoldenLengths[] = {64, 128, 256, 384};

class CostRows {
 public:
  void add(const std::string& cell, const char* field, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    rows_.push_back(cell + ',' + field + ',' + buf);
  }
  void add(const std::string& cell, const char* field, std::int64_t v) {
    rows_.push_back(cell + ',' + field + ',' + std::to_string(v));
  }
  void add(const std::string& cell, const char* field, const std::string& v) {
    rows_.push_back(cell + ',' + field + ',' + v);
  }

  void add_report(const std::string& cell, const hw::RunReport& r) {
    add(cell, "engine_name", r.engine_name);
    add(cell, "total_ops", r.total_ops);
    add(cell, "report_latency_s", r.latency.as_s());
    add(cell, "report_energy_j", r.energy.as_J());
    add(cell, "report_avg_power_w", r.avg_power.as_W());
  }

  void add_attention(const std::string& cell, const core::AttentionRunResult& r,
                     const core::StageTimes& t) {
    add_report(cell, r.report);
    add(cell, "latency_s", r.latency.as_s());
    add(cell, "energy_j", r.energy.as_J());
    add(cell, "power_w", r.power.as_W());
    add(cell, "softmax_block_latency_s", r.softmax_block_latency.as_s());
    add(cell, "softmax_energy_j", r.softmax_energy.as_J());
    add(cell, "write_energy_j", r.write_energy.as_J());
    add(cell, "matmul_tiles", r.matmul_tiles);
    add(cell, "softmax_engines", std::int64_t{r.softmax_engines});
    add(cell, "pipeline_speedup", r.pipeline_speedup);
    add(cell, "num_shards", std::int64_t{r.num_shards});
    add(cell, "interconnect_latency_s", r.interconnect_latency.as_s());
    add(cell, "interconnect_energy_j", r.interconnect_energy.as_J());
    add(cell, "proj_row_s", t.proj_row.as_s());
    add(cell, "score_row_s", t.score_row.as_s());
    add(cell, "softmax_row_s", t.softmax_row.as_s());
    add(cell, "context_row_s", t.context_row.as_s());
    add(cell, "outproj_row_s", t.outproj_row.as_s());
  }

  [[nodiscard]] const std::vector<std::string>& rows() const { return rows_; }

 private:
  std::vector<std::string> rows_;
};

void add_star_rows(CostRows& out, int num_shards, ShardPolicy policy) {
  const nn::BertConfig bert = nn::BertConfig::base();
  const core::StarConfig cfg = cfg_with_shards(num_shards, policy);
  const std::string prefix =
      "K" + std::to_string(num_shards) + '/' + xbar::to_string(policy) + '/';

  const core::StarAccelerator acc(cfg);
  const ShardedMatmulEngine& mm = acc.sharded_matmul();
  struct Shape {
    const char* name;
    std::int64_t m, n;
    bool dynamic;
  };
  const Shape shapes[] = {{"proj", bert.d_model, bert.d_model, false},
                          {"score", bert.d_head(), 128, true},
                          {"context", 128, bert.d_head(), true},
                          {"ff1", bert.d_model, bert.d_ff, false},
                          {"ff2", bert.d_ff, bert.d_model, false}};
  for (const Shape& s : shapes) {
    const std::string cell = prefix + "matmul/" + s.name;
    const core::ShardedMatmulCost c = mm.stream_cost(128, s.m, s.n, s.dynamic);
    out.add(cell, "latency_s", c.total.latency.as_s());
    out.add(cell, "row_service_s", c.total.row_service.as_s());
    out.add(cell, "energy_j", c.total.energy.as_J());
    out.add(cell, "write_energy_j", c.total.write_energy.as_J());
    out.add(cell, "write_latency_s", c.total.write_latency.as_s());
    out.add(cell, "tile_ops", c.total.tile_ops);
    out.add(cell, "tiles", c.total.tiles);
    out.add(cell, "macs", c.total.macs);
    out.add(cell, "interconnect_latency_s", c.interconnect_latency.as_s());
    out.add(cell, "interconnect_energy_j", c.interconnect_energy.as_J());
    out.add(cell, "stage_row_service_s", mm.row_service(s.m, s.n).as_s());
  }
  for (const core::LayerWeightImage& w : core::layer_weight_images(bert)) {
    const std::string cell =
        prefix + "weight_image/" + std::to_string(w.slot);
    const hw::ProgramCost pc = mm.weight_image_cost(w.m, w.n);
    out.add(cell, "latency_s", pc.latency.as_s());
    out.add(cell, "energy_j", pc.energy.as_J());
  }
  for (const std::int64_t len : kGoldenLengths) {
    out.add_attention(prefix + "attention/L" + std::to_string(len),
                      acc.run_attention_layer(bert, len), acc.stage_times(bert, len));
  }

  const core::EncoderModel encoder(cfg);
  const core::EncoderRunResult e = encoder.run_encoder_layer(bert, 128);
  const std::string cell = prefix + "encoder/L128";
  out.add_report(cell, e.report);
  out.add(cell, "latency_s", e.latency.as_s());
  out.add(cell, "energy_j", e.energy.as_J());
  out.add(cell, "power_w", e.power.as_W());
  out.add(cell, "ffn_latency_s", e.ffn_latency.as_s());
  out.add(cell, "ffn_energy_j", e.ffn_energy.as_J());
  out.add(cell, "vector_unit_energy_j", e.vector_unit_energy.as_J());
  out.add(cell, "attention_time_share", e.attention_time_share);
  out.add(cell, "interconnect_latency_s", e.interconnect_latency.as_s());
  out.add(cell, "interconnect_energy_j", e.interconnect_energy.as_J());
  out.add(cell, "programming_latency_s", e.programming_latency.as_s());
  out.add(cell, "programming_energy_j", e.programming_energy.as_J());
}

std::vector<std::string> accelerator_cost_rows() {
  CostRows out;
  for (const int k : {1, 2, 4, 8}) {
    for (const ShardPolicy policy : kPolicies) {
      add_star_rows(out, k, policy);
    }
  }
  const nn::BertConfig bert = nn::BertConfig::base();
  const core::StarConfig cfg;
  const baseline::PipeLayerModel pipelayer(cfg);
  const baseline::ReTransformerModel retransformer(cfg);
  for (const std::int64_t len : kGoldenLengths) {
    const std::string l = "/L" + std::to_string(len);
    out.add_attention("pipelayer" + l, pipelayer.run_attention_layer(bert, len),
                      pipelayer.stage_times(bert, len));
    out.add_attention("retransformer" + l,
                      retransformer.run_attention_layer(bert, len),
                      retransformer.stage_times(bert, len));
  }
  return out.rows();
}

TEST(ShardedGolden, AcceleratorCostsMatchGolden) {
  std::vector<std::string> golden;
  {
    std::ifstream in(kCostsGolden);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      if (!line.empty()) {
        golden.push_back(line);
      }
    }
  }
  const std::vector<std::string> got = accelerator_cost_rows();
  EXPECT_FALSE(golden.empty()) << "missing or empty golden file: " << kCostsGolden;
  EXPECT_EQ(got.size(), golden.size()) << "row count differs";
  bool same = got.size() == golden.size();
  for (std::size_t i = 0; i < got.size() && i < golden.size(); ++i) {
    EXPECT_EQ(got[i], golden[i]) << "row " << i;
    same = same && got[i] == golden[i];
  }
  if (!same) {
    std::printf("computed rows:\ncell,field,value\n");
    for (const std::string& row : got) {
      std::printf("%s\n", row.c_str());
    }
  }
}

// ---------- functional / serving integration ----------

core::StarConfig tiny_sharded_cfg(int num_shards,
                                  ShardPolicy policy = ShardPolicy::kRow) {
  core::StarConfig cfg = cfg_with_shards(num_shards, policy);
  cfg.max_seq_len = 128;
  cfg.cam_miss_prob = 0.01;  // fault streams make seed drift visible
  return cfg;
}

const nn::BertConfig kTiny = nn::BertConfig::tiny();

TEST(ShardedFunctional, PayloadInvariantAcrossShardCountsAndPolicies) {
  // Sharding is an exact integer partial-sum reduce: the functional payload
  // must be bit-identical for every provisioned K, requested K and policy.
  const core::BatchEncoderSim mono(tiny_sharded_cfg(1), kTiny, 0xB127, 2);
  const auto inputs = workload::embedding_batch(
      2, 8, static_cast<std::size_t>(kTiny.d_model), 1.0, 0xA1);
  for (const auto& x : inputs) {
    const auto ref = mono.run_encoder_one(x, 0xFEED, 2, 1);
    for (const auto policy : kPolicies) {
      const core::BatchEncoderSim sharded(tiny_sharded_cfg(4, policy), kTiny,
                                          0xB127, 2);
      for (const std::int64_t k : {std::int64_t{1}, std::int64_t{2},
                                   std::int64_t{4}}) {
        EXPECT_TRUE(nn::Tensor::bit_identical(
            sharded.run_encoder_one(x, 0xFEED, 2, k), ref))
            << to_string(policy) << " K=" << k;
      }
    }
  }
}

TEST(ShardedFunctional, RunEncoderOneValidatesShardCount) {
  const core::BatchEncoderSim model(tiny_sharded_cfg(4), kTiny, 0xB127, 1);
  const auto inputs = workload::embedding_batch(
      1, 6, static_cast<std::size_t>(kTiny.d_model), 1.0, 0xA2);
  EXPECT_THROW((void)model.run_encoder_one(inputs[0], 1, 1, 0), InvalidArgument);
  EXPECT_THROW((void)model.run_encoder_one(inputs[0], 1, 1, 5), InvalidArgument);
  EXPECT_NO_THROW((void)model.run_encoder_one(inputs[0], 1, 1, 4));
}

TEST(ShardedFunctional, ClosedBatchForwardsShardCount) {
  const core::BatchEncoderSim model(tiny_sharded_cfg(4), kTiny, 0xB127, 1);
  const auto inputs = workload::embedding_batch(
      3, 7, static_cast<std::size_t>(kTiny.d_model), 1.0, 0xA3);
  sim::BatchScheduler sched(2);
  // Closed batch via the documented composition rule: index i runs with
  // seed workload::sequence_seed(run_seed, i).
  const auto out = sched.map<nn::Tensor>(inputs.size(), [&](std::size_t i) {
    return model.run_encoder_one(inputs[i], workload::sequence_seed(0x5EED, i),
                                 1, 4);
  });
  ASSERT_EQ(out.size(), inputs.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(nn::Tensor::bit_identical(
        out[i],
        model.run_encoder_one(inputs[i], workload::sequence_seed(0x5EED, i), 1, 4)));
  }
  // Out-of-range surfaces through the scheduler-composed path, too.
  EXPECT_THROW(
      (void)sched.map<nn::Tensor>(inputs.size(),
                                  [&](std::size_t i) {
                                    return model.run_encoder_one(
                                        inputs[i],
                                        workload::sequence_seed(0x5EED, i), 1,
                                        9);
                                  }),
      InvalidArgument);
}

/// Shared provisioned-4-shards serving model (construction dominates cost).
const core::BatchEncoderSim& served_model() {
  static const core::BatchEncoderSim model(tiny_sharded_cfg(4), kTiny, 0xB127, 2);
  return model;
}

TEST(ShardedServe, DeterministicAcrossPolicyThreadsAndShards) {
  const auto& model = served_model();
  const auto inputs = workload::embedding_batch(
      5, 8, static_cast<std::size_t>(kTiny.d_model), 1.0, 0xA4);

  // Solo references at K = 1: the payload contract says every admissible
  // shard count must reproduce them bit-for-bit.
  std::vector<nn::Tensor> expected;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expected.push_back(model.run_encoder_one(
        inputs[i], workload::sequence_seed(0x700 + i, 0), 2, 1));
  }
  for (const std::int64_t shards : {std::int64_t{1}, std::int64_t{2},
                                    std::int64_t{4}}) {
    for (const auto policy : {serve::AdmissionPolicy::kBlock,
                              serve::AdmissionPolicy::kReject,
                              serve::AdmissionPolicy::kShedOldest}) {
      for (const int threads : {1, 4}) {
        sim::BatchScheduler sched(threads);
        serve::ServerOptions opts;
        opts.max_queue = 64;  // ample: reject/shed never trigger
        opts.admission = policy;
        opts.batcher.max_batch = 3;
        serve::StarServer server(model, sched, opts);
        std::vector<std::future<serve::EncoderResponse>> futs;
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          futs.push_back(server.submit(
              serve::EncoderRequest{inputs[i], 0x700 + i, 2, shards}));
        }
        for (std::size_t i = 0; i < futs.size(); ++i) {
          EXPECT_TRUE(nn::Tensor::bit_identical(futs[i].get().output, expected[i]))
              << "shards " << shards << " threads " << threads;
        }
      }
    }
  }
}

TEST(ShardedServe, OutOfRangeShardCountResolvesFutureWithError) {
  const auto& model = served_model();
  const auto inputs = workload::embedding_batch(
      1, 8, static_cast<std::size_t>(kTiny.d_model), 1.0, 0xA5);
  sim::BatchScheduler sched(2);
  serve::StarServer server(model, sched);
  auto too_many = server.submit(serve::EncoderRequest{inputs[0], 0x1, 1, 5});
  EXPECT_THROW((void)too_many.get(), InvalidArgument);
  auto zero = server.submit(serve::EncoderRequest{inputs[0], 0x2, 1, 0});
  EXPECT_THROW((void)zero.get(), InvalidArgument);
  // The server survives bad requests: a good one still resolves.
  auto ok = server.submit(serve::EncoderRequest{inputs[0], 0x3, 1, 4});
  EXPECT_TRUE(nn::Tensor::bit_identical(
      ok.get().output,
      model.run_encoder_one(inputs[0], workload::sequence_seed(0x3, 0), 1, 4)));
}

}  // namespace
}  // namespace star
