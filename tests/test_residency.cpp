// Device residency: the LUT/CAM image + weight-upload cache threaded from
// xbar to serve.
//
// Load-bearing invariants:
//  * warm-cache bit-identity — with everything resident (the steady
//    single-dataset state) every engine/model result is bit-identical to
//    the legacy no-residency model, and the programming fields are exactly
//    zero (the delegation discipline of K = 1 shards and N = 1 stacks);
//  * LRU semantics — eviction order, capacity-1 thrash worst case, and
//    exact charge accounting on misses;
//  * serve determinism — mixed CNEWS/MRPC/CoLA traffic churns the cache
//    (nonzero miss/reprogram accounting end-to-end in ServerStats) while
//    every response payload stays bit-identical to its solo reference for
//    every admission policy x thread count (datasets are accounting-only).
#include <gtest/gtest.h>

#include <future>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/batch_encoder.hpp"
#include "core/encoder_model.hpp"
#include "core/encoder_stack.hpp"
#include "serve/star_server.hpp"
#include "sim/batch_scheduler.hpp"
#include "util/status.hpp"
#include "workload/trace_gen.hpp"
#include "xbar/residency.hpp"

namespace star {
namespace {

using core::BatchEncoderSim;
using core::ResidencyCharge;
using workload::Dataset;
using xbar::ImageKey;
using xbar::ResidencyManager;

hw::ProgramCost cost_of(double ns, double pj) {
  return hw::ProgramCost{Time::ns(ns), Energy::pJ(pj)};
}

ImageKey wkey(std::uint64_t id) { return xbar::weight_image_key(id); }

// ---------- hw::ProgramCost primitive ----------

TEST(ProgramCost, SerialAndParallelComposition) {
  const hw::ProgramCost a = cost_of(10.0, 2.0);
  const hw::ProgramCost b = cost_of(30.0, 5.0);
  const hw::ProgramCost serial = a + b;
  EXPECT_DOUBLE_EQ(serial.latency.as_ns(), 40.0);
  EXPECT_DOUBLE_EQ(serial.energy.as_pJ(), 7.0);
  const hw::ProgramCost par = a.parallel_with(b);
  EXPECT_DOUBLE_EQ(par.latency.as_ns(), 30.0);  // slower port paces
  EXPECT_DOUBLE_EQ(par.energy.as_pJ(), 7.0);    // charges add
  EXPECT_TRUE(hw::ProgramCost{}.is_zero());
  EXPECT_FALSE(a.is_zero());
}

// ---------- ImageKey identity ----------

TEST(ImageKey, LutKeysAreFormatValueIdentity) {
  // Same format value -> same key, regardless of how it was spelled.
  EXPECT_EQ(xbar::lut_image_key(fxp::kMrpcFormat),
            xbar::lut_image_key(fxp::make_unsigned(6, 3)));
  EXPECT_NE(xbar::lut_image_key(fxp::kMrpcFormat),
            xbar::lut_image_key(fxp::kCnewsFormat));
  // A weight key never collides with a LUT key, even on equal raw ids.
  const ImageKey lut = xbar::lut_image_key(fxp::kCnewsFormat);
  EXPECT_NE(wkey(lut.id), lut);
}

// ---------- ResidencyManager: hits, misses, charges ----------

TEST(ResidencyManager, MissChargesOnceThenHitsAreFree) {
  ResidencyManager mgr;  // unbounded
  const auto miss = mgr.acquire(wkey(1), cost_of(100.0, 7.0));
  EXPECT_FALSE(miss.hit);
  EXPECT_DOUBLE_EQ(miss.charged.latency.as_ns(), 100.0);
  EXPECT_DOUBLE_EQ(miss.charged.energy.as_pJ(), 7.0);
  const auto hit = mgr.acquire(wkey(1), cost_of(100.0, 7.0));
  EXPECT_TRUE(hit.hit);
  EXPECT_TRUE(hit.charged.is_zero());
  const auto s = mgr.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_DOUBLE_EQ(s.programming.latency.as_ns(), 100.0);
  EXPECT_DOUBLE_EQ(s.programming.energy.as_pJ(), 7.0);
}

TEST(ResidencyManager, AttributesHitsAndMissesByImageKind) {
  ResidencyManager mgr;
  (void)mgr.acquire(wkey(1), cost_of(1, 1));
  (void)mgr.acquire(wkey(1), cost_of(1, 1));
  (void)mgr.acquire(xbar::lut_image_key(fxp::kColaFormat), cost_of(1, 1));
  const auto s = mgr.stats();
  EXPECT_EQ(s.weight_misses, 1u);
  EXPECT_EQ(s.weight_hits, 1u);
  EXPECT_EQ(s.lut_misses, 1u);
  EXPECT_EQ(s.lut_hits, 0u);
  EXPECT_EQ(s.hits + s.misses, s.lookups);
}

TEST(ResidencyManager, InstallMarksResidentWithoutCharging) {
  ResidencyManager mgr;
  mgr.install(wkey(9));
  EXPECT_TRUE(mgr.resident(wkey(9)));
  EXPECT_EQ(mgr.stats().lookups, 0u);
  EXPECT_TRUE(mgr.acquire(wkey(9), cost_of(5, 5)).hit);
}

TEST(ResidencyManager, InstallEvictionsStillCountInStats) {
  ResidencyManager mgr(2);
  mgr.install(wkey(1));
  mgr.install(wkey(2));
  mgr.install(wkey(3));  // evicts 1 — no lookup/charge, but a real eviction
  EXPECT_EQ(mgr.stats().evictions, 1u);
  EXPECT_EQ(mgr.stats().lookups, 0u);
  EXPECT_FALSE(mgr.resident(wkey(1)));
}

TEST(ResidencyManager, LazyMissCostOnlyInvokedOnMiss) {
  ResidencyManager mgr;
  int priced = 0;
  const auto bill = [&] {
    ++priced;
    return cost_of(10.0, 1.0);
  };
  EXPECT_FALSE(mgr.acquire(wkey(1), bill).hit);
  EXPECT_EQ(priced, 1);
  EXPECT_TRUE(mgr.acquire(wkey(1), bill).hit);
  EXPECT_EQ(priced, 1);  // hits never price the bill
}

TEST(ResidencyManager, InvalidateAllDropsImagesKeepsStats) {
  ResidencyManager mgr;
  (void)mgr.acquire(wkey(1), cost_of(1, 1));
  mgr.invalidate_all();
  EXPECT_EQ(mgr.size(), 0u);
  EXPECT_FALSE(mgr.resident(wkey(1)));
  EXPECT_EQ(mgr.stats().misses, 1u);  // history survives the power cycle
  EXPECT_FALSE(mgr.acquire(wkey(1), cost_of(1, 1)).hit);  // cold again
}

// ---------- ResidencyManager: LRU eviction ----------

TEST(ResidencyManager, EvictsLeastRecentlyUsedFirst) {
  ResidencyManager mgr(3);
  (void)mgr.acquire(wkey(1), cost_of(1, 1));
  (void)mgr.acquire(wkey(2), cost_of(1, 1));
  (void)mgr.acquire(wkey(3), cost_of(1, 1));
  (void)mgr.acquire(wkey(1), cost_of(1, 1));  // refresh 1 -> LRU order 2,3,1
  const auto out = mgr.acquire(wkey(4), cost_of(1, 1));
  EXPECT_FALSE(out.hit);
  EXPECT_EQ(out.evictions, 1u);
  EXPECT_FALSE(mgr.resident(wkey(2)));  // 2 was least recent
  EXPECT_TRUE(mgr.resident(wkey(3)));
  EXPECT_TRUE(mgr.resident(wkey(1)));
  EXPECT_TRUE(mgr.resident(wkey(4)));
  // Next victim is 3: hits refresh recency, so touching 3 protects it.
  EXPECT_TRUE(mgr.acquire(wkey(3), cost_of(1, 1)).hit);
  (void)mgr.acquire(wkey(5), cost_of(1, 1));
  EXPECT_FALSE(mgr.resident(wkey(1)));  // 1 became least recent
  EXPECT_TRUE(mgr.resident(wkey(3)));
}

TEST(ResidencyManager, CapacityOneThrashesDeterministically) {
  // Worst case: two alternating images through a single slot — every
  // lookup after the first of each key is a miss AND an eviction, and the
  // full programming bill is charged every time.
  ResidencyManager mgr(1);
  const int rounds = 8;
  for (int i = 0; i < rounds; ++i) {
    EXPECT_FALSE(mgr.acquire(wkey(1), cost_of(10, 1)).hit) << i;
    EXPECT_FALSE(mgr.acquire(wkey(2), cost_of(10, 1)).hit) << i;
  }
  const auto s = mgr.stats();
  EXPECT_EQ(s.lookups, 2u * rounds);
  EXPECT_EQ(s.misses, 2u * rounds);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.evictions, 2u * rounds - 1);  // every insert but the first evicts
  EXPECT_DOUBLE_EQ(s.programming.latency.as_ns(), 10.0 * 2 * rounds);
  EXPECT_EQ(mgr.size(), 1u);
}

TEST(ResidencyManager, UnboundedCapacityNeverEvicts) {
  ResidencyManager mgr(0);
  for (std::uint64_t i = 0; i < 500; ++i) {
    (void)mgr.acquire(wkey(i), cost_of(1, 1));
  }
  EXPECT_EQ(mgr.size(), 500u);
  EXPECT_EQ(mgr.stats().evictions, 0u);
}

// ---------- xbar hooks: weight image programming bills ----------

TEST(WeightProgramCost, MatchesTheDynamicMatrixWriteRule) {
  const core::StarConfig cfg;
  const core::MatmulEngine eng(cfg);
  const hw::ProgramCost pc = eng.weight_image_cost(768, 768);
  // Same write model as stream_cost's dynamic-matrix path: identical
  // energy (all cells) and identical row-parallel latency.
  const core::MatmulCost dyn = eng.stream_cost(1, 768, 768, true);
  EXPECT_EQ(pc.energy.as_pJ(), dyn.write_energy.as_pJ());
  EXPECT_EQ(pc.latency.as_ns(), dyn.write_latency.as_ns());
}

TEST(WeightProgramCost, ShardedWritesParallelizeAndConserveEnergy) {
  const core::StarConfig mono_cfg;
  const core::MatmulEngine base(mono_cfg);
  const auto sharded = [&](int num_shards, xbar::ShardPolicy policy) {
    core::StarConfig cfg = mono_cfg;
    cfg.num_shards = num_shards;
    cfg.shard_policy = policy;
    return core::ShardedMatmulEngine(base, cfg, Time::ns(800.0));
  };
  // m = 256 so a kRow split (slices of 64 rows) genuinely undercuts the
  // 128-row tile depth that paces the monolithic write.
  const hw::ProgramCost mono =
      sharded(1, xbar::ShardPolicy::kRow).weight_image_cost(256, 3072);
  for (const auto policy : {xbar::ShardPolicy::kRow, xbar::ShardPolicy::kColumn,
                            xbar::ShardPolicy::kBlockCyclic}) {
    const hw::ProgramCost k4 = sharded(4, policy).weight_image_cost(256, 3072);
    // Slices partition the matrix exactly: total cell writes conserved.
    EXPECT_DOUBLE_EQ(k4.energy.as_pJ(), mono.energy.as_pJ())
        << xbar::to_string(policy);
    // Parallel write ports: never slower than the monolithic port.
    EXPECT_LE(k4.latency.as_ns(), mono.latency.as_ns()) << xbar::to_string(policy);
  }
  // K = 1 delegates to the monolithic Mapper bit-exactly, under any policy.
  const hw::ProgramCost k1_column =
      sharded(1, xbar::ShardPolicy::kColumn).weight_image_cost(256, 3072);
  EXPECT_EQ(k1_column.energy.as_pJ(), mono.energy.as_pJ());
  EXPECT_EQ(k1_column.latency.as_ns(), mono.latency.as_ns());
  EXPECT_EQ(k1_column.energy.as_pJ(),
            base.weight_image_cost(256, 3072).energy.as_pJ());
  // Four row-policy shards genuinely parallelise rows.
  const hw::ProgramCost k4_row =
      sharded(4, xbar::ShardPolicy::kRow).weight_image_cost(256, 3072);
  EXPECT_LT(k4_row.latency.as_ns(), mono.latency.as_ns());
}

// ---------- BatchEncoderSim: per-sim manager, warm bit-identity ----------

core::StarConfig tiny_cfg() {
  core::StarConfig cfg;
  cfg.max_seq_len = 128;
  return cfg;
}

const nn::BertConfig kBert = nn::BertConfig::tiny();

std::vector<nn::Tensor> test_inputs(std::size_t n, std::uint64_t seed,
                                    std::size_t seq_len = 10) {
  return workload::embedding_batch(
      n, seq_len, static_cast<std::size_t>(kBert.d_model), 1.0, seed);
}

TEST(BatchEncoderResidency, ConstructionInstallsEverythingWarm) {
  const BatchEncoderSim model(tiny_cfg(), kBert, 0xB127, /*stack_depth=*/2);
  // 2 layers x 6 weight images + the configured format's LUT image.
  EXPECT_EQ(model.residency().size(), 13u);
  EXPECT_EQ(model.residency().stats().lookups, 0u);  // installs don't count
  const hw::ProgramCost bill = model.initial_programming_cost();
  EXPECT_GT(bill.latency.as_ns(), 0.0);
  EXPECT_GT(bill.energy.as_pJ(), 0.0);
  // The one-time bill decomposes exactly: stack_depth layer sets + 1 LUT.
  const hw::ProgramCost expect =
      model.layer_weight_cost() * 2.0 + model.lut_image_cost(Dataset::kDefault);
  EXPECT_DOUBLE_EQ(bill.latency.as_ns(), expect.latency.as_ns());
  EXPECT_DOUBLE_EQ(bill.energy.as_pJ(), expect.energy.as_pJ());
}

TEST(BatchEncoderResidency, DefaultDatasetIsWarmFromRequestOne) {
  const BatchEncoderSim model(tiny_cfg(), kBert, 0xB127, 2);
  const auto inputs = test_inputs(1, 42);
  ResidencyCharge charge;
  (void)model.run_encoder_one(inputs[0], 7, 2, 1, Dataset::kDefault, &charge);
  EXPECT_TRUE(charge.programming.is_zero());
  EXPECT_EQ(charge.lut_misses, 0u);
  EXPECT_EQ(charge.weight_misses, 0u);
  EXPECT_EQ(charge.lut_hits, 1u);
  EXPECT_EQ(charge.weight_hits, 12u);  // 2 layers x 6 images
}

TEST(BatchEncoderResidency, DatasetIsPayloadInvariant) {
  // The acceptance-criterion contract: datasets select which LUT image is
  // charged, never what the datapath computes — so a mixed trace and a
  // default trace produce bit-identical payloads.
  core::StarConfig cfg = tiny_cfg();
  cfg.cam_miss_prob = 0.02;  // exercise the fault-RNG path too
  const BatchEncoderSim model(cfg, kBert, 0xB127, 2);
  const auto inputs = test_inputs(1, 43);
  const nn::Tensor ref = model.run_encoder_one(inputs[0], 99, 2);
  for (const auto d : {Dataset::kCnews, Dataset::kMrpc, Dataset::kCola}) {
    ResidencyCharge charge;
    const nn::Tensor got = model.run_encoder_one(inputs[0], 99, 2, 1, d, &charge);
    EXPECT_TRUE(nn::Tensor::bit_identical(got, ref)) << workload::to_string(d);
  }
}

TEST(BatchEncoderResidency, NamedDatasetMissesOnceThenHits) {
  const BatchEncoderSim model(tiny_cfg(), kBert);
  const auto inputs = test_inputs(1, 44);
  ResidencyCharge cold;
  (void)model.run_encoder_one(inputs[0], 1, 1, 1, Dataset::kCnews, &cold);
  EXPECT_EQ(cold.lut_misses, 1u);
  EXPECT_EQ(cold.lut_hits, 0u);
  const hw::ProgramCost expect = model.lut_image_cost(Dataset::kCnews);
  EXPECT_EQ(cold.programming.latency.as_ns(), expect.latency.as_ns());
  EXPECT_EQ(cold.programming.energy.as_pJ(), expect.energy.as_pJ());
  ResidencyCharge warm;
  (void)model.run_encoder_one(inputs[0], 1, 1, 1, Dataset::kCnews, &warm);
  EXPECT_EQ(warm.lut_misses, 0u);
  EXPECT_EQ(warm.lut_hits, 1u);
  EXPECT_TRUE(warm.programming.is_zero());
}

TEST(BatchEncoderResidency, DefaultFormatAliasesItsNamedDataset) {
  // tiny_cfg keeps the default MRPC (Q6.3u) format, so Dataset::kMrpc IS
  // the installed image: no misses even on its first use (value identity
  // of the ImageKey, not enum identity).
  const BatchEncoderSim model(tiny_cfg(), kBert);
  const auto inputs = test_inputs(1, 45);
  ResidencyCharge charge;
  (void)model.run_encoder_one(inputs[0], 1, 1, 1, Dataset::kMrpc, &charge);
  EXPECT_EQ(charge.lut_misses, 0u);
  EXPECT_EQ(charge.lut_hits, 1u);
}

TEST(BatchEncoderResidency, CapacityOneThrashReprogramsEveryRun) {
  core::StarConfig cfg = tiny_cfg();
  cfg.residency_capacity = 1;  // worst case: one slot for 7 touched images
  const BatchEncoderSim model(cfg, kBert);
  const auto inputs = test_inputs(1, 46);
  // Warm-up: construction left the LUT image (installed last) in the one
  // slot, so run 0 alone still hits it; from then on every run cycles all
  // seven images through the slot.
  (void)model.run_encoder_one(inputs[0], 1, 1, 1, Dataset::kDefault);
  for (int run = 0; run < 3; ++run) {
    ResidencyCharge charge;
    (void)model.run_encoder_one(inputs[0], 1, 1, 1, Dataset::kDefault, &charge);
    // Every image the run touches was evicted by the next one: full bill,
    // every run — the steady state never warms up.
    EXPECT_EQ(charge.lut_misses, 1u) << run;
    EXPECT_EQ(charge.weight_misses, 6u) << run;
    EXPECT_EQ(charge.lut_hits + charge.weight_hits, 0u) << run;
    const hw::ProgramCost expect =
        model.layer_weight_cost() + model.lut_image_cost(Dataset::kDefault);
    EXPECT_DOUBLE_EQ(charge.programming.latency.as_ns(), expect.latency.as_ns())
        << run;
  }
}

void expect_same_stats(const xbar::ResidencyStats& before,
                       const xbar::ResidencyStats& after) {
  EXPECT_EQ(after.lookups, before.lookups);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(after.lut_hits, before.lut_hits);
  EXPECT_EQ(after.lut_misses, before.lut_misses);
  EXPECT_EQ(after.weight_hits, before.weight_hits);
  EXPECT_EQ(after.weight_misses, before.weight_misses);
  EXPECT_EQ(after.programming.latency.as_ns(), before.programming.latency.as_ns());
  EXPECT_EQ(after.programming.energy.as_pJ(), before.programming.energy.as_pJ());
}

TEST(BatchEncoderResidency, NonFiniteRequestIsRejectedBeforeAnyLookup) {
  // Four slots for seven images: a request that reached the manager would
  // miss, evict and charge programming before its NaN was found.
  core::StarConfig cfg = tiny_cfg();
  cfg.residency_capacity = 4;
  const BatchEncoderSim model(cfg, kBert);
  const auto inputs = test_inputs(1, 47);
  (void)model.run_encoder_one(inputs[0], 1, 1, 1, Dataset::kCnews);
  const xbar::ResidencyStats before = model.residency().stats();
  ASSERT_GT(before.evictions, 0u);

  const double kHostile[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()};
  for (const double bad : kHostile) {
    nn::Tensor poisoned = inputs[0];
    poisoned.at(3, 5) = bad;
    EXPECT_THROW((void)model.run_encoder_one(poisoned, 1, 1, 1, Dataset::kMrpc),
                 InvalidArgument)
        << bad;
    expect_same_stats(before, model.residency().stats());

    Rng rng(48);
    workload::QkvTriple qkv = workload::random_qkv(8, 4, 1.0, rng);
    qkv.v.at(2, 1) = bad;
    EXPECT_THROW((void)model.run_attention_one(qkv, 1), InvalidArgument) << bad;
  }
}

TEST(BatchEncoderResidency, RejectsNegativeCapacity) {
  core::StarConfig cfg = tiny_cfg();
  cfg.residency_capacity = -1;
  EXPECT_THROW((void)BatchEncoderSim(cfg, kBert), InvalidArgument);
}

// ---------- analytic models: cold-then-warm delegation ----------

TEST(EncoderModelResidency, ColdRunChargesThenWarmRunIsBitIdentical) {
  const core::StarConfig cfg;
  const core::EncoderModel model(cfg);
  const auto legacy = model.run_encoder_layer(nn::BertConfig::base(), 128);
  EXPECT_EQ(legacy.programming_latency.as_ns(), 0.0);
  EXPECT_EQ(legacy.programming_energy.as_pJ(), 0.0);

  ResidencyManager mgr;  // empty fabric: first run uploads everything
  const auto cold =
      model.run_encoder_layer(nn::BertConfig::base(), 128, &mgr);
  EXPECT_GT(cold.programming_latency.as_ns(), 0.0);
  EXPECT_GT(cold.programming_energy.as_pJ(), 0.0);
  // Cold totals = legacy + programming, exactly.
  EXPECT_EQ(cold.latency.as_ns(),
            (legacy.latency + cold.programming_latency).as_ns());
  EXPECT_EQ(cold.energy.as_pJ(),
            (legacy.energy + cold.programming_energy).as_pJ());
  // Steady-state figures stay compute-phase quantities.
  EXPECT_EQ(cold.power.as_W(), legacy.power.as_W());
  EXPECT_EQ(cold.attention_time_share, legacy.attention_time_share);

  const auto warm =
      model.run_encoder_layer(nn::BertConfig::base(), 128, &mgr);
  EXPECT_EQ(warm.programming_latency.as_ns(), 0.0);
  EXPECT_EQ(warm.latency.as_ns(), legacy.latency.as_ns());  // bit-identical
  EXPECT_EQ(warm.energy.as_pJ(), legacy.energy.as_pJ());
  EXPECT_EQ(warm.report.latency.as_ns(), legacy.report.latency.as_ns());
}

TEST(EncoderModelResidency, ChargeDecomposesIntoWeightsPlusLut) {
  const core::StarConfig cfg;
  const core::EncoderModel model(cfg);
  const nn::BertConfig bert = nn::BertConfig::base();
  ResidencyManager mgr;
  const hw::ProgramCost charged =
      model.charge_residency(bert, mgr, Dataset::kDefault, 0);
  const core::ShardedMatmulEngine& mm = model.accelerator().sharded_matmul();
  hw::ProgramCost expect;
  expect += mm.weight_image_cost(bert.d_model, bert.d_model) * 4.0;
  expect += mm.weight_image_cost(bert.d_model, bert.d_ff);
  expect += mm.weight_image_cost(bert.d_ff, bert.d_model);
  expect += core::SoftmaxEngine::preload_cost_for(cfg, cfg.softmax_format);
  EXPECT_DOUBLE_EQ(charged.latency.as_ns(), expect.latency.as_ns());
  EXPECT_DOUBLE_EQ(charged.energy.as_pJ(), expect.energy.as_pJ());
  // Layers are namespaced: layer 1 misses again, layer 0 is now warm.
  EXPECT_TRUE(model.charge_residency(bert, mgr, Dataset::kDefault, 0).is_zero());
  EXPECT_FALSE(model.charge_residency(bert, mgr, Dataset::kDefault, 1).is_zero());
}

TEST(EncoderStackResidency, ColdStackUploadsEveryLayerThenWarms) {
  const core::StarConfig cfg;
  const core::EncoderStackModel model(cfg);
  const nn::BertConfig bert = nn::BertConfig::base();
  const auto legacy = model.run_encoder_stack(bert, 128, 3);

  ResidencyManager mgr;
  const auto cold = model.run_encoder_stack(bert, 128, 3, &mgr);
  EXPECT_GT(cold.programming_latency.as_ns(), 0.0);
  EXPECT_EQ(cold.latency.as_ns(),
            (legacy.latency + cold.programming_latency).as_ns());
  // 3 layers' weights + one shared LUT image: more than one layer's bill,
  // less than 3x (the LUT is shared across layers).
  ResidencyManager solo;
  const auto one_layer = model.run_encoder_stack(bert, 128, 1, &solo);
  EXPECT_GT(cold.programming_latency.as_ns(),
            one_layer.programming_latency.as_ns());
  EXPECT_LT(cold.programming_latency.as_ns(),
            3.0 * one_layer.programming_latency.as_ns());

  const auto warm = model.run_encoder_stack(bert, 128, 3, &mgr);
  EXPECT_EQ(warm.programming_latency.as_ns(), 0.0);
  EXPECT_EQ(warm.latency.as_ns(), legacy.latency.as_ns());
  EXPECT_EQ(warm.energy.as_pJ(), legacy.energy.as_pJ());
  EXPECT_EQ(warm.stack_speedup, legacy.stack_speedup);
}

// ---------- serve: mixed-dataset determinism across policy x threads ----------

using MixedServeParam = std::tuple<serve::AdmissionPolicy, int>;

class MixedDatasetServe : public ::testing::TestWithParam<MixedServeParam> {};

TEST_P(MixedDatasetServe, PayloadsIdenticalAndAccountingConserved) {
  const auto [policy, threads] = GetParam();
  constexpr std::size_t kRequests = 12;
  constexpr std::int64_t kLayers = 2;
  // Fresh model per case: cold-miss accounting must start from a known
  // residency state to be assertable.
  const BatchEncoderSim model(tiny_cfg(), kBert, 0xB127, kLayers);
  const auto inputs = test_inputs(kRequests, 0xD5);

  std::vector<nn::Tensor> refs;
  for (std::size_t i = 0; i < kRequests; ++i) {
    refs.push_back(model.run_encoder_one(
        inputs[i], workload::sequence_seed(0x900D + i, 0), kLayers));
  }

  constexpr Dataset kCycle[] = {Dataset::kCnews, Dataset::kMrpc, Dataset::kCola};
  sim::BatchScheduler sched(threads);
  serve::ServerOptions opts;
  opts.max_queue = kRequests;  // nothing sheds/rejects: exact accounting
  opts.admission = policy;
  opts.batcher.max_batch = 4;
  opts.batcher.max_wait_ticks = 1;
  serve::StarServer server(model, sched, opts);

  std::vector<std::future<serve::EncoderResponse>> futs;
  for (std::size_t i = 0; i < kRequests; ++i) {
    futs.push_back(server.submit(serve::EncoderRequest{
        inputs[i], 0x900D + i, kLayers, 1, kCycle[i % 3]}));
  }
  std::uint64_t lut_hits = 0, lut_misses = 0, programming_carriers = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto resp = futs[i].get();
    EXPECT_TRUE(nn::Tensor::bit_identical(resp.output, refs[i]))
        << "request " << i;
    EXPECT_EQ(resp.stats.num_layers, kLayers);
    EXPECT_EQ(resp.stats.num_shards, 1);
    lut_hits += resp.stats.lut_hits;
    lut_misses += resp.stats.lut_misses;
    programming_carriers += resp.stats.programming_us > 0.0 ? 1 : 0;
  }
  server.shutdown();

  // Conservation laws that hold under EVERY thread interleaving with an
  // unbounded capacity: each request touches exactly one LUT image, and
  // each distinct cold format (CNEWS, CoLA; MRPC aliases the installed
  // default) misses exactly once across the whole trace.
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.lut_hits + stats.lut_misses, kRequests);
  EXPECT_EQ(stats.lut_misses, 2u);
  EXPECT_EQ(stats.lut_hits, lut_hits);
  EXPECT_EQ(stats.lut_misses, lut_misses);
  EXPECT_EQ(stats.weight_misses, 0u);  // the model's own weights stay warm
  EXPECT_EQ(stats.weight_hits, kRequests * 6 * kLayers);
  EXPECT_EQ(programming_carriers, 2u);  // exactly the two cold misses paid
  EXPECT_GT(stats.programming_us_total, 0.0);
  EXPECT_GT(stats.programming_time_share, 0.0);
  EXPECT_LT(stats.programming_time_share, 1.0);
  // Exact total: the two cold images' bills, independent of who paid.
  const double expect_us = model.lut_image_cost(Dataset::kCnews).latency.as_us() +
                           model.lut_image_cost(Dataset::kCola).latency.as_us();
  EXPECT_DOUBLE_EQ(stats.programming_us_total, expect_us);
  // Mixed-depth attribution satellite: the shape breakdown is recorded.
  EXPECT_DOUBLE_EQ(stats.num_layers_mean, static_cast<double>(kLayers));
  EXPECT_EQ(stats.num_layers_max, kLayers);
  EXPECT_EQ(stats.num_shards_max, 1);

  // The model-level manager saw the same totals (single server, fresh sim).
  const auto mstats = model.residency().stats();
  EXPECT_EQ(mstats.lut_misses, 2u);
  EXPECT_EQ(mstats.evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyThreadMatrix, MixedDatasetServe,
    ::testing::Combine(::testing::Values(serve::AdmissionPolicy::kBlock,
                                         serve::AdmissionPolicy::kReject,
                                         serve::AdmissionPolicy::kShedOldest),
                       ::testing::Values(1, 2, 4)));

TEST(MixedDepthServe, ServerStatsAttributeMixedDepthTraffic) {
  const BatchEncoderSim model(tiny_cfg(), kBert, 0xB127, /*stack_depth=*/4);
  const auto inputs = test_inputs(4, 0xDEB7);
  sim::BatchScheduler sched(2);
  serve::StarServer server(model, sched, {});
  std::vector<std::future<serve::EncoderResponse>> futs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto layers = static_cast<std::int64_t>(i) + 1;  // depths 1..4
    futs.push_back(server.submit(serve::EncoderRequest{inputs[i], 7, layers}));
  }
  for (auto& f : futs) {
    (void)f.get();
  }
  server.shutdown();
  const auto stats = server.stats();
  EXPECT_DOUBLE_EQ(stats.num_layers_mean, 2.5);  // (1+2+3+4)/4
  EXPECT_EQ(stats.num_layers_max, 4);
  EXPECT_DOUBLE_EQ(stats.num_shards_mean, 1.0);
}

}  // namespace
}  // namespace star
