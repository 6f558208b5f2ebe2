// serve::Cluster: the residency-aware multi-chip router suite.
//
// The load-bearing property is inherited from every other serving layer:
// routing is SCHEDULING/ACCOUNTING-ONLY. A response payload is bit-identical
// to a solo closed-batch run of the same (input, run_seed) under EVERY
// routing policy x node count x thread count, with fault-injection streams
// riding along. On top of that: the fleet conservation laws (cluster totals
// equal the sum of per-node totals; routed counts equal what the nodes
// actually saw), the affinity-vs-round-robin residency claim (affinity
// provably pays fewer cold LUT programming misses on mixed-dataset
// traffic), single-node delegation (a 1-node cluster IS a StarServer plus a
// zero-cost hop), the hw::HostLink transport bill, and the fleet view's one
// rule, StatsAccumulator::merge (a merged accumulator snapshots exactly
// like one fed the union of the calls; p99 over the CONCATENATED
// reservoirs — never an average of per-node p99s). The multi-node soak at
// the bottom is the TSan target for the router's locking.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "core/batch_encoder.hpp"
#include "hw/interconnect.hpp"
#include "serve/cluster.hpp"
#include "serve/request.hpp"
#include "serve/server_stats.hpp"
#include "serve/star_server.hpp"
#include "sim/batch_scheduler.hpp"
#include "util/alloc_counter.hpp"
#include "util/status.hpp"
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

/// Reference model for solo runs (identical construction parameters to the
/// ones ClusterOptions defaults hand every node).
const core::BatchEncoderSim& reference_model() {
  static const core::BatchEncoderSim model(tiny_cfg(), kBert);
  return model;
}

nn::Tensor input_of_len(std::size_t seq_len, std::uint64_t seed) {
  return workload::embedding_batch(
      1, seq_len, static_cast<std::size_t>(kBert.d_model), 1.0, seed)[0];
}

nn::Tensor solo_reference(const nn::Tensor& input, std::uint64_t run_seed) {
  // The serving seed rule: a solo run is batch index 0 of run_seed.
  return reference_model().run_encoder_one(
      input, workload::sequence_seed(run_seed, 0));
}

serve::ClusterOptions cluster_opts(std::size_t nodes, int threads,
                                   serve::RoutePolicyKind policy) {
  serve::ClusterOptions opts;
  opts.num_nodes = nodes;
  opts.threads_per_node = threads;
  opts.policy = policy;
  opts.server.batcher.max_batch = 4;
  opts.server.batcher.max_wait_ticks = 1;
  return opts;
}

constexpr serve::RoutePolicyKind kAllPolicies[] = {
    serve::RoutePolicyKind::kRoundRobin,
    serve::RoutePolicyKind::kLeastLoaded,
    serve::RoutePolicyKind::kAffinity,
};

// ---------- policy plumbing ----------

std::vector<serve::NodeSnapshot> snapshots(
    std::vector<std::size_t> depths, std::vector<bool> resident = {}) {
  std::vector<serve::NodeSnapshot> out(depths.size());
  for (std::size_t i = 0; i < depths.size(); ++i) {
    out[i].node = i;
    out[i].queue_depth = depths[i];
    out[i].lut_resident = i < resident.size() && resident[i];
  }
  return out;
}

TEST(RoutePolicy, RoundRobinCyclesRegardlessOfState) {
  auto p = serve::make_route_policy(serve::RoutePolicyKind::kRoundRobin);
  const auto nodes = snapshots({100, 0, 50});
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(p->route(nodes), i % 3);
  }
}

TEST(RoutePolicy, LeastLoadedPicksShallowestLowestIndexTie) {
  auto p = serve::make_route_policy(serve::RoutePolicyKind::kLeastLoaded);
  EXPECT_EQ(p->route(snapshots({5, 2, 9, 2})), 1u);  // tie 1 vs 3 -> lowest
  EXPECT_EQ(p->route(snapshots({0, 0, 0})), 0u);
  EXPECT_EQ(p->route(snapshots({3})), 0u);
}

TEST(RoutePolicy, AffinityPrefersResidentUntilImbalanceEscapes) {
  auto p = serve::make_route_policy(serve::RoutePolicyKind::kAffinity, 4);
  // A resident node wins over a shallower non-resident one...
  EXPECT_EQ(p->route(snapshots({0, 3}, {false, true})), 1u);
  // ...the shallowest resident node wins among resident nodes...
  EXPECT_EQ(p->route(snapshots({9, 3, 5}, {true, true, true})), 1u);
  // ...no resident node anywhere falls back to least-loaded...
  EXPECT_EQ(p->route(snapshots({7, 2, 8}, {false, false, false})), 1u);
  // ...and a resident node deeper than min + max_imbalance is abandoned.
  EXPECT_EQ(p->route(snapshots({0, 5}, {false, true})), 0u);
  EXPECT_EQ(p->route(snapshots({0, 4}, {false, true})), 1u);  // exactly at the edge
}

// ---------- hw::HostLink transport arithmetic ----------

TEST(HostLink, DefaultConstructedIsFree) {
  const hw::HostLink free_link;
  EXPECT_TRUE(free_link.is_free());
  EXPECT_DOUBLE_EQ(free_link.latency(1 << 20).as_us(), 0.0);
  EXPECT_DOUBLE_EQ(free_link.energy(1 << 20).as_uJ(), 0.0);
}

TEST(HostLink, LatencyIsPerTransferPlusBandwidthTerm) {
  const hw::HostLink link(Time::us(2.0), 16e9, Energy::pJ(10.0));
  EXPECT_FALSE(link.is_free());
  EXPECT_DOUBLE_EQ(link.latency(0).as_us(), 2.0);
  // 16 KB at 16 GB/s = 1 us on the wire, plus the fixed 2 us hop.
  EXPECT_NEAR(link.latency(16384).as_us(), 2.0 + 16384.0 / 16e9 * 1e6, 1e-12);
  EXPECT_NEAR(link.energy(1000).as_uJ(), 1000 * 10e-6, 1e-12);
  // A bandwidth-only link is NOT free: bytes still cost time.
  EXPECT_FALSE(hw::HostLink(Time{}, 1e9, Energy{}).is_free());
  EXPECT_TRUE(hw::HostLink::host_default().latency(4096).as_us() > 0.0);
}

// ---------- determinism contract ----------

TEST(Cluster, PayloadBitIdenticalAcrossPolicyNodeThreadMatrix) {
  // The headline invariant: policy x nodes x threads never touches the
  // payload, with a fault stream riding along. Every cell must match the
  // solo closed-batch reference bit-for-bit and every poisoned future must
  // carry its own InvalidArgument without corrupting batchmates.
  static const std::size_t kLens[] = {4, 16, 33, 8, 64, 12};
  constexpr std::size_t kN = sizeof(kLens) / sizeof(kLens[0]);
  std::vector<nn::Tensor> expected;
  for (std::size_t i = 0; i < kN; ++i) {
    expected.push_back(solo_reference(input_of_len(kLens[i], 0xC1 + i), 0x40 + i));
  }
  for (const auto policy : kAllPolicies) {
    for (const std::size_t nodes : {1u, 2u, 4u}) {
      for (const int threads : {1, 4}) {
        serve::Cluster cluster(tiny_cfg(), kBert,
                               cluster_opts(nodes, threads, policy));
        std::vector<std::future<serve::EncoderResponse>> good;
        std::vector<std::future<serve::EncoderResponse>> bad;
        for (std::size_t i = 0; i < kN; ++i) {
          good.push_back(cluster.submit(
              serve::EncoderRequest{input_of_len(kLens[i], 0xC1 + i), 0x40 + i}));
          serve::EncoderRequest poison{input_of_len(kLens[i], 0xB0 + i),
                                       0x40 + i};
          poison.num_layers = 99;  // > stack_depth: compute throws
          bad.push_back(cluster.submit(std::move(poison)));
        }
        for (std::size_t i = 0; i < kN; ++i) {
          const auto resp = good[i].get();
          EXPECT_TRUE(nn::Tensor::bit_identical(resp.output, expected[i]))
              << "policy=" << static_cast<int>(policy) << " nodes=" << nodes
              << " threads=" << threads << " request " << i;
          EXPECT_LT(resp.stats.node, nodes);
          EXPECT_THROW(bad[i].get(), InvalidArgument);
        }
        cluster.shutdown();
        const auto cs = cluster.stats();
        EXPECT_EQ(cs.completed, kN);
        EXPECT_EQ(cs.failed, kN);
      }
    }
  }
}

TEST(Cluster, SingleNodeClusterDelegatesBitIdenticallyToPlainServer) {
  // A 1-node cluster is a StarServer plus a free hop: identical payloads,
  // identical ledgers, identical (trivially merged) percentiles.
  static const std::size_t kLens[] = {10, 24, 7, 48};
  constexpr std::size_t kN = sizeof(kLens) / sizeof(kLens[0]);

  sim::BatchScheduler sched(2);
  serve::ServerOptions sopts;
  sopts.batcher.max_batch = 4;
  sopts.batcher.max_wait_ticks = 1;
  serve::StarServer plain(reference_model(), sched, sopts);
  auto opts = cluster_opts(1, 2, serve::RoutePolicyKind::kRoundRobin);
  serve::Cluster cluster(tiny_cfg(), kBert, opts);

  for (std::size_t i = 0; i < kN; ++i) {
    const auto input = input_of_len(kLens[i], 0xDE + i);
    auto from_plain =
        plain.submit(serve::EncoderRequest{input, 0x600 + i}).get();
    auto from_cluster =
        cluster.submit(serve::EncoderRequest{input, 0x600 + i}).get();
    EXPECT_TRUE(
        nn::Tensor::bit_identical(from_cluster.output, from_plain.output))
        << "request " << i;
    EXPECT_EQ(from_cluster.stats.node, 0u);
    EXPECT_DOUBLE_EQ(from_cluster.stats.transport_us, 0.0);  // free link
  }
  plain.shutdown();
  cluster.shutdown();
  const auto ps = plain.stats();
  const auto cs = cluster.stats();
  EXPECT_EQ(cs.completed, ps.completed);
  EXPECT_EQ(cs.effective_tokens, ps.effective_tokens);
  ASSERT_EQ(cs.per_node.size(), 1u);
  // Trivial merge: the fleet percentile of one node IS that node's.
  EXPECT_DOUBLE_EQ(cs.queue_wait_p99_s, cs.per_node[0].queue_wait_p99_s);
  EXPECT_DOUBLE_EQ(cs.service_p99_s, cs.per_node[0].service_p99_s);
}

TEST(Cluster, SubmitAllocatesNothingBeyondItsNodeServer) {
  if (!util::alloc_audit_enabled()) {
    GTEST_SKIP() << "allocation audit not compiled in (Debug or -DSTAR_AUDIT=ON)";
  }
  // Parked queues (no size trigger reached, a 100 s age-out) make the
  // submitter's allocations deterministic: the same pushes into the same
  // kind of queue. Routing — the fleet snapshot, the policy, the transport
  // bill, the residency probe of a non-default dataset — must add none.
  constexpr std::size_t kSubmits = 1000;
  serve::ServerOptions parked;
  parked.max_queue = 4 * kSubmits;
  parked.batcher.max_batch = 4 * kSubmits;
  parked.batcher.max_wait_ticks = 1000;
  parked.batcher.tick = std::chrono::microseconds(100000);
  const auto request = [](std::size_t i) {
    return serve::AnalyticRequest{
        static_cast<std::int64_t>(8 + i % 32),
        i % 2 == 0 ? workload::Dataset::kDefault : workload::Dataset::kCnews};
  };
  std::vector<std::future<serve::AnalyticResponse>> futs;
  futs.reserve(kSubmits);

  std::uint64_t server_allocs = 0;
  {
    // A model of its own: shutdown serves the parked CNEWS requests, which
    // program that image into the model's residency cache.
    const core::BatchEncoderSim model(tiny_cfg(), kBert);
    sim::BatchScheduler sched(1);
    serve::StarServer server(model, sched, parked);
    const util::AllocCounter counter;
    for (std::size_t i = 0; i < kSubmits; ++i) {
      futs.push_back(server.submit(request(i)));
    }
    server_allocs = counter.allocations();
  }
  futs.clear();

  serve::ClusterOptions opts = cluster_opts(1, 1, serve::RoutePolicyKind::kAffinity);
  opts.server = parked;
  opts.link = hw::HostLink::host_default();
  serve::Cluster cluster(tiny_cfg(), kBert, opts);
  const util::AllocCounter counter;
  for (std::size_t i = 0; i < kSubmits; ++i) {
    futs.push_back(cluster.submit(request(i)));
  }
  const std::uint64_t cluster_allocs = counter.allocations();
  cluster.shutdown();
  for (auto& fut : futs) {
    fut.get();
  }
  EXPECT_EQ(cluster_allocs, server_allocs);
}

// ---------- conservation laws ----------

TEST(Cluster, FleetLedgerEqualsSumOfNodesAndRoutingIsAccounted) {
  constexpr std::size_t kN = 40;
  auto cluster_options =
      cluster_opts(4, 1, serve::RoutePolicyKind::kRoundRobin);
  // Lengths 8..39 over three queues: <= 16, <= 24 and the overflow.
  cluster_options.server.batcher.bucketing =
      serve::LengthBucketing::bucketed({16, 24});
  serve::Cluster cluster(tiny_cfg(), kBert, cluster_options);
  std::vector<std::future<serve::AnalyticResponse>> futs;
  std::vector<std::size_t> node_of;
  for (std::size_t i = 0; i < kN; ++i) {
    futs.push_back(
        cluster.submit(serve::AnalyticRequest{8 + std::int64_t(i % 32)}));
  }
  for (auto& f : futs) {
    node_of.push_back(f.get().stats.node);
  }
  cluster.shutdown();
  const auto cs = cluster.stats();

  // Fleet totals are exactly the per-node sums.
  std::uint64_t submitted = 0, admitted = 0, completed = 0, batches = 0,
                effective = 0;
  for (const auto& n : cs.per_node) {
    submitted += n.submitted;
    admitted += n.admitted;
    completed += n.completed;
    batches += n.batches;
    effective += n.effective_tokens;
  }
  EXPECT_EQ(cs.submitted, kN);
  EXPECT_EQ(cs.submitted, submitted);
  EXPECT_EQ(cs.admitted, admitted);
  EXPECT_EQ(cs.completed, completed);
  EXPECT_EQ(cs.completed, kN);
  EXPECT_EQ(cs.batches, batches);
  EXPECT_EQ(cs.effective_tokens, effective);

  // The router's counters agree with where responses said they ran, and
  // with what each node's own ledger admitted.
  const auto routed = cluster.stats().routed_per_node;
  ASSERT_EQ(routed.size(), 4u);
  std::vector<std::uint64_t> seen(4, 0);
  for (const auto n : node_of) {
    ASSERT_LT(n, 4u);
    ++seen[n];
  }
  std::uint64_t routed_total = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(routed[i], seen[i]) << "node " << i;
    EXPECT_EQ(routed[i], cs.per_node[i].submitted) << "node " << i;
    routed_total += routed[i];
  }
  EXPECT_EQ(routed_total, kN);
  // Round-robin over a multiple of the node count is perfectly even.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(routed[i], kN / 4);
  }
  EXPECT_DOUBLE_EQ(cs.routing_imbalance, 1.0);

  // Per-bucket ledgers sum over the nodes; maxima are the node maxima.
  ASSERT_EQ(cs.per_bucket.size(), 3u);
  for (std::size_t q = 0; q < 3; ++q) {
    std::uint64_t requests = 0, bucket_effective = 0, bucket_padded = 0;
    for (const auto& n : cs.per_node) {
      ASSERT_EQ(n.per_bucket.size(), 3u);
      requests += n.per_bucket[q].requests;
      bucket_effective += n.per_bucket[q].effective_tokens;
      bucket_padded += n.per_bucket[q].padded_tokens;
    }
    EXPECT_EQ(cs.per_bucket[q].requests, requests) << "bucket " << q;
    EXPECT_EQ(cs.per_bucket[q].effective_tokens, bucket_effective) << "bucket " << q;
    EXPECT_EQ(cs.per_bucket[q].padded_tokens, bucket_padded) << "bucket " << q;
  }
  std::int64_t seq_len_max = 0;
  std::size_t occupancy_max = 0;
  for (const auto& n : cs.per_node) {
    seq_len_max = std::max(seq_len_max, n.seq_len_max);
    occupancy_max = std::max(occupancy_max, n.batch_occupancy_max);
  }
  EXPECT_EQ(cs.seq_len_max, 39);
  EXPECT_EQ(cs.seq_len_max, seq_len_max);
  EXPECT_EQ(cs.batch_occupancy_max, occupancy_max);
}

// ---------- affinity vs round-robin residency ----------

/// Sequential mixed-dataset trace (submit-and-get so routing always sees
/// settled residency state); returns the fleet's cold LUT miss count.
std::uint64_t lut_misses_under(serve::RoutePolicyKind policy,
                               std::size_t requests) {
  serve::Cluster cluster(tiny_cfg(), kBert, cluster_opts(4, 1, policy));
  const workload::Dataset mix[] = {workload::Dataset::kCnews,
                                   workload::Dataset::kMrpc,
                                   workload::Dataset::kCola};
  for (std::size_t i = 0; i < requests; ++i) {
    serve::EncoderRequest req{input_of_len(12, 0xAB + i), 0x300 + i};
    req.dataset = mix[i % 3];
    const auto resp = cluster.submit(std::move(req)).get();
    EXPECT_LT(resp.stats.node, 4u);
  }
  cluster.shutdown();
  const auto cs = cluster.stats();
  EXPECT_EQ(cs.completed, requests);
  return cs.lut_misses;
}

TEST(Cluster, AffinityPaysFewerColdMissesThanRoundRobinOnMixedDatasets) {
  // Default-format models alias MRPC's image (kMrpcFormat is the default
  // softmax format), so a node pays exactly one cold programming miss per
  // FOREIGN dataset it ever touches: CNEWS and CoLA. Round-robin smears
  // both datasets across all 4 nodes (8 cold misses); affinity pins each
  // dataset to the node that already programmed it (2 cold misses, fleet
  // total), and MRPC stays free everywhere.
  const std::uint64_t rr =
      lut_misses_under(serve::RoutePolicyKind::kRoundRobin, 24);
  const std::uint64_t affinity =
      lut_misses_under(serve::RoutePolicyKind::kAffinity, 24);
  EXPECT_EQ(rr, 8u);
  EXPECT_EQ(affinity, 2u);
  EXPECT_LT(affinity, rr);
}

// ---------- transport accounting ----------

TEST(Cluster, HostLinkBillsRoundTripIntoStatsPayloadUnchanged) {
  const auto input = input_of_len(16, 0xF00D);
  const nn::Tensor expected = solo_reference(input, 0x11);

  auto opts = cluster_opts(2, 1, serve::RoutePolicyKind::kRoundRobin);
  opts.link = hw::HostLink::host_default();
  serve::Cluster cluster(tiny_cfg(), kBert, opts);
  const auto resp = cluster.submit(serve::EncoderRequest{input, 0x11}).get();

  // The bill is the modelled round trip: the input down, the same-shape
  // output back, each paying per-transfer latency plus the bandwidth term.
  const auto bytes = static_cast<std::uint64_t>(input.rows()) *
                     static_cast<std::uint64_t>(input.cols()) * sizeof(double);
  const double expected_us =
      2.0 * hw::HostLink::host_default().latency(bytes).as_us();
  EXPECT_NEAR(resp.stats.transport_us, expected_us, 1e-9);
  EXPECT_GT(resp.stats.transport_us, 0.0);
  // Transport is accounting-only: the payload is untouched.
  EXPECT_TRUE(nn::Tensor::bit_identical(resp.output, expected));

  auto analytic = cluster.submit(serve::AnalyticRequest{32}).get();
  EXPECT_GT(analytic.stats.transport_us, 0.0);
  cluster.shutdown();
  const auto cs = cluster.stats();
  EXPECT_NEAR(cs.transport_us_total,
              resp.stats.transport_us + analytic.stats.transport_us, 1e-9);
  EXPECT_NEAR(cs.transport_us_mean, cs.transport_us_total / 2.0, 1e-9);
  EXPECT_GT(cs.transport_energy_uj_total, 0.0);
  // The per-node ServerStats carry the same total (transport is stamped on
  // the request, so it lands in whichever node served it).
  double per_node_us = 0.0;
  for (const auto& n : cs.per_node) {
    per_node_us += n.transport_us_total;
  }
  EXPECT_NEAR(per_node_us, cs.transport_us_total, 1e-9);
}

TEST(Cluster, FreeLinkBillsNothing) {
  serve::Cluster cluster(
      tiny_cfg(), kBert, cluster_opts(4, 1, serve::RoutePolicyKind::kLeastLoaded));
  std::vector<std::future<serve::AnalyticResponse>> futs;
  for (int i = 0; i < 8; ++i) {
    futs.push_back(cluster.submit(serve::AnalyticRequest{16}));
  }
  for (auto& f : futs) {
    EXPECT_DOUBLE_EQ(f.get().stats.transport_us, 0.0);
  }
  cluster.shutdown();
  const auto cs = cluster.stats();
  EXPECT_DOUBLE_EQ(cs.transport_us_total, 0.0);
  EXPECT_DOUBLE_EQ(cs.transport_energy_uj_total, 0.0);
}

// ---------- fleet percentile merge ----------

TEST(Cluster, FleetP99IsPercentileOfConcatenatedReservoirs) {
  // The documented merge rule, checked against an independent recompute:
  // concatenate the per-node reservoirs and take serve::percentile over
  // the union. With loads this small the reservoirs are exact (no
  // replacement has kicked in), so the equality is bit-for-bit.
  constexpr std::size_t kN = 60;
  serve::Cluster cluster(
      tiny_cfg(), kBert, cluster_opts(4, 2, serve::RoutePolicyKind::kRoundRobin));
  std::vector<std::future<serve::AnalyticResponse>> futs;
  for (std::size_t i = 0; i < kN; ++i) {
    futs.push_back(
        cluster.submit(serve::AnalyticRequest{4 + std::int64_t(i % 60)}));
  }
  for (auto& f : futs) {
    f.get();
  }
  cluster.shutdown();

  std::vector<double> wait_union, service_union;
  for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
    const auto acc = cluster.node(i).stats_accumulator();
    const auto& qw = acc.queue_wait_samples();
    const auto& sv = acc.service_samples();
    wait_union.insert(wait_union.end(), qw.begin(), qw.end());
    service_union.insert(service_union.end(), sv.begin(), sv.end());
  }
  EXPECT_EQ(wait_union.size(), kN);
  const auto cs = cluster.stats();
  EXPECT_DOUBLE_EQ(cs.queue_wait_p99_s, serve::percentile(wait_union, 0.99));
  EXPECT_DOUBLE_EQ(cs.service_p99_s, serve::percentile(service_union, 0.99));
  // A p99 is not linear, so the union's is no average of the nodes'. It is
  // bounded by them, though: the union's distribution is a mixture of the
  // nodes', so its nearest-rank p99 lies between the smallest and the
  // largest node p99.
  for (const auto field :
       {&serve::ServerStats::queue_wait_p99_s, &serve::ServerStats::service_p99_s}) {
    double lo = cs.per_node[0].*field;
    double hi = lo;
    for (const auto& n : cs.per_node) {
      lo = std::min(lo, n.*field);
      hi = std::max(hi, n.*field);
    }
    EXPECT_GE(cs.*field, lo);
    EXPECT_LE(cs.*field, hi);
  }
}

// ---------- StatsAccumulator::merge ----------

/// Every ServerStats field of `merged` against `whole`, exactly: the
/// sequences below keep every sum exact, so no tolerance is needed.
void expect_same_stats(const serve::ServerStats& merged,
                       const serve::ServerStats& whole) {
#define STAR_EXPECT_FIELD(f) EXPECT_EQ(merged.f, whole.f) << #f
  STAR_EXPECT_FIELD(submitted);
  STAR_EXPECT_FIELD(admitted);
  STAR_EXPECT_FIELD(rejected);
  STAR_EXPECT_FIELD(shed);
  STAR_EXPECT_FIELD(completed);
  STAR_EXPECT_FIELD(failed);
  STAR_EXPECT_FIELD(batches);
  STAR_EXPECT_FIELD(queue_wait_mean_s);
  STAR_EXPECT_FIELD(queue_wait_p99_s);
  STAR_EXPECT_FIELD(service_mean_s);
  STAR_EXPECT_FIELD(service_p99_s);
  STAR_EXPECT_FIELD(batch_occupancy_mean);
  STAR_EXPECT_FIELD(batch_occupancy_max);
  STAR_EXPECT_FIELD(effective_tokens);
  STAR_EXPECT_FIELD(padded_tokens);
  STAR_EXPECT_FIELD(capacity_tokens);
  STAR_EXPECT_FIELD(padded_occupancy);
  STAR_EXPECT_FIELD(effective_occupancy);
  STAR_EXPECT_FIELD(padding_waste);
  STAR_EXPECT_FIELD(seq_len_mean);
  STAR_EXPECT_FIELD(seq_len_max);
  STAR_EXPECT_FIELD(num_layers_mean);
  STAR_EXPECT_FIELD(num_layers_max);
  STAR_EXPECT_FIELD(num_shards_mean);
  STAR_EXPECT_FIELD(num_shards_max);
  STAR_EXPECT_FIELD(lut_hits);
  STAR_EXPECT_FIELD(lut_misses);
  STAR_EXPECT_FIELD(weight_hits);
  STAR_EXPECT_FIELD(weight_misses);
  STAR_EXPECT_FIELD(programming_us_total);
  STAR_EXPECT_FIELD(programming_time_share);
  STAR_EXPECT_FIELD(transport_us_total);
  STAR_EXPECT_FIELD(transport_us_mean);
  STAR_EXPECT_FIELD(cost_cache_lookups);
  STAR_EXPECT_FIELD(cost_cache_hits);
  STAR_EXPECT_FIELD(cost_cache_misses);
  STAR_EXPECT_FIELD(cost_cache_bypasses);
  STAR_EXPECT_FIELD(cost_cache_hit_rate);
  STAR_EXPECT_FIELD(per_bucket.size());
  for (std::size_t q = 0;
       q < std::min(merged.per_bucket.size(), whole.per_bucket.size()); ++q) {
    STAR_EXPECT_FIELD(per_bucket[q].edge) << " bucket " << q;
    STAR_EXPECT_FIELD(per_bucket[q].requests) << " bucket " << q;
    STAR_EXPECT_FIELD(per_bucket[q].batches) << " bucket " << q;
    STAR_EXPECT_FIELD(per_bucket[q].queue_wait_mean_s) << " bucket " << q;
    STAR_EXPECT_FIELD(per_bucket[q].batch_occupancy_mean) << " bucket " << q;
    STAR_EXPECT_FIELD(per_bucket[q].effective_tokens) << " bucket " << q;
    STAR_EXPECT_FIELD(per_bucket[q].padded_tokens) << " bucket " << q;
    STAR_EXPECT_FIELD(per_bucket[q].padding_waste) << " bucket " << q;
  }
#undef STAR_EXPECT_FIELD
}

TEST(StatsMerge, MergeOfDisjointHalvesEqualsTheUnion) {
  // One call sequence touching every accumulator field: admission
  // outcomes, batches over three queues, and encoder-shaped, analytic and
  // failed completions with residency and transport charges. Latencies sit
  // on a 1/1024 grid, so every sum is exact in any order.
  using Call = std::function<void(serve::StatsAccumulator&)>;
  std::vector<Call> calls;
  for (int i = 0; i < 12; ++i) {
    calls.push_back([](serve::StatsAccumulator& a) { a.on_submitted(); });
  }
  for (int i = 0; i < 10; ++i) {
    calls.push_back([](serve::StatsAccumulator& a) { a.on_admitted(); });
  }
  calls.push_back([](serve::StatsAccumulator& a) { a.on_rejected(); });
  calls.push_back([](serve::StatsAccumulator& a) { a.on_rejected(); });
  calls.push_back([](serve::StatsAccumulator& a) { a.on_shed(); });
  struct Batch {
    std::size_t occupancy, bucket;
    std::uint64_t effective, padded, capacity;
  };
  for (const Batch b : {Batch{2, 0, 20, 32, 64}, Batch{3, 1, 100, 192, 256},
                        Batch{1, 2, 90, 90, 360}, Batch{3, 0, 30, 48, 64},
                        Batch{2, 1, 70, 128, 256}}) {
    calls.push_back([b](serve::StatsAccumulator& a) {
      a.on_batch(b.occupancy, b.bucket, b.effective, b.padded, b.capacity);
    });
  }
  for (int i = 0; i < 9; ++i) {
    serve::RequestStats rs;
    rs.queue_wait_s = (3 + 7 * i) / 1024.0;
    rs.service_s = (40 - 3 * i) / 1024.0;
    rs.seq_len = 5 + 11 * i;
    rs.bucket = static_cast<std::size_t>(i % 3);
    if (i < 4) {  // encoder-shaped
      rs.num_layers = 1 + i % 2;
      rs.num_shards = 1 + i;
    }
    rs.lut_hits = static_cast<std::uint64_t>(i % 2);
    rs.lut_misses = static_cast<std::uint64_t>(1 - i % 2);
    rs.weight_hits = static_cast<std::uint64_t>(i);
    rs.weight_misses = static_cast<std::uint64_t>(i % 3 == 0);
    rs.programming_us = (i % 2 == 0 ? 0 : 5 + i) / 1024.0;
    rs.transport_us = (2 + i) / 1024.0;
    const bool ok = i < 7;  // the last two fail
    calls.push_back([rs, ok](serve::StatsAccumulator& a) { a.on_done(rs, ok); });
  }

  const std::vector<std::int64_t> edges = {16, 64, 0};
  serve::StatsAccumulator whole, even, odd;
  for (serve::StatsAccumulator* acc : {&whole, &even, &odd}) {
    acc->configure_buckets(edges);
  }
  for (std::size_t i = 0; i < calls.size(); ++i) {
    calls[i](whole);
    calls[i](i % 2 == 0 ? even : odd);
  }
  const serve::ServerStats union_stats = whole.snapshot();
  ASSERT_EQ(union_stats.completed, 7u);
  ASSERT_EQ(union_stats.failed, 2u);
  // Both orders: every field's total or maximum then comes in through
  // `other` at least once, so a field merge() skips cannot hide.
  serve::StatsAccumulator even_first = even;
  serve::StatsAccumulator odd_first = odd;
  even_first.merge(odd);
  odd_first.merge(even);
  expect_same_stats(even_first.snapshot(), union_stats);
  expect_same_stats(odd_first.snapshot(), union_stats);
}

TEST(StatsMerge, BucketLayoutMismatchThrows) {
  serve::StatsAccumulator a, other_edge, more_queues, same;
  a.configure_buckets({16, 0});
  other_edge.configure_buckets({32, 0});
  more_queues.configure_buckets({16, 64, 0});
  same.configure_buckets({16, 0});
  EXPECT_THROW(a.merge(other_edge), InvalidArgument);
  EXPECT_THROW(a.merge(more_queues), InvalidArgument);
  EXPECT_THROW(a.merge(a), InvalidArgument);
  EXPECT_NO_THROW(a.merge(same));
}

TEST(StatsMerge, ReservoirsPastTheBoundMergeWhole) {
  // Each part overflows its reservoir (Algorithm R keeps 65,536 of 70,000
  // samples); the merged view holds both reservoirs whole, and its
  // snapshot's reservoir audit (live with contracts on) bounds it by
  // 65,536 per part rather than by one reservoir's size.
  constexpr std::size_t kDone = 70000;
  serve::StatsAccumulator a, b;
  for (std::size_t i = 0; i < kDone; ++i) {
    for (serve::StatsAccumulator* acc : {&a, &b}) {
      const double offset = acc == &a ? 0.0 : 1.0;  // b's tail is longer
      serve::RequestStats rs;
      rs.queue_wait_s = offset + static_cast<double>(i % 1024) / 1024.0;
      rs.service_s = 2.0 * offset + static_cast<double>(i % 2048) / 1024.0;
      rs.seq_len = 8;
      acc->on_submitted();
      acc->on_admitted();
      acc->on_done(rs, /*ok=*/true);
    }
  }
  ASSERT_EQ(a.queue_wait_samples().size(), serve::StatsAccumulator::kMaxLatencySamples);
  std::vector<double> wait_union = a.queue_wait_samples();
  std::vector<double> service_union = a.service_samples();
  wait_union.insert(wait_union.end(), b.queue_wait_samples().begin(),
                    b.queue_wait_samples().end());
  service_union.insert(service_union.end(), b.service_samples().begin(),
                       b.service_samples().end());

  a.merge(b);
  EXPECT_EQ(a.queue_wait_samples().size(), 131072u);
  EXPECT_EQ(a.service_samples().size(), 131072u);
  serve::ServerStats s;
  EXPECT_NO_THROW(s = a.snapshot());
  EXPECT_EQ(s.completed, 2 * kDone);
  EXPECT_EQ(s.queue_wait_p99_s, serve::percentile(wait_union, 0.99));
  EXPECT_EQ(s.service_p99_s, serve::percentile(service_union, 0.99));
}

// ---------- bounded multi-threaded soak (TSan target) ----------

TEST(Cluster, BoundedSoakManySubmittersAcrossPolicies) {
  // Four submitter threads hammer a 3-node cluster while a monitor polls
  // the merged stats concurrently: the router's lock, the per-node stats
  // locks and the reservoir copies all get exercised under TSan. Every
  // future must resolve and the fleet ledger must balance.
  for (const auto policy : kAllPolicies) {
    auto opts = cluster_opts(3, 2, policy);
    opts.server.max_queue = 16;
    opts.link = hw::HostLink::host_default();
    serve::Cluster cluster(tiny_cfg(), kBert, opts);
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kPerThread = 32;
    std::atomic<std::uint64_t> resolved{0};
    std::atomic<bool> monitoring{true};
    std::thread monitor([&] {
      while (monitoring.load()) {
        const auto cs = cluster.stats();
        EXPECT_LE(cs.completed + cs.failed, cs.admitted);
        EXPECT_LE(cs.effective_tokens, cs.padded_tokens);
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        const workload::Dataset mix[] = {workload::Dataset::kDefault,
                                         workload::Dataset::kCnews,
                                         workload::Dataset::kCola};
        for (std::size_t i = 0; i < kPerThread; ++i) {
          serve::EncoderRequest req{input_of_len(8 + (i % 3) * 8, 0xE0 + i),
                                    0x1000 + t * kPerThread + i};
          req.dataset = mix[(t + i) % 3];
          auto fut = cluster.submit(std::move(req));
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
    cluster.shutdown();
    EXPECT_EQ(resolved.load(), kThreads * kPerThread);
    const auto cs = cluster.stats();
    EXPECT_EQ(cs.completed, kThreads * kPerThread);
    EXPECT_EQ(cs.failed, 0u);
    std::uint64_t routed_total = 0;
    for (const auto r : cs.routed_per_node) {
      routed_total += r;
    }
    EXPECT_EQ(routed_total, kThreads * kPerThread);
  }
}

}  // namespace
}  // namespace star
