// Batched encoder figures that are pure functions of the flags.
//
// No part reads a clock, so two runs with the same flags print the same
// bytes. Host throughput and latency of the serving paths (closed batches,
// StarServer, Cluster, residency churn, the cost cache, the arena hot
// path) are measured by perfbench (perfbench/, BENCHMARK.json), with
// warm-up, repeats and bounds.
//
// Encoder stack: the analytic multi-layer stack model at --layers depth
// and --seqlen tokens — per-layer latency/energy breakdown plus the
// vector- vs operand-grained stack makespans and the closed-form speedup
// check (core::EncoderStackModel).
//
// Sharded crossbar tiles: the analytic sharded MatMul engine at the
// paper's BERT-base geometry — one encoder layer with the tile grid split
// over --shards crossbar shards (explicit H-tree interconnect) versus the
// monolithic K=1 engine: shard speedup, interconnect time and link energy
// (core::ShardedMatmulEngine).
//
// Batching soak: --soak-arrivals synthetic arrivals on a bursty
// inhomogeneous-Poisson trace, lengths drawn from --length-dist, replayed
// in virtual time (serve::simulate_batching) under pad-to-max and under
// length buckets (--buckets), with streaming (bounded-memory) stats. The
// same replay runs the bucketed soak once more on the STAR-calibrated
// service model, whose every padded length is priced before the replay so
// each lookup hits the model's core::CostCache.
// tests/golden/batch_replay.csv pins the soak of `--length-dist mixed
// --soak-arrivals 1000000` bit for bit.
//
// Flags (see --help): --seqlen, --layers, --shards, --length-dist,
// --buckets, --soak-arrivals.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "core/batch_encoder.hpp"
#include "core/encoder_model.hpp"
#include "core/encoder_stack.hpp"
#include "serve/batch_sim.hpp"
#include "serve/length_buckets.hpp"
#include "util/argparse.hpp"
#include "workload/arrival_trace.hpp"
#include "workload/dataset_profile.hpp"

namespace {

// "auto" = one bucket per histogram bin length (zero intra-bucket padding
// for traffic drawn from that histogram); otherwise a comma-separated
// strictly increasing edge list, validated by LengthBucketing.
std::vector<std::int64_t> parse_bucket_edges(
    const std::string& spec, const star::workload::LengthHistogram& hist) {
  std::vector<std::int64_t> edges;
  if (spec == "auto") {
    edges.reserve(hist.bins.size());
    for (const auto& bin : hist.bins) {
      edges.push_back(bin.len);
    }
    return edges;
  }
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string tok = spec.substr(pos, comma - pos);
    char* end = nullptr;
    const long long v = std::strtoll(tok.c_str(), &end, 10);
    if (tok.empty() || end == tok.c_str() || *end != '\0') {
      std::fprintf(stderr, "--buckets: malformed edge '%s' in '%s'\n",
                   tok.c_str(), spec.c_str());
      std::exit(2);
    }
    edges.push_back(static_cast<std::int64_t>(v));
    pos = comma + 1;
  }
  return edges;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace star;

  const nn::BertConfig bert = nn::BertConfig::tiny();
  util::ArgParser args("bench_batched_encoder",
                       "Analytic encoder-stack and sharded-tile figures and "
                       "the virtual-time batching soak; no figure reads a "
                       "clock.");
  args.add_int("seqlen", 48, "tokens per sequence", 2, INT_MAX);
  args.add_int("layers", bert.layers, "encoder layers in the stack model", 1,
               INT_MAX);
  args.add_int("shards", 1, "crossbar shards (1 = monolithic)", 1, 256);
  args.add_string("length-dist", "fixed",
                  "request-length distribution of the soak (fixed = every "
                  "request --seqlen tokens)",
                  {"fixed", "cnews", "mrpc", "cola", "mixed"});
  args.add_string("buckets", "auto",
                  "bucket edges for length-bucketed batching: 'auto' (one "
                  "bucket per histogram bin) or a comma list, e.g. 32,64,128");
  args.add_int("soak-arrivals", 1000000,
               "synthetic arrivals in the deterministic batching soak", 1000,
               INT_MAX);
  args.parse(argc, argv);

  const auto seq_len = static_cast<std::size_t>(args.get_int("seqlen"));
  const auto num_layers = static_cast<std::int64_t>(args.get_int("layers"));
  const auto num_shards = static_cast<std::int64_t>(args.get_int("shards"));
  const std::string length_dist = args.get_string("length-dist");
  constexpr std::uint64_t kSeed = 0xBA7C4ED;

  // The length dimension: the histogram the soak's lengths are drawn from,
  // and the bucket edges the length-bucketed policy pads to. With
  // --length-dist fixed the histogram degenerates to a point mass at
  // --seqlen (auto buckets = the single edge seq_len, so both policies
  // coincide).
  const workload::LengthHistogram length_hist = [&] {
    if (length_dist == "cnews") {
      return workload::length_histogram_for(workload::Dataset::kCnews);
    }
    if (length_dist == "mrpc") {
      return workload::length_histogram_for(workload::Dataset::kMrpc);
    }
    if (length_dist == "cola") {
      return workload::length_histogram_for(workload::Dataset::kCola);
    }
    if (length_dist == "mixed") {
      return workload::length_histogram_for(workload::Dataset::kDefault);
    }
    return workload::LengthHistogram::fixed(static_cast<std::int64_t>(seq_len));
  }();
  const std::vector<std::int64_t> bucket_edges =
      parse_bucket_edges(args.get_string("buckets"), length_hist);
  const auto soak_arrivals =
      static_cast<std::size_t>(args.get_int("soak-arrivals"));

  core::StarConfig cfg;
  cfg.num_shards = static_cast<int>(num_shards);  // provision K shards
  // Fail fast on a --shards value the matmul geometries cannot feed (e.g.
  // kRow needs K <= the inner dim of every matmul: the tiny config's
  // score/context stages bound K at min(d_head, seqlen), BERT-base at 64).
  try {
    cfg.validate();
    (void)core::EncoderModel(cfg).layer_stage_times(
        bert, static_cast<std::int64_t>(seq_len));
    core::StarConfig base_probe;
    base_probe.num_shards = static_cast<int>(num_shards);
    (void)core::EncoderModel(base_probe)
        .layer_stage_times(nn::BertConfig::base(), 128);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "invalid --shards %lld for this geometry: %s\n",
                 static_cast<long long>(num_shards), e.what());
    return 2;
  }

  std::printf("Batched encoder analytic figures: L=%zu, d_model=%lld, "
              "%lld-layer stacks, %lld shards\n",
              seq_len, static_cast<long long>(bert.d_model),
              static_cast<long long>(num_layers),
              static_cast<long long>(num_shards));

  // --- Encoder stack model -------------------------------------------------
  // The hardware-time view of the stack: what the vector-grained inter-layer
  // overlap buys over a stack that barriers at every layer boundary, plus
  // the per-layer breakdown behind it.
  const core::EncoderStackModel stack_model(cfg);
  const auto stack = stack_model.run_encoder_stack(
      bert, static_cast<std::int64_t>(seq_len), num_layers);
  std::printf("\nEncoder stack model (N=%lld layers, L=%zu, analytic "
              "hardware time):\n",
              static_cast<long long>(stack.num_layers), seq_len);
  std::printf("  per layer         latency %.3f us (attention %.3f + ffn %.3f),"
              " energy %.3f uJ\n",
              stack.layer.latency.as_us(), stack.layer.attention.latency.as_us(),
              stack.layer.ffn_latency.as_us(), stack.layer.energy.as_uJ());
  std::printf("  stack makespan    vector-grained %.3f us, layer-barrier "
              "%.3f us (speedup %.3fx, closed form %.3fx)\n",
              stack.latency.as_us(), stack.operand_latency.as_us(),
              stack.stack_speedup, stack.analytic_stack_speedup);
  std::printf("  stack energy      %.3f uJ, avg power %.1f mW, softmax util "
              "%.2f\n",
              stack.energy.as_uJ(), stack.power.as_mW(),
              stack.softmax_stage_util);

  // --- Sharded crossbar tiles (analytic, BERT-base geometry) ---------------
  // Sharding is measured at the paper's geometry (768-wide projections,
  // 3072-wide FFN), where the tile grids are big enough for the shard-local
  // accumulation trees to beat the monolithic one.
  const nn::BertConfig bert_base = nn::BertConfig::base();
  const std::int64_t shard_seq_len = 128;
  core::StarConfig mono_cfg;  // K = 1 baseline
  core::StarConfig shard_cfg;
  shard_cfg.num_shards = static_cast<int>(num_shards);
  const core::EncoderModel mono_model(mono_cfg);
  const core::EncoderModel shard_model(shard_cfg);
  const auto mono_layer = mono_model.run_encoder_layer(bert_base, shard_seq_len);
  const auto shard_layer = shard_model.run_encoder_layer(bert_base, shard_seq_len);
  std::printf("\nSharded crossbar tiles (analytic, BERT-base, L=%lld, "
              "policy=%s):\n",
              static_cast<long long>(shard_seq_len),
              xbar::to_string(shard_cfg.shard_policy));
  std::printf("  monolithic layer  latency %.3f us, energy %.3f uJ\n",
              mono_layer.latency.as_us(), mono_layer.energy.as_uJ());
  std::printf("  K=%lld shards     latency %.3f us, energy %.3f uJ "
              "(speedup %.3fx)\n",
              static_cast<long long>(num_shards), shard_layer.latency.as_us(),
              shard_layer.energy.as_uJ(), mono_layer.latency / shard_layer.latency);
  std::printf("  interconnect      %.3f us merge time, %.3f uJ link traffic\n",
              shard_layer.interconnect_latency.as_us(),
              shard_layer.interconnect_energy.as_uJ());

  // --- Batching soak (virtual time) ----------------------------------------
  // Both policies replay the SAME bursty trace, offered at ~2x the
  // full-batch service rate so queues stay backlogged and batch formation
  // (not arrival starvation) decides occupancy.
  serve::BatchSimConfig soak_cfg;
  soak_cfg.max_batch = 8;
  soak_cfg.max_wait_ticks = 8;
  workload::BurstShape burst;
  burst.mean_inter_arrival_ticks =
      0.5 * (soak_cfg.batch_overhead_ticks /
                 static_cast<double>(soak_cfg.max_batch) +
             soak_cfg.ticks_per_token * length_hist.mean_len());
  const auto soak_lens =
      workload::sample_lengths(length_hist, soak_arrivals, kSeed ^ 0x50AC);
  const auto soak_trace =
      workload::ArrivalTrace::generate_burst(soak_arrivals, burst, kSeed);
  serve::BatchSimConfig ptm_cfg = soak_cfg;
  ptm_cfg.bucketing = serve::LengthBucketing::pad_to_max();
  serve::BatchSimConfig bkt_cfg = soak_cfg;
  bkt_cfg.bucketing = serve::LengthBucketing::bucketed(bucket_edges);
  const auto soak_ptm = serve::simulate_batching(soak_trace, soak_lens, ptm_cfg);
  const auto soak_bkt = serve::simulate_batching(soak_trace, soak_lens, bkt_cfg);

  // The calibrated soak: the bucketed replay with each batch priced by the
  // model's analytic latency at its padded length, ticks_per_us normalised
  // so the mean service cost matches the linear model's at the histogram
  // mean (same backlog regime). Every length the soak pads to (its bucket
  // edge, or the length itself past the last edge) is priced first, so
  // the ledger below is the replay's alone and every lookup hits.
  const core::BatchEncoderSim model(cfg, bert, 0xB127, num_layers);
  serve::BatchSimConfig cache_soak_cfg = bkt_cfg;
  cache_soak_cfg.analytic_model = &model;
  const auto mean_len = static_cast<std::int64_t>(length_hist.mean_len());
  cache_soak_cfg.analytic_ticks_per_us =
      soak_cfg.ticks_per_token * static_cast<double>(mean_len) /
      model.price_analytic(mean_len).latency.as_us();
  const serve::LengthBucketing& buckets = bkt_cfg.bucketing;
  for (const auto& bin : length_hist.bins) {
    (void)model.price_analytic(
        buckets.padded_len(buckets.bucket_of(bin.len), bin.len));
  }
  model.cost_cache().reset_stats();
  const auto soak_cache =
      serve::simulate_batching(soak_trace, soak_lens, cache_soak_cfg);
  const auto soak_cache_stats = model.cost_cache().stats();

  std::printf("\nBatching soak (virtual time, burst arrivals, dist=%s, "
              "%zu arrivals, mean len %.1f):\n",
              length_dist.c_str(), soak_arrivals, length_hist.mean_len());
  const auto print_soak = [&](const char* label,
                              const serve::BatchSimResult& r) {
    std::printf("  %-14s occupancy eff %.6f / padded %.6f, waste %.6f, "
                "%llu batches, wait mean %.1f p99 %.4f ticks, util %.3f\n",
                label, r.stats.effective_occupancy, r.stats.padded_occupancy,
                r.stats.padding_waste,
                static_cast<unsigned long long>(r.stats.batches),
                r.stats.queue_wait_mean_s, r.stats.queue_wait_p99_s,
                r.utilization);
  };
  print_soak("pad-to-max", soak_ptm);
  print_soak("bucketed", soak_bkt);
  if (length_dist != "fixed") {
    std::printf("  per bucket (bucketed):");
    for (const auto& b : soak_bkt.stats.per_bucket) {
      if (b.requests == 0) {
        continue;
      }
      std::printf(" [<=%lld: %llu req, waste %.3f]",
                  static_cast<long long>(b.edge),
                  static_cast<unsigned long long>(b.requests), b.padding_waste);
    }
    std::printf("\n");
  }
  std::printf("  calibrated     %llu cost-cache lookups, hit rate %.6f, waste "
              "%.6f, util %.3f\n",
              static_cast<unsigned long long>(soak_cache_stats.lookups),
              soak_cache_stats.hit_rate(), soak_cache.stats.padding_waste,
              soak_cache.utilization);
  return 0;
}
