// E9 — google-benchmark microbenchmarks of the simulator's functional
// primitives: how fast the *simulation* executes (host-side throughput),
// useful for sizing larger experiments.
#include <benchmark/benchmark.h>

#include <future>
#include <vector>

#include "baseline/cmos_softmax.hpp"
#include "baseline/gpu_model.hpp"
#include "baseline/pipelayer.hpp"
#include "baseline/retransformer.hpp"
#include "baseline/softermax.hpp"
#include "core/accelerator.hpp"
#include "core/batch_encoder.hpp"
#include "core/matmul_engine.hpp"
#include "core/softmax_engine.hpp"
#include "nn/attention.hpp"
#include "nn/bert.hpp"
#include "nn/softmax_ref.hpp"
#include "nn/workspace.hpp"
#include "serve/star_server.hpp"
#include "sim/batch_scheduler.hpp"
#include "sim/pipeline_sim.hpp"
#include "util/rng.hpp"
#include "workload/dataset_profile.hpp"
#include "xbar/cam_sub.hpp"
#include "xbar/vmm_engine.hpp"

namespace {

using namespace star;

std::vector<double> sample_row(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return workload::DatasetProfile::cnews().sample_row(n, rng);
}

void BM_ExactSoftmax(benchmark::State& state) {
  const auto row = sample_row(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::softmax(row));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExactSoftmax)->Arg(128)->Arg(512);

// The engine's hot path: softmax_row_into on a warm run state (the
// counters and scratch are sized by the first row, so the timed rows
// allocate nothing). It cycles a pool of distinct rows: with one repeated
// row the branch predictor learns it and the quantise loop reads several
// times faster than on real scores.
void BM_StarSoftmaxEngine(benchmark::State& state) {
  constexpr std::size_t kPool = 64;
  core::StarConfig cfg;
  cfg.softmax_format = fxp::kMrpcFormat;
  const core::SoftmaxEngine eng(cfg);
  core::SoftmaxRunState run;
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < kPool; ++i) {
    rows.push_back(sample_row(static_cast<std::size_t>(state.range(0)), 2 + i));
  }
  std::vector<double> out(rows.front().size());
  for (const auto& row : rows) {
    eng.softmax_row_into(row, run, out);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    eng.softmax_row_into(rows[next], run, out);
    next = (next + 1) % kPool;
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StarSoftmaxEngine)->Arg(8)->Arg(128)->Arg(384)->Arg(512);

void BM_Softermax(benchmark::State& state) {
  baseline::SoftermaxUnit unit(hw::TechNode::n32());
  const auto row = sample_row(static_cast<std::size_t>(state.range(0)), 3);
  std::vector<double> out(row.size());
  for (auto _ : state) {
    unit(row, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Softermax)->Arg(128)->Arg(512);

void BM_CmosSoftmax(benchmark::State& state) {
  baseline::CmosSoftmaxUnit unit(hw::TechNode::n32());
  const auto row = sample_row(static_cast<std::size_t>(state.range(0)), 4);
  std::vector<double> out(row.size());
  for (auto _ : state) {
    unit(row, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CmosSoftmax)->Arg(128);

void BM_CamSubMaxFind(benchmark::State& state) {
  const xbar::CamSubCrossbar cs(hw::TechNode::n32(), xbar::RramDevice::ideal(2), 9);
  Rng rng(5);
  std::vector<std::int64_t> codes(static_cast<std::size_t>(state.range(0)));
  for (auto& c : codes) {
    c = rng.uniform_int(0, 511);
  }
  xbar::MaxFindResult res;
  for (auto _ : state) {
    cs.find_max_into(codes, 0.0, rng, res);
    benchmark::DoNotOptimize(res.max_code);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CamSubMaxFind)->Arg(128)->Arg(512);

void BM_BitSlicedVmm(benchmark::State& state) {
  xbar::VmmConfig cfg;
  cfg.rows = 128;
  cfg.cols = 128;
  cfg.ideal_readout = true;
  cfg.adc_bits = 8;
  xbar::BitSlicedVmm vmm(hw::TechNode::n32(), xbar::RramDevice::ideal(2), cfg);
  Rng rng(6);
  std::vector<std::vector<std::int64_t>> w(128,
                                           std::vector<std::int64_t>(vmm.logical_cols()));
  for (auto& row : w) {
    for (auto& v : row) {
      v = rng.uniform_int(0, 255);
    }
  }
  vmm.program_weights(w);
  std::vector<std::int64_t> x(128);
  for (auto& v : x) {
    v = rng.uniform_int(0, 255);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(vmm.multiply(x));
  }
  state.SetItemsProcessed(state.iterations() * 128 * vmm.logical_cols());
}
BENCHMARK(BM_BitSlicedVmm);

void BM_AttentionWithStarSoftmax(benchmark::State& state) {
  core::StarConfig cfg;
  cfg.softmax_format = fxp::kMrpcFormat;
  const core::SoftmaxEngine eng(cfg);
  core::SoftmaxRunState run;
  core::SoftmaxEngineRowRef star(eng, run);
  Rng rng(7);
  const auto q = nn::Tensor::randn(32, 64, rng);
  const auto k = nn::Tensor::randn(32, 64, rng);
  const auto v = nn::Tensor::randn(32, 64, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::scaled_dot_attention(q, k, v, star));
  }
}
BENCHMARK(BM_AttentionWithStarSoftmax);

void BM_MatmulEngineFunctional(benchmark::State& state) {
  core::MatmulEngine eng((core::StarConfig()));
  Rng rng(8);
  const auto x = nn::Tensor::randn(8, 128, rng);
  const auto w = nn::Tensor::randn(128, 32, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.multiply(x, w));
  }
}
BENCHMARK(BM_MatmulEngineFunctional);

// The encoder's fused matmul kernels at the shapes it runs them. `a` is
// m x depth and the right operand depth x n (n x depth for the transposed
// kernel); each operand and the output is a column block of a row-major
// buffer `*_stride` wide, as a head's slice of the fused Q/K/V and context
// buffers is. Items are multiply-adds.
struct MatmulShape {
  std::size_t m, depth, n, a_stride, b_stride, out_stride;
};

using MatmulKernel = void (*)(nn::ConstTensorView, nn::ConstTensorView,
                              nn::TensorView);

void run_matmul(benchmark::State& state, MatmulKernel kernel, bool transb,
                const MatmulShape& s) {
  Rng rng(9);
  const auto a = nn::Tensor::randn(s.m, s.a_stride, rng);
  const auto b = nn::Tensor::randn(transb ? s.n : s.depth, s.b_stride, rng);
  nn::Tensor out(s.m, s.out_stride);
  const nn::ConstTensorView a_view{a.flat().data(), s.m, s.depth, s.a_stride};
  const nn::ConstTensorView b_view{b.flat().data(), transb ? s.n : s.depth,
                                   transb ? s.depth : s.n, s.b_stride};
  const nn::TensorView out_view{out.flat().data(), s.m, s.n, s.out_stride};
  for (auto _ : state) {
    kernel(a_view, b_view, out_view);
    benchmark::DoNotOptimize(out_view.data);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.m * s.depth * s.n));
}

void BM_MatmulInto(benchmark::State& state, MatmulShape s) {
  run_matmul(state, nn::matmul_into, false, s);
}

void BM_MatmulTransbInto(benchmark::State& state, MatmulShape s) {
  run_matmul(state, nn::matmul_transb_into, true, s);
}

// Tiny (d_model 32, 2 heads, d_ff 64), cluster-mixed's model: scores
// Q_h K_h^T, context P V_h, a projection and the two FFN products.
BENCHMARK_CAPTURE(BM_MatmulTransbInto, tiny_scores_128,
                  MatmulShape{128, 16, 128, 32, 32, 128});
BENCHMARK_CAPTURE(BM_MatmulTransbInto, tiny_scores_384,
                  MatmulShape{384, 16, 384, 32, 32, 384});
// Lengths that are not a multiple of the 8-column panel: the tail's cost.
BENCHMARK_CAPTURE(BM_MatmulTransbInto, tiny_scores_100,
                  MatmulShape{100, 16, 100, 32, 32, 100});
BENCHMARK_CAPTURE(BM_MatmulTransbInto, tiny_scores_383,
                  MatmulShape{383, 16, 383, 32, 32, 383});
BENCHMARK_CAPTURE(BM_MatmulInto, tiny_context_128,
                  MatmulShape{128, 128, 16, 128, 32, 32});
BENCHMARK_CAPTURE(BM_MatmulInto, tiny_context_384,
                  MatmulShape{384, 384, 16, 384, 32, 32});
BENCHMARK_CAPTURE(BM_MatmulInto, tiny_projection_128,
                  MatmulShape{128, 32, 32, 32, 32, 32});
BENCHMARK_CAPTURE(BM_MatmulInto, tiny_projection_384,
                  MatmulShape{384, 32, 32, 32, 32, 32});
BENCHMARK_CAPTURE(BM_MatmulInto, tiny_ffn1_128, MatmulShape{128, 32, 64, 32, 64, 64});
BENCHMARK_CAPTURE(BM_MatmulInto, tiny_ffn1_384, MatmulShape{384, 32, 64, 32, 64, 64});
BENCHMARK_CAPTURE(BM_MatmulInto, tiny_ffn2_128, MatmulShape{128, 64, 32, 64, 32, 32});
BENCHMARK_CAPTURE(BM_MatmulInto, tiny_ffn2_384, MatmulShape{384, 64, 32, 64, 32, 32});
// BERT-base at L = 128 (d_model 768, 12 heads of d_k 64, d_ff 3072).
BENCHMARK_CAPTURE(BM_MatmulTransbInto, base_scores_128,
                  MatmulShape{128, 64, 128, 768, 768, 128});
BENCHMARK_CAPTURE(BM_MatmulInto, base_projection_128,
                  MatmulShape{128, 768, 768, 768, 768, 768});
BENCHMARK_CAPTURE(BM_MatmulInto, base_ffn1_128,
                  MatmulShape{128, 768, 3072, 768, 3072, 3072});
BENCHMARK_CAPTURE(BM_MatmulInto, base_ffn2_128,
                  MatmulShape{128, 3072, 768, 3072, 768, 768});

// One tiny encoder layer on the STAR softmax engine, arena-backed as the
// serving path runs it (weights and workspace built once).
void BM_EncoderLayerInto(benchmark::State& state) {
  const auto seq = static_cast<std::size_t>(state.range(0));
  const nn::BertConfig bert = nn::BertConfig::tiny();
  Rng rng(10);
  const auto weights = nn::EncoderLayerWeights::random(bert, rng);
  const auto x = nn::Tensor::randn(seq, static_cast<std::size_t>(bert.d_model), rng);
  const core::SoftmaxEngine eng((core::StarConfig()));
  core::SoftmaxRunState run;
  core::SoftmaxEngineRowRef softmax(eng, run);
  nn::Workspace ws;
  ws.require_capacity(nn::encoder_workspace_doubles(bert, seq));
  nn::Tensor out(seq, static_cast<std::size_t>(bert.d_model));
  for (auto _ : state) {
    ws.reset();
    nn::encoder_layer_forward_into(nn::view_of(x), weights, softmax, ws,
                                   nn::view_of(out));
    benchmark::DoNotOptimize(out.flat().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EncoderLayerInto)->Arg(32)->Arg(128)->Arg(384);

// The item-granular pipeline recurrence as the accelerator models run it:
// {stages, items}, items processed are cells. The 7-stage case is the
// encoder stack's steady segment, the longest list the recurrence takes
// (sim::kMaxStages).
void BM_PipelineSimulate(benchmark::State& state) {
  const auto stages = static_cast<std::size_t>(state.range(0));
  const auto items = static_cast<std::size_t>(state.range(1));
  Rng rng(7);
  std::vector<Time> services;
  for (std::size_t s = 0; s < stages; ++s) {
    services.push_back(Time::ns(rng.uniform(100.0, 900.0)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(services, items));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(1));
}
BENCHMARK(BM_PipelineSimulate)->Args({5, 64})->Args({5, 384})->Args({7, 128});

// One uncached design point split by stage, as perfbench's design-sweep
// evaluates it on BERT-base (default config): the StarAccelerator build
// (for the 7-, 8- and 9-bit paper formats), STAR's evaluation, and each
// baseline's build plus evaluation.
void BM_DesignPointBuild(benchmark::State& state) {
  core::StarConfig cfg;
  cfg.softmax_format = state.range(0) == 7   ? fxp::kColaFormat
                       : state.range(0) == 8 ? fxp::kCnewsFormat
                                             : fxp::kMrpcFormat;
  for (auto _ : state) {
    const core::StarAccelerator acc(cfg);
    benchmark::DoNotOptimize(&acc);
  }
}
BENCHMARK(BM_DesignPointBuild)->Arg(7)->Arg(8)->Arg(9);

void BM_DesignPointStarEval(benchmark::State& state) {
  const core::StarAccelerator acc((core::StarConfig()));
  const nn::BertConfig bert = nn::BertConfig::base();
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.run_attention_layer(bert, state.range(0)));
  }
}
BENCHMARK(BM_DesignPointStarEval)->Arg(128)->Arg(384);

void BM_DesignPointGpu(benchmark::State& state) {
  const nn::BertConfig bert = nn::BertConfig::base();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baseline::GpuModel().run_attention_layer(bert, state.range(0)));
  }
}
BENCHMARK(BM_DesignPointGpu)->Arg(128);

void BM_DesignPointPipeLayer(benchmark::State& state) {
  const core::StarConfig cfg;
  const nn::BertConfig bert = nn::BertConfig::base();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baseline::PipeLayerModel(cfg).run_attention_layer(bert, state.range(0)));
  }
}
BENCHMARK(BM_DesignPointPipeLayer)->Arg(128);

void BM_DesignPointReTransformer(benchmark::State& state) {
  const core::StarConfig cfg;
  const nn::BertConfig bert = nn::BertConfig::base();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baseline::ReTransformerModel(cfg).run_attention_layer(bert, state.range(0)));
  }
}
BENCHMARK(BM_DesignPointReTransformer)->Arg(128);

// A 20,000-request analytic burst through a fresh StarServer on a 3-thread
// scheduler, over a warm BERT-base model: every request is a CostCache
// hit, so admission, batch formation, dispatch and completion are what is
// timed (wall clock, submit of the first request to the last response).
// Lengths and datasets follow the three datasets' length mix; items
// processed are requests.
void BM_StarServerAnalyticBurst(benchmark::State& state) {
  constexpr std::size_t kBurst = 20000;
  const core::BatchEncoderSim model((core::StarConfig()), nn::BertConfig::base());
  const workload::Dataset datasets[] = {workload::Dataset::kCnews,
                                        workload::Dataset::kMrpc,
                                        workload::Dataset::kCola};
  Rng rng(23);
  std::vector<serve::AnalyticRequest> requests;
  requests.reserve(kBurst);
  for (std::size_t i = 0; i < kBurst; ++i) {
    const workload::Dataset d = datasets[rng.uniform_int(0, 2)];
    requests.push_back(serve::AnalyticRequest{workload::length_histogram_for(d).sample(rng), d});
  }
  for (const serve::AnalyticRequest& r : requests) {
    (void)model.run_analytic_one(r.seq_len, r.dataset);  // warm every key
  }
  serve::ServerOptions opts;
  opts.max_queue = kBurst;
  opts.batcher.max_batch = 8;
  std::vector<std::future<serve::AnalyticResponse>> futures;
  futures.reserve(kBurst);
  for (auto _ : state) {
    sim::BatchScheduler sched(3);
    serve::StarServer server(model, sched, opts);
    for (const serve::AnalyticRequest& r : requests) {
      futures.push_back(server.submit(r));
    }
    for (auto& f : futures) {
      benchmark::DoNotOptimize(f.get());
    }
    futures.clear();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBurst));
}
BENCHMARK(BM_StarServerAnalyticBurst)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
