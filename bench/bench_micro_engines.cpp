// E9 — google-benchmark microbenchmarks of the simulator's functional
// primitives: how fast the *simulation* executes (host-side throughput),
// useful for sizing larger experiments.
#include <benchmark/benchmark.h>

#include "baseline/cmos_softmax.hpp"
#include "baseline/gpu_model.hpp"
#include "baseline/pipelayer.hpp"
#include "baseline/retransformer.hpp"
#include "baseline/softermax.hpp"
#include "core/accelerator.hpp"
#include "core/matmul_engine.hpp"
#include "core/softmax_engine.hpp"
#include "nn/attention.hpp"
#include "nn/softmax_ref.hpp"
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
BENCHMARK(BM_StarSoftmaxEngine)->Arg(8)->Arg(128)->Arg(512);

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

// One uncached design point split by stage, as perfbench's design-sweep
// evaluates it on BERT-base (default config): the StarAccelerator build,
// STAR's evaluation, and each baseline's build plus evaluation.
void BM_DesignPointBuild(benchmark::State& state) {
  const core::StarConfig cfg;
  for (auto _ : state) {
    const core::StarAccelerator acc(cfg);
    benchmark::DoNotOptimize(&acc);
  }
}
BENCHMARK(BM_DesignPointBuild);

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

}  // namespace
