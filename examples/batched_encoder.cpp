// Minimal serving walkthrough: one shared STAR model behind the async
// submit() -> future front end. Callers hand over individual requests; the
// server admits, coalesces and dispatches them — no batch boundary in
// sight. perfbench/ measures serving capacity and open-loop latency end
// to end (see perfbench/README.md).
#include <cstdio>
#include <future>
#include <vector>

#include "core/batch_encoder.hpp"
#include "core/encoder_stack.hpp"
#include "serve/star_server.hpp"

int main() {
  using namespace star;

  core::StarConfig cfg;
  const nn::BertConfig bert = nn::BertConfig::tiny();
  // Prepare weights for the model's full depth so requests may ask for any
  // num_layers in [1, bert.layers].
  const core::BatchEncoderSim model(cfg, bert, 0xB127,
                                    /*stack_depth=*/bert.layers);

  // Four independent sequences of different synthetic embeddings.
  const auto inputs = workload::embedding_batch(
      /*batch=*/4, /*seq_len=*/16, static_cast<std::size_t>(bert.d_model),
      /*embed_std=*/1.0, /*seed=*/42);

  // The server coalesces up to 4 pending requests, or dispatches earlier
  // once the oldest has waited 2 ticks. Admission blocks when the bounded
  // queue is full (see serve::AdmissionPolicy for reject / shed-oldest).
  sim::BatchScheduler sched(/*threads=*/4);
  serve::ServerOptions opts;
  opts.batcher.max_batch = 4;
  opts.batcher.max_wait_ticks = 2;
  serve::StarServer server(model, sched, opts);

  // Submit individual requests; each future resolves to a response that is
  // bit-identical to a solo closed-batch run with the same run_seed.
  // num_layers chains the request through the whole encoder stack.
  std::vector<std::future<serve::EncoderResponse>> futs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    futs.push_back(server.submit(serve::EncoderRequest{
        inputs[i], /*run_seed=*/1000 + i, /*num_layers=*/bert.layers}));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const auto resp = futs[i].get();
    std::printf("  seq %zu: output %zux%zu, out[0][0] = %+.6f "
                "(batch %llu of %zu, waited %.0f us)\n",
                i, resp.output.rows(), resp.output.cols(),
                resp.output.at(0, 0),
                static_cast<unsigned long long>(resp.stats.batch_id),
                resp.stats.batch_size, resp.stats.queue_wait_s * 1e6);
  }

  // The analytic face serves too: per-request latency at mixed lengths.
  const std::vector<std::int64_t> lens = {32, 64, 128, 256};
  std::vector<std::future<serve::AnalyticResponse>> lat;
  for (const std::int64_t len : lens) {
    lat.push_back(server.submit(serve::AnalyticRequest{len}));
  }
  for (std::size_t i = 0; i < lat.size(); ++i) {
    const auto resp = lat[i].get();
    std::printf("  L=%lld: attention layer latency %s\n",
                static_cast<long long>(lens[i]),
                to_string(resp.result.latency).c_str());
  }

  // The analytic stack model: what vector-grained inter-layer streaming
  // buys over a stack that barriers at every layer boundary.
  const core::EncoderStackModel stack_model(cfg);
  const auto stack = stack_model.run_encoder_stack(bert, /*seq_len=*/16);
  std::printf("  %lld-layer stack at L=16: %.3f us vector-grained vs "
              "%.3f us layer-barrier (%.2fx)\n",
              static_cast<long long>(stack.num_layers), stack.latency.as_us(),
              stack.operand_latency.as_us(), stack.stack_speedup);

  const auto stats = server.stats();
  std::printf("served %llu requests in %llu batches "
              "(mean occupancy %.2f) on %d threads\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.batches),
              stats.batch_occupancy_mean, sched.thread_count());
  return 0;
}
