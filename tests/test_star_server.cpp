// serve::StarServer: the asynchronous submit() -> future front end.
//
// The load-bearing property is the per-request determinism contract: a
// response payload depends only on (request payload, request run_seed) and
// is bit-identical to a solo closed-batch run — never on batch placement,
// batcher policy, submission order or thread count. The rest covers the
// admission policies (block / reject / shed-oldest), future exception
// propagation, drain/shutdown semantics and stats accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <iterator>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "core/batch_encoder.hpp"
#include "serve/request.hpp"
#include "serve/star_server.hpp"
#include "sim/batch_scheduler.hpp"
#include "util/alloc_counter.hpp"
#include "util/status.hpp"
#include "workload/trace_gen.hpp"
#include "xbar/residency.hpp"

namespace star {
namespace {

core::StarConfig tiny_cfg() {
  core::StarConfig cfg;
  cfg.max_seq_len = 128;
  return cfg;
}

const nn::BertConfig kBert = nn::BertConfig::tiny();

/// Shared model for the whole binary: construction is the expensive part
/// and the model is immutable by contract.
const core::BatchEncoderSim& shared_model() {
  static const core::BatchEncoderSim model(tiny_cfg(), kBert);
  return model;
}

std::vector<nn::Tensor> test_inputs(std::size_t n, std::uint64_t seed,
                                    std::size_t seq_len = 10) {
  return workload::embedding_batch(
      n, seq_len, static_cast<std::size_t>(kBert.d_model), 1.0, seed);
}

/// The reference a served request must match bit-for-bit: a solo
/// closed-batch run with the request's own run_seed.
nn::Tensor solo_reference(const core::BatchEncoderSim& model,
                          const nn::Tensor& input, std::uint64_t run_seed) {
  // The serving seed rule: a solo run is batch index 0 of run_seed.
  return model.run_encoder_one(input, workload::sequence_seed(run_seed, 0));
}

// ---------- determinism contract ----------

TEST(StarServer, SingleRequestMatchesSoloClosedBatchRun) {
  const auto& model = shared_model();
  const auto inputs = test_inputs(1, 0xA11CE);
  const std::uint64_t run_seed = 0xD00D;
  const nn::Tensor expected = solo_reference(model, inputs[0], run_seed);

  sim::BatchScheduler sched(2);
  serve::StarServer server(model, sched);
  auto fut = server.submit(serve::EncoderRequest{inputs[0], run_seed});
  const auto resp = fut.get();
  EXPECT_TRUE(nn::Tensor::bit_identical(resp.output, expected));
  EXPECT_EQ(resp.stats.batch_size, 1u);
}

TEST(StarServer, ResponsesIndependentOfBatchPlacement) {
  // The same request served alone and served inside a crowded batch must
  // produce the identical payload.
  const auto& model = shared_model();
  const auto inputs = test_inputs(8, 0xBEE);
  std::vector<nn::Tensor> expected;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expected.push_back(solo_reference(model, inputs[i], 0x100 + i));
  }

  sim::BatchScheduler sched(4);
  serve::ServerOptions opts;
  opts.batcher.max_batch = 8;  // everything coalesces into one batch
  opts.batcher.max_wait_ticks = 1000;
  serve::StarServer server(model, sched, opts);

  std::vector<std::future<serve::EncoderResponse>> futs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    futs.push_back(server.submit(serve::EncoderRequest{inputs[i], 0x100 + i}));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    EXPECT_TRUE(nn::Tensor::bit_identical(futs[i].get().output, expected[i]))
        << "request " << i;
  }
}

TEST(StarServer, ShuffledSubmissionOrderSameResults) {
  const auto& model = shared_model();
  const auto inputs = test_inputs(10, 0x0DDB);
  std::vector<nn::Tensor> expected;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expected.push_back(solo_reference(model, inputs[i], 0x9000 + i));
  }

  std::vector<std::size_t> order(inputs.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(0x5107);  // deterministic shuffle
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(
                                rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }

  sim::BatchScheduler sched(3);
  serve::ServerOptions opts;
  opts.batcher.max_batch = 3;
  serve::StarServer server(model, sched, opts);
  std::vector<std::future<serve::EncoderResponse>> futs(inputs.size());
  for (const std::size_t i : order) {
    futs[i] = server.submit(serve::EncoderRequest{inputs[i], 0x9000 + i});
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    EXPECT_TRUE(nn::Tensor::bit_identical(futs[i].get().output, expected[i]))
        << "request " << i;
  }
}

TEST(StarServer, FaultInjectionStreamsReproducibleAcrossApis) {
  // cam_miss_prob > 0 makes the per-request RNG stream decide sampled
  // faults; the serve path must draw the same stream as a solo batch call.
  core::StarConfig cfg = tiny_cfg();
  cfg.cam_miss_prob = 0.02;
  const core::BatchEncoderSim model(cfg, kBert);
  const auto inputs = test_inputs(4, 0xFA57);

  sim::BatchScheduler sched(2);
  serve::StarServer server(model, sched);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::uint64_t run_seed = 0x7000 + i;
    auto fut = server.submit(serve::EncoderRequest{inputs[i], run_seed});
    EXPECT_TRUE(nn::Tensor::bit_identical(
        fut.get().output, solo_reference(model, inputs[i], run_seed)));
  }
}

// ---------- policy x thread-count sweep ----------

class ServerPolicySweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ServerPolicySweep, BitIdenticalToSoloRunsEverywhere) {
  const auto [threads, max_batch, max_wait_ticks] = GetParam();
  const auto& model = shared_model();
  const auto inputs = test_inputs(7, 0x5EEDED, 8);
  std::vector<nn::Tensor> expected;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expected.push_back(solo_reference(model, inputs[i], 0x4242 + i));
  }

  sim::BatchScheduler sched(threads);
  serve::ServerOptions opts;
  opts.batcher.max_batch = static_cast<std::size_t>(max_batch);
  opts.batcher.max_wait_ticks = static_cast<std::uint32_t>(max_wait_ticks);
  serve::StarServer server(model, sched, opts);

  std::vector<std::future<serve::EncoderResponse>> futs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    futs.push_back(server.submit(serve::EncoderRequest{inputs[i], 0x4242 + i}));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    EXPECT_TRUE(nn::Tensor::bit_identical(futs[i].get().output, expected[i]))
        << "threads=" << threads << " max_batch=" << max_batch
        << " max_wait_ticks=" << max_wait_ticks << " request " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ServerPolicySweep,
    ::testing::Combine(::testing::Values(1, 2, 5),   // scheduler threads
                       ::testing::Values(1, 3, 16),  // batcher max_batch
                       ::testing::Values(0, 4)));    // batcher max_wait_ticks

// ---------- attention + analytic variants ----------

TEST(StarServer, AttentionVariantMatchesSoloRun) {
  const auto& model = shared_model();
  const auto qkv = workload::qkv_batch(3, 10, 16, 2.0, 0xF00D);
  sim::BatchScheduler sched(2);
  serve::StarServer server(model, sched);

  for (std::size_t i = 0; i < qkv.size(); ++i) {
    const std::uint64_t run_seed = 0xAA00 + i;
    auto fut = server.submit(serve::AttentionRequest{qkv[i], run_seed});
    const auto resp = fut.get();

    const auto ref = model.run_attention_one(
        qkv[i], workload::sequence_seed(run_seed, 0));
    EXPECT_TRUE(nn::Tensor::bit_identical(resp.result.output, ref.output));
    EXPECT_TRUE(nn::Tensor::bit_identical(resp.result.probabilities,
                                          ref.probabilities));
  }
}

TEST(StarServer, AnalyticVariantMatchesDirectRun) {
  const auto& model = shared_model();
  sim::BatchScheduler sched(2);
  serve::StarServer server(model, sched);
  for (const std::int64_t len : {32, 64, 128}) {
    auto fut = server.submit(serve::AnalyticRequest{len});
    const auto resp = fut.get();
    const auto direct = model.accelerator().run_attention_layer(kBert, len);
    EXPECT_DOUBLE_EQ(resp.result.latency.as_s(), direct.latency.as_s());
    EXPECT_DOUBLE_EQ(resp.result.energy.as_J(), direct.energy.as_J());
    EXPECT_DOUBLE_EQ(resp.result.power.as_W(), direct.power.as_W());
  }
}

TEST(StarServer, HostileAnalyticLengthsRejectedBeforeResidency) {
  // A length outside [2, max_seq_len] is refused before the dataset's LUT
  // image is acquired: no lookup, no miss, no programming bill, and no
  // worker time spent pricing a length the counters are not sized for.
  core::StarConfig cfg = tiny_cfg();
  cfg.residency_capacity = 4;
  const core::BatchEncoderSim model(cfg, kBert);
  const auto ledger = [&] { return model.residency().stats(); };
  const auto same_ledger = [](const xbar::ResidencyStats& a,
                              const xbar::ResidencyStats& b) {
    return a.lookups == b.lookups && a.hits == b.hits && a.misses == b.misses &&
           a.evictions == b.evictions &&
           a.programming.latency.as_s() == b.programming.latency.as_s() &&
           a.programming.energy.as_J() == b.programming.energy.as_J();
  };
  const std::int64_t max_len = cfg.max_seq_len;
  const std::int64_t hostile[] = {0, 1, -7, max_len + 1, 100000, 100000000};

  const xbar::ResidencyStats before = ledger();
  for (const std::int64_t len : hostile) {
    EXPECT_THROW((void)model.run_analytic_one(len, workload::Dataset::kCnews),
                 InvalidArgument)
        << "seq_len " << len;
    EXPECT_TRUE(same_ledger(ledger(), before)) << "seq_len " << len;
  }

  // Through the server the refusal comes at submit(), before admission:
  // the length never joins a queue, so it cannot set a batchmate's padded
  // length or bill the token ledger.
  sim::BatchScheduler sched(2);
  serve::ServerOptions opts;
  opts.batcher.max_batch = 2;
  opts.batcher.max_wait_ticks = 20;
  opts.batcher.tick = std::chrono::milliseconds(1);
  serve::StarServer server(model, sched, opts);
  for (const std::int64_t len : hostile) {
    auto fut = server.submit(serve::AnalyticRequest{len, workload::Dataset::kCnews});
    EXPECT_THROW(fut.get(), InvalidArgument) << "seq_len " << len;
    EXPECT_TRUE(same_ledger(ledger(), before)) << "seq_len " << len;
  }
  EXPECT_EQ(server.pending(), 0u);

  // Admitted, the hostile request would fill a batch of two with the valid
  // one behind it and bill both at 10^8 tokens. Refused, it leaves the
  // longest admissible length to age out alone at its own padded length
  // (paying the image's one cold miss).
  auto hostile_fut =
      server.submit(serve::AnalyticRequest{100000000, workload::Dataset::kCnews});
  auto served_fut =
      server.submit(serve::AnalyticRequest{max_len, workload::Dataset::kCnews});
  EXPECT_THROW(hostile_fut.get(), InvalidArgument);
  const serve::AnalyticResponse served = served_fut.get();
  EXPECT_EQ(served.stats.seq_len, max_len);
  EXPECT_EQ(served.stats.batch_size, 1u);
  EXPECT_EQ(served.stats.padded_len, max_len);
  EXPECT_EQ(served.stats.lut_misses, 1u);
  EXPECT_EQ(ledger().lookups, before.lookups + 1);

  server.drain();
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, std::size(hostile) + 2);
  EXPECT_EQ(stats.rejected, std::size(hostile) + 1);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.effective_tokens, static_cast<std::uint64_t>(max_len));
  EXPECT_EQ(stats.padded_tokens, static_cast<std::uint64_t>(max_len));
}

// ---------- admission control ----------

/// Options that park requests in the queue: a far-future age-out deadline
/// and a batch size the test never fills, so admission behaviour is
/// observable before any dispatch happens.
serve::ServerOptions parked_queue_opts(std::size_t max_queue,
                                       serve::AdmissionPolicy policy) {
  serve::ServerOptions opts;
  opts.max_queue = max_queue;
  opts.admission = policy;
  opts.batcher.max_batch = 1000;
  opts.batcher.max_wait_ticks = 1000;
  opts.batcher.tick = std::chrono::microseconds(100000);  // 100 s age-out
  return opts;
}

TEST(StarServer, RejectPolicyFailsNewRequestFuture) {
  const auto& model = shared_model();
  const auto inputs = test_inputs(2, 0xCAFE, 6);
  sim::BatchScheduler sched(1);
  serve::StarServer server(
      model, sched, parked_queue_opts(1, serve::AdmissionPolicy::kReject));

  auto first = server.submit(serve::EncoderRequest{inputs[0], 1});
  auto second = server.submit(serve::EncoderRequest{inputs[1], 2});
  EXPECT_THROW(second.get(), serve::RejectedError);

  server.shutdown();  // dispatches the parked request
  EXPECT_TRUE(nn::Tensor::bit_identical(first.get().output,
                                        solo_reference(model, inputs[0], 1)));
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(StarServer, ShedOldestPolicyEvictsTheOldestPending) {
  const auto& model = shared_model();
  const auto inputs = test_inputs(2, 0xD0E, 6);
  sim::BatchScheduler sched(1);
  serve::StarServer server(
      model, sched, parked_queue_opts(1, serve::AdmissionPolicy::kShedOldest));

  auto oldest = server.submit(serve::EncoderRequest{inputs[0], 1});
  auto newest = server.submit(serve::EncoderRequest{inputs[1], 2});
  EXPECT_THROW(oldest.get(), serve::ShedError);

  server.shutdown();
  EXPECT_TRUE(nn::Tensor::bit_identical(newest.get().output,
                                        solo_reference(model, inputs[1], 2)));
  const auto stats = server.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(StarServer, ShedErrorIsAnAdmissionError) {
  // Callers may catch the policy-agnostic base type.
  const auto& model = shared_model();
  const auto inputs = test_inputs(2, 0xE44, 6);
  sim::BatchScheduler sched(1);
  serve::StarServer server(
      model, sched, parked_queue_opts(1, serve::AdmissionPolicy::kShedOldest));
  auto oldest = server.submit(serve::EncoderRequest{inputs[0], 1});
  auto newest = server.submit(serve::EncoderRequest{inputs[1], 2});
  EXPECT_THROW(oldest.get(), serve::AdmissionError);
  server.shutdown();
  newest.get();
}

TEST(StarServer, BlockPolicyThrottlesButServesEverything) {
  // A tiny queue with a fast batcher: submitters block transiently, but
  // every request is eventually admitted, served and correct.
  const auto& model = shared_model();
  const auto inputs = test_inputs(12, 0xB10C, 6);
  sim::BatchScheduler sched(2);
  serve::ServerOptions opts;
  opts.max_queue = 2;
  opts.admission = serve::AdmissionPolicy::kBlock;
  opts.batcher.max_batch = 2;
  opts.batcher.max_wait_ticks = 0;  // dispatch immediately
  serve::StarServer server(model, sched, opts);

  std::vector<std::future<serve::EncoderResponse>> futs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    futs.push_back(server.submit(serve::EncoderRequest{inputs[i], 0x600 + i}));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    EXPECT_TRUE(nn::Tensor::bit_identical(
        futs[i].get().output, solo_reference(model, inputs[i], 0x600 + i)));
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.admitted, inputs.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(StarServer, SubmitAfterShutdownIsRejected) {
  const auto& model = shared_model();
  const auto inputs = test_inputs(1, 0x511, 6);
  sim::BatchScheduler sched(1);
  serve::StarServer server(model, sched);
  server.shutdown();
  auto fut = server.submit(serve::EncoderRequest{inputs[0], 1});
  EXPECT_THROW(fut.get(), serve::RejectedError);
  EXPECT_EQ(server.stats().rejected, 1u);
}

// ---------- exception propagation + lifecycle ----------

TEST(StarServer, OverlongSequenceRejectedThroughFuture) {
  // The softmax counters are sized for max_seq_len: a longer sequence must
  // fail at the boundary, not come back with saturated probabilities.
  core::StarConfig cfg;
  cfg.max_seq_len = 8;
  const core::BatchEncoderSim model(cfg, kBert);
  const auto fits = test_inputs(1, 0x5E0, 8);
  const auto too_long = test_inputs(1, 0x5E1, 40);
  nn::Tensor out;
  EXPECT_THROW(model.run_encoder_one_into(too_long[0], 1, out), InvalidArgument);
  EXPECT_THROW((void)model.run_encoder_one(too_long[0], 1), InvalidArgument);
  EXPECT_EQ(model.run_encoder_one(fits[0], 1).rows(), 8u);

  sim::BatchScheduler sched(2);
  serve::StarServer server(model, sched);
  auto bad_fut = server.submit(serve::EncoderRequest{too_long[0], 1});
  EXPECT_THROW(bad_fut.get(), InvalidArgument);
  auto good_fut = server.submit(serve::EncoderRequest{fits[0], 2});
  EXPECT_TRUE(nn::Tensor::bit_identical(good_fut.get().output,
                                        solo_reference(model, fits[0], 2)));
}

TEST(StarServer, ComputeExceptionPropagatesThroughOwnFutureOnly) {
  const auto& model = shared_model();
  const auto good = test_inputs(1, 0x60D, 6);
  // Wrong width: run_encoder_one's d_model precondition fails in the job.
  Rng rng(1);
  const nn::Tensor bad = nn::Tensor::randn(
      6, static_cast<std::size_t>(kBert.d_model) + 1, rng, 0.0, 1.0);

  sim::BatchScheduler sched(2);
  serve::ServerOptions opts;
  opts.batcher.max_batch = 2;  // bad + good coalesce into one batch
  opts.batcher.max_wait_ticks = 1000;
  serve::StarServer server(model, sched, opts);

  auto bad_fut = server.submit(serve::EncoderRequest{bad, 1});
  auto good_fut = server.submit(serve::EncoderRequest{good[0], 2});
  EXPECT_THROW(bad_fut.get(), InvalidArgument);
  EXPECT_TRUE(nn::Tensor::bit_identical(good_fut.get().output,
                                        solo_reference(model, good[0], 2)));

  // The server survives a failed request and keeps serving.
  auto again = server.submit(serve::EncoderRequest{good[0], 3});
  EXPECT_TRUE(nn::Tensor::bit_identical(again.get().output,
                                        solo_reference(model, good[0], 3)));
  const auto stats = server.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(StarServer, DrainWaitsForAllAdmittedRequests) {
  const auto& model = shared_model();
  const auto inputs = test_inputs(6, 0xD8A1, 6);
  sim::BatchScheduler sched(2);
  serve::ServerOptions opts;
  opts.batcher.max_batch = 2;
  serve::StarServer server(model, sched, opts);

  std::vector<std::future<serve::EncoderResponse>> futs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    futs.push_back(server.submit(serve::EncoderRequest{inputs[i], i}));
  }
  server.drain();
  for (auto& fut : futs) {
    EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  EXPECT_EQ(server.pending(), 0u);
  EXPECT_EQ(server.stats().completed, inputs.size());
}

TEST(StarServer, DestructorResolvesEveryAdmittedFuture) {
  const auto& model = shared_model();
  const auto inputs = test_inputs(5, 0xDEAD, 6);
  std::vector<std::future<serve::EncoderResponse>> futs;
  {
    sim::BatchScheduler sched(2);
    serve::ServerOptions opts;
    opts.batcher.max_batch = 1000;  // park everything until shutdown drains
    opts.batcher.max_wait_ticks = 1000;
    opts.batcher.tick = std::chrono::microseconds(100000);
    serve::StarServer server(model, sched, opts);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      futs.push_back(server.submit(serve::EncoderRequest{inputs[i], i}));
    }
  }  // ~StarServer: shutdown() dispatches the parked batch
  for (std::size_t i = 0; i < futs.size(); ++i) {
    EXPECT_TRUE(nn::Tensor::bit_identical(futs[i].get().output,
                                          solo_reference(model, inputs[i], i)));
  }
}

TEST(StarServer, ShutdownIsIdempotent) {
  const auto& model = shared_model();
  sim::BatchScheduler sched(1);
  serve::StarServer server(model, sched);
  server.shutdown();
  EXPECT_NO_THROW(server.shutdown());
}

// ---------- stats accounting ----------

TEST(StarServer, StatsAccounting) {
  const auto& model = shared_model();
  const auto inputs = test_inputs(9, 0x57A7, 6);
  sim::BatchScheduler sched(3);
  serve::ServerOptions opts;
  opts.batcher.max_batch = 4;
  serve::StarServer server(model, sched, opts);

  std::vector<std::future<serve::EncoderResponse>> futs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    futs.push_back(server.submit(serve::EncoderRequest{inputs[i], i}));
  }
  for (auto& fut : futs) {
    fut.get();
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, inputs.size());
  EXPECT_EQ(stats.admitted, inputs.size());
  EXPECT_EQ(stats.completed, inputs.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.batches, (inputs.size() + opts.batcher.max_batch - 1) /
                               opts.batcher.max_batch);
  EXPECT_LE(stats.batch_occupancy_max, opts.batcher.max_batch);
  EXPECT_GT(stats.batch_occupancy_mean, 0.0);
  EXPECT_GE(stats.queue_wait_p99_s, 0.0);
  // Nearest-rank p99 over <100 samples is the max, which bounds the mean.
  EXPECT_GE(stats.queue_wait_p99_s, stats.queue_wait_mean_s);
  EXPECT_GT(stats.service_mean_s, 0.0);
  EXPECT_GE(stats.service_p99_s, stats.service_mean_s);
}

TEST(StarServer, RequestStatsDescribeBatchPlacement) {
  const auto& model = shared_model();
  const auto inputs = test_inputs(4, 0x9A7C, 6);
  sim::BatchScheduler sched(2);
  serve::ServerOptions opts;
  opts.batcher.max_batch = 4;
  opts.batcher.max_wait_ticks = 1000;  // wait for the full batch
  serve::StarServer server(model, sched, opts);

  std::vector<std::future<serve::EncoderResponse>> futs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    futs.push_back(server.submit(serve::EncoderRequest{inputs[i], i}));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const auto resp = futs[i].get();
    EXPECT_EQ(resp.stats.batch_size, inputs.size());
    EXPECT_EQ(resp.stats.batch_id, 0u);
    EXPECT_GE(resp.stats.queue_wait_s, 0.0);
    EXPECT_GE(resp.stats.service_s, 0.0);
  }
}

// ---------- dispatch rounds ----------

/// A mixed-length burst from two submitter threads through a bucketed
/// server, then drain(). One dispatch round forms up to thread_count()
/// batches, yet every batch must still obey the batching rule on its own:
/// grouped by batch_id, the responses' RequestStats show each batch's true
/// size, its bucket's cap, and — for a partial batch — a member that waited
/// out its bucket's age-out window.
class ServerRounds : public ::testing::TestWithParam<int> {};

TEST_P(ServerRounds, EveryBatchKeepsTheBatchingRule) {
  const int threads = GetParam();
  const auto& model = shared_model();
  constexpr std::size_t kSubmitters = 2;
  constexpr std::size_t kPerSubmitter = 150;
  serve::ServerOptions opts;
  // Above the burst: the kBlock admission bound never dispatches, so a
  // partial batch can only be an aged-out head.
  opts.max_queue = 4 * kSubmitters * kPerSubmitter;
  opts.batcher.max_batch = 4;
  opts.batcher.max_wait_ticks = 3;
  opts.batcher.tick = std::chrono::microseconds(200);
  opts.batcher.bucketing = serve::LengthBucketing::bucketed({16, 48});
  opts.batcher.bucketing.buckets[0].max_batch = 3;
  opts.batcher.bucketing.buckets[1].max_wait_ticks = 0;
  const serve::LengthBucketing& bucketing = opts.batcher.bucketing;
  sim::BatchScheduler sched(threads);
  serve::StarServer server(model, sched, opts);

  std::vector<std::future<serve::AnalyticResponse>> futs[kSubmitters];
  {
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (std::size_t i = 0; i < kPerSubmitter; ++i) {
          // Lengths 2..128 in a scrambled order: all three queues fill.
          const auto len = static_cast<std::int64_t>(2 + (i * 37 + t * 11) % 127);
          futs[t].push_back(server.submit(serve::AnalyticRequest{len}));
        }
      });
    }
    for (auto& th : submitters) {
      th.join();
    }
  }
  server.drain();
  const serve::ServerStats st = server.stats();
  ASSERT_EQ(st.completed, kSubmitters * kPerSubmitter);

  std::map<std::uint64_t, std::vector<serve::RequestStats>> by_batch;
  for (auto& per_thread : futs) {
    for (auto& fut : per_thread) {
      const serve::RequestStats rs = fut.get().stats;
      by_batch[rs.batch_id].push_back(rs);
    }
  }
  ASSERT_EQ(by_batch.size(), st.batches);
  std::uint64_t expected_id = 0;
  std::size_t members = 0;
  for (const auto& [id, group] : by_batch) {
    EXPECT_EQ(id, expected_id++) << "batch ids must run 0..batches-1";
    const std::size_t bucket = group.front().bucket;
    const std::size_t cap = bucketing.max_batch_for(bucket, opts.batcher.max_batch);
    EXPECT_EQ(group.size(), group.front().batch_size) << "batch " << id;
    EXPECT_LE(group.size(), cap) << "batch " << id;
    double oldest_wait = 0.0;
    for (const serve::RequestStats& rs : group) {
      EXPECT_EQ(rs.bucket, bucket) << "batch " << id << " mixes queues";
      EXPECT_EQ(rs.batch_size, group.size()) << "batch " << id;
      oldest_wait = std::max(oldest_wait, rs.queue_wait_s);
    }
    if (group.size() < cap) {
      // Same integer-nanosecond -> seconds conversion as queue_wait_s.
      const double window =
          std::chrono::duration<double>(
              std::chrono::nanoseconds(
                  opts.batcher.tick *
                  bucketing.max_wait_for(bucket, opts.batcher.max_wait_ticks)))
              .count();
      EXPECT_GE(oldest_wait, window)
          << "partial batch " << id << " of bucket " << bucket
          << " dispatched before its head aged out";
    }
    members += group.size();
  }
  EXPECT_EQ(members, st.completed);
}

INSTANTIATE_TEST_SUITE_P(SchedulerThreads, ServerRounds, ::testing::Values(3, 1));

// ---------- submit-path allocations ----------

TEST(StarServerAllocations, WarmAnalyticSubmitStaysWithinBudget) {
  if (!util::alloc_audit_enabled()) {
    GTEST_SKIP() << "allocation audit not compiled in (Debug or -DSTAR_AUDIT=ON)";
  }
  // One request record (promise + compute), the promise's shared state
  // and result slot, and a share of a queue chunk: about three allocations
  // on the submitting thread. The old promise-in-shared_ptr plus two
  // std::function closures cost about five.
  const auto& model = shared_model();
  constexpr std::size_t kSubmits = 1000;
  const std::int64_t lens[] = {8, 24, 40, 72, 128};
  sim::BatchScheduler sched(3);
  serve::ServerOptions opts;
  opts.max_queue = 2 * kSubmits;
  serve::StarServer server(model, sched, opts);
  std::vector<std::future<serve::AnalyticResponse>> futs;
  futs.reserve(kSubmits);
  for (const std::int64_t len : lens) {  // warm every cost-cache key
    futs.push_back(server.submit(serve::AnalyticRequest{len}));
  }
  for (auto& fut : futs) {
    fut.get();
  }
  futs.clear();

  const util::AllocCounter counter;
  for (std::size_t i = 0; i < kSubmits; ++i) {
    futs.push_back(server.submit(serve::AnalyticRequest{lens[i % std::size(lens)]}));
  }
  const std::uint64_t allocs = counter.allocations();
  for (auto& fut : futs) {
    fut.get();
  }
  EXPECT_LE(static_cast<double>(allocs) / kSubmits, 3.5)
      << allocs << " allocations over " << kSubmits << " submits";
}

// ---------- concurrent stats ----------

TEST(StarServer, StatsSnapshotsStayConservedDuringABurst) {
  // A poller reads both stats views throughout a burst while completions
  // are recorded under their own mutex; every snapshot must still be one
  // instant of the ledger.
  const auto& model = shared_model();
  constexpr std::size_t kBurst = 5000;
  sim::BatchScheduler sched(3);
  serve::ServerOptions opts;
  opts.max_queue = kBurst;
  opts.batcher.bucketing = serve::LengthBucketing::bucketed({32});
  serve::StarServer server(model, sched, opts);

  // Checked on the poller and tallied, so every assertion runs on the
  // test's own thread.
  const auto conserved = [](const serve::ServerStats& s) {
    std::uint64_t bucket_requests = 0;
    for (const auto& b : s.per_bucket) {
      bucket_requests += b.requests;
    }
    return s.completed + s.failed + s.shed <= s.admitted &&
           s.admitted <= s.submitted && bucket_requests == s.completed + s.failed;
  };
  std::atomic<bool> done{false};
  std::size_t polls = 0;
  std::size_t broken = 0;
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      broken += conserved(server.stats()) ? 0 : 1;
      broken += conserved(server.stats_accumulator().snapshot()) ? 0 : 1;
      ++polls;
    }
  });
  std::vector<std::future<serve::AnalyticResponse>> futs;
  futs.reserve(kBurst);
  for (std::size_t i = 0; i < kBurst; ++i) {
    futs.push_back(server.submit(
        serve::AnalyticRequest{static_cast<std::int64_t>(2 + (i * 13) % 127)}));
  }
  server.drain();
  done.store(true, std::memory_order_release);
  poller.join();
  for (auto& fut : futs) {
    fut.get();
  }
  EXPECT_GT(polls, 0u);
  EXPECT_EQ(broken, 0u) << "of " << polls << " polls";
  const serve::ServerStats st = server.stats();
  EXPECT_TRUE(conserved(st));
  EXPECT_EQ(st.completed, kBurst);
  EXPECT_EQ(st.admitted, kBurst);
  EXPECT_EQ(st.submitted, kBurst);
}

// ---------- percentile / StatsAccumulator edge cases ----------

TEST(Percentile, EmptyReservoirIsZeroAtEveryP) {
  const std::vector<double> none;
  EXPECT_EQ(serve::percentile(none, 0.0), 0.0);
  EXPECT_EQ(serve::percentile(none, 0.5), 0.0);
  EXPECT_EQ(serve::percentile(none, 0.99), 0.0);
  EXPECT_EQ(serve::percentile(none, 1.0), 0.0);
}

TEST(Percentile, SingleSampleIsEveryQuantile) {
  const std::vector<double> one = {42.5};
  EXPECT_EQ(serve::percentile(one, 0.0), 42.5);
  EXPECT_EQ(serve::percentile(one, 0.5), 42.5);
  EXPECT_EQ(serve::percentile(one, 1.0), 42.5);
}

TEST(Percentile, EndpointsAreMinAndMax) {
  // Deliberately unsorted: selection must not depend on input order.
  const std::vector<double> s = {5.0, 1.0, 9.0, 3.0, 7.0};
  EXPECT_EQ(serve::percentile(s, 0.0), 1.0);
  EXPECT_EQ(serve::percentile(s, 1.0), 9.0);
}

TEST(Percentile, NearestRankOnKnownSet) {
  // n = 10 samples 1..10: nearest-rank index = ceil(p * 10) - 1.
  std::vector<double> s = {10, 3, 7, 1, 9, 4, 6, 2, 8, 5};
  EXPECT_EQ(serve::percentile(s, 0.5), 5.0);    // ceil(5) - 1 = idx 4
  EXPECT_EQ(serve::percentile(s, 0.99), 10.0);  // ceil(9.9) - 1 = idx 9
  EXPECT_EQ(serve::percentile(s, 0.11), 2.0);   // ceil(1.1) - 1 = idx 1
}

TEST(Percentile, DoesNotReorderTheReservoir) {
  const std::vector<double> original = {5.0, 1.0, 9.0, 3.0};
  std::vector<double> s = original;
  (void)serve::percentile(s, 0.5);
  EXPECT_EQ(s, original);
}

TEST(Percentile, OutOfRangePThrows) {
  const std::vector<double> s = {1.0, 2.0};
  EXPECT_THROW((void)serve::percentile(s, -0.01), InvalidArgument);
  EXPECT_THROW((void)serve::percentile(s, 1.01), InvalidArgument);
}

TEST(StatsAccumulator, FreshSnapshotIsAllZeros) {
  serve::StatsAccumulator acc;
  const auto snap = acc.snapshot();
  EXPECT_EQ(snap.submitted, 0u);
  EXPECT_EQ(snap.completed, 0u);
  EXPECT_EQ(snap.batches, 0u);
  // Every derived ratio must come out 0, not NaN, on the empty ledger.
  EXPECT_EQ(snap.queue_wait_mean_s, 0.0);
  EXPECT_EQ(snap.queue_wait_p99_s, 0.0);
  EXPECT_EQ(snap.service_p99_s, 0.0);
  EXPECT_EQ(snap.batch_occupancy_mean, 0.0);
  EXPECT_EQ(snap.padded_occupancy, 0.0);
  EXPECT_EQ(snap.effective_occupancy, 0.0);
  EXPECT_EQ(snap.padding_waste, 0.0);
  EXPECT_EQ(snap.seq_len_mean, 0.0);
  EXPECT_EQ(snap.programming_time_share, 0.0);
}

TEST(StatsAccumulator, SingleRequestIsItsOwnDistribution) {
  serve::StatsAccumulator acc;
  acc.on_submitted();
  acc.on_admitted();
  acc.on_batch(/*occupancy=*/1, /*bucket=*/0, /*effective=*/6, /*padded=*/8,
               /*capacity=*/16);
  serve::RequestStats rs;
  rs.queue_wait_s = 0.25;
  rs.service_s = 1.5;
  rs.seq_len = 6;
  acc.on_done(rs, /*ok=*/true);
  const auto snap = acc.snapshot();
  EXPECT_EQ(snap.completed, 1u);
  // With one sample, mean == p99 == the sample for both phases.
  EXPECT_DOUBLE_EQ(snap.queue_wait_mean_s, 0.25);
  EXPECT_DOUBLE_EQ(snap.queue_wait_p99_s, 0.25);
  EXPECT_DOUBLE_EQ(snap.service_mean_s, 1.5);
  EXPECT_DOUBLE_EQ(snap.service_p99_s, 1.5);
  EXPECT_DOUBLE_EQ(snap.seq_len_mean, 6.0);
  // Token ledger: 6 effective of 8 padded of 16 capacity.
  EXPECT_DOUBLE_EQ(snap.padded_occupancy, 0.5);
  EXPECT_DOUBLE_EQ(snap.effective_occupancy, 6.0 / 16.0);
  EXPECT_DOUBLE_EQ(snap.padding_waste, 1.0 - 6.0 / 8.0);
}

TEST(StatsAccumulator, BatchOnlyLedgerHasNoLatencies) {
  // Batches dispatched but nothing resolved yet (requests in flight):
  // occupancy accounting is live, latency distributions still empty.
  serve::StatsAccumulator acc;
  acc.on_submitted();
  acc.on_admitted();
  acc.on_batch(/*occupancy=*/3, /*bucket=*/0, /*effective=*/12, /*padded=*/24,
               /*capacity=*/32);
  const auto snap = acc.snapshot();
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_DOUBLE_EQ(snap.batch_occupancy_mean, 3.0);
  EXPECT_EQ(snap.batch_occupancy_max, 3u);
  EXPECT_EQ(snap.completed, 0u);
  EXPECT_EQ(snap.queue_wait_p99_s, 0.0);
  EXPECT_EQ(snap.service_p99_s, 0.0);
}

TEST(StatsAccumulator, ConfigureBucketsRejectsEmptyLayout) {
  serve::StatsAccumulator acc;
  EXPECT_THROW(acc.configure_buckets({}), InvalidArgument);
}

// ---------- invalid configuration ----------

TEST(StarServer, RejectsInvalidOptions) {
  const auto& model = shared_model();
  sim::BatchScheduler sched(1);
  serve::ServerOptions zero_queue;
  zero_queue.max_queue = 0;
  EXPECT_THROW(serve::StarServer(model, sched, zero_queue), InvalidArgument);
  serve::ServerOptions zero_batch;
  zero_batch.batcher.max_batch = 0;
  EXPECT_THROW(serve::StarServer(model, sched, zero_batch), InvalidArgument);
  // The age-out window tick * max_wait_ticks must fit in steady_clock's
  // range with room for the admission time it is added to.
  serve::ServerOptions long_window;
  long_window.batcher.tick = std::chrono::hours(1);
  long_window.batcher.max_wait_ticks = 4000000000u;
  EXPECT_THROW(serve::StarServer(model, sched, long_window), InvalidArgument);
  serve::ServerOptions long_bucket_window;  // 10 s x 4 fits; the override not
  long_bucket_window.batcher.tick = std::chrono::seconds(10);
  long_bucket_window.batcher.bucketing = serve::LengthBucketing::bucketed({16});
  long_bucket_window.batcher.bucketing.buckets[0].max_wait_ticks = 4000000000;
  EXPECT_THROW(serve::StarServer(model, sched, long_bucket_window),
               InvalidArgument);
  serve::ServerOptions longest_wait;  // the default 100 us tick
  longest_wait.batcher.max_wait_ticks = 4294967295u;
  EXPECT_NO_THROW(serve::StarServer(model, sched, longest_wait));
}

}  // namespace
}  // namespace star
