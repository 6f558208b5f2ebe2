// Arena-backed hot path: fused-kernel bit-identity against the allocating
// nn:: reference spec, arena-vs-legacy encoder equivalence across sequence
// lengths / stack depths / fault streams / thread counts, workspace reuse,
// and the zero-allocation invariant of a warm functional request
// (AllocCounter-pinned wherever STAR_ALLOC_AUDIT is live).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <iterator>
#include <limits>
#include <vector>

#include "core/batch_encoder.hpp"
#include "core/softmax_engine.hpp"
#include "nn/attention.hpp"
#include "nn/bert.hpp"
#include "nn/ops.hpp"
#include "nn/softmax_ref.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"
#include "util/alloc_counter.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "workload/trace_gen.hpp"

namespace star {
namespace {

const nn::BertConfig kTiny = nn::BertConfig::tiny();

// Byte-for-byte comparison (the determinism currency of the repo): exact
// bits, so signed zeros and NaN payloads would fail too.
void expect_bits(const nn::Tensor& ref, nn::ConstTensorView got) {
  ASSERT_EQ(ref.rows(), got.rows);
  ASSERT_EQ(ref.cols(), got.cols);
  for (std::size_t r = 0; r < ref.rows(); ++r) {
    for (std::size_t c = 0; c < ref.cols(); ++c) {
      const double a = ref.at(r, c);
      const double b = got.at(r, c);
      ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
          << "bit mismatch at (" << r << ", " << c << "): " << a << " vs " << b;
    }
  }
}

nn::Tensor with_zeros(nn::Tensor t) {
  // Exercise Tensor::matmul's skip-zero-operand branch in both paths.
  t.at(0, 0) = 0.0;
  t.at(t.rows() - 1, t.cols() / 2) = 0.0;
  return t;
}

// ---------- Workspace mechanics ----------

TEST(Workspace, BumpMarkRewindReset) {
  nn::Workspace ws;
  ws.require_capacity(64);
  EXPECT_GE(ws.capacity(), 64u);
  const auto v1 = ws.alloc_view(4, 8);
  EXPECT_EQ(ws.used(), 32u);
  EXPECT_EQ(v1.stride, 8u);
  const std::size_t m = ws.mark();
  (void)ws.alloc(16);
  EXPECT_EQ(ws.used(), 48u);
  ws.rewind(m);
  EXPECT_EQ(ws.used(), 32u);
  const std::size_t cap = ws.capacity();
  ws.reset();
  EXPECT_EQ(ws.used(), 0u);
  EXPECT_EQ(ws.capacity(), cap);  // reset keeps the high-water buffer
}

// ---------- fused kernels vs the allocating reference ----------

TEST(WorkspaceKernels, MatmulIntoBitIdenticalToTensorMatmul) {
  Rng rng(21);
  const auto a = with_zeros(nn::Tensor::randn(5, 7, rng));
  const auto b = nn::Tensor::randn(7, 4, rng);
  const auto ref = a.matmul(b);

  nn::Workspace ws;
  ws.require_capacity(5 * 4);
  const auto out = ws.alloc_view(5, 4);
  nn::matmul_into(nn::view_of(a), nn::view_of(b), out);
  expect_bits(ref, out);
}

TEST(WorkspaceKernels, MatmulTransbIntoMatchesMaterializedTranspose) {
  Rng rng(22);
  const auto a = with_zeros(nn::Tensor::randn(6, 5, rng));
  const auto b = nn::Tensor::randn(3, 5, rng);  // used as b^T: (5 x 3)
  const auto ref = a.matmul(b.transposed());

  nn::Workspace ws;
  ws.require_capacity(6 * 3);
  const auto out = ws.alloc_view(6, 3);
  nn::matmul_transb_into(nn::view_of(a), nn::view_of(b), out);
  expect_bits(ref, out);
}

// ---------- packed-tile matmul kernels at every block edge ----------
//
// The kernels pack the right operand into 8-column x 128-deep tiles and run
// the columns past the last full panel one at a time, so the shapes below
// cross full panels, that tail, and one, two and three depth chunks; every
// operand is a column block of a wider buffer, as a head's slice of the
// fused Q/K/V buffers is.

using MatmulKernel = void (*)(nn::ConstTensorView, nn::ConstTensorView,
                              nn::TensorView);

// A NaN payload no product or sum of the test data can produce.
constexpr std::uint64_t kSentinelBits = 0x7FF4'0000'DEAD'BEEFULL;

double sentinel() {
  double s = 0.0;
  std::memcpy(&s, &kSentinelBits, sizeof s);
  return s;
}

bool is_sentinel(double x) { return std::memcmp(&x, &kSentinelBits, sizeof x) == 0; }

// `t` in columns [left, left + t.cols()) of a sentinel-filled buffer with
// `right` more columns.
nn::Tensor embedded(const nn::Tensor& t, std::size_t left, std::size_t right) {
  nn::Tensor wide(t.rows(), left + t.cols() + right, sentinel());
  for (std::size_t r = 0; r < t.rows(); ++r) {
    for (std::size_t c = 0; c < t.cols(); ++c) {
      wide.at(r, left + c) = t.at(r, c);
    }
  }
  return wide;
}

// Runs `kernel` on a (m x depth) and the logical right operand rhs
// (depth x n), handed over as rhs for matmul_into and as its transpose for
// matmul_transb_into, and checks the bits against a.matmul(rhs). The output
// is a column block of a wider buffer with a spare row: a panel that writes
// past out.cols lands on a sentinel and fails the check.
void expect_kernel_bits(MatmulKernel kernel, bool transb, const nn::Tensor& a,
                        const nn::Tensor& rhs) {
  const std::size_t m = a.rows();
  const std::size_t n = rhs.cols();
  const nn::Tensor ref = a.matmul(rhs);
  const nn::Tensor wide_a = embedded(a, 1, 2);
  const nn::Tensor wide_b = embedded(transb ? rhs.transposed() : rhs, 3, 1);
  nn::Tensor wide_out(m + 1, n + 10, sentinel());
  const auto block = [](const nn::Tensor& w, std::size_t left, std::size_t rows,
                        std::size_t cols) {
    return nn::ConstTensorView{w.flat().data() + left, rows, cols, w.cols()};
  };
  const nn::ConstTensorView b_view =
      transb ? block(wide_b, 3, n, a.cols()) : block(wide_b, 3, a.cols(), n);
  const nn::TensorView out{wide_out.flat().data() + 2, m, n, wide_out.cols()};
  kernel(block(wide_a, 1, m, a.cols()), b_view, out);

  expect_bits(ref, out);
  for (std::size_t r = 0; r <= m; ++r) {
    for (std::size_t c = 0; c < wide_out.cols(); ++c) {
      if (r == m || c < 2 || c >= n + 2) {
        ASSERT_TRUE(is_sentinel(wide_out.at(r, c)))
            << "write outside out at (" << r << ", " << c << ")";
      }
    }
  }
}

// a with +0.0 and -0.0 at about one entry in six (the skip's operands).
nn::Tensor randn_with_signed_zeros(std::size_t rows, std::size_t cols, Rng& rng) {
  nn::Tensor a = nn::Tensor::randn(rows, cols, rng);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if ((r * cols + c) % 6 == 1) {
        a.at(r, c) = (r + c) % 2 == 0 ? 0.0 : -0.0;
      }
    }
  }
  return a;
}

void sweep_shapes(MatmulKernel kernel, bool transb, std::uint64_t seed) {
  Rng rng(seed);
  for (const std::size_t m : {1u, 2u, 7u, 33u}) {
    for (const std::size_t depth :
         {1u, 2u, 5u, 64u, 127u, 128u, 129u, 200u, 255u, 256u, 257u, 300u}) {
      for (const std::size_t n :
           {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 12u, 13u, 14u, 15u, 16u, 17u, 31u, 32u,
            33u, 40u}) {
        SCOPED_TRACE(testing::Message()
                     << "m=" << m << " depth=" << depth << " n=" << n);
        const nn::Tensor a = randn_with_signed_zeros(m, depth, rng);
        const nn::Tensor rhs = nn::Tensor::randn(depth, n, rng);
        expect_kernel_bits(kernel, transb, a, rhs);
        if (testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
  }
}

TEST(PackedMatmul, IntoSweepBitIdenticalAcrossPanelsAndChunks) {
  sweep_shapes(nn::matmul_into, false, 41);
}

TEST(PackedMatmul, TransbSweepBitIdenticalAcrossPanelsAndChunks) {
  sweep_shapes(nn::matmul_transb_into, true, 42);
}

TEST(PackedMatmul, ZeroOperandSkipsInfAndNaNRowsOfB) {
  // Where column k of a is all +-0.0, row k of the right operand is +-Inf or
  // NaN. Tensor::matmul skips those products, so the reference stays finite;
  // a kernel that multiplies them would write 0 * Inf = NaN.
  constexpr std::size_t kM = 7;
  constexpr std::size_t kDepthK = 300;
  constexpr std::size_t kN = 20;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(43);
  nn::Tensor a = nn::Tensor::randn(kM, kDepthK, rng);
  nn::Tensor rhs = nn::Tensor::randn(kDepthK, kN, rng);
  const std::size_t hostile_k[] = {0, 7, 127, 128, 129, 255, 256, 299};
  const double hostile_v[] = {inf, -inf, nan};
  for (std::size_t h = 0; h < std::size(hostile_k); ++h) {
    const std::size_t k = hostile_k[h];
    for (std::size_t i = 0; i < kM; ++i) {
      a.at(i, k) = (i + h) % 2 == 0 ? 0.0 : -0.0;
    }
    for (std::size_t j = 0; j < kN; ++j) {
      rhs.at(k, j) = hostile_v[(h + j) % std::size(hostile_v)];
    }
  }
  const nn::Tensor ref = a.matmul(rhs);
  for (const double x : ref.flat()) {
    ASSERT_TRUE(std::isfinite(x)) << "the reference did not skip a zero operand";
  }
  expect_kernel_bits(nn::matmul_into, false, a, rhs);
  expect_kernel_bits(nn::matmul_transb_into, true, a, rhs);
}

TEST(WorkspaceKernels, LayerNormIntoMatchesAndRunsInPlace) {
  Rng rng(23);
  const auto x = nn::Tensor::randn(8, 16, rng, 5.0, 3.0);
  const auto ref = nn::layer_norm(x);

  nn::Workspace ws;
  ws.require_capacity(2 * 8 * 16);
  const auto out = ws.alloc_view(8, 16);
  nn::layer_norm_into(nn::view_of(x), out);
  expect_bits(ref, out);

  // In place: copy x into an arena view, normalize it onto itself.
  const auto buf = ws.alloc_view(8, 16);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 16; ++c) {
      buf.at(r, c) = x.at(r, c);
    }
  }
  nn::layer_norm_into(buf, buf);
  expect_bits(ref, buf);
}

TEST(WorkspaceKernels, AddIntoToleratesOutAliasingB) {
  Rng rng(24);
  const auto a = nn::Tensor::randn(4, 6, rng);
  const auto b = nn::Tensor::randn(4, 6, rng);
  const auto ref = a + b;

  nn::Workspace ws;
  ws.require_capacity(4 * 6);
  const auto acc = ws.alloc_view(4, 6);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      acc.at(r, c) = b.at(r, c);
    }
  }
  nn::add_into(nn::view_of(a), acc, acc);  // out aliases b
  expect_bits(ref, acc);
}

TEST(WorkspaceKernels, MultiHeadAttentionIntoBitIdentical) {
  Rng rng(25);
  const auto w = nn::MhaWeights::random(2, 8, 4, rng);
  const auto x = nn::Tensor::randn(5, 8, rng);

  nn::ExactSoftmaxInto exact;
  const auto ref = nn::multi_head_attention(x, w, exact);

  nn::Workspace ws;
  ws.require_capacity(1 << 12);
  const auto out = ws.alloc_view(5, 8);
  nn::multi_head_attention_into(nn::view_of(x), w, exact, ws, out);
  expect_bits(ref, out);
  // All attention scratch was rewound; only `out` remains allocated.
  EXPECT_EQ(ws.used(), 5u * 8u);
}

TEST(WorkspaceKernels, EncoderLayerIntoBitIdentical) {
  Rng rng(26);
  const auto w = nn::EncoderLayerWeights::random(kTiny, rng);
  const auto x = nn::Tensor::randn(
      6, static_cast<std::size_t>(kTiny.d_model), rng);

  nn::ExactSoftmaxInto exact;
  const auto ref = nn::encoder_layer_forward(x, w, exact);

  nn::Workspace ws;
  ws.require_capacity(nn::encoder_workspace_doubles(kTiny, 6));
  const auto out =
      ws.alloc_view(6, static_cast<std::size_t>(kTiny.d_model));
  nn::encoder_layer_forward_into(nn::view_of(x), w, exact, ws, out);
  expect_bits(ref, out);
}

// ---------- SoA weight flattening ----------

TEST(MhaWeights, FlatBlocksPreserveHistoricalDrawOrder) {
  // head_w*(h) must reproduce exactly what the per-head layout drew: per
  // head wq, wk, wv row-major from one continuing stream, then wo.
  Rng rng(27);
  const auto w = nn::MhaWeights::random(3, 12, 4, rng);
  Rng replay(27);
  for (std::size_t h = 0; h < 3; ++h) {
    const auto wq = w.head_wq(h);
    const auto wk = w.head_wk(h);
    const auto wv = w.head_wv(h);
    for (const auto* m : {&wq, &wk, &wv}) {
      for (std::size_t r = 0; r < m->rows(); ++r) {
        for (std::size_t c = 0; c < m->cols(); ++c) {
          EXPECT_EQ(m->at(r, c), replay.normal(0.0, 1.0 / std::sqrt(12.0)));
        }
      }
    }
  }
}

// ---------- softmax engine: adapter vs span entry point, reseed ----------

TEST(SoftmaxEngineInto, RowIntoBitIdenticalUnderFaultInjection) {
  core::StarConfig cfg;
  cfg.cam_miss_prob = 0.1;
  const core::SoftmaxEngine engine(cfg);

  Rng rng(28);
  core::SoftmaxRunState legacy(0xF00D);
  core::SoftmaxEngineRowRef adapter(engine, legacy);
  core::SoftmaxRunState arena(0xF00D);
  std::vector<double> out;
  for (int row = 0; row < 10; ++row) {
    std::vector<double> x(16);
    for (auto& v : x) {
      v = rng.normal(0.0, 2.0);
    }
    const auto ref = nn::softmax_row(adapter, x);
    out.resize(x.size());
    engine.softmax_row_into(x, arena, out);
    ASSERT_EQ(ref.size(), out.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(std::memcmp(&ref[i], &out[i], sizeof(double)), 0);
    }
  }
}

TEST(SoftmaxEngineInto, ReseedMatchesFreshState) {
  core::StarConfig cfg;
  cfg.cam_miss_prob = 0.2;
  const core::SoftmaxEngine engine(cfg);

  Rng rng(29);
  std::vector<double> x(24);
  for (auto& v : x) {
    v = rng.normal(0.0, 2.0);
  }

  core::SoftmaxRunState pooled(0x1);
  std::vector<double> warm(x.size());
  engine.softmax_row_into(x, pooled, warm);  // burn draws, warm buffers
  pooled.reseed(0xBEEF);
  engine.softmax_row_into(x, pooled, warm);

  core::SoftmaxRunState fresh(0xBEEF);
  std::vector<double> cold(x.size());
  engine.softmax_row_into(x, fresh, cold);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(std::memcmp(&warm[i], &cold[i], sizeof(double)), 0);
  }
}

// ---------- arena encoder vs the legacy chain ----------

core::StarConfig faulty_cfg(double miss) {
  core::StarConfig cfg;
  cfg.cam_miss_prob = miss;
  return cfg;
}

TEST(ArenaEncoder, BitIdenticalToLegacyChainAcrossShapes) {
  for (const double miss : {0.0, 0.05}) {
    const core::BatchEncoderSim sim(faulty_cfg(miss), kTiny, 0xB127, 3);
    Rng rng(31);
    for (const std::size_t seq : {4u, 16u}) {
      const auto input = nn::Tensor::randn(
          seq, static_cast<std::size_t>(kTiny.d_model), rng);
      for (std::int64_t layers = 1; layers <= 3; ++layers) {
        const std::uint64_t seed = 0x5eed0 + static_cast<std::uint64_t>(layers);
        // The legacy reference chain, rebuilt from allocating nn:: parts.
        core::SoftmaxRunState run(seed);
        core::SoftmaxEngineRowRef softmax(sim.softmax_engine(), run);
        nn::Tensor ref = nn::encoder_layer_forward(input, sim.layer_weights(0), softmax);
        for (std::int64_t l = 1; l < layers; ++l) {
          ref = nn::encoder_layer_forward(ref, sim.layer_weights(l), softmax);
        }
        const auto got = sim.run_encoder_one(input, seed, layers);
        EXPECT_TRUE(nn::Tensor::bit_identical(ref, got))
            << "miss=" << miss << " seq=" << seq << " layers=" << layers;
      }
    }
  }
}

TEST(ArenaEncoder, WorkspaceReuseAcrossShapesMatchesFreshRuns) {
  const core::BatchEncoderSim sim(faulty_cfg(0.05), kTiny, 0xB127, 2);
  Rng rng(32);
  core::EncoderWorkspace ws;
  nn::Tensor out;  // caller-reused output tensor (reshaped in place)
  for (const std::size_t seq : {16u, 4u, 9u}) {
    const auto input = nn::Tensor::randn(
        seq, static_cast<std::size_t>(kTiny.d_model), rng);
    const std::uint64_t seed = 0xAB + seq;
    sim.run_encoder_one_into(input, seed, out, 2, 1,
                             workload::Dataset::kDefault, nullptr, &ws);
    const auto fresh = sim.run_encoder_one(input, seed, 2);
    EXPECT_TRUE(nn::Tensor::bit_identical(fresh, out)) << "seq=" << seq;
  }
}

TEST(ArenaEncoder, ThreadCountNeverReachesPayloadBits) {
  const core::BatchEncoderSim sim(faulty_cfg(0.05), kTiny, 0xB127, 2);
  constexpr std::size_t kBatch = 8;
  const std::uint64_t run_seed = 0xD15C;

  Rng rng(33);
  std::vector<nn::Tensor> inputs;
  inputs.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    inputs.push_back(nn::Tensor::randn(
        6 + i, static_cast<std::size_t>(kTiny.d_model), rng));
  }

  std::vector<nn::Tensor> serial;
  serial.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    serial.push_back(sim.run_encoder_one(
        inputs[i], workload::sequence_seed(run_seed, i), 2));
  }

  std::vector<std::future<nn::Tensor>> futs;
  futs.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    futs.push_back(std::async(std::launch::async, [&sim, &inputs, run_seed, i] {
      return sim.run_encoder_one(inputs[i], workload::sequence_seed(run_seed, i),
                                 2);
    }));
  }
  for (std::size_t i = 0; i < kBatch; ++i) {
    EXPECT_TRUE(nn::Tensor::bit_identical(serial[i], futs[i].get())) << i;
  }
}

TEST(ArenaEncoder, PoolSoakUnderConcurrency) {
  // Hammer the workspace pool from several threads (the TSan job runs this
  // test): every response must equal the solo reference.
  const core::BatchEncoderSim sim(faulty_cfg(0.05), kTiny, 0xB127, 2);
  Rng rng(34);
  const auto input = nn::Tensor::randn(
      8, static_cast<std::size_t>(kTiny.d_model), rng);
  const std::uint64_t seed = workload::sequence_seed(0xCAFE, 0);
  const auto ref = sim.run_encoder_one(input, seed, 2);

  constexpr int kThreads = 4;
  constexpr int kIters = 32;
  std::vector<std::future<bool>> futs;
  futs.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    futs.push_back(std::async(std::launch::async, [&] {
      nn::Tensor out;
      for (int i = 0; i < kIters; ++i) {
        sim.run_encoder_one_into(input, seed, out, 2);
        if (!nn::Tensor::bit_identical(ref, out)) {
          return false;
        }
      }
      return true;
    }));
  }
  for (auto& f : futs) {
    EXPECT_TRUE(f.get());
  }
}

// ---------- the tentpole invariant: zero warm allocations ----------

TEST(ArenaEncoder, WarmFunctionalRequestAllocatesNothing) {
#if !defined(NDEBUG) && !defined(STAR_SANITIZER_NAME)
  // A Debug build without a sanitizer always compiles the audit in, so the
  // assertion below cannot skip itself where it is meant to run.
  EXPECT_TRUE(util::alloc_audit_enabled());
#endif
  if (!util::alloc_audit_enabled()) {
    // Release / sanitizer builds have no operator-new instrumentation; the
    // Debug and -DSTAR_AUDIT=ON CI cells run the real assertion.
    return;
  }
  const core::BatchEncoderSim sim(faulty_cfg(0.05), kTiny, 0xB127, 2);
  Rng rng(35);
  const auto input = nn::Tensor::randn(
      16, static_cast<std::size_t>(kTiny.d_model), rng);

  core::EncoderWorkspace ws;
  nn::Tensor out;
  // Warm-up: size the arena, the engine scratch, the output tensor, and
  // turn every residency lookup into a hit.
  sim.run_encoder_one_into(input, workload::sequence_seed(0xA11C, 0), out, 2, 1,
                           workload::Dataset::kDefault, nullptr, &ws);

  const util::AllocCounter counter;
  for (std::size_t i = 0; i < 8; ++i) {
    sim.run_encoder_one_into(input, workload::sequence_seed(0xA11C, i), out, 2,
                             1, workload::Dataset::kDefault, nullptr, &ws);
  }
  EXPECT_EQ(counter.allocations(), 0u)
      << "a warm functional request touched the heap";
}

}  // namespace
}  // namespace star
