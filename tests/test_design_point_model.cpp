// Tests for the uncached design-point cost model: cost-only matmul tiles
// against a full XbarTile, the crossbar array's mean conductance and its
// bulk programming order, all-or-nothing CAM/LUT fills, the config checks a
// cost-only tile must keep, and a design point that allocates nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baseline/gpu_model.hpp"
#include "baseline/pipelayer.hpp"
#include "baseline/retransformer.hpp"
#include "core/accelerator.hpp"
#include "core/encoder_model.hpp"
#include "core/matmul_engine.hpp"
#include "hw/tech.hpp"
#include "util/alloc_counter.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "xbar/array.hpp"
#include "xbar/cam.hpp"
#include "xbar/lut.hpp"
#include "xbar/tile.hpp"
#include "xbar/vmm_engine.hpp"

namespace star {
namespace {

const hw::TechNode kTech = hw::TechNode::n32();

// ---------- cost-only matmul tiles ----------

/// The tile MatmulEngine models, built as a full functional tile.
xbar::XbarTile full_tile(const core::StarConfig& cfg) {
  xbar::VmmConfig v;
  v.rows = core::MatmulEngine::kTileRows;
  v.cols = core::MatmulEngine::kTileCols;
  v.weight_bits = core::MatmulEngine::kWeightBits;
  v.input_bits = core::MatmulEngine::kInputBits;
  v.adc_bits = core::MatmulEngine::kAdcBits;
  v.adc_mux_ratio = 8;
  return xbar::XbarTile(cfg.tech, cfg.device, v);
}

TEST(CostOnlyTile, FiguresEqualAFullTileBitForBit) {
  for (const xbar::RramDevice& device :
       {xbar::RramDevice::ideal(1), xbar::RramDevice::ideal(2),
        xbar::RramDevice::noisy(2), xbar::RramDevice{}}) {
    core::StarConfig cfg;
    cfg.device = device;
    const core::MatmulEngine eng(cfg);
    const xbar::XbarTile tile = full_tile(cfg);
    const std::string dev = "bits_per_cell=" + std::to_string(device.bits_per_cell) +
                            " sigma=" + std::to_string(device.program_sigma_log);
    for (int a = 0; a <= core::MatmulEngine::kTileRows; ++a) {
      ASSERT_EQ(eng.tile_energy(a).as_J(), tile.op_energy(a).as_J()) << dev << " a=" << a;
    }
    EXPECT_EQ(eng.tile_latency().as_s(), tile.op_latency().as_s()) << dev;
    EXPECT_EQ(eng.area_for_tiles(1).as_mm2(), tile.area().as_mm2()) << dev;
    EXPECT_EQ(eng.leakage_for_tiles(1).as_W(), tile.leakage().as_W()) << dev;
  }
}

TEST(CostOnlyTile, NeverProgrammedArrayMeanIsGOff) {
  const core::StarConfig cfg;
  const xbar::XbarTile tile = full_tile(cfg);
  EXPECT_EQ(tile.vmm().array().mean_conductance(), cfg.device.g_off_us);
}

/// Each config the full prototype tile rejected; a cost-only tile must too.
TEST(CostOnlyTile, KeepsEveryCheckOfTheFullTile) {
  std::vector<std::pair<const char*, core::StarConfig>> bad;
  core::StarConfig cfg;
  cfg.device.bits_per_cell = 3;  // 3 slices do not divide 128 columns
  bad.emplace_back("bits_per_cell=3", cfg);
  cfg = core::StarConfig{};
  cfg.num_shards = 0;  // no tile rule covers it: the whole StarConfig is checked
  bad.emplace_back("num_shards=0", cfg);

  for (const auto& [name, c] : bad) {
    EXPECT_THROW(core::MatmulEngine{c}, InvalidArgument) << name;
    EXPECT_THROW(core::StarAccelerator{c}, InvalidArgument) << name;
    EXPECT_THROW(baseline::PipeLayerModel{c}, InvalidArgument) << name;
    EXPECT_THROW(baseline::ReTransformerModel{c}, InvalidArgument) << name;
  }
}

// ---------- array mean conductance and bulk programming ----------

xbar::CrossbarArray noisy_array(int rows, int cols, std::uint64_t seed) {
  return xbar::CrossbarArray(xbar::ArrayConfig{rows, cols, 0.0, true},
                             xbar::RramDevice::noisy(2, 0.05, 0.02), Rng(seed));
}

/// A fresh row-major re-sum of every stored conductance, over the cell count.
double resummed_mean(const xbar::CrossbarArray& arr) {
  double sum = 0.0;
  for (int r = 0; r < arr.rows(); ++r) {
    for (int c = 0; c < arr.cols(); ++c) {
      sum += arr.conductance(r, c);
    }
  }
  return sum / static_cast<double>(arr.rows() * arr.cols());
}

double resummed_read_energy_j(const xbar::CrossbarArray& arr, int active_rows) {
  return (arr.device().read_energy(resummed_mean(arr)) *
          (static_cast<double>(active_rows) * arr.cols()))
      .as_J();
}

void expect_mean_fresh(const xbar::CrossbarArray& arr, const char* after) {
  for (const int a : {0, 1, arr.rows() / 2, arr.rows()}) {
    EXPECT_EQ(arr.read_energy(a).as_J(), resummed_read_energy_j(arr, a))
        << "after " << after << ", active_rows=" << a;
  }
}

std::vector<int> random_levels(Rng& rng, std::size_t n) {
  std::vector<int> levels(n);
  for (int& l : levels) {
    l = static_cast<int>(rng.uniform_int(0, 3));
  }
  return levels;
}

TEST(ArrayMean, ReadEnergyTracksEveryProgrammingPath) {
  auto arr = noisy_array(12, 10, 0xA1);
  Rng rng(0xA2);
  for (int i = 0; i < 5; ++i) {
    arr.program_cell(static_cast<int>(rng.uniform_int(0, 11)),
                     static_cast<int>(rng.uniform_int(0, 9)), 3);
    expect_mean_fresh(arr, "program_cell");
  }

  const auto flat = random_levels(rng, 12 * 10);
  std::vector<std::vector<int>> matrix(12);
  for (int r = 0; r < 12; ++r) {
    matrix[r].assign(flat.begin() + r * 10, flat.begin() + (r + 1) * 10);
  }
  arr.program(matrix);
  expect_mean_fresh(arr, "program");

  arr.program_rows(random_levels(rng, 5 * 10));  // leading rows only
  expect_mean_fresh(arr, "program_rows");
}

TEST(ArrayMean, BulkProgrammingChecksEveryLevelFirst) {
  auto arr = noisy_array(4, 4, 0xA3);
  std::vector<int> levels(8, 1);
  levels.back() = 4;  // out of range for 2-bit cells
  EXPECT_THROW(arr.program_rows(levels), InvalidArgument);
  EXPECT_THROW(arr.program_rows(std::vector<int>(5, 1)), InvalidArgument);  // partial row
  EXPECT_THROW(arr.program_rows(std::vector<int>(20, 1)), InvalidArgument);  // too many
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(arr.stored_level(r, c), 0);
      EXPECT_EQ(arr.conductance(r, c), arr.device().g_off_us);
    }
  }
  EXPECT_EQ(arr.mean_conductance(), arr.device().g_off_us);
}

TEST(ArrayMean, ProgramWeightsDrawsCellsInCellByCellOrder) {
  xbar::VmmConfig cfg;
  cfg.rows = 16;
  cfg.cols = 16;
  cfg.adc_mux_ratio = 4;
  const xbar::RramDevice device = xbar::RramDevice::noisy(2, 0.05, 0.02);
  constexpr std::uint64_t kSeed = 0xD4A;
  xbar::BitSlicedVmm vmm(kTech, device, cfg, Rng(kSeed));
  const int n_slices = vmm.slices();
  const int n_cols = vmm.logical_cols();

  Rng rng(0xD4B);
  std::vector<std::vector<std::int64_t>> w(11, std::vector<std::int64_t>(n_cols));
  for (auto& row : w) {
    for (auto& v : row) {
      v = rng.uniform_int(0, 255);
    }
  }
  vmm.program_weights(w);

  xbar::CrossbarArray ref(xbar::ArrayConfig{cfg.rows, cfg.cols, 0.0, true}, device,
                          Rng(kSeed));
  for (int r = 0; r < static_cast<int>(w.size()); ++r) {
    for (int lc = 0; lc < n_cols; ++lc) {
      for (int s = 0; s < n_slices; ++s) {
        ref.program_cell(r, lc * n_slices + s,
                         static_cast<int>((w[r][lc] >> (2 * s)) & 3));
      }
    }
  }
  for (int r = 0; r < cfg.rows; ++r) {
    for (int c = 0; c < cfg.cols; ++c) {
      ASSERT_EQ(vmm.array().conductance(r, c), ref.conductance(r, c))
          << "r=" << r << " c=" << c;
      ASSERT_EQ(vmm.array().stored_level(r, c), ref.stored_level(r, c))
          << "r=" << r << " c=" << c;
    }
  }
  // The VMM's energy reads the mean of what program_weights wrote.
  EXPECT_EQ(vmm.op_energy(16).as_J(),
            vmm.costs().op_energy(16, resummed_mean(ref)).as_J());
}

// ---------- all-or-nothing CAM/LUT fills ----------

constexpr int kCamRows = 16;
constexpr int kCamBits = 5;

xbar::CamCrossbar make_cam() {
  return xbar::CamCrossbar(kTech, xbar::RramDevice::ideal(2), kCamRows, kCamBits);
}

/// Everything a search can observe, for every code.
struct CamView {
  std::vector<std::optional<int>> index;
  std::vector<int> row;  // search_row, or -2 where the fast path is off
  bool unique = false;

  bool operator==(const CamView&) const = default;
};

CamView view_of(const xbar::CamCrossbar& cam) {
  CamView v;
  v.unique = cam.unique_codes();
  Rng rng(0xC0);
  for (std::int64_t code = 0; code < (std::int64_t{1} << kCamBits); ++code) {
    v.index.push_back(cam.search_index(code));
    v.row.push_back(v.unique ? cam.search_row(code, 0.0, rng) : -2);
  }
  return v;
}

TEST(AllOrNothingFill, CamFillThatFailsChangesNothing) {
  auto cam = make_cam();
  for (int r = 0; r < 8; ++r) {
    cam.store(r, 3 * r);
  }
  const CamView before = view_of(cam);
  ASSERT_TRUE(before.unique);

  std::vector<std::int64_t> codes(kCamRows);
  for (int r = 0; r < kCamRows; ++r) {
    codes[r] = kCamRows - 1 - r;
  }
  codes.back() = std::int64_t{1} << kCamBits;  // the last code is out of range
  EXPECT_THROW(cam.fill(codes), InvalidArgument);
  EXPECT_TRUE(view_of(cam) == before);

  EXPECT_THROW(cam.fill(std::vector<std::int64_t>(kCamRows + 1, 0)), InvalidArgument);
  EXPECT_TRUE(view_of(cam) == before);
}

TEST(AllOrNothingFill, LutFillThatFailsChangesNothing) {
  xbar::LutCrossbar lut(kTech, xbar::RramDevice::ideal(2), 8, 8);
  for (int r = 0; r < 8; ++r) {
    lut.store(r, 10 + r);
  }
  std::vector<std::int64_t> words(8, 200);
  words.back() = 256;  // the last word is out of range for 8 bits
  EXPECT_THROW(lut.fill(words), InvalidArgument);
  EXPECT_THROW(lut.fill(std::vector<std::int64_t>(9, 1)), InvalidArgument);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(lut.word_at(r), 10 + r) << "row " << r;
  }
}

TEST(AllOrNothingFill, FillIndexesLikeRowByRowStores) {
  std::vector<std::int64_t> identity(kCamRows);
  std::vector<std::int64_t> descending(kCamRows);
  std::vector<std::int64_t> duplicates(kCamRows);
  for (int r = 0; r < kCamRows; ++r) {
    identity[r] = r;
    descending[r] = (std::int64_t{1} << kCamBits) - 1 - r;
    duplicates[r] = r / 2;  // every code twice: the fast path must switch off
  }
  const std::pair<const char*, const std::vector<std::int64_t>*> preloads[] = {
      {"identity", &identity}, {"descending", &descending}, {"duplicates", &duplicates}};
  for (const auto& [name, codes] : preloads) {
    auto filled = make_cam();
    auto stored = make_cam();
    filled.fill(*codes);
    for (int r = 0; r < kCamRows; ++r) {
      stored.store(r, (*codes)[r]);
    }
    EXPECT_TRUE(view_of(filled) == view_of(stored)) << name;
    EXPECT_EQ(filled.unique_codes(), codes != &duplicates) << name;
  }
}

// ---------- an uncached design point allocates nothing ----------

template <class F>
std::uint64_t allocations_of(F&& f) {
  const util::AllocCounter counter;
  f();
  return counter.allocations();
}

TEST(DesignPointAllocations, UncachedEvaluationAllocatesNothing) {
  if (!util::alloc_audit_enabled()) {
    GTEST_SKIP() << "allocation audit not compiled in (Debug or -DSTAR_AUDIT=ON)";
  }
  // A design-sweep point builds a fresh StarAccelerator and the three
  // baselines and evaluates each once. At every shard count and policy none
  // of it may touch the heap: the shard plan visits its slices and hops
  // without storing them. The encoder layer's one allowance is its report
  // name, longer than the small-string buffer.
  const nn::BertConfig bert = nn::BertConfig::base();
  for (const int k : {1, 2, 4, 8}) {
    for (const xbar::ShardPolicy policy :
         {xbar::ShardPolicy::kRow, xbar::ShardPolicy::kColumn,
          xbar::ShardPolicy::kBlockCyclic}) {
      core::StarConfig cfg;
      cfg.num_shards = k;
      cfg.shard_policy = policy;
      for (const std::int64_t len : {64, 384}) {
        std::optional<core::StarAccelerator> acc;
        EXPECT_EQ(allocations_of([&] { acc.emplace(cfg); }), 0u)
            << "StarAccelerator K=" << k << ' ' << xbar::to_string(policy);
        EXPECT_EQ(allocations_of([&] { (void)acc->run_attention_layer(bert, len); }), 0u)
            << "run_attention_layer K=" << k << ' ' << xbar::to_string(policy)
            << " L=" << len;
        EXPECT_EQ(allocations_of([&] { (void)acc->stage_times(bert, len); }), 0u)
            << "stage_times K=" << k << ' ' << xbar::to_string(policy) << " L=" << len;
        EXPECT_EQ(allocations_of([&] { (void)acc->engines_needed(bert, len); }), 0u)
            << "engines_needed K=" << k << ' ' << xbar::to_string(policy)
            << " L=" << len;
        EXPECT_EQ(allocations_of([&] {
                    (void)baseline::PipeLayerModel(cfg).run_attention_layer(bert, len);
                  }),
                  0u)
            << "PipeLayer L=" << len;
        EXPECT_EQ(allocations_of([&] {
                    (void)baseline::ReTransformerModel(cfg).run_attention_layer(bert,
                                                                                len);
                  }),
                  0u)
            << "ReTransformer L=" << len;
        EXPECT_EQ(allocations_of([&] {
                    (void)baseline::GpuModel().run_attention_layer(bert, len);
                  }),
                  0u)
            << "GPU L=" << len;
        const core::EncoderModel encoder(cfg);
        EXPECT_LE(allocations_of([&] { (void)encoder.run_encoder_layer(bert, len); }), 1u)
            << "run_encoder_layer K=" << k << ' ' << xbar::to_string(policy)
            << " L=" << len;
      }
    }
  }
}

}  // namespace
}  // namespace star
