// Golden payload digests: the determinism contract
// payload = f(input, run_seed, num_layers) pinned against recorded bits,
// not against a second in-repo implementation — a refactor that moves two
// paths together still fails here.
//
// Each cell hashes the raw double bytes of one output with 64-bit FNV-1a
// and compares the digest with tests/golden/payload_digests.csv. A cell
// that throws records the exception's type instead. The whole grid runs
// once serially and once through a 4-thread sim::BatchScheduler; both
// runs must match the file. On a mismatch or a missing file the test
// prints every computed row in the file's format, so a deliberate payload
// change can be reviewed cell by cell. There is no switch that rewrites
// the file: changing it is a payload change and needs a stated reason.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "baseline/cmos_softmax.hpp"
#include "baseline/softermax.hpp"
#include "core/batch_encoder.hpp"
#include "core/softmax_engine.hpp"
#include "nn/bert.hpp"
#include "nn/softmax_ref.hpp"
#include "sim/batch_scheduler.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "workload/trace_gen.hpp"

namespace star {
namespace {

struct Cell {
  std::string key;
  std::string value;
};
using Job = std::function<std::vector<Cell>()>;

const nn::BertConfig kTiny = nn::BertConfig::tiny();
constexpr std::uint64_t kEngineSeed = 0xD16E57;
const char* const kGoldenFile = STAR_TEST_GOLDEN_DIR "/payload_digests.csv";

std::string fnv1a(std::span<const double> xs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(xs.data());
  for (std::size_t i = 0; i < xs.size_bytes(); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Runs `fn`, mapping a throw to the exception's type.
std::string guarded(const std::function<std::string()>& fn) {
  try {
    return fn();
  } catch (const InvalidArgument&) {
    return "error:InvalidArgument";
  } catch (const SimulationError&) {
    return "error:SimulationError";
  } catch (const std::exception&) {
    return "error:std::exception";
  }
}

std::string miss_tag(double miss) { return miss > 0.0 ? "miss0.05" : "miss0"; }

core::StarConfig tiny_cfg(double miss) {
  core::StarConfig cfg;
  cfg.num_shards = 4;
  cfg.cam_miss_prob = miss;
  return cfg;
}

nn::Tensor embedding(std::size_t seq_len) {
  return workload::embedding_batch(1, seq_len, static_cast<std::size_t>(kTiny.d_model),
                                   1.0, 0xE0 + seq_len)[0];
}

std::vector<double> fixed_row(std::size_t len) {
  Rng rng(0x20B5 + len);
  std::vector<double> row(len);
  for (double& v : row) {
    v = rng.normal(0.0, 2.0);
  }
  return row;
}

/// The grid: shared read-only models plus one job per independent unit of
/// work. A job owns every piece of mutable state it touches, so the
/// threaded run may execute jobs in any order.
class Grid {
 public:
  Grid()
      : exact_model_(tiny_cfg(0.0), kTiny, 0xB127, 3),
        faulty_model_(tiny_cfg(0.05), kTiny, 0xB127, 3) {
    add_encoder_cells();
    add_attention_cells();
    add_reference_cells();
    add_row_cells();
  }

  [[nodiscard]] const std::vector<Job>& jobs() const { return jobs_; }

 private:
  const core::BatchEncoderSim& model(double miss) const {
    return miss > 0.0 ? faulty_model_ : exact_model_;
  }

  void add_encoder_cells() {
    for (const std::size_t seq : {1, 7, 16, 64}) {
      for (const std::int64_t layers : {1, 3}) {
        for (const std::int64_t shards : {1, 4}) {
          for (const auto ds : {workload::Dataset::kDefault, workload::Dataset::kCnews,
                                workload::Dataset::kMrpc, workload::Dataset::kCola}) {
            for (const double miss : {0.0, 0.05}) {
              const std::string key = "encoder/L" + std::to_string(seq) + "/layers" +
                                      std::to_string(layers) + "/shards" +
                                      std::to_string(shards) + "/" +
                                      workload::to_string(ds) + "/" + miss_tag(miss);
              jobs_.emplace_back([this, key, seq, layers, shards, ds, miss] {
                return std::vector<Cell>{{key, guarded([&] {
                  const nn::Tensor out = model(miss).run_encoder_one(
                      embedding(seq), kEngineSeed, layers, shards, ds);
                  return fnv1a(out.flat());
                })}};
              });
            }
          }
        }
      }
    }
  }

  void add_attention_cells() {
    for (const std::size_t seq : {7, 64}) {
      for (const double miss : {0.0, 0.05}) {
        const std::string key =
            "attention/L" + std::to_string(seq) + "/" + miss_tag(miss);
        jobs_.emplace_back([this, key, seq, miss] {
          std::string probs;
          const std::string output = guarded([&] {
            const auto qkv = workload::qkv_batch(
                1, seq, static_cast<std::size_t>(kTiny.d_head()), 1.5, 0xA7 + seq)[0];
            const auto res = model(miss).run_attention_one(qkv, kEngineSeed);
            probs = fnv1a(res.probabilities.flat());
            return fnv1a(res.output.flat());
          });
          return std::vector<Cell>{{key + "/output", output},
                                   {key + "/probabilities", probs.empty() ? output : probs}};
        });
      }
    }
  }

  void add_reference_cells() {
    for (const std::size_t seq : {7, 16}) {
      const std::string key = "reference/L" + std::to_string(seq);
      for (const double miss : {0.0, 0.05}) {
        jobs_.emplace_back([this, key, seq, miss] {
          return std::vector<Cell>{{key + "/engine/" + miss_tag(miss), guarded([&] {
            core::SoftmaxRunState run(kEngineSeed);
            core::SoftmaxEngineRowRef softmax(model(miss).softmax_engine(), run);
            return fnv1a(nn::encoder_layer_forward(embedding(seq),
                                                   model(miss).layer_weights(0), softmax)
                             .flat());
          })}};
        });
      }
      jobs_.emplace_back([this, key, seq] {
        return std::vector<Cell>{{key + "/exact", guarded([&] {
          nn::ExactSoftmaxInto softmax;
          return fnv1a(nn::encoder_layer_forward(embedding(seq),
                                                 exact_model_.layer_weights(0), softmax)
                           .flat());
        })}};
      });
    }
  }

  void add_row_cells() {
    static constexpr std::size_t kLens[] = {1, 8, 64, 384};
    // The engine: one continuing default-seeded stream over all four rows.
    for (const double miss : {0.0, 0.05}) {
      jobs_.emplace_back([miss] {
        core::StarConfig cfg;
        cfg.cam_miss_prob = miss;
        const core::SoftmaxEngine engine(cfg);
        core::SoftmaxRunState run;
        std::vector<Cell> cells;
        for (const std::size_t len : kLens) {
          cells.push_back({"row/engine/" + miss_tag(miss) + "/d" + std::to_string(len),
                           guarded([&] {
                             std::vector<double> p(len);
                             engine.softmax_row_into(fixed_row(len), run, p);
                             return fnv1a(p);
                           })});
        }
        return cells;
      });
    }
    jobs_.emplace_back([] {
      baseline::SoftermaxUnit softermax(hw::TechNode::n32());
      baseline::CmosSoftmaxUnit cmos(hw::TechNode::n32());
      std::vector<Cell> cells;
      for (const std::size_t len : kLens) {
        const std::vector<double> row = fixed_row(len);
        const std::string d = "/d" + std::to_string(len);
        cells.push_back({"row/softermax" + d,
                         guarded([&] { return fnv1a(nn::softmax_row(softermax, row)); })});
        cells.push_back({"row/cmos" + d,
                         guarded([&] { return fnv1a(nn::softmax_row(cmos, row)); })});
        cells.push_back({"row/exact" + d, guarded([&] { return fnv1a(nn::softmax(row)); })});
      }
      return cells;
    });
  }

  core::BatchEncoderSim exact_model_;
  core::BatchEncoderSim faulty_model_;
  std::vector<Job> jobs_;
};

std::vector<Cell> flatten(const std::vector<std::vector<Cell>>& per_job) {
  std::vector<Cell> cells;
  for (const auto& job_cells : per_job) {
    cells.insert(cells.end(), job_cells.begin(), job_cells.end());
  }
  return cells;
}

std::vector<Cell> run_serial(const Grid& grid) {
  std::vector<std::vector<Cell>> per_job;
  for (const Job& job : grid.jobs()) {
    per_job.push_back(job());
  }
  return flatten(per_job);
}

std::vector<Cell> run_threaded(const Grid& grid) {
  sim::BatchScheduler sched(4);
  return flatten(sched.map<std::vector<Cell>>(
      grid.jobs().size(), [&](std::size_t i) { return grid.jobs()[i](); }));
}

/// Rows of the golden file (header skipped); empty when the file is missing.
std::vector<Cell> load_golden() {
  std::vector<Cell> rows;
  std::ifstream in(kGoldenFile);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const auto comma = line.find(',');
    if (!line.empty() && comma != std::string::npos) {
      rows.push_back({line.substr(0, comma), line.substr(comma + 1)});
    }
  }
  return rows;
}

/// Compares `got` with the golden rows; on any difference prints the
/// differing cells and then every computed row.
void expect_golden(const std::vector<Cell>& got, const char* run) {
  const std::vector<Cell> golden = load_golden();
  EXPECT_FALSE(golden.empty()) << "missing or empty golden file: " << kGoldenFile;
  EXPECT_EQ(got.size(), golden.size()) << run << ": cell count differs";
  bool same = got.size() == golden.size();
  for (std::size_t i = 0; i < got.size() && i < golden.size(); ++i) {
    EXPECT_EQ(got[i].key, golden[i].key) << run << ": row " << i;
    EXPECT_EQ(got[i].value, golden[i].value) << run << ": cell " << got[i].key;
    same = same && got[i].key == golden[i].key && got[i].value == golden[i].value;
  }
  if (!same) {
    std::printf("computed rows (%s run):\ncell,digest\n", run);
    for (const Cell& c : got) {
      std::printf("%s,%s\n", c.key.c_str(), c.value.c_str());
    }
  }
}

TEST(PayloadDigests, SerialRunMatchesGolden) {
  const Grid grid;
  expect_golden(run_serial(grid), "serial");
}

TEST(PayloadDigests, FourThreadRunMatchesGolden) {
  const Grid grid;
  expect_golden(run_threaded(grid), "4-thread");
}

}  // namespace
}  // namespace star
