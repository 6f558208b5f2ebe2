// E11 (extension) — device/circuit robustness of the softmax engine:
// accuracy proxy under CAM matchline miss faults and RRAM programming
// variation, per dataset. The engine degrades gracefully because a missed
// search reads as an underflowed exponential (a near-zero probability),
// not garbage.
#include <cstdio>

#include "core/softmax_engine.hpp"
#include "nn/softmax_ref.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/dataset_profile.hpp"

namespace {

using namespace star;

struct Metrics {
  double top1 = 0.0;
  double rmse = 0.0;
};

/// `run` carries one fault stream across every row measured on an engine.
Metrics measure(const core::SoftmaxEngine& engine, core::SoftmaxRunState& run,
                const workload::DatasetProfile& profile, int rows, std::uint64_t seed) {
  core::SoftmaxEngineRowRef star(engine, run);
  Rng rng(seed);
  Metrics m;
  int agree = 0;
  double se = 0.0;
  std::size_t n = 0;
  for (int r = 0; r < rows; ++r) {
    const auto row = profile.sample_row(64, rng);
    const auto exact = nn::softmax(row);
    const auto got = nn::softmax_row(star, row);
    agree += (argmax(exact) == argmax(got)) ? 1 : 0;
    for (std::size_t i = 0; i < exact.size(); ++i) {
      se += (exact[i] - got[i]) * (exact[i] - got[i]);
    }
    n += exact.size();
  }
  m.top1 = static_cast<double>(agree) / rows;
  m.rmse = std::sqrt(se / static_cast<double>(n));
  return m;
}

}  // namespace

int main() {
  std::printf("E11: softmax engine robustness to device/circuit faults "
              "(9-bit engine, 300 rows per point)\n\n");

  const auto profiles = workload::DatasetProfile::all();
  constexpr int kRows = 300;

  std::printf("--- CAM matchline miss probability sweep ---\n");
  TablePrinter miss_table({"miss prob", "CNEWS top-1", "MRPC top-1", "CoLA top-1",
                           "CNEWS rmse"});
  for (const double miss : {0.0, 0.001, 0.005, 0.02, 0.05}) {
    core::StarConfig cfg;
    cfg.softmax_format = fxp::kMrpcFormat;
    cfg.cam_miss_prob = miss;
    const core::SoftmaxEngine engine(cfg);
    core::SoftmaxRunState run;
    Metrics m[3];
    for (int i = 0; i < 3; ++i) {
      m[i] = measure(engine, run, profiles[static_cast<std::size_t>(i)], kRows, 77 + i);
    }
    miss_table.add_row({TablePrinter::num(miss, 3), TablePrinter::num(m[0].top1, 3),
                        TablePrinter::num(m[1].top1, 3), TablePrinter::num(m[2].top1, 3),
                        TablePrinter::num(m[0].rmse, 5)});
  }
  miss_table.print();

  std::printf("\n--- RRAM programming variation sweep (device sigma) ---\n");
  TablePrinter dev_table({"program sigma", "CNEWS top-1", "MRPC top-1", "CoLA top-1"});
  for (const double sigma : {0.0, 0.02, 0.05, 0.10}) {
    core::StarConfig cfg;
    cfg.softmax_format = fxp::kMrpcFormat;
    cfg.device = xbar::RramDevice::noisy(2, sigma, 0.01);
    const core::SoftmaxEngine engine(cfg);
    core::SoftmaxRunState run;
    Metrics m[3];
    for (int i = 0; i < 3; ++i) {
      m[i] = measure(engine, run, profiles[static_cast<std::size_t>(i)], kRows, 177 + i);
    }
    dev_table.add_row({TablePrinter::num(sigma, 2), TablePrinter::num(m[0].top1, 3),
                       TablePrinter::num(m[1].top1, 3),
                       TablePrinter::num(m[2].top1, 3)});
  }
  dev_table.print();

  std::printf("\nMatchline misses cost ~miss_prob of the probability mass and\n"
              "rarely flip the argmax below 2%% miss rate; programming\n"
              "variation does not touch the digital-equivalent CAM/LUT path\n"
              "(it perturbs only the analog summation margin) — the engine's\n"
              "accuracy is set by the operand format, as the paper assumes.\n");
  return 0;
}
