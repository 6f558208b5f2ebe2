// Walkthrough of the paper's Fig. 1 (CAM/SUB crossbar) and Fig. 2
// (exponential operation): the same small examples the figures draw,
// executed on the functional crossbar models step by step.
//
//   $ ./softmax_walkthrough
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/softmax_engine.hpp"
#include "hw/tech.hpp"
#include "util/rng.hpp"
#include "xbar/cam_sub.hpp"

namespace {

void print_matchlines(const std::vector<bool>& lines, int max_rows) {
  std::printf("[");
  for (int r = 0; r < max_rows; ++r) {
    std::printf("%d", lines[static_cast<std::size_t>(r)] ? 1 : 0);
  }
  std::printf("%s]", static_cast<int>(lines.size()) > max_rows ? "..." : "");
}

}  // namespace

int main() {
  using namespace star;
  const hw::TechNode tech = hw::TechNode::n32();

  // ---------------- Fig. 1: x_i - x_max on the CAM/SUB crossbar ----------
  std::printf("=== Fig. 1: CAM/SUB crossbar workflow ===\n\n");
  // 4-bit operands -> 16 rows preloaded in descending order (the figure
  // draws a 4x8 slice of this).
  xbar::CamSubCrossbar cam_sub(tech, xbar::RramDevice::ideal(2), 4);
  const std::vector<std::int64_t> xs{3, 9, 7, 9};
  std::printf("inputs x1..x4 = [3, 9, 7, 9] (4-bit codes)\n");
  std::printf("rows store codes descending: row0=%lld ... row%d=%lld\n\n",
              static_cast<long long>(cam_sub.code_at(0)), cam_sub.rows() - 1,
              static_cast<long long>(cam_sub.code_at(cam_sub.rows() - 1)));

  // (2)-(3): per-input CAM searches, OR-merged.
  // Fault-free here: miss_prob 0 draws nothing from the stream.
  Rng fault_stream(1);
  const auto mf = cam_sub.find_max(xs, 0.0, fault_stream);
  std::printf("step 2-3: merged matchline vector ");
  print_matchlines(mf.merged_matchlines, cam_sub.rows());
  std::printf("\nstep 3: first '1' at row %d -> x_max = %lld\n", mf.max_row,
              static_cast<long long>(mf.max_code));

  // (4)-(5): subtraction phase.
  const auto diffs = cam_sub.subtract_all(mf, xs);
  std::printf("step 4-5: x_i - x_max = [");
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    std::printf("%s%lld", i ? ", " : "", static_cast<long long>(diffs[i]));
  }
  std::printf("]  (always <= 0; sign bit dropped downstream)\n\n");

  // ---------------- Fig. 2: exponential via CAM + LUT + counter + VMM ----
  std::printf("=== Fig. 2: exponential operation (m = LUT fraction bits) ===\n\n");
  core::StarConfig cfg;
  cfg.softmax_format = fxp::make_unsigned(3, 1);  // tiny: 4-bit codes, res 0.5
  cfg.max_seq_len = 16;
  const core::SoftmaxEngine engine(cfg);
  const double res = cfg.softmax_format.resolution();

  std::printf("LUT rows hold round(e^(-r*res) * 2^m) "
              "(paper: WLi = round(e^xi * 2^m) * 2^-m):\n");
  for (int r = 0; r < engine.exp_rows(); ++r) {
    std::printf("  row %d: e^-%.1f = %.4f\n", r, r * res, std::exp(-r * res));
  }

  const std::vector<std::int64_t> codes{6, 2, 0, 2};
  std::printf("\ninputs (codes) = [6, 2, 0, 2]\n");
  core::SoftmaxRunState run;
  std::vector<std::int64_t> probs(codes.size());
  engine.forward_codes_into(codes, run, probs);
  std::printf("engine outputs (probability codes / 2^%d):\n", engine.prob_frac_bits());
  double sum = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    const double p = std::ldexp(static_cast<double>(probs[i]), -engine.prob_frac_bits());
    sum += p;
    std::printf("  p%zu = %.5f\n", i + 1, p);
  }
  std::printf("sum = %.5f (flooring in the divider leaves it just below 1)\n\n", sum);

  std::printf("engine bill of materials:\n%s", engine.cost_sheet(4).breakdown().c_str());
  return 0;
}
