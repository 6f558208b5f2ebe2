// ASCII visualisation of the vector-grained vs operand-grained pipeline:
// per-row timelines for a small attention block on the STAR stage times.
// Both makespans and both speedups come from core::run_pipeline; the lanes
// are drawn from the constant-service closed form of the row recurrence,
// finish(i, s) = P_s + i * M_s, where P_s and M_s are the prefix sum and the
// prefix max of the services up to stage s.
//
//   $ ./pipeline_visualize
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>

#include "core/accelerator.hpp"
#include "core/pipeline.hpp"

namespace {

using namespace star;

/// One stage's lane: row i finishes at first + i * step and occupies the
/// stage for `service` before that.
struct Lane {
  const char* name;
  Time service;
  Time first;
  Time step;
};

/// The lanes of a row-pipelined stage sequence under constant services.
template <std::size_t N>
std::array<Lane, N> pipelined(const std::array<const char*, N>& names,
                              const std::array<Time, N>& services) {
  std::array<Lane, N> lanes{};
  Time prefix_sum{};
  Time prefix_max{};
  for (std::size_t s = 0; s < N; ++s) {
    prefix_sum += services[s];
    prefix_max = std::max(prefix_max, services[s]);
    lanes[s] = Lane{names[s], services[s], prefix_sum, prefix_max};
  }
  return lanes;
}

void draw(const char* title, Time makespan, const std::array<Lane, 5>& lanes,
          std::size_t rows, double t_end_s) {
  constexpr int kWidth = 86;
  std::printf("%s (makespan %s)\n", title, to_string(makespan).c_str());
  for (const Lane& lane : lanes) {
    std::string cells(kWidth, '.');
    for (std::size_t i = 0; i < rows; ++i) {
      const double end = (lane.first + lane.step * static_cast<double>(i)).as_s();
      const double start = end - lane.service.as_s();
      const int a = std::clamp(static_cast<int>(start / t_end_s * kWidth), 0, kWidth - 1);
      const int b = std::clamp(static_cast<int>(end / t_end_s * kWidth), 0, kWidth - 1);
      const char glyph = static_cast<char>('0' + static_cast<int>(i % 10));
      for (int x = a; x <= b; ++x) {
        cells[static_cast<std::size_t>(x)] = glyph;
      }
    }
    std::printf("  %-8s |%s|\n", lane.name, cells.c_str());
  }
  std::printf("\n");
}

double speedup(const core::StageTimes& t, std::size_t rows) {
  return core::run_pipeline(t, rows, core::PipelineDiscipline::kOperandGrained).makespan /
         core::run_pipeline(t, rows, core::PipelineDiscipline::kVectorGrained).makespan;
}

}  // namespace

int main() {
  core::StarConfig cfg;
  cfg.softmax_format = fxp::kMrpcFormat;
  const core::StarAccelerator acc(cfg);
  const nn::BertConfig bert = nn::BertConfig::base();
  const std::size_t rows = 8;  // a small head so each row is visible

  const core::StageTimes t = acc.stage_times(bert, 128);
  std::printf("STAR stage times per row: proj %s | score %s | softmax %s | "
              "context %s | outproj %s\n\n",
              to_string(t.proj_row).c_str(), to_string(t.score_row).c_str(),
              to_string(t.softmax_row).c_str(), to_string(t.context_row).c_str(),
              to_string(t.outproj_row).c_str());

  const auto vec = core::run_pipeline(t, rows, core::PipelineDiscipline::kVectorGrained);
  const auto op = core::run_pipeline(t, rows, core::PipelineDiscipline::kOperandGrained);

  // Vector-grained: all five stages row-pipelined.
  const std::array<Lane, 5> vector_lanes =
      pipelined<5>({"proj", "score", "softmax", "context", "outproj"}, t.stages());

  // Operand-grained: the four matmul stages row-pipelined, and the softmax
  // block (every row, back to back) after the last score row. The context
  // and outproj lanes shift right by that block, which run_pipeline adds to
  // the matmul pipeline's makespan.
  const std::array<Lane, 4> mm = pipelined<4>(
      {"proj", "score", "context", "outproj"},
      {t.proj_row, t.score_row, t.context_row, t.outproj_row});
  const Time block = t.softmax_row * static_cast<double>(rows);
  const Time last_score = mm[1].first + mm[1].step * static_cast<double>(rows - 1);
  const std::array<Lane, 5> operand_lanes{
      mm[0], mm[1], Lane{"softmax", t.softmax_row, last_score + t.softmax_row, t.softmax_row},
      Lane{mm[2].name, mm[2].service, mm[2].first + block, mm[2].step},
      Lane{mm[3].name, mm[3].service, mm[3].first + block, mm[3].step}};

  const double t_end = std::max(vec.makespan, op.makespan).as_s();
  std::printf("each digit = one score row flowing through a stage; time runs "
              "left to right\n\n");
  draw("vector-grained (STAR)", vec.makespan, vector_lanes, rows, t_end);
  draw("operand-grained (prior work)", op.makespan, operand_lanes, rows, t_end);

  std::printf("speedup at %zu rows: %.2fx   (at 128 rows: %.2fx)\n", rows,
              op.makespan / vec.makespan, speedup(t, 128));
  return 0;
}
