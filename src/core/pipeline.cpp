#include "core/pipeline.hpp"

#include <algorithm>

#include "sim/pipeline_sim.hpp"
#include "util/status.hpp"

namespace star::core {

std::array<Time, 5> StageTimes::stages() const {
  return {proj_row, score_row, softmax_row, context_row, outproj_row};
}

Time StageTimes::max_stage() const {
  Time peak{};
  for (const Time s : stages()) {
    peak = std::max(peak, s);
  }
  return peak;
}

Time StageTimes::sum_stages() const {
  Time total{};
  for (const Time s : stages()) {
    total += s;
  }
  return total;
}

namespace {

/// The one utilisation rule: `busy_s` busy seconds over `makespan`.
double busy_fraction(double busy_s, Time makespan) {
  const double span = makespan.as_s();
  return span > 0.0 ? busy_s / span : 0.0;
}

}  // namespace

// STAR_HOT
PipelineReport run_pipeline(const StageTimes& t, std::size_t rows,
                            PipelineDiscipline discipline) {
  require(rows >= 1, "run_pipeline: rows must be >= 1");
  const double n = static_cast<double>(rows);
  PipelineReport rep;

  if (discipline == PipelineDiscipline::kVectorGrained) {
    rep.makespan = sim::simulate(t.stages(), rows);
    rep.softmax_stage_util = busy_fraction(n * t.softmax_row.as_s(), rep.makespan);
    rep.bottleneck_util = busy_fraction(n * t.max_stage().as_s(), rep.makespan);
    return rep;
  }

  // Operand-grained: the matmul stages remain row-pipelined among
  // themselves (prior accelerators pipeline their crossbar stages across
  // rows, heads and layers), but the softmax block is a serial barrier: it
  // consumes the complete score matrix and releases the complete
  // probability matrix, so its full drain time adds to the makespan.
  const std::array<Time, 4> mm{t.proj_row, t.score_row, t.context_row, t.outproj_row};
  const Time mm_makespan = sim::simulate(mm, rows);
  const Time softmax_block = t.softmax_row * n;
  rep.makespan = mm_makespan + softmax_block;
  rep.softmax_stage_util = busy_fraction(n * t.softmax_row.as_s(), rep.makespan);
  const Time mm_peak = std::max(std::max(t.proj_row, t.score_row),
                                std::max(t.context_row, t.outproj_row));
  rep.bottleneck_util = busy_fraction(n * mm_peak.as_s(), mm_makespan);
  return rep;
}

// STAR_HOT
StackPipelineReport run_stack_pipeline(const LayerStageTimes& layer,
                                       std::size_t num_layers, std::size_t rows,
                                       PipelineDiscipline discipline) {
  require(num_layers >= 1, "run_stack_pipeline: at least one layer required");
  require(rows >= 1, "run_stack_pipeline: rows must be >= 1");

  const StageTimes& a = layer.attention;
  const Time attention = sim::simulate(a.stages(), rows);
  // The FFN's row-pipelined drain after the attention block: one fill plus
  // rows at the stripe rate.
  const Time ffn_drain = layer.ffn_row * static_cast<double>(rows + 1);

  StackPipelineReport rep;
  Time m{};
  if (discipline == PipelineDiscipline::kVectorGrained) {
    // [attn_0] then N-1 streamed [ffn_{L-1} + attn_L] segments, then the
    // last layer's FFN drain. The intra-layer attention -> FFN drain point
    // makes each segment an independent item-granular schedule, so the
    // stack makespan is the sum of segment makespans, added in layer order.
    const std::array<Time, 7> segment{layer.ffn_row, layer.ffn_row,  a.proj_row,
                                      a.score_row,   a.softmax_row,  a.context_row,
                                      a.outproj_row};
    const Time steady = num_layers > 1 ? sim::simulate(segment, rows) : Time{};
    m = attention;
    for (std::size_t l = 1; l < num_layers; ++l) {
      m += steady;
    }
    m += ffn_drain;
  } else {
    // One standalone layer, composed exactly as
    // EncoderModel::run_encoder_layer composes latency, N times.
    const Time standalone = attention + ffn_drain;
    for (std::size_t l = 0; l < num_layers; ++l) {
      m += standalone;
    }
  }
  rep.makespan = m;

  // Busy seconds are discipline-independent (rows x service per stage).
  const double n = static_cast<double>(rows);
  double softmax_busy = 0.0;
  for (std::size_t l = 0; l < num_layers; ++l) {
    softmax_busy += n * a.softmax_row.as_s();
  }
  rep.softmax_stage_util = busy_fraction(softmax_busy, m);
  rep.bottleneck_util =
      busy_fraction(n * std::max(a.max_stage(), layer.ffn_row).as_s(), m);
  return rep;
}

double analytic_stack_speedup(const LayerStageTimes& t, std::size_t num_layers,
                              std::size_t rows) {
  require(num_layers >= 1, "analytic_stack_speedup: num_layers must be >= 1");
  require(rows >= 1, "analytic_stack_speedup: rows must be >= 1");
  const double n = static_cast<double>(rows);
  const double big_n = static_cast<double>(num_layers);
  const double sum5 = t.attention.sum_stages().as_s();
  const double max5 = t.attention.max_stage().as_s();
  const double f = t.ffn_row.as_s();
  const double attn = sum5 + (n - 1.0) * max5;
  const double ffn = (n + 1.0) * f;
  const double steady = sum5 + 2.0 * f + (n - 1.0) * std::max(max5, f);
  const double vector_t = attn + (big_n - 1.0) * steady + ffn;
  const double operand_t = big_n * (attn + ffn);
  return operand_t / vector_t;
}

double analytic_speedup(const StageTimes& t, std::size_t rows) {
  require(rows >= 1, "analytic_speedup: rows must be >= 1");
  const double n = static_cast<double>(rows);
  const double vector_t =
      t.sum_stages().as_s() + (n - 1.0) * t.max_stage().as_s();
  const double mm_sum = t.proj_row.as_s() + t.score_row.as_s() +
                        t.context_row.as_s() + t.outproj_row.as_s();
  const double mm_max =
      std::max(std::max(t.proj_row.as_s(), t.score_row.as_s()),
               std::max(t.context_row.as_s(), t.outproj_row.as_s()));
  const double operand_t = mm_sum + (n - 1.0) * mm_max + n * t.softmax_row.as_s();
  return operand_t / vector_t;
}

}  // namespace star::core
