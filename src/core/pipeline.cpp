#include "core/pipeline.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace star::core {

std::vector<sim::Stage> StageTimes::stages() const {
  return {sim::Stage{"proj", proj_row}, sim::Stage{"score", score_row},
          sim::Stage{"softmax", softmax_row}, sim::Stage{"context", context_row},
          sim::Stage{"outproj", outproj_row}};
}

Time StageTimes::max_stage() const {
  Time peak{};
  for (const auto& s : stages()) {
    peak = std::max(peak, s.service);
  }
  return peak;
}

Time StageTimes::sum_stages() const {
  Time total{};
  for (const auto& s : stages()) {
    total += s.service;
  }
  return total;
}

PipelineReport run_pipeline(const StageTimes& t, std::size_t rows,
                            PipelineDiscipline discipline) {
  require(rows >= 1, "run_pipeline: rows must be >= 1");
  PipelineReport rep;

  if (discipline == PipelineDiscipline::kVectorGrained) {
    const auto res = sim::simulate(t.stages(), rows, sim::Discipline::kItemGranular, {},
                                   sim::SimOptions{.record_completion = false});
    rep.makespan = res.makespan;
    rep.softmax_stage_util = res.stage_util[2];
    rep.bottleneck_util = res.bottleneck_util();
    return rep;
  }

  // Operand-grained: the matmul stages remain row-pipelined among
  // themselves (prior accelerators pipeline their crossbar stages across
  // rows, heads and layers), but the softmax block is a serial barrier: it
  // consumes the complete score matrix and releases the complete
  // probability matrix, so its full drain time adds to the makespan.
  const std::vector<sim::Stage> mm{sim::Stage{"proj", t.proj_row},
                                   sim::Stage{"score", t.score_row},
                                   sim::Stage{"context", t.context_row},
                                   sim::Stage{"outproj", t.outproj_row}};
  const auto mm_res = sim::simulate(mm, rows, sim::Discipline::kItemGranular, {},
                                    sim::SimOptions{.record_completion = false});
  const Time softmax_block = t.softmax_row * static_cast<double>(rows);
  rep.makespan = mm_res.makespan + softmax_block;
  rep.softmax_stage_util = softmax_block / rep.makespan;
  rep.bottleneck_util = mm_res.bottleneck_util();
  return rep;
}

std::vector<sim::Stage> LayerStageTimes::stages() const {
  auto all = attention.stages();
  all.push_back(sim::Stage{"ffn1", ffn_row});
  all.push_back(sim::Stage{"ffn2", ffn_row});
  return all;
}

std::vector<sim::Stage> LayerStageTimes::ffn_stages() const {
  return {sim::Stage{"ffn1", ffn_row}, sim::Stage{"ffn2", ffn_row}};
}

namespace {

/// One standalone layer, composed exactly as EncoderModel::run_encoder_layer
/// composes latency: vector-grained attention pipeline, then the FFN's
/// row-pipelined drain (fill + rows at the stripe rate).
Time standalone_layer_makespan(const LayerStageTimes& t, std::size_t rows) {
  const auto attn =
      sim::simulate(t.attention.stages(), rows, sim::Discipline::kItemGranular,
                    {}, sim::SimOptions{.record_completion = false});
  return attn.makespan + t.ffn_row * static_cast<double>(rows + 1);
}

/// Steady-state segment: layer L's FFN stages streaming rows directly into
/// layer L+1's attention stages (no barrier at the layer boundary).
Time stack_segment_makespan(const LayerStageTimes& producer,
                            const LayerStageTimes& consumer, std::size_t rows) {
  auto stages = producer.ffn_stages();
  const auto attn = consumer.attention.stages();
  stages.insert(stages.end(), attn.begin(), attn.end());
  return sim::simulate(stages, rows, sim::Discipline::kItemGranular, {},
                       sim::SimOptions{.record_completion = false})
      .makespan;
}

}  // namespace

StackPipelineReport run_stack_pipeline(std::span<const LayerStageTimes> layers,
                                       std::size_t rows,
                                       PipelineDiscipline discipline) {
  require(!layers.empty(), "run_stack_pipeline: at least one layer required");
  require(rows >= 1, "run_stack_pipeline: rows must be >= 1");

  StackPipelineReport rep;
  Time m{};
  if (discipline == PipelineDiscipline::kVectorGrained) {
    // [attn_0] then N-1 streamed [ffn_{L-1} + attn_L] segments, then the
    // last layer's FFN drain. The intra-layer attention -> FFN drain point
    // makes each segment an independent item-granular schedule, so the
    // stack makespan is the sum of segment makespans.
    m = sim::simulate(layers[0].attention.stages(), rows,
                      sim::Discipline::kItemGranular, {},
                      sim::SimOptions{.record_completion = false})
            .makespan;
    for (std::size_t l = 1; l < layers.size(); ++l) {
      m += stack_segment_makespan(layers[l - 1], layers[l], rows);
    }
    m += layers.back().ffn_row * static_cast<double>(rows + 1);
  } else {
    for (const auto& t : layers) {
      m += standalone_layer_makespan(t, rows);
    }
  }
  rep.makespan = m;

  // Busy seconds are discipline-independent (service * rows per stage).
  const double n = static_cast<double>(rows);
  const double span = m.as_s();
  double softmax_busy = 0.0;
  double peak_busy = 0.0;
  for (const auto& t : layers) {
    softmax_busy += n * t.attention.softmax_row.as_s();
    for (const auto& s : t.stages()) {
      peak_busy = std::max(peak_busy, n * s.service.as_s());
    }
  }
  rep.softmax_stage_util = span > 0.0 ? softmax_busy / span : 0.0;
  rep.bottleneck_util = span > 0.0 ? peak_busy / span : 0.0;
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
