#include "sim/pipeline_sim.hpp"

#include <algorithm>
#include <array>

#include "util/status.hpp"

namespace star::sim {

double PipelineResult::bottleneck_util() const {
  double peak = 0.0;
  for (double u : stage_util) {
    peak = std::max(peak, u);
  }
  return peak;
}

namespace {

/// The item-granular recurrence's state of one stage.
struct StageState {
  double service;  ///< per-item service time (s), before service_scale
  double finish;   ///< finish time of the latest item through the stage
  double busy;     ///< busy seconds so far
};

/// Pipelines up to this many stages keep their state on the stack; longer
/// ones spill it to the heap. Every pipeline the models build has 4-7.
constexpr std::size_t kStackStages = 16;

/// Items that go through the stages together, their finish times held in
/// registers (see simulate).
constexpr std::size_t kItemBlock = 8;

/// One cell of the item-granular recurrence: an item enters a stage once
/// it left the previous stage (`ready`) and the stage is free
/// (`stage_free`). The compare is std::max(ready, stage_free) spelled out.
double finish_cell(double ready, double stage_free, double service) {
  return (ready < stage_free ? stage_free : ready) + service;
}

}  // namespace

PipelineResult simulate(const std::vector<Stage>& stages, std::size_t items,
                        Discipline discipline, const std::vector<double>& service_scale,
                        const SimOptions& options) {
  require(!stages.empty(), "simulate: at least one stage required");
  require(service_scale.empty() || service_scale.size() == items,
          "simulate: service_scale must be empty or one entry per item");

  const std::size_t k = stages.size();
  PipelineResult res;
  if (options.record_completion) {
    res.completion.assign(items, std::vector<double>(k, 0.0));
  }
  res.stage_busy_s.assign(k, 0.0);
  res.stage_util.assign(k, 0.0);
  if (items == 0) {
    return res;
  }

  auto scale = [&](std::size_t i) {
    return service_scale.empty() ? 1.0 : service_scale[i];
  };

  double final_finish = 0.0;
  if (discipline == Discipline::kItemGranular) {
    // finish(i, s) = max(finish(i, s-1), finish(i-1, s)) + service(s) * scale(i)
    // Only the previous item's finish at the same stage feeds the next
    // item, so one finish time per stage, overwritten in place, is the
    // whole state: O(stages) memory, on the stack for short pipelines.
    // A block of up to kItemBlock items goes through the stages together:
    // inside the block an item reads its predecessor's finish from a
    // register, so only one finish per stage and block makes the round trip
    // through memory that bounds the recurrence. The inner loop runs to the
    // constant kItemBlock so that the compiler unrolls it and keeps the
    // block in registers; the last block may hold fewer items. Every cell
    // keeps the operands and order of the formula above, and each stage
    // adds its busy time item by item, so every result keeps its bits.
    std::array<StageState, kStackStages> local;
    std::vector<StageState> spilled(k > kStackStages ? k : 0);
    StageState* const state = k > kStackStages ? spilled.data() : local.data();
    for (std::size_t s = 0; s < k; ++s) {
      state[s] = StageState{stages[s].service.as_s(), 0.0, 0.0};
    }
    for (std::size_t first = 0; first < items; first += kItemBlock) {
      const std::size_t n = std::min(kItemBlock, items - first);
      std::array<double, kItemBlock> item_scale{};
      for (std::size_t j = 0; j < n; ++j) {
        item_scale[j] = scale(first + j);
      }
      std::array<double, kItemBlock> ready{};  // finish(first + j, s-1); 0 before stage 0
      for (std::size_t s = 0; s < k; ++s) {
        StageState& st = state[s];
        double stage_free = st.finish;  // finish(first + j - 1, s)
        double busy = st.busy;
        for (std::size_t j = 0; j < kItemBlock; ++j) {
          if (j < n) {
            const double t = st.service * item_scale[j];
            ready[j] = finish_cell(ready[j], stage_free, t);
            busy += t;
            stage_free = ready[j];
          }
        }
        st.finish = stage_free;
        st.busy = busy;
        if (options.record_completion) {
          for (std::size_t j = 0; j < n; ++j) {
            res.completion[first + j][s] = ready[j];
          }
        }
      }
    }
    for (std::size_t s = 0; s < k; ++s) {
      res.stage_busy_s[s] = state[s].busy;
    }
    final_finish = state[k - 1].finish;
  } else {
    // Stage s starts only after every item finished stage s-1.
    double stage_start = 0.0;
    for (std::size_t s = 0; s < k; ++s) {
      double t_cursor = stage_start;
      for (std::size_t i = 0; i < items; ++i) {
        const double t = stages[s].service.as_s() * scale(i);
        t_cursor += t;
        if (options.record_completion) {
          res.completion[i][s] = t_cursor;
        }
        res.stage_busy_s[s] += t;
      }
      stage_start = t_cursor;  // barrier: next stage starts after the last item
    }
    final_finish = stage_start;
  }

  res.makespan = Time::s(final_finish);
  const double span = res.makespan.as_s();
  for (std::size_t s = 0; s < k; ++s) {
    res.stage_util[s] = span > 0.0 ? res.stage_busy_s[s] / span : 0.0;
  }
  return res;
}

Time closed_form_makespan(const std::vector<Stage>& stages, std::size_t items,
                          Discipline discipline) {
  require(!stages.empty(), "closed_form_makespan: at least one stage required");
  if (items == 0) {
    return Time::s(0.0);
  }
  double sum = 0.0;
  double peak = 0.0;
  for (const auto& st : stages) {
    sum += st.service.as_s();
    peak = std::max(peak, st.service.as_s());
  }
  if (discipline == Discipline::kItemGranular) {
    return Time::s(sum + static_cast<double>(items - 1) * peak);
  }
  return Time::s(static_cast<double>(items) * sum);
}

}  // namespace star::sim
