// Generic stage-pipeline simulator.
//
// Models a linear pipeline of K stages processing N work items (rows of the
// attention score matrix, in STAR's case). Two disciplines:
//
//  * kItemGranular  — item i may enter stage s+1 as soon as *it* leaves
//    stage s (STAR's "vector-grained" pipeline: a softmax row starts while
//    the next score row is still being produced).
//  * kBarrier       — stage s+1 starts only after *all* items finished
//    stage s (the "operand-grained" behaviour of prior accelerators, where
//    softmax waits for the whole score matrix).
//
// The simulator is a deterministic discrete-time recurrence (no event heap
// needed for a linear pipeline) and also exposes the closed-form makespan
// for constant service times, which the tests cross-check.
//
// The per-cell rule (item-granular): item i finishes stage s at
//   finish(i, s) = max(finish(i, s-1), finish(i-1, s)) + service(s) * scale(i)
// with finish(i, -1) = finish(-1, s) = 0, and each stage's busy time adds
// service(s) * scale(i) item by item. Every result is that double
// arithmetic in that order, so the makespan, the busy and utilisation
// figures and the completion matrix are reproducible bit for bit. The
// loop keeps one state record per stage (service, latest finish, busy) on
// the stack up to a fixed stage count, and walks blocks of items through
// the stages with the block's finish times in registers; neither changes
// a cell's operands or their order.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace star::sim {

enum class Discipline {
  kItemGranular,  ///< vector-grained (STAR)
  kBarrier,       ///< operand-grained (prior work)
};

/// A pipeline stage: name + per-item service time. A stage processes one
/// item at a time (service is not pipelined within the stage).
struct Stage {
  std::string name;
  Time service{};
};

/// Per-item, per-stage completion times plus derived metrics.
struct PipelineResult {
  Time makespan{};
  std::vector<double> stage_busy_s;   ///< total busy seconds per stage
  std::vector<double> stage_util;     ///< busy / makespan
  /// completion[i][s] = finish time (s) of item i in stage s. Empty when
  /// the run was invoked with record_completion = false.
  std::vector<std::vector<double>> completion;

  [[nodiscard]] double bottleneck_util() const;
};

/// Per-run simulation options. The result object is the only mutable state
/// of a run; `simulate` itself is pure and safe to call concurrently.
struct SimOptions {
  /// Store the full items x stages completion matrix. Disable for large
  /// batched runs where only the makespan/utilisation summary is needed:
  /// the recurrence then runs in O(stages) memory.
  bool record_completion = true;
};

/// Simulate `items` work items through `stages` under `discipline`.
/// Item service times may be heterogeneous: service_scale[i] multiplies
/// every stage's service time for item i (empty = all 1.0).
PipelineResult simulate(const std::vector<Stage>& stages, std::size_t items,
                        Discipline discipline,
                        const std::vector<double>& service_scale = {},
                        const SimOptions& options = {});

/// Closed-form makespan for constant service times:
///  item-granular: sum(service) + (N-1) * max(service)
///  barrier:       N * sum(service)
Time closed_form_makespan(const std::vector<Stage>& stages, std::size_t items,
                          Discipline discipline);

}  // namespace star::sim
