// The item-granular stage-pipeline recurrence.
//
// Models a linear pipeline of K stages processing N work items (rows of the
// attention score matrix, in STAR's case): item i may enter stage s+1 as
// soon as *it* leaves stage s (STAR's "vector-grained" pipeline: a softmax
// row starts while the next score row is still being produced). A stage
// processes one item at a time at a constant per-item service time.
//
// The per-cell rule: item i finishes stage s at
//   finish(i, s) = max(finish(i, s-1), finish(i-1, s)) + service(s)
// with finish(i, -1) = finish(-1, s) = 0, and the makespan is
// finish(N-1, K-1). The makespan is that double arithmetic in that order,
// so it is reproducible bit for bit. The loop keeps one finish time per
// stage on the stack and walks blocks of items through the stages with the
// block's finish times in registers; neither changes a cell's operands or
// their order. The function is pure and safe to call concurrently, and it
// allocates nothing.
#pragma once

#include <cstddef>
#include <span>

#include "util/units.hpp"

namespace star::sim {

/// The longest stage list `simulate` takes: an FFN pair streaming into the
/// five attention stages (core::run_stack_pipeline's steady segment).
inline constexpr std::size_t kMaxStages = 7;

/// Makespan of `items` work items through the stages whose per-item
/// service times are `services`, in pipeline order. Throws InvalidArgument
/// unless 1 <= services.size() <= kMaxStages. Zero items take zero time.
[[nodiscard]] Time simulate(std::span<const Time> services, std::size_t items);

}  // namespace star::sim
