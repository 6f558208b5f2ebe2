#include "sim/pipeline_sim.hpp"

#include <algorithm>
#include <array>

#include "util/status.hpp"

namespace star::sim {

namespace {

/// Items that go through the stages together, their finish times held in
/// registers (see simulate).
constexpr std::size_t kItemBlock = 8;

/// One cell of the recurrence: an item enters a stage once it left the
/// previous stage (`ready`) and the stage is free (`stage_free`). The
/// compare is std::max(ready, stage_free) spelled out.
double finish_cell(double ready, double stage_free, double service) {
  return (ready < stage_free ? stage_free : ready) + service;
}

}  // namespace

// STAR_HOT
Time simulate(std::span<const Time> services, std::size_t items) {
  const std::size_t k = services.size();
  require(k >= 1 && k <= kMaxStages, "simulate: 1 to kMaxStages stages required");

  // finish(i, s) = max(finish(i, s-1), finish(i-1, s)) + service(s)
  // Only the previous item's finish at the same stage feeds the next item,
  // so one finish time per stage, overwritten in place, is the whole state.
  // A block of up to kItemBlock items goes through the stages together:
  // inside the block an item reads its predecessor's finish from a
  // register, so only one finish per stage and block makes the round trip
  // through memory that bounds the recurrence. The inner loop runs to the
  // constant kItemBlock so that the compiler unrolls it and keeps the block
  // in registers; the last block may hold fewer items. Every cell keeps the
  // operands and order of the formula above, so the makespan keeps its
  // bits.
  std::array<double, kMaxStages> service{};
  std::array<double, kMaxStages> finish{};  // finish of the latest item through s
  for (std::size_t s = 0; s < k; ++s) {
    service[s] = services[s].as_s();
  }
  for (std::size_t first = 0; first < items; first += kItemBlock) {
    const std::size_t n = std::min(kItemBlock, items - first);
    std::array<double, kItemBlock> ready{};  // finish(first + j, s-1); 0 before stage 0
    for (std::size_t s = 0; s < k; ++s) {
      double stage_free = finish[s];  // finish(first + j - 1, s)
      for (std::size_t j = 0; j < kItemBlock; ++j) {
        if (j < n) {
          ready[j] = finish_cell(ready[j], stage_free, service[s]);
          stage_free = ready[j];
        }
      }
      finish[s] = stage_free;
    }
  }
  return Time::s(finish[k - 1]);
}

}  // namespace star::sim
