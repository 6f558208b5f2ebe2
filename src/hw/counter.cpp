#include "hw/counter.hpp"

#include "hw/gates.hpp"

namespace star::hw {

CounterCosts::CounterCosts(const TechNode& tech, int rows, int bits)
    : rows_(rows), bits_(bits) {
  require(rows >= 1, "CounterArray: rows must be >= 1");
  require(bits >= 1 && bits <= 32, "CounterArray: bits must be in [1, 32]");
  unit_ = GateLibrary(tech).counter(bits);
}

Cost CounterCosts::array_cost() const {
  Cost c = unit_;
  c.area = c.area * static_cast<double>(rows_);
  c.leakage = c.leakage * static_cast<double>(rows_);
  // Per accumulate operation only one counter toggles (one-hot input).
  return c;
}

CounterArray::CounterArray(const TechNode& tech, int rows, int bits)
    : CounterArray(CounterCosts(tech, rows, bits)) {}

CounterArray::CounterArray(const CounterCosts& costs)
    : costs_(costs),
      counts_(static_cast<std::size_t>(costs.rows()), 0),
      touched_(counts_.size() + 1, 0) {}

void CounterArray::reset() {
  for (const std::int32_t row : touched()) {
    counts_[static_cast<std::size_t>(row)] = 0;
  }
  touched_count_ = 0;
}

void CounterArray::accumulate(const std::vector<bool>& one_hot) {
  require(one_hot.size() == counts_.size(),
          "CounterArray::accumulate: match vector size mismatch");
  int set_bits = 0;
  for (std::size_t i = 0; i < one_hot.size(); ++i) {
    if (one_hot[i]) {
      ++set_bits;
      bump(i);
    }
  }
  STAR_ASSERT(set_bits <= 1, "CounterArray::accumulate: input must be one-hot");
}

}  // namespace star::hw
