#include "xbar/lut.hpp"

#include <algorithm>
#include <string>

#include "hw/sense_amp.hpp"
#include "util/status.hpp"

namespace star::xbar {

LutCrossbar::LutCrossbar(const hw::TechNode& tech, RramDevice device, int rows,
                         int word_bits)
    : tech_(tech),
      device_(device),
      rows_(rows),
      word_bits_(word_bits),
      words_(static_cast<std::size_t>(rows), 0) {
  require(rows >= 1, "LutCrossbar: rows must be >= 1");
  require(word_bits >= 1 && word_bits <= 32, "LutCrossbar: word_bits must be in [1, 32]");
  device_.validate();

  const hw::SenseAmp sa(tech);
  const double cells = static_cast<double>(rows_) * word_bits_;
  area_ = device_.cell_area(tech.feature_nm) * cells +
          sa.cost().area * static_cast<double>(word_bits_) +  // one SA per bitline
          Area::um2(1.4 * rows_ * 0.1);                       // WL buffers (shared)

  // One row active per read: word_bits cells discharge, word_bits SAs sense.
  read_cost_.area = area_;
  read_cost_.energy_per_op =
      device_.read_energy(device_.g_on_us * 0.5) * static_cast<double>(word_bits_) +
      sa.cost().energy_per_op * static_cast<double>(word_bits_);
  read_cost_.latency = device_.read_pulse + sa.cost().latency;
  read_cost_.leakage = sa.cost().leakage * static_cast<double>(word_bits_);
}

void LutCrossbar::check_word(std::int64_t word) const {
  require(word >= 0 && word < (std::int64_t{1} << word_bits_), [&] {
    return "LutCrossbar::store: word out of range for " + std::to_string(word_bits_) +
           " bits";
  });
}

void LutCrossbar::store(int r, std::int64_t word) {
  require(r >= 0 && r < rows_, "LutCrossbar::store: row out of range");
  check_word(word);
  words_[static_cast<std::size_t>(r)] = word;
}

void LutCrossbar::fill(const std::vector<std::int64_t>& words) {
  require(static_cast<int>(words.size()) <= rows_, "LutCrossbar::fill: too many words");
  for (const auto word : words) {
    check_word(word);
  }
  std::copy(words.begin(), words.end(), words_.begin());
}

std::int64_t LutCrossbar::read(const std::vector<bool>& one_hot) const {
  require(static_cast<int>(one_hot.size()) == rows_,
          "LutCrossbar::read: wordline count must equal rows");
  int selected = -1;
  for (int r = 0; r < rows_; ++r) {
    if (one_hot[static_cast<std::size_t>(r)]) {
      STAR_ASSERT(selected < 0, "LutCrossbar::read: wordline vector must be one-hot");
      selected = r;
    }
  }
  return selected < 0 ? 0 : words_[static_cast<std::size_t>(selected)];
}

Energy LutCrossbar::program_energy() const {
  return device_.write_energy() * static_cast<double>(rows_) * word_bits_;
}

Time LutCrossbar::program_latency() const {
  return device_.write_latency() * static_cast<double>(rows_);
}

}  // namespace star::xbar
