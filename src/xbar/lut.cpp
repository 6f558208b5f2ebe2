#include "xbar/lut.hpp"

#include <algorithm>
#include <string>

#include "hw/sense_amp.hpp"
#include "util/status.hpp"

namespace star::xbar {

LutCosts::LutCosts(const hw::TechNode& tech, const RramDevice& device, int rows,
                   int word_bits)
    : rows_(rows), word_bits_(word_bits) {
  require(rows >= 1, "LutCrossbar: rows must be >= 1");
  require(word_bits >= 1 && word_bits <= 32, "LutCrossbar: word_bits must be in [1, 32]");
  device.validate();

  const hw::SenseAmp sa(tech);
  const double cells = static_cast<double>(rows_) * word_bits_;
  area_ = device.cell_area(tech.feature_nm) * cells +
          sa.cost().area * static_cast<double>(word_bits_) +  // one SA per bitline
          Area::um2(1.4 * rows_ * 0.1);                       // WL buffers (shared)

  // One row active per read: word_bits cells discharge, word_bits SAs sense.
  read_cost_.area = area_;
  read_cost_.energy_per_op =
      device.read_energy(device.g_on_us * 0.5) * static_cast<double>(word_bits_) +
      sa.cost().energy_per_op * static_cast<double>(word_bits_);
  read_cost_.latency = device.read_pulse + sa.cost().latency;
  read_cost_.leakage = sa.cost().leakage * static_cast<double>(word_bits_);

  program_energy_ = device.write_energy() * static_cast<double>(rows_) * word_bits_;
  program_latency_ = device.write_latency() * static_cast<double>(rows_);
}

LutCrossbar::LutCrossbar(const hw::TechNode& tech, RramDevice device, int rows,
                         int word_bits)
    : LutCrossbar(LutCosts(tech, device, rows, word_bits)) {}

LutCrossbar::LutCrossbar(const LutCosts& costs)
    : costs_(costs), words_(static_cast<std::size_t>(costs.rows()), 0) {}

void LutCrossbar::check_word(std::int64_t word) const {
  require(word >= 0 && word < (std::int64_t{1} << word_bits()), [&] {
    return "LutCrossbar::store: word out of range for " + std::to_string(word_bits()) +
           " bits";
  });
}

void LutCrossbar::store(int r, std::int64_t word) {
  require(r >= 0 && r < rows(), "LutCrossbar::store: row out of range");
  check_word(word);
  words_[static_cast<std::size_t>(r)] = word;
}

void LutCrossbar::fill(const std::vector<std::int64_t>& words) {
  require(static_cast<int>(words.size()) <= rows(), "LutCrossbar::fill: too many words");
  for (const auto word : words) {
    check_word(word);
  }
  std::copy(words.begin(), words.end(), words_.begin());
}

std::int64_t LutCrossbar::read(const std::vector<bool>& one_hot) const {
  require(static_cast<int>(one_hot.size()) == rows(),
          "LutCrossbar::read: wordline count must equal rows");
  int selected = -1;
  for (int r = 0; r < rows(); ++r) {
    if (one_hot[static_cast<std::size_t>(r)]) {
      STAR_ASSERT(selected < 0, "LutCrossbar::read: wordline vector must be one-hot");
      selected = r;
    }
  }
  return selected < 0 ? 0 : words_[static_cast<std::size_t>(selected)];
}

}  // namespace star::xbar
