#include "xbar/array.hpp"

#include "util/math.hpp"
#include "util/status.hpp"

namespace star::xbar {

CrossbarArray::CrossbarArray(ArrayConfig cfg, RramDevice device, Rng rng)
    : cfg_(cfg), device_(device), rng_(rng), mean_g_us_(device.g_off_us) {
  require(cfg.rows >= 1 && cfg.cols >= 1, "CrossbarArray: dimensions must be >= 1");
  require(cfg.ir_drop_alpha >= 0.0 && cfg.ir_drop_alpha < 1.0,
          "CrossbarArray: ir_drop_alpha must be in [0, 1)");
  device_.validate();
  const std::size_t n = static_cast<std::size_t>(cfg.rows) * cfg.cols;
  g_us_.assign(n, device_.g_off_us);
  levels_.assign(n, 0);
}

void CrossbarArray::check_level(int level) const {
  require(level >= 0 && level < device_.levels(),
          "CrossbarArray: level out of range");
}

void CrossbarArray::update_mean() {
  double sum = 0.0;
  for (double g : g_us_) {
    sum += g;
  }
  mean_g_us_ = sum / static_cast<double>(g_us_.size());
}

void CrossbarArray::program_cell(int r, int c, int level) {
  require(r >= 0 && r < cfg_.rows && c >= 0 && c < cfg_.cols,
          "CrossbarArray::program_cell: index out of range");
  check_level(level);
  const std::size_t i = static_cast<std::size_t>(r) * cfg_.cols + c;
  levels_[i] = level;
  g_us_[i] = device_.program(level, rng_);
  update_mean();
}

void CrossbarArray::program(const std::vector<std::vector<int>>& levels) {
  require(static_cast<int>(levels.size()) == cfg_.rows, [&] {
    return expected_got("CrossbarArray::program rows", cfg_.rows,
                        static_cast<long long>(levels.size()));
  });
  std::vector<int> flat;
  flat.reserve(g_us_.size());
  for (const auto& row : levels) {
    require(static_cast<int>(row.size()) == cfg_.cols, [&] {
      return expected_got("CrossbarArray::program cols", cfg_.cols,
                          static_cast<long long>(row.size()));
    });
    flat.insert(flat.end(), row.begin(), row.end());
  }
  program_rows(flat);
}

void CrossbarArray::program_rows(std::span<const int> levels) {
  require(levels.size() % static_cast<std::size_t>(cfg_.cols) == 0 &&
              levels.size() <= g_us_.size(),
          "CrossbarArray::program_rows: not a whole number of rows that fit");
  for (const int level : levels) {
    check_level(level);
  }
  for (std::size_t i = 0; i < levels.size(); ++i) {
    levels_[i] = levels[i];
    g_us_[i] = device_.program(levels[i], rng_);
  }
  update_mean();
}

double CrossbarArray::conductance(int r, int c) const {
  require(r >= 0 && r < cfg_.rows && c >= 0 && c < cfg_.cols,
          "CrossbarArray::conductance: index out of range");
  return g_us_[static_cast<std::size_t>(r) * cfg_.cols + c];
}

int CrossbarArray::stored_level(int r, int c) const {
  require(r >= 0 && r < cfg_.rows && c >= 0 && c < cfg_.cols,
          "CrossbarArray::stored_level: index out of range");
  return levels_[static_cast<std::size_t>(r) * cfg_.cols + c];
}

double CrossbarArray::ir_factor(int r, int c) const {
  if (cfg_.ir_drop_alpha <= 0.0) {
    return 1.0;
  }
  const double depth = (static_cast<double>(r) / cfg_.rows +
                        static_cast<double>(c) / cfg_.cols) * 0.5;
  return 1.0 - cfg_.ir_drop_alpha * depth;
}

std::vector<double> CrossbarArray::mvm_currents(const std::vector<double>& v_rows) {
  require(static_cast<int>(v_rows.size()) == cfg_.rows, [&] {
    return expected_got("CrossbarArray::mvm_currents rows", cfg_.rows,
                        static_cast<long long>(v_rows.size()));
  });
  std::vector<double> i_cols(static_cast<std::size_t>(cfg_.cols), 0.0);
  for (int r = 0; r < cfg_.rows; ++r) {
    const double v = v_rows[r];
    if (v == 0.0) {
      continue;
    }
    const std::size_t base = static_cast<std::size_t>(r) * cfg_.cols;
    for (int c = 0; c < cfg_.cols; ++c) {
      double g = g_us_[base + c];
      if (cfg_.model_read_noise && device_.read_noise_sigma > 0.0) {
        g = device_.read(g, rng_);
      }
      i_cols[c] += v * g * ir_factor(r, c);  // uA (V * uS)
    }
  }
  return i_cols;
}

Energy CrossbarArray::read_energy(int active_rows) const {
  require(active_rows >= 0 && active_rows <= cfg_.rows,
          "CrossbarArray::read_energy: active_rows out of range");
  return array_read_energy(device_, mean_g_us_, active_rows, cfg_.cols);
}

Energy array_read_energy(const RramDevice& device, double g_mean_us, int active_rows,
                         int cols) {
  const double cells = static_cast<double>(active_rows) * cols;
  return device.read_energy(g_mean_us) * cells;
}

Energy CrossbarArray::write_energy(std::int64_t cells) const {
  return device_.write_energy() * static_cast<double>(cells);
}

Time CrossbarArray::write_latency(std::int64_t cells, int parallel_rows) const {
  require(parallel_rows >= 1, "CrossbarArray::write_latency: parallel_rows must be >= 1");
  // Row-parallel programming: cells in the same row program together,
  // `parallel_rows` rows at a time.
  const auto row_groups =
      ceil_div(ceil_div(cells, cfg_.cols), parallel_rows);
  return device_.write_latency() * static_cast<double>(row_groups);
}

Area CrossbarArray::cell_array_area(double feature_nm) const {
  return device_.cell_area(feature_nm) * static_cast<double>(cell_count());
}

}  // namespace star::xbar
