#include "core/matmul_engine.hpp"

#include <algorithm>
#include <cmath>

#include "util/math.hpp"
#include "util/status.hpp"

namespace star::core {

namespace {

xbar::VmmConfig vmm_config() {
  xbar::VmmConfig v;
  v.rows = MatmulEngine::kTileRows;
  v.cols = MatmulEngine::kTileCols;
  v.weight_bits = MatmulEngine::kWeightBits;
  v.input_bits = MatmulEngine::kInputBits;
  v.adc_bits = MatmulEngine::kAdcBits;
  v.adc_mux_ratio = 8;
  // ADC full scale calibrated per column to the programmed weights'
  // worst-case discharge (a NeuroSim-style profiling step): the 5-bit
  // readout then digitises exactly the reachable range — the precision
  // trade-off the engine makes (paper §III, following ReTransformer).
  v.adc_full_scale_frac = 1.0;
  v.ideal_readout = false;
  return v;
}

}  // namespace

MatmulEngine::MatmulEngine(const StarConfig& cfg)
    : cfg_(cfg.validated()),
      vmm_cfg_(vmm_config()),
      tile_(cfg.tech, xbar::VmmCosts(cfg.tech, cfg.device, vmm_cfg_)),
      mapper_(kTileRows, tile_logical_cols(),
              vmm_cfg_.slices(cfg.device.bits_per_cell)) {}

nn::Tensor MatmulEngine::multiply(const nn::Tensor& x, const nn::Tensor& w) const {
  require(x.cols() == w.rows(), "MatmulEngine::multiply: inner dimension mismatch");

  // --- quantise ---
  // Activations: asymmetric unsigned (zero point at the minimum).
  double x_min = x.at(0, 0), x_max = x.at(0, 0);
  for (double v : x.flat()) {
    x_min = std::min(x_min, v);
    x_max = std::max(x_max, v);
  }
  const double x_span = std::max(x_max - x_min, 1e-12);
  const double x_levels = std::ldexp(1.0, vmm_cfg_.input_bits) - 1.0;
  const double x_step = x_span / x_levels;

  // Weights: symmetric signed, mapped differentially — one crossbar column
  // pair per logical column (w = w_pos - w_neg, both unsigned). This is the
  // standard PIM mapping: it avoids the half-scale pedestal an offset
  // encoding would add to every bitline, which would swamp the narrow ADC.
  double w_peak = 0.0;
  for (double v : w.flat()) {
    w_peak = std::max(w_peak, std::fabs(v));
  }
  w_peak = std::max(w_peak, 1e-12);
  const std::int64_t w_qmax = (std::int64_t{1} << (vmm_cfg_.weight_bits - 1)) - 1;
  const double w_step = w_peak / static_cast<double>(w_qmax);

  const std::size_t m = x.cols();
  const std::size_t n = w.cols();
  const std::size_t row_stripes = ceil_div(static_cast<std::int64_t>(m), tile_rows());
  const std::size_t col_stripes =
      ceil_div(static_cast<std::int64_t>(n), tile_logical_cols());

  auto wq_at = [&](std::size_t r, std::size_t c) {
    const auto q = static_cast<std::int64_t>(round_half_even(w.at(r, c) / w_step));
    return std::clamp(q, -w_qmax, w_qmax);
  };

  // Build positive/negative tile pairs per (row stripe, col stripe).
  std::vector<std::vector<xbar::BitSlicedVmm>> pos_tiles, neg_tiles;
  std::vector<std::vector<std::int64_t>> col_wq_sums(col_stripes);  // sum_r w_q
  for (std::size_t rs = 0; rs < row_stripes; ++rs) {
    std::vector<xbar::BitSlicedVmm> pos_strip, neg_strip;
    const std::size_t r0 = rs * tile_rows();
    const std::size_t r1 = std::min(m, r0 + tile_rows());
    for (std::size_t cs = 0; cs < col_stripes; ++cs) {
      const std::size_t c0 = cs * tile_logical_cols();
      const std::size_t c1 = std::min(n, c0 + tile_logical_cols());
      std::vector<std::vector<std::int64_t>> wp(r1 - r0), wn(r1 - r0);
      for (std::size_t r = r0; r < r1; ++r) {
        wp[r - r0].assign(tile_logical_cols(), 0);
        wn[r - r0].assign(tile_logical_cols(), 0);
        for (std::size_t c = c0; c < c1; ++c) {
          const std::int64_t q = wq_at(r, c);
          wp[r - r0][c - c0] = std::max<std::int64_t>(q, 0);
          wn[r - r0][c - c0] = std::max<std::int64_t>(-q, 0);
        }
      }
      xbar::BitSlicedVmm pos(cfg_.tech, cfg_.device, vmm_cfg_,
                             Rng(0x71135 + rs * 131 + cs));
      xbar::BitSlicedVmm neg(cfg_.tech, cfg_.device, vmm_cfg_,
                             Rng(0x8E6 + rs * 131 + cs));
      pos.program_weights(wp);
      neg.program_weights(wn);
      pos_strip.push_back(std::move(pos));
      neg_strip.push_back(std::move(neg));
    }
    pos_tiles.push_back(std::move(pos_strip));
    neg_tiles.push_back(std::move(neg_strip));
  }
  for (std::size_t cs = 0; cs < col_stripes; ++cs) {
    col_wq_sums[cs].assign(tile_logical_cols(), 0);
    const std::size_t c0 = cs * tile_logical_cols();
    for (std::size_t c = c0; c < std::min(n, c0 + tile_logical_cols()); ++c) {
      std::int64_t acc = 0;
      for (std::size_t r = 0; r < m; ++r) {
        acc += wq_at(r, c);
      }
      col_wq_sums[cs][c - c0] = acc;
    }
  }

  // --- stream activations ---
  nn::Tensor y(x.rows(), n);
  std::vector<std::int64_t> xu(m);
  for (std::size_t b = 0; b < x.rows(); ++b) {
    for (std::size_t c = 0; c < m; ++c) {
      const auto u = static_cast<std::int64_t>(
          round_half_even((x.at(b, c) - x_min) / x_step));
      xu[c] = std::clamp<std::int64_t>(u, 0, static_cast<std::int64_t>(x_levels));
    }
    const std::int64_t x_zero = static_cast<std::int64_t>(round_half_even(x_min / x_step));

    for (std::size_t cs = 0; cs < col_stripes; ++cs) {
      std::vector<std::int64_t> acc(tile_logical_cols(), 0);
      for (std::size_t rs = 0; rs < row_stripes; ++rs) {
        const std::size_t r0 = rs * tile_rows();
        const std::size_t r1 = std::min(m, r0 + tile_rows());
        const std::span<const std::int64_t> xin(xu.data() + r0, r1 - r0);
        const auto pos = pos_tiles[rs][cs].multiply(xin);
        const auto neg = neg_tiles[rs][cs].multiply(xin);
        for (std::size_t c = 0; c < acc.size(); ++c) {
          acc[c] += pos[c] - neg[c];
        }
      }
      // Digital zero-point correction: x_q = x_u + x_zero, so
      //   sum x_q w_q = (D_pos - D_neg) + x_zero * sum_r(w_q).
      const std::size_t c0 = cs * tile_logical_cols();
      for (std::size_t c = c0; c < std::min(n, c0 + tile_logical_cols()); ++c) {
        const std::int64_t corrected =
            acc[c - c0] + x_zero * col_wq_sums[cs][c - c0];
        y.at(b, c) = static_cast<double>(corrected) * x_step * w_step;
      }
    }
  }
  return y;
}

MatmulCost MatmulEngine::stream_cost(std::int64_t b, std::int64_t m, std::int64_t n,
                                     bool dynamic_matrix) const {
  require(b >= 1 && m >= 1 && n >= 1, "MatmulEngine::stream_cost: dims must be >= 1");
  const xbar::MappingCost mc = dynamic_matrix ? mapper_.map_dynamic(b, m, n)
                                              : mapper_.map_static(b, m, n);

  MatmulCost out;
  out.tiles = mc.grid.total();
  out.tile_ops = mc.vmm_invocations;
  out.macs = mc.mac_ops;

  // All grid tiles work in parallel on the same input vector (row stripes
  // see different slices of it; column stripes produce different outputs),
  // so the initiation interval is one tile op and the makespan is b of them.
  out.row_service = tile_latency();
  out.latency = out.row_service * static_cast<double>(b);

  const int active = static_cast<int>(std::min<std::int64_t>(m, tile_rows()));
  out.energy = tile_energy(active) * static_cast<double>(mc.vmm_invocations);

  if (dynamic_matrix) {
    out.write_energy =
        cfg_.device.write_energy() * static_cast<double>(mc.cell_writes);
    // Row-parallel programming: every tile programs its rows concurrently,
    // bounded by the deepest stripe.
    const std::int64_t stripe_rows = std::min<std::int64_t>(m, tile_rows());
    out.write_latency = cfg_.device.write_latency() * static_cast<double>(stripe_rows);
    out.latency += out.write_latency;
  }
  return out;
}

hw::ProgramCost MatmulEngine::weight_image_cost(std::int64_t m, std::int64_t n) const {
  return mapper_.weight_program_cost(m, n, cfg_.device);
}

Area MatmulEngine::area_for_tiles(std::int64_t tiles) const {
  return tile_.area() * static_cast<double>(tiles);
}

Power MatmulEngine::leakage_for_tiles(std::int64_t tiles) const {
  return tile_.leakage() * static_cast<double>(tiles);
}

Time MatmulEngine::tile_latency() const { return tile_.op_latency(); }

Energy MatmulEngine::tile_energy(int active_rows) const {
  return tile_.op_energy(active_rows, cfg_.device.g_off_us);
}

int MatmulEngine::tile_rows() const { return vmm_cfg_.rows; }

int MatmulEngine::tile_logical_cols() const {
  return vmm_cfg_.cols / vmm_cfg_.slices(cfg_.device.bits_per_cell);
}

}  // namespace star::core
