#include "xbar/tile.hpp"

#include "hw/sram.hpp"
#include "util/math.hpp"

namespace star::xbar {

namespace {
double input_buffer_bytes(const VmmConfig& cfg) {
  // Double-buffered input vectors.
  return 2.0 * cfg.rows * cfg.input_bits / 8.0;
}

double output_buffer_bytes(const VmmCosts& vmm) {
  const VmmConfig& cfg = vmm.config();
  const int out_bits = cfg.input_bits + cfg.weight_bits +
                       star::bits_for(static_cast<std::uint64_t>(cfg.rows));
  return 2.0 * vmm.logical_cols() * out_bits / 8.0;
}
}  // namespace

TileCosts::TileCosts(const hw::TechNode& tech, const VmmCosts& vmm)
    : vmm_(vmm),
      in_buf_(hw::Sram(tech, input_buffer_bytes(vmm.config())).cost()),
      out_buf_(hw::Sram(tech, output_buffer_bytes(vmm)).cost()) {}

Area TileCosts::area() const { return vmm_.area() + in_buf_.area + out_buf_.area; }

Power TileCosts::leakage() const {
  return vmm_.leakage() + in_buf_.leakage + out_buf_.leakage;
}

Energy TileCosts::op_energy(int active_rows, double g_mean_us) const {
  const auto& cfg = vmm_.config();
  const auto in_words =
      static_cast<double>(ceil_div(active_rows * cfg.input_bits, 64));
  const auto out_words = static_cast<double>(
      ceil_div(vmm_.logical_cols() * (cfg.input_bits + cfg.weight_bits), 64));
  return vmm_.op_energy(active_rows, g_mean_us) + in_buf_.energy_per_op * in_words +
         out_buf_.energy_per_op * out_words;
}

Time TileCosts::op_latency() const {
  // Buffer access is pipelined behind the VMM; it adds one cycle at each end.
  return vmm_.op_latency() + in_buf_.latency + out_buf_.latency;
}

XbarTile::XbarTile(const hw::TechNode& tech, RramDevice device, VmmConfig cfg, Rng rng)
    : vmm_(tech, device, cfg, rng), costs_(tech, vmm_.costs()) {}

}  // namespace star::xbar
