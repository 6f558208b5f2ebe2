#include "hw/divider.hpp"

#include "hw/gates.hpp"
#include "util/status.hpp"

namespace star::hw {

Divider::Divider(const TechNode& tech, int bits, int cost_bits) : bits_(bits) {
  require(bits >= 2 && bits <= 32, "Divider: bits must be in [2, 32]");
  const int physical = cost_bits > 0 ? cost_bits : bits;
  require(physical >= 2 && physical <= 32, "Divider: cost_bits must be in [2, 32]");
  const GateLibrary lib(tech);
  cost_ = lib.divider(physical);
  if (physical != bits) {
    // Normalising front-end: leading-one detector + barrel shifters.
    cost_ = cost_.parallel_with(lib.block(ge::kLodPerBit * bits +
                                          ge::kMux2PerBit * 2.0 * bits));
  }
}

}  // namespace star::hw
