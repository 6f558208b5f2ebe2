// Technology node parameters for the CMOS/RRAM cost models.
//
// The paper evaluates at a NeuroSim-style component granularity; absolute
// constants below are representative published values for a 32 nm logic
// process. Every area/energy/latency figure in the simulator derives from
// this one struct, so experiments can re-run at other nodes by swapping it.
//
// Anchors (see DESIGN.md §4.3): only the GPU model and the RRAM write cost
// carry `// calibrated:` constants; the CMOS gate library here uses generic
// textbook values.
#pragma once

#include "util/units.hpp"

namespace star::hw {

/// Process/technology description shared by every component model.
struct TechNode {
  double feature_nm = 32.0;  ///< drawn feature size F
  double vdd = 0.9;          ///< supply voltage (V)
  double clock_ghz = 1.0;    ///< digital logic clock

  /// NAND2-equivalent gate: the unit of digital area/energy accounting.
  double nand2_area_um2 = 0.60;   ///< layout area of one gate equivalent (GE)
  double nand2_switch_fj = 0.10;  ///< dynamic energy per output toggle
  double nand2_leak_nw = 1.0;     ///< leakage per GE

  /// 6T SRAM cell size in F^2 (area = sram_cell_f2 * F^2 per bit).
  double sram_cell_f2 = 146.0;

  /// Activity factor applied to digital datapaths (fraction of gates
  /// toggling per operation).
  double activity = 0.25;

  [[nodiscard]] double feature_m() const { return feature_nm * 1e-9; }
  [[nodiscard]] Time clock_period() const { return Time::ns(1.0 / clock_ghz); }

  /// Area of `ge` gate equivalents.
  [[nodiscard]] Area ge_area(double ge) const {
    return Area::um2(ge * nand2_area_um2);
  }

  /// Dynamic energy of one operation over `ge` gate equivalents at the
  /// default activity factor.
  [[nodiscard]] Energy ge_energy(double ge) const {
    return Energy::fJ(ge * activity * nand2_switch_fj);
  }

  /// Leakage power of `ge` gate equivalents.
  [[nodiscard]] Power ge_leakage(double ge) const {
    return Power::nW(ge * nand2_leak_nw);
  }

  /// Area of an SRAM macro of `bits` bits (cell array only; peripheral
  /// overhead is added by the Sram component).
  [[nodiscard]] Area sram_cell_area(double bits) const {
    const double f = feature_m() * 1e6;  // um
    return Area::um2(bits * sram_cell_f2 * f * f);
  }

  /// The 32 nm evaluation node of this repo (the defaults above).
  static TechNode n32() { return TechNode{}; }
};

}  // namespace star::hw
