// wagg-lint-fixture: power-solve expect=3
// Slot solves outside sinr/ and schedule/ (this fixture lints as
// src/bad.cpp): each re-derives a vector the packer already certified.
#include <span>

#include "sinr/feasibility.h"

namespace wagg::dynamic {

double slot_power(const geom::LinkView& links,
                  std::span<const std::size_t> slot,
                  const sinr::SinrParams& params) {
  const auto pc =
      sinr::power_control_feasible(links, slot, params);  // finding 1
  const auto wide =
      sinr::power_control_feasible_log2(links, slot, params);  // finding 2
  using sinr::power_control_feasible;                          // finding 3
  return pc.spectral_radius + wide.spectral_radius;
}

}  // namespace wagg::dynamic
