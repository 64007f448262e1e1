// wagg-lint-fixture: power-solve expect=0
// Negative cases: the packer's join rule and oracle, identifiers that only
// contain the name, a justified allow, and comment/string mentions.
#include <span>
#include <vector>

#include "schedule/repair.h"

namespace wagg::core {

std::vector<double> certified(const geom::LinkView& links,
                              std::span<const std::size_t> slot,
                              const sinr::SinrParams& params) {
  const auto rule = schedule::JoinRule::power_control(links, params);
  schedule::SlotLoad load{.members = {slot.begin(), slot.end()}};
  if (!rule.certify(load)) return {};
  return load.log2_power;
}

bool accepts(const geom::LinkView& links, std::span<const std::size_t> slot,
             const sinr::SinrParams& params) {
  return schedule::power_control_oracle(links, params)(slot);
}

double audit_margin(const geom::LinkView& links,
                    std::span<const std::size_t> slot,
                    const sinr::SinrParams& params) {
  // wagg-lint: allow(power-solve) an audit re-derives on purpose
  return sinr::power_control_feasible(links, slot, params).spectral_radius;
}

// power_control_feasible in a comment is inert; so is a string mention:
inline const char* kDoc = "never call sinr::power_control_feasible here";
int power_control_feasible_calls = 0;
int my_power_control_feasible = 0;

}  // namespace wagg::core
