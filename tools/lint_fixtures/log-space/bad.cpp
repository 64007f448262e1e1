// wagg-lint-fixture: log-space expect=3
// Log-space kernels called outside sinr/ (this fixture lints as
// src/bad.cpp): each puts a log2 and an exp2 per gain entry back on the
// path the linear kernels replaced. Linted over src/, the second call also
// draws a power-solve finding.
#include <span>

#include "sinr/feasibility.h"

namespace wagg::schedule {

bool slot_fits(const geom::LinkView& links, std::span<const std::size_t> slot,
               const sinr::SinrParams& params,
               const sinr::PowerAssignment& power) {
  const auto report =
      sinr::check_feasible_log2(links, slot, params, power);  // finding 1
  const auto solved =
      sinr::power_control_feasible_log2(links, slot, params);  // finding 2
  using sinr::check_feasible_log2;                             // finding 3
  return report.feasible && solved.feasible;
}

}  // namespace wagg::schedule
