// wagg-lint-fixture: log-space expect=0
// Negative cases: the linear kernels (which fall back on their own),
// identifiers that only contain the names, a justified allow, and
// comment/string mentions.
#include <span>

#include "sinr/feasibility.h"

namespace wagg::schedule {

bool slot_fits(const geom::LinkView& links, std::span<const std::size_t> slot,
               const sinr::SinrParams& params,
               const sinr::PowerAssignment& power) {
  return sinr::check_feasible(links, slot, params, power).feasible &&
         sinr::is_feasible(links, slot, params, power);
}

double reference_load(const geom::LinkView& links,
                      std::span<const std::size_t> slot,
                      const sinr::SinrParams& params,
                      const sinr::PowerAssignment& power) {
  // wagg-lint: allow(log-space) a cross-check re-derives on purpose
  return sinr::check_feasible_log2(links, slot, params, power).max_load;
}

// check_feasible_log2 in a comment is inert; so is a string mention:
inline const char* kDoc = "never call sinr::power_control_feasible_log2 here";
int check_feasible_log2_calls = 0;
int my_power_control_feasible_log2 = 0;

}  // namespace wagg::schedule
