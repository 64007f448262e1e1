// wagg-lint-fixture: stage-clock expect=0
// Negative cases: stages timed by obs::StageSpan on a StageTimes slot, a
// justified allow, comment/string mentions and lookalike identifiers.
#include "core/planner.h"
#include "obs/trace.h"

namespace wagg::dynamic {

void repair(core::StageTimes& times) {
  obs::StageSpan stage(times.slot(core::Stage::kRepair));
  stage.next(times.slot(core::Stage::kVerify));
}

double deadline_ms(double budget_ms) {
  // wagg-lint: allow(stage-clock) a wall-clock budget, not a stage time
  const auto start = util::Clock::now();
  return budget_ms + static_cast<double>(start.time_since_epoch().count());
}

// Clock::now() in a comment is inert; so is "ms_since(start)" in a string:
inline const char* kDoc = "never call util::ms_since(start) here";

double elapsed_ms_since_open(double ms_since_open) { return ms_since_open; }
struct WallClock {
  static int nowhere() { return 0; }
};
int probe() { return WallClock::nowhere(); }

}  // namespace wagg::dynamic
