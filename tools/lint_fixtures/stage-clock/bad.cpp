// wagg-lint-fixture: stage-clock expect=5
// Hand-timed planner stages outside the stage clock (this fixture lints as
// src/bad.cpp): every clock read is flagged, however it is spelled.
#include <chrono>

#include "util/clock.h"

namespace wagg::dynamic {

double time_repair() {
  const auto start = util::Clock::now();  // finding 1
  return util::ms_since(start);           // finding 2
}

double time_recolor() {
  using util::Clock;
  using util::ms_since;                   // finding 3
  const auto start = Clock::now();        // finding 4
  const auto stop = std::chrono::steady_clock::now();  // finding 5
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace wagg::dynamic
