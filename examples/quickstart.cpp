// Quickstart: plan a verified aggregation schedule for a random sensor field
// and report the achieved rate.
//
//   ./quickstart [n] [seed]

#include <cstdlib>
#include <iostream>

#include "core/planner.h"
#include "instance/basic.h"
#include "util/logmath.h"

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 200;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;

  // 1. Deploy n sensors uniformly at random in a square.
  const auto points = wagg::instance::uniform_square(n, 25.0, seed);

  // 2. Plan: MST tree, global power control, G_(gamma log) conflict graph,
  //    greedy coloring, exact-SINR repair + verification.
  wagg::core::PlannerConfig config;
  config.power_mode = wagg::core::PowerMode::kGlobal;
  const auto plan = wagg::core::plan_aggregation(points, config);

  const double log_delta = plan.tree.links.log2_delta();
  std::cout << "nodes:            " << n << "\n"
            << "tree links:       " << plan.tree.links.size() << "\n"
            << "tree height:      " << plan.tree.height() << "\n"
            << "log2(Delta):      " << log_delta << "\n"
            << "log*(Delta):      " << wagg::util::log2_star_of_log2(log_delta)
            << "\n"
            << "schedule slots:   " << plan.schedule().length() << "\n"
            << "aggregation rate: 1/" << plan.schedule().length() << " = "
            << plan.rate() << " frames/slot\n"
            << "SINR verified:    " << (plan.verified() ? "yes" : "NO") << "\n";

  // 3. Inspect the transmit powers the power-control algorithm certified
  //    (log2 scale, one per link; slot 0's links shown).
  if (!plan.schedule().slots[0].empty()) {
    std::cout << "slot 0 links:     " << plan.schedule().slots[0].size()
              << " (log2 powers of first 5):";
    std::size_t shown = 0;
    for (std::size_t link : plan.schedule().slots[0]) {
      if (shown++ == 5) break;
      std::cout << " " << plan.scheduling.power.log2_power(link);
    }
    std::cout << "\n";
  }
  return plan.verified() ? 0 : 1;
}
