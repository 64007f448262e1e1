#include "core/baseline.h"

#include <stdexcept>

#include "schedule/repair.h"

namespace wagg::core {

LevelScheduleResult level_schedule(const mst::PairingTree& tree,
                                   const PlannerConfig& config) {
  config.validate();
  const geom::LinkSet& links = tree.tree.links;
  if (tree.level_of_link.size() != links.size()) {
    throw std::invalid_argument("level_schedule: malformed pairing tree");
  }
  LevelScheduleResult result;
  result.num_levels = tree.num_levels;
  result.verified = true;

  // Partition link indices by level, then schedule each level's sub-linkset
  // with the full pipeline (conflict graph + coloring + repair).
  std::vector<std::vector<std::size_t>> by_level(
      static_cast<std::size_t>(tree.num_levels));
  for (std::size_t i = 0; i < links.size(); ++i) {
    by_level.at(static_cast<std::size_t>(tree.level_of_link[i])).push_back(i);
  }
  const schedule::JoinRule rule = oracle_for_mode(links, config);
  for (const auto& level_links : by_level) {
    // First-fit the level's links against the exact oracle (levels are
    // small enough that exact checks are affordable, and it needs no
    // sub-linkset index remapping). A failed singleton still gets its own
    // slot; the schedule is then reported unverified.
    std::vector<schedule::SlotLoad> slots;
    if (schedule::first_fit(slots, level_links, rule).failed_singletons) {
      result.verified = false;
    }
    result.slots_per_level.push_back(slots.size());
    for (auto& slot : slots) {
      result.schedule.slots.push_back(std::move(slot.members));
    }
  }
  return result;
}

}  // namespace wagg::core
