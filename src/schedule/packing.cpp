#include "schedule/packing.h"

namespace wagg::schedule {

namespace {

Schedule everything_in_one_slot(const geom::LinkView& links) {
  Schedule all;
  all.slots.emplace_back();
  all.slots.front().reserve(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    all.slots.front().push_back(i);
  }
  return all;
}

}  // namespace

Schedule ffd_schedule(const geom::LinkView& links, const JoinRule& rule) {
  if (links.empty()) return Schedule{};
  // Repairing the one-slot schedule IS first-fit-decreasing: repair sorts
  // the slot by non-increasing length and first-fit packs it.
  return repair_schedule(links, everything_in_one_slot(links), rule).schedule;
}

}  // namespace wagg::schedule
