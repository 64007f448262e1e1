#include "core/planner.h"

#include <algorithm>
#include <stdexcept>

#include "coloring/coloring.h"
#include "conflict/conflict_index.h"
#include "obs/trace.h"
#include "schedule/repair.h"

namespace wagg::core {

std::string to_string(PowerMode mode) {
  switch (mode) {
    case PowerMode::kUniform:
      return "uniform";
    case PowerMode::kLinear:
      return "linear";
    case PowerMode::kOblivious:
      return "oblivious";
    case PowerMode::kGlobal:
      return "global";
  }
  return "?";
}

void PlannerConfig::validate() const {
  sinr.validate();
  if (!(gamma > 0.0)) {
    throw std::invalid_argument("PlannerConfig: gamma must be positive");
  }
  if (power_mode == PowerMode::kOblivious) {
    if (!(tau > 0.0 && tau < 1.0)) {
      throw std::invalid_argument(
          "PlannerConfig: oblivious mode requires tau in (0, 1)");
    }
    if (!(delta > 0.0 && delta < 1.0)) {
      throw std::invalid_argument("PlannerConfig: delta must lie in (0, 1)");
    }
    if (delta <= std::max(tau, 1.0 - tau)) {
      throw std::invalid_argument(
          "PlannerConfig: delta must exceed max(tau, 1 - tau) for the "
          "conflict graph to imply P_tau feasibility");
    }
  }
}

conflict::ConflictSpec spec_for_mode(const PlannerConfig& config) {
  switch (config.power_mode) {
    case PowerMode::kGlobal:
      return conflict::ConflictSpec::logarithmic(config.gamma,
                                                 config.sinr.alpha);
    case PowerMode::kOblivious:
      return conflict::ConflictSpec::power_law(config.gamma, config.delta);
    case PowerMode::kUniform:
    case PowerMode::kLinear:
      return conflict::ConflictSpec::constant(config.gamma);
  }
  throw std::logic_error("spec_for_mode: unknown power mode");
}

sinr::PowerAssignment power_for_mode(const geom::LinkView& links,
                                     const PlannerConfig& config) {
  switch (config.power_mode) {
    case PowerMode::kUniform:
      return sinr::uniform_power(links, config.sinr);
    case PowerMode::kLinear:
      return sinr::linear_power(links, config.sinr);
    case PowerMode::kOblivious:
      return sinr::oblivious_power(links, config.tau, config.sinr);
    case PowerMode::kGlobal:
      // Placeholder identity; verification stitches the certified powers.
      return sinr::PowerAssignment(std::vector<double>(links.size(), 0.0),
                                   "global(per-slot)");
  }
  throw std::logic_error("power_for_mode: unknown power mode");
}

schedule::FeasibilityOracle oracle_for_mode(const geom::LinkView& links,
                                            const PlannerConfig& config) {
  if (config.power_mode == PowerMode::kGlobal) {
    return schedule::power_control_oracle(links, config.sinr);
  }
  return schedule::fixed_power_oracle(links, config.sinr,
                                      power_for_mode(links, config));
}

LinkScheduleResult schedule_links(const geom::LinkView& links,
                                  const PlannerConfig& config,
                                  StageTimes* times, const WarmStart* warm,
                                  const conflict::ConflictIndex* conflict_index) {
  config.validate();
  if (warm && warm->seed_colors.size() != links.size()) {
    throw std::invalid_argument(
        "schedule_links: warm-start seed size does not match link count");
  }
  StageTimes unused;
  StageTimes& t = times ? *times : unused;
  LinkScheduleResult result;
  result.spec = spec_for_mode(config);
  result.power = power_for_mode(links, config);

  obs::StageSpan stage(t.slot(Stage::kConflictQuery));
  const conflict::Graph graph =
      conflict_index
          ? conflict_index->build_graph(links, result.spec)
          : conflict::build_conflict_graph_indexed(links, result.spec);

  stage.next(t.slot(Stage::kRecolor));
  const auto order = config.order == ColoringOrder::kDecreasingLength
                         ? links.by_decreasing_length()
                         : links.by_increasing_length();
  const coloring::Coloring colors =
      warm ? coloring::greedy_recolor(graph, order, warm->seed_colors)
           : coloring::greedy_color(graph, order);
  result.schedule = schedule::from_coloring(colors);
  if (warm) {
    // A seeded coloring may leave gaps (color classes that lost every
    // member); empty slots would inflate the schedule length.
    std::erase_if(result.schedule.slots,
                  [](const std::vector<std::size_t>& s) { return s.empty(); });
  }
  result.colors_before_repair = result.schedule.length();
  stage.close();

  // One join rule for the whole plan: power control keeps each accepted
  // Perron vector; fixed-power repair joins by running loads.
  const bool global = config.power_mode == PowerMode::kGlobal;
  const auto rule =
      global ? schedule::JoinRule::power_control(links, config.sinr)
             : schedule::JoinRule::running_loads(links, config.sinr,
                                                 result.power);
  obs::StageSpan repair_stage(t.slot(Stage::kRepair));
  auto repaired = schedule::repair_schedule(links, result.schedule, rule);
  result.schedule = std::move(repaired.schedule);
  result.slots_split = repaired.slots_split;

  repair_stage.next(t.slot(Stage::kVerify));
  // Verification certifies every final slot from scratch; under global
  // power each link takes its slot's certified vector entry.
  std::vector<double> stitched(global ? links.size() : 0, 0.0);
  result.verification = schedule::verify_schedule(
      links, result.schedule, [&](std::span<const std::size_t> slot) {
        schedule::SlotLoad load{.members = {slot.begin(), slot.end()}};
        if (!rule.certify(load)) return false;
        for (std::size_t a = 0; a < load.log2_power.size(); ++a) {
          stitched[load.members[a]] = load.log2_power[a];
        }
        return true;
      });
  if (global) {
    result.power =
        sinr::PowerAssignment(std::move(stitched), "global(stitched)");
  }
  return result;
}

PlanResult plan_aggregation(const geom::Pointset& points,
                            const PlannerConfig& config, StageTimes* times) {
  config.validate();
  if (points.size() < 2) {
    throw std::invalid_argument("plan_aggregation: need >= 2 points");
  }
  StageTimes unused;
  StageTimes& t = times ? *times : unused;
  PlanResult result;
  {
    obs::StageSpan stage(t.slot(Stage::kMstUpdate));
    switch (config.tree) {
      case TreeKind::kMst:
        result.tree = mst::mst_tree(points, config.sink);
        break;
      case TreeKind::kPairing:
        result.tree = mst::pairing_tree(points, config.sink).tree;
        break;
    }
  }
  result.scheduling = schedule_links(result.tree.links, config, &t);
  return result;
}

}  // namespace wagg::core
