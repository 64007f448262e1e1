#include "schedule/repair.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "sinr/feasibility.h"

namespace wagg::schedule {

namespace {

/// The registry's count of SINR gain terms formed, shared with sinr/.
obs::Counter& gain_entries() {
  static obs::Counter& counter =
      obs::Registry::global().counter("sinr.gain_entries");
  return counter;
}

}  // namespace

JoinRule::JoinRule(FeasibilityOracle oracle)
    : kind_(Kind::kOracleTrial), oracle_(std::move(oracle)) {}

JoinRule JoinRule::power_control(const geom::LinkView& links,
                                 const sinr::SinrParams& params) {
  JoinRule rule(Kind::kPowerControl);
  rule.links_ = &links;
  rule.params_ = params;
  return rule;
}

JoinRule JoinRule::running_loads(const geom::LinkView& links,
                                 const sinr::SinrParams& params,
                                 sinr::PowerAssignment power,
                                 double tolerance) {
  params.validate();
  JoinRule rule(Kind::kRunningLoads);
  rule.links_ = &links;
  rule.params_ = params;
  rule.power_ = std::move(power);
  rule.tolerance_ = tolerance;
  rule.gain_ = sinr::GainPower(params.alpha);
  double max_log2_power = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < links.size(); ++i) {
    max_log2_power = std::max(max_log2_power, rule.power_.log2_power(i));
  }
  rule.len2_.resize(links.size());
  rule.unit_power_.resize(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    const double len = links.length(i);
    rule.len2_[i] = len * len;
    const double p = std::exp2(rule.power_.log2_power(i) - max_log2_power);
    rule.unit_power_[i] = sinr::in_linear_range(p) ? p : 0.0;
  }
  if (params.noise > 0.0) {
    rule.noise_scale_ = std::exp2(std::log2(params.beta) +
                                  std::log2(params.noise) - max_log2_power);
  }
  return rule;
}

bool JoinRule::certify(SlotLoad& slot) const {
  switch (kind_) {
    case Kind::kOracleTrial:
      return oracle_(slot.members);
    case Kind::kPowerControl: {
      auto pc = sinr::power_control_feasible(*links_, slot.members, params_);
      if (pc.feasible) slot.log2_power = std::move(pc.log2_power);
      return pc.feasible;
    }
    case Kind::kRunningLoads:
      // The exact check; loads a join left on these members stay valid.
      return sinr::is_feasible(*links_, slot.members, params_, power_,
                               tolerance_);
  }
  throw std::logic_error("JoinRule: unknown rule");
}

bool JoinRule::admit(SlotLoad& slot, std::size_t link) const {
  if (kind_ == Kind::kRunningLoads) return admit_running(slot, link);
  slot.members.push_back(link);
  if (certify(slot)) return true;
  slot.members.pop_back();
  return false;
}

double JoinRule::load_term(std::size_t j, std::size_t i) const {
  const geom::Point& s = links_->sender_pos(j);
  const geom::Point& r = links_->receiver_pos(i);
  const double g = sinr::gain_entry(gain_, r.x, r.y, len2_[i], s.x, s.y);
  const double scale = params_.beta * (unit_power_[j] / unit_power_[i]);
  const double term = scale * g;
  if (sinr::in_linear_range(g) & sinr::in_linear_range(scale) &
      sinr::in_linear_range(term)) {
    return term;
  }
  const double d = links_->sinr_distance(j, i);
  if (d <= 0.0) return 1e30;
  const double lg = std::log2(params_.beta) + power_.log2_power(j) -
                    power_.log2_power(i) +
                    params_.alpha * (std::log2(links_->length(i)) -
                                     std::log2(d));
  if (lg >= 100.0) return 1e30;
  if (lg <= -1074.0) return 0.0;
  return std::exp2(lg);
}

double JoinRule::noise_load(std::size_t i) const {
  if (params_.noise <= 0.0) return 0.0;
  const double own = gain_(len2_[i]);  // l_i^alpha
  const double load = noise_scale_ * (own / unit_power_[i]);
  if (sinr::in_linear_range(noise_scale_) & sinr::in_linear_range(own) &
      sinr::in_linear_range(load)) {
    return load;
  }
  const double lg = std::log2(params_.beta) + std::log2(params_.noise) +
                    params_.alpha * std::log2(links_->length(i)) -
                    power_.log2_power(i);
  return lg >= 100.0 ? 1e30 : std::exp2(lg);
}

bool JoinRule::admit_running(SlotLoad& slot, std::size_t x) const {
  const double limit = 1.0 + tolerance_;
  const double own = noise_load(x);
  if (own > limit) return false;
  const auto& members = slot.members;
  const std::size_t k = members.size();
  std::uint64_t entries = 0;
  if (slot.load.size() != k) {
    // Members that arrived without loads (a kept or failed slot).
    slot.load.assign(k, 0.0);
    for (std::size_t a = 0; a < k; ++a) {
      slot.load[a] = noise_load(members[a]);
      for (std::size_t b = 0; b < k; ++b) {
        if (b != a) slot.load[a] += load_term(members[b], members[a]);
      }
    }
    entries += k * (k - 1);
  }
  std::vector<double> incoming;
  incoming.reserve(k);
  double new_load = own;
  bool fits = true;
  for (std::size_t a = 0; a < k && fits; ++a) {
    const std::size_t i = members[a];
    if (links_->shares_node(x, i)) {
      fits = false;
      break;
    }
    const double inc = load_term(x, i);
    new_load += load_term(i, x);
    entries += 2;
    fits = slot.load[a] + inc <= limit && new_load <= limit;
    incoming.push_back(inc);
  }
  gain_entries().add(entries);
  if (!fits) return false;
  for (std::size_t a = 0; a < incoming.size(); ++a) slot.load[a] += incoming[a];
  slot.members.push_back(x);
  slot.load.push_back(new_load);
  return true;
}

FirstFitCounts first_fit(std::vector<SlotLoad>& slots,
                         std::span<const std::size_t> order,
                         const JoinRule& rule) {
  FirstFitCounts counts;
  for (const std::size_t link : order) {
    bool placed = false;
    for (auto& slot : slots) {
      ++counts.checks;
      if (rule.admit(slot, link)) {
        placed = true;
        break;
      }
    }
    if (placed) continue;
    ++counts.checks;
    auto& fresh = slots.emplace_back();
    if (!rule.admit(fresh, link)) {
      fresh.members.push_back(link);
      ++counts.failed_singletons;
    }
  }
  return counts;
}

std::vector<std::size_t> pack_order(const geom::LinkView& links,
                                    std::span<const std::size_t> members) {
  std::vector<std::size_t> ordered(members.begin(), members.end());
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (links.length(a) != links.length(b)) {
                       return links.length(a) > links.length(b);
                     }
                     return a < b;
                   });
  return ordered;
}

namespace {

void throw_infeasible_singleton(const char* where) {
  throw std::runtime_error(
      std::string(where) +
      ": singleton slot infeasible; instance is not interference-limited "
      "under this rule");
}

}  // namespace

RepairResult repair_schedule(const geom::LinkView& links,
                             const Schedule& schedule, const JoinRule& rule) {
  RepairResult result;
  result.length_before = schedule.length();
  std::vector<SlotLoad> sub_slots;
  for (const auto& slot : schedule.slots) {
    SlotLoad whole{.members = slot};
    if (rule.certify(whole)) {
      result.schedule.slots.push_back(std::move(whole.members));
      continue;
    }
    ++result.slots_split;
    sub_slots.clear();
    if (first_fit(sub_slots, pack_order(links, slot), rule).failed_singletons) {
      throw_infeasible_singleton("repair_schedule");
    }
    for (auto& sub : sub_slots) {
      result.schedule.slots.push_back(std::move(sub.members));
    }
  }
  result.length_after = result.schedule.length();
  return result;
}

PatchResult patch_slot(const geom::LinkView& links,
                       std::vector<std::vector<std::size_t>> kept,
                       std::span<const std::size_t> loose,
                       const JoinRule& rule, bool kept_certified) {
  // Drop sub-slots emptied by deletions.
  std::erase_if(kept,
                [](const std::vector<std::size_t>& sub) { return sub.empty(); });
  if (!kept_certified && kept.size() > 1) {
    throw std::invalid_argument(
        "patch_slot: uncertified kept must be a single sub-slot");
  }
  PatchResult result;
  std::vector<SlotLoad> slots;
  slots.reserve(kept.size());
  for (auto& sub : kept) slots.push_back({.members = std::move(sub)});

  // Longest-first, matching repair_schedule's packing order.
  std::vector<std::size_t> ordered = pack_order(links, loose);

  // Optimistic fast path: at low churn the whole class usually still fits
  // in one slot, so one check on (kept + loose) replaces |loose|
  // incremental checks — and certifies the merged membership outright,
  // uncertified kept included. Costs a single extra call when it misses.
  bool merged = false;
  if (slots.size() <= 1 &&
      (ordered.size() > 1 || (!kept_certified && !ordered.empty()))) {
    SlotLoad whole = slots.empty() ? SlotLoad{} : slots.front();
    whole.members.insert(whole.members.end(), ordered.begin(), ordered.end());
    ++result.oracle_calls;
    merged = rule.certify(whole);
    if (merged) {
      if (slots.empty()) ++result.slots_opened;
      slots.assign(1, std::move(whole));
      ordered.clear();
    }
  }

  // Before any insertion trusts an uncertified kept sub-slot, re-check it
  // once; a rejected kept (the oracle's bound is conservative, not
  // monotone) is demoted into the loose set and repacked.
  if (!merged && !kept_certified && !slots.empty()) {
    ++result.oracle_calls;
    if (!rule.certify(slots.front())) {
      ordered.insert(ordered.end(), slots.front().members.begin(),
                     slots.front().members.end());
      slots.clear();
      ordered = pack_order(links, ordered);
    }
  }
  const std::size_t before = slots.size();
  const auto counts = first_fit(slots, ordered, rule);
  if (counts.failed_singletons) throw_infeasible_singleton("patch_slot");
  result.oracle_calls += counts.checks;
  result.slots_opened += slots.size() - before;
  for (auto& slot : slots) {
    result.sub_slots.push_back(std::move(slot.members));
    result.log2_powers.push_back(std::move(slot.log2_power));
  }
  return result;
}

}  // namespace wagg::schedule
