#ifndef WAGG_SCHEDULE_REPAIR_H
#define WAGG_SCHEDULE_REPAIR_H

#include "geom/linkset.h"
#include "schedule/schedule.h"
#include "schedule/verify.h"

namespace wagg::schedule {

/// One slot of a first-fit packing: its members, in join order, plus the
/// certificate the last accepted check on exactly those members left. Which
/// certificate depends on the join rule; members that arrive from outside
/// (kept sub-slots, whole input slots) carry none until a check accepts
/// them.
struct SlotLoad {
  std::vector<std::size_t> members;
  /// Power control: the accepted log2 Perron vector, aligned with members —
  /// bit-identical to sinr::power_control_feasible on the members.
  std::vector<double> log2_power = {};
  /// Running loads: each member's beta * (interference + noise) / signal
  /// under the fixed assignment, aligned with members.
  std::vector<double> load = {};
};

/// How a slot admits a link: a closed set of three rules, each call site
/// picking one from its power mode.
///   (a) Any FeasibilityOracle, run on the slot plus the link (implicit, so
///       every oracle-taking call accepts an oracle).
///   (b) power_control: sinr::power_control_feasible with default options
///       (power_control_oracle's verdict), keeping the accepted vector.
///   (c) running_loads: per-member loads under a fixed assignment, so a join
///       costs O(|slot|); whole-slot checks run sinr::is_feasible with the
///       same tolerance. Each term is formed on the linear gain formula of
///       sinr::check_feasible, from squared lengths and normalized linear
///       powers computed once per rule.
/// Rules (b) and (c) reference their links, which must outlive them.
class JoinRule {
 public:
  JoinRule(FeasibilityOracle oracle);
  [[nodiscard]] static JoinRule power_control(const geom::LinkView& links,
                                              const sinr::SinrParams& params);
  [[nodiscard]] static JoinRule running_loads(const geom::LinkView& links,
                                              const sinr::SinrParams& params,
                                              sinr::PowerAssignment power,
                                              double tolerance = 1e-9);

  /// Checks slot.members as a whole. On acceptance the slot keeps what the
  /// check certified (rule (b): its vector); a rejection changes nothing.
  [[nodiscard]] bool certify(SlotLoad& slot) const;
  /// Checks slot.members plus `link`. On acceptance the link joins and the
  /// certificate is updated; a rejection leaves the members as they were.
  /// On an empty slot this is the singleton check.
  [[nodiscard]] bool admit(SlotLoad& slot, std::size_t link) const;

 private:
  enum class Kind { kOracleTrial, kPowerControl, kRunningLoads };
  explicit JoinRule(Kind kind) : kind_(kind) {}

  [[nodiscard]] bool admit_running(SlotLoad& slot, std::size_t link) const;
  /// beta * I_P(j, i) = beta * (p_j / p_i) * gain_entry(j on i); outside
  /// the linear window the log-space term, saturating instead of
  /// overflowing.
  [[nodiscard]] double load_term(std::size_t j, std::size_t i) const;
  /// beta * noise * l_i^alpha / P_i, with the same fallback.
  [[nodiscard]] double noise_load(std::size_t i) const;

  Kind kind_;
  FeasibilityOracle oracle_;
  const geom::LinkView* links_ = nullptr;
  sinr::SinrParams params_{};
  sinr::PowerAssignment power_;
  double tolerance_ = 0.0;
  sinr::GainPower gain_{params_.alpha};
  std::vector<double> len2_;        ///< squared length per link
  std::vector<double> unit_power_;  ///< P_i / max P; 0 outside the window
  double noise_scale_ = 0.0;        ///< beta * noise / max P
};

struct FirstFitCounts {
  std::size_t checks = 0;             ///< rule calls made
  std::size_t failed_singletons = 0;  ///< links placed alone, uncertified
};

/// The one first-fit loop: offers each link of `order`, in order, to every
/// slot of `slots` and opens a new slot when none admits it. A failed
/// singleton is placed anyway and counted; each caller decides whether that
/// is an error (repair_schedule and patch_slot throw, core::level_schedule
/// reports an unverified schedule).
[[nodiscard]] FirstFitCounts first_fit(std::vector<SlotLoad>& slots,
                                       std::span<const std::size_t> order,
                                       const JoinRule& rule);

/// Outcome of the feasibility-repair pass.
struct RepairResult {
  Schedule schedule;
  /// Number of input slots that had to be split.
  std::size_t slots_split = 0;
  /// Schedule length before / after.
  std::size_t length_before = 0;
  std::size_t length_after = 0;
};

/// Makes a schedule exactly SINR-feasible: every slot the rule does not
/// certify whole is re-packed by first_fit in pack_order (longest links are
/// the hardest to place; packing them first keeps sub-slot counts low).
///
/// Why this exists: the paper's guarantees hold for "large enough" conflict
/// graph constants gamma; for any concrete gamma a color class can violate
/// the SINR inequalities. Repair restores soundness — every slot of the
/// output passes the rule — at the cost of a bounded length increase that
/// the benchmarks measure (E3/E9 "repair" columns).
///
/// Precondition: every singleton {link} must pass the rule (true for all
/// rules in this library on interference-limited instances); otherwise
/// std::runtime_error is thrown.
[[nodiscard]] RepairResult repair_schedule(const geom::LinkView& links,
                                           const Schedule& schedule,
                                           const JoinRule& rule);

/// The canonical repair packing order: members sorted longest link first,
/// ties by link index. Shared by repair_schedule, patch_slot, and the
/// dynamic planner so the packing order cannot drift between them.
[[nodiscard]] std::vector<std::size_t> pack_order(
    const geom::LinkView& links, std::span<const std::size_t> members);

/// Outcome of a patch-level (single color class) repair.
struct PatchResult {
  /// Feasible sub-slots covering kept + loose exactly once each.
  std::vector<std::vector<std::size_t>> sub_slots;
  /// Rule (b): each sub-slot's vector from its last accepted check in this
  /// call, aligned with sub_slots. Empty for a kept sub-slot no check
  /// touched (its membership is unchanged) and under the other rules.
  std::vector<std::vector<double>> log2_powers;
  /// Rule calls performed (oracle invocations: what repair costs).
  std::size_t oracle_calls = 0;
  /// Sub-slots that were opened fresh (not reused from `kept`).
  std::size_t slots_opened = 0;
};

/// Patch-level repair: the incremental counterpart of repair_schedule for
/// ONE slot whose membership changed. `kept` is a partition of the slot's
/// surviving links into sub-slots the caller can certify feasible under
/// THIS rule — in practice, sub-slots whose exact membership the rule
/// accepted before (checks are deterministic, so the certificate carries;
/// do NOT rely on feasibility being monotone under member departure — the
/// power-control oracle's iterative bound is conservative and need not be).
/// `loose` are the changed/new links, packed by first_fit in pack_order
/// after the kept sub-slots. Only insertions are checked, so the cost is
/// proportional to |loose|, not the slot.
///
/// When the caller cannot certify `kept` (e.g. members departed since the
/// rule last accepted it), pass kept_certified = false: the fast path
/// still tries the whole class first (success certifies everything), and
/// otherwise kept is re-checked once — demoted into the loose set if the
/// rule rejects it — before any insertion trusts it. Requires kept to
/// hold at most one sub-slot in that case.
///
/// Preconditions: kept/loose are disjoint and duplicate-free; every
/// singleton must pass the rule (std::runtime_error otherwise, as in
/// repair_schedule). Certified kept sub-slots are NOT re-verified.
[[nodiscard]] PatchResult patch_slot(const geom::LinkView& links,
                                     std::vector<std::vector<std::size_t>> kept,
                                     std::span<const std::size_t> loose,
                                     const JoinRule& rule,
                                     bool kept_certified = true);

}  // namespace wagg::schedule

#endif  // WAGG_SCHEDULE_REPAIR_H
