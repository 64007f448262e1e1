#ifndef WAGG_CORE_PLANNER_H
#define WAGG_CORE_PLANNER_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "conflict/fgraph.h"
#include "geom/linkset.h"
#include "geom/point.h"
#include "mst/tree.h"
#include "obs/trace.h"
#include "schedule/repair.h"
#include "schedule/schedule.h"
#include "schedule/verify.h"
#include "sinr/model.h"
#include "sinr/power.h"

namespace wagg::conflict {
class ConflictIndex;
}  // namespace wagg::conflict

namespace wagg::core {

/// Power-control regime (Sec 2 "Power Assignments").
enum class PowerMode {
  kUniform,    ///< P_0: no power control
  kLinear,     ///< P_1: power ~ l^alpha
  kOblivious,  ///< P_tau, tau in (0,1): local (length-only) power control
  kGlobal,     ///< arbitrary power control (the paper's main setting)
};

[[nodiscard]] std::string to_string(PowerMode mode);

/// Which spanning structure to aggregate over.
enum class TreeKind {
  kMst,      ///< Euclidean MST (the paper's choice)
  kPairing,  ///< matching-hierarchy baseline (Theta(1/log n) rate, [11])
};

/// Order in which the greedy coloring processes links. The paper's appendix
/// (and the inductive-independence argument) use non-increasing length; the
/// prose of Sec 3 says non-decreasing. Both are provided; E3 ablates them.
enum class ColoringOrder { kDecreasingLength, kIncreasingLength };

struct PlannerConfig {
  sinr::SinrParams sinr;
  PowerMode power_mode = PowerMode::kGlobal;
  TreeKind tree = TreeKind::kMst;
  ColoringOrder order = ColoringOrder::kDecreasingLength;
  /// Oblivious power exponent tau (used by kOblivious).
  double tau = 0.5;
  /// Conflict-graph threshold constant gamma.
  double gamma = 2.0;
  /// Exponent of the power-law conflict graph used for kOblivious; must
  /// exceed max(tau, 1-tau) for pairwise affectance to decay.
  double delta = 0.75;
  /// Node index that collects the aggregate.
  std::int32_t sink = 0;

  void validate() const;
};

/// The planner's leaf stages. A static plan runs mst_update (the tree
/// build), conflict_query (the whole conflict graph), recolor, repair and
/// verify; an incremental epoch adds orient, conflict_maintain and
/// dirty_detect.
enum class Stage : std::size_t {
  kMstUpdate,         ///< spanning-tree build, or incremental MST updates
  kOrient,            ///< edge-diff replay onto the LinkStore + snapshot
  kConflictMaintain,  ///< ConflictIndex sync with the store's changes
  kConflictQuery,     ///< conflict rows, or the whole conflict graph
  kDirtyDetect,       ///< dirty links and the coloring seed
  kRecolor,           ///< coloring, seeded or from scratch
  kRepair,            ///< slot repair (carry-over + patch on epochs)
  kVerify,            ///< full-schedule verification
  kAudit,             ///< audit: from-scratch replan + equivalence checks
};
inline constexpr std::size_t kNumStages =
    static_cast<std::size_t>(Stage::kAudit) + 1;

/// Span names, indexed by Stage.
inline constexpr std::array<const char*, kNumStages> kStageNames = {
    "mst_update", "orient", "conflict_maintain", "conflict_query",
    "dirty_detect", "recolor", "repair", "verify", "audit"};

[[nodiscard]] constexpr const char* stage_name(Stage stage) noexcept {
  return kStageNames[static_cast<std::size_t>(stage)];
}

/// Milliseconds per leaf stage of one plan, epoch or request. Only an
/// obs::StageSpan opened on slot(stage) writes an entry (operator+= sums
/// whole tables), and within one table no stage span encloses another, so
/// the entries partition the timed work; sums are derived, never stored.
struct StageTimes {
  std::array<double, kNumStages> ms{};

  [[nodiscard]] double& operator[](Stage stage) noexcept {
    return ms[static_cast<std::size_t>(stage)];
  }
  [[nodiscard]] double operator[](Stage stage) const noexcept {
    return ms[static_cast<std::size_t>(stage)];
  }
  /// The StageSpan target for `stage`: its span name and this table's entry.
  [[nodiscard]] obs::StageSlot slot(Stage stage) noexcept {
    return {stage_name(stage), &(*this)[stage]};
  }
  StageTimes& operator+=(const StageTimes& other) noexcept {
    for (std::size_t i = 0; i < kNumStages; ++i) ms[i] += other.ms[i];
    return *this;
  }

  [[nodiscard]] double tree_ms() const noexcept {
    return (*this)[Stage::kMstUpdate] + (*this)[Stage::kOrient];
  }
  [[nodiscard]] double conflict_ms() const noexcept {
    return (*this)[Stage::kConflictMaintain] + (*this)[Stage::kConflictQuery];
  }
  [[nodiscard]] double coloring_ms() const noexcept {
    return (*this)[Stage::kDirtyDetect] + (*this)[Stage::kRecolor];
  }
  [[nodiscard]] double total_ms() const noexcept {
    return std::accumulate(ms.begin(), ms.end(), 0.0);
  }
  /// The planning cost proper: all but the audit.
  [[nodiscard]] double incremental_ms() const noexcept {
    return total_ms() - (*this)[Stage::kAudit];
  }
};

/// Scheduling outcome for a bare link set (no tree semantics attached).
struct LinkScheduleResult {
  conflict::ConflictSpec spec;
  schedule::Schedule schedule;
  schedule::VerificationReport verification;
  /// Colors used by the conflict-graph coloring before repair.
  std::size_t colors_before_repair = 0;
  /// Slots the repair pass had to split (0 when every color class was
  /// feasible).
  std::size_t slots_split = 0;
  /// The power every link transmits at, the plan's one power vector: the
  /// fixed assignment (uniform/linear/oblivious), or for kGlobal the log2
  /// Perron power verification certified in the link's slot (each link
  /// sends in exactly one slot).
  sinr::PowerAssignment power;

  [[nodiscard]] double rate() const { return schedule.coloring_rate(); }
};

/// Chooses the paper's conflict graph for the given power mode:
/// G_(gamma log) for kGlobal, G^delta_gamma for kOblivious, G_gamma
/// otherwise (uniform/linear have no sublinear guarantee; the constant graph
/// plus repair yields a correct — possibly long — schedule).
[[nodiscard]] conflict::ConflictSpec spec_for_mode(const PlannerConfig& config);

/// The feasibility oracle matching the configured power mode.
[[nodiscard]] schedule::FeasibilityOracle oracle_for_mode(
    const geom::LinkView& links, const PlannerConfig& config);

/// The fixed power assignment for the configured mode (identity powers for
/// kGlobal, whose certified per-link powers schedule_links stitches).
[[nodiscard]] sinr::PowerAssignment power_for_mode(const geom::LinkView& links,
                                                   const PlannerConfig& config);

/// Warm-start seed for schedule_links. Links with seed_colors[i] >= 0 keep
/// that color (the caller asserts the seed is proper on the seeded
/// subgraph); links with -1 are colored greedily around them. The dynamic
/// planner uses this for its full-replan fallback: coloring stays stable
/// across the fallback while repair and verification run from scratch,
/// re-anchoring the carried-over validity chain.
struct WarmStart {
  std::vector<int> seed_colors;
};

/// Colors the conflict graph, repairs, verifies: a complete TDMA schedule
/// for an arbitrary link set under the configured power mode. Its stages
/// (conflict_query, recolor, repair, verify) are StageSpans, added into
/// `times` when it is non-null. When `warm` is non-null (and sized to the
/// links) the coloring is seeded from it instead of computed from scratch.
/// When `conflict_index` is non-null it must be the maintained index of the
/// store `links` snapshots (dynamic::DynamicPlanner's), and the conflict
/// graph is assembled from its queries; otherwise
/// build_conflict_graph_indexed builds it — the same graph either way.
[[nodiscard]] LinkScheduleResult schedule_links(
    const geom::LinkView& links, const PlannerConfig& config,
    StageTimes* times = nullptr, const WarmStart* warm = nullptr,
    const conflict::ConflictIndex* conflict_index = nullptr);

/// Full aggregation plan for a pointset: the tree, the TDMA schedule and
/// the per-link power (scheduling.power).
struct PlanResult {
  mst::AggregationTree tree;
  LinkScheduleResult scheduling;

  [[nodiscard]] const schedule::Schedule& schedule() const {
    return scheduling.schedule;
  }
  [[nodiscard]] double rate() const { return scheduling.rate(); }
  [[nodiscard]] bool verified() const { return scheduling.verification.ok(); }
};

/// The paper's end-to-end protocol: build the tree (MST by default), choose
/// powers for the mode, color the matching conflict graph, repair and verify.
/// Throws std::invalid_argument on malformed inputs (duplicate points, < 2
/// points, sink out of range). Every stage (mst_update for the tree build,
/// then schedule_links' stages) is a StageSpan, added into `times` when it
/// is non-null; the plan itself is unaffected.
[[nodiscard]] PlanResult plan_aggregation(const geom::Pointset& points,
                                          const PlannerConfig& config,
                                          StageTimes* times = nullptr);

}  // namespace wagg::core

#endif  // WAGG_CORE_PLANNER_H
