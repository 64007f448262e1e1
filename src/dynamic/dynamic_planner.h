#ifndef WAGG_DYNAMIC_DYNAMIC_PLANNER_H
#define WAGG_DYNAMIC_DYNAMIC_PLANNER_H

#include <cstdint>
#include <span>
#include <vector>

#include "conflict/conflict_index.h"
#include "core/planner.h"
#include "dynamic/mutation.h"
#include "geom/link_store.h"
#include "geom/linkset.h"
#include "geom/point.h"
#include "mst/incremental.h"
#include "schedule/schedule.h"
#include "sinr/power.h"

namespace wagg::dynamic {

struct DynamicOptions {
  core::PlannerConfig config{};
  /// Dirty-link fraction above which an epoch abandons the localized patch
  /// path and falls back to a full (warm-started) replan.
  double full_replan_fraction = 0.35;
  /// Re-plan every epoch from scratch as well, cross-checking the
  /// incremental plan's validity and recording rate/length deltas.
  bool audit = false;

  void validate() const;
};

/// What one epoch did and produced.
struct EpochReport {
  std::size_t epoch = 0;              ///< 0 is the initial full plan
  std::size_t mutations_applied = 0;
  std::size_t num_nodes = 0;
  std::size_t num_links = 0;

  /// Links whose geometry or existence changed (the recolor set).
  std::size_t dirty_links = 0;
  /// True when the epoch ran the full-replan fallback instead of patching.
  bool full_replan = false;

  std::size_t slots = 0;
  /// Final slots carried over untouched from the previous epoch (zero
  /// oracle calls spent on them).
  std::size_t reused_slots = 0;
  /// Final slots produced by patch repair of changed color classes.
  std::size_t touched_slots = 0;
  /// Feasibility-oracle invocations this epoch (the cost driver).
  std::size_t oracle_calls = 0;

  double rate = 0.0;
  /// Structural validity (schedule partitions the links). Feasibility of
  /// every slot is certified by an oracle call on exactly its membership —
  /// either this epoch or, for slots whose membership did not change, a
  /// previous one; audit mode re-checks everything from scratch.
  bool valid = false;

  /// Per-stage milliseconds of this epoch, each the work of one StageSpan.
  /// Epoch 0 (the open) counts the seed tree build as mst_update;
  /// full-replan epochs add verify; the audit gets its own entry, outside
  /// incremental_ms(). Written by the epoch that produced the report and
  /// never afterwards.
  core::StageTimes times;

  // ---- audit mode only ----
  bool audited = false;
  /// Every slot of the incremental schedule passed a fresh oracle check.
  bool audit_valid = false;
  /// Incremental MST weight matches the from-scratch MST weight.
  bool audit_tree_match = false;
  /// The diff-maintained LinkStore orientation equals a from-scratch
  /// re-orientation (same edges, same sink-ward direction, same lengths).
  bool audit_store_match = false;
  /// The persistent ConflictIndex answers every link's conflict row exactly
  /// as a from-scratch bucket-grid query over the same snapshot, AND a
  /// repeat query served entirely from the diff-maintained row cache
  /// returns the same rows (cache ≡ from-scratch equality).
  bool audit_index_match = false;
  /// Every slot of the incremental schedule satisfies the SINR inequalities
  /// under the power the plan ships (DynamicPlanner::power()), up to 1e-6:
  /// the from-scratch twin of the carried power certificates.
  bool audit_power_valid = false;
  std::size_t audit_full_slots = 0;  ///< schedule length of the full replan
  double audit_full_rate = 0.0;
  double audit_full_ms = 0.0;  ///< stage total of the from-scratch plan

  /// True unless an audit ran and any of its five verdicts failed. Every
  /// consumer that counts an epoch as verified reads this, so none can
  /// check a subset of the verdicts.
  [[nodiscard]] bool audit_ok() const noexcept {
    return !audited || (audit_valid && audit_tree_match &&
                        audit_store_match && audit_index_match &&
                        audit_power_valid);
  }
};

/// Incremental planning session: wraps the paper's pipeline behind a
/// mutation-stream API and maintains a valid aggregation plan across epochs
/// at a cost proportional to the change, not the instance.
///
/// The cross-epoch source of truth is a geom::LinkStore in id-space: links
/// carry stable 64-bit ids that survive node insertion/removal/movement,
/// tree re-orientations are applied as in-place flips along the rehung
/// chains (no container rebuild), and the store's change log names exactly
/// which links changed this epoch. Dense-index pipeline stages (conflict rows,
/// coloring, repair, verification) run on a geom::LinkView snapshot built
/// once per epoch from only the live set — no per-epoch LinkSet
/// reconstruction, no length recomputation, no key remapping.
///
/// Epoch pipeline:
///   1. mutations -> IncrementalMst (localized tree updates, exact), which
///      journals the edge diff;
///   2. the store's change log is cleared, then the diff is replayed onto
///      the LinkStore: removed edges drop their links, added edges re-root
///      the detached component by reversing the parent chain (one
///      store.flip per hop); links incident to moved nodes refresh their
///      length column and are touched;
///   3. a LinkView snapshot is built (dense order = increasing link id); the
///      logged links with a geometry change are applied to the conflict
///      index in one sync (the conflict_maintain stage), and links are
///      classified dirty iff step 2 logged them (or they have no slot
///      yet);
///   4. conflict rows are queried for ONLY the dirty links (bucket-grid
///      subset queries) and first-fit recolored, seeding every surviving
///      link with its previous final slot (read from an id-indexed array);
///   5. slots whose membership is unchanged carry over verbatim (their old
///      oracle certificate applies — no monotonicity assumption), slots
///      that shrank are re-checked with one oracle call each, and classes
///      that gained members are patch-repaired (schedule::patch_slot, under
///      the power-control join rule for kGlobal, which keeps each accepted
///      Perron vector as the slot's certificate); oracle calls stay
///      proportional to the dirty set.
/// When the dirty fraction exceeds DynamicOptions::full_replan_fraction the
/// epoch falls back to core::schedule_links with a warm-start seed — full
/// repair and verification re-anchor the carried-over validity chain. Bulk
/// mutation batches likewise rebuild the tree wholesale and reconcile the
/// store against it (surviving pairs keep their ids, so the warm start
/// still applies).
///
/// Not thread-safe; one session per thread (runtime::PlanService sessions
/// wrap instances for service use).
class DynamicPlanner {
 public:
  /// Plans the initial epoch (a full replan). The pointset's indices become
  /// stable node ids 0..n-1; options.config.sink names the sink node.
  /// Coincident initial points throw std::invalid_argument.
  DynamicPlanner(const geom::Pointset& initial, DynamicOptions options);

  /// Applies one epoch: all mutations, then one incremental replan.
  /// Mutations referencing dead nodes, removing the sink, shrinking the
  /// instance below 2 nodes, or adding or moving a node onto another alive
  /// node's exact position throw std::invalid_argument; the bad mutation
  /// itself changes nothing. The plan is left on the previous epoch; the
  /// mutations preceding the bad one stay applied, and since their dirty
  /// tracking is lost with the failed call, the next successful epoch
  /// replans (and re-verifies) from scratch.
  EpochReport apply(std::span<const Mutation> mutations);
  EpochReport apply(const Mutation& mutation) {
    return apply(std::span<const Mutation>(&mutation, 1));
  }

  [[nodiscard]] const EpochReport& last_report() const noexcept {
    return report_;
  }
  [[nodiscard]] std::size_t epoch() const noexcept { return report_.epoch; }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return mst_.num_alive();
  }
  [[nodiscard]] NodeId sink() const noexcept { return sink_id_; }
  [[nodiscard]] bool alive(NodeId id) const noexcept { return mst_.alive(id); }
  [[nodiscard]] const DynamicOptions& options() const noexcept {
    return options_;
  }

  /// Read access to the id-space link store (stable link ids). Links
  /// reference stable node ids; snapshot().links holds the dense per-epoch
  /// view of the same data. After a successful apply(), its changed() log
  /// names exactly the links that epoch changed (dead ones included).
  [[nodiscard]] const geom::LinkStore& link_store() const noexcept {
    return store_;
  }

  /// The persistent conflict index, synced to the store's live link set
  /// once per epoch, before any query; after every successful apply() it
  /// mirrors snapshot().links. Epochs query dirty rows against it with zero
  /// rebuild.
  [[nodiscard]] const conflict::ConflictIndex& conflict_index()
      const noexcept {
    return conflict_index_;
  }

  /// The current plan, materialized with compact indices (ids[i] is the
  /// stable id of compact node i). Links and slots index into `links`;
  /// links.ids() exposes the stable link ids of the store.
  struct Snapshot {
    geom::Pointset points;
    std::vector<NodeId> ids;
    std::int32_t sink = 0;
    geom::LinkSet links;
    schedule::Schedule schedule;
    double rate = 0.0;
  };
  [[nodiscard]] const Snapshot& snapshot() const noexcept { return current_; }

  /// The transmit power of every link of the current plan, aligned with
  /// snapshot().links; each link sends in exactly one slot, so one vector
  /// serves the whole schedule. Under kGlobal a link's entry is the log2
  /// Perron power its slot's last accepted check certified: a slot whose
  /// membership changed this epoch has the exact power_control_feasible
  /// vector of its final members, and a carried slot keeps its members'
  /// previous entries. Fixed-power modes return core::power_for_mode.
  /// Solves nothing and costs O(n).
  [[nodiscard]] sinr::PowerAssignment power() const;

 private:
  static constexpr NodeId kNoParent = -2;  ///< broken / dead / unset

  /// Replans after the MST is up to date. `touched` holds the node ids
  /// added or moved this epoch; geometry-dirty links are those incident to
  /// them.
  void replan(const std::vector<NodeId>& touched, EpochReport& report);
  void run_audit(EpochReport& report);
  /// Applies the store's logged geometry changes to the conflict index, in
  /// log order, with positions resolved through the maintained MST: a live
  /// link is added or updated, a dead one the index holds is removed, and
  /// flip-only entries are skipped. After reconcile_full it re-seeds the
  /// index from the store instead.
  void sync_conflict_index();

  /// Grows the id-indexed node arrays to cover `id`.
  void ensure_node(NodeId id);
  /// Replays the tree's net edge diff onto the store: removals break parent
  /// chains, additions re-root detached components via in-place flips.
  void apply_structural_diff(const mst::MstDelta& delta);
  /// From-scratch orientation (BFS in id-space) reconciled against the
  /// store: surviving pairs keep their ids, orientations are flipped in
  /// place, stale links dropped, missing ones added, lengths refreshed.
  void reconcile_full();
  /// Marks the tree links incident to `touched` nodes geometry-dirty and
  /// refreshes their lengths.
  void refresh_touched(const std::vector<NodeId>& touched);
  /// Re-roots the detached component containing `child` onto `parent`
  /// (sink side), reversing the old parent chain with in-place flips.
  void rehang(NodeId child, NodeId parent);
  /// True iff the parent chain from `node` currently reaches the sink.
  [[nodiscard]] bool reaches_sink(NodeId node) const;
  /// Drops all carried plan state (slot seeds and counts) and forces the next
  /// epoch through reconcile_full + full replan.
  void invalidate_carried_state();
  /// Pushes the finished epoch into the global obs::Registry: report
  /// counters verbatim, engine lifetime counters as deltas against the
  /// marks below, stage timings into per-epoch histograms.
  void publish_epoch_metrics(const EpochReport& report);

  DynamicOptions options_;
  NodeId sink_id_ = 0;
  mst::IncrementalMst mst_;

  /// The mutation-aware id-space link container (the tree's directed links,
  /// child -> parent).
  geom::LinkStore store_;
  /// Persistent per-length-class conflict grids over the live links,
  /// synced once per epoch from the store's change log.
  conflict::ConflictIndex conflict_index_;
  /// Set by reconcile_full: the next sync re-seeds the index from the store.
  bool reseed_index_ = false;
  // ---- id-space orientation state, indexed by NodeId ----
  std::vector<NodeId> parent_;          ///< kNoParent dead/broken; -1 sink
  std::vector<geom::LinkId> uplink_;    ///< node's upward link, kNoLink none

  /// Previous epoch's final slot of every link, indexed by stable LinkId
  /// (-1 unknown). Every final slot is conflict-independent and
  /// oracle-feasible, so this doubles as a proper coloring seed for the
  /// next epoch.
  std::vector<int> slot_of_;
  /// Member count per previous final slot (including links that died
  /// since) — membership-unchanged certification needs exact counts.
  std::vector<std::size_t> prev_slot_count_;
  /// Set after construction, bulk rebuilds, or failed epochs: the next
  /// replan must rebuild orientation from scratch.
  bool force_reconcile_ = true;

  /// kGlobal: each live link's certified log2 power from its final slot's
  /// Perron vector, indexed by stable LinkId. Written only when a plan is
  /// persisted, so a failed epoch leaves the previous plan's entries.
  std::vector<double> log2_power_of_;

  Snapshot current_;
  EpochReport report_;

  /// Telemetry marks: the engines' lifetime counters as of the last
  /// publish_epoch_metrics — diffing against them attributes work per epoch
  /// without putting a single atomic in the engines' hot loops.
  mst::IncrementalMstStats mst_stats_mark_;
  conflict::ConflictIndexStats conflict_stats_mark_;
};

}  // namespace wagg::dynamic

#endif  // WAGG_DYNAMIC_DYNAMIC_PLANNER_H
