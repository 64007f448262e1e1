#ifndef WAGG_MST_INCREMENTAL_H
#define WAGG_MST_INCREMENTAL_H

#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.h"
#include "mst/dtree.h"
#include "mst/mst.h"
#include "mst/point_grid.h"

namespace wagg::mst {

/// Stable node identifier inside an IncrementalMst. Ids are assigned
/// consecutively (the initial pointset gets 0..n-1, each add_point the next
/// integer) and are never reused, so they survive arbitrary churn — the
/// dynamic planner keys every cross-epoch structure on them.
using NodeId = std::int32_t;

/// An undirected MST edge between two stable node ids, stored canonically
/// with a < b.
struct IdEdge {
  NodeId a = -1;
  NodeId b = -1;

  friend bool operator==(const IdEdge&, const IdEdge&) = default;
};

/// The net edge diff of an IncrementalMst since the last take_delta():
/// `added` holds the edges the tree gained and `removed` the edges it lost,
/// each edge at most once and in neither list when it left and came back
/// within the window. Each list keeps the order of its edges' first journal
/// entries. When `rebuilt` is set both lists are empty: the whole tree was
/// recomputed and the consumer must reconcile against the tree wholesale.
struct MstDelta {
  std::vector<IdEdge> added;
  std::vector<IdEdge> removed;
  bool rebuilt = false;

  [[nodiscard]] bool empty() const noexcept {
    return !rebuilt && added.empty() && removed.empty();
  }
};

/// Work counters of an IncrementalMst, accumulated since construction.
/// Consumers (the dynamic planner's telemetry publisher) diff successive
/// reads to attribute work per epoch; none of these affect results.
struct IncrementalMstStats {
  /// attach() exchanges: a cone candidate beat path_max and cost one
  /// cut + one link. The per-insert count is the real "how disturbed was
  /// the tree" signal (inserts that merely connect don't swap).
  std::uint64_t path_max_swaps = 0;
  /// reconnect() rounds: each Boruvka round links every leftover
  /// component's minimum outgoing edge. Bounded by log(components) <= 3
  /// per removal; climbing counts mean removals keep splitting badly.
  std::uint64_t boruvka_rounds = 0;
  /// Ring searches that blew kRingBudget and swept every occupied cell —
  /// the grid's exact-but-linear escape hatch (see PointGrid).
  std::uint64_t grid_fallback_sweeps = 0;
};

/// Exact Euclidean MST maintained under point insertion, deletion, and
/// motion, at a cost proportional to the disturbed neighborhood instead of
/// the instance. The engine is a DynamicTree (splay path decomposition,
/// O(log n) link/cut/path_max) plus a maintained detail::PointGrid spatial
/// index that turns "the new point's star" into O(1)-ish candidates:
///
///   add_point    the new MST is a subset of (old edges + the new point's
///                star), and the star edges that can enter an MST connect
///                the point to the NEAREST neighbor in each of its six
///                60-degree cones (same-cone points are < 60 degrees apart,
///                so the farther one is never needed — the classic Yao-graph
///                argument). The grid yields those <= 6 candidates; each is
///                applied as the textbook dynamic-MST insertion: skip it
///                unless it beats path_max(p, q), else one cut + one link.
///   remove_point the old edges minus the removed point's incident ones
///                stay in the new MST (cycle property); the <= 6 resulting
///                components (Euclidean MSTs have max degree 6) are
///                reconnected Boruvka-style by each component's minimum
///                outgoing edge, found by grid nearest-neighbor searches
///                over the members of every component EXCEPT the largest —
///                components are enumerated in lockstep so the big one is
///                never walked.
///   move_point   remove + re-add under the same id.
///
/// All updates are deterministic: edges compare by (squared weight, a, b),
/// in the maintained tree and among candidates alike. With distinct
/// pairwise distances the maintained tree is THE Euclidean MST; under ties
/// it is an MST of equal weight (tests compare weights against a
/// from-scratch Prim run).
///
/// Every structural change is journaled; tree consumers
/// (dynamic::DynamicPlanner's geom::LinkStore orientation) drain the net
/// MstDelta with take_delta() to update in place instead of re-reading the
/// world, and read the tree itself through neighbors().
class IncrementalMst {
 public:
  /// Ids 0..initial.size()-1 map to the initial points. A single point (or
  /// even an empty set) is allowed; the tree is empty until 2 nodes exist.
  explicit IncrementalMst(const geom::Pointset& initial);

  /// Inserts a point, returning its new stable id.
  NodeId add_point(const geom::Point& position);

  /// Deletes a point. Throws std::invalid_argument for dead/unknown ids.
  void remove_point(NodeId id);

  /// Moves a point to a new position (same id before and after).
  void move_point(NodeId id, const geom::Point& position);

  /// Deferred variants: apply the point change WITHOUT updating the tree
  /// (node_at still sees it). The maintained edges are stale until
  /// rebuild() runs; interleaving deferred and immediate updates without a
  /// rebuild in between is a bug.
  /// Worth it for bulk epochs — once a batch mutates a sizable fraction of
  /// the instance, one euclidean_mst rebuild beats per-mutation maintenance.
  NodeId add_point_deferred(const geom::Point& position);
  void remove_point_deferred(NodeId id);
  void move_point_deferred(NodeId id, const geom::Point& position);

  /// From-scratch, id-preserving recompute of the maintained tree.
  void rebuild();

  /// Drains the edge-change journal (and resets it), netted to the exact
  /// diff: an edge's entries alternate between added and removed, so they
  /// sum to +1 (new), -1 (gone) or 0 (unchanged).
  [[nodiscard]] MstDelta take_delta();

  [[nodiscard]] bool alive(NodeId id) const noexcept {
    return id >= 0 && static_cast<std::size_t>(id) < alive_.size() &&
           alive_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t num_alive() const noexcept { return num_alive_; }
  [[nodiscard]] const geom::Point& position(NodeId id) const;
  /// The smallest alive id at exactly `position` (coordinate equality), or
  /// -1. Grid lookup, O(1) expected.
  [[nodiscard]] NodeId node_at(const geom::Point& position) const;

  /// Alive ids in increasing order (the canonical compaction order).
  [[nodiscard]] std::vector<NodeId> alive_ids() const;

  /// Current MST edges over the alive points (stable ids, canonical a < b,
  /// sorted by (a, b) so equal trees compare equal). Built and sorted on
  /// every call, O(n log n): for whole-tree consumers; per-node reads use
  /// neighbors().
  [[nodiscard]] std::vector<IdEdge> edges() const;

  /// One adjacency entry of the maintained tree. Degree is <= 6 for
  /// distinct positions (Euclidean MST bound), but coincident points can
  /// exceed it — a hub of zero-weight twin edges — so the lists must stay
  /// genuinely dynamic.
  struct AdjEntry {
    NodeId neighbor = -1;
    EdgeHandle edge = kNoEdgeHandle;
  };

  /// The maintained tree neighbors of `id`, in no fixed order; empty for
  /// dead or unknown ids. Valid until the next tree update.
  [[nodiscard]] std::span<const AdjEntry> neighbors(NodeId id) const noexcept {
    // A deferred add is alive before rebuild() gives it a list.
    return alive(id) && static_cast<std::size_t>(id) < adj_.size()
               ? std::span<const AdjEntry>(adj_[static_cast<std::size_t>(id)])
               : std::span<const AdjEntry>();
  }

  /// Total Euclidean weight of the maintained tree.
  [[nodiscard]] double weight() const;

  /// The maintained edges re-indexed into compact [0, num_alive) space
  /// following alive_ids() order — ready for orient_toward_sink.
  [[nodiscard]] std::vector<Edge> compact_edges() const;

  /// Accumulated work counters (telemetry; see IncrementalMstStats).
  [[nodiscard]] IncrementalMstStats stats() const noexcept {
    IncrementalMstStats out = stats_;
    out.grid_fallback_sweeps = grid_.fallback_sweeps();
    return out;
  }

 private:
  /// A candidate edge with its cached squared weight; canonical a < b,
  /// ordered by (w2, a, b) — the same order as (weight, a, b) since
  /// x -> x^2 is monotone on lengths.
  struct WeightedEdge {
    double w2 = 0.0;
    NodeId a = -1;
    NodeId b = -1;

    [[nodiscard]] bool operator<(const WeightedEdge& other) const noexcept {
      if (w2 != other.w2) return w2 < other.w2;
      if (a != other.a) return a < other.a;
      return b < other.b;
    }
  };
  [[nodiscard]] double squared_weight(NodeId a, NodeId b) const;
  /// Insertion update: cone candidates + path_max swaps.
  void attach(NodeId id);
  /// Deletion update: cuts id's incident edges, then reconnects the
  /// leftover components via their minimum outgoing edges (grid-pruned).
  void detach(NodeId id);
  void reconnect(std::vector<NodeId> seeds);
  /// Adds a maintained tree edge (dtree link + adjacency on both sides).
  void add_tree_edge(NodeId a, NodeId b, double w2);
  /// Removes a maintained tree edge by one side's adjacency entry.
  void remove_tree_edge(NodeId a, const AdjEntry& entry);
  void seed_tree_from(const std::vector<Edge>& compact,
                      const std::vector<NodeId>& ids);
  /// Rebuilds the point grid from the alive set, re-tuning the cell size.
  void rebuild_grid();
  /// Grows dtree vertices / adjacency / stamps to cover `id`.
  void ensure_node(NodeId id);

  std::vector<geom::Point> points_;  ///< indexed by id (dead slots stale)
  std::vector<bool> alive_;
  std::size_t num_alive_ = 0;
  /// The maintained tree: path-max structure + explicit adjacency (the
  /// degree-<= 6 lists detach, edges() and neighbors() read).
  DynamicTree dtree_;
  std::vector<std::vector<AdjEntry>> adj_;
  /// Maintained spatial candidate index over the alive points.
  detail::PointGrid grid_;
  std::size_t grid_built_points_ = 0;  ///< alive count at the last re-tune
  /// Component marks for detach's lockstep enumeration (monotone stamps, so
  /// stale marks never alias).
  std::vector<std::uint64_t> comp_stamp_;
  std::uint64_t stamp_clock_ = 0;
  MstDelta delta_;
  /// Work counters (grid_fallback_sweeps lives on the grid; stats() merges).
  IncrementalMstStats stats_;
};

}  // namespace wagg::mst

#endif  // WAGG_MST_INCREMENTAL_H
