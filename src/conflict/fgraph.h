#ifndef WAGG_CONFLICT_FGRAPH_H
#define WAGG_CONFLICT_FGRAPH_H

#include <string>

#include "conflict/graph.h"
#include "geom/linkset.h"

namespace wagg::conflict {

/// The conflict-graph family G_f of [12, 13] (paper, Appendix A): links i, j
/// are f-independent iff d(i, j) / lmin > f(lmax / lmin) with
/// lmin = min(l_i, l_j), lmax = max(l_i, l_j), and f positive, non-decreasing
/// and sublinear. Three instantiations are used by the paper:
///
///   f(x) = gamma                          G_gamma    ("G_1" when gamma = 1)
///   f(x) = gamma * x^delta                G^delta_gamma   (oblivious power)
///   f(x) = gamma * max(1, log^(2/(alpha-2)) x)   G_(gamma log) (arbitrary power)
struct ConflictSpec {
  enum class Kind { kConstant, kPowerLaw, kLogarithmic };

  Kind kind = Kind::kConstant;
  double gamma = 1.0;
  double delta = 0.5;  ///< exponent for kPowerLaw, in (0, 1)
  double alpha = 3.0;  ///< path-loss exponent for kLogarithmic

  /// The threshold function f(x); domain x >= 1.
  [[nodiscard]] double f(double x) const;

  /// Throws std::invalid_argument unless the parameters are in range for
  /// `kind` (positive gamma, delta in (0, 1), alpha > 2).
  void validate() const;

  /// True iff links i and j of `links` conflict under this spec.
  [[nodiscard]] bool conflicting(const geom::LinkView& links, std::size_t i,
                                 std::size_t j) const;

  [[nodiscard]] std::string name() const;

  /// Field-wise equality (spec-keyed caches use it; comparing fields the
  /// kind ignores is conservative — at worst a needless flush).
  friend bool operator==(const ConflictSpec&, const ConflictSpec&) = default;

  static ConflictSpec constant(double gamma);
  static ConflictSpec power_law(double gamma, double delta);
  static ConflictSpec logarithmic(double gamma, double alpha);
};

/// Builds G_f(L) by checking all O(n^2) pairs: the test reference. Planning
/// builds the same graph through build_conflict_graph_indexed
/// (conflict/conflict_index.h).
[[nodiscard]] Graph build_conflict_graph(const geom::LinkView& links,
                                         const ConflictSpec& spec);

/// Conflict adjacency for a SUBSET of links only: result[k] holds the
/// (sorted, deduplicated) links conflicting with queries[k], computed
/// against the whole link set through per-length-class bucket grids built
/// from scratch on every call — equal to the corresponding rows of the full
/// graph (property-tested). No planner builds a schedule from it. It is a
/// reference and a bench yardstick: the dynamic planner's audit mode checks
/// the ConflictIndex rows against it (an implementation that shares no
/// state with the index), and wagg_bench times it as the from-scratch
/// rebuild that the gated conflict_share ratio divides by.
[[nodiscard]] std::vector<std::vector<std::int32_t>>
conflict_neighbors_bucketed(const geom::LinkView& links,
                            const ConflictSpec& spec,
                            std::span<const std::size_t> queries);

}  // namespace wagg::conflict

#endif  // WAGG_CONFLICT_FGRAPH_H
