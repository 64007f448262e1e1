#ifndef WAGG_MST_MST_H
#define WAGG_MST_MST_H

#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.h"

namespace wagg::mst {

/// An undirected edge between two point indices.
struct Edge {
  std::int32_t u = -1;
  std::int32_t v = -1;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Exact Euclidean minimum spanning tree: the same edges, in the same order
/// and orientation, as dense_prim_mst, ties included, from Prim on a sparse
/// candidate graph: ~8 candidates per point on spread inputs, and 18-26 ms
/// at n = 8192 uniform points on a 4-vCPU x86 host, where the dense loop
/// takes 1.0-1.4 s.
///
/// Candidates (Yao, SIAM J. Comput. 1982): around each point v, per
/// half-open 45-degree octant (exact sign and magnitude tests on dx, dy),
/// every point at the octant's least geom::distance, with no cap on ties.
/// Any farther u of the octant has a nearest w with |vw| < |vu| and, by the
/// 45-degree margin, |wu| < |vu| - 0.2 |vw|: (v, u) is strictly the
/// heaviest edge of triangle v-w-u, so it is never the lightest edge
/// across a cut and cannot change a Prim step. u is dropped only when
/// floating point agrees: when the margin exceeds every rounding error
/// (|vw| >= 2^-40 of the box extent), or else after checking
/// distance(w, u) < distance(v, u) in hypot; otherwise u stays a candidate.
/// Coincident points are candidates of each other. A flat grid over the
/// bounding box finds the octant minima: two rings of cells around each
/// point, then a walk along each still-open octant's wedge, until its best
/// is certified or its wedge inside the box is scanned.
///
/// Prim then follows the dense loop's rules (start at point 0, relax with
/// strict < as each point joins, take the least (distance, index)), so every
/// step picks the same point and the same parent. Boxes whose extent could
/// overflow a distance run the dense loop itself.
/// Throws std::invalid_argument for fewer than 2 points or a NaN or
/// infinite coordinate.
[[nodiscard]] std::vector<Edge> euclidean_mst(const geom::Pointset& points);

/// Prim's algorithm on the implicit complete graph, O(n^2) time / O(n)
/// space: the reference euclidean_mst must equal edge for edge, and
/// wagg_bench's fixed from-scratch tree cost. Ties are broken by smaller
/// node index. Not for planning paths (the `dense-prim` lint rule).
/// Throws std::invalid_argument for fewer than 2 points.
[[nodiscard]] std::vector<Edge> dense_prim_mst(const geom::Pointset& points);

/// Kruskal's algorithm on the explicit complete graph, O(n^2 log n).
/// Exists as an independent cross-check for euclidean_mst (same weight, and
/// identical edges when all pairwise distances are distinct).
[[nodiscard]] std::vector<Edge> kruskal_mst(const geom::Pointset& points);

/// MST of collinear points: connects neighbours in sorted x order (the unique
/// MST on the line when gaps are distinct). Throws if any y != 0.
[[nodiscard]] std::vector<Edge> line_mst(const geom::Pointset& points);

/// Union of k rounds of MST over the complete graph with previously chosen
/// edges removed — the k-edge-connectivity construction referenced by the
/// paper's Remark 2 (following [11]). k = 1 equals euclidean_mst.
[[nodiscard]] std::vector<Edge> k_fold_mst(const geom::Pointset& points,
                                           int k);

/// Total Euclidean weight of an edge list.
[[nodiscard]] double total_weight(const geom::Pointset& points,
                                  std::span<const Edge> edges);

/// True iff `edges` forms a spanning tree on n nodes (n-1 edges, connected).
[[nodiscard]] bool is_spanning_tree(std::size_t n, std::span<const Edge> edges);

/// Disjoint-set forest with union by rank and path halving.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n);
  /// Representative of x's component.
  [[nodiscard]] std::size_t find(std::size_t x);
  /// Merges the components of a and b; returns false if already merged.
  bool unite(std::size_t a, std::size_t b);
  [[nodiscard]] std::size_t num_components() const noexcept {
    return components_;
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::uint8_t> rank_;
  std::size_t components_;
};

}  // namespace wagg::mst

#endif  // WAGG_MST_MST_H
