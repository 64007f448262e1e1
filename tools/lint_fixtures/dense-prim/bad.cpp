// wagg-lint-fixture: dense-prim expect=3
// The dense O(n^2) Prim called outside mst/mst (this fixture lints as
// src/bad.cpp): each use puts the quadratic seed back on a planning path.
#include "mst/mst.h"

namespace wagg::core {

std::vector<mst::Edge> plan_tree(const geom::Pointset& points) {
  return mst::dense_prim_mst(points);  // finding 1
}

std::size_t seed_size(const geom::Pointset& points) {
  using mst::dense_prim_mst;                // finding 2
  const auto edges = dense_prim_mst(points);  // finding 3
  return edges.size();
}

}  // namespace wagg::core
