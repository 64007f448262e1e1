// wagg-lint-fixture: dense-prim expect=0
// Negative cases: the sub-quadratic builder, identifiers that only contain
// the name, a justified allow, and comment/string mentions.
#include "mst/mst.h"

namespace wagg::core {

std::vector<mst::Edge> plan_tree(const geom::Pointset& points) {
  return mst::euclidean_mst(points);
}

std::vector<mst::Edge> reference_tree(const geom::Pointset& points) {
  // wagg-lint: allow(dense-prim) a cross-check re-derives on purpose
  return mst::dense_prim_mst(points);
}

// dense_prim_mst in a comment is inert; so is a string mention:
inline const char* kDoc = "never call mst::dense_prim_mst on a plan";
int dense_prim_mst_calls = 0;
int my_dense_prim_mst = 0;

}  // namespace wagg::core
