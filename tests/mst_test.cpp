#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "instance/basic.h"
#include "mst/dtree.h"
#include "mst/incremental.h"
#include "mst/mst.h"
#include "mst/point_grid.h"
#include "mst/tree.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace wagg::mst {
namespace {

TEST(UnionFind, MergesAndCounts) {
  UnionFind uf(4);
  EXPECT_EQ(uf.num_components(), 4u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_EQ(uf.num_components(), 2u);
  EXPECT_TRUE(uf.unite(0, 3));
  EXPECT_EQ(uf.find(1), uf.find(2));
  EXPECT_EQ(uf.num_components(), 1u);
}

TEST(Mst, TwoPoints) {
  const geom::Pointset pts{{0, 0}, {1, 1}};
  const auto edges = euclidean_mst(pts);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_TRUE(is_spanning_tree(2, edges));
}

TEST(Mst, MatchesKruskalWeightOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto pts = instance::uniform_square(60, 10.0, seed);
    const auto prim = euclidean_mst(pts);
    const auto kruskal = kruskal_mst(pts);
    EXPECT_TRUE(is_spanning_tree(pts.size(), prim));
    EXPECT_TRUE(is_spanning_tree(pts.size(), kruskal));
    EXPECT_NEAR(total_weight(pts, prim), total_weight(pts, kruskal), 1e-9)
        << "seed " << seed;
  }
}

TEST(Mst, LineMstIsAdjacentPairs) {
  const auto pts = geom::line_pointset({5.0, 1.0, 3.0, 0.0});
  const auto edges = line_mst(pts);
  ASSERT_EQ(edges.size(), 3u);
  // Edges connect sorted neighbours: (3,1), (1,2), (2,0) by index.
  const auto weight = total_weight(pts, edges);
  EXPECT_DOUBLE_EQ(weight, 5.0);
  EXPECT_TRUE(is_spanning_tree(4, edges));
}

TEST(Mst, LineMstMatchesEuclideanOnLine) {
  const auto pts = instance::exponential_chain(12, 1.7);
  EXPECT_NEAR(total_weight(pts, line_mst(pts)),
              total_weight(pts, euclidean_mst(pts)), 1e-9);
}

TEST(Mst, LineMstRejectsPlanarInput) {
  EXPECT_THROW(line_mst({{0, 0}, {1, 1}}), std::invalid_argument);
}

TEST(Mst, GridMstWeightIsMinimal) {
  // 3x3 unit grid: MST weight = 8 (all unit edges).
  const auto pts = instance::grid(3, 3, 1.0);
  EXPECT_NEAR(total_weight(pts, euclidean_mst(pts)), 8.0, 1e-12);
}

TEST(Mst, KFoldProducesMoreEdges) {
  const auto pts = instance::uniform_square(30, 10.0, 5);
  const auto one = k_fold_mst(pts, 1);
  const auto two = k_fold_mst(pts, 2);
  EXPECT_EQ(one.size(), pts.size() - 1);
  EXPECT_EQ(two.size(), 2 * (pts.size() - 1));
  // Rounds are edge-disjoint.
  std::set<std::pair<int, int>> seen;
  for (const auto& e : two) {
    const auto key = std::minmax(e.u, e.v);
    EXPECT_TRUE(seen.emplace(key.first, key.second).second);
  }
  // First round equals the plain MST weight.
  EXPECT_NEAR(total_weight(pts, one),
              total_weight(pts, kruskal_mst(pts)), 1e-9);
}

TEST(Mst, IsSpanningTreeRejectsCyclesAndForests) {
  EXPECT_FALSE(is_spanning_tree(3, std::vector<Edge>{{0, 1}, {0, 1}}));  // dup
  EXPECT_FALSE(is_spanning_tree(4, std::vector<Edge>{{0, 1}, {2, 3}}));  // cnt
  std::vector<Edge> cycle{{0, 1}, {1, 2}, {2, 0}};
  EXPECT_FALSE(is_spanning_tree(4, cycle));
  std::vector<Edge> tree{{0, 1}, {1, 2}, {2, 3}};
  EXPECT_TRUE(is_spanning_tree(4, tree));
}

TEST(Mst, Validation) {
  EXPECT_THROW(euclidean_mst({{0, 0}}), std::invalid_argument);
  EXPECT_THROW(dense_prim_mst({{0, 0}}), std::invalid_argument);
  EXPECT_THROW(k_fold_mst({{0, 0}, {1, 0}}, 0), std::invalid_argument);
}

TEST(Mst, RejectsNonFiniteCoordinates) {
  const double bad[] = {std::nan(""), std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const double value : bad) {
    for (const bool in_x : {true, false}) {
      auto pts = instance::uniform_square(64, 8.0, 3);
      (in_x ? pts[17].x : pts[17].y) = value;
      try {
        (void)euclidean_mst(pts);
        ADD_FAILURE() << "accepted " << value << (in_x ? " in x" : " in y");
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("point 17"), std::string::npos) << what;
        EXPECT_NE(what.find(in_x ? "x = " : "y = "), std::string::npos)
            << what;
      }
    }
  }
}

/// Both builders on one pointset: the edge lists must match in order, u
/// and v included.
void expect_dense_equal(const geom::Pointset& pts, const std::string& what) {
  const auto dense = dense_prim_mst(pts);
  const auto fast = euclidean_mst(pts);
  ASSERT_EQ(fast.size(), dense.size()) << what;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    ASSERT_TRUE(fast[i] == dense[i])
        << what << ": edge " << i << " is (" << fast[i].u << ", "
        << fast[i].v << "), dense Prim has (" << dense[i].u << ", "
        << dense[i].v << ")";
  }
}

TEST(Mst, MatchesDenseReferenceEdgeForEdge) {
  const auto& families = workload::FamilyRegistry::global();
  for (const auto& family : families.names()) {
    for (const std::size_t n : {2, 3, 256, 1024, 2048}) {
      for (const std::uint64_t seed : {1, 2}) {
        const auto pts = families.make(family, n, seed);
        if (pts.size() < 2) continue;
        expect_dense_equal(pts, family + "/" + std::to_string(n) + "/" +
                                    std::to_string(seed));
      }
    }
  }
  expect_dense_equal(instance::grid(20, 20, 1.0), "integer grid");
  expect_dense_equal(instance::unit_chain(300), "unitchain");
  geom::Pointset vertical;
  for (int i = 0; i < 200; ++i) vertical.push_back({0.0, 0.5 * (i % 37) + i});
  expect_dense_equal(vertical, "vertical chain");
  // Every integer point on x^2 + y^2 = 1105^2 (108 of them) plus the
  // centre: exact hypot ties, 13-14 per octant at the centre.
  geom::Pointset circle{{0.0, 0.0}};
  for (int x = -1105; x <= 1105; ++x) {
    const int y2 = 1105 * 1105 - x * x;
    const int y = static_cast<int>(std::lround(std::sqrt(y2)));
    if (y * y != y2) continue;
    circle.push_back({double(x), double(y)});
    if (y != 0) circle.push_back({double(x), double(-y)});
  }
  ASSERT_EQ(circle.size(), 109u);
  expect_dense_equal(circle, "circle of radius 1105");
  auto duplicated = instance::uniform_square(150, 5.0, 9);
  for (std::size_t i = 0; i < 60; ++i) duplicated.push_back(duplicated[i % 7]);
  expect_dense_equal(duplicated, "duplicated points");
  geom::Pointset tiny, huge, small;
  for (const auto& p : instance::uniform_square(200, 1.0, 4)) {
    tiny.push_back({p.x * 1e-300, p.y * 1e-300});
    huge.push_back({1e9 + p.x * 1e9, -3e9 + p.y * 1e9});
    small.push_back({p.x * 1e-9, 1.0 + p.y * 1e-9});
  }
  expect_dense_equal(tiny, "1e-300 box");
  expect_dense_equal(huge, "1e9 scale");
  expect_dense_equal(small, "1e-9 scale");
  // Boxes too large (extent past 2^1020) or too small (below 2^-1000) to
  // grid run the dense loop itself.
  geom::Pointset vast, minute;
  for (const auto& p : instance::uniform_square(100, 1.0, 6)) {
    vast.push_back({p.x * 4e307, p.y * 4e307});
    minute.push_back({p.x * 1e-305, p.y * 1e-305});
  }
  expect_dense_equal(vast, "4e307 box");
  expect_dense_equal(minute, "1e-305 box");
  // Squared distances overflow past ~1e154; expchain reaches 2^899.
  expect_dense_equal(instance::exponential_chain(900, 2.0), "expchain 900");
}

TEST(Mst, MatchesDenseOnRandomLatticeSets) {
  // Few distinct coordinates: exact ties and coincident points abound.
  util::Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<std::size_t>(rng.range(2, 200));
    const auto side = rng.range(2, 9);
    geom::Pointset pts;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({double(rng.range(0, side)),
                     double(rng.range(0, side))});
    }
    expect_dense_equal(pts, "lattice trial " + std::to_string(trial));
  }
}

TEST(Mst, MatchesDenseOnNearCoincidentSets) {
  // Lattice points, each with a companion one ulp away in x, y or both:
  // hypot can round |wu| and |vu| equal when w is that close to v, so the
  // 45-degree margin alone would drop MST edges here.
  util::Rng rng(77);
  const double inf = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 2000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.range(1, 20));
    geom::Pointset pts;
    for (std::size_t i = 0; i < n; ++i) {
      const geom::Point p{double(rng.range(0, 6)),
                          double(rng.range(0, 6))};
      pts.push_back(p);
      const auto shape = rng.range(0, 2);
      geom::Point q = p;
      if (shape != 1) q.x = std::nextafter(p.x, rng.chance(0.5) ? inf : -inf);
      if (shape != 0) q.y = std::nextafter(p.y, rng.chance(0.5) ? inf : -inf);
      pts.push_back(q);
    }
    expect_dense_equal(pts, "near-coincident trial " + std::to_string(trial));
  }
}

TEST(DynamicTree, BasicLinkCutPathMax) {
  DynamicTree dt;
  dt.ensure_vertices(4);
  EXPECT_FALSE(dt.connected(0, 3));
  const auto e01 = dt.link(0, 1, 4.0);
  const auto e12 = dt.link(1, 2, 9.0);
  const auto e23 = dt.link(2, 3, 1.0);
  EXPECT_EQ(dt.num_edges(), 3u);
  EXPECT_TRUE(dt.connected(0, 3));
  EXPECT_EQ(dt.path_max(0, 3), e12);
  EXPECT_EQ(dt.path_max(0, 1), e01);
  EXPECT_EQ(dt.path_max(2, 3), e23);
  dt.cut(e12);
  EXPECT_FALSE(dt.connected(0, 3));
  EXPECT_TRUE(dt.connected(0, 1));
  EXPECT_TRUE(dt.connected(2, 3));
  // Relinking across the cut reroutes the path.
  const auto e03 = dt.link(0, 3, 25.0);
  EXPECT_EQ(dt.path_max(1, 2), e03);
}

TEST(DynamicTree, PathMaxBreaksWeightTiesByEndpoints) {
  DynamicTree dt;
  dt.ensure_vertices(3);
  const auto e01 = dt.link(0, 1, 1.0);
  const auto e12 = dt.link(1, 2, 1.0);
  // Equal weights: the maximum under (w2, a, b) is the larger pair.
  EXPECT_EQ(dt.path_max(0, 2), e12);
  EXPECT_NE(dt.path_max(0, 1), e12);
  EXPECT_EQ(dt.path_max(0, 1), e01);
}

TEST(DynamicTree, RejectsCyclesSelfLoopsAndDeadHandles) {
  DynamicTree dt;
  dt.ensure_vertices(3);
  const auto e01 = dt.link(0, 1, 1.0);
  (void)dt.link(1, 2, 2.0);
  EXPECT_THROW((void)dt.link(0, 2, 3.0), std::logic_error);       // cycle
  EXPECT_THROW((void)dt.link(1, 1, 1.0), std::invalid_argument);  // loop
  EXPECT_THROW((void)dt.connected(0, 9), std::invalid_argument);
  EXPECT_THROW((void)dt.path_max(0, 0), std::invalid_argument);
  dt.cut(e01);
  EXPECT_THROW(dt.cut(e01), std::invalid_argument);  // already dead
  EXPECT_THROW((void)dt.path_max(0, 2), std::invalid_argument);  // split
}

/// The tentpole acceptance harness: randomized link/cut churn with every
/// path_max and connected answer checked against brute-force path scans
/// over an explicitly maintained edge list.
TEST(DynamicTree, RandomizedLinkCutMatchesBruteForce) {
  constexpr std::int32_t kN = 40;
  struct BruteEdge {
    std::int32_t a = -1;
    std::int32_t b = -1;
    double w2 = 0.0;
  };
  for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    DynamicTree dt;
    dt.ensure_vertices(kN);
    util::Rng rng(seed);
    std::map<EdgeHandle, BruteEdge> live;

    // Brute-force reference: the handle sequence of the a..b path, or
    // nullopt when disconnected (BFS over the live edge list).
    const auto brute_path =
        [&](std::int32_t from,
            std::int32_t to) -> std::optional<std::vector<EdgeHandle>> {
      std::vector<std::vector<std::pair<std::int32_t, EdgeHandle>>> adj(kN);
      for (const auto& [handle, e] : live) {
        adj[static_cast<std::size_t>(e.a)].emplace_back(e.b, handle);
        adj[static_cast<std::size_t>(e.b)].emplace_back(e.a, handle);
      }
      std::vector<std::int32_t> parent(kN, -1);
      std::vector<EdgeHandle> via(kN, kNoEdgeHandle);
      parent[static_cast<std::size_t>(from)] = from;
      std::vector<std::int32_t> frontier{from};
      for (std::size_t head = 0; head < frontier.size(); ++head) {
        const auto v = frontier[head];
        for (const auto& [w, handle] : adj[static_cast<std::size_t>(v)]) {
          if (parent[static_cast<std::size_t>(w)] >= 0) continue;
          parent[static_cast<std::size_t>(w)] = v;
          via[static_cast<std::size_t>(w)] = handle;
          frontier.push_back(w);
        }
      }
      if (parent[static_cast<std::size_t>(to)] < 0) return std::nullopt;
      std::vector<EdgeHandle> path;
      for (std::int32_t v = to; v != from;
           v = parent[static_cast<std::size_t>(v)]) {
        path.push_back(via[static_cast<std::size_t>(v)]);
      }
      return path;
    };

    for (int step = 0; step < 400; ++step) {
      // Mutate: link a random disconnected pair, else cut a random edge.
      const auto a = static_cast<std::int32_t>(rng.below(kN));
      const auto b = static_cast<std::int32_t>(rng.below(kN));
      if (a != b && !brute_path(a, b).has_value()) {
        // A 30% chance of weight 1.0 forces duplicate-weight ties through
        // the (w2, a, b) ordering.
        const double w2 = rng.chance(0.3) ? 1.0 : rng.uniform(0.0, 4.0);
        const auto handle = dt.link(a, b, w2);
        live.emplace(handle,
                     BruteEdge{std::min(a, b), std::max(a, b), w2});
      } else if (!live.empty()) {
        auto it = live.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.below(live.size())));
        dt.cut(it->first);
        live.erase(it);
      }

      // Verify: connectivity and path_max of random probes after EVERY op.
      for (int probe = 0; probe < 6; ++probe) {
        const auto x = static_cast<std::int32_t>(rng.below(kN));
        const auto y = static_cast<std::int32_t>(rng.below(kN));
        const auto path = brute_path(x, y);
        ASSERT_EQ(dt.connected(x, y), path.has_value())
            << "seed " << seed << " step " << step;
        if (x == y || !path.has_value() || path->empty()) continue;
        std::tuple<double, std::int32_t, std::int32_t> expected{-1.0, -1,
                                                                -1};
        for (const auto handle : *path) {
          const auto& e = live.at(handle);
          expected = std::max(expected, std::tuple{e.w2, e.a, e.b});
        }
        const auto got = dt.path_max(x, y);
        EXPECT_EQ((std::tuple{dt.weight2(got), dt.edge_a(got),
                              dt.edge_b(got)}),
                  expected)
            << "seed " << seed << " step " << step;
      }
    }
  }
}

TEST(PointGrid, NearestAndConeQueriesAreExact) {
  detail::PointGrid grid;
  grid.reset(1.0);
  util::Rng rng(7);
  std::vector<geom::Point> pts;
  for (std::int32_t id = 0; id < 80; ++id) {
    pts.push_back({rng.uniform(0.0, 9.0), rng.uniform(0.0, 9.0)});
    grid.insert(id, pts.back());
  }
  const auto none = [](std::int32_t) { return false; };
  for (int probe = 0; probe < 40; ++probe) {
    const geom::Point q{rng.uniform(-2.0, 11.0), rng.uniform(-2.0, 11.0)};
    // Brute-force nearest and per-cone nearest by (w2, id).
    detail::NearCandidate want;
    std::array<detail::NearCandidate, 6> want_cones{};
    for (std::int32_t id = 0; id < 80; ++id) {
      const double dx = pts[static_cast<std::size_t>(id)].x - q.x;
      const double dy = pts[static_cast<std::size_t>(id)].y - q.y;
      const double w2 = dx * dx + dy * dy;
      const auto cone =
          static_cast<std::size_t>(detail::PointGrid::cone_of(dx, dy));
      if (w2 < want.w2 || (w2 == want.w2 && id < want.id)) {
        want = {id, w2};
      }
      auto& slot = want_cones[cone];
      if (w2 < slot.w2 || (w2 == slot.w2 && id < slot.id)) slot = {id, w2};
    }
    const auto got = grid.nearest(q, none);
    EXPECT_EQ(got.id, want.id);
    const auto got_cones = grid.cone_nearest(q, none);
    for (std::size_t c = 0; c < 6; ++c) {
      EXPECT_EQ(got_cones[c].id, want_cones[c].id) << "cone " << c;
    }
  }
  // The limit contract: candidates at or below the cap are still found.
  const auto capped = grid.nearest({4.5, 4.5}, none,
                                   grid.nearest({4.5, 4.5}, none).w2);
  EXPECT_EQ(capped.id, grid.nearest({4.5, 4.5}, none).id);
}

/// `delta` must be the exact diff from `before` to `after`: no edge listed
/// twice, every removed edge in `before`, no added edge in it, and
/// before - removed + added equal to `after`.
void expect_exact_delta(const MstDelta& delta,
                        const std::vector<IdEdge>& before,
                        const std::vector<IdEdge>& after,
                        const std::string& where) {
  using Pair = std::pair<NodeId, NodeId>;
  ASSERT_FALSE(delta.rebuilt) << where;
  std::set<Pair> previous;
  for (const auto& e : before) previous.emplace(e.a, e.b);
  std::set<Pair> tree = previous;
  std::set<Pair> listed;
  for (const auto& e : delta.removed) {
    ASSERT_TRUE(listed.emplace(e.a, e.b).second)
        << where << ": edge " << e.a << "-" << e.b << " listed twice";
    ASSERT_EQ(previous.count({e.a, e.b}), 1u)
        << where << ": removed " << e.a << "-" << e.b << " was no edge";
    tree.erase({e.a, e.b});
  }
  for (const auto& e : delta.added) {
    ASSERT_TRUE(listed.emplace(e.a, e.b).second)
        << where << ": edge " << e.a << "-" << e.b << " listed twice";
    ASSERT_EQ(previous.count({e.a, e.b}), 0u)
        << where << ": added " << e.a << "-" << e.b << " was an edge";
    tree.emplace(e.a, e.b);
  }
  std::set<Pair> current;
  for (const auto& e : after) current.emplace(e.a, e.b);
  EXPECT_EQ(tree, current) << where;
}

/// Random churn in windows of one to three updates, each window's delta
/// checked by expect_exact_delta. `position` draws each new position.
template <class Draw>
void churn_with_exact_deltas(IncrementalMst& inc, util::Rng& rng,
                             Draw position, const std::string& name) {
  EXPECT_TRUE(inc.take_delta().empty()) << name << ": the seed is no change";
  auto previous = inc.edges();
  std::size_t changes = 0;
  for (int window = 0; window < 40; ++window) {
    for (int op = 0; op <= window % 3; ++op) {
      const auto alive = inc.alive_ids();
      const auto pick = alive[rng.below(alive.size())];
      switch (rng.below(3)) {
        case 0:
          (void)inc.add_point(position());
          break;
        case 1:
          if (alive.size() > 3) inc.remove_point(pick);
          break;
        default:
          inc.move_point(pick, position());
      }
    }
    const auto delta = inc.take_delta();
    auto current = inc.edges();
    expect_exact_delta(delta, previous, current,
                       name + " window " + std::to_string(window));
    changes += delta.added.size() + delta.removed.size();
    previous = std::move(current);
  }
  EXPECT_GT(changes, 0u) << name;
}

TEST(IncrementalMst, TakeDeltaIsTheExactDiff) {
  util::Rng rng(19);
  geom::Pointset points;
  for (int i = 0; i < 30; ++i) {
    points.push_back({rng.uniform(0.0, 9.0), rng.uniform(0.0, 9.0)});
  }
  IncrementalMst inc(points);
  churn_with_exact_deltas(
      inc, rng,
      [&] {
        return geom::Point{rng.uniform(0.0, 9.0), rng.uniform(0.0, 9.0)};
      },
      "uniform");

  // The all-ties unit grid, churned onto lattice sites: equal distances
  // everywhere, coincident points included.
  IncrementalMst grid(workload::make_family("grid", 25, 1));
  churn_with_exact_deltas(
      grid, rng,
      [&] {
        return geom::Point{static_cast<double>(rng.below(6)),
                           static_cast<double>(rng.below(6))};
      },
      "unit grid");
}

TEST(IncrementalMst, TakeDeltaNetsOutReturningChanges) {
  // Distinct distances: the MST is unique, so a window that ends on the
  // point set it started from changes no edge.
  util::Rng rng(23);
  geom::Pointset points;
  for (int i = 0; i < 40; ++i) {
    points.push_back({rng.uniform(0.0, 9.0), rng.uniform(0.0, 9.0)});
  }
  IncrementalMst inc(points);
  const auto tree = inc.edges();
  for (int trial = 0; trial < 10; ++trial) {
    // Each window journals real changes before it returns.
    const geom::Point p{rng.uniform(0.0, 9.0), rng.uniform(0.0, 9.0)};
    const auto added = inc.add_point(p);
    ASSERT_NE(inc.edges(), tree);
    inc.remove_point(added);
    EXPECT_TRUE(inc.take_delta().empty()) << "add then remove " << trial;

    const auto id = static_cast<NodeId>(rng.below(points.size()));
    inc.move_point(id, p);
    ASSERT_NE(inc.edges(), tree);
    inc.move_point(id, points[static_cast<std::size_t>(id)]);
    EXPECT_TRUE(inc.take_delta().empty()) << "move away and back " << trial;
  }
  EXPECT_EQ(inc.edges(), tree);

  // A rebuild reports itself with empty lists, even when updates follow it
  // inside the same window.
  inc.move_point(3, {4.5, 4.5});
  inc.rebuild();
  (void)inc.add_point({1.5, 7.5});
  const auto delta = inc.take_delta();
  EXPECT_TRUE(delta.rebuilt);
  EXPECT_TRUE(delta.added.empty());
  EXPECT_TRUE(delta.removed.empty());
  EXPECT_FALSE(delta.empty());
  EXPECT_TRUE(inc.take_delta().empty());
}

TEST(Tree, OrientationBasics) {
  //   0 - 1 - 2
  //       |
  //       3
  const geom::Pointset pts{{0, 0}, {1, 0}, {2, 0}, {1, 1}};
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {1, 3}};
  const auto tree = orient_toward_sink(pts, edges, 0);
  EXPECT_EQ(tree.sink, 0);
  EXPECT_EQ(tree.parent[0], -1);
  EXPECT_EQ(tree.parent[1], 0);
  EXPECT_EQ(tree.parent[2], 1);
  EXPECT_EQ(tree.parent[3], 1);
  EXPECT_EQ(tree.depth[0], 0);
  EXPECT_EQ(tree.depth[2], 2);
  EXPECT_EQ(tree.height(), 2);
  ASSERT_EQ(tree.links.size(), 3u);
  // Every non-sink node's link points to its parent.
  for (std::size_t v = 1; v < 4; ++v) {
    const auto li = tree.link_of_node[v];
    ASSERT_GE(li, 0);
    EXPECT_EQ(tree.links.link(static_cast<std::size_t>(li)).sender,
              static_cast<std::int32_t>(v));
    EXPECT_EQ(tree.links.link(static_cast<std::size_t>(li)).receiver,
              tree.parent[v]);
  }
  EXPECT_EQ(tree.children[1].size(), 2u);
  EXPECT_EQ(tree.children[0].size(), 1u);
}

TEST(Tree, RejectsBadInput) {
  const geom::Pointset pts{{0, 0}, {1, 0}, {2, 0}};
  const std::vector<Edge> not_tree{{0, 1}};
  EXPECT_THROW(orient_toward_sink(pts, not_tree, 0), std::invalid_argument);
  const std::vector<Edge> tree{{0, 1}, {1, 2}};
  EXPECT_THROW(orient_toward_sink(pts, tree, 5), std::invalid_argument);
}

TEST(Tree, MstTreeProperties) {
  const auto pts = instance::uniform_square(100, 10.0, 9);
  const auto tree = mst_tree(pts, 0);
  EXPECT_EQ(tree.num_nodes(), 100u);
  EXPECT_EQ(tree.links.size(), 99u);
  // Depths are consistent with parents.
  for (std::size_t v = 0; v < 100; ++v) {
    if (tree.parent[v] >= 0) {
      EXPECT_EQ(tree.depth[v],
                tree.depth[static_cast<std::size_t>(tree.parent[v])] + 1);
    }
  }
}

TEST(Tree, PairingTreeLogHeight) {
  for (std::uint64_t seed : {1ULL, 2ULL}) {
    const auto pts = instance::uniform_square(128, 10.0, seed);
    const auto pt = pairing_tree(pts, 0);
    EXPECT_EQ(pt.tree.links.size(), 127u);
    // Matching halves the active set each level: ~log2(128) = 7 levels.
    EXPECT_LE(pt.num_levels, 9);
    EXPECT_GE(pt.num_levels, 7);
    // Levels partition the links, each level at most half the prior nodes.
    ASSERT_EQ(pt.level_of_link.size(), 127u);
    std::vector<int> per_level(static_cast<std::size_t>(pt.num_levels), 0);
    for (auto lv : pt.level_of_link) {
      ASSERT_GE(lv, 0);
      ASSERT_LT(lv, pt.num_levels);
      ++per_level[static_cast<std::size_t>(lv)];
    }
    EXPECT_EQ(per_level[0], 64);
    // The tree height is bounded by the number of levels... loosely.
    EXPECT_LE(pt.tree.height(), 2 * pt.num_levels + 1);
  }
}

TEST(Tree, PairingTreeKeepsSink) {
  const auto pts = instance::uniform_square(33, 10.0, 4);
  const auto pt = pairing_tree(pts, 17);
  EXPECT_EQ(pt.tree.sink, 17);
  EXPECT_EQ(pt.tree.parent[17], -1);
}

}  // namespace
}  // namespace wagg::mst
