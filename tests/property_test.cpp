// Cross-module property/fuzz suite: randomized invariants that must hold for
// every instance family, seed and parameter combination. Complements the
// per-module unit tests and the paper_claims suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "analysis/audit.h"
#include "conflict/fgraph.h"
#include "core/planner.h"
#include "geom/linkset.h"
#include "instance/basic.h"
#include "instance/extended.h"
#include "mst/mst.h"
#include "mst/tree.h"
#include "schedule/latency.h"
#include "schedule/simulator.h"
#include "sinr/feasibility.h"
#include "sinr/interference.h"
#include "sinr/power.h"
#include "util/rng.h"

namespace wagg {
namespace {

sinr::SinrParams params(double alpha = 3.0, double beta = 1.0) {
  sinr::SinrParams p;
  p.alpha = alpha;
  p.beta = beta;
  return p;
}

geom::Pointset family_points(int family, std::uint64_t seed) {
  switch (family) {
    case 0:
      return instance::uniform_square(100, 9.0, seed);
    case 1:
      return instance::clustered(6, 16, 60.0, 0.4, seed);
    case 2:
      return instance::exponential_chain(18, 1.6);
    case 3:
      return instance::perturbed_grid(10, 10, 1.0, 0.3, seed);
    case 4:
      return instance::spiral(100, 7.0);
    case 5:
      return instance::pareto_field(100, 1.2, seed);
    default:
      throw std::logic_error("unknown family");
  }
}

/// Random link set: pairs of random points (not a tree; exercises the
/// geometry and SINR layers away from the MST special case).
geom::LinkSet random_links(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  geom::Pointset pts;
  std::vector<geom::Link> links;
  for (std::size_t i = 0; i < 2 * count; ++i) {
    pts.push_back({rng.uniform(0, 30), rng.uniform(0, 30)});
  }
  for (std::size_t i = 0; i < count; ++i) {
    links.push_back(geom::Link{static_cast<std::int32_t>(2 * i),
                               static_cast<std::int32_t>(2 * i + 1)});
  }
  return geom::LinkSet(pts, links);
}

// --- geometry invariants ------------------------------------------------------

class GeometryFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeometryFuzz, LinkMetricInvariants) {
  const auto ls = random_links(24, GetParam());
  for (std::size_t i = 0; i < ls.size(); ++i) {
    for (std::size_t j = 0; j < ls.size(); ++j) {
      if (i == j) continue;
      // Symmetry of the node-set distance.
      EXPECT_DOUBLE_EQ(ls.link_distance(i, j), ls.link_distance(j, i));
      // d_ji connects a node of j with a node of i, so it dominates d(i,j).
      EXPECT_GE(ls.sinr_distance(j, i) + 1e-12, ls.link_distance(i, j));
      // Triangle-ish: d(i,j) <= d_ji <= d(i,j) + l_i + l_j.
      EXPECT_LE(ls.sinr_distance(j, i),
                ls.link_distance(i, j) + ls.length(i) + ls.length(j) + 1e-9);
    }
  }
}

TEST_P(GeometryFuzz, OrderingsArePermutationsAndSorted) {
  const auto ls = random_links(16, GetParam() + 100);
  const auto dec = ls.by_decreasing_length();
  const auto inc = ls.by_increasing_length();
  ASSERT_EQ(dec.size(), ls.size());
  for (std::size_t k = 0; k + 1 < dec.size(); ++k) {
    EXPECT_GE(ls.length(dec[k]) + 1e-15, ls.length(dec[k + 1]));
    EXPECT_LE(ls.length(inc[k]), ls.length(inc[k + 1]) + 1e-15);
  }
  auto sorted = dec;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t k = 0; k < sorted.size(); ++k) EXPECT_EQ(sorted[k], k);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeometryFuzz,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL));

// --- MST invariants -------------------------------------------------------------

class MstFuzz
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(MstFuzz, MstIsLightestAmongPerturbations) {
  const auto [family, seed] = GetParam();
  const auto pts = family_points(family, seed);
  const auto mst_edges = mst::euclidean_mst(pts);
  const double mst_weight = mst::total_weight(pts, mst_edges);
  // Cut property spot-check: swapping any tree edge for a random non-tree
  // edge that reconnects the two sides never reduces the weight.
  util::Rng rng(seed * 31 + 7);
  for (int trial = 0; trial < 10; ++trial) {
    auto edges = mst_edges;
    const std::size_t drop = rng.below(edges.size());
    const auto dropped = edges[drop];
    edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(drop));
    // Find the two components.
    mst::UnionFind uf(pts.size());
    for (const auto& e : edges) {
      uf.unite(static_cast<std::size_t>(e.u), static_cast<std::size_t>(e.v));
    }
    // Random reconnecting edge.
    for (int attempt = 0; attempt < 50; ++attempt) {
      const auto u = rng.below(pts.size());
      const auto v = rng.below(pts.size());
      if (u == v || uf.find(u) == uf.find(v)) continue;
      const double new_weight =
          mst::total_weight(pts, edges) + geom::distance(pts[u], pts[v]);
      EXPECT_GE(new_weight + 1e-9, mst_weight);
      break;
    }
    edges.push_back(dropped);
  }
}

TEST_P(MstFuzz, OrientationPreservesEdgeLengths) {
  const auto [family, seed] = GetParam();
  const auto pts = family_points(family, seed);
  const auto edges = mst::euclidean_mst(pts);
  const auto tree = mst::orient_toward_sink(pts, edges, 0);
  // Total link length equals total edge weight.
  double link_total = 0.0;
  for (std::size_t i = 0; i < tree.links.size(); ++i) {
    link_total += tree.links.length(i);
  }
  EXPECT_NEAR(link_total, mst::total_weight(pts, edges),
              1e-9 * std::max(1.0, link_total));
  // Every non-sink node has exactly one upward link; depths decrease along it.
  for (std::size_t v = 0; v < pts.size(); ++v) {
    if (static_cast<std::int32_t>(v) == tree.sink) continue;
    const auto li = tree.link_of_node[v];
    ASSERT_GE(li, 0);
    const auto& link = tree.links.link(static_cast<std::size_t>(li));
    EXPECT_EQ(link.sender, static_cast<std::int32_t>(v));
    EXPECT_EQ(tree.depth[static_cast<std::size_t>(link.receiver)] + 1,
              tree.depth[v]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MstFuzz,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5),
                       ::testing::Values(3ULL, 11ULL)));

// --- SINR invariants -------------------------------------------------------------

class SinrFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SinrFuzz, FeasibilitySubsetClosedUnderPowerControl) {
  const auto ls = random_links(8, GetParam() + 500);
  const auto prm = params();
  std::vector<std::size_t> all(ls.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const auto full = sinr::power_control_feasible(ls, all, prm);
  if (!full.feasible) return;
  // Every subset of a feasible set is feasible (drop one element).
  for (std::size_t drop = 0; drop < all.size(); ++drop) {
    std::vector<std::size_t> sub;
    for (std::size_t i : all) {
      if (i != drop) sub.push_back(i);
    }
    EXPECT_TRUE(sinr::power_control_feasible(ls, sub, prm).feasible) << drop;
  }
}

TEST_P(SinrFuzz, AffectanceScalesWithBetaAndAlpha) {
  const auto ls = random_links(6, GetParam() + 900);
  const auto p3 = sinr::uniform_power(ls, params(3.0));
  for (std::size_t i = 0; i < ls.size(); ++i) {
    for (std::size_t j = 0; j < ls.size(); ++j) {
      if (i == j) continue;
      const double a3 =
          sinr::log2_affectance(ls, params(3.0), p3, j, i);
      const double a4 =
          sinr::log2_affectance(ls, params(4.0), p3, j, i);
      // Higher alpha shrinks affectance iff the interferer is farther than
      // the link is long (log2(l_i/d_ji) < 0).
      const double ratio = std::log2(ls.length(i)) -
                           std::log2(ls.sinr_distance(j, i));
      if (ratio < 0) {
        EXPECT_LT(a4, a3 + 1e-12);
      } else {
        EXPECT_GE(a4 + 1e-12, a3);
      }
    }
  }
}

TEST_P(SinrFuzz, PaperOperatorMatchesUniformAffectanceWhenClamped) {
  // For equal-length links, I(j, i) = min(1, (l/d(i,j))^alpha) upper-bounds
  // the uniform-power affectance (which uses the >= sender-receiver
  // distance d_ji >= d(i,j)).
  util::Rng rng(GetParam());
  geom::Pointset pts;
  std::vector<geom::Link> links;
  for (int i = 0; i < 6; ++i) {
    const double x = rng.uniform(0, 40), y = rng.uniform(0, 40);
    pts.push_back({x, y});
    pts.push_back({x + 1.0, y});
    links.push_back(geom::Link{2 * i, 2 * i + 1});
  }
  const geom::LinkSet ls(pts, links);
  const auto prm = params();
  const auto power = sinr::uniform_power(ls, prm);
  for (std::size_t i = 0; i < ls.size(); ++i) {
    for (std::size_t j = 0; j < ls.size(); ++j) {
      if (i == j) continue;
      const double op = sinr::interference_between(ls, j, i, prm.alpha);
      const double aff =
          std::exp2(sinr::log2_affectance(ls, prm, power, j, i));
      EXPECT_GE(op + 1e-12, std::min(1.0, aff));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SinrFuzz,
                         ::testing::Values(1ULL, 5ULL, 9ULL, 13ULL));

// --- end-to-end invariants ------------------------------------------------------

class PipelineMatrix
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(PipelineMatrix, VerifiedPartitionSimulatesCorrectly) {
  const auto [family, mode_idx, seed] = GetParam();
  const auto pts = family_points(family, seed);
  core::PlannerConfig cfg;
  cfg.power_mode = static_cast<core::PowerMode>(mode_idx);
  const auto plan = core::plan_aggregation(pts, cfg);
  ASSERT_TRUE(plan.verified());
  ASSERT_TRUE(schedule::is_partition(plan.schedule(), plan.tree.links.size()));

  // Latency optimization must not change rate or content.
  const auto ordered = schedule::optimize_slot_order(plan.tree, plan.schedule());
  EXPECT_EQ(ordered.length(), plan.schedule().length());

  schedule::SimulationConfig sim;
  sim.num_frames = 6;
  sim.generation_period = plan.schedule().length();
  const auto rep = schedule::simulate_aggregation(plan.tree, ordered, sim);
  EXPECT_TRUE(rep.all_frames_completed);
  EXPECT_TRUE(rep.aggregates_correct);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PipelineMatrix,
    ::testing::Combine(
        ::testing::Values(0, 1, 2, 3, 4, 5),
        ::testing::Values(static_cast<int>(core::PowerMode::kUniform),
                          static_cast<int>(core::PowerMode::kOblivious),
                          static_cast<int>(core::PowerMode::kGlobal)),
        ::testing::Values(7ULL)));

TEST(PipelineInvariants, ScheduleLengthAtLeastInfeasibilityChi) {
  // The exact lower bound from the pairwise infeasibility graph never
  // exceeds the planner's schedule length (sanity of both sides).
  const auto pts = instance::uniform_square(16, 12.0, 3);
  core::PlannerConfig cfg;
  cfg.power_mode = core::PowerMode::kGlobal;
  const auto plan = core::plan_aggregation(pts, cfg);
  const auto oracle =
      schedule::power_control_oracle(plan.tree.links, cfg.sinr);
  const auto bound = analysis::min_slots_lower_bound(plan.tree.links, oracle);
  ASSERT_TRUE(bound.has_value());
  EXPECT_LE(static_cast<std::size_t>(*bound), plan.schedule().length());
}

TEST(PipelineInvariants, RepairIdempotent) {
  const auto pts = instance::uniform_square(80, 6.0, 9);
  core::PlannerConfig cfg;
  cfg.power_mode = core::PowerMode::kUniform;
  cfg.gamma = 0.5;  // force repairs
  const auto plan = core::plan_aggregation(pts, cfg);
  ASSERT_TRUE(plan.verified());
  // Repairing an already-repaired schedule is a no-op.
  const auto power = core::power_for_mode(plan.tree.links, cfg);
  const auto again = schedule::repair_schedule(
      plan.tree.links, plan.schedule(),
      schedule::JoinRule::running_loads(plan.tree.links, cfg.sinr, power));
  EXPECT_EQ(again.slots_split, 0u);
  EXPECT_EQ(again.schedule.slots, plan.schedule().slots);
}

TEST(PipelineInvariants, SubLinksetSchedulesNoLonger) {
  // Removing links never lengthens the (repaired) schedule... not true in
  // general for greedy algorithms, but holds for prefixes of the length
  // order: scheduling only the longest half uses at most the full colors.
  const auto pts = instance::uniform_square(120, 8.0, 15);
  core::PlannerConfig cfg;
  cfg.power_mode = core::PowerMode::kOblivious;
  const auto tree = mst::mst_tree(pts, 0);
  const auto full = core::schedule_links(tree.links, cfg);
  const auto order = tree.links.by_decreasing_length();
  const std::vector<std::size_t> half(order.begin(),
                                      order.begin() + order.size() / 2);
  const auto sub = tree.links.subset(half);
  const auto half_result = core::schedule_links(sub, cfg);
  EXPECT_LE(half_result.schedule.length(), full.schedule.length());
}

}  // namespace
}  // namespace wagg
