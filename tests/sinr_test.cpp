#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/planner.h"
#include "geom/linkset.h"
#include "instance/basic.h"
#include "instance/lowerbound.h"
#include "mst/mst.h"
#include "mst/tree.h"
#include "obs/metrics.h"
#include "sinr/feasibility.h"
#include "sinr/interference.h"
#include "sinr/model.h"
#include "sinr/power.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace wagg::sinr {
namespace {

SinrParams params(double alpha = 3.0, double beta = 1.0, double noise = 0.0) {
  SinrParams p;
  p.alpha = alpha;
  p.beta = beta;
  p.noise = noise;
  return p;
}

/// Two parallel unit links at horizontal separation `sep`.
geom::LinkSet parallel_pair(double sep) {
  geom::Pointset pts{{0, 0}, {0, 1}, {sep, 0}, {sep, 1}};
  return geom::LinkSet(pts, {geom::Link{0, 1}, geom::Link{2, 3}});
}

TEST(Model, Validation) {
  EXPECT_NO_THROW(params().validate());
  EXPECT_THROW(params(2.0).validate(), std::invalid_argument);
  EXPECT_THROW(params(3.0, 0.0).validate(), std::invalid_argument);
  EXPECT_THROW(params(3.0, 1.0, -1.0).validate(), std::invalid_argument);
}

TEST(Power, UniformIsFlat) {
  const auto ls = parallel_pair(5.0);
  const auto p = uniform_power(ls, params());
  EXPECT_DOUBLE_EQ(p.log2_power(0), p.log2_power(1));
  EXPECT_DOUBLE_EQ(p.power(0), 1.0);  // noise-free: C = 1
}

TEST(Power, LinearScalesWithLengthAlpha) {
  geom::Pointset pts{{0, 0}, {1, 0}, {10, 0}, {14, 0}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{2, 3}});
  const auto p = linear_power(ls, params(3.0));
  // P(1)/P(0) = (4/1)^3 = 64 -> log2 diff = 6.
  EXPECT_NEAR(p.log2_power(1) - p.log2_power(0), 6.0, 1e-12);
}

TEST(Power, ObliviousInterpolates) {
  geom::Pointset pts{{0, 0}, {1, 0}, {10, 0}, {14, 0}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{2, 3}});
  const auto p = oblivious_power(ls, 0.5, params(3.0));
  EXPECT_NEAR(p.log2_power(1) - p.log2_power(0), 3.0, 1e-12);  // (4^3)^0.5
}

TEST(Power, NoiseSetsInterferenceLimitedFloor) {
  geom::Pointset pts{{0, 0}, {2, 0}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}});
  const auto prm = params(3.0, 1.0, 0.125);
  const auto p = uniform_power(ls, prm);
  // P >= (1+eps) * beta * N * l^alpha = 1.5 * 0.125 * 8 = 1.5.
  EXPECT_GE(p.power(0), 1.5 - 1e-9);
  // And a single link must then be feasible despite the noise.
  const std::vector<std::size_t> solo{0};
  EXPECT_TRUE(is_feasible(ls, solo, prm, p));
}

TEST(Power, Validation) {
  const auto ls = parallel_pair(2.0);
  EXPECT_THROW(oblivious_power(ls, -0.1, params()), std::invalid_argument);
  EXPECT_THROW(oblivious_power(ls, 1.1, params()), std::invalid_argument);
}

TEST(Affectance, MatchesHandComputation) {
  const auto ls = parallel_pair(2.0);
  const auto p = uniform_power(ls, params(3.0));
  // I(1, 0) = (l_0 / d_10)^3 with d_10 = d(sender1, receiver0) = hypot(2,1).
  const double expected = std::pow(1.0 / std::hypot(2.0, 1.0), 3.0);
  EXPECT_NEAR(std::exp2(log2_affectance(ls, params(3.0), p, 1, 0)), expected,
              1e-12);
  // Self affectance is zero (log = -inf).
  EXPECT_EQ(log2_affectance(ls, params(3.0), p, 0, 0),
            -std::numeric_limits<double>::infinity());
}

TEST(Feasibility, FarApartPairIsFeasible) {
  const auto ls = parallel_pair(100.0);
  const std::vector<std::size_t> both{0, 1};
  EXPECT_TRUE(is_feasible(ls, both, params(), uniform_power(ls, params())));
}

TEST(Feasibility, ClosePairIsInfeasible) {
  // With beta = 2 the pair needs interference distance >= 2^(1/3) * length.
  const auto prm = params(3.0, 2.0);
  const auto ls = parallel_pair(0.5);
  const std::vector<std::size_t> both{0, 1};
  const auto rep = check_feasible(ls, both, prm, uniform_power(ls, prm));
  EXPECT_FALSE(rep.feasible);
  EXPECT_GT(rep.max_load, 1.0);
}

TEST(Feasibility, ThresholdAtUnitSinrBoundary) {
  // With alpha = 3, beta = 1, two parallel unit links, interference distance
  // hypot(sep, 1); SINR = hypot(sep,1)^3. Feasible iff hypot(sep,1) >= 1,
  // which always holds; with beta = 8 need hypot(sep,1)^3 >= 8 -> sep >= sqrt(3).
  const double boundary = std::sqrt(3.0);
  const std::vector<std::size_t> both{0, 1};
  auto prm = params(3.0, 8.0);
  const auto below = parallel_pair(boundary - 0.01);
  const auto above = parallel_pair(boundary + 0.01);
  EXPECT_FALSE(is_feasible(below, both, prm, uniform_power(below, prm)));
  EXPECT_TRUE(is_feasible(above, both, prm, uniform_power(above, prm)));
}

TEST(Feasibility, SharedNodeAlwaysInfeasible) {
  geom::Pointset pts{{0, 0}, {1, 0}, {2, 0}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{1, 2}});
  const std::vector<std::size_t> both{0, 1};
  EXPECT_TRUE(has_shared_node(ls, both));
  const auto rep = check_feasible(ls, both, params(), uniform_power(ls, params()));
  EXPECT_FALSE(rep.feasible);
  EXPECT_TRUE(rep.shared_node);
}

TEST(Feasibility, SubsetsOfFeasibleSetsAreFeasible) {
  util::Rng rng(3);
  const auto prm = params(3.0, 2.0);
  for (int trial = 0; trial < 20; ++trial) {
    // Random links in a box; test subset-closedness on feasible triples.
    geom::Pointset pts;
    for (int i = 0; i < 8; ++i) {
      pts.push_back({rng.uniform(0, 50), rng.uniform(0, 50)});
    }
    std::vector<geom::Link> links;
    for (int i = 0; i < 4; ++i) links.push_back(geom::Link{2 * i, 2 * i + 1});
    geom::LinkSet ls(pts, links);
    const auto power = uniform_power(ls, prm);
    std::vector<std::size_t> all{0, 1, 2, 3};
    if (!is_feasible(ls, all, prm, power)) continue;
    for (std::size_t drop = 0; drop < 4; ++drop) {
      std::vector<std::size_t> sub;
      for (std::size_t i = 0; i < 4; ++i) {
        if (i != drop) sub.push_back(i);
      }
      EXPECT_TRUE(is_feasible(ls, sub, prm, power)) << "trial " << trial;
    }
  }
}

TEST(Feasibility, EmptyAndSingleton) {
  const auto ls = parallel_pair(1.0);
  const auto p = uniform_power(ls, params());
  EXPECT_TRUE(is_feasible(ls, {}, params(), p));
  const std::vector<std::size_t> solo{0};
  EXPECT_TRUE(is_feasible(ls, solo, params(), p));
}

/// Up to k links with no shared node, picked in a seeded random order.
std::vector<std::size_t> disjoint_links(const geom::LinkView& links,
                                        std::size_t k, util::Rng& rng) {
  std::vector<std::size_t> order(links.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  std::unordered_set<std::int32_t> used;
  std::vector<std::size_t> picked;
  for (const std::size_t i : order) {
    if (picked.size() == k) break;
    const auto& link = links.link(i);
    if (used.count(link.sender) || used.count(link.receiver)) continue;
    used.insert(link.sender);
    used.insert(link.receiver);
    picked.push_back(i);
  }
  return picked;
}

bool same_report(const FeasibilityReport& a, const FeasibilityReport& b) {
  return a.feasible == b.feasible && a.max_load == b.max_load &&
         a.worst_link == b.worst_link && a.shared_node == b.shared_node;
}

TEST(FixedPower, LinearPassAgreesWithLogSpaceCheck) {
  // check_feasible's linear pass against the log-space loop on random sets
  // of 1 to 600 links without a shared node: three families; uniform,
  // linear and oblivious (tau 0.25, 0.5, 0.75) power and a power-control
  // vector; alpha 3, 2.5 and 4 (one, two and no square roots per entry)
  // and 3.3 (std::pow, which takes the log-space loop); noise 0 and 1e-6.
  // beta is scaled so that the reference's max load lands in [0.5, 2], so
  // both verdicts occur.
  util::Rng rng(17);
  std::size_t accepts = 0, rejects = 0, linear_runs = 0;
  for (const char* family : {"uniform", "cluster", "annulus"}) {
    const auto tree = mst::mst_tree(workload::make_family(family, 2000, 5), 0);
    const auto& links = tree.links;
    core::PlannerConfig global;
    global.power_mode = core::PowerMode::kGlobal;
    const auto solved = core::schedule_links(links, global).power;
    for (const double alpha : {3.0, 2.5, 4.0, 3.3}) {
      for (const double noise : {0.0, 1e-6}) {
        const auto prm = params(alpha, 1.0, noise);
        const std::vector<PowerAssignment> powers = {
            uniform_power(links, prm),          linear_power(links, prm),
            oblivious_power(links, 0.25, prm),  oblivious_power(links, 0.5, prm),
            oblivious_power(links, 0.75, prm),  solved};
        std::vector<std::size_t> sizes = {1, 2, 3, 4 + rng.below(60),
                                          64 + rng.below(240)};
        if (alpha == 3.0) sizes.push_back(600);
        for (const auto& power : powers) {
          for (const std::size_t k : sizes) {
            const auto set = disjoint_links(links, k, rng);
            ASSERT_EQ(set.size(), k) << family;
            auto scaled = prm;
            const double unit = check_feasible_log2(links, set, prm, power)
                                    .max_load;
            if (unit > 0.0) scaled.beta = std::exp2(rng.uniform(-1, 1)) / unit;
            const auto ref = check_feasible_log2(links, set, scaled, power);
            const auto got = check_feasible(links, set, scaled, power);
            const std::string where = std::string(family) + " alpha " +
                                      std::to_string(alpha) + " noise " +
                                      std::to_string(noise) + " " +
                                      power.description() + " k=" +
                                      std::to_string(k);
            ASSERT_EQ(got.feasible, ref.feasible) << where;
            EXPECT_LE(std::abs(got.max_load - ref.max_load),
                      1e-12 * ref.max_load)
                << where;
            if (alpha == 3.3 || k == 1) {
              EXPECT_TRUE(same_report(got, ref)) << where;
            } else if (!same_report(got, ref)) {
              ++linear_runs;
            }
            (ref.feasible ? accepts : rejects) += 1;
          }
        }
      }
    }
  }
  EXPECT_GE(accepts, 100u);
  EXPECT_GE(rejects, 100u);
  // The paths round differently, so reports that match to the last bit
  // everywhere would mean the linear pass never ran.
  EXPECT_GE(linear_runs, 100u);
}

TEST(FixedPower, VerdictsAgreeJustOutsideTheRoundingWindow) {
  // The two paths form the same loads with different roundings: they
  // differ by at most ~3e-15 relative on the plans' slots and by at most
  // 1e-12 in the test above. Their verdicts may therefore differ only when
  // the reference's max load lies within 1e-12 (relative) of
  // 1 + tolerance. Just outside that window, at
  // (1 + tolerance) * (1 -+ 1e-11), they must agree.
  util::Rng rng(23);
  const double tolerance = 1e-9;
  const auto tree = mst::mst_tree(workload::make_family("uniform", 1400, 9), 0);
  const auto& links = tree.links;
  std::size_t checked = 0;
  for (const double noise : {0.0, 1e-6}) {
    const auto prm = params(3.0, 1.0, noise);
    for (const auto& power :
         {oblivious_power(links, 0.5, prm), uniform_power(links, prm)}) {
      for (const std::size_t k : {2, 40, 300}) {
        const auto set = disjoint_links(links, k, rng);
        const double unit =
            check_feasible_log2(links, set, prm, power, tolerance).max_load;
        for (const double side : {-1.0, 1.0}) {
          auto scaled = prm;
          scaled.beta = (1.0 + tolerance) * (1.0 + side * 1e-11) / unit;
          const auto ref =
              check_feasible_log2(links, set, scaled, power, tolerance);
          const auto got = check_feasible(links, set, scaled, power, tolerance);
          ASSERT_EQ(ref.feasible, side < 0.0) << "k=" << k;
          EXPECT_EQ(got.feasible, ref.feasible)
              << "k=" << k << " noise " << noise << " side " << side
              << " loads " << got.max_load << " vs " << ref.max_load;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 24u);
}

TEST(FixedPower, OutOfRangeSetsTakeTheLogSpaceCheck) {
  // d = 0: the sender of link 1 sits on the receiver of link 0 (distinct
  // nodes, same position). Its entry is infinite, so the set runs the
  // log-space loop and reports an infinite load, as it always did.
  {
    const geom::Pointset pts{{0, 0}, {1, 0}, {1, 0}, {2, 0}, {50, 50},
                             {51, 50}};
    const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{2, 3},
                                 geom::Link{4, 5}});
    const std::vector<std::size_t> all{0, 1, 2};
    for (const double noise : {0.0, 1e-6}) {
      const auto prm = params(3.0, 1.0, noise);
      const auto power = uniform_power(ls, prm);
      const auto got = check_feasible(ls, all, prm, power);
      EXPECT_TRUE(same_report(got, check_feasible_log2(ls, all, prm, power)));
      EXPECT_FALSE(got.feasible);
      EXPECT_EQ(got.max_load, std::numeric_limits<double>::infinity());
      EXPECT_EQ(got.worst_link, 0u);
    }
  }

  // Sec 4's doubly-exponential chain, every other MST link: length ratios
  // of 2^256 and more put entries and powers far outside the window.
  {
    const auto prm = params(3.0, 1.0);
    const auto n = instance::max_doubly_exponential_size(0.5, 3.0, 1.0);
    const auto chain = instance::doubly_exponential_chain(n, 0.5, 3.0, 1.0);
    const auto tree = mst::mst_tree(chain.points, 0);
    std::vector<std::size_t> alternate;
    for (std::size_t i = 0; i < tree.links.size(); i += 2) {
      alternate.push_back(i);
    }
    ASSERT_GE(alternate.size(), 3u);
    for (const auto& power :
         {uniform_power(tree.links, prm), linear_power(tree.links, prm),
          oblivious_power(tree.links, 0.5, prm)}) {
      EXPECT_TRUE(same_report(
          check_feasible(tree.links, alternate, prm, power),
          check_feasible_log2(tree.links, alternate, prm, power)))
          << power.description();
    }
  }

  // Shared-node, empty and singleton sets report what they always did.
  {
    const geom::Pointset pts{{0, 0}, {1, 0}, {2, 0}, {9, 9}, {9, 10}};
    const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{1, 2},
                                 geom::Link{3, 4}});
    for (const double noise : {0.0, 1e-6}) {
      const auto prm = params(3.0, 1.0, noise);
      const auto power = uniform_power(ls, prm);
      const auto expect_unchanged = [&](const std::vector<std::size_t>& set) {
        const auto got = check_feasible(ls, set, prm, power);
        EXPECT_TRUE(same_report(got, check_feasible_log2(ls, set, prm, power)))
            << "k=" << set.size() << " noise " << noise;
        return got;
      };
      const auto shared = expect_unchanged({0, 1, 2});
      EXPECT_TRUE(shared.shared_node);
      EXPECT_FALSE(shared.feasible);
      EXPECT_EQ(shared.max_load, std::numeric_limits<double>::infinity());
      EXPECT_EQ(shared.worst_link, 3u);
      const auto empty = expect_unchanged({});
      EXPECT_TRUE(empty.feasible);
      EXPECT_EQ(empty.max_load, 0.0);
      EXPECT_EQ(empty.worst_link, 0u);
      const auto solo = expect_unchanged({2});
      EXPECT_TRUE(solo.feasible);
      EXPECT_EQ(solo.worst_link, noise > 0.0 ? 0u : 1u);
      EXPECT_EQ(solo.max_load > 0.0, noise > 0.0);
    }
  }
}

TEST(FixedPower, CountsGainEntries) {
  // sinr.gain_entries counts the terms a check forms: k(k - 1) for a set
  // of k links, whichever path runs, and none for a shared-node set.
  obs::Counter& entries = obs::Registry::global().counter("sinr.gain_entries");
  util::Rng rng(5);
  const auto tree = mst::mst_tree(workload::make_family("uniform", 300, 2), 0);
  const auto set = disjoint_links(tree.links, 37, rng);
  ASSERT_EQ(set.size(), 37u);
  for (const double alpha : {3.0, 3.3}) {
    const auto prm = params(alpha, 1.0);
    const auto power = oblivious_power(tree.links, 0.5, prm);
    const std::uint64_t before = entries.value();
    (void)check_feasible(tree.links, set, prm, power);
    EXPECT_EQ(entries.value() - before, 37u * 36u) << "alpha " << alpha;
  }
  const std::vector<std::size_t> shared{0, 1, 2, 3};
  const auto prm = params();
  ASSERT_TRUE(has_shared_node(tree.links, shared));
  const std::uint64_t before = entries.value();
  (void)check_feasible(tree.links, shared, prm, uniform_power(tree.links, prm));
  EXPECT_EQ(entries.value(), before);
}

TEST(PowerControl, PairSpectralRadiusExact) {
  const auto prm = params(3.0, 1.0);
  const auto ls = parallel_pair(2.0);
  const std::vector<std::size_t> both{0, 1};
  const auto res = power_control_feasible(ls, both, prm);
  // Symmetric geometry: rho = beta * (1/hypot(2,1))^3.
  EXPECT_NEAR(res.spectral_radius, std::pow(1.0 / std::hypot(2, 1), 3.0),
              1e-9);
  EXPECT_TRUE(res.feasible);
  ASSERT_EQ(res.log2_power.size(), 2u);
}

TEST(PowerControl, RescuesAsymmetricPairThatUniformCannot) {
  // A long link next to a short one: uniform power fails, power control
  // succeeds by boosting the long link.
  geom::Pointset pts{{0, 0}, {16, 0}, {20, 0}, {21, 0}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{3, 2}});
  const auto prm = params(3.0, 2.0);
  const std::vector<std::size_t> both{0, 1};
  EXPECT_FALSE(is_feasible(ls, both, prm, uniform_power(ls, prm)));
  const auto res = power_control_feasible(ls, both, prm);
  ASSERT_TRUE(res.feasible);
  // The certified power vector must pass the exact check.
  const auto embedded = embed_slot_power(ls, both, res);
  EXPECT_TRUE(is_feasible(ls, both, prm, embedded));
  // Long link gets more power.
  EXPECT_GT(embedded.log2_power(0), embedded.log2_power(1));
}

TEST(PowerControl, DetectsInfeasiblePair) {
  // Two crossing-ish links sharing a midpoint region: mutual geometric mean
  // of gains >= 1 -> infeasible under ANY power.
  geom::Pointset pts{{0, 0}, {10, 0}, {5, 0.1}, {5, 10}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{3, 2}});
  const auto prm = params(3.0, 1.0);
  const std::vector<std::size_t> both{0, 1};
  const auto res = power_control_feasible(ls, both, prm);
  EXPECT_FALSE(res.feasible);
  EXPECT_GE(res.spectral_radius, 1.0);
}

TEST(PowerControl, AgreesWithBruteForceSearchOnTriples) {
  // Two-sided validation on random triples:
  //  - feasible verdicts must come with a power vector passing the exact
  //    SINR check (certification);
  //  - clearly infeasible verdicts (rho >= 1.1) must not be contradicted by
  //    an exhaustive log-space power grid.
  util::Rng rng(17);
  const auto prm = params(3.0, 1.0);
  int feasible_checked = 0, infeasible_checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    geom::Pointset pts;
    for (int i = 0; i < 6; ++i) {
      pts.push_back({rng.uniform(0, 12), rng.uniform(0, 12)});
    }
    geom::LinkSet ls(pts,
                     {geom::Link{0, 1}, geom::Link{2, 3}, geom::Link{4, 5}});
    const std::vector<std::size_t> all{0, 1, 2};
    if (has_shared_node(ls, all)) continue;
    const auto res = power_control_feasible(ls, all, prm);
    if (res.feasible) {
      const auto embedded = embed_slot_power(ls, all, res);
      EXPECT_TRUE(is_feasible(ls, all, prm, embedded)) << "trial " << trial;
      ++feasible_checked;
    } else if (res.spectral_radius >= 1.1 && infeasible_checked < 6) {
      bool grid_feasible = false;
      for (double p0 = -30; p0 <= 30 && !grid_feasible; p0 += 1.0) {
        for (double p1 = -30; p1 <= 30 && !grid_feasible; p1 += 1.0) {
          for (double p2 = -30; p2 <= 30 && !grid_feasible; p2 += 1.0) {
            PowerAssignment pa(std::vector<double>{p0, p1, p2});
            grid_feasible = is_feasible(ls, all, prm, pa);
          }
        }
      }
      EXPECT_FALSE(grid_feasible)
          << "trial " << trial << " rho=" << res.spectral_radius;
      ++infeasible_checked;
    }
  }
  EXPECT_GE(feasible_checked, 3);
  EXPECT_GE(infeasible_checked, 3);
}

TEST(PowerControl, PerronPowersCertifiedOnChains) {
  // The exponential chain is the classic case where uniform power needs
  // Omega(n) slots but power control schedules interleaved subsets.
  const auto pts = instance::exponential_chain(10, 2.0);
  const auto tree = mst::mst_tree(pts, 0);
  const auto prm = params(3.0, 1.0);
  // Try the odd links as one slot.
  std::vector<std::size_t> odd;
  for (std::size_t i = 1; i < tree.links.size(); i += 2) odd.push_back(i);
  const auto res = power_control_feasible(tree.links, odd, prm);
  if (res.feasible) {
    const auto embedded = embed_slot_power(tree.links, odd, res);
    EXPECT_TRUE(is_feasible(tree.links, odd, prm, embedded));
  }
  // Either way the solver must return a definite verdict with finite rho.
  EXPECT_TRUE(std::isfinite(res.spectral_radius));
}

TEST(PowerControl, NoiseRequiresFiniteMargin) {
  const auto prm = params(3.0, 1.0, 0.01);
  const auto ls = parallel_pair(4.0);
  const std::vector<std::size_t> both{0, 1};
  const auto res = power_control_feasible(ls, both, prm);
  ASSERT_TRUE(res.feasible);
  const auto embedded = embed_slot_power(ls, both, res);
  EXPECT_TRUE(is_feasible(ls, both, prm, embedded));
}

TEST(PowerControl, EmptyAndSingleton) {
  const auto ls = parallel_pair(1.0);
  EXPECT_TRUE(power_control_feasible(ls, {}, params()).feasible);
  const std::vector<std::size_t> solo{1};
  const auto res = power_control_feasible(ls, solo, params());
  EXPECT_TRUE(res.feasible);
  EXPECT_DOUBLE_EQ(res.spectral_radius, 0.0);
}

/// Final slots of a global-power plan plus first-fit probes (a slot and one
/// outside link with no shared node), the sets repair and verify hand to
/// the oracle.
std::vector<std::vector<std::size_t>> slots_and_probes(
    const geom::LinkSet& links, const SinrParams& prm, std::uint64_t seed) {
  core::PlannerConfig config;
  config.sinr = prm;
  config.power_mode = core::PowerMode::kGlobal;
  const auto plan = core::schedule_links(links, config);
  util::Rng rng(seed);
  std::vector<std::vector<std::size_t>> sets;
  for (const auto& slot : plan.schedule.slots) {
    sets.push_back(slot);
    for (int probe = 0; probe < 4; ++probe) {
      auto set = slot;
      set.push_back(rng.below(links.size()));
      if (!has_shared_node(links, set)) sets.push_back(std::move(set));
    }
  }
  return sets;
}

bool same_result(const PowerControlResult& a, const PowerControlResult& b) {
  return a.feasible == b.feasible && a.shared_node == b.shared_node &&
         a.iterations == b.iterations &&
         a.spectral_radius == b.spectral_radius &&
         a.log2_power == b.log2_power;
}

TEST(PowerControl, LinearKernelAgreesWithLogSpaceKernel) {
  // The linear kernel must reach the log-space kernel's verdict after the
  // same number of iterations, with the same spectral radius up to
  // rounding, on the sets the planner actually asks about — rejects
  // included. alpha = 3 takes one square root per entry, 2.5 a fourth
  // root, 4 none, and 2.7 (2 * alpha not an integer) std::pow.
  struct Case {
    const char* name;
    geom::Pointset points;
    double alpha;
  };
  const std::vector<Case> cases = {
      {"uniform", instance::uniform_square(700, 100.0, 5), 3.0},
      {"clustered", instance::clustered(12, 40, 100.0, 2.0, 6), 3.0},
      {"exponential-chain", instance::exponential_chain(40, 1.6), 3.0},
      {"uniform-alpha2.5", instance::uniform_square(400, 100.0, 7), 2.5},
      {"uniform-alpha4", instance::uniform_square(400, 100.0, 8), 4.0},
      {"uniform-alpha2.7", instance::uniform_square(400, 100.0, 9), 2.7},
  };
  int accepts = 0, rejects = 0, bitwise_different = 0;
  for (const auto& c : cases) {
    const auto prm = params(c.alpha, 1.0);
    const auto tree = mst::mst_tree(c.points, 0);
    for (const auto& set : slots_and_probes(tree.links, prm, 11)) {
      const auto fast = power_control_feasible(tree.links, set, prm);
      const auto ref = power_control_feasible_log2(tree.links, set, prm);
      ASSERT_EQ(fast.feasible, ref.feasible) << c.name << " k=" << set.size();
      ASSERT_EQ(fast.iterations, ref.iterations)
          << c.name << " k=" << set.size();
      if (std::isfinite(ref.spectral_radius)) {
        EXPECT_NEAR(fast.spectral_radius, ref.spectral_radius,
                    1e-12 * ref.spectral_radius)
            << c.name << " k=" << set.size();
      } else {
        EXPECT_EQ(fast.spectral_radius, ref.spectral_radius) << c.name;
      }
      if (fast.feasible) {
        ASSERT_EQ(fast.log2_power.size(), set.size());
        const auto power = embed_slot_power(tree.links, set, fast);
        EXPECT_TRUE(check_feasible(tree.links, set, prm, power).feasible)
            << c.name << " k=" << set.size();
        ++accepts;
      } else {
        ++rejects;
      }
      if (set.size() >= 3 && !same_result(fast, ref)) ++bitwise_different;
    }
  }
  EXPECT_GE(accepts, 30);
  EXPECT_GE(rejects, 10);
  // The kernels round differently, so results that match to the last bit
  // everywhere would mean the linear kernel never ran.
  EXPECT_GT(bitwise_different, 0);
}

TEST(PowerControl, OutOfRangeSetsTakeTheLogSpaceKernel) {
  // Sets whose gain entries leave [2^-900, 2^900] must return exactly the
  // log-space kernel's result.
  const auto expect_log_space = [](const geom::LinkView& links,
                                   const std::vector<std::size_t>& set,
                                   const SinrParams& prm, const char* name) {
    const auto fast = power_control_feasible(links, set, prm);
    const auto ref = power_control_feasible_log2(links, set, prm);
    EXPECT_TRUE(same_result(fast, ref)) << name;
    return fast;
  };

  // Doubly-exponential chain: every other MST link (no shared node); the
  // length ratios reach 2^256 and more, far outside the window at alpha 3.
  {
    const auto prm = params(3.0, 1.0);
    const auto n = instance::max_doubly_exponential_size(0.5, 3.0, 1.0);
    const auto chain = instance::doubly_exponential_chain(n, 0.5, 3.0, 1.0);
    const auto tree = mst::mst_tree(chain.points, 0);
    std::vector<std::size_t> alternate;
    for (std::size_t i = 0; i < tree.links.size(); i += 2) {
      alternate.push_back(i);
    }
    ASSERT_GE(alternate.size(), 3u);
    expect_log_space(tree.links, alternate, prm, "doubly-exponential chain");
  }

  // 1e-9 and 1e9 extents in one set: three short links at the origin and
  // one long link 1e9 away. At alpha = 3 the entries stay inside the
  // window (at most (1e18)^3 ~ 2^180), so the linear kernel keeps them; at
  // alpha = 40 they leave it.
  {
    const geom::Pointset pts{{0, 0},   {1e-9, 0},      {0, 1e-6},
                             {1e-9, 1e-6}, {1e-6, 0},  {1e-6, 1e-9},
                             {1e9, 0}, {1e9, 1e9}};
    const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{2, 3},
                                 geom::Link{4, 5}, geom::Link{6, 7}});
    const std::vector<std::size_t> all{0, 1, 2, 3};
    const auto prm3 = params(3.0, 1.0);
    const auto fast = power_control_feasible(ls, all, prm3);
    const auto ref = power_control_feasible_log2(ls, all, prm3);
    EXPECT_EQ(fast.feasible, ref.feasible);
    EXPECT_EQ(fast.iterations, ref.iterations);
    EXPECT_NEAR(fast.spectral_radius, ref.spectral_radius,
                1e-12 * ref.spectral_radius);
    expect_log_space(ls, all, params(40.0, 1.0), "1e+-9 extents, alpha 40");
  }

  // d = 0: the sender of link 1 sits on the receiver of link 0 (distinct
  // nodes, same position), so M_01 is infinite and no power can help.
  {
    const geom::Pointset pts{{0, 0}, {1, 0}, {1, 0}, {2, 0}, {50, 50},
                             {51, 50}};
    const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{2, 3},
                                 geom::Link{4, 5}});
    const std::vector<std::size_t> all{0, 1, 2};
    const auto res = expect_log_space(ls, all, params(), "d = 0");
    EXPECT_FALSE(res.feasible);
  }

  // Noise always takes the log-space kernel (it certifies through
  // check_feasible after a Foschini–Miljanic pass).
  {
    const auto tree = mst::mst_tree(instance::uniform_square(60, 100.0, 3), 0);
    const auto prm = params(3.0, 1.0, 1e-9);
    for (const auto& set : slots_and_probes(tree.links, prm, 4)) {
      expect_log_space(tree.links, set, prm, "noise");
    }
  }
}

/// A scalar, single-threaded copy of the linear kernel as it was before its
/// rows were split over threads and filled two entries at a time: the
/// reference that power_control_feasible must match bit for bit.
namespace reference {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kLinearMin = 0x1p-900;
constexpr double kLinearMax = 0x1p+900;

double gain_power(double alpha, double x) {
  const int quarters = alpha <= 16.0 && 2.0 * alpha == std::round(2.0 * alpha)
                           ? static_cast<int>(2.0 * alpha)
                           : -1;
  if (quarters < 0) return std::pow(x, 0.5 * alpha);
  double v = (quarters & 2) != 0 ? std::sqrt(x) : 1.0;
  if ((quarters & 1) != 0) v *= std::sqrt(std::sqrt(x));
  for (int i = 0; i < quarters / 4; ++i) v *= x;
  return v;
}

double dot(const double* a, const double* x, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * x[i];
    s1 += a[i + 1] * x[i + 1];
    s2 += a[i + 2] * x[i + 2];
    s3 += a[i + 3] * x[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * x[i];
  return (s0 + s1) + (s2 + s3);
}

/// nullopt where the kernel hands the set to the log-space kernel.
std::optional<PowerControlResult> linear(const geom::LinkView& links,
                                         std::span<const std::size_t> set,
                                         const SinrParams& params) {
  const PowerControlOptions options;
  const std::size_t k = set.size();
  std::vector<double> sx(k), sy(k), rx(k), ry(k), len2(k);
  for (std::size_t a = 0; a < k; ++a) {
    sx[a] = links.sender_pos(set[a]).x;
    sy[a] = links.sender_pos(set[a]).y;
    rx[a] = links.receiver_pos(set[a]).x;
    ry[a] = links.receiver_pos(set[a]).y;
    const double len = links.length(set[a]);
    len2[a] = len * len;
  }
  std::vector<double> m(k * k), x(k, 1.0), y(k);
  for (std::size_t a = 0; a < k; ++a) {
    bool in_range = true;
    double sum = 0.0;
    for (std::size_t b = 0; b < k; ++b) {
      if (b == a) continue;
      const double dx = sx[b] - rx[a];
      const double dy = sy[b] - ry[a];
      const double v =
          params.beta * gain_power(params.alpha,
                                   len2[a] / (dx * dx + dy * dy));
      in_range &= (v >= kLinearMin) & (v <= kLinearMax);
      m[a * k + b] = v;
      sum += v;
    }
    if (!in_range) return std::nullopt;
    y[a] = sum;
  }
  PowerControlResult result;
  double rho_upper = kInf;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++result.iterations;
    if (iter > 0) {
      for (std::size_t a = 0; a < k; ++a) y[a] = dot(&m[a * k], x.data(), k);
    }
    double max_ratio = 0.0, max_y = 0.0, min_y = kInf;
    for (std::size_t a = 0; a < k; ++a) {
      max_ratio = std::max(max_ratio, y[a] / x[a]);
      max_y = std::max(max_y, y[a]);
      min_y = std::min(min_y, y[a]);
    }
    if (!(min_y >= kLinearMin && max_y <= kLinearMax)) return std::nullopt;
    const bool upper_conclusive = max_ratio < 1.0 - options.strictness;
    const bool converged = std::isfinite(rho_upper) &&
                           std::abs(max_ratio - rho_upper) <=
                               options.tolerance * std::max(1.0, rho_upper);
    rho_upper = max_ratio;
    if (upper_conclusive && iter > 0) break;
    if (!(min_y / max_y >= kLinearMin)) return std::nullopt;
    for (std::size_t a = 0; a < k; ++a) x[a] = y[a] / max_y;
    if (converged) break;
  }
  result.spectral_radius = rho_upper;
  if (rho_upper < 1.0 - options.strictness) {
    result.log2_power.resize(k);
    for (std::size_t a = 0; a < k; ++a) result.log2_power[a] = std::log2(x[a]);
    result.feasible = true;
  }
  return result;
}

}  // namespace reference

/// MST links with no shared node whose endpoints all keep `spacing` from
/// every earlier pick's, scanned in a seeded random order: the wider the
/// spacing, the lower the interference, so prefixes of one list give sets
/// of any size on both sides of the feasibility threshold.
std::vector<std::size_t> spaced_links(const geom::LinkView& links,
                                      double spacing, std::uint64_t seed) {
  std::vector<std::size_t> order(links.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  util::Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  const double min_d2 = spacing * spacing;
  std::vector<geom::Point> taken;
  std::vector<std::size_t> picked;
  for (const std::size_t i : order) {
    const geom::Point ends[] = {links.sender_pos(i), links.receiver_pos(i)};
    const bool clear = std::all_of(taken.begin(), taken.end(), [&](const auto& q) {
      return std::all_of(std::begin(ends), std::end(ends), [&](const auto& p) {
        return (p.x - q.x) * (p.x - q.x) + (p.y - q.y) * (p.y - q.y) >= min_d2;
      });
    });
    if (!clear) continue;
    picked.push_back(i);
    taken.insert(taken.end(), std::begin(ends), std::end(ends));
  }
  return picked;
}

TEST(PowerControl, RowParallelKernelIsBitIdenticalAndThreadSafe) {
  // From 256 links on, the linear kernel splits its rows over the helper
  // pool, and it fills each row two entries at a time. Neither may change
  // a bit: against the scalar reference, on sizes either side of the split
  // (the zeroed diagonal cuts each row into two runs, and runs of odd
  // length end in the scalar tail), at every gain form, accepts and
  // rejects alike.
  const auto tree = mst::mst_tree(instance::uniform_square(3000, 100.0, 21), 0);
  const std::size_t sizes[] = {3, 4, 5, 64, 255, 256, 257, 384, 700};
  struct Set {
    std::vector<std::size_t> links;
    SinrParams params;
    PowerControlResult expected;
  };
  std::vector<Set> sets;
  for (const double alpha : {3.0, 2.5, 4.0, 2.7}) {
    for (const double spacing : {0.5, 1.0, 1.5}) {
      const auto picked = spaced_links(tree.links, spacing, 31);
      for (const std::size_t k : sizes) {
        // k = 700 is the churn-global-8k slot size; its dense-spacing
        // rejects run all 256 iterations, too slow for the TSan job.
        if (k == 700 && spacing < 1.5) continue;
        ASSERT_GE(picked.size(), k) << "spacing " << spacing;
        Set set{{picked.begin(), picked.begin() + static_cast<std::ptrdiff_t>(k)},
                params(alpha, 1.0),
                {}};
        const auto linear = reference::linear(tree.links, set.links, set.params);
        ASSERT_TRUE(linear.has_value()) << "alpha " << alpha << " k=" << k;
        set.expected = *linear;
        sets.push_back(std::move(set));
      }
    }
  }

  obs::Counter& parallel_rows =
      obs::Registry::global().counter("sinr.parallel_rows");
  const std::uint64_t rows_before = parallel_rows.value();
  std::size_t large_accepts = 0, large_rejects = 0;
  std::uint64_t large_rows = 0;
  for (const auto& set : sets) {
    const auto got = power_control_feasible(tree.links, set.links, set.params);
    EXPECT_TRUE(same_result(got, set.expected))
        << "alpha " << set.params.alpha << " k=" << set.links.size()
        << " rho " << got.spectral_radius << " vs "
        << set.expected.spectral_radius;
    if (set.links.size() >= 256) {
      large_rows += set.links.size() * set.expected.iterations;
      (set.expected.feasible ? large_accepts : large_rejects) += 1;
    }
  }
  EXPECT_GE(large_accepts, 4u);
  EXPECT_GE(large_rejects, 4u);
  // Every row of every build and product of a large set went through the
  // parallel path.
  EXPECT_EQ(parallel_rows.value() - rows_before, large_rows);

  // Four concurrent callers share the helper pool, each taking every
  // fourth large set; each still gets the reference result.
  std::vector<const Set*> large_sets;
  for (const auto& set : sets) {
    if (set.links.size() >= 256) large_sets.push_back(&set);
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (std::size_t i = t; i < large_sets.size(); i += 4) {
        const Set& set = *large_sets[i];
        const auto got =
            power_control_feasible(tree.links, set.links, set.params);
        if (!same_result(got, set.expected)) ++mismatches;
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(large_sets.size(), 16u);
}

TEST(Interference, OperatorBasics) {
  geom::Pointset pts{{0, 0}, {1, 0}, {4, 0}, {6, 0}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{2, 3}});
  // I(0, 1) = min(1, (l_0 / d(0,1))^3) = (1/3)^3.
  EXPECT_NEAR(interference_between(ls, 0, 1, 3.0), 1.0 / 27.0, 1e-12);
  // I(1, 0) = min(1, (2/3)^3).
  EXPECT_NEAR(interference_between(ls, 1, 0, 3.0), 8.0 / 27.0, 1e-12);
  // Clamping at 1 for overlapping links.
  geom::Pointset pts2{{0, 0}, {10, 0}, {1, 0}, {2, 0}};
  const geom::LinkSet ls2(pts2, {geom::Link{0, 1}, geom::Link{2, 3}});
  EXPECT_DOUBLE_EQ(interference_between(ls2, 0, 1, 3.0), 1.0);
  // Self is zero.
  EXPECT_DOUBLE_EQ(interference_between(ls, 0, 0, 3.0), 0.0);
}

TEST(Interference, SharedNodeClampsToOne) {
  geom::Pointset pts{{0, 0}, {1, 0}, {3, 0}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{1, 2}});
  EXPECT_DOUBLE_EQ(interference_between(ls, 0, 1, 3.0), 1.0);
}

TEST(Interference, DirectionalSums) {
  geom::Pointset pts{{0, 0}, {1, 0}, {4, 0}, {6, 0}, {10, 0}, {14, 0}};
  const geom::LinkSet ls(
      pts, {geom::Link{0, 1}, geom::Link{2, 3}, geom::Link{4, 5}});
  // Link 0 (len 1) vs longer links 1 (len 2, distance 3) and 2 (len 4,
  // distance 9).
  const double out0 = outgoing_to_longer(ls, 0, 3.0);
  EXPECT_NEAR(out0,
              std::pow(1.0 / 3.0, 3.0) + std::pow(1.0 / 9.0, 3.0), 1e-12);
  // Link 2 has no longer links.
  EXPECT_DOUBLE_EQ(outgoing_to_longer(ls, 2, 3.0), 0.0);
  // incoming_from_shorter(2) = I(0,2) + I(1,2), distances 9 and 4.
  EXPECT_NEAR(incoming_from_shorter(ls, 2, 3.0),
              std::pow(1.0 / 9.0, 3.0) + std::pow(2.0 / 4.0, 3.0), 1e-12);
}

TEST(Interference, Lemma1AuditBoundedOnRandomMsts) {
  // The paper's Lemma 1: I(i, T_i^+) = O(1) on MST links. Measured constants:
  // ~6.7 on uniform deployments, ~15.3 on grids (equal-length ties put every
  // link in T_i^+), plateauing as n grows — O(1) as claimed.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto pts = instance::uniform_square(150, 100.0, seed);
    const auto tree = mst::mst_tree(pts, 0);
    EXPECT_LT(lemma1_statistic(tree.links, 3.0), 10.0) << "seed " << seed;
  }
  const auto chain = instance::exponential_chain(24, 1.5);
  EXPECT_LT(lemma1_statistic(mst::mst_tree(chain, 0).links, 3.0), 10.0);
  // Grids: larger constant, but flat in n (the O(1) claim).
  const double g12 =
      lemma1_statistic(mst::mst_tree(instance::grid(12, 12, 1.0), 0).links, 3.0);
  const double g20 =
      lemma1_statistic(mst::mst_tree(instance::grid(20, 20, 1.0), 0).links, 3.0);
  EXPECT_LT(g12, 18.0);
  EXPECT_LT(g20, 18.0);
  EXPECT_NEAR(g12, g20, 1.0);
}

TEST(Interference, Theorem3StatisticOnFeasibleSets) {
  // For sets feasible with beta = 3^alpha, incoming interference from
  // shorter links is O(1). Verify on far-separated parallel links.
  geom::Pointset pts;
  std::vector<geom::Link> links;
  for (int i = 0; i < 6; ++i) {
    pts.push_back({i * 50.0, 0.0});
    pts.push_back({i * 50.0, 1.0});
    links.push_back(geom::Link{2 * i, 2 * i + 1});
  }
  const geom::LinkSet ls(pts, links);
  const auto prm = params(3.0, 27.0);  // beta = 3^alpha
  std::vector<std::size_t> all{0, 1, 2, 3, 4, 5};
  ASSERT_TRUE(is_feasible(ls, all, prm, uniform_power(ls, prm)));
  EXPECT_LT(theorem3_statistic(ls, all, 3.0), 2.0);
}

}  // namespace
}  // namespace wagg::sinr
