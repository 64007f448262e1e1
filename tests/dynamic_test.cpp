#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "conflict/conflict_index.h"
#include "conflict/fgraph.h"
#include "dynamic/dynamic_planner.h"
#include "dynamic/mutation.h"
#include "mst/incremental.h"
#include "mst/mst.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "runtime/plan_service.h"
#include "schedule/verify.h"
#include "util/clock.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace wagg::dynamic {
namespace {

/// From-scratch MST weight of the alive points, for exactness checks.
double recomputed_weight(const mst::IncrementalMst& inc) {
  geom::Pointset points;
  for (const auto id : inc.alive_ids()) points.push_back(inc.position(id));
  if (points.size() < 2) return 0.0;
  const auto edges = mst::dense_prim_mst(points);
  return mst::total_weight(points, edges);
}

void expect_mst_exact(const mst::IncrementalMst& inc, const char* where) {
  ASSERT_TRUE(mst::is_spanning_tree(inc.num_alive(), inc.compact_edges()))
      << where;
  EXPECT_NEAR(inc.weight(), recomputed_weight(inc),
              1e-9 * std::max(1.0, recomputed_weight(inc)))
      << where;
}

TEST(IncrementalMst, AddMatchesFromScratch) {
  auto points = workload::make_family("uniform", 48, 11);
  mst::IncrementalMst inc(points);
  expect_mst_exact(inc, "initial");
  util::Rng rng(99);
  for (int step = 0; step < 25; ++step) {
    inc.add_point({rng.uniform(0.0, 7.0), rng.uniform(0.0, 7.0)});
    expect_mst_exact(inc, "after add");
  }
}

TEST(IncrementalMst, RemoveAndMoveMatchFromScratch) {
  auto points = workload::make_family("uniform", 64, 5);
  mst::IncrementalMst inc(points);
  util::Rng rng(7);
  for (int step = 0; step < 40; ++step) {
    const auto ids = inc.alive_ids();
    const auto victim = ids[rng.below(ids.size())];
    if (step % 2 == 0 && inc.num_alive() > 8) {
      inc.remove_point(victim);
    } else {
      const auto& from = inc.position(victim);
      inc.move_point(victim, {from.x + rng.normal() * 0.5,
                              from.y + rng.normal() * 0.5});
    }
    expect_mst_exact(inc, "after remove/move");
  }
}

TEST(IncrementalMst, MoveIntoLongEdgeReplacesIt) {
  // Moving a far-away node between the endpoints of a long edge must drop
  // that edge — the regression a lazy "reattach only the moved node" update
  // would miss.
  geom::Pointset points = {{0, 0}, {10, 0}, {100, 100}};
  mst::IncrementalMst inc(points);
  inc.move_point(2, {5.0, 0.1});
  expect_mst_exact(inc, "after move into edge");
  // The direct 0 <-> 1 edge (length 10) is no longer in the tree.
  for (const auto& e : inc.edges()) {
    EXPECT_FALSE(e.a == 0 && e.b == 1);
  }
}

TEST(IncrementalMst, DeferredBulkRebuildMatchesFromScratch) {
  auto points = workload::make_family("uniform", 50, 8);
  mst::IncrementalMst inc(points);
  util::Rng rng(31);
  for (int step = 0; step < 12; ++step) {
    inc.add_point_deferred({rng.uniform(0.0, 7.0), rng.uniform(0.0, 7.0)});
  }
  const auto ids = inc.alive_ids();
  inc.remove_point_deferred(ids[5]);
  inc.move_point_deferred(ids[10], {3.0, 3.0});
  inc.rebuild();
  expect_mst_exact(inc, "after bulk rebuild");
  // Immediate updates keep working after a rebuild.
  inc.add_point({1.5, 1.5});
  expect_mst_exact(inc, "immediate after rebuild");
}

/// Replays a churn trace directly against an IncrementalMst, mirroring the
/// planner's kind -> operation mapping.
void apply_epoch_to_mst(mst::IncrementalMst& inc,
                        const std::vector<Mutation>& epoch) {
  for (const auto& m : epoch) {
    switch (m.kind) {
      case Mutation::Kind::kAdd:
        (void)inc.add_point(m.position);
        break;
      case Mutation::Kind::kRemove:
        inc.remove_point(m.node);
        break;
      case Mutation::Kind::kMove:
        inc.move_point(m.node, m.position);
        break;
    }
  }
}

/// The dynamic-tree engine's acceptance sweep: across several scales and
/// families, mixed traces (moves + net growth + net shrink) must keep the
/// maintained tree weight-equal to a from-scratch Prim run after EVERY
/// epoch.
TEST(IncrementalMst, MixedTraceSweepMatchesPrimAcrossScales) {
  for (const std::size_t n : {24u, 72u, 160u}) {
    for (const std::string family : {"uniform", "cluster"}) {
      ChurnParams params;
      params.epochs = 6;
      params.rate = 0.08;
      params.grow_rate = 0.05;
      const auto points = workload::make_family(family, n, 29);
      const auto grow_trace = dynamic::make_churn_trace(points, params, 51);
      mst::IncrementalMst growing(points);
      for (const auto& epoch : grow_trace) {
        apply_epoch_to_mst(growing, epoch);
        expect_mst_exact(growing, (family + " grow").c_str());
      }
      EXPECT_GT(growing.num_alive(), points.size())
          << family << " n=" << n;

      params.grow_rate = 0.0;
      params.shrink_rate = 0.08;
      const auto shrink_trace = dynamic::make_churn_trace(points, params, 52);
      mst::IncrementalMst shrinking(points);
      for (const auto& epoch : shrink_trace) {
        apply_epoch_to_mst(shrinking, epoch);
        expect_mst_exact(shrinking, (family + " shrink").c_str());
      }
      EXPECT_LT(shrinking.num_alive(), points.size())
          << family << " n=" << n;
    }
  }
}

/// Duplicate-distance ties: coincident points (zero-length edges), nodes
/// moved exactly onto other nodes, and the all-ties unit grid. Weight
/// equality must survive every one of them — the (w2, a, b) total order is
/// what keeps the swaps deterministic when w2 alone cannot decide.
TEST(IncrementalMst, DuplicatePositionsAndTiedDistancesStayExact) {
  // Unit grid: every adjacent distance ties with every other.
  const auto grid_points = workload::make_family("grid", 25, 1);
  mst::IncrementalMst inc(grid_points);
  expect_mst_exact(inc, "unit grid seed");
  // Duplicate of an existing point (distance 0 to its twin, ties beyond).
  const auto dup = inc.add_point(grid_points[7]);
  expect_mst_exact(inc, "coincident add");
  // Another coincident pair on a different site.
  (void)inc.add_point(grid_points[12]);
  expect_mst_exact(inc, "second coincident add");
  // Move a node exactly onto another node's position.
  inc.move_point(3, grid_points[18]);
  expect_mst_exact(inc, "move onto occupied site");
  // Move a far node exactly onto a grid site adjacent to the duplicate.
  inc.move_point(24, grid_points[8]);
  expect_mst_exact(inc, "move onto adjacent site");
  // Removing one of a coincident pair keeps the tree exact.
  inc.remove_point(dup);
  expect_mst_exact(inc, "remove twin");
  inc.remove_point(7);
  expect_mst_exact(inc, "remove the other twin");
}

TEST(ChurnTrace, GrowScheduleTrendsUpward) {
  const auto points = workload::make_family("uniform", 40, 3);
  ChurnParams plain;
  plain.epochs = 10;
  plain.rate = 0.05;
  ChurnParams grow = plain;
  grow.grow_rate = 0.1;
  const auto base = make_churn_trace(points, plain, 42);
  const auto grown = make_churn_trace(points, grow, 42);
  ASSERT_EQ(base.size(), grown.size());
  // The first epoch's mixed prefix is byte-identical: grow events are
  // appended AFTER the rate-driven draws, so the legacy stream survives.
  ASSERT_GE(grown[0].size(), base[0].size());
  for (std::size_t m = 0; m < base[0].size(); ++m) {
    EXPECT_EQ(grown[0][m], base[0][m]) << "mutation " << m;
  }
  // Net growth: final alive count strictly above the initial.
  std::ptrdiff_t net = 0;
  std::size_t extra_adds = 0;
  for (std::size_t e = 0; e < grown.size(); ++e) {
    for (const auto& m : grown[e]) {
      if (m.kind == Mutation::Kind::kAdd) ++net;
      if (m.kind == Mutation::Kind::kRemove) --net;
    }
    extra_adds += grown[e].size() - base[e].size();
  }
  EXPECT_GT(net, 0);
  EXPECT_GE(extra_adds, grown.size());  // >= 1 appended add per epoch
  // Determinism.
  EXPECT_EQ(grown, make_churn_trace(points, grow, 42));
}

TEST(ChurnTrace, ShrinkScheduleBottomsOutAtMinNodes) {
  const auto points = workload::make_family("uniform", 16, 5);
  ChurnParams params;
  params.epochs = 12;
  params.rate = 0.05;
  params.add_weight = 0.0;  // no arrivals at all
  params.move_weight = 1.0;
  params.remove_weight = 0.0;
  params.shrink_rate = 0.3;
  const auto trace = make_churn_trace(points, params, 9);
  std::size_t alive = points.size();
  for (const auto& epoch : trace) {
    for (const auto& m : epoch) {
      if (m.kind == Mutation::Kind::kAdd) ++alive;
      if (m.kind == Mutation::Kind::kRemove) {
        --alive;
        EXPECT_NE(m.node, 0);  // the sink survives shrink schedules
      }
    }
    EXPECT_GE(alive, params.min_nodes);
  }
  // The schedule actually bottomed out instead of oscillating via adds.
  EXPECT_EQ(alive, params.min_nodes);
  // A planner survives the whole shrink-to-the-floor session.
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;
  DynamicPlanner planner(points, options);
  for (const auto& epoch : trace) {
    const auto report = planner.apply(epoch);
    EXPECT_TRUE(report.valid) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_tree_match) << "epoch " << report.epoch;
  }
  EXPECT_EQ(planner.num_nodes(), params.min_nodes);
}

TEST(ChurnParams, RejectsNegativeGrowShrink) {
  ChurnParams params;
  params.epochs = 4;
  params.grow_rate = -0.1;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params.grow_rate = 0.0;
  params.shrink_rate = -1.0;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params.shrink_rate = 0.5;
  EXPECT_NO_THROW(params.validate());
}

TEST(DynamicPlanner, HighChurnBulkEpochsStayValid) {
  // rate 0.3 on n=64 -> ~19 mutations per epoch, well past the bulk-rebuild
  // threshold, and dirty fractions that exercise the fallback path.
  const auto points = workload::make_family("uniform", 64, 17);
  ChurnParams params;
  params.epochs = 6;
  params.rate = 0.3;
  const auto trace = make_churn_trace(points, params, 23);

  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;
  DynamicPlanner planner(points, options);
  for (const auto& epoch : trace) {
    const auto report = planner.apply(epoch);
    EXPECT_TRUE(report.valid) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_valid) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_tree_match) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_store_match) << "epoch " << report.epoch;
  }
}

TEST(IncrementalMst, RejectsDeadIds) {
  mst::IncrementalMst inc(workload::make_family("uniform", 8, 1));
  inc.remove_point(3);
  EXPECT_THROW(inc.remove_point(3), std::invalid_argument);
  EXPECT_THROW(inc.move_point(3, {0, 0}), std::invalid_argument);
  EXPECT_THROW((void)inc.position(3), std::invalid_argument);
  EXPECT_THROW(inc.remove_point(99), std::invalid_argument);
}

TEST(ChurnTrace, DeterministicAndStructured) {
  const auto points = workload::make_family("uniform", 40, 3);
  ChurnParams params;
  params.epochs = 12;
  params.rate = 0.1;
  const auto a = make_churn_trace(points, params, 42);
  const auto b = make_churn_trace(points, params, 42);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 12u);
  for (const auto& epoch : a) {
    EXPECT_GE(epoch.size(), 1u);
    for (const auto& mutation : epoch) {
      if (mutation.kind == Mutation::Kind::kRemove) {
        EXPECT_NE(mutation.node, 0);  // sink protected
      }
    }
  }
  const auto c = make_churn_trace(points, params, 43);
  EXPECT_NE(a, c);
}

TEST(ChurnParams, Validation) {
  ChurnParams params;
  EXPECT_THROW(params.validate(), std::invalid_argument);  // epochs == 0
  params.epochs = 5;
  EXPECT_NO_THROW(params.validate());
  params.rate = 0.0;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params.rate = 0.1;
  params.add_weight = params.remove_weight = params.move_weight = 0.0;
  EXPECT_THROW(params.validate(), std::invalid_argument);
}

/// The acceptance check of the incremental engine: for several instance
/// families under seeded churn, every epoch's incremental plan must pass a
/// from-scratch verification and its tree must weigh the same as a
/// from-scratch MST (audit mode computes both).
TEST(DynamicPlanner, AuditedChurnStaysValidAcrossFamilies) {
  // expchain matters: its doubly-exponential length spread makes the
  // power-control oracle's iterative bound conservative and non-monotone
  // under member departure — the regression that forced membership-exact
  // slot certification.
  for (const std::string family :
       {"uniform", "cluster", "noisygrid", "expchain"}) {
    const auto points = workload::make_family(family, 72, 9);
    ChurnParams params;
    params.epochs = 10;
    params.rate = 0.06;
    const auto trace = make_churn_trace(points, params, 1234);

    DynamicOptions options;
    options.config = workload::mode_config(core::PowerMode::kGlobal);
    options.audit = true;
    DynamicPlanner planner(points, options);
    EXPECT_TRUE(planner.last_report().valid) << family;
    EXPECT_TRUE(planner.last_report().audit_valid) << family;

    for (const auto& epoch : trace) {
      const auto report = planner.apply(epoch);
      EXPECT_TRUE(report.valid) << family << " epoch " << report.epoch;
      EXPECT_TRUE(report.audit_valid)
          << family << " epoch " << report.epoch;
      EXPECT_TRUE(report.audit_tree_match)
          << family << " epoch " << report.epoch;
      EXPECT_TRUE(report.audit_store_match)
          << family << " epoch " << report.epoch;
      EXPECT_GT(report.rate, 0.0);
      EXPECT_EQ(report.num_links + 1, report.num_nodes);
    }
  }
}

/// Randomized equivalence harness for the persistent conflict index: across
/// a churn trace, after EVERY epoch the index must answer every link's
/// conflict row exactly like (a) a from-scratch bucketed subset query and
/// (b) the brute-force O(n^2) conflict graph over the same snapshot.
TEST(DynamicPlanner, ConflictIndexMatchesFromScratchEveryEpoch) {
  for (const std::string family : {"uniform", "cluster", "expchain"}) {
    const auto points = workload::make_family(family, 64, 31);
    ChurnParams params;
    params.epochs = 8;
    params.rate = 0.08;
    const auto trace = make_churn_trace(points, params, 77);

    DynamicOptions options;
    options.config = workload::mode_config(core::PowerMode::kGlobal);
    DynamicPlanner planner(points, options);
    const auto spec = core::spec_for_mode(options.config);

    const auto check_epoch = [&](std::size_t epoch) {
      const auto& links = planner.snapshot().links;
      ASSERT_EQ(planner.conflict_index().size(), links.size())
          << family << " epoch " << epoch;
      std::vector<std::size_t> all(links.size());
      std::iota(all.begin(), all.end(), std::size_t{0});
      const auto index_rows =
          planner.conflict_index().neighbors(links, spec, all);
      const auto scratch_rows = conflict::conflict_neighbors_bucketed(
          links, spec, all);
      EXPECT_EQ(index_rows, scratch_rows) << family << " epoch " << epoch;
      const auto brute = conflict::build_conflict_graph(links, spec);
      for (std::size_t u = 0; u < links.size(); ++u) {
        const auto expected = brute.neighbors(u);
        ASSERT_EQ(index_rows[u].size(), expected.size())
            << family << " epoch " << epoch << " row " << u;
        for (std::size_t a = 0; a < expected.size(); ++a) {
          EXPECT_EQ(index_rows[u][a], expected[a])
              << family << " epoch " << epoch << " row " << u;
        }
      }
    };
    check_epoch(0);
    for (const auto& epoch : trace) {
      (void)planner.apply(epoch);
      check_epoch(planner.epoch());
    }
  }
}

TEST(DynamicPlanner, AuditChecksConflictIndex) {
  const auto points = workload::make_family("uniform", 48, 9);
  ChurnParams params;
  params.epochs = 4;
  params.rate = 0.1;
  const auto trace = make_churn_trace(points, params, 21);

  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;
  DynamicPlanner planner(points, options);
  EXPECT_TRUE(planner.last_report().audit_index_match);
  for (const auto& epoch : trace) {
    const auto report = planner.apply(epoch);
    EXPECT_TRUE(report.audit_index_match) << "epoch " << report.epoch;
  }
}

TEST(EpochReport, AuditOkRequiresEveryVerdict) {
  EpochReport report;
  EXPECT_TRUE(report.audit_ok());  // not audited: nothing to fail
  report.audited = true;
  EXPECT_FALSE(report.audit_ok());
  report.audit_valid = true;
  report.audit_tree_match = true;
  report.audit_store_match = true;
  report.audit_index_match = true;
  report.audit_power_valid = true;
  EXPECT_TRUE(report.audit_ok());
  for (bool EpochReport::*verdict :
       {&EpochReport::audit_valid, &EpochReport::audit_tree_match,
        &EpochReport::audit_store_match, &EpochReport::audit_index_match,
        &EpochReport::audit_power_valid}) {
    EpochReport failed = report;
    failed.*verdict = false;
    EXPECT_FALSE(failed.audit_ok());
  }
}

/// The documented apply() contract: a throwing mutation mid-batch leaves
/// the plan on the previous epoch, and the next successful epoch replans
/// (and re-verifies) from scratch — including after partially applied
/// prefixes on both the per-mutation and the bulk path.
TEST(DynamicPlanner, BadMutationMidBatchThenGoodEpochRecovers) {
  const auto points = workload::make_family("uniform", 40, 13);
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;
  DynamicPlanner planner(points, options);
  const auto epoch_before = planner.epoch();
  const auto slots_before = planner.snapshot().schedule.length();

  // Per-mutation path: good prefix, then a dead-node removal.
  std::vector<Mutation> batch;
  batch.push_back({Mutation::Kind::kAdd, -1, {1.5, 2.5}});
  batch.push_back({Mutation::Kind::kRemove, 7, {}});
  batch.push_back({Mutation::Kind::kRemove, 7, {}});  // 7 is dead now
  batch.push_back({Mutation::Kind::kAdd, -1, {2.5, 1.5}});
  EXPECT_THROW((void)planner.apply(batch), std::invalid_argument);
  EXPECT_EQ(planner.epoch(), epoch_before);  // plan stayed on the old epoch
  EXPECT_EQ(planner.snapshot().schedule.length(), slots_before);

  // Next good epoch must re-anchor from scratch and stay audit-clean.
  const auto report =
      planner.apply(Mutation{Mutation::Kind::kAdd, -1, {3.0, 3.0}});
  EXPECT_TRUE(report.full_replan);  // carried state was invalidated
  EXPECT_TRUE(report.valid);
  EXPECT_TRUE(report.audit_valid);
  EXPECT_TRUE(report.audit_tree_match);
  EXPECT_TRUE(report.audit_store_match);
  EXPECT_TRUE(report.audit_index_match);

  // Bulk path: enough mutations to defer tree updates, with a bad one in
  // the middle; the catch must rebuild the tree AND invalidate carry-over.
  std::vector<Mutation> bulk;
  for (int i = 0; i < 6; ++i) {
    bulk.push_back({Mutation::Kind::kAdd, -1, {4.0 + 0.1 * i, 4.0}});
  }
  bulk.push_back({Mutation::Kind::kRemove, 0, {}});  // the sink
  for (int i = 0; i < 6; ++i) {
    bulk.push_back({Mutation::Kind::kAdd, -1, {5.0 + 0.1 * i, 5.0}});
  }
  EXPECT_THROW((void)planner.apply(bulk), std::invalid_argument);
  const auto after_bulk =
      planner.apply(Mutation{Mutation::Kind::kMove, 3, {0.5, 0.5}});
  EXPECT_TRUE(after_bulk.full_replan);
  EXPECT_TRUE(after_bulk.valid);
  EXPECT_TRUE(after_bulk.audit_valid);
  EXPECT_TRUE(after_bulk.audit_tree_match);
  EXPECT_TRUE(after_bulk.audit_store_match);
  EXPECT_TRUE(after_bulk.audit_index_match);
}

/// Regression: an add or move onto an alive node's exact position used to
/// be accepted. It left a zero-length tree link, and every later epoch,
/// the reconcile_full recovery included, threw "LinkStore: length must be
/// positive". Such a mutation now throws before the tree changes, on the
/// per-mutation and the bulk path, and the session carries on.
TEST(DynamicPlanner, CoincidentMutationIsRejectedAndSessionRecovers) {
  const auto points = workload::make_family("uniform", 256, 3);
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kOblivious);
  options.audit = true;
  DynamicPlanner planner(points, options);
  const auto expect_clean = [](const EpochReport& report) {
    EXPECT_TRUE(report.valid) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_valid) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_tree_match) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_store_match) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_index_match) << "epoch " << report.epoch;
  };

  EXPECT_THROW((void)planner.apply(Mutation{Mutation::Kind::kAdd, -1,
                                            points[5]}),
               std::invalid_argument);
  EXPECT_EQ(planner.epoch(), 0u);
  EXPECT_EQ(planner.num_nodes(), points.size());
  for (NodeId node = 10; node < 13; ++node) {
    const geom::Point to{points[node].x + 0.125, points[node].y};
    expect_clean(planner.apply(Mutation{Mutation::Kind::kMove, node, to}));
  }

  // A move onto another node's point is rejected; a move onto the node's
  // own point, and an add merely close to a node, are legal.
  EXPECT_THROW(
      (void)planner.apply(Mutation{Mutation::Kind::kMove, 7, points[8]}),
      std::invalid_argument);
  expect_clean(planner.apply(Mutation{Mutation::Kind::kMove, 9, points[9]}));
  const geom::Point beside{std::nextafter(points[5].x, 1e9), points[5].y};
  expect_clean(planner.apply(Mutation{Mutation::Kind::kAdd, -1, beside}));

  // Bulk path (deferred tree updates): the coincident add sits mid-batch,
  // on a point that an earlier mutation of the same batch occupied.
  std::vector<Mutation> bulk;
  for (int i = 0; i < 40; ++i) {
    bulk.push_back({Mutation::Kind::kAdd, -1, {3.0 + 0.01 * i, 7.0}});
  }
  bulk.push_back({Mutation::Kind::kAdd, -1, bulk[20].position});
  EXPECT_THROW((void)planner.apply(bulk), std::invalid_argument);
  const geom::Point up{points[20].x, points[20].y + 0.25};
  expect_clean(planner.apply(Mutation{Mutation::Kind::kMove, 20, up}));
}

TEST(DynamicPlanner, RejectsCoincidentInitialPoints) {
  auto points = workload::make_family("uniform", 32, 4);
  points[17] = points[4];
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  try {
    DynamicPlanner planner(points, options);
    ADD_FAILURE() << "coincident initial points were accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("initial points 4 and 17 coincide"),
              std::string::npos)
        << e.what();
  }
}

/// Regression: a FAILED epoch loses its touched-node list, and the recovery
/// reconcile refreshes store lengths with set_length — which fires no event
/// when the value is bit-identical. A node that rotated around its tree
/// parent (length unchanged, position changed) would leave the conflict
/// index holding its OLD endpoint position unless the reconcile re-seeds
/// the index from scratch.
TEST(DynamicPlanner, FailedEpochWithLengthPreservingMoveResyncsIndex) {
  // Node 1 sits at distance exactly 5 from the sink; (5,0) -> (3,4) keeps
  // hypot == 5.0 bit-for-bit. Nodes 2 and 3 form a second tree edge whose
  // conflict relation to link 0-1 depends on node 1's actual position.
  const geom::Pointset points = {{0, 0}, {5, 0}, {3, 12}, {3, 17}};
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;
  DynamicPlanner planner(points, options);

  std::vector<Mutation> batch;
  batch.push_back({Mutation::Kind::kMove, 1, {3, 4}});
  batch.push_back({Mutation::Kind::kRemove, 42, {}});  // unknown node
  EXPECT_THROW((void)planner.apply(batch), std::invalid_argument);

  // The move stayed applied (documented prefix semantics); the next good
  // epoch must see node 1 at (3, 4) in the conflict index too.
  const auto report =
      planner.apply(Mutation{Mutation::Kind::kAdd, -1, {20.0, 0.0}});
  EXPECT_TRUE(report.valid);
  EXPECT_TRUE(report.audit_valid);
  EXPECT_TRUE(report.audit_index_match);
}

/// The row-cache variant of the staleness regression above: warm the cache
/// with an explicit full-row query, fail an epoch after a prefix of applied
/// mutations, and require that the recovery reconcile dropped every cached
/// row — a survivor would serve pre-failure geometry from the cache even
/// though the grids themselves were re-seeded correctly.
TEST(DynamicPlanner, FailedEpochCannotLeaveStaleCachedRows) {
  const geom::Pointset points = {{0, 0}, {5, 0}, {3, 12}, {3, 17}};
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;
  DynamicPlanner planner(points, options);
  const auto spec = core::spec_for_mode(options.config);

  // Materialize every row so the failure path has cached state to corrupt.
  {
    const auto& links = planner.snapshot().links;
    std::vector<std::size_t> all(links.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    (void)planner.conflict_index().neighbors(links, spec, all);
    ASSERT_GT(planner.conflict_index().rows_cached(), 0u);
  }

  // Length-preserving rotation, then a throwing mutation: the prefix stays
  // applied but the epoch fails and the planner reconciles from scratch.
  std::vector<Mutation> batch;
  batch.push_back({Mutation::Kind::kMove, 1, {3, 4}});
  batch.push_back({Mutation::Kind::kRemove, 42, {}});
  EXPECT_THROW((void)planner.apply(batch), std::invalid_argument);

  const auto report =
      planner.apply(Mutation{Mutation::Kind::kAdd, -1, {20.0, 0.0}});
  EXPECT_TRUE(report.valid);
  EXPECT_TRUE(report.audit_index_match);

  // Belt and braces beyond the audit: both the mixed query and the all-hit
  // repeat must match a from-scratch row build on the recovered snapshot.
  const auto& links = planner.snapshot().links;
  std::vector<std::size_t> all(links.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const auto scratch = conflict::conflict_neighbors_bucketed(links, spec, all);
  EXPECT_EQ(planner.conflict_index().neighbors(links, spec, all), scratch);
  EXPECT_EQ(planner.conflict_index().neighbors(links, spec, all), scratch);
}

/// The store's change log is the dirty set: after the open, and after every
/// epoch that follows a successful one, the epoch's dirty count is the
/// number of live links the log names. The session mixes one-mutation
/// epochs, a bulk epoch (tree rebuilt, store reconciled) and a rejected
/// batch, whose successor replans everything instead.
TEST(DynamicPlanner, DirtyLinksAreTheLoggedLiveLinks) {
  const auto points = workload::make_family("uniform", 64, 29);
  ChurnParams params;
  params.epochs = 8;
  params.rate = 0.02;
  const auto trace = make_churn_trace(points, params, 41);

  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  DynamicPlanner planner(points, options);
  const auto logged_live = [&] {
    const auto& store = planner.link_store();
    const auto changed = store.changed();
    return static_cast<std::size_t>(
        std::count_if(changed.begin(), changed.end(),
                      [&](geom::LinkId id) { return store.alive(id); }));
  };
  EXPECT_EQ(planner.last_report().dirty_links, logged_live());
  EXPECT_EQ(logged_live(), planner.snapshot().links.size());  // the open

  std::size_t partial = 0;  // epochs that left some link clean
  bool after_failure = false;
  const auto run = [&](const std::vector<Mutation>& batch) {
    const auto report = planner.apply(batch);
    if (!after_failure) {
      EXPECT_EQ(report.dirty_links, logged_live()) << "epoch " << report.epoch;
      if (report.dirty_links < report.num_links) ++partial;
    }
    after_failure = false;
  };
  for (std::size_t e = 0; e < trace.size(); ++e) {
    run(trace[e]);
    const auto& snap = planner.snapshot();
    const std::size_t k = snap.ids[1] == planner.sink() ? 2 : 1;
    if (e == 2) {
      // Twelve moves at once: past the bulk threshold max(8, n / 8).
      std::vector<Mutation> bulk;
      for (std::size_t i = 0; i < snap.ids.size() && bulk.size() < 12; ++i) {
        if (snap.ids[i] == planner.sink()) continue;
        bulk.push_back({Mutation::Kind::kMove, snap.ids[i],
                        {snap.points[i].x + 0.01, snap.points[i].y}});
      }
      run(bulk);
    } else if (e == 5) {
      const std::vector<Mutation> rejected = {
          {Mutation::Kind::kMove, snap.ids[k],
           {snap.points[k].x + 0.25, snap.points[k].y}},
          {Mutation::Kind::kRemove, planner.sink(), {}}};
      EXPECT_THROW((void)planner.apply(rejected), std::invalid_argument);
      after_failure = true;
    }
  }
  EXPECT_GE(partial, 5u);
}

/// DynamicPlanner follows the rule of zero: a session moved into a new
/// object mid-trace keeps planning audit-clean and ends on the same plan as
/// an unmoved twin, and a copy is an independent session.
TEST(DynamicPlanner, MovedSessionMatchesUnmovedTwin) {
  static_assert(std::is_copy_constructible_v<DynamicPlanner> &&
                std::is_copy_assignable_v<DynamicPlanner> &&
                std::is_move_constructible_v<DynamicPlanner> &&
                std::is_move_assignable_v<DynamicPlanner>);
  const auto points = workload::make_family("uniform", 64, 31);
  ChurnParams params;
  params.epochs = 8;
  params.rate = 0.05;
  const auto trace = make_churn_trace(points, params, 47);

  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;
  DynamicPlanner twin(points, options);
  DynamicPlanner original(points, options);
  const std::size_t half = trace.size() / 2;
  for (std::size_t e = 0; e < half; ++e) {
    (void)twin.apply(trace[e]);
    EXPECT_TRUE(original.apply(trace[e]).audit_ok()) << "epoch " << e + 1;
  }
  DynamicPlanner moved(std::move(original));
  for (std::size_t e = half; e < trace.size(); ++e) {
    (void)twin.apply(trace[e]);
    const auto report = moved.apply(trace[e]);
    EXPECT_TRUE(report.valid) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_ok()) << "epoch " << report.epoch;
  }

  const auto expect_same_plan = [](const DynamicPlanner& x,
                                   const DynamicPlanner& y) {
    const auto& a = x.snapshot();
    const auto& b = y.snapshot();
    EXPECT_EQ(a.ids, b.ids);
    ASSERT_EQ(a.links.size(), b.links.size());
    for (std::size_t i = 0; i < a.links.size(); ++i) {
      EXPECT_EQ(a.links.id_of(i), b.links.id_of(i));
      EXPECT_EQ(a.links.link(i), b.links.link(i));
      EXPECT_EQ(a.links.length(i), b.links.length(i));
    }
    EXPECT_EQ(a.schedule.slots, b.schedule.slots);
    EXPECT_EQ(a.rate, b.rate);
    EXPECT_EQ(x.power().log2_powers(), y.power().log2_powers());
  };
  expect_same_plan(moved, twin);

  // Planning on a copy leaves its source alone.
  DynamicPlanner copy(moved);
  EXPECT_TRUE(
      copy.apply(Mutation{Mutation::Kind::kAdd, -1, {-3.25, -3.25}}).audit_ok());
  EXPECT_EQ(copy.num_nodes(), twin.num_nodes() + 1);
  expect_same_plan(moved, twin);
}

/// Cross-checks the published row-cache telemetry: across a churn run every
/// row served was either a cache hit or a miss, so the registry counters
/// must satisfy hits + misses == rows_queried exactly, and a warmed cache
/// must actually be hitting.
TEST(DynamicPlanner, RowCacheCountersSatisfyQueryIdentity) {
  obs::Registry::global().reset();
  const auto points = workload::make_family("uniform", 48, 17);
  ChurnParams params;
  params.epochs = 6;
  params.rate = 0.08;
  const auto trace = make_churn_trace(points, params, 33);

  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;  // audit double-queries, driving the hit path
  DynamicPlanner planner(points, options);
  for (const auto& epoch : trace) (void)planner.apply(epoch);

  auto& reg = obs::Registry::global();
  const auto hits = reg.counter("conflict.row_cache_hits").value();
  const auto misses = reg.counter("conflict.row_cache_misses").value();
  EXPECT_EQ(hits + misses, reg.counter("conflict.rows_queried").value());
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);

  // The same identity must hold on the index's own cumulative stats.
  const auto stats = planner.conflict_index().stats();
  EXPECT_EQ(stats.row_cache_hits + stats.row_cache_misses,
            stats.rows_queried);
}

TEST(DynamicPlanner, FixedPowerModeStaysValid) {
  const auto points = workload::make_family("uniform", 60, 4);
  ChurnParams params;
  params.epochs = 8;
  params.rate = 0.08;
  const auto trace = make_churn_trace(points, params, 77);

  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kUniform);
  options.audit = true;
  DynamicPlanner planner(points, options);
  for (const auto& epoch : trace) {
    const auto report = planner.apply(epoch);
    EXPECT_TRUE(report.audit_valid) << "epoch " << report.epoch;
  }
}

TEST(DynamicPlanner, IndependentVerifyOfSnapshot) {
  const auto points = workload::make_family("twotier", 64, 21);
  ChurnParams params;
  params.epochs = 6;
  params.rate = 0.1;
  const auto trace = make_churn_trace(points, params, 5);

  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  DynamicPlanner planner(points, options);
  for (const auto& epoch : trace) (void)planner.apply(epoch);

  // Verify the final snapshot with a fresh oracle, independent of any state
  // the planner carries.
  const auto& snapshot = planner.snapshot();
  const auto oracle =
      core::oracle_for_mode(snapshot.links, options.config);
  const auto verification =
      schedule::verify_schedule(snapshot.links, snapshot.schedule, oracle);
  EXPECT_TRUE(verification.ok());
  EXPECT_TRUE(schedule::is_partition(snapshot.schedule,
                                     snapshot.links.size()));
}

TEST(DynamicPlanner, LowChurnMostlyReusesAndPatchesLocally) {
  const auto points = workload::make_family("uniform", 200, 2);
  ChurnParams params;
  params.epochs = 6;
  params.rate = 0.01;
  const auto trace = make_churn_trace(points, params, 3);

  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  DynamicPlanner planner(points, options);
  for (const auto& epoch : trace) {
    const auto report = planner.apply(epoch);
    EXPECT_FALSE(report.full_replan) << "epoch " << report.epoch;
    EXPECT_LT(report.dirty_links, report.num_links / 2)
        << "epoch " << report.epoch;
  }
}

TEST(DynamicPlanner, TinyThresholdForcesFullReplanAndStaysValid) {
  const auto points = workload::make_family("uniform", 64, 13);
  ChurnParams params;
  params.epochs = 5;
  params.rate = 0.1;
  const auto trace = make_churn_trace(points, params, 8);

  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.full_replan_fraction = 1e-9;  // everything falls back
  options.audit = true;
  DynamicPlanner planner(points, options);
  for (const auto& epoch : trace) {
    const auto report = planner.apply(epoch);
    EXPECT_TRUE(report.full_replan) << "epoch " << report.epoch;
    EXPECT_TRUE(report.valid) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_valid) << "epoch " << report.epoch;
  }
}

// ------------------------------------------------------------ stage clock

/// Every stage's entry equals the self time of its spans in the tracer,
/// which this then clears: one clock feeds both.
void expect_one_clock(const core::StageTimes& times,
                      const std::string& where) {
  std::map<std::string, double> self;
  for (const auto& row : obs::profile_global_tracer().rows) {
    self[row.name] = row.exclusive_ms;
  }
  obs::Tracer::global().clear();
  for (std::size_t s = 0; s < core::kNumStages; ++s) {
    const auto stage = static_cast<core::Stage>(s);
    EXPECT_NEAR(self[core::stage_name(stage)], times[stage], 1e-6)
        << where << ": " << core::stage_name(stage);
  }
}

TEST(StageClock, SpansAndReportsShareOneClock) {
  const auto points = workload::make_family("uniform", 512, 3);
  obs::Tracer::global().enable();
  obs::Tracer::global().clear();
  for (const auto mode :
       {core::PowerMode::kGlobal, core::PowerMode::kOblivious}) {
    // The last fraction sends every epoch through the full replan.
    for (const auto& [rate, fraction] :
         {std::pair{0.01, 0.35}, {0.05, 0.35}, {0.05, 0.01}}) {
      ChurnParams params;
      params.epochs = 4;
      params.rate = rate;
      DynamicOptions options;
      options.config = workload::mode_config(mode);
      options.full_replan_fraction = fraction;
      const std::string name = core::to_string(mode) + " " +
                               std::to_string(rate) + "/" +
                               std::to_string(fraction);
      DynamicPlanner planner(points, options);
      expect_one_clock(planner.last_report().times, name + " open");
      for (const auto& epoch : make_churn_trace(points, params, 17)) {
        const auto report = planner.apply(epoch);
        EXPECT_EQ(report.full_replan, fraction < 0.35) << name;
        expect_one_clock(planner.last_report().times, name);
      }
      // A rejected batch (a move, then removing the sink) leaves its move
      // applied; the next epoch re-seeds the index inside conflict_maintain.
      const auto& snapshot = planner.snapshot();
      const std::size_t k = snapshot.ids[1] == planner.sink() ? 2 : 1;
      const std::vector<Mutation> rejected = {
          {Mutation::Kind::kMove,
           snapshot.ids[k],
           {snapshot.points[k].x + 0.25, snapshot.points[k].y}},
          {Mutation::Kind::kRemove, planner.sink(), {}}};
      EXPECT_THROW((void)planner.apply(rejected), std::invalid_argument);
      obs::Tracer::global().clear();  // the failed epoch's spans
      const auto recovered = planner.apply(std::vector<Mutation>{});
      EXPECT_TRUE(recovered.full_replan) << name;
      EXPECT_TRUE(recovered.valid) << name;
      expect_one_clock(recovered.times, name + " after a rejected batch");
    }
  }
  // Static plans run the same stage spans.
  core::StageTimes times;
  (void)core::plan_aggregation(
      points, workload::mode_config(core::PowerMode::kGlobal), &times);
  expect_one_clock(times, "static plan");
  obs::Tracer::global().disable();
}

TEST(StageClock, OpenTimesTheSeedTreeAsMstUpdate) {
  const auto points = workload::make_family("uniform", 1024, 4);
  double prim_ms = std::numeric_limits<double>::infinity();  // best of 3
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = util::Clock::now();
    (void)mst::euclidean_mst(points);
    prim_ms = std::min(prim_ms, util::ms_since(start));
  }
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kOblivious);
  obs::Tracer::global().enable();
  const DynamicPlanner planner(points, options);
  obs::Tracer::global().disable();
  EXPECT_EQ(obs::profile_global_tracer().root_count, 1u);  // one epoch span
  // The seed Prim runs inside the open's mst_update stage.
  EXPECT_GT(planner.last_report().times[core::Stage::kMstUpdate],
            0.5 * prim_ms);
  expect_one_clock(planner.last_report().times, "open");
}

TEST(DynamicPlanner, RejectsIllegalMutations) {
  const auto points = workload::make_family("uniform", 8, 1);
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kUniform);
  DynamicPlanner planner(points, options);

  Mutation remove_sink{Mutation::Kind::kRemove, 0, {}};
  EXPECT_THROW(planner.apply(remove_sink), std::invalid_argument);
  Mutation remove_dead{Mutation::Kind::kRemove, 3, {}};
  (void)planner.apply(remove_dead);
  EXPECT_THROW(planner.apply(remove_dead), std::invalid_argument);
}

TEST(DynamicPlanner, OpenRejectsNonFiniteCoordinates) {
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double value : {std::nan(""), inf, -inf}) {
    for (const bool in_x : {true, false}) {
      auto points = workload::make_family("uniform", 64, 2);
      (in_x ? points[40].x : points[40].y) = value;
      try {
        const DynamicPlanner planner(points, options);
        ADD_FAILURE() << "opened with " << value << (in_x ? " in x" : " in y");
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("point 40"), std::string::npos) << what;
        EXPECT_NE(what.find(in_x ? "x = " : "y = "), std::string::npos)
            << what;
      }
    }
  }
}

TEST(DynamicPlanner, MutationsRejectNonFinitePositions) {
  const auto points = workload::make_family("uniform", 32, 5);
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;
  DynamicPlanner planner(points, options);
  const double inf = std::numeric_limits<double>::infinity();
  const Mutation add_nan{Mutation::Kind::kAdd, -1, {std::nan(""), 1.0}};
  EXPECT_THROW((void)planner.apply(add_nan), std::invalid_argument);
  const Mutation move_inf{Mutation::Kind::kMove, 3, {2.0, inf}};
  EXPECT_THROW((void)planner.apply(move_inf), std::invalid_argument);
  const Mutation good{Mutation::Kind::kMove, 3, {0.25, 0.75}};
  const auto report = planner.apply(good);
  EXPECT_TRUE(report.valid);
  EXPECT_TRUE(report.audited);
  EXPECT_TRUE(report.audit_ok());
}

TEST(DynamicPlanner, RejectsBadOptions) {
  const auto points = workload::make_family("uniform", 8, 1);
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.config.tree = core::TreeKind::kPairing;
  EXPECT_THROW(DynamicPlanner(points, options), std::invalid_argument);
  options.config.tree = core::TreeKind::kMst;
  options.full_replan_fraction = 0.0;
  EXPECT_THROW(DynamicPlanner(points, options), std::invalid_argument);
}

TEST(PlanServiceSessions, ChurnRequestsRunThroughBatches) {
  const auto spec = workload::WorkloadSpec::parse(
      "families=uniform,cluster sizes=40 modes=global reps=2 seed=5 "
      "churn=epochs:4,rate:0.08,audit:1");
  const auto requests = spec.expand();
  ASSERT_EQ(requests.size(), 4u);
  for (const auto& request : requests) {
    ASSERT_EQ(request.trace.size(), 4u);
    EXPECT_TRUE(request.audit);
  }

  runtime::PlanService service(runtime::ServiceOptions{.num_workers = 2});
  const auto result = service.run(requests);
  for (const auto& outcome : result.outcomes) {
    EXPECT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.epochs, 5u);  // initial plan + 4 mutation epochs
    EXPECT_EQ(outcome.epochs_valid, 5u) << outcome.tags;
    EXPECT_TRUE(outcome.verified);
    EXPECT_GT(outcome.rate, 0.0);
    // Sessions time index maintenance and orientation as their own stages.
    EXPECT_GT(outcome.times[core::Stage::kConflictMaintain], 0.0);
    EXPECT_GT(outcome.times[core::Stage::kOrient], 0.0);
  }

  // Same digests at any worker count (sessions are deterministic).
  runtime::PlanService serial(runtime::ServiceOptions{.num_workers = 1});
  const auto again = serial.run(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(result.outcomes[i].digest, again.outcomes[i].digest);
  }
}

}  // namespace
}  // namespace wagg::dynamic
