#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "dynamic/dynamic_planner.h"
#include "dynamic/mutation.h"
#include "geom/link_store.h"
#include "geom/linkset.h"
#include "sinr/feasibility.h"
#include "workload/workload.h"

namespace wagg {
namespace {

TEST(LinkStore, IdStabilityAndChangeLog) {
  using geom::LinkStore;
  constexpr int kBoth = LinkStore::kGeometry | LinkStore::kOrientation;
  const auto logged = [](const LinkStore& store) {
    const auto changed = store.changed();
    return std::vector<geom::LinkId>(changed.begin(), changed.end());
  };
  LinkStore store;
  const auto a = store.add(0, 1, 1.0);
  const auto b = store.add(1, 2, 2.0);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(store.num_live(), 2u);
  // add logs both kinds of change.
  EXPECT_EQ(store.change(a), kBoth);
  EXPECT_EQ(store.change(b), kBoth);
  EXPECT_EQ(logged(store), (std::vector<geom::LinkId>{a, b}));

  store.clear_changes();
  EXPECT_TRUE(store.changed().empty());
  EXPECT_EQ(store.change(a), 0);
  EXPECT_EQ(store.change(b), 0);

  // set_length: a bit-identical refresh must NOT dirty the link.
  store.set_length(b, 2.0);
  EXPECT_TRUE(store.changed().empty());
  EXPECT_EQ(store.change(b), 0);

  // touch: a geometry change without a column change.
  store.touch(b);
  EXPECT_EQ(store.change(b), LinkStore::kGeometry);
  EXPECT_DOUBLE_EQ(store.length(b), 2.0);

  // flip: an in-place orientation diff.
  store.flip(a);
  EXPECT_EQ(store.sender(a), 1);
  EXPECT_EQ(store.receiver(a), 0);
  EXPECT_EQ(store.change(a), LinkStore::kOrientation);

  // A value-changing set_length adds the geometry flag. Each id stays
  // logged once, at its first change.
  store.set_length(a, 1.5);
  EXPECT_DOUBLE_EQ(store.length(a), 1.5);
  EXPECT_EQ(store.change(a), kBoth);
  store.set_length(b, 2.5);
  store.touch(b);
  EXPECT_EQ(store.change(b), LinkStore::kGeometry);
  EXPECT_EQ(logged(store), (std::vector<geom::LinkId>{b, a}));

  // remove kills the id forever; new links never reuse it. The dead id
  // stays in the log, and its flags stay readable.
  store.remove(a);
  EXPECT_FALSE(store.alive(a));
  EXPECT_EQ(store.change(a), kBoth);
  const auto c = store.add(0, 1, 1.0);
  EXPECT_EQ(c, 2);
  EXPECT_EQ(store.capacity(), 3u);
  EXPECT_EQ(logged(store), (std::vector<geom::LinkId>{b, a, c}));

  // A removal alone is a geometry change.
  store.clear_changes();
  store.remove(b);
  EXPECT_EQ(store.change(b), LinkStore::kGeometry);
  EXPECT_EQ(logged(store), std::vector<geom::LinkId>{b});

  // clear_changes() resets every flag, dead ids included; unknown ids read 0.
  store.clear_changes();
  EXPECT_TRUE(store.changed().empty());
  for (geom::LinkId id = -1; id <= 3; ++id) EXPECT_EQ(store.change(id), 0);

  EXPECT_THROW(store.flip(a), std::invalid_argument);         // dead id
  EXPECT_THROW(store.touch(b), std::invalid_argument);        // dead id
  EXPECT_THROW(store.add(3, 3, 1.0), std::invalid_argument);  // self loop
  EXPECT_THROW(store.add(4, 5, 0.0), std::invalid_argument);  // zero length
  EXPECT_TRUE(store.changed().empty());  // rejected calls log nothing
}

TEST(LinkStore, SnapshotIsDenseIdOrderedAndFacadeAdoptsIt) {
  geom::LinkStore store;
  (void)store.add(10, 11, 1.0);
  const auto dead = store.add(11, 13, 9.0);
  (void)store.add(12, 11, 2.0);
  store.remove(dead);

  // node id -> dense point index (nodes 10, 11, 12 -> 0, 1, 2).
  std::vector<std::int32_t> node_index(13, -1);
  node_index[10] = 0;
  node_index[11] = 1;
  node_index[12] = 2;
  geom::Pointset points{{0, 0}, {1, 0}, {1, 2}};
  const auto view = store.snapshot(points, node_index);

  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view.id_of(0), 0);  // increasing-id dense order
  EXPECT_EQ(view.id_of(1), 2);
  EXPECT_EQ(view.link(0).sender, 0);
  EXPECT_EQ(view.link(0).receiver, 1);
  EXPECT_EQ(view.link(1).sender, 2);
  EXPECT_EQ(view.link(1).receiver, 1);
  // Lengths are the maintained column, not recomputed geometry.
  EXPECT_DOUBLE_EQ(view.length(0), 1.0);
  EXPECT_DOUBLE_EQ(view.length(1), 2.0);

  // The LinkSet façade adopts the view verbatim.
  const geom::LinkSet facade(view);
  EXPECT_EQ(facade.size(), 2u);
  EXPECT_EQ(facade.id_of(1), 2);

  // A live link referencing an unmapped node is an error.
  std::vector<std::int32_t> missing(13, -1);
  missing[10] = 0;
  missing[11] = 1;
  EXPECT_THROW((void)store.snapshot(points, missing), std::invalid_argument);
}

/// The tentpole's correctness core: across epochs (including bulk-rebuild
/// and fallback epochs) the diff-maintained store must match a from-scratch
/// re-orientation exactly — audit mode computes both every epoch.
TEST(DynamicPlanner, StoreOrientationMatchesFullRebuildAcrossEpochs) {
  for (const std::string family : {"uniform", "cluster", "expchain"}) {
    for (const double rate : {0.02, 0.25}) {
      const auto points = workload::make_family(family, 80, 11);
      dynamic::ChurnParams params;
      params.epochs = 8;
      params.rate = rate;
      const auto trace = dynamic::make_churn_trace(points, params, 77);

      dynamic::DynamicOptions options;
      options.config = workload::mode_config(core::PowerMode::kGlobal);
      options.audit = true;
      dynamic::DynamicPlanner planner(points, options);
      EXPECT_TRUE(planner.last_report().audit_store_match) << family;
      for (const auto& epoch : trace) {
        const auto report = planner.apply(epoch);
        EXPECT_TRUE(report.audit_store_match)
            << family << " rate " << rate << " epoch " << report.epoch;
        EXPECT_TRUE(report.audit_valid)
            << family << " rate " << rate << " epoch " << report.epoch;
      }
    }
  }
}

/// Same live set => same dense order => same plan: two sessions fed the
/// identical mutation history must agree on ids, links, and schedule.
TEST(DynamicPlanner, ViewDeterminismSameHistorySamePlan) {
  const auto points = workload::make_family("noisygrid", 64, 5);
  dynamic::ChurnParams params;
  params.epochs = 6;
  params.rate = 0.08;
  const auto trace = dynamic::make_churn_trace(points, params, 3);

  dynamic::DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  dynamic::DynamicPlanner one(points, options);
  dynamic::DynamicPlanner two(points, options);
  for (const auto& epoch : trace) {
    (void)one.apply(epoch);
    (void)two.apply(epoch);
  }

  const auto& a = one.snapshot();
  const auto& b = two.snapshot();
  EXPECT_EQ(a.ids, b.ids);
  ASSERT_EQ(a.links.size(), b.links.size());
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_EQ(a.links.id_of(i), b.links.id_of(i));
    EXPECT_EQ(a.links.link(i), b.links.link(i));
    EXPECT_EQ(a.links.length(i), b.links.length(i));
  }
  EXPECT_EQ(a.schedule.slots, b.schedule.slots);
  EXPECT_DOUBLE_EQ(a.rate, b.rate);
}

TEST(DynamicPlanner, PowerCertifiesSlotsAndCarriesUnchangedOnes) {
  const auto points = workload::make_family("uniform", 96, 7);
  dynamic::ChurnParams params;
  params.epochs = 6;
  params.rate = 0.02;
  const auto trace = dynamic::make_churn_trace(points, params, 21);

  dynamic::DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  dynamic::DynamicPlanner planner(points, options);

  // Each slot's entries keyed by its stable-id membership, as of the last
  // check.
  using Members = std::vector<geom::LinkId>;
  std::map<Members, std::map<geom::LinkId, double>> previous;
  std::size_t carried = 0;
  std::size_t fresh = 0;
  const auto check_powers = [&]() {
    const auto power = planner.power();
    const auto& snapshot = planner.snapshot();
    const auto& store = planner.link_store();
    const bool full = planner.last_report().full_replan;
    ASSERT_EQ(power.size(), snapshot.links.size());
    std::map<Members, std::map<geom::LinkId, double>> current;
    for (std::size_t s = 0; s < snapshot.schedule.slots.size(); ++s) {
      const auto& slot = snapshot.schedule.slots[s];
      // The shipped powers must satisfy the exact SINR inequalities on every
      // slot — the certificate a radio deployment would ship.
      EXPECT_TRUE(sinr::is_feasible(snapshot.links, slot, options.config.sinr,
                                    power, 1e-6))
          << "slot " << s;
      Members members;
      for (const auto i : slot) members.push_back(snapshot.links.id_of(i));
      std::sort(members.begin(), members.end());
      auto& entries = current[members];
      for (const auto i : slot) {
        entries[snapshot.links.id_of(i)] = power.log2_power(i);
      }
      const auto before = previous.find(members);
      const bool unchanged =
          !full && before != previous.end() &&
          std::all_of(members.begin(), members.end(), [&](geom::LinkId id) {
            return store.change(id) == 0;
          });
      if (unchanged) {
        // Membership and geometry unchanged: the previous entries, bit for
        // bit.
        EXPECT_EQ(entries, before->second) << "slot " << s;
        ++carried;
        continue;
      }
      // Anything else carries the vector of the check that accepted exactly
      // this slot: bit-identical to solving it now.
      const auto pc = sinr::power_control_feasible(snapshot.links, slot,
                                                   options.config.sinr);
      ASSERT_TRUE(pc.feasible) << "slot " << s;
      for (std::size_t a = 0; a < slot.size(); ++a) {
        EXPECT_EQ(power.log2_power(slot[a]), pc.log2_power[a])
            << "slot " << s;
      }
      ++fresh;
    }
    previous = std::move(current);
  };

  check_powers();
  for (const auto& epoch : trace) {
    (void)planner.apply(epoch);
    check_powers();
  }
  // Low churn carries most slots over untouched.
  EXPECT_GT(carried, 0u);
  EXPECT_GT(fresh, 0u);

  // power() is a pure read: the finished epoch's report stays as apply()
  // returned it, and a second call gives the same bits.
  const auto times = planner.last_report().times.ms;
  const auto first = planner.power().log2_powers();
  EXPECT_EQ(planner.last_report().times.ms, times);
  EXPECT_EQ(planner.power().log2_powers(), first);

  // A rejected mutation leaves the plan, and its certificates, on the
  // previous epoch; the full replan that recovers rewrites every entry.
  const auto& snapshot = planner.snapshot();
  const std::size_t k = snapshot.ids[1] == planner.sink() ? 2 : 1;
  const dynamic::Mutation move{
      dynamic::Mutation::Kind::kMove, snapshot.ids[k],
      {snapshot.points[k].x + 0.25, snapshot.points[k].y}};
  const dynamic::Mutation remove_sink{dynamic::Mutation::Kind::kRemove,
                                      planner.sink(), {}};
  EXPECT_THROW((void)planner.apply(std::vector{move, remove_sink}),
               std::invalid_argument);
  check_powers();
  (void)planner.apply(std::vector<dynamic::Mutation>{});
  EXPECT_TRUE(planner.last_report().full_replan);
  check_powers();
}

TEST(DynamicPlanner, PowerEqualsPowerForModeInFixedModes) {
  const auto points = workload::make_family("uniform", 24, 2);
  dynamic::ChurnParams params;
  params.epochs = 2;
  params.rate = 0.1;
  for (const auto mode : {core::PowerMode::kUniform, core::PowerMode::kLinear,
                          core::PowerMode::kOblivious}) {
    dynamic::DynamicOptions options;
    options.config = workload::mode_config(mode);
    dynamic::DynamicPlanner planner(points, options);
    const auto check = [&]() {
      EXPECT_EQ(planner.power().log2_powers(),
                core::power_for_mode(planner.snapshot().links, options.config)
                    .log2_powers())
          << core::to_string(mode);
    };
    check();
    for (const auto& epoch : dynamic::make_churn_trace(points, params, 5)) {
      (void)planner.apply(epoch);
      check();
    }
  }
}

TEST(ChurnTrace, HotspotConcentratesArrivals) {
  const auto points = workload::make_family("uniform", 200, 9);
  dynamic::ChurnParams params;
  params.epochs = 15;
  params.rate = 0.05;
  params.remove_weight = 0.0;
  params.move_weight = 0.0;
  params.hotspot_fraction = 1.0;
  params.hotspot_radius = 1.0;
  const auto trace = dynamic::make_churn_trace(points, params, 31);
  EXPECT_EQ(trace, dynamic::make_churn_trace(points, params, 31));

  std::vector<geom::Point> adds;
  for (const auto& epoch : trace) {
    for (const auto& m : epoch) {
      ASSERT_EQ(m.kind, dynamic::Mutation::Kind::kAdd);
      adds.push_back(m.position);
    }
  }
  ASSERT_GE(adds.size(), 15u);
  // Every arrival lies in one disk of radius 1, so pairwise distances are
  // bounded by its diameter — far below the ~20-unit instance box.
  for (const auto& p : adds) {
    for (const auto& q : adds) {
      EXPECT_LE(geom::distance(p, q), 2.0 + 1e-9);
    }
  }
}

TEST(ChurnTrace, WaypointDriftIsCorrelatedAndDeterministic) {
  const auto points = workload::make_family("uniform", 32, 4);
  dynamic::ChurnParams params;
  params.epochs = 30;
  params.rate = 0.2;
  params.add_weight = 0.0;
  params.remove_weight = 0.0;
  params.drift = dynamic::DriftKind::kWaypoint;
  params.waypoint_speed = 0.3;
  const auto trace = dynamic::make_churn_trace(points, params, 12);
  EXPECT_EQ(trace, dynamic::make_churn_trace(points, params, 12));

  // Replay positions and collect per-node displacement sequences.
  std::vector<geom::Point> position(points.begin(), points.end());
  std::vector<std::vector<geom::Point>> steps(points.size());
  for (const auto& epoch : trace) {
    for (const auto& m : epoch) {
      ASSERT_EQ(m.kind, dynamic::Mutation::Kind::kMove);
      const auto node = static_cast<std::size_t>(m.node);
      const auto& from = position[node];
      EXPECT_LE(geom::distance(from, m.position),
                params.waypoint_speed + 1e-9);  // bounded speed
      steps[node].push_back({m.position.x - from.x, m.position.y - from.y});
      position[node] = m.position;
    }
  }
  // Consecutive steps of one node walk toward a persistent target, so the
  // drift is positively correlated — unlike memoryless Gaussian churn.
  std::size_t correlated = 0;
  std::size_t pairs = 0;
  for (const auto& s : steps) {
    for (std::size_t k = 1; k < s.size(); ++k) {
      ++pairs;
      if (s[k - 1].x * s[k].x + s[k - 1].y * s[k].y > 0.0) ++correlated;
    }
  }
  ASSERT_GT(pairs, 10u);
  EXPECT_GT(static_cast<double>(correlated),
            0.8 * static_cast<double>(pairs));
}

TEST(WorkloadSpec, ChurnGrammarRoundTripsRealismKnobs) {
  const auto spec = workload::WorkloadSpec::parse(
      "families=uniform sizes=32 modes=global "
      "churn=epochs:5,rate:0.1,hotspot:0.75,hradius:2.5,drift:waypoint,"
      "speed:0.4,audit:1");
  EXPECT_DOUBLE_EQ(spec.churn.hotspot_fraction, 0.75);
  EXPECT_DOUBLE_EQ(spec.churn.hotspot_radius, 2.5);
  EXPECT_EQ(spec.churn.drift, dynamic::DriftKind::kWaypoint);
  EXPECT_DOUBLE_EQ(spec.churn.waypoint_speed, 0.4);
  EXPECT_TRUE(spec.churn_audit);
  EXPECT_EQ(workload::WorkloadSpec::parse(spec.to_text()), spec);

  EXPECT_THROW(workload::WorkloadSpec::parse(
                   "families=uniform sizes=32 modes=global "
                   "churn=epochs:5,drift:brownian"),
               std::invalid_argument);
  dynamic::ChurnParams bad;
  bad.epochs = 3;
  bad.hotspot_fraction = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

/// Hotspot + waypoint churn must flow end-to-end through the incremental
/// planner with audit equivalence intact.
TEST(DynamicPlanner, RealisticChurnStaysValid) {
  const auto points = workload::make_family("uniform", 72, 13);
  dynamic::ChurnParams params;
  params.epochs = 6;
  params.rate = 0.08;
  params.hotspot_fraction = 0.7;
  params.drift = dynamic::DriftKind::kWaypoint;
  const auto trace = dynamic::make_churn_trace(points, params, 19);

  dynamic::DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;
  dynamic::DynamicPlanner planner(points, options);
  for (const auto& epoch : trace) {
    const auto report = planner.apply(epoch);
    EXPECT_TRUE(report.valid) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_valid) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_store_match) << "epoch " << report.epoch;
  }
}

}  // namespace
}  // namespace wagg
