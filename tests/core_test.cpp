#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/planner.h"
#include "instance/basic.h"
#include "schedule/simulator.h"
#include "sinr/feasibility.h"

namespace wagg::core {
namespace {

PlannerConfig config_for(PowerMode mode) {
  PlannerConfig cfg;
  cfg.power_mode = mode;
  cfg.sinr.alpha = 3.0;
  cfg.sinr.beta = 1.0;
  return cfg;
}

TEST(Config, Validation) {
  PlannerConfig cfg = config_for(PowerMode::kOblivious);
  cfg.tau = 0.5;
  cfg.delta = 0.75;
  EXPECT_NO_THROW(cfg.validate());
  cfg.delta = 0.4;  // must exceed max(tau, 1-tau)
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.delta = 0.75;
  cfg.tau = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = config_for(PowerMode::kGlobal);
  cfg.gamma = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Config, SpecSelection) {
  EXPECT_EQ(spec_for_mode(config_for(PowerMode::kGlobal)).kind,
            conflict::ConflictSpec::Kind::kLogarithmic);
  EXPECT_EQ(spec_for_mode(config_for(PowerMode::kOblivious)).kind,
            conflict::ConflictSpec::Kind::kPowerLaw);
  EXPECT_EQ(spec_for_mode(config_for(PowerMode::kUniform)).kind,
            conflict::ConflictSpec::Kind::kConstant);
  EXPECT_EQ(spec_for_mode(config_for(PowerMode::kLinear)).kind,
            conflict::ConflictSpec::Kind::kConstant);
}

TEST(Config, PowerModeNames) {
  EXPECT_EQ(to_string(PowerMode::kUniform), "uniform");
  EXPECT_EQ(to_string(PowerMode::kGlobal), "global");
}

class PlanAllModes : public ::testing::TestWithParam<PowerMode> {};

TEST_P(PlanAllModes, ProducesVerifiedScheduleOnRandomInstance) {
  const auto pts = instance::uniform_square(80, 8.0, 3);
  const auto plan = plan_aggregation(pts, config_for(GetParam()));
  EXPECT_TRUE(plan.verified());
  EXPECT_TRUE(schedule::is_partition(plan.schedule(), plan.tree.links.size()));
  EXPECT_GT(plan.rate(), 0.0);
  EXPECT_EQ(plan.tree.links.size(), pts.size() - 1);
}

TEST_P(PlanAllModes, ScheduleDrivesSimulatorToCompletion) {
  const auto pts = instance::uniform_square(40, 6.0, 5);
  const auto plan = plan_aggregation(pts, config_for(GetParam()));
  schedule::SimulationConfig sim;
  sim.num_frames = 8;
  sim.generation_period = plan.schedule().length();
  const auto report =
      schedule::simulate_aggregation(plan.tree, plan.schedule(), sim);
  EXPECT_TRUE(report.all_frames_completed);
  EXPECT_TRUE(report.aggregates_correct);
  EXPECT_LE(report.max_buffer, 8u);
}

INSTANTIATE_TEST_SUITE_P(Modes, PlanAllModes,
                         ::testing::Values(PowerMode::kUniform,
                                           PowerMode::kLinear,
                                           PowerMode::kOblivious,
                                           PowerMode::kGlobal));

/// Global power ships one certified power per link: every slot satisfies
/// the SINR inequalities under scheduling.power.
TEST(Plan, GlobalModePowerCertifiesEverySlot) {
  const auto pts = instance::uniform_square(50, 6.0, 7);
  const auto cfg = config_for(PowerMode::kGlobal);
  const auto plan = plan_aggregation(pts, cfg);
  ASSERT_TRUE(plan.verified());
  ASSERT_EQ(plan.scheduling.power.size(), plan.tree.links.size());
  for (const auto& slot : plan.schedule().slots) {
    EXPECT_TRUE(sinr::is_feasible(plan.tree.links, slot, cfg.sinr,
                                  plan.scheduling.power, 1e-6));
  }
}

TEST(Plan, ColoringOrderAblation) {
  const auto pts = instance::uniform_square(100, 8.0, 13);
  auto cfg = config_for(PowerMode::kGlobal);
  cfg.order = ColoringOrder::kDecreasingLength;
  const auto dec = plan_aggregation(pts, cfg);
  cfg.order = ColoringOrder::kIncreasingLength;
  const auto inc = plan_aggregation(pts, cfg);
  EXPECT_TRUE(dec.verified());
  EXPECT_TRUE(inc.verified());
  // Both are valid; lengths may differ (measured in E3's ablation).
  EXPECT_GT(dec.schedule().length(), 0u);
  EXPECT_GT(inc.schedule().length(), 0u);
}

TEST(Plan, PairingTreeWorksEndToEnd) {
  const auto pts = instance::uniform_square(64, 8.0, 19);
  auto cfg = config_for(PowerMode::kGlobal);
  cfg.tree = TreeKind::kPairing;
  const auto plan = plan_aggregation(pts, cfg);
  EXPECT_TRUE(plan.verified());
}

TEST(Plan, Validation) {
  EXPECT_THROW(plan_aggregation({{0, 0}}, config_for(PowerMode::kGlobal)),
               std::invalid_argument);
  auto cfg = config_for(PowerMode::kGlobal);
  cfg.sink = 99;
  EXPECT_THROW(plan_aggregation(instance::unit_chain(4), cfg),
               std::invalid_argument);
}

TEST(Baseline, LevelScheduleCoversAllLinksAndVerifies) {
  const auto pts = instance::uniform_square(64, 8.0, 23);
  const auto pt = mst::pairing_tree(pts, 0);
  const auto cfg = config_for(PowerMode::kGlobal);
  const auto level = level_schedule(pt, cfg);
  EXPECT_TRUE(level.verified);
  EXPECT_TRUE(schedule::is_partition(level.schedule, pt.tree.links.size()));
  EXPECT_EQ(level.num_levels, pt.num_levels);
  EXPECT_EQ(level.slots_per_level.size(),
            static_cast<std::size_t>(pt.num_levels));
  // Level schedule length is at least the number of levels: the Omega(log n)
  // baseline behaviour.
  EXPECT_GE(level.schedule.length(),
            static_cast<std::size_t>(pt.num_levels));
}

}  // namespace
}  // namespace wagg::core
