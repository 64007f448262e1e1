// Interactive capacity report: pick an instance family and model parameters
// on the command line, get the full planning breakdown.
//
//   ./capacity_explorer --family=uniform --n=512 --mode=global
//        [--alpha=3] [--beta=1] [--tau=0.5] [--seed=1]
//
// Families: uniform | disk | cluster | grid | unitchain | expchain | line
// Modes:    uniform | linear | oblivious | global

#include <cmath>
#include <cstdint>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/planner.h"
#include "instance/basic.h"
#include "util/args.h"
#include "util/logmath.h"
#include "util/table.h"

namespace {

constexpr const char* kUsage =
    "usage: capacity_explorer [--family=F] [--n=N] [--mode=M]\n"
    "  [--alpha=A] [--beta=B] [--tau=T] [--gamma=G] [--seed=S]\n";

/// The parsed flags, or nullopt after printing why they cannot be parsed.
std::optional<wagg::util::Args> parse_args(int argc, char** argv) {
  try {
    return wagg::util::Args(argc, argv,
                            {"help", "family", "n", "mode", "alpha", "beta",
                             "tau", "gamma", "seed"});
  } catch (const std::invalid_argument& e) {
    std::cerr << "capacity_explorer: " << e.what() << "\n" << kUsage;
    return std::nullopt;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse_args(argc, argv);
  if (!parsed) return 2;
  const wagg::util::Args& args = *parsed;
  if (args.has("help")) {
    std::cout << kUsage;
    return 0;
  }
  const std::string family = args.get("family", "uniform");
  std::size_t n = 0;
  std::uint64_t seed = 0;
  wagg::core::PlannerConfig config;
  try {
    n = args.get_count("n", 256);
    seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    config.sinr.alpha = args.get_double("alpha", 3.0);
    config.sinr.beta = args.get_double("beta", 1.0);
    config.tau = args.get_double("tau", 0.5);
    config.gamma = args.get_double("gamma", 2.0);
    config.validate();
  } catch (const std::invalid_argument& e) {
    std::cerr << "capacity_explorer: " << e.what() << "\n" << kUsage;
    return 2;
  }

  wagg::geom::Pointset points;
  if (family == "uniform") {
    points = wagg::instance::uniform_square(n, 25.0, seed);
  } else if (family == "disk") {
    points = wagg::instance::uniform_disk(n, 25.0, seed);
  } else if (family == "cluster") {
    points = wagg::instance::clustered(std::max<std::size_t>(1, n / 16), 16,
                                       100.0, 0.5, seed);
  } else if (family == "grid") {
    const auto side = static_cast<std::size_t>(std::sqrt(double(n)));
    points = wagg::instance::grid(side, side, 1.0);
  } else if (family == "unitchain") {
    points = wagg::instance::unit_chain(n);
  } else if (family == "expchain") {
    points = wagg::instance::exponential_chain(std::min<std::size_t>(n, 900),
                                               2.0);
  } else if (family == "line") {
    points = wagg::instance::uniform_line(n, 1000.0, seed);
  } else {
    std::cerr << "unknown family: " << family << "\n";
    return 2;
  }

  const std::string mode = args.get("mode", "global");
  if (mode == "uniform") {
    config.power_mode = wagg::core::PowerMode::kUniform;
  } else if (mode == "linear") {
    config.power_mode = wagg::core::PowerMode::kLinear;
  } else if (mode == "oblivious") {
    config.power_mode = wagg::core::PowerMode::kOblivious;
  } else if (mode == "global") {
    config.power_mode = wagg::core::PowerMode::kGlobal;
  } else {
    std::cerr << "unknown mode: " << mode << "\n";
    return 2;
  }

  const auto plan = wagg::core::plan_aggregation(points, config);
  const double log_delta = plan.tree.links.log2_delta();

  wagg::util::Table t({"quantity", "value"});
  t.row().cell("family").cell(family);
  t.row().cell("nodes").cell(points.size());
  t.row().cell("power mode").cell(wagg::core::to_string(config.power_mode));
  t.row().cell("conflict graph").cell(plan.scheduling.spec.name());
  t.row().cell("log2(Delta)").cell(log_delta, 2);
  t.row().cell("log*(Delta)").cell(wagg::util::log2_star_of_log2(log_delta));
  t.row().cell("loglog(Delta)").cell(
      wagg::util::log2_log2_of_log2(log_delta), 2);
  t.row().cell("colors before repair").cell(
      plan.scheduling.colors_before_repair);
  t.row().cell("slots split by repair").cell(plan.scheduling.slots_split);
  t.row().cell("schedule length").cell(plan.schedule().length());
  t.row().cell("aggregation rate").cell(plan.rate(), 5);
  t.row().cell("SINR verified").cell(plan.verified() ? "yes" : "NO");
  t.row().cell("tree height").cell(plan.tree.height());
  t.print(std::cout);
  return plan.verified() ? 0 : 1;
}
