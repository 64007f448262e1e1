// E12 — Incremental replanning under topology churn: the dynamic planner's
// per-epoch cost must track the size of the change, not the instance. The
// table runs audited sessions (the audit's from-scratch replan doubles as
// the fair full-replan baseline on identical per-epoch pointsets) and
// reports incremental vs full wall clock and the resulting speedup across
// churn rates and instance families. Speedups are reported, not gated: at
// high churn the dirty set approaches the instance and the two columns
// legitimately converge. The gated churn session, and the per-layer splits
// at scale, live in wagg_bench.

#include "bench_common.h"

#include "dynamic/dynamic_planner.h"
#include "dynamic/mutation.h"

namespace wagg {
namespace {

struct SessionCost {
  core::StageTimes times;  ///< summed over epochs
  double full_ms = 0.0;    ///< sum of the audit's from-scratch replans
  std::size_t epochs = 0;
  std::size_t full_replans = 0;  ///< epochs that hit the fallback
  bool all_valid = true;
};

SessionCost run_session(const std::string& family, std::size_t n,
                        double rate, std::size_t epochs) {
  dynamic::ChurnParams params;
  params.epochs = epochs;
  params.rate = rate;
  const auto points = workload::make_family(family, n, 3);
  const auto trace = dynamic::make_churn_trace(points, params, 17);

  dynamic::DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;
  dynamic::DynamicPlanner planner(points, options);

  SessionCost cost;
  for (const auto& epoch : trace) {
    const auto report = planner.apply(epoch);
    cost.times += report.times;
    cost.full_ms += report.audit_full_ms;
    cost.all_valid = cost.all_valid && report.valid && report.audit_ok();
    if (report.full_replan) ++cost.full_replans;
    ++cost.epochs;
  }
  return cost;
}

void print_table() {
  bench::print_header(
      "E12: incremental vs full replanning under churn",
      "Per-epoch wall clock of the incremental engine against a from-scratch\n"
      "replan of the same mutated instance (audit mode provides both on\n"
      "identical pointsets). Speedup should be large at low churn rates and\n"
      "decay gracefully as the dirty set grows.");
  util::Table t({"family", "n", "rate", "epochs", "incr ms/epoch",
                 "cfl ms/epoch", "full ms/epoch", "speedup", "fallbacks",
                 "valid"});
  for (const std::string family : {"uniform", "cluster", "noisygrid"}) {
    for (const std::size_t n : {256u, 1024u}) {
      for (const double rate : {0.01, 0.05, 0.2}) {
        const auto cost = run_session(family, n, rate, 12);
        const double incr =
            cost.times.incremental_ms() / static_cast<double>(cost.epochs);
        const double full = cost.full_ms / static_cast<double>(cost.epochs);
        t.row()
            .cell(family)
            .cell(n)
            .cell(rate, 2)
            .cell(cost.epochs)
            .cell(incr, 3)
            .cell(cost.times.conflict_ms() / static_cast<double>(cost.epochs),
                  3)
            .cell(full, 3)
            .cell(incr > 0.0 ? full / incr : 0.0, 1)
            .cell(cost.full_replans)
            .cell(cost.all_valid ? "yes" : "NO");
      }
    }
  }
  t.print(std::cout);
}

}  // namespace
}  // namespace wagg

int main() {
  wagg::print_table();
  return 0;
}
