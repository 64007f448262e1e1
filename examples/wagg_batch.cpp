// Batch planning driver: expand a declarative WorkloadSpec into seeded plan
// requests and execute them on the concurrent PlanService.
//
//   ./wagg_batch                          # built-in 216-request demo sweep
//   ./wagg_batch --spec=sweep.txt         # run a spec file
//   ./wagg_batch --workers=8 --csv        # pool size; CSV per-cell output
//   ./wagg_batch --keep-failures          # print every failed request
//   ./wagg_batch --trace=out.json --metrics-json=out-metrics.json
//
// Spec grammar (whitespace-separated key=value, '#' comments):
//   name=demo families=uniform,annulus sizes=64..256x2 modes=global
//   reps=5 seed=1 alpha=3 beta=1

#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "obs/export.h"
#include "obs/trace.h"
#include "runtime/plan_service.h"
#include "util/args.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/workload.h"

namespace {

constexpr const char* kDemoSpec =
    "name=demo\n"
    "families=uniform,cluster,annulus\n"
    "sizes=48,96,192\n"
    "modes=global,uniform\n"
    "reps=12\n"  // 3 families x 3 sizes x 2 modes x 12 reps = 216 requests
    "seed=1\n";

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open spec file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Aggregate of all replications of one (family, n, mode) cell.
struct CellAggregate {
  std::size_t ok = 0;
  std::size_t failed = 0;
  wagg::util::Samples slots;
  wagg::util::Samples rate;
  wagg::util::Samples total_ms;
};

std::string cell_key(const std::string& tags) {
  // Tags are "family=<f> n=<n> mode=<m> rep=<r>"; the cell is all but rep.
  const auto rep = tags.rfind(" rep=");
  return rep == std::string::npos ? tags : tags.substr(0, rep);
}

void print_stage_table(const wagg::runtime::BatchStats& stats) {
  wagg::util::Table table({"stage", "p50 ms", "p95 ms", "mean ms", "max ms"});
  const auto add = [&table](const char* name,
                            const wagg::runtime::StageSummary& s) {
    table.row().cell(name).cell(s.p50).cell(s.p95).cell(s.mean).cell(s.max);
  };
  // One row per leaf stage; stages only churn sessions run (orient,
  // conflict_maintain, dirty_detect, audit) read zero in static batches.
  for (std::size_t s = 0; s < wagg::core::kNumStages; ++s) {
    add(wagg::core::kStageNames[s], stats.stages[s]);
  }
  add("queue", stats.queue);
  add("total", stats.total_latency);
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const wagg::util::Args args(
        argc, argv,
        {"spec", "workers", "csv", "keep-failures", "trace", "metrics-json"});
    const std::string spec_text = args.has("spec")
                                      ? read_file(args.get("spec", ""))
                                      : std::string(kDemoSpec);
    const auto spec = wagg::workload::WorkloadSpec::parse(spec_text);
    const auto requests = spec.expand();

    // RAII export: a request that throws past the service (or a spec bug in
    // the loop below) still leaves the trace/metrics artifacts on disk.
    wagg::obs::ExportGuard telemetry(args.get("trace", ""),
                                     args.get("metrics-json", ""));

    wagg::runtime::ServiceOptions options;
    options.num_workers = args.get_count("workers", 0);
    wagg::runtime::PlanService service(options);

    std::cout << "workload: " << spec.name << "  (" << requests.size()
              << " requests, " << service.num_workers() << " workers)\n";

    const auto result = service.run(requests);

    // Per-cell aggregates, in expansion order.
    std::map<std::string, CellAggregate> cells;
    std::vector<std::string> cell_order;
    for (const auto& outcome : result.outcomes) {
      const auto key = cell_key(outcome.tags);
      if (!cells.count(key)) cell_order.push_back(key);
      auto& cell = cells[key];
      if (outcome.ok) {
        ++cell.ok;
        cell.slots.add(static_cast<double>(outcome.slots));
        cell.rate.add(outcome.rate);
        cell.total_ms.add(outcome.total_ms);
      } else {
        ++cell.failed;
        if (args.has("keep-failures")) {
          std::cerr << "FAILED [" << outcome.tags << "]: " << outcome.error
                    << "\n";
        }
      }
    }

    wagg::util::Table table(
        {"cell", "ok", "fail", "slots(mean)", "rate(mean)", "ms(p50)",
         "ms(p95)"});
    for (const auto& key : cell_order) {
      const auto& cell = cells[key];
      table.row()
          .cell(key)
          .cell(cell.ok)
          .cell(cell.failed)
          .cell(cell.slots.empty() ? 0.0 : cell.slots.mean())
          .cell(cell.rate.empty() ? 0.0 : cell.rate.mean())
          .cell(wagg::util::percentile_or(cell.total_ms.values(), 50.0, 0.0))
          .cell(wagg::util::percentile_or(cell.total_ms.values(), 95.0, 0.0));
    }
    if (args.has("csv")) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }

    std::cout << "\nbatch: " << result.stats.succeeded << "/"
              << result.stats.total << " ok, wall "
              << wagg::util::format_double(result.stats.wall_ms, 1)
              << " ms, throughput "
              << wagg::util::format_double(result.stats.plans_per_sec, 1)
              << " plans/sec";
    if (result.stats.session_epochs > 0) {
      std::cout << ", "
                << wagg::util::format_double(
                       result.stats.session_epochs_per_sec, 1)
                << " session epochs/sec (" << result.stats.session_epochs
                << " epochs)";
    }
    std::cout << "\n\nstage latencies (successful plans):\n";
    print_stage_table(result.stats);

    // Workers are idle once run() returned (completion synchronized through
    // the batch condition variable), so the export sees complete buffers.
    telemetry.close();
    if (telemetry.wants_trace()) {
      std::cout << "trace: " << args.get("trace", "") << " ("
                << wagg::obs::Tracer::global().recorded_events() << " spans, "
                << wagg::obs::Tracer::global().dropped_events()
                << " dropped)\n";
    }
    if (telemetry.wants_metrics()) {
      std::cout << "metrics: " << args.get("metrics-json", "") << "\n";
    }

    return result.stats.failed == 0 ? 0 : 2;
  } catch (const std::exception& e) {
    std::cerr << "wagg_batch: " << e.what() << "\n";
    return 1;
  }
}
