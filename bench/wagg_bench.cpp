// Perf observatory suite driver: runs the canonical scenario matrix with
// warmup + median-of-k timing, captures the full obs::Registry snapshot per
// scenario, and emits a versioned `wagg-bench-v1` trajectory file that the
// comparator gates future runs against.
//
//   ./wagg_bench                                  # full matrix, stdout only
//   ./wagg_bench --repeat=5 --warmup=1 --out=BENCH_2026-08-08.json
//   ./wagg_bench --quick                          # small matrix (CI smoke)
//   ./wagg_bench --profile-out=profile.txt        # per-stage self-time tables
//   ./wagg_bench --quick --trace=t.json --metrics-json=m.json
//                                                 # + churn gate artifacts
//   ./wagg_bench --compare old.json new.json      # noise-aware verdicts
//   ./wagg_bench --compare old.json new.json --portable-only
//   ./wagg_bench --profile trace.json             # offline span profile
//
// Every suite run first runs the churn gate (run_churn_gate): audited
// low-churn sessions whose validity, fallback, speedup, per-layer budget,
// registry-JSON and tracing-overhead checks fail the run. --trace= and
// --metrics-json= write the gate's span trace and its last session's
// registry snapshot.
//
// The matrix: static batch families, churn sessions at n x rate (including
// grow:/shrink: size-varying schedules), and a PlanService session-
// throughput row. Per churn scenario the suite also runs one untimed
// profiled repeat and checks the span profiler's structural identity —
// per-stage exclusive self-times must sum to the root epoch spans within
// 1% — so a trajectory point ships with trustworthy attribution tables.
//
// --compare exits nonzero when any gated metric regressed beyond its
// noise tolerance (median +/- MAD-derived band, direction-aware; see
// obs/bench.h). --portable-only gates only the hardware-portable ratio
// metrics — the mode for comparing against a baseline recorded on
// different hardware.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <ctime>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "conflict/fgraph.h"
#include "core/planner.h"
#include "dynamic/dynamic_planner.h"
#include "dynamic/mutation.h"
#include "mst/mst.h"
#include "obs/bench.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/plan_service.h"
#include "util/args.h"
#include "util/clock.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/workload.h"

namespace wagg {
namespace {

/// Keeps a computed value observable without linking google-benchmark.
template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

constexpr double kProfileIdentityTolerance = 0.01;  ///< excl-sum vs roots

struct SuiteOptions {
  std::size_t repeats = 5;
  std::size_t warmup = 1;
  bool quick = false;
  std::string out_path;
  std::string profile_out;
  std::string label;
  std::size_t top_k = 12;
  std::string trace_path;    ///< churn gate: span trace of its sessions
  std::string metrics_path;  ///< churn gate: last session's registry JSON
};

// --------------------------------------------------------------- scenarios

struct ChurnSpec {
  std::string family = "uniform";
  std::size_t n = 1024;
  double rate = 0.01;
  double grow = 0.0;
  double shrink = 0.0;
  std::size_t epochs = 8;

  [[nodiscard]] std::string name() const {
    std::ostringstream out;
    out << "churn/" << family << "/n" << n;
    if (grow > 0.0) {
      out << "/grow" << util::format_double(grow, 3);
    } else if (shrink > 0.0) {
      out << "/shrink" << util::format_double(shrink, 3);
    } else {
      out << "/r" << util::format_double(rate, 3);
    }
    return out.str();
  }
};

/// The session's initial points and mutation trace. Every churn scenario
/// and the churn gate draw points with seed 3 and the trace with seed 17.
struct ChurnSession {
  geom::Pointset points;
  dynamic::ChurnTrace trace;
};

ChurnSession make_churn_session(const ChurnSpec& spec) {
  dynamic::ChurnParams params;
  params.epochs = spec.epochs;
  params.rate = spec.rate;
  params.grow_rate = spec.grow;
  params.shrink_rate = spec.shrink;
  ChurnSession session;
  session.points = workload::make_family(spec.family, spec.n, 3);
  session.trace = dynamic::make_churn_trace(session.points, params, 17);
  return session;
}

struct ChurnRepeat {
  core::StageTimes times;  ///< per-epoch mean of every stage
  double full_ms = 0.0;    ///< audited sessions: the audit's full replan
  std::vector<double> epoch_samples;  ///< incremental_ms of each epoch
  /// From-scratch baselines measured right after the session, on its final
  /// snapshot (measure_churn fills them).
  double prim_ms = 0.0;
  double rebuild_ms = 0.0;
  std::size_t dirty_links = 0;
  std::size_t epochs = 0;
  std::size_t fallbacks = 0;
  bool valid = true;  ///< every epoch valid, and every audit clean

  [[nodiscard]] double epoch_ms() const { return times.incremental_ms(); }
};

/// Applies the whole trace to a fresh-session planner, returning per-epoch
/// mean stage costs. The caller owns registry windowing.
ChurnRepeat run_churn_epochs(dynamic::DynamicPlanner& planner,
                             const dynamic::ChurnTrace& trace) {
  ChurnRepeat result;
  for (const auto& epoch : trace) {
    const auto report = planner.apply(epoch);
    result.epoch_samples.push_back(report.times.incremental_ms());
    result.times += report.times;
    result.full_ms += report.audit_full_ms;
    result.dirty_links += report.dirty_links;
    result.valid = result.valid && report.valid && report.audit_ok();
    if (report.full_replan) ++result.fallbacks;
    ++result.epochs;
  }
  const auto epochs = static_cast<double>(std::max<std::size_t>(1,
                                                                result.epochs));
  for (double& stage_ms : result.times.ms) stage_ms /= epochs;
  result.full_ms /= epochs;
  return result;
}

/// Best-of-k from-scratch dense Prim wall clock — the per-epoch tree bill
/// of a non-incremental engine, and the denominator of the portable
/// mst_share. It times the fixed O(n^2) reference, not euclidean_mst, so a
/// faster seed builder moves no share, just as conflict_neighbors_bucketed
/// stays conflict_share's denominator.
double prim_baseline_ms(const geom::Pointset& points) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = util::Clock::now();
    const auto edges = mst::dense_prim_mst(points);
    do_not_optimize(edges.size());
    best = std::min(best, util::ms_since(start));
  }
  return best;
}

/// Best-of-k from-scratch conflict rebuild answering `queries` rows — the
/// pre-index per-epoch bill, and the denominator of conflict_share.
double conflict_rebuild_baseline_ms(const dynamic::DynamicPlanner& planner,
                                    const core::PlannerConfig& config,
                                    std::size_t avg_dirty) {
  const auto& links = planner.snapshot().links;
  const auto spec = core::spec_for_mode(config);
  std::vector<std::size_t> queries(
      std::min(links.size(), std::max<std::size_t>(1, avg_dirty)));
  for (std::size_t i = 0; i < queries.size(); ++i) queries[i] = i;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = util::Clock::now();
    const auto rows =
        conflict::conflict_neighbors_bucketed(links, spec, queries);
    do_not_optimize(rows.size());
    best = std::min(best, util::ms_since(start));
  }
  return best;
}

/// Runs `warmup` discarded sessions, then `repeats` measured ones on fresh
/// planners. Each measured session gets its own registry window (the
/// construction full plan would dominate the histograms), so the registry
/// ends holding the last one.
std::vector<ChurnRepeat> measure_churn(const ChurnSession& session,
                                       const dynamic::DynamicOptions& options,
                                       std::size_t warmup,
                                       std::size_t repeats) {
  for (std::size_t i = 0; i < warmup; ++i) {
    dynamic::DynamicPlanner planner(session.points, options);
    do_not_optimize(run_churn_epochs(planner, session.trace).epoch_ms());
  }
  std::vector<ChurnRepeat> measured;
  for (std::size_t i = 0; i < repeats; ++i) {
    dynamic::DynamicPlanner planner(session.points, options);
    obs::Registry::global().reset();
    auto repeat = run_churn_epochs(planner, session.trace);
    // Measure the from-scratch baselines inside the repeat, seconds from
    // the incremental numbers they normalize: a host-regime shift then
    // scales both sides of each share and cancels. One late measurement
    // bakes a single denominator sample into every repeat, hiding its
    // run-to-run noise from the MAD entirely.
    repeat.prim_ms = prim_baseline_ms(planner.snapshot().points);
    repeat.rebuild_ms = conflict_rebuild_baseline_ms(
        planner, options.config,
        repeat.dirty_links / std::max<std::size_t>(1, repeat.epochs));
    measured.push_back(std::move(repeat));
  }
  return measured;
}

struct ScenarioRun {
  obs::BenchScenario scenario;
  std::string profile_table;
  bool profile_ok = true;
  bool valid = true;
};

ScenarioRun run_churn_scenario(const ChurnSpec& spec,
                               const SuiteOptions& suite) {
  ScenarioRun run;
  run.scenario.name = spec.name();
  run.scenario.kind = "churn";

  const auto session = make_churn_session(spec);
  dynamic::DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  const auto measured =
      measure_churn(session, options, suite.warmup, suite.repeats);
  for (const auto& repeat : measured) run.valid = run.valid && repeat.valid;
  run.scenario.registry = obs::Registry::global().snapshot();

  const auto column = [&measured](auto getter) {
    std::vector<double> values;
    values.reserve(measured.size());
    for (const auto& repeat : measured) values.push_back(getter(repeat));
    return values;
  };
  const auto add_ms = [&run, &column](const std::string& name, auto getter) {
    run.scenario.metrics.emplace(
        name, obs::BenchMetric::of(column(getter), "ms"));
  };
  add_ms("epoch_ms", [](const ChurnRepeat& r) { return r.epoch_ms(); });
  for (const auto stage :
       {core::Stage::kMstUpdate, core::Stage::kOrient,
        core::Stage::kConflictMaintain, core::Stage::kConflictQuery,
        core::Stage::kRepair}) {
    add_ms(std::string(core::stage_name(stage)) + "_ms",
           [stage](const ChurnRepeat& r) { return r.times[stage]; });
  }
  // The recolor_ms key keeps its meaning: dirty detection + recolor.
  add_ms("recolor_ms",
         [](const ChurnRepeat& r) { return r.times.coloring_ms(); });

  // Portable ratios: per-epoch incremental stage cost over an in-process
  // from-scratch baseline measured on the same host, same build, same
  // instant — the only numbers a baseline recorded on other hardware can
  // fairly gate. Each repeat carries its own baseline sample (see
  // measure_churn), so the ratio's MAD reflects denominator noise too.
  std::vector<double> mst_share, conflict_share;
  for (const auto& r : measured) {
    mst_share.push_back(r.prim_ms > 0.0 ? r.times.tree_ms() / r.prim_ms
                                        : 0.0);
    conflict_share.push_back(
        r.rebuild_ms > 0.0 ? r.times.conflict_ms() / r.rebuild_ms : 0.0);
  }
  run.scenario.metrics.emplace(
      "mst_share",
      obs::BenchMetric::of(std::move(mst_share), "ratio",
                           /*higher_is_better=*/false, /*portable=*/true));
  run.scenario.metrics.emplace(
      "conflict_share",
      obs::BenchMetric::of(std::move(conflict_share), "ratio",
                           /*higher_is_better=*/false, /*portable=*/true));

  // Untimed profiled repeat: collapse the epoch span tree into the
  // per-stage self-time table and check the structural identity the
  // profiler guarantees (exclusive self-times tile the root epoch spans).
  {
    obs::Tracer::global().enable();
    dynamic::DynamicPlanner planner(session.points, options);
    obs::Tracer::global().clear();  // window the trace on mutation epochs
    const auto profiled = run_churn_epochs(planner, session.trace);
    do_not_optimize(profiled.epoch_ms());
    obs::Tracer::global().disable();
    const auto profile = obs::profile_global_tracer();
    obs::Tracer::global().clear();
    run.profile_table = profile.table(suite.top_k);
    const double drift =
        std::abs(profile.exclusive_sum_ms() - profile.root_ms);
    run.profile_ok = profile.malformed_spans == 0 &&
                     (profile.root_ms <= 0.0 ||
                      drift <= kProfileIdentityTolerance * profile.root_ms);
  }
  return run;
}

ScenarioRun run_static_scenario(const std::string& family, std::size_t n,
                                const SuiteOptions& suite) {
  ScenarioRun run;
  run.scenario.name = "static/" + family + "/n" + std::to_string(n);
  run.scenario.kind = "static";

  runtime::PlanRequest request;
  request.points = workload::make_family(family, n, 3);
  request.config = workload::mode_config(core::PowerMode::kGlobal);

  const auto once = [&request]() {
    return runtime::execute_request(request, 0);
  };
  for (std::size_t i = 0; i < suite.warmup; ++i) {
    do_not_optimize(once().total_ms);
  }
  std::vector<double> plan_ms, tree_ms, conflict_ms;
  obs::Registry::global().reset();
  for (std::size_t i = 0; i < suite.repeats; ++i) {
    const auto outcome = once();
    run.valid = run.valid && outcome.ok;
    plan_ms.push_back(outcome.total_ms);
    tree_ms.push_back(outcome.times.tree_ms());
    conflict_ms.push_back(outcome.times.conflict_ms());
  }
  run.scenario.registry = obs::Registry::global().snapshot();
  run.scenario.metrics.emplace("plan_ms",
                               obs::BenchMetric::of(std::move(plan_ms), "ms"));
  run.scenario.metrics.emplace("tree_ms",
                               obs::BenchMetric::of(std::move(tree_ms), "ms"));
  run.scenario.metrics.emplace(
      "conflict_ms", obs::BenchMetric::of(std::move(conflict_ms), "ms"));
  return run;
}

ScenarioRun run_service_scenario(std::size_t sessions, std::size_t n,
                                 std::size_t epochs,
                                 const SuiteOptions& suite) {
  ScenarioRun run;
  run.scenario.name = "service/sessions" + std::to_string(sessions) + "/n" +
                      std::to_string(n);
  run.scenario.kind = "service";

  // A batch of churn-session requests over the worker pool: the serving-
  // shaped scenario. Throughput reads from the BatchStats session hooks.
  std::vector<runtime::PlanRequest> requests;
  requests.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    runtime::PlanRequest request;
    request.points = workload::make_family("uniform", n, 3 + s);
    request.config = workload::mode_config(core::PowerMode::kGlobal);
    dynamic::ChurnParams params;
    params.epochs = epochs;
    params.rate = 0.02;
    request.trace = dynamic::make_churn_trace(request.points, params, 17 + s);
    request.seed = s;
    request.tags = "session=" + std::to_string(s);
    requests.push_back(std::move(request));
  }

  runtime::PlanService service;
  for (std::size_t i = 0; i < suite.warmup; ++i) {
    do_not_optimize(service.run(requests).stats.wall_ms);
  }
  std::vector<double> epochs_per_sec, plans_per_sec, wall_ms, request_p95;
  bool last_ok = true;
  for (std::size_t i = 0; i < suite.repeats; ++i) {
    obs::Registry::global().reset();
    const auto result = service.run(requests);
    last_ok = result.stats.failed == 0;
    run.valid = run.valid && last_ok;
    epochs_per_sec.push_back(result.stats.session_epochs_per_sec);
    plans_per_sec.push_back(result.stats.plans_per_sec);
    wall_ms.push_back(result.stats.wall_ms);
    request_p95.push_back(result.stats.total_latency.p95);
  }
  run.scenario.registry = obs::Registry::global().snapshot();
  // Pool-dispatch wall clocks: repeats inside one process share a scheduler
  // regime, and the regime itself drifts between processes by 10-20% on a
  // contended host, so the within-run MAD understates run-to-run noise.
  // Declare that floor in the schema; a real serving regression clears it.
  constexpr double kDispatchNoiseFloor = 0.25;
  const auto stamped = [](std::vector<double> values, const char* unit,
                          bool higher_is_better) {
    auto metric = obs::BenchMetric::of(std::move(values), unit,
                                       higher_is_better);
    metric.min_rel = kDispatchNoiseFloor;
    return metric;
  };
  run.scenario.metrics.emplace(
      "epochs_per_sec",
      stamped(std::move(epochs_per_sec), "per_sec", /*higher_is_better=*/true));
  run.scenario.metrics.emplace(
      "plans_per_sec",
      stamped(std::move(plans_per_sec), "per_sec", /*higher_is_better=*/true));
  run.scenario.metrics.emplace(
      "wall_ms",
      stamped(std::move(wall_ms), "ms", /*higher_is_better=*/false));
  run.scenario.metrics.emplace(
      "request_p95_ms",
      stamped(std::move(request_p95), "ms", /*higher_is_better=*/false));
  return run;
}

ScenarioRun run_serve_scenario(std::size_t sessions, std::size_t n,
                               std::size_t epochs,
                               const SuiteOptions& suite) {
  ScenarioRun run;
  run.scenario.name = "serve/sessions" + std::to_string(sessions) + "/n" +
                      std::to_string(n);
  run.scenario.kind = "serve";

  // The session-parallel runtime scenario: long-lived sessions pinned to
  // executor serial queues, epochs submitted through the async API at max
  // rate. Unlike service/ (whole churn traces as batch requests) this
  // measures the executor's serving path itself: open fan-out,
  // mailbox handoff per epoch, and submit-to-done latency.
  std::ostringstream spec_text;
  spec_text << "name=serve families=uniform sizes=" << n
            << " modes=oblivious reps=1 seed=3 sessions=" << sessions
            << " churn=epochs:" << epochs << ",rate:0.02";
  const auto spec = workload::WorkloadSpec::parse(spec_text.str());
  const auto requests = spec.expand();

  dynamic::DynamicOptions options;
  options.config = requests.front().config;
  runtime::PlanService service;

  struct Latch {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t remaining = 0;
    std::size_t errors = 0;
    util::Samples latency_ms;
  };
  struct ServeRepeat {
    double epochs_per_sec = 0.0;
    double epoch_p99_ms = 0.0;
    double open_ms = 0.0;
    bool ok = true;
  };
  const auto one_repeat = [&]() {
    ServeRepeat repeat;
    const auto open_start = util::Clock::now();
    std::vector<std::future<runtime::OpenOutcome>> opens;
    opens.reserve(sessions);
    for (const auto& request : requests) {
      opens.push_back(service.open_session_async(request.points, options));
    }
    std::vector<runtime::PlanService::SessionId> ids;
    ids.reserve(sessions);
    for (auto& open : opens) {
      const auto outcome = open.get();
      repeat.ok = repeat.ok && outcome.status == runtime::SessionStatus::kOk;
      if (outcome.status == runtime::SessionStatus::kOk) {
        ids.push_back(outcome.id);
      }
    }
    repeat.open_ms = util::ms_since(open_start);
    if (!repeat.ok) return repeat;

    Latch latch;
    latch.remaining = sessions * epochs;
    const auto start = util::Clock::now();
    for (std::size_t e = 0; e < epochs; ++e) {
      for (std::size_t s = 0; s < sessions; ++s) {
        service.submit_epoch(
            ids[s], requests[s].trace[e],
            [&latch](runtime::EpochOutcome outcome) {
              std::lock_guard<std::mutex> lock(latch.mutex);
              if (outcome.status != runtime::SessionStatus::kOk) {
                ++latch.errors;
              } else {
                latch.latency_ms.add(outcome.queue_ms + outcome.epoch_ms);
              }
              if (--latch.remaining == 0) latch.cv.notify_all();
            },
            runtime::OnFull::kBlock);
      }
    }
    {
      std::unique_lock<std::mutex> lock(latch.mutex);
      latch.cv.wait(lock, [&latch] { return latch.remaining == 0; });
    }
    const double wall_ms = util::ms_since(start);
    for (const auto id : ids) (void)service.close_session(id);
    repeat.ok = repeat.ok && latch.errors == 0;
    if (wall_ms > 0.0) {
      repeat.epochs_per_sec =
          static_cast<double>(sessions * epochs) * 1000.0 / wall_ms;
    }
    if (!latch.latency_ms.empty()) {
      repeat.epoch_p99_ms =
          obs::HistogramSnapshot::of(latch.latency_ms.values())
              .quantile(99.0);
    }
    return repeat;
  };

  for (std::size_t i = 0; i < suite.warmup; ++i) {
    do_not_optimize(one_repeat().epochs_per_sec);
  }
  std::vector<double> epochs_per_sec, epoch_p99_ms, open_ms;
  obs::Registry::global().reset();
  for (std::size_t i = 0; i < suite.repeats; ++i) {
    const auto repeat = one_repeat();
    run.valid = run.valid && repeat.ok;
    epochs_per_sec.push_back(repeat.epochs_per_sec);
    epoch_p99_ms.push_back(repeat.epoch_p99_ms);
    open_ms.push_back(repeat.open_ms);
  }
  run.scenario.registry = obs::Registry::global().snapshot();
  // Same pool-dispatch noise floor as service/: scheduler-regime drift
  // between processes dominates the within-run MAD.
  constexpr double kDispatchNoiseFloor = 0.25;
  const auto stamped = [](std::vector<double> values, const char* unit,
                          bool higher_is_better) {
    auto metric =
        obs::BenchMetric::of(std::move(values), unit, higher_is_better);
    metric.min_rel = kDispatchNoiseFloor;
    return metric;
  };
  run.scenario.metrics.emplace(
      "epochs_per_sec",
      stamped(std::move(epochs_per_sec), "per_sec", /*higher_is_better=*/true));
  run.scenario.metrics.emplace(
      "epoch_p99_ms",
      stamped(std::move(epoch_p99_ms), "ms", /*higher_is_better=*/false));
  run.scenario.metrics.emplace(
      "open_ms", stamped(std::move(open_ms), "ms", /*higher_is_better=*/false));
  return run;
}

// -------------------------------------------------------------- churn gate

/// The churn CI gate, run first by every suite run: audited low-churn
/// sessions must pass every check below, so a regression that drags epoch
/// cost back toward O(n), or breaks the telemetry that reports it, fails
/// the run instead of landing silently. Timing checks read the MEDIAN of
/// three sessions after a discarded warmup, so one descheduled session
/// cannot flip a verdict; validity checks read every session. The budgets
/// are from-scratch baselines measured in the same process, which keeps
/// them hardware-relative. The span trace of the gate's sessions and the
/// last session's registry snapshot go to the suite's --trace= /
/// --metrics-json= paths, when given.
bool run_churn_gate(const SuiteOptions& suite) {
  constexpr std::size_t kSessions = 3;
  constexpr double kMinSpeedup = 1.4;  ///< over the audit's full replan
  // The row-cached conflict layer runs at ~0.2x the rebuild baseline on a
  // quiet machine; losing the cache puts it at ~0.5-0.75x and an O(n)
  // rebuild at >= 1.5x. 0.45 fails both with ~2x headroom for runner noise.
  constexpr double kMaxConflictShare = 0.45;
  // The dynamic-tree engine runs at a small fraction of a from-scratch
  // Prim; the pre-dtree merge-Kruskal engine sat well above it at this size.
  constexpr double kMaxMstShare = 0.9;
  constexpr double kMaxTraceOverhead = 0.02;  ///< of an epoch, tracing off
  const ChurnSpec spec{"uniform", 512, 0.01, 0.0, 0.0, 8};
  const auto session = make_churn_session(spec);
  dynamic::DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;

  if (!suite.trace_path.empty()) obs::Tracer::global().enable();
  const auto sessions = measure_churn(session, options, 1, kSessions);
  const ChurnRepeat& last = sessions.back();
  const auto median = [&sessions](auto get) {
    std::vector<double> values;
    for (const auto& r : sessions) values.push_back(get(r));
    return obs::median_of(std::move(values));
  };
  const auto median_stage = [&median](core::Stage stage) {
    return median([stage](const ChurnRepeat& r) { return r.times[stage]; });
  };
  const double incr =
      median([](const ChurnRepeat& r) { return r.epoch_ms(); });
  const double full = median([](const ChurnRepeat& r) { return r.full_ms; });
  const double speedup = median([](const ChurnRepeat& r) {
    return r.epoch_ms() > 0.0 ? r.full_ms / r.epoch_ms() : 0.0;
  });
  const double conflict =
      median([](const ChurnRepeat& r) { return r.times.conflict_ms(); });
  const double mst =
      median([](const ChurnRepeat& r) { return r.times.tree_ms(); });
  bool valid = true;
  std::size_t fallbacks = 0;
  for (const auto& r : sessions) {
    valid = valid && r.valid;
    fallbacks += r.fallbacks;
  }

  const std::string metrics_json =
      obs::Registry::global().snapshot().to_json();
  if (!suite.metrics_path.empty()) {
    obs::write_text_file(suite.metrics_path, metrics_json);
  }
  if (!suite.trace_path.empty()) {
    obs::Tracer::global().disable();
    obs::export_trace(suite.trace_path);
  }
  // The telemetry checks read the PARSED JSON, the bytes a dashboard would
  // scrape: it must describe the last session exactly, and its log-bucketed
  // quantiles must sit within the documented error of the exact order
  // statistics.
  const auto parsed = obs::MetricsSnapshot::from_json(metrics_json);
  const auto& epoch_hist = parsed.histograms.at("dynamic.epoch_ms");
  const auto rel_diff = [](double a, double b) {
    return std::abs(a - b) / std::max({1e-12, std::abs(a), std::abs(b)});
  };
  const bool json_matches =
      epoch_hist.count() == last.epochs &&
      parsed.counters.at("dynamic.full_replans") == last.fallbacks &&
      rel_diff(parsed.histograms.at("dynamic.mst_ms").mean(),
               last.times.tree_ms()) <= 1e-9 &&
      rel_diff(parsed.histograms.at("dynamic.conflict_ms").mean(),
               last.times.conflict_ms()) <= 1e-9 &&
      rel_diff(epoch_hist.mean(), last.epoch_ms()) <= 1e-9;
  auto samples = last.epoch_samples;
  std::sort(samples.begin(), samples.end());
  bool quantiles_match = true;
  for (const double p : {50.0, 95.0}) {
    const auto rank = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(samples.size() - 1));
    quantiles_match = quantiles_match &&
                      rel_diff(epoch_hist.quantile(p), samples[rank]) <=
                          obs::Histogram::kMaxRelativeError + 1e-12;
  }

  // Tracing-disabled overhead: count the spans one steady-state epoch opens
  // (a briefly traced epoch of a fresh unaudited session), then price them
  // at the measured cost of a disabled span. The product is what's checked:
  // epoch wall clocks on shared runners are far noisier than 2%.
  obs::Tracer::global().enable();
  std::uint64_t spans_per_epoch = 0;
  {
    dynamic::DynamicOptions probe_options = options;
    probe_options.audit = false;
    dynamic::DynamicPlanner probe(session.points, probe_options);
    const std::uint64_t before = obs::Tracer::global().recorded_events();
    (void)probe.apply(session.trace.front());
    spans_per_epoch = obs::Tracer::global().recorded_events() - before;
  }
  obs::Tracer::global().disable();
  obs::Tracer::global().clear();
  constexpr int kSpanReps = 1'000'000;
  const auto span_start = util::Clock::now();
  for (int i = 0; i < kSpanReps; ++i) {
    obs::Span probe_span("overhead-probe");
    do_not_optimize(probe_span);
  }
  const double per_span_ms = util::ms_since(span_start) / kSpanReps;
  const double overhead_ms =
      per_span_ms * static_cast<double>(spans_per_epoch);
  const double overhead_budget_ms = kMaxTraceOverhead * epoch_hist.mean();

  const obs::SummaryRow lat = epoch_hist.row();
  std::cout << "gate: " << spec.name() << " epochs=" << last.epochs
            << " audited, sessions=" << kSessions
            << " (+1 warmup), gating medians\n"
            << "gate: incr=" << incr << " ms/epoch full=" << full
            << " ms/epoch speedup=" << speedup << "x conflict=" << conflict
            << " ms/epoch ("
            << median_stage(core::Stage::kConflictMaintain) << " maintain / "
            << median_stage(core::Stage::kConflictQuery)
            << " query, rebuild baseline " << last.rebuild_ms << ") mst=" << mst
            << " ms/epoch (" << median_stage(core::Stage::kMstUpdate)
            << " update / " << median_stage(core::Stage::kOrient)
            << " orient, Prim baseline " << last.prim_ms
            << ") fallbacks=" << fallbacks
            << " valid=" << (valid ? "yes" : "NO")
            << "\ngate: epoch latency (metrics JSON) p50=" << lat.p50
            << " p95=" << lat.p95 << " mean=" << lat.mean << " max=" << lat.max
            << " ms\ngate: tracing-disabled overhead " << overhead_ms
            << " ms/epoch (" << spans_per_epoch << " spans x " << per_span_ms
            << " ms), budget " << overhead_budget_ms << " ("
            << 100.0 * kMaxTraceOverhead << "% of epoch)\n";

  const std::pair<bool, const char*> checks[] = {
      {valid, "an epoch lost validity or audit equivalence"},
      {fallbacks == 0, "low-churn epochs hit the full-replan fallback"},
      {speedup >= kMinSpeedup, "median speedup under its floor"},
      {conflict <= kMaxConflictShare * last.rebuild_ms,
       "conflict layer over its share of the from-scratch rebuild baseline "
       "— the index is no longer O(dirty)"},
      {mst <= kMaxMstShare * last.prim_ms,
       "MST layer over its share of the from-scratch Prim baseline — tree "
       "updates are no longer localized"},
      {json_matches,
       "metrics JSON disagrees with the epochs' stage times (count/mean/"
       "fallback mismatch) — the registry is no longer a faithful view"},
      {quantiles_match,
       "histogram p50/p95 stray from the exact order statistics"},
      {overhead_ms <= overhead_budget_ms,
       "disabled tracing over its share of an epoch — the disabled span "
       "path is no longer one relaxed load"},
  };
  bool ok = true;
  for (const auto& [pass, why] : checks) {
    if (!pass) std::cout << "gate FAILED: " << why << "\n";
    ok = ok && pass;
  }
  return ok;
}

// ------------------------------------------------------------------- suite

std::string today_iso_date() {
  const std::time_t now = std::time(nullptr);
  std::tm parts{};
  localtime_r(&now, &parts);
  char buffer[16];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%d", &parts);
  return buffer;
}

int run_suite(const SuiteOptions& suite) {
  obs::BenchTrajectory trajectory;
  trajectory.date = today_iso_date();
  trajectory.label = suite.label;
  trajectory.repeats = suite.repeats;
  trajectory.warmup = suite.warmup;

  std::vector<ChurnSpec> churn;
  std::vector<std::pair<std::string, std::size_t>> statics;
  std::size_t service_sessions = 8, service_n = 256, service_epochs = 10;
  std::size_t serve_sessions = 256, serve_n = 256, serve_epochs = 8;
  if (suite.quick) {
    // The CI-smoke matrix: same scenario SHAPES, small sizes.
    churn = {
        {"uniform", 256, 0.01, 0.0, 0.0, 6},
        {"uniform", 256, 0.05, 0.0, 0.0, 6},
        {"uniform", 256, 0.02, 0.02, 0.0, 6},
        {"uniform", 256, 0.02, 0.0, 0.02, 6},
    };
    statics = {{"uniform", 128}, {"cluster", 128}};
    service_sessions = 4;
    service_n = 128;
    service_epochs = 6;
    serve_sessions = 64;
    serve_n = 128;
    serve_epochs = 6;
  } else {
    for (const std::size_t n : {1024u, 2048u, 8192u}) {
      for (const double rate : {0.01, 0.05}) {
        churn.push_back({"uniform", n, rate, 0.0, 0.0, n > 4096 ? 4u : 8u});
      }
    }
    churn.push_back({"uniform", 1024, 0.02, 0.02, 0.0, 8});
    churn.push_back({"uniform", 1024, 0.02, 0.0, 0.02, 8});
    statics = {{"uniform", 256}, {"uniform", 1024}, {"cluster", 256},
               {"annulus", 256}};
  }

  bool all_valid = true;
  bool profiles_ok = true;
  std::ostringstream profiles;
  const auto ingest = [&](ScenarioRun run) {
    std::cout << "scenario " << run.scenario.name << ":";
    for (const auto& [name, metric] : run.scenario.metrics) {
      std::cout << " " << name << "="
                << util::format_double(metric.median, 4);
    }
    std::cout << (run.valid ? "" : "  INVALID") << "\n";
    if (!run.profile_table.empty()) {
      profiles << "== " << run.scenario.name << " ==\n"
               << run.profile_table << "\n";
      if (!run.profile_ok) {
        std::cout << "  PROFILE IDENTITY BROKEN: exclusive self-times do "
                     "not sum to the root epoch spans within "
                  << 100.0 * kProfileIdentityTolerance << "%\n";
      }
    }
    all_valid = all_valid && run.valid;
    profiles_ok = profiles_ok && run.profile_ok;
    trajectory.scenarios.push_back(std::move(run.scenario));
  };

  std::cout << "wagg_bench: " << (suite.quick ? "quick" : "full")
            << " matrix, repeat=" << suite.repeats
            << " warmup=" << suite.warmup << "\n\n";
  const bool gate_ok = run_churn_gate(suite);
  std::cout << "\n";
  for (const auto& [family, n] : statics) {
    ingest(run_static_scenario(family, n, suite));
  }
  for (const auto& spec : churn) {
    ingest(run_churn_scenario(spec, suite));
  }
  ingest(run_service_scenario(service_sessions, service_n, service_epochs,
                              suite));
  ingest(run_serve_scenario(serve_sessions, serve_n, serve_epochs, suite));

  std::cout << "\nper-stage span profiles (exclusive self time, hottest "
               "first):\n\n"
            << profiles.str();

  if (!suite.out_path.empty()) {
    obs::write_text_file(suite.out_path, trajectory.to_json());
    std::cout << "trajectory: " << suite.out_path << " ("
              << trajectory.scenarios.size() << " scenarios, schema "
              << "wagg-bench-v1)\n";
  }
  if (!suite.profile_out.empty()) {
    obs::write_text_file(suite.profile_out, profiles.str());
    std::cout << "profiles: " << suite.profile_out << "\n";
  }

  if (!gate_ok) {
    std::cout << "wagg_bench FAILED: the churn gate failed (see gate "
                 "FAILED above)\n";
    return 1;
  }
  if (!all_valid) {
    std::cout << "wagg_bench FAILED: a scenario produced an invalid plan\n";
    return 1;
  }
  if (!profiles_ok) {
    std::cout << "wagg_bench FAILED: span-profile attribution identity "
                 "broken\n";
    return 1;
  }
  return 0;
}

// ------------------------------------------------------------------- modes

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("wagg_bench: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int run_compare(const std::string& baseline_path,
                const std::string& candidate_path, const util::Args& args) {
  const auto baseline =
      obs::BenchTrajectory::from_json(read_file(baseline_path));
  const auto candidate =
      obs::BenchTrajectory::from_json(read_file(candidate_path));
  obs::CompareOptions options;
  options.min_rel_tolerance =
      args.get_double("min-rel", options.min_rel_tolerance);
  options.mad_multiplier =
      args.get_double("mad-mult", options.mad_multiplier);
  options.min_abs_ms = args.get_double("min-abs-ms", options.min_abs_ms);
  options.portable_only = args.has("portable-only");

  std::cout << "baseline:  " << baseline_path << " (" << baseline.date
            << (baseline.label.empty() ? "" : ", " + baseline.label)
            << ")\ncandidate: " << candidate_path << " (" << candidate.date
            << (candidate.label.empty() ? "" : ", " + candidate.label)
            << ")\n"
            << (options.portable_only
                    ? "gating hardware-portable metrics only\n"
                    : "")
            << "\n";
  const auto report = obs::compare(baseline, candidate, options);
  std::cout << report.table();
  return report.ok() ? 0 : 1;
}

int run_offline_profile(const std::string& trace_path,
                        const util::Args& args) {
  const auto report = obs::profile_chrome_trace(read_file(trace_path));
  std::cout << "profile of " << trace_path << ":\n"
            << report.table(args.get_count("top", 0));
  return report.malformed_spans == 0 ? 0 : 1;
}

}  // namespace
}  // namespace wagg

int main(int argc, char** argv) {
  using namespace wagg;
  try {
    const util::Args args(
        argc, argv,
        {"compare", "profile", "portable-only", "min-rel", "mad-mult",
         "min-abs-ms", "top", "repeat", "warmup", "quick", "out",
         "profile-out", "label", "trace", "metrics-json"});
    // Mode flags take positional operands, which util::Args ignores — scan
    // argv directly for them.
    std::vector<std::string> positional;
    bool compare_mode = false;
    bool profile_mode = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg(argv[i]);
      if (arg == "--compare") {
        compare_mode = true;
      } else if (arg == "--profile") {
        profile_mode = true;
      } else if (arg.rfind("--", 0) != 0) {
        positional.push_back(arg);
      }
    }
    if (compare_mode) {
      if (positional.size() != 2) {
        std::cerr << "usage: wagg_bench --compare <baseline.json> "
                     "<candidate.json> [--portable-only] [--min-rel=f] "
                     "[--mad-mult=k] [--min-abs-ms=f]\n";
        return 2;
      }
      return run_compare(positional[0], positional[1], args);
    }
    if (profile_mode) {
      if (positional.size() != 1) {
        std::cerr << "usage: wagg_bench --profile <trace.json> [--top=k]\n";
        return 2;
      }
      return run_offline_profile(positional[0], args);
    }

    SuiteOptions suite;
    suite.repeats = std::max<std::size_t>(1, args.get_count("repeat", 5));
    suite.warmup = args.get_count("warmup", 1);
    suite.quick = args.has("quick");
    suite.out_path = args.get("out", "");
    suite.profile_out = args.get("profile-out", "");
    suite.label = args.get("label", "");
    suite.top_k = args.get_count("top", 12);
    suite.trace_path = args.get("trace", "");
    suite.metrics_path = args.get("metrics-json", "");
    return run_suite(suite);
  } catch (const std::exception& e) {
    std::cerr << "wagg_bench: " << e.what() << "\n";
    return 1;
  }
}
