// Serving-runtime driver: open many concurrent churn sessions on the
// session executor and drive paced epoch rounds through the async session
// API, sweeping sessions x target epochs/sec into a max-sustained-sessions
// curve under a p99 latency SLO.
//
//   ./wagg_serve                                      # defaults below
//   ./wagg_serve --sessions=250,500,1000 --rates=1,2,4
//   ./wagg_serve --family=cluster --n=512 --epochs=10 --slo-ms=100
//   ./wagg_serve --digest-check=8                     # vs sync replay
//   ./wagg_serve --smoke                              # CI gate (see below)
//
// Each sweep point (S sessions, R epochs/sec) expands a serve workload via
// the workload grammar (sessions=S epoch_rate=R churn=...), opens all S
// sessions asynchronously, then submits one epoch per session per round,
// sleeping between rounds to hold the target rate (R=0 = unpaced). A point
// SUSTAINS when every open and epoch succeeded, the achieved rate reached
// 90% of target, and the p99 of submit-to-done latency (mailbox wait +
// epoch execution) stayed within --slo-ms.
//
// --digest-check=K replays the first K sessions' traces on a synchronous
// single-thread DynamicPlanner and requires snapshot_digest equality — the
// executor path must produce bit-identical plans.
//
// --smoke is the CI gate: one point at --sessions (default 1000) x --rates
// (default 0.5), digest-check forced on, exit 2 unless the point sustains.
// The SLO default is deliberately loose (250 ms) so the gate trips on
// collapse (queue blowup, lost wakeups, serialization), not on runner
// noise.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dynamic/dynamic_planner.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "runtime/plan_service.h"
#include "util/args.h"
#include "util/clock.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/workload.h"

namespace {

using namespace wagg;

std::vector<std::size_t> parse_count_list(const std::string& key,
                                          const std::string& text) {
  std::vector<std::size_t> values;
  std::string current;
  std::istringstream in(text);
  while (std::getline(in, current, ',')) {
    if (!current.empty()) values.push_back(util::parse_count(key, current));
  }
  return values;
}

std::vector<double> parse_rate_list(const std::string& key,
                                    const std::string& text) {
  std::vector<double> values;
  std::string current;
  std::istringstream in(text);
  while (std::getline(in, current, ',')) {
    if (current.empty()) continue;
    const double rate = util::parse_number(key, current);
    if (!(rate >= 0.0)) {
      throw std::invalid_argument("--" + key + " is not a rate: " + current);
    }
    values.push_back(rate);
  }
  return values;
}

/// Outcome counters shared by every epoch callback of one sweep point.
struct PointState {
  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t remaining = 0;
  std::size_t errors = 0;
  std::string first_error;
  util::Samples latency_ms;  ///< mailbox wait + epoch execution, per epoch

  void complete(const runtime::EpochOutcome& outcome) {
    std::lock_guard<std::mutex> lock(mutex);
    if (outcome.status != runtime::SessionStatus::kOk) {
      ++errors;
      if (first_error.empty()) first_error = outcome.error;
    } else {
      latency_ms.add(outcome.queue_ms + outcome.epoch_ms);
    }
    if (--remaining == 0) done_cv.notify_all();
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mutex);
    done_cv.wait(lock, [this] { return remaining == 0; });
  }
};

struct PointResult {
  std::size_t sessions = 0;
  double target_rate = 0.0;    ///< epochs/sec per session; 0 = unpaced
  double achieved_rate = 0.0;  ///< aggregate epochs/sec over the pool
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t errors = 0;
  std::size_t open_failures = 0;
  std::size_t digest_mismatches = 0;
  bool sustained = false;
  std::string first_error;
};

struct PointConfig {
  std::string family = "uniform";
  std::size_t n = 256;
  std::string mode = "oblivious";
  std::size_t epochs = 6;
  double churn_rate = 0.05;
  std::uint64_t seed = 1;
  std::size_t workers = 0;
  std::size_t mailbox = 32;
  double slo_ms = 250.0;
  std::size_t digest_check = 0;
};

PointResult run_point(const PointConfig& cfg, std::size_t sessions,
                      double rate) {
  PointResult result;
  result.sessions = sessions;
  result.target_rate = rate;

  // The serve workload is a grammar expression like any other scenario:
  // sessions= folds the session index into the seed stream, so every
  // session gets its own deterministic instance and trace.
  std::ostringstream spec_text;
  spec_text << "name=serve families=" << cfg.family << " sizes=" << cfg.n
            << " modes=" << cfg.mode << " reps=1 seed=" << cfg.seed
            << " sessions=" << sessions << " epoch_rate=" << rate
            << " churn=epochs:" << cfg.epochs << ",rate:" << cfg.churn_rate;
  const auto spec = workload::WorkloadSpec::parse(spec_text.str());
  const auto requests = spec.expand();

  runtime::ServiceOptions service_options;
  service_options.num_workers = cfg.workers;
  service_options.max_sessions = sessions;
  service_options.session_mailbox_capacity = cfg.mailbox;
  runtime::PlanService service(service_options);

  dynamic::DynamicOptions dyn_options;
  dyn_options.config = requests.front().config;

  // Phase 1: open every session asynchronously — the initial full plans
  // parallelize across the pool.
  std::vector<std::future<runtime::OpenOutcome>> opens;
  opens.reserve(sessions);
  for (const auto& request : requests) {
    opens.push_back(service.open_session_async(request.points, dyn_options));
  }
  std::vector<runtime::PlanService::SessionId> ids;
  ids.reserve(sessions);
  for (auto& open : opens) {
    auto outcome = open.get();
    if (outcome.status == runtime::SessionStatus::kOk) {
      ids.push_back(outcome.id);
    } else {
      ++result.open_failures;
      if (result.first_error.empty()) result.first_error = outcome.error;
    }
  }
  if (ids.size() != sessions) {
    result.errors = result.open_failures;
    return result;
  }

  // Phase 2: paced epoch rounds. Session s's epoch e targets wall time
  // (e + s/S)/rate — arrivals stagger evenly across each round (every real
  // session has its own phase) instead of thundering in per-round bursts
  // whose p99 would just measure the burst drain. kBlock turns a full
  // mailbox into natural backpressure instead of dropped epochs (the wait
  // still lands in the latency SLO).
  PointState state;
  state.remaining = sessions * cfg.epochs;
  const auto start = util::Clock::now();
  for (std::size_t e = 0; e < cfg.epochs; ++e) {
    for (std::size_t s = 0; s < sessions; ++s) {
      if (rate > 0.0) {
        const double phase =
            static_cast<double>(e) +
            static_cast<double>(s) / static_cast<double>(sessions);
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<util::Clock::duration>(
                        std::chrono::duration<double>(phase / rate)));
      }
      service.submit_epoch(
          ids[s], requests[s].trace[e],
          [&state](runtime::EpochOutcome outcome) {
            state.complete(outcome);
          },
          runtime::OnFull::kBlock);
    }
  }
  state.wait();
  const double wall_ms = util::ms_since(start);

  result.errors = state.errors;
  result.first_error = state.first_error;
  if (!state.latency_ms.empty()) {
    const auto snapshot = obs::HistogramSnapshot::of(state.latency_ms.values());
    result.p50_ms = snapshot.quantile(50.0);
    result.p95_ms = snapshot.quantile(95.0);
    result.p99_ms = snapshot.quantile(99.0);
  }
  if (wall_ms > 0.0) {
    result.achieved_rate = static_cast<double>(sessions * cfg.epochs) *
                           1000.0 / wall_ms;
  }

  // Phase 3: digest equality vs the synchronous path — same instance, same
  // trace, single-thread replay must match the executor's plans bit for bit.
  const std::size_t check = std::min(cfg.digest_check, ids.size());
  for (std::size_t s = 0; s < check; ++s) {
    dynamic::DynamicPlanner serial(requests[s].points, dyn_options);
    for (const auto& mutations : requests[s].trace) {
      (void)serial.apply(mutations);
    }
    if (runtime::snapshot_digest(serial) != service.session_digest(ids[s])) {
      ++result.digest_mismatches;
    }
  }

  for (const auto id : ids) (void)service.close_session(id);

  const double target_aggregate =
      rate > 0.0 ? rate * static_cast<double>(sessions) : 0.0;
  const bool rate_ok =
      target_aggregate == 0.0 || result.achieved_rate >= 0.9 * target_aggregate;
  result.sustained = result.errors == 0 && result.open_failures == 0 &&
                     result.digest_mismatches == 0 && rate_ok &&
                     result.p99_ms <= cfg.slo_ms;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(
        argc, argv,
        {"smoke", "family", "n", "mode", "epochs", "rate", "seed", "workers",
         "mailbox", "slo-ms", "digest-check", "sessions", "rates",
         "metrics-json", "csv"});
    const bool smoke = args.has("smoke");

    PointConfig cfg;
    cfg.family = args.get("family", cfg.family);
    cfg.n = args.get_count("n", 256);
    cfg.mode = args.get("mode", cfg.mode);
    cfg.epochs = args.get_count("epochs", 6);
    cfg.churn_rate = args.get_double("rate", cfg.churn_rate);
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    cfg.workers = args.get_count("workers", 0);
    cfg.mailbox = args.get_count("mailbox", 32);
    cfg.slo_ms = args.get_double("slo-ms", cfg.slo_ms);
    cfg.digest_check = args.get_count("digest-check", smoke ? 8 : 0);

    std::vector<std::size_t> session_counts = parse_count_list(
        "sessions", args.get("sessions", smoke ? "1000" : "125,250,500,1000"));
    // The smoke gate paces at 0.5 epochs/sec/session: 1000 sessions then
    // demand ~500 epochs/sec aggregate, inside a single CI core's measured
    // capacity (~900/s at n=256 oblivious) — the gate checks the runtime
    // keeps latency flat under real concurrency, not peak throughput.
    std::vector<double> rates =
        parse_rate_list("rates", args.get("rates", smoke ? "0.5" : "2"));

    obs::ExportGuard telemetry("", args.get("metrics-json", ""));

    std::cout << "serve sweep: family=" << cfg.family << " n=" << cfg.n
              << " mode=" << cfg.mode << " epochs=" << cfg.epochs
              << " churn_rate=" << cfg.churn_rate << " slo=p99<"
              << util::format_double(cfg.slo_ms, 0) << "ms"
              << (smoke ? " (smoke)" : "") << "\n\n";

    util::Table table({"sessions", "target eps/s", "achieved eps/s",
                       "p50 ms", "p95 ms", "p99 ms", "errors", "digest",
                       "sustained"});
    bool all_sustained = true;
    std::vector<PointResult> results;
    for (const double rate : rates) {
      for (const auto sessions : session_counts) {
        const auto point = run_point(cfg, sessions, rate);
        results.push_back(point);
        all_sustained = all_sustained && point.sustained;
        table.row()
            .cell(point.sessions)
            .cell(rate * static_cast<double>(sessions), 1)
            .cell(point.achieved_rate, 1)
            .cell(point.p50_ms, 2)
            .cell(point.p95_ms, 2)
            .cell(point.p99_ms, 2)
            .cell(point.errors + point.open_failures)
            .cell(cfg.digest_check == 0
                      ? "-"
                      : (point.digest_mismatches == 0 ? "ok" : "MISMATCH"))
            .cell(point.sustained ? "yes" : "NO");
        if (!point.first_error.empty()) {
          std::cerr << "  [" << point.sessions << " sessions] first error: "
                    << point.first_error << "\n";
        }
      }
    }
    if (args.has("csv")) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }

    // The headline: the largest session count that sustained, per rate.
    for (const double rate : rates) {
      std::size_t max_sustained = 0;
      for (const auto& point : results) {
        if (point.target_rate == rate && point.sustained) {
          max_sustained = std::max(max_sustained, point.sessions);
        }
      }
      std::cout << "\nmax sustained sessions @ " << rate
                << " eps/s under p99<" << util::format_double(cfg.slo_ms, 0)
                << "ms: " << max_sustained;
    }
    std::cout << "\n";

    telemetry.close();
    if (smoke) {
      std::cout << (all_sustained ? "serve smoke: PASS"
                                  : "serve smoke: FAIL") << "\n";
      return all_sustained ? 0 : 2;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "wagg_serve: " << e.what() << "\n";
    return 1;
  }
}
