#include "runtime/plan_service.h"

#include <exception>
#include <span>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/stats.h"

namespace wagg::runtime {

using util::Clock;
using util::ms_since;

namespace {

// SplitMix64-style mixing; order-sensitive because the accumulator feeds
// back into every step.
void digest_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
}

std::uint64_t plan_digest(const core::PlanResult& plan) {
  std::uint64_t h = 0x6a09e667f3bcc908ULL;
  for (const auto parent : plan.tree.parent) {
    digest_mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(parent)));
  }
  for (const auto& slot : plan.scheduling.schedule.slots) {
    digest_mix(h, 0xffffffffffffffffULL);  // slot boundary marker
    for (const auto link : slot) digest_mix(h, link);
  }
  digest_mix(h, plan.scheduling.slots_split);
  digest_mix(h, plan.scheduling.colors_before_repair);
  digest_mix(h, plan.verified() ? 1 : 0);
  return h;
}

std::uint64_t trace_digest(const dynamic::DynamicPlanner& planner,
                           std::span<const dynamic::EpochReport> reports) {
  std::uint64_t h = 0xbb67ae8584caa73bULL;
  for (const auto& report : reports) {
    digest_mix(h, report.epoch);
    digest_mix(h, report.slots);
    digest_mix(h, report.dirty_links);
    digest_mix(h, report.full_replan ? 1 : 0);
    digest_mix(h, report.valid ? 1 : 0);
  }
  const auto& snapshot = planner.snapshot();
  for (const auto& slot : snapshot.schedule.slots) {
    digest_mix(h, 0xffffffffffffffffULL);
    for (const auto link : slot) digest_mix(h, link);
  }
  return h;
}

/// Runs a churn-session request to completion on the calling thread.
void execute_session_request(const PlanRequest& request,
                             PlanOutcome& outcome) {
  dynamic::DynamicOptions options;
  options.config = request.config;
  options.audit = request.audit;
  dynamic::DynamicPlanner planner(request.points, options);

  std::vector<dynamic::EpochReport> reports;
  reports.reserve(request.trace.size() + 1);
  reports.push_back(planner.last_report());
  for (const auto& epoch_mutations : request.trace) {
    reports.push_back(planner.apply(epoch_mutations));
  }

  outcome.ok = true;
  outcome.epochs = reports.size();
  bool all_valid = true;
  for (const auto& report : reports) {
    const bool epoch_valid = report.valid && report.audit_ok();
    if (epoch_valid) ++outcome.epochs_valid;
    all_valid = all_valid && epoch_valid;
    if (report.epoch > 0 && report.full_replan) ++outcome.full_replans;
    outcome.times += report.times;
  }
  const auto& final_report = reports.back();
  const auto& snapshot = planner.snapshot();
  outcome.num_points = snapshot.points.size();
  outcome.num_links = snapshot.links.size();
  outcome.slots = final_report.slots;
  outcome.rate = final_report.rate;
  outcome.verified = all_valid;
  outcome.digest = trace_digest(planner, reports);
}

StageSummary summarize_stage(const util::Samples& samples) {
  StageSummary summary;
  if (samples.empty()) return summary;
  // One quantile implementation for every latency table in the repo: the
  // registry histograms' snapshot row (log-bucketed p50/p95 with documented
  // relative error; mean and max exact).
  const obs::SummaryRow row =
      obs::HistogramSnapshot::of(samples.values()).row();
  summary.p50 = row.p50;
  summary.p95 = row.p95;
  summary.mean = row.mean;
  summary.max = row.max;
  return summary;
}

/// The service's registry handles, resolved once (see PlannerMetrics in
/// dynamic_planner.cpp for the pattern).
struct ServiceMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& requests = reg.counter("service.requests");
  obs::Counter& failures = reg.counter("service.request_failures");
  /// Workers currently executing a request — sampled worker utilization.
  obs::Gauge& busy_workers = reg.gauge("service.busy_workers");
  /// Enqueue-to-start wait: batch requests AND session epochs land here,
  /// so batch and serve latency are comparable in one metric.
  obs::Histogram& queue_ms = reg.histogram("service.queue_ms");
  obs::Histogram& request_ms = reg.histogram("service.request_ms");
  // ---- session serving ----
  obs::Gauge& sessions_active = reg.gauge("service.sessions_active");
  /// Epoch tasks enqueued (or blocked waiting for mailbox space) but not
  /// yet started, summed across sessions.
  obs::Gauge& session_queue_depth = reg.gauge("service.session_queue_depth");
  obs::Counter& session_epochs = reg.counter("service.session_epochs");
  obs::Counter& mailbox_rejects = reg.counter("service.mailbox_rejects");
  obs::Histogram& session_epoch_ms = reg.histogram("service.session_epoch_ms");
};

ServiceMetrics& service_metrics() {
  static ServiceMetrics metrics;
  return metrics;
}

// ---- SessionId packing: slot index low 32 bits, generation high 32 ----

constexpr std::uint32_t id_slot(PlanService::SessionId id) noexcept {
  return static_cast<std::uint32_t>(id & 0xffffffffULL);
}

constexpr std::uint32_t id_generation(PlanService::SessionId id) noexcept {
  return static_cast<std::uint32_t>(id >> 32);
}

constexpr PlanService::SessionId make_session_id(
    std::uint32_t slot, std::uint32_t generation) noexcept {
  return (static_cast<PlanService::SessionId>(generation) << 32) |
         static_cast<PlanService::SessionId>(slot);
}

}  // namespace

std::string to_string(SessionStatus status) {
  switch (status) {
    case SessionStatus::kOk:
      return "ok";
    case SessionStatus::kUnknownSession:
      return "unknown_session";
    case SessionStatus::kClosedSession:
      return "closed_session";
    case SessionStatus::kMailboxFull:
      return "mailbox_full";
    case SessionStatus::kShutdown:
      return "shutdown";
    case SessionStatus::kSessionLimit:
      return "session_limit";
    case SessionStatus::kPlannerError:
      return "planner_error";
  }
  return "unknown";
}

std::uint64_t snapshot_digest(const dynamic::DynamicPlanner& planner) {
  const auto& snapshot = planner.snapshot();
  std::uint64_t h = 0x3c6ef372fe94f82bULL;
  digest_mix(h, planner.epoch());
  digest_mix(h,
             static_cast<std::uint64_t>(static_cast<std::int64_t>(snapshot.sink)));
  for (const auto id : snapshot.ids) {
    digest_mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(id)));
  }
  for (const auto& slot : snapshot.schedule.slots) {
    digest_mix(h, 0xffffffffffffffffULL);
    for (const auto link : slot) digest_mix(h, link);
  }
  return h;
}

PlanOutcome execute_request(const PlanRequest& request,
                            std::size_t request_index) {
  PlanOutcome outcome;
  outcome.request_index = request_index;
  outcome.seed = request.seed;
  outcome.tags = request.tags;
  outcome.num_points = request.points.size();

  obs::Span span("request");
  auto& metrics = service_metrics();
  const auto start = Clock::now();
  try {
    if (!request.trace.empty()) {
      execute_session_request(request, outcome);
      outcome.total_ms = ms_since(start);
      metrics.requests.add();
      metrics.request_ms.record(outcome.total_ms);
      return outcome;
    }
    const auto plan = core::plan_aggregation(request.points, request.config,
                                             &outcome.times);
    outcome.ok = true;
    outcome.num_links = plan.tree.links.size();
    outcome.slots = plan.schedule().length();
    outcome.colors_before_repair = plan.scheduling.colors_before_repair;
    outcome.slots_split = plan.scheduling.slots_split;
    outcome.rate = plan.rate();
    outcome.verified = plan.verified();
    outcome.digest = plan_digest(plan);
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.error = e.what();
  } catch (...) {
    outcome.ok = false;
    outcome.error = "unknown error";
  }
  outcome.total_ms = ms_since(start);
  metrics.requests.add();
  if (!outcome.ok) metrics.failures.add();
  metrics.request_ms.record(outcome.total_ms);
  return outcome;
}

BatchStats summarize(const std::vector<PlanOutcome>& outcomes,
                     double wall_ms) {
  BatchStats stats;
  stats.total = outcomes.size();
  stats.wall_ms = wall_ms;

  std::array<util::Samples, core::kNumStages> stages;
  util::Samples queue, total;
  for (const auto& outcome : outcomes) {
    // Queue wait is a service property, not a planning property: failed
    // requests waited too, so they count.
    queue.add(outcome.queue_ms);
    if (outcome.ok) {
      ++stats.succeeded;
      for (std::size_t s = 0; s < core::kNumStages; ++s) {
        stages[s].add(outcome.times.ms[s]);
      }
      // outcome.epochs counts the initial full plan; throughput counts the
      // incremental advances only.
      if (outcome.epochs > 0) stats.session_epochs += outcome.epochs - 1;
      total.add(outcome.total_ms);
    } else {
      ++stats.failed;
    }
  }
  for (std::size_t s = 0; s < core::kNumStages; ++s) {
    stats.stages[s] = summarize_stage(stages[s]);
  }
  stats.queue = summarize_stage(queue);
  stats.total_latency = summarize_stage(total);
  if (wall_ms > 0.0) {
    stats.plans_per_sec = static_cast<double>(stats.total) * 1000.0 / wall_ms;
    stats.session_epochs_per_sec =
        static_cast<double>(stats.session_epochs) * 1000.0 / wall_ms;
  }
  return stats;
}

PlanService::PlanService(ServiceOptions options)
    : options_(options),
      executor_(Executor::Options{.num_workers = options.num_workers}) {}

PlanService::~PlanService() {
  // Drain while every member is still alive: queued session tasks touch
  // slots_ and sessions_mutex_ (open-failure release path), which are
  // destroyed before executor_ would be.
  executor_.shutdown();
}

// ------------------------------------------------------------------ batches

BatchResult PlanService::run(const std::vector<PlanRequest>& requests) {
  BatchResult result;
  result.outcomes.resize(requests.size());
  const auto start = Clock::now();
  if (!requests.empty()) {
    // Completion latch shared by every request task. Notify under the lock:
    // run() may destroy the state the instant the predicate turns true.
    struct BatchState {
      util::Mutex mutex;
      util::CondVar done;
      std::size_t remaining WAGG_GUARDED_BY(mutex) = 0;
    };
    auto state = std::make_shared<BatchState>();
    {
      // The fresh state is not shared yet, but the analysis has no notion
      // of "unpublished" — lock for its benefit (uncontended).
      util::MutexLock lock(state->mutex);
      state->remaining = requests.size();
    }

    // One ephemeral single-slot queue per request: requests interleave
    // fairly with live sessions on the ready list (one task per turn) and
    // run in parallel, instead of one mega-queue serializing the batch
    // behind a single drainer. The executor holds each queue while its
    // task is pending.
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const SubmitResult submitted =
          executor_.make_queue(1)->try_submit([this, &requests, &result,
                                               state, start, i] {
        auto& metrics = service_metrics();
        const double queue_ms = ms_since(start);
        metrics.queue_ms.record(queue_ms);
        metrics.busy_workers.add(1.0);
        // Planning runs unlocked; each task writes only its own slot.
        result.outcomes[i] = execute_request(requests[i], i);
        result.outcomes[i].queue_ms = queue_ms;
        metrics.busy_workers.add(-1.0);
        {
          util::MutexLock lock(state->mutex);
          --state->remaining;
        }
        state->done.notify_all();
      });
      if (submitted != SubmitResult::kAccepted) {
        // Executor shutting down (service destruction racing a batch):
        // account the slot as failed instead of hanging the latch.
        result.outcomes[i].request_index = i;
        result.outcomes[i].ok = false;
        result.outcomes[i].error =
            "service rejected request: " + to_string(submitted);
        util::MutexLock lock(state->mutex);
        --state->remaining;
      }
    }
    util::MutexLock lock(state->mutex);
    while (state->remaining != 0) state->done.wait(state->mutex);
  }
  result.stats = summarize(result.outcomes, ms_since(start));
  return result;
}

// ----------------------------------------------------------------- sessions

PlanService::Resolved PlanService::resolve(SessionId id) const {
  const std::uint32_t slot = id_slot(id);
  const std::uint32_t generation = id_generation(id);
  util::MutexLock lock(sessions_mutex_);
  if (slot >= slots_.size() || generation > slots_[slot].generation ||
      generation == 0) {
    return {SessionStatus::kUnknownSession, nullptr};  // never issued
  }
  const Slot& entry = slots_[slot];
  if (generation < entry.generation || !entry.session) {
    // The id was real once; the slot moved on (or the session closed).
    return {SessionStatus::kClosedSession, nullptr};
  }
  return {SessionStatus::kOk, entry.session};
}

PlanService::Resolved PlanService::allocate_session() {
  util::MutexLock lock(sessions_mutex_);
  if (open_sessions_ >= options_.max_sessions) {
    return {SessionStatus::kSessionLimit, nullptr};
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  auto session = std::make_shared<Session>();
  session->slot = slot;
  session->generation = ++slots_[slot].generation;
  session->queue = executor_.make_queue(options_.session_mailbox_capacity);
  slots_[slot].session = session;
  ++open_sessions_;
  service_metrics().sessions_active.add(1.0);
  return {SessionStatus::kOk, std::move(session)};
}

void PlanService::release_session(const std::shared_ptr<Session>& session) {
  util::MutexLock lock(sessions_mutex_);
  Slot& entry = slots_[session->slot];
  // Idempotent across racing closers: only the one that still owns the slot
  // frees it.
  if (entry.session != session) return;
  entry.session = nullptr;
  free_slots_.push_back(session->slot);
  --open_sessions_;
  service_metrics().sessions_active.add(-1.0);
}

std::future<OpenOutcome> PlanService::open_session_async(
    geom::Pointset initial, const dynamic::DynamicOptions& options) {
  auto promise = std::make_shared<std::promise<OpenOutcome>>();
  auto future = promise->get_future();

  Resolved allocated = allocate_session();
  if (allocated.status != SessionStatus::kOk) {
    OpenOutcome outcome;
    outcome.status = allocated.status;
    outcome.error = "session limit reached";
    promise->set_value(std::move(outcome));
    return future;
  }
  auto session = std::move(allocated.session);
  const SessionId id = make_session_id(session->slot, session->generation);

  // The initial full plan is the session's FIRST queue task: opens
  // parallelize across the pool, and epochs submitted before the open
  // resolves simply queue behind it in order.
  const SubmitResult submitted = session->queue->try_submit(
      [this, session, id, initial = std::move(initial), options, promise] {
        auto& metrics = service_metrics();
        OpenOutcome outcome;
        outcome.id = id;
        metrics.busy_workers.add(1.0);
        try {
          auto planner =
              std::make_shared<dynamic::DynamicPlanner>(initial, options);
          util::MutexLock lock(session->mutex);
          session->planner = std::move(planner);
        } catch (const std::exception& e) {
          outcome.status = SessionStatus::kPlannerError;
          outcome.error = e.what();
        } catch (...) {
          outcome.status = SessionStatus::kPlannerError;
          outcome.error = "unknown error";
        }
        metrics.busy_workers.add(-1.0);
        if (outcome.status != SessionStatus::kOk) {
          {
            util::MutexLock lock(session->mutex);
            session->open_failed = true;
            session->open_error = outcome.error;
          }
          // A failed open self-closes: queued epochs resolve kPlannerError,
          // the slot frees for the next open.
          session->queue->close();
          release_session(session);
        }
        promise->set_value(std::move(outcome));
      });
  if (submitted != SubmitResult::kAccepted) {
    release_session(session);
    OpenOutcome outcome;
    outcome.status = SessionStatus::kShutdown;
    outcome.error = "service shutting down";
    promise->set_value(std::move(outcome));
  }
  return future;
}

void PlanService::submit_epoch(SessionId id,
                               std::vector<dynamic::Mutation> mutations,
                               std::function<void(EpochOutcome)> done,
                               OnFull on_full) {
  auto& metrics = service_metrics();
  Resolved resolved = resolve(id);
  if (resolved.status != SessionStatus::kOk) {
    EpochOutcome outcome;
    outcome.status = resolved.status;
    outcome.error = "PlanService: " + to_string(resolved.status) +
                    " for session id " + std::to_string(id);
    done(std::move(outcome));
    return;
  }
  auto session = std::move(resolved.session);

  // Count the entry as queued for the whole enqueue-to-start window —
  // including a blocking submit's wait for mailbox space — so the gauge
  // never dips negative when the task starts before the accept returns.
  metrics.session_queue_depth.add(1.0);
  const auto enqueue_time = Clock::now();
  // The task copies `done` (rather than moving) so admission failures below
  // can still resolve the caller's callback.
  Executor::Task task = [this, session, mutations = std::move(mutations),
                         enqueue_time, done] {
    run_epoch_task(session, mutations, enqueue_time, done);
  };
  const SubmitResult submitted =
      on_full == OnFull::kBlock
          ? session->queue->submit_blocking(std::move(task))
          : session->queue->try_submit(std::move(task));
  if (submitted == SubmitResult::kAccepted) return;

  metrics.session_queue_depth.add(-1.0);
  EpochOutcome outcome;
  switch (submitted) {
    case SubmitResult::kQueueFull:
      outcome.status = SessionStatus::kMailboxFull;
      metrics.mailbox_rejects.add();
      break;
    case SubmitResult::kClosed:
      outcome.status = SessionStatus::kClosedSession;
      break;
    default:
      outcome.status = SessionStatus::kShutdown;
      break;
  }
  outcome.error = "PlanService: " + to_string(outcome.status) +
                  " for session id " + std::to_string(id);
  done(std::move(outcome));
}

void PlanService::run_epoch_task(
    const std::shared_ptr<Session>& session,
    const std::vector<dynamic::Mutation>& mutations,
    util::Clock::time_point enqueue_time,
    const std::function<void(EpochOutcome)>& done) {
  auto& metrics = service_metrics();
  metrics.session_queue_depth.add(-1.0);

  EpochOutcome outcome;
  outcome.queue_ms = ms_since(enqueue_time);
  // Session mailbox waits land in the SAME histogram as batch queue waits,
  // so one metric compares batch and serve latency.
  metrics.queue_ms.record(outcome.queue_ms);

  std::shared_ptr<dynamic::DynamicPlanner> planner;
  {
    util::MutexLock lock(session->mutex);
    if (session->open_failed) {
      outcome.status = SessionStatus::kPlannerError;
      outcome.error = "session open failed: " + session->open_error;
    } else {
      // Set by the open task, which the serial queue ran before us.
      planner = session->planner;
    }
  }
  if (outcome.status != SessionStatus::kOk) {
    done(std::move(outcome));
    return;
  }

  obs::Span span("session_epoch");
  metrics.busy_workers.add(1.0);
  const auto start = Clock::now();
  try {
    // The serial queue is the session's mutual exclusion: at most one task
    // of this queue runs at a time, so the planner needs no lock here.
    outcome.report = planner->apply(mutations);
    metrics.session_epochs.add();
  } catch (const std::exception& e) {
    outcome.status = SessionStatus::kPlannerError;
    outcome.error = e.what();
  } catch (...) {
    outcome.status = SessionStatus::kPlannerError;
    outcome.error = "unknown error";
  }
  outcome.epoch_ms = ms_since(start);
  metrics.busy_workers.add(-1.0);
  metrics.session_epoch_ms.record(outcome.epoch_ms);
  done(std::move(outcome));
}

std::shared_ptr<const dynamic::DynamicPlanner> PlanService::session(
    SessionId id) const {
  Resolved resolved = resolve(id);
  if (resolved.status != SessionStatus::kOk) {
    throw std::invalid_argument("PlanService: " + to_string(resolved.status) +
                                " for session id " + std::to_string(id));
  }
  util::MutexLock lock(resolved.session->mutex);
  if (!resolved.session->planner) {
    throw std::runtime_error(
        "PlanService: session open still in flight for id " +
        std::to_string(id) + " (wait on the open future first)");
  }
  return resolved.session->planner;
}

std::uint64_t PlanService::session_digest(SessionId id) const {
  return snapshot_digest(*session(id));
}

SessionStatus PlanService::close_session(SessionId id) {
  Resolved resolved = resolve(id);
  if (resolved.status != SessionStatus::kOk) return resolved.status;
  // Graceful: stop new submits first (late submit_epoch calls resolve
  // kClosedSession), drain what was already accepted, then free the slot.
  // Must not be called from inside this session's own epoch callback — the
  // drain would wait on the running task.
  resolved.session->queue->close();
  resolved.session->queue->wait_drained();
  release_session(resolved.session);
  return SessionStatus::kOk;
}

std::size_t PlanService::num_sessions() const {
  util::MutexLock lock(sessions_mutex_);
  return open_sessions_;
}

}  // namespace wagg::runtime
