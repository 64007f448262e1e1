#ifndef WAGG_RUNTIME_PLAN_SERVICE_H
#define WAGG_RUNTIME_PLAN_SERVICE_H

#include <array>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/planner.h"
#include "dynamic/dynamic_planner.h"
#include "dynamic/mutation.h"
#include "geom/point.h"
#include "obs/metrics.h"
#include "runtime/executor.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace wagg::runtime {

/// One unit of work for the PlanService: a pointset plus the full planner
/// configuration. `seed` and `tags` are provenance only — the service never
/// interprets them, it just copies them onto the outcome so batch consumers
/// can group and join results (the workload engine fills them in).
///
/// When `trace` is non-empty the request is a churn session: the pointset is
/// planned once, then each trace entry is applied as one incremental epoch
/// (dynamic::DynamicPlanner), and the outcome summarizes the whole session.
struct PlanRequest {
  geom::Pointset points;
  core::PlannerConfig config;
  dynamic::ChurnTrace trace;
  /// Audit every session epoch against a from-scratch replan (churn
  /// requests only; expensive).
  bool audit = false;
  std::uint64_t seed = 0;
  std::string tags;
};

/// The result of one request. Failures (malformed input, planner invariant
/// violations) are captured here instead of thrown, so one bad request never
/// poisons the rest of the batch.
struct PlanOutcome {
  std::size_t request_index = 0;
  bool ok = false;
  std::string error;  ///< non-empty iff !ok

  // Plan summary (meaningful only when ok).
  std::size_t num_points = 0;
  std::size_t num_links = 0;
  std::size_t slots = 0;
  std::size_t colors_before_repair = 0;
  std::size_t slots_split = 0;
  double rate = 0.0;
  bool verified = false;
  /// Order-sensitive hash of the tree parents and schedule slots; two
  /// outcomes with equal digests ran the identical plan. Used to assert
  /// bit-identical results across worker counts.
  std::uint64_t digest = 0;

  // Churn-session summary (non-zero only for requests with a trace).
  std::size_t epochs = 0;        ///< epochs planned, incl. the initial plan
  std::size_t epochs_valid = 0;  ///< epochs whose plan was valid
  std::size_t full_replans = 0;  ///< mutation epochs that hit the fallback

  /// Per-stage milliseconds: the plan's stages, or a session's summed over
  /// its epochs (the open included).
  core::StageTimes times;
  double total_ms = 0.0;  ///< wall clock for the whole request
  /// Enqueue-to-start latency: how long the request waited in the service
  /// queue before a worker picked it up (0 for direct execute_request).
  double queue_ms = 0.0;

  // Provenance copied from the request.
  std::uint64_t seed = 0;
  std::string tags;
};

struct ServiceOptions {
  /// Worker threads in the pool; 0 means std::thread::hardware_concurrency().
  std::size_t num_workers = 0;

  // ---- session serving knobs ----
  /// Admission control: open_session_async beyond this fails with
  /// kSessionLimit.
  std::size_t max_sessions = 4096;
  /// Bounded per-session mailbox: epochs queued but not yet started. A full
  /// mailbox rejects (or blocks, per submit mode) — the backpressure seam.
  std::size_t session_mailbox_capacity = 32;
};

/// Latency summary for one pipeline stage across a batch (milliseconds).
struct StageSummary {
  double p50 = 0.0;
  double p95 = 0.0;
  double mean = 0.0;
  double max = 0.0;
};

/// Aggregate statistics for one batch run.
struct BatchStats {
  std::size_t total = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  double wall_ms = 0.0;        ///< batch wall clock, queue to last completion
  double plans_per_sec = 0.0;  ///< succeeded + failed, over wall_ms
  /// Session throughput: mutation epochs advanced across the batch's churn
  /// sessions (initial full plans excluded) and their rate over the batch
  /// wall clock — the serving-shaped headline the perf observatory tracks.
  /// Zero when the batch had no churn sessions.
  std::size_t session_epochs = 0;
  double session_epochs_per_sec = 0.0;
  /// Per leaf stage (indexed by core::Stage) across succeeded requests.
  std::array<StageSummary, core::kNumStages> stages;
  StageSummary queue;          ///< enqueue-to-start wait per request
  StageSummary total_latency;  ///< per-request end-to-end
};

struct BatchResult {
  /// outcomes[i] answers requests[i] (index-aligned, all slots filled).
  std::vector<PlanOutcome> outcomes;
  BatchStats stats;
};

/// Executes one request synchronously on the calling thread. This is the
/// exact function each worker runs, exposed so serial baselines and tests
/// compare against the same code path.
[[nodiscard]] PlanOutcome execute_request(const PlanRequest& request,
                                          std::size_t request_index);

// --------------------------------------------------------------- sessions

/// Typed result of a session operation. Lifecycle misuse (stale ids,
/// closed sessions, full mailboxes) is data, not UB and not an exception —
/// the serving layer turns these into backpressure and client errors.
enum class SessionStatus {
  kOk = 0,
  /// The id was never issued by this service (or is from a future slot).
  kUnknownSession,
  /// The id was valid once; the session has been closed (or its slot was
  /// reused by a later open — the generation tag tells the difference
  /// between this and kUnknownSession).
  kClosedSession,
  /// The session's bounded mailbox is at capacity (reject mode only).
  kMailboxFull,
  /// The service is shutting down.
  kShutdown,
  /// open_session_async refused: ServiceOptions::max_sessions reached.
  kSessionLimit,
  /// The planner itself rejected the work (bad mutations, failed open);
  /// `error` carries the message.
  kPlannerError,
};

[[nodiscard]] std::string to_string(SessionStatus status);

/// What one submitted epoch produced. On admission failure (kMailboxFull,
/// kClosedSession, ...) it carries the status and a default report.
struct EpochOutcome {
  SessionStatus status = SessionStatus::kOk;
  std::string error;  ///< non-empty iff status != kOk
  dynamic::EpochReport report;
  double queue_ms = 0.0;  ///< mailbox wait, enqueue to start
  double epoch_ms = 0.0;  ///< planner execution wall clock
};

/// Result of an asynchronous session open.
struct OpenOutcome {
  SessionStatus status = SessionStatus::kOk;
  std::uint64_t id = 0;  ///< valid iff status == kOk
  std::string error;
};

/// What a full mailbox does to a submit.
enum class OnFull {
  kReject,  ///< refuse inline with kMailboxFull; never blocks
  kBlock,   ///< wait for space (close/shutdown still resolve typed)
};

/// Order-sensitive digest of a dynamic planner's current plan (compact ids,
/// sink, schedule slots). Two planners that applied the same epochs in the
/// same order digest identically — the equality currency between a service
/// session and a serial replay of its epochs.
[[nodiscard]] std::uint64_t snapshot_digest(
    const dynamic::DynamicPlanner& planner);

/// A fixed-size pool of worker threads executing plan batches and serving
/// long-lived dynamic sessions, both multiplexed over the same executor
/// (runtime::Executor).
///
/// Batches: run() executes every request on the pool and blocks until all
/// outcomes are filled. Requests are independent, so a batch's outcomes are
/// identical for every worker count — only the wall clock changes.
///
/// Sessions: each open session owns a dynamic::DynamicPlanner pinned to a
/// serial executor queue. Epochs submitted to one session run in submit
/// order on at most one worker at a time — per-session ordering is an
/// executor invariant, so the planner itself needs no locks — while
/// thousands of sessions advance concurrently across the pool. Admission
/// control (max_sessions, bounded mailboxes) and typed statuses make
/// overload a backpressure signal instead of a pile-up.
///
/// Thread-safety: all session methods and run() may be called from any
/// thread concurrently. (run() from several threads interleaves batches on
/// the shared pool.)
class PlanService {
 public:
  explicit PlanService(ServiceOptions options = {});
  ~PlanService();

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  [[nodiscard]] std::size_t num_workers() const noexcept {
    return executor_.num_workers();
  }

  /// Executes the whole batch, blocking until every request has an outcome.
  [[nodiscard]] BatchResult run(const std::vector<PlanRequest>& requests);

  // ---- session serving ----

  /// Opaque session handle: slot index in the low 32 bits, a generation tag
  /// in the high 32. The generation makes slot reuse detectable: an id
  /// whose generation is behind the slot's current one resolves to
  /// kClosedSession, never to a stranger's session.
  using SessionId = std::uint64_t;

  /// Opens a session asynchronously: the slot is allocated (admission
  /// checked) immediately, the initial full plan runs on the pool as the
  /// session's first queue task, and the future carries the id once that
  /// task has planned. A failed construction closes the session and
  /// resolves kPlannerError.
  [[nodiscard]] std::future<OpenOutcome> open_session_async(
      geom::Pointset initial, const dynamic::DynamicOptions& options);

  /// Enqueues one epoch of mutations on the session's serial queue and
  /// calls `done` exactly once with its outcome:
  ///   - an admission failure (unknown or closed session, full mailbox
  ///     under kReject, shutdown) calls it on the submitting thread before
  ///     submit_epoch returns;
  ///   - an accepted epoch calls it on the worker that applied it.
  /// kReject never blocks. Never throws for lifecycle misuse. Callbacks
  /// must not block; a kReject submit from inside one is fine, a kBlock
  /// submit is not.
  void submit_epoch(SessionId id, std::vector<dynamic::Mutation> mutations,
                    std::function<void(EpochOutcome)> done,
                    OnFull on_full = OnFull::kReject);

  /// Read access to a session's planner (last report, snapshot, ...). The
  /// returned shared_ptr keeps the planner alive even if the session is
  /// closed concurrently. Throws std::invalid_argument for unknown/closed
  /// ids. Safe to READ only while no epochs are in flight for the session
  /// (drain first: wait for your callbacks).
  [[nodiscard]] std::shared_ptr<const dynamic::DynamicPlanner> session(
      SessionId id) const;

  /// snapshot_digest of the session's current plan (same caveat as
  /// session(): meaningful when no epochs are in flight).
  [[nodiscard]] std::uint64_t session_digest(SessionId id) const;

  /// Graceful close: stops new submits (they resolve kClosedSession),
  /// drains already-queued epochs, then frees the slot. Returns the typed
  /// status instead of throwing (closing twice reports kClosedSession).
  SessionStatus close_session(SessionId id);

  [[nodiscard]] std::size_t num_sessions() const;

 private:
  struct Session {
    // queue/slot/generation are set once by allocate_session BEFORE the
    // session is published (no other thread can hold the pointer yet) and
    // immutable afterwards — reads need no lock, so they are deliberately
    // not GUARDED_BY.
    std::shared_ptr<Executor::SerialQueue> queue;
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;

    /// Guards the open task's result: the planner, or why it failed. The
    /// open task (the queue's first) writes it once; later tasks of the
    /// queue and session() read it.
    mutable util::Mutex mutex;
    std::shared_ptr<dynamic::DynamicPlanner> planner WAGG_GUARDED_BY(mutex);
    bool open_failed WAGG_GUARDED_BY(mutex) = false;
    std::string open_error WAGG_GUARDED_BY(mutex);
  };

  struct Slot {
    std::uint32_t generation = 0;  ///< of the LATEST open on this slot
    std::shared_ptr<Session> session;
  };

  struct Resolved {
    SessionStatus status = SessionStatus::kOk;
    std::shared_ptr<Session> session;
  };

  [[nodiscard]] Resolved resolve(SessionId id) const
      WAGG_EXCLUDES(sessions_mutex_);
  /// Allocates a slot (admission-checked) with a fresh generation.
  [[nodiscard]] Resolved allocate_session() WAGG_EXCLUDES(sessions_mutex_);
  /// Frees a slot if `session` still owns it (idempotent across racers).
  void release_session(const std::shared_ptr<Session>& session)
      WAGG_EXCLUDES(sessions_mutex_);
  /// Runs inside the session's serial queue: applies the epoch, fills the
  /// outcome, updates the registry's serving metrics, calls `done`.
  void run_epoch_task(const std::shared_ptr<Session>& session,
                      const std::vector<dynamic::Mutation>& mutations,
                      util::Clock::time_point enqueue_time,
                      const std::function<void(EpochOutcome)>& done);

  ServiceOptions options_;
  Executor executor_;

  /// Guards the session table: the slot array, its free list, and the open
  /// count. Session-level state lives behind each Session's own mutex; the
  /// two are never held at the same time (every path releases the table
  /// lock before touching a session), so no lock-order edge exists.
  mutable util::Mutex sessions_mutex_;
  std::vector<Slot> slots_ WAGG_GUARDED_BY(sessions_mutex_);
  std::vector<std::uint32_t> free_slots_ WAGG_GUARDED_BY(sessions_mutex_);
  std::size_t open_sessions_ WAGG_GUARDED_BY(sessions_mutex_) = 0;
};

/// Computes the batch statistics for a set of outcomes (exposed for tests
/// and for callers that execute requests without a service).
[[nodiscard]] BatchStats summarize(const std::vector<PlanOutcome>& outcomes,
                                   double wall_ms);

}  // namespace wagg::runtime

#endif  // WAGG_RUNTIME_PLAN_SERVICE_H
