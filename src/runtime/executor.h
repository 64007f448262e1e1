#ifndef WAGG_RUNTIME_EXECUTOR_H
#define WAGG_RUNTIME_EXECUTOR_H

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace wagg::runtime {

/// Typed outcome of enqueueing work on a SerialQueue. Admission failures are
/// values, not exceptions: a serving layer routes them into backpressure
/// (reject the epoch, count it, tell the caller) instead of unwinding.
enum class SubmitResult {
  kAccepted,   ///< task queued; it will run exactly once
  kQueueFull,  ///< mailbox at capacity (try_submit only)
  kClosed,     ///< queue closed; no new work, queued tasks still run
  kShutdown,   ///< executor shutting down; no new work anywhere
};

[[nodiscard]] std::string to_string(SubmitResult result);

/// A fixed pool of worker threads multiplexing many lightweight serial
/// queues ("actors") over one stripe per worker — the session-parallel
/// spine: thousands of open sessions, each pinned to its own SerialQueue,
/// share the pool without a thread per session and without per-session
/// locks in the work they run.
///
/// Scheduling model:
///   - Each SerialQueue is a bounded FIFO mailbox of tasks. At any instant a
///     queue is drained by AT MOST one worker, and its tasks run in submit
///     order — per-queue ordering is an invariant, so the work itself (e.g.
///     dynamic::DynamicPlanner::apply) needs no synchronization.
///   - A queue with pending tasks is "scheduled": it sits on exactly one
///     stripe's ready list (or is held by the draining worker). Queues are
///     assigned stripes round-robin at creation; every worker has a home
///     stripe and steals from the others when its home is empty, so one hot
///     stripe cannot idle the pool.
///   - Workers run ONE task per acquisition and then requeue the mailbox at
///     the back of its stripe if more tasks remain — round-robin fairness
///     across queues, so a deep mailbox cannot starve its stripe.
///
/// Lifecycle: close() stops new submits on one queue (queued tasks still
/// run — graceful drain); wait_drained() blocks until the queue is empty and
/// idle. shutdown() (also run by the destructor) rejects all new work,
/// drains every queued task, and joins the workers.
///
/// Tasks must not block on work scheduled behind them (a task that calls
/// submit_blocking on a full mailbox drained only by this pool can
/// deadlock); non-blocking try_submit from inside tasks is fine.
///
/// Locking invariants are annotated for Clang's thread-safety analysis (see
/// util/thread_annotations.h); the CI static-analysis job compiles them as
/// errors. The lock-free pieces — ready_count_, pending_tasks_, the
/// shutdown flags — are plain atomics with their protocols documented at
/// the declaration.
class Executor {
 public:
  using Task = std::function<void()>;

  struct Options {
    /// Worker threads, each with its home stripe; 0 means
    /// std::thread::hardware_concurrency().
    std::size_t num_workers = 0;
  };

  /// One actor mailbox. Created by Executor::make_queue; all methods are
  /// thread-safe.
  class SerialQueue : public std::enable_shared_from_this<SerialQueue> {
   public:
    /// Enqueues without blocking; kQueueFull when at capacity.
    [[nodiscard]] SubmitResult try_submit(Task task) WAGG_EXCLUDES(mutex_);
    /// Blocks while the mailbox is full; wakes on space, close, or
    /// executor shutdown (returning the corresponding non-kAccepted value).
    [[nodiscard]] SubmitResult submit_blocking(Task task)
        WAGG_EXCLUDES(mutex_);

    /// Stops new submits. Idempotent; queued tasks still run.
    void close() WAGG_EXCLUDES(mutex_);
    [[nodiscard]] bool closed() const WAGG_EXCLUDES(mutex_);

    /// Blocks until the queue is empty AND no task of it is running.
    void wait_drained() WAGG_EXCLUDES(mutex_);

    /// Queued (not yet started) tasks.
    [[nodiscard]] std::size_t depth() const WAGG_EXCLUDES(mutex_);
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    /// The stripe this queue is pinned to (stable for its lifetime).
    [[nodiscard]] std::size_t stripe() const noexcept { return stripe_; }

   private:
    friend class Executor;
    SerialQueue(Executor* executor, std::size_t stripe, std::size_t capacity)
        : executor_(executor), stripe_(stripe), capacity_(capacity) {}

    Executor* executor_;
    const std::size_t stripe_;
    const std::size_t capacity_;

    mutable util::Mutex mutex_;
    util::CondVar space_cv_;  ///< blocked submitters
    util::CondVar idle_cv_;   ///< wait_drained waiters
    std::deque<Task> tasks_ WAGG_GUARDED_BY(mutex_);
    /// True while the queue is on a ready list or held by a worker; the
    /// single-drainer invariant.
    bool scheduled_ WAGG_GUARDED_BY(mutex_) = false;
    bool closed_ WAGG_GUARDED_BY(mutex_) = false;
  };

  explicit Executor(Options options);
  ~Executor();  ///< runs shutdown()

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Creates a mailbox of `capacity` tasks (0 reads as 1) pinned to the
  /// next stripe (round-robin).
  [[nodiscard]] std::shared_ptr<SerialQueue> make_queue(std::size_t capacity)
      WAGG_EXCLUDES(queues_mutex_);

  [[nodiscard]] std::size_t num_workers() const noexcept {
    return workers_.size();
  }
  /// Tasks accepted but not yet finished (queued + running).
  [[nodiscard]] std::size_t pending_tasks() const noexcept {
    return pending_tasks_.load(std::memory_order_relaxed);
  }

  /// Graceful: rejects new work, drains every queued task, joins workers.
  /// Idempotent; called by the destructor.
  void shutdown() WAGG_EXCLUDES(queues_mutex_, sleep_mutex_);

 private:
  struct Stripe {
    util::Mutex mutex;
    std::deque<std::shared_ptr<SerialQueue>> ready WAGG_GUARDED_BY(mutex);
  };

  /// Worker `home`'s loop: drains its home stripe, steals from the rest.
  void worker_loop(std::size_t home);
  /// Pops a ready queue, scanning stripes from `home`; nullptr if all empty.
  [[nodiscard]] std::shared_ptr<SerialQueue> acquire(std::size_t home);
  /// Puts a queue (whose scheduled_ flag is already set) on its stripe's
  /// ready list and wakes a worker.
  void enqueue_ready(std::shared_ptr<SerialQueue> queue)
      WAGG_EXCLUDES(sleep_mutex_);
  /// Runs one task of `queue`, then requeues or parks it.
  void drain_one(const std::shared_ptr<SerialQueue>& queue);
  void finish_task() WAGG_EXCLUDES(sleep_mutex_);

  /// One per worker; worker i's home is stripes_[i].
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<std::size_t> next_stripe_{0};

  /// Every queue ever made (weak): shutdown() walks it to wake blocked
  /// submitters so they observe the shutdown. Compacted opportunistically.
  util::Mutex queues_mutex_;
  std::vector<std::weak_ptr<SerialQueue>> queues_
      WAGG_GUARDED_BY(queues_mutex_);

  /// Queues with pending work across all stripes; workers sleep on
  /// work_cv_ when it reaches zero. Producers increment BEFORE touching
  /// sleep_mutex_, workers re-check under it — the no-missed-wakeup pact.
  std::atomic<std::size_t> ready_count_{0};
  std::atomic<std::size_t> pending_tasks_{0};
  std::atomic<bool> shutting_down_{false};  ///< submits rejected
  std::atomic<bool> stop_workers_{false};   ///< workers exit when idle

  util::Mutex sleep_mutex_;
  util::CondVar work_cv_;
  util::CondVar drained_cv_;  ///< shutdown waits for pending == 0

  std::vector<std::thread> workers_;
};

}  // namespace wagg::runtime

#endif  // WAGG_RUNTIME_EXECUTOR_H
