#ifndef WAGG_RUNTIME_EXECUTOR_H
#define WAGG_RUNTIME_EXECUTOR_H

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
/// queues ("actors") — the session-parallel spine: thousands of open
/// sessions, each pinned to its own SerialQueue, share the pool without a
/// thread per session and without per-session locks in the work they run.
///
/// Scheduling model:
///   - Each SerialQueue is a bounded FIFO mailbox of tasks. At any instant a
///     queue is drained by AT MOST one worker, and its tasks run in submit
///     order — per-queue ordering is an invariant, so the work itself (e.g.
///     dynamic::DynamicPlanner::apply) needs no synchronization.
///   - A queue with pending tasks is "scheduled": it sits on the executor's
///     one FIFO ready list, or is held by the worker draining it.
///   - A worker runs ONE task per turn and then puts the queue back at the
///     end of the ready list if more tasks remain — round-robin across
///     queues, so a deep mailbox cannot starve the others.
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
/// One util::Mutex guards all of it: the ready list, every mailbox and its
/// flags, the pending-task count and the shutdown flags. Tasks run outside
/// it. The annotations are checked by Clang's thread-safety analysis in the
/// CI static-analysis job.
class Executor {
 public:
  using Task = std::function<void()>;
  class SerialQueue;

  struct Options {
    /// Worker threads; 0 means std::thread::hardware_concurrency().
    std::size_t num_workers = 0;
  };

  explicit Executor(Options options);
  ~Executor();  ///< runs shutdown()

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Creates a mailbox of `capacity` tasks (0 reads as 1).
  [[nodiscard]] std::shared_ptr<SerialQueue> make_queue(std::size_t capacity);

  [[nodiscard]] std::size_t num_workers() const noexcept {
    return workers_.size();
  }

  /// Graceful: rejects new work, drains every queued task, joins workers.
  /// Idempotent; called by the destructor.
  void shutdown() WAGG_EXCLUDES(mutex_);

 private:
  /// Pops ready queues and runs one task of each, until stop_workers_.
  void worker_loop() WAGG_EXCLUDES(mutex_);

  util::Mutex mutex_;
  util::CondVar work_cv_;     ///< idle workers: ready_ non-empty, or stop
  util::CondVar drained_cv_;  ///< shutdown waits for pending_ == 0
  /// Scheduled queues not held by a worker, in turn order.
  std::deque<std::shared_ptr<SerialQueue>> ready_ WAGG_GUARDED_BY(mutex_);
  std::size_t pending_ WAGG_GUARDED_BY(mutex_) = 0;  ///< queued + running
  bool shutting_down_ WAGG_GUARDED_BY(mutex_) = false;  ///< submits rejected
  bool stop_workers_ WAGG_GUARDED_BY(mutex_) = false;   ///< workers exit

  std::vector<std::thread> workers_;
};

/// One actor mailbox. Created by Executor::make_queue; all methods are
/// thread-safe.
class Executor::SerialQueue
    : public std::enable_shared_from_this<SerialQueue> {
 public:
  /// Enqueues without blocking; kQueueFull when at capacity.
  [[nodiscard]] SubmitResult try_submit(Task task)
      WAGG_EXCLUDES(executor_->mutex_);
  /// Blocks while the mailbox is full; wakes on space, close, or executor
  /// shutdown (returning the corresponding non-kAccepted value).
  [[nodiscard]] SubmitResult submit_blocking(Task task)
      WAGG_EXCLUDES(executor_->mutex_);

  /// Stops new submits. Idempotent; queued tasks still run.
  void close() WAGG_EXCLUDES(executor_->mutex_);

  /// Blocks until the queue is empty AND no task of it is running.
  void wait_drained() WAGG_EXCLUDES(executor_->mutex_);

 private:
  friend class Executor;
  SerialQueue(Executor* executor, std::size_t capacity)
      : executor_(executor), capacity_(capacity) {}

  /// Queues `task` (moving from it only when accepted) and schedules the
  /// queue if it was idle; otherwise the reason it cannot.
  [[nodiscard]] SubmitResult admit(Task& task)
      WAGG_REQUIRES(executor_->mutex_);
  /// Worker side: runs the front task, then requeues or parks the queue.
  void run_one() WAGG_EXCLUDES(executor_->mutex_);

  Executor* const executor_;
  const std::size_t capacity_;

  /// Blocked submitters. A full mailbox is never empty, so it is always
  /// scheduled, and the worker that pops its next task wakes them.
  util::CondVar space_cv_;
  util::CondVar idle_cv_;  ///< wait_drained waiters
  std::deque<Task> tasks_ WAGG_GUARDED_BY(executor_->mutex_);
  /// True while the queue is on the ready list or held by a worker — the
  /// single-drainer invariant. Always true while tasks_ is non-empty.
  bool scheduled_ WAGG_GUARDED_BY(executor_->mutex_) = false;
  bool closed_ WAGG_GUARDED_BY(executor_->mutex_) = false;
};

}  // namespace wagg::runtime

#endif  // WAGG_RUNTIME_EXECUTOR_H
