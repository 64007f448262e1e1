#include "runtime/executor.h"

#include <algorithm>

namespace wagg::runtime {

std::string to_string(SubmitResult result) {
  switch (result) {
    case SubmitResult::kAccepted:
      return "accepted";
    case SubmitResult::kQueueFull:
      return "queue_full";
    case SubmitResult::kClosed:
      return "closed";
    case SubmitResult::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

// ---------------------------------------------------------------- SerialQueue

SubmitResult Executor::SerialQueue::admit(Task& task) {
  if (executor_->shutting_down_) return SubmitResult::kShutdown;
  if (closed_) return SubmitResult::kClosed;
  if (tasks_.size() >= capacity_) return SubmitResult::kQueueFull;
  tasks_.push_back(std::move(task));
  ++executor_->pending_;
  if (!scheduled_) {
    scheduled_ = true;
    executor_->ready_.push_back(shared_from_this());
    executor_->work_cv_.notify_one();
  }
  return SubmitResult::kAccepted;
}

SubmitResult Executor::SerialQueue::try_submit(Task task) {
  util::MutexLock lock(executor_->mutex_);
  return admit(task);
}

SubmitResult Executor::SerialQueue::submit_blocking(Task task) {
  util::MutexLock lock(executor_->mutex_);
  for (;;) {
    const SubmitResult result = admit(task);
    if (result != SubmitResult::kQueueFull) return result;
    space_cv_.wait(executor_->mutex_);
  }
}

void Executor::SerialQueue::close() {
  util::MutexLock lock(executor_->mutex_);
  closed_ = true;
  space_cv_.notify_all();
}

void Executor::SerialQueue::wait_drained() {
  util::MutexLock lock(executor_->mutex_);
  while (scheduled_) idle_cv_.wait(executor_->mutex_);
}

void Executor::SerialQueue::run_one() {
  Task task;
  {
    util::MutexLock lock(executor_->mutex_);
    task = std::move(tasks_.front());
    tasks_.pop_front();
  }
  // Wake every blocked submitter, not one: a waiter that wakes into a close
  // or a shutdown returns without taking the freed slot, and must not leave
  // the others parked on a mailbox that nothing drains any more.
  space_cv_.notify_all();
  task();
  util::MutexLock lock(executor_->mutex_);
  if (--executor_->pending_ == 0) executor_->drained_cv_.notify_all();
  if (tasks_.empty()) {
    scheduled_ = false;
    idle_cv_.notify_all();
  } else {
    // Back of the line: one task per turn. No worker needs waking, since
    // this one pops from the ready list next.
    executor_->ready_.push_back(shared_from_this());
  }
}

// ------------------------------------------------------------------ Executor

Executor::Executor(Options options) {
  std::size_t workers = options.num_workers;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Executor::~Executor() { shutdown(); }

std::shared_ptr<Executor::SerialQueue> Executor::make_queue(
    std::size_t capacity) {
  // Private constructor: make_shared can't reach it, and the queue count is
  // tiny next to the work it carries.
  const std::size_t slots = std::max<std::size_t>(capacity, 1);
  // wagg-lint: allow(naked-new) private ctor, owned immediately
  return std::shared_ptr<SerialQueue>(new SerialQueue(this, slots));
}

void Executor::worker_loop() {
  for (;;) {
    std::shared_ptr<SerialQueue> queue;
    {
      util::MutexLock lock(mutex_);
      while (ready_.empty() && !stop_workers_) work_cv_.wait(mutex_);
      if (ready_.empty()) return;
      queue = std::move(ready_.front());
      ready_.pop_front();
    }
    queue->run_one();
  }
}

void Executor::shutdown() {
  {
    // A submit either took the lock first and is counted in pending_, or
    // sees the flag. A blocked submitter waits on a full, hence scheduled,
    // mailbox: the drain below pops its next task and that wakes it.
    util::MutexLock lock(mutex_);
    shutting_down_ = true;
    while (pending_ != 0) drained_cv_.wait(mutex_);
    stop_workers_ = true;
    work_cv_.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

}  // namespace wagg::runtime
