#include "runtime/executor.h"

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

SubmitResult Executor::SerialQueue::try_submit(Task task) {
  bool schedule = false;
  {
    util::MutexLock lock(mutex_);
    if (executor_->shutting_down_.load(std::memory_order_acquire)) {
      return SubmitResult::kShutdown;
    }
    if (closed_) return SubmitResult::kClosed;
    if (tasks_.size() >= capacity_) return SubmitResult::kQueueFull;
    tasks_.push_back(std::move(task));
    executor_->pending_tasks_.fetch_add(1, std::memory_order_acq_rel);
    if (!scheduled_) {
      scheduled_ = true;
      schedule = true;
    }
  }
  if (schedule) executor_->enqueue_ready(shared_from_this());
  return SubmitResult::kAccepted;
}

SubmitResult Executor::SerialQueue::submit_blocking(Task task) {
  bool schedule = false;
  {
    util::MutexLock lock(mutex_);
    while (!closed_ && tasks_.size() >= capacity_ &&
           !executor_->shutting_down_.load(std::memory_order_acquire)) {
      space_cv_.wait(mutex_);
    }
    if (executor_->shutting_down_.load(std::memory_order_acquire)) {
      return SubmitResult::kShutdown;
    }
    if (closed_) return SubmitResult::kClosed;
    tasks_.push_back(std::move(task));
    executor_->pending_tasks_.fetch_add(1, std::memory_order_acq_rel);
    if (!scheduled_) {
      scheduled_ = true;
      schedule = true;
    }
  }
  if (schedule) executor_->enqueue_ready(shared_from_this());
  return SubmitResult::kAccepted;
}

void Executor::SerialQueue::close() {
  {
    util::MutexLock lock(mutex_);
    closed_ = true;
  }
  // Blocked submitters must observe the close and give up.
  space_cv_.notify_all();
}

bool Executor::SerialQueue::closed() const {
  util::MutexLock lock(mutex_);
  return closed_;
}

void Executor::SerialQueue::wait_drained() {
  util::MutexLock lock(mutex_);
  while (!tasks_.empty() || scheduled_) idle_cv_.wait(mutex_);
}

std::size_t Executor::SerialQueue::depth() const {
  util::MutexLock lock(mutex_);
  return tasks_.size();
}

// ------------------------------------------------------------------ Executor

Executor::Executor(Options options) {
  std::size_t workers = options.num_workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  stripes_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Executor::~Executor() { shutdown(); }

std::shared_ptr<Executor::SerialQueue> Executor::make_queue(
    std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  const std::size_t stripe =
      next_stripe_.fetch_add(1, std::memory_order_relaxed) % stripes_.size();
  // Private constructor: make_shared can't reach it, and the queue count is
  // tiny next to the work it carries.
  auto queue =  // wagg-lint: allow(naked-new) private ctor, owned immediately
      std::shared_ptr<SerialQueue>(new SerialQueue(this, stripe, capacity));
  {
    util::MutexLock lock(queues_mutex_);
    if (queues_.size() >= 64 && queues_.size() == queues_.capacity()) {
      std::erase_if(queues_, [](const std::weak_ptr<SerialQueue>& weak) {
        return weak.expired();
      });
    }
    queues_.push_back(queue);
  }
  return queue;
}

void Executor::enqueue_ready(std::shared_ptr<SerialQueue> queue) {
  {
    util::MutexLock lock(stripes_[queue->stripe()]->mutex);
    stripes_[queue->stripe()]->ready.push_back(std::move(queue));
  }
  ready_count_.fetch_add(1, std::memory_order_release);
  // Empty critical section: a worker that checked ready_count_ under
  // sleep_mutex_ before our increment is guaranteed to be inside wait() by
  // the time we acquire, so the notify below cannot be lost.
  { util::MutexLock lock(sleep_mutex_); }
  work_cv_.notify_one();
}

std::shared_ptr<Executor::SerialQueue> Executor::acquire(std::size_t home) {
  const std::size_t count = stripes_.size();
  for (std::size_t i = 0; i < count; ++i) {
    Stripe& stripe = *stripes_[(home + i) % count];
    util::MutexLock lock(stripe.mutex);
    if (!stripe.ready.empty()) {
      auto queue = std::move(stripe.ready.front());
      stripe.ready.pop_front();
      ready_count_.fetch_sub(1, std::memory_order_acq_rel);
      return queue;
    }
  }
  return nullptr;
}

void Executor::finish_task() {
  if (pending_tasks_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      shutting_down_.load(std::memory_order_acquire)) {
    { util::MutexLock lock(sleep_mutex_); }
    drained_cv_.notify_all();
  }
}

void Executor::drain_one(const std::shared_ptr<SerialQueue>& queue) {
  Task task;
  {
    util::MutexLock lock(queue->mutex_);
    if (queue->tasks_.empty()) {
      // Raced with nothing real: the queue was scheduled but its work is
      // gone (cannot happen today, but parking it keeps the invariant).
      queue->scheduled_ = false;
      queue->idle_cv_.notify_all();
      return;
    }
    task = std::move(queue->tasks_.front());
    queue->tasks_.pop_front();
  }
  // A slot just freed: one blocked submitter may proceed.
  queue->space_cv_.notify_one();
  task();
  finish_task();
  bool more = false;
  {
    util::MutexLock lock(queue->mutex_);
    if (queue->tasks_.empty()) {
      queue->scheduled_ = false;
      queue->idle_cv_.notify_all();
    } else {
      more = true;  // stays scheduled; we re-list it below
    }
  }
  // Requeue at the BACK of the stripe: round-robin across queues, so one
  // deep mailbox cannot monopolize a worker.
  if (more) enqueue_ready(queue);
}

void Executor::worker_loop(std::size_t home) {
  for (;;) {
    auto queue = acquire(home);
    if (queue) {
      drain_one(queue);
      continue;
    }
    util::MutexLock lock(sleep_mutex_);
    while (!stop_workers_.load(std::memory_order_acquire) &&
           ready_count_.load(std::memory_order_acquire) == 0) {
      work_cv_.wait(sleep_mutex_);
    }
    if (stop_workers_.load(std::memory_order_acquire) &&
        ready_count_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void Executor::shutdown() {
  shutting_down_.store(true, std::memory_order_release);
  {
    std::vector<std::shared_ptr<SerialQueue>> live;
    {
      util::MutexLock lock(queues_mutex_);
      live.reserve(queues_.size());
      for (const auto& weak : queues_) {
        if (auto queue = weak.lock()) live.push_back(std::move(queue));
      }
    }
    for (const auto& queue : live) {
      // Empty critical section on every queue mutex, AFTER the flag store:
      // a submit critical section that began before it either finished
      // first (so its pending_tasks_ increment is visible to the drain
      // wait below, and workers are still alive to run the task) or starts
      // after we release (and then observes shutting_down_ via the mutex's
      // happens-before and rejects). Without this fence a submitter that
      // passed its flag check could push a task after the drain completed
      // and the workers exited — accepted work that never runs.
      { util::MutexLock lock(queue->mutex_); }
      // Wake every blocked submitter so it observes the shutdown (their
      // wait loops re-check the flag under the queue mutex).
      queue->space_cv_.notify_all();
    }
  }
  {
    // Graceful drain: every accepted task still runs.
    util::MutexLock lock(sleep_mutex_);
    work_cv_.notify_all();
    while (pending_tasks_.load(std::memory_order_acquire) != 0) {
      drained_cv_.wait(sleep_mutex_);
    }
  }
  stop_workers_.store(true, std::memory_order_release);
  { util::MutexLock lock(sleep_mutex_); }
  work_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

}  // namespace wagg::runtime
