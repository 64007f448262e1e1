#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <system_error>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "util/clock.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace wagg::util {

namespace {

/// One parallel_for call. It lives on the caller's stack; a helper touches
/// it only between joining (under the pool mutex, while the job is posted)
/// and its release decrement of `helpers_inside`, and the caller returns
/// only after retiring the job and seeing that count reach zero.
struct Job {
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t chunks = 0;
  detail::IndexFn fn = nullptr;
  void* context = nullptr;
  Job* next = nullptr;  ///< posted-job list link, guarded by Pool::mutex_

  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> helpers_inside{0};

  Mutex error_mutex;
  std::size_t error_index WAGG_GUARDED_BY(error_mutex) =
      std::numeric_limits<std::size_t>::max();
  std::exception_ptr error WAGG_GUARDED_BY(error_mutex);

  [[nodiscard]] bool has_unclaimed_chunk() const noexcept {
    return next_chunk.load(std::memory_order_relaxed) < chunks;
  }

  /// Claims and runs chunks until none is left; returns the indices run.
  std::size_t run_chunks() {
    std::size_t ran = 0;
    for (;;) {
      const std::size_t chunk =
          next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunks) return ran;
      const std::size_t begin = chunk * grain;
      const std::size_t end = std::min(n, begin + grain);
      for (std::size_t i = begin; i < end; ++i) {
        try {
          fn(context, i);
        } catch (...) {
          record_error(i, std::current_exception());
        }
      }
      ran += end - begin;
    }
  }

  void record_error(std::size_t index, std::exception_ptr thrown) {
    MutexLock lock(error_mutex);
    if (index < error_index) {
      error_index = index;
      error = std::move(thrown);
    }
  }

  void rethrow_lowest_error() {
    std::exception_ptr thrown;
    {
      MutexLock lock(error_mutex);
      thrown = error;
    }
    if (thrown) std::rethrow_exception(thrown);
  }
};

/// The process-wide helper pool. Helpers sleep on a condition variable
/// until a job is posted, join the oldest job that still has unclaimed
/// chunks, run chunks until none is left, and go back to sleep.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      MutexLock lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& helper : helpers_) helper.join();
  }

  [[nodiscard]] std::size_t helpers() const noexcept {
    return helpers_.size();
  }

  /// Makes the job visible to helpers and wakes them.
  void post(Job& job) {
    {
      MutexLock lock(mutex_);
      Job** tail = &posted_;
      while (*tail != nullptr) tail = &(*tail)->next;
      *tail = &job;
    }
    wake_.notify_all();
  }

  /// Hides the job from helpers, then waits until every helper that
  /// joined it has left. Only running helpers can be inside, each finishing
  /// one claimed chunk, so the caller first spins for a few chunks' time.
  /// A helper still inside after that was preempted (helpers yield to any
  /// other work): the caller then sleeps, which frees its core for it.
  void retire(Job& job) {
    {
      MutexLock lock(mutex_);
      for (Job** link = &posted_; *link != nullptr; link = &(*link)->next) {
        if (*link == &job) {
          *link = job.next;
          break;
        }
      }
    }
    const auto spin_until = Clock::now() + kSpin;
    while (job.helpers_inside.load(std::memory_order_acquire) != 0) {
      if (Clock::now() > spin_until) {
        MutexLock lock(mutex_);
        while (job.helpers_inside.load(std::memory_order_acquire) != 0) {
          left_.wait(mutex_);
        }
        return;
      }
      std::this_thread::yield();
    }
  }

 private:
  Pool() {
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    helpers_.reserve(cores - 1);
    try {
      for (unsigned i = 1; i < cores; ++i) {
        helpers_.emplace_back([this] { help(); });
      }
    } catch (const std::system_error&) {
      // Out of threads: the helpers started so far serve, and a call no
      // helper joins runs on its caller.
    }
  }

  /// The oldest posted job with a chunk left, or null.
  Job* claimable_job() WAGG_REQUIRES(mutex_) {
    for (Job* job = posted_; job != nullptr; job = job->next) {
      if (job->has_unclaimed_chunk()) return job;
    }
    return nullptr;
  }

  void help() {
#if defined(__linux__) && defined(SCHED_IDLE)
    // Helpers only soak up otherwise idle cores: a thread with real work
    // (a serving worker's next epoch) always runs before them, so the
    // split never delays work outside the parallel call. Best effort.
    const sched_param idle{};
    (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle);
#endif
    for (;;) {
      Job* job = nullptr;
      {
        MutexLock lock(mutex_);
        while ((job = claimable_job()) == nullptr && !stopping_) {
          wake_.wait(mutex_);
        }
        if (job == nullptr) return;
        // Joined under the mutex: the caller's retire() takes it too, so
        // the caller cannot miss this helper when it waits for the job.
        job->helpers_inside.fetch_add(1, std::memory_order_relaxed);
      }
      (void)job->run_chunks();
      {
        // The last touch of the job: the release publishes every write fn
        // made, and the caller may destroy the job right after it. Under
        // the mutex, so a caller asleep in retire() cannot miss it.
        MutexLock lock(mutex_);
        job->helpers_inside.fetch_sub(1, std::memory_order_release);
      }
      left_.notify_all();
    }
  }

  /// How long retire() spins before sleeping: several chunks of the
  /// power-control kernel's rows (8 rows at k = 700 take ~12 us).
  static constexpr std::chrono::microseconds kSpin{50};

  Mutex mutex_;
  CondVar wake_;  ///< a job was posted
  CondVar left_;  ///< a helper left a job
  Job* posted_ WAGG_GUARDED_BY(mutex_) = nullptr;
  bool stopping_ WAGG_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> helpers_;
};

}  // namespace

namespace detail {

std::size_t parallel_for(std::size_t n, std::size_t grain, IndexFn fn,
                         void* context) {
  if (n == 0) return 0;
  Job job;
  job.n = n;
  job.grain = std::max<std::size_t>(grain, 1);
  job.chunks = (n + job.grain - 1) / job.grain;
  job.fn = fn;
  job.context = context;

  Pool& pool = Pool::instance();
  const bool shared = job.chunks > 1 && pool.helpers() > 0;
  if (shared) pool.post(job);
  const std::size_t by_caller = job.run_chunks();
  if (shared) pool.retire(job);
  job.rethrow_lowest_error();
  return n - by_caller;
}

}  // namespace detail

std::size_t parallel_helpers() { return Pool::instance().helpers(); }

}  // namespace wagg::util
