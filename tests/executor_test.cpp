#include "runtime/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace wagg::runtime {
namespace {

/// Parks one worker on a task until release() (or destruction), so a test
/// can fill mailboxes that nothing drains meanwhile. The constructor returns
/// once the gate task has started.
class Gate {
 public:
  explicit Gate(Executor& executor) : queue_(executor.make_queue(1)) {
    const SubmitResult parked = queue_->try_submit([this] {
      std::unique_lock<std::mutex> lock(mutex_);
      started_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    });
    EXPECT_EQ(parked, SubmitResult::kAccepted);
    std::unique_lock<std::mutex> lock(mutex_);
    while (parked == SubmitResult::kAccepted && !started_) cv_.wait(lock);
  }
  ~Gate() {
    release();
    queue_->wait_drained();
  }
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::shared_ptr<Executor::SerialQueue> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool started_ = false;
  bool released_ = false;
};

TEST(Executor, RunsSubmittedTasks) {
  Executor executor(Executor::Options{.num_workers = 4});
  EXPECT_EQ(executor.num_workers(), 4u);
  auto queue = executor.make_queue(64);
  std::atomic<int> ran{0};
  // Two rounds: a drained queue parks, and the next submit schedules it
  // again.
  for (int round = 1; round <= 2; ++round) {
    for (int i = 0; i < 32; ++i) {
      ASSERT_EQ(queue->try_submit([&ran] { ran.fetch_add(1); }),
                SubmitResult::kAccepted);
    }
    queue->wait_drained();
    EXPECT_EQ(ran.load(), 32 * round);
  }
}

TEST(Executor, SerialQueuePreservesSubmitOrder) {
  // Many workers, ONE queue: the single-drainer invariant must keep the
  // tasks in submit order even though any worker may pick the queue up.
  Executor executor(Executor::Options{.num_workers = 8});
  auto queue = executor.make_queue(256);
  std::vector<int> order;
  std::mutex order_mutex;
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(queue->submit_blocking([&order, &order_mutex, i] {
                std::lock_guard<std::mutex> lock(order_mutex);
                order.push_back(i);
              }),
              SubmitResult::kAccepted);
  }
  queue->wait_drained();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(order[i], i);
}

TEST(Executor, SerialQueueNeverRunsConcurrently) {
  Executor executor(Executor::Options{.num_workers = 8});
  auto queue = executor.make_queue(256);
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(queue->submit_blocking([&inside, &overlapped] {
                if (inside.fetch_add(1) != 0) overlapped.store(true);
                std::this_thread::yield();
                inside.fetch_sub(1);
              }),
              SubmitResult::kAccepted);
  }
  queue->wait_drained();
  EXPECT_FALSE(overlapped.load());
}

TEST(Executor, QueuesRunConcurrentlyAcrossWorkers) {
  // Two queues, two workers: tasks that wait on each other can only finish
  // if the pool really runs the queues in parallel.
  Executor executor(Executor::Options{.num_workers = 2});
  auto a = executor.make_queue(4);
  auto b = executor.make_queue(4);
  std::mutex mutex;
  std::condition_variable cv;
  int arrivals = 0;
  const auto rendezvous = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    ++arrivals;
    cv.notify_all();
    cv.wait(lock, [&] { return arrivals >= 2; });
  };
  ASSERT_EQ(a->try_submit(rendezvous), SubmitResult::kAccepted);
  ASSERT_EQ(b->try_submit(rendezvous), SubmitResult::kAccepted);
  a->wait_drained();
  b->wait_drained();
  EXPECT_EQ(arrivals, 2);
}

TEST(Executor, TrySubmitReportsQueueFull) {
  Executor executor(Executor::Options{.num_workers = 1});
  Gate gate(executor);  // the test queue cannot drain while it is held

  auto queue = executor.make_queue(2);
  EXPECT_EQ(queue->try_submit([] {}), SubmitResult::kAccepted);
  EXPECT_EQ(queue->try_submit([] {}), SubmitResult::kAccepted);
  EXPECT_EQ(queue->try_submit([] {}), SubmitResult::kQueueFull);

  gate.release();
  queue->wait_drained();
  EXPECT_EQ(queue->try_submit([] {}), SubmitResult::kAccepted);
  queue->wait_drained();
}

TEST(Executor, SubmitBlockingWaitsForSpace) {
  Executor executor(Executor::Options{.num_workers = 1});
  // With the single worker parked, nothing drains the test queue until the
  // gate releases, so its capacity accounting is deterministic.
  Gate gate(executor);

  auto queue = executor.make_queue(1);
  ASSERT_EQ(queue->try_submit([] {}), SubmitResult::kAccepted);
  // The mailbox is now full; a blocking submit from another thread must
  // park until the gate releases the worker and the queue drains.

  std::atomic<bool> submitted{false};
  std::thread submitter([&] {
    EXPECT_EQ(queue->submit_blocking([] {}), SubmitResult::kAccepted);
    submitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(submitted.load());
  gate.release();
  submitter.join();
  EXPECT_TRUE(submitted.load());
  queue->wait_drained();
}

TEST(Executor, CloseRejectsNewWorkButDrainsQueued) {
  Executor executor(Executor::Options{.num_workers = 1});
  Gate gate(executor);

  auto queue = executor.make_queue(8);
  std::atomic<int> ran{0};
  ASSERT_EQ(queue->try_submit([&ran] { ran.fetch_add(1); }),
            SubmitResult::kAccepted);
  ASSERT_EQ(queue->try_submit([&ran] { ran.fetch_add(1); }),
            SubmitResult::kAccepted);
  queue->close();
  queue->close();  // idempotent
  EXPECT_EQ(queue->try_submit([&ran] { ran.fetch_add(1); }),
            SubmitResult::kClosed);
  EXPECT_EQ(queue->submit_blocking([&ran] { ran.fetch_add(1); }),
            SubmitResult::kClosed);

  gate.release();
  queue->wait_drained();
  EXPECT_EQ(ran.load(), 2);  // the queued tasks still ran, the rejected not
  EXPECT_EQ(queue->try_submit([&ran] { ran.fetch_add(1); }),
            SubmitResult::kClosed);  // drained, still closed
}

TEST(Executor, CloseWakesBlockedSubmitters) {
  Executor executor(Executor::Options{.num_workers = 1});
  Gate gate(executor);

  auto queue = executor.make_queue(1);
  ASSERT_EQ(queue->try_submit([] {}), SubmitResult::kAccepted);
  std::thread submitter([&] {
    EXPECT_EQ(queue->submit_blocking([] {}), SubmitResult::kClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue->close();
  submitter.join();
  gate.release();
  queue->wait_drained();  // the accepted task still runs after close
}

TEST(Executor, ShutdownDrainsAcceptedTasks) {
  std::atomic<int> ran{0};
  {
    Executor executor(Executor::Options{.num_workers = 2});
    std::vector<std::shared_ptr<Executor::SerialQueue>> queues;
    for (int q = 0; q < 8; ++q) {
      queues.push_back(executor.make_queue(32));
      for (int i = 0; i < 16; ++i) {
        ASSERT_EQ(queues.back()->try_submit([&ran] { ran.fetch_add(1); }),
                  SubmitResult::kAccepted);
      }
    }
    executor.shutdown();
    EXPECT_EQ(ran.load(), 8 * 16);
    // After shutdown every submit is rejected.
    EXPECT_EQ(queues[0]->try_submit([] {}), SubmitResult::kShutdown);
    EXPECT_EQ(queues[0]->submit_blocking([] {}), SubmitResult::kShutdown);
    executor.shutdown();  // idempotent
  }
  EXPECT_EQ(ran.load(), 8 * 16);
}

TEST(Executor, ShutdownResolvesBlockedSubmitter) {
  // A submitter blocked on a full mailbox when shutdown() begins must come
  // back with kShutdown: the drain pops the mailbox's task and that pop
  // wakes it. Every accepted task still runs.
  Executor executor(Executor::Options{.num_workers = 1});
  std::atomic<int> accepted{0};
  std::atomic<int> ran{0};
  const auto count = [&ran] { ran.fetch_add(1); };
  {
    Gate gate(executor);
    auto queue = executor.make_queue(1);
    ASSERT_EQ(queue->try_submit(count), SubmitResult::kAccepted);
    accepted.fetch_add(1);

    std::atomic<SubmitResult> blocked{SubmitResult::kAccepted};
    std::thread submitter(
        [&] { blocked.store(queue->submit_blocking(count)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::thread stopper([&] { executor.shutdown(); });

    // Release the gate only once the shutdown flag is published: until
    // then a probe is accepted or finds its mailbox full.
    auto probe = executor.make_queue(1);
    for (;;) {
      const SubmitResult result = probe->try_submit(count);
      if (result == SubmitResult::kShutdown) break;
      if (result == SubmitResult::kAccepted) accepted.fetch_add(1);
      std::this_thread::yield();
    }
    gate.release();
    submitter.join();
    stopper.join();
    EXPECT_EQ(blocked.load(), SubmitResult::kShutdown);
  }
  EXPECT_EQ(ran.load(), accepted.load());
}

TEST(Executor, ShutdownConcurrentWithSubmittersRunsEveryAcceptedTask) {
  // Regression test for a shutdown/submit race: a submitter could pass the
  // shutdown check, get descheduled, and push its task after the shutdown
  // drain had already observed pending == 0 and let the workers exit — the
  // task was ACCEPTED but never ran, silently violating the graceful-drain
  // contract. Admission and the shutdown flag share one lock, so every
  // submit either completes before the flag (its task is counted in the
  // drain) or observes it and rejects. The invariant under concurrent
  // shutdown is therefore exact: ran == accepted.
  for (int round = 0; round < 20; ++round) {
    Executor executor(Executor::Options{.num_workers = 2});
    constexpr int kThreads = 4;
    std::vector<std::shared_ptr<Executor::SerialQueue>> queues;
    for (int q = 0; q < kThreads; ++q) {
      queues.push_back(executor.make_queue(64));
    }
    std::atomic<int> accepted{0};
    std::atomic<int> ran{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          const auto result =
              i % 2 == 0 ? queues[t]->try_submit([&ran] { ran.fetch_add(1); })
                         : queues[t]->submit_blocking(
                               [&ran] { ran.fetch_add(1); });
          if (result == SubmitResult::kAccepted) {
            accepted.fetch_add(1);
          } else if (result == SubmitResult::kShutdown) {
            return;  // the flag is published: every later submit rejects too
          }
        }
      });
    }
    // Let the storm build, then pull the plug mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    executor.shutdown();
    stop.store(true);
    for (auto& thread : submitters) thread.join();
    EXPECT_EQ(ran.load(), accepted.load()) << "round " << round;
  }
}

TEST(Executor, FreeWorkerDrainsEveryQueueWhileOneIsParked) {
  // Two workers, one parked on a gate: the other must drain all 14 queues
  // by itself.
  Executor executor(Executor::Options{.num_workers = 2});
  Gate gate(executor);

  std::mutex mutex;
  std::condition_variable cv;
  int ran = 0;
  constexpr int kQueues = 14;
  std::vector<std::shared_ptr<Executor::SerialQueue>> queues;
  for (int q = 0; q < kQueues; ++q) {
    queues.push_back(executor.make_queue(4));
    ASSERT_EQ(queues.back()->try_submit([&] {
                std::lock_guard<std::mutex> lock(mutex);
                ++ran;
                cv.notify_all();
              }),
              SubmitResult::kAccepted);
  }
  {
    // Bounded wait: a queue stranded behind the gate never runs.
    std::unique_lock<std::mutex> lock(mutex);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return ran == kQueues; }))
        << ran << " of " << kQueues << " ran while the gate was held";
  }
  gate.release();
  for (auto& queue : queues) queue->wait_drained();
}

TEST(Executor, ConcurrentSubmittersStress) {
  // Cross-thread submit storm over shared queues: the TSan target for the
  // mailbox/ready-list/wake-up protocol.
  Executor executor(Executor::Options{.num_workers = 4});
  constexpr int kQueues = 16;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::shared_ptr<Executor::SerialQueue>> queues;
  for (int q = 0; q < kQueues; ++q) queues.push_back(executor.make_queue(8));
  std::atomic<int> ran{0};
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto& queue = queues[(t * kPerThread + i) % kQueues];
        const auto result =
            i % 2 == 0 ? queue->submit_blocking([&ran] { ran.fetch_add(1); })
                       : queue->try_submit([&ran] { ran.fetch_add(1); });
        if (result == SubmitResult::kAccepted) {
          accepted.fetch_add(1);
          continue;
        }
        ASSERT_EQ(result, SubmitResult::kQueueFull);
        rejected.fetch_add(1);
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  for (auto& queue : queues) queue->wait_drained();
  EXPECT_EQ(accepted.load() + rejected.load(), kThreads * kPerThread);
  EXPECT_EQ(ran.load(), accepted.load());  // nothing accepted is left over
}

TEST(Executor, DeepMailboxDoesNotStarveSiblings) {
  // One queue with many tasks, one with a single task, one worker: the
  // round-robin ready list must let the single task run before the deep
  // mailbox finishes.
  Executor executor(Executor::Options{.num_workers = 1});
  auto deep = executor.make_queue(128);
  auto shallow = executor.make_queue(4);
  // Hold the worker so both queues are fully populated before draining.
  Gate gate(executor);

  std::atomic<int> deep_done{0};
  std::atomic<int> deep_done_when_shallow_ran{-1};
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(deep->try_submit([&deep_done] { deep_done.fetch_add(1); }),
              SubmitResult::kAccepted);
  }
  ASSERT_EQ(shallow->try_submit([&] {
              deep_done_when_shallow_ran.store(deep_done.load());
            }),
            SubmitResult::kAccepted);

  gate.release();
  deep->wait_drained();
  shallow->wait_drained();
  EXPECT_EQ(deep_done.load(), 100);
  // The shallow task ran long before the deep queue drained (round-robin
  // gives it the second turn; allow generous slack).
  EXPECT_GE(deep_done_when_shallow_ran.load(), 0);
  EXPECT_LT(deep_done_when_shallow_ran.load(), 50);
}

}  // namespace
}  // namespace wagg::runtime
