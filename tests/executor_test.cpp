#include "runtime/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace wagg::runtime {
namespace {

TEST(Executor, RunsSubmittedTasks) {
  Executor executor(Executor::Options{.num_workers = 4});
  EXPECT_EQ(executor.num_workers(), 4u);
  auto queue = executor.make_queue(64);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(queue->try_submit([&ran] { ran.fetch_add(1); }),
              SubmitResult::kAccepted);
  }
  queue->wait_drained();
  EXPECT_EQ(ran.load(), 32);
  EXPECT_EQ(queue->depth(), 0u);
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
  auto gate = executor.make_queue(1);
  // Park the worker on a gate task so the test queue cannot drain.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  ASSERT_EQ(gate->try_submit([&] {
              std::unique_lock<std::mutex> lock(mutex);
              cv.wait(lock, [&] { return release; });
            }),
            SubmitResult::kAccepted);

  auto queue = executor.make_queue(2);
  EXPECT_EQ(queue->try_submit([] {}), SubmitResult::kAccepted);
  EXPECT_EQ(queue->try_submit([] {}), SubmitResult::kAccepted);
  EXPECT_EQ(queue->try_submit([] {}), SubmitResult::kQueueFull);

  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  queue->wait_drained();
  EXPECT_EQ(queue->try_submit([] {}), SubmitResult::kAccepted);
  queue->wait_drained();
}

TEST(Executor, SubmitBlockingWaitsForSpace) {
  Executor executor(Executor::Options{.num_workers = 1});
  // Park the single worker on a separate gate queue, and WAIT for the gate
  // task to start — only then is the test queue's capacity accounting
  // deterministic (nothing can drain it until the gate releases).
  auto gate = executor.make_queue(1);
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  ASSERT_EQ(gate->try_submit([&] {
              std::unique_lock<std::mutex> lock(mutex);
              started = true;
              cv.notify_all();
              cv.wait(lock, [&] { return release; });
            }),
            SubmitResult::kAccepted);
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return started; });
  }

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
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  submitter.join();
  EXPECT_TRUE(submitted.load());
  queue->wait_drained();
}

TEST(Executor, CloseRejectsNewWorkButDrainsQueued) {
  Executor executor(Executor::Options{.num_workers = 1});
  auto gate = executor.make_queue(1);
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  ASSERT_EQ(gate->try_submit([&] {
              std::unique_lock<std::mutex> lock(mutex);
              cv.wait(lock, [&] { return release; });
            }),
            SubmitResult::kAccepted);

  auto queue = executor.make_queue(8);
  std::atomic<int> ran{0};
  ASSERT_EQ(queue->try_submit([&ran] { ran.fetch_add(1); }),
            SubmitResult::kAccepted);
  ASSERT_EQ(queue->try_submit([&ran] { ran.fetch_add(1); }),
            SubmitResult::kAccepted);
  queue->close();
  EXPECT_TRUE(queue->closed());
  EXPECT_EQ(queue->try_submit([&ran] { ran.fetch_add(1); }),
            SubmitResult::kClosed);
  EXPECT_EQ(queue->submit_blocking([&ran] { ran.fetch_add(1); }),
            SubmitResult::kClosed);

  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  queue->wait_drained();
  EXPECT_EQ(ran.load(), 2);  // the queued tasks still ran, the rejected not
}

TEST(Executor, CloseWakesBlockedSubmitters) {
  Executor executor(Executor::Options{.num_workers = 1});
  auto gate = executor.make_queue(1);
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  ASSERT_EQ(gate->try_submit([&] {
              std::unique_lock<std::mutex> lock(mutex);
              started = true;
              cv.notify_all();
              cv.wait(lock, [&] { return release; });
            }),
            SubmitResult::kAccepted);
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return started; });
  }

  auto queue = executor.make_queue(1);
  ASSERT_EQ(queue->try_submit([] {}), SubmitResult::kAccepted);
  std::thread submitter([&] {
    EXPECT_EQ(queue->submit_blocking([] {}), SubmitResult::kClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue->close();
  submitter.join();
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
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

TEST(Executor, ShutdownConcurrentWithSubmittersRunsEveryAcceptedTask) {
  // Regression test for a shutdown/submit race: a submitter could pass the
  // shutting_down_ check, get descheduled, and push its task after the
  // shutdown drain had already observed pending == 0 and let the workers
  // exit — the task was ACCEPTED but never ran, silently violating the
  // graceful-drain contract. shutdown() now fences each live queue's mutex
  // after publishing the flag, so every submit critical section either
  // completed before the fence (its task is visible to the drain) or
  // observes the flag and rejects. The invariant under concurrent
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

TEST(Executor, WorkStealingCoversAllStripes) {
  // Two workers, so two stripes, and one worker parked on a gate: the other
  // must drain queues on both stripes, the gate holder's home by stealing.
  Executor executor(Executor::Options{.num_workers = 2});
  auto gate = executor.make_queue(1);
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  int ran = 0;
  ASSERT_EQ(gate->try_submit([&] {
              std::unique_lock<std::mutex> lock(mutex);
              started = true;
              cv.notify_all();
              cv.wait(lock, [&] { return release; });
            }),
            SubmitResult::kAccepted);
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return started; });
  }

  constexpr int kQueues = 14;
  std::vector<std::shared_ptr<Executor::SerialQueue>> queues;
  std::set<std::size_t> stripes;
  for (int q = 0; q < kQueues; ++q) {
    queues.push_back(executor.make_queue(4));
    stripes.insert(queues.back()->stripe());
    ASSERT_EQ(queues.back()->try_submit([&] {
                std::lock_guard<std::mutex> lock(mutex);
                ++ran;
                cv.notify_all();
              }),
              SubmitResult::kAccepted);
  }
  EXPECT_EQ(stripes.size(), 2u);
  {
    // Bounded wait: without stealing, half the tasks sit behind the gate.
    std::unique_lock<std::mutex> lock(mutex);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return ran == kQueues; }))
        << ran << " of " << kQueues << " ran while the gate was held";
    release = true;
  }
  cv.notify_all();
  for (auto& queue : queues) queue->wait_drained();
  gate->wait_drained();
}

TEST(Executor, ConcurrentSubmittersStress) {
  // Cross-thread submit storm over shared queues: the TSan target for the
  // mailbox/ready-list/sleep protocol.
  Executor executor(Executor::Options{.num_workers = 4});
  constexpr int kQueues = 16;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::shared_ptr<Executor::SerialQueue>> queues;
  for (int q = 0; q < kQueues; ++q) queues.push_back(executor.make_queue(8));
  std::atomic<int> ran{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto& queue = queues[(t * kPerThread + i) % kQueues];
        const auto result =
            i % 2 == 0 ? queue->submit_blocking([&ran] { ran.fetch_add(1); })
                       : queue->try_submit([&ran] { ran.fetch_add(1); });
        if (result == SubmitResult::kAccepted) continue;
        ASSERT_EQ(result, SubmitResult::kQueueFull);
        rejected.fetch_add(1);
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  for (auto& queue : queues) queue->wait_drained();
  EXPECT_EQ(ran.load() + rejected.load(), kThreads * kPerThread);
  EXPECT_EQ(executor.pending_tasks(), 0u);
}

TEST(Executor, DeepMailboxDoesNotStarveSiblings) {
  // One queue with many tasks, one with a single task, one worker, so ONE
  // stripe: round-robin requeueing must let the single task run before the
  // deep mailbox finishes.
  Executor executor(Executor::Options{.num_workers = 1});
  auto deep = executor.make_queue(128);
  auto shallow = executor.make_queue(4);

  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  // Hold the worker so both queues are fully populated before draining.
  auto gate = executor.make_queue(1);
  ASSERT_EQ(gate->try_submit([&] {
              std::unique_lock<std::mutex> lock(mutex);
              cv.wait(lock, [&] { return release; });
            }),
            SubmitResult::kAccepted);

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

  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  deep->wait_drained();
  shallow->wait_drained();
  EXPECT_EQ(deep_done.load(), 100);
  // The shallow task ran long before the deep queue drained (round-robin
  // gives it the second slot; allow generous slack).
  EXPECT_GE(deep_done_when_shallow_ran.load(), 0);
  EXPECT_LT(deep_done_when_shallow_ran.load(), 50);
}

}  // namespace
}  // namespace wagg::runtime
