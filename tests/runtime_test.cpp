#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "instance/basic.h"
#include "runtime/plan_service.h"
#include "workload/workload.h"

namespace wagg::runtime {
namespace {

std::vector<PlanRequest> small_batch(std::size_t count) {
  std::vector<PlanRequest> requests;
  for (std::size_t i = 0; i < count; ++i) {
    PlanRequest request;
    request.seed = 100 + i;
    request.points = instance::uniform_square(48, 7.0, request.seed);
    request.config = workload::mode_config(
        i % 2 == 0 ? core::PowerMode::kGlobal : core::PowerMode::kUniform);
    request.tags = "req=" + std::to_string(i);
    requests.push_back(std::move(request));
  }
  return requests;
}

TEST(PlanService, ParallelMatchesSerial) {
  const auto requests = small_batch(12);

  PlanService serial(ServiceOptions{.num_workers = 1});
  PlanService pooled(ServiceOptions{.num_workers = 4});
  const auto serial_result = serial.run(requests);
  const auto pooled_result = pooled.run(requests);

  ASSERT_EQ(serial_result.outcomes.size(), requests.size());
  ASSERT_EQ(pooled_result.outcomes.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& s = serial_result.outcomes[i];
    const auto& p = pooled_result.outcomes[i];
    EXPECT_TRUE(s.ok) << s.error;
    EXPECT_TRUE(p.ok) << p.error;
    EXPECT_EQ(s.request_index, i);
    EXPECT_EQ(p.request_index, i);
    EXPECT_EQ(s.digest, p.digest) << "request " << i;
    EXPECT_EQ(s.slots, p.slots);
    EXPECT_EQ(s.slots_split, p.slots_split);
    EXPECT_DOUBLE_EQ(s.rate, p.rate);
    EXPECT_EQ(s.tags, p.tags);
  }
}

TEST(PlanService, MalformedRequestsFailWithoutPoisoningBatch) {
  auto requests = small_batch(6);
  // Duplicate points -> zero-length MST edge.
  requests[1].points[3] = requests[1].points[7];
  // Sink out of range.
  requests[4].config.sink = 10000;

  PlanService service(ServiceOptions{.num_workers = 3});
  const auto result = service.run(requests);

  ASSERT_EQ(result.outcomes.size(), requests.size());
  EXPECT_FALSE(result.outcomes[1].ok);
  EXPECT_FALSE(result.outcomes[1].error.empty());
  EXPECT_FALSE(result.outcomes[4].ok);
  EXPECT_FALSE(result.outcomes[4].error.empty());
  for (const std::size_t i : {0u, 2u, 3u, 5u}) {
    EXPECT_TRUE(result.outcomes[i].ok) << result.outcomes[i].error;
    EXPECT_TRUE(result.outcomes[i].verified);
  }
  EXPECT_EQ(result.stats.total, 6u);
  EXPECT_EQ(result.stats.succeeded, 4u);
  EXPECT_EQ(result.stats.failed, 2u);
}

TEST(PlanService, TimingsAndStatsPopulated) {
  const auto requests = small_batch(5);
  PlanService service(ServiceOptions{.num_workers = 2});
  const auto result = service.run(requests);

  for (const auto& outcome : result.outcomes) {
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_GT(outcome.total_ms, 0.0);
    // Stages are disjoint sub-intervals of the request, so together they
    // fit inside its wall clock.
    EXPECT_GT(outcome.times[core::Stage::kMstUpdate], 0.0);
    EXPECT_LE(outcome.times.total_ms(), outcome.total_ms);
    EXPECT_GT(outcome.slots, 0u);
    EXPECT_GT(outcome.num_links, 0u);
  }
  EXPECT_GT(result.stats.wall_ms, 0.0);
  EXPECT_GT(result.stats.plans_per_sec, 0.0);
  EXPECT_GE(result.stats.total_latency.p95, result.stats.total_latency.p50);
  EXPECT_GE(result.stats.total_latency.max, result.stats.total_latency.p95);
}

TEST(PlanService, EmptyBatchAndReuse) {
  PlanService service(ServiceOptions{.num_workers = 2});
  const auto empty = service.run({});
  EXPECT_TRUE(empty.outcomes.empty());
  EXPECT_EQ(empty.stats.total, 0u);

  // The pool is reusable across batches.
  const auto requests = small_batch(3);
  const auto first = service.run(requests);
  const auto second = service.run(requests);
  ASSERT_EQ(first.outcomes.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first.outcomes[i].digest, second.outcomes[i].digest);
  }
}

TEST(PlanService, ReportsQueueWaitLatency) {
  const auto requests = small_batch(8);
  // One worker: later requests must wait for earlier ones, so queue waits
  // are non-decreasing in completion order and the summary is populated.
  PlanService service(ServiceOptions{.num_workers = 1});
  const auto result = service.run(requests);
  for (const auto& outcome : result.outcomes) {
    EXPECT_GE(outcome.queue_ms, 0.0);
    EXPECT_LE(outcome.queue_ms, result.stats.wall_ms + 1.0);
  }
  // With one worker the last-picked request waited at least as long as the
  // first; the max must be strictly positive once 8 plans ran serially.
  EXPECT_GT(result.stats.queue.max, 0.0);
  EXPECT_GE(result.stats.queue.p95, result.stats.queue.p50);
  EXPECT_GE(result.stats.queue.max, result.stats.queue.p95);

  // Direct execution never queues.
  const auto direct = execute_request(requests[0], 0);
  EXPECT_DOUBLE_EQ(direct.queue_ms, 0.0);
}

TEST(ExecuteRequest, MatchesServicePath) {
  const auto requests = small_batch(3);
  PlanService service(ServiceOptions{.num_workers = 2});
  const auto batch = service.run(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto direct = execute_request(requests[i], i);
    ASSERT_TRUE(direct.ok) << direct.error;
    EXPECT_EQ(direct.digest, batch.outcomes[i].digest);
  }
}

}  // namespace
}  // namespace wagg::runtime
