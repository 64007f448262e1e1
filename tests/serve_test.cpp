#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dynamic/dynamic_planner.h"
#include "dynamic/mutation.h"
#include "geom/point.h"
#include "instance/basic.h"
#include "obs/metrics.h"
#include "runtime/plan_service.h"
#include "workload/workload.h"

namespace wagg::runtime {
namespace {

geom::Pointset points(std::size_t n, std::uint64_t seed) {
  return instance::uniform_square(n, 7.0, seed);
}

dynamic::DynamicOptions dyn_options(core::PowerMode mode,
                                    bool audit = false) {
  dynamic::DynamicOptions options;
  options.config = workload::mode_config(mode);
  options.audit = audit;
  return options;
}

dynamic::ChurnTrace trace_for(const geom::Pointset& initial,
                              std::size_t epochs, std::uint64_t seed) {
  dynamic::ChurnParams params;
  params.epochs = epochs;
  params.rate = 0.05;
  return dynamic::make_churn_trace(initial, params, seed);
}

// Opens a session and waits for its initial plan.
PlanService::SessionId open(PlanService& service,
                            const geom::Pointset& initial,
                            const dynamic::DynamicOptions& options) {
  const OpenOutcome outcome =
      service.open_session_async(initial, options).get();
  EXPECT_EQ(outcome.status, SessionStatus::kOk) << outcome.error;
  return outcome.id;
}

// submit_epoch with its callback turned into a future: it resolves when
// `done` runs, on the applying worker or inline on an admission failure.
std::future<EpochOutcome> submit(PlanService& service,
                                 PlanService::SessionId id,
                                 std::vector<dynamic::Mutation> mutations,
                                 OnFull on_full = OnFull::kReject) {
  auto promise = std::make_shared<std::promise<EpochOutcome>>();
  auto future = promise->get_future();
  service.submit_epoch(
      id, std::move(mutations),
      [promise](EpochOutcome outcome) {
        promise->set_value(std::move(outcome));
      },
      on_full);
  return future;
}

// Submits an epoch that admission must refuse, checks that `done` ran on
// this thread before submit_epoch returned, and returns its status.
SessionStatus refused_inline(PlanService& service, PlanService::SessionId id) {
  struct Seen {
    std::atomic<bool> called{false};
    std::thread::id thread;
    SessionStatus status = SessionStatus::kOk;
  };
  auto seen = std::make_shared<Seen>();
  service.submit_epoch(id, {}, [seen](EpochOutcome outcome) {
    seen->thread = std::this_thread::get_id();
    seen->status = outcome.status;
    seen->called.store(true, std::memory_order_release);
  });
  if (!seen->called.load(std::memory_order_acquire)) {
    ADD_FAILURE() << "done had not run when submit_epoch returned";
    return SessionStatus::kOk;
  }
  EXPECT_EQ(seen->thread, std::this_thread::get_id());
  return seen->status;
}

// The acceptance currency: async sessions produce plans digest-identical to
// a serial DynamicPlanner fed the same trace, and per-session epochs run in
// submit order no matter how many workers multiplex the pool.
TEST(Serve, AsyncMatchesSyncDigestAndOrder) {
  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kEpochs = 5;
  PlanService service(ServiceOptions{.num_workers = 4});

  std::vector<PlanService::SessionId> ids;
  std::vector<geom::Pointset> initials;
  std::vector<dynamic::ChurnTrace> traces;
  std::vector<std::future<OpenOutcome>> opens;
  for (std::size_t s = 0; s < kSessions; ++s) {
    initials.push_back(points(40 + 4 * s, 100 + s));
    traces.push_back(trace_for(initials.back(), kEpochs, 900 + s));
    opens.push_back(service.open_session_async(
        initials.back(), dyn_options(core::PowerMode::kOblivious)));
  }
  for (auto& open : opens) {
    OpenOutcome outcome = open.get();
    ASSERT_EQ(outcome.status, SessionStatus::kOk) << outcome.error;
    ids.push_back(outcome.id);
  }
  EXPECT_EQ(service.num_sessions(), kSessions);
  EXPECT_EQ(service.session(ids[0])->epoch(), 0u);

  // Queue every epoch of every session before waiting on any of them.
  std::vector<std::vector<std::future<EpochOutcome>>> futures(kSessions);
  for (std::size_t e = 0; e < kEpochs; ++e) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      futures[s].push_back(
          submit(service, ids[s], traces[s][e], OnFull::kBlock));
    }
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    for (std::size_t e = 0; e < kEpochs; ++e) {
      EpochOutcome outcome = futures[s][e].get();
      ASSERT_EQ(outcome.status, SessionStatus::kOk) << outcome.error;
      // report.epoch counts from 0 (the initial plan): submit order holds.
      EXPECT_EQ(outcome.report.epoch, e + 1);
      EXPECT_TRUE(outcome.report.valid);
    }
  }

  for (std::size_t s = 0; s < kSessions; ++s) {
    // The session's planner kept its state across the epochs.
    EXPECT_EQ(service.session(ids[s])->epoch(), kEpochs);
    dynamic::DynamicPlanner serial(initials[s],
                                   dyn_options(core::PowerMode::kOblivious));
    for (const auto& epoch : traces[s]) {
      (void)serial.apply(std::span<const dynamic::Mutation>(epoch));
    }
    EXPECT_EQ(service.session_digest(ids[s]), snapshot_digest(serial))
        << "session " << s;
    EXPECT_EQ(service.close_session(ids[s]), SessionStatus::kOk);
  }
  EXPECT_EQ(service.num_sessions(), 0u);
}

TEST(Serve, LifecycleStatusesAreTypedNotUB) {
  PlanService service(ServiceOptions{.num_workers = 2});
  const auto initial = points(40, 3);

  // Never-issued ids resolve kUnknownSession everywhere.
  const PlanService::SessionId bogus = (std::uint64_t{7} << 32) | 123u;
  EXPECT_EQ(service.close_session(bogus), SessionStatus::kUnknownSession);
  EXPECT_EQ(submit(service, bogus, {}).get().status,
            SessionStatus::kUnknownSession);
  EXPECT_EQ(service.close_session(0), SessionStatus::kUnknownSession);
  EXPECT_THROW((void)service.session(bogus), std::invalid_argument);

  const auto id =
      open(service, initial, dyn_options(core::PowerMode::kUniform));
  EXPECT_EQ(service.close_session(id), SessionStatus::kOk);

  // Closed ids are data, not UB: typed status, no exception on submit.
  EXPECT_EQ(service.close_session(id), SessionStatus::kClosedSession);
  EXPECT_EQ(submit(service, id, {}).get().status,
            SessionStatus::kClosedSession);
  EXPECT_THROW((void)service.session(id), std::invalid_argument);
}

// The callback contract perfbench serve-mixed's carry logic depends on: an
// admission failure calls `done` on the submitting thread before
// submit_epoch returns (kMailboxFull is checked in the backpressure test
// below), an accepted epoch calls it on the worker that applied it.
TEST(Serve, DoneRunsInlineOnRefusalAndOnAWorkerOtherwise) {
  PlanService service(ServiceOptions{.num_workers = 2});
  const auto initial = points(40, 17);
  const auto trace = trace_for(initial, 1, 19);

  const PlanService::SessionId bogus = (std::uint64_t{7} << 32) | 123u;
  EXPECT_EQ(refused_inline(service, bogus), SessionStatus::kUnknownSession);

  const auto id =
      open(service, initial, dyn_options(core::PowerMode::kUniform));
  auto worker = std::make_shared<std::promise<std::thread::id>>();
  auto ran_on = worker->get_future();
  service.submit_epoch(id, trace[0], [worker](EpochOutcome outcome) {
    EXPECT_EQ(outcome.status, SessionStatus::kOk) << outcome.error;
    worker->set_value(std::this_thread::get_id());
  });
  EXPECT_NE(ran_on.get(), std::this_thread::get_id());

  EXPECT_EQ(service.close_session(id), SessionStatus::kOk);
  EXPECT_EQ(refused_inline(service, id), SessionStatus::kClosedSession);
}

TEST(Serve, GenerationTagDetectsSlotReuse) {
  PlanService service(ServiceOptions{.num_workers = 1, .max_sessions = 1});
  const auto initial = points(40, 5);
  const auto trace = trace_for(initial, 2, 11);

  const auto first =
      open(service, initial, dyn_options(core::PowerMode::kUniform));
  EXPECT_EQ(service.close_session(first), SessionStatus::kOk);

  // max_sessions=1 forces the second open onto the SAME slot; only the
  // generation tag distinguishes the stale id from the live session.
  const auto second =
      open(service, initial, dyn_options(core::PowerMode::kUniform));
  ASSERT_NE(first, second);
  EXPECT_EQ(submit(service, first, trace[0]).get().status,
            SessionStatus::kClosedSession);
  EXPECT_EQ(submit(service, second, trace[0], OnFull::kBlock).get().status,
            SessionStatus::kOk);
  EXPECT_EQ(service.session(second)->epoch(), 1u);
  EXPECT_EQ(service.close_session(second), SessionStatus::kOk);
}

TEST(Serve, MailboxBackpressureRejectsAndCounts) {
  // The gate outlives the service, whose destructor drains the session.
  std::promise<void> entered;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  SessionStatus gated = SessionStatus::kShutdown;

  PlanService service(ServiceOptions{
      .num_workers = 1, .max_sessions = 4, .session_mailbox_capacity = 1});
  const auto initial = points(48, 9);
  const auto trace = trace_for(initial, 3, 13);
  const auto id =
      open(service, initial, dyn_options(core::PowerMode::kOblivious));
  auto& rejects = obs::Registry::global().counter("service.mailbox_rejects");
  const auto rejects_before = rejects.value();

  // Park the single worker inside an accepted epoch's callback: that task
  // has left the mailbox, and nothing drains it until the gate opens.
  service.submit_epoch(id, trace[0], [&](EpochOutcome outcome) {
    gated = outcome.status;
    entered.set_value();
    released.wait();
  });
  entered.get_future().wait();
  EXPECT_EQ(gated, SessionStatus::kOk);

  // The next submit fills the capacity-1 mailbox; the one after is refused,
  // inline, every time.
  auto filler = submit(service, id, trace[1], OnFull::kReject);
  EXPECT_EQ(refused_inline(service, id), SessionStatus::kMailboxFull);
  EXPECT_EQ(rejects.value() - rejects_before, 1u);

  // Blocking submits ride out the backpressure instead.
  release.set_value();
  EXPECT_EQ(submit(service, id, trace[2], OnFull::kBlock).get().status,
            SessionStatus::kOk);
  EXPECT_EQ(filler.get().status, SessionStatus::kOk);
  EXPECT_EQ(service.session(id)->epoch(), 3u);
  EXPECT_EQ(service.close_session(id), SessionStatus::kOk);
}

TEST(Serve, AdmissionControlEnforcesSessionLimit) {
  PlanService service(ServiceOptions{.num_workers = 2, .max_sessions = 2});
  const auto initial = points(40, 21);
  const auto options = dyn_options(core::PowerMode::kUniform);

  const auto a = open(service, initial, options);
  const auto b = open(service, initial, options);
  OpenOutcome third = service.open_session_async(initial, options).get();
  EXPECT_EQ(third.status, SessionStatus::kSessionLimit);
  EXPECT_EQ(service.num_sessions(), 2u);

  // Closing frees admission capacity.
  EXPECT_EQ(service.close_session(a), SessionStatus::kOk);
  OpenOutcome reopened = service.open_session_async(initial, options).get();
  EXPECT_EQ(reopened.status, SessionStatus::kOk) << reopened.error;
  (void)service.close_session(reopened.id);
  (void)service.close_session(b);
}

TEST(Serve, PlannerErrorsAreTypedAndNonFatal) {
  PlanService service(ServiceOptions{.num_workers = 2});
  const auto initial = points(40, 31);
  const auto id =
      open(service, initial, dyn_options(core::PowerMode::kUniform));

  // Removing a node that does not exist is a caller error: typed outcome
  // carrying the planner's message.
  dynamic::Mutation bad;
  bad.kind = dynamic::Mutation::Kind::kRemove;
  bad.node = 9999;
  EpochOutcome outcome = submit(service, id, {bad}).get();
  EXPECT_EQ(outcome.status, SessionStatus::kPlannerError);
  EXPECT_FALSE(outcome.error.empty());

  // A failed epoch does not poison the session: the next valid epoch runs.
  const auto trace = trace_for(initial, 1, 41);
  EXPECT_EQ(submit(service, id, trace[0], OnFull::kBlock).get().status,
            SessionStatus::kOk);
  (void)service.close_session(id);
}

TEST(Serve, FailedAsyncOpenFreesTheSlot) {
  PlanService service(ServiceOptions{.num_workers = 2, .max_sessions = 1});
  // An empty pointset fails DynamicPlanner construction inside the pool.
  OpenOutcome outcome =
      service
          .open_session_async(geom::Pointset{},
                              dyn_options(core::PowerMode::kUniform))
          .get();
  EXPECT_EQ(outcome.status, SessionStatus::kPlannerError);
  EXPECT_FALSE(outcome.error.empty());

  // Epochs aimed at the failed session resolve typed, never run a planner.
  EpochOutcome epoch = submit(service, outcome.id, {}).get();
  EXPECT_NE(epoch.status, SessionStatus::kOk);

  // The slot was released — with max_sessions=1 a fresh open only succeeds
  // if the failed one gave its capacity back.
  OpenOutcome reopened =
      service
          .open_session_async(points(40, 51),
                              dyn_options(core::PowerMode::kUniform))
          .get();
  EXPECT_EQ(reopened.status, SessionStatus::kOk) << reopened.error;
  EXPECT_EQ(service.num_sessions(), 1u);
  (void)service.close_session(reopened.id);
  EXPECT_EQ(service.num_sessions(), 0u);
}

TEST(Serve, EpochsSubmittedAfterOpenApplyInOrder) {
  PlanService service(ServiceOptions{.num_workers = 2});
  const auto initial = points(48, 61);
  const auto trace = trace_for(initial, 3, 71);

  auto open = service.open_session_async(
      initial, dyn_options(core::PowerMode::kOblivious));
  // The id arrives with the open's outcome, so every epoch is submitted
  // after the open resolved. Submitted back to back without waiting, they
  // must still apply one by one in submit order, as a serial replay does.
  OpenOutcome opened = open.get();
  ASSERT_EQ(opened.status, SessionStatus::kOk) << opened.error;
  std::vector<std::future<EpochOutcome>> futures;
  for (const auto& epoch : trace) {
    futures.push_back(submit(service, opened.id, epoch, OnFull::kBlock));
  }
  std::size_t expected = 1;
  for (auto& future : futures) {
    EpochOutcome outcome = future.get();
    ASSERT_EQ(outcome.status, SessionStatus::kOk) << outcome.error;
    EXPECT_EQ(outcome.report.epoch, expected++);
  }

  dynamic::DynamicPlanner serial(initial,
                                 dyn_options(core::PowerMode::kOblivious));
  for (const auto& epoch : trace) {
    (void)serial.apply(std::span<const dynamic::Mutation>(epoch));
  }
  EXPECT_EQ(service.session_digest(opened.id), snapshot_digest(serial));
  (void)service.close_session(opened.id);
}

// The TSan target: many threads churning sessions through the full
// lifecycle — async opens, mixed submits, closes, stale-id probes — with a
// sampled audit subset cross-checking every epoch against a full replan.
TEST(Serve, MixedLifecycleStress) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSessionsPerThread = 24;
  PlanService service(ServiceOptions{
      .num_workers = 4, .max_sessions = 64, .session_mailbox_capacity = 4});
  std::atomic<std::size_t> epochs_ok{0};
  std::atomic<std::size_t> backpressured{0};

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + t);
      for (std::size_t s = 0; s < kSessionsPerThread; ++s) {
        const bool audit = (t * kSessionsPerThread + s) % 8 == 0;
        const auto initial = points(24 + rng() % 16, rng());
        const auto trace = trace_for(initial, 3, rng());
        OpenOutcome opened =
            service
                .open_session_async(
                    initial, dyn_options(core::PowerMode::kOblivious, audit))
                .get();
        if (opened.status == SessionStatus::kSessionLimit) continue;
        ASSERT_EQ(opened.status, SessionStatus::kOk) << opened.error;

        std::vector<std::future<EpochOutcome>> futures;
        for (std::size_t e = 0; e < trace.size(); ++e) {
          const OnFull mode = e % 2 == 0 ? OnFull::kBlock : OnFull::kReject;
          futures.push_back(submit(service, opened.id, trace[e], mode));
        }
        for (auto& future : futures) {
          const auto status = future.get().status;
          if (status == SessionStatus::kOk) {
            epochs_ok.fetch_add(1);
          } else {
            ASSERT_EQ(status, SessionStatus::kMailboxFull);
            backpressured.fetch_add(1);
          }
        }
        EXPECT_EQ(service.close_session(opened.id), SessionStatus::kOk);
        // Stale-id probes against the closed session race the other
        // threads' opens reusing the slot — the generation tag must keep
        // them typed either way.
        const auto stale = submit(service, opened.id, {}).get().status;
        EXPECT_TRUE(stale == SessionStatus::kClosedSession ||
                    stale == SessionStatus::kUnknownSession)
            << to_string(stale);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(service.num_sessions(), 0u);
  EXPECT_GT(epochs_ok.load(), 0u);
}

// Destroying the service with sessions still open must drain, not crash:
// in-flight futures all resolve before the destructor returns.
TEST(Serve, DestructionDrainsOpenSessions) {
  std::vector<std::future<EpochOutcome>> futures;
  {
    PlanService service(ServiceOptions{.num_workers = 2});
    const auto initial = points(40, 81);
    const auto trace = trace_for(initial, 2, 91);
    const auto id =
        open(service, initial, dyn_options(core::PowerMode::kOblivious));
    for (const auto& epoch : trace) {
      futures.push_back(submit(service, id, epoch, OnFull::kBlock));
    }
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().status, SessionStatus::kOk);
  }
}

}  // namespace
}  // namespace wagg::runtime
