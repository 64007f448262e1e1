#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace wagg::obs {
namespace {

// ---------------------------------------------------------------- histogram

TEST(Histogram, BucketIndexIsMonotoneAndInRange) {
  std::size_t prev = Histogram::bucket_index(0.0);
  EXPECT_EQ(prev, 0u);
  EXPECT_EQ(Histogram::bucket_index(-3.5), 0u);
  for (double v = 1e-6; v < 1e9; v *= 1.37) {
    const std::size_t index = Histogram::bucket_index(v);
    EXPECT_LT(index, Histogram::kNumBuckets);
    EXPECT_GE(index, prev) << "bucket index must be monotone in v, v=" << v;
    prev = index;
  }
  // The midpoint of a value's bucket is within half a bucket width of it.
  for (double v : {0.001, 0.7, 1.0, 3.25, 1000.0, 123456.0}) {
    const std::size_t index = Histogram::bucket_index(v);
    const double mid = Histogram::bucket_midpoint(index);
    EXPECT_LE(std::fabs(mid - v), Histogram::kMaxRelativeError * v + 1e-12)
        << "v=" << v;
  }
}

// The documented contract: a reported quantile is within kMaxRelativeError
// of the EXACT order statistic at the same rank (the one util::percentile
// interpolates around). Interpolated percentiles are not a bounded
// comparison target — adjacent order statistics can be arbitrarily far
// apart — so the cross-check pins the rank.
TEST(Histogram, QuantileWithinDocumentedErrorOfOrderStatistic) {
  std::mt19937_64 rng(20180707);
  std::uniform_real_distribution<double> exponent(-10.0, 10.0);
  std::vector<double> values;
  values.reserve(4097);
  for (std::size_t i = 0; i < 4097; ++i) {
    values.push_back(std::exp2(exponent(rng)));
  }
  const auto snap = HistogramSnapshot::of(values);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());

  for (double p : {0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0,
                   100.0}) {
    const auto rank = static_cast<std::size_t>(
        std::floor(p / 100.0 * static_cast<double>(sorted.size() - 1)));
    const double exact = sorted[rank];
    const double approx = snap.quantile(p);
    EXPECT_LE(std::fabs(approx - exact),
              Histogram::kMaxRelativeError * exact + 1e-12)
        << "p=" << p << " exact=" << exact << " approx=" << approx;
  }

  // Monotone in p and clamped to the exact observed range.
  double prev = snap.quantile(0.0);
  EXPECT_GE(prev, snap.min());
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double q = snap.quantile(p);
    EXPECT_GE(q, prev) << "p=" << p;
    prev = q;
  }
  EXPECT_DOUBLE_EQ(snap.quantile(100.0), snap.max());
}

TEST(Histogram, SnapshotMeanMaxAreExact) {
  const std::vector<double> values = {3.5, 0.25, 18.0, 0.25, 7.75};
  const auto snap = HistogramSnapshot::of(values);
  util::Samples samples;
  for (double v : values) samples.add(v);
  EXPECT_EQ(snap.count(), values.size());
  EXPECT_DOUBLE_EQ(snap.mean(), samples.mean());
  EXPECT_DOUBLE_EQ(snap.max(), samples.max());
  EXPECT_DOUBLE_EQ(snap.min(), samples.min());
  const SummaryRow row = snap.row();
  EXPECT_DOUBLE_EQ(row.mean, samples.mean());
  EXPECT_DOUBLE_EQ(row.max, samples.max());
}

TEST(Histogram, EmptySnapshotAnswersZeroEverywhere) {
  const HistogramSnapshot snap;
  EXPECT_EQ(snap.count(), 0u);
  EXPECT_DOUBLE_EQ(snap.quantile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
  EXPECT_DOUBLE_EQ(snap.max(), 0.0);
  EXPECT_TRUE(snap.nonzero_buckets().empty());
}

TEST(Histogram, ConcurrentRecordsMerge) {
  // Integer-valued samples keep the relaxed CAS sum exact regardless of the
  // interleaving, so the assertion below is deterministic.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 20000;
  Histogram histogram;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t i = 0; i < kPerThread; ++i) {
        histogram.record(static_cast<double>((t + i) % 16 + 1));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();

  const auto snap = histogram.snapshot();
  EXPECT_EQ(snap.count(), kThreads * kPerThread);
  double expected_sum = 0.0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      expected_sum += static_cast<double>((t + i) % 16 + 1);
    }
  }
  EXPECT_DOUBLE_EQ(snap.sum(), expected_sum);
  EXPECT_DOUBLE_EQ(snap.min(), 1.0);
  EXPECT_DOUBLE_EQ(snap.max(), 16.0);
  std::uint64_t bucket_total = 0;
  for (const auto& [index, count] : snap.nonzero_buckets()) {
    bucket_total += count;
  }
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

// ----------------------------------------------------------------- registry

TEST(Registry, ResetKeepsReferencesValid) {
  Registry registry;
  Counter& requests = registry.counter("test.requests");
  Gauge& busy = registry.gauge("test.busy");
  Histogram& latency = registry.histogram("test.latency_ms");
  requests.add(3);
  busy.set(2.0);
  latency.record(1.5);

  registry.reset();
  // Registrations survive reset; cached references keep working.
  requests.add(2);
  busy.add(1.0);
  latency.record(4.0);

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("test.requests"), 2u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.busy"), 1.0);
  EXPECT_EQ(snap.histograms.at("test.latency_ms").count(), 1u);
  EXPECT_DOUBLE_EQ(snap.histograms.at("test.latency_ms").max(), 4.0);
  // Same name resolves to the same instance.
  EXPECT_EQ(&registry.counter("test.requests"), &requests);
}

TEST(Metrics, JsonRoundTripIsLossless) {
  Registry registry;
  registry.counter("dynamic.epochs").add(17);
  registry.counter("mst.path_max_swaps").add(12345678901ull);
  registry.gauge("service.busy_workers").set(3.25);
  Histogram& hist = registry.histogram("dynamic.epoch_ms");
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> ms(0.01, 50.0);
  for (int i = 0; i < 500; ++i) hist.record(ms(rng));

  const auto before = registry.snapshot();
  const std::string text = before.to_json();
  const auto after = MetricsSnapshot::from_json(text);

  EXPECT_EQ(after.counters, before.counters);
  EXPECT_EQ(after.gauges, before.gauges);
  ASSERT_EQ(after.histograms.size(), before.histograms.size());
  const auto& a = after.histograms.at("dynamic.epoch_ms");
  const auto& b = before.histograms.at("dynamic.epoch_ms");
  EXPECT_EQ(a.count(), b.count());
  EXPECT_DOUBLE_EQ(a.sum(), b.sum());
  EXPECT_DOUBLE_EQ(a.min(), b.min());
  EXPECT_DOUBLE_EQ(a.max(), b.max());
  EXPECT_EQ(a.nonzero_buckets(), b.nonzero_buckets());
  for (double p : {50.0, 95.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.quantile(p), b.quantile(p)) << "p=" << p;
  }
}

TEST(Metrics, FromJsonRejectsUnknownSchema) {
  EXPECT_THROW(MetricsSnapshot::from_json("{}"), std::invalid_argument);
  EXPECT_THROW(MetricsSnapshot::from_json(
                   "{\"schema\": \"wagg-metrics-v999\", \"counters\": {}, "
                   "\"gauges\": {}, \"histograms\": {}}"),
               std::invalid_argument);
}

// ------------------------------------------------------- json parser edges

TEST(Json, ParsesExponentForms) {
  EXPECT_DOUBLE_EQ(json::parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(json::parse("1E3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(json::parse("1.25e+2").as_number(), 125.0);
  EXPECT_DOUBLE_EQ(json::parse("125e-2").as_number(), 1.25);
  EXPECT_DOUBLE_EQ(json::parse("-2.5E-1").as_number(), -0.25);
  EXPECT_DOUBLE_EQ(json::parse("0e0").as_number(), 0.0);
  // Exponent without digits is malformed, not "ignore the suffix".
  EXPECT_THROW(json::parse("1e"), std::invalid_argument);
  EXPECT_THROW(json::parse("1e+"), std::invalid_argument);
}

TEST(Json, HugeMagnitudesRoundTripUntilTheyOverflow) {
  // Near the top of the double range: parsed exactly, not clipped.
  EXPECT_DOUBLE_EQ(json::parse("1e308").as_number(), 1e308);
  EXPECT_DOUBLE_EQ(json::parse("-1e308").as_number(), -1e308);
  const double max = std::numeric_limits<double>::max();
  EXPECT_DOUBLE_EQ(json::parse(json::number(max)).as_number(), max);
  // Past it: rejected, never saturated to inf (a perf gate comparing a
  // metric against inf would pass vacuously).
  EXPECT_THROW(json::parse("1e309"), std::invalid_argument);
  EXPECT_THROW(json::parse("-1e309"), std::invalid_argument);
  EXPECT_THROW(json::parse("1e99999"), std::invalid_argument);
}

TEST(Json, RejectsNanAndInfSpellings) {
  for (const char* text : {"NaN", "nan", "Infinity", "-Infinity", "inf",
                           "-inf", "[1, NaN]", "{\"x\": inf}"}) {
    EXPECT_THROW(json::parse(text), std::invalid_argument) << text;
  }
  // The writer side maps non-finite to null, so a round trip stays parseable.
  EXPECT_EQ(json::number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json::number(std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, DeepNestingParsesUpToTheCapAndFailsCleanlyBeyond) {
  const auto nested = [](std::size_t depth) {
    std::string text(depth, '[');
    text += "1";
    text.append(depth, ']');
    return text;
  };
  const auto at_cap = json::parse(nested(json::kMaxParseDepth));
  const json::Value* leaf = &at_cap;
  std::size_t levels = 0;
  while (leaf->kind() == json::Value::Kind::kArray) {
    leaf = &leaf->as_array().front();
    ++levels;
  }
  EXPECT_EQ(levels, json::kMaxParseDepth);
  EXPECT_DOUBLE_EQ(leaf->as_number(), 1.0);
  // One past the cap: a clean exception, not recursion-depth stack death.
  EXPECT_THROW(json::parse(nested(json::kMaxParseDepth + 1)),
               std::invalid_argument);
  EXPECT_THROW(json::parse(nested(10'000)), std::invalid_argument);
  // Objects count against the same depth budget as arrays.
  std::string objects;
  for (std::size_t i = 0; i <= json::kMaxParseDepth; ++i) {
    objects += "{\"k\":";
  }
  objects += "1";
  objects.append(json::kMaxParseDepth + 1, '}');
  EXPECT_THROW(json::parse(objects), std::invalid_argument);
}

TEST(Json, MalformedInputsThrowInsteadOfGuessing) {
  for (const char* text : {
           "",                    // empty document
           "   ",                 // whitespace only
           "[1, 2",               // unterminated array
           "{\"a\": 1",           // unterminated object
           "{\"a\" 1}",           // missing colon
           "{\"a\": 1,}",         // trailing comma (object)
           "[1, 2,]",             // trailing comma (array)
           "[,1]",                // leading comma
           "{1: 2}",              // non-string key
           "\"unterminated",      // unterminated string
           "\"bad \\q escape\"",  // unknown escape
           "01",                  // leading zero
           "+1",                  // leading plus
           "1.",                  // dot without fraction digits
           ".5",                  // fraction without integer part
           "truth",               // keyword typo
           "nul",                 // truncated keyword
           "1 2",                 // trailing garbage
           "[1] []",              // two documents
           "]",                   // closer as a document
           ",",                   // separator as a document
       }) {
    EXPECT_THROW(json::parse(text), std::invalid_argument) << text;
  }
}

// ------------------------------------------------------------------- tracer

struct ParsedEvent {
  std::uint32_t tid = 0;
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
};

std::vector<ParsedEvent> parse_trace(const std::string& text) {
  const auto doc = json::parse(text);
  std::vector<ParsedEvent> events;
  for (const auto& entry : doc.at("traceEvents").as_array()) {
    if (entry.at("ph").as_string() != "X") continue;  // skip thread_name meta
    ParsedEvent event;
    event.tid = static_cast<std::uint32_t>(entry.at("tid").as_number());
    event.name = entry.at("name").as_string();
    event.start_us = entry.at("ts").as_number();
    event.end_us = event.start_us + entry.at("dur").as_number();
    events.push_back(std::move(event));
  }
  return events;
}

class TracerTest : public ::testing::Test {
 protected:
  // The tracer is process-global; every test starts and ends with a clean,
  // disabled tracer so suites compose in one binary.
  void SetUp() override {
    Tracer::global().disable();
    Tracer::global().clear();
  }
  void TearDown() override {
    Tracer::global().disable();
    Tracer::global().clear();
  }
};

TEST_F(TracerTest, DisabledTracerRecordsNothing) {
  double a_ms = 0.0, b_ms = 0.0;
  {
    Span span("never-kept");
    StageSpan stage({"also-never-kept", &a_ms});
    stage.next({"still-nothing", &b_ms});
  }
  EXPECT_EQ(Tracer::global().recorded_events(), 0u);
  EXPECT_EQ(Tracer::global().dropped_events(), 0u);
}

TEST_F(TracerTest, RingDropsOldestWithExactAccounting) {
  static constexpr const char* kNames[10] = {"e0", "e1", "e2", "e3", "e4",
                                             "e5", "e6", "e7", "e8", "e9"};
  Tracer& tracer = Tracer::global();
  tracer.enable(/*events_per_thread=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    tracer.record(kNames[i], i * 100, i * 100 + 50);
  }
  tracer.disable();

  EXPECT_EQ(tracer.recorded_events(), 10u);
  EXPECT_EQ(tracer.dropped_events(), 6u);  // written - capacity, exactly

  // The ring keeps the TAIL of the story: the last 4 spans, oldest first.
  const auto events = parse_trace(tracer.chrome_trace_json());
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].name, kNames[6 + i]);
  }
  // And the export self-reports the drop count.
  const auto doc = json::parse(tracer.chrome_trace_json());
  EXPECT_DOUBLE_EQ(doc.at("otherData").at("dropped_events").as_number(), 6.0);
}

TEST_F(TracerTest, MultiThreadSpansStayPerThreadAndWellNested) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kIterations = 50;
  static constexpr const char* kOuter[kThreads] = {"w0.outer", "w1.outer",
                                                   "w2.outer", "w3.outer"};
  static constexpr const char* kInner[kThreads] = {"w0.inner", "w1.inner",
                                                   "w2.inner", "w3.inner"};
  Tracer& tracer = Tracer::global();
  tracer.enable();

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t i = 0; i < kIterations; ++i) {
        Span outer(kOuter[t]);
        Span inner(kInner[t]);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  tracer.disable();

  EXPECT_EQ(tracer.recorded_events(), kThreads * kIterations * 2);
  EXPECT_EQ(tracer.dropped_events(), 0u);

  const auto events = parse_trace(tracer.chrome_trace_json());
  ASSERT_EQ(events.size(), kThreads * kIterations * 2);

  std::map<std::uint32_t, std::vector<ParsedEvent>> by_tid;
  for (const auto& event : events) by_tid[event.tid].push_back(event);
  ASSERT_EQ(by_tid.size(), kThreads);

  for (const auto& [tid, tid_events] : by_tid) {
    // Each ring holds exactly one thread's spans — one worker prefix per tid.
    const std::string prefix = tid_events.front().name.substr(0, 2);
    for (const auto& event : tid_events) {
      EXPECT_EQ(event.name.substr(0, 2), prefix) << "tid=" << tid;
    }
    EXPECT_EQ(tid_events.size(), kIterations * 2);

    // Within a thread, spans are well-nested: any two either contain one
    // another or are disjoint. Partial overlap means a torn ring slot or
    // interleaved writers. (Timestamps survive the ns -> us conversion up
    // to rounding; 1e-3 us absorbs it.)
    constexpr double kTolUs = 1e-3;
    for (std::size_t i = 0; i < tid_events.size(); ++i) {
      for (std::size_t j = i + 1; j < tid_events.size(); ++j) {
        const auto& a = tid_events[i];
        const auto& b = tid_events[j];
        const bool a_contains_b = a.start_us <= b.start_us + kTolUs &&
                                  b.end_us <= a.end_us + kTolUs;
        const bool b_contains_a = b.start_us <= a.start_us + kTolUs &&
                                  a.end_us <= b.end_us + kTolUs;
        const bool disjoint = a.end_us <= b.start_us + kTolUs ||
                              b.end_us <= a.start_us + kTolUs;
        EXPECT_TRUE(a_contains_b || b_contains_a || disjoint)
            << "tid=" << tid << " " << a.name << " [" << a.start_us << ", "
            << a.end_us << ") overlaps " << b.name << " [" << b.start_us
            << ", " << b.end_us << ")";
      }
    }
  }
}

TEST_F(TracerTest, StageSpanTilesWithoutGapOrOverlap) {
  Tracer& tracer = Tracer::global();
  tracer.enable();
  double a_ms = 0.0, b_ms = 0.0;
  {
    StageSpan stage({"stage.a", &a_ms});
    stage.next({"stage.b", &b_ms});
    stage.next({"stage.a", &a_ms});
    stage.close();
    stage.close();  // idempotent: no fourth event, no double count
  }
  tracer.disable();

  const auto spans = tracer.collect();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "stage.a");
  EXPECT_EQ(spans[1].name, "stage.b");
  EXPECT_EQ(spans[2].name, "stage.a");
  // next() hands the closing timestamp straight to the opening span, so
  // consecutive stages tile exactly.
  EXPECT_EQ(spans[0].end_ns, spans[1].start_ns);
  EXPECT_EQ(spans[1].end_ns, spans[2].start_ns);
  // Each slot holds exactly its spans' durations: one clock per boundary.
  const auto ms = [](const CollectedSpan& span) {
    return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  };
  EXPECT_DOUBLE_EQ(a_ms, ms(spans[0]) + ms(spans[2]));
  EXPECT_DOUBLE_EQ(b_ms, ms(spans[1]));
}

// ------------------------------------------------------------ util bridges

TEST(PercentileOr, FallsBackOnlyOnEmptyInput) {
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(util::percentile_or(empty, 50.0, -1.0), -1.0);
  const std::vector<double> values = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(util::percentile_or(values, 50.0, -1.0), 2.0);
  EXPECT_DOUBLE_EQ(util::percentile_or(values, 0.0, -1.0), 1.0);
  // Out-of-range p stays a loud programming error, even on empty input.
  EXPECT_THROW(util::percentile_or(empty, 101.0, 0.0), std::invalid_argument);
  EXPECT_THROW(util::percentile_or(values, -0.5, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace wagg::obs
