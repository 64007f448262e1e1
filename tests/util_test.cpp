#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/args.h"
#include "util/logmath.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace wagg::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BelowIsUnbiasedEnough) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(10)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kDraws / 10.0, kDraws * 0.01);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(LogMath, Log2StarSmallValues) {
  EXPECT_EQ(log2_star(0.5), 0);
  EXPECT_EQ(log2_star(1.0), 0);
  EXPECT_EQ(log2_star(2.0), 1);
  EXPECT_EQ(log2_star(4.0), 2);
  EXPECT_EQ(log2_star(16.0), 3);
  EXPECT_EQ(log2_star(65536.0), 4);
  EXPECT_EQ(log2_star(1e300), 5);  // 2^65536 unreachable in doubles
}

TEST(LogMath, Log2StarOfLog2MatchesDirect) {
  for (double x : {1.5, 2.0, 10.0, 1e5, 1e300}) {
    EXPECT_EQ(log2_star_of_log2(std::log2(x)), log2_star(x)) << x;
  }
}

TEST(LogMath, Log2StarOfLog2HandlesHugeExponents) {
  // x = 2^(2^20): log2* = 1 + log2*(2^20) = 1 + (1 + log2*(20)) = ...
  EXPECT_EQ(log2_star_of_log2(std::exp2(20.0)), 1 + log2_star(std::exp2(20.0)));
}

TEST(LogMath, Log2Log2) {
  EXPECT_DOUBLE_EQ(log2_log2(2.0), 0.0);
  EXPECT_DOUBLE_EQ(log2_log2(4.0), 1.0);
  EXPECT_DOUBLE_EQ(log2_log2(16.0), 2.0);
  EXPECT_DOUBLE_EQ(log2_log2_of_log2(4.0), 2.0);
}

TEST(LogMath, Tower2) {
  EXPECT_DOUBLE_EQ(tower2(0), 1.0);
  EXPECT_DOUBLE_EQ(tower2(1), 2.0);
  EXPECT_DOUBLE_EQ(tower2(2), 4.0);
  EXPECT_DOUBLE_EQ(tower2(3), 16.0);
  EXPECT_DOUBLE_EQ(tower2(4), 65536.0);
  EXPECT_THROW(tower2(6), std::overflow_error);
  EXPECT_THROW(tower2(-1), std::invalid_argument);
}

TEST(LogMath, TowerInvertsLogStar) {
  // tower2(5) = 2^65536 exceeds double range, so only h <= 4 is testable.
  for (int h = 0; h <= 4; ++h) {
    EXPECT_EQ(log2_star(tower2(h)), h);
  }
}

TEST(LogMath, FloorCeilLog2) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1025), 11);
}

TEST(LogMath, PowFits) {
  EXPECT_TRUE(pow_fits(2.0, 900.0));
  EXPECT_FALSE(pow_fits(2.0, 1100.0));
  EXPECT_TRUE(pow_fits(0.5, 1e9));  // base <= 1 never overflows
}

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 10), 1.4);
}

TEST(Stats, PercentileValidation) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  const std::vector<double> v{1.0};
  EXPECT_THROW(percentile(v, -1), std::invalid_argument);
  EXPECT_THROW(percentile(v, 101), std::invalid_argument);
  EXPECT_DOUBLE_EQ(percentile(v, 99), 1.0);
}

TEST(Stats, RegressionSlopeExact) {
  const std::vector<double> x{0, 1, 2, 3};
  const std::vector<double> y{1, 3, 5, 7};
  EXPECT_NEAR(regression_slope(x, y), 2.0, 1e-12);
}

TEST(Stats, RegressionSlopeValidation) {
  const std::vector<double> x{1.0, 1.0};
  const std::vector<double> y{1.0, 2.0};
  EXPECT_THROW(regression_slope(x, y), std::invalid_argument);  // degenerate
  const std::vector<double> one{1.0};
  EXPECT_THROW(regression_slope(one, one), std::invalid_argument);
}

TEST(Stats, SamplesQueries) {
  Samples s;
  EXPECT_TRUE(s.empty());
  for (double v : {3.0, 1.0, 2.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 2.0);
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(3.0);
  t.row().cell("n").cell(std::size_t{128});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name "), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("128"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.row().cell(1).cell(2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, Validation) {
  EXPECT_THROW(Table({}), std::invalid_argument);
  Table t({"a"});
  EXPECT_THROW(t.cell("x"), std::logic_error);  // cell before row
  t.row().cell("1");
  EXPECT_THROW(t.cell("2"), std::logic_error);  // row wider than header
}

TEST(Table, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(1.5, 3), "1.5");
  EXPECT_EQ(format_double(2.0, 3), "2");
  EXPECT_EQ(format_double(0.125, 3), "0.125");
  EXPECT_EQ(format_double(0.1239, 2), "0.12");
}

TEST(Args, ParsesKnownFlagsAndIgnoresPositionalTokens) {
  const char* argv[] = {"prog", "--n=42", "--family=grid", "--verbose",
                        "ignored"};
  const Args args(5, argv, {"n", "family", "verbose", "missing"});
  EXPECT_TRUE(args.has("n"));
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("ignored"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get("family", "x"), "grid");
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_EQ(args.get("verbose", ""), "1");
}

TEST(Args, UnknownFlagThrowsWithItsName) {
  for (const char* flag : {"--audtt", "--audtt=1"}) {
    const char* argv[] = {"prog", "--n=32", flag, "--audit"};
    try {
      (void)Args(4, argv, {"n", "audit"});
      ADD_FAILURE() << flag << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--audtt"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Args, NumericValidation) {
  const char* argv[] = {"prog", "--alpha=3.5", "--bad=3x", "--n=abc",
                        "--rate=x", "--big=99999999999999999999999"};
  const Args args(6, argv, {"alpha", "bad", "n", "rate", "big"});
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 3.5);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_THROW((void)args.get_double("bad", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("alpha", 0), std::invalid_argument);
  // No leading number and out of range: the message names the flag and
  // the value, not the std::stoll / std::stod that threw.
  const auto message = [](const auto& read) {
    try {
      (void)read();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_EQ(message([&] { return args.get_int("n", 0); }),
            "Args: --n is not an integer: abc");
  EXPECT_EQ(message([&] { return args.get_double("rate", 0.0); }),
            "Args: --rate is not a number: x");
  EXPECT_EQ(message([&] { return args.get_int("big", 0); }),
            "Args: --big is not an integer: 99999999999999999999999");
  EXPECT_EQ(message([&] { return args.get_double("big", 0.0); }), "no throw");
}

TEST(Args, CountsRejectWhatACastWouldWrap) {
  const char* argv[] = {"prog", "--repeat=-1", "--warmup=3", "--n= 5",
                        "--top=+5", "--workers=12abc",
                        "--big=18446744073709551616", "--empty="};
  const Args args(8, argv,
                  {"repeat", "warmup", "n", "top", "workers", "big", "empty"});
  EXPECT_EQ(args.get_count("warmup", 0), 3u);
  EXPECT_EQ(args.get_count("missing", 7), 7u);
  const auto message = [](const auto& read) {
    try {
      (void)read();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_EQ(message([&] { return args.get_count("repeat", 5); }),
            "Args: --repeat is not a count: -1");
  for (const char* key : {"n", "top", "workers", "big", "empty"}) {
    EXPECT_EQ(message([&] { return args.get_count(key, 0); }).rfind(
                  std::string("Args: --") + key + " is not a count: ", 0),
              0u)
        << key;
  }
  // The items of a list flag (wagg_serve --sessions / --rates) get the
  // same whole-value checks.
  EXPECT_EQ(parse_count("sessions", "250"), 250u);
  EXPECT_EQ(message([] { return parse_count("sessions", "-1"); }),
            "Args: --sessions is not a count: -1");
  EXPECT_EQ(message([] { return parse_count("sessions", "12abc"); }),
            "Args: --sessions is not a count: 12abc");
  EXPECT_DOUBLE_EQ(parse_number("rates", "0.5"), 0.5);
  EXPECT_EQ(message([] { return parse_number("rates", "2x"); }),
            "Args: --rates is not a number: 2x");
}

TEST(ParallelFor, PoolHasOneHelperPerOtherCore) {
  const std::size_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(parallel_helpers(), cores - 1);
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const std::size_t n : {0, 1, 2, 1000}) {
    for (const std::size_t grain : {1, 7, 64}) {
      std::vector<std::atomic<int>> hits(n);
      const std::size_t by_helpers = parallel_for(
          n, grain, [&](std::size_t i) { hits[i].fetch_add(1); });
      EXPECT_LE(by_helpers, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " grain=" << grain
                                     << " i=" << i;
      }
    }
  }
}

TEST(ParallelFor, RethrowsTheLowestIndexOnceEveryIndexFinished) {
  constexpr std::size_t kN = 1000;
  std::atomic<std::size_t> finished{0};
  try {
    (void)parallel_for(kN, 7, [&](std::size_t i) {
      if (i == kN - 1) {
        // A straggler: a rethrow that does not wait for it sees 999.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      finished.fetch_add(1);
      if (i == 900 || i == 17 || i == 500) {
        throw std::runtime_error(std::to_string(i));
      }
    });
    FAIL() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "17");
    EXPECT_EQ(finished.load(), kN);
  }
}

TEST(ParallelFor, NestedCallsComplete) {
  std::vector<std::atomic<int>> hits(8 * 100);
  (void)parallel_for(8, 1, [&](std::size_t i) {
    (void)parallel_for(100, 3, [&](std::size_t j) {
      hits[i * 100 + j].fetch_add(1);
    });
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ParallelFor, ConcurrentCallersSeeOnlyTheirOwnIndices) {
  // Callers of different sizes: an index from another caller's call would
  // overrun the smaller ones' ranges or double a count.
  std::atomic<int> errors{0};
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      const std::size_t n = 500 + 97 * t;
      for (int round = 0; round < 50; ++round) {
        std::vector<std::atomic<int>> hits(n);
        (void)parallel_for(n, 5, [&](std::size_t i) {
          if (i >= n) {
            errors.fetch_add(1);
          } else {
            hits[i].fetch_add(1);
          }
        });
        for (const auto& h : hits) {
          if (h.load() != 1) errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(ParallelFor, CompletesOnTheCallerWhileAnotherCallHoldsEveryHelper) {
  // The holder's call parks one index on its own thread and one on each
  // helper until released, so no helper can serve a second caller.
  const std::size_t helpers = parallel_helpers();
  std::atomic<std::size_t> parked{0};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    (void)parallel_for(helpers + 1, 1, [&](std::size_t) {
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (parked.load() < helpers + 1) std::this_thread::yield();

  std::vector<std::atomic<int>> hits(100);
  const std::size_t by_helpers =
      parallel_for(hits.size(), 1, [&](std::size_t i) { hits[i].fetch_add(1); });
  release.store(true);
  holder.join();
  EXPECT_EQ(by_helpers, 0u);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace wagg::util
