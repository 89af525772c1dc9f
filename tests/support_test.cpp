// Unit tests for the foundation library: RNG, statistics, tables, options,
// thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace ct::support {
namespace {

// --- RNG ---------------------------------------------------------------------

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitMixDiffersAcrossSeeds) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, DeriveSeedGivesDistinctStreams) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t stream = 0; stream < 10'000; ++stream) {
    seeds.insert(derive_seed(0xabcdef, stream));
  }
  EXPECT_EQ(seeds.size(), 10'000u);
}

TEST(Rng, XoshiroIsDeterministic) {
  Xoshiro256ss a(7);
  Xoshiro256ss b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, BelowStaysInBounds) {
  Xoshiro256ss rng(3);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, (1ull << 40)}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Xoshiro256ss rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeIsInclusive) {
  Xoshiro256ss rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto value = rng.range(-3, 3);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 3);
    saw_lo |= (value == -3);
    saw_hi |= (value == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UnitIsInHalfOpenInterval) {
  Xoshiro256ss rng(13);
  double sum = 0.0;
  for (int i = 0; i < 100'000; ++i) {
    const double u = rng.unit();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100'000.0, 0.5, 0.01);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Xoshiro256ss rng(17);
  constexpr std::uint64_t kBuckets = 8;
  constexpr int kSamples = 80'000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.below(kBuckets)];
  for (int count : counts) {
    EXPECT_NEAR(count, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

// --- Statistics --------------------------------------------------------------

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Accumulator, EmptyAndSingle) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  acc.add(3.5);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Samples, PercentilesExact) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.median(), 50.5);
  EXPECT_NEAR(s.percentile(0.99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
}

TEST(Samples, PercentileAfterLaterAdd) {
  Samples s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  s.add(100.0);  // invalidates the cached sort
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(Samples, MergeCombines) {
  Samples a;
  Samples b;
  a.add(1.0);
  a.add(2.0);
  b.add(3.0);
  b.add(4.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
}

TEST(Samples, ThrowsOnEmptyQueries) {
  Samples s;
  EXPECT_THROW(s.min(), std::logic_error);
  EXPECT_THROW(s.percentile(0.5), std::logic_error);
  s.add(1.0);
  EXPECT_THROW(s.percentile(1.5), std::invalid_argument);
}

TEST(Histogram, CountsAndBounds) {
  Histogram h;
  for (std::int64_t v : {5, 1, 5, 3, 5, 1}) h.add(v);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.count(5), 3u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.count(2), 0u);
  EXPECT_EQ(h.min_value(), 1);
  EXPECT_EQ(h.max_value(), 5);
  const auto entries = h.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, 1);
  EXPECT_EQ(entries[2].second, 3u);
}

TEST(Histogram, EmptyThrows) {
  Histogram h;
  EXPECT_THROW(h.min_value(), std::logic_error);
}

// --- Table -------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table t({"a", "long-header"});
  t.add_row({"xxxx", "1"});
  std::ostringstream out;
  t.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("long-header"), std::string::npos);
  EXPECT_NE(text.find("xxxx"), std::string::npos);
  EXPECT_NE(text.find('|'), std::string::npos);
}

TEST(Table, CsvRoundTrip) {
  Table t({"p", "latency"});
  t.add_row({"1024", "42.5"});
  t.add_row({"2048", "43.5"});
  std::ostringstream out;
  t.print_csv(out);
  EXPECT_EQ(out.str(), "p,latency\n1024,42.5\n2048,43.5\n");
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt_int(-7), "-7");
  EXPECT_EQ(format_with_range(10.0, 9.0, 11.0, 1), "10.0 [9.0, 11.0]");
}

// --- Options -----------------------------------------------------------------

TEST(Options, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--procs=4096", "--reps", "100", "--quick", "pos"};
  Options opts(6, const_cast<char**>(argv));
  EXPECT_EQ(opts.get_int("procs", 0), 4096);
  EXPECT_EQ(opts.get_int("reps", 0), 100);
  EXPECT_TRUE(opts.get_flag("quick"));
  EXPECT_FALSE(opts.get_flag("full"));
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "pos");
}

TEST(Options, FallbacksApply) {
  Options opts;
  EXPECT_EQ(opts.get_int("missing", 17), 17);
  EXPECT_DOUBLE_EQ(opts.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(opts.get_string("missing", "x"), "x");
}

TEST(Options, EnvironmentBacksOptions) {
  ::setenv("CT_TEST_OPTION_XYZ", "99", 1);
  Options opts;
  EXPECT_EQ(opts.get_int("test-option-xyz", 0), 99);
  ::unsetenv("CT_TEST_OPTION_XYZ");
  EXPECT_EQ(opts.get_int("test-option-xyz", 5), 5);
}

TEST(Options, CommandLineOverridesEnvironment) {
  ::setenv("CT_PRIORITY_CHECK", "1", 1);
  const char* argv[] = {"prog", "--priority-check=2"};
  Options opts(2, const_cast<char**>(argv));
  EXPECT_EQ(opts.get_int("priority-check", 0), 2);
  ::unsetenv("CT_PRIORITY_CHECK");
}

TEST(Options, RejectsMalformedNumbers) {
  // Not a number, empty, out of range or trailing text: every failure is
  // std::invalid_argument naming the option and the value.
  const auto message_of = [](const auto& get) -> std::string {
    try {
      get();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no std::invalid_argument";
  };
  for (const std::string value : {"12abc", "abc", "", "99999999999999999999"}) {
    SCOPED_TRACE("--procs=" + value);
    Options opts;
    opts.set("procs", value);
    EXPECT_EQ(message_of([&] { opts.get_int("procs", 0); }),
              "option --procs expects an integer, got '" + value + "'");
  }
  for (const std::string value : {"0.5x", "abc", "", "1e999"}) {
    SCOPED_TRACE("--fault-rate=" + value);
    Options opts;
    opts.set("fault-rate", value);
    EXPECT_EQ(message_of([&] { opts.get_double("fault-rate", 0.0); }),
              "option --fault-rate expects a number, got '" + value + "'");
  }
}

TEST(Options, EnvNameMapping) {
  EXPECT_EQ(env_name_for("procs"), "CT_PROCS");
  EXPECT_EQ(env_name_for("fault-rate"), "CT_FAULT_RATE");
}

// --- Thread pool --------------------------------------------------------------

TEST(ThreadPool, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadFallback) {
  ThreadPool pool(1);
  std::size_t sum = 0;  // safe: serial path
  pool.parallel_for(100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i == 13) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

}  // namespace
}  // namespace ct::support
