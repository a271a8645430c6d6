#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace wlc::common {
namespace {

TEST(JsonEscape, PinsEveryControlByteQuoteAndBackslash) {
  const char* const expected[0x20] = {
      "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006",
      "\\u0007", "\\u0008", "\\t",     "\\n",     "\\u000b", "\\u000c", "\\r",
      "\\u000e", "\\u000f", "\\u0010", "\\u0011", "\\u0012", "\\u0013", "\\u0014",
      "\\u0015", "\\u0016", "\\u0017", "\\u0018", "\\u0019", "\\u001a", "\\u001b",
      "\\u001c", "\\u001d", "\\u001e", "\\u001f"};
  for (int b = 0; b < 0x20; ++b)
    EXPECT_EQ(json_escape(std::string(1, static_cast<char>(b))), expected[b]) << b;
  EXPECT_EQ(json_escape("\""), "\\\"");
  EXPECT_EQ(json_escape("\\"), "\\\\");
  // Everything from 0x20 up, UTF-8 bytes included, passes through.
  EXPECT_EQ(json_escape("a b/\x7f\xc3\xa9"), "a b/\x7f\xc3\xa9");
}

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng r(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng r(13);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntRejectsEmptyRange) {
  Rng r(1);
  EXPECT_THROW(r.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, DiscreteRespectsWeights) {
  Rng r(17);
  const double w[] = {0.0, 1.0, 3.0};
  std::int64_t counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[r.discrete(w)];
  EXPECT_EQ(counts[0], 0);
  // Index 2 should occur roughly 3x as often as index 1.
  EXPECT_NEAR(static_cast<double>(counts[2]) / static_cast<double>(counts[1]), 3.0, 0.4);
}

TEST(Rng, DiscreteRejectsAllZero) {
  Rng r(1);
  const double w[] = {0.0, 0.0};
  EXPECT_THROW(r.discrete(w), std::invalid_argument);
}

TEST(Rng, BoundedNoiseStaysInBounds) {
  Rng r(19);
  for (int i = 0; i < 5000; ++i) {
    const double v = r.bounded_noise(10.0, 50.0, 8.0, 12.0);
    EXPECT_GE(v, 8.0);
    EXPECT_LE(v, 12.0);
  }
}

TEST(Rng, ForkedStreamsAreIndependentOfOrder) {
  Rng parent1(99);
  Rng parent2(99);
  Rng c1 = parent1.fork(5);
  Rng c2 = parent2.fork(5);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(c1(), c2());
  // A different stream id gives a different stream.
  Rng c3 = parent1.fork(6);
  EXPECT_NE(c1(), c3());
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Histogram, CountsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(-5.0);   // clamps into bin 0
  h.add(100.0);  // clamps into last bin
  EXPECT_EQ(h.bin_count(0), 2);
  EXPECT_EQ(h.bin_count(9), 2);
  EXPECT_EQ(h.total(), 4);
}

TEST(Histogram, QuantileMonotone) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i));
  EXPECT_LE(h.quantile(0.1), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
}

TEST(Table, PrintsAlignedColumnsAndCsv) {
  Table t({"clip", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long_name", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("clip"), std::string::npos);
  EXPECT_NE(s.find("long_name"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "clip,value\na,1\nlong_name,22\n");
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Format, Helpers) {
  EXPECT_EQ(fmt_f(12.345, 2), "12.35");
  EXPECT_EQ(fmt_i(38880), "38'880");
  EXPECT_EQ(fmt_i(-1234567), "-1'234'567");
  EXPECT_EQ(fmt_pct(0.521), "52.1%");
  EXPECT_EQ(ascii_bar(0.5, 1.0, 10), "#####.....");
  EXPECT_EQ(ascii_bar(2.0, 1.0, 4), "####");
}

}  // namespace
}  // namespace wlc::common
