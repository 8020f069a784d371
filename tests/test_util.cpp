// Unit tests for the utility substrate: ids, status, math, rng, table.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "src/util/ids.h"
#include "src/util/math.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/table.h"

namespace aspen {
namespace {

TEST(TypedId, DefaultIsInvalid) {
  SwitchId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, SwitchId::invalid());
}

TEST(TypedId, ValueRoundTrip) {
  SwitchId id{42};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(TypedId, Ordering) {
  EXPECT_LT(SwitchId{1}, SwitchId{2});
  EXPECT_EQ(SwitchId{7}, SwitchId{7});
  EXPECT_NE(SwitchId{7}, SwitchId{8});
}

TEST(TypedId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<SwitchId, HostId>);
  static_assert(!std::is_same_v<LinkId, PodId>);
}

TEST(TypedId, Hashable) {
  std::unordered_set<SwitchId> set;
  set.insert(SwitchId{1});
  set.insert(SwitchId{1});
  set.insert(SwitchId{2});
  EXPECT_EQ(set.size(), 2u);
}

TEST(TypedId, ToString) {
  EXPECT_EQ(to_string(SwitchId{3}), "s3");
  EXPECT_EQ(to_string(HostId{9}), "h9");
  EXPECT_EQ(to_string(LinkId{0}), "e0");
  EXPECT_EQ(to_string(SwitchId::invalid()), "s<invalid>");
}

TEST(Status, CheckThrowsAspenError) {
  EXPECT_THROW(ASPEN_CHECK(false, "boom ", 42), AspenError);
}

TEST(Status, RequireThrowsPreconditionError) {
  EXPECT_THROW(ASPEN_REQUIRE(1 == 2, "mismatch"), PreconditionError);
}

TEST(Status, PassingChecksDoNotThrow) {
  EXPECT_NO_THROW(ASPEN_CHECK(true));
  EXPECT_NO_THROW(ASPEN_REQUIRE(true, "fine"));
}

TEST(Status, MessageContainsDetail) {
  try {
    ASPEN_REQUIRE(false, "value was ", 17);
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("value was 17"), std::string::npos);
  }
}

TEST(Math, Ipow) {
  EXPECT_EQ(ipow(2, 0), 1u);
  EXPECT_EQ(ipow(2, 10), 1024u);
  EXPECT_EQ(ipow(10, 3), 1000u);
  EXPECT_EQ(ipow(1, 63), 1u);
  EXPECT_EQ(ipow(128, 7), 562949953421312u);  // 2^49
}

TEST(Math, IpowOverflowDetected) {
  EXPECT_THROW((void)ipow(2, 64), AspenError);
}

TEST(Math, Divides) {
  EXPECT_TRUE(divides(4, 16));
  EXPECT_FALSE(divides(3, 16));
  EXPECT_FALSE(divides(0, 16));
  EXPECT_TRUE(divides(16, 16));
  EXPECT_TRUE(divides(5, 0));  // 0 is divisible by everything
}

TEST(Math, Divisors) {
  EXPECT_EQ(divisors(1), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(divisors(12), (std::vector<std::uint64_t>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(divisors(16), (std::vector<std::uint64_t>{1, 2, 4, 8, 16}));
  EXPECT_EQ(divisors(7), (std::vector<std::uint64_t>{1, 7}));
  EXPECT_THROW(divisors(0), PreconditionError);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(ceil_div(0, 3), 0u);
  EXPECT_EQ(ceil_div(5, 0), 0u);
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1000), b.uniform(0, 1000));
  }
}

TEST(Rng, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1'000'000) == b.uniform(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, IndexCoversRange) {
  Rng rng(9);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.index(5));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_THROW((void)rng.index(0), PreconditionError);
}

TEST(Rng, RealInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::ranges::sort(v);
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(17);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.exponential(5.0);
  EXPECT_NEAR(total / n, 5.0, 0.25);
  EXPECT_THROW((void)rng.exponential(0.0), PreconditionError);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"a", "long-header", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row({"wide-cell", "x", "y"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| a "), std::string::npos);
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("wide-cell"), std::string::npos);
  // Header separator row present.
  EXPECT_NE(out.find("|---"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
  EXPECT_THROW(TextTable({}), PreconditionError);
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.333333, 2), "0.33");
  EXPECT_EQ(format_double(100.0, 0), "100");
}

TEST(Table, FormatPercent) {
  EXPECT_EQ(format_percent(1, 2), "50%");
  EXPECT_EQ(format_percent(1, 3), "33.3%");
  EXPECT_EQ(format_percent(1, 0), "n/a");
}

TEST(Table, AsciiBar) {
  EXPECT_EQ(ascii_bar(10, 10, 4), "####");
  EXPECT_EQ(ascii_bar(5, 10, 4), "##");
  EXPECT_EQ(ascii_bar(0, 10, 4), "");
  EXPECT_EQ(ascii_bar(-1, 10, 4), "");
  EXPECT_EQ(ascii_bar(1, 0, 4), "");
}

}  // namespace
}  // namespace aspen
