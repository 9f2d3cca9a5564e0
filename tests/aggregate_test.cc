// Tests for the aggregate algebra (src/query/aggregate.h): which calls are
// aggregates, the argument check, the NULL / non-numeric contribution
// rules, empty finalize, and merge-equals-fold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <variant>
#include <vector>

#include "query/aggregate.h"
#include "query/parser.h"
#include "util/rng.h"

namespace aorta::query {
namespace {

using device::Value;

constexpr AggOp kAllOps[] = {AggOp::kCount, AggOp::kSum, AggOp::kAvg,
                             AggOp::kMin, AggOp::kMax};

ExprPtr select_item(const std::string& item) {
  auto stmt = parse("SELECT " + item + " FROM sensor s");
  EXPECT_TRUE(stmt.is_ok()) << item << ": " << stmt.status().to_string();
  return std::move(stmt.value().select.select_list[0]);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Finalized values compared exactly: same alternative, doubles bit for bit.
bool same_value(const Value& a, const Value& b) {
  if (a.index() != b.index()) return false;
  if (const double* x = std::get_if<double>(&a)) {
    return same_bits(*x, std::get<double>(b));
  }
  return device::value_equal(a, b);
}

TEST(AggregateTest, RecognizesTheFiveAggregatesCaseInsensitively) {
  EXPECT_EQ(agg_op(*select_item("count(*)")), AggOp::kCount);
  EXPECT_EQ(agg_op(*select_item("SUM(s.temp)")), AggOp::kSum);
  EXPECT_EQ(agg_op(*select_item("Avg(s.temp)")), AggOp::kAvg);
  EXPECT_EQ(agg_op(*select_item("min(s.temp)")), AggOp::kMin);
  EXPECT_EQ(agg_op(*select_item("max(s.temp)")), AggOp::kMax);
  EXPECT_EQ(agg_op(*select_item("abs(s.temp)")), AggOp::kNone);
  EXPECT_EQ(agg_op(*select_item("s.temp")), AggOp::kNone);
  // Only the outermost call counts: an expression over an aggregate is not
  // itself one.
  EXPECT_EQ(agg_op(*select_item("sum(s.temp) + 1")), AggOp::kNone);
  for (AggOp op : kAllOps) {
    EXPECT_EQ(agg_op(*select_item(std::string(agg_name(op)) + "(s.temp)")),
              op);
  }
  EXPECT_STREQ(agg_name(AggOp::kNone), "");
}

TEST(AggregateTest, ArgumentCheck) {
  const Expr* arg = nullptr;
  ASSERT_TRUE(agg_argument(*select_item("count(*)"), &arg).is_ok());
  EXPECT_EQ(arg, nullptr);
  ASSERT_TRUE(agg_argument(*select_item("count()"), &arg).is_ok());
  EXPECT_EQ(arg, nullptr);

  ExprPtr sum = select_item("sum(s.temp)");
  ASSERT_TRUE(agg_argument(*sum, &arg).is_ok());
  ASSERT_NE(arg, nullptr);
  EXPECT_EQ(arg, sum->args[0].get());

  auto two = agg_argument(*select_item("avg(s.temp, s.light)"), &arg);
  EXPECT_EQ(two.message(),
            "aggregate takes at most one argument: avg(s.temp, s.light)");
  auto none = agg_argument(*select_item("sum()"), &arg);
  EXPECT_EQ(none.message(), "aggregate needs a column argument: sum()");
  auto star = agg_argument(*select_item("max(*)"), &arg);
  EXPECT_EQ(star.message(), "aggregate needs a column argument: max(*)");
}

TEST(AggregateTest, EmptyFinalizeIsZeroCountAndNullOtherwise) {
  AggPartial empty;
  EXPECT_TRUE(
      same_value(empty.finalize(AggOp::kCount), Value{std::int64_t{0}}));
  for (AggOp op : {AggOp::kSum, AggOp::kAvg, AggOp::kMin, AggOp::kMax}) {
    EXPECT_TRUE(std::holds_alternative<std::monostate>(empty.finalize(op)))
        << agg_name(op);
  }
}

TEST(AggregateTest, NullsNeverContribute) {
  AggPartial p;
  p.add(Value{});
  p.add(Value{3.0});
  p.add(Value{});
  p.add(Value{std::int64_t{5}});
  EXPECT_EQ(p.cnt, 2u);
  EXPECT_EQ(p.n_num, 2u);
  EXPECT_TRUE(same_value(p.finalize(AggOp::kCount), Value{std::int64_t{2}}));
  EXPECT_TRUE(same_value(p.finalize(AggOp::kSum), Value{8.0}));
  EXPECT_TRUE(same_value(p.finalize(AggOp::kAvg), Value{4.0}));
  EXPECT_TRUE(same_value(p.finalize(AggOp::kMin), Value{3.0}));
  EXPECT_TRUE(same_value(p.finalize(AggOp::kMax), Value{5.0}));

  AggPartial only_nulls;
  only_nulls.add(Value{});
  EXPECT_TRUE(
      same_value(only_nulls.finalize(AggOp::kCount), Value{std::int64_t{0}}));
  EXPECT_TRUE(std::holds_alternative<std::monostate>(
      only_nulls.finalize(AggOp::kMax)));
}

TEST(AggregateTest, NonNumericValuesCountOnlyForCount) {
  AggPartial p;
  p.add(Value{std::string("m1")});
  p.add(Value{device::Location{1, 2, 3}});
  EXPECT_TRUE(same_value(p.finalize(AggOp::kCount), Value{std::int64_t{2}}));
  for (AggOp op : {AggOp::kSum, AggOp::kAvg, AggOp::kMin, AggOp::kMax}) {
    EXPECT_TRUE(std::holds_alternative<std::monostate>(p.finalize(op)))
        << agg_name(op);
  }
  p.add(Value{-2.5});
  EXPECT_TRUE(same_value(p.finalize(AggOp::kCount), Value{std::int64_t{3}}));
  EXPECT_TRUE(same_value(p.finalize(AggOp::kMin), Value{-2.5}));
  EXPECT_TRUE(same_value(p.finalize(AggOp::kAvg), Value{-2.5}));
}

TEST(AggregateTest, AddRowCountsRowsForCountStar) {
  AggPartial p;
  p.add_row();
  p.add_row();
  EXPECT_TRUE(same_value(p.finalize(AggOp::kCount), Value{std::int64_t{2}}));
  EXPECT_TRUE(std::holds_alternative<std::monostate>(p.finalize(AggOp::kSum)));
}

// Merging partials in input order must equal one fold over the
// concatenated input, bit for bit. Counts and extrema are exact for any
// values. Sums are compared bit for bit over values that are multiples of
// 1/8 well inside double precision, where every partial sum is exact:
// floating-point addition is not associative, so for arbitrary doubles
// only the in-order sum of partial sums (what the window and shard merges
// compute) is defined.
TEST(AggregateTest, MergingPartialsInOrderEqualsOneFold) {
  util::Rng rng(20260417);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Value> values;
    const std::int64_t n = rng.uniform_int(0, 40);
    const bool dyadic = trial % 2 == 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const double r = rng.uniform(0, 1);
      if (r < 0.1) {
        values.emplace_back();  // NULL
      } else if (r < 0.2) {
        values.emplace_back(std::string("x"));
      } else if (r < 0.3) {
        values.emplace_back(rng.uniform_int(-50, 50));
      } else {
        values.emplace_back(
            dyadic ? static_cast<double>(rng.uniform_int(-8000, 8000)) / 8.0
                   : rng.uniform(-1000, 1000));
      }
    }

    AggPartial fold;
    for (const Value& v : values) fold.add(v);

    // Cut into five in-order chunks (some possibly empty) and merge their
    // partials.
    std::vector<std::size_t> cuts{0, values.size()};
    for (int c = 0; c < 4; ++c) {
      cuts.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(values.size()))));
    }
    std::sort(cuts.begin(), cuts.end());
    AggPartial merged;
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
      AggPartial part;
      for (std::size_t i = cuts[c]; i < cuts[c + 1]; ++i) part.add(values[i]);
      merged.merge(part);
    }

    ASSERT_EQ(merged.cnt, fold.cnt) << trial;
    ASSERT_EQ(merged.n_num, fold.n_num) << trial;
    for (AggOp op : {AggOp::kCount, AggOp::kMin, AggOp::kMax}) {
      EXPECT_TRUE(same_value(merged.finalize(op), fold.finalize(op)))
          << trial << " " << agg_name(op);
    }
    if (dyadic) {
      EXPECT_TRUE(same_bits(merged.sum, fold.sum)) << trial;
      for (AggOp op : {AggOp::kSum, AggOp::kAvg}) {
        EXPECT_TRUE(same_value(merged.finalize(op), fold.finalize(op)))
            << trial << " " << agg_name(op);
      }
    }
  }
}

// A one-value partial merged in is the same as adding the value: the
// window cache evaluates each tuple's argument once and merges it into
// every grouping's pane.
TEST(AggregateTest, MergingOneValuePartialsEqualsAdding) {
  util::Rng rng(7);
  AggPartial added, merged;
  for (int i = 0; i < 200; ++i) {
    Value v = i % 17 == 0 ? Value{} : Value{rng.uniform(-1e6, 1e6)};
    added.add(v);
    AggPartial one;
    one.add(v);
    merged.merge(one);
  }
  EXPECT_TRUE(same_bits(added.sum, merged.sum));
  EXPECT_TRUE(same_bits(added.low, merged.low));
  EXPECT_TRUE(same_bits(added.high, merged.high));
  EXPECT_EQ(added.n_num, merged.n_num);
  EXPECT_EQ(added.cnt, merged.cnt);
}

}  // namespace
}  // namespace aorta::query
