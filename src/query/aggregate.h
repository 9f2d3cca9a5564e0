// The aggregate algebra: which select-list calls are aggregates, how NULL
// and non-numeric values contribute, how partial accumulations merge and
// how they finalize. Every aggregating layer uses it — the one-shot SELECT
// fold (executor.cc), the continuous window panes (agg_cache.cc), the
// worker's avg rewrite and the czar's per-shard merge (shard/) — so the
// rules live in exactly one place.
//
// Contribution rules: NULL (and an erroring argument, which the callers
// skip) never contributes; a non-numeric, non-NULL value counts only for
// COUNT; every numeric value feeds SUM/AVG/MIN/MAX. Over an empty input
// COUNT finalizes to 0 and every other op to NULL.
#pragma once

#include <cstdint>

#include "query/ast.h"
#include "util/status.h"

namespace aorta::query {

enum class AggOp : std::uint8_t { kNone, kCount, kSum, kAvg, kMin, kMax };

// The aggregate `expr` calls (case-insensitive), kNone for anything else.
AggOp agg_op(const Expr& expr);

// The function name of an aggregate op ("count", "sum", ...); "" for kNone.
const char* agg_name(AggOp op);

// The aggregate argument check. An aggregate takes at most one argument;
// count(*) and count() count rows and take none (*arg = nullptr); every
// other op needs one. On success *arg points into `call`.
aorta::util::Status agg_argument(const Expr& call, const Expr** arg);

// A partial accumulation of one aggregate argument. `n_num` counts numeric
// contributions (the SUM/AVG/MIN/MAX domain), `cnt` non-NULL ones (the
// COUNT domain). Merging partials in input order gives the partial of the
// concatenated input: counts and extrema exactly, and the sum as the
// in-order sum of the partial sums.
struct AggPartial {
  double sum = 0.0;
  double low = 0.0;
  double high = 0.0;
  std::uint64_t n_num = 0;
  std::uint64_t cnt = 0;

  // Fold one argument value in.
  void add(const device::Value& v);
  // Fold one row in for an argument-less count(*).
  void add_row() { ++cnt; }
  void merge(const AggPartial& other);
  device::Value finalize(AggOp op) const;
};

}  // namespace aorta::query
