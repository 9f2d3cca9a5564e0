#include "query/aggregate.h"

#include <algorithm>

#include "util/strings.h"

namespace aorta::query {

using device::Value;

namespace {

constexpr AggOp kOps[] = {AggOp::kCount, AggOp::kSum, AggOp::kAvg,
                          AggOp::kMin, AggOp::kMax};

}  // namespace

const char* agg_name(AggOp op) {
  switch (op) {
    case AggOp::kNone:
      return "";
    case AggOp::kCount:
      return "count";
    case AggOp::kSum:
      return "sum";
    case AggOp::kAvg:
      return "avg";
    case AggOp::kMin:
      return "min";
    case AggOp::kMax:
      return "max";
  }
  return "";
}

AggOp agg_op(const Expr& expr) {
  if (expr.kind != Expr::Kind::kFuncCall) return AggOp::kNone;
  const std::string name = aorta::util::to_lower(expr.func_name);
  for (AggOp op : kOps) {
    if (name == agg_name(op)) return op;
  }
  return AggOp::kNone;
}

aorta::util::Status agg_argument(const Expr& call, const Expr** arg) {
  if (call.args.size() > 1) {
    return aorta::util::invalid_argument_error(
        "aggregate takes at most one argument: " + call.to_string());
  }
  *arg = call.args.empty() ? nullptr : call.args[0].get();
  if (*arg != nullptr && (*arg)->kind == Expr::Kind::kColumnRef &&
      (*arg)->column == "*") {
    *arg = nullptr;  // count(*)
  }
  if (*arg == nullptr && agg_op(call) != AggOp::kCount) {
    return aorta::util::invalid_argument_error(
        "aggregate needs a column argument: " + call.to_string());
  }
  return aorta::util::Status::ok();
}

void AggPartial::add(const Value& v) {
  if (std::holds_alternative<std::monostate>(v)) return;
  ++cnt;
  double x = 0.0;
  if (!device::value_as_double(v, &x)) return;  // counts for COUNT only
  if (n_num == 0) {
    low = x;
    high = x;
  }
  sum += x;
  low = std::min(low, x);
  high = std::max(high, x);
  ++n_num;
}

void AggPartial::merge(const AggPartial& other) {
  sum += other.sum;
  if (other.n_num > 0) {
    if (n_num == 0) {
      low = other.low;
      high = other.high;
    }
    low = std::min(low, other.low);
    high = std::max(high, other.high);
  }
  n_num += other.n_num;
  cnt += other.cnt;
}

Value AggPartial::finalize(AggOp op) const {
  if (op == AggOp::kCount) return static_cast<std::int64_t>(cnt);
  if (n_num == 0) return Value{};
  switch (op) {
    case AggOp::kSum:
      return sum;
    case AggOp::kAvg:
      return sum / static_cast<double>(n_num);
    case AggOp::kMin:
      return low;
    case AggOp::kMax:
      return high;
    case AggOp::kNone:
    case AggOp::kCount:
      break;
  }
  return Value{};
}

}  // namespace aorta::query
