// The benchmark's three workloads against server::QueryService on an
// 8-shard shard::Plane. One call to run_rep() builds a fresh world from
// the seed, sets it up, runs the fixed-work timed window and returns what
// the run produced: wall times, the output digest, the deterministic
// counts, virtual-time latency samples and the oracle's verdict.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "query/executor.h"

namespace perfbench {

// Worker shards of the benchmark's query plane.
inline constexpr int kShards = 8;

struct Options {
  std::string workload;  // select_storm | aq_monitor | aq_churn
  std::uint64_t seed = 1;
  int threads = 1;       // core::Config::runtime_threads
  bool traced = false;   // Config::tracing + the per-layer captures below
};

struct RepResult {
  // Wall clock (host-dependent).
  double setup_s = 0.0;
  double window_wall_s = 0.0;
  double window_sim_s = 0.0;

  // Deterministic outputs: identical for a seed on any host and at any
  // runtime thread count.
  std::uint64_t digest = 0;
  std::map<std::string, std::uint64_t> counts;
  std::vector<double> stmt_ms;    // submit -> kResult/kError, virtual ms
  std::vector<double> detect_ms;  // spike start -> first row, virtual ms
  std::uint64_t attempted = 0;    // statements offered in the window
  std::uint64_t failed = 0;       // refused + shed + kError + partial
  std::uint64_t violations = 0;   // oracle failures
  std::vector<std::string> violation_samples;

  // Traced runs only.
  std::string stats_before;  // QueryService::stats_json() at window start
  std::string stats_after;   // ... and at window end
  double stats_json_ms = 0.0;
  double submit_wall_us = 0.0;  // summed wall time inside submit()
  std::uint64_t submit_calls = 0;
  double admission_p99_ms = 0.0;
  std::vector<std::string> texts;              // statements of the window
  std::vector<aorta::query::TimestampedRow> rows;  // rows of the window
  std::uint64_t result_rows = 0;  // one-shot SELECT rows of the window
};

bool known_workload(const std::string& name);
RepResult run_rep(const Options& options);

// Per-call host cost of public layer functions, measured by replaying a
// traced run's captured statements and rows through them. Returns a JSON
// object: parse_us, compile_us, fragment_codec_us, rows_codec_ns.
std::string replay_costs(const RepResult& rep);

}  // namespace perfbench
