// aorta_perfbench: one repetition of one benchmark workload.
//
//   aorta_perfbench --workload <select_storm|aq_monitor|aq_churn>
//                   --seed <n> [--threads <n>] [--traced]
//
// Builds the world from the seed, sets up, runs the fixed-work timed
// window and prints one JSON object describing the repetition on stdout.
// perfbench/run.py runs repetitions, checks them and reports metrics.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workload.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: aorta_perfbench --workload <name> --seed <n> "
               "[--threads <n>] [--traced]\n");
  std::exit(2);
}

void print_samples(const char* key, const std::vector<double>& v) {
  std::printf("\"%s\": [", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ",", v[i]);
  }
  std::printf("]");
}

// JSON string literal for short ASCII diagnostics.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = next();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--threads") {
      options.threads = std::atoi(next().c_str());
    } else if (arg == "--traced") {
      options.traced = true;
    } else {
      usage();
    }
  }
  if (!perfbench::known_workload(options.workload) || options.threads < 1) {
    usage();
  }

  perfbench::RepResult r = perfbench::run_rep(options);
  const std::string costs =
      options.traced ? perfbench::replay_costs(r) : std::string("null");

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  const double peak_rss_mb = static_cast<double>(usage_now.ru_maxrss) / 1024.0;

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"threads\": %d, "
              "\"traced\": %s,\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.threads,
              options.traced ? "true" : "false");
  std::printf("\"setup_s\": %.17g, \"window_wall_s\": %.17g, "
              "\"window_sim_s\": %.17g, \"peak_rss_mb\": %.17g,\n",
              r.setup_s, r.window_wall_s, r.window_sim_s, peak_rss_mb);
  std::printf("\"digest\": \"%016llx\", \"attempted\": %llu, \"failed\": %llu,\n",
              static_cast<unsigned long long>(r.digest),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf("\"counts\": {");
  bool first = true;
  for (const auto& [k, v] : r.counts) {
    std::printf("%s\"%s\": %llu", first ? "" : ", ", k.c_str(),
                static_cast<unsigned long long>(v));
    first = false;
  }
  std::printf("},\n\"violations\": %llu, \"violation_samples\": [",
              static_cast<unsigned long long>(r.violations));
  for (std::size_t i = 0; i < r.violation_samples.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ",
                quoted(r.violation_samples[i]).c_str());
  }
  std::printf("],\n");
  print_samples("stmt_ms", r.stmt_ms);
  std::printf(",\n");
  print_samples("detect_ms", r.detect_ms);
  std::printf(",\n\"layers\": ");
  if (options.traced) {
    std::printf("{\"submit_wall_us\": %.17g, \"submit_calls\": %llu, "
                "\"result_rows\": %llu, "
                "\"admission_p99_ms\": %.17g, \"stats_json_ms\": %.17g, "
                "\"replay\": %s,\n\"stats_before\": %s,\n\"stats_after\": %s}",
                r.submit_wall_us,
                static_cast<unsigned long long>(r.submit_calls),
                static_cast<unsigned long long>(r.result_rows),
                r.admission_p99_ms, r.stats_json_ms, costs.c_str(),
                r.stats_before.c_str(), r.stats_after.c_str());
  } else {
    std::printf("null");
  }
  std::printf("}\n");
  return 0;
}
