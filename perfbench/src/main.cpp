// nwade_perfbench: one workload per invocation, or `--workload all`.
//
//   nwade_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--scenario-seed N] [--trace-out PATH] [--sim-seconds N]
//                   [--corrupt-digest] [--stall-seconds S]
//
// Prints a table of every metric with its unit, `ops` and `ops_failed`,
// and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). With `all`, metric names are prefixed by the workload.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

using Workload = std::pair<const char*, Result (*)(const Options&)>;

const std::vector<Workload> kWorkloads = {
    {"serve_cross4_80vpm_rsa", perfbench::run_serve},
    {"grid2x2_20vpm_rsa", perfbench::run_grid},
    {"paper_matrix_80vpm_rsa", perfbench::run_matrix},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME|all --seed N --seconds S "
               "--trace 0|1 [--scenario-seed N] [--trace-out PATH] "
               "[--sim-seconds N] [--corrupt-digest] [--stall-seconds S]"
               "\nworkloads:",
               argv0);
  for (const auto& [name, fn] : kWorkloads) std::fprintf(stderr, " %s", name);
  std::fprintf(stderr, "\n");
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_table(const char* workload, const Result& r,
                 const std::vector<Metric>& metrics) {
  std::printf("== %s\n", workload);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-36s %18ld\n  %-36s %18ld\n", "ops", r.ops, "ops_failed",
              r.ops_failed);
  for (const std::string& f : r.failures) std::printf("  FAILED %s\n", f.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--scenario-seed") {
      opt.scenario_seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") return usage(argv[0]);
      opt.trace = v == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--sim-seconds") {
      opt.sim_seconds = std::atoll(value());
    } else if (arg == "--corrupt-digest") {
      opt.corrupt_digest = true;
    } else if (arg == "--stall-seconds") {
      opt.stall_seconds = std::atof(value());
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (opt.workload.empty() || !have_trace || !(opt.seconds > 0) ||
      opt.sim_seconds < 0 || !(opt.stall_seconds > 0)) {
    return usage(argv[0]);
  }

  std::vector<Workload> chosen;
  for (const auto& w : kWorkloads) {
    if (opt.workload == "all" || opt.workload == w.first) chosen.push_back(w);
  }
  if (chosen.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return usage(argv[0]);
  }

  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::string metrics;
  const std::string trace_out = opt.trace_out;
  for (const auto& [name, run] : chosen) {
    Options one = opt;
    one.workload = name;
    if (chosen.size() > 1 && !trace_out.empty()) {
      one.trace_out = trace_out + "." + name + ".json";
    }
    const Result r = [&] {
      const perfbench::Watchdog watchdog(name, opt.stall_seconds);
      return run(one);
    }();
    const std::vector<Metric>& shown = opt.trace ? r.layers : r.end_to_end;
    print_table(name, r, shown);
    attempted += r.ops;
    failed += r.ops_failed;
    correct = correct && r.ops_failed == 0 && r.failures.empty();
    for (const Metric& m : shown) {
      if (!std::isfinite(m.value)) {
        correct = false;
        continue;
      }
      const std::string key =
          chosen.size() > 1 ? std::string(name) + "." + m.name : m.name;
      if (!metrics.empty()) metrics += ", ";
      metrics += "\"" + key + "\": {\"value\": " + json_number(m.value) +
                 ", \"unit\": \"" + m.unit + "\"}";
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", attempted, failed, metrics.c_str());
  return 0;
}
