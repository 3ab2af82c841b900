// Shared plumbing for the perf drivers: timing, allocation counting, minimal
// JSON emission and the nwade-bench-v1 envelope they write.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/alloc_stats.h"

namespace nwade::bench {

// --- minimal JSON emission (machine-readable curves) ------------------------

inline std::string json_field(const std::string& key, double value,
                              int precision = 3) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.*f", key.c_str(), precision,
                value);
  return buf;
}

inline std::string json_field(const std::string& key, const std::string& value) {
  return "\"" + key + "\": \"" + value + "\"";
}

/// {"a": 1, "b": 2} from already-rendered fields.
inline std::string json_object(const std::vector<std::string>& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out += ", ";
    out += fields[i];
  }
  out += "}";
  return out;
}

/// [obj, obj, ...] from already-rendered objects, one per line.
inline std::string json_array(const std::vector<std::string>& items,
                              const std::string& indent = "    ") {
  std::string out = "[\n";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += indent + items[i];
    if (i + 1 < items.size()) out += ",";
    out += "\n";
  }
  out += indent.substr(0, indent.size() > 2 ? indent.size() - 2 : 0) + "]";
  return out;
}

// --- perf-regression harness (BENCH_*.json, schema nwade-bench-v1) ----------
//
// Every perf driver emits the same envelope so a CI diff tool can compare
// runs without per-bench parsers:
//
//   {
//     "schema": "nwade-bench-v1",
//     "bench": "<driver name>",
//     "git_sha": "<12-hex or 'unknown'>",
//     "hardware_concurrency": <std::thread::hardware_concurrency()>,
//     "wall_clock_s": <total driver runtime>,
//     "peak_rss_kb": <getrusage ru_maxrss>,
//     "phases": [
//       {"name": "...", "reps": N, "warmup": W,
//        "median_ms": ..., "min_ms": ..., "max_ms": ...},
//       ...
//     ]
//   }
//
// Phases measured in a -DNWADE_COUNT_ALLOCS=ON build may additionally carry
// an "allocs_per_op" field (heap allocations per operation, from
// util/alloc_stats.h); builds without counting omit it rather than reporting
// a misleading zero. Phases that report a derived ratio (e.g. before/after
// speedup) carry a "speedup_x" field instead of the timing triple.
// hardware_concurrency is
// recorded so timings are read against the machine that produced them;
// scripts/bench_diff.py treats deltas across different values as advisory.
// Drivers may append extra top-level context (scenario shape, verdicts) via
// bench_envelope's `extra_fields`.

/// Warmup + median-of-N timing for one phase. Medians resist the one-off
/// scheduling hiccups that poison means on shared machines.
struct TimingStats {
  double median_ms{0};
  double min_ms{0};
  double max_ms{0};
  int reps{0};
  int warmup{0};
};

inline TimingStats timed_median(int warmup, int reps,
                                const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  TimingStats s;
  s.reps = reps;
  s.warmup = warmup;
  s.min_ms = samples.front();
  s.max_ms = samples.back();
  const std::size_t n = samples.size();
  s.median_ms = (n % 2) ? samples[n / 2]
                        : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  return s;
}

/// Peak resident set size of this process, in kB (Linux ru_maxrss unit).
inline long peak_rss_kb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss;
}

/// Short git sha baked in at configure time (bench/CMakeLists.txt), or
/// "unknown" when the build tree predates the definition.
inline std::string git_sha() {
#ifdef NWADE_GIT_SHA
  return NWADE_GIT_SHA;
#else
  return "unknown";
#endif
}

/// One rendered phase object for the envelope's "phases" array.
inline std::string json_phase(const std::string& name, const TimingStats& t) {
  return json_object({json_field("name", name),
                      json_field("reps", static_cast<double>(t.reps), 0),
                      json_field("warmup", static_cast<double>(t.warmup), 0),
                      json_field("median_ms", t.median_ms, 4),
                      json_field("min_ms", t.min_ms, 4),
                      json_field("max_ms", t.max_ms, 4)});
}

/// Heap allocations per operation across `ops` executions of `fn`, from the
/// calling thread's counter. Returns -1 when the build has no counting
/// operator new (option NWADE_COUNT_ALLOCS off) — callers emit the column
/// only for non-negative values.
inline double allocs_per_op(int ops, const std::function<void()>& fn) {
  if (!util::alloc_counting_enabled() || ops <= 0) return -1;
  const std::uint64_t before = util::thread_alloc_count();
  for (int i = 0; i < ops; ++i) fn();
  return static_cast<double>(util::thread_alloc_count() - before) /
         static_cast<double>(ops);
}

/// json_phase variant carrying the allocs_per_op column (negative = not
/// measured, column omitted).
inline std::string json_phase(const std::string& name, const TimingStats& t,
                              double allocs_per_op) {
  std::vector<std::string> fields = {
      json_field("name", name),
      json_field("reps", static_cast<double>(t.reps), 0),
      json_field("warmup", static_cast<double>(t.warmup), 0),
      json_field("median_ms", t.median_ms, 4),
      json_field("min_ms", t.min_ms, 4),
      json_field("max_ms", t.max_ms, 4)};
  if (allocs_per_op >= 0) {
    fields.push_back(json_field("allocs_per_op", allocs_per_op, 2));
  }
  return json_object(fields);
}

/// A derived before/after ratio phase (no timing triple of its own).
inline std::string json_speedup(const std::string& name, double speedup_x) {
  return json_object(
      {json_field("name", name), json_field("speedup_x", speedup_x, 3)});
}

/// Assembles the full nwade-bench-v1 envelope from rendered phase objects.
/// `extra_fields` are already-rendered top-level fields (json_field output)
/// spliced in before "phases" — scenario shape, verdicts, and similar
/// run-context a comparison tool needs alongside the timings.
inline std::string bench_envelope(
    const std::string& bench_name, double wall_clock_s,
    const std::vector<std::string>& phases,
    const std::vector<std::string>& extra_fields = {}) {
  std::string out = "{\n";
  out += "  " + json_field("schema", std::string("nwade-bench-v1")) + ",\n";
  out += "  " + json_field("bench", bench_name) + ",\n";
  out += "  " + json_field("git_sha", git_sha()) + ",\n";
  out += "  " +
         json_field("hardware_concurrency",
                    static_cast<double>(std::thread::hardware_concurrency()),
                    0) +
         ",\n";
  out += "  " + json_field("wall_clock_s", wall_clock_s, 3) + ",\n";
  out += "  " + json_field("peak_rss_kb",
                           static_cast<double>(peak_rss_kb()), 0) + ",\n";
  for (const std::string& field : extra_fields) out += "  " + field + ",\n";
  out += "  \"phases\": " + json_array(phases, "    ") + "\n";
  out += "}\n";
  return out;
}

/// Structural JSON check: balanced {}/[] outside strings, no trailing
/// garbage. Enough to catch emitter bugs without dragging in a parser.
inline bool json_well_formed(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  bool seen_root = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[':
        if (seen_root && stack.empty()) return false;  // trailing garbage
        stack.push_back(c);
        seen_root = true;
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return seen_root && stack.empty() && !in_string;
}

/// Writes the envelope and echoes the path; returns false on I/O failure.
inline bool write_bench_file(const std::string& path,
                             const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << content;
  out.close();
  if (!out) return false;
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
  return true;
}

/// Reads a file back in full (used by --smoke to re-validate what it wrote).
inline bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace nwade::bench
