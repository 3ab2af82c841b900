// Structured sim-time event tracer.
//
// Records spans ('X' complete events) and instants ('i') stamped with
// *simulated* time, so two identical seeded runs produce byte-identical
// traces. Wall-clock measurements (per-phase profiling) ride along as an
// explicitly non-deterministic `wall_us` argument that every export can
// strip (`include_wall = false`) — that stripped form is what the
// determinism tests compare.
//
// Exports:
//   * Chrome trace_event JSON (chrome_json) — loads directly in
//     about://tracing and ui.perfetto.dev. `ts` is sim time in µs.
//   * JSONL (jsonl) — one event per line for ad-hoc tooling (jq, pandas).
//
// Cost model (the contract the telemetry bench enforces):
//   * A tracer is written only by the thread that owns it (for a World's
//     tracer, the thread stepping that World), so it is a plain flag and a
//     vector: no lock, no atomics.
//   * Every instrumented site gates on its own tracer
//     (`tracer != nullptr && tracer->enabled()`), so a run with tracing off
//     pays one load of its own flag and one predictable branch per site,
//     and allocates nothing.
//   * Event names/categories/argument keys must be string literals (the
//     tracer stores the pointers); dynamic values go in the integer arg.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/types.h"

namespace nwade::util::trace {

/// One recorded event. Plain data; name/cat/arg_key must outlive the tracer
/// (string literals in practice).
struct Event {
  const char* cat{""};
  const char* name{""};
  char phase{'i'};           ///< 'X' complete span | 'i' instant
  Tick ts_ms{0};             ///< simulated begin time
  Duration dur_ms{0};        ///< simulated duration ('X' only)
  double wall_us{-1.0};      ///< wall-clock duration; < 0 = not measured.
                             ///< NON-DETERMINISTIC: strip before comparing.
  const char* arg_key{nullptr};  ///< optional integer argument
  std::int64_t arg_value{0};
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Records an instant event at simulated time `ts_ms`.
  void instant(const char* cat, const char* name, Tick ts_ms,
               const char* arg_key = nullptr, std::int64_t arg_value = 0);

  /// Records a complete span [begin_ms, end_ms]. `wall_us` < 0 means "not
  /// measured"; any other value is wall-clock profiling data and is marked
  /// non-deterministic in every export.
  void complete(const char* cat, const char* name, Tick begin_ms, Tick end_ms,
                double wall_us = -1.0, const char* arg_key = nullptr,
                std::int64_t arg_value = 0);

  std::size_t size() const { return events_.size(); }
  /// Moves the recorded events out (the tracer keeps running empty).
  std::vector<Event> take() { return std::exchange(events_, {}); }
  const std::vector<Event>& events() const { return events_; }

  /// Chrome trace_event JSON for this tracer's events (pid 0).
  std::string chrome_json(bool include_wall = true) const;
  /// JSONL: one JSON object per line.
  std::string jsonl(bool include_wall = true) const;

 private:
  bool enabled_{false};
  std::vector<Event> events_;
};

/// Chrome trace_event JSON over pre-collected event streams; `pids` labels
/// each stream (campaign cells use the cell index). Streams with matching
/// indices must align; extra metadata events name each pid.
std::string chrome_trace_json(const std::vector<std::vector<Event>>& streams,
                              const std::vector<std::string>& stream_names,
                              bool include_wall = true);

/// JSONL over pre-collected streams; each line carries a "pid" field.
std::string jsonl_trace(const std::vector<std::vector<Event>>& streams,
                        bool include_wall = true);

}  // namespace nwade::util::trace
