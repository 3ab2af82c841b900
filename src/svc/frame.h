// nwade-stream-v1: the live telemetry frame protocol (docs/OBSERVABILITY.md).
//
// A stream is a sequence of length-prefixed JSONL frames:
//
//   <decimal byte length of the JSON text>\n
//   <one JSON object, no embedded newlines>\n
//
// The length prefix lets a consumer frame the stream without a JSON parser;
// the trailing newline keeps the raw stream greppable (`tail -f | grep
// '"kind": "trace"'` works on a file sink). Every frame carries three
// header fields in fixed order — `kind`, `seq` (monotonic per stream,
// starting at 0 with the hello frame), `t_ms` (simulated time) — followed
// by kind-specific fields. Frame kinds:
//
//   hello         stream preamble: schema id, source shape, cadence
//   metrics       MetricsSnapshot delta since the previous metrics frame
//                 (MetricsSnapshot::diff; fold the deltas to reconstruct)
//   metrics_total full cumulative snapshot (emitted at finish and to
//                 late-joining monitors as catch-up)
//   trace         one detection-timeline trace event (nwade/im categories)
//   health        one per-shard liveness row
//   status        grid-level exchange counters (lattice streams only)
//   heartbeat     liveness pulse; the only frame carrying wall-clock time
//
// Apart from `heartbeat.wall_us` (stamped through util::WallClock, so tests
// substitute FakeWallClock) every frame byte is a pure function of the
// simulated run: streams are byte-identical across step_threads and
// grid_threads values.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/types.h"

namespace nwade::svc {

inline constexpr std::string_view kStreamSchema = "nwade-stream-v1";

/// Wraps one JSON object in the wire framing: `<len>\n<json>\n`.
std::string encode_frame(std::string_view json);

/// Builds one frame's JSON object with the fixed header field order. Values
/// append in call order, so identical call sequences render identical bytes.
class FrameBuilder {
 public:
  FrameBuilder(std::string_view kind, std::uint64_t seq, Tick t_ms);

  FrameBuilder& field(std::string_view key, std::int64_t v);
  FrameBuilder& field(std::string_view key, std::string_view v);
  /// Pre-rendered JSON value (an embedded MetricsSnapshot::json_compact()).
  FrameBuilder& raw(std::string_view key, std::string_view json);

  /// Closes the object and returns the JSON text (no framing).
  std::string take();

 private:
  std::string out_;
};

/// Incremental wire decoder: feed arbitrary byte slices, pop complete JSON
/// lines. Tolerates frames split across reads (TCP) and partial tails (a
/// file still being appended to).
class FrameParser {
 public:
  /// Appends raw stream bytes to the internal buffer.
  void feed(std::string_view bytes);
  /// Pops the next complete frame's JSON text; false when the buffer holds
  /// no complete frame (or the stream is corrupt).
  bool next(std::string& json_out);
  /// True once the framing was violated (non-digit length, missing
  /// newline, oversized frame). A corrupt parser stays corrupt.
  bool corrupt() const { return corrupt_; }
  /// Bytes buffered but not yet consumed.
  std::size_t pending() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_{0};
  bool corrupt_{false};
};

// --- minimal field extraction ------------------------------------------------
// Monitors and tests read our own generator's frames; a full JSON parser is
// not warranted. These scan for `"key":` at the frame's top nesting level
// (depth 1), skipping strings and nested objects/arrays, so a key inside an
// embedded snapshot never shadows a header field.

/// Top-level integer field; nullopt when absent or not an integer.
std::optional<std::int64_t> frame_int(std::string_view json,
                                      std::string_view key);
/// Top-level string field (unescapes \" \\ \n \t \r and \u00xx below 0x80);
/// nullopt when absent.
std::optional<std::string> frame_str(std::string_view json,
                                     std::string_view key);
/// Top-level object/array field, returned as raw JSON text.
std::optional<std::string> frame_raw(std::string_view json,
                                     std::string_view key);

}  // namespace nwade::svc
