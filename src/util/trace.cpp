#include "util/trace.h"

#include <cstdio>

#include "util/json.h"

namespace nwade::util::trace {

void Tracer::instant(const char* cat, const char* name, Tick ts_ms,
                     const char* arg_key, std::int64_t arg_value) {
  if (!enabled_) return;
  Event e;
  e.cat = cat;
  e.name = name;
  e.phase = 'i';
  e.ts_ms = ts_ms;
  e.arg_key = arg_key;
  e.arg_value = arg_value;
  events_.push_back(e);
}

void Tracer::complete(const char* cat, const char* name, Tick begin_ms,
                      Tick end_ms, double wall_us, const char* arg_key,
                      std::int64_t arg_value) {
  if (!enabled_) return;
  Event e;
  e.cat = cat;
  e.name = name;
  e.phase = 'X';
  e.ts_ms = begin_ms;
  e.dur_ms = end_ms >= begin_ms ? end_ms - begin_ms : 0;
  e.wall_us = wall_us;
  e.arg_key = arg_key;
  e.arg_value = arg_value;
  events_.push_back(e);
}

namespace {

using json::append_int;
using json::append_string;

void append_wall(std::string& out, double wall_us) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "\"wall_us\": %.3f", wall_us);
  out += buf;
}

// One Chrome trace_event object. `ts`/`dur` are microseconds per the spec;
// sim ticks are milliseconds, hence the *1000.
void append_chrome_event(std::string& out, const Event& e, int pid,
                         bool include_wall) {
  out += "{\"cat\": ";
  append_string(out, e.cat);
  out += ", \"name\": ";
  append_string(out, e.name);
  out += ", \"ph\": \"";
  out += e.phase;
  out += "\", \"pid\": ";
  append_int(out, pid);
  out += ", \"tid\": 0, \"ts\": ";
  append_int(out, static_cast<std::int64_t>(e.ts_ms) * 1000);
  if (e.phase == 'X') {
    out += ", \"dur\": ";
    append_int(out, static_cast<std::int64_t>(e.dur_ms) * 1000);
  } else {
    out += ", \"s\": \"t\"";  // thread-scoped instant
  }
  const bool has_wall = include_wall && e.wall_us >= 0;
  if (e.arg_key != nullptr || has_wall) {
    out += ", \"args\": {";
    if (e.arg_key != nullptr) {
      append_string(out, e.arg_key);
      out += ": ";
      append_int(out, e.arg_value);
      if (has_wall) out += ", ";
    }
    if (has_wall) append_wall(out, e.wall_us);
    out += "}";
  }
  out += "}";
}

// One JSONL record (flat; line-oriented consumers prefer no nesting).
void append_jsonl_event(std::string& out, const Event& e, int pid,
                        bool include_wall) {
  out += "{\"pid\": ";
  append_int(out, pid);
  out += ", \"cat\": ";
  append_string(out, e.cat);
  out += ", \"name\": ";
  append_string(out, e.name);
  out += ", \"ph\": \"";
  out += e.phase;
  out += "\", \"ts_ms\": ";
  append_int(out, e.ts_ms);
  if (e.phase == 'X') {
    out += ", \"dur_ms\": ";
    append_int(out, e.dur_ms);
  }
  if (e.arg_key != nullptr) {
    out += ", ";
    append_string(out, e.arg_key);
    out += ": ";
    append_int(out, e.arg_value);
  }
  if (include_wall && e.wall_us >= 0) {
    out += ", ";
    append_wall(out, e.wall_us);
  }
  out += "}\n";
}

}  // namespace

std::string Tracer::chrome_json(bool include_wall) const {
  return chrome_trace_json({events_}, {"trace"}, include_wall);
}

std::string Tracer::jsonl(bool include_wall) const {
  return jsonl_trace({events_}, include_wall);
}

std::string chrome_trace_json(const std::vector<std::vector<Event>>& streams,
                              const std::vector<std::string>& stream_names,
                              bool include_wall) {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  for (std::size_t pid = 0; pid < streams.size(); ++pid) {
    if (pid < stream_names.size()) {
      if (!first) out += ",\n";
      first = false;
      out += "{\"cat\": \"__metadata\", \"name\": \"process_name\", "
             "\"ph\": \"M\", \"pid\": ";
      append_int(out, static_cast<int>(pid));
      out += ", \"tid\": 0, \"args\": {\"name\": ";
      append_string(out, stream_names[pid]);
      out += "}}";
    }
    for (const Event& e : streams[pid]) {
      if (!first) out += ",\n";
      first = false;
      append_chrome_event(out, e, static_cast<int>(pid), include_wall);
    }
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

std::string jsonl_trace(const std::vector<std::vector<Event>>& streams,
                        bool include_wall) {
  std::string out;
  for (std::size_t pid = 0; pid < streams.size(); ++pid) {
    for (const Event& e : streams[pid]) {
      append_jsonl_event(out, e, static_cast<int>(pid), include_wall);
    }
  }
  return out;
}

}  // namespace nwade::util::trace
