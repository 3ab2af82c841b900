// util/trace coverage: the enabled flag, event recording, the Chrome
// trace_event and JSONL exports (well-formedness + field scaling), and the
// include_wall=false determinism contract.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/support.h"
#include "util/trace.h"

namespace nwade::util::trace {
namespace {

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.instant("cat", "name", 100);
  t.complete("cat", "span", 100, 200);
  EXPECT_EQ(t.size(), 0u);
}

TEST(Trace, RecordsInstantsAndSpansInOrder) {
  Tracer t;
  t.set_enabled(true);
  t.instant("nwade", "incident_report", 1500, "vehicle", 7);
  t.complete("aim", "process_window", 2000, 2100, 12.5, "plans", 3);
  const std::vector<Event> events = t.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "incident_report");
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_EQ(events[0].ts_ms, 1500);
  EXPECT_EQ(events[0].arg_value, 7);
  EXPECT_STREQ(events[1].cat, "aim");
  EXPECT_EQ(events[1].phase, 'X');
  EXPECT_EQ(events[1].ts_ms, 2000);
  EXPECT_EQ(events[1].dur_ms, 100);
  EXPECT_DOUBLE_EQ(events[1].wall_us, 12.5);

  std::vector<Event> taken = t.take();
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(t.size(), 0u) << "take() drains but keeps recording";
  t.instant("x", "y", 1);
  EXPECT_EQ(t.size(), 1u);
}

TEST(Trace, ChromeJsonIsWellFormedWithMicrosecondTimestamps) {
  Tracer t;
  t.set_enabled(true);
  t.instant("nwade", "verify_round_start", 1500);
  t.complete("sim", "phase.physics", 2000, 2000, 42.0, "items", 9);
  const std::string json = t.chrome_json();
  EXPECT_TRUE(bench::json_well_formed(json)) << json;
  // Sim ms scale to trace_event µs.
  EXPECT_NE(json.find("\"ts\": 1500000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\": 2000000"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_us\""), std::string::npos);
  EXPECT_NE(json.find("\"items\": 9"), std::string::npos);
}

TEST(Trace, JsonlEmitsOneWellFormedObjectPerLine) {
  Tracer t;
  t.set_enabled(true);
  t.instant("net", "packet_drop", 100, "to", 4);
  t.complete("chain", "verify_block", 200, 200, 3.0);
  const std::string jsonl = t.jsonl();
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(start, end - start);
    if (!line.empty()) {
      ++lines;
      EXPECT_TRUE(bench::json_well_formed(line)) << line;
      EXPECT_EQ(line.front(), '{');
      EXPECT_EQ(line.back(), '}');
    }
    start = end + 1;
  }
  EXPECT_EQ(lines, 2u);
}

TEST(Trace, IncludeWallFalseStripsTheOnlyNondeterministicField) {
  // Two tracers record the same sim-time events with different wall-clock
  // profiles; the stripped exports must be byte-identical.
  struct Exports {
    std::string chrome_wall, chrome_stripped, jsonl_stripped;
  };
  const auto record = [](double wall_us) {
    Tracer t;
    t.set_enabled(true);
    t.instant("nwade", "degraded_enter", 900, "vehicle", 2);
    t.complete("aim", "process_window", 1000, 1200, wall_us, "plans", 5);
    return Exports{t.chrome_json(true), t.chrome_json(false), t.jsonl(false)};
  };
  const Exports a = record(17.0);
  const Exports b = record(3900.5);
  EXPECT_NE(a.chrome_wall, b.chrome_wall);
  EXPECT_EQ(a.chrome_stripped, b.chrome_stripped);
  EXPECT_EQ(a.jsonl_stripped, b.jsonl_stripped);
  EXPECT_EQ(a.chrome_stripped.find("wall_us"), std::string::npos);
}

TEST(Trace, MultiStreamExportLabelsEachPid) {
  Tracer a;
  a.set_enabled(true);
  a.instant("sim", "spawn", 10);
  Tracer b;
  b.set_enabled(true);
  b.complete("sim", "phase.watch", 20, 20, -1.0);
  const std::string json = chrome_trace_json({a.events(), b.events()},
                                             {"cell-a", "cell-b"}, false);
  EXPECT_TRUE(bench::json_well_formed(json)) << json;
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("cell-a"), std::string::npos);
  EXPECT_NE(json.find("cell-b"), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);

  const std::string jsonl = jsonl_trace({a.events(), b.events()}, false);
  EXPECT_NE(jsonl.find("\"pid\": 0"), std::string::npos);
  EXPECT_NE(jsonl.find("\"pid\": 1"), std::string::npos);
}

}  // namespace
}  // namespace nwade::util::trace
