// Every JSON exporter writes strings through one writer (util/json.h), so a
// name holding a quote, a backslash, a tab, a carriage return and another
// control character renders the same escaped bytes in a metrics snapshot,
// both trace exports, a stream frame and a campaign row, and the frame
// reader (svc::frame_str) gives the name back.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/support.h"
#include "sim/campaign.h"
#include "svc/frame.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace nwade {
namespace {

// "\x01" "f": a hex escape would otherwise swallow the f.
const std::string kName = "a\"b\\c\td\re\x01" "f";
const std::string kEscaped = R"("a\"b\\c\td\re\u0001f")";

void expect_escaped(const std::string& json, const std::string& key) {
  EXPECT_NE(json.find(key + kEscaped), std::string::npos) << json;
  EXPECT_TRUE(bench::json_well_formed(json)) << json;
}

TEST(JsonEscaping, EveryExporterWritesTheSameEscapedName) {
  util::telemetry::MetricsSnapshot snap;
  snap.counters[kName] = 7;
  expect_escaped(snap.json(), "");
  expect_escaped(snap.json_compact(), "");

  util::trace::Event event;
  event.cat = kName.c_str();
  event.name = "span";
  const std::vector<std::vector<util::trace::Event>> streams{{event}};
  const std::string chrome = util::trace::chrome_trace_json(streams, {kName});
  expect_escaped(chrome, "\"cat\": ");
  expect_escaped(chrome, "\"args\": {\"name\": ");
  expect_escaped(util::trace::jsonl_trace(streams), "\"cat\": ");

  const std::string frame =
      svc::FrameBuilder("status", 1, 0).field("attack", kName).take();
  expect_escaped(frame, "\"attack\": ");
  EXPECT_EQ(svc::frame_str(frame, "attack").value_or(""), kName);

  sim::CampaignConfig cfg;
  cfg.rounds = 1;
  sim::CellResult cell;
  cell.cell.attack = kName;
  expect_escaped(sim::campaign_results_json(cfg, {cell}), "\"attack\": ");
}

}  // namespace
}  // namespace nwade
