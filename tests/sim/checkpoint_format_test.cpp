// Byte-format lock for everything the simulator persists: a World
// checkpoint of each golden scenario at 60 s (step_threads 1 and 4), an
// RSA-1024 World at 30 s (the one with a filled `crypto` section), a 2x2
// Grid checkpoint, a replay bundle and one campaign RunSummary record must
// keep their exact bytes across refactors of how they are written, so files
// an older build saved still load. The values below are SHA-256 digests of
// those bytes with the wall-clock sample vectors removed (the only part of a
// checkpoint that differs between two runs of one binary). Re-record them
// only together with a schema bump (docs/CHECKPOINT.md §6).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "crypto/sha256.h"
#include "sim/checkpoint.h"
#include "sim/grid.h"
#include "util/bytes.h"
#include "util/crc32.h"

namespace nwade::sim {
namespace {

/// Metrics section layout before the wall-sample flag: ten optional ticks
/// (u8 + i64 each) and nineteen i64 counters.
constexpr std::size_t kMetricsFixedBytes = 10 * 9 + 19 * 8;

/// The metrics section re-encoded as it is written without wall-clock
/// samples: the fixed prefix verbatim, then a cleared flag.
Bytes fold_metrics(const Bytes& payload) {
  EXPECT_GT(payload.size(), kMetricsFixedBytes);
  EXPECT_EQ(payload.at(kMetricsFixedBytes), 1) << "wall samples not saved";
  Bytes out(kMetricsFixedBytes + 1, 0);  // the last byte is the cleared flag
  std::copy_n(payload.begin(), kMetricsFixedBytes, out.begin());
  return out;
}

/// Re-encodes a section-table envelope with `fold` applied to each payload;
/// a folded payload gets its CRC recomputed, every other byte is verbatim.
template <class Fold>
Bytes fold_envelope(const Bytes& blob, Fold fold) {
  ByteReader r(blob);
  ByteWriter w;
  w.str(r.str());
  const std::uint32_t n = r.u32();
  w.u32(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string name = r.str();
    const std::uint32_t crc = r.u32();
    const Bytes payload = r.bytes();
    const Bytes folded = fold(name, payload);
    w.str(name);
    w.u32(folded == payload ? crc : util::crc32(folded));
    w.bytes(folded);
  }
  EXPECT_TRUE(r.ok() && r.at_end());
  return w.take();
}

Bytes fold_world(const Bytes& blob) {
  return fold_envelope(blob, [](const std::string& name, const Bytes& p) {
    return name == "metrics" ? fold_metrics(p) : p;
  });
}

Bytes fold_grid(const Bytes& blob) {
  return fold_envelope(blob, [](const std::string& name, const Bytes& p) {
    return name.rfind("shard.", 0) == 0 ? fold_world(p) : p;
  });
}

std::string sha(const Bytes& b) { return crypto::digest_hex(crypto::sha256(b)); }

/// The trace_golden_test scenarios.
ScenarioConfig scenario(traffic::IntersectionKind kind, double vpm,
                        std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.intersection.kind = kind;
  cfg.vehicles_per_minute = vpm;
  cfg.duration_ms = 120'000;
  cfg.seed = seed;
  return cfg;
}

struct Golden {
  const char* name;
  ScenarioConfig config;
  std::size_t envelope_bytes;
  const char* folded_sha;
};

std::vector<Golden> goldens() {
  ScenarioConfig mixed = scenario(traffic::IntersectionKind::kRoundabout3, 60, 3);
  mixed.legacy_fraction = 0.25;
  ScenarioConfig deviation = scenario(traffic::IntersectionKind::kCross4, 80, 5);
  deviation.attack = protocol::AttackSetting{"deviation", 1, false, 0, 0};
  return {
      {"BenignCross4", scenario(traffic::IntersectionKind::kCross4, 80, 1),
       1'112'900,
       "f94ba1393574cab23404ffaeef48ede6a6dbeb600aa514cdb5de9503577f64b0"},
      {"DenseCross4", scenario(traffic::IntersectionKind::kCross4, 120, 7),
       2'760'301,
       "bcbf5f8f054044e17a56661c01c5ca9ec8c8d6749606cd9f5f1279b2bb53195e"},
      {"MixedTrafficRoundabout", mixed, 1'214'836,
       "f4934fc4063bcc28e6ab29cc8ddba56b1ece8783adecb6146f4ada94e6d29f92"},
      {"DeviationAttackCross4", deviation, 1'479'245,
       "4fbd4e46d96c33cab7b762eb4c3d5ecedbe4d482e8b11c7ed1c8185864d219ab"},
  };
}

TEST(CheckpointFormat, WorldEnvelopesOfTheGoldenScenarios) {
  for (const Golden& g : goldens()) {
    for (const int threads : {1, 4}) {
      ScenarioConfig cfg = g.config;
      cfg.step_threads = threads;
      World world(std::move(cfg));
      world.run_until(60'000);
      const Bytes blob = world.checkpoint_save();
      EXPECT_EQ(blob.size(), g.envelope_bytes) << g.name << " @" << threads;
      EXPECT_EQ(sha(fold_world(blob)), g.folded_sha) << g.name << " @" << threads;
    }
  }
}

/// The `crypto` section's entry lists (count, then seq/key/verdict entries).
std::size_t crypto_entries(const Bytes& blob) {
  std::size_t entries = 0;
  fold_envelope(blob, [&](const std::string& name, const Bytes& p) {
    if (name != "crypto") return p;
    ByteReader r(p);
    for (int i = 0; i < 6; ++i) r.u64();  // capacity, next_seq, four counters
    for (int list = 0; list < 16; ++list) {
      const std::uint32_t n = r.u32();
      entries += n;
      for (std::uint32_t e = 0; e < n; ++e) {
        r.u64();
        r.bytes();
        r.u8();
      }
    }
    EXPECT_TRUE(r.ok() && r.at_end());
    return p;
  });
  return entries;
}

/// An RSA signer memoizes its verdicts, so this is the envelope whose
/// `crypto` section holds a filled signature-verification cache (an HMAC
/// world's is always empty).
TEST(CheckpointFormat, RsaWorldEnvelope) {
  for (const int threads : {1, 4}) {
    ScenarioConfig cfg = scenario(traffic::IntersectionKind::kCross4, 80, 1);
    cfg.signer = SignerKind::kRsa1024;
    cfg.step_threads = threads;
    World world(std::move(cfg));
    world.run_until(30'000);
    const Bytes blob = world.checkpoint_save();
    EXPECT_GT(crypto_entries(blob), 0u) << "@" << threads;
    EXPECT_EQ(blob.size(), 402'984u) << "@" << threads;
    EXPECT_EQ(sha(fold_world(blob)),
              "6215aaaf40f59cc7f720ee05a204c0866cc0b4404291cf33d67dd7e35cbc0b00")
        << "@" << threads;
  }
}

TEST(CheckpointFormat, GridEnvelope) {
  GridConfig cfg;
  cfg.rows = 2;
  cfg.cols = 2;
  cfg.shard.intersection.kind = traffic::IntersectionKind::kCross4;
  cfg.shard.vehicles_per_minute = 120;
  cfg.shard.duration_ms = 60'000;
  cfg.shard.attack_time = 10'000;
  cfg.shard.attack = protocol::AttackSetting{"V1", 1, false, 1, 0};
  cfg.seed = 11;
  cfg.exchange_every_ms = 500;
  cfg.gossip_every_ms = 1'000;
  cfg.attack_shard = 0;
  cfg.edge.jitter_ms = 50;
  cfg.edge.outages.push_back(net::EdgeOutage{4'000, 6'000});
  Grid grid(std::move(cfg));
  grid.run_until(20'000);
  const Bytes blob = grid.checkpoint_save();
  EXPECT_EQ(blob.size(), 1'436'479u);
  EXPECT_EQ(sha(fold_grid(blob)),
            "b17ac8c3cabc89212c5e291fdaff3eb0a08494faacc2197faa9a5844217068de");
}

/// A bundle that reaches every optional shape of the config wire form.
checkpoint::ReplayBundle fixed_bundle() {
  checkpoint::ReplayBundle b;
  ScenarioConfig& c = b.config;
  c.intersection.kind = traffic::IntersectionKind::kRoundabout3;
  c.vehicles_per_minute = 42.5;
  c.duration_ms = 90'000;
  c.seed = 0xfeedface;
  c.nwade.double_check_verification = true;
  c.network.fault.jitter_ms = 7;
  c.network.fault.link_rules.push_back(
      net::LinkRule{NodeId{3}, NodeId{0}, "incident_report", 0.5, 1'000, 9'000});
  c.network.fault.outages.push_back(net::Outage{NodeId{0}, 20'000, 25'000});
  c.signer = SignerKind::kRsa2048;
  c.attack = protocol::AttackSetting{"V2", 2, false, 1, 1};
  c.false_report_kind = protocol::FalseReportKind::kWrongPlans;
  c.im_attack_mode = protocol::ImAttackMode::kSilence;
  c.legacy_fraction = 0.125;
  c.trace_enabled = true;
  c.vehicle_id_base = 2'000'000;
  c.extra_vehicle_capacity = 17;
  b.run_to = 45'000;
  b.expected_digest = "0123456789abcdef";
  b.note = "format lock";
  return b;
}

TEST(CheckpointFormat, ReplayBundle) {
  const Bytes blob = checkpoint::save_replay_bundle(fixed_bundle());
  EXPECT_EQ(blob.size(), 571u);
  EXPECT_EQ(sha(blob),
            "ed4863bdf49263515e49ea103be3e29c2f609f026c27ddb1dae146479ba7db49");
}

TEST(CheckpointFormat, RunSummaryRecord) {
  ScenarioConfig cfg = scenario(traffic::IntersectionKind::kCross4, 80, 5);
  cfg.attack = protocol::AttackSetting{"deviation", 1, false, 0, 0};
  cfg.duration_ms = 30'000;
  World world(std::move(cfg));
  RunSummary s = world.run();
  s.metrics.im_package_us.clear();
  s.metrics.vehicle_verify_us.clear();
  ByteWriter w;
  checkpoint::save_run_summary(w, s);
  EXPECT_EQ(w.data().size(), 3'506u);
  EXPECT_EQ(sha(w.data()),
            "220165d19425757b5972cc034a175052d576168a3fb6f6c50bbc929530695d52");
}

}  // namespace
}  // namespace nwade::sim
