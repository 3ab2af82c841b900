// Bit-exact checkpoint/resume: saving a World mid-run, restoring it, and
// continuing must reproduce the trace-golden digest of the uninterrupted run
// byte for byte — including checkpoints placed INSIDE an active verification
// round, where pending tally deadlines and in-flight VerifyRequests must
// survive the round trip at their exact event-queue coordinates.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "sim/checkpoint.h"
#include "sim/world.h"
#include "util/bytes.h"
#include "util/crc32.h"

namespace nwade::sim {
namespace {

void fold_optional_tick(ByteWriter& w, const std::optional<Tick>& t) {
  w.u8(t.has_value() ? 1 : 0);
  w.i64(t.value_or(0));
}

void fold_kind_map(ByteWriter& w,
                   const std::unordered_map<std::string, std::uint64_t>& m) {
  std::map<std::string, std::uint64_t> sorted(m.begin(), m.end());
  w.u32(static_cast<std::uint32_t>(sorted.size()));
  for (const auto& [kind, count] : sorted) {
    w.str(kind);
    w.u64(count);
  }
}

/// trace_golden_test's digest fold, applied to an already-constructed world
/// (possibly one restored from a checkpoint earlier than the 60 s midpoint):
/// drive to t=60 s, fold every vehicle's chain view, finish, fold the summary.
std::string finish_digest(World& world) {
  ByteWriter w;
  world.run_until(60'000);
  for (const VehicleId id : world.vehicle_ids()) {
    const protocol::VehicleNode* v = world.vehicle(id);
    if (v == nullptr) continue;
    w.u64(id.value);
    const auto& store = v->store();
    w.u64(store.size());
    for (const auto& block : store.blocks()) {
      w.u64(block->seq);
      w.i64(block->timestamp);
      w.bytes(block->merkle_root);
      for (const auto& plan : block->plans()) w.bytes(plan.serialize());
    }
  }

  const RunSummary s = world.run();

  const protocol::Metrics& m = s.metrics;
  fold_optional_tick(w, m.violation_start);
  fold_optional_tick(w, m.first_true_incident);
  fold_optional_tick(w, m.deviation_confirmed);
  fold_optional_tick(w, m.false_incident_injected);
  fold_optional_tick(w, m.false_incident_dismissed);
  fold_optional_tick(w, m.false_global_injected);
  fold_optional_tick(w, m.false_global_detected);
  fold_optional_tick(w, m.im_conflict_injected);
  fold_optional_tick(w, m.im_conflict_detected);
  fold_optional_tick(w, m.sham_alert_detected);
  for (const int counter :
       {m.vehicles_spawned, m.vehicles_exited, m.incident_reports,
        m.global_reports, m.verify_rounds, m.alarm_dismissals,
        m.evacuation_alerts, m.benign_self_evacuations,
        m.false_alarm_evacuations, m.malicious_reports_recorded,
        m.blocks_published, m.block_verification_failures,
        m.plan_request_retries, m.gap_block_requests, m.degraded_entries,
        m.degraded_crossings, m.im_crashes, m.im_restarts,
        m.im_courtesy_gaps}) {
    w.i64(counter);
  }

  const net::NetworkStats& n = s.net_stats;
  w.u64(n.packets_sent);
  w.u64(n.packets_delivered);
  w.u64(n.packets_dropped);
  w.u64(n.packets_out_of_range);
  w.u64(n.packets_duplicated);
  w.u64(n.packets_lost_outage);
  w.u64(n.bytes_sent);
  fold_kind_map(w, n.packets_by_kind);
  fold_kind_map(w, n.bytes_by_kind);
  fold_kind_map(w, n.dropped_by_kind);

  w.f64(s.throughput_vpm);
  w.f64(s.mean_crossing_ms);
  w.i64(s.active_at_end);
  w.i64(s.min_ground_truth_gap_violations);
  w.i64(s.legacy_spawned);
  w.i64(s.legacy_exited);

  return crypto::digest_hex(crypto::sha256(w.data()));
}

ScenarioConfig scenario(traffic::IntersectionKind kind, double vpm,
                        std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.intersection.kind = kind;
  cfg.vehicles_per_minute = vpm;
  cfg.duration_ms = 120'000;
  cfg.seed = seed;
  return cfg;
}

/// Runs to `checkpoint_at`, saves, restores into a fresh world, and finishes
/// the restored world. The result must match the uninterrupted golden digest.
std::string resumed_digest(ScenarioConfig cfg, Tick checkpoint_at) {
  World original(std::move(cfg));
  original.run_until(checkpoint_at);
  const Bytes blob = original.checkpoint_save();

  std::string error;
  std::unique_ptr<World> resumed = World::checkpoint_restore(blob, &error);
  EXPECT_NE(resumed, nullptr) << error;
  if (resumed == nullptr) return "";
  EXPECT_EQ(resumed->now(), checkpoint_at);
  return finish_digest(*resumed);
}

// --- golden-digest resume: the four trace-golden scenarios ------------------

TEST(CheckpointResume, BenignCross4) {
  EXPECT_EQ(
      resumed_digest(scenario(traffic::IntersectionKind::kCross4, 80, 1), 30'000),
      "0e83bbd0a51d8df2b9ea6241bfb16e70f3e62c285ccd24da7b3aa131a39b0e2b");
}

TEST(CheckpointResume, DenseCross4) {
  EXPECT_EQ(
      resumed_digest(scenario(traffic::IntersectionKind::kCross4, 120, 7), 45'000),
      "85792ecf2b608ab59daf55da1128614dbdd3daad0fa8dd3488f5432c413ee89c");
}

TEST(CheckpointResume, MixedTrafficRoundabout) {
  ScenarioConfig cfg = scenario(traffic::IntersectionKind::kRoundabout3, 60, 3);
  cfg.legacy_fraction = 0.25;
  EXPECT_EQ(resumed_digest(std::move(cfg), 30'000),
            "f14c0b8ae02954f23ab4190f1b0e782548ca72a633e9997207db0e889e227f89");
}

TEST(CheckpointResume, DeviationAttackCross4) {
  ScenarioConfig cfg = scenario(traffic::IntersectionKind::kCross4, 80, 5);
  cfg.attack = protocol::AttackSetting{"deviation", 1, false, 0, 0};
  EXPECT_EQ(resumed_digest(std::move(cfg), 30'000),
            "7aee66a07164ede3f6bf1b783fc7559c61fb310851d6166934911d7b4ea3587c");
}

// --- checkpoint INSIDE a verification round ---------------------------------

TEST(CheckpointResume, InsideVerificationRound) {
  // Table I's V1 attacker goes physically off-plan at t=40 s and watchers
  // report it. With the default 1000 ft perception radius the IM sees the
  // whole intersection and resolves incident reports by direct perception —
  // voting rounds never open — so the radius is shrunk until the IM must
  // poll witnesses. No stored golden at this radius; the oracle is the
  // uninterrupted run of the same config computed in-process. Stepping
  // 100 ms at a time, grab the first boundary where a round is live and
  // checkpoint THERE — in-flight VerifyRequests sit in the network queue and
  // the tally timer must re-arm at its original (when, seq).
  const auto myopic_im = [] {
    ScenarioConfig cfg = scenario(traffic::IntersectionKind::kCross4, 60, 12345);
    cfg.attack = protocol::attack_setting_by_name("V1");
    cfg.nwade.im_perception_radius_m = 10.0;
    return cfg;
  };

  World oracle(myopic_im());
  const std::string expected = finish_digest(oracle);

  World original(myopic_im());
  Tick checkpoint_at = 0;
  for (Tick t = 40'000; t <= 55'000; t += 100) {
    original.run_until(t);
    if (original.im().active_verification_rounds() > 0) {
      checkpoint_at = t;
      break;
    }
  }
  ASSERT_GT(checkpoint_at, 0) << "no verification round opened by t=55s";

  const Bytes blob = original.checkpoint_save();
  std::string error;
  std::unique_ptr<World> resumed = World::checkpoint_restore(blob, &error);
  ASSERT_NE(resumed, nullptr) << error;
  EXPECT_GT(resumed->im().active_verification_rounds(), 0u);
  EXPECT_EQ(finish_digest(*resumed), expected);
}

// --- chaos: checkpoint in the middle of an active fault burst ---------------

TEST(CheckpointResume, MidFaultBurstMatchesUninterrupted) {
  // Bursty loss + jitter + duplication + an IM outage spanning the
  // checkpoint: the Gilbert–Elliott chain state, the fault RNG position, the
  // pending (jittered, duplicated) deliveries, and the scheduled IM restart
  // must all survive. No stored golden here — the oracle is the
  // uninterrupted run of the same scenario computed in-process.
  const auto chaos_scenario = [] {
    ScenarioConfig cfg = scenario(traffic::IntersectionKind::kCross4, 80, 11);
    cfg.network.fault = net::burst_loss_profile(0.10, 4.0);
    cfg.network.fault.jitter_ms = 40;
    cfg.network.fault.duplicate_probability = 0.05;
    cfg.network.fault.outages.push_back(net::Outage{kImNodeId, 28'000, 36'000});
    return cfg;
  };

  World uninterrupted(chaos_scenario());
  const std::string expected = finish_digest(uninterrupted);

  // 30'000 sits inside the outage: the IM is down, its restart event is
  // pending, and vehicles are mid-backoff on plan-request retransmissions.
  EXPECT_EQ(resumed_digest(chaos_scenario(), 30'000), expected);
}

// --- save/load/save byte-equality -------------------------------------------

TEST(CheckpointResume, SaveLoadSaveIsByteIdentical) {
  ScenarioConfig cfg = scenario(traffic::IntersectionKind::kCross4, 80, 5);
  cfg.attack = protocol::AttackSetting{"deviation", 1, false, 0, 0};
  World original(std::move(cfg));
  original.run_until(42'000);

  const Bytes blob = original.checkpoint_save();
  std::string error;
  std::unique_ptr<World> resumed = World::checkpoint_restore(blob, &error);
  ASSERT_NE(resumed, nullptr) << error;
  EXPECT_EQ(resumed->checkpoint_save(), blob);
}

TEST(CheckpointResume, ResumeOfResumeStaysExact) {
  // Two nested interruptions: checkpoint at 20 s, resume, checkpoint the
  // resumed world at 35 s, resume again, finish. Still the golden digest.
  World original(scenario(traffic::IntersectionKind::kCross4, 80, 1));
  original.run_until(20'000);
  std::unique_ptr<World> first =
      World::checkpoint_restore(original.checkpoint_save());
  ASSERT_NE(first, nullptr);
  first->run_until(35'000);
  std::unique_ptr<World> second =
      World::checkpoint_restore(first->checkpoint_save());
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(finish_digest(*second),
            "0e83bbd0a51d8df2b9ea6241bfb16e70f3e62c285ccd24da7b3aa131a39b0e2b");
}

TEST(CheckpointResume, HandoffsBeyondExtraVehicleCapacity) {
  // A standalone world (extra_vehicle_capacity 0) that takes 60 boundary
  // handoffs on top of its own ~20 arrivals: nothing sizes vehicle state
  // from the arrival count, so the run, its save and its resume hold.
  ScenarioConfig cfg = scenario(traffic::IntersectionKind::kCross4, 20, 3);
  cfg.duration_ms = 60'000;
  ASSERT_EQ(cfg.extra_vehicle_capacity, 0u);
  World original(cfg);
  const std::size_t routes = original.intersection().routes().size();
  std::uint64_t next_id = 1'000'000;
  for (Tick t = 1'000; t <= 10'000; t += 1'000) {
    original.run_until(t);
    for (int k = 0; k < 6; ++k) {
      const int route = static_cast<int>(next_id % routes);
      original.inject_vehicle(VehicleId{next_id++}, route, {}, 12.0);
    }
  }
  const Bytes blob = original.checkpoint_save();

  std::string error;
  std::unique_ptr<World> resumed = World::checkpoint_restore(blob, &error);
  ASSERT_NE(resumed, nullptr) << error;
  EXPECT_EQ(resumed->checkpoint_save(), blob);
  EXPECT_EQ(finish_digest(*resumed), finish_digest(original));
}

TEST(CheckpointResume, SummaryBeforeSaveLeavesTheEnvelopeAlone) {
  // summary() is an observer: a world summarized every simulated second (as
  // a streamer does) saves the same envelope as one never summarized. Only
  // the metrics section differs between any two runs (wall-clock samples).
  const ScenarioConfig cfg = scenario(traffic::IntersectionKind::kCross4, 80, 1);
  World observed(cfg);
  World plain(cfg);
  for (Tick t = 1'000; t <= 20'000; t += 1'000) {
    observed.run_until(t);
    (void)observed.summary();
    plain.run_until(t);
  }
  const Bytes a = observed.checkpoint_save();
  const Bytes b = plain.checkpoint_save();
  std::string error;
  checkpoint::SectionReader ra;
  checkpoint::SectionReader rb;
  ASSERT_TRUE(ra.parse(a, checkpoint::kCheckpointSchema, 64, &error)) << error;
  ASSERT_TRUE(rb.parse(b, checkpoint::kCheckpointSchema, 64, &error)) << error;
  for (const std::string name : {"config", "time", "network", "im", "vehicles",
                                 "legacy", "crypto", "telemetry"}) {
    const auto* sa = ra.find(name);
    const auto* sb = rb.find(name);
    ASSERT_NE(sa, nullptr) << name;
    ASSERT_NE(sb, nullptr) << name;
    EXPECT_TRUE(std::equal(sa->begin(), sa->end(), sb->begin(), sb->end()))
        << "section '" << name << "' depends on summary() calls";
  }
  ASSERT_NE(ra.find("metrics"), nullptr);
  ASSERT_NE(rb.find("metrics"), nullptr);
}

// --- one Block object per block, live and restored --------------------------

/// Every holder of seq k (the IM window and each vehicle store) must hold the
/// same Block object. Returns the number of distinct blocks held.
std::size_t expect_one_object_per_block(World& world, const std::string& where) {
  std::map<chain::BlockSeq, const chain::Block*> by_seq;
  const auto visit = [&](const chain::BlockStore& store, std::uint64_t holder) {
    for (const chain::BlockPtr& b : store.blocks()) {
      const auto it = by_seq.try_emplace(b->seq, b.get()).first;
      EXPECT_EQ(it->second, b.get())
          << where << ": holder " << holder << " keeps its own copy of block " << b->seq;
    }
  };
  visit(world.im().block_window(), 0);
  for (const VehicleId id : world.vehicle_ids()) visit(world.vehicle(id)->store(), id.value);
  return by_seq.size();
}

TEST(BlockSharing, EveryHolderSharesOneBlockLiveAndRestored) {
  std::vector<ScenarioConfig> goldens = {
      scenario(traffic::IntersectionKind::kCross4, 80, 1),
      scenario(traffic::IntersectionKind::kCross4, 120, 7),
      scenario(traffic::IntersectionKind::kRoundabout3, 60, 3),
      scenario(traffic::IntersectionKind::kCross4, 80, 5)};
  goldens[2].legacy_fraction = 0.25;
  goldens[3].attack = protocol::AttackSetting{"deviation", 1, false, 0, 0};
  for (std::size_t i = 0; i < goldens.size(); ++i) {
    const std::string where = "golden " + std::to_string(i);
    World world(goldens[i]);
    world.run_until(60'000);
    const std::size_t live = expect_one_object_per_block(world, where + " live");
    EXPECT_GT(live, 0u) << where;

    const Bytes blob = world.checkpoint_save();
    std::string error;
    std::unique_ptr<World> restored = World::checkpoint_restore(blob, &error);
    ASSERT_NE(restored, nullptr) << where << ": " << error;
    EXPECT_EQ(expect_one_object_per_block(*restored, where + " restored"), live);
    EXPECT_EQ(restored->checkpoint_save(), blob) << where;
  }
}

// --- malformed input --------------------------------------------------------

TEST(CheckpointRestore, RejectsCorruptEnvelope) {
  World world(scenario(traffic::IntersectionKind::kCross4, 80, 1));
  world.run_until(5'000);
  Bytes blob = world.checkpoint_save();

  std::string error;
  EXPECT_EQ(World::checkpoint_restore(Bytes{}, &error), nullptr);
  EXPECT_EQ(World::checkpoint_restore(Bytes{0x00, 0x01, 0x02}, &error), nullptr);

  // Flip one payload byte: the section CRC must catch it.
  Bytes corrupt = blob;
  corrupt[corrupt.size() / 2] ^= 0xFF;
  EXPECT_EQ(World::checkpoint_restore(corrupt, &error), nullptr);
  EXPECT_FALSE(error.empty());

  // Truncations at every prefix length must fail cleanly, never crash.
  for (const std::size_t len :
       {std::size_t{1}, blob.size() / 4, blob.size() / 2, blob.size() - 1}) {
    Bytes truncated(blob.begin(), blob.begin() + static_cast<long>(len));
    EXPECT_EQ(World::checkpoint_restore(truncated, &error), nullptr)
        << "prefix length " << len;
  }
}

/// The little-endian i64 at `at`.
std::int64_t i64_at(const Bytes& b, std::size_t at) {
  return ByteReader(std::span<const std::uint8_t>(b).subspan(at, 8)).i64();
}

/// Overwrites the little-endian i64 at `at` with `v`.
void patch_i64(Bytes& b, std::size_t at, std::int64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    b.at(at + i) = static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * i));
  }
}

/// `blob` with the last u64 of its config section (extra_vehicle_capacity's
/// slot) set to `v`, and that section's CRC refreshed to match.
Bytes with_extra_vehicle_capacity(Bytes blob, std::uint64_t v) {
  checkpoint::SectionReader in;
  std::string error;
  EXPECT_TRUE(in.parse(blob, checkpoint::kCheckpointSchema, 64, &error)) << error;
  const auto* config = in.find("config");
  EXPECT_NE(config, nullptr);
  if (config == nullptr) return blob;
  const auto at = static_cast<std::size_t>(config->data() - blob.data());
  const std::size_t len = config->size();
  patch_i64(blob, at + len - 8, static_cast<std::int64_t>(v));
  const std::uint32_t crc =
      util::crc32(std::span<const std::uint8_t>(blob).subspan(at, len));
  for (std::size_t i = 0; i < 4; ++i) {
    blob.at(at - 8 + i) = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return blob;
}

TEST(CheckpointRestore, HugeExtraVehicleCapacityDoesNotEscapeRestore) {
  // The slot is carried, never acted on: a CRC-valid envelope holding any
  // value restores (no allocation sized from it, no exception) and re-saves
  // byte for byte.
  World world(scenario(traffic::IntersectionKind::kCross4, 80, 1));
  world.run_until(5'000);
  const Bytes blob = world.checkpoint_save();
  for (const std::uint64_t capacity : {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    const Bytes patched = with_extra_vehicle_capacity(blob, capacity);
    ASSERT_NE(patched, blob);
    std::unique_ptr<World> restored;
    std::string error;
    EXPECT_NO_THROW(restored = World::checkpoint_restore(patched, &error));
    ASSERT_NE(restored, nullptr) << error;
    EXPECT_EQ(restored->config().extra_vehicle_capacity, capacity);
    EXPECT_EQ(restored->checkpoint_save(), patched);
  }
}

TEST(CheckpointRestore, RejectsADuplicatedVehicleRecord) {
  // Rebuild a valid envelope with every vehicles record written twice (the
  // section's u32 count doubled, its records repeated) and fresh CRCs: a
  // restore must refuse it rather than construct two nodes for one id.
  World world(scenario(traffic::IntersectionKind::kCross4, 80, 1));
  world.run_until(10'000);
  const Bytes blob = world.checkpoint_save();
  ByteReader in(blob);
  ByteWriter out;
  out.str(in.str());
  const std::uint32_t sections = in.u32();
  out.u32(sections);
  bool doubled = false;
  for (std::uint32_t i = 0; i < sections; ++i) {
    const std::string name = in.str();
    in.u32();  // CRC, recomputed below
    const std::span<const std::uint8_t> payload = in.view(in.u32());
    Bytes body(payload.begin(), payload.end());
    if (name == "vehicles") {
      const std::uint32_t n = ByteReader(payload).u32();
      ASSERT_GT(n, 0u);
      body.insert(body.end(), payload.begin() + 4, payload.end());
      for (std::size_t b = 0; b < 4; ++b) {
        body[b] = static_cast<std::uint8_t>((2 * n) >> (8 * b));
      }
      doubled = true;
    }
    out.str(name);
    out.u32(util::crc32(body));
    out.bytes(body);  // length-prefixed payload
  }
  ASSERT_TRUE(in.ok() && in.at_end());
  ASSERT_TRUE(doubled);
  std::string error;
  EXPECT_EQ(World::checkpoint_restore(out.data(), &error), nullptr);
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(CheckpointRestore, RejectsAFixedSettingAtAnotherValue) {
  // The processing window's slot: the i64 after the intersection block (a
  // kind byte and seven f64s), vpm, duration, step and seed.
  constexpr std::size_t kWindowSlot = 1 + 7 * 8 + 8 + 8 + 8 + 8;
  ByteWriter w;
  checkpoint::save_scenario_config(w, ScenarioConfig{});
  Bytes config = w.take();
  ASSERT_EQ(i64_at(config, kWindowSlot), protocol::kProcessingWindowMs);

  ScenarioConfig loaded;
  ByteReader control(config);
  ASSERT_TRUE(checkpoint::load_scenario_config(control, loaded));

  // A run cannot continue bit-exactly on a window the code no longer honours.
  patch_i64(config, kWindowSlot, 2000);
  ByteReader patched(config);
  EXPECT_FALSE(checkpoint::load_scenario_config(patched, loaded));

  checkpoint::ReplayBundle bundle;
  bundle.run_to = 60'000;
  Bytes blob = checkpoint::save_replay_bundle(bundle);
  const std::size_t in_bundle = 4 + checkpoint::kReplaySchema.size() + kWindowSlot;
  ASSERT_EQ(i64_at(blob, in_bundle), protocol::kProcessingWindowMs);
  checkpoint::ReplayBundle out;
  std::string error;
  ASSERT_TRUE(checkpoint::load_replay_bundle(blob, out, &error)) << error;
  patch_i64(blob, in_bundle, 2000);
  EXPECT_FALSE(checkpoint::load_replay_bundle(blob, out, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace nwade::sim
