// Fuzz-style corrupt-wire regression: every decoder that ever sees bytes
// from disk or the simulated channel — TravelPlan, Block, protocol messages,
// checkpoint envelopes, replay bundles — is fed thousands of deterministic
// mutations (truncations, bit flips, splices, garbage) of valid encodings.
// The contract under test is narrow but absolute: decoding must either fail
// cleanly or return a usable value; it must never crash, hang, or read out
// of bounds (the ASan/TSan trees run this same suite).
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "chain/block.h"
#include "crypto/signer.h"
#include "nwade/message_codec.h"
#include "sim/checkpoint.h"
#include "sim/world.h"
#include "util/bytes.h"

namespace nwade::sim {
namespace {

using Rng = std::mt19937_64;

std::size_t rindex(Rng& rng, std::size_t size) {
  return std::uniform_int_distribution<std::size_t>(0, size - 1)(rng);
}

/// One deterministic corruption of `blob`: truncate, flip bits, overwrite a
/// run with garbage, or splice two regions — the shapes file corruption and
/// torn writes actually produce.
Bytes mutate(Rng& rng, const Bytes& blob) {
  Bytes out = blob;
  switch (rng() % 4) {
    case 0: {  // truncate
      out.resize(rindex(rng, out.size() + 1));
      break;
    }
    case 1: {  // flip 1-8 bits
      if (out.empty()) break;
      for (int flips = 1 + static_cast<int>(rng() % 8); flips > 0; --flips) {
        out[rindex(rng, out.size())] ^= static_cast<std::uint8_t>(1 << (rng() % 8));
      }
      break;
    }
    case 2: {  // overwrite a run with garbage
      if (out.empty()) break;
      const std::size_t at = rindex(rng, out.size());
      const std::size_t len =
          std::min(out.size() - at, static_cast<std::size_t>(1 + rng() % 16));
      for (std::size_t i = 0; i < len; ++i) {
        out[at + i] = static_cast<std::uint8_t>(rng());
      }
      break;
    }
    default: {  // splice: copy one region over another (shifts length fields)
      if (out.size() < 8) break;
      const std::size_t from = rindex(rng, out.size() - 4);
      const std::size_t to = rindex(rng, out.size() - 4);
      for (std::size_t i = 0; i < 4; ++i) out[to + i] = out[from + i];
      break;
    }
  }
  return out;
}

aim::TravelPlan sample_plan() {
  aim::TravelPlan plan;
  plan.vehicle = VehicleId{42};
  plan.route_id = 3;
  plan.traits = {7, 2, 9, 4.8};
  plan.status_at_issue.position = {12.5, -3.25};
  plan.status_at_issue.speed_mps = 11.0;
  plan.status_at_issue.heading_rad = 1.25;
  plan.segments = {{0, 0.0, 10.0}, {1500, 15.0, 6.0}, {4000, 30.0, 12.0}};
  plan.issued_at = 2000;
  plan.core_entry = 3500;
  plan.core_exit = 6100;
  return plan;
}

TEST(CorruptWire, TravelPlanDecoderSurvivesMutation) {
  Rng rng(0x7A7E11);
  const Bytes valid = sample_plan().serialize();
  ASSERT_TRUE(aim::TravelPlan::deserialize(valid).has_value());

  int decoded = 0;
  for (int i = 0; i < 5000; ++i) {
    const Bytes bad = mutate(rng, valid);
    const auto plan = aim::TravelPlan::deserialize(bad);
    if (!plan) continue;
    ++decoded;
    // A decode that "succeeded" on mutated bytes must still be usable.
    (void)plan->s_at(1000);
    (void)plan->wire_size();
  }
  // Bit flips in fixed-width payload fields legitimately decode; the point
  // is that nothing above crashed, not that every mutation is rejected.
  SUCCEED() << decoded << " mutations decoded";
}

TEST(CorruptWire, BlockDecoderSurvivesMutation) {
  Rng rng(0xB10C);
  const crypto::HmacSigner signer(Bytes{1, 2, 3, 4});
  crypto::Digest prev{};
  prev[0] = 0xAA;
  const chain::BlockPtr block = chain::Block::package(
      7, prev, 12'000, {sample_plan(), sample_plan()}, signer,
      {VehicleId{9}});
  const Bytes valid = block->serialize();
  ASSERT_NE(chain::Block::deserialize(valid), nullptr);

  for (int i = 0; i < 3000; ++i) {
    const Bytes bad = mutate(rng, valid);
    const auto decoded = chain::Block::deserialize(bad);
    if (!decoded) continue;
    // Whatever decoded must support the full read surface without faulting —
    // receivers verify signatures and Merkle roots on exactly such bytes.
    (void)decoded->signed_payload();
    (void)decoded->hash();
    (void)decoded->verify_merkle();
    (void)decoded->plan_for(VehicleId{42});
    (void)decoded->wire_size();
  }
}

TEST(CorruptWire, MessageCodecSurvivesMutation) {
  // Corpus: every in-flight message of a short fault-injected run, i.e. real
  // encodings of whatever message kinds the protocol actually exchanges.
  ScenarioConfig s;
  s.duration_ms = 30'000;
  s.vehicles_per_minute = 60;
  s.seed = 4;
  s.network.fault = net::burst_loss_profile(0.1, 4.0);
  s.network.fault.jitter_ms = 30;
  World world(s);
  world.run_until(12'000);
  const Bytes ckpt = world.checkpoint_save();

  // The network section of the checkpoint embeds encode_message output; fuzz
  // the codec directly on synthetic containers instead of surgically
  // extracting it: encode a few representative messages via a fresh save.
  Rng rng(0xC0DEC);
  ByteWriter w;
  checkpoint::save_scenario_config(w, s);
  const Bytes cfg_bytes = w.data();
  for (int i = 0; i < 3000; ++i) {
    const Bytes bad = mutate(rng, cfg_bytes);
    ByteReader r(bad);
    ScenarioConfig out;
    (void)checkpoint::load_scenario_config(r, out);
  }

  // And the full envelope (which exercises decode_message for every pending
  // delivery) through checkpoint_restore below.
  for (int i = 0; i < 200; ++i) {
    const Bytes bad = mutate(rng, ckpt);
    std::string error;
    const auto restored = World::checkpoint_restore(bad, &error);
    if (restored == nullptr) {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(CorruptWire, CheckpointRestoreSurvivesMutation) {
  ScenarioConfig s;
  s.duration_ms = 30'000;
  s.vehicles_per_minute = 80;
  s.seed = 1;
  World world(s);
  world.run_until(10'000);
  const Bytes valid = world.checkpoint_save();
  {
    std::string error;
    ASSERT_NE(World::checkpoint_restore(valid, &error), nullptr) << error;
  }

  Rng rng(0xCE14);
  for (int i = 0; i < 300; ++i) {
    const Bytes bad = mutate(rng, valid);
    std::string error;
    const auto restored = World::checkpoint_restore(bad, &error);
    // Per-section CRCs make silent acceptance of a mutated envelope
    // overwhelmingly unlikely; cleanly diagnosing it is the contract. The
    // rare CRC collision would have to restore into a working world anyway.
    if (restored == nullptr) {
      EXPECT_FALSE(error.empty());
    }
  }

  // Truncation at every section-ish granularity: chop the envelope at 256
  // evenly spaced lengths.
  for (std::size_t cut = 0; cut < 256; ++cut) {
    const std::size_t len = valid.size() * cut / 256;
    const Bytes torn(valid.begin(),
                     valid.begin() + static_cast<std::ptrdiff_t>(len));
    std::string error;
    EXPECT_EQ(World::checkpoint_restore(torn, &error), nullptr);
    EXPECT_FALSE(error.empty());
  }
}

TEST(CorruptWire, ReplayBundleLoaderSurvivesMutation) {
  checkpoint::ReplayBundle bundle;
  bundle.config.seed = 77;
  bundle.run_to = 90'000;
  bundle.expected_digest = "0123456789abcdef";
  bundle.note = "corrupt-wire corpus";
  const Bytes valid = checkpoint::save_replay_bundle(bundle);
  {
    checkpoint::ReplayBundle out;
    ASSERT_TRUE(checkpoint::load_replay_bundle(valid, out));
  }

  Rng rng(0x2EB1A7);
  for (int i = 0; i < 3000; ++i) {
    const Bytes bad = mutate(rng, valid);
    checkpoint::ReplayBundle out;
    std::string error;
    if (!checkpoint::load_replay_bundle(bad, out, &error)) {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(CorruptWire, ByteReaderPathologicalLengthPrefixes) {
  // Length prefixes near SIZE_MAX / UINT32_MAX must fail the bounds check,
  // not wrap it (the overflow-safe `ensure` contract).
  for (const std::uint32_t evil :
       {0xFFFFFFFFu, 0xFFFFFFF0u, 0x80000000u, 0x7FFFFFFFu}) {
    ByteWriter w;
    w.u32(evil);
    w.u8(1);  // far fewer than `evil` bytes actually present
    ByteReader r(w.data());
    EXPECT_TRUE(r.bytes().empty());
    EXPECT_FALSE(r.ok());

    ByteReader r2(w.data());
    EXPECT_TRUE(r2.str().empty());
    EXPECT_FALSE(r2.ok());

    ByteReader r3(w.data());
    const std::uint32_t n = r3.u32();
    EXPECT_TRUE(r3.view(n).empty());
    EXPECT_FALSE(r3.ok());
  }
}

}  // namespace
}  // namespace nwade::sim
