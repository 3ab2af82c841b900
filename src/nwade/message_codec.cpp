#include "nwade/message_codec.h"

#include <cstdio>
#include <cstdlib>
#include <memory>

namespace nwade::protocol {
namespace {

enum class Tag : std::uint8_t {
  kPlanRequest = 0,
  kBlockBroadcast = 1,
  kBlockRequest = 2,
  kBlockResponse = 3,
  kIncidentReport = 4,
  kVerifyRequest = 5,
  kVerifyResponse = 6,
  kAlarmDismiss = 7,
  kEvacuationAlert = 8,
  kGlobalReport = 9,
  kBlacklistGossip = 10,
};

void encode_block(ByteWriter& w, const chain::BlockPtr& b) {
  w.bytes(b != nullptr ? b->serialize() : Bytes{});
}

chain::BlockPtr decode_block(ByteReader& r, chain::BlockTable& blocks) {
  const Bytes raw = r.bytes();
  if (!r.ok() || raw.empty()) return nullptr;
  return blocks.get(raw);
}

}  // namespace

void encode_evidence(ByteWriter& w, const Evidence& e) {
  w.u64(e.suspect.value);
  e.observed.serialize(w);
  w.i64(e.observed_at);
  w.f64(e.deviation_m);
}

Evidence decode_evidence(ByteReader& r) {
  Evidence e;
  e.suspect = VehicleId{r.u64()};
  e.observed = traffic::VehicleStatus::deserialize(r);
  e.observed_at = r.i64();
  e.deviation_m = r.f64();
  return e;
}

void encode_message(ByteWriter& w, const net::Message& msg) {
  if (const auto* m = dynamic_cast<const PlanRequest*>(&msg)) {
    w.u8(static_cast<std::uint8_t>(Tag::kPlanRequest));
    w.u64(m->vehicle.value);
    w.i64(m->route_id);
    m->traits.serialize(w);
    m->status.serialize(w);
  } else if (const auto* m = dynamic_cast<const BlockBroadcast*>(&msg)) {
    w.u8(static_cast<std::uint8_t>(Tag::kBlockBroadcast));
    encode_block(w, m->block);
  } else if (const auto* m = dynamic_cast<const BlockRequest*>(&msg)) {
    w.u8(static_cast<std::uint8_t>(Tag::kBlockRequest));
    w.u64(m->requester.value);
    w.u64(m->plan_of.value);
    w.u64(m->seq);
    w.u8(m->by_seq ? 1 : 0);
  } else if (const auto* m = dynamic_cast<const BlockResponse*>(&msg)) {
    w.u8(static_cast<std::uint8_t>(Tag::kBlockResponse));
    w.u64(m->plan_of.value);
    encode_block(w, m->block);
  } else if (const auto* m = dynamic_cast<const IncidentReport*>(&msg)) {
    w.u8(static_cast<std::uint8_t>(Tag::kIncidentReport));
    w.u64(m->reporter.value);
    encode_evidence(w, m->evidence);
    w.u64(m->block_seq);
    w.u8(m->misbehavior_claim ? 1 : 0);
  } else if (const auto* m = dynamic_cast<const VerifyRequest*>(&msg)) {
    w.u8(static_cast<std::uint8_t>(Tag::kVerifyRequest));
    w.u64(m->request_id);
    w.u64(m->suspect.value);
  } else if (const auto* m = dynamic_cast<const VerifyResponse*>(&msg)) {
    w.u8(static_cast<std::uint8_t>(Tag::kVerifyResponse));
    w.u64(m->request_id);
    w.u64(m->responder.value);
    w.u64(m->suspect.value);
    w.u8(m->abnormal ? 1 : 0);
    encode_evidence(w, m->evidence);
  } else if (const auto* m = dynamic_cast<const AlarmDismiss*>(&msg)) {
    w.u8(static_cast<std::uint8_t>(Tag::kAlarmDismiss));
    w.u64(m->reporter.value);
    w.u64(m->suspect.value);
  } else if (const auto* m = dynamic_cast<const EvacuationAlert*>(&msg)) {
    w.u8(static_cast<std::uint8_t>(Tag::kEvacuationAlert));
    w.u64(m->suspect.value);
    m->suspect_traits.serialize(w);
    m->last_known.serialize(w);
  } else if (const auto* m = dynamic_cast<const GlobalReport*>(&msg)) {
    w.u8(static_cast<std::uint8_t>(Tag::kGlobalReport));
    w.u64(m->reporter.value);
    w.u8(static_cast<std::uint8_t>(m->reason));
    w.u64(m->block_seq);
    w.u64(m->suspect.value);
    m->suspect_status.serialize(w);
  } else if (const auto* m = dynamic_cast<const BlacklistGossip*>(&msg)) {
    w.u8(static_cast<std::uint8_t>(Tag::kBlacklistGossip));
    w.u32(m->origin_shard);
    w.i64(m->issued_at);
    w.u32(static_cast<std::uint32_t>(m->suspects.size()));
    for (const VehicleId v : m->suspects) w.u64(v.value);
  } else {
    std::fprintf(stderr, "message_codec: unknown message kind '%s'\n",
                 msg.kind().c_str());
    std::abort();
  }
}

net::MessagePtr decode_message(ByteReader& r, chain::BlockTable& blocks) {
  const std::uint8_t tag = r.u8();
  if (!r.ok()) return nullptr;
  switch (static_cast<Tag>(tag)) {
    case Tag::kPlanRequest: {
      auto m = std::make_shared<PlanRequest>();
      m->vehicle = VehicleId{r.u64()};
      m->route_id = static_cast<int>(r.i64());
      m->traits = traffic::VehicleTraits::deserialize(r);
      m->status = traffic::VehicleStatus::deserialize(r);
      return r.ok() ? m : nullptr;
    }
    case Tag::kBlockBroadcast: {
      auto m = std::make_shared<BlockBroadcast>();
      m->block = decode_block(r, blocks);
      return r.ok() && m->block != nullptr ? m : nullptr;
    }
    case Tag::kBlockRequest: {
      auto m = std::make_shared<BlockRequest>();
      m->requester = VehicleId{r.u64()};
      m->plan_of = VehicleId{r.u64()};
      m->seq = r.u64();
      m->by_seq = r.u8() != 0;
      return r.ok() ? m : nullptr;
    }
    case Tag::kBlockResponse: {
      auto m = std::make_shared<BlockResponse>();
      m->plan_of = VehicleId{r.u64()};
      m->block = decode_block(r, blocks);
      return r.ok() && m->block != nullptr ? m : nullptr;
    }
    case Tag::kIncidentReport: {
      auto m = std::make_shared<IncidentReport>();
      m->reporter = VehicleId{r.u64()};
      m->evidence = decode_evidence(r);
      m->block_seq = r.u64();
      m->misbehavior_claim = r.u8() != 0;
      return r.ok() ? m : nullptr;
    }
    case Tag::kVerifyRequest: {
      auto m = std::make_shared<VerifyRequest>();
      m->request_id = r.u64();
      m->suspect = VehicleId{r.u64()};
      return r.ok() ? m : nullptr;
    }
    case Tag::kVerifyResponse: {
      auto m = std::make_shared<VerifyResponse>();
      m->request_id = r.u64();
      m->responder = VehicleId{r.u64()};
      m->suspect = VehicleId{r.u64()};
      m->abnormal = r.u8() != 0;
      m->evidence = decode_evidence(r);
      return r.ok() ? m : nullptr;
    }
    case Tag::kAlarmDismiss: {
      auto m = std::make_shared<AlarmDismiss>();
      m->reporter = VehicleId{r.u64()};
      m->suspect = VehicleId{r.u64()};
      return r.ok() ? m : nullptr;
    }
    case Tag::kEvacuationAlert: {
      auto m = std::make_shared<EvacuationAlert>();
      m->suspect = VehicleId{r.u64()};
      m->suspect_traits = traffic::VehicleTraits::deserialize(r);
      m->last_known = traffic::VehicleStatus::deserialize(r);
      return r.ok() ? m : nullptr;
    }
    case Tag::kGlobalReport: {
      auto m = std::make_shared<GlobalReport>();
      m->reporter = VehicleId{r.u64()};
      m->reason = static_cast<GlobalReason>(r.u8());
      m->block_seq = r.u64();
      m->suspect = VehicleId{r.u64()};
      m->suspect_status = traffic::VehicleStatus::deserialize(r);
      return r.ok() && static_cast<std::uint8_t>(m->reason) <= 3 ? m : nullptr;
    }
    case Tag::kBlacklistGossip: {
      auto m = std::make_shared<BlacklistGossip>();
      m->origin_shard = r.u32();
      m->issued_at = r.i64();
      const std::uint32_t n = r.u32();
      if (!r.ok() || n > r.remaining() / 8) return nullptr;
      m->suspects.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) m->suspects.push_back(VehicleId{r.u64()});
      return r.ok() ? m : nullptr;
    }
  }
  return nullptr;
}

}  // namespace nwade::protocol
