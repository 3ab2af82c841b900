// NWADE protocol messages.
//
// Everything vehicles and the intersection manager exchange: plan requests,
// block dissemination, incident reports (Algorithm 2), verification
// rounds, dismissals, evacuation alerts, and global reports (Algorithm 3).
// Wire sizes approximate realistic encodings so the Fig.-7 network-load
// experiment measures something meaningful. Each message's `io` is its
// checkpoint field list (nwade/message_codec.h).
#pragma once

#include <memory>

#include "chain/store.h"
#include "net/network.h"
#include "traffic/types.h"

namespace nwade::protocol {

/// Vehicle -> IM: request a travel plan on entering the communication zone.
struct PlanRequest final : net::Message {
  VehicleId vehicle;
  int route_id{0};
  traffic::VehicleTraits traits;
  traffic::VehicleStatus status;

  std::string kind() const override { return "plan_request"; }
  std::size_t wire_size() const override { return 96; }

  template <class Ar, class Self> static void io(Ar& ar, Self& m) {
    ar.id(m.vehicle);
    ar.i64(m.route_id);
    ar(m.traits);
    ar(m.status);
  }
};

/// IM -> all: a newly packaged block of travel plans. One message object
/// (and one underlying Block) is shared across every receiver's envelope.
struct BlockBroadcast final : net::Message {
  chain::BlockPtr block;

  std::string kind() const override { return "block_broadcast"; }
  std::size_t wire_size() const override { return block ? block->wire_size() : 0; }

  template <class Ar, class Self> static void io(Ar& ar, Self& m) {
    chain::io_block(ar, m.block);
  }
};

/// Vehicle -> peers/IM: ask for the block containing a vehicle's plan (used
/// when a neighbour entered in an earlier processing window).
struct BlockRequest final : net::Message {
  VehicleId requester;
  VehicleId plan_of;           ///< whose plan is needed (if valid)
  chain::BlockSeq seq{0};      ///< or a specific block by sequence number
  bool by_seq{false};

  std::string kind() const override { return "block_request"; }
  std::size_t wire_size() const override { return 32; }

  template <class Ar, class Self> static void io(Ar& ar, Self& m) {
    ar.id(m.requester);
    ar.id(m.plan_of);
    ar.u64(m.seq);
    ar.flag(m.by_seq);
  }
};

/// Peer -> vehicle: a block answering a BlockRequest (the pointer the
/// sender holds, not a copy).
struct BlockResponse final : net::Message {
  VehicleId plan_of;
  chain::BlockPtr block;

  std::string kind() const override { return "block_response"; }
  std::size_t wire_size() const override {
    return 16 + (block ? block->wire_size() : 0);
  }

  template <class Ar, class Self> static void io(Ar& ar, Self& m) {
    ar.id(m.plan_of);
    chain::io_block(ar, m.block);
  }
};

/// Observed evidence about a suspect: the paper's E_dagger.
struct Evidence {
  VehicleId suspect;
  traffic::VehicleStatus observed;
  Tick observed_at{0};
  double deviation_m{0};  ///< |observed - expected| that triggered the report

  template <class Ar, class Self> static void io(Ar& ar, Self& e) {
    ar.id(e.suspect);
    ar(e.observed);
    ar.i64(e.observed_at);
    ar.f64(e.deviation_m);
  }
};

/// Vehicle -> IM: incident report IR = <E_dagger, B_y> (Algorithm 2 line 10).
struct IncidentReport final : net::Message {
  VehicleId reporter;
  Evidence evidence;
  chain::BlockSeq block_seq{0};  ///< block holding the suspect's plan
  /// true when this denounces a vehicle for spreading false global reports
  /// (Algorithm 3 (i)) rather than for physically deviating; the IM verifies
  /// it against its own chain instead of against sensors.
  bool misbehavior_claim{false};

  std::string kind() const override { return "incident_report"; }
  std::size_t wire_size() const override { return 128; }

  template <class Ar, class Self> static void io(Ar& ar, Self& m) {
    ar.id(m.reporter);
    ar(m.evidence);
    ar.u64(m.block_seq);
    ar.flag(m.misbehavior_claim);
  }
};

/// IM -> vehicles near the suspect: please run local verification.
struct VerifyRequest final : net::Message {
  std::uint64_t request_id{0};
  VehicleId suspect;

  std::string kind() const override { return "verify_request"; }
  std::size_t wire_size() const override { return 32; }

  template <class Ar, class Self> static void io(Ar& ar, Self& m) {
    ar.u64(m.request_id);
    ar.id(m.suspect);
  }
};

/// Vehicle -> IM: local-verification verdict.
struct VerifyResponse final : net::Message {
  std::uint64_t request_id{0};
  VehicleId responder;
  VehicleId suspect;
  bool abnormal{false};
  Evidence evidence;

  std::string kind() const override { return "verify_response"; }
  std::size_t wire_size() const override { return 96; }

  template <class Ar, class Self> static void io(Ar& ar, Self& m) {
    ar.u64(m.request_id);
    ar.id(m.responder);
    ar.id(m.suspect);
    ar.flag(m.abnormal);
    ar(m.evidence);
  }
};

/// IM -> reporter: the reported incident was a false alarm.
struct AlarmDismiss final : net::Message {
  VehicleId reporter;
  VehicleId suspect;

  std::string kind() const override { return "alarm_dismiss"; }
  std::size_t wire_size() const override { return 24; }

  template <class Ar, class Self> static void io(Ar& ar, Self& m) {
    ar.id(m.reporter);
    ar.id(m.suspect);
  }
};

/// IM -> all: confirmed threat; evacuation plans follow in the next block.
struct EvacuationAlert final : net::Message {
  VehicleId suspect;
  traffic::VehicleTraits suspect_traits;
  traffic::VehicleStatus last_known;

  std::string kind() const override { return "evacuation_alert"; }
  std::size_t wire_size() const override { return 80; }

  template <class Ar, class Self> static void io(Ar& ar, Self& m) {
    ar.id(m.suspect);
    ar(m.suspect_traits);
    ar(m.last_known);
  }
};

/// Why a vehicle broadcast a global report (Algorithm 3's two branches plus
/// the unresponsive-IM case from Algorithm 2 line 12).
enum class GlobalReason : std::uint8_t {
  kConflictingPlans = 0,  ///< a block failed verification / contains conflicts
  kAbnormalVehicle = 1,   ///< malicious vehicle + IM did not respond
  kImUnresponsive = 2,    ///< no reply to an incident report
  kShamAlert = 3,         ///< IM issued an evacuation alert against a vehicle
                          ///< that local verification shows to be normal
};

inline const char* global_reason_name(GlobalReason r) {
  switch (r) {
    case GlobalReason::kConflictingPlans: return "conflicting_plans";
    case GlobalReason::kAbnormalVehicle: return "abnormal_vehicle";
    case GlobalReason::kImUnresponsive: return "im_unresponsive";
    case GlobalReason::kShamAlert: return "sham_alert";
  }
  return "?";
}

/// Vehicle -> all: warn the intersection that the IM (or an undetected
/// vehicle) cannot be trusted.
struct GlobalReport final : net::Message {
  VehicleId reporter;
  GlobalReason reason{GlobalReason::kConflictingPlans};
  chain::BlockSeq block_seq{0};   ///< for kConflictingPlans
  VehicleId suspect;              ///< for kAbnormalVehicle
  traffic::VehicleStatus suspect_status;

  std::string kind() const override { return "global_report"; }
  std::size_t wire_size() const override { return 96; }

  template <class Ar, class Self> static void io(Ar& ar, Self& m) {
    ar.id(m.reporter);
    ar.enum8(m.reason, GlobalReason::kShamAlert);
    ar.u64(m.block_seq);
    ar.id(m.suspect);
    ar(m.suspect_status);
  }
};

}  // namespace nwade::protocol
