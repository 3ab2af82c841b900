// NWADE configuration: protocol parameters (paper Section VI-A defaults) and
// the attack settings of Table I.
#pragma once

#include <string>
#include <vector>

#include "aim/scheduler.h"
#include "util/types.h"

namespace nwade::protocol {

// --- fixed protocol parameters (paper Section VI-A) --------------------------
// A checkpoint keeps each in its old config slot (docs/CHECKPOINT.md §1).

/// Processing window delta: the IM batches plan requests at this cadence.
inline constexpr Duration kProcessingWindowMs = 1000;
/// Vehicle sensing radius (paper default 1000 ft).
inline constexpr double kSensingRadiusM = feet_to_meters(1000.0);
/// Positional deviation (metres) beyond which a watcher reports a vehicle.
inline constexpr double kDeviationToleranceM = 6.0;
/// How long a reporter waits for the IM before assuming it is compromised.
inline constexpr Duration kImResponseTimeoutMs = 2500;
/// How long the IM collects VerifyResponses before tallying the vote.
inline constexpr Duration kVerificationRoundMs = 500;
/// Margin used when vehicles check plans in blocks for conflicts.
inline constexpr Duration kPlanCheckMarginMs = 500;
static_assert(kPlanCheckMarginMs <= aim::kSchedulerMarginMs,
              "a plan-check margin above the scheduler's would make honest "
              "plans look conflicting");
/// Deviation measured against a plan issued less than this long ago is
/// delivery noise, not attack evidence: the block carrying the plan may
/// still be in flight — or lost and awaiting retransmission/gap recovery —
/// so the vehicle cannot yet be following it. Watchers skip such plans and
/// the IM dismisses reports against them. Sized to cover one processing
/// window plus a block re-request round trip.
inline constexpr Duration kPlanGraceMs = 1500;
/// Threat radius used for evacuation planning.
inline constexpr double kThreatRadiusM = 25.0;
/// How often vehicles run the neighbourhood-watch scan.
inline constexpr Duration kWatchIntervalMs = 200;

// --- protocol robustness under channel faults (docs/FAULT_MODEL.md) ---------
/// Plan-request retransmission: the first retry fires two processing
/// windows after spawn, then the interval doubles per attempt from
/// `kPlanRequestBackoffMs` up to `kPlanRequestBackoffCapMs`.
inline constexpr Duration kPlanRequestBackoffMs = 1000;
inline constexpr Duration kPlanRequestBackoffCapMs = 8000;
/// After this many unanswered retransmissions the vehicle gives up on the
/// IM and enters degraded mode: it stops before the conflict zone and
/// crosses only when its own sensors show the box clear. An unreachable IM
/// thus degrades throughput, never safety.
inline constexpr int kPlanRequestMaxRetries = 5;
/// Degraded-mode speeds: cautious approach toward the stop line, and the
/// sensor-gated crossing speed (>= 2 m/s so a live IM's perception tracks
/// the crossing vehicle as unmanaged traffic and schedules around it).
inline constexpr double kDegradedApproachSpeedMps = 6.0;
inline constexpr double kDegradedCrossSpeedMps = 8.0;
/// Safety margin added to the degraded box-clear test: every sensed vehicle
/// must be at least this much further from the conflict area (in time at
/// its current speed) than our own projected time to clear it.
inline constexpr Duration kDegradedClearMarginMs = 2000;
/// Gap recovery: at most this many missing blocks are re-requested per
/// detected block-sequence gap (the rest is abandoned to the resync).
inline constexpr int kGapRequestLimit = 4;

/// The protocol parameters a run may vary (the ablations and examples do).
/// Defaults follow the paper's experimental settings.
struct NwadeConfig {
  /// IM perception radius for direct report verification (paper: same LiDAR
  /// class as vehicles, default 1000 ft).
  double im_perception_radius_m{feet_to_meters(1000.0)};
  /// Second-group re-verification (Section IV-B2): after a first majority
  /// says "abnormal", ask a disjoint group to double-check. Defeats
  /// majority-vote gaming by colluding vehicles; the ablation benches turn
  /// it off to show why it exists.
  bool double_check_verification{true};
  /// Number of distinct global reports (kAbnormalVehicle) that push a distant
  /// vehicle into self-evacuation (paper Section IV-B4's safety threshold).
  int global_report_threshold{3};
  /// Vehicle-side chain cache depth (tau/delta bound).
  std::size_t chain_depth{64};
  /// false = the NWADE layer is off (plain AIM): vehicles adopt plans
  /// without verification and do not watch. Used for overhead comparisons.
  bool security_enabled{true};
};

/// One row of Table I. `plan_violations` malicious vehicles physically break
/// their plans; `false_reports` malicious vehicles inject fabricated
/// incident/global reports; a malicious IM issues conflicting plans and
/// stonewalls incident reports about colluding vehicles.
struct AttackSetting {
  std::string name;
  int malicious_vehicles{0};
  bool im_malicious{false};
  int plan_violations{0};
  int false_reports{0};
};

/// The eleven settings of Table I.
std::vector<AttackSetting> table1_attack_settings();

/// Looks up a Table I setting by name ("V1", "IM_V5", ...). Returns the
/// benign setting for unknown names.
AttackSetting attack_setting_by_name(const std::string& name);

}  // namespace nwade::protocol
