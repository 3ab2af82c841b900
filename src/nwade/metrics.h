// Run-wide metrics: every experiment in Section VI reads from here.
//
//   Table II  -> false-alarm trigger / detection events
//   Fig. 4    -> deviation detection events
//   Fig. 5    -> detection timestamps (simulated ms)
//   Fig. 6    -> blockchain packaging / verification wall-clock samples
//   Fig. 7    -> packet counts come from net::NetworkStats, kept alongside
//   Fig. 8    -> spawn/exit counts (throughput)
#pragma once

#include <optional>
#include <vector>

#include "util/types.h"

namespace nwade::protocol {

struct Metrics {
  // --- attack / detection event timeline (simulated time) -----------------
  std::optional<Tick> violation_start;          ///< deviator goes off-plan
  std::optional<Tick> first_true_incident;      ///< benign report on deviator
  std::optional<Tick> deviation_confirmed;      ///< alert or global consensus
  std::optional<Tick> false_incident_injected;  ///< Type A false alarm sent
  std::optional<Tick> false_incident_dismissed; ///< IM dismissal of it
  std::optional<Tick> false_global_injected;    ///< Type B false alarm sent
  std::optional<Tick> false_global_detected;    ///< peer proved it false
  std::optional<Tick> im_conflict_injected;     ///< malicious IM emitted bad block
  std::optional<Tick> im_conflict_detected;     ///< a vehicle caught it
  std::optional<Tick> sham_alert_detected;      ///< sham evacuation recognized

  // --- counters -------------------------------------------------------------
  int vehicles_spawned{0};
  int vehicles_exited{0};
  int incident_reports{0};
  int global_reports{0};
  int verify_rounds{0};
  int alarm_dismissals{0};
  int evacuation_alerts{0};
  int benign_self_evacuations{0};
  /// Benign vehicles that self-evacuated because of a campaign against an
  /// innocent vehicle — the "Trigger" column of Table II.
  int false_alarm_evacuations{0};
  int malicious_reports_recorded{0};  ///< reporters flagged for false alarms
  int blocks_published{0};
  int block_verification_failures{0};

  // --- fault tolerance ------------------------------------------------------
  int plan_request_retries{0};   ///< retransmitted PlanRequests (backoff path)
  int gap_block_requests{0};     ///< by-seq BlockRequests from gap recovery
  int degraded_entries{0};       ///< vehicles that gave up on the IM
  int degraded_crossings{0};     ///< degraded vehicles that exited safely
  int im_crashes{0};
  int im_restarts{0};
  int im_courtesy_gaps{0};       ///< issuance holds for a stuck parked vehicle

  // --- blockchain compute cost (wall clock, microseconds) -------------------
  std::vector<double> im_package_us;       ///< scheduling + packaging per window
  std::vector<double> vehicle_verify_us;   ///< full Alg.-1 verification per block

  // --- derived helpers -------------------------------------------------------
  /// Simulated ms from violation start to confirmation; nullopt if undetected.
  std::optional<Duration> deviation_detection_time() const {
    if (!violation_start || !deviation_confirmed) return std::nullopt;
    return *deviation_confirmed - *violation_start;
  }

  /// Simulated ms from a Type-B false global report to its refutation.
  std::optional<Duration> false_global_detection_time() const {
    if (!false_global_injected || !false_global_detected) return std::nullopt;
    return *false_global_detected - *false_global_injected;
  }

  static double mean(const std::vector<double>& xs) {
    if (xs.empty()) return 0;
    double total = 0;
    for (double x : xs) total += x;
    return total / static_cast<double>(xs.size());
  }

  /// Field list (the checkpoint's metrics section, RunSummary records).
  /// `wall_samples` picks whether a save carries the wall-clock vectors; a
  /// read follows the saved flag.
  template <class Ar, class Self>
  static void io(Ar& ar, Self& m, bool wall_samples = true) {
    for (auto* t : {&m.violation_start, &m.first_true_incident,
                    &m.deviation_confirmed, &m.false_incident_injected,
                    &m.false_incident_dismissed, &m.false_global_injected,
                    &m.false_global_detected, &m.im_conflict_injected,
                    &m.im_conflict_detected, &m.sham_alert_detected}) {
      ar.opt(*t, [](auto& a, auto& tick) { a.i64(tick); });
    }
    for (auto* n : {&m.vehicles_spawned, &m.vehicles_exited, &m.incident_reports,
                    &m.global_reports, &m.verify_rounds, &m.alarm_dismissals,
                    &m.evacuation_alerts, &m.benign_self_evacuations,
                    &m.false_alarm_evacuations, &m.malicious_reports_recorded,
                    &m.blocks_published, &m.block_verification_failures,
                    &m.plan_request_retries, &m.gap_block_requests,
                    &m.degraded_entries, &m.degraded_crossings, &m.im_crashes,
                    &m.im_restarts, &m.im_courtesy_gaps}) {
      ar.i64(*n);
    }
    ar.flag(wall_samples);
    if constexpr (Ar::kReading) {
      m.im_package_us.clear();
      m.vehicle_verify_us.clear();
    }
    if (wall_samples) {
      ar.f64s(m.im_package_us);
      ar.f64s(m.vehicle_verify_us);
    }
  }
};

}  // namespace nwade::protocol
