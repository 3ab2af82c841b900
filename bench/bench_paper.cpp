// The paper's evaluation in one run: Table II and Figs. 4-8 (Section VI), the
// Eq. (2)/(3) curves, the design ablations (DESIGN.md section 4) and the two
// extensions beyond the paper, mixed legacy traffic and lossy channels
// (docs/FAULT_MODEL.md), printed as plain-text tables.
//
// Each table that simulates builds sim::CampaignConfigs, the axes it sweeps
// plus the base scenario fields it changes, and runs them through
// sim::run_campaign: round r of every matrix point runs seed 1 + r, each cell
// in its own World on a worker pool of every core. The output is therefore a
// pure function of the two knobs below, except the wall-clock columns of
// Fig. 6 and A2, which run on one thread so no other cell competes with the
// block work they time.
//
//   NWADE_BENCH_ROUNDS       seeded rounds per matrix point (default 5; the
//                            paper ran 10)
//   NWADE_BENCH_DURATION_MS  simulated ms per run (default 100000)
//
// Run: ./build/bench/bench_paper
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "aim/baseline.h"
#include "nwade/analysis.h"
#include "sim/campaign.h"
#include "support.h"
#include "traffic/arrivals.h"

using namespace nwade;
using namespace nwade::bench;

namespace {

/// Seeded rounds per matrix point; the paper ran 10.
int rounds() {
  if (const char* env = std::getenv("NWADE_BENCH_ROUNDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 5;
}

/// Simulated duration per run (ms).
Duration run_duration_ms() {
  if (const char* env = std::getenv("NWADE_BENCH_DURATION_MS")) {
    const long n = std::atol(env);
    if (n > 0) return n;
  }
  return 100'000;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double total = 0;
  for (double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0;
  const double m = mean(xs);
  double ss = 0;
  for (double x : xs) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("rounds per point: %d, run length: %lld ms\n", rounds(),
              static_cast<long long>(run_duration_ms()));
  std::printf("================================================================\n");
}

void row(const std::vector<std::string>& cells, int width = 16) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

std::string fmt(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string pct(double fraction) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f%%", fraction * 100.0);
  return buf;
}

/// A rate, or "n/a" for the -1 of a point with nothing to rate.
std::string rate(double fraction) {
  return fraction < 0 ? std::string("n/a") : pct(fraction);
}

/// The campaign every table starts from: the paper's default scenario
/// (Section VI-A: 4-way cross, 80 veh/min, attacks from 40 s), benign,
/// rounds() rounds of run_duration_ms() per point, on every core.
sim::CampaignConfig campaign() {
  sim::CampaignConfig cfg;
  cfg.rounds = rounds();
  cfg.duration_ms = run_duration_ms();
  cfg.threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return cfg;
}

/// The wall-clock tables' campaign: one round of at most 60 s on one thread.
sim::CampaignConfig timed_campaign() {
  sim::CampaignConfig cfg = campaign();
  cfg.rounds = 1;
  cfg.duration_ms = std::min<Duration>(run_duration_ms(), 60'000);
  cfg.threads = 1;
  return cfg;
}

/// One campaign's results with their per-point aggregates.
struct Sweep {
  std::size_t rounds;
  std::vector<sim::CellResult> results;
  std::vector<sim::CellAggregate> points;

  /// The rounds of matrix point `i`, in the order of `points`.
  std::span<const sim::CellResult> rounds_of(std::size_t i) const {
    return std::span<const sim::CellResult>(results).subspan(i * rounds, rounds);
  }
};

Sweep run(const sim::CampaignConfig& cfg) {
  std::vector<sim::CellResult> results = sim::run_campaign(cfg);
  std::vector<sim::CellAggregate> points = sim::aggregate(cfg, results);
  return Sweep{static_cast<std::size_t>(cfg.rounds), std::move(results),
               std::move(points)};
}

std::string kind_label(traffic::IntersectionKind kind, double vpm) {
  char label[64];
  std::snprintf(label, sizeof(label), "%s (%.0f)", intersection_name(kind), vpm);
  return label;
}

// --- Table II ----------------------------------------------------------------

struct FalseAlarmRates {
  double trigger{-1};
  double detect{-1};
};

/// Over the rounds in which the setting's liars fired: the fraction where a
/// benign vehicle evacuated on the lie (trigger) and the fraction where the
/// lie was identified, dismissed by the IM or refuted by peers (detect).
FalseAlarmRates false_alarm_rates(const protocol::AttackSetting& setting,
                                  protocol::FalseReportKind kind,
                                  std::span<const sim::CellResult> results) {
  const bool incident = kind == protocol::FalseReportKind::kIncident;
  int triggered = 0, detected = 0, applicable = 0;
  for (const sim::CellResult& r : results) {
    const protocol::Metrics& m = r.summary.metrics;
    const bool injected = incident ? m.false_incident_injected.has_value()
                                   : m.false_global_injected.has_value();
    if (!injected && setting.false_reports > 0) continue;  // never fired
    ++applicable;
    if (m.false_alarm_evacuations > 0) ++triggered;
    const bool caught = incident ? m.false_incident_dismissed.has_value()
                                 : m.false_global_detected.has_value();
    // Settings without false reporters (V1, IM) can neither trigger nor be
    // "caught"; count them as clean rounds with nothing to detect.
    if (setting.false_reports == 0 ? m.false_alarm_evacuations == 0 : caught) {
      ++detected;
    }
  }
  FalseAlarmRates out;
  if (applicable > 0) {
    out.trigger = static_cast<double>(triggered) / applicable;
    out.detect = static_cast<double>(detected) / applicable;
  }
  return out;
}

void table2_false_alarms() {
  banner("Table II: False Alarm Rate (trigger / detection)",
         "NWADE Table II — false alarm types A and B per attack setting");

  // Table II isolates the false-REPORT attack: a colluding IM stonewalls
  // (kSilence); its conflicting-plans attack is Fig. 7's global-report
  // experiment and the ImAttack tests.
  sim::CampaignConfig type_a = campaign();
  type_a.base.im_attack_mode = protocol::ImAttackMode::kSilence;
  type_a.attacks.clear();
  sim::CampaignConfig type_b = type_a;
  type_b.base.false_report_kind = protocol::FalseReportKind::kWrongPlans;
  const std::vector<protocol::AttackSetting> settings =
      protocol::table1_attack_settings();
  for (const protocol::AttackSetting& setting : settings) {
    type_a.attacks.push_back(setting.name);
    // Type B is N/A for malicious-IM settings, as in the paper.
    if (!setting.im_malicious) type_b.attacks.push_back(setting.name);
  }
  const Sweep a = run(type_a);
  const Sweep b = run(type_b);

  row({"Setting", "TypeA trig", "TypeA det", "TypeB trig", "TypeB det"});
  std::size_t next_b = 0;
  for (std::size_t i = 0; i < settings.size(); ++i) {
    const FalseAlarmRates ra = false_alarm_rates(
        settings[i], protocol::FalseReportKind::kIncident, a.rounds_of(i));
    std::string b_trig = "N/A", b_det = "N/A";
    if (!settings[i].im_malicious) {
      const FalseAlarmRates rb =
          false_alarm_rates(settings[i], protocol::FalseReportKind::kWrongPlans,
                            b.rounds_of(next_b++));
      b_trig = rate(rb.trigger);
      b_det = rate(rb.detect);
    }
    row({settings[i].name, rate(ra.trigger), rate(ra.detect), b_trig, b_det});
  }
  std::printf(
      "\npaper shape: Type B always 0%% trigger / 100%% detection (blockchain\n"
      "verification defeats wrong-plan claims); Type A triggers only when many\n"
      "colluders amplify reports (V10, IM_V5, IM_V10), detection stays 100%%.\n");
}

// --- Figs. 4 and 5 -----------------------------------------------------------

const std::vector<double> kDensities = {20, 40, 60, 80, 100, 120};

void fig4_detection_rate() {
  banner("Fig. 4: Detection Rate under Different Vehicle Densities",
         "NWADE Fig. 4 — deviation detection rate, 4-way cross, 20-120 veh/min");

  // How often the real plan violation is detected and confirmed: an
  // evacuation alert from a benign IM, or global/self-evacuation consensus
  // when the IM colludes. The colluding IM stonewalls reports (kSilence);
  // its own conflicting-plans attack is Fig. 7's and the ImAttack tests'.
  sim::CampaignConfig cfg = campaign();
  cfg.attacks = {"V1", "V3", "V10", "IM_V1", "IM_V3", "IM_V10"};
  cfg.densities_vpm = kDensities;
  cfg.base.im_attack_mode = protocol::ImAttackMode::kSilence;
  const Sweep s = run(cfg);

  std::vector<std::string> header = {"Setting"};
  for (double d : kDensities) header.push_back(fmt(d, 0) + " vpm");
  row(header, 12);
  for (std::size_t a = 0; a < cfg.attacks.size(); ++a) {
    std::vector<std::string> cells = {cfg.attacks[a]};
    for (std::size_t d = 0; d < kDensities.size(); ++d) {
      cells.push_back(rate(s.points[a * kDensities.size() + d].detection_rate));
    }
    row(cells, 12);
  }
  std::printf(
      "\npaper shape: 100%% detection with a benign IM at every density;\n"
      ">= 80%% when the IM colludes with the attackers (IM_V* settings).\n");
}

void fig5_detection_time() {
  banner("Fig. 5: Detection Time",
         "NWADE Fig. 5 — deviation-report and wrong-plan-report handling time");

  // Plan-deviation reports: first benign incident report -> confirmation
  // (the protocol latency the paper's ~360 ms bound refers to), plus the
  // total time from the physical violation for context. Wrong-travel-plan
  // reports (Type B lies): injection -> peer refutation.
  sim::CampaignConfig deviation = campaign();
  deviation.attacks = {"V1"};
  deviation.densities_vpm = kDensities;
  sim::CampaignConfig wrong_plans = deviation;
  wrong_plans.attacks = {"V2"};
  wrong_plans.base.false_report_kind = protocol::FalseReportKind::kWrongPlans;
  const Sweep v1 = run(deviation);
  const Sweep v2 = run(wrong_plans);

  row({"Density", "deviation rpt->confirm", "violation->confirm", "wrong-plan refute"},
      24);
  for (std::size_t d = 0; d < kDensities.size(); ++d) {
    std::vector<double> report_to_confirm, type_b_detect;
    for (const sim::CellResult& r : v1.rounds_of(d)) {
      const protocol::Metrics& m = r.summary.metrics;
      if (m.first_true_incident && m.deviation_confirmed) {
        report_to_confirm.push_back(
            static_cast<double>(*m.deviation_confirmed - *m.first_true_incident));
      }
    }
    for (const sim::CellResult& r : v2.rounds_of(d)) {
      if (const auto dt = r.summary.metrics.false_global_detection_time()) {
        type_b_detect.push_back(static_cast<double>(*dt));
      }
    }
    row({fmt(kDensities[d], 0) + " vpm", fmt(mean(report_to_confirm), 0) + " ms",
         fmt(v1.points[d].mean_detection_ms, 0) + " ms",
         fmt(mean(type_b_detect), 0) + " ms"},
        24);
  }
  std::printf(
      "\npaper shape: both report kinds are handled in well under a second\n"
      "(paper: < 360 ms at 50 mph ~ 8 m displacement); the physical\n"
      "violation->confirmation column adds the time the deviation needs to\n"
      "exceed the watcher tolerance.\n");
}

// --- Figs. 6-8 ---------------------------------------------------------------

const std::vector<traffic::IntersectionKind> kKinds(
    std::begin(traffic::kAllIntersectionKinds),
    std::end(traffic::kAllIntersectionKinds));

void fig6_blockchain() {
  banner("Fig. 6: Block Chain Management and Verification (wall clock)",
         "NWADE Fig. 6 — per-block cost, 5 intersection types x densities");

  // IM-side block management (scheduling the window's requests, packaging
  // and signing the block: SHA-256 + RSA-2048, as in the paper) and
  // vehicle-side verification (Algorithm 1 on each received block). The
  // paper reports the total staying under ~20 ms per block.
  sim::CampaignConfig cfg = timed_campaign();
  cfg.kinds = kKinds;
  cfg.densities_vpm = {40, 80, 120};
  cfg.base.signer = sim::SignerKind::kRsa2048;  // paper: 2048-bit IM key

  row({"Intersection (density)", "IM mgmt (ms)", "veh verify (ms)", "blocks"}, 26);
  for (const sim::CellResult& r : sim::run_campaign(cfg)) {
    const protocol::Metrics& m = r.summary.metrics;
    row({kind_label(r.cell.kind, r.cell.vpm),
         fmt(protocol::Metrics::mean(m.im_package_us) / 1000.0, 2),
         fmt(protocol::Metrics::mean(m.vehicle_verify_us) / 1000.0, 2),
         std::to_string(m.blocks_published)},
        26);
  }
  std::printf(
      "\npaper shape: overall per-block calculation time stays in the low\n"
      "milliseconds (paper: < 20 ms), dominated by the RSA-2048 signature on\n"
      "the IM side; vehicle-side verification (signature check with e=65537 +\n"
      "Merkle recomputation + plan conflict check) is cheaper.\n");
}

void print_packets(const std::string& label, const sim::RunSummary& s) {
  std::printf("\n--- %s ---\n", label.c_str());
  row({"total packets", std::to_string(s.net_stats.packets_sent)}, 22);
  row({"bytes", std::to_string(s.net_stats.bytes_sent)}, 22);
  // Per-kind breakdown, largest first.
  std::vector<std::pair<std::string, std::uint64_t>> kinds(
      s.net_stats.packets_by_kind.begin(), s.net_stats.packets_by_kind.end());
  std::sort(kinds.begin(), kinds.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [kind, count] : kinds) row({"  " + kind, std::to_string(count)}, 22);
}

void fig7_network_load() {
  banner("Fig. 7: Network Load (total packets by event type)",
         "NWADE Fig. 7 — no attack / local reports / global reports");

  // (i) No attack. (ii) Local reports: a single deviator triggers incident
  // reporting and verification rounds, with a benign IM. (iii) Global
  // reports: a compromised IM issues conflicting plans; vehicles broadcast
  // global reports and self-evacuate.
  sim::CampaignConfig cfg = campaign();
  cfg.rounds = 1;
  cfg.attacks = {"benign", "V1", "IM"};
  const std::vector<sim::CellResult> results = sim::run_campaign(cfg);
  const sim::RunSummary& none = results[0].summary;
  const sim::RunSummary& local = results[1].summary;
  const sim::RunSummary& global = results[2].summary;
  print_packets("no attack", none);
  print_packets("local reports sent (V1)", local);
  print_packets("global reports sent (IM)", global);

  std::printf(
      "\npaper shape: the security machinery adds only a modest number of\n"
      "packets on top of the baseline plan dissemination; local-report events\n"
      "add unicast report/verify traffic (%llu -> %llu), global-report events\n"
      "add broadcast warnings (%llu -> %llu).\n",
      static_cast<unsigned long long>(none.net_stats.packets_sent),
      static_cast<unsigned long long>(local.net_stats.packets_sent),
      static_cast<unsigned long long>(none.net_stats.packets_sent),
      static_cast<unsigned long long>(global.net_stats.packets_sent));
}

void fig8_throughput() {
  banner("Fig. 8: Traffic Throughput with vs without NWADE",
         "NWADE Fig. 8 — 5 intersections x densities, security on/off");

  // No attack in progress; the paper's claim is that adding NWADE leaves
  // throughput essentially unchanged. 20 veh/min is the paper's small town,
  // 120 its big city.
  sim::CampaignConfig with = campaign();
  with.kinds = kKinds;
  with.densities_vpm = {20, 40, 80, 120};
  sim::CampaignConfig without = with;
  without.base.nwade.security_enabled = false;
  const Sweep on = run(with);
  const Sweep off = run(without);

  row({"Intersection (density)", "no NWADE (vpm)", "NWADE (vpm)", "overhead",
       "crossing (s)"},
      26);
  for (std::size_t i = 0; i < on.points.size(); ++i) {
    const sim::CellAggregate& p = on.points[i];
    const double with_vpm = p.mean_throughput_vpm;
    const double without_vpm = off.points[i].mean_throughput_vpm;
    const double overhead =
        without_vpm > 0 ? (without_vpm - with_vpm) / without_vpm : 0.0;
    row({kind_label(p.kind, p.vpm), fmt(without_vpm, 1), fmt(with_vpm, 1),
         pct(overhead), fmt(p.mean_crossing_ms / 1000.0, 1)},
        26);
  }
  std::printf(
      "\npaper shape: throughput with NWADE matches the unprotected system\n"
      "at every intersection type and density (near-zero overhead), because\n"
      "verification runs off the driving path and plans are unchanged.\n"
      "Crossing times (spawn to exit, with NWADE) grow with demand as the\n"
      "reservation scheduler spaces vehicles through the shared conflict zones.\n");
}

// --- Eq. (2)/(3) -------------------------------------------------------------

void eq2_eq3_analytic() {
  banner("Eq. (2)/(3): analytic detection and self-evacuation probabilities",
         "NWADE Section IV-B equations and the Section IV-B4 worked example");

  std::printf("\nEq. (2): P_d = 1 / e^(omega * k * p_v^k), omega = 4\n");
  row({"k", "p_v=0.1", "p_v=0.3", "p_v=0.5"}, 12);
  for (int k = 0; k <= 12; ++k) {
    row({std::to_string(k), fmt(protocol::detection_probability(k, 0.1, 4.0), 4),
         fmt(protocol::detection_probability(k, 0.3, 4.0), 4),
         fmt(protocol::detection_probability(k, 0.5, 4.0), 4)},
        12);
  }

  std::printf("\nEq. (3): P_e = 1 - (1 - p_im)(1 - (p_v p_loc)^k), p_im = 0.001\n");
  row({"k", "pvl=0.05", "pvl=0.10", "pvl=0.20"}, 12);
  for (int k = 1; k <= 12; ++k) {
    row({std::to_string(k),
         fmt(protocol::self_evacuation_probability(k, 0.05, 0.001), 6),
         fmt(protocol::self_evacuation_probability(k, 0.10, 0.001), 6),
         fmt(protocol::self_evacuation_probability(k, 0.20, 0.001), 6)},
        12);
  }

  const double worked = protocol::self_evacuation_probability(
      protocol::majority_threshold(20), 0.10, 0.001);
  std::printf(
      "\nworked example (Section IV-B4): neighbourhood of 20 -> majority\n"
      "threshold k = %d, P_e = %.4f%% (paper: ~0.1%%)\n",
      protocol::majority_threshold(20), worked * 100.0);
}

// --- Ablations -----------------------------------------------------------------

void ablation_double_check() {
  std::printf("\n[A1] second-group re-verification under majority-vote gaming\n");
  row({"double-check", "false evac rounds", "dismissed rounds"}, 22);
  for (bool enabled : {true, false}) {
    // Colluders outnumber honest witnesses locally; the IM must rely on
    // votes (perception shrunk to force the distributed path).
    sim::CampaignConfig cfg = campaign();
    cfg.attacks = {"V5"};
    cfg.base.nwade.im_perception_radius_m = 30.0;
    cfg.base.nwade.double_check_verification = enabled;
    int false_evac = 0, dismissed = 0;
    for (const sim::CellResult& r : sim::run_campaign(cfg)) {
      if (r.summary.metrics.false_alarm_evacuations > 0) ++false_evac;
      if (r.summary.metrics.false_incident_dismissed) ++dismissed;
    }
    row({enabled ? "on" : "off", std::to_string(false_evac),
         std::to_string(dismissed)},
        22);
  }
}

void ablation_signer() {
  std::printf("\n[A2] signature scheme vs per-block cost (4-way cross, 80 vpm)\n");
  row({"signer", "IM mgmt (ms)", "veh verify (ms)"}, 20);
  const std::pair<sim::SignerKind, const char*> signers[] = {
      {sim::SignerKind::kHmac, "HMAC-SHA256"},
      {sim::SignerKind::kRsa1024, "RSA-1024"},
      {sim::SignerKind::kRsa2048, "RSA-2048"},
  };
  for (const auto& [signer, name] : signers) {
    sim::CampaignConfig cfg = timed_campaign();
    cfg.base.signer = signer;
    const protocol::Metrics m = sim::run_campaign(cfg).front().summary.metrics;
    row({name, fmt(protocol::Metrics::mean(m.im_package_us) / 1000.0, 3),
         fmt(protocol::Metrics::mean(m.vehicle_verify_us) / 1000.0, 3)},
        20);
  }
}

void ablation_threshold() {
  std::printf("\n[A3] global-report safety threshold vs V10 false triggers\n");
  row({"base threshold", "false evac rounds", "true detection rounds"}, 24);
  for (int threshold : {1, 2, 3, 5, 8}) {
    sim::CampaignConfig cfg = campaign();
    cfg.attacks = {"V10"};
    cfg.base.nwade.global_report_threshold = threshold;
    int false_evac = 0, detected = 0;
    for (const sim::CellResult& r : sim::run_campaign(cfg)) {
      if (r.summary.metrics.false_alarm_evacuations > 0) ++false_evac;
      if (r.summary.metrics.deviation_confirmed) ++detected;
    }
    row({std::to_string(threshold), std::to_string(false_evac),
         std::to_string(detected)},
        24);
  }
}

void ablation_chain_depth() {
  std::printf("\n[A4] vehicle chain-cache depth vs IM conflicting-plan detection\n");
  row({"chain depth", "conflict detected", "verify failures"}, 22);
  for (std::size_t depth : {std::size_t{1}, std::size_t{4}, std::size_t{64}}) {
    sim::CampaignConfig cfg = campaign();
    cfg.attacks = {"IM"};
    cfg.base.nwade.chain_depth = depth;
    int detected = 0, failures = 0;
    for (const sim::CellResult& r : sim::run_campaign(cfg)) {
      if (r.summary.metrics.im_conflict_detected) ++detected;
      failures += r.summary.metrics.block_verification_failures;
    }
    row({std::to_string(depth), std::to_string(detected), std::to_string(failures)},
        22);
  }
  std::printf(
      "  (a depth-1 cache cannot compare a new block against earlier plans,\n"
      "   so cross-window conflicts slip through block verification)\n");
}

/// Scheduler-only: no World, so a plain loop over the layouts.
void ablation_scheduler() {
  std::printf("\n[A5] reservation AIM vs fixed-cycle traffic lights (mean delay)\n");
  row({"intersection", "AIM delay (s)", "lights delay (s)", "speedup"}, 20);
  for (traffic::IntersectionKind kind : traffic::kAllIntersectionKinds) {
    traffic::IntersectionConfig icfg;
    icfg.kind = kind;
    const auto ix = traffic::Intersection::build(icfg);
    traffic::ArrivalGenerator gen(ix, 80, Rng(8));
    const auto arrivals = gen.generate(5 * 60 * 1000);
    aim::ReservationScheduler aim_sched(ix);
    aim::TrafficLightScheduler lights(ix);
    double aim_total = 0, lights_total = 0;
    std::uint64_t vid = 1;
    for (const auto& a : arrivals) {
      const VehicleId id{vid++};
      aim_total += ticks_to_seconds(
          aim_sched.schedule(id, a.route_id, a.traits, a.time, 20.0).core_exit -
          a.time);
      lights_total += ticks_to_seconds(
          lights.schedule(id, a.route_id, a.traits, a.time, 20.0).core_exit -
          a.time);
    }
    const double n = static_cast<double>(arrivals.size());
    row({intersection_name(kind), fmt(aim_total / n, 1), fmt(lights_total / n, 1),
         fmt(lights_total / std::max(aim_total, 1e-9), 2) + "x"},
        20);
  }
}

void ablations() {
  banner("Ablations: NWADE design choices",
         "DESIGN.md section 4 — why each mechanism exists");
  ablation_double_check();
  ablation_signer();
  ablation_threshold();
  ablation_chain_depth();
  ablation_scheduler();
}

// --- Extensions beyond the paper -----------------------------------------------

void mixed_traffic() {
  banner("Extension: mixed autonomous + legacy traffic",
         "NWADE Section VII future work — transitional-period penetration sweep");

  // Two separate questions: (1) benign mixed traffic — service and safety;
  // (2) an attacked run — does detection survive legacy bystanders? The
  // audit is only meaningful in (1): in (2) the deviator physically plows
  // through traffic and legacy vehicles cannot obey evacuation plans, which
  // is precisely the open problem of the transitional period.
  row({"legacy share", "managed vpm", "legacy vpm", "audit pair-sec",
       "V1 detected"},
      18);
  for (double fraction : {0.0, 0.2, 0.4, 0.6}) {
    sim::CampaignConfig cfg = campaign();
    cfg.attacks = {"benign", "V1"};
    cfg.densities_vpm = {60};
    cfg.base.legacy_fraction = fraction;
    const Sweep s = run(cfg);
    const sim::CellAggregate& benign = s.points[0];
    const double minutes = ticks_to_seconds(cfg.duration_ms) / 60.0;
    std::vector<double> legacy;
    for (const sim::CellResult& r : s.rounds_of(0)) {
      legacy.push_back(r.summary.legacy_exited / minutes);
    }
    row({pct(fraction), fmt(benign.mean_throughput_vpm, 1), fmt(mean(legacy), 1),
         std::to_string(benign.gap_violations), rate(s.points[1].detection_rate)},
        18);
  }
  std::printf(
      "\nexpected shape: under benign mixed traffic, service shifts from the\n"
      "managed to the legacy column as penetration grows (legacy vehicles\n"
      "cross slower and force conservative virtual reservations), the safety\n"
      "audit stays near zero, and in attacked runs the neighbourhood watch\n"
      "keeps catching plan violations despite legacy bystanders.\n");
}

struct Channel {
  std::string name;
  /// Gilbert-Elliott mean burst length; 1 packet makes the loss i.i.d.
  double mean_burst;
};

/// Detection rate, detection time and throughput against channel loss
/// severity, over a uniform and a bursty channel, for the V1 scenario at
/// 60 veh/min. The table is followed by one JSON document holding the same
/// curves:
///   { "bench": "fault_tolerance", "sweeps": [ {"channel": "...", "points":
///     [{"loss": .., "detection_rate": .., "mean_detection_time_ms": ..,
///       "throughput_vpm": .., ...}] } ] }
/// detection_rate is -1 where no round's deviator went off-plan. The
/// loss = 0 point consumes no fault randomness, so it repeats the mixed
/// traffic table's 0% V1 runs exactly.
void fault_tolerance() {
  banner("Fault tolerance: detection & throughput vs channel loss severity",
         "robustness extension -- NWADE detection under lossy channels");

  const std::vector<double> losses = {0.0, 0.05, 0.1, 0.2, 0.3, 0.4};
  const std::vector<Channel> channels = {{"uniform", 1.0}, {"bursty_8", 8.0}};

  std::vector<std::string> sweeps;
  for (const Channel& channel : channels) {
    row({"channel: " + channel.name}, 32);
    row({"loss", "detect", "time ms", "vpm", "retries", "gap req"}, 10);

    std::vector<std::string> points;
    for (double loss : losses) {
      sim::CampaignConfig cfg = campaign();
      cfg.attacks = {"V1"};
      cfg.densities_vpm = {60};
      if (loss > 0) {
        cfg.base.network.fault = net::burst_loss_profile(loss, channel.mean_burst);
      }
      const Sweep s = run(cfg);
      const sim::CellAggregate& p = s.points.front();
      std::vector<double> detection_ms, throughput, retries, gap_requests;
      double dropped = 0, sent = 0;
      for (const sim::CellResult& r : s.results) {
        const sim::RunSummary& sum = r.summary;
        throughput.push_back(sum.throughput_vpm);
        retries.push_back(static_cast<double>(sum.metrics.plan_request_retries));
        gap_requests.push_back(static_cast<double>(sum.metrics.gap_block_requests));
        dropped += static_cast<double>(sum.net_stats.packets_dropped);
        sent += static_cast<double>(sum.net_stats.packets_sent);
        if (const auto t = sum.metrics.deviation_detection_time()) {
          detection_ms.push_back(static_cast<double>(*t));
        }
      }
      row({fmt(loss, 2), rate(p.detection_rate), fmt(p.mean_detection_ms, 0),
           fmt(p.mean_throughput_vpm, 1), fmt(mean(retries), 1),
           fmt(mean(gap_requests), 1)},
          10);
      points.push_back(json_object({
          json_field("loss", loss, 2),
          json_field("detection_rate", p.detection_rate),
          json_field("mean_detection_time_ms", p.mean_detection_ms, 0),
          json_field("stddev_detection_time_ms", stddev(detection_ms), 0),
          json_field("throughput_vpm", p.mean_throughput_vpm, 2),
          json_field("stddev_throughput_vpm", stddev(throughput), 2),
          json_field("mean_plan_request_retries", mean(retries), 1),
          json_field("mean_gap_block_requests", mean(gap_requests), 1),
          json_field("observed_drop_share", sent > 0 ? dropped / sent : 0.0),
      }));
    }
    sweeps.push_back(json_object(
        {json_field("channel", channel.name),
         "\"points\": " + json_array(points, "      ")}));
  }

  std::printf("\n%s\n",
              json_object({json_field("bench", std::string("fault_tolerance")),
                           json_field("rounds", static_cast<double>(rounds()), 0),
                           json_field("duration_ms",
                                      static_cast<double>(run_duration_ms()), 0),
                           "\"sweeps\": " + json_array(sweeps, "    ")})
                  .c_str());
}

}  // namespace

int main() {
  table2_false_alarms();
  fig4_detection_rate();
  fig5_detection_time();
  fig6_blockchain();
  fig7_network_load();
  fig8_throughput();
  eq2_eq3_analytic();
  ablations();
  mixed_traffic();
  fault_tolerance();
  return 0;
}
