// nwade_perfbench, the end-to-end benchmark: shared types and helpers.
//
// Every workload runs the same shape of invocation (README.md):
//   1. set-up samples: the workload's World/Grid is constructed a few
//      times; with each timed repetition's construction they give setup_s;
//   2. timed repetitions with tracing off, while they fit in --seconds;
//      every other end-to-end metric comes from these;
//   3. one traced repetition (the per-layer numbers and the reference
//      digest every timed repetition must match).
// All spans the benchmark records are around public calls into the
// simulator; nothing inside src/ is instrumented for it.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "svc/sink.h"
#include "util/bytes.h"
#include "util/telemetry.h"
#include "util/trace.h"
#include "util/types.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using nwade::Bytes;
using nwade::Duration;
using nwade::Tick;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  /// The run seed. Every workload's inputs are a pure function of the
  /// options; see README.md for why the simulated realization is chosen by
  /// scenario_seed rather than by this seed.
  std::uint64_t seed{1};
  /// Seed of the traffic, key and attacker realization every workload
  /// simulates (ScenarioConfig/GridConfig seed, the matrix's base_seed).
  std::uint64_t scenario_seed{1};
  double seconds{20};
  bool trace{false};
  /// Chrome trace of the traced repetition; empty = not written.
  std::string trace_out;
  /// > 0 shortens every simulated run to this many seconds (smoke tests).
  std::int64_t sim_seconds{0};
  /// Smoke-test hook: perturbs the traced reference digest so every timed
  /// repetition must be counted as failed.
  bool corrupt_digest{false};
  /// Seconds without progress after which the run is reported failed
  /// (Watchdog). No single call the benchmark makes comes near the default.
  double stall_seconds{60};
};

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
};

struct Result {
  long ops{0};
  long ops_failed{0};
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<std::string> failures;  ///< one line per failed check
};

Result run_serve(const Options& opt);
Result run_grid(const Options& opt);
Result run_matrix(const Options& opt);

// --- statistics --------------------------------------------------------------

double median(std::vector<double> v);
double mean(const std::vector<double>& v);
/// The highest whole percentile with at least ten samples above its rank:
/// p96 of 300 samples, p99 of 1200. Falls back to the maximum below 20.
double tail(std::vector<double> v);

/// Peak resident set of this process so far, in MiB (getrusage).
double peak_rss_mib();

// --- checkpoint envelopes -----------------------------------------------------

/// Payload bytes per section of an `nwade-ckpt-v1` blob, or of every shard
/// of an `nwade-grid-ckpt-v1` blob folded together (plus its "grid"
/// section). Layout: docs/CHECKPOINT.md section 1. False on a malformed blob.
bool checkpoint_sections(std::span<const std::uint8_t> blob,
                         std::map<std::string, std::uint64_t>& out);

/// The sections every workload reports as ckpt.section.<name>_bytes.
extern const std::vector<std::string> kCheckpointSections;

// --- stream sink -----------------------------------------------------------

/// Forwards frames to a RingSink and times each write (svc.* metrics).
/// Records one "svc/sink_write" span per frame when `spans` is set.
class TimedSink final : public nwade::svc::StreamSink {
 public:
  TimedSink(nwade::svc::StreamSink& inner, nwade::util::trace::Tracer* spans)
      : inner_(inner), spans_(spans) {}
  void write(std::string_view frame) override;
  /// Simulated time stamped on the spans of the frames that follow.
  void set_now(Tick t) { now_ = t; }

  std::uint64_t frames() const { return frames_; }
  std::uint64_t bytes() const { return bytes_; }
  double write_ms() const { return write_us_ / 1000.0; }

 private:
  nwade::svc::StreamSink& inner_;
  nwade::util::trace::Tracer* spans_;
  Tick now_{0};
  std::uint64_t frames_{0};
  std::uint64_t bytes_{0};
  double write_us_{0};
};

// --- phase-span attribution ------------------------------------------------

/// Wall time the simulator's own spans report for one World's event stream
/// (phase.*, aim/process_window, chain/package, chain/verify_block).
struct SpanTotals {
  double legacy_ms{0};
  double physics_ms{0};
  double watch_ms{0};
  double gap_audit_ms{0};
  double events_ms{0};          ///< phase.events, nested spans included
  double window_ms{0};          ///< aim/process_window (includes its package)
  double package_ms{0};         ///< every chain/package span
  double package_direct_ms{0};  ///< chain/package outside a window
  double verify_ms{0};          ///< chain/verify_block
  long packages{0};
  long verifies{0};
  /// Busy wall (all phase.* spans) per 1 s simulated slice and watch wall
  /// per simulated minute, indexed from 0.
  std::vector<double> busy_by_slice_ms;
  std::vector<double> watch_by_minute_ms;

  double busy_ms() const {
    return legacy_ms + physics_ms + watch_ms + gap_audit_ms + events_ms;
  }
  /// phase.events minus the aim/chain spans nested in it.
  double events_self_ms() const {
    return events_ms - window_ms - verify_ms - package_direct_ms;
  }
  void add(const std::vector<nwade::util::trace::Event>& events);
};

// --- stall watchdog --------------------------------------------------------

/// Marks progress: the workloads call this around every public call into
/// the simulator (each slice, construction, save, restore, campaign).
/// `where` must be a string literal.
void progress(const char* where, Tick sim_t = 0);
/// Adds operations the run has started. If the run stalls, every one of
/// them counts as failed: none can be checked against the traced
/// repetition any more.
void ops_started(long n);

/// While alive, watches progress() from its own thread. When no mark has
/// come for `stall_s` seconds, some call into the simulator did not return;
/// the watchdog then prints a failed result line (correct false, every
/// started operation failed) and ends the process, so a hang reads as a
/// failed run instead of a timeout with no result.
class Watchdog {
 public:
  Watchdog(const char* workload, double stall_s);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void watch();

  const char* workload_;
  double stall_s_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_{false};
  std::thread thread_;
};

// --- result assembly -------------------------------------------------------

/// Adds the registry-derived per-layer metrics (counts summed over every
/// world's end-of-run snapshot: the world, each shard, or each cell).
void add_registry_layers(
    Result& r,
    const std::vector<const nwade::util::telemetry::MetricsSnapshot*>& snaps);

}  // namespace perfbench
