// Crash-survivable soak driver (docs/CHECKPOINT.md).
//
// Runs one long scenario in snapshot-sized slices, writing an `nwade-ckpt-v1`
// checkpoint to --state after every slice (atomically: tmp file + rename, so
// a kill mid-write leaves the previous snapshot intact). Started again with
// the same --state path it resumes from the last snapshot and — because
// restore is bit-exact — finishes with the same final digest an uninterrupted
// run prints. SIGKILL at any moment costs at most one slice of progress.
//
// Each snapshot doubles as an invariant probe: the saved bytes are restored
// into a scratch world and re-saved, and the two blobs must match byte for
// byte. On a violation the driver dumps an `nwade-replay-v1` bundle
// (scenario + the failing time) to --replay-out and exits nonzero; replaying
// the bundle (examples/replay) under ASan/TSan reproduces the incident from
// the seed alone.
//
//   ./build/examples/soak --state soak.ckpt --duration-ms 600000 --chaos
//   # ... SIGKILL it, then run the same command again: it resumes.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "nwade/config.h"
#include "sim/checkpoint.h"
#include "sim/world.h"

using namespace nwade;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --state PATH           checkpoint file; resumed from when present\n"
      "                         (default soak.ckpt)\n"
      "  --snapshot-every-ms N  simulated time between snapshots (default 10000)\n"
      "  --duration-ms N        simulated run length (default 300000)\n"
      "  --kind NAME            intersection layout (default cross4)\n"
      "  --vpm N                traffic density (default 80)\n"
      "  --seed N               scenario seed (default 1)\n"
      "  --attack NAME          Table I setting (default benign)\n"
      "  --chaos                burst loss + jitter + duplication fault profile\n"
      "  --max-snapshots N      exit 0 after N snapshots this process (0 = run\n"
      "                         to completion; lets tests stage a restart\n"
      "                         without an actual SIGKILL)\n"
      "  --record-bundle PATH   on completion, write a replay bundle of the\n"
      "                         whole run with its final digest\n"
      "  --replay-out PATH      bundle dumped on invariant violation\n"
      "                         (default soak-replay.bin)\n"
      "  --metrics-out PATH     final registry snapshot as JSON\n"
      "  --trace-out PATH       Chrome trace_event JSON (implies tracing;\n"
      "                         a resumed run records from the resume point)\n"
      "  --trace-jsonl-out PATH JSONL trace (implies tracing)\n",
      argv0);
}

bool parse_kind(const std::string& token, traffic::IntersectionKind& out) {
  for (const auto kind : traffic::kAllIntersectionKinds) {
    if (token == intersection_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

bool write_file_atomic(const std::string& path, const Bytes& blob) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  const bool wrote =
      std::fwrite(blob.data(), 1, blob.size(), f) == blob.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

Bytes read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return {};
  Bytes out;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

/// Dumps a replay bundle for an incident at time `t` and reports where.
void dump_replay(const std::string& path, const sim::ScenarioConfig& config,
                 Tick t, const std::string& note) {
  sim::checkpoint::ReplayBundle bundle;
  bundle.config = config;
  bundle.config.trace_enabled = false;
  bundle.run_to = t;
  bundle.note = note;
  if (write_file_atomic(path, sim::checkpoint::save_replay_bundle(bundle))) {
    std::fprintf(stderr, "soak: wrote replay bundle %s (%s)\n", path.c_str(),
                 note.c_str());
  } else {
    std::fprintf(stderr, "soak: FAILED to write replay bundle %s\n",
                 path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string state_path = "soak.ckpt";
  std::string replay_path = "soak-replay.bin";
  std::string record_bundle_path;
  std::string metrics_path;
  std::string trace_path;
  std::string trace_jsonl_path;
  std::string attack = "benign";
  Duration snapshot_every_ms = 10'000;
  int max_snapshots = 0;

  sim::ScenarioConfig scenario;
  scenario.duration_ms = 300'000;
  bool chaos = false;

  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--state") {
      state_path = value(i);
    } else if (arg == "--snapshot-every-ms") {
      snapshot_every_ms = std::atol(value(i));
    } else if (arg == "--duration-ms") {
      scenario.duration_ms = std::atol(value(i));
    } else if (arg == "--kind") {
      if (!parse_kind(value(i), scenario.intersection.kind)) {
        std::fprintf(stderr, "unknown intersection kind '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--vpm") {
      scenario.vehicles_per_minute = std::atof(value(i));
    } else if (arg == "--seed") {
      scenario.seed = std::strtoull(value(i), nullptr, 10);
    } else if (arg == "--attack") {
      attack = value(i);
    } else if (arg == "--chaos") {
      chaos = true;
    } else if (arg == "--max-snapshots") {
      max_snapshots = std::atoi(value(i));
    } else if (arg == "--record-bundle") {
      record_bundle_path = value(i);
    } else if (arg == "--replay-out") {
      replay_path = value(i);
    } else if (arg == "--metrics-out") {
      metrics_path = value(i);
    } else if (arg == "--trace-out") {
      trace_path = value(i);
    } else if (arg == "--trace-jsonl-out") {
      trace_jsonl_path = value(i);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (snapshot_every_ms <= 0 || scenario.duration_ms <= 0) {
    std::fprintf(stderr,
                 "--snapshot-every-ms and --duration-ms must be positive\n");
    return 2;
  }
  // attack_setting_by_name silently falls back to benign; reject typos before
  // any state file is read or written.
  if (attack != "benign" &&
      protocol::attack_setting_by_name(attack).name != attack) {
    std::fprintf(stderr, "unknown Table I attack setting '%s'\n",
                 attack.c_str());
    return 2;
  }
  scenario.attack = protocol::attack_setting_by_name(attack);
  if (chaos) {
    scenario.network.fault = net::burst_loss_profile(0.05, 4.0);
    scenario.network.fault.jitter_ms = 20;
    scenario.network.fault.duplicate_probability = 0.02;
  }
  const bool want_trace = !trace_path.empty() || !trace_jsonl_path.empty();
  if (want_trace) scenario.trace_enabled = true;

  // Preflight every export path BEFORE the run (campaign CLI contract): a
  // typo'd directory should fail in milliseconds, not after a long soak.
  // Append mode probes writability without clobbering existing content; a
  // path the probe had to create is removed again.
  for (const std::string* path :
       {&metrics_path, &trace_path, &trace_jsonl_path}) {
    if (path->empty()) continue;
    std::FILE* probe_existing = std::fopen(path->c_str(), "rb");
    const bool existed = probe_existing != nullptr;
    if (probe_existing) std::fclose(probe_existing);
    std::FILE* probe = std::fopen(path->c_str(), "ab");
    if (!probe) {
      std::fprintf(stderr, "cannot write output path %s: %s\n", path->c_str(),
                   std::strerror(errno));
      return 1;
    }
    std::fclose(probe);
    if (!existed) std::remove(path->c_str());
  }

  // Resume from the state file when it holds a valid checkpoint; any other
  // content (missing, truncated by a crash before the first rename, corrupt)
  // starts the scenario from scratch. The checkpoint carries the complete
  // scenario config, so the resumed run ignores the CLI scenario flags — the
  // state file, not the command line, is the authority on what is running.
  std::unique_ptr<sim::World> world;
  const Bytes saved = read_file(state_path);
  if (!saved.empty()) {
    std::string error;
    world = sim::World::checkpoint_restore(saved, &error);
    if (world) {
      std::printf("soak: resumed %s at t=%lld ms\n", state_path.c_str(),
                  static_cast<long long>(world->now()));
    } else {
      std::fprintf(stderr, "soak: ignoring unusable state %s (%s)\n",
                   state_path.c_str(), error.c_str());
    }
  }
  if (!world) {
    world = std::make_unique<sim::World>(scenario);
    std::printf("soak: fresh run, %lld ms, snapshot every %lld ms\n",
                static_cast<long long>(scenario.duration_ms),
                static_cast<long long>(snapshot_every_ms));
  }

  // A resumed world carries its own scenario (duration included) in the
  // checkpoint; re-read it so a rerun needs no scenario flags at all.
  scenario = world->config();
  const Tick duration = scenario.duration_ms;
  // The checkpoint's config governs tracing, so a resumed world may have it
  // off even when this process was asked for a trace export; switch the
  // tracer on from here onward (the export covers resume point to finish).
  if (want_trace) world->tracer().set_enabled(true);
  int snapshots = 0;
  while (world->now() < duration) {
    const Tick next = std::min<Tick>(world->now() + snapshot_every_ms, duration);
    world->run_until(next);
    if (world->now() >= duration) break;

    const Bytes blob = world->checkpoint_save();

    // Invariant probe: the snapshot must restore into a world that re-saves
    // to the very same bytes. A mismatch means some state escaped the
    // checkpoint — exactly the class of bug a soak exists to catch early.
    {
      std::string error;
      std::unique_ptr<sim::World> probe =
          sim::World::checkpoint_restore(blob, &error);
      if (!probe || probe->checkpoint_save() != blob) {
        std::fprintf(stderr,
                     "soak: INVARIANT VIOLATION at t=%lld: %s\n",
                     static_cast<long long>(world->now()),
                     probe ? "save/load/save not byte-identical"
                           : error.c_str());
        dump_replay(replay_path, scenario, world->now(),
                    "soak save/load/save invariant violation");
        return 1;
      }
    }

    if (!write_file_atomic(state_path, blob)) {
      std::fprintf(stderr, "soak: cannot write state file %s\n",
                   state_path.c_str());
      return 1;
    }
    ++snapshots;
    std::printf("soak: snapshot %d at t=%lld ms (%zu bytes)\n", snapshots,
                static_cast<long long>(world->now()), blob.size());
    std::fflush(stdout);
    if (max_snapshots > 0 && snapshots >= max_snapshots) {
      std::printf("soak: pausing after %d snapshot(s); rerun to resume\n",
                  snapshots);
      return 0;
    }
  }

  const sim::RunSummary summary = world->summary();
  const std::string digest = sim::checkpoint::run_summary_digest(summary);
  std::printf("soak: done at t=%lld ms, %llu spawned, %llu exited\n",
              static_cast<long long>(world->now()),
              static_cast<unsigned long long>(summary.metrics.vehicles_spawned),
              static_cast<unsigned long long>(summary.metrics.vehicles_exited));
  std::printf("final digest: %s\n", digest.c_str());

  const auto write_text = [](const std::string& path,
                             const std::string& content) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(content.data(), 1, content.size(), f) != content.size()) {
      if (f != nullptr) std::fclose(f);
      std::fprintf(stderr, "soak: cannot write %s\n", path.c_str());
      return false;
    }
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  };
  if (!metrics_path.empty() &&
      !write_text(metrics_path, summary.metrics_snapshot.json() + "\n")) {
    return 1;
  }
  if (!trace_path.empty() &&
      !write_text(trace_path, world->tracer().chrome_json())) {
    return 1;
  }
  if (!trace_jsonl_path.empty() &&
      !write_text(trace_jsonl_path, world->tracer().jsonl())) {
    return 1;
  }

  if (!record_bundle_path.empty()) {
    sim::checkpoint::ReplayBundle bundle;
    bundle.config = scenario;
    bundle.run_to = duration;
    bundle.expected_digest = digest;
    bundle.note = "soak run record";
    if (!write_file_atomic(record_bundle_path,
                           sim::checkpoint::save_replay_bundle(bundle))) {
      std::fprintf(stderr, "soak: cannot write %s\n",
                   record_bundle_path.c_str());
      return 1;
    }
    std::printf("wrote replay bundle %s\n", record_bundle_path.c_str());
  }
  // The state file stays behind as the completed run's last snapshot; a rerun
  // resumes it, immediately finishes, and prints the same digest.
  return 0;
}
