// Simulation host: runs one scenario (a World) or an N x M lattice of cross4
// intersections (a Grid) in --cadence-ms slices. Three optional parts
// combine freely:
//
//  * Sinks. nwade-stream-v1 frames (metrics deltas, detection-timeline trace
//    events, per-shard health rows) go to any number of live monitors over
//    TCP (--port) and/or to a stream file (--stream-out). The simulation
//    work is identical with zero or fifty monitors attached: streaming
//    subscribes through the observational World/Grid hooks, and slow
//    consumers are dropped, never waited for.
//  * Checkpoints (--state, docs/CHECKPOINT.md). Every --snapshot-every-ms
//    the host writes the checkpoint atomically (tmp file + rename), plus a
//    <state>.seq sidecar holding the stream position. Rerun with the same
//    path, it resumes the simulation AND the stream, so a SIGKILL costs at
//    most one snapshot interval and the frames concatenate without a seam.
//    Every snapshot is probed first: restored and re-saved, it must
//    reproduce its own bytes. On a violation a world dumps an
//    nwade-replay-v1 bundle to <state>.replay (examples/replay re-runs it
//    from the seed alone) and the host exits 1.
//  * End-of-run exports: metrics and trace files, a replay bundle of the
//    whole run, and for a lattice a per-shard table and summary JSON.
//
//   # crash-survivable soak: SIGKILL it, run the same command, it resumes
//   ./build/examples/serve --state soak.ckpt --duration-ms 600000 --chaos
//   # a 2x2 lattice with a V1 attacker at shard 0, streaming on :7788
//   ./build/examples/serve --rows 2 --cols 2 --attack V1 --port 7788 --trace
//   # then, in another terminal:
//   ./build/examples/monitor --connect 127.0.0.1:7788
//
// The final digest is byte-identical for any --threads value and across any
// number of restarts.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "nwade/config.h"
#include "sim/checkpoint.h"
#include "sim/grid.h"
#include "sim/world.h"
#include "svc/sink.h"
#include "svc/streamer.h"
#include "util/file_io.h"
#include "util/json.h"
#include "util/wall_clock.h"

using namespace nwade;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "scenario (a resumed --state carries its own; these are then unused)\n"
      "  --rows N / --cols N     lattice shape (default 1x1 = single world;\n"
      "                          at most 64 shards, cross4 only)\n"
      "  --kind NAME             roundabout3|cross4|irregular5|cfi4|ddi4\n"
      "                          (default cross4)\n"
      "  --vpm X                 traffic density per shard (default 120)\n"
      "  --duration-ms N         simulated run length (default 300000)\n"
      "  --seed N                scenario/grid seed (default 1)\n"
      "  --attack NAME           Table I setting from t=10 s (default benign)\n"
      "  --attack-shard N        row-major shard the attack runs in (default\n"
      "                          0; -1 = every shard)\n"
      "  --chaos                 burst loss + jitter + duplication faults\n"
      "  --exchange-ms N         lattice boundary-exchange cadence (default\n"
      "                          1000; a multiple of the 100 ms step)\n"
      "  --gossip-ms N           lattice blacklist-gossip cadence (a multiple\n"
      "                          of --exchange-ms; default 2000 rounded down\n"
      "                          onto it)\n"
      "  --max-hops N            lattice handoffs per vehicle (default 3)\n"
      "  --threads N             lattice shard-stepping pool (wall clock only)\n"
      "streaming\n"
      "  --port N                TCP stream server on 127.0.0.1:N (0 picks\n"
      "                          an ephemeral port and prints it)\n"
      "  --stream-out PATH       append the frame stream to a file\n"
      "  --trace                 detection trace frames (needs a sink)\n"
      "  --cadence-ms N          slice and emission cadence in simulated ms\n"
      "                          (default 1000; multiple of step/exchange)\n"
      "  --pace X                real-time pacing: X=1 runs 1 simulated\n"
      "                          second per wall second (default 0 = flat "
      "out)\n"
      "checkpoints\n"
      "  --state PATH            checkpoint file; resumed from when present\n"
      "                          (World or Grid, whichever it holds)\n"
      "  --snapshot-every-ms N   simulated time between checkpoints (default\n"
      "                          10000; multiple of --cadence-ms)\n"
      "  --max-snapshots N       exit 0 after N checkpoints (stage a restart\n"
      "                          without a SIGKILL; 0 = run to completion)\n"
      "end-of-run exports (a trace export cannot share a run with a sink)\n"
      "  --metrics-out PATH      registry snapshot JSON (lattice: merged)\n"
      "  --trace-out PATH        Chrome trace_event JSON, one stream per\n"
      "                          shard (a resumed run records from the resume\n"
      "                          point)\n"
      "  --trace-jsonl-out PATH  JSONL trace\n"
      "  --record-bundle PATH    replay bundle of the whole run (world only)\n"
      "  --summary-out PATH      lattice summary JSON (lattice only)\n",
      argv0);
}

/// Stream-position sidecar: "<next_seq> <frames_emitted>\n". Written with
/// the same atomic-rename discipline as the checkpoint so the pair can only
/// be observed consistent.
bool write_seq_sidecar(const std::string& path, std::uint64_t seq,
                       std::uint64_t frames) {
  return util::write_file_atomic(
      path, std::to_string(seq) + " " + std::to_string(frames) + "\n");
}

bool read_seq_sidecar(const std::string& path, std::uint64_t& seq,
                      std::uint64_t& frames) {
  const Bytes blob = util::read_file(path);
  std::istringstream in(std::string(blob.begin(), blob.end()));
  return static_cast<bool>(in >> seq >> frames);
}

/// The soak invariant: a snapshot must restore into a source that re-saves
/// to the very same bytes. A mismatch means some state escaped the
/// checkpoint. Returns "" when it holds, else what went wrong.
std::string probe_snapshot(const Bytes& blob, bool lattice) {
  std::string error;
  Bytes resaved;
  if (lattice) {
    if (const auto g = sim::Grid::checkpoint_restore(blob, 1, &error)) {
      resaved = g->checkpoint_save();
    }
  } else if (const auto w = sim::World::checkpoint_restore(blob, &error)) {
    resaved = w->checkpoint_save();
  }
  if (resaved == blob) return "";
  return error.empty() ? "save/load/save not byte-identical" : error;
}

/// A bundle that re-runs `w`'s scenario from t=0 to `run_to`.
Bytes replay_bundle(const sim::World& w, Tick run_to, std::string note,
                    std::string digest = "") {
  sim::checkpoint::ReplayBundle bundle;
  bundle.config = w.config();
  bundle.config.trace_enabled = false;
  bundle.run_to = run_to;
  bundle.expected_digest = std::move(digest);
  bundle.note = std::move(note);
  return sim::checkpoint::save_replay_bundle(bundle);
}

void print_grid_table(const sim::Grid& grid, const sim::GridSummary& s,
                      double wall_s) {
  const sim::GridConfig& cfg = grid.config();
  const bool attacked = cfg.shard.attack.name != "benign";
  std::printf("\n%-7s %-9s %-8s %-12s %-11s %-10s\n", "shard", "spawned",
              "exited", "throughput", "crossing_s", "blacklist");
  for (int r = 0; r < grid.rows(); ++r) {
    for (int c = 0; c < grid.cols(); ++c) {
      const int idx = r * grid.cols() + c;
      const sim::RunSummary& sh = s.shards[static_cast<std::size_t>(idx)];
      std::printf("(%d,%d)%s %-9d %-8d %-12.1f %-11.1f %-10zu\n", r, c,
                  attacked && idx == cfg.attack_shard ? "*" : " ",
                  sh.metrics.vehicles_spawned, sh.metrics.vehicles_exited,
                  sh.throughput_vpm, sh.mean_crossing_ms / 1000.0,
                  grid.shard(r, c).im().confirmed_suspects().size());
    }
  }
  std::printf(
      "\nhandoffs: %llu sent, %llu deferred by outages, %llu delivered; "
      "%llu vehicles retired at the lattice edge\n",
      static_cast<unsigned long long>(s.handoffs_sent),
      static_cast<unsigned long long>(s.handoffs_deferred),
      static_cast<unsigned long long>(s.handoffs_delivered),
      static_cast<unsigned long long>(s.retired));
  std::printf("gossip:   %llu packets sent, %llu lost, %llu blacklist "
              "imports downstream\n",
              static_cast<unsigned long long>(s.gossip_sent),
              static_cast<unsigned long long>(s.gossip_dropped),
              static_cast<unsigned long long>(s.gossip_imports));
  std::printf("aggregate throughput %.1f vpm in %.2f s wall clock\n",
              s.aggregate_throughput_vpm, wall_s);
}

std::string grid_summary_json(const sim::Grid& grid,
                              const sim::GridSummary& s) {
  std::ostringstream json;
  json << "{\n  \"schema\": \"nwade-grid-summary-v1\",\n"
       << "  \"rows\": " << s.rows << ",\n  \"cols\": " << s.cols << ",\n"
       << "  \"attack\": " << util::json::quoted(grid.config().shard.attack.name)
       << ",\n"
       << "  \"attack_shard\": " << grid.config().attack_shard << ",\n"
       << "  \"grid_digest\": \"" << sim::Grid::summary_digest(s) << "\",\n"
       << "  \"handoffs_sent\": " << s.handoffs_sent << ",\n"
       << "  \"handoffs_deferred\": " << s.handoffs_deferred << ",\n"
       << "  \"handoffs_delivered\": " << s.handoffs_delivered << ",\n"
       << "  \"gossip_sent\": " << s.gossip_sent << ",\n"
       << "  \"gossip_dropped\": " << s.gossip_dropped << ",\n"
       << "  \"gossip_imports\": " << s.gossip_imports << ",\n"
       << "  \"retired\": " << s.retired << ",\n"
       << "  \"aggregate_throughput_vpm\": " << s.aggregate_throughput_vpm
       << ",\n  \"shards\": [\n";
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    const sim::RunSummary& sh = s.shards[i];
    const sim::World& w = grid.shard(static_cast<int>(i) / grid.cols(),
                                     static_cast<int>(i) % grid.cols());
    json << "    {\"spawned\": " << sh.metrics.vehicles_spawned
         << ", \"exited\": " << sh.metrics.vehicles_exited
         << ", \"throughput_vpm\": " << sh.throughput_vpm
         << ", \"blacklist\": " << w.im().confirmed_suspects().size() << "}"
         << (i + 1 < s.shards.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  // Lattice flags fill a GridConfig; its shard template is the scenario a
  // single world runs too.
  sim::GridConfig lattice;
  lattice.attack_shard = 0;
  sim::ScenarioConfig& scenario = lattice.shard;
  scenario.vehicles_per_minute = 120;
  scenario.duration_ms = 300'000;
  scenario.attack_time = 10'000;
  std::string attack = "benign";
  bool chaos = false;
  std::optional<Duration> gossip_ms;
  bool trace = false;
  int port = -1;
  std::string stream_path;
  Duration cadence_ms = 1'000;
  double pace = 0;
  std::string state_path;
  Duration snapshot_every_ms = 10'000;
  int max_snapshots = 0;
  std::string metrics_path;
  std::string trace_path;
  std::string trace_jsonl_path;
  std::string record_bundle_path;
  std::string summary_path;

  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rows") {
      lattice.rows = std::atoi(value(i));
    } else if (arg == "--cols") {
      lattice.cols = std::atoi(value(i));
    } else if (arg == "--kind") {
      if (!traffic::parse_intersection_token(value(i),
                                             scenario.intersection.kind)) {
        std::fprintf(stderr, "unknown intersection kind '%s' (try:", argv[i]);
        for (const auto& entry : traffic::kIntersectionTokens) {
          std::fprintf(stderr, " %s", entry.token);
        }
        std::fprintf(stderr, ")\n");
        return 2;
      }
    } else if (arg == "--vpm") {
      scenario.vehicles_per_minute = std::atof(value(i));
    } else if (arg == "--duration-ms") {
      scenario.duration_ms = std::atol(value(i));
    } else if (arg == "--seed") {
      lattice.seed = std::strtoull(value(i), nullptr, 10);
    } else if (arg == "--attack") {
      attack = value(i);
    } else if (arg == "--attack-shard") {
      lattice.attack_shard = std::atoi(value(i));
    } else if (arg == "--chaos") {
      chaos = true;
    } else if (arg == "--exchange-ms") {
      lattice.exchange_every_ms = std::atol(value(i));
    } else if (arg == "--gossip-ms") {
      gossip_ms = std::atol(value(i));
    } else if (arg == "--max-hops") {
      lattice.max_hops = std::atoi(value(i));
    } else if (arg == "--threads") {
      lattice.grid_threads = std::atoi(value(i));
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--port") {
      port = std::atoi(value(i));
    } else if (arg == "--stream-out") {
      stream_path = value(i);
    } else if (arg == "--cadence-ms") {
      cadence_ms = std::atol(value(i));
    } else if (arg == "--pace") {
      pace = std::atof(value(i));
    } else if (arg == "--state") {
      state_path = value(i);
    } else if (arg == "--snapshot-every-ms") {
      snapshot_every_ms = std::atol(value(i));
    } else if (arg == "--max-snapshots") {
      max_snapshots = std::atoi(value(i));
    } else if (arg == "--metrics-out") {
      metrics_path = value(i);
    } else if (arg == "--trace-out") {
      trace_path = value(i);
    } else if (arg == "--trace-jsonl-out") {
      trace_jsonl_path = value(i);
    } else if (arg == "--record-bundle") {
      record_bundle_path = value(i);
    } else if (arg == "--summary-out") {
      summary_path = value(i);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  // --- resume: the state file, not --rows/--cols, decides World or Grid ----
  // Any content neither accepts (missing, truncated by a crash before the
  // first rename, corrupt) starts the scenario from scratch. Restoring only
  // reads; nothing is written before every check below has passed.
  std::unique_ptr<sim::World> world;
  std::unique_ptr<sim::Grid> grid;
  if (!state_path.empty()) {
    const Bytes saved = util::read_file(state_path);
    if (!saved.empty()) {
      std::string world_error;
      std::string grid_error;
      world = sim::World::checkpoint_restore(saved, &world_error);
      if (!world) {
        grid = sim::Grid::checkpoint_restore(saved, lattice.grid_threads,
                                             &grid_error);
      }
      if (!world && !grid) {
        std::fprintf(stderr, "serve: ignoring unusable state %s (%s; %s)\n",
                     state_path.c_str(), world_error.c_str(),
                     grid_error.c_str());
      }
    }
  }
  const bool resumed = world || grid;

  // --- every flag check, before any file is written or socket opened -------
  // Scenario flags are checked even when a checkpoint will override them;
  // the checks that depend on the source run against the one resumed.
  const auto reject = [](const std::string& why) {
    std::fprintf(stderr, "%s\n", why.c_str());
    return 2;
  };
  const long long shards = 1LL * lattice.rows * lattice.cols;
  const bool is_lattice = grid || (!world && shards > 1);
  const bool has_sink = port >= 0 || !stream_path.empty();
  const bool trace_export = !trace_path.empty() || !trace_jsonl_path.empty();
  if (lattice.rows <= 0 || lattice.cols <= 0 || shards > 64) {
    return reject("--rows x --cols must be 1..64 shards");
  }
  if (!(scenario.vehicles_per_minute > 0) || scenario.duration_ms <= 0) {
    return reject("--vpm and --duration-ms must be positive");
  }
  // attack_setting_by_name silently falls back to benign.
  if (attack != "benign" &&
      protocol::attack_setting_by_name(attack).name != attack) {
    return reject("unknown Table I attack setting '" + attack + "'");
  }
  if (shards > 1 &&
      scenario.intersection.kind != traffic::IntersectionKind::kCross4) {
    return reject("a lattice needs --kind cross4 (its legs map onto the "
                  "neighbouring shards)");
  }
  if (lattice.exchange_every_ms <= 0 ||
      lattice.exchange_every_ms % scenario.step_ms != 0) {
    return reject("--exchange-ms must be a positive multiple of the " +
                  std::to_string(scenario.step_ms) + " ms step");
  }
  if (gossip_ms &&
      (*gossip_ms <= 0 || *gossip_ms % lattice.exchange_every_ms != 0)) {
    return reject("--gossip-ms must be a positive multiple of --exchange-ms");
  }
  if (lattice.attack_shard >= shards) {
    return reject("--attack-shard " + std::to_string(lattice.attack_shard) +
                  " out of range (0.." + std::to_string(shards - 1) + ")");
  }
  const Duration source_step =
      grid    ? grid->config().exchange_every_ms
      : world ? world->config().step_ms
      : is_lattice ? lattice.exchange_every_ms
                   : scenario.step_ms;
  if (cadence_ms <= 0 || cadence_ms % source_step != 0) {
    return reject("--cadence-ms must be a positive multiple of " +
                  std::to_string(source_step) + " ms");
  }
  // Checkpoints must land exactly on emission points: that is what makes the
  // restored registry the resumed stream's delta baseline.
  if (!state_path.empty() &&
      (snapshot_every_ms <= 0 || snapshot_every_ms % cadence_ms != 0)) {
    return reject("--snapshot-every-ms must be a positive multiple of "
                  "--cadence-ms");
  }
  if (is_lattice && !record_bundle_path.empty()) {
    return reject("--record-bundle replays a single world, not a lattice");
  }
  if (!is_lattice && !summary_path.empty()) {
    return reject("--summary-out summarises a lattice, not a single world");
  }
  if (has_sink && trace_export) {
    return reject("--trace-out/--trace-jsonl-out cannot be combined with "
                  "--port/--stream-out: the stream drains the trace");
  }
  for (const std::string* path :
       {&state_path, &stream_path, &metrics_path, &trace_path,
        &trace_jsonl_path, &record_bundle_path, &summary_path}) {
    if (!util::preflight_output_path(*path)) return 1;
  }

  // --- build the fresh source, or adopt the resumed one ---------------------
  // A trace nothing consumes is never recorded: tracing runs only for a sink
  // (--trace) or an export. A resumed checkpoint's own setting is overridden,
  // so a resumed export covers the resume point onward.
  const bool want_trace = (trace && has_sink) || trace_export;
  if (resumed) {
    std::printf("serve: resumed %s at t=%lld ms\n", state_path.c_str(),
                static_cast<long long>(world ? world->now() : grid->now()));
    if (world) world->tracer().set_enabled(want_trace);
    for (int i = 0; grid && i < grid->shard_count(); ++i) {
      grid->shard(i / grid->cols(), i % grid->cols())
          .tracer()
          .set_enabled(want_trace);
    }
  } else {
    scenario.seed = lattice.seed;
    scenario.attack = protocol::attack_setting_by_name(attack);
    scenario.trace_enabled = want_trace;
    if (chaos) {
      scenario.network.fault = net::burst_loss_profile(0.05, 4.0);
      scenario.network.fault.jitter_ms = 20;
      scenario.network.fault.duplicate_probability = 0.02;
    }
    if (is_lattice) {
      // An unset gossip cadence keeps the default, rounded down onto the
      // exchange lattice (a set one already sits on it).
      lattice.gossip_every_ms = gossip_ms.value_or(
          lattice.exchange_every_ms *
          std::max<Duration>(1, lattice.gossip_every_ms /
                                    lattice.exchange_every_ms));
      grid = std::make_unique<sim::Grid>(std::move(lattice));
    } else {
      world = std::make_unique<sim::World>(scenario);
    }
  }
  const auto now = [&] { return world ? world->now() : grid->now(); };
  const Tick duration = world ? world->config().duration_ms
                              : grid->config().shard.duration_ms;

  // --- sinks and streamer: a streamer exists only when a sink does ----------
  util::SystemWallClock wall;
  std::unique_ptr<svc::FileSink> file_sink;
  std::unique_ptr<svc::TcpServerSink> tcp_sink;
  std::unique_ptr<svc::TelemetryStreamer> streamer;
  if (has_sink) {
    svc::StreamerConfig scfg;
    scfg.cadence_ms = cadence_ms;
    scfg.wall = &wall;
    streamer = std::make_unique<svc::TelemetryStreamer>(scfg);
  }
  if (!stream_path.empty()) {
    // Append on resume: the file continues the interrupted stream.
    file_sink = std::make_unique<svc::FileSink>(stream_path, resumed);
    if (!file_sink->ok()) {
      std::fprintf(stderr, "serve: cannot open %s\n", stream_path.c_str());
      return 1;
    }
    streamer->add_sink(file_sink.get());
  }
  if (port >= 0) {
    tcp_sink = std::make_unique<svc::TcpServerSink>(port);
    if (!tcp_sink->ok()) {
      std::fprintf(stderr, "serve: cannot listen on 127.0.0.1:%d\n", port);
      return 1;
    }
    tcp_sink->set_greeting([&streamer] { return streamer->catch_up(); });
    streamer->add_sink(tcp_sink.get());
    std::printf("serve: streaming on 127.0.0.1:%d\n", tcp_sink->port());
    std::fflush(stdout);
  }
  const std::string seq_path = state_path + ".seq";
  if (streamer) {
    bool resume_stream = resumed;
    if (resumed) {
      std::uint64_t seq = 0;
      std::uint64_t frames = 0;
      if (read_seq_sidecar(seq_path, seq, frames)) {
        streamer->set_next_seq(seq);
        streamer->set_frames_emitted(frames);
      } else {
        std::fprintf(stderr, "serve: %s missing; stream restarts at seq 0\n",
                     seq_path.c_str());
        resume_stream = false;  // no position to continue from: hello again
      }
    }
    const bool attached = world ? streamer->attach(*world, resume_stream)
                                : streamer->attach(*grid, resume_stream);
    if (!attached) {
      std::fprintf(stderr, "serve: cadence rejected by the source\n");
      return 1;
    }
  }

  // --- event loop -----------------------------------------------------------
  const auto wall0 = std::chrono::steady_clock::now();
  const Tick t0 = now();
  int snapshots = 0;
  while (now() < duration) {
    const Tick next = std::min<Tick>(now() + cadence_ms, duration);
    if (world) {
      world->run_until(next);
    } else {
      grid->run_until(next);
    }
    if (tcp_sink) tcp_sink->pump();
    if (pace > 0) {
      // Sleep until the wall clock catches up with simulated progress.
      const auto target =
          wall0 + std::chrono::milliseconds(static_cast<std::int64_t>(
                      static_cast<double>(now() - t0) / pace));
      std::this_thread::sleep_until(target);
      if (tcp_sink) tcp_sink->pump();
    }
    if (state_path.empty() || now() >= duration ||
        now() % snapshot_every_ms != 0) {
      continue;
    }

    const Bytes blob =
        world ? world->checkpoint_save() : grid->checkpoint_save();
    if (const std::string violation = probe_snapshot(blob, grid != nullptr);
        !violation.empty()) {
      std::fprintf(stderr, "serve: INVARIANT VIOLATION at t=%lld: %s\n",
                   static_cast<long long>(now()), violation.c_str());
      const std::string replay_path = state_path + ".replay";
      if (world && util::write_file_atomic(
                       replay_path,
                       replay_bundle(*world, now(),
                                     "serve save/load/save invariant "
                                     "violation"))) {
        std::fprintf(stderr, "serve: wrote replay bundle %s\n",
                     replay_path.c_str());
      }
      return 1;
    }
    bool wrote = util::write_file_atomic(state_path, blob);
    if (streamer) {
      wrote = wrote && write_seq_sidecar(seq_path, streamer->next_seq(),
                                         streamer->frames_emitted());
    } else {
      // A sinkless run has no stream position; dropping the sidecar keeps a
      // stale one from an earlier streamed run from being resumed.
      std::remove(seq_path.c_str());
    }
    if (!wrote) {
      std::fprintf(stderr, "serve: cannot write state file %s\n",
                   state_path.c_str());
      return 1;
    }
    ++snapshots;
    std::printf("serve: snapshot %d at t=%lld ms (%zu bytes", snapshots,
                static_cast<long long>(now()), blob.size());
    if (streamer) {
      std::printf(", seq %llu",
                  static_cast<unsigned long long>(streamer->next_seq()));
    }
    std::printf(")\n");
    std::fflush(stdout);
    if (max_snapshots > 0 && snapshots >= max_snapshots) {
      std::printf("serve: pausing after %d snapshot(s); rerun to resume\n",
                  snapshots);
      return 0;
    }
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall0)
                            .count();

  if (streamer) {
    streamer->finish();
    if (tcp_sink) tcp_sink->pump();
  }

  // --- report ---------------------------------------------------------------
  std::string digest;
  std::string metrics_json;
  sim::GridSummary grid_summary;
  if (world) {
    const sim::RunSummary s = world->summary();
    digest = sim::checkpoint::run_summary_digest(s);
    std::printf("serve: done at t=%lld ms, %d spawned, %d exited",
                static_cast<long long>(world->now()),
                s.metrics.vehicles_spawned, s.metrics.vehicles_exited);
    if (!metrics_path.empty()) metrics_json = s.metrics_snapshot.json() + "\n";
  } else {
    grid_summary = grid->summary();
    digest = sim::Grid::summary_digest(grid_summary);
    print_grid_table(*grid, grid_summary, wall_s);
    std::printf("serve: done at t=%lld ms, %llu handoffs delivered",
                static_cast<long long>(grid->now()),
                static_cast<unsigned long long>(
                    grid_summary.handoffs_delivered));
    if (!metrics_path.empty()) {
      metrics_json = grid->merged_metrics().json() + "\n";
    }
  }
  if (streamer) {
    std::printf(", %llu frames streamed",
                static_cast<unsigned long long>(streamer->frames_emitted()));
  }
  std::printf("\nfinal digest: %s\n", digest.c_str());
  if (tcp_sink) {
    std::printf("serve: %llu monitor(s) served, %llu dropped\n",
                static_cast<unsigned long long>(tcp_sink->clients_accepted()),
                static_cast<unsigned long long>(tcp_sink->clients_dropped()));
  }

  // --- end-of-run exports ---------------------------------------------------
  // One trace drain feeds both formats: a single world is one stream named
  // "world", a lattice one stream per shard, row-major.
  std::vector<std::vector<util::trace::Event>> streams;
  std::vector<std::string> names;
  if (trace_export && world) {
    streams.push_back(world->take_trace());
    names.emplace_back("world");
  }
  for (int i = 0; trace_export && grid && i < grid->shard_count(); ++i) {
    const int r = i / grid->cols();
    const int c = i % grid->cols();
    streams.push_back(grid->shard(r, c).take_trace());
    names.push_back("shard(" + std::to_string(r) + "," + std::to_string(c) +
                    ")");
  }
  const auto export_file = [](const std::string& path, const auto& content) {
    if (path.empty()) return true;
    if (!util::write_file_atomic(path, content())) {
      std::fprintf(stderr, "serve: cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  };
  const bool exported =
      export_file(metrics_path, [&] { return metrics_json; }) &&
      export_file(trace_path,
                  [&] {
                    return util::trace::chrome_trace_json(streams, names);
                  }) &&
      export_file(trace_jsonl_path,
                  [&] { return util::trace::jsonl_trace(streams); }) &&
      export_file(summary_path,
                  [&] { return grid_summary_json(*grid, grid_summary); }) &&
      export_file(record_bundle_path, [&] {
        return replay_bundle(*world, duration, "serve run record", digest);
      });
  // The state file stays behind as the completed run's last snapshot; a rerun
  // resumes it, finishes at once, and prints the same digest.
  return exported ? 0 : 1;
}
