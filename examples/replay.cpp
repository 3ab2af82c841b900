// Replay executor (docs/CHECKPOINT.md).
//
// Re-runs an `nwade-replay-v1` bundle — scenario config + target time +
// expected summary digest — and verifies the re-execution reproduces the
// recorded digest bit for bit. Because every run is a pure function of its
// config and seed, the bundle alone reproduces an incident on any machine;
// pointing an ASan/TSan build of this binary at a bundle turns "the soak
// failed overnight" into a deterministic sanitized re-execution. Bundles
// come from `serve --record-bundle` and from the `<state>.replay` file
// `serve --state` writes when a snapshot fails its restore probe.
//
//   ./build/examples/replay incident.bin
//
// Exit status: 0 = digest matches (or bundle carries none and the run
// completed), 1 = digest mismatch, 2 = unreadable/corrupt bundle.
#include <cstdio>
#include <string>

#include "sim/checkpoint.h"
#include "sim/world.h"
#include "util/file_io.h"

using namespace nwade;

int main(int argc, char** argv) {
  if (argc != 2 || std::string(argv[1]) == "--help" ||
      std::string(argv[1]) == "-h") {
    std::printf("usage: %s BUNDLE\n", argv[0]);
    std::printf("  BUNDLE  nwade-replay-v1 file (serve --record-bundle, or the\n"
                "          <state>.replay serve --state dumps on an invariant\n"
                "          violation)\n");
    return argc == 2 ? 0 : 2;
  }
  const std::string path = argv[1];
  const Bytes blob = util::read_file(path);
  if (blob.empty()) {
    std::fprintf(stderr, "replay: cannot read %s\n", path.c_str());
    return 2;
  }
  sim::checkpoint::ReplayBundle bundle;
  std::string error;
  if (!sim::checkpoint::load_replay_bundle(blob, bundle, &error)) {
    std::fprintf(stderr, "replay: %s: %s\n", path.c_str(), error.c_str());
    return 2;
  }

  std::printf("replay: %s\n", bundle.note.empty() ? "(no note)"
                                                  : bundle.note.c_str());
  std::printf("replay: seed %llu, %s, %.0f vpm, attack %s, run to %lld ms\n",
              static_cast<unsigned long long>(bundle.config.seed),
              intersection_name(bundle.config.intersection.kind),
              bundle.config.vehicles_per_minute,
              bundle.config.attack.name.c_str(),
              static_cast<long long>(bundle.run_to));

  sim::World world(bundle.config);
  world.run_until(bundle.run_to);
  const std::string digest =
      sim::checkpoint::run_summary_digest(world.summary());
  std::printf("replay digest: %s\n", digest.c_str());

  if (bundle.expected_digest.empty()) {
    std::printf("replay: bundle carries no expected digest; run completed\n");
    return 0;
  }
  if (digest != bundle.expected_digest) {
    std::fprintf(stderr, "replay: DIGEST MISMATCH\n  expected %s\n  got      %s\n",
                 bundle.expected_digest.c_str(), digest.c_str());
    return 1;
  }
  std::printf("replay: digest matches recorded run\n");
  return 0;
}
