// Deterministic checkpoint/restore and record/replay (docs/CHECKPOINT.md).
//
// A checkpoint is a versioned binary envelope (`nwade-ckpt-v1`) holding the
// COMPLETE state of a World at a step boundary: scenario config, simulated
// time and event-queue sequence counter, every vehicle's automaton + chain
// store, the IM's plan/reservation/round tables with their pending timer
// coordinates, the network's in-flight deliveries and fault-model RNG, the
// signature-verification cache, and the telemetry registry. Restoring and
// continuing is byte-identical (trace-golden digest) to never having stopped.
//
// The envelope is a named-section table — each section length-prefixed and
// CRC-32 guarded — so corruption is detected before any state is applied and
// unknown future sections can be skipped by older readers. Every section is
// written and read through one field list per type (util/archive.h).
//
// A replay bundle (`nwade-replay-v1`) is the record side of record/replay:
// the scenario config plus the target time and the expected summary digest.
// Re-running it (examples/replay) under ASan/TSan reproduces an incident
// bit-exactly from the seed. A campaign progress log
// (`nwade-campaign-progress-v1`, sim/campaign.h) reuses the RunSummary wire
// form defined here.
#pragma once

#include <map>
#include <span>
#include <string>

#include "sim/world.h"
#include "util/archive.h"

namespace nwade::sim::checkpoint {

inline constexpr std::string_view kCheckpointSchema = "nwade-ckpt-v1";
inline constexpr std::string_view kReplaySchema = "nwade-replay-v1";

// --- wire forms ------------------------------------------------------------

/// Each pair runs the type's one field list (ScenarioConfig::io,
/// RunSummary::io); a load returns false on malformed input.
void save_scenario_config(ByteWriter& w, const ScenarioConfig& config);
bool load_scenario_config(ByteReader& r, ScenarioConfig& out);

void save_run_summary(ByteWriter& w, const RunSummary& s);
bool load_run_summary(ByteReader& r, RunSummary& out);

/// SHA-256 (hex) over the deterministic content of a summary — everything
/// except the wall-clock timing sample vectors. Two runs of the same
/// scenario, interrupted or not, produce the same digest.
std::string run_summary_digest(const RunSummary& s);

// --- section tables --------------------------------------------------------

/// Writes the envelope World (`nwade-ckpt-v1`) and Grid
/// (`nwade-grid-ckpt-v1`) share: the schema string, a u32 section count,
/// then each section's name, the CRC-32 of its payload, and the
/// length-prefixed payload. Everything lands in one buffer in one pass:
/// each payload is written in place after two u32 slots, which are patched
/// with its CRC and length once it is complete.
class SectionWriter {
 public:
  /// Starts an envelope at the end of `out`, which must outlive the writer.
  SectionWriter(ByteWriter& out, std::string_view schema);
  /// Appends a section holding what `fn(WriteArchive&)` writes.
  template <class Fn> void add(std::string_view name, Fn fn) {
    const std::size_t slots = open(name);
    WriteArchive ar(out_);
    fn(ar);
    close(slots);
  }
  /// Patches the section count; the envelope ends where `out` ends.
  void finish();

 private:
  /// Writes the name and two empty slots; returns where the slots start.
  std::size_t open(std::string_view name);
  /// Fills the slots at `slots` in for the payload written since.
  void close(std::size_t slots);

  ByteWriter& out_;
  std::size_t count_slot_;
  std::uint32_t count_{0};
};

/// The buffer a save reserves when its source's previous save wrote
/// `previous` bytes (0: none yet): that plus headroom, so a growing source
/// does not regrow a large buffer by doubling. Pages reserved but never
/// written cost no resident memory.
std::size_t save_reserve(std::size_t previous);

/// Reads that envelope back in place: each section is a view into the
/// parsed blob, which must outlive the reader. Every CRC is checked before
/// any state is applied; sections nobody asks for (a newer writer's) are
/// skipped.
class SectionReader {
 public:
  using View = std::span<const std::uint8_t>;
  /// False, with a diagnostic in *error, on a wrong schema, more than
  /// `max_sections` sections, truncation, a CRC mismatch or trailing bytes.
  bool parse(View blob, std::string_view schema, std::size_t max_sections,
             std::string* error);
  /// The payload of section `name`; null when absent.
  const View* find(const std::string& name) const;
  /// Reads section `name` through `fn(ReadArchive&)`. False, with
  /// "missing/malformed <name> section" in *error, unless the section exists
  /// and parses to its last byte.
  template <class Fn>
  bool read(const std::string& name, std::string* error, Fn fn,
            chain::BlockTable* blocks = nullptr) const {
    const View* payload = find(name);
    if (payload == nullptr) return fail(error, "missing " + name + " section");
    ByteReader r(*payload);
    ReadArchive ar(r, blocks);
    fn(ar);
    if (!ar.ok() || !r.at_end()) return fail(error, "malformed " + name + " section");
    return true;
  }
  /// Stores `msg` in *error (when given) and returns false.
  static bool fail(std::string* error, std::string msg);

 private:
  std::map<std::string, View> sections_;
};

// --- replay bundles --------------------------------------------------------

struct ReplayBundle {
  ScenarioConfig config;
  /// Simulated time to run to (normally config.duration_ms).
  Tick run_to{0};
  /// run_summary_digest the original run produced; empty = not recorded.
  std::string expected_digest;
  /// Free-form context ("soak invariant violation at t=41200", ...).
  std::string note;

  template <class Ar, class Self> static void io(Ar& ar, Self& b) {
    ar(b.config);
    ar.i64(b.run_to);
    ar.str(b.expected_digest);
    ar.str(b.note);
  }
};

Bytes save_replay_bundle(const ReplayBundle& bundle);
bool load_replay_bundle(const Bytes& blob, ReplayBundle& out,
                        std::string* error = nullptr);

}  // namespace nwade::sim::checkpoint
