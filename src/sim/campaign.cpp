#include "sim/campaign.h"

#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "crypto/sha256.h"
#include "nwade/config.h"
#include "sim/checkpoint.h"
#include "util/crc32.h"
#include "util/file_io.h"
#include "util/worker_pool.h"

namespace nwade::sim {

namespace {

// Local fixed-precision JSON rendering: identical doubles render to
// identical bytes, which the cross-pool-size determinism guarantee relies
// on (bench/support.h is a bench-only header, so the engine carries its own
// minimal emitter).
std::string num(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }
std::string num(int v) { return std::to_string(v); }

std::string cell_row(const CellResult& r) {
  const auto& m = r.summary.metrics;
  const auto& n = r.summary.net_stats;
  const auto detection = m.deviation_detection_time();
  std::string out = "{";
  out += "\"kind\": \"" + std::string(intersection_name(r.cell.kind)) + "\", ";
  out += "\"attack\": \"" + r.cell.attack + "\", ";
  out += "\"vpm\": " + num(r.cell.vpm, 1) + ", ";
  out += "\"round\": " + num(r.cell.round) + ", ";
  out += "\"seed\": " + num(r.cell.seed) + ", ";
  out += "\"spawned\": " + num(m.vehicles_spawned) + ", ";
  out += "\"exited\": " + num(m.vehicles_exited) + ", ";
  out += "\"throughput_vpm\": " + num(r.summary.throughput_vpm) + ", ";
  out += "\"mean_crossing_ms\": " + num(r.summary.mean_crossing_ms, 1) + ", ";
  out += "\"active_at_end\": " + num(r.summary.active_at_end) + ", ";
  out += "\"gap_violations\": " +
         num(r.summary.min_ground_truth_gap_violations) + ", ";
  out += "\"detection_ms\": " +
         (detection ? num(static_cast<std::uint64_t>(*detection))
                    : std::string("-1")) +
         ", ";
  out += "\"incident_reports\": " + num(m.incident_reports) + ", ";
  out += "\"global_reports\": " + num(m.global_reports) + ", ";
  out += "\"evacuation_alerts\": " + num(m.evacuation_alerts) + ", ";
  out += "\"false_alarm_evacuations\": " + num(m.false_alarm_evacuations) + ", ";
  out += "\"degraded_entries\": " + num(m.degraded_entries) + ", ";
  out += "\"blocks_published\": " + num(m.blocks_published) + ", ";
  out += "\"packets_sent\": " + num(n.packets_sent) + ", ";
  out += "\"packets_delivered\": " + num(n.packets_delivered) + ", ";
  out += "\"packets_dropped\": " + num(n.packets_dropped) + ", ";
  out += "\"bytes_sent\": " + num(n.bytes_sent) + ", ";
  out += "\"legacy_spawned\": " + num(r.summary.legacy_spawned) + ", ";
  out += "\"legacy_exited\": " + num(r.summary.legacy_exited) + ", ";
  // The cell's full registry snapshot (integer-valued, single-threaded per
  // cell), so the row carries every net.*/aim.*/protocol.* metric without
  // widening the flat column set above.
  out += "\"metrics\": " + r.summary.metrics_snapshot.json_compact();
  out += "}";
  return out;
}

std::string aggregate_row(const CellAggregate& a) {
  std::string out = "{";
  out += "\"kind\": \"" + std::string(intersection_name(a.kind)) + "\", ";
  out += "\"attack\": \"" + a.attack + "\", ";
  out += "\"vpm\": " + num(a.vpm, 1) + ", ";
  out += "\"rounds\": " + num(a.rounds) + ", ";
  out += "\"mean_throughput_vpm\": " + num(a.mean_throughput_vpm) + ", ";
  out += "\"mean_crossing_ms\": " + num(a.mean_crossing_ms, 1) + ", ";
  out += "\"detection_rate\": " + num(a.detection_rate) + ", ";
  out += "\"mean_detection_ms\": " + num(a.mean_detection_ms, 1) + ", ";
  out += "\"false_alarm_evacuations\": " + num(a.false_alarm_evacuations) + ", ";
  out += "\"gap_violations\": " + num(a.gap_violations) + ", ";
  out += "\"degraded_entries\": " + num(a.degraded_entries);
  out += "}";
  return out;
}

}  // namespace

std::vector<CampaignCell> expand_cells(const CampaignConfig& cfg) {
  std::vector<CampaignCell> cells;
  cells.reserve(cfg.kinds.size() * cfg.attacks.size() *
                cfg.densities_vpm.size() * static_cast<std::size_t>(cfg.rounds));
  for (const traffic::IntersectionKind kind : cfg.kinds) {
    for (const std::string& attack : cfg.attacks) {
      for (const double vpm : cfg.densities_vpm) {
        for (int round = 0; round < cfg.rounds; ++round) {
          cells.push_back(CampaignCell{
              kind, attack, vpm, round,
              cfg.base_seed + static_cast<std::uint64_t>(round)});
        }
      }
    }
  }
  return cells;
}

ScenarioConfig cell_scenario(const CampaignConfig& cfg,
                             const CampaignCell& cell) {
  ScenarioConfig s = cfg.base;
  s.intersection.kind = cell.kind;
  s.vehicles_per_minute = cell.vpm;
  s.duration_ms = cfg.duration_ms;
  s.seed = cell.seed;
  s.attack = protocol::attack_setting_by_name(cell.attack);
  if (cfg.trace) s.trace_enabled = true;
  return s;
}

std::vector<CellResult> run_campaign(const CampaignConfig& cfg) {
  const std::vector<CampaignCell> cells = expand_cells(cfg);
  util::WorkerPool pool(cfg.threads);
  // Per-run isolation: each cell builds its own World — own event queue,
  // network, RNG stream, signer, and signature-verification cache — so the
  // only shared state is the read-only config and the result slots, which
  // the pool's fixed-order map keeps per-index. Thread count therefore
  // cannot influence any result byte.
  return pool.map<CellResult>(cells.size(), [&cfg, &cells](std::size_t i) {
    World world(cell_scenario(cfg, cells[i]));
    CellResult result{cells[i], world.run(), {}};
    result.trace = world.take_trace();  // empty unless the cell traced
    return result;
  });
}

namespace {

constexpr std::string_view kProgressSchema = "nwade-campaign-progress-v1";

/// One record of the progress journal: `bytes(payload)` (u32 length prefix)
/// followed by `u32 crc32(payload)`. The payload is the cell's expansion
/// index plus the full RunSummary wire form. The length prefix lets the
/// loader frame a record before trusting it; the CRC catches both a record
/// half-written at the moment of a crash and bit rot in a journal that sat
/// on disk between sessions.
void append_progress_record(ByteWriter& w, std::size_t cell_index,
                            const RunSummary& summary) {
  ByteWriter payload;
  payload.u64(static_cast<std::uint64_t>(cell_index));
  checkpoint::save_run_summary(payload, summary);
  w.bytes(payload.data());
  w.u32(util::crc32(payload.data()));
}

/// Parses a journal blob. Returns the summaries of every valid record keyed
/// by cell index (first record wins on duplicates) — or nothing at all when
/// the header's schema or fingerprint does not match. Records after the
/// first corrupt/truncated one are discarded: a torn tail means everything
/// beyond it is of unknown provenance.
std::unordered_map<std::size_t, RunSummary> load_progress(
    std::span<const std::uint8_t> blob, std::string_view fingerprint) {
  std::unordered_map<std::size_t, RunSummary> out;
  ByteReader r(blob);
  if (r.str() != kProgressSchema) return out;
  if (r.str() != fingerprint || !r.ok()) return out;
  while (r.ok() && !r.at_end()) {
    const std::uint32_t len = r.u32();
    const std::span<const std::uint8_t> payload = r.view(len);
    const std::uint32_t crc = r.u32();
    if (!r.ok() || util::crc32(payload) != crc) break;
    ByteReader rec(payload);
    const std::size_t index = static_cast<std::size_t>(rec.u64());
    RunSummary summary;
    if (!checkpoint::load_run_summary(rec, summary) || !rec.at_end()) break;
    out.emplace(index, std::move(summary));
  }
  return out;
}

}  // namespace

std::string campaign_fingerprint(const CampaignConfig& cfg) {
  ByteWriter w;
  w.str(kProgressSchema);
  w.u32(static_cast<std::uint32_t>(cfg.kinds.size()));
  for (const traffic::IntersectionKind kind : cfg.kinds) {
    w.u8(static_cast<std::uint8_t>(kind));
  }
  w.u32(static_cast<std::uint32_t>(cfg.attacks.size()));
  for (const std::string& attack : cfg.attacks) w.str(attack);
  w.u32(static_cast<std::uint32_t>(cfg.densities_vpm.size()));
  for (const double vpm : cfg.densities_vpm) w.f64(vpm);
  w.i64(cfg.rounds);
  w.u64(cfg.base_seed);
  w.i64(cfg.duration_ms);
  // The full base scenario rides along: a progress log recorded under one
  // fault profile or scheduler must not be spliced into a campaign run under
  // another. `threads` and `trace` are deliberately absent — neither can
  // influence a result byte, so a journal survives a thread-count change.
  checkpoint::save_scenario_config(w, cfg.base);
  return to_hex(crypto::sha256(w.data()));
}

std::vector<CellResult> run_campaign_resumable(const CampaignConfig& cfg,
                                               const std::string& progress_path) {
  // Event traces are not journaled (they dwarf the summaries and exist for
  // interactive inspection, not aggregation), so a traced campaign cannot be
  // resumed faithfully — run it plain instead of resuming without traces.
  if (cfg.trace) return run_campaign(cfg);

  const std::vector<CampaignCell> cells = expand_cells(cfg);
  const std::string fingerprint = campaign_fingerprint(cfg);

  // A missing journal reads as empty, which load_progress rejects on the
  // schema check: a cold start.
  std::unordered_map<std::size_t, RunSummary> done =
      load_progress(util::read_file(progress_path), fingerprint);
  // Indices past the matrix (a journal from a larger campaign cannot share
  // our fingerprint, but a corrupt index could still frame a valid record).
  std::erase_if(done, [&cells](const auto& kv) {
    return kv.first >= cells.size();
  });

  // Compact: rewrite header + every valid loaded record, so a journal whose
  // tail was torn by the last crash starts this session clean. The handle
  // stays open for the per-cell appends below.
  std::FILE* journal = std::fopen(progress_path.c_str(), "wb");
  if (!journal) return run_campaign(cfg);
  {
    ByteWriter w;
    w.str(kProgressSchema);
    w.str(fingerprint);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto it = done.find(i);
      if (it != done.end()) append_progress_record(w, i, it->second);
    }
    std::fwrite(w.data().data(), 1, w.data().size(), journal);
    std::fflush(journal);
  }

  util::WorkerPool pool(cfg.threads);
  std::mutex journal_mutex;
  std::vector<CellResult> results = pool.map<CellResult>(
      cells.size(),
      [&cfg, &cells, &done, journal, &journal_mutex](std::size_t i) {
        if (const auto it = done.find(i); it != done.end()) {
          return CellResult{cells[i], it->second, {}};
        }
        World world(cell_scenario(cfg, cells[i]));
        CellResult result{cells[i], world.run(), {}};
        ByteWriter w;
        append_progress_record(w, i, result.summary);
        {
          // Append + flush before the result is considered done: a crash
          // after the flush resumes past this cell, a crash during the
          // write leaves a torn record the loader's CRC discards.
          const std::lock_guard<std::mutex> lock(journal_mutex);
          std::fwrite(w.data().data(), 1, w.data().size(), journal);
          std::fflush(journal);
        }
        return result;
      });
  std::fclose(journal);
  return results;
}

std::vector<CellAggregate> aggregate(const CampaignConfig& cfg,
                                     const std::vector<CellResult>& results) {
  std::vector<CellAggregate> out;
  const std::size_t rounds = static_cast<std::size_t>(cfg.rounds);
  for (std::size_t base = 0; base + rounds <= results.size(); base += rounds) {
    CellAggregate a;
    a.kind = results[base].cell.kind;
    a.attack = results[base].cell.attack;
    a.vpm = results[base].cell.vpm;
    a.rounds = cfg.rounds;
    int detected = 0;
    double detection_total = 0;
    for (std::size_t i = base; i < base + rounds; ++i) {
      const RunSummary& s = results[i].summary;
      a.mean_throughput_vpm += s.throughput_vpm;
      a.mean_crossing_ms += s.mean_crossing_ms;
      a.false_alarm_evacuations += s.metrics.false_alarm_evacuations;
      a.gap_violations += s.min_ground_truth_gap_violations;
      a.degraded_entries += s.metrics.degraded_entries;
      if (const auto d = s.metrics.deviation_detection_time()) {
        ++detected;
        detection_total += static_cast<double>(*d);
      }
    }
    a.mean_throughput_vpm /= static_cast<double>(rounds);
    a.mean_crossing_ms /= static_cast<double>(rounds);
    a.detection_rate = static_cast<double>(detected) / static_cast<double>(rounds);
    a.mean_detection_ms = detected ? detection_total / detected : 0;
    out.push_back(std::move(a));
  }
  return out;
}

std::string campaign_results_json(const CampaignConfig& cfg,
                                  const std::vector<CellResult>& results) {
  std::string out = "{\n";
  out += "  \"schema\": \"nwade-campaign-v1\",\n";
  out += "  \"base_seed\": " + num(cfg.base_seed) + ",\n";
  out += "  \"rounds\": " + num(cfg.rounds) + ",\n";
  out += "  \"duration_ms\": " +
         num(static_cast<std::uint64_t>(cfg.duration_ms)) + ",\n";
  out += "  \"cells\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out += "    " + cell_row(results[i]);
    if (i + 1 < results.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n";
  const std::vector<CellAggregate> aggs = aggregate(cfg, results);
  out += "  \"aggregates\": [\n";
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    out += "    " + aggregate_row(aggs[i]);
    if (i + 1 < aggs.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

std::string campaign_json(const CampaignConfig& cfg,
                          const std::vector<CellResult>& results,
                          double wall_clock_s) {
  std::string out = "{\n";
  out += "  \"schema\": \"nwade-campaign-report-v1\",\n";
  out += "  \"threads\": " + num(cfg.threads) + ",\n";
  out += "  \"hardware_concurrency\": " +
         num(static_cast<std::uint64_t>(std::thread::hardware_concurrency())) +
         ",\n";
  out += "  \"wall_clock_s\": " + num(wall_clock_s) + ",\n";
  std::string results_json = campaign_results_json(cfg, results);
  // Indent the embedded results object two spaces to keep the report legible.
  out += "  \"results\": ";
  for (std::size_t i = 0; i < results_json.size(); ++i) {
    out += results_json[i];
    if (results_json[i] == '\n' && i + 1 < results_json.size()) out += "  ";
  }
  if (out.back() == '\n') out.pop_back();
  // Strip the indent added after the results object's final newline.
  while (!out.empty() && out.back() == ' ') out.pop_back();
  out += "\n}\n";
  return out;
}

std::string cell_label(const CampaignCell& cell) {
  std::string label = intersection_name(cell.kind);
  label += "/" + cell.attack;
  label += "/vpm" + num(cell.vpm, 0);
  label += "/r" + num(cell.round);
  return label;
}

namespace {

/// Streams + labels for the traced cells, indices aligned. Untraced cells
/// (empty vectors) are skipped so a partially traced campaign still exports.
void collect_trace_streams(const std::vector<CellResult>& results,
                           std::vector<std::vector<util::trace::Event>>& streams,
                           std::vector<std::string>& names) {
  for (const CellResult& r : results) {
    if (r.trace.empty()) continue;
    streams.push_back(r.trace);
    names.push_back(cell_label(r.cell));
  }
}

}  // namespace

std::string campaign_trace_json(const std::vector<CellResult>& results,
                                bool include_wall) {
  std::vector<std::vector<util::trace::Event>> streams;
  std::vector<std::string> names;
  collect_trace_streams(results, streams, names);
  return util::trace::chrome_trace_json(streams, names, include_wall);
}

std::string campaign_trace_jsonl(const std::vector<CellResult>& results,
                                 bool include_wall) {
  std::vector<std::vector<util::trace::Event>> streams;
  std::vector<std::string> names;
  collect_trace_streams(results, streams, names);
  return util::trace::jsonl_trace(streams, include_wall);
}

std::string campaign_metrics_json(const CampaignConfig& cfg,
                                  const std::vector<CellResult>& results) {
  std::string out = "{\n";
  out += "  \"schema\": \"nwade-metrics-v1\",\n";
  out += "  \"base_seed\": " + num(cfg.base_seed) + ",\n";
  out += "  \"cells\": [\n";
  util::telemetry::MetricsSnapshot merged;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    out += "    {\"cell\": \"" + cell_label(r.cell) + "\", \"metrics\": " +
           r.summary.metrics_snapshot.json_compact() + "}";
    if (i + 1 < results.size()) out += ",";
    out += "\n";
    merged.merge(r.summary.metrics_snapshot);
  }
  out += "  ],\n";
  // Campaign-wide fold: counters/histograms sum across cells (gauges are
  // last-writer-wins and mostly per-run levels — read them per cell).
  out += "  \"merged\": " + merged.json_compact() + "\n";
  out += "}\n";
  return out;
}

}  // namespace nwade::sim
