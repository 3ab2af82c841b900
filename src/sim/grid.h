// Multi-intersection lattice (docs/GRID.md): an N x M grid (or 1 x N
// corridor) of region shards, each owning a full sim::World — its own IM,
// chain, network, and RNG streams — stepped in deterministic lockstep over a
// util::WorkerPool, one shard per task.
//
// Shards interact only at exchange boundaries (every exchange_every_ms),
// through directed boundary edges carrying two lanes (net::EdgeChannel):
//
//  * vehicle handoffs: a vehicle exiting shard A toward a lattice neighbour
//    retires in A and re-materialises in B at a deterministic tick with its
//    identity, traits, carried speed, a deterministically chosen route
//    continuation, and its ground-truth attack profile;
//  * cross-IM gossip: each IM's confirmed-suspect blacklist piggybacks on the
//    same edges (lossy lane, cumulative resend), so an attacker flagged at
//    one intersection is distrusted downstream within bounded gossip delay.
//
// Determinism contract: phase A (stepping) fans shards out over the pool but
// each shard is internally deterministic and shares nothing mutable; phases
// B (drain + enqueue) and C (deliver) run serially in fixed shard/edge
// order. The grid summary digest is therefore byte-identical for ANY
// grid_threads value — grid_threads is a wall-clock knob, never a behaviour
// knob (same contract as ScenarioConfig::step_threads).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/edge.h"
#include "sim/world.h"
#include "util/worker_pool.h"

namespace nwade::sim {

struct GridConfig {
  int rows{1};
  int cols{1};
  /// Template for every shard. Per-shard seed / vehicle_id_base /
  /// extra_vehicle_capacity / step_threads are derived by the grid:
  /// step_threads passes through util::nested_thread_budget so a grid at
  /// 8 shard threads never stacks inner step pools on top (8 x 4 runs 8
  /// workers, not 32). Multi-shard grids require the cross4 layout (the
  /// leg->neighbour mapping below).
  ScenarioConfig shard;
  /// Grid-level seed; shard seeds and edge-channel streams derive from it.
  std::uint64_t seed{1};
  /// Boundary-exchange cadence; must be a multiple of shard.step_ms.
  /// Handoffs and gossip materialise only at these boundaries, so the
  /// effective inter-shard latency is quantised to the exchange grid.
  Duration exchange_every_ms{1'000};
  /// Gossip broadcast cadence; must be a multiple of exchange_every_ms.
  Duration gossip_every_ms{2'000};
  /// Maximum boundary handoffs per vehicle after its origin crossing;
  /// vehicles also retire when they would re-enter a shard they already
  /// crossed (keeps per-world ids unique) or exit the lattice boundary.
  int max_hops{3};
  /// >= 0: only this shard (row-major index) receives the template's attack
  /// setting; every other shard runs benign. -1 = template applies to all.
  /// The upstream-attacker gossip scenarios flag a single origin shard.
  int attack_shard{-1};
  /// Shard-stepping worker threads (phase A). <= 1 steps shards inline.
  int grid_threads{1};
  /// Fault/latency template applied to every boundary edge.
  net::EdgeFaultConfig edge;

  /// Field list of the checkpoint's static topology and cadence
  /// (grid_threads excluded: the restoring process picks its own, a
  /// wall-clock knob). A read rejects shapes and cadences no grid can run.
  template <class Ar, class Self> static void io(Ar& ar, Self& g);
};

/// Aggregated outcome of a grid run.
struct GridSummary {
  int rows{0};
  int cols{0};
  std::vector<RunSummary> shards;  ///< row-major shard order
  std::uint64_t handoffs_sent{0};
  std::uint64_t handoffs_deferred{0};   ///< delayed by an edge outage
  std::uint64_t handoffs_delivered{0};  ///< materialised in the target shard
  std::uint64_t gossip_sent{0};
  std::uint64_t gossip_dropped{0};
  std::uint64_t gossip_imports{0};  ///< newly imported blacklist entries
  std::uint64_t retired{0};         ///< left the lattice (boundary/hop-cap/revisit)
  double aggregate_throughput_vpm{0};
};

class Grid {
 public:
  explicit Grid(GridConfig config);

  /// Advances every shard to `t` (a multiple of shard.step_ms), exchanging
  /// at every absolute multiple of exchange_every_ms crossed on the way.
  /// The boundary schedule depends only on t, never on call granularity.
  void run_until(Tick t);
  /// Runs to shard.duration_ms and returns the summary.
  GridSummary run();

  GridSummary summary() const;
  /// SHA-256 (hex) over the deterministic content of a grid summary: the
  /// per-shard run_summary_digests plus the exchange counters. Byte-equal
  /// across grid_threads values and across checkpoint/restore.
  static std::string summary_digest(const GridSummary& s);
  /// One MetricsSnapshot for the whole lattice: the shard snapshots folded
  /// in row-major order (counters/histograms add, gauges last-writer-wins —
  /// MetricsSnapshot::merge). Shard snapshots are thread-schedule
  /// independent and the fold order is fixed, so the result is byte-equal
  /// across grid_threads values.
  util::telemetry::MetricsSnapshot merged_metrics() const;
  /// Observational hook, called at every exchange boundary crossed by
  /// run_until, after the exchange completes — the only instants where the
  /// lattice is globally consistent regardless of call slicing. Runs on the
  /// calling thread (all shards quiescent). Not checkpointed.
  void set_exchange_listener(std::function<void(Tick)> fn) {
    exchange_listener_ = std::move(fn);
  }

  Tick now() const { return now_; }
  int rows() const { return config_.rows; }
  int cols() const { return config_.cols; }
  int shard_count() const { return config_.rows * config_.cols; }
  World& shard(int row, int col) { return *shards_.at(index_of(row, col)); }
  const World& shard(int row, int col) const {
    return *shards_.at(index_of(row, col));
  }
  const GridConfig& config() const { return config_; }

  // --- checkpoint/restore ---------------------------------------------------
  /// Serializes the whole lattice into an `nwade-grid-ckpt-v1` envelope:
  /// the same named-section table format as nwade-ckpt-v1 (docs/CHECKPOINT.md)
  /// with a "grid" section (topology, cadence, edge queues/channels, roam
  /// table, counters) plus one "shard.<i>" section per world, each a complete
  /// nwade-ckpt-v1 blob. Unknown sections are skipped (CRC-checked), so a v1
  /// reader survives future extensions. Must be called at an exchange
  /// boundary — the only instants where every exit log is drained.
  Bytes checkpoint_save() const;
  /// Rebuilds a grid positioned exactly where the saved run stood;
  /// continuing is byte-identical to the uninterrupted run. `grid_threads`
  /// is deliberately NOT part of the envelope — the restoring process picks
  /// its own (a wall-clock knob). Reads the envelope in place, each shard
  /// straight from its section (a `Bytes` binds). Returns nullptr on
  /// malformed input.
  static std::unique_ptr<Grid> checkpoint_restore(
      std::span<const std::uint8_t> blob, int grid_threads,
      std::string* error = nullptr);

 private:
  /// A vehicle in flight on an edge's reliable lane.
  struct PendingHandoff {
    std::uint64_t seq{0};
    Tick deliver_at{0};
    VehicleId id;
    int route_id{0};  ///< continuation route in the TARGET shard
    double speed_mps{0};
    traffic::VehicleTraits traits;
    protocol::VehicleAttackProfile attack;
    bool legacy{false};
  };
  /// A blacklist snapshot in flight on an edge's lossy lane.
  struct PendingGossip {
    std::uint64_t seq{0};
    Tick deliver_at{0};
    std::vector<VehicleId> suspects;
  };
  struct Edge {
    int from{0};
    int to{0};
    int exit_leg{0};   ///< leg of `from` this edge leaves through
    int entry_leg{0};  ///< leg of `to` it arrives on ((exit_leg + 2) % 4)
    net::EdgeChannel channel;
    std::uint64_t next_seq{0};
    std::vector<PendingHandoff> handoffs;
    std::vector<PendingGossip> gossip;
  };
  /// Per-vehicle lattice itinerary: which shards it has crossed (bitmask,
  /// hence the <= 64 shard limit) and how many handoffs it has taken.
  struct Roam {
    std::uint64_t visited_mask{0};
    std::uint8_t hops{0};
  };

  Grid(GridConfig config, bool construct_worlds);
  /// Field list of the grid section's dynamic state, after the config:
  /// counters, the roam table, and every edge's channel and queues.
  template <class Ar, class Self> static void state_io(Ar& ar, Self& grid);

  std::size_t index_of(int row, int col) const;
  void build_edges();
  /// Phase B + C at boundary `t`: serially drain every shard's exits into
  /// edge queues (fixed shard order), broadcast gossip when due, then
  /// deliver every due item (fixed edge order, (deliver_at, seq) order
  /// within an edge).
  void exchange(Tick t);
  int continuation_route(int shard_idx, int entry_leg, VehicleId id,
                         int hop) const;

  GridConfig config_;
  util::WorkerPool pool_;
  std::vector<std::unique_ptr<World>> shards_;  ///< row-major
  std::vector<Edge> edges_;
  /// edge_by_exit_[shard][leg] -> index into edges_, or -1 (lattice border).
  std::vector<std::array<int, 4>> edge_by_exit_;
  std::map<VehicleId, Roam> roam_;
  Tick now_{0};
  std::function<void(Tick)> exchange_listener_;

  std::uint64_t handoffs_delivered_{0};
  std::uint64_t gossip_imports_{0};
  std::uint64_t retired_boundary_{0};
  std::uint64_t retired_hops_{0};
  std::uint64_t retired_revisit_{0};
  /// Size of the last envelope (saved or restored from), which the next
  /// checkpoint_save() reserves with headroom. A hint, not state.
  mutable std::size_t last_save_bytes_{0};
};

}  // namespace nwade::sim
