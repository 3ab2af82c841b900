// Inter-shard boundary link for sim::Grid (docs/GRID.md).
//
// A grid edge connects two adjacent intersections. Two lanes share the link:
//
//  * the RELIABLE lane carries vehicle handoffs. A road does not lose cars,
//    so this lane never drops — an outage window DEFERS delivery past the
//    window's end instead (the vehicle sits at the region boundary until the
//    link heals).
//  * the LOSSY lane carries cross-IM gossip datagrams (blacklist snapshots).
//    These see the usual V2X imperfections — Gilbert–Elliott burst loss and
//    outage blackholes — and senders compensate by resending cumulative
//    snapshots (imports are idempotent), giving bounded propagation delay in
//    expectation rather than per-packet reliability.
//
// Both lanes draw from the channel's own Rng, so a grid's edge randomness is
// independent of every shard-internal stream, and delivery times are a pure
// function of (edge seed, send sequence) — never of thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/rng.h"
#include "util/types.h"

namespace nwade::net {

/// A scheduled link outage: during [from, until) the edge is dark.
struct EdgeOutage {
  Tick from{0};
  Tick until{0};
};

/// Per-edge fault/latency model. Defaults: ideal 30 ms link, no loss.
struct EdgeFaultConfig {
  Duration base_latency_ms{30};
  /// Uniform extra delay in [0, jitter_ms], drawn per packet (both lanes).
  Duration jitter_ms{0};
  // Gilbert–Elliott burst loss for the lossy lane; same parameterization as
  // net::FaultProfile (stationary loss = ge_loss_bad * p/(p+r)). Enabled
  // when ge_p_good_to_bad > 0.
  double ge_p_good_to_bad{0.0};
  double ge_p_bad_to_good{0.25};
  double ge_loss_good{0.0};
  double ge_loss_bad{1.0};
  std::vector<EdgeOutage> outages;

  bool burst_loss_enabled() const { return ge_p_good_to_bad > 0.0; }
  bool down_at(Tick t) const {
    for (const EdgeOutage& o : outages) {
      if (t >= o.from && t < o.until) return true;
    }
    return false;
  }
};

/// One directed inter-shard link. Stateless config + a private Rng and the
/// burst-loss Markov state; the owning Grid holds the pending queues.
class EdgeChannel {
 public:
  EdgeChannel(EdgeFaultConfig config, Rng rng)
      : config_(std::move(config)), rng_(rng) {}

  /// Reliable lane: delivery tick for a handoff sent at `send_t`. Never
  /// drops; outage windows covering the send defer it to the window's end
  /// before latency is applied (re-checked until the send instant is clear).
  Tick reliable_delivery_at(Tick send_t);

  /// Lossy lane: delivery tick for a gossip datagram, or nullopt when the
  /// packet is lost (outage blackhole or burst loss).
  std::optional<Tick> lossy_delivery_at(Tick send_t);

  struct Stats {
    std::uint64_t handoffs{0};        ///< reliable-lane sends
    std::uint64_t deferred{0};        ///< handoffs delayed by an outage
    std::uint64_t gossip_sent{0};     ///< lossy-lane sends
    std::uint64_t gossip_dropped{0};  ///< lossy-lane losses
  };
  const Stats& stats() const { return stats_; }

  /// Field list: the Rng position, burst-loss state, and stats. The config
  /// is NOT part of it — the owner reconstructs it (it is part of the grid's
  /// own config section) and must restore onto a channel built with the
  /// identical config.
  template <class Ar, class Self> static void io(Ar& ar, Self& ch) {
    ar(ch.rng_);
    ar.flag(ch.ge_bad_);
    ar.u64(ch.stats_.handoffs);
    ar.u64(ch.stats_.deferred);
    ar.u64(ch.stats_.gossip_sent);
    ar.u64(ch.stats_.gossip_dropped);
  }

 private:
  Duration latency_draw();

  EdgeFaultConfig config_;
  Rng rng_;
  bool ge_bad_{false};
  Stats stats_;
};

}  // namespace nwade::net
