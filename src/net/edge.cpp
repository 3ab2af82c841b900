#include "net/edge.h"

namespace nwade::net {

Duration EdgeChannel::latency_draw() {
  Duration latency = config_.base_latency_ms;
  // Draw only when jitter is enabled so a zero-fault edge consumes no
  // randomness (same idiom as the node-level fault layer).
  if (config_.jitter_ms > 0) {
    latency += static_cast<Duration>(
        rng_.uniform_int(0, static_cast<std::int64_t>(config_.jitter_ms)));
  }
  return latency;
}

Tick EdgeChannel::reliable_delivery_at(Tick send_t) {
  ++stats_.handoffs;
  Tick t = send_t;
  // Defer past every outage window covering the (possibly already deferred)
  // send instant. Windows may abut or overlap; iterate to a fixed point.
  bool deferred = false;
  for (bool moved = true; moved;) {
    moved = false;
    for (const EdgeOutage& o : config_.outages) {
      if (t >= o.from && t < o.until) {
        t = o.until;
        moved = true;
        deferred = true;
      }
    }
  }
  if (deferred) ++stats_.deferred;
  return t + latency_draw();
}

std::optional<Tick> EdgeChannel::lossy_delivery_at(Tick send_t) {
  ++stats_.gossip_sent;
  if (config_.down_at(send_t)) {
    ++stats_.gossip_dropped;
    return std::nullopt;
  }
  bool lost = false;
  if (config_.burst_loss_enabled()) {
    const double p_loss = ge_bad_ ? config_.ge_loss_bad : config_.ge_loss_good;
    lost = rng_.chance(p_loss);
    // Advance the Markov chain once per packet, after the loss draw.
    if (ge_bad_) {
      if (rng_.chance(config_.ge_p_bad_to_good)) ge_bad_ = false;
    } else {
      if (rng_.chance(config_.ge_p_good_to_bad)) ge_bad_ = true;
    }
  }
  if (lost) {
    ++stats_.gossip_dropped;
    return std::nullopt;
  }
  return send_t + latency_draw();
}

}  // namespace nwade::net
