#include "net/network.h"

#include <algorithm>
#include <cassert>

namespace nwade::net {

namespace {
/// Padding added to grid-backed broadcast queries. The snapshot can be up to
/// one physics step old (broadcasts fired mid-step see vehicles that moved
/// after the snapshot), so the pad must exceed the farthest a vehicle can
/// travel in one step — ~2.3 m at 50 mph and the 100 ms default step. 60 m
/// covers steps beyond a second with a wide margin and costs only a slightly
/// larger candidate set; the exact range check always uses live positions.
constexpr double kGridSlackM = 60.0;
}  // namespace

Network::Network(EventQueue& queue, SimClock& clock, NetworkConfig config)
    : queue_(queue), clock_(clock), config_(std::move(config)), rng_(config_.seed) {
  registry_ = config_.registry;
  if (registry_ == nullptr) {
    owned_registry_ = std::make_unique<util::telemetry::Registry>();
    registry_ = owned_registry_.get();
  }
  tracer_ = config_.tracer;
  sent_ = registry_->counter("net.packets.sent");
  delivered_ = registry_->counter("net.packets.delivered");
  dropped_ = registry_->counter("net.packets.dropped");
  out_of_range_ = registry_->counter("net.packets.out_of_range");
  duplicated_ = registry_->counter("net.packets.duplicated");
  lost_outage_ = registry_->counter("net.packets.lost_outage");
  bytes_sent_ = registry_->counter("net.bytes.sent");
  nodes_gauge_ = registry_->gauge("net.nodes");
}

Network::KindHandles& Network::kind_handles(const std::string& kind) {
  const auto it = kind_handles_.find(kind);
  if (it != kind_handles_.end()) return it->second;
  KindHandles h;
  h.packets = registry_->counter("net.packets_by_kind." + kind);
  h.bytes = registry_->counter("net.bytes_by_kind." + kind);
  h.dropped = registry_->counter("net.dropped_by_kind." + kind);
  h.duplicated = registry_->counter("net.duplicated_by_kind." + kind);
  h.latency_ms = registry_->histogram(
      "net.latency_ms." + kind,
      util::telemetry::HistogramBuckets::exponential_ms(512));
  return kind_handles_.emplace(kind, h).first->second;
}

void Network::add_node(Node* node) {
  assert(node != nullptr);
  const NodeId id = node->node_id();
  nodes_[id] = node;
  const auto it = std::lower_bound(sorted_ids_.begin(), sorted_ids_.end(), id);
  if (it == sorted_ids_.end() || *it != id) sorted_ids_.insert(it, id);
  ++membership_epoch_;
  nodes_gauge_.set(static_cast<std::int64_t>(nodes_.size()));
}

void Network::remove_node(NodeId id) {
  nodes_.erase(id);
  const auto it = std::lower_bound(sorted_ids_.begin(), sorted_ids_.end(), id);
  if (it != sorted_ids_.end() && *it == id) sorted_ids_.erase(it);
  ++membership_epoch_;
  nodes_gauge_.set(static_cast<std::int64_t>(nodes_.size()));
}

bool Network::in_range(NodeId a, NodeId b) const {
  const auto ita = nodes_.find(a);
  const auto itb = nodes_.find(b);
  if (ita == nodes_.end() || itb == nodes_.end()) return false;
  return ita->second->position().distance_to(itb->second->position()) <=
         config_.comm_radius_m;
}

void Network::count_drop(const Envelope& env) {
  kind_handles(env.msg->kind()).dropped.inc();
}

bool Network::packet_lost(const Envelope& env) {
  if (config_.loss_probability > 0 && rng_.chance(config_.loss_probability)) {
    return true;
  }
  const FaultProfile& fault = config_.fault;
  if (fault.burst_loss_enabled()) {
    // Advance the Gilbert–Elliott chain one step per packet copy, then apply
    // the state's loss probability.
    if (ge_bad_) {
      if (rng_.chance(fault.ge_p_bad_to_good)) ge_bad_ = false;
    } else {
      if (rng_.chance(fault.ge_p_good_to_bad)) ge_bad_ = true;
    }
    const double p = ge_bad_ ? fault.ge_loss_bad : fault.ge_loss_good;
    if (p > 0 && rng_.chance(p)) return true;
  }
  for (const LinkRule& rule : fault.link_rules) {
    const Tick now = clock_.now();
    if (now < rule.active_from || now >= rule.active_until) continue;
    if (rule.from.valid() && rule.from != env.from) continue;
    if (rule.to.valid() && rule.to != env.to) continue;
    if (!rule.kind.empty() && rule.kind != env.msg->kind()) continue;
    if (rng_.chance(rule.drop_probability)) return true;
  }
  return false;
}

void Network::schedule_delivery(Envelope env, Tick arrival,
                                util::telemetry::Histogram latency_ms) {
  // The envelope is parked in pending_ rather than captured in the closure so
  // a checkpoint can serialize every in-flight copy; the closure carries only
  // the delivery id.
  const std::uint64_t id = next_delivery_id_++;
  const std::uint64_t seq =
      queue_.schedule_at(arrival, [this, id] { deliver_pending(id); });
  pending_.emplace(id, Pending{seq, arrival, std::move(env), latency_ms});
}

void Network::deliver_pending(std::uint64_t id) {
  const auto pit = pending_.find(id);
  if (pit == pending_.end()) return;
  const Envelope env = std::move(pit->second.env);
  util::telemetry::Histogram latency_ms = pit->second.latency_ms;
  pending_.erase(pit);

  // The receiver may have left the intersection (deregistered) in flight.
  const auto it = nodes_.find(env.to);
  if (it == nodes_.end()) return;
  if (config_.fault.node_down(env.to, clock_.now())) {
    lost_outage_.inc();
    count_drop(env);
    if (tracer_ != nullptr && util::trace::tracing_active()) {
      tracer_->instant("net", "outage_loss", clock_.now(), "node",
                       static_cast<std::int64_t>(env.to.value));
    }
    return;
  }
  // Jitter lets a receiver drift out of range while the packet is in
  // flight; range is therefore re-checked against the emission origin at
  // delivery time, not only at send time.
  if (it->second->position().distance_to(env.origin) > config_.comm_radius_m) {
    out_of_range_.inc();
    return;
  }
  delivered_.inc();
  latency_ms.observe(clock_.now() - env.sent_at);
  it->second->on_message(env);
}

void Network::deliver_later(Envelope env) {
  const FaultProfile& fault = config_.fault;
  if (fault.node_down(env.from, clock_.now())) {
    // A dark sender emits nothing; the copy never reaches the medium.
    lost_outage_.inc();
    count_drop(env);
    if (tracer_ != nullptr && util::trace::tracing_active()) {
      tracer_->instant("net", "outage_loss", clock_.now(), "node",
                       static_cast<std::int64_t>(env.from.value));
    }
    return;
  }
  KindHandles& kind = kind_handles(env.msg->kind());
  sent_.inc();
  bytes_sent_.inc(static_cast<std::int64_t>(env.msg->wire_size()));
  kind.packets.inc();
  kind.bytes.inc(static_cast<std::int64_t>(env.msg->wire_size()));

  if (packet_lost(env)) {
    dropped_.inc();
    count_drop(env);
    if (tracer_ != nullptr && util::trace::tracing_active()) {
      tracer_->instant("net", "packet_drop", clock_.now(), "to",
                       static_cast<std::int64_t>(env.to.value));
    }
    return;
  }
  // Randomness is only consumed when a feature is on, so zero-fault profiles
  // reproduce pre-fault-layer runs bit for bit. All draws (arrival jitter,
  // dup chance, dup jitter) happen before the envelope moves into the queue,
  // preserving the seed draw order exactly.
  Tick arrival = clock_.now() + config_.latency_ms;
  if (fault.jitter_ms > 0) arrival += rng_.uniform_int(0, fault.jitter_ms);

  if (fault.duplicate_probability > 0 && rng_.chance(fault.duplicate_probability)) {
    duplicated_.inc();
    kind.duplicated.inc();
    if (tracer_ != nullptr && util::trace::tracing_active()) {
      tracer_->instant("net", "packet_dup", clock_.now(), "to",
                       static_cast<std::int64_t>(env.to.value));
    }
    Tick dup_arrival = clock_.now() + config_.latency_ms;
    if (fault.jitter_ms > 0) dup_arrival += rng_.uniform_int(0, fault.jitter_ms);
    schedule_delivery(env, arrival, kind.latency_ms);  // original first, as before
    schedule_delivery(std::move(env), dup_arrival, kind.latency_ms);
    return;
  }
  schedule_delivery(std::move(env), arrival, kind.latency_ms);
}

void Network::unicast(NodeId from, NodeId to, MessagePtr msg) {
  assert(msg != nullptr);
  const auto sender = nodes_.find(from);
  if (sender == nodes_.end() || !nodes_.contains(to)) return;
  if (!in_range(from, to)) {
    out_of_range_.inc();
    return;
  }
  const geom::Vec2 origin = sender->second->position();
  deliver_later(Envelope{from, to, /*broadcast=*/false, clock_.now(),
                         std::move(msg), origin});
}

void Network::rebuild_grid() {
  grid_.clear();
  grid_ids_.clear();
  grid_.reserve(nodes_.size());
  grid_ids_.reserve(nodes_.size());
  for (const NodeId id : sorted_ids_) {
    grid_.insert(nodes_.find(id)->second->position());
    grid_ids_.push_back(id);
  }
  grid_built_at_ = clock_.now();
  grid_epoch_ = membership_epoch_;
}

void Network::collect_receivers(NodeId from, geom::Vec2 origin,
                                std::vector<NodeId>& out) {
  // Receivers enumerate in ascending id order — a pure function of current
  // membership, so a checkpoint-restored network (whose hash table was
  // rebuilt with a different insert/erase history) reproduces the exact
  // enumeration, and with it which packet copies the loss model eats and
  // every envelope's queue seq. The grid is used as a candidate pre-filter
  // inside that canonical order rather than as the iteration itself, so the
  // receiver set and its order equal a range check over every node.
  if (grid_built_at_ != clock_.now() || grid_epoch_ != membership_epoch_) {
    rebuild_grid();
  }
  grid_scratch_.clear();
  grid_.query_candidates(origin, config_.comm_radius_m + kGridSlackM,
                         grid_scratch_);
  // Dense regime: the padded disc covers every node, so the filter can
  // reject nothing — skip building the candidate set and run the plain scan
  // (identical result either way; this is purely a cost call).
  const bool indexed = grid_scratch_.size() != grid_ids_.size();
  if (indexed) {
    candidates_.clear();
    for (const std::size_t idx : grid_scratch_) {
      candidates_.insert(grid_ids_[idx]);
    }
  }
  out.clear();
  for (const NodeId id : sorted_ids_) {
    if (id == from) continue;
    // Superset contract: a node the padded grid query misses moved at most
    // kGridSlackM since the snapshot, so its live position is certainly out
    // of range — the exact check below could only have rejected it.
    if (indexed && !candidates_.contains(id)) {
      out_of_range_.inc();  // same accounting as unicast
      continue;
    }
    if (nodes_.find(id)->second->position().distance_to(origin) >
        config_.comm_radius_m) {
      out_of_range_.inc();  // same accounting as unicast
      continue;
    }
    out.push_back(id);
  }
}

const NetworkStats& Network::stats() const {
  NetworkStats& s = stats_view_;
  s.packets_sent = static_cast<std::uint64_t>(sent_.value());
  s.packets_delivered = static_cast<std::uint64_t>(delivered_.value());
  s.packets_dropped = static_cast<std::uint64_t>(dropped_.value());
  s.packets_out_of_range = static_cast<std::uint64_t>(out_of_range_.value());
  s.packets_duplicated = static_cast<std::uint64_t>(duplicated_.value());
  s.packets_lost_outage = static_cast<std::uint64_t>(lost_outage_.value());
  s.bytes_sent = static_cast<std::uint64_t>(bytes_sent_.value());
  s.packets_by_kind.clear();
  s.bytes_by_kind.clear();
  s.dropped_by_kind.clear();
  for (const auto& [kind, h] : kind_handles_) {
    // Per-kind entries must exist exactly when the retired hand-rolled maps
    // would have created them: packets and bytes were written together at
    // the send site (bytes possibly 0), drops only on a drop. trace_golden
    // digests fold these maps, so this shape is load-bearing.
    const std::int64_t packets = h.packets.value();
    if (packets > 0) {
      s.packets_by_kind[kind] = static_cast<std::uint64_t>(packets);
      s.bytes_by_kind[kind] = static_cast<std::uint64_t>(h.bytes.value());
    }
    const std::int64_t dropped = h.dropped.value();
    if (dropped > 0) {
      s.dropped_by_kind[kind] = static_cast<std::uint64_t>(dropped);
    }
  }
  return s;
}

void Network::reset_stats() {
  sent_.reset();
  delivered_.reset();
  dropped_.reset();
  out_of_range_.reset();
  duplicated_.reset();
  lost_outage_.reset();
  bytes_sent_.reset();
  for (auto& [kind, h] : kind_handles_) {
    h.packets.reset();
    h.bytes.reset();
    h.dropped.reset();
    h.duplicated.reset();
    h.latency_ms.reset();
  }
  stats_view_ = NetworkStats{};
}

void Network::checkpoint_save(ByteWriter& w, const MessageEncoder& encode) const {
  const Rng::State rng = rng_.state();
  for (const std::uint64_t s : rng.s) w.u64(s);
  w.u64(rng.seed);
  w.u8(ge_bad_ ? 1 : 0);

  // Kinds seen so far, sorted: stats() only reports kinds present in
  // kind_handles_, so a resumed network must re-create the exact handle set
  // even for kinds with no packet currently in flight.
  std::vector<std::string> kinds;
  kinds.reserve(kind_handles_.size());
  for (const auto& [kind, h] : kind_handles_) kinds.push_back(kind);
  std::sort(kinds.begin(), kinds.end());
  w.u32(static_cast<std::uint32_t>(kinds.size()));
  for (const std::string& kind : kinds) w.str(kind);

  w.u32(static_cast<std::uint32_t>(pending_.size()));
  for (const auto& [id, p] : pending_) {  // ascending id == scheduling order
    w.u64(p.queue_seq);
    w.i64(p.arrival);
    w.u64(p.env.from.value);
    w.u64(p.env.to.value);
    w.u8(p.env.broadcast ? 1 : 0);
    w.i64(p.env.sent_at);
    w.f64(p.env.origin.x);
    w.f64(p.env.origin.y);
    encode(w, *p.env.msg);
  }
}

bool Network::checkpoint_restore(ByteReader& r, const MessageDecoder& decode) {
  Rng::State rng;
  for (std::uint64_t& s : rng.s) s = r.u64();
  rng.seed = r.u64();
  rng_.set_state(rng);
  ge_bad_ = r.u8() != 0;

  const std::uint32_t n_kinds = r.u32();
  if (n_kinds > r.remaining()) return false;  // >= 1 byte per entry
  for (std::uint32_t i = 0; i < n_kinds; ++i) {
    const std::string kind = r.str();
    if (!r.ok()) return false;
    kind_handles(kind);
  }

  const std::uint32_t n_pending = r.u32();
  if (n_pending > r.remaining()) return false;
  for (std::uint32_t i = 0; i < n_pending; ++i) {
    Pending p;
    p.queue_seq = r.u64();
    p.arrival = r.i64();
    Envelope env;
    env.from = NodeId{r.u64()};
    env.to = NodeId{r.u64()};
    env.broadcast = r.u8() != 0;
    env.sent_at = r.i64();
    env.origin.x = r.f64();
    env.origin.y = r.f64();
    env.msg = decode(r);
    if (!r.ok() || env.msg == nullptr) return false;
    p.latency_ms = kind_handles(env.msg->kind()).latency_ms;
    p.env = std::move(env);
    const std::uint64_t id = next_delivery_id_++;
    queue_.schedule_at_seq(p.arrival, p.queue_seq,
                           [this, id] { deliver_pending(id); });
    pending_.emplace(id, std::move(p));
  }
  return r.ok();
}

void Network::broadcast(NodeId from, MessagePtr msg) {
  assert(msg != nullptr);
  const auto sender = nodes_.find(from);
  if (sender == nodes_.end()) return;
  const geom::Vec2 origin = sender->second->position();
  collect_receivers(from, origin, receivers_);
  for (const NodeId id : receivers_) {
    // Every receiver's envelope shares the one message object (refcount
    // bump, no copy of the serialized payload).
    deliver_later(Envelope{from, id, /*broadcast=*/true, clock_.now(), msg, origin});
  }
}

}  // namespace nwade::net
