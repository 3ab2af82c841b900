// Simulated V2V/V2I network.
//
// Models the paper's communication assumptions directly: a fixed propagation
// latency (default 30 ms), a maximum communication radius (default 1500 ft =
// 457 m), optional random packet loss, and per-message-kind packet accounting
// (the data behind Fig. 7's network-load experiment). On top of that sits an
// optional fault-injection layer (net/fault.h): bursty Gilbert–Elliott loss,
// latency jitter (reordering), duplication, per-link drop rules, and node
// outages — all off by default.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "geom/spatial_hash.h"
#include "geom/vec2.h"
#include "net/clock.h"
#include "net/fault.h"
#include "util/archive.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/trace.h"
#include "util/types.h"

namespace nwade::net {

/// Base class for anything sent over the simulated network. Concrete message
/// types live in the protocol layer; the network only needs a kind string for
/// accounting and an approximate wire size.
class Message {
 public:
  virtual ~Message() = default;
  /// Stable message-kind label, e.g. "block_broadcast".
  virtual std::string kind() const = 0;
  /// Approximate serialized size in bytes (for load accounting).
  virtual std::size_t wire_size() const = 0;
};

using MessagePtr = std::shared_ptr<const Message>;

/// A delivered message with its routing metadata.
struct Envelope {
  NodeId from;
  NodeId to;  ///< receiver; for broadcasts, the specific recipient
  bool broadcast{false};
  Tick sent_at{0};
  MessagePtr msg;
  /// Sender position at emission time; the delivery-time range check measures
  /// the receiver's distance from here (last for aggregate-init compatibility).
  geom::Vec2 origin{};
};

/// A network endpoint (vehicle or intersection manager).
class Node {
 public:
  virtual ~Node() = default;
  virtual NodeId node_id() const = 0;
  /// Current physical position; used for radius checks.
  virtual geom::Vec2 position() const = 0;
  virtual void on_message(const Envelope& env) = 0;
};

/// Network configuration (paper defaults).
struct NetworkConfig {
  Duration latency_ms{30};
  double comm_radius_m{feet_to_meters(1500.0)};
  /// Uniform (memoryless) per-packet loss; the paper's original loss knob.
  /// For bursty loss, jitter, duplication, link rules, and outages see
  /// `fault` (docs/FAULT_MODEL.md) — both layers compose.
  double loss_probability{0.0};
  std::uint64_t seed{1};
  /// Fault-injection profile; all features default to off.
  FaultProfile fault;
  /// Metrics registry backing the traffic accounting (net.* counters and
  /// latency histograms). nullptr = the network owns a private registry, so
  /// standalone construction keeps working and stats() is always live.
  util::telemetry::Registry* registry{nullptr};
  /// Event tracer for the fault-injection timeline (drop/outage/duplicate
  /// instants). nullptr or disabled = zero-cost skip.
  util::trace::Tracer* tracer{nullptr};
};

/// Cumulative traffic statistics; one packet = one (sender, receiver) copy.
/// Since the telemetry layer landed this is a *view* rebuilt on demand from
/// the registry-backed counters (`net.*`), value-identical to the old
/// hand-rolled accounting — per-kind entries appear exactly when the old
/// code would have created them, which is what keeps trace_golden byte-stable.
struct NetworkStats {
  std::uint64_t packets_sent{0};      ///< receiver copies handed to the medium
  std::uint64_t packets_delivered{0};
  std::uint64_t packets_dropped{0};   ///< lost to loss models or link rules
  std::uint64_t packets_out_of_range{0};  ///< at send or at delivery time
  std::uint64_t packets_duplicated{0};    ///< extra copies injected
  std::uint64_t packets_lost_outage{0};   ///< sender or receiver was dark
  std::uint64_t bytes_sent{0};
  std::unordered_map<std::string, std::uint64_t> packets_by_kind;
  std::unordered_map<std::string, std::uint64_t> bytes_by_kind;
  /// Lost copies per kind (loss models, link rules, and outages combined);
  /// lets the fault benches attribute which message classes the channel eats.
  std::unordered_map<std::string, std::uint64_t> dropped_by_kind;
};

/// Simulated broadcast medium with latency, radius, and loss.
class Network {
 public:
  Network(EventQueue& queue, SimClock& clock, NetworkConfig config);

  void add_node(Node* node);
  void remove_node(NodeId id);
  bool has_node(NodeId id) const { return nodes_.contains(id); }

  /// Sends to one receiver. Silently dropped if out of range or lost.
  void unicast(NodeId from, NodeId to, MessagePtr msg);

  /// Sends to every registered node within the communication radius of the
  /// sender (excluding the sender itself).
  void broadcast(NodeId from, MessagePtr msg);

  /// Rebuilds the stats view from the registry counters and returns it.
  /// The reference stays valid until the next stats() call.
  const NetworkStats& stats() const;

  const NetworkConfig& config() const { return config_; }

  // --- checkpoint/restore (sim/checkpoint) ----------------------------------
  //
  // The network layer cannot name protocol message types, so the caller
  // supplies the codec: `encode` writes one message (kind + payload),
  // `decode` reads one back or returns nullptr on malformed input.
  struct MessageCodec {
    void (*encode)(WriteArchive&, const Message&);
    MessagePtr (*decode)(ReadArchive&);
  };

  /// Field list of the channel state a resumed run needs to stay bit-exact:
  /// the RNG position, the Gilbert–Elliott state, the set of message kinds
  /// already seen (stats() shape), and every in-flight delivery with its
  /// exact event-queue (when, seq) coordinates. A read restores onto a
  /// freshly constructed network with the same config and re-schedules each
  /// delivery at its original queue position (EventQueue::schedule_at_seq).
  template <class Ar, class Self>
  static void io(Ar& ar, Self& net, const MessageCodec& codec);

  /// Number of in-flight deliveries (tests/diagnostics).
  std::size_t pending_deliveries() const { return pending_.size(); }

 private:
  /// Cached per-kind counter handles; looked up once per kind, then every
  /// packet copy of that kind is a few relaxed fetch_adds.
  struct KindHandles {
    util::telemetry::Counter packets;
    util::telemetry::Counter bytes;
    util::telemetry::Counter dropped;
    util::telemetry::Counter duplicated;
    util::telemetry::Histogram latency_ms;
  };
  KindHandles& kind_handles(const std::string& kind);

  /// One in-flight packet copy, parked here (not in the event closure) so a
  /// checkpoint can serialize it. Keyed by a network-local delivery id whose
  /// ascending order matches event-queue sequence order.
  struct Pending {
    std::uint64_t queue_seq{0};
    Tick arrival{0};
    Envelope env;
    util::telemetry::Histogram latency_ms;
  };

  void deliver_later(Envelope env);
  /// Runs the delivery parked under `id` (outage check, live range check,
  /// receiver callback) and retires the entry.
  void deliver_pending(std::uint64_t id);
  bool in_range(NodeId a, NodeId b) const;
  /// One loss decision for a packet copy: uniform loss, then the
  /// Gilbert–Elliott chain (advanced one step per copy), then link rules.
  bool packet_lost(const Envelope& env);
  void count_drop(const Envelope& env);
  /// Moves the envelope into the event queue (one shared_ptr refcount bump,
  /// no payload copy): fan-out messages are immutable once sent, so every
  /// receiver's envelope aliases the same serialized message object.
  void schedule_delivery(Envelope env, Tick arrival,
                        util::telemetry::Histogram latency_ms);
  /// Fills `out` with the ids of every registered node (sender excluded)
  /// whose *current* position is within the communication radius of
  /// `origin`, ascending. Grid-accelerated unless every node is a candidate.
  void collect_receivers(NodeId from, geom::Vec2 origin,
                         std::vector<NodeId>& out);
  void rebuild_grid();

  EventQueue& queue_;
  SimClock& clock_;
  NetworkConfig config_;
  Rng rng_;
  std::unordered_map<NodeId, Node*> nodes_;
  /// Current membership in ascending id order. Broadcast receivers are
  /// enumerated through this vector, NOT through nodes_: unordered_map
  /// iteration order is a function of the table's insert/erase/rehash
  /// history, which a checkpoint-restored network cannot replay — and under
  /// a lossy channel the enumeration order decides which receiver copies the
  /// per-packet loss draws eat, so it must be a pure function of membership.
  std::vector<NodeId> sorted_ids_;

  /// Private registry used when the config injects none (standalone nets in
  /// tests/benches). Must precede the handles below.
  std::unique_ptr<util::telemetry::Registry> owned_registry_;
  util::telemetry::Registry* registry_{nullptr};
  util::trace::Tracer* tracer_{nullptr};
  util::telemetry::Counter sent_;
  util::telemetry::Counter delivered_;
  util::telemetry::Counter dropped_;
  util::telemetry::Counter out_of_range_;
  util::telemetry::Counter duplicated_;
  util::telemetry::Counter lost_outage_;
  util::telemetry::Counter bytes_sent_;
  util::telemetry::Gauge nodes_gauge_;
  std::unordered_map<std::string, KindHandles> kind_handles_;
  mutable NetworkStats stats_view_;

  /// In-flight deliveries, ascending delivery id == scheduling order.
  std::map<std::uint64_t, Pending> pending_;
  std::uint64_t next_delivery_id_{0};

  bool ge_bad_{false};  ///< Gilbert–Elliott channel state

  // Broadcast-scan index: node positions snapshotted at most once per
  // (tick, membership change). Queries pad the radius by kGridSlackM, so a
  // node that moved since the snapshot (mid-step broadcasts) still shows up
  // as a candidate; the exact range check always runs on live positions.
  geom::SpatialHash grid_{64.0};
  std::vector<NodeId> receivers_;         ///< reused broadcast receiver list
  std::vector<NodeId> grid_ids_;          ///< grid index -> node id
  std::vector<std::size_t> grid_scratch_; ///< reused candidate buffer
  std::unordered_set<NodeId> candidates_; ///< reused candidate id set
  Tick grid_built_at_{-1};
  std::uint64_t membership_epoch_{0};     ///< bumped by add/remove_node
  std::uint64_t grid_epoch_{~0ULL};       ///< membership epoch at build time
};

}  // namespace nwade::net
