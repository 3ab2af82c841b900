// Minimal protocol-test harness: wires an ImNode and hand-placed VehicleNodes
// to a network and clock, with full control over spawns, roles, and time —
// no arrival process, no attack auto-assignment. Used by the FSM-level and
// algorithm-level protocol tests.
#pragma once

#include <map>
#include <memory>

#include "nwade/im_node.h"
#include "nwade/vehicle_node.h"

namespace nwade::protocol::testing {

class Harness : public SensorProvider {
 public:
  explicit Harness(traffic::IntersectionKind kind = traffic::IntersectionKind::kCross4,
                   ImAttackMode im_mode = ImAttackMode::kNone, Tick im_trigger = 0) {
    traffic::IntersectionConfig icfg;
    icfg.kind = kind;
    intersection_ = std::make_unique<traffic::Intersection>(
        traffic::Intersection::build(icfg));
    network_ = std::make_unique<net::Network>(queue_, clock_, net::NetworkConfig{});
    signer_ = std::make_unique<crypto::HmacSigner>(Bytes{'t', 'e', 's', 't'});

    ImContext ctx;
    ctx.intersection = intersection_.get();
    ctx.config = &config_;
    ctx.network = network_.get();
    ctx.clock = &clock_;
    ctx.queue = &queue_;
    ctx.sensors = this;
    ctx.signer = signer_.get();
    ctx.metrics = &metrics_;
    ctx.malicious_ids = &malicious_;
    im_ = std::make_unique<ImNode>(ctx, ImAttackProfile{im_mode, im_trigger});
    network_->add_node(im_.get());
    im_->start();
  }

  /// Spawns a vehicle on `route` and sends its plan request.
  VehicleNode& spawn(std::uint64_t id, int route,
                     VehicleAttackProfile attack = {}) {
    if (attack.role != VehicleRole::kBenign) malicious_.insert(VehicleId{id});
    VehicleContext ctx;
    ctx.intersection = intersection_.get();
    ctx.config = &config_;
    ctx.network = network_.get();
    ctx.clock = &clock_;
    ctx.sensors = this;
    ctx.im_verifier = signer_->verifier();
    ctx.metrics = &metrics_;
    ctx.malicious_ids = &malicious_;
    auto node = std::make_unique<VehicleNode>(ctx, VehicleId{id}, route,
                                              traffic::VehicleTraits{}, clock_.now(),
                                              attack);
    VehicleNode& ref = *node;
    network_->add_node(node.get());
    node->start();
    vehicles_[VehicleId{id}] = std::move(node);
    return ref;
  }

  /// Advances simulated time, stepping physics every 100 ms and running the
  /// watch for every vehicle each 200 ms.
  void run_until(Tick t) {
    while (now_ < t) {
      now_ += 100;
      queue_.run_until(now_, clock_);
      for (auto& [id, v] : vehicles_) {
        if (v->exited()) continue;
        v->step(now_, 100);
        if (v->exited()) network_->remove_node(v->node_id());
      }
      for (auto& [id, v] : vehicles_) {
        if (v->exited() || now_ % 200 != 0 || !v->watch_due(now_)) continue;
        v->watch_scan(now_, watch_);
        v->watch_emit(now_, watch_);
      }
    }
  }

  // --- SensorProvider -----------------------------------------------------
  void sense_around_into(geom::Vec2 center, double radius, VehicleId exclude,
                         std::vector<Observation>& out) const override {
    out.clear();
    for (const auto& [id, v] : vehicles_) {
      if (id == exclude || v->exited() || !v->has_plan()) continue;
      if (v->position().distance_to(center) > radius) continue;
      out.push_back(Observation{id, v->traits(), v->ground_truth()});
    }
  }
  std::optional<Observation> observe(VehicleId id) const override {
    const auto it = vehicles_.find(id);
    if (it == vehicles_.end() || it->second->exited()) return std::nullopt;
    return Observation{id, it->second->traits(), it->second->ground_truth()};
  }

  NwadeConfig& config() { return config_; }
  Metrics& metrics() { return metrics_; }
  ImNode& im() { return *im_; }
  net::Network& network() { return *network_; }
  const traffic::Intersection& intersection() const { return *intersection_; }
  VehicleNode& vehicle(std::uint64_t id) { return *vehicles_.at(VehicleId{id}); }
  Tick now() const { return now_; }
  crypto::Signer& signer() { return *signer_; }

 private:
  NwadeConfig config_;
  Metrics metrics_;
  std::set<VehicleId> malicious_;
  std::unique_ptr<traffic::Intersection> intersection_;
  net::SimClock clock_;
  net::EventQueue queue_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<crypto::Signer> signer_;
  std::unique_ptr<ImNode> im_;
  std::map<VehicleId, std::unique_ptr<VehicleNode>> vehicles_;
  WatchScratch watch_;  ///< reused by every watch, as World reuses its own
  Tick now_{0};
};

}  // namespace nwade::protocol::testing
