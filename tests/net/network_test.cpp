// DES kernel + network: ordering, latency, radius, loss, accounting.
#include "net/network.h"

#include <gtest/gtest.h>

#include <vector>

namespace nwade::net {
namespace {

struct TestMessage : Message {
  explicit TestMessage(std::string k = "test", std::size_t size = 100)
      : kind_(std::move(k)), size_(size) {}
  std::string kind() const override { return kind_; }
  std::size_t wire_size() const override { return size_; }
  std::string kind_;
  std::size_t size_;
};

class TestNode : public Node {
 public:
  TestNode(NodeId id, geom::Vec2 pos) : id_(id), pos_(pos) {}
  NodeId node_id() const override { return id_; }
  geom::Vec2 position() const override { return pos_; }
  void on_message(const Envelope& env) override { received.push_back(env); }

  void move_to(geom::Vec2 p) { pos_ = p; }

  std::vector<Envelope> received;

 private:
  NodeId id_;
  geom::Vec2 pos_;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkConfig cfg_;
  SimClock clock_;
  EventQueue queue_;
};

TEST_F(NetworkTest, EventQueueOrdersByTime) {
  std::vector<int> order;
  queue_.schedule_at(30, [&] { order.push_back(3); });
  queue_.schedule_at(10, [&] { order.push_back(1); });
  queue_.schedule_at(20, [&] { order.push_back(2); });
  queue_.run_until(100, clock_);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock_.now(), 100);
}

TEST_F(NetworkTest, EventQueueStableAtSameTick) {
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue_.schedule_at(10, [&order, i] { order.push_back(i); });
  }
  queue_.run_until(10, clock_);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(NetworkTest, EventsScheduledDuringRunExecuteIfInRange) {
  std::vector<int> order;
  queue_.schedule_at(10, [&] {
    order.push_back(1);
    queue_.schedule_at(20, [&] { order.push_back(2); });
    queue_.schedule_at(200, [&] { order.push_back(99); });
  });
  queue_.run_until(100, clock_);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(queue_.next_time(), 200);
}

TEST_F(NetworkTest, UnicastDeliversWithLatency) {
  Network net(queue_, clock_, cfg_);
  TestNode a(NodeId{1}, {0, 0}), b(NodeId{2}, {100, 0});
  net.add_node(&a);
  net.add_node(&b);
  net.unicast(NodeId{1}, NodeId{2}, std::make_shared<TestMessage>());
  EXPECT_TRUE(b.received.empty());
  queue_.run_until(29, clock_);
  EXPECT_TRUE(b.received.empty());
  queue_.run_until(30, clock_);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].from, NodeId{1});
  EXPECT_EQ(b.received[0].sent_at, 0);
  EXPECT_FALSE(b.received[0].broadcast);
}

TEST_F(NetworkTest, OutOfRangeUnicastDropped) {
  Network net(queue_, clock_, cfg_);
  TestNode a(NodeId{1}, {0, 0}), b(NodeId{2}, {10000, 0});
  net.add_node(&a);
  net.add_node(&b);
  net.unicast(NodeId{1}, NodeId{2}, std::make_shared<TestMessage>());
  queue_.run_until(1000, clock_);
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.stats().packets_out_of_range, 1u);
  EXPECT_EQ(net.stats().packets_sent, 0u);
}

TEST_F(NetworkTest, BroadcastReachesOnlyNodesInRange) {
  Network net(queue_, clock_, cfg_);
  TestNode src(NodeId{1}, {0, 0});
  TestNode near1(NodeId{2}, {100, 0}), near2(NodeId{3}, {0, 400});
  TestNode far(NodeId{4}, {5000, 0});
  for (TestNode* n : {&src, &near1, &near2, &far}) net.add_node(n);
  net.broadcast(NodeId{1}, std::make_shared<TestMessage>());
  queue_.run_until(100, clock_);
  EXPECT_EQ(near1.received.size(), 1u);
  EXPECT_EQ(near2.received.size(), 1u);
  EXPECT_TRUE(far.received.empty());
  EXPECT_TRUE(src.received.empty());  // no self-delivery
  EXPECT_TRUE(near1.received[0].broadcast);
}

TEST_F(NetworkTest, DeregisteredReceiverMissesInFlight) {
  Network net(queue_, clock_, cfg_);
  TestNode a(NodeId{1}, {0, 0}), b(NodeId{2}, {10, 0});
  net.add_node(&a);
  net.add_node(&b);
  net.unicast(NodeId{1}, NodeId{2}, std::make_shared<TestMessage>());
  net.remove_node(NodeId{2});  // leaves before delivery
  queue_.run_until(100, clock_);
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.stats().packets_delivered, 0u);
}

TEST_F(NetworkTest, LossDropsSomePackets) {
  cfg_.loss_probability = 0.5;
  cfg_.seed = 9;
  Network net(queue_, clock_, cfg_);
  TestNode a(NodeId{1}, {0, 0}), b(NodeId{2}, {10, 0});
  net.add_node(&a);
  net.add_node(&b);
  for (int i = 0; i < 200; ++i) {
    net.unicast(NodeId{1}, NodeId{2}, std::make_shared<TestMessage>());
  }
  queue_.run_until(1000, clock_);
  EXPECT_GT(net.stats().packets_dropped, 50u);
  EXPECT_GT(b.received.size(), 50u);
  EXPECT_EQ(net.stats().packets_dropped + b.received.size(), 200u);
}

TEST_F(NetworkTest, StatsAccounting) {
  Network net(queue_, clock_, cfg_);
  TestNode a(NodeId{1}, {0, 0}), b(NodeId{2}, {10, 0}), c(NodeId{3}, {20, 0});
  for (TestNode* n : {&a, &b, &c}) net.add_node(n);
  net.unicast(NodeId{1}, NodeId{2}, std::make_shared<TestMessage>("plan", 500));
  net.broadcast(NodeId{1}, std::make_shared<TestMessage>("alert", 50));
  queue_.run_until(100, clock_);
  EXPECT_EQ(net.stats().packets_sent, 3u);  // 1 unicast + 2 broadcast copies
  EXPECT_EQ(net.stats().packets_delivered, 3u);
  EXPECT_EQ(net.stats().bytes_sent, 500u + 2 * 50u);
  EXPECT_EQ(net.stats().packets_by_kind.at("plan"), 1u);
  EXPECT_EQ(net.stats().packets_by_kind.at("alert"), 2u);
}

}  // namespace
}  // namespace nwade::net
