// The container's peer table and the receipts that read it:
//   * PeerTable keeps ids ascending and its records at stable addresses
//     across inserts and erases of other ids
//   * known_peers() is ascending whatever the discovery order, also
//     after peers are lost and rediscovered
//   * a reliable stream's retransmissions, which resolve their peer at
//     send time, survive other peers joining and leaving the table
//   * the one-lookup heartbeat receipt only refreshes a known peer in
//     the same life; every other heartbeat takes the full path (stale
//     incarnation ignored, newer incarnation resets the peer, forgotten
//     peer reintroduced, unknown sender introduced)
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "encoding/typed.h"
#include "middleware/domain.h"

namespace marea::mw {
namespace {

struct Seq {
  int32_t n = 0;
};

}  // namespace
}  // namespace marea::mw

MAREA_REFLECT(marea::mw::Seq, n)

namespace marea::mw {
namespace {

struct Record {
  proto::ContainerId id = proto::kInvalidContainer;
  int payload = 0;
};

TEST(PeerTableTest, IdsStayAscendingAndRecordsStayPut) {
  PeerTable<Record> table;
  auto [held, inserted] = table.try_emplace(500);
  ASSERT_TRUE(inserted);
  held->payload = 77;
  // Inserts on both sides of the held record, then erases around it.
  for (proto::ContainerId id : {900u, 3u, 501u, 499u, 64u, 1000u, 1u}) {
    table.try_emplace(id).first->payload = static_cast<int>(id);
  }
  for (proto::ContainerId id : {499u, 1u, 900u}) table.erase(id);
  table.erase(12345);  // absent: no-op

  EXPECT_EQ(table.find(500), held);
  EXPECT_EQ(held->id, 500u);
  EXPECT_EQ(held->payload, 77);
  auto again = table.try_emplace(500);
  EXPECT_FALSE(again.second);
  EXPECT_EQ(again.first, held);

  std::vector<proto::ContainerId> ids;
  for (const auto& r : table) ids.push_back(r->id);
  EXPECT_EQ(ids, (std::vector<proto::ContainerId>{3, 64, 500, 501, 1000}));
  EXPECT_EQ(table.size(), 5u);
  EXPECT_EQ(table.find(499), nullptr);
  EXPECT_EQ(table.find(2000), nullptr);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(500), nullptr);
}

// Fake containers speak to node 0 from unused ports on node 1's host;
// a handler bound there records what node 0 sends back to each.
class FakePeers {
 public:
  explicit FakePeers(SimDomain& domain) : domain_(domain) {}

  sim::Endpoint endpoint(proto::ContainerId id) const {
    return sim::Endpoint{domain_.node_id(1), port_of(id)};
  }
  transport::Address address(proto::ContainerId id) const {
    return transport::Address{domain_.node_id(1), port_of(id)};
  }

  void listen(proto::ContainerId id) {
    ASSERT_TRUE(domain_.network()
                    .bind(endpoint(id),
                          [this, id](sim::Endpoint, BytesView data) {
                            BytesView payload;
                            auto h = proto::open_frame(data, &payload);
                            if (h.ok()) received_[id][h->type]++;
                          })
                    .is_ok());
  }
  int received(proto::ContainerId id, proto::MsgType type) {
    return received_[id][type];
  }

  template <typename Msg>
  void send(proto::ContainerId id, proto::MsgType type, const Msg& msg) {
    Buffer frame = proto::make_frame(type, id, msg);
    (void)domain_.network().send(
        endpoint(id),
        sim::Endpoint{domain_.node_id(0),
                      domain_.container(0).config().data_port},
        as_bytes_view(frame));
  }
  void heartbeat(proto::ContainerId id, uint64_t incarnation) {
    proto::HeartbeatMsg hb;
    hb.incarnation = incarnation;
    hb.seq = ++seq_;
    send(id, proto::MsgType::kHeartbeat, hb);
  }
  void hello(proto::ContainerId id, uint64_t incarnation, uint64_t version,
             const std::string& item) {
    proto::ContainerHelloMsg msg;
    msg.incarnation = incarnation;
    msg.manifest_version = version;
    msg.data_port = port_of(id);
    msg.node_name = "fake";
    proto::ServiceInfo svc;
    svc.name = "svc";
    svc.state = proto::ServiceState::kRunning;
    svc.items.push_back(
        proto::ProvidedItem{proto::ItemKind::kVariable, item, 1, 0, 0});
    msg.services.push_back(svc);
    send(id, proto::MsgType::kContainerHello, msg);
  }

 private:
  static uint16_t port_of(proto::ContainerId id) {
    return static_cast<uint16_t>(6000 + id);
  }
  SimDomain& domain_;
  uint64_t seq_ = 0;
  std::map<proto::ContainerId, std::map<proto::MsgType, int>> received_;
};

bool knows(ServiceContainer& c, proto::ContainerId id) {
  const auto ids = c.known_peers();
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

TEST(PeerTableTest, KnownPeersAscendingAcrossDiscoveryLossAndRediscovery) {
  set_log_level(LogLevel::kError);
  SimDomain domain(91);
  auto& a = domain.add_node("a");
  (void)domain.add_node("b");
  domain.start_all();
  domain.run_for(milliseconds(300));
  FakePeers fakes(domain);

  const std::vector<proto::ContainerId> order = {900, 42, 7, 500, 3, 64};
  for (auto id : order) {
    fakes.heartbeat(id, 1);
    domain.run_for(milliseconds(5));
  }
  auto expect_sorted = [&](std::vector<proto::ContainerId> want) {
    std::sort(want.begin(), want.end());
    EXPECT_EQ(a.known_peers(), want);
    // Addresses come in the same (ascending id) order.
    std::vector<transport::Address> addrs;
    for (auto id : want) {
      addrs.push_back(id == 2 ? transport::Address{domain.node_id(1), 4500}
                              : fakes.address(id));
    }
    EXPECT_EQ(a.known_peer_addresses(), addrs);
  };
  expect_sorted({2, 900, 42, 7, 500, 3, 64});

  // 42 and 500 fall silent and are declared lost; the others keep
  // beating.
  for (int i = 0; i < 8; ++i) {
    for (auto id : {900u, 7u, 3u, 64u}) fakes.heartbeat(id, 1);
    domain.run_for(milliseconds(100));
  }
  expect_sorted({2, 900, 7, 3, 64});

  // Rediscovery, in descending order, reinserts them in place.
  fakes.heartbeat(500, 1);
  domain.run_for(milliseconds(5));
  fakes.heartbeat(42, 1);
  domain.run_for(milliseconds(5));
  expect_sorted({2, 900, 42, 7, 500, 3, 64});
}

class SeqPublisher final : public Service {
 public:
  SeqPublisher() : Service("seqpub") {}
  Status on_start() override {
    auto e = provide_event<Seq>("seq.event");
    if (!e.ok()) return e.status();
    event_ = *e;
    return Status::ok();
  }
  void emit(int n) {
    Seq s;
    s.n = n;
    (void)event_.publish(s);
  }

 private:
  EventHandle event_;
};

class SeqSubscriber final : public Service {
 public:
  SeqSubscriber() : Service("seqsub") {}
  Status on_start() override {
    return subscribe_event<Seq>(
        "seq.event",
        [this](const Seq& s, const EventInfo&) { got.push_back(s.n); });
  }
  std::vector<int> got;
};

TEST(PeerTableTest, RetransmitsFindTheirPeerWhileOthersJoinAndLeave) {
  // The subscriber has the highest id, so every peer that joins or
  // leaves the publisher's table moves the subscriber's index while
  // its link session still has frames to retransmit.
  set_log_level(LogLevel::kError);
  SimDomain domain(92);
  auto& pub_node = domain.add_node("pub");
  auto pub = std::make_unique<SeqPublisher>();
  auto* pub_ptr = pub.get();
  (void)pub_node.add_service(std::move(pub));
  constexpr size_t kChurners = 4;
  for (size_t i = 0; i < kChurners; ++i) {
    (void)domain.add_node("churn" + std::to_string(i));
  }
  auto& sub_node = domain.add_node("sub");
  auto sub = std::make_unique<SeqSubscriber>();
  auto* sub_ptr = sub.get();
  (void)sub_node.add_service(std::move(sub));
  ASSERT_TRUE(pub_node.start().is_ok());
  ASSERT_TRUE(sub_node.start().is_ok());
  domain.run_for(milliseconds(500));
  ASSERT_EQ(pub_node.known_peers(),
            std::vector<proto::ContainerId>{sub_node.config().id});

  // 10% loss both ways between publisher and subscriber: the stream
  // needs retransmissions throughout.
  sim::LinkParams lossy;
  lossy.loss = 0.1;
  domain.network().set_link_symmetric(domain.node_id(0),
                                      domain.node_id(kChurners + 1), lossy);
  int next = 0;
  auto emit_for = [&](Duration d) {
    for (TimePoint end = domain.sim().now() + d; domain.sim().now() < end;) {
      pub_ptr->emit(next++);
      domain.run_for(milliseconds(10));
    }
  };
  for (size_t i = 1; i <= kChurners; ++i) {
    ASSERT_TRUE(domain.container(i).start().is_ok());
    emit_for(milliseconds(100));
  }
  EXPECT_EQ(pub_node.known_peers().size(), kChurners + 1);
  for (size_t i = 1; i <= kChurners; ++i) {
    domain.kill_node(i);
    emit_for(milliseconds(100));
  }
  emit_for(milliseconds(500));
  EXPECT_EQ(pub_node.known_peers(),
            std::vector<proto::ContainerId>{sub_node.config().id});

  domain.network().set_link_symmetric(domain.node_id(0),
                                      domain.node_id(kChurners + 1), {});
  domain.run_for(seconds(2.0));
  // The stream did need its retransmissions.
  domain.obs().metrics.collect();
  EXPECT_GT(domain.obs().metrics.counter_value(
                "mw." + std::to_string(pub_node.config().id) +
                ".arq.retransmits"),
            0u);
  // Each event exactly once (events may overtake each other under loss).
  std::vector<int> got = sub_ptr->got;
  std::sort(got.begin(), got.end());
  std::vector<int> want(static_cast<size_t>(next));
  for (int i = 0; i < next; ++i) want[static_cast<size_t>(i)] = i;
  EXPECT_EQ(got, want);
}

TEST(PeerTableTest, HeartbeatFastPathSendsEveryNewsToFullPath) {
  set_log_level(LogLevel::kError);
  SimDomain domain(93);
  auto& a = domain.add_node("a");
  (void)domain.add_node("b");
  domain.start_all();
  domain.run_for(milliseconds(300));
  FakePeers fakes(domain);
  constexpr proto::ContainerId kFake = 42;
  fakes.listen(kFake);
  auto has = [&](const std::string& item) {
    return a.directory().provides(kFake, proto::ItemKind::kVariable, item);
  };

  // Unknown sender: introduced, and greeted with a unicast hello.
  fakes.heartbeat(kFake, 1);
  domain.run_for(milliseconds(20));
  EXPECT_TRUE(knows(a, kFake));
  EXPECT_EQ(fakes.received(kFake, proto::MsgType::kContainerHello), 1);
  fakes.hello(kFake, 1, 3, "x.one");
  domain.run_for(milliseconds(20));
  EXPECT_TRUE(has("x.one"));

  // Same life: liveness only, for longer than the liveness limit.
  for (int i = 0; i < 8; ++i) {
    fakes.heartbeat(kFake, 1);
    domain.run_for(milliseconds(100));
  }
  EXPECT_TRUE(knows(a, kFake));
  EXPECT_TRUE(has("x.one"));

  // Newer incarnation: the old life's state goes (peer_lost), the peer
  // is re-introduced in its new life. A different life opens no link.
  fakes.heartbeat(kFake, 2);
  domain.run_for(milliseconds(20));
  EXPECT_TRUE(knows(a, kFake));
  EXPECT_FALSE(has("x.one"));
  EXPECT_EQ(fakes.received(kFake, proto::MsgType::kContainerHello), 2);
  EXPECT_EQ(fakes.received(kFake, proto::MsgType::kReliableData), 0);

  // Stale incarnation: ignored, neither a restart nor a sign of life.
  // The peer is lost on the schedule of its last current-life beat
  // (the limit is 350 ms), not on that of the stale ones.
  for (int i = 0; i < 3; ++i) {
    domain.run_for(milliseconds(100));
    fakes.heartbeat(kFake, 1);
  }
  domain.run_for(milliseconds(10));
  EXPECT_TRUE(knows(a, kFake));
  domain.run_for(milliseconds(130));
  EXPECT_FALSE(knows(a, kFake));
  EXPECT_EQ(fakes.received(kFake, proto::MsgType::kReliableData), 0);

  // Forgotten peer, back in the life it was lost in. A link ack puts it
  // in the table again, in that life, but only a heartbeat or hello
  // reintroduces it: the heartbeat must not take the liveness-only path.
  proto::ReliableAckMsg ack;
  ack.incarnation = 2;
  fakes.send(kFake, proto::MsgType::kReliableAck, ack);
  domain.run_for(milliseconds(20));
  EXPECT_TRUE(knows(a, kFake));
  EXPECT_EQ(fakes.received(kFake, proto::MsgType::kContainerHello), 3);
  EXPECT_EQ(fakes.received(kFake, proto::MsgType::kReliableData), 0);
  fakes.heartbeat(kFake, 2);
  domain.run_for(milliseconds(20));
  EXPECT_TRUE(knows(a, kFake));
  EXPECT_GE(fakes.received(kFake, proto::MsgType::kReliableData), 1);
}

}  // namespace
}  // namespace marea::mw
