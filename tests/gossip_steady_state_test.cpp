// Membership gossip in steady state, on a sharded SimDomain driven by 2
// worker threads (containers run on shard threads, so the TSan leg runs
// this suite too):
//   * unchanged refresh hellos only refresh liveness — the directory is
//     not rebuilt, and no peer is lost although announce ticks send no
//     heartbeat (the refresh hello stands in for it)
//   * a manifest change whose broadcast is lost on one directed link
//     still reaches that peer by the next refresh
//   * a subscriber that a publisher declared lost (one-way outage) gets
//     samples and events again once the link heals, with no rebuild
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "encoding/typed.h"
#include "middleware/domain.h"

namespace marea::mw {
namespace {

struct Beat {
  int32_t n = 0;
};

}  // namespace
}  // namespace marea::mw

MAREA_REFLECT(marea::mw::Beat, n)

namespace marea::mw {
namespace {

constexpr ShardOptions kTwoThreads{.shards = 2, .threads = 2};

// Provides one variable and one event, and can add a variable later (a
// manifest change at run time).
class Beacon final : public Service {
 public:
  explicit Beacon(std::string prefix)
      : Service(prefix + ".svc"), prefix_(std::move(prefix)) {}
  Status on_start() override {
    auto v = provide_variable<Beat>(prefix_ + ".var",
                                    {.validity = seconds(5.0)});
    if (!v.ok()) return v.status();
    var_ = *v;
    auto e = provide_event<Beat>(prefix_ + ".event");
    if (!e.ok()) return e.status();
    event_ = *e;
    return Status::ok();
  }
  void emit(int n) {
    Beat b;
    b.n = n;
    (void)var_.publish(b);
    (void)event_.publish(b);
  }
  Status add_variable(const std::string& name) {
    return provide_variable<Beat>(name).status();
  }

 private:
  std::string prefix_;
  VariableHandle var_;
  EventHandle event_;
};

class Listener final : public Service {
 public:
  explicit Listener(std::string prefix, bool variable = true)
      : Service("listener"), prefix_(std::move(prefix)), variable_(variable) {}
  Status on_start() override {
    if (variable_) {
      Status s = subscribe_variable<Beat>(
          prefix_ + ".var",
          [this](const Beat&, const SampleInfo&) { ++samples; });
      if (!s.is_ok()) return s;
    }
    return subscribe_event<Beat>(
        prefix_ + ".event",
        [this](const Beat&, const EventInfo&) { ++events; });
  }
  int samples = 0;
  int events = 0;

 private:
  std::string prefix_;
  bool variable_;
};

sim::LinkFaults blackout() {
  sim::LinkFaults f;
  f.p_good_bad = 1.0;
  f.p_bad_good = 0.0;
  f.loss_good = 1.0;
  f.loss_bad = 1.0;
  return f;
}

TEST(GossipSteadyStateTest, RefreshHellosLeaveDirectoryAndPeersAlone) {
  set_log_level(LogLevel::kError);
  SimDomain domain(401, {}, kTwoThreads);
  constexpr size_t kNodes = 8;
  for (size_t i = 0; i < kNodes; ++i) {
    auto& c = domain.add_node("n" + std::to_string(i));
    (void)c.add_service(std::make_unique<Beacon>("b" + std::to_string(i)));
  }
  domain.start_all();
  domain.run_for(seconds(2.0));  // warm-up: every manifest applied

  std::vector<uint64_t> invalidations;
  for (size_t i = 0; i < kNodes; ++i) {
    ASSERT_EQ(domain.container(i).known_peers().size(), kNodes - 1);
    invalidations.push_back(
        domain.container(i).directory().stats().invalidations);
  }
  const Duration period = domain.container(0).config().announce_interval;
  for (int p = 0; p < 10; ++p) {
    domain.run_for(period);
    for (size_t i = 0; i < kNodes; ++i) {
      EXPECT_EQ(domain.container(i).known_peers().size(), kNodes - 1)
          << "node " << i << " lost a peer in period " << p;
    }
  }
  for (size_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(domain.container(i).directory().stats().invalidations,
              invalidations[i])
        << "node " << i << " rebuilt directory records from refreshes";
    for (size_t j = 0; j < kNodes; ++j) {
      if (i == j) continue;
      EXPECT_TRUE(domain.container(i).directory().provides(
          domain.container(j).config().id, proto::ItemKind::kVariable,
          "b" + std::to_string(j) + ".var"));
    }
  }
}

TEST(GossipSteadyStateTest, ChangeLostOnOneLinkArrivesByNextRefresh) {
  set_log_level(LogLevel::kError);
  SimDomain domain(402, {}, kTwoThreads);
  auto& a = domain.add_node("a");
  auto beacon = std::make_unique<Beacon>("a");
  Beacon* beacon_ptr = beacon.get();
  (void)a.add_service(std::move(beacon));
  auto& b = domain.add_node("b");
  auto& c = domain.add_node("c");
  domain.start_all();
  domain.run_for(seconds(1.0));

  // Drop a's broadcast of the change on the a -> b link only, for less
  // than a liveness timeout.
  const sim::NodeId na = domain.node_id(0);
  const sim::NodeId nb = domain.node_id(1);
  domain.for_each_network(
      [&](sim::SimNetwork& net) { net.set_link_faults(na, nb, blackout()); });
  ASSERT_TRUE(beacon_ptr->add_variable("a.late").is_ok());
  domain.run_for(milliseconds(50));
  domain.for_each_network(
      [&](sim::SimNetwork& net) { net.clear_link_faults(na, nb); });

  const proto::ContainerId ida = a.config().id;
  EXPECT_TRUE(
      c.directory().provides(ida, proto::ItemKind::kVariable, "a.late"));
  ASSERT_FALSE(
      b.directory().provides(ida, proto::ItemKind::kVariable, "a.late"))
      << "the change broadcast was not dropped on a -> b";

  // The refresh carries the bumped version, so b takes the full path.
  domain.run_for(a.config().announce_interval);
  EXPECT_TRUE(
      b.directory().provides(ida, proto::ItemKind::kVariable, "a.late"));
  EXPECT_EQ(b.known_peers().size(), 2u);
}

TEST(OrphanedSubscriberTest, OneWayOutageResumesWithoutRebuild) {
  // The publisher stops hearing the subscriber long enough to declare it
  // lost and drop it from every subscriber set, while the subscriber
  // keeps hearing the publisher and so never re-subscribes on its own.
  set_log_level(LogLevel::kError);
  SimDomain domain(403, {}, kTwoThreads);
  auto& pub = domain.add_node("pub");
  auto beacon = std::make_unique<Beacon>("p");
  Beacon* beacon_ptr = beacon.get();
  (void)pub.add_service(std::move(beacon));
  auto& sub = domain.add_node("sub");
  auto listener = std::make_unique<Listener>("p");
  Listener* listener_ptr = listener.get();
  (void)sub.add_service(std::move(listener));
  domain.start_all();

  int n = 0;
  auto run_emitting = [&](Duration d) {
    for (Duration t = kDurationZero; t < d; t = t + milliseconds(20)) {
      beacon_ptr->emit(++n);
      domain.run_for(milliseconds(20));
    }
  };
  run_emitting(seconds(1.0));
  ASSERT_GT(listener_ptr->samples, 0);
  ASSERT_GT(listener_ptr->events, 0);

  const sim::NodeId np = domain.node_id(0);
  const sim::NodeId ns = domain.node_id(1);
  const Duration limit =
      pub.config().heartbeat_interval * pub.config().liveness_factor;
  domain.for_each_network(
      [&](sim::SimNetwork& net) { net.set_link_faults(ns, np, blackout()); });
  run_emitting(limit * 2.0);
  ASSERT_EQ(pub.known_peers().size(), 0u) << "publisher never lost sub";
  ASSERT_EQ(sub.known_peers().size(), 1u) << "sub lost the publisher";
  domain.for_each_network(
      [&](sim::SimNetwork& net) { net.clear_link_faults(ns, np); });

  // Nothing reached sub since the publisher dropped it; within one
  // announce period of the heal both streams flow again.
  int samples = listener_ptr->samples;
  int events = listener_ptr->events;
  run_emitting(pub.config().announce_interval);
  EXPECT_GT(listener_ptr->samples, samples) << "samples never resumed";
  EXPECT_GT(listener_ptr->events, events) << "events never resumed";
  EXPECT_EQ(pub.known_peers().size(), 1u);

  samples = listener_ptr->samples;
  events = listener_ptr->events;
  run_emitting(milliseconds(200));
  EXPECT_EQ(listener_ptr->samples - samples, 10);
  EXPECT_EQ(listener_ptr->events - events, 10);
}

TEST(OrphanedSubscriberTest, FirstLinkSessionAlsoCarriesTheNews) {
  // An event-only subscriber that has never received anything reliable
  // from the publisher holds no link state for it: the publisher's new
  // session is its first one, so no session change reports the loss.
  set_log_level(LogLevel::kError);
  SimDomain domain(404, {}, kTwoThreads);
  auto& pub = domain.add_node("pub");
  auto beacon = std::make_unique<Beacon>("p");
  Beacon* beacon_ptr = beacon.get();
  (void)pub.add_service(std::move(beacon));
  auto& sub = domain.add_node("sub");
  auto listener = std::make_unique<Listener>("p", /*variable=*/false);
  Listener* listener_ptr = listener.get();
  (void)sub.add_service(std::move(listener));
  domain.start_all();
  domain.run_for(seconds(1.0));  // subscribed, nothing published yet

  const sim::NodeId np = domain.node_id(0);
  const sim::NodeId ns = domain.node_id(1);
  domain.for_each_network(
      [&](sim::SimNetwork& net) { net.set_link_faults(ns, np, blackout()); });
  domain.run_for(seconds(1.0));
  ASSERT_EQ(pub.known_peers().size(), 0u) << "publisher never lost sub";
  domain.for_each_network(
      [&](sim::SimNetwork& net) { net.clear_link_faults(ns, np); });
  domain.run_for(pub.config().announce_interval);

  for (int i = 1; i <= 5; ++i) {
    beacon_ptr->emit(i);
    domain.run_for(milliseconds(20));
  }
  domain.run_for(milliseconds(100));
  EXPECT_EQ(listener_ptr->events, 5);
}

}  // namespace
}  // namespace marea::mw
