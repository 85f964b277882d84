#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "obs/obs.h"
#include "sim/network.h"
#include "transport/send_retry.h"
#include "transport/sim_transport.h"
#include "transport/tcp_model.h"
#include "transport/udp_transport.h"
#include "transport/uring_transport.h"

namespace marea::transport {
namespace {

class SimTransportTest : public ::testing::Test {
 protected:
  SimTransportTest() : net_(sim_, Rng(3)) {
    a_node_ = net_.add_node("a");
    b_node_ = net_.add_node("b");
    a_ = std::make_unique<SimTransport>(net_, a_node_);
    b_ = std::make_unique<SimTransport>(net_, b_node_);
  }

  sim::Simulator sim_;
  sim::SimNetwork net_;
  sim::NodeId a_node_, b_node_;
  std::unique_ptr<SimTransport> a_, b_;
};

TEST_F(SimTransportTest, BindSendReceive) {
  Buffer got;
  Address from_seen{};
  ASSERT_TRUE(b_->bind(10, [&](Address from, BytesView data) {
                  from_seen = from;
                  got = to_buffer(data);
                }).is_ok());
  Buffer payload = {1, 2, 3};
  ASSERT_TRUE(a_->send(20, Address{b_node_, 10}, as_bytes_view(payload))
                  .is_ok());
  sim_.run();
  EXPECT_EQ(got, payload);
  EXPECT_EQ(from_seen.host, a_node_);
  EXPECT_EQ(from_seen.port, 20);
}

TEST_F(SimTransportTest, MulticastGroupDelivery) {
  int got = 0;
  ASSERT_TRUE(b_->bind(10, [&](Address, BytesView) { ++got; }).is_ok());
  ASSERT_TRUE(b_->join_group(500, 10).is_ok());
  Buffer payload = {9};
  ASSERT_TRUE(a_->send_multicast(10, 500, as_bytes_view(payload)).is_ok());
  sim_.run();
  EXPECT_EQ(got, 1);
  b_->leave_group(500, 10);
  (void)a_->send_multicast(10, 500, as_bytes_view(payload));
  sim_.run();
  EXPECT_EQ(got, 1);
}

TEST_F(SimTransportTest, BroadcastDelivery) {
  int got = 0;
  ASSERT_TRUE(b_->bind(10, [&](Address, BytesView) { ++got; }).is_ok());
  Buffer payload = {7};
  ASSERT_TRUE(a_->send_broadcast(10, 10, as_bytes_view(payload)).is_ok());
  sim_.run();
  EXPECT_EQ(got, 1);
}

TEST_F(SimTransportTest, MtuAndHostAccessors) {
  EXPECT_EQ(a_->local_host(), a_node_);
  EXPECT_EQ(a_->mtu(), net_.mtu());
}

// --- TCP model ---------------------------------------------------------------

class TcpModelTest : public ::testing::Test {
 protected:
  TcpModelTest() : net_(sim_, Rng(17)) {
    a_node_ = net_.add_node("a");
    b_node_ = net_.add_node("b");
    a_ = std::make_unique<SimTransport>(net_, a_node_);
    b_ = std::make_unique<SimTransport>(net_, b_node_);
  }

  void make_endpoints(TcpParams params = {}) {
    ea_ = std::make_unique<TcpModelEndpoint>(
        sim_, *a_, 100, Address{b_node_, 100}, params,
        [&](BytesView msg) { a_received_.push_back(to_buffer(msg)); });
    eb_ = std::make_unique<TcpModelEndpoint>(
        sim_, *b_, 100, Address{a_node_, 100}, params,
        [&](BytesView msg) { b_received_.push_back(to_buffer(msg)); });
  }

  Buffer msg(uint8_t tag, size_t n = 100) { return Buffer(n, tag); }

  sim::Simulator sim_;
  sim::SimNetwork net_;
  sim::NodeId a_node_, b_node_;
  std::unique_ptr<SimTransport> a_, b_;
  std::unique_ptr<TcpModelEndpoint> ea_, eb_;
  std::vector<Buffer> a_received_, b_received_;
};

TEST_F(TcpModelTest, LosslessDeliveryInOrder) {
  make_endpoints();
  for (uint8_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(ea_->send_message(as_bytes_view(msg(i))).is_ok());
  }
  sim_.run();
  ASSERT_EQ(b_received_.size(), 20u);
  for (uint8_t i = 0; i < 20; ++i) {
    EXPECT_EQ(b_received_[i][0], i);  // strict order
  }
  EXPECT_EQ(eb_->stats().messages_delivered, 20u);
  EXPECT_EQ(ea_->unacked_bytes(), 0u);
}

TEST_F(TcpModelTest, BidirectionalTraffic) {
  make_endpoints();
  ASSERT_TRUE(ea_->send_message(as_bytes_view(msg(1))).is_ok());
  ASSERT_TRUE(eb_->send_message(as_bytes_view(msg(2))).is_ok());
  sim_.run();
  ASSERT_EQ(b_received_.size(), 1u);
  ASSERT_EQ(a_received_.size(), 1u);
  EXPECT_EQ(b_received_[0][0], 1);
  EXPECT_EQ(a_received_[0][0], 2);
}

TEST_F(TcpModelTest, LargeMessageSegmentsAndReassembles) {
  TcpParams params;
  params.mss = 500;
  make_endpoints(params);
  Buffer big(5000);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 31);
  }
  ASSERT_TRUE(ea_->send_message(as_bytes_view(big)).is_ok());
  sim_.run();
  ASSERT_EQ(b_received_.size(), 1u);
  EXPECT_EQ(b_received_[0], big);
  EXPECT_GE(ea_->stats().segments_sent, 10u);
}

TEST_F(TcpModelTest, RecoversFromLossViaRetransmission) {
  sim::LinkParams lossy;
  lossy.loss = 0.2;
  net_.set_link_symmetric(a_node_, b_node_, lossy);
  make_endpoints();
  for (uint8_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(ea_->send_message(as_bytes_view(msg(i, 600))).is_ok());
  }
  sim_.run();
  ASSERT_EQ(b_received_.size(), 50u);
  for (uint8_t i = 0; i < 50; ++i) EXPECT_EQ(b_received_[i][0], i);
  EXPECT_GT(ea_->stats().retransmits, 0u);
}

TEST_F(TcpModelTest, HeadOfLineBlockingDelaysLaterMessages) {
  // Deterministically drop exactly the first data segment.
  make_endpoints();
  bool dropped_one = false;
  // Wrap: deliver by sending through a transport whose first segment we
  // kill by taking the node down for an instant is complex; instead use a
  // very lossy then clean link and just assert ordering was preserved
  // despite retransmits (order IS the head-of-line property).
  sim::LinkParams lossy;
  lossy.loss = 0.5;
  net_.set_link(a_node_, b_node_, lossy);
  for (uint8_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(ea_->send_message(as_bytes_view(msg(i))).is_ok());
  }
  sim_.run_for(seconds(0.5));
  net_.set_link(a_node_, b_node_, sim::LinkParams{});
  sim_.run();
  ASSERT_EQ(b_received_.size(), 10u);
  for (uint8_t i = 0; i < 10; ++i) EXPECT_EQ(b_received_[i][0], i);
  (void)dropped_one;
}

TEST_F(TcpModelTest, RtoBacksOffAndFires) {
  make_endpoints();
  // Take the receiver down: every segment is lost, RTO must fire and back
  // off rather than spin.
  net_.set_node_up(b_node_, false);
  ASSERT_TRUE(ea_->send_message(as_bytes_view(msg(1))).is_ok());
  sim_.run_for(seconds(3.0));
  EXPECT_GE(ea_->stats().rto_fires, 2u);
  EXPECT_LE(ea_->stats().rto_fires, 12u);  // backoff caps the rate
  EXPECT_EQ(b_received_.size(), 0u);

  // Bring it back: delivery completes.
  net_.set_node_up(b_node_, true);
  sim_.run_for(seconds(3.0));
  EXPECT_EQ(b_received_.size(), 1u);
}

// --- real UDP (environment permitting) ----------------------------------------

TEST(UdpTransportTest, Ipv4Parsing) {
  EXPECT_EQ(ipv4_host("127.0.0.1"), 0x7F000001u);
  EXPECT_EQ(host_to_ipv4(0x7F000001u), "127.0.0.1");
  EXPECT_EQ(ipv4_host("not-an-ip"), 0u);
}

TEST(UdpTransportTest, BackendParsingAndSelection) {
  TransportBackend b = TransportBackend::kAuto;
  EXPECT_TRUE(parse_backend("epoll", &b));
  EXPECT_EQ(b, TransportBackend::kEpoll);
  EXPECT_TRUE(parse_backend("uring", &b));
  EXPECT_EQ(b, TransportBackend::kUring);
  EXPECT_TRUE(parse_backend("auto", &b));
  EXPECT_EQ(b, TransportBackend::kAuto);
  EXPECT_FALSE(parse_backend("kqueue", &b));
  // Explicit backends resolve to themselves regardless of environment.
  EXPECT_EQ(resolve_backend(TransportBackend::kEpoll),
            TransportBackend::kEpoll);
  EXPECT_EQ(resolve_backend(TransportBackend::kUring),
            TransportBackend::kUring);
  // Auto resolves to a concrete backend, uring only when supported.
  const TransportBackend resolved = resolve_backend(TransportBackend::kAuto);
  EXPECT_NE(resolved, TransportBackend::kAuto);
  if (!uring_supported()) {
    EXPECT_EQ(resolved, TransportBackend::kEpoll);
  }
}

// --- shared send-retry contract (send_retry.h) --------------------------------
// Scripted submit functions prove the semantics both kernel backends
// inherit: short accepts resubmit the tail without burning attempts,
// progress resets the transient budget, and EINTR is bounded on its own
// budget instead of spinning or consuming transient attempts.

TEST(SendRetryTest, ShortAcceptResubmitsTailWithoutBurningBudget) {
  SendRetryPolicy policy;
  policy.transient_attempts = 1;  // any "attempt" charged would abort
  std::vector<std::pair<size_t, size_t>> calls;
  const SendRetryResult r = retry_send_batches(
      8, policy, [&](size_t done, size_t remaining) -> int {
        calls.emplace_back(done, remaining);
        return remaining > 2 ? 3 : static_cast<int>(remaining);
      });
  EXPECT_EQ(r.accepted, 8u);
  EXPECT_EQ(r.error, 0);
  EXPECT_EQ(r.short_accepts, 2u);  // 3, 3, then the final 2 completes
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[1], (std::pair<size_t, size_t>{3, 5}));
  EXPECT_EQ(calls[2], (std::pair<size_t, size_t>{6, 2}));
}

TEST(SendRetryTest, ProgressResetsTransientBudget) {
  // Pattern: accept 1, then EAGAIN x2, repeatedly. With a budget of 3
  // the old non-resetting loop would abandon the tail after the second
  // pushback pair; the contract requires completion.
  SendRetryPolicy policy;
  policy.transient_attempts = 3;
  int phase = 0;
  const SendRetryResult r =
      retry_send_batches(4, policy, [&](size_t, size_t) -> int {
        if (phase++ % 3 == 0) return 1;
        return -EAGAIN;
      });
  EXPECT_EQ(r.accepted, 4u);
  EXPECT_EQ(r.error, 0);
}

TEST(SendRetryTest, ExhaustedTransientBudgetAbandonsTailLoudly) {
  SendRetryPolicy policy;
  policy.transient_attempts = 3;
  int calls = 0;
  const SendRetryResult r =
      retry_send_batches(5, policy, [&](size_t, size_t) -> int {
        ++calls;
        return calls == 1 ? 2 : -ENOBUFS;
      });
  EXPECT_EQ(r.accepted, 2u);
  EXPECT_EQ(r.error, ENOBUFS);
  EXPECT_EQ(calls, 1 + 3);  // one accept + exactly the transient budget
}

TEST(SendRetryTest, EintrBoundedSeparatelyFromTransientBudget) {
  // A long EINTR run must neither spin forever (the audit finding: the
  // retry loop 'continue'd on EINTR with no bound) nor consume the
  // transient budget meant for kernel pushback.
  SendRetryPolicy policy;
  policy.transient_attempts = 2;
  policy.eintr_attempts = 10;
  int eintrs = 0;
  const SendRetryResult ok =
      retry_send_batches(1, policy, [&](size_t, size_t) -> int {
        if (eintrs < 8) {
          ++eintrs;
          return -EINTR;
        }
        return 1;
      });
  EXPECT_EQ(ok.accepted, 1u);  // 8 EINTRs < budget: still completes
  EXPECT_EQ(ok.error, 0);

  int calls = 0;
  const SendRetryResult storm =
      retry_send_batches(1, policy, [&](size_t, size_t) -> int {
        ++calls;
        return -EINTR;
      });
  EXPECT_EQ(storm.accepted, 0u);
  EXPECT_EQ(storm.error, EINTR);  // bounded: fails instead of spinning
  EXPECT_EQ(calls, policy.eintr_attempts);
}

TEST(SendRetryTest, ZeroReturnTreatedAsTransient) {
  SendRetryPolicy policy;
  policy.transient_attempts = 2;
  int calls = 0;
  const SendRetryResult r = retry_send_batches(
      3, policy, [&](size_t, size_t) -> int {
        ++calls;
        return 0;
      });
  EXPECT_EQ(r.accepted, 0u);
  EXPECT_EQ(r.error, EAGAIN);
  EXPECT_EQ(calls, policy.transient_attempts);
}

// --- live kernel-backend concurrency / parity suite ---------------------------
// Every test runs against both kernel datapaths (epoll and io_uring);
// the uring leg skips cleanly on kernels without io_uring support, and
// MAREA_TRANSPORT=<backend> filters to a single leg.

namespace {

class LiveBackendTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    const std::string_view backend = GetParam();
    if (backend == "uring" && !uring_supported()) {
      GTEST_SKIP() << "io_uring unsupported on this kernel";
    }
    if (const char* only = std::getenv("MAREA_TRANSPORT")) {
      if (std::string_view(only) != backend) {
        GTEST_SKIP() << "MAREA_TRANSPORT=" << only << " filters this leg";
      }
    }
  }

  std::unique_ptr<LiveTransport> make_live(const char* ip,
                                           LiveTransportOptions options = {}) {
    TransportConfig config;
    EXPECT_TRUE(parse_backend(GetParam(), &config.backend));
    config.options = options;
    try {
      return make_live_transport(ip, config);
    } catch (const std::exception&) {
      return nullptr;
    }
  }

  // The epoll and uring legs may run concurrently (ctest -j), so no test
  // binds a fixed port: unicast binds ask for port 0 and use the port the
  // kernel picked. Multicast groups map to fixed canonical ports, so each
  // leg uses its own group ids.
  static uint16_t bind_ephemeral(LiveTransport& t,
                                 Transport::RecvHandler handler) {
    if (!t.bind(0, std::move(handler)).is_ok()) return 0;
    return t.bound_port(0);
  }
  GroupId leg_group(GroupId base) const {
    return std::string_view(GetParam()) == "uring" ? base + 100 : base;
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, LiveBackendTest,
                         ::testing::Values("epoll", "uring"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(LiveBackendTest, LoopbackSendReceive) {
  auto t1 = make_live("127.0.0.1");
  auto t2 = make_live("127.0.0.2");
  if (!t1 || !t2) GTEST_SKIP() << "UDP sockets unavailable";
  EXPECT_STREQ(t1->backend(), GetParam());

  std::atomic<int> got{0};
  const uint16_t port = bind_ephemeral(*t2, [&](Address, BytesView data) {
    if (data.size() == 3) got.fetch_add(1);
  });
  if (port == 0) GTEST_SKIP() << "bind failed";

  Buffer payload = {1, 2, 3};
  for (int i = 0; i < 5 && got.load() == 0; ++i) {
    (void)t1->send(port, Address{ipv4_host("127.0.0.2"), port},
                   as_bytes_view(payload));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GT(got.load(), 0);

  // The backend-specific counters witness which datapath actually ran:
  // nonzero ring counters on uring, all-zero on epoll.
  const auto txc = t1->net_counters();
  const auto rxc = t2->net_counters();
  EXPECT_GE(txc.frames_sent, 1u);
  EXPECT_GE(rxc.frames_received, 1u);
  if (std::string_view(GetParam()) == "uring") {
    EXPECT_GT(txc.uring_sqe_submitted, 0u);
    EXPECT_GT(rxc.uring_buf_ring_refills, 0u);
    EXPECT_GT(rxc.uring_cqe_batch, 0u);
  } else {
    EXPECT_EQ(txc.uring_sqe_submitted, 0u);
    EXPECT_EQ(rxc.uring_buf_ring_refills, 0u);
  }
}

// Payloads carry their logical destination tag in the first two bytes so
// a misrouted delivery (fd reuse, handler mixup) is detectable by the
// handler that receives it.
Buffer tagged_payload(uint16_t tag, size_t n = 32) {
  Buffer b(n, 0xAB);
  b[0] = static_cast<uint8_t>(tag & 0xFF);
  b[1] = static_cast<uint8_t>(tag >> 8);
  return b;
}

uint16_t tag_of(BytesView d) {
  return d.size() >= 2 ? static_cast<uint16_t>(d[0] | (d[1] << 8)) : 0;
}

}  // namespace

TEST_P(LiveBackendTest, MulticastPortCollisionRejected) {
  auto t = make_live("127.0.0.1");
  if (!t) GTEST_SKIP() << "UDP sockets unavailable in this environment";

  // Direction 1: the canonical port of the group is already bound as a
  // plain unicast port -> joining the group must be rejected, not masked
  // by SO_REUSEPORT.
  const GroupId g1 = leg_group(700);
  const uint16_t port = bind_ephemeral(*t, [](Address, BytesView) {});
  ASSERT_NE(port, 0);
  Status s = t->bind(multicast_port(g1), [](Address, BytesView) {});
  if (!s.is_ok()) GTEST_SKIP() << "bind failed: " << s.to_string();
  Status join = t->join_group(g1, port);
  EXPECT_FALSE(join.is_ok());
  EXPECT_TRUE(join.to_string().find("collides") != std::string::npos)
      << join.to_string();

  // Direction 2: group joined first -> binding its canonical port as a
  // unicast port must be rejected.
  auto t2 = make_live("127.0.0.2");
  if (!t2) GTEST_SKIP() << "UDP sockets unavailable";
  const GroupId g2 = leg_group(701);
  const uint16_t port2 = bind_ephemeral(*t2, [](Address, BytesView) {});
  ASSERT_NE(port2, 0);
  Status join2 = t2->join_group(g2, port2);
  if (!join2.is_ok()) GTEST_SKIP() << "join failed: " << join2.to_string();
  Status bind2 = t2->bind(multicast_port(g2), [](Address, BytesView) {});
  EXPECT_FALSE(bind2.is_ok());
  EXPECT_TRUE(bind2.to_string().find("collides") != std::string::npos)
      << bind2.to_string();
}

TEST_P(LiveBackendTest, TruncatedDatagramDroppedWithCounterAndTrace) {
  // Declared before the transports: the registry must outlive the
  // transport whose collector is registered in it.
  obs::Observability obs;

  LiveTransportOptions small;
  small.recv_buffer = 512;
  auto rx = make_live("127.0.0.2", small);
  auto tx = make_live("127.0.0.1");
  if (!rx || !tx) GTEST_SKIP() << "UDP sockets unavailable";

  rx->set_obs(&obs, "net");

  std::atomic<int> delivered{0};
  std::atomic<size_t> last_size{0};
  const uint16_t port = bind_ephemeral(*rx, [&](Address, BytesView data) {
    delivered.fetch_add(1);
    last_size.store(data.size());
  });
  if (port == 0) GTEST_SKIP() << "bind failed";

  Address dst{ipv4_host("127.0.0.2"), port};
  Buffer big(1000, 0x5A);
  for (int i = 0; i < 5 && rx->net_counters().drops_truncated == 0; ++i) {
    (void)tx->send(port, dst, as_bytes_view(big));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GE(rx->net_counters().drops_truncated, 1u);
  EXPECT_EQ(delivered.load(), 0) << "clipped frame must not be delivered";

  // A fitting datagram still flows afterwards (the batch slot recovered).
  Buffer small_payload(100, 0x11);
  for (int i = 0; i < 5 && delivered.load() == 0; ++i) {
    (void)tx->send(port, dst, as_bytes_view(small_payload));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GT(delivered.load(), 0);
  EXPECT_EQ(last_size.load(), 100u);

  // The drop is visible through the registry and the flight recorder.
  obs.metrics.collect();
  EXPECT_GE(obs.metrics.counter_value("net.drops_truncated"), 1u);
  bool saw_drop_trace = false;
  for (const auto& r : obs.trace.snapshot()) {
    if (r.event == static_cast<uint16_t>(obs::TraceEvent::kDrop) &&
        r.kind == static_cast<uint16_t>(obs::TraceKind::kNet)) {
      saw_drop_trace = true;
    }
  }
  EXPECT_TRUE(saw_drop_trace);
}

TEST_P(LiveBackendTest, BroadcastReachesPeersNotSelf) {
  auto t1 = make_live("127.0.0.1");
  auto t2 = make_live("127.0.0.2");
  auto t3 = make_live("127.0.0.3");
  if (!t1 || !t2 || !t3) GTEST_SKIP() << "UDP sockets unavailable";
  HostId h1 = ipv4_host("127.0.0.1");
  HostId h2 = ipv4_host("127.0.0.2");
  HostId h3 = ipv4_host("127.0.0.3");
  t1->set_peers({h1, h2, h3});  // includes self: must be skipped

  // Broadcast addresses one port on every host: the kernel picks it for
  // t2, and the other two hosts bind the same number.
  std::atomic<int> self_got{0}, got2{0}, got3{0};
  const uint16_t port =
      bind_ephemeral(*t2, [&](Address, BytesView) { got2++; });
  if (port == 0) GTEST_SKIP() << "bind failed";
  Status s1 = t1->bind(port, [&](Address, BytesView) { self_got++; });
  Status s3 = t3->bind(port, [&](Address, BytesView) { got3++; });
  if (!s1.is_ok() || !s3.is_ok()) GTEST_SKIP() << "bind failed";

  Buffer payload = tagged_payload(port);
  for (int i = 0; i < 10 && (got2.load() == 0 || got3.load() == 0); ++i) {
    ASSERT_TRUE(
        t1->send_broadcast(port, port, as_bytes_view(payload)).is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  EXPECT_GT(got2.load(), 0);
  EXPECT_GT(got3.load(), 0);
  EXPECT_EQ(self_got.load(), 0) << "broadcast must skip the local host";
  EXPECT_GE(t1->net_counters().frames_sent, 2u);
}

TEST_P(LiveBackendTest, MulticastOwnLoopbackCopyFiltered) {
  auto t1 = make_live("127.0.0.1");
  auto t2 = make_live("127.0.0.2");
  if (!t1 || !t2) GTEST_SKIP() << "UDP sockets unavailable";

  std::atomic<int> got1{0}, got2{0};
  const uint16_t port =
      bind_ephemeral(*t1, [&](Address, BytesView) { got1++; });
  if (port == 0) GTEST_SKIP() << "bind failed";
  Status s2 = t2->bind(port, [&](Address, BytesView) { got2++; });
  if (!s2.is_ok()) GTEST_SKIP() << "bind failed";
  const GroupId group = leg_group(930);
  Status j1 = t1->join_group(group, port);
  Status j2 = t2->join_group(group, port);
  if (!j1.is_ok() || !j2.is_ok()) {
    GTEST_SKIP() << "multicast unavailable: " << j1.to_string() << " / "
                 << j2.to_string();
  }

  Buffer payload = tagged_payload(multicast_port(group));
  for (int i = 0; i < 10 && got2.load() == 0; ++i) {
    ASSERT_TRUE(
        t1->send_multicast(port, group, as_bytes_view(payload)).is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  if (got2.load() == 0) GTEST_SKIP() << "no multicast traffic on loopback";
  EXPECT_EQ(got1.load(), 0) << "sender's own loopback copy must be filtered";
  EXPECT_GE(t1->net_counters().own_copies_filtered, 1u);
}

TEST_P(LiveBackendTest, FrameBindDeliversRetainablePooledFrame) {
  auto tx = make_live("127.0.0.1");
  auto rx = make_live("127.0.0.2");
  if (!tx || !rx) GTEST_SKIP() << "UDP sockets unavailable";

  std::mutex mu;
  SharedFrame kept;
  std::atomic<int> got{0};
  Status s = rx->bind_frames(0, [&](Address, SharedFrame frame) {
    std::lock_guard lock(mu);
    kept = std::move(frame);  // retained past the callback, no copy
    got.fetch_add(1);
  });
  if (!s.is_ok()) GTEST_SKIP() << "bind failed: " << s.to_string();
  const uint16_t port = rx->bound_port(0);

  // Build the outgoing frame in the sender's pool and fan it out.
  FrameLease lease = tx->frame_pool().acquire(64);
  Buffer& buf = lease.buffer();
  Buffer payload = tagged_payload(port, 48);
  buf.assign(payload.begin(), payload.end());
  SharedFrame out = std::move(lease).freeze();
  for (int i = 0; i < 5 && got.load() == 0; ++i) {
    ASSERT_TRUE(
        tx->send_frame(port, Address{ipv4_host("127.0.0.2"), port}, out)
            .is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_GT(got.load(), 0);

  std::lock_guard lock(mu);
  ASSERT_EQ(kept.size(), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         kept.view().begin()));
  EXPECT_EQ(tag_of(kept.view()), port);
  // The whole receive path moved pooled slabs around: zero user-space
  // payload copies.
  EXPECT_EQ(rx->net_counters().payload_bytes_copied, 0u);
}

// Receive slabs keep their length across reuse, so a slab that held a
// long datagram is recycled for short ones without a refill. Every frame
// must still be exactly the datagram sent: no byte of an earlier, longer
// datagram may show past its end. Eight ring entries (uring) and one
// recvmmsg batch (epoll) make every slab serve many datagrams.
TEST_P(LiveBackendTest, RecycledReceiveSlabsExposeExactlyEachDatagram) {
  LiveTransportOptions options;
  options.uring_buf_ring = 8;
  auto tx = make_live("127.0.0.1", options);
  auto rx = make_live("127.0.0.2", options);
  if (!tx || !rx) GTEST_SKIP() << "UDP sockets unavailable";

  std::mutex mu;
  std::vector<Buffer> received;
  Status s = rx->bind_frames(0, [&](Address, SharedFrame frame) {
    std::lock_guard lock(mu);
    received.emplace_back(frame.view().begin(), frame.view().end());
  });  // the frame dies here, so its slab goes straight back to the pool
  if (!s.is_ok()) GTEST_SKIP() << "bind failed: " << s.to_string();
  const uint16_t port = rx->bound_port(0);
  const Address dst{ipv4_host("127.0.0.2"), port};

  // One 60 000-byte datagram, then short ones of varied length, each
  // with its own byte pattern.
  std::vector<Buffer> sent;
  sent.emplace_back(60000, uint8_t{0xEE});
  for (int i = 1; i <= 64; ++i) {
    Buffer b(1 + (i * 37) % 300);
    for (size_t j = 0; j < b.size(); ++j) {
      b[j] = static_cast<uint8_t>(i * 31 + j);
    }
    sent.push_back(std::move(b));
  }
  // Lockstep: each datagram is received before the next is sent, so
  // loopback never drops one and the order is known.
  for (size_t i = 0; i < sent.size(); ++i) {
    ASSERT_TRUE(tx->send(port, dst, as_bytes_view(sent[i])).is_ok());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
      {
        std::lock_guard lock(mu);
        if (received.size() > i) break;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "datagram " << i << " never arrived";
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  std::lock_guard lock(mu);
  ASSERT_EQ(received.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(received[i], sent[i]) << "datagram " << i;
  }
  EXPECT_EQ(rx->net_counters().payload_bytes_copied, 0u);
}

// Regression for the two seed concurrency bugs: send() serialized under
// the poll loop's mutex across the sendto syscall, and handler lookup by
// raw fd could misroute a datagram to a just-rebound socket after fd
// reuse. N sender threads hammer tagged traffic at a stable port and at
// churning ports while another thread binds/unbinds them; every handler
// checks the tag of what it received.
TEST_P(LiveBackendTest, ConcurrentSendersAndBindChurnNoMisroute) {
  auto tx = make_live("127.0.0.1");
  auto rx = make_live("127.0.0.2");
  if (!tx || !rx) GTEST_SKIP() << "UDP sockets unavailable";

  std::atomic<int> misroutes{0};
  std::atomic<int> stable_got{0};
  std::atomic<int> churn_got{0};

  auto checker = [&](uint16_t port, std::atomic<int>& counter) {
    return [&, port](Address, BytesView data) {
      if (tag_of(data) != port) {
        misroutes.fetch_add(1);
      } else {
        counter.fetch_add(1);
      }
    };
  };

  // Ports the kernel picked once; the handlers check tags against them,
  // so they are then bound by number.
  auto pick_port = [&] {
    const uint16_t port = bind_ephemeral(*rx, [](Address, BytesView) {});
    if (port != 0) rx->unbind(port);
    return port;
  };
  const uint16_t kStable = pick_port();
  const uint16_t kChurnA = pick_port();
  const uint16_t kChurnB = pick_port();
  if (kStable == 0 || kChurnA == 0 || kChurnB == 0) {
    GTEST_SKIP() << "bind failed";
  }
  Status s = rx->bind(kStable, checker(kStable, stable_got));
  if (!s.is_ok()) GTEST_SKIP() << "bind failed: " << s.to_string();

  std::atomic<bool> stop{false};
  Address base{ipv4_host("127.0.0.2"), 0};

  std::thread churn([&] {
    // Alternate the two churn ports so a freed fd is immediately
    // recycled into a socket with a DIFFERENT expected tag — the exact
    // shape of the seed's fd-reuse misroute.
    while (!stop.load()) {
      (void)rx->bind(kChurnA, checker(kChurnA, churn_got));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      rx->unbind(kChurnA);
      (void)rx->bind(kChurnB, checker(kChurnB, churn_got));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      rx->unbind(kChurnB);
    }
  });

  std::vector<std::thread> senders;
  for (int t = 0; t < 3; ++t) {
    senders.emplace_back([&, t] {
      Buffer stable_pay = tagged_payload(kStable);
      Buffer a_pay = tagged_payload(kChurnA);
      Buffer b_pay = tagged_payload(kChurnB);
      uint16_t src = static_cast<uint16_t>(9250 + t);
      while (!stop.load()) {
        (void)tx->send(src, Address{base.host, kStable},
                       as_bytes_view(stable_pay));
        (void)tx->send(src, Address{base.host, kChurnA},
                       as_bytes_view(a_pay));
        (void)tx->send(src, Address{base.host, kChurnB},
                       as_bytes_view(b_pay));
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }

  // Let the storm run; completing at all proves send no longer
  // serializes receive dispatch to death.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  stop.store(true);
  churn.join();
  for (auto& th : senders) th.join();

  EXPECT_EQ(misroutes.load(), 0)
      << "datagram delivered to a handler with the wrong tag";
  EXPECT_GT(stable_got.load(), 50);
  // Unbind barrier: after unbind() returns no further deliveries occur.
  int snapshot = stable_got.load();
  rx->unbind(kStable);
  Buffer pay = tagged_payload(kStable);
  for (int i = 0; i < 3; ++i) {
    (void)tx->send(9250, Address{base.host, kStable}, as_bytes_view(pay));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(stable_got.load(), snapshot);
}

}  // namespace
}  // namespace marea::transport
