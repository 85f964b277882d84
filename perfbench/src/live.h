// The live container stack the `telemetry` and `mission` workloads run:
// one ServiceContainer per node, each on a 1-worker ThreadPoolExecutor
// over its own transport::make_live_transport endpoint on 127.0.0.x
// loopback, plus the open-loop generator thread that drives them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "middleware/container.h"
#include "obs/obs.h"
#include "sched/thread_pool.h"
#include "transport/live_transport.h"
#include "workloads.h"

namespace marea::perfbench {

// The span buffer and message id of the bench task running on this
// thread; the counting transport stamps its send spans with them.
extern thread_local SpanBuffer* tl_spans;
extern thread_local uint64_t tl_msg;

// Traced runs put this between a container and its LiveTransport: it
// forwards every call, counts control frames (discovery, liveness,
// naming, subscription management) and records a transport.send span
// around each send made for a bench message. Untraced runs hand the LiveTransport to the container directly.
class CountingTransport final : public transport::Transport {
 public:
  explicit CountingTransport(transport::LiveTransport& inner) : inner_(inner) {}

  transport::HostId local_host() const override { return inner_.local_host(); }
  size_t mtu() const override { return inner_.mtu(); }
  const Clock* clock() const override { return inner_.clock(); }
  uint16_t bound_port(uint16_t requested) const override {
    return inner_.bound_port(requested);
  }
  Status bind(uint16_t port, RecvHandler handler) override {
    return inner_.bind(port, std::move(handler));
  }
  void unbind(uint16_t port) override { inner_.unbind(port); }
  Status send(uint16_t src_port, transport::Address dst,
              BytesView data) override {
    return inner_.send(src_port, dst, data);
  }
  Status join_group(transport::GroupId group, uint16_t port) override {
    return inner_.join_group(group, port);
  }
  void leave_group(transport::GroupId group, uint16_t port) override {
    inner_.leave_group(group, port);
  }
  Status send_multicast(uint16_t src_port, transport::GroupId group,
                        BytesView data) override {
    return inner_.send_multicast(src_port, group, data);
  }
  Status send_broadcast(uint16_t src_port, uint16_t dst_port,
                        BytesView data) override {
    return inner_.send_broadcast(src_port, dst_port, data);
  }
  FramePool& frame_pool() override { return inner_.frame_pool(); }
  Status bind_frames(uint16_t port, FrameRecvHandler handler) override {
    return inner_.bind_frames(port, std::move(handler));
  }
  Status send_frame(uint16_t src_port, transport::Address dst,
                    SharedFrame frame) override;
  Status send_frame_multicast(uint16_t src_port, transport::GroupId group,
                              SharedFrame frame) override;
  Status send_frame_broadcast(uint16_t src_port, uint16_t dst_port,
                              SharedFrame frame) override;
  Status send_frame_to_many(uint16_t src_port, const transport::Address* dst,
                            size_t n_dst, const SharedFrame& frame) override;

  uint64_t control_frames() const { return control_.load(); }

 private:
  void count_control(const SharedFrame& frame);

  transport::LiveTransport& inner_;
  std::atomic<uint64_t> control_{0};
};

struct LiveNode {
  // Declared first so they outlive the transport/container collectors.
  std::unique_ptr<obs::Observability> obs_container;
  std::unique_ptr<obs::Observability> obs_transport;
  std::unique_ptr<transport::LiveTransport> transport;
  std::unique_ptr<CountingTransport> counting;
  std::unique_ptr<sched::ThreadPoolExecutor> executor;
  std::unique_ptr<mw::ServiceContainer> container;
  SpanBuffer spans;  // written only by this node's executor thread

  // Runs `fn` on the node's executor and waits for it.
  void run_sync(std::function<void()> fn);
};

// Socket receive buffer the benchmark asks for on every datagram socket
// of the process (the kernel caps it at net.core.rmem_max and doubles it
// for bookkeeping). The transport leaves SO_RCVBUF at the kernel default
// (212992 B on common Linux kernels), which holds about 16 ms of
// telemetry at 10000 samples/s: a subscriber the host stalls for longer
// drops datagrams. Doubled, 1 MiB holds about 160 ms, well inside the
// 350 ms a container waits before it declares a silent peer lost, so the
// backlog alone cannot delay a heartbeat past that. Raising it is the
// deployment tuning an operator applies with net.core.rmem_default; see
// README "Socket receive buffers".
constexpr int kReceiveBufferBytes = 1 << 20;

// Raises SO_RCVBUF on every open datagram socket of the process to
// kReceiveBufferBytes (found through /proc/self/fd; the transport does
// not expose its sockets) and returns the smallest effective size the
// kernel reports, 0 when there was none.
int raise_receive_buffers();

struct StackOptions {
  transport::TransportBackend backend = transport::TransportBackend::kEpoll;
  bool traced = false;  // observability + counting transport + spans
};

// Builds nodes on 127.0.0.1.. (one per service list), binds ephemeral
// ports, wires the broadcast peer lists and starts every container.
// Throws std::runtime_error when the stack cannot come up.
class LiveStack {
 public:
  using ServiceList = std::vector<std::unique_ptr<mw::Service>>;
  LiveStack(std::vector<ServiceList> nodes, const StackOptions& options);
  ~LiveStack();

  LiveStack(const LiveStack&) = delete;
  LiveStack& operator=(const LiveStack&) = delete;

  LiveNode& node(size_t i) { return *nodes_[i]; }

  // Counter snapshot across every node (registry reads after collect()
  // in traced runs; transport counters and executor task counts always).
  struct Counters {
    uint64_t tasks_run = 0;
    uint64_t frames_sent = 0;
    uint64_t bytes_sent = 0;
    uint64_t frames_received = 0;
    uint64_t recv_batches = 0;
    uint64_t uring_cqe_batch = 0;
    uint64_t pool_checkouts = 0;
    uint64_t pool_hits = 0;
    uint64_t control_frames = 0;
    uint64_t frames_dropped = 0;
    uint64_t frames_send_failed = 0;
    uint64_t arq_messages = 0;
    uint64_t arq_frames = 0;
    uint64_t arq_retransmits = 0;
    uint64_t mftp_wire_bytes = 0;
    uint64_t mftp_chunk_retransmits = 0;

    Counters operator-(const Counters& before) const;
  };
  Counters counters();

  // Smallest effective SO_RCVBUF over the process's datagram sockets
  // once the stack was up.
  int receive_buffer_bytes() const { return receive_buffer_bytes_; }

  // Stops every container and quiesces the stack (also run by the dtor);
  // services stay alive so their results can be read afterwards.
  void shutdown();

 private:
  std::vector<std::unique_ptr<LiveNode>> nodes_;
  bool traced_ = false;
  bool down_ = false;
  int receive_buffer_bytes_ = 0;
};

// Open-loop generator: runs `fire(i)` for every entry of `due_ns` (sorted
// absolute steady-clock instants) on a dedicated thread at its due time,
// never waiting for earlier work to finish. Lateness (wake - due) is
// recorded per entry; the thread's own CPU time is measured so it can be
// subtracted from process CPU.
class OpenLoopGenerator {
 public:
  OpenLoopGenerator(std::vector<int64_t> due_ns,
                    std::function<void(size_t)> fire);
  ~OpenLoopGenerator();  // joins

  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  void join();
  // The generator thread's CPU time (after join(): its total).
  double cpu_s() const { return cpu_s_; }
  Samples& lateness_ns() { return late_; }

 private:
  std::vector<int64_t> due_;
  std::function<void(size_t)> fire_;
  Samples late_;
  double cpu_s_ = 0;
  std::thread thread_;
};

// Polls `ready` every 100 us until it returns true or `timeout_s`
// passes; returns whether it became ready.
bool wait_until(const std::function<bool()>& ready, double timeout_s);

// Measured window bookkeeping shared by the live workloads.
struct Window {
  int64_t t0_ns = 0;
  double cpu0_s = 0;
  uint64_t allocs0 = 0;
  LiveStack::Counters c0;
  StealMeter steal;

  void begin(LiveStack& stack);
};

// Spans the benchmark derives after a traced window: middleware.deliver
// (publish end -> handler entry, per subscriber) and the message root
// (due -> last handler entry), from the publisher's queue-wait/publish
// spans and the subscribers' handler spans. Also writes the span dump
// to `path` (when not empty) and adds its self-time lines to `r`.
Samples derive_delivery_spans(const SpanBuffer& publisher,
                              const std::vector<const SpanBuffer*>& subscribers,
                              const std::string& path, const std::string& workload,
                              Result& r);

// The per-layer values every live workload derives from a counter delta
// over `msgs` application deliveries in `wall_s` seconds.
void fill_live_layers(LayerValues& v, const LiveStack::Counters& d,
                      double msgs, double wall_s);

}  // namespace marea::perfbench
