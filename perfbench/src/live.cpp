#include "live.h"

#include <dirent.h>
#include <sys/socket.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <thread>

#include "protocol/frame.h"

namespace marea::perfbench {

thread_local SpanBuffer* tl_spans = nullptr;
thread_local uint64_t tl_msg = 0;

// --- counting transport ---------------------------------------------------------

namespace {
// Discovery, liveness, naming and subscription management: everything
// that is not a variable sample, reliable-link traffic or file transfer.
bool is_control(proto::MsgType t) {
  switch (t) {
    case proto::MsgType::kContainerHello:
    case proto::MsgType::kContainerBye:
    case proto::MsgType::kHeartbeat:
    case proto::MsgType::kServiceStatus:
    case proto::MsgType::kNameQuery:
    case proto::MsgType::kNameReply:
    case proto::MsgType::kVarSubscribe:
    case proto::MsgType::kVarUnsubscribe:
    case proto::MsgType::kVarSnapshotRequest:
    case proto::MsgType::kEventSubscribe:
    case proto::MsgType::kEventUnsubscribe:
    case proto::MsgType::kFileSubscribe:
    case proto::MsgType::kFileUnsubscribe:
      return true;
    default:
      return false;
  }
}

// Times one send made on behalf of the bench message running on this
// thread (none for heartbeats, acks and other container-internal sends).
class SendSpan {
 public:
  SendSpan() : start_(tl_msg != 0 && tl_spans ? now_ns() : 0) {}
  ~SendSpan() {
    if (start_ != 0) {
      tl_spans->record(SpanName::kTransportSend, tl_msg, start_, now_ns());
    }
  }
  SendSpan(const SendSpan&) = delete;
  SendSpan& operator=(const SendSpan&) = delete;

 private:
  int64_t start_;
};
}  // namespace

void CountingTransport::count_control(const SharedFrame& frame) {
  BytesView v = frame.view();
  // Byte 3 of the frame header is the MsgType (protocol/frame.h).
  if (v.size() >= 4 && is_control(static_cast<proto::MsgType>(v[3]))) {
    control_.fetch_add(1, std::memory_order_relaxed);
  }
}

Status CountingTransport::send_frame(uint16_t src_port, transport::Address dst,
                                     SharedFrame frame) {
  count_control(frame);
  SendSpan span;
  return inner_.send_frame(src_port, dst, std::move(frame));
}

Status CountingTransport::send_frame_multicast(uint16_t src_port,
                                               transport::GroupId group,
                                               SharedFrame frame) {
  count_control(frame);
  SendSpan span;
  return inner_.send_frame_multicast(src_port, group, std::move(frame));
}

Status CountingTransport::send_frame_broadcast(uint16_t src_port,
                                               uint16_t dst_port,
                                               SharedFrame frame) {
  count_control(frame);
  SendSpan span;
  return inner_.send_frame_broadcast(src_port, dst_port, std::move(frame));
}

Status CountingTransport::send_frame_to_many(uint16_t src_port,
                                             const transport::Address* dst,
                                             size_t n_dst,
                                             const SharedFrame& frame) {
  count_control(frame);
  SendSpan span;
  return inner_.send_frame_to_many(src_port, dst, n_dst, frame);
}

// --- nodes and stack ------------------------------------------------------------

int raise_receive_buffers() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  int smallest = 0;
  const int dir_fd = dirfd(dir);
  while (const dirent* e = readdir(dir)) {
    char* end = nullptr;
    const long fd = std::strtol(e->d_name, &end, 10);
    if (end == e->d_name || *end != '\0' || fd == dir_fd) continue;
    struct stat st;
    int type = 0;
    socklen_t len = sizeof type;
    if (fstat(static_cast<int>(fd), &st) != 0 || !S_ISSOCK(st.st_mode) ||
        getsockopt(static_cast<int>(fd), SOL_SOCKET, SO_TYPE, &type, &len) != 0 ||
        type != SOCK_DGRAM) {
      continue;
    }
    int want = kReceiveBufferBytes;
    setsockopt(static_cast<int>(fd), SOL_SOCKET, SO_RCVBUF, &want, sizeof want);
    int got = 0;
    len = sizeof got;
    getsockopt(static_cast<int>(fd), SOL_SOCKET, SO_RCVBUF, &got, &len);
    if (smallest == 0 || got < smallest) smallest = got;
  }
  closedir(dir);
  return smallest;
}

void LiveNode::run_sync(std::function<void()> fn) {
  std::promise<void> done;
  std::future<void> f = done.get_future();
  executor->post(sched::Priority::kBackground, [&fn, &done] {
    fn();
    done.set_value();
  });
  f.wait();
}

LiveStack::LiveStack(std::vector<ServiceList> services,
                     const StackOptions& options)
    : traced_(options.traced) {
  transport::TransportConfig tcfg;
  tcfg.backend = options.backend;
  std::vector<transport::HostId> hosts;
  for (size_t i = 0; i < services.size(); ++i) {
    auto n = std::make_unique<LiveNode>();
    const std::string ip = "127.0.0." + std::to_string(i + 1);
    hosts.push_back(transport::ipv4_host(ip));
    n->transport = transport::make_live_transport(ip, tcfg);
    if (traced_) {
      n->obs_container = std::make_unique<obs::Observability>();
      n->obs_transport = std::make_unique<obs::Observability>();
      n->transport->set_obs(n->obs_transport.get(), "net");
      n->counting = std::make_unique<CountingTransport>(*n->transport);
    }
    n->executor = std::make_unique<sched::ThreadPoolExecutor>(1);
    mw::ContainerConfig cc;
    cc.id = static_cast<proto::ContainerId>(i + 1);
    cc.node_name = "perfbench-" + std::to_string(i + 1);
    cc.data_port = 0;  // kernel-assigned; never collides with other runs
    cc.use_multicast = false;
    cc.obs = n->obs_container.get();
    transport::Transport& t =
        n->counting ? static_cast<transport::Transport&>(*n->counting)
                    : *n->transport;
    n->container = std::make_unique<mw::ServiceContainer>(cc, t, *n->executor);
    for (auto& s : services[i]) {
      Status st = n->container->add_service(std::move(s));
      if (!st.is_ok()) throw std::runtime_error("add_service: " + st.to_string());
    }
    nodes_.push_back(std::move(n));
  }
  std::vector<transport::Address> peers;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    bool ok = false;
    nodes_[i]->run_sync([&] { ok = nodes_[i]->container->bind_transport().is_ok(); });
    if (!ok) throw std::runtime_error("bind_transport failed");
    peers.push_back({hosts[i], nodes_[i]->container->config().data_port});
  }
  for (auto& n : nodes_) n->transport->set_peers(peers);
  for (auto& n : nodes_) {
    bool ok = false;
    n->run_sync([&] { ok = n->container->start().is_ok(); });
    if (!ok) throw std::runtime_error("container start failed");
  }
  receive_buffer_bytes_ = raise_receive_buffers();
}

LiveStack::~LiveStack() {
  shutdown();
  // Executors go before the containers whose tasks they run (a stopped
  // container's destructor never touches its executor); transports die
  // last with the nodes.
  for (auto& n : nodes_) n->executor.reset();
  for (auto& n : nodes_) n->container.reset();
}

void LiveStack::shutdown() {
  if (down_) return;
  down_ = true;
  for (auto& n : nodes_) n->run_sync([&] { n->container->stop(); });
  // Stop receiving before anything is torn down (the container's own
  // unbind in its destructor then finds nothing), let dispatches already
  // in flight land on the still-running executors, and drain them.
  // Stopped containers ignore what arrives, so afterwards no service
  // state changes and results can be read.
  for (auto& n : nodes_) n->transport->unbind(n->container->config().data_port);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (auto& n : nodes_) n->executor->drain();
}

LiveStack::Counters LiveStack::counters() {
  Counters c;
  for (auto& n : nodes_) {
    c.tasks_run += n->executor->tasks_run();
    if (!traced_) continue;
    obs::MetricsRegistry& net = n->obs_transport->metrics;
    net.collect();
    c.frames_sent += net.counter_value("net.frames_sent");
    c.bytes_sent += net.counter_value("net.bytes_sent");
    c.frames_received += net.counter_value("net.frames_received");
    c.recv_batches += net.counter_value("net.recv_batches");
    c.uring_cqe_batch += net.counter_value("net.uring_cqe_batch");
    c.pool_checkouts += net.counter_value("net.pool_checkouts");
    c.pool_hits += net.counter_value("net.pool_hits");
    c.control_frames += n->counting->control_frames();
    // Container collectors read executor-owned stats: run them there.
    obs::MetricsRegistry& mw = n->obs_container->metrics;
    n->run_sync([&] { mw.collect(); });
    const std::string p = "mw." + std::to_string(n->container->config().id) + ".";
    c.frames_dropped += mw.counter_value(p + "frames_dropped");
    c.frames_send_failed += mw.counter_value(p + "frames_send_failed");
    c.arq_messages += mw.counter_value(p + "arq.messages_accepted");
    c.arq_frames += mw.counter_value(p + "arq.frames_sent");
    c.arq_retransmits += mw.counter_value(p + "arq.retransmits");
    c.mftp_wire_bytes += mw.counter_value(p + "mftp.bytes_on_wire");
    c.mftp_chunk_retransmits += mw.counter_value(p + "mftp.chunk_retransmits");
  }
  return c;
}

LiveStack::Counters LiveStack::Counters::operator-(const Counters& b) const {
  Counters d;
  d.tasks_run = tasks_run - b.tasks_run;
  d.frames_sent = frames_sent - b.frames_sent;
  d.bytes_sent = bytes_sent - b.bytes_sent;
  d.frames_received = frames_received - b.frames_received;
  d.recv_batches = recv_batches - b.recv_batches;
  d.uring_cqe_batch = uring_cqe_batch - b.uring_cqe_batch;
  d.pool_checkouts = pool_checkouts - b.pool_checkouts;
  d.pool_hits = pool_hits - b.pool_hits;
  d.control_frames = control_frames - b.control_frames;
  d.frames_dropped = frames_dropped - b.frames_dropped;
  d.frames_send_failed = frames_send_failed - b.frames_send_failed;
  d.arq_messages = arq_messages - b.arq_messages;
  d.arq_frames = arq_frames - b.arq_frames;
  d.arq_retransmits = arq_retransmits - b.arq_retransmits;
  d.mftp_wire_bytes = mftp_wire_bytes - b.mftp_wire_bytes;
  d.mftp_chunk_retransmits = mftp_chunk_retransmits - b.mftp_chunk_retransmits;
  return d;
}

Samples derive_delivery_spans(const SpanBuffer& publisher,
                              const std::vector<const SpanBuffer*>& subscribers,
                              const std::string& path, const std::string& workload,
                              Result& r) {
  std::vector<int64_t> pub_end;
  for (const Span& s : publisher.spans()) {
    if (s.name != SpanName::kPublish) continue;
    if (s.msg >= pub_end.size()) pub_end.resize(s.msg + 1, 0);
    pub_end[s.msg] = s.end_ns;
  }
  std::vector<int64_t> last_entry(pub_end.size(), 0);
  SpanBuffer derived;
  Samples deliver_ns;
  size_t handlers = 0;
  for (const SpanBuffer* b : subscribers) handlers += b->spans().size();
  derived.enable(handlers + pub_end.size());
  deliver_ns.reserve(handlers);
  for (const SpanBuffer* b : subscribers) {
    for (const Span& s : b->spans()) {
      if (s.name != SpanName::kHandler || s.msg >= pub_end.size() || pub_end[s.msg] == 0) {
        continue;
      }
      derived.record(SpanName::kDeliver, s.msg, pub_end[s.msg], s.start_ns);
      deliver_ns.add(s.start_ns - pub_end[s.msg]);
      last_entry[s.msg] = std::max(last_entry[s.msg], s.start_ns);
    }
  }
  for (const Span& s : publisher.spans()) {
    if (s.name == SpanName::kQueueWait && s.msg < last_entry.size() && last_entry[s.msg] != 0) {
      derived.record(SpanName::kMessage, s.msg, s.start_ns, last_entry[s.msg]);
    }
  }
  if (!path.empty()) {
    std::vector<const SpanBuffer*> bufs = {&publisher, &derived};
    bufs.insert(bufs.end(), subscribers.begin(), subscribers.end());
    add_self_time_details(r, write_span_dump(path, bufs, workload));
  }
  return deliver_ns;
}

void fill_live_layers(LayerValues& v, const LiveStack::Counters& d,
                      double msgs, double wall_s) {
  auto f = [](uint64_t x) { return static_cast<double>(x); };
  v.tasks_per_msg = ratio(f(d.tasks_run), msgs);
  v.control_frames_per_s = ratio(f(d.control_frames), wall_s);
  v.frames_dropped = f(d.frames_dropped);
  v.frames_send_failed = f(d.frames_send_failed);
  v.arq_frames_per_event = ratio(f(d.arq_frames), f(d.arq_messages));
  v.arq_retransmits_per_kevent = ratio(1000.0 * f(d.arq_retransmits), f(d.arq_messages));
  v.frame_pool_hit_ratio = ratio(f(d.pool_hits), f(d.pool_checkouts));
  v.frames_sent_per_msg = ratio(f(d.frames_sent), msgs);
  v.bytes_sent_per_msg = ratio(f(d.bytes_sent), msgs);
  v.frames_per_recv_batch = ratio(f(d.frames_received), f(d.recv_batches));
  v.uring_cqe_per_frame = ratio(f(d.uring_cqe_batch), f(d.frames_received));
}

// --- generator --------------------------------------------------------------------

OpenLoopGenerator::OpenLoopGenerator(std::vector<int64_t> due_ns,
                                     std::function<void(size_t)> fire)
    : due_(std::move(due_ns)), fire_(std::move(fire)) {
  late_.reserve(due_.size());
  thread_ = std::thread([this] {
    tighten_timer_slack();
    const double c0 = thread_cpu_s();
    for (size_t i = 0; i < due_.size(); ++i) {
      sleep_until_ns(due_[i]);
      late_.add(now_ns() - due_[i]);
      fire_(i);
    }
    cpu_s_ = thread_cpu_s() - c0;
  });
}

OpenLoopGenerator::~OpenLoopGenerator() { join(); }

void OpenLoopGenerator::join() {
  if (thread_.joinable()) thread_.join();
}

bool wait_until(const std::function<bool()>& ready, double timeout_s) {
  const int64_t deadline = now_ns() + static_cast<int64_t>(timeout_s * 1e9);
  while (!ready()) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

void Window::begin(LiveStack& stack) {
  c0 = stack.counters();
  steal.start();
  allocs0 = heap_allocs();
  cpu0_s = process_cpu_s();
  t0_ns = now_ns();
}

}  // namespace marea::perfbench
