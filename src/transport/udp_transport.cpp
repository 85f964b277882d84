#include "transport/udp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "transport/send_retry.h"
#include "transport/socket_setup.h"
#include "util/logging.h"

#if !defined(__linux__)
// Fallback shape for the batched send/recv scratch on platforms without
// recvmmsg/sendmmsg; the batch degrades to one sendmsg/recvmsg per call.
struct mmsghdr {
  msghdr msg_hdr;
  unsigned int msg_len;
};
#endif

namespace marea::transport {

using detail::make_addr;

namespace {

// recvmmsg/sendmmsg are Linux syscalls; elsewhere (or if the kernel
// reports ENOSYS) the batch degrades to one recvmsg/sendmsg per call.
#if defined(__linux__)
constexpr bool kHaveMmsg = true;
#else
constexpr bool kHaveMmsg = false;
#endif

std::atomic<bool> g_mmsg_enosys{false};

int recv_batch(int fd, mmsghdr* msgs, unsigned int n) {
#if defined(__linux__)
  if (kHaveMmsg && !g_mmsg_enosys.load(std::memory_order_relaxed)) {
    int got = recvmmsg(fd, msgs, n, MSG_DONTWAIT, nullptr);
    if (got >= 0 || errno != ENOSYS) return got;
    g_mmsg_enosys.store(true, std::memory_order_relaxed);
  }
#endif
  ssize_t got = recvmsg(fd, &msgs[0].msg_hdr, MSG_DONTWAIT);
  if (got < 0) return -1;
  msgs[0].msg_len = static_cast<unsigned int>(got);
  return 1;
}

int send_batch(int fd, mmsghdr* msgs, unsigned int n) {
#if defined(__linux__)
  if (kHaveMmsg && !g_mmsg_enosys.load(std::memory_order_relaxed)) {
    int sent = sendmmsg(fd, msgs, n, 0);
    if (sent >= 0 || errno != ENOSYS) return sent;
    g_mmsg_enosys.store(true, std::memory_order_relaxed);
  }
#endif
  unsigned int sent = 0;
  for (; sent < n; ++sent) {
    ssize_t rc = sendmsg(fd, &msgs[sent].msg_hdr, 0);
    if (rc < 0) return sent > 0 ? static_cast<int>(sent) : -1;
    msgs[sent].msg_len = static_cast<unsigned int>(rc);
  }
  return static_cast<int>(sent);
}

}  // namespace

HostId ipv4_host(const std::string& dotted) {
  in_addr addr{};
  if (inet_pton(AF_INET, dotted.c_str(), &addr) != 1) return 0;
  return ntohl(addr.s_addr);
}

std::string host_to_ipv4(HostId host) {
  in_addr addr{};
  addr.s_addr = htonl(host);
  char buf[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &addr, buf, sizeof buf);
  return buf;
}

UdpTransport::Socket::~Socket() {
  if (fd >= 0) ::close(fd);
}

UdpTransport::UdpTransport(const std::string& local_ip,
                           UdpTransportOptions options)
    : options_(options) {
  local_host_ = ipv4_host(local_ip);
  if (local_host_ == 0) {
    throw std::runtime_error("UdpTransport: bad local ip " + local_ip);
  }
  if (options_.recv_batch < 1) options_.recv_batch = 1;
  if (options_.max_batches_per_event < 1) options_.max_batches_per_event = 1;
  epoll_fd_ = epoll_create1(0);
  if (epoll_fd_ < 0) {
    throw std::runtime_error("UdpTransport: epoll_create1 failed");
  }
  if (pipe(wake_pipe_) != 0) {
    ::close(epoll_fd_);
    throw std::runtime_error("UdpTransport: pipe() failed");
  }
  fcntl(wake_pipe_[0], F_SETFL, O_NONBLOCK);
  fcntl(wake_pipe_[1], F_SETFL, O_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // token 0 = wake pipe
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_pipe_[0], &ev) != 0) {
    ::close(epoll_fd_);
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    throw std::runtime_error("UdpTransport: epoll_ctl(wake) failed");
  }
  running_ = true;
  poller_ = std::thread([this] { poll_loop(); });
}

UdpTransport::~UdpTransport() {
  // Stop publishing counters before the machinery winds down (the base
  // destructor would catch this, but do it while everything is alive).
  detach_obs();
  running_ = false;
  wake_poller();
  if (poller_.joinable()) poller_.join();
  {
    std::lock_guard lock(mutex_);
    // Sockets close their fds as the last references die — all of them
    // live in these tables now that the poll thread is joined.
    by_token_.clear();
    by_key_.clear();
    if (send_fd_ >= 0) ::close(send_fd_);
    send_fd_ = -1;
  }
  ::close(epoll_fd_);
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

void UdpTransport::set_peers(std::vector<Address> peers) {
  std::lock_guard lock(mutex_);
  peers_ = std::move(peers);
}

uint16_t UdpTransport::bound_port(uint16_t requested) const {
  if (requested != 0) return requested;
  std::lock_guard lock(mutex_);
  return last_ephemeral_port_;
}

void UdpTransport::wake_poller() {
  char byte = 1;
  ssize_t n = write(wake_pipe_[1], &byte, 1);
  (void)n;
}

int UdpTransport::shared_send_fd_locked() {
  if (send_fd_ < 0) {
    send_fd_ = socket(AF_INET, SOCK_DGRAM, 0);
    if (send_fd_ >= 0) {
      sockaddr_in addr = make_addr(local_host_, 0);
      if (::bind(send_fd_, reinterpret_cast<sockaddr*>(&addr),
                 sizeof addr) != 0) {
        ::close(send_fd_);
        send_fd_ = -1;
      } else {
        int loop = 1;
        setsockopt(send_fd_, IPPROTO_IP, IP_MULTICAST_LOOP, &loop,
                   sizeof loop);
        in_addr ifaddr{};
        ifaddr.s_addr = htonl(local_host_);
        setsockopt(send_fd_, IPPROTO_IP, IP_MULTICAST_IF, &ifaddr,
                   sizeof ifaddr);
      }
    }
  }
  return send_fd_;
}

Status UdpTransport::open_socket(uint16_t port, RecvHandler handler,
                                 FrameRecvHandler frame_handler,
                                 bool multicast, GroupId group) {
  std::string err;
  const bool ephemeral = !multicast && port == 0;
  int fd = detail::open_live_socket(local_host_, &port, multicast, group,
                                    &err);
  if (fd < 0) return internal_error(err);

  auto sock = std::make_shared<Socket>();
  sock->fd = fd;
  sock->port = port;
  sock->is_multicast = multicast;
  sock->group = group;
  sock->handler = std::move(handler);
  sock->frame_handler = std::move(frame_handler);

  const uint64_t key = key_of(port, multicast, group);
  {
    std::lock_guard lock(mutex_);
    if (by_key_.count(key)) {
      return already_exists_error("port/group already bound");
    }
    // The canonical multicast UDP port of a joined group and a caller's
    // unicast port share one number space: SO_REUSEPORT would let both
    // bind and silently split or cross-deliver traffic, so the collision
    // is rejected here instead of at delivery time.
    for (const auto& [k, other] : by_key_) {
      if (other->is_multicast != multicast && other->port == port) {
        return already_exists_error(
            multicast
                ? "multicast_port(" + std::to_string(group) +
                      ") collides with bound unicast port " +
                      std::to_string(port)
                : "port " + std::to_string(port) +
                      " collides with multicast_port of joined group " +
                      std::to_string(other->group));
      }
    }
    sock->token = next_token_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = sock->token;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return internal_error("epoll_ctl(ADD) failed");
    }
    by_key_[key] = sock;
    by_token_[sock->token] = sock;
    if (ephemeral) last_ephemeral_port_ = port;
  }
  // `sock` (and the fd) is freed by shared_ptr if a check above returned.
  return Status::ok();
}

Status UdpTransport::bind(uint16_t port, RecvHandler handler) {
  if (!handler) return invalid_argument_error("bind: empty handler");
  return open_socket(port, std::move(handler), nullptr, false, 0);
}

Status UdpTransport::bind_frames(uint16_t port, FrameRecvHandler handler) {
  if (!handler) return invalid_argument_error("bind_frames: empty handler");
  return open_socket(port, nullptr, std::move(handler), false, 0);
}

void UdpTransport::unbind(uint16_t port) {
  close_socket(port, false, 0);
}

void UdpTransport::close_socket(uint16_t port, bool multicast,
                                GroupId group) {
  SocketPtr sock;
  {
    std::lock_guard lock(mutex_);
    auto it = by_key_.find(key_of(port, multicast, group));
    if (it == by_key_.end()) return;
    sock = it->second;
    sock->closed.store(true, std::memory_order_release);
    // DEL while the fd is still open (the Socket owns it until the last
    // reference — possibly held by the poll thread mid-dispatch — dies,
    // so the fd number cannot be reused under a reader).
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, sock->fd, nullptr);
    by_token_.erase(sock->token);
    by_key_.erase(it);
  }
}

Status UdpTransport::join_group(GroupId group, uint16_t port) {
  // Deliveries for the group are handed to the handler of the member's
  // already-bound unicast port; the group socket itself binds the
  // canonical multicast UDP port.
  RecvHandler handler;
  FrameRecvHandler frame_handler;
  {
    std::lock_guard lock(mutex_);
    auto it = by_key_.find(key_of(port, false, 0));
    if (it == by_key_.end()) {
      return failed_precondition_error(
          "join_group: bind the member port first");
    }
    handler = it->second->handler;
    frame_handler = it->second->frame_handler;
  }
  return open_socket(multicast_port(group), std::move(handler),
                     std::move(frame_handler), true, group);
}

void UdpTransport::leave_group(GroupId group, uint16_t port) {
  (void)port;
  close_socket(0, true, group);
}

int UdpTransport::resolve_send_fd(uint16_t src_port, SocketPtr& pin) {
  std::lock_guard lock(mutex_);
  // Prefer the socket bound to src_port so the peer sees a stable,
  // reply-able source address; fall back to the shared send socket.
  if (auto it = by_key_.find(key_of(src_port, false, 0));
      it != by_key_.end()) {
    pin = it->second;
    return pin->fd;
  }
  return shared_send_fd_locked();
}

Status UdpTransport::sendto_counted(int fd, const void* addr,
                                    size_t addr_len, BytesView data,
                                    const char* what) {
  ssize_t n = sendto(fd, data.data(), data.size(), 0,
                     static_cast<const sockaddr*>(addr),
                     static_cast<socklen_t>(addr_len));
  if (n < 0) {
    stats_.send_errors.fetch_add(1, std::memory_order_relaxed);
    trace_drop(obs::TraceEvent::kDrop, static_cast<uint64_t>(errno),
               data.size());
    return unavailable_error(std::string(what) + " failed");
  }
  stats_.frames_sent.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_sent.fetch_add(static_cast<uint64_t>(n),
                              std::memory_order_relaxed);
  return Status::ok();
}

Status UdpTransport::send(uint16_t src_port, Address dst, BytesView data) {
  SocketPtr pin;
  int fd = resolve_send_fd(src_port, pin);
  if (fd < 0) return internal_error("no send socket");
  // The syscall runs outside the lock: a slow or blocking send never
  // stalls receive dispatch or other senders.
  sockaddr_in addr = make_addr(dst.host, dst.port);
  return sendto_counted(fd, &addr, sizeof addr, data, "sendto");
}

Status UdpTransport::send_multicast(uint16_t src_port, GroupId group,
                                    BytesView data) {
  SocketPtr pin;
  int fd = resolve_send_fd(src_port, pin);
  if (fd < 0) return internal_error("no send socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(multicast_port(group));
  addr.sin_addr.s_addr = detail::group_ip(group);
  return sendto_counted(fd, &addr, sizeof addr, data, "multicast sendto");
}

size_t UdpTransport::flush_batch(int fd, mmsghdr* msgs, size_t count,
                                 size_t payload_bytes) {
  SendRetryPolicy policy;
  policy.transient_attempts = options_.send_retry_attempts;
  const SendRetryResult r = retry_send_batches(
      count, policy, [&](size_t done, size_t remaining) {
        int sent = send_batch(fd, msgs + done,
                              static_cast<unsigned int>(remaining));
        return sent >= 0 ? sent : -errno;
      });
  if (r.short_accepts > 0) {
    stats_.sendmmsg_short.fetch_add(r.short_accepts,
                                    std::memory_order_relaxed);
  }
  if (r.error != 0) {
    stats_.send_errors.fetch_add(count - r.accepted,
                                 std::memory_order_relaxed);
    trace_drop(obs::TraceEvent::kDrop, static_cast<uint64_t>(r.error),
               payload_bytes);
  }
  if (r.accepted > 0) {
    stats_.frames_sent.fetch_add(r.accepted, std::memory_order_relaxed);
    stats_.bytes_sent.fetch_add(r.accepted * payload_bytes,
                                std::memory_order_relaxed);
  }
  return r.accepted;
}

Status UdpTransport::fanout_send(uint16_t src_port, uint16_t dst_port,
                                 BytesView data) {
  SocketPtr pin;
  int fd = -1;
  // Fixed-size stack fan-out state: no per-send heap allocation for
  // realistic avionics peer counts (heap fallback above that).
  constexpr size_t kStackPeers = 16;
  Address stack_peers[kStackPeers];
  std::vector<Address> heap_peers;
  const Address* peers = stack_peers;
  size_t n_peers = 0;
  {
    std::lock_guard lock(mutex_);
    if (auto it = by_key_.find(key_of(src_port, false, 0));
        it != by_key_.end()) {
      pin = it->second;
      fd = pin->fd;
    } else {
      fd = shared_send_fd_locked();
    }
    // Self-filter under the lock, where our bound ports are knowable: a
    // port-less peer entry on our own host is always us; an explicit
    // port is us only if one of our sockets holds it (multi-process
    // topologies share one host address across processes).
    auto is_self = [&](const Address& p) {
      if (p.host != local_host_) return false;
      return p.port == 0 || by_key_.count(key_of(p.port, false, 0)) > 0;
    };
    if (peers_.size() > kStackPeers) {
      heap_peers.reserve(peers_.size());
      for (const Address& p : peers_) {
        if (!is_self(p)) heap_peers.push_back(p);
      }
      peers = heap_peers.data();
      n_peers = heap_peers.size();
    } else {
      for (const Address& p : peers_) {
        if (!is_self(p)) stack_peers[n_peers++] = p;
      }
    }
  }
  if (fd < 0) return internal_error("no send socket");

  sockaddr_in addrs[kStackPeers];
  mmsghdr msgs[kStackPeers];
  iovec iov{const_cast<uint8_t*>(data.data()), data.size()};
  Status last = Status::ok();
  size_t batch = 0;
  auto flush = [&](size_t count) {
    if (flush_batch(fd, msgs, count, data.size()) < count) {
      last = unavailable_error("broadcast sendmmsg failed");
    }
  };
  for (size_t i = 0; i < n_peers; ++i) {
    addrs[batch] =
        make_addr(peers[i].host, peers[i].port != 0 ? peers[i].port : dst_port);
    msgs[batch] = mmsghdr{};
    msgs[batch].msg_hdr.msg_name = &addrs[batch];
    msgs[batch].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    // Every destination's iovec points at the SAME payload bytes: one
    // shared frame, N kernel copies, zero user-space copies.
    msgs[batch].msg_hdr.msg_iov = &iov;
    msgs[batch].msg_hdr.msg_iovlen = 1;
    if (++batch == kStackPeers) {
      flush(batch);
      batch = 0;
      if (!last.is_ok()) return last;
    }
  }
  if (batch > 0) flush(batch);
  return last;
}

Status UdpTransport::send_broadcast(uint16_t src_port, uint16_t dst_port,
                                    BytesView data) {
  return fanout_send(src_port, dst_port, data);
}

Status UdpTransport::send_frame(uint16_t src_port, Address dst,
                                SharedFrame frame) {
  return send(src_port, dst, frame.view());
}

Status UdpTransport::send_frame_multicast(uint16_t src_port, GroupId group,
                                          SharedFrame frame) {
  return send_multicast(src_port, group, frame.view());
}

Status UdpTransport::send_frame_broadcast(uint16_t src_port,
                                          uint16_t dst_port,
                                          SharedFrame frame) {
  return fanout_send(src_port, dst_port, frame.view());
}

Status UdpTransport::send_frame_to_many(uint16_t src_port,
                                        const Address* dst, size_t n_dst,
                                        const SharedFrame& frame) {
  SocketPtr pin;
  int fd = resolve_send_fd(src_port, pin);
  if (fd < 0) return internal_error("no send socket");
  const BytesView data = frame.view();
  // Unlike fanout_send the destination list is caller-owned and already
  // filtered (gateway subscribers), so there is no peer-table copy and
  // no self check: just batch the syscalls over fixed stack state.
  constexpr size_t kBatch = 32;
  sockaddr_in addrs[kBatch];
  mmsghdr msgs[kBatch];
  iovec iov{const_cast<uint8_t*>(data.data()), data.size()};
  Status last = Status::ok();
  for (size_t i = 0; i < n_dst;) {
    const size_t batch = std::min(kBatch, n_dst - i);
    for (size_t j = 0; j < batch; ++j) {
      addrs[j] = make_addr(dst[i + j].host, dst[i + j].port);
      msgs[j] = mmsghdr{};
      msgs[j].msg_hdr.msg_name = &addrs[j];
      msgs[j].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      msgs[j].msg_hdr.msg_iov = &iov;
      msgs[j].msg_hdr.msg_iovlen = 1;
    }
    if (flush_batch(fd, msgs, batch, data.size()) < batch) {
      last = unavailable_error("send_frame_to_many failed");
    }
    i += batch;
  }
  return last;
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

struct UdpTransport::RecvScratch {
  explicit RecvScratch(int batch)
      : leases(batch), iovs(batch), froms(batch), msgs(batch) {}
  std::vector<FrameLease> leases;
  std::vector<iovec> iovs;
  std::vector<sockaddr_in> froms;
  std::vector<mmsghdr> msgs;
};

void UdpTransport::drain_socket(const SocketPtr& s, RecvScratch& scratch) {
  const int batch = static_cast<int>(scratch.msgs.size());
  for (int round = 0; round < options_.max_batches_per_event; ++round) {
    for (int i = 0; i < batch; ++i) {
      // A lease the last round did not hand over is still at full
      // length; only consumed ones are replaced.
      if (!scratch.leases[i].valid()) {
        scratch.leases[i] = frame_pool().acquire_recv(options_.recv_buffer);
      }
      Buffer& buf = scratch.leases[i].buffer();
      scratch.iovs[i] = iovec{buf.data(), buf.size()};
      scratch.msgs[i] = mmsghdr{};
      scratch.msgs[i].msg_hdr.msg_iov = &scratch.iovs[i];
      scratch.msgs[i].msg_hdr.msg_iovlen = 1;
      scratch.msgs[i].msg_hdr.msg_name = &scratch.froms[i];
      scratch.msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    }
    int got = recv_batch(s->fd, scratch.msgs.data(),
                         static_cast<unsigned int>(batch));
    if (got < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        stats_.recv_errors.fetch_add(1, std::memory_order_relaxed);
        trace_drop(obs::TraceEvent::kDrop, static_cast<uint64_t>(errno), 0);
      }
      return;
    }
    if (got == 0) return;
    stats_.recv_batches.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < got; ++i) {
      const size_t len = scratch.msgs[i].msg_len;
      Address from{ntohl(scratch.froms[i].sin_addr.s_addr),
                   ntohs(scratch.froms[i].sin_port)};
      if (scratch.msgs[i].msg_hdr.msg_flags & MSG_TRUNC) {
        // The kernel clipped the datagram to our buffer: delivering it
        // would hand decode a silently corrupted frame. Drop loudly.
        stats_.drops_truncated.fetch_add(1, std::memory_order_relaxed);
        trace_drop(obs::TraceEvent::kDrop,
                   (static_cast<uint64_t>(from.host) << 16) | from.port,
                   len);
        continue;  // lease stays checked out for the next round
      }
      stats_.frames_received.fetch_add(1, std::memory_order_relaxed);
      stats_.bytes_received.fetch_add(len, std::memory_order_relaxed);
      if (s->closed.load(std::memory_order_acquire)) continue;
      if (s->is_multicast && from.host == local_host_) {
        stats_.own_copies_filtered.fetch_add(1, std::memory_order_relaxed);
        continue;  // our own loopback copy
      }
      if (s->frame_handler) {
        // Publish exactly the datagram as the frame's view (the slab
        // keeps its length), hand the refcounted slab over — zero
        // user-space copies.
        s->frame_handler(
            from, std::move(scratch.leases[i]).freeze_prefix(len));
      } else if (s->handler) {
        s->handler(from,
                   BytesView(scratch.leases[i].buffer().data(), len));
      }
    }
    if (got < batch) return;  // queue drained
  }
}

void UdpTransport::poll_loop() {
  constexpr int kMaxEvents = 16;
  epoll_event events[kMaxEvents];
  RecvScratch scratch(options_.recv_batch);
  while (running_.load(std::memory_order_acquire)) {
    // The 100 ms timeout is only a shutdown backstop; wake_poller()
    // interrupts the wait for anything urgent.
    int n = epoll_wait(epoll_fd_, events, kMaxEvents, 100);
    if (n < 0) {
      if (errno != EINTR) {
        stats_.recv_errors.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t token = events[i].data.u64;
      if (token == 0) {
        char drain[64];
        while (read(wake_pipe_[0], drain, sizeof drain) > 0) {
        }
        continue;
      }
      SocketPtr s;
      {
        std::lock_guard lock(mutex_);
        auto it = by_token_.find(token);
        if (it != by_token_.end()) s = it->second;
      }
      // Tokens are never reused: an event for a since-closed socket
      // resolves to nothing here and is inert — it cannot alias a newer
      // socket that happens to occupy the same fd number.
      if (!s) continue;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        // Clear the pending socket error (e.g. a routed ICMP) so a
        // level-triggered wait does not spin on it; EPOLLIN data below
        // still drains normally.
        int err = 0;
        socklen_t len = sizeof err;
        getsockopt(s->fd, SOL_SOCKET, SO_ERROR, &err, &len);
        stats_.socket_errors.fetch_add(1, std::memory_order_relaxed);
        trace_drop(obs::TraceEvent::kDrop, static_cast<uint64_t>(err),
                   s->port);
      }
      if (events[i].events & EPOLLIN) drain_socket(s, scratch);
    }
  }
}

}  // namespace marea::transport
