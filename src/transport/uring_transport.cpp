#include "transport/uring_transport.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "transport/send_retry.h"
#include "transport/socket_setup.h"
#include "util/logging.h"

#if defined(__linux__)

#include <arpa/inet.h>
#include <linux/io_uring.h>
#include <netinet/in.h>
#include <sys/eventfd.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace marea::transport {

using detail::make_addr;

namespace {

int sys_uring_setup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(syscall(__NR_io_uring_setup, entries, p));
}

int sys_uring_enter(int fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags, const void* arg, size_t argsz) {
  return static_cast<int>(syscall(__NR_io_uring_enter, fd, to_submit,
                                  min_complete, flags, arg, argsz));
}

int sys_uring_register(int fd, unsigned op, void* arg, unsigned nr) {
  return static_cast<int>(syscall(__NR_io_uring_register, fd, op, arg, nr));
}

// The build box's uapi header can trail the running kernel; these are
// ABI constants, fixed forever once released, so defining the missing
// ones locally is safe (the feature bits below are only acted on when
// the kernel actually reports them at setup time).
#ifndef IORING_FEAT_MIN_TIMEOUT
#define IORING_FEAT_MIN_TIMEOUT (1U << 15)
#endif

// io_uring_getevents_arg with the min_wait_usec field kernels >= 6.12
// carved out of the old pad word: "wait up to min_wait_usec to
// accumulate wait_for completions, then return whatever is there; if
// none arrived at all, keep waiting for the first one up to ts". The
// kernel copies exactly argsz bytes, so passing this layout to older
// kernels is still correct — they see the field as the (must-be-zero)
// pad, and we only set it when IORING_FEAT_MIN_TIMEOUT is reported.
struct GetEventsArg {
  uint64_t sigmask = 0;
  uint32_t sigmask_sz = 0;
  uint32_t min_wait_usec = 0;
  uint64_t ts = 0;
};
static_assert(sizeof(GetEventsArg) == sizeof(io_uring_getevents_arg));

// Minimal raw-syscall io_uring wrapper (the toolchain has no liburing):
// one SQ/CQ pair, mmap'd per io_uring_setup's offsets, with batched
// submission folded into the completion wait — the steady-state cost of
// a whole send batch or receive drain is a single io_uring_enter (zero
// with SQPOLL).
struct Ring {
  int fd = -1;
  io_uring_params params{};
  uint8_t* sq_mem = nullptr;
  size_t sq_len = 0;
  uint8_t* cq_mem = nullptr;
  size_t cq_len = 0;
  io_uring_sqe* sqes = nullptr;
  size_t sqes_len = 0;
  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned* sq_array = nullptr;
  unsigned* sq_flags = nullptr;
  unsigned sq_mask = 0;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  io_uring_cqe* cqe_base = nullptr;
  unsigned cq_mask = 0;
  unsigned to_submit = 0;  // SQEs staged since the last enter
  bool sqpoll = false;

  // `want_defer` asks for DEFER_TASKRUN|SINGLE_ISSUER: completion
  // task-work queues on the ring instead of waking the owner thread per
  // event, and runs batched when the owner's enter drains it — the
  // difference between one scheduler round-trip per datagram and one
  // per batch. The CALLING THREAD becomes the ring's single issuer:
  // every subsequent get_sqe/flush on such a ring must come from it.
  int init(unsigned entries, bool want_sqpoll, bool want_defer) {
    params = {};
    if (want_sqpoll) {
      params.flags = IORING_SETUP_SQPOLL;
      params.sq_thread_idle = 50;
      fd = sys_uring_setup(entries, &params);
    }
    if (fd < 0 && want_defer) {
      params = {};
      params.flags = IORING_SETUP_SINGLE_ISSUER |
                     IORING_SETUP_DEFER_TASKRUN | IORING_SETUP_COOP_TASKRUN;
      fd = sys_uring_setup(entries, &params);
    }
    if (fd < 0) {
      // COOP_TASKRUN: completion task-work piggybacks on our own ring
      // transitions instead of preempting the thread with an IPI — a
      // measurable win for the busy dispatch loop. Incompatible with
      // SQPOLL, and absent before 5.19: degrade silently either way.
      params = {};
      params.flags = IORING_SETUP_COOP_TASKRUN;
      fd = sys_uring_setup(entries, &params);
    }
    if (fd < 0) {
      // SQPOLL can need privileges on older kernels: degrade silently.
      params = {};
      fd = sys_uring_setup(entries, &params);
    }
    if (fd < 0) return -errno;
    sqpoll = (params.flags & IORING_SETUP_SQPOLL) != 0;
    sq_len = params.sq_off.array + params.sq_entries * sizeof(unsigned);
    cq_len = params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
    if (params.features & IORING_FEAT_SINGLE_MMAP) {
      if (cq_len > sq_len) sq_len = cq_len;
      cq_len = sq_len;
    }
    void* sq = mmap(nullptr, sq_len, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQ_RING);
    if (sq == MAP_FAILED) return -errno;
    sq_mem = static_cast<uint8_t*>(sq);
    if (params.features & IORING_FEAT_SINGLE_MMAP) {
      cq_mem = sq_mem;
    } else {
      void* cq = mmap(nullptr, cq_len, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_CQ_RING);
      if (cq == MAP_FAILED) return -errno;
      cq_mem = static_cast<uint8_t*>(cq);
    }
    sqes_len = params.sq_entries * sizeof(io_uring_sqe);
    void* se = mmap(nullptr, sqes_len, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQES);
    if (se == MAP_FAILED) return -errno;
    sqes = static_cast<io_uring_sqe*>(se);
    sq_head = reinterpret_cast<unsigned*>(sq_mem + params.sq_off.head);
    sq_tail = reinterpret_cast<unsigned*>(sq_mem + params.sq_off.tail);
    sq_mask = *reinterpret_cast<unsigned*>(sq_mem + params.sq_off.ring_mask);
    sq_array = reinterpret_cast<unsigned*>(sq_mem + params.sq_off.array);
    sq_flags = reinterpret_cast<unsigned*>(sq_mem + params.sq_off.flags);
    cq_head = reinterpret_cast<unsigned*>(cq_mem + params.cq_off.head);
    cq_tail = reinterpret_cast<unsigned*>(cq_mem + params.cq_off.tail);
    cq_mask = *reinterpret_cast<unsigned*>(cq_mem + params.cq_off.ring_mask);
    cqe_base = reinterpret_cast<io_uring_cqe*>(cq_mem + params.cq_off.cqes);
    return 0;
  }

  void destroy() {
    if (sqes) munmap(sqes, sqes_len);
    if (cq_mem && cq_mem != sq_mem) munmap(cq_mem, cq_len);
    if (sq_mem) munmap(sq_mem, sq_len);
    sqes = nullptr;
    sq_mem = cq_mem = nullptr;
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  // Stages one zeroed SQE; null when the SQ is full (a short submit —
  // flush and retry). The tail store is release so an SQPOLL kernel
  // thread sees the fully written entry.
  io_uring_sqe* get_sqe() {
    const unsigned head =
        std::atomic_ref<unsigned>(*sq_head).load(std::memory_order_acquire);
    const unsigned tail = *sq_tail;
    if (tail - head >= params.sq_entries) return nullptr;
    io_uring_sqe* s = &sqes[tail & sq_mask];
    std::memset(s, 0, sizeof *s);
    sq_array[tail & sq_mask] = tail & sq_mask;
    std::atomic_ref<unsigned>(*sq_tail).store(tail + 1,
                                              std::memory_order_release);
    ++to_submit;
    return s;
  }

  unsigned cq_ready() const {
    const unsigned tail =
        std::atomic_ref<unsigned>(*cq_tail).load(std::memory_order_acquire);
    return tail - *cq_head;
  }

  io_uring_cqe* cq_peek(unsigned i) {
    return &cqe_base[(*cq_head + i) & cq_mask];
  }

  void cq_advance(unsigned n) {
    std::atomic_ref<unsigned>(*cq_head).store(*cq_head + n,
                                              std::memory_order_release);
  }

  // Submits everything staged and (optionally) waits until `wait_for`
  // CQEs are ready — one io_uring_enter for the whole batch. A null
  // timeout waits indefinitely; otherwise EXT_ARG bounds the wait.
  // `min_wait_usec` (only honored when the kernel reports
  // IORING_FEAT_MIN_TIMEOUT) turns a wait_for > 1 into a bounded
  // batching window: accumulate up to wait_for completions for that
  // long, then return whatever arrived — and if nothing arrived at all,
  // fall back to waiting for the first completion up to `timeout`.
  // Returns 0, or -EBUSY when the kernel wants the CQ drained first.
  int flush(unsigned wait_for, const __kernel_timespec* timeout,
            unsigned min_wait_usec = 0) {
    unsigned submit = to_submit;
    unsigned enter_flags = 0;
    if (sqpoll) {
      to_submit = 0;
      submit = 0;
      if (std::atomic_ref<unsigned>(*sq_flags)
              .load(std::memory_order_relaxed) &
          IORING_SQ_NEED_WAKEUP) {
        enter_flags |= IORING_ENTER_SQ_WAKEUP;
      } else if (wait_for == 0) {
        return 0;  // zero-syscall submit: the kernel thread is awake
      }
    }
    GetEventsArg arg{};
    const void* argp = nullptr;
    size_t argsz = 0;
    if (wait_for > 0) {
      enter_flags |= IORING_ENTER_GETEVENTS;
      if (timeout) {
        arg.ts = reinterpret_cast<uint64_t>(timeout);
        if (params.features & IORING_FEAT_MIN_TIMEOUT) {
          arg.min_wait_usec = min_wait_usec;
        }
        enter_flags |= IORING_ENTER_EXT_ARG;
        argp = &arg;
        argsz = sizeof arg;
      }
    }
    while (true) {
      const int rc =
          sys_uring_enter(fd, submit, wait_for, enter_flags, argp, argsz);
      if (rc >= 0) {
        if (!sqpoll) {
          to_submit -= static_cast<unsigned>(rc);
          submit -= static_cast<unsigned>(rc);
        }
        if (submit == 0) return 0;
        continue;  // partial SQ accept: push the rest through
      }
      const int err = errno;
      if (err == EINTR) continue;
      if (err == ETIME) return 0;  // bounded wait expired
      if (err == EBUSY || err == EAGAIN) return -EBUSY;
      return -err;
    }
  }
};

// Dispatch-thread user_data vocabulary: token 0 is the eventfd read,
// the top bit marks ASYNC_CANCEL completions, everything else is a
// socket's (never reused) token.
constexpr uint64_t kUdEventFd = 0;
constexpr uint64_t kCancelBit = 1ull << 63;

constexpr unsigned kBufGroup = 0;
// Bytes the kernel prepends to each provided buffer before the payload:
// the recvmsg_out header plus the reserved source-address space.
constexpr size_t kRecvHeadroom =
    sizeof(io_uring_recvmsg_out) + sizeof(sockaddr_in);

constexpr size_t kSendBatch = 32;

uint64_t key_of(uint16_t port, bool multicast, GroupId group) {
  return multicast ? ((1ull << 32) | group) : port;
}

bool probe_uring() {
  if (const char* env = std::getenv("MAREA_URING")) {
    if (std::string_view(env) == "off") return false;
  }
  io_uring_params p{};
  int fd = sys_uring_setup(4, &p);
  if (fd < 0) return false;
  bool ok = (p.features & IORING_FEAT_EXT_ARG) != 0 &&
            (p.features & IORING_FEAT_NODROP) != 0;
  if (ok) {
    std::vector<uint8_t> mem(
        sizeof(io_uring_probe) + 64 * sizeof(io_uring_probe_op), 0);
    auto* probe = reinterpret_cast<io_uring_probe*>(mem.data());
    if (sys_uring_register(fd, IORING_REGISTER_PROBE, probe, 64) != 0) {
      ok = false;
    } else {
      auto op_ok = [&](unsigned op) {
        return op <= probe->last_op &&
               (probe->ops[op].flags & IO_URING_OP_SUPPORTED) != 0;
      };
      // SEND_ZC (kernel 6.0) is the cheapest witness that multishot
      // recvmsg and user-mapped provided buffer rings are all present.
      ok = op_ok(IORING_OP_RECVMSG) && op_ok(IORING_OP_SENDMSG) &&
           op_ok(IORING_OP_ASYNC_CANCEL) &&
           probe->last_op >= IORING_OP_SEND_ZC;
    }
  }
  if (ok) {
    // The registration itself is the real capability test.
    const size_t len = 16 * sizeof(io_uring_buf);
    void* ring = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                      MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
    if (ring == MAP_FAILED) {
      ok = false;
    } else {
      io_uring_buf_reg reg{};
      reg.ring_addr = reinterpret_cast<uint64_t>(ring);
      reg.ring_entries = 16;
      reg.bgid = 0;
      ok = sys_uring_register(fd, IORING_REGISTER_PBUF_RING, &reg, 1) == 0;
      if (ok) sys_uring_register(fd, IORING_UNREGISTER_PBUF_RING, &reg, 1);
      munmap(ring, len);
    }
  }
  ::close(fd);
  return ok;
}

}  // namespace

bool uring_supported() {
  static const bool supported = probe_uring();
  return supported;
}

struct UringTransport::Core {
  struct USocket {
    ~USocket() {
      if (fd >= 0) ::close(fd);
    }
    int fd = -1;
    uint64_t token = 0;
    uint16_t port = 0;
    bool is_multicast = false;
    GroupId group = 0;
    RecvHandler handler;             // exactly one of handler /
    FrameRecvHandler frame_handler;  // frame_handler is set
    std::atomic<bool> closed{false};
    // Persistent template the multishot recvmsg reads its name/control
    // space reservations from; must outlive the armed request (the
    // socket stays in `draining` until the terminal CQE).
    msghdr recv_template{};
    bool armed = false;  // dispatch thread only
  };
  using SockPtr = std::shared_ptr<USocket>;

  Ring recv_ring;   // SQ produced only by the dispatch thread
  Ring send_ring;   // guarded by send_mu
  std::mutex send_mu;

  int event_fd = -1;
  uint64_t efd_buf = 0;
  bool efd_armed = false;  // dispatch thread only

  // Provided-buffer ring: entry bid i is backed by buf_leases[i], a
  // pooled FramePool slab the kernel writes datagrams into directly.
  io_uring_buf_ring* buf_ring = nullptr;
  size_t buf_ring_len = 0;
  unsigned buf_entries = 0;
  size_t buf_len = 0;
  std::vector<FrameLease> buf_leases;  // dispatch thread only after init
  uint16_t buf_tail = 0;

  // Guards the socket tables, peers, pending control queues, send_fd.
  mutable std::mutex mu;
  std::unordered_map<uint64_t, SockPtr> by_key;
  std::unordered_map<uint64_t, SockPtr> by_token;
  // Unbound but still owning an armed multishot: erased (freeing the fd)
  // when the terminal CQE arrives.
  std::unordered_map<uint64_t, SockPtr> draining;
  std::vector<SockPtr> pending_arm;
  std::vector<SockPtr> pending_cancel;
  uint64_t next_token = 1;
  std::vector<Address> peers;
  uint16_t last_ephemeral_port = 0;
  int send_fd = -1;

  std::atomic<bool> running{false};
  std::thread dispatcher;
  // Recv-side setup handshake: the dispatcher thread creates the recv
  // ring (it must be the DEFER_TASKRUN single issuer) and reports an
  // empty string on success or the failure reason; the ctor blocks on
  // the future so construction still throws with the real cause.
  std::promise<std::string> init_result;

  void wake() {
    if (event_fd < 0) return;
    const uint64_t one = 1;
    ssize_t n = ::write(event_fd, &one, sizeof one);
    (void)n;
  }

  // Re-adds bid to the provided-buffer ring (the CQE consumed its
  // entry). The address is re-read from the lease: a recycled slab and
  // a freshly acquired one publish the same way.
  //
  // The entry array is indexed through a raw cast, NOT br->bufs: under
  // C++ the uapi __DECLARE_FLEX_ARRAY expansion lands `bufs` at offset
  // 8 instead of 0 (a zero-size struct member has size 1 in C++), which
  // silently shifts every entry 8 bytes off the kernel's ABI. Entry 0
  // overlays the reserved header words; only its addr/len/bid fields
  // are written so the tail word (offset 14) is never clobbered.
  void publish_buf(unsigned bid) {
    io_uring_buf* e = reinterpret_cast<io_uring_buf*>(buf_ring) +
                      (buf_tail & (buf_entries - 1));
    e->addr = reinterpret_cast<uint64_t>(buf_leases[bid].buffer().data());
    e->len = static_cast<unsigned>(buf_len);
    e->bid = static_cast<uint16_t>(bid);
    ++buf_tail;
    std::atomic_ref<uint16_t>(buf_ring->tail)
        .store(buf_tail, std::memory_order_release);
  }

  void teardown() {
    recv_ring.destroy();
    send_ring.destroy();
    if (buf_ring) {
      munmap(buf_ring, buf_ring_len);
      buf_ring = nullptr;
    }
    if (event_fd >= 0) {
      ::close(event_fd);
      event_fd = -1;
    }
    if (send_fd >= 0) {
      ::close(send_fd);
      send_fd = -1;
    }
    by_key.clear();
    by_token.clear();
    draining.clear();
    pending_arm.clear();
    pending_cancel.clear();
    buf_leases.clear();
  }
};

UringTransport::UringTransport(const std::string& local_ip,
                               LiveTransportOptions options)
    : options_(options), core_(std::make_unique<Core>()) {
  local_host_ = ipv4_host(local_ip);
  if (local_host_ == 0) {
    throw std::runtime_error("UringTransport: bad local ip " + local_ip);
  }
  if (!uring_supported()) {
    throw std::runtime_error(
        "UringTransport: io_uring is not supported on this kernel");
  }
  if (options_.uring_entries < 64) options_.uring_entries = 64;
  unsigned be = options_.uring_buf_ring < 8 ? 8 : options_.uring_buf_ring;
  while (be & (be - 1)) ++be;  // round up to a power of two
  if (std::getenv("MAREA_URING_SQPOLL")) options_.uring_sqpoll = true;

  Core& c = *core_;
  auto fail = [&](const std::string& what) {
    c.teardown();
    throw std::runtime_error("UringTransport: " + what);
  };
  // Send ring: submitted from arbitrary sender threads under send_mu,
  // so it can never be SINGLE_ISSUER.
  if (c.send_ring.init(options_.uring_entries, options_.uring_sqpoll,
                       /*want_defer=*/false) != 0) {
    fail("send ring setup failed");
  }
  c.event_fd = eventfd(0, EFD_NONBLOCK);
  if (c.event_fd < 0) fail("eventfd failed");

  c.buf_entries = be;
  c.buf_len = options_.recv_buffer + kRecvHeadroom;
  c.buf_ring_len = be * sizeof(io_uring_buf);

  // The recv ring, its provided-buffer registration and the initial
  // leases are all created at the top of dispatch_loop(), NOT here: the
  // thread that creates a DEFER_TASKRUN ring is its single issuer, and
  // the dispatcher is the thread that drives it. Block on the handshake
  // so a setup failure still throws from the constructor.
  std::future<std::string> ready = c.init_result.get_future();
  c.running = true;
  c.dispatcher = std::thread([this] { dispatch_loop(); });
  const std::string err = ready.get();
  if (!err.empty()) {
    c.running = false;
    c.dispatcher.join();
    fail(err);
  }
}

UringTransport::~UringTransport() {
  Core& c = *core_;
  detach_obs();
  c.running = false;
  c.wake();
  if (c.dispatcher.joinable()) c.dispatcher.join();
  // The dispatcher's shutdown pass cancelled and drained every armed
  // multishot, so no kernel request references the provided buffers or
  // socket fds anymore; teardown order is now free.
  c.teardown();
}

void UringTransport::set_peers(std::vector<Address> peers) {
  std::lock_guard lock(core_->mu);
  core_->peers = std::move(peers);
}

uint16_t UringTransport::bound_port(uint16_t requested) const {
  if (requested != 0) return requested;
  std::lock_guard lock(core_->mu);
  return core_->last_ephemeral_port;
}

Status UringTransport::open_socket(uint16_t port, RecvHandler handler,
                                   FrameRecvHandler frame_handler,
                                   bool multicast, GroupId group) {
  Core& c = *core_;
  const bool ephemeral = !multicast && port == 0;
  std::string err;
  int fd = detail::open_live_socket(local_host_, &port, multicast, group,
                                    &err);
  if (fd < 0) return internal_error(err);

  auto sock = std::make_shared<Core::USocket>();
  sock->fd = fd;
  sock->port = port;
  sock->is_multicast = multicast;
  sock->group = group;
  sock->handler = std::move(handler);
  sock->frame_handler = std::move(frame_handler);
  sock->recv_template.msg_namelen = sizeof(sockaddr_in);

  const uint64_t key = key_of(port, multicast, group);
  {
    std::lock_guard lock(c.mu);
    if (c.by_key.count(key)) {
      return already_exists_error("port/group already bound");
    }
    // Same collision rule as the epoll backend (see udp_transport.cpp):
    // a unicast port and a joined group's canonical multicast port must
    // not share a number, or SO_REUSEPORT splits the traffic.
    for (const auto& [k, other] : c.by_key) {
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
    sock->token = c.next_token++;
    c.by_key[key] = sock;
    c.by_token[sock->token] = sock;
    c.pending_arm.push_back(sock);
    if (ephemeral) c.last_ephemeral_port = port;
  }
  c.wake();  // the dispatch thread arms the multishot
  return Status::ok();
}

Status UringTransport::bind(uint16_t port, RecvHandler handler) {
  if (!handler) return invalid_argument_error("bind: empty handler");
  return open_socket(port, std::move(handler), nullptr, false, 0);
}

Status UringTransport::bind_frames(uint16_t port, FrameRecvHandler handler) {
  if (!handler) return invalid_argument_error("bind_frames: empty handler");
  return open_socket(port, nullptr, std::move(handler), false, 0);
}

void UringTransport::unbind(uint16_t port) {
  close_socket(port, false, 0);
}

void UringTransport::close_socket(uint16_t port, bool multicast,
                                  GroupId group) {
  Core& c = *core_;
  {
    std::lock_guard lock(c.mu);
    auto it = c.by_key.find(key_of(port, multicast, group));
    if (it == c.by_key.end()) return;
    Core::SockPtr sock = it->second;
    sock->closed.store(true, std::memory_order_release);
    // The fd must outlive the armed multishot (the kernel holds a file
    // reference anyway): park the socket in `draining` until the
    // ASYNC_CANCEL below retires it with a terminal CQE.
    c.draining[sock->token] = sock;
    c.by_token.erase(sock->token);
    c.by_key.erase(it);
    c.pending_cancel.push_back(std::move(sock));
  }
  c.wake();
}

Status UringTransport::join_group(GroupId group, uint16_t port) {
  RecvHandler handler;
  FrameRecvHandler frame_handler;
  {
    std::lock_guard lock(core_->mu);
    auto it = core_->by_key.find(key_of(port, false, 0));
    if (it == core_->by_key.end()) {
      return failed_precondition_error(
          "join_group: bind the member port first");
    }
    handler = it->second->handler;
    frame_handler = it->second->frame_handler;
  }
  return open_socket(multicast_port(group), std::move(handler),
                     std::move(frame_handler), true, group);
}

void UringTransport::leave_group(GroupId group, uint16_t port) {
  (void)port;
  close_socket(0, true, group);
}

// ---------------------------------------------------------------------------
// Send path: batched SQEs, one enter per flush
// ---------------------------------------------------------------------------

namespace {

struct SendScratch {
  sockaddr_in addrs[kSendBatch];
  msghdr msgs[kSendBatch];
  iovec iov;
};

}  // namespace

// Flushes `count` (<= kSendBatch) prepared msghdrs as one SQE batch:
// stage, submit-and-wait in a single io_uring_enter, harvest the CQEs.
// Per-datagram transient pushback (EAGAIN/ENOBUFS/EINTR completions)
// and short SQ accepts resubmit the remainder under the shared retry
// contract (send_retry.h); hard per-datagram errors are dropped loudly.
// Returns the number of datagrams the kernel accepted.
size_t UringTransport::flush_sqe_batch(int fd, msghdr* msgs, size_t count,
                                       size_t payload_bytes) {
  Core& c = *core_;
  std::lock_guard lock(c.send_mu);
  SendRetryPolicy policy;
  policy.transient_attempts = options_.send_retry_attempts;

  msghdr* pending[kSendBatch];
  for (size_t i = 0; i < count; ++i) pending[i] = &msgs[i];
  size_t n_pending = count;
  size_t hard_failed = 0;
  int hard_errno = 0;

  const SendRetryResult r = retry_send_batches(
      count, policy, [&](size_t, size_t) -> int {
        unsigned placed = 0;
        while (placed < n_pending) {
          io_uring_sqe* sqe = c.send_ring.get_sqe();
          if (!sqe) break;  // SQ full: short submit, tail next round
          sqe->opcode = IORING_OP_SENDMSG;
          sqe->fd = fd;
          sqe->addr = reinterpret_cast<uint64_t>(pending[placed]);
          sqe->user_data = placed;
          ++placed;
        }
        if (placed == 0) return -EAGAIN;
        stats_.uring_sqe_submitted.fetch_add(placed,
                                             std::memory_order_relaxed);
        msghdr* still[kSendBatch];
        size_t n_still = 0;
        int sent_ok = 0;
        int resolved_hard = 0;
        unsigned harvested = 0;
        while (harvested < placed) {
          const int rc = c.send_ring.flush(placed - harvested, nullptr);
          if (rc < 0 && rc != -EBUSY) return rc;  // enter itself failed
          unsigned ready = c.send_ring.cq_ready();
          for (unsigned i = 0; i < ready; ++i) {
            const io_uring_cqe* cqe = c.send_ring.cq_peek(i);
            const size_t idx = static_cast<size_t>(cqe->user_data);
            if (cqe->res >= 0) {
              ++sent_ok;
            } else {
              const int err = -cqe->res;
              if (err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS ||
                  err == EINTR) {
                still[n_still++] = pending[idx];
              } else {
                ++resolved_hard;
                ++hard_failed;
                hard_errno = err;
              }
            }
          }
          harvested += ready;
          c.send_ring.cq_advance(ready);
        }
        for (size_t i = placed; i < n_pending; ++i) {
          still[n_still++] = pending[i];
        }
        std::memcpy(pending, still, n_still * sizeof(msghdr*));
        n_pending = n_still;
        // Hard failures count as resolved progress so the retry loop
        // terminates; they are subtracted from the accepted total below.
        const int resolved = sent_ok + resolved_hard;
        return resolved > 0 ? resolved : -EAGAIN;
      });

  if (r.short_accepts > 0) {
    stats_.uring_short_submits.fetch_add(r.short_accepts,
                                         std::memory_order_relaxed);
  }
  const size_t sent = r.accepted - hard_failed;
  const size_t failed = hard_failed + (count - r.accepted);
  if (failed > 0) {
    stats_.send_errors.fetch_add(failed, std::memory_order_relaxed);
    trace_drop(obs::TraceEvent::kDrop,
               static_cast<uint64_t>(hard_errno != 0 ? hard_errno : r.error),
               payload_bytes);
  }
  if (sent > 0) {
    stats_.frames_sent.fetch_add(sent, std::memory_order_relaxed);
    stats_.bytes_sent.fetch_add(sent * payload_bytes,
                                std::memory_order_relaxed);
  }
  return sent;
}

int UringTransport::resolve_send_fd(uint16_t src_port, void* pin_out) {
  Core& c = *core_;
  auto* pin = static_cast<Core::SockPtr*>(pin_out);
  std::lock_guard lock(c.mu);
  if (auto it = c.by_key.find(key_of(src_port, false, 0));
      it != c.by_key.end()) {
    *pin = it->second;
    return (*pin)->fd;
  }
  if (c.send_fd < 0) {
    uint16_t port = 0;
    std::string err;
    c.send_fd = detail::open_live_socket(local_host_, &port, false, 0, &err);
  }
  return c.send_fd;
}

Status UringTransport::send_to_addrs(uint16_t src_port, const Address* dst,
                                     size_t n_dst, uint16_t fallback_port,
                                     BytesView data, const char* what) {
  Core::SockPtr pin;
  int fd = resolve_send_fd(src_port, &pin);
  if (fd < 0) return internal_error("no send socket");
  SendScratch s;
  s.iov = iovec{const_cast<uint8_t*>(data.data()), data.size()};
  Status last = Status::ok();
  for (size_t i = 0; i < n_dst;) {
    const size_t batch = std::min(kSendBatch, n_dst - i);
    for (size_t j = 0; j < batch; ++j) {
      const Address& a = dst[i + j];
      s.addrs[j] =
          make_addr(a.host, a.port != 0 ? a.port : fallback_port);
      s.msgs[j] = msghdr{};
      s.msgs[j].msg_name = &s.addrs[j];
      s.msgs[j].msg_namelen = sizeof(sockaddr_in);
      // Every destination's iovec points at the SAME payload bytes: one
      // shared frame, N kernel copies, zero user-space copies.
      s.msgs[j].msg_iov = &s.iov;
      s.msgs[j].msg_iovlen = 1;
    }
    if (flush_sqe_batch(fd, s.msgs, batch, data.size()) < batch) {
      last = unavailable_error(std::string(what) + " failed");
    }
    i += batch;
  }
  return last;
}

Status UringTransport::send(uint16_t src_port, Address dst, BytesView data) {
  return send_to_addrs(src_port, &dst, 1, dst.port, data, "uring send");
}

Status UringTransport::send_multicast(uint16_t src_port, GroupId group,
                                      BytesView data) {
  Core::SockPtr pin;
  int fd = resolve_send_fd(src_port, &pin);
  if (fd < 0) return internal_error("no send socket");
  SendScratch s;
  s.iov = iovec{const_cast<uint8_t*>(data.data()), data.size()};
  s.addrs[0] = sockaddr_in{};
  s.addrs[0].sin_family = AF_INET;
  s.addrs[0].sin_port = htons(multicast_port(group));
  s.addrs[0].sin_addr.s_addr = detail::group_ip(group);
  s.msgs[0] = msghdr{};
  s.msgs[0].msg_name = &s.addrs[0];
  s.msgs[0].msg_namelen = sizeof(sockaddr_in);
  s.msgs[0].msg_iov = &s.iov;
  s.msgs[0].msg_iovlen = 1;
  if (flush_sqe_batch(fd, s.msgs, 1, data.size()) < 1) {
    return unavailable_error("uring multicast send failed");
  }
  return Status::ok();
}

Status UringTransport::fanout_send(uint16_t src_port, uint16_t dst_port,
                                   BytesView data) {
  Core& c = *core_;
  // Same stack-first peer filtering as the epoll backend.
  constexpr size_t kStackPeers = 16;
  Address stack_peers[kStackPeers];
  std::vector<Address> heap_peers;
  const Address* peers = stack_peers;
  size_t n_peers = 0;
  {
    std::lock_guard lock(c.mu);
    auto is_self = [&](const Address& p) {
      if (p.host != local_host_) return false;
      return p.port == 0 || c.by_key.count(key_of(p.port, false, 0)) > 0;
    };
    if (c.peers.size() > kStackPeers) {
      heap_peers.reserve(c.peers.size());
      for (const Address& p : c.peers) {
        if (!is_self(p)) heap_peers.push_back(p);
      }
      peers = heap_peers.data();
      n_peers = heap_peers.size();
    } else {
      for (const Address& p : c.peers) {
        if (!is_self(p)) stack_peers[n_peers++] = p;
      }
    }
  }
  return send_to_addrs(src_port, peers, n_peers, dst_port, data,
                       "uring broadcast");
}

Status UringTransport::send_broadcast(uint16_t src_port, uint16_t dst_port,
                                      BytesView data) {
  return fanout_send(src_port, dst_port, data);
}

Status UringTransport::send_frame(uint16_t src_port, Address dst,
                                  SharedFrame frame) {
  return send(src_port, dst, frame.view());
}

Status UringTransport::send_frame_multicast(uint16_t src_port, GroupId group,
                                            SharedFrame frame) {
  return send_multicast(src_port, group, frame.view());
}

Status UringTransport::send_frame_broadcast(uint16_t src_port,
                                            uint16_t dst_port,
                                            SharedFrame frame) {
  return fanout_send(src_port, dst_port, frame.view());
}

Status UringTransport::send_frame_to_many(uint16_t src_port,
                                          const Address* dst, size_t n_dst,
                                          const SharedFrame& frame) {
  // Caller-owned, pre-filtered destination list (gateway subscribers):
  // no peer-table copy and no self check, just batched SQEs.
  return send_to_addrs(src_port, dst, n_dst, 0, frame.view(),
                       "uring send_frame_to_many");
}

// ---------------------------------------------------------------------------
// Receive path: the dispatch thread
// ---------------------------------------------------------------------------

void UringTransport::dispatch_loop() {
  Core& c = *core_;

  // Recv-side setup (see the constructor): this thread becomes the recv
  // ring's DEFER_TASKRUN single issuer, so the ring, the PBUF_RING
  // registration and the initial buffer leases are created here. On
  // failure the reason is handed back through the handshake and the
  // thread exits before the main loop; the constructor joins, tears
  // down, and throws.
  {
    std::string err;
    if (c.recv_ring.init(options_.uring_entries, options_.uring_sqpoll,
                         /*want_defer=*/true) != 0) {
      err = "recv ring setup failed";
    }
    if (err.empty()) {
      void* ring = mmap(nullptr, c.buf_ring_len, PROT_READ | PROT_WRITE,
                        MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
      if (ring == MAP_FAILED) {
        err = "buffer ring mmap failed";
      } else {
        c.buf_ring = static_cast<io_uring_buf_ring*>(ring);
        io_uring_buf_reg reg{};
        reg.ring_addr = reinterpret_cast<uint64_t>(c.buf_ring);
        reg.ring_entries = c.buf_entries;
        reg.bgid = kBufGroup;
        if (sys_uring_register(c.recv_ring.fd, IORING_REGISTER_PBUF_RING,
                               &reg, 1) != 0) {
          err = "PBUF_RING register failed";
        }
      }
    }
    if (err.empty()) {
      c.buf_leases.reserve(c.buf_entries);
      for (unsigned i = 0; i < c.buf_entries; ++i) {
        c.buf_leases.push_back(frame_pool().acquire_recv(c.buf_len));
        c.publish_buf(i);
      }
    }
    const bool failed = !err.empty();
    c.init_result.set_value(std::move(err));
    if (failed) return;
  }

  std::vector<Core::SockPtr> arm, cancel, rearm;
  __kernel_timespec wait_ts{};
  wait_ts.tv_nsec = 100 * 1000 * 1000;  // shutdown/control backstop

  // Completion batching (kernels with IORING_FEAT_MIN_TIMEOUT): instead
  // of returning to userspace for every datagram, sleep until several
  // completions have accumulated or the batching window closes,
  // whichever is first. An idle ring still delivers the first datagram
  // immediately once its window expires (the kernel falls back to
  // wait-for-one), so sparse traffic pays at most one window of added
  // latency — while under load the window must exceed the per-socket
  // inter-arrival gap for batches to form (options_.uring_min_wait_us).
  const bool batch_wait =
      (c.recv_ring.params.features & IORING_FEAT_MIN_TIMEOUT) != 0 &&
      options_.uring_min_wait_us > 0;
  const unsigned wait_nr = batch_wait ? 8 : 1;
  const unsigned min_wait_usec = batch_wait ? options_.uring_min_wait_us : 0;

  auto finish_draining = [&](uint64_t token) {
    std::lock_guard lock(c.mu);
    c.draining.erase(token);  // frees the socket → closes the fd
  };

  auto arm_socket = [&](const Core::SockPtr& s) {
    if (s->closed.load(std::memory_order_acquire)) return;
    if (s->armed) return;
    io_uring_sqe* sqe = c.recv_ring.get_sqe();
    if (!sqe) {
      // SQ full (pathological churn): flush and take the next slot.
      c.recv_ring.flush(0, nullptr);
      sqe = c.recv_ring.get_sqe();
      if (!sqe) return;  // retried next loop via rearm
    }
    sqe->opcode = IORING_OP_RECVMSG;
    sqe->fd = s->fd;
    sqe->addr = reinterpret_cast<uint64_t>(&s->recv_template);
    sqe->ioprio = IORING_RECV_MULTISHOT;
    sqe->flags = IOSQE_BUFFER_SELECT;
    sqe->buf_group = kBufGroup;
    sqe->user_data = s->token;
    s->armed = true;
    stats_.uring_sqe_submitted.fetch_add(1, std::memory_order_relaxed);
  };

  auto handle_recv_cqe = [&](const io_uring_cqe* cqe) {
    const uint64_t token = cqe->user_data;
    if (token == kUdEventFd) {
      c.efd_armed = false;  // rearmed at the top of the loop
      return;
    }
    if (token & kCancelBit) return;  // bookkeeping rides the terminal CQE
    Core::SockPtr s;
    bool draining_entry = false;
    {
      std::lock_guard lock(c.mu);
      if (auto it = c.by_token.find(token); it != c.by_token.end()) {
        s = it->second;
      } else if (auto it2 = c.draining.find(token);
                 it2 != c.draining.end()) {
        s = it2->second;
        draining_entry = true;
      }
    }
    const bool more = (cqe->flags & IORING_CQE_F_MORE) != 0;
    int bid = (cqe->flags & IORING_CQE_F_BUFFER)
                  ? static_cast<int>(cqe->flags >> IORING_CQE_BUFFER_SHIFT)
                  : -1;
    if (bid >= static_cast<int>(c.buf_entries)) {
      // Defensive: a bid outside the registered ring would index out of
      // buf_leases. Should be impossible; never trust it.
      stats_.recv_errors.fetch_add(1, std::memory_order_relaxed);
      bid = -1;
    }

    if (bid >= 0) {
      if (cqe->res >= 0 && s && !draining_entry &&
          !s->closed.load(std::memory_order_acquire)) {
        FrameLease& lease = c.buf_leases[bid];
        uint8_t* base = lease.buffer().data();
        const auto* out = reinterpret_cast<io_uring_recvmsg_out*>(base);
        const size_t offset = sizeof(io_uring_recvmsg_out) +
                              s->recv_template.msg_namelen +
                              s->recv_template.msg_controllen;
        Address from{0, 0};
        if (out->namelen >= sizeof(sockaddr_in)) {
          const auto* sa = reinterpret_cast<const sockaddr_in*>(
              base + sizeof(io_uring_recvmsg_out));
          from = Address{ntohl(sa->sin_addr.s_addr), ntohs(sa->sin_port)};
        }
        const size_t paylen = out->payloadlen;
        if (out->flags & MSG_TRUNC) {
          // Same contract as the epoll backend: a clipped datagram is
          // dropped loudly, never delivered.
          stats_.drops_truncated.fetch_add(1, std::memory_order_relaxed);
          trace_drop(obs::TraceEvent::kDrop,
                     (static_cast<uint64_t>(from.host) << 16) | from.port,
                     paylen);
        } else {
          stats_.frames_received.fetch_add(1, std::memory_order_relaxed);
          stats_.bytes_received.fetch_add(paylen,
                                          std::memory_order_relaxed);
          if (s->is_multicast && from.host == local_host_) {
            stats_.own_copies_filtered.fetch_add(1,
                                                 std::memory_order_relaxed);
          } else if (s->frame_handler) {
            // The slab the kernel filled leaves with the handler; a
            // pooled slab at full receive length replaces it in the
            // buffer ring (a recycled one is not re-filled). The
            // published view is exactly the payload (freeze_payload), so
            // downstream readers never see the recvmsg_out header nor
            // any byte past the datagram.
            FrameLease filled = std::move(lease);
            c.buf_leases[bid] = frame_pool().acquire_recv(c.buf_len);
            s->frame_handler(
                from,
                std::move(filled).freeze_payload(offset, paylen));
          } else if (s->handler) {
            s->handler(from, BytesView(base + offset, paylen));
          }
        }
      } else if (cqe->res >= 0) {
        // Delivered to nobody (closed/unknown socket): still counted as
        // received traffic, like the epoll backend's closed-check.
        stats_.frames_received.fetch_add(1, std::memory_order_relaxed);
      }
      c.publish_buf(static_cast<unsigned>(bid));
      stats_.uring_buf_ring_refills.fetch_add(1, std::memory_order_relaxed);
    }

    if (cqe->res < 0 && s && !draining_entry) {
      const int err = -cqe->res;
      // ENOBUFS = buffer ring momentarily empty (datagram stays queued;
      // the rearm below redelivers); ECANCELED is shutdown noise.
      if (err != ENOBUFS && err != ECANCELED) {
        stats_.recv_errors.fetch_add(1, std::memory_order_relaxed);
        trace_drop(obs::TraceEvent::kDrop, static_cast<uint64_t>(err), 0);
      }
    }

    if (!more && s) {
      s->armed = false;
      if (draining_entry || s->closed.load(std::memory_order_acquire)) {
        finish_draining(token);  // terminal CQE: retire the socket
      } else {
        rearm.push_back(s);
      }
    }
  };

  while (c.running.load(std::memory_order_acquire)) {
    {
      std::lock_guard lock(c.mu);
      if (!c.pending_arm.empty()) {
        arm.insert(arm.end(), c.pending_arm.begin(), c.pending_arm.end());
        c.pending_arm.clear();
      }
      if (!c.pending_cancel.empty()) {
        cancel.insert(cancel.end(), c.pending_cancel.begin(),
                      c.pending_cancel.end());
        c.pending_cancel.clear();
      }
    }
    for (const auto& s : arm) arm_socket(s);
    arm.clear();
    for (const auto& s : rearm) arm_socket(s);
    rearm.clear();
    for (const auto& s : cancel) {
      if (!s->armed) {
        // Closed before the multishot ever armed: no terminal CQE will
        // come, retire it directly.
        finish_draining(s->token);
        continue;
      }
      io_uring_sqe* sqe = c.recv_ring.get_sqe();
      if (!sqe) {
        c.recv_ring.flush(0, nullptr);
        sqe = c.recv_ring.get_sqe();
        if (!sqe) continue;  // re-queued below
      }
      sqe->opcode = IORING_OP_ASYNC_CANCEL;
      sqe->fd = -1;
      sqe->addr = s->token;  // cancel by user_data
      sqe->user_data = kCancelBit | s->token;
    }
    cancel.clear();
    if (!c.efd_armed && c.event_fd >= 0) {
      io_uring_sqe* sqe = c.recv_ring.get_sqe();
      if (sqe) {
        sqe->opcode = IORING_OP_READ;
        sqe->fd = c.event_fd;
        sqe->addr = reinterpret_cast<uint64_t>(&c.efd_buf);
        sqe->len = sizeof c.efd_buf;
        sqe->user_data = kUdEventFd;
        c.efd_armed = true;
      }
    }

    // Zero-syscall steady state: when completions are already queued and
    // nothing is staged for submission, drain them without entering the
    // kernel at all. Only an empty CQ (or staged arms/cancels) costs an
    // io_uring_enter, which submits everything AND waits (bounded) for
    // the next completion.
    if (c.recv_ring.to_submit > 0 || c.recv_ring.cq_ready() == 0) {
      c.recv_ring.flush(wait_nr, &wait_ts, min_wait_usec);
    }

    unsigned total = 0;
    for (;;) {
      const unsigned ready = c.recv_ring.cq_ready();
      if (ready == 0) break;
      for (unsigned i = 0; i < ready; ++i) {
        handle_recv_cqe(c.recv_ring.cq_peek(i));
      }
      c.recv_ring.cq_advance(ready);
      total += ready;
    }
    if (total > 0) {
      stats_.uring_cqe_batch.fetch_add(1, std::memory_order_relaxed);
      stats_.recv_batches.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Shutdown: cancel every armed multishot and wait for the terminal
  // CQEs so no kernel request can touch a provided buffer or socket fd
  // after the destructor tears the rings down.
  std::vector<Core::SockPtr> live;
  {
    std::lock_guard lock(c.mu);
    for (auto& [t, s] : c.by_token) live.push_back(s);
    for (auto& [t, s] : c.draining) live.push_back(s);
  }
  for (const auto& s : live) {
    if (!s->armed) continue;
    io_uring_sqe* sqe = c.recv_ring.get_sqe();
    if (!sqe) {
      c.recv_ring.flush(0, nullptr);
      sqe = c.recv_ring.get_sqe();
      if (!sqe) break;
    }
    sqe->opcode = IORING_OP_ASYNC_CANCEL;
    sqe->fd = -1;
    sqe->addr = s->token;
    sqe->user_data = kCancelBit | s->token;
  }
  auto any_armed = [&] {
    for (const auto& s : live) {
      if (s->armed) return true;
    }
    return false;
  };
  for (int rounds = 0; rounds < 50 && any_armed(); ++rounds) {
    c.recv_ring.flush(1, &wait_ts);
    const unsigned ready = c.recv_ring.cq_ready();
    for (unsigned i = 0; i < ready; ++i) {
      const io_uring_cqe* cqe = c.recv_ring.cq_peek(i);
      const uint64_t token = cqe->user_data;
      if (token == kUdEventFd || (token & kCancelBit)) continue;
      if (cqe->flags & IORING_CQE_F_MORE) continue;
      for (const auto& s : live) {
        if (s->token == token) s->armed = false;
      }
    }
    c.recv_ring.cq_advance(ready);
  }
}

}  // namespace marea::transport

#else  // !defined(__linux__)

namespace marea::transport {

bool uring_supported() {
  return false;
}

struct UringTransport::Core {};

UringTransport::UringTransport(const std::string&, LiveTransportOptions) {
  throw std::runtime_error("UringTransport: io_uring requires Linux");
}

UringTransport::~UringTransport() = default;

}  // namespace marea::transport

#endif
