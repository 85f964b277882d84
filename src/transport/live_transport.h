// Shared base for the kernel-backed transports (DESIGN.md "Live
// transport" / "io_uring backend"): both the epoll/recvmmsg loop
// (UdpTransport) and the io_uring multishot backend (UringTransport)
// implement the same Transport contract over the same IPv4/UDP mapping,
// publish the same net.* counters, and are selected at runtime through
// TransportConfig::backend — callers that hold a LiveTransport* cannot
// tell the kernel datapaths apart except by speed.
//
// What lives here:
//   * the IPv4 mapping helpers (ipv4_host, multicast_port) every live
//     caller already depends on;
//   * LiveTransportOptions — one options struct for both backends (the
//     uring_* knobs are ignored by the epoll loop);
//   * LiveTransport — counters, obs collector, drop tracing, the peer
//     list contract, wall clock and local-host identity;
//   * backend selection: TransportBackend {auto,epoll,uring}, the
//     uring_supported() runtime probe, and make_live_transport().
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "transport/transport.h"

namespace marea::transport {

// Parses dotted-quad to HostId (host byte order). Returns 0 on error.
HostId ipv4_host(const std::string& dotted);
std::string host_to_ipv4(HostId host);

inline uint16_t multicast_port(GroupId group) {
  return static_cast<uint16_t>(30000 + (group % 20000));
}

struct LiveTransportOptions {
  // Per-datagram receive slab size: datagrams larger than this are
  // truncation-dropped. Default covers the largest UDP payload. A
  // recycled receive slab keeps its length, so the size costs memory
  // (uring_buf_ring of them on io_uring), not a per-datagram fill.
  size_t recv_buffer = 65536;
  // Datagrams per recvmmsg batch (epoll backend).
  int recv_batch = 8;
  // Batches drained per epoll event before yielding to other sockets.
  int max_batches_per_event = 4;
  // Attempts per send batch before the remaining tail is abandoned
  // (counted in send_errors). Transient kernel pushback (ENOBUFS/EAGAIN)
  // gets a brief yield between attempts; a short *accept* (k of n taken)
  // is not an attempt — the tail is retried immediately and counted in
  // sendmmsg_short / uring_short_submits. See send_retry.h.
  int send_retry_attempts = 4;
  // --- io_uring backend only ---
  // Submission-queue entries per ring (recv and send rings each).
  unsigned uring_entries = 256;
  // Provided receive buffers registered with the kernel (power of two).
  // Each is a pooled FrameLease slab of recv_buffer bytes (+ the
  // recvmsg_out header the kernel prepends).
  unsigned uring_buf_ring = 32;
  // IORING_SETUP_SQPOLL: a kernel thread drains the SQ so steady-state
  // submits cost zero syscalls. Off by default — it burns a core, which
  // only pays off when the box has cores to spare.
  bool uring_sqpoll = false;
  // Completion batching window (kernels with IORING_FEAT_MIN_TIMEOUT):
  // the dispatch thread sleeps until up to 8 completions accumulate or
  // this many microseconds pass, instead of waking per datagram. Must
  // exceed the expected per-socket inter-arrival gap under load for the
  // batching to engage. Sparse traffic is NOT delayed by the window —
  // an empty window falls back to wake-on-first-completion — but a
  // datagram arriving just after a wait begins can wait out the full
  // window, so this bounds added latency under light load. 0 (the
  // default) disables it: a container's executor runs an idle frame's
  // task on the dispatch thread, so a datagram already costs one wake,
  // and the window would only add its latency. Throughput-only loads
  // (bench_live) still set it.
  unsigned uring_min_wait_us = 0;
};

enum class TransportBackend { kAuto, kEpoll, kUring };

struct TransportConfig {
  TransportBackend backend = TransportBackend::kAuto;
  LiveTransportOptions options;
};

// "auto" / "epoll" / "uring" (returns false on anything else).
bool parse_backend(const std::string& name, TransportBackend* out);
const char* backend_label(TransportBackend backend);

// True when the running kernel supports everything the uring backend
// needs: io_uring_setup, multishot recvmsg, provided buffer rings and
// EXT_ARG timed waits (kernel >= 6.0 in practice). Cached after the
// first call. MAREA_URING=off forces false (operator escape hatch).
bool uring_supported();

// kAuto resolves via $MAREA_TRANSPORT when set ("epoll"/"uring"), else
// uring when supported, else epoll. A uring request (env or explicit
// kAuto resolution) degrades to epoll when unsupported; an explicit
// kUring is returned as-is — make_live_transport throws for it so
// misconfiguration fails loudly instead of silently running epoll.
TransportBackend resolve_backend(TransportBackend requested);

class LiveTransport : public Transport {
 public:
  // Allocation-free live counters (atomics; readable from any thread).
  // The uring_* fields stay zero on the epoll backend.
  struct NetCounters {
    uint64_t frames_sent = 0;
    uint64_t bytes_sent = 0;
    uint64_t frames_received = 0;
    uint64_t bytes_received = 0;
    uint64_t drops_truncated = 0;   // MSG_TRUNC datagrams dropped
    uint64_t send_errors = 0;
    uint64_t recv_errors = 0;
    uint64_t socket_errors = 0;     // EPOLLERR/EPOLLHUP drained
    uint64_t recv_batches = 0;      // recv batches that returned data
    uint64_t own_copies_filtered = 0;  // own multicast loopback copies
    uint64_t payload_copies = 0;       // user-space payload memcpys
    uint64_t payload_bytes_copied = 0;
    uint64_t sendmmsg_short = 0;  // short batch accepts, tail retried
    uint64_t uring_sqe_submitted = 0;   // SQEs handed to the kernel
    uint64_t uring_cqe_batch = 0;       // CQ drains that yielded CQEs
    uint64_t uring_buf_ring_refills = 0;  // provided buffers recycled
    uint64_t uring_short_submits = 0;   // short SQ accepts, tail retried
  };
  NetCounters net_counters() const;

  // Which kernel datapath this is: "epoll" or "uring".
  virtual const char* backend() const = 0;

  // Nodes reachable via send_broadcast. The HostId form targets each
  // peer at the broadcast's dst_port (single-process topologies where
  // every node binds the same port number); the Address form carries a
  // per-peer port for multi-process topologies where peers live on
  // kernel-assigned ephemeral ports (an Address port of 0 falls back to
  // the broadcast's dst_port).
  void set_peers(std::vector<HostId> peers);
  virtual void set_peers(std::vector<Address> peers) = 0;

  // Registers a snapshot collector publishing the live counters as
  // "<prefix>.frames_sent", "<prefix>.uring_sqe_submitted", … (names
  // aligned with the sim net.* counters where the concept matches) plus
  // "<prefix>.pool_*" slab stats, and points drop/error traces at the
  // ring. Call during setup, before traffic; pass distinct prefixes when
  // several transports share one registry. Null detaches. The registry
  // must outlive this transport (or be detached first): the destructor
  // deregisters its collector.
  void set_obs(obs::Observability* obs, const std::string& prefix = "net");

  HostId local_host() const override { return local_host_; }
  size_t mtu() const override { return 65507; }
  // Kernel sockets are paced by wall time.
  const Clock* clock() const override { return &wall_clock_; }

  ~LiveTransport() override;  // deregisters the obs collector

 protected:
  LiveTransport() = default;

  struct NetStats {
    std::atomic<uint64_t> frames_sent{0};
    std::atomic<uint64_t> bytes_sent{0};
    std::atomic<uint64_t> frames_received{0};
    std::atomic<uint64_t> bytes_received{0};
    std::atomic<uint64_t> drops_truncated{0};
    std::atomic<uint64_t> send_errors{0};
    std::atomic<uint64_t> recv_errors{0};
    std::atomic<uint64_t> socket_errors{0};
    std::atomic<uint64_t> recv_batches{0};
    std::atomic<uint64_t> own_copies_filtered{0};
    std::atomic<uint64_t> payload_copies{0};
    std::atomic<uint64_t> payload_bytes_copied{0};
    std::atomic<uint64_t> sendmmsg_short{0};
    std::atomic<uint64_t> uring_sqe_submitted{0};
    std::atomic<uint64_t> uring_cqe_batch{0};
    std::atomic<uint64_t> uring_buf_ring_refills{0};
    std::atomic<uint64_t> uring_short_submits{0};
  };

  void detach_obs();
  // Cold path only (drops/errors): records a kNet trace if attached.
  void trace_drop(obs::TraceEvent ev, uint64_t a, uint64_t b);
  int64_t trace_now_ns() const;

  NetStats stats_;
  HostId local_host_ = 0;  // set by the derived constructor
  SteadyClock wall_clock_;

 private:
  // Guards the obs wiring and serializes trace-ring writes from this
  // transport (the ring itself is not thread-safe).
  mutable std::mutex obs_mu_;
  obs::Observability* obs_ = nullptr;
  uint64_t obs_token_ = 0;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

// Constructs the backend resolve_backend() picks. Throws
// std::runtime_error when an explicitly requested backend cannot start
// (bad ip, kUring on a kernel without io_uring support).
std::unique_ptr<LiveTransport> make_live_transport(
    const std::string& local_ip, const TransportConfig& config = {});

}  // namespace marea::transport
