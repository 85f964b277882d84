// io_uring backend for the live kernel datapath (DESIGN.md "io_uring
// backend"): the same Transport contract and IPv4/UDP mapping as the
// epoll loop (udp_transport.h), with the syscall-per-event cost
// structure replaced by ring buffers shared with the kernel.
//
// Datapath shape:
//   * RECEIVE — one multishot IORING_OP_RECVMSG per socket, armed once:
//     the kernel delivers every datagram as a CQE, writing it directly
//     into a provided-buffer ring whose entries are pooled FramePool
//     slabs. No per-receive syscall, no per-receive arm, no copy: the
//     slab the kernel filled is frozen at its payload window
//     (FrameLease::freeze_payload — the kernel prepends an
//     io_uring_recvmsg_out header + source address) and handed to the
//     frame handler refcounted. The ring entry is refilled with a
//     pooled slab at full receive length; a recycled slab keeps its
//     length, so a refill fills no bytes (net.uring_buf_ring_refills).
//   * SEND — unicast/fan-out sends build one IORING_OP_SENDMSG SQE per
//     destination and flush the whole batch with a single
//     io_uring_enter that also waits for the completions, under the
//     shared retry contract (send_retry.h): short SQ accepts and
//     transient per-datagram pushback (EAGAIN/ENOBUFS CQEs) resubmit
//     the tail (net.uring_short_submits), hard errors drop it loudly.
//   * One dispatch thread owns the receive ring's submission side;
//     bind/unbind/join/leave create and configure sockets synchronously
//     in the caller (collision checks and table updates identical to
//     the epoll backend) and hand the arm/cancel over an eventfd-woken
//     command queue. Tokens are monotonic and never reused, so a stale
//     CQE can never alias a newer socket. Unbound sockets drain through
//     IORING_OP_ASYNC_CANCEL; the fd closes when the multishot's
//     terminal CQE retires the last reference.
//   * SQPOLL (LiveTransportOptions::uring_sqpoll, or MAREA_URING_SQPOLL)
//     optionally moves submission polling into a kernel thread so
//     steady-state sends cost zero syscalls; off by default because it
//     dedicates a core.
//
// Construction throws when uring_supported() is false — callers pick
// the backend through make_live_transport (live_transport.h), which
// probes first.
#pragma once

#include <memory>

#include "transport/live_transport.h"

// <sys/socket.h> on Linux; only used as an opaque pointee here.
struct msghdr;

namespace marea::transport {

class UringTransport final : public LiveTransport {
 public:
  // `local_ip` e.g. "127.0.0.1". Throws std::runtime_error when the
  // rings cannot be set up (unsupported kernel, exhausted limits).
  explicit UringTransport(const std::string& local_ip,
                          LiveTransportOptions options = {});
  ~UringTransport() override;

  const char* backend() const override { return "uring"; }

  using LiveTransport::set_peers;
  void set_peers(std::vector<Address> peers) override;

  uint16_t bound_port(uint16_t requested) const override;

  Status bind(uint16_t port, RecvHandler handler) override;
  void unbind(uint16_t port) override;
  Status send(uint16_t src_port, Address dst, BytesView data) override;
  Status join_group(GroupId group, uint16_t port) override;
  void leave_group(GroupId group, uint16_t port) override;
  Status send_multicast(uint16_t src_port, GroupId group,
                        BytesView data) override;
  Status send_broadcast(uint16_t src_port, uint16_t dst_port,
                        BytesView data) override;

  Status bind_frames(uint16_t port, FrameRecvHandler handler) override;
  Status send_frame(uint16_t src_port, Address dst,
                    SharedFrame frame) override;
  Status send_frame_multicast(uint16_t src_port, GroupId group,
                              SharedFrame frame) override;
  Status send_frame_broadcast(uint16_t src_port, uint16_t dst_port,
                              SharedFrame frame) override;
  // Gateway fan-out primitive: one shared frame to an explicit address
  // list via batched SQEs — one kernel transition per batch of 32.
  Status send_frame_to_many(uint16_t src_port, const Address* dst,
                            size_t n_dst, const SharedFrame& frame) override;

 private:
  // All ring state, socket tables and the dispatch thread live behind
  // this so the raw io_uring plumbing stays out of the public header.
  struct Core;

  Status open_socket(uint16_t port, RecvHandler handler,
                     FrameRecvHandler frame_handler, bool multicast,
                     GroupId group);
  void close_socket(uint16_t port, bool multicast, GroupId group);
  Status fanout_send(uint16_t src_port, uint16_t dst_port, BytesView data);
  Status send_to_addrs(uint16_t src_port, const Address* dst, size_t n_dst,
                       uint16_t fallback_port, BytesView data,
                       const char* what);
  // Resolves the preferred source socket for `src_port` (stable,
  // reply-able source address) or the lazily-created shared send socket.
  // `pin_out` is a Core::SockPtr* keeping the fd alive for the caller.
  int resolve_send_fd(uint16_t src_port, void* pin_out);
  // Pushes `count` (<= 32) prepared msghdrs out of `fd` as one batched
  // SQE flush under the shared retry contract (send_retry.h). Returns
  // the number of datagrams the kernel accepted (counters updated
  // inside).
  size_t flush_sqe_batch(int fd, msghdr* msgs, size_t count,
                         size_t payload_bytes);
  void dispatch_loop();

  LiveTransportOptions options_;
  std::unique_ptr<Core> core_;
};

}  // namespace marea::transport
