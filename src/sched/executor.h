// Pluggable scheduler seam (paper §6: "our implementation also [has a]
// pluggable scheduler that queues and arranges event/variable handlers and
// service calls execution … a simple thread pool with fixed priorities for
// each named primitive").
//
// Every handler the middleware runs is posted here tagged with the
// primitive class it serves; implementations decide ordering. Two are
// provided: SimExecutor (deterministic, virtual time, models a single CPU
// with non-preemptive priority dispatch and optional reserved event slots)
// and ThreadPoolExecutor (real threads, strict priority queues).
#pragma once

#include <cstdint>
#include <utility>

#include "util/inline_fn.h"
#include "util/time.h"

namespace marea::sched {

// Fixed priority per named primitive, most latency-critical first
// (paper §4.2: events are latency-critical; §4.4: file transfer is bulk).
enum class Priority : uint8_t {
  kEvent = 0,
  kRpc = 1,
  kVariable = 2,
  kFileTransfer = 3,
  kBackground = 4,  // discovery, heartbeats, maintenance
};
constexpr int kPriorityCount = 5;
const char* priority_name(Priority p);

// Inline storage covers the datapath's posted closures (frame-processing
// tasks capture {this, Address, SharedFrame}); a task that doesn't fit
// still runs, it just heap-allocates like std::function always did.
using Task = InlineFn<void(), 56>;
using TaskTimerId = uint64_t;
constexpr TaskTimerId kInvalidTaskTimer = 0;

class Executor {
 public:
  virtual ~Executor() = default;

  // Enqueues `task` for execution as soon as the scheduler allows.
  // `cost` is the modelled CPU time of the handler; real-thread executors
  // ignore it (the handler's own runtime is the cost).
  virtual void post(Priority priority, Task task,
                    Duration cost = kDurationZero) = 0;

  // Like post(), but an executor that is idle (nothing queued, nothing
  // running) may run `task` on the calling thread before returning, so a
  // received frame costs one thread wake instead of two. Only a thread
  // that holds no lock the task might take may call it: the transport
  // dispatch threads and the executor's own timer thread. post() never
  // runs the task inline. The default is post(), so a deterministic
  // executor's event order does not depend on which entry point is used.
  virtual void dispatch(Priority priority, Task task,
                        Duration cost = kDurationZero) {
    post(priority, std::move(task), cost);
  }

  // Runs `task` after `delay`. Returns a cancellation id.
  virtual TaskTimerId schedule(Duration delay, Priority priority, Task task,
                               Duration cost = kDurationZero) = 0;
  virtual void cancel(TaskTimerId id) = 0;

  virtual const Clock& clock() const = 0;
  TimePoint now() const { return clock().now(); }
};

}  // namespace marea::sched
