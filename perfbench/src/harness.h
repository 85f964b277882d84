// Shared measurement plumbing for the end-to-end benchmark: wall and CPU
// clocks, raw-sample percentiles, the heap-allocation counter, host steal
// accounting, the in-memory span recorder and the result printer.
//
// Every latency the benchmark reports comes from raw samples sorted at the
// end of the run (nearest-rank percentiles), never from the middleware's
// power-of-two histogram buckets, and is printed with its sample count.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace marea::perfbench {

// --- clocks -----------------------------------------------------------------

// std::chrono::steady_clock nanoseconds (CLOCK_MONOTONIC): the clock every
// due time, span and handler stamp in the benchmark is taken from.
int64_t now_ns();
// Sleeps until the absolute steady-clock instant `t_ns`.
void sleep_until_ns(int64_t t_ns);
// Calling thread's CPU time / whole-process user+sys CPU time (the
// total getrusage reports, read at nanosecond resolution from
// CLOCK_PROCESS_CPUTIME_ID).
double thread_cpu_s();
double process_cpu_s();
// Peak resident set size of the process, MiB.
double peak_rss_mb();
// Lowers the calling thread's timer slack to 1 ns so an open-loop
// generator wakes close to each due time.
void tighten_timer_slack();

// --- heap allocations ---------------------------------------------------------

// Global operator-new calls since process start (replaced operator new in
// harness.cpp; counts every allocation the process makes).
uint64_t heap_allocs();

// --- host steal -----------------------------------------------------------------

// Share of all CPU time the hypervisor stole between start() and pct(),
// from /proc/stat. Reads 0 when /proc/stat is unavailable.
class StealMeter {
 public:
  void start();
  double pct() const;

 private:
  uint64_t steal_ = 0;
  uint64_t total_ = 0;
};

// --- raw samples ----------------------------------------------------------------

class Samples {
 public:
  void reserve(size_t n) { v_.reserve(n); }
  void add(int64_t v) { v_.push_back(v); }
  void append(const Samples& other);
  size_t size() const { return v_.size(); }
  // Nearest-rank percentile, q in (0, 1]; sorts on first call.
  double pct(double q);

 private:
  std::vector<int64_t> v_;
  bool sorted_ = false;
};

// --- spans ------------------------------------------------------------------------

// Span names of one message's tree. Spans of one message share the id
// the generator put in its payload; the parent is the span of that tree
// that caused this one.
enum class SpanName : uint8_t {
  kMessage = 0,        // due time -> last handler entry (root)
  kQueueWait,          // due time -> bench task starts on the executor
  kPublish,            // VariableHandle/EventHandle::publish, call, publish_file
  kTransportSend,      // Transport::send_frame* inside the publish
  kDeliver,            // publish end -> subscriber handler entry
  kHandler,            // subscriber handler body
  kRunWindow,          // SimDomain::run_for slice
  kCount
};
const char* span_name(SpanName n);
SpanName span_parent(SpanName n);

struct Span {
  uint64_t msg = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanName name = SpanName::kMessage;
};

// One buffer per recording thread: record() is a push_back into reserved
// storage, no locks. Disabled buffers record nothing.
class SpanBuffer {
 public:
  void enable(size_t reserve);
  void record(SpanName name, uint64_t msg, int64_t start_ns, int64_t end_ns) {
    if (enabled_) spans_.push_back(Span{msg, start_ns, end_ns, name});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

struct SelfTime {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

// Writes per-name total/self time over every span, plus the spans of
// the first `max_msgs` messages, to `path` as JSON and returns the
// self-time table (indexed by SpanName). A span's self time is its
// duration minus the part its child spans cover.
std::vector<SelfTime> write_span_dump(const std::string& path,
                                      const std::vector<const SpanBuffer*>& bufs,
                                      const std::string& workload,
                                      size_t max_msgs = 2000);

// --- results ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = -1;  // printed as (n=...) when >= 0
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;  // gated metrics (JSON with --trace 0)
  std::vector<Metric> per_layer;   // traced-run metrics (JSON with --trace 1)
  std::vector<Metric> info;        // printed only (named user-facing detail)
  std::vector<std::string> errors;  // failed output checks

  void fail_check(const std::string& what);
  void e2e(const std::string& name, double v, const std::string& unit,
           int64_t n = -1) {
    end_to_end.push_back({name, v, unit, n});
  }
  void layer(const std::string& name, double v, const std::string& unit,
             int64_t n = -1) {
    per_layer.push_back({name, v, unit, n});
  }
  void detail(const std::string& name, double v, const std::string& unit,
              int64_t n = -1) {
    info.push_back({name, v, unit, n});
  }
};

// Adds one printed detail line per span name: mean self time per span.
void add_self_time_details(Result& r, const std::vector<SelfTime>& table);

// Human-readable lines, then the one-line JSON result last.
void print_result(const Result& r, bool trace);

// Divides, returning 0 for an empty denominator.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace marea::perfbench
