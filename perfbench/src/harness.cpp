#include "harness.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

// --- global heap instrumentation ---------------------------------------------
// Replacing operator new/delete in the binary counts every heap allocation
// the process makes (std::function captures, map nodes, frame slabs), the
// same ground truth bench_hotpath uses.

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t n) { return ::operator new(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace marea::perfbench {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_ns(int64_t t_ns) {
  timespec ts{};
  ts.tv_sec = t_ns / 1'000'000'000;
  ts.tv_nsec = t_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void tighten_timer_slack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

uint64_t heap_allocs() { return g_allocs.load(std::memory_order_relaxed); }

// --- steal ----------------------------------------------------------------------

namespace {
bool read_cpu_line(uint64_t* steal, uint64_t* total) {
  std::ifstream f("/proc/stat");
  std::string cpu;
  if (!(f >> cpu) || cpu != "cpu") return false;
  uint64_t v = 0, sum = 0, fields[10] = {};
  for (int i = 0; i < 10 && (f >> v); ++i) fields[i] = v;
  // user nice system idle iowait irq softirq steal [guest guest_nice];
  // guest time is already included in user/nice.
  for (int i = 0; i < 8; ++i) sum += fields[i];
  *steal = fields[7];
  *total = sum;
  return true;
}
}  // namespace

void StealMeter::start() {
  if (!read_cpu_line(&steal_, &total_)) steal_ = total_ = 0;
}

double StealMeter::pct() const {
  uint64_t steal = 0, total = 0;
  if (!read_cpu_line(&steal, &total) || total <= total_) return 0;
  return 100.0 * static_cast<double>(steal - steal_) /
         static_cast<double>(total - total_);
}

// --- samples --------------------------------------------------------------------

void Samples::append(const Samples& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  sorted_ = false;
}

double Samples::pct(double q) {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v_.size())));
  rank = std::clamp<size_t>(rank, 1, v_.size());
  return static_cast<double>(v_[rank - 1]);
}

// --- spans ------------------------------------------------------------------------

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kMessage: return "message";
    case SpanName::kQueueWait: return "sched.queue_wait";
    case SpanName::kPublish: return "middleware.publish";
    case SpanName::kTransportSend: return "transport.send";
    case SpanName::kDeliver: return "middleware.deliver";
    case SpanName::kHandler: return "app.handler";
    case SpanName::kRunWindow: return "sim.run_window";
    case SpanName::kCount: break;
  }
  return "?";
}

SpanName span_parent(SpanName n) {
  switch (n) {
    case SpanName::kTransportSend: return SpanName::kPublish;
    case SpanName::kQueueWait:
    case SpanName::kPublish:
    case SpanName::kDeliver:
    case SpanName::kHandler: return SpanName::kMessage;
    default: return SpanName::kCount;  // root
  }
}

void SpanBuffer::enable(size_t reserve) {
  enabled_ = true;
  spans_.reserve(reserve);
}

std::vector<SelfTime> write_span_dump(
    const std::string& path, const std::vector<const SpanBuffer*>& bufs,
    const std::string& workload, size_t max_msgs) {
  std::vector<Span> all;
  for (const SpanBuffer* b : bufs) {
    all.insert(all.end(), b->spans().begin(), b->spans().end());
  }
  // Group by message, parents before children, in time order.
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    if (a.msg != b.msg) return a.msg < b.msg;
    return a.start_ns < b.start_ns;
  });
  const size_t kNames = static_cast<size_t>(SpanName::kCount);
  std::vector<SelfTime> table(kNames);
  // Self time: duration minus the union of the children's intervals
  // (clipped to the parent), per message tree.
  size_t i = 0;
  while (i < all.size()) {
    size_t j = i;
    while (j < all.size() && all[j].msg == all[i].msg) ++j;
    for (size_t p = i; p < j; ++p) {
      const Span& parent = all[p];
      std::vector<std::pair<int64_t, int64_t>> cover;
      for (size_t c = i; c < j; ++c) {
        if (c == p || span_parent(all[c].name) != parent.name) continue;
        int64_t s = std::max(all[c].start_ns, parent.start_ns);
        int64_t e = std::min(all[c].end_ns, parent.end_ns);
        if (e > s) cover.emplace_back(s, e);
      }
      std::sort(cover.begin(), cover.end());
      int64_t covered = 0, cur_s = 0, cur_e = -1;
      for (auto [s, e] : cover) {
        if (cur_e < s) {
          if (cur_e > cur_s) covered += cur_e - cur_s;
          cur_s = s;
          cur_e = e;
        } else {
          cur_e = std::max(cur_e, e);
        }
      }
      if (cur_e > cur_s) covered += cur_e - cur_s;
      const int64_t dur = std::max<int64_t>(0, parent.end_ns - parent.start_ns);
      SelfTime& t = table[static_cast<size_t>(parent.name)];
      t.count++;
      t.total_us += dur * 1e-3;
      t.self_us += std::max<int64_t>(0, dur - covered) * 1e-3;
    }
    i = j;
  }

  std::ofstream out(path);
  if (!out) return table;
  out << "{\"workload\":\"" << workload << "\",\"self_time\":{";
  bool first = true;
  for (size_t n = 0; n < kNames; ++n) {
    if (table[n].count == 0) continue;
    out << (first ? "" : ",") << "\"" << span_name(static_cast<SpanName>(n))
        << "\":{\"count\":" << table[n].count
        << ",\"total_us\":" << table[n].total_us
        << ",\"self_us\":" << table[n].self_us << "}";
    first = false;
  }
  out << "},\"spans\":[\n";
  // Only the first max_msgs message trees: a full dump of a high-rate
  // run would be hundreds of MB.
  size_t end = 0, msgs = 0;
  while (end < all.size()) {
    if (end == 0 || all[end].msg != all[end - 1].msg) {
      if (++msgs > max_msgs) break;
    }
    ++end;
  }
  for (size_t k = 0; k < end; ++k) {
    const Span& s = all[k];
    const SpanName parent = span_parent(s.name);
    out << "{\"msg\":" << s.msg << ",\"name\":\"" << span_name(s.name)
        << "\",\"parent\":"
        << (parent == SpanName::kCount
                ? std::string("null")
                : "\"" + std::string(span_name(parent)) + "\"")
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}"
        << (k + 1 < end ? ",\n" : "\n");
  }
  out << "]}\n";
  return table;
}

// --- results ----------------------------------------------------------------------

void add_self_time_details(Result& r, const std::vector<SelfTime>& table) {
  for (size_t n = 0; n < table.size(); ++n) {
    if (table[n].count == 0) continue;
    r.detail(std::string("self_us.") + span_name(static_cast<SpanName>(n)),
             table[n].self_us / static_cast<double>(table[n].count), "us",
             static_cast<int64_t>(table[n].count));
  }
}

void Result::fail_check(const std::string& what) {
  correct = false;
  if (errors.size() < 20) errors.push_back(what);
}

namespace {
std::string fmt_metric(const Metric& m) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "  %-40s %14.6g %s", m.name.c_str(), m.value,
                m.unit.c_str());
  std::string s = buf;
  if (m.samples >= 0) s += "  (n=" + std::to_string(m.samples) + ")";
  return s;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
}  // namespace

void print_result(const Result& r, bool trace) {
  std::printf("end-to-end:\n");
  for (const Metric& m : r.end_to_end) std::printf("%s\n", fmt_metric(m).c_str());
  if (!r.info.empty()) {
    std::printf("detail:\n");
    for (const Metric& m : r.info) std::printf("%s\n", fmt_metric(m).c_str());
  }
  if (trace) {
    std::printf("per-layer (traced run):\n");
    for (const Metric& m : r.per_layer) {
      std::printf("%s\n", fmt_metric(m).c_str());
    }
  }
  for (const std::string& e : r.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.correct ? "true" : "false");

  std::ostringstream js;
  js << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  const std::vector<Metric>& ms = trace ? r.per_layer : r.end_to_end;
  for (size_t i = 0; i < ms.size(); ++i) {
    js << (i ? ", " : "") << "\"" << ms[i].name
       << "\": {\"value\": " << json_number(ms[i].value) << ", \"unit\": \""
       << ms[i].unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

}  // namespace marea::perfbench
