// `telemetry`: 1 publisher container -> 3 subscriber containers on the
// io_uring live backend, 16 variables of a ~64-byte reflected struct,
// open loop at a fixed aggregate rate. The smallest-message path: reflect
// + encode -> FrameBuilder -> kernel send -> receive dispatch -> executor
// hop -> decode -> handler, with no ARQ, MFTP or simulator.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "encoding/typed.h"
#include "live.h"
#include "probes.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workloads.h"

namespace marea::perfbench::tele {

struct Sample {
  uint64_t id = 0;  // message id (1..n in a measured window); 0 = warm-up
  int64_t due_ns = 0;
  uint32_t var = 0;
  uint32_t seq = 0;  // per variable, strictly increasing
  double lat = 0;
  double lon = 0;
  double alt = 0;
  float roll = 0;
  float pitch = 0;
  float yaw = 0;
  uint32_t checksum = 0;
};

}  // namespace marea::perfbench::tele

MAREA_REFLECT(marea::perfbench::tele::Sample, id, due_ns, var, seq, lat, lon,
              alt, roll, pitch, yaw, checksum)

namespace marea::perfbench {
namespace {

using tele::Sample;

constexpr int kVars = 16;
constexpr int kSubscribers = 3;
// Aggregate samples/s (x3 deliveries/s): about half the rate at which p50
// leaves its plateau and samples start to drop on a 4-vCPU host; see
// README "Sizing telemetry".
constexpr double kRate = 10000;
// Set-ups timed before every untraced window; setup_s is the median of
// all of them. One set-up varies by +-50% with thread wake-ups, so the
// median needs many to settle.
constexpr int kSetupsPerWindow = 20;

uint32_t checksum_of(const Sample& s) {
  uint8_t buf[64];
  size_t n = 0;
  auto put = [&](const auto& v) {
    std::memcpy(buf + n, &v, sizeof v);
    n += sizeof v;
  };
  put(s.id), put(s.due_ns), put(s.var), put(s.seq), put(s.lat), put(s.lon),
      put(s.alt), put(s.roll), put(s.pitch), put(s.yaw);
  return static_cast<uint32_t>(util::hash64(BytesView(buf, n)));
}

// Seeded payload: a plausible attitude/position fix per (var, seq).
Sample make_sample(uint64_t seed, uint64_t id, int64_t due, uint32_t var,
                   uint32_t seq) {
  Rng rng(seed ^ (static_cast<uint64_t>(var) << 40) ^ seq);
  Sample s;
  s.id = id;
  s.due_ns = due;
  s.var = var;
  s.seq = seq;
  s.lat = rng.uniform_real(41.0, 42.0);
  s.lon = rng.uniform_real(1.5, 2.5);
  s.alt = rng.uniform_real(100.0, 900.0);
  s.roll = static_cast<float>(rng.uniform_real(-0.5, 0.5));
  s.pitch = static_cast<float>(rng.uniform_real(-0.3, 0.3));
  s.yaw = static_cast<float>(rng.uniform_real(-3.14, 3.14));
  s.checksum = checksum_of(s);
  return s;
}

std::string var_name(int v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "tele.%02d", v);
  return buf;
}

class Publisher final : public mw::Service {
 public:
  Publisher() : Service("telemetry_pub") {}
  Status on_start() override {
    for (int v = 0; v < kVars; ++v) {
      auto h = provide_variable<Sample>(
          var_name(v), {.period = kDurationZero, .validity = seconds(30.0)});
      if (!h.ok()) return h.status();
      vars_[v] = *h;
    }
    return Status::ok();
  }
  Status publish(const Sample& s) { return vars_[s.var].publish(s); }

 private:
  std::array<mw::VariableHandle, kVars> vars_;
};

class Subscriber final : public mw::Service {
 public:
  explicit Subscriber(int k) : Service("telemetry_sub" + std::to_string(k)) {}
  Status on_start() override {
    for (int v = 0; v < kVars; ++v) {
      Status s = subscribe_variable<Sample>(
          var_name(v), [this, v](const Sample& x, const mw::SampleInfo&) {
            on_sample(static_cast<uint32_t>(v), x);
          });
      if (!s.is_ok()) return s;
    }
    return Status::ok();
  }

  void on_sample(uint32_t v, const Sample& s) {
    const int64_t t = now_ns();
    if (s.var != v || checksum_of(s) != s.checksum) {
      bad_payload.fetch_add(1);
      return;
    }
    if (s.seq <= last_seq_[v]) {
      out_of_order.fetch_add(1);
    } else {
      last_seq_[v] = s.seq;
    }
    if (!got_[v].load(std::memory_order_relaxed)) got_[v].store(true);
    if (s.id == 0) return;  // warm-up sample
    latency_ns.add(t - s.due_ns);
    if (spans) spans->record(SpanName::kHandler, s.id, t, now_ns());
    delivered.fetch_add(1, std::memory_order_relaxed);
  }

  bool bound_all() const {
    for (const auto& g : got_) {
      if (!g.load()) return false;
    }
    return true;
  }

  SpanBuffer* spans = nullptr;  // set before traffic; executor thread only
  Samples latency_ns;           // executor thread; read after shutdown
  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> bad_payload{0};
  std::atomic<uint64_t> out_of_order{0};

 private:
  std::array<uint32_t, kVars> last_seq_{};
  std::array<std::atomic<bool>, kVars> got_{};
};

// One built-and-bound stack with its services.
struct Rig {
  Publisher* pub = nullptr;
  std::vector<Subscriber*> subs;
  std::unique_ptr<LiveStack> stack;
  std::array<uint32_t, kVars> seq{};  // last seq published per variable
  uint64_t seed = 0;

  Rig(uint64_t seed_in, bool traced) : seed(seed_in) {
    std::vector<LiveStack::ServiceList> nodes(1 + kSubscribers);
    auto p = std::make_unique<Publisher>();
    pub = p.get();
    nodes[0].push_back(std::move(p));
    for (int k = 0; k < kSubscribers; ++k) {
      auto s = std::make_unique<Subscriber>(k);
      subs.push_back(s.get());
      nodes[1 + static_cast<size_t>(k)].push_back(std::move(s));
    }
    StackOptions o;
    o.backend = transport::TransportBackend::kUring;
    o.traced = traced;
    stack = std::make_unique<LiveStack>(std::move(nodes), o);
  }

  // Publishes warm-up samples (id 0) of every variable until each
  // subscriber holds one of each: every subscription is bound.
  void warm_up() {
    auto ready = [&] {
      for (auto* s : subs) {
        if (!s->bound_all()) return false;
      }
      return true;
    };
    const int64_t deadline = now_ns() + 20'000'000'000;
    while (!ready()) {
      if (now_ns() > deadline) {
        throw std::runtime_error("telemetry: subscribers never bound");
      }
      stack->node(0).run_sync([&] {
        for (uint32_t v = 0; v < kVars; ++v) {
          (void)pub->publish(make_sample(seed, 0, 0, v, ++seq[v]));
        }
      });
      wait_until(ready, 0.0005);
    }
  }
};

struct WindowOut {
  double wall_s = 0;
  double cpu_s = 0;  // process CPU minus the generator's
  double cpu_us_per_msg = 0;
  double allocs_per_msg = 0;
  double steal_pct = 0;
  uint64_t expected = 0;
  uint64_t delivered = 0;
  uint64_t publish_failures = 0;
  Samples latency_ns;
  Samples late_ns;
  Samples queue_wait_ns;
  Samples publish_ns;
  LiveStack::Counters delta;
};

// Runs the open loop on a warmed rig for `seconds` at kRate samples/s.
WindowOut run_window(Rig& rig, double seconds, bool traced) {
  const size_t n = static_cast<size_t>(kRate * seconds);
  LiveNode& pub_node = rig.stack->node(0);
  if (traced) pub_node.spans.enable(n * 3);
  // Subscriber state is set up on the subscriber's own executor: its
  // handlers only ever touch it from there.
  for (size_t k = 0; k < rig.subs.size(); ++k) {
    LiveNode& node = rig.stack->node(1 + k);
    Subscriber* sub = rig.subs[k];
    node.run_sync([&] {
      if (traced) {
        node.spans.enable(n * 2);
        sub->spans = &node.spans;
      }
      sub->latency_ns.reserve(n);
    });
  }
  // Inputs are built before the window opens: the generator only posts.
  Rng order_rng(rig.seed * 0x9E3779B97F4A7C15ull + 7);
  std::array<uint32_t, kVars> perm{};
  for (uint32_t v = 0; v < kVars; ++v) perm[v] = v;
  for (uint32_t v = kVars - 1; v > 0; --v) {
    std::swap(perm[v], perm[order_rng.uniform(0, v)]);
  }
  const int64_t gap = static_cast<int64_t>(1e9 / kRate);
  std::vector<Sample> samples(n);
  std::vector<int64_t> due(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t v = perm[i % kVars];
    samples[i] = make_sample(rig.seed, i + 1, 0, v, ++rig.seq[v]);
  }
  // Due times are stamped last so building the inputs never makes the
  // first messages late.
  const int64_t t0 = now_ns() + 10'000'000;
  for (size_t i = 0; i < n; ++i) {
    due[i] = t0 + static_cast<int64_t>(i) * gap;
    samples[i].due_ns = due[i];
    samples[i].checksum = checksum_of(samples[i]);
  }

  WindowOut out;
  out.expected = n * rig.subs.size();
  if (traced) {
    out.queue_wait_ns.reserve(n);
    out.publish_ns.reserve(n);
  }
  std::atomic<uint64_t> publish_failures{0};
  struct Ctx {
    Publisher* pub;
    LiveNode* node;
    const std::vector<Sample>* samples;
    WindowOut* out;
    std::atomic<uint64_t>* failures;
    bool traced;
  } ctx{rig.pub, &pub_node, &samples, &out, &publish_failures, traced};

  Window w;
  w.begin(*rig.stack);
  {
    OpenLoopGenerator gen(due, [&ctx](size_t i) {
      ctx.node->executor->post(sched::Priority::kVariable, [c = &ctx, i] {
        const int64_t start = now_ns();
        const Sample& s = (*c->samples)[i];
        if (!c->traced) {
          if (!c->pub->publish(s).is_ok()) c->failures->fetch_add(1);
          return;
        }
        tl_spans = &c->node->spans;
        tl_msg = s.id;
        const int64_t p0 = now_ns();
        const bool ok = c->pub->publish(s).is_ok();
        const int64_t p1 = now_ns();
        tl_msg = 0;
        if (!ok) c->failures->fetch_add(1);
        c->node->spans.record(SpanName::kQueueWait, s.id, s.due_ns, start);
        c->node->spans.record(SpanName::kPublish, s.id, p0, p1);
        c->out->queue_wait_ns.add(start - s.due_ns);
        c->out->publish_ns.add(p1 - p0);
      });
    });
    auto delivered = [&] {
      uint64_t d = 0;
      for (auto* s : rig.subs) d += s->delivered.load();
      return d;
    };
    gen.join();
    wait_until([&] { return delivered() >= out.expected; }, 2.0);
    const int64_t t1 = now_ns();
    out.cpu_s = process_cpu_s() - w.cpu0_s - gen.cpu_s();
    const uint64_t allocs = heap_allocs() - w.allocs0;
    out.delivered = delivered();
    out.wall_s = (t1 - w.t0_ns) * 1e-9;
    out.cpu_us_per_msg = ratio(out.cpu_s * 1e6, static_cast<double>(out.delivered));
    out.allocs_per_msg = ratio(static_cast<double>(allocs),
                               static_cast<double>(out.delivered));
    out.steal_pct = w.steal.pct();
    out.late_ns = std::move(gen.lateness_ns());
  }
  rig.stack->node(0).executor->drain();
  out.delta = rig.stack->counters() - w.c0;
  out.publish_failures = publish_failures.load();
  return out;
}

void check_outputs(Rig& rig, Result& r) {
  for (auto* s : rig.subs) {
    if (s->bad_payload.load()) {
      r.fail_check(s->name() + ": " + std::to_string(s->bad_payload.load()) +
                   " samples with a wrong variable or checksum");
    }
    if (s->out_of_order.load()) {
      r.fail_check(s->name() + ": " + std::to_string(s->out_of_order.load()) +
                   " samples out of sequence order (or duplicated)");
    }
  }
}

}  // namespace

Result run_telemetry(const RunOptions& opts) {
  Result r;
  const double main_s = opts.trace ? opts.seconds / 2 : opts.seconds;

  // Set-up: construct, bind, discover and deliver the first sample of
  // every variable to every subscriber. Each window runs on a fresh
  // stack, so one stack's thread placement or ring state cannot bias the
  // whole run; the set-ups are timed before every window, so their
  // median samples the host across the run, and the last one carries
  // the window.
  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  const int reps = opts.trace ? 1 : kSetupsPerWindow;
  WindowOut plain;
  Windows windows;
  int rcvbuf = 0;
  for (int k = 0; k < kWindows; ++k) {
    for (int rep = 0; rep < reps; ++rep) {
      rig.reset();
      const int64_t t = now_ns();
      rig = std::make_unique<Rig>(opts.seed, false);
      rig->warm_up();
      setups.push_back((now_ns() - t) * 1e-9);
      check_outputs(*rig, r);
    }
    WindowOut w = run_window(*rig, main_s / kWindows, false);
    rcvbuf = rig->stack->receive_buffer_bytes();
    rig->stack->shutdown();
    check_outputs(*rig, r);
    Samples lat;
    for (auto* s : rig->subs) lat.append(s->latency_ns);
    windows.add(lat.pct(0.50) * 1e-3, static_cast<int64_t>(lat.size()),
                w.cpu_us_per_msg, static_cast<int64_t>(w.delivered));
    plain.latency_ns.append(lat);
    plain.late_ns.append(w.late_ns);
    plain.expected += w.expected;
    plain.delivered += w.delivered;
    plain.publish_failures += w.publish_failures;
    plain.cpu_s += w.cpu_s;
    plain.wall_s += w.wall_s;
    plain.steal_pct += w.steal_pct / kWindows;
  }
  plain.cpu_us_per_msg = ratio(plain.cpu_s * 1e6, static_cast<double>(plain.delivered));
  rig.reset();

  r.attempted = plain.expected;
  r.failed = plain.expected - std::min(plain.expected, plain.delivered);
  const double late_p99 = plain.late_ns.pct(0.99) * 1e-3;
  const auto n_lat = static_cast<int64_t>(plain.latency_ns.size());
  r.e2e("setup_s", median_of(setups), "s", static_cast<int64_t>(setups.size()));
  windows.report(r, "var_p50_us");
  r.detail("peak_rss_mb", peak_rss_mb(), "MiB");
  r.detail("var_p50_us", plain.latency_ns.pct(0.50) * 1e-3, "us", n_lat);
  r.detail("var_p99_us", plain.latency_ns.pct(0.99) * 1e-3, "us", n_lat);
  r.detail("offered_rate", kRate, "samples/s");
  r.detail("socket_rcvbuf", rcvbuf / 1024.0, "KiB");
  r.detail("deliveries", static_cast<double>(plain.delivered), "count");
  r.detail("gen.late_p99_us", late_p99, "us",
           static_cast<int64_t>(plain.late_ns.size()));
  r.detail("host.steal_pct", plain.steal_pct, "%");
  if (plain.publish_failures) {
    r.detail("publish_failures", static_cast<double>(plain.publish_failures),
             "count");
  }
  if (!opts.trace) return r;

  // Traced run: a fresh stack with observability, the counting transport
  // and span recording, same offered load.
  auto traced = std::make_unique<Rig>(opts.seed + 1, true);
  traced->warm_up();
  WindowOut tw = run_window(*traced, opts.seconds - main_s, true);
  traced->stack->shutdown();
  check_outputs(*traced, r);
  r.attempted += tw.expected;
  r.failed += tw.expected - std::min(tw.expected, tw.delivered);

  std::vector<const SpanBuffer*> sub_spans;
  for (size_t k = 0; k < traced->subs.size(); ++k) {
    sub_spans.push_back(&traced->stack->node(1 + k).spans);
  }
  Samples deliver_ns = derive_delivery_spans(
      traced->stack->node(0).spans, sub_spans,
      opts.dump_dir.empty() ? ""
                            : opts.dump_dir + "/telemetry-seed" + std::to_string(opts.seed) + ".json",
      "telemetry", r);

  Sample probe_msg = make_sample(opts.seed, 1, now_ns(), 3, 1);
  const CodecCost codec = probe_codec(probe_msg);
  LayerValues v;
  fill_live_layers(v, tw.delta, static_cast<double>(tw.delivered), tw.wall_s);
  v.queue_wait_p50_us = tw.queue_wait_ns.pct(0.50) * 1e-3;
  v.queue_wait_p99_us = tw.queue_wait_ns.pct(0.99) * 1e-3;
  v.queue_wait_n = static_cast<int64_t>(tw.queue_wait_ns.size());
  v.publish_p50_us = tw.publish_ns.pct(0.50) * 1e-3;
  v.publish_n = static_cast<int64_t>(tw.publish_ns.size());
  v.deliver_p50_us = deliver_ns.pct(0.50) * 1e-3;
  v.deliver_n = static_cast<int64_t>(deliver_ns.size());
  v.encode_ns = codec.encode_ns;
  v.decode_ns = codec.decode_ns;
  v.frame_seal_ns = probe_frame_seal_ns(codec.encoded_bytes + 16);
  v.heap_allocs_per_msg = tw.allocs_per_msg;
  v.oneway_p50_us = probe_oneway_p50_us(transport::TransportBackend::kUring,
                                        codec.encoded_bytes + 24, kRate,
                                        kSubscribers, 1.0, &v.oneway_n);
  v.trace_overhead_pct =
      100.0 * ratio(tw.cpu_us_per_msg - plain.cpu_us_per_msg, plain.cpu_us_per_msg);
  v.gen_late_p99_us = tw.late_ns.pct(0.99) * 1e-3;
  v.late_n = static_cast<int64_t>(tw.late_ns.size());
  v.steal_pct = tw.steal_pct;
  emit_layers(r, v);
  return r;
}

}  // namespace marea::perfbench
