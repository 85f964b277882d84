// `mission`: the paper's Fig 3 image mission on the epoll live backend.
// A camera container publishes a 256 KiB seeded image (MFTP) at 2 Hz and
// a reliable `detection` event at 100 Hz to two ground containers; ground
// A also issues open-loop RPCs to the camera at 200 calls/s. Paced 1 KiB
// chunk bursts and ARQ acks share one executor with latency-critical
// events and calls.
#include <algorithm>
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

namespace marea::perfbench::mission {

struct Detection {
  uint64_t id = 0;  // message id (1..n in a measured window); 0 = warm-up
  int64_t due_ns = 0;
  float x = 0;
  float y = 0;
  float w = 0;
  float h = 0;
  float score = 0;
  uint32_t checksum = 0;
};

}  // namespace marea::perfbench::mission

MAREA_REFLECT(marea::perfbench::mission::Detection, id, due_ns, x, y, w, h,
              score, checksum)

namespace marea::perfbench {
namespace {

using mission::Detection;

constexpr size_t kImageBytes = 256 * 1024;
constexpr size_t kChunk = 1024;
constexpr size_t kRpcArgBytes = 64;
constexpr double kImageHz = 2;
constexpr double kEventHz = 100;
constexpr double kRpcHz = 200;
constexpr int kGrounds = 2;
// Set-ups timed before every untraced window; setup_s is their median.
constexpr int kSetupsPerWindow = 5;
const char* const kImage = "mission.image";
const char* const kEvent = "mission.detection";
const char* const kTrack = "camera.track";

uint32_t checksum_of(const Detection& d) {
  uint8_t buf[48];
  size_t n = 0;
  auto put = [&](const auto& v) {
    std::memcpy(buf + n, &v, sizeof v);
    n += sizeof v;
  };
  put(d.id), put(d.due_ns), put(d.x), put(d.y), put(d.w), put(d.h), put(d.score);
  return static_cast<uint32_t>(util::hash64(BytesView(buf, n)));
}

Detection make_detection(uint64_t seed, uint64_t id, int64_t due) {
  Rng rng(seed * 31 + id);
  Detection d;
  d.id = id;
  d.due_ns = due;
  d.x = static_cast<float>(rng.uniform_real(0, 640));
  d.y = static_cast<float>(rng.uniform_real(0, 480));
  d.w = static_cast<float>(rng.uniform_real(8, 64));
  d.h = static_cast<float>(rng.uniform_real(8, 64));
  d.score = static_cast<float>(rng.uniform_real(0.5, 1.0));
  d.checksum = checksum_of(d);
  return d;
}

// Seeded camera frame, 256 x 1 KiB chunks: a flat sky (identical chunks:
// dedup and LZ both act), seeded low-entropy terrain shared by every
// revision (LZ acts), and 64 chunks of fresh noise per revision that
// neither removes.
Buffer make_image(uint64_t seed, uint64_t revision) {
  Buffer img(kImageBytes);
  Rng terrain(seed * 7919 + 1);
  Rng fresh(seed * 104729 + revision);
  for (size_t c = 0; c < kImageBytes / kChunk; ++c) {
    uint8_t* p = img.data() + c * kChunk;
    if (c < 64) {
      for (size_t i = 0; i < kChunk; ++i) p[i] = static_cast<uint8_t>(0xB0 + (i % 4));
    } else if (c < 192) {
      for (size_t i = 0; i < kChunk; ++i) {
        p[i] = static_cast<uint8_t>(0x40 + (terrain.next_u64() & 7) * 3);
      }
    } else {
      for (size_t i = 0; i < kChunk; i += 8) {
        const uint64_t r = fresh.next_u64();
        std::memcpy(p + i, &r, 8);
      }
    }
  }
  return img;
}

Buffer make_rpc_args(uint64_t seed, uint64_t id, int64_t due) {
  Buffer a(kRpcArgBytes);
  std::memcpy(a.data(), &id, 8);
  std::memcpy(a.data() + 8, &due, 8);
  Rng rng(seed * 131 + id);
  for (size_t i = 16; i < kRpcArgBytes; i += 8) {
    const uint64_t r = rng.next_u64();
    std::memcpy(a.data() + i, &r, 8);
  }
  return a;
}

class Camera final : public mw::Service {
 public:
  Camera() : Service("camera") {}
  Status on_start() override {
    auto e = provide_event<Detection>(kEvent);
    if (!e.ok()) return e.status();
    detection_ = *e;
    return provide_function(
        kTrack, enc::bytes_type(), enc::bytes_type(),
        [](const enc::Value& args) -> StatusOr<enc::Value> { return args; });
  }
  Status publish_detection(const Detection& d) { return detection_.publish(d); }
  Status publish_image(Buffer img) { return publish_file(kImage, std::move(img)); }

 private:
  mw::EventHandle detection_;
};

// Per-window expectations the ground handlers check against; filled
// before the window opens and read-only while it runs.
struct Expect {
  uint64_t events = 0;
  uint32_t first_revision = 0;  // revision of the first measured image
  std::vector<uint64_t> image_hash;
  std::vector<int64_t> image_due;
};

class Ground final : public mw::Service {
 public:
  Ground(int k, uint64_t seed) : Service("ground" + std::to_string(k)), seed_(seed) {}
  Status on_start() override {
    Status s = subscribe_event<Detection>(
        kEvent, [this](const Detection& d, const mw::EventInfo&) { on_event(d); });
    if (!s.is_ok()) return s;
    return subscribe_file(kImage, [this](const proto::FileMeta& m, const Buffer& c) {
      on_file(m, c);
    });
  }

  // Sets the window's expectations (on this ground's executor).
  void arm(const Expect* expect, SpanBuffer* span_buf) {
    expect_ = expect;
    spans = span_buf;
    seen_.assign(expect->events + 1, 0);
    event_ns.reserve(expect->events);
    rpc_ns.reserve(expect->events * 2);
    files_seen_.assign(expect->image_hash.size(), 0);
  }

  void on_event(const Detection& d) {
    const int64_t t = now_ns();
    if (checksum_of(d) != d.checksum) {
      bad.fetch_add(1);
      return;
    }
    if (!got_event.load()) got_event.store(true);
    if (d.id == 0 || !expect_) return;
    if (d.id > expect_->events || seen_[d.id]++ != 0) {
      duplicates.fetch_add(1);
      return;
    }
    event_ns.add(t - d.due_ns);
    if (spans) spans->record(SpanName::kHandler, d.id, t, now_ns());
    delivered.fetch_add(1, std::memory_order_relaxed);
  }

  void on_file(const proto::FileMeta& m, const Buffer& c) {
    const int64_t t = now_ns();
    if (!got_file.load()) got_file.store(true);
    if (!expect_ || m.revision < expect_->first_revision) return;
    const size_t i = m.revision - expect_->first_revision;
    if (i >= expect_->image_hash.size()) return;
    if (util::hash64(BytesView(c)) != expect_->image_hash[i]) {
      bad.fetch_add(1);
      return;
    }
    if (files_seen_[i]++ != 0) {
      duplicates.fetch_add(1);
      return;
    }
    file_ns.add(t - expect_->image_due[i]);
    delivered.fetch_add(1, std::memory_order_relaxed);
  }

  // Issues one RPC whose reply must echo the request (executor thread).
  void track(uint64_t id, int64_t due) {
    Buffer args = make_rpc_args(seed_, id, due);
    call(
        kTrack, enc::Value::of_bytes(args),
        [this, args, id, due](StatusOr<enc::Value> r) {
          const int64_t t = now_ns();
          if (!r.ok()) {
            if (id != 0) rpc_errors.fetch_add(1);  // warm-up calls may race discovery
            return;
          }
          if (r->as_bytes() != args) {
            bad.fetch_add(1);
            return;
          }
          if (!got_reply.load()) got_reply.store(true);
          if (id == 0) return;
          rpc_ns.add(t - due);
          delivered.fetch_add(1, std::memory_order_relaxed);
        },
        {.timeout = seconds(1.0), .max_failovers = 0});
  }

  SpanBuffer* spans = nullptr;
  Samples event_ns, file_ns, rpc_ns;  // executor thread
  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> bad{0}, duplicates{0}, rpc_errors{0};
  std::atomic<bool> got_event{false}, got_file{false}, got_reply{false};

 private:
  uint64_t seed_;
  const Expect* expect_ = nullptr;
  std::vector<uint8_t> seen_, files_seen_;
};

enum class Kind : uint8_t { kImage, kEvent, kRpc };

struct Rig {
  Camera* camera = nullptr;
  std::vector<Ground*> grounds;
  std::unique_ptr<LiveStack> stack;
  uint64_t seed = 0;
  uint32_t revisions = 0;  // images published so far

  Rig(uint64_t seed_in, bool traced) : seed(seed_in) {
    std::vector<LiveStack::ServiceList> nodes(1 + kGrounds);
    auto c = std::make_unique<Camera>();
    camera = c.get();
    nodes[0].push_back(std::move(c));
    for (int k = 0; k < kGrounds; ++k) {
      auto g = std::make_unique<Ground>(k, seed);
      grounds.push_back(g.get());
      nodes[1 + static_cast<size_t>(k)].push_back(std::move(g));
    }
    StackOptions o;
    o.backend = transport::TransportBackend::kEpoll;
    o.traced = traced;
    stack = std::make_unique<LiveStack>(std::move(nodes), o);
  }

  // First image, event and reply at every ground: every binding is up.
  void warm_up() {
    auto ready = [&] {
      for (auto* g : grounds) {
        if (!g->got_event.load() || !g->got_file.load()) return false;
      }
      return grounds[0]->got_reply.load();
    };
    stack->node(0).run_sync([&] {
      (void)camera->publish_image(make_image(seed, 0));
    });
    revisions = 1;
    const int64_t deadline = now_ns() + 20'000'000'000;
    while (!ready()) {
      if (now_ns() > deadline) throw std::runtime_error("mission: grounds never bound");
      stack->node(0).run_sync([&] {
        (void)camera->publish_detection(make_detection(seed, 0, 0));
      });
      stack->node(1).run_sync([&] { grounds[0]->track(0, 0); });
      wait_until(ready, 0.002);
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
  uint64_t images = 0;
  uint64_t publish_failures = 0;
  uint64_t rpc_errors = 0;
  Samples event_ns, rpc_ns, file_ns, late_ns, queue_wait_ns, publish_ns;
  LiveStack::Counters delta;
};

WindowOut run_window(Rig& rig, double seconds, bool traced) {
  // Merged open-loop schedule of the three streams.
  Rng phase(rig.seed * 0x9E3779B97F4A7C15ull + 3);
  struct Item {
    int64_t due;
    Kind kind;
    uint64_t id;
  };
  std::vector<Item> items;
  // Each message is due at a seeded uniform instant inside its own period
  // slot, so the three streams meet at every relative alignment instead
  // of a fixed phase that would bias the run's latencies.
  auto stream = [&](Kind kind, double hz) {
    const int64_t gap = static_cast<int64_t>(1e9 / hz);
    const size_t n = static_cast<size_t>(seconds * hz);
    for (size_t i = 0; i < n; ++i) {
      const auto off = static_cast<int64_t>(phase.uniform(0, static_cast<uint64_t>(gap - 1)));
      items.push_back({static_cast<int64_t>(i) * gap + off, kind, i + 1});
    }
    return n;
  };
  const size_t n_images = stream(Kind::kImage, kImageHz);
  const size_t n_events = stream(Kind::kEvent, kEventHz);
  const size_t n_rpcs = stream(Kind::kRpc, kRpcHz);
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.due < b.due; });

  // Inputs are built before the window opens: the generator only posts.
  Expect expect;
  expect.events = n_events;
  expect.first_revision = rig.revisions + 1;
  std::vector<Buffer> images(n_images);
  std::vector<Detection> detections(n_events + 1);
  for (const Item& it : items) {
    if (it.kind == Kind::kImage) {
      images[it.id - 1] = make_image(rig.seed, rig.revisions + it.id);
      expect.image_hash.push_back(util::hash64(BytesView(images[it.id - 1])));
    }
  }
  // Due times are stamped last so building the inputs never makes the
  // first messages late.
  const int64_t t0 = now_ns() + 10'000'000;
  std::vector<int64_t> due;
  for (Item& it : items) {
    it.due += t0;
    due.push_back(it.due);
    if (it.kind == Kind::kImage) {
      expect.image_due.push_back(it.due);
    } else if (it.kind == Kind::kEvent) {
      detections[it.id] = make_detection(rig.seed, it.id, it.due);
    }
  }
  rig.revisions += static_cast<uint32_t>(n_images);

  LiveNode& cam = rig.stack->node(0);
  LiveNode& ground_a = rig.stack->node(1);
  if (traced) cam.spans.enable(items.size() * 3);
  // Ground state is set up on the ground's own executor: its handlers
  // only ever touch it from there.
  for (size_t k = 0; k < rig.grounds.size(); ++k) {
    LiveNode& node = rig.stack->node(1 + k);
    node.run_sync([&] {
      if (traced) node.spans.enable(items.size() * 3);
      rig.grounds[k]->arm(&expect, traced ? &node.spans : nullptr);
    });
  }

  WindowOut out;
  out.images = n_images;
  out.expected = (n_events + n_images) * rig.grounds.size() + n_rpcs;
  // Task context: everything a posted task touches, behind one pointer
  // so the closure stays inside the executor's inline task storage.
  // Samples are per executing node (camera, ground A): no sharing.
  struct Ctx {
    Rig* rig;
    LiveNode* node[2];
    std::vector<Detection>* detections;
    std::vector<Buffer>* images;
    Samples queue_wait[2];
    Samples publish[2];
    std::atomic<uint64_t> publish_failures{0};
    uint64_t rpc_base, image_base;
    bool traced;
  } ctx{&rig, {&cam, &ground_a}, &detections, &images, {}, {}, {}, n_events,
        n_events + n_rpcs, traced};
  if (traced) {
    for (int k = 0; k < 2; ++k) {
      ctx.queue_wait[k].reserve(items.size());
      ctx.publish[k].reserve(items.size());
    }
  }

  Window w;
  w.begin(*rig.stack);
  {
    OpenLoopGenerator gen(due, [&ctx, &items](size_t i) {
      const Item it = items[i];
      const int side = it.kind == Kind::kRpc ? 1 : 0;
      const sched::Priority prio = it.kind == Kind::kEvent ? sched::Priority::kEvent
                                   : it.kind == Kind::kRpc ? sched::Priority::kRpc
                                                           : sched::Priority::kFileTransfer;
      ctx.node[side]->executor->post(prio, [c = &ctx, it, side] {
        const int64_t start = now_ns();
        // Message ids are unique per window across kinds (span dump).
        const uint64_t mid = it.kind == Kind::kEvent ? it.id
                             : it.kind == Kind::kRpc ? c->rpc_base + it.id
                                                     : c->image_base + it.id;
        LiveNode& node = *c->node[side];
        if (c->traced) {
          tl_spans = &node.spans;
          tl_msg = mid;
          c->queue_wait[side].add(start - it.due);
          node.spans.record(SpanName::kQueueWait, mid, it.due, start);
        }
        const int64_t p0 = now_ns();
        Status s = Status::ok();
        if (it.kind == Kind::kRpc) {
          c->rig->grounds[0]->track(mid, it.due);
        } else if (it.kind == Kind::kEvent) {
          s = c->rig->camera->publish_detection((*c->detections)[it.id]);
        } else {
          s = c->rig->camera->publish_image(std::move((*c->images)[it.id - 1]));
        }
        if (!s.is_ok()) c->publish_failures.fetch_add(1);
        if (c->traced) {
          const int64_t p1 = now_ns();
          node.spans.record(SpanName::kPublish, mid, p0, p1);
          c->publish[side].add(p1 - p0);
          tl_msg = 0;
        }
      });
    });
    auto delivered = [&] {
      uint64_t d = 0;
      for (auto* g : rig.grounds) d += g->delivered.load();
      return d;
    };
    gen.join();
    wait_until([&] { return delivered() >= out.expected; }, 3.0);
    const int64_t t1 = now_ns();
    out.cpu_s = process_cpu_s() - w.cpu0_s - gen.cpu_s();
    const uint64_t allocs = heap_allocs() - w.allocs0;
    out.delivered = delivered();
    out.wall_s = (t1 - w.t0_ns) * 1e-9;
    out.cpu_us_per_msg = ratio(out.cpu_s * 1e6, static_cast<double>(out.delivered));
    out.allocs_per_msg = ratio(static_cast<double>(allocs), static_cast<double>(out.delivered));
    out.steal_pct = w.steal.pct();
    out.late_ns = std::move(gen.lateness_ns());
  }
  out.delta = rig.stack->counters() - w.c0;
  rig.stack->shutdown();
  for (auto* g : rig.grounds) {
    out.event_ns.append(g->event_ns);
    out.file_ns.append(g->file_ns);
    out.rpc_ns.append(g->rpc_ns);
  }
  for (int k = 0; k < 2; ++k) {
    out.queue_wait_ns.append(ctx.queue_wait[k]);
    out.publish_ns.append(ctx.publish[k]);
  }
  out.publish_failures = ctx.publish_failures.load();
  out.rpc_errors = rig.grounds[0]->rpc_errors.load();
  return out;
}

void check_outputs(Rig& rig, Result& r) {
  for (auto* g : rig.grounds) {
    if (g->bad.load()) {
      r.fail_check(g->name() + ": " + std::to_string(g->bad.load()) +
                   " events/files/replies with wrong content");
    }
    if (g->duplicates.load()) {
      r.fail_check(g->name() + ": " + std::to_string(g->duplicates.load()) +
                   " events or files delivered more than once");
    }
  }
}

}  // namespace

Result run_mission(const RunOptions& opts) {
  Result r;
  const double main_s = opts.trace ? opts.seconds / 2 : opts.seconds;

  // Set-ups are timed before every window, each window on a fresh stack
  // (see telemetry).
  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  const int reps = opts.trace ? 1 : kSetupsPerWindow;
  auto n = [](const Samples& s) { return static_cast<int64_t>(s.size()); };
  WindowOut plain;
  Windows windows;
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
    check_outputs(*rig, r);
    windows.add(w.event_ns.pct(0.50) * 1e-3, n(w.event_ns), w.cpu_us_per_msg,
                static_cast<int64_t>(w.delivered));
    plain.event_ns.append(w.event_ns);
    plain.rpc_ns.append(w.rpc_ns);
    plain.file_ns.append(w.file_ns);
    plain.late_ns.append(w.late_ns);
    plain.expected += w.expected;
    plain.delivered += w.delivered;
    plain.publish_failures += w.publish_failures;
    plain.rpc_errors += w.rpc_errors;
    plain.cpu_s += w.cpu_s;
    plain.steal_pct += w.steal_pct / kWindows;
  }
  plain.cpu_us_per_msg = ratio(plain.cpu_s * 1e6, static_cast<double>(plain.delivered));
  rig.reset();

  r.attempted = plain.expected;
  r.failed = plain.expected - std::min(plain.expected, plain.delivered);
  r.e2e("setup_s", median_of(setups), "s", static_cast<int64_t>(setups.size()));
  windows.report(r, "event_p50_us");
  r.detail("peak_rss_mb", peak_rss_mb(), "MiB");
  r.detail("event_p50_us", plain.event_ns.pct(0.50) * 1e-3, "us", n(plain.event_ns));
  r.detail("event_p99_us", plain.event_ns.pct(0.99) * 1e-3, "us", n(plain.event_ns));
  r.detail("rpc_p50_us", plain.rpc_ns.pct(0.50) * 1e-3, "us", n(plain.rpc_ns));
  r.detail("rpc_p99_us", plain.rpc_ns.pct(0.99) * 1e-3, "us", n(plain.rpc_ns));
  r.detail("file_p50_ms", plain.file_ns.pct(0.50) * 1e-6, "ms", n(plain.file_ns));
  r.detail("deliveries", static_cast<double>(plain.delivered), "count");
  r.detail("gen.late_p99_us", plain.late_ns.pct(0.99) * 1e-3, "us", n(plain.late_ns));
  r.detail("host.steal_pct", plain.steal_pct, "%");
  if (plain.publish_failures) {
    r.detail("publish_failures", static_cast<double>(plain.publish_failures), "count");
  }
  if (plain.rpc_errors) {
    r.detail("rpc_errors", static_cast<double>(plain.rpc_errors), "count");
  }
  if (!opts.trace) return r;

  auto traced = std::make_unique<Rig>(opts.seed + 1, true);
  traced->warm_up();
  WindowOut tw = run_window(*traced, opts.seconds - main_s, true);
  check_outputs(*traced, r);
  r.attempted += tw.expected;
  r.failed += tw.expected - std::min(tw.expected, tw.delivered);

  // Ground 0's buffer also holds its RPC tasks' spans; only handler
  // spans feed the deliver/message derivation.
  std::vector<const SpanBuffer*> ground_spans;
  for (size_t k = 0; k < traced->grounds.size(); ++k) {
    ground_spans.push_back(&traced->stack->node(1 + k).spans);
  }
  Samples deliver_ns = derive_delivery_spans(
      traced->stack->node(0).spans, ground_spans,
      opts.dump_dir.empty() ? ""
                            : opts.dump_dir + "/mission-seed" + std::to_string(opts.seed) + ".json",
      "mission", r);

  const CodecCost codec = probe_codec(make_detection(opts.seed, 1, now_ns()));
  const Buffer image = make_image(opts.seed, 1);
  LayerValues v;
  fill_live_layers(v, tw.delta, static_cast<double>(tw.delivered), tw.wall_s);
  v.queue_wait_p50_us = tw.queue_wait_ns.pct(0.50) * 1e-3;
  v.queue_wait_p99_us = tw.queue_wait_ns.pct(0.99) * 1e-3;
  v.queue_wait_n = n(tw.queue_wait_ns);
  v.publish_p50_us = tw.publish_ns.pct(0.50) * 1e-3;
  v.publish_n = n(tw.publish_ns);
  v.deliver_p50_us = deliver_ns.pct(0.50) * 1e-3;
  v.deliver_n = n(deliver_ns);
  v.encode_ns = codec.encode_ns;
  v.decode_ns = codec.decode_ns;
  v.frame_seal_ns = probe_frame_seal_ns(codec.encoded_bytes + 40);
  v.heap_allocs_per_msg = tw.allocs_per_msg;
  v.oneway_p50_us = probe_oneway_p50_us(transport::TransportBackend::kEpoll,
                                        codec.encoded_bytes + 40, kEventHz,
                                        kGrounds, 1.0, &v.oneway_n);
  v.trace_overhead_pct =
      100.0 * ratio(tw.cpu_us_per_msg - plain.cpu_us_per_msg, plain.cpu_us_per_msg);
  v.gen_late_p99_us = tw.late_ns.pct(0.99) * 1e-3;
  v.late_n = n(tw.late_ns);
  v.steal_pct = tw.steal_pct;
  emit_layers(r, v);
  // Only this workload moves the MFTP metrics, so BENCHMARK.json (which
  // lists the gated workloads' metrics) leaves them out.
  r.layer("protocol.mftp_wire_bytes_per_file_byte",
          ratio(static_cast<double>(tw.delta.mftp_wire_bytes),
                static_cast<double>(tw.images * kImageBytes)),
          "ratio");
  r.layer("protocol.mftp_chunk_retransmits",
          static_cast<double>(tw.delta.mftp_chunk_retransmits), "count");
  r.layer("protocol.chunk_table_build_ms",
          probe_chunk_table_ms(BytesView(image), kChunk, util::Codec::kLz), "ms");
  return r;
}

}  // namespace marea::perfbench
