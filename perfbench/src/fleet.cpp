// `fleet_sim`: a sharded SimDomain of 256 nodes on 4 shards driven by one
// thread, as bench_fleet's n256 stage runs it. Every node publishes a 100 Hz variable to its ring
// neighbour, fires an event every 10th sample and calls its neighbour
// once per virtual second, for a fixed virtual time. The timer wheel,
// ShardGrid windows, SimNetwork fan-out and middleware CPU do all the
// work; the live transport and ThreadPoolExecutor do none.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "encoding/typed.h"
#include "middleware/domain.h"
#include "probes.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workloads.h"

namespace marea::perfbench::fleet {

struct Beacon {
  uint32_t node = 0;
  uint32_t seq = 0;     // per node, strictly increasing
  int64_t due_ns = 0;   // virtual time the sample was due
  uint8_t measured = 0;  // published inside the measured window
  uint64_t payload = 0;
  uint32_t checksum = 0;
};

}  // namespace marea::perfbench::fleet

MAREA_REFLECT(marea::perfbench::fleet::Beacon, node, seq, due_ns, measured,
              payload, checksum)

namespace marea::perfbench {
namespace {

using fleet::Beacon;

constexpr int kNodes = 256;
constexpr uint32_t kShards = 4;
// One thread: with two, every ShardGrid window (50 per 10 ms step)
// ends in a barrier whose sleeping side waits for the hypervisor to run
// its vCPU again, so at 5-7% host steal the median step took 2-3x longer
// while its CPU cost hardly moved.
constexpr uint32_t kThreads = 1;
constexpr int64_t kTickNs = 10'000'000;  // 100 Hz
constexpr int kEventEvery = 10;          // samples per event
constexpr int kRpcEvery = 100;           // samples per RPC (1/s)
constexpr int kWarmRpcEvery = 10;        // faster until the first reply
const Duration kSlice = milliseconds(10);  // one run_for step
const Duration kDrain = milliseconds(100);
// Virtual seconds simulated per wall second of --seconds on a 4-vCPU
// host, so a run measures for about the requested wall time.
constexpr double kVirtualPerWall = 0.28;
// Every container rebroadcasts its manifest hello on this cadence, all
// 256 in the same 10 ms step: that step costs about as much as 500
// ordinary ones. A window spans a whole number of these periods so every
// window, and every run of one length, holds the same number of bursts.
const Duration kAnnounce = mw::ContainerConfig{}.announce_interval;
constexpr int kFleetSetupReps = 5;

uint32_t checksum_of(const Beacon& b) {
  uint8_t buf[32];
  size_t n = 0;
  auto put = [&](const auto& v) {
    std::memcpy(buf + n, &v, sizeof v);
    n += sizeof v;
  };
  put(b.node), put(b.seq), put(b.due_ns), put(b.measured), put(b.payload);
  return static_cast<uint32_t>(util::hash64(BytesView(buf, n)));
}

std::string name_of(const char* what, int node) {
  return "fleet." + std::to_string(node) + "." + what;
}

// Run-wide switches, flipped by the main thread between run_for() calls
// (shard workers are parked at those points).
struct Phase {
  bool measuring = false;
  bool traced = false;
};

class FleetNode final : public mw::Service {
 public:
  FleetNode(int index, uint64_t seed, const Phase* phase)
      : Service("node" + std::to_string(index)),
        index_(index),
        next_(static_cast<int>((index + 1) % kNodes)),
        phase_(phase),
        rng_(seed * 1000003 + static_cast<uint64_t>(index)) {}

  Status on_start() override {
    auto v = provide_variable<Beacon>(name_of("var", index_),
                                      {.period = kDurationZero, .validity = seconds(5.0)});
    if (!v.ok()) return v.status();
    var_ = *v;
    auto e = provide_event<Beacon>(name_of("evt", index_));
    if (!e.ok()) return e.status();
    evt_ = *e;
    Status s = provide_function(
        name_of("ping", index_), enc::bytes_type(), enc::bytes_type(),
        [](const enc::Value& a) -> StatusOr<enc::Value> { return a; });
    if (!s.is_ok()) return s;
    s = subscribe_variable<Beacon>(
        name_of("var", next_),
        [this](const Beacon& b, const mw::SampleInfo&) { on_sample(b); });
    if (!s.is_ok()) return s;
    s = subscribe_event<Beacon>(
        name_of("evt", next_),
        [this](const Beacon& b, const mw::EventInfo&) { on_event(b); });
    if (!s.is_ok()) return s;
    // Seeded phase inside the first 10 ms so nodes do not tick in lockstep.
    next_due_ = now().ns + static_cast<int64_t>(rng_.uniform(0, kTickNs - 1));
    arm();
    return Status::ok();
  }

  bool ready() const { return got_sample_ && got_event_ && got_reply_; }

  // Measured-window tallies (shard thread while running; main thread
  // between run_for calls).
  uint64_t samples_pub = 0, samples_recv = 0;
  uint64_t events_pub = 0, events_recv = 0;
  uint64_t calls = 0, replies = 0, rpc_errors = 0;
  uint64_t bad = 0, out_of_order = 0;
  Samples queue_wait_ns, publish_ns, deliver_ns;  // virtual / wall / virtual

 private:
  void arm() {
    const int64_t due = next_due_;
    schedule(Duration{std::max<int64_t>(0, due - now().ns)},
             [this, due] { tick(due); }, sched::Priority::kVariable);
  }

  void tick(int64_t due) {
    const bool measured = phase_->measuring;
    if (measured && phase_->traced) queue_wait_ns.add(now().ns - due);
    Beacon b;
    b.node = static_cast<uint32_t>(index_);
    b.seq = ++seq_;
    b.due_ns = due;
    b.measured = measured ? 1 : 0;
    b.payload = rng_.next_u64();
    b.checksum = checksum_of(b);
    const int64_t p0 = phase_->traced ? now_ns() : 0;
    if (var_.publish(b).is_ok() && measured) ++samples_pub;
    if (measured && phase_->traced) publish_ns.add(now_ns() - p0);
    if (seq_ % kEventEvery == 0 && evt_.publish(b).is_ok() && measured) ++events_pub;
    const int rpc_every = got_reply_ ? kRpcEvery : kWarmRpcEvery;
    if (seq_ % rpc_every == 0) ping(measured);
    next_due_ = due + kTickNs;
    arm();
  }

  void ping(bool measured) {
    Buffer args(24);
    const uint64_t tag = rng_.next_u64();
    std::memcpy(args.data(), &tag, 8);
    std::memcpy(args.data() + 8, &seq_, 4);
    if (measured) ++calls;
    call(name_of("ping", next_), enc::Value::of_bytes(args),
         [this, args, measured](StatusOr<enc::Value> r) {
           if (!r.ok()) {
             if (measured) ++rpc_errors;
             return;
           }
           if (r->as_bytes() != args) {
             ++bad;
             return;
           }
           got_reply_ = true;
           if (measured) ++replies;
         },
         {.timeout = seconds(1.0), .max_failovers = 0});
  }

  bool check(const Beacon& b) {
    if (b.node != static_cast<uint32_t>(next_) || checksum_of(b) != b.checksum) {
      ++bad;
      return false;
    }
    return true;
  }

  void on_sample(const Beacon& b) {
    if (!check(b)) return;
    if (b.seq <= last_seq_) ++out_of_order;
    last_seq_ = std::max(last_seq_, b.seq);
    got_sample_ = true;
    if (b.measured) {
      ++samples_recv;
      if (phase_->traced) deliver_ns.add(now().ns - b.due_ns);
    }
  }

  void on_event(const Beacon& b) {
    if (!check(b)) return;
    got_event_ = true;
    if (b.measured) ++events_recv;
  }

  int index_;
  int next_;
  const Phase* phase_;
  Rng rng_;
  mw::VariableHandle var_;
  mw::EventHandle evt_;
  uint32_t seq_ = 0;
  uint32_t last_seq_ = 0;
  int64_t next_due_ = 0;
  bool got_sample_ = false, got_event_ = false, got_reply_ = false;
};

struct Rig {
  Phase phase;
  std::unique_ptr<mw::SimDomain> domain;
  std::vector<FleetNode*> nodes;

  explicit Rig(uint64_t seed) {
    sim::LinkParams link;
    link.latency = microseconds(200);
    link.jitter = microseconds(100);
    domain = std::make_unique<mw::SimDomain>(
        seed, link, mw::ShardOptions{.shards = kShards, .threads = kThreads});
    for (int i = 0; i < kNodes; ++i) {
      auto& c = domain->add_node("n" + std::to_string(i));
      auto s = std::make_unique<FleetNode>(i, seed, &phase);
      nodes.push_back(s.get());
      if (!c.add_service(std::move(s)).is_ok()) {
        throw std::runtime_error("fleet_sim: add_service failed");
      }
    }
    domain->start_all();
  }

  // Steps until every node has its first sample, event and reply.
  void warm_up() {
    for (int step = 0; step < 2000; ++step) {
      domain->run_for(kSlice);
      if (std::all_of(nodes.begin(), nodes.end(),
                      [](const FleetNode* n) { return n->ready(); })) {
        return;
      }
    }
    throw std::runtime_error("fleet_sim: nodes never bound");
  }
};

struct Counters {
  uint64_t packets_sent = 0, bytes_sent = 0, events = 0, cascades = 0;
  uint64_t fanout = 0, pool_checkouts = 0, pool_hits = 0, tasks = 0;
  uint64_t data_frames = 0, frames_dropped = 0, frames_send_failed = 0;
  uint64_t arq_messages = 0, arq_frames = 0, arq_retransmits = 0;
};

// Reads the per-shard registries after collect(); call between run_for().
Counters read_counters(Rig& rig) {
  Counters c;
  mw::SimDomain& d = *rig.domain;
  for (uint32_t k = 0; k < d.shard_count(); ++k) {
    obs::MetricsRegistry& reg = d.grid().cell(k).obs.metrics;
    reg.collect();
    c.packets_sent += reg.counter_value("net.packets_sent");
    c.bytes_sent += reg.counter_value("net.bytes_sent");
    c.events += reg.counter_value("sim.events_executed");
    c.cascades += reg.counter_value("sim.wheel_cascades");
    c.fanout += reg.counter_value("sim.fanout_shards_touched");
    c.pool_checkouts += reg.counter_value("pool.checkouts");
    c.pool_hits += reg.counter_value("pool.hits");
  }
  for (size_t i = 0; i < d.node_count(); ++i) {
    c.tasks += d.executor(i).stats().tasks_run;
    obs::MetricsRegistry& reg = d.grid().cell(d.node_shard(i)).obs.metrics;
    const std::string p = "mw." + std::to_string(d.container(i).config().id) + ".";
    c.data_frames += reg.counter_value(p + "var_samples_sent") +
                     reg.counter_value(p + "arq.frames_sent") +
                     reg.counter_value(p + "arq.acks_sent");
    c.frames_dropped += reg.counter_value(p + "frames_dropped");
    c.frames_send_failed += reg.counter_value(p + "frames_send_failed");
    c.arq_messages += reg.counter_value(p + "arq.messages_accepted");
    c.arq_frames += reg.counter_value(p + "arq.frames_sent");
    c.arq_retransmits += reg.counter_value(p + "arq.retransmits");
  }
  return c;
}

struct WindowOut {
  double wall_s = 0, virtual_s = 0, cpu_s = 0, cpu_us_per_msg = 0, allocs_per_msg = 0;
  double steal_pct = 0;
  uint64_t expected = 0, delivered = 0;
  Samples slice_ns;      // wall time per step
  Samples slice_cpu_ns;  // process CPU time per step
  SpanBuffer windows;  // one sim.run_window span per step (traced)
  Counters c0, c1;
};

// Simulates `virtual_s` of measured traffic in kSlice steps, lets the
// in-flight messages land, then tallies every node.
WindowOut run_window(Rig& rig, double virtual_s, bool traced, Result& r) {
  for (FleetNode* n : rig.nodes) {
    n->samples_pub = n->samples_recv = n->events_pub = n->events_recv = 0;
    n->calls = n->replies = n->rpc_errors = 0;
  }
  WindowOut out;
  const int steps = static_cast<int>(virtual_s * 1e3 / 10);
  out.virtual_s = steps * 0.010;
  out.slice_ns.reserve(static_cast<size_t>(steps));
  out.slice_cpu_ns.reserve(static_cast<size_t>(steps));
  if (traced) {
    out.c0 = read_counters(rig);
    out.windows.enable(static_cast<size_t>(steps));
  }
  rig.phase.traced = traced;
  rig.phase.measuring = true;
  StealMeter steal;
  steal.start();
  const uint64_t allocs0 = heap_allocs();
  const double cpu0 = process_cpu_s();
  const int64_t t0 = now_ns();
  for (int s = 0; s < steps; ++s) {
    const int64_t a = now_ns();
    const double ca = process_cpu_s();
    rig.domain->run_for(kSlice);
    const double ce = process_cpu_s();
    const int64_t e = now_ns();
    out.slice_ns.add(e - a);
    out.slice_cpu_ns.add(static_cast<int64_t>((ce - ca) * 1e9));
    out.windows.record(SpanName::kRunWindow, static_cast<uint64_t>(s) + 1, a, e);
  }
  const int64_t t1 = now_ns();
  out.cpu_s = process_cpu_s() - cpu0;
  const uint64_t allocs = heap_allocs() - allocs0;
  rig.phase.measuring = false;
  out.steal_pct = steal.pct();
  if (traced) out.c1 = read_counters(rig);
  // Let every measured sample, event and reply land (tickers keep
  // running unmeasured so the next window needs no re-warm).
  rig.domain->run_for(kDrain);

  uint64_t pub = 0, recv = 0, epub = 0, erecv = 0, calls = 0, replies = 0, errors = 0;
  for (FleetNode* n : rig.nodes) {
    pub += n->samples_pub;
    recv += n->samples_recv;
    epub += n->events_pub;
    erecv += n->events_recv;
    calls += n->calls;
    replies += n->replies;
    errors += n->rpc_errors;
  }
  // Exact accounting on a lossless simulated link: every measured
  // sample and event reaches the neighbour once; every call is answered.
  auto exact = [&r](const char* what, uint64_t got, const char* vs, uint64_t want) {
    if (got != want) {
      r.fail_check(std::string("fleet_sim: ") + what + " " + std::to_string(got) + " != " +
                   vs + " " + std::to_string(want));
    }
  };
  exact("samples delivered", recv, "published", pub);
  exact("events delivered", erecv, "published", epub);
  exact("RPC replies", replies, "calls", calls);
  exact("RPC errors", errors, "expected", 0);
  out.expected = pub + epub + calls;
  out.delivered = std::min(recv, pub) + std::min(erecv, epub) + std::min(replies, calls);
  out.wall_s = (t1 - t0) * 1e-9;
  out.cpu_us_per_msg = ratio(out.cpu_s * 1e6, static_cast<double>(out.delivered));
  out.allocs_per_msg = ratio(static_cast<double>(allocs), static_cast<double>(out.delivered));
  return out;
}

void check_nodes(const Rig& rig, Result& r) {
  uint64_t bad = 0, ooo = 0;
  for (const FleetNode* n : rig.nodes) {
    bad += n->bad;
    ooo += n->out_of_order;
  }
  if (bad) r.fail_check("fleet_sim: " + std::to_string(bad) + " messages with wrong content");
  if (ooo) r.fail_check("fleet_sim: " + std::to_string(ooo) + " samples out of order");
}

}  // namespace

Result run_fleet_sim(const RunOptions& opts) {
  Result r;
  // Whole announce periods per window (at least one).
  const double period_s = kAnnounce.seconds();
  auto window_v = [period_s](double v) {
    return std::max(1.0, std::floor(v / period_s)) * period_s;
  };
  const double virtual_s = opts.seconds * kVirtualPerWall;
  const double main_window_v = window_v((opts.trace ? virtual_s / 2 : virtual_s) / kWindows);

  // Set-up: build the domain and step virtual time until every node is
  // bound. Each rep uses the same seed, so the event count at readiness
  // must repeat exactly (the determinism check; traced runs keep two
  // set-ups so it still applies).
  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  uint64_t ready_events = 0;
  const int reps = opts.trace ? 2 : kFleetSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    rig.reset();
    const int64_t t = now_ns();
    rig = std::make_unique<Rig>(opts.seed);
    rig->warm_up();
    setups.push_back((now_ns() - t) * 1e-9);
    const uint64_t ev = rig->domain->grid().events_executed_total();
    if (rep == 0) ready_events = ev;
    if (ev != ready_events) {
      r.fail_check("fleet_sim: sim.events_executed at readiness " + std::to_string(ev) +
                   " != " + std::to_string(ready_events) + " for the same seed");
    }
  }

  // The windows continue on the same domain (no re-warm needed).
  WindowOut plain;
  Windows windows;
  for (int k = 0; k < kWindows; ++k) {
    WindowOut w = run_window(*rig, main_window_v, false, r);
    windows.add(w.slice_cpu_ns.pct(0.50) * 1e-3, static_cast<int64_t>(w.slice_cpu_ns.size()),
                w.cpu_us_per_msg, static_cast<int64_t>(w.delivered));
    plain.slice_ns.append(w.slice_ns);
    plain.slice_cpu_ns.append(w.slice_cpu_ns);
    plain.expected += w.expected;
    plain.delivered += w.delivered;
    plain.wall_s += w.wall_s;
    plain.virtual_s += w.virtual_s;
    plain.cpu_s += w.cpu_s;
    plain.steal_pct += w.steal_pct / kWindows;
  }
  plain.cpu_us_per_msg = ratio(plain.cpu_s * 1e6, static_cast<double>(plain.delivered));
  check_nodes(*rig, r);
  r.attempted = plain.expected;
  r.failed = plain.expected - std::min(plain.expected, plain.delivered);
  const auto n_slices = static_cast<int64_t>(plain.slice_ns.size());
  r.e2e("setup_s", median_of(setups), "s", static_cast<int64_t>(setups.size()));
  windows.report(r, "step_cpu_p50_us");
  r.detail("step_wall_p50_us", plain.slice_ns.pct(0.50) * 1e-3, "us", n_slices);
  r.detail("step_wall_p99_us", plain.slice_ns.pct(0.99) * 1e-3, "us", n_slices);
  r.detail("peak_rss_mb", peak_rss_mb(), "MiB");
  r.detail("sim_speed", plain.virtual_s / plain.wall_s, "virtual_s/s");
  r.detail("deliveries", static_cast<double>(plain.delivered), "count");
  r.detail("sim.events_executed_at_ready", static_cast<double>(ready_events), "count");
  r.detail("host.steal_pct", plain.steal_pct, "%");
  if (!opts.trace) return r;

  for (FleetNode* n : rig->nodes) {
    n->queue_wait_ns.reserve(static_cast<size_t>(virtual_s * 100));
    n->publish_ns.reserve(static_cast<size_t>(virtual_s * 100));
    n->deliver_ns.reserve(static_cast<size_t>(virtual_s * 100));
  }
  WindowOut tw = run_window(*rig, window_v(virtual_s / 2), true, r);
  check_nodes(*rig, r);
  r.attempted += tw.expected;
  r.failed += tw.expected - std::min(tw.expected, tw.delivered);

  Samples queue_wait, publish, deliver;
  for (FleetNode* n : rig->nodes) {
    queue_wait.append(n->queue_wait_ns);
    publish.append(n->publish_ns);
    deliver.append(n->deliver_ns);
  }
  if (!opts.dump_dir.empty()) {
    add_self_time_details(
        r, write_span_dump(opts.dump_dir + "/fleet_sim-seed" + std::to_string(opts.seed) + ".json",
                           {&tw.windows}, "fleet_sim"));
  }

  auto f = [](uint64_t x) { return static_cast<double>(x); };
  const double msgs = f(tw.delivered);
  const Counters& a = tw.c0;
  const Counters& b = tw.c1;
  Beacon probe;
  probe.node = 7;
  probe.seq = 9;
  probe.payload = 0x1234567890ull;
  probe.checksum = checksum_of(probe);
  const CodecCost codec = probe_codec(probe);

  LayerValues v;
  v.queue_wait_p50_us = queue_wait.pct(0.50) * 1e-3;
  v.queue_wait_p99_us = queue_wait.pct(0.99) * 1e-3;
  v.queue_wait_n = static_cast<int64_t>(queue_wait.size());
  v.tasks_per_msg = ratio(f(b.tasks - a.tasks), msgs);
  v.publish_p50_us = publish.pct(0.50) * 1e-3;
  v.publish_n = static_cast<int64_t>(publish.size());
  v.deliver_p50_us = deliver.pct(0.50) * 1e-3;
  v.deliver_n = static_cast<int64_t>(deliver.size());
  v.control_frames_per_s =
      ratio(f((b.packets_sent - a.packets_sent) - std::min(b.packets_sent - a.packets_sent,
                                                            b.data_frames - a.data_frames)),
            tw.virtual_s);
  v.frames_dropped = f(b.frames_dropped - a.frames_dropped);
  v.frames_send_failed = f(b.frames_send_failed - a.frames_send_failed);
  v.encode_ns = codec.encode_ns;
  v.decode_ns = codec.decode_ns;
  v.frame_seal_ns = probe_frame_seal_ns(codec.encoded_bytes + 16);
  v.arq_frames_per_event = ratio(f(b.arq_frames - a.arq_frames), f(b.arq_messages - a.arq_messages));
  v.arq_retransmits_per_kevent =
      ratio(1000.0 * f(b.arq_retransmits - a.arq_retransmits), f(b.arq_messages - a.arq_messages));
  v.heap_allocs_per_msg = tw.allocs_per_msg;
  v.frame_pool_hit_ratio = ratio(f(b.pool_hits - a.pool_hits), f(b.pool_checkouts - a.pool_checkouts));
  v.frames_sent_per_msg = ratio(f(b.packets_sent - a.packets_sent), msgs);
  v.bytes_sent_per_msg = ratio(f(b.bytes_sent - a.bytes_sent), msgs);
  v.sim_events_per_msg = ratio(f(b.events - a.events), msgs);
  v.sim_wheel_cascades_per_msg = ratio(f(b.cascades - a.cascades), msgs);
  v.sim_fanout_shards_touched_per_msg = ratio(f(b.fanout - a.fanout), msgs);
  v.sim_run_window_us = tw.slice_ns.pct(0.50) * 1e-3;
  v.run_window_n = static_cast<int64_t>(tw.slice_ns.size());
  v.trace_overhead_pct =
      100.0 * ratio(tw.cpu_us_per_msg - plain.cpu_us_per_msg, plain.cpu_us_per_msg);
  v.steal_pct = tw.steal_pct;
  emit_layers(r, v);
  return r;
}

}  // namespace marea::perfbench
