#include <algorithm>

#include "workloads.h"

namespace marea::perfbench {

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

void Windows::add(double p50, int64_t n, double cpu, int64_t delivered) {
  p50_us.push_back(p50);
  p50_n.push_back(n);
  cpu_us_per_msg.push_back(cpu);
  deliveries.push_back(delivered);
}

void Windows::report(Result& r, const std::string& what) const {
  int64_t least = deliveries.empty() ? 0 : deliveries[0];
  for (size_t k = 0; k < p50_us.size(); ++k) {
    const std::string w = "window" + std::to_string(k) + ".";
    r.detail(w + what, p50_us[k], "us", p50_n[k]);
    r.detail(w + "cpu_us_per_msg", cpu_us_per_msg[k], "us", deliveries[k]);
    least = std::min(least, std::min(p50_n[k], deliveries[k]));
  }
  if (least <= 0) r.fail_check("a measured window delivered nothing");
  auto total = [](const std::vector<int64_t>& v) {
    int64_t t = 0;
    for (int64_t x : v) t += x;
    return t;
  };
  r.e2e("p50_us", median_of(p50_us), "us", total(p50_n));
  r.e2e("cpu_us_per_msg", median_of(cpu_us_per_msg), "us", total(deliveries));
}

void emit_layers(Result& r, const LayerValues& v) {
  r.layer("sched.queue_wait_p50_us", v.queue_wait_p50_us, "us", v.queue_wait_n);
  r.layer("sched.queue_wait_p99_us", v.queue_wait_p99_us, "us", v.queue_wait_n);
  r.layer("sched.tasks_per_msg", v.tasks_per_msg, "count");
  r.layer("middleware.publish_p50_us", v.publish_p50_us, "us", v.publish_n);
  r.layer("middleware.deliver_p50_us", v.deliver_p50_us, "us", v.deliver_n);
  r.layer("middleware.control_frames_per_s", v.control_frames_per_s, "1/s");
  r.layer("middleware.frames_dropped", v.frames_dropped, "count");
  r.layer("middleware.frames_send_failed", v.frames_send_failed, "count");
  r.layer("encoding.encode_ns", v.encode_ns, "ns");
  r.layer("encoding.decode_ns", v.decode_ns, "ns");
  r.layer("protocol.frame_seal_ns", v.frame_seal_ns, "ns");
  r.layer("protocol.arq_frames_per_event", v.arq_frames_per_event, "count");
  r.layer("protocol.arq_retransmits_per_kevent", v.arq_retransmits_per_kevent, "count");
  r.layer("util.heap_allocs_per_msg", v.heap_allocs_per_msg, "count");
  r.layer("util.frame_pool_hit_ratio", v.frame_pool_hit_ratio, "ratio");
  r.layer("transport.frames_sent_per_msg", v.frames_sent_per_msg, "count");
  r.layer("transport.bytes_sent_per_msg", v.bytes_sent_per_msg, "B");
  r.layer("transport.frames_per_recv_batch", v.frames_per_recv_batch, "count");
  r.layer("transport.uring_cqe_per_frame", v.uring_cqe_per_frame, "count");
  r.layer("transport.oneway_p50_us", v.oneway_p50_us, "us", v.oneway_n);
  r.layer("sim.events_per_msg", v.sim_events_per_msg, "count");
  r.layer("sim.wheel_cascades_per_msg", v.sim_wheel_cascades_per_msg, "count");
  r.layer("sim.fanout_shards_touched_per_msg", v.sim_fanout_shards_touched_per_msg, "count");
  r.layer("sim.run_window_us", v.sim_run_window_us, "us", v.run_window_n);
  r.layer("obs.trace_overhead_pct", v.trace_overhead_pct, "%");
  r.layer("gen.late_p99_us", v.gen_late_p99_us, "us", v.late_n);
  r.layer("host.steal_pct", v.steal_pct, "%");
}

}  // namespace marea::perfbench
