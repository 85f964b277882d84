// The three benchmark workloads. Each builds its inputs from the seed,
// measures for the requested wall seconds, checks every output and fills
// a Result (end-to-end metrics always; per-layer metrics in traced runs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace marea::perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dump_dir;  // where traced runs write their span dump
};

Result run_telemetry(const RunOptions& opts);
Result run_mission(const RunOptions& opts);
Result run_fleet_sim(const RunOptions& opts);

// Median of a small vector (copied).
double median_of(std::vector<double> v);

// Every run measures kWindows consecutive windows and gates on the median
// window: a burst of host interference (steal, noisy neighbours) that
// inflates one or two windows leaves the median on the program's typical
// behaviour, and a change in the code moves every window.
constexpr int kWindows = 5;

struct Windows {
  std::vector<double> p50_us, cpu_us_per_msg;
  std::vector<int64_t> p50_n, deliveries;

  void add(double p50, int64_t n, double cpu, int64_t delivered);
  // The gated p50_us and cpu_us_per_msg (median over windows), plus one
  // printed line per window under `what` (e.g. "var_p50_us"). A window
  // that delivered nothing fails the run's output check.
  void report(Result& r, const std::string& what) const;
};

// Every per-layer metric, in the order BENCHMARK.json lists them. A layer
// a workload does not touch reads 0 (e.g. sim.* on the live workloads).
// The MFTP metrics only `mission` can move are added by mission itself.
struct LayerValues {
  double queue_wait_p50_us = 0, queue_wait_p99_us = 0;
  int64_t queue_wait_n = -1;
  double tasks_per_msg = 0;
  double publish_p50_us = 0;
  int64_t publish_n = -1;
  double deliver_p50_us = 0;
  int64_t deliver_n = -1;
  double control_frames_per_s = 0, frames_dropped = 0, frames_send_failed = 0;
  double encode_ns = 0, decode_ns = 0, frame_seal_ns = 0;
  double arq_frames_per_event = 0, arq_retransmits_per_kevent = 0;
  double heap_allocs_per_msg = 0, frame_pool_hit_ratio = 0;
  double frames_sent_per_msg = 0, bytes_sent_per_msg = 0;
  double frames_per_recv_batch = 0, uring_cqe_per_frame = 0;
  double oneway_p50_us = 0;
  int64_t oneway_n = -1;
  double sim_events_per_msg = 0, sim_wheel_cascades_per_msg = 0;
  double sim_fanout_shards_touched_per_msg = 0, sim_run_window_us = 0;
  int64_t run_window_n = -1;
  double trace_overhead_pct = 0;
  double gen_late_p99_us = 0;
  int64_t late_n = -1;
  double steal_pct = 0;
};
void emit_layers(Result& r, const LayerValues& v);

}  // namespace marea::perfbench
