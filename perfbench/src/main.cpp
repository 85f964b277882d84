// perfbench: end-to-end benchmark of the marea container stack.
//
//   perfbench --workload telemetry|mission|fleet_sim --seed N
//             --seconds S --trace 0|1 [--dump-dir DIR]
//
// Prints every metric by name with its unit (and sample count), then one
// JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set; with --trace 1 the per-layer set of
// a traced run, whose span dump goes to DIR. Exits 1 when an output check
// fails, 2 on bad usage or when the stack cannot run.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "util/logging.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload telemetry|mission|fleet_sim "
               "--seed N --seconds S --trace 0|1 [--dump-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace marea::perfbench;
  RunOptions opts;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opts.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      opts.trace = v == "1";
    } else if (k == "--dump-dir") {
      opts.dump_dir = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || workload.empty() || !(opts.seconds > 0)) return usage();
  marea::set_log_level(marea::LogLevel::kError);

  Result r;
  try {
    if (workload == "telemetry") {
      r = run_telemetry(opts);
    } else if (workload == "mission") {
      r = run_mission(opts);
    } else if (workload == "fleet_sim") {
      r = run_fleet_sim(opts);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  print_result(r, opts.trace);
  return r.correct ? 0 : 1;
}
