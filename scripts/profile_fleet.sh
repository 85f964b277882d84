#!/usr/bin/env bash
# Profile the fleet bench's hot path (the n256 stage: construct, warmup
# gossip, timed window) with whatever profiler this box actually has:
#
#   1. perf    — `perf record -g` + `perf report` top functions
#   2. gprofng — Oracle's profiler (ships with recent binutils), same
#                role where perf is absent (unprivileged containers).
#                Its report counts only if its samples cover at least
#                half of the run's CPU time: in some VMs the sampling
#                timer fires rarely or never, and a profile of a few
#                dozen samples points at noise.
#   3. gprof   — when neither of the above yields a profile: builds a
#                separate instrumented tree (build-pg, Release with
#                -pg -fno-omit-frame-pointer) and prints the flat
#                profile (`gprof -b -p`) of `bench_fleet --only n256`.
#                Instrumentation counts every call of a non-inlined
#                function exactly, so "self ns/call" needs no working
#                sampling timer; mcount adds overhead to small
#                functions, so compare self times, not total wall.
#   4. none    — fall back to bench_fleet --profile, which prints a
#                chrono phase breakdown (construct / warmup / run) as
#                JSON; coarse, but enough to tell boot cost from
#                steady-state cost.
#
# Usage: scripts/profile_fleet.sh [extra bench_fleet args...]
# The Release build must exist (cmake -B build -DCMAKE_BUILD_TYPE=Release
# && cmake --build build --target bench_fleet). Profiles go to
# $PROFILE_OUT (default /tmp/marea_fleet_profile).
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$(pwd)"

BENCH=build/bench/bench_fleet
if [[ ! -x "$BENCH" ]]; then
  echo "profile_fleet: $BENCH not built (need a Release build)" >&2
  exit 1
fi

OUT="${PROFILE_OUT:-/tmp/marea_fleet_profile}"
mkdir -p "$OUT"

gprof_leg() {
  echo "== gprof (-pg build in build-pg): bench_fleet --only n256 =="
  cmake -B build-pg -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-pg -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-pg" >/dev/null
  cmake --build build-pg -j"$(nproc)" --target bench_fleet \
    >"$OUT/build-pg.log" 2>&1 || { tail -20 "$OUT/build-pg.log"; exit 1; }
  rm -f "$OUT/gmon.out"
  (cd "$OUT" && "$ROOT/build-pg/bench/bench_fleet" --only n256)
  gprof -b -p build-pg/bench/bench_fleet "$OUT/gmon.out" | head -40
  echo "full data: $OUT/gmon.out (gprof -b build-pg/bench/bench_fleet ...)"
}

if command -v perf >/dev/null 2>&1 &&
    perf record -o "$OUT/perf.data" -g -- true >/dev/null 2>&1; then
  echo "== perf record: bench_fleet --profile $* =="
  perf record -o "$OUT/perf.data" -g -- "$BENCH" --profile "$@"
  perf report -i "$OUT/perf.data" --stdio --percent-limit 1 |
    head -60
  echo "full data: $OUT/perf.data (perf report -i ... )"
  exit 0
fi

if command -v gprofng >/dev/null 2>&1; then
  echo "== gprofng collect: bench_fleet --profile $* =="
  rm -rf "$OUT/test.1.er"
  gprofng collect app -o "$OUT/test.1.er" "$BENCH" --profile "$@" |
    tee "$OUT/phases.json"
  # The run is single-threaded, so its phase wall times are its CPU.
  cpu=$(awk -F'[:,]' '/_s"/ { t += $2 } END { print t + 0 }' \
    "$OUT/phases.json")
  report=$(gprofng display text -functions "$OUT/test.1.er")
  sampled=$(awk '/<Total>/ { print $1 + 0; exit }' <<<"$report")
  if awk -v s="${sampled:-0}" -v c="$cpu" 'BEGIN { exit !(s >= c / 2) }'; then
    head -60 <<<"$report"
    echo "full data: $OUT/test.1.er (gprofng display text ... )"
    exit 0
  fi
  echo "gprofng sampled ${sampled:-0} s of ${cpu} s CPU; not a profile"
fi

if command -v gprof >/dev/null 2>&1; then
  gprof_leg
else
  echo "== no perf/gprofng/gprof: chrono phase breakdown only =="
  "$BENCH" --profile "$@"
fi
