#!/usr/bin/env bash
# Lines of code in src/, per PEPt layer (paper §6: presentation,
# encoding, protocol, transport) plus the container, scheduler and the
# substrates the reproduction carries. "lines" counts every physical
# line of the .h/.cpp files; "code" drops blank lines and lines that
# hold only a // comment.
#
# Usage: scripts/loc_census.sh [REV]
#   no REV: census of the working tree, plus test and ctest counts
#   REV:    census of the working tree beside that of git revision REV,
#           with the per-layer delta (e.g. REV=HEAD~1 for one change)
set -euo pipefail
cd "$(dirname "$0")/.."

# layer|directories under src/
LAYERS=(
  "presentation+encoding|encoding"
  "protocol (framing, ARQ, MFTP)|protocol"
  "transport (epoll, uring, sim port)|transport"
  "scheduler|sched"
  "container (middleware)|middleware"
  "observability|obs"
  "services + marea-node|services tools"
  "substrates (simulator, fdm, memfs)|sim fdm memfs"
  "util|util"
  "baseline models|baseline"
)

# Files of one src/ directory, in the working tree or at $1.
files_of() {
  local rev=$1 dir=$2
  if [[ -z "$rev" ]]; then
    find "src/$dir" -type f \( -name '*.h' -o -name '*.cpp' \) 2>/dev/null
  else
    git ls-tree -r --name-only "$rev" -- "src/$dir" | grep -E '\.(h|cpp)$' ||
      true
  fi
}

# "lines code" for one layer's directories.
count() {
  local rev=$1
  shift
  local dir f
  for dir in "$@"; do
    for f in $(files_of "$rev" "$dir"); do
      if [[ -z "$rev" ]]; then cat "$f"; else git show "$rev:$f"; fi
    done
  done | awk '{ n++ } !/^[[:space:]]*(\/\/.*)?$/ { c++ }
              END { printf "%d %d\n", n, c }'
}

REV="${1:-}"
if [[ -n "$REV" ]]; then
  printf "%-35s %8s %8s %8s %8s %7s\n" layer "lines@" "lines" "code@" "code" \
    "delta"
else
  printf "%-35s %8s %8s\n" layer lines code
fi
tl=0 tc=0 bl=0 bc=0
for entry in "${LAYERS[@]}"; do
  name=${entry%%|*}
  read -r -a dirs <<<"${entry#*|}"
  read -r l c <<<"$(count "" "${dirs[@]}")"
  tl=$((tl + l)) tc=$((tc + c))
  if [[ -n "$REV" ]]; then
    read -r ol oc <<<"$(count "$REV" "${dirs[@]}")"
    bl=$((bl + ol)) bc=$((bc + oc))
    printf "%-35s %8d %8d %8d %8d %+7d\n" "$name" "$ol" "$l" "$oc" "$c" \
      $((l - ol))
  else
    printf "%-35s %8d %8d\n" "$name" "$l" "$c"
  fi
done
if [[ -n "$REV" ]]; then
  printf "%-35s %8d %8d %8d %8d %+7d\n" "total src/" "$bl" "$tl" "$bc" "$tc" \
    $((tl - bl))
  echo "(@ = at $REV; delta = physical lines)"
  exit 0
fi
printf "%-35s %8d %8d\n" "total src/" "$tl" "$tc"

suites=$(find tests -maxdepth 1 -name '*_test.cpp' | wc -l)
macros=$(cat tests/*.cpp | grep -cE '^(TEST|TEST_F|TEST_P)\(' || true)
echo "tests: $suites suites, $macros TEST/TEST_F/TEST_P definitions"
if [[ -f build/CTestTestfile.cmake ]]; then
  ctest --test-dir build -N |
    awk '/^Total Tests:/ { print "ctest: " $3 " tests (build/)" }'
fi
