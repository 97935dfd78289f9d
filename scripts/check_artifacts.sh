#!/usr/bin/env bash
# Byte-identity check of the committed generated artifacts. Regenerates,
# into a temp dir and from the repo root,
#
#   tests/golden/*.json                        (golden_gen, 33 digests)
#   BENCH_CHAOS.json, BENCH_CHAOS_metrics.json (full bench_chaos sweep)
#   BENCH_FLEET.json, BENCH_FLEET_metrics.json (full bench_fleet sweep)
#
# and cmp's each against the committed copy. A behaviour-preserving change
# must leave every one identical; the script exits non-zero naming each
# file that differs (or that only one side has), each DIFFERS line
# followed by the first 20 lines of its `diff -u`, so a CI log shows what
# moved without a rerun. BENCH_FLEET.json's "scenario_dir" line records
# the checkout's absolute path rather than a result, so that one line is
# left out of its comparison and its diff.
#
# The two full sweeps take about 3 minutes, so this stays out of ctest;
# scripts/check_tier1.sh --full runs it.
#
#   scripts/check_artifacts.sh [build_dir]   # default: build/
set -euo pipefail

cd "$(dirname "$0")/.."
root="$(pwd)"
build="${1:-build}"
out="$(mktemp -d)"
trap 'rm -rf "${out}"' EXIT

cmake -B "${build}" -S . >/dev/null
cmake --build "${build}" --target golden_gen bench_chaos bench_fleet \
      -j"$(nproc)" >/dev/null

# run <log name> <command...>: quiet unless the command fails.
run() {
  local log="${out}/$1.log"
  shift
  if ! "$@" >"${log}" 2>&1; then
    tail -n 20 "${log}" >&2
    echo "FAIL: '$*' exited non-zero" >&2
    exit 1
  fi
}

mkdir "${out}/golden"
run golden_gen "${build}/tests/golden_gen" "${out}/golden"
run bench_chaos "${build}/bench/bench_chaos" "${out}/BENCH_CHAOS.json"
run bench_fleet "${build}/bench/bench_fleet" --dir "${root}/scenarios" \
    "${out}/BENCH_FLEET.json"

status=0
# differs <name> <committed> <regenerated>: the DIFFERS line, then the head
# of the unified diff (a missing side reads as /dev/null).
differs() {
  echo "DIFFERS $1"
  diff -u --label "committed/$1" --label "regenerated/$1" "$2" "$3" |
    head -n 20 || true
  status=1
}

for f in tests/golden/*.json; do
  g="${out}/golden/${f##*/}"
  [ -e "${g}" ] || g=/dev/null
  cmp -s "${f}" "${g}" || differs "${f}" "${f}" "${g}"
done
for g in "${out}"/golden/*.json; do
  f="tests/golden/${g##*/}"
  [ -e "${f}" ] || differs "${f}" /dev/null "${g}"
done
for f in BENCH_CHAOS.json BENCH_CHAOS_metrics.json BENCH_FLEET_metrics.json; do
  cmp -s "${f}" "${out}/${f}" || differs "${f}" "${f}" "${out}/${f}"
done
# BENCH_FLEET.json minus its checkout-path line.
fleet_results() { grep -v '^  "scenario_dir": ' "$1"; }
fleet_results BENCH_FLEET.json >"${out}/fleet.committed"
fleet_results "${out}/BENCH_FLEET.json" >"${out}/fleet.regenerated"
cmp -s "${out}/fleet.committed" "${out}/fleet.regenerated" ||
  differs BENCH_FLEET.json "${out}/fleet.committed" "${out}/fleet.regenerated"

[ "${status}" -eq 0 ] || exit 1
echo "check_artifacts: $(ls tests/golden/*.json | wc -l) golden digests" \
     "and 4 BENCH_CHAOS/BENCH_FLEET files byte-identical"
