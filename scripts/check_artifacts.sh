#!/usr/bin/env bash
# Byte-identity check of the committed generated artifacts. Regenerates,
# into a temp dir and from the repo root,
#
#   tests/golden/*.json                        (golden_gen, 32 digests)
#   BENCH_CHAOS.json, BENCH_CHAOS_metrics.json (full bench_chaos sweep)
#   BENCH_FLEET.json, BENCH_FLEET_metrics.json (full bench_fleet sweep)
#
# and cmp's each against the committed copy. A behaviour-preserving change
# must leave every one identical; the script exits non-zero naming each
# file that differs (or that only one side has). BENCH_FLEET.json's
# "scenario_dir" line records the checkout's absolute path rather than a
# result, so that one line is left out of its comparison.
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

differ=()
for f in tests/golden/*.json; do
  cmp -s "${f}" "${out}/golden/${f##*/}" || differ+=("${f}")
done
for f in "${out}"/golden/*.json; do
  [ -e "tests/golden/${f##*/}" ] || differ+=("tests/golden/${f##*/}")
done
for f in BENCH_CHAOS.json BENCH_CHAOS_metrics.json BENCH_FLEET_metrics.json; do
  cmp -s "${f}" "${out}/${f}" || differ+=("${f}")
done
cmp -s <(grep -v '^  "scenario_dir": ' BENCH_FLEET.json) \
       <(grep -v '^  "scenario_dir": ' "${out}/BENCH_FLEET.json") ||
  differ+=(BENCH_FLEET.json)

if [ "${#differ[@]}" -gt 0 ]; then
  printf 'DIFFERS %s\n' "${differ[@]}"
  exit 1
fi
echo "check_artifacts: $(ls tests/golden/*.json | wc -l) golden digests" \
     "and 4 BENCH_CHAOS/BENCH_FLEET files byte-identical"
