#!/usr/bin/env bash
# Behaviour pin for the declared benchmark (BENCHMARK.json, perfbench/):
# one short pass of each workload must report "correct": true and the
# pinned output fingerprint (FNV-1a over every fleet run's digest, so any
# change to a simulated result moves it). ctest runs this as
# `perfbench_fingerprint` (label golden) with the root build's
# build/perfbench/fleet_bench:
#
#   scripts/check_perfbench_fingerprint.sh <fleet_bench> <scenario_dir>
#
# Refreshing the pins after an intentional behaviour change (the same
# occasion as scripts/update_goldens.sh): run
#   build/perfbench/fleet_bench --workload <name> --seed 1 --seconds 1 \
#     --trace 0 --scenario-dir scenarios
# for each workload below, check that its last line says "correct": true,
# and copy its "fingerprint" into `pins`.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <fleet_bench> <scenario_dir>" >&2
  exit 2
fi
fleet_bench="$1"
scenario_dir="$2"

declare -A pins=(
  [hst_long_route]=be98e592ad660427
  [scenario_sweep]=7cc449e78fb00fa0
)

status=0
for workload in hst_long_route scenario_sweep; do
  if ! out="$("${fleet_bench}" --workload "${workload}" --seed 1 \
                --seconds 1 --trace 0 --scenario-dir "${scenario_dir}")"; then
    echo "FAIL ${workload}: fleet_bench exited non-zero"
    status=1
    continue
  fi
  result="$(tail -n 1 <<<"${out}")"
  fingerprint="$(grep -o '"fingerprint": "[0-9a-f]*"' <<<"${result}" |
                 cut -d'"' -f4 || true)"
  if ! grep -q '"correct": true' <<<"${result}"; then
    echo "FAIL ${workload}: result is not correct"
    echo "${out}"
    status=1
  elif [ "${fingerprint}" != "${pins[${workload}]}" ]; then
    echo "FAIL ${workload}: fingerprint '${fingerprint}'," \
         "pinned ${pins[${workload}]}"
    status=1
  else
    echo "ok ${workload} ${fingerprint}"
  fi
done
exit "${status}"
