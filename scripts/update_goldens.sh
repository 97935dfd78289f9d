#!/usr/bin/env bash
# Regenerate the golden-trace regression corpus under tests/golden/.
#
# Run this after an *intentional* behavior change, then review the diff of
# tests/golden/*.json — it documents exactly which statistics moved — and
# commit it together with the change. test_golden_traces fails until the
# committed digests match the code again.
#
# Such a change also moves the benchmark's output fingerprints: the ctest
# perfbench_fingerprint fails until the pins in
# scripts/check_perfbench_fingerprint.sh are refreshed as its header
# describes (one fleet_bench run per workload, copy the fingerprint).
#
#   scripts/update_goldens.sh [build_dir]   # default: build/
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"

cmake -B "${build}" -S . >/dev/null
cmake --build "${build}" --target golden_gen -j"$(nproc)"
"${build}/tests/golden_gen" tests/golden

echo "golden corpus refreshed; review 'git diff tests/golden/' before committing"
