#!/usr/bin/env bash
# The pre-commit loop: configure, build, and run the tier-1 test suite
# plus the documentation lint (check_docs.sh, ctest label `docs`), the
# perf smoke (`bench_perf --smoke`, label `perf`: shrunk FFT/SFFT timings
# and the run_route bit-identity gates), the fleet
# determinism layer (label `fleet`: multi-UE engine pinned against the
# single-UE simulator and across thread counts), and the golden corpus
# replay (label `golden`, a few seconds: any digest drift fails here) —
# the fast checks every change must keep green (ROADMAP.md).
#
#   scripts/check_tier1.sh              # tier1 + docs + perf + fleet +
#                                       # golden
#   scripts/check_tier1.sh --all        # every ctest label (slow/chaos/
#                                       # golden included)
#   scripts/check_tier1.sh --full       # --all plus the sanitizer chaos
#                                       # soak (scripts/check_soak.sh) and
#                                       # the ~3 min byte-identity check of
#                                       # the goldens and BENCH_CHAOS/
#                                       # BENCH_FLEET JSONs
#                                       # (scripts/check_artifacts.sh)
#   scripts/check_tier1.sh --scenarios  # also smoke-compile every
#                                       # scenarios/*.json and run the
#                                       # shortest end to end under the
#                                       # invariant checker
#                                       # (bench_fleet --validate)
#
# Any further arguments are forwarded to ctest. Uses the default build/
# tree; pass a different one via BUILD_DIR. The tree is configured with
# CMAKE_COMPILE_WARNING_AS_ERROR, so the build stays at zero warnings: a
# new one fails it. CMake reads that variable from 3.24 on and an older
# one ignores it without a word, so the script refuses to run under one.
set -euo pipefail

cd "$(dirname "$0")/.."
build="${BUILD_DIR:-build}"

cmake_version="$(cmake --version | sed -n '1s/^cmake version \([0-9.]*\).*/\1/p')"
if ! printf '3.24\n%s\n' "${cmake_version}" | sort -V -C; then
  echo "check_tier1: CMake ${cmake_version:-of unknown version} ignores" \
       "CMAKE_COMPILE_WARNING_AS_ERROR; this gate needs CMake >= 3.24" >&2
  exit 1
fi

ctest_args=(-L 'tier1|docs|perf|fleet|golden')
full=0
scenarios=0
if [ "${1:-}" = "--all" ]; then
  ctest_args=()
  shift
elif [ "${1:-}" = "--full" ]; then
  ctest_args=()
  full=1
  shift
elif [ "${1:-}" = "--scenarios" ]; then
  scenarios=1
  shift
fi
ctest_args+=("$@")

cmake -B "${build}" -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build "${build}" -j"$(nproc)"
ctest --test-dir "${build}" --output-on-failure -j"$(nproc)" \
      "${ctest_args[@]+"${ctest_args[@]}"}"

if [ "${full}" = 1 ]; then
  scripts/check_soak.sh
  scripts/check_artifacts.sh "${build}"
fi

if [ "${scenarios}" = 1 ]; then
  # Compile every library scenario at its authored parameters and run the
  # shortest one end to end (invariant checkers attached, gates enforced).
  "${build}/bench/bench_fleet" --validate
fi
