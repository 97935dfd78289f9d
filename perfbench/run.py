#!/usr/bin/env python3
"""Fleet-simulator benchmark entry point.

Builds this package (the simulator libraries from ../src plus
fleet_bench.cpp) under .bench_build/, runs one workload, checks its
outputs, and prints one JSON result line last:

    python3 perfbench/run.py --workload hst_long_route --seed 1 --seconds 45 --trace 0

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json,
--trace 1 the per-layer ones. The line before the result carries the
run's provenance. README.md in this directory documents the workloads
and metrics.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
# fleet_bench must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then (re)build fleet_bench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found at {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "fleet_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    log = BUILD / "build.log"
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                fail(f"build failed: {' '.join(cmd)} (see {log})")
    return BUILD / "fleet_bench"


def git_sha():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scenario-dir", str(ROOT / "scenarios")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"fleet_bench did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"fleet_bench exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    out = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        value = out["metrics"].get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {m['name']} missing or not finite: {value!r}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    provenance = dict(out["provenance"], git_sha=git_sha(),
                      workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace,
                      fingerprint=out["fingerprint"])
    print("provenance: " + json.dumps(provenance))
    print(json.dumps({"correct": bool(out["correct"]),
                      "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
