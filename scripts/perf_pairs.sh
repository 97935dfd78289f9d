#!/usr/bin/env bash
# Paired benchmark comparison of two commits: builds each through
# perfbench's own CMake package (perfbench/run.py) from a `git archive`
# export, then runs N alternating base/head pairs per workload on fresh
# seeds, one seed per pair, so machine drift biases neither side. Prints,
# per workload and end-to-end metric, each side's median and quartiles,
# the head/base ratio of the medians, the pairs head won (by the metric's
# `better` direction in BENCHMARK.json; ties count for neither), and
# whether every seed's fingerprints agree between the two commits.
#
#   scripts/perf_pairs.sh <base> [<head>] [--pairs N] [--seconds S]
#                         [--first-seed K]
#
#   <head>          defaults to HEAD; any commit-ish works (for uncommitted
#                   tracked changes, pass "$(git stash create)")
#   --pairs N       pairs per workload (default 10, at least 8)
#   --seconds S     run length (default: BENCHMARK.json's run_seconds)
#   --first-seed K  pair i runs seed K + i (default 101)
#
# Every workload in BENCHMARK.json runs, since a gain on one must come
# with no regression on the others. Every run's result line goes to
# stdout as it lands. Exits non-zero if any run reports "correct": false
# or fails to produce a result. Build trees live in a temporary directory
# under ${TMPDIR:-/tmp}, removed on exit.
#
# Last, it prints one tab-separated row per workload and end-to-end metric
# in PERF_TRAJECTORY.tsv's columns: head and base sha, workload, metric,
# head/base median ratio, head wins/pairs, seeds whose fingerprints agree
# over pairs, and the source (this script, its seeds and run length). A
# perf change appends its claim run's rows to that file.
set -euo pipefail

cd "$(dirname "$0")/.."
repo="$(pwd)"

usage() {
  sed -n '11,18p' "$0" >&2
  exit 2
}

base=""
head=""
pairs=10
seconds=""
first_seed=101
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs="${2:?}"; shift 2 ;;
    --seconds) seconds="${2:?}"; shift 2 ;;
    --first-seed) first_seed="${2:?}"; shift 2 ;;
    -*) echo "perf_pairs: unknown option $1" >&2; usage ;;
    *)
      if [ -z "${base}" ]; then base="$1"
      elif [ -z "${head}" ]; then head="$1"
      else echo "perf_pairs: unexpected argument $1" >&2; usage
      fi
      shift ;;
  esac
done
[ -n "${base}" ] || usage
head="${head:-HEAD}"
if ! [[ "${pairs}" =~ ^[0-9]+$ ]] || [ "${pairs}" -lt 8 ]; then
  echo "perf_pairs: --pairs must be an integer >= 8" >&2
  exit 2
fi
if ! [[ "${first_seed}" =~ ^[0-9]+$ ]]; then
  echo "perf_pairs: --first-seed must be a non-negative integer" >&2
  exit 2
fi
base_sha="$(git rev-parse --verify "${base}^{commit}")"
head_sha="$(git rev-parse --verify "${head}^{commit}")"

spec="${repo}/BENCHMARK.json"
if [ -z "${seconds}" ]; then
  seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "${spec}")"
fi
mapfile -t workloads < <(python3 -c 'import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]: print(w["name"])' "${spec}")

work="$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")"
trap 'rm -rf "${work}"' EXIT

# Export and build each side once; run.py reuses the configured tree.
for side in base head; do
  sha="${side}_sha"
  dir="${work}/${side}"
  mkdir -p "${dir}"
  git archive "${!sha}" | tar -x -C "${dir}"
  echo "perf_pairs: building ${side} ${!sha}" >&2
  if ! { cmake -S "${dir}/perfbench" -B "${dir}/.bench_build/perfbench" \
           -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
         cmake --build "${dir}/.bench_build/perfbench" --target fleet_bench \
           -j "$(nproc)"; } >"${work}/${side}_build.log" 2>&1; then
    tail -n 30 "${work}/${side}_build.log" >&2
    echo "perf_pairs: ${side} build failed" >&2
    exit 1
  fi
done

results="${work}/results.jsonl"
: >"${results}"
run_one() {  # side workload seed
  local side="$1" workload="$2" seed="$3" out
  out="$(python3 "${work}/${side}/perfbench/run.py" --workload "${workload}" \
           --seed "${seed}" --seconds "${seconds}" --trace 0)" || {
    echo "perf_pairs: ${side} ${workload} seed ${seed} failed" >&2
    return 1
  }
  python3 - "${side}" "${workload}" "${seed}" "${out}" >>"${results}" <<'EOF'
import json, sys
side, workload, seed, out = sys.argv[1:]
lines = out.rstrip("\n").split("\n")
prov = next(l for l in lines if l.startswith("provenance: "))
res = json.loads(lines[-1])
res.update(side=side, workload=workload, seed=int(seed),
           fingerprint=json.loads(prov[len("provenance: "):])["fingerprint"])
print(json.dumps(res))
EOF
  tail -n 1 "${results}"
}

status=0
for workload in "${workloads[@]}"; do
  for ((i = 0; i < pairs; ++i)); do
    seed=$((first_seed + i))
    if [ $((i % 2)) -eq 0 ]; then order=(base head); else order=(head base); fi
    for side in "${order[@]}"; do
      run_one "${side}" "${workload}" "${seed}" || status=1
    done
  done
done

python3 - "${spec}" "${results}" "${base_sha}" "${head_sha}" "${seconds}" <<'EOF' || status=1
import json, statistics, sys
spec_path, results_path, base_sha, head_sha, seconds = sys.argv[1:]
spec = json.load(open(spec_path))
runs = [json.loads(l) for l in open(results_path) if l.strip()]

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, q2, q3

print(f"\nbase {base_sha}\nhead {head_sha}")
bad = [r for r in runs if not r["correct"]]
rows = []
for workload in dict.fromkeys(r["workload"] for r in runs):
    by = {(r["side"], r["seed"]): r for r in runs if r["workload"] == workload}
    seeds = sorted({s for _, s in by})
    paired = [s for s in seeds if ("base", s) in by and ("head", s) in by]
    same = sum(by[("base", s)]["fingerprint"] == by[("head", s)]["fingerprint"]
               for s in paired)
    failed = {side: sum(by[k]["failed"] for k in by if k[0] == side)
              for side in ("base", "head")}
    print(f"\n{workload}: {len(paired)} pairs (seeds {paired[0]}-{paired[-1]}), "
          f"fingerprints equal on {same}/{len(paired)} seeds, failed runs "
          f"base {failed['base']} head {failed['head']}")
    print(f"  {'metric':<16} {'base median [Q1-Q3]':>30} "
          f"{'head median [Q1-Q3]':>30} {'ratio':>7} {'wins':>6}")
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        b = [by[("base", s)]["metrics"][name]["value"] for s in paired]
        h = [by[("head", s)]["metrics"][name]["value"] for s in paired]
        wins = sum((y > x) if higher else (y < x) for x, y in zip(b, h))
        bq, hq = quartiles(b), quartiles(h)
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}-{q[2]:.4g}]"
        print(f"  {name:<16} {fmt(bq):>30} {fmt(hq):>30} "
              f"{hq[1] / bq[1]:>7.3f} {wins:>3}/{len(paired)}")
        rows.append([head_sha[:12], base_sha[:12], workload, name,
                     f"{hq[1] / bq[1]:.3f}", f"{wins}/{len(paired)}",
                     f"{same}/{len(paired)}",
                     f"perf_pairs, seeds {paired[0]}-{paired[-1]}, {seconds} s"])
print("\ntrajectory rows (PERF_TRAJECTORY.tsv):")
for row in rows:
    print("\t".join(row))
for r in bad:
    print(f"NOT CORRECT: {r['side']} {r['workload']} seed {r['seed']}")
sys.exit(1 if bad else 0)
EOF
exit "${status}"
