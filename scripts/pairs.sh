#!/usr/bin/env bash
# Run two trees' serving benchmarks in alternating pairs on one workload and
# summarise the end-to-end metrics. Prints only; it gates nothing.
#
#   scripts/pairs.sh PARENT_TREE CHANGE_TREE WORKLOAD SEED N [OUT_DIR]
#
# Each tree is a checkout whose benchmark binary is already built:
#
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml
#
# Pair i runs `benchmark --workload WORKLOAD --seed SEED --seconds S
# --trace 0` (S is `run_seconds` from the parent's BENCHMARK.json) in each
# tree, the parent first in even pairs and the change first in odd ones, so
# a drift of the host over the session lands on both sides alike. The
# result line (the last stdout line) of every run is appended to
# OUT_DIR/parent.jsonl or OUT_DIR/change.jsonl, the rest of its output to
# OUT_DIR/runs.log; OUT_DIR defaults to a new temporary directory. The first
# run of a tree on a seed also builds that binary's fixture. N = 0 with an
# existing OUT_DIR runs nothing and summarises the lines already there.
#
# The summary gives, per end-to-end metric, each side's median [Q1, Q3], the
# change's median relative to the parent's, and in how many pairs the change
# was strictly better (the metric's `better` direction from BENCHMARK.json)
# and how many tied; then the failed operations and byte checks per side.
set -euo pipefail

if [ $# -lt 5 ] || [ $# -gt 6 ]; then
  echo "usage: $0 PARENT_TREE CHANGE_TREE WORKLOAD SEED N [OUT_DIR]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
seed=$4
pairs=$5
out=${6:-$(mktemp -d)}
mkdir -p "$out"

for tree in "$parent" "$change"; do
  if [ ! -x "$tree/benchmark/target/release/benchmark" ]; then
    echo "$tree: no built benchmark/target/release/benchmark" >&2
    exit 2
  fi
done
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$parent/BENCHMARK.json")

# Run one tree once; append its result line to OUT_DIR/<side>.jsonl.
run() {
  local side=$1 tree=$2 pair=$3 lines
  echo "== pair $pair $side ($workload, seed $seed)" >>"$out/runs.log"
  lines=$(cd "$tree" && ./benchmark/target/release/benchmark --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0 2>>"$out/runs.log") || true
  printf '%s\n' "$lines" >>"$out/runs.log"
  local last
  last=$(printf '%s\n' "$lines" | tail -n 1)
  case $last in
    '{'*) printf '%s\n' "$last" >>"$out/$side.jsonl" ;;
    *) echo "pair $pair $side: no result line (see $out/runs.log)" >&2 ;;
  esac
}

for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    run parent "$parent" "$i"
    run change "$change" "$i"
  else
    run change "$change" "$i"
    run parent "$parent" "$i"
  fi
  echo "pair $((i + 1))/$pairs done" >&2
done

python3 - "$parent/BENCHMARK.json" "$out" "$workload" "$seed" <<'EOF'
import json
import sys

spec_path, out, workload, seed = sys.argv[1:]
spec = json.load(open(spec_path))


def load(side):
    with open(f"{out}/{side}.jsonl") as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    """Median and the two quartiles, by linear interpolation."""
    v = sorted(values)

    def at(q):
        pos = q * (len(v) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (pos - lo)

    return at(0.5), at(0.25), at(0.75)


parent, change = load("parent"), load("change")
paired = min(len(parent), len(change))
print(f"{workload}, seed {seed}: {len(parent)} parent and {len(change)} change results, "
      f"{paired} pairs; result lines in {out}")
print(f"{'metric':<28} {'parent median [Q1, Q3]':>34} {'change median [Q1, Q3]':>34} "
      f"{'change':>8} {'wins':>6}")
for metric in spec["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    a = [r["metrics"][name]["value"] for r in parent]
    b = [r["metrics"][name]["value"] for r in change]
    if not a or not b:
        continue
    (ma, qa1, qa3), (mb, qb1, qb3) = quartiles(a), quartiles(b)
    rel = f"{(mb / ma - 1) * 100:+.1f}%" if ma else "n/a"
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    ties = sum(y == x for x, y in zip(a, b))
    side = lambda m, q1, q3: f"{m:.4g} [{q1:.4g}, {q3:.4g}]"
    print(f"{name:<28} {side(ma, qa1, qa3):>34} {side(mb, qb1, qb3):>34} "
          f"{rel:>8} {f'{wins}/{paired}':>6}" + (f" ({ties} ties)" if ties else ""))
for label, runs in (("parent", parent), ("change", change)):
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    correct = all(r["correct"] for r in runs)
    print(f"{label}: failed {failed} of {attempted} operations, byte check "
          f"{'correct' if correct else 'NOT correct'} in every run: {correct}")
EOF
