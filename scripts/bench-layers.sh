#!/usr/bin/env bash
# The per-layer breakdown of one workload, parent against change: which
# layer a change made faster or slower, and proof it did the same work.
#
#   scripts/bench-layers.sh <parent-ref> <workload> [rounds=5] [seed=11] [kernels=0]
#
# Builds benchmark/ for <parent-ref> and for the working tree as
# scripts/bench-pairs.sh does (the same export and target directories,
# reused; scripts/bench-sides.sh), then runs `rounds` traced repetitions a
# side, all on the one seed,
#
#   corp-benchmark child --workload W --seed S --trace 1 --kernels K
#
# alternating which side goes first (the parent on even rounds), since
# this guest's speed drifts over minutes. Prints one row per layer the runs
# report, in BENCHMARK.json's per_layer order after the repetition's own
# `run_s`: the parent's median, the change's median and their ratio
# (change / parent). A `count` layer is work done, not time: it must repeat
# exactly between runs and sides, and the script exits 1, after printing
# the table, if any differs. `kernels` 1 adds the layers only the kernel
# pass measures (`dnn.pretrain_s`, `dnn.forward_ns`, `predict.job_ns`,
# `coordinator.unsharded_provision_s`, ...) and lengthens each run. It
# edits nothing under benchmark/ and writes nothing into the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $2 == all || $2 == *,* ]]; then
    sed -n '5p' "$0" >&2
    exit 2
fi
rounds=${3:-5}
seed=${4:-11}
kernels=${5:-0}
if [[ $kernels != [01] ]]; then
    sed -n '5p' "$0" >&2
    exit 2
fi
source scripts/bench-sides.sh
pick_workloads "$2"
build_sides "$1"
mkdir -p "$base/runs"
runs=$(mktemp -d "$base/runs/layers.XXXXXX")

run() { # <side> <source dir> <binary> <round>
    local out="$runs/$1-$4.json"
    (cd "$2" && "$3" child --workload "$workloads" --seed "$seed" --trace 1 --kernels "$kernels") |
        tail -n 1 >"$out"
    echo "    $1 round $4: run_s $(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_s"])' "$out")" >&2
}
for ((i = 0; i < rounds; i++)); do
    echo "==> $workloads: round $((i + 1))/$rounds, seed $seed" >&2
    if ((i % 2 == 0)); then
        run parent "$parent_src" "$parent_bin" "$i"
        run change "$PWD" "$change_bin" "$i"
    else
        run change "$PWD" "$change_bin" "$i"
        run parent "$parent_src" "$parent_bin" "$i"
    fi
done

python3 - "$runs" "$rounds" "$workloads" "$seed" <<'EOF'
import json, statistics, sys

runs, rounds, workload, seed = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
spec = json.load(open("BENCHMARK.json"))["per_layer"]
units = {"run_s": "s", **{layer["name"]: layer["unit"] for layer in spec}}
sides = {}
for side in ("parent", "change"):
    sides[side] = []
    for i in range(rounds):
        line = json.load(open(f"{runs}/{side}-{i}.json"))
        sides[side].append({"run_s": line["run_s"], **line["layers"]})
names = [n for n in units if any(n in run for runs_ in sides.values() for run in runs_)]

print(f"{workload}, seed {seed}: {rounds} traced runs a side, median per layer")
print(f"{'layer':<36} {'unit':<6} {'parent':>14} {'change':>14} {'ratio':>7}")
differing = []
for name in names:
    values = {side: [run.get(name, 0.0) for run in sides[side]] for side in sides}
    parent, change = (statistics.median(values[side]) for side in ("parent", "change"))
    ratio = f"{change / parent:7.3f}" if parent else "      -"
    mark = ""
    if units[name] == "count" and len(set(values["parent"] + values["change"])) > 1:
        differing.append(name)
        mark = "  DIFFERS"
    print(f"{name:<36} {units[name]:<6} {parent:>14.6g} {change:>14.6g} {ratio}{mark}")
if differing:
    print(f"FAILED: count layer(s) differ: {', '.join(differing)}", file=sys.stderr)
    sys.exit(1)
EOF
