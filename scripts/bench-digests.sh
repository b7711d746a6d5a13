#!/usr/bin/env bash
# Report digests of the parent and the change, workload by workload and
# seed by seed: the check that a change left every decision bit-identical.
#
#   scripts/bench-digests.sh <parent-ref> <workload>[,<workload>...]|all [seeds=6] [first-seed=11]
#
# Builds benchmark/ for <parent-ref> and for the working tree as
# scripts/bench-pairs.sh does (the same export and target directories,
# reused; scripts/bench-sides.sh), then for each workload named (`all`:
# every workload in BENCHMARK.json) and each seed runs one repetition,
#
#   corp-benchmark child --workload W --seed S --trace 0 --kernels 0
#
# on both sides and prints one `W seed S: digest <parent> → <change>` line.
# Exits 1 if any pair of digests differs, after printing every line.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 ]]; then
    sed -n '5p' "$0" >&2
    exit 2
fi
seeds=${3:-6}
first_seed=${4:-11}
source scripts/bench-sides.sh
pick_workloads "$2"
build_sides "$1"

digest() { # <source dir> <binary> <workload> <seed>
    (cd "$1" && "$2" child --workload "$3" --seed "$4" --trace 0 --kernels 0) |
        tail -n 1 | python3 -c 'import json, sys; print(json.load(sys.stdin)["digest"])'
}
mismatches=0
for workload in $workloads; do
    for ((seed = first_seed; seed < first_seed + seeds; seed++)); do
        parent=$(digest "$parent_src" "$parent_bin" "$workload" "$seed")
        change=$(digest "$PWD" "$change_bin" "$workload" "$seed")
        if [[ $parent == "$change" ]]; then
            echo "$workload seed $seed: digest $parent → $change"
        else
            echo "$workload seed $seed: digest $parent → $change  MISMATCH"
            mismatches=$((mismatches + 1))
        fi
    done
done
if ((mismatches > 0)); then
    echo "FAILED: $mismatches digest(s) differ" >&2
    exit 1
fi
