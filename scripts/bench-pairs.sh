#!/usr/bin/env bash
# Alternated parent/change pairs of benchmark workloads — the protocol
# /opt/skills/guides/choosing-metrics §8 asks of a performance claim, and
# the tables it asks for.
#
#   scripts/bench-pairs.sh <parent-ref> <workload>[,<workload>...]|all [pairs=10] [first-seed=901] [seconds=22]
#
# Builds benchmark/ twice, once for the whole invocation — <parent-ref>
# from a `git archive` export, the change from the working tree as it
# stands — into target directories under ${TMPDIR:-/tmp}/corp-bench-pairs
# (kept, so the next invocation reuses them; scripts/bench-sides.sh), then
# for each workload named
# (`all`: every workload in BENCHMARK.json, in its order) runs the
# contract form
#
#   corp-benchmark --workload W --seed S --seconds N --trace 0
#
# once a side per pair, pair i on seed first-seed + i, the parent first on
# even pairs and the change first on odd ones: this guest's speed drifts
# over minutes, so only runs started back to back compare. A pair whose
# sides disagree on any simulated metric (or on `correct`, or on the share
# of operations that failed) fails the script — they ran the same seed, so
# the change moved a decision. Prints, per workload, every pair, then per
# end-to-end metric each side's median [q1, q3], the ratio of the medians,
# how many pairs the change won, and whether the medians are further apart
# than the parent's own quartiles; and last, one summary line per workload
# and end-to-end metric: `better` (the §8 rule for a gain: change wins at
# least nine tenths of the pairs and the medians are further apart than the
# parent's quartiles), `worse` (change's median worse than the parent's by
# more than the metric's BENCHMARK.json bound) or `same`.
#
# It edits nothing under benchmark/, writes nothing into the repo, and
# registers no worktree: `git status` is as clean after as before.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 ]]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
parent_ref=$1
pairs=${3:-10}
first_seed=${4:-901}
seconds=${5:-22}
source scripts/bench-sides.sh
pick_workloads "$2"
build_sides "$parent_ref"
mkdir -p "$base/runs"

run() { # <side> <source dir> <binary> <workload> <seed>
    local out="$runs/$4/$1-$5.json"
    (cd "$2" && "$3" --workload "$4" --seed "$5" --seconds "$seconds" --trace 0) |
        tail -n 1 >"$out"
    echo "    $1 seed $5: $(cat "$out")" >&2
}
runs=$(mktemp -d "$base/runs/pairs.XXXXXX")
for workload in $workloads; do
    mkdir "$runs/$workload"
    for ((i = 0; i < pairs; i++)); do
        seed=$((first_seed + i))
        echo "==> $workload: pair $((i + 1))/$pairs, seed $seed" >&2
        if ((i % 2 == 0)); then
            run parent "$parent_src" "$parent_bin" "$workload" "$seed"
            run change "$PWD" "$change_bin" "$workload" "$seed"
        else
            run change "$PWD" "$change_bin" "$workload" "$seed"
            run parent "$parent_src" "$parent_bin" "$workload" "$seed"
        fi
    done
done

# shellcheck disable=SC2086
python3 - "$runs" "$first_seed" "$pairs" $workloads <<'EOF'
import json, statistics, sys

runs, first_seed, pairs, workloads = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
spec = json.load(open("BENCHMARK.json"))["end_to_end"]
# Wall-clock and memory vary run to run; everything else is simulated and
# must repeat exactly for a seed.
MEASURED = {"setup_s", "slots_per_sec", "jobs_per_sec", "decision_ms_p95", "peak_rss_mb"}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

diverged, summary = [], []
for workload in workloads:
    def load(side, seed):
        return json.load(open(f"{runs}/{workload}/{side}-{seed}.json"))

    print(f"\n{workload}: {pairs} alternated pairs, seeds {first_seed}-{first_seed + pairs - 1}\n")
    print("| seed | first | " + " | ".join(m["name"] for m in spec if m["name"] in MEASURED) + " |")
    print("|---|---|" + "---|" * len(MEASURED))
    values = {m["name"]: ([], []) for m in spec}
    for i in range(pairs):
        seed = first_seed + i
        parent, change = load("parent", seed), load("change", seed)
        # `attempted` is jobs x the repetitions that fit into --seconds, so it
        # differs between sides of different speed; the failed share must not.
        verdict = lambda run: (run["correct"], run["failed"] / run["attempted"])
        if verdict(parent) != verdict(change):
            diverged.append(f"{workload} seed {seed}: (correct, failed share) {verdict(parent)} vs {verdict(change)}")
        cells = []
        for m in spec:
            p, c = parent["metrics"][m["name"]]["value"], change["metrics"][m["name"]]["value"]
            values[m["name"]][0].append(p)
            values[m["name"]][1].append(c)
            if m["name"] in MEASURED:
                cells.append(f"{p:.4g} -> {c:.4g} (x{c / p:.3f})")
            elif p != c:
                diverged.append(f"{workload} seed {seed}: {m['name']} {p!r} vs {c!r}")
        print(f"| {seed} | {'parent' if i % 2 == 0 else 'change'} | " + " | ".join(cells) + " |")

    print("\n| metric | parent median [q1, q3] | change median [q1, q3] | change / parent | change wins | beyond parent IQR |")
    print("|---|---|---|---|---|---|")
    for m in spec:
        ps, cs = values[m["name"]]
        if m["name"] not in MEASURED:
            print(f"| {m['name']} (simulated) | - | - | identical in each pair | - | - |")
            same = all(p == c for p, c in zip(ps, cs))
            summary.append(f"{workload} {m['name']}: {'same (simulated, identical in each pair)' if same else 'DIVERGED'}")
            continue
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(ps), quartiles(cs)
        higher = m["better"] == "higher"
        better = (lambda p, c: c > p) if higher else (lambda p, c: c < p)
        wins = sum(better(p, c) for p, c in zip(ps, cs))
        ties = sum(p == c for p, c in zip(ps, cs))
        beyond = abs(cmed - pmed) > pq3 - pq1
        print(f"| {m['name']} ({m['unit']}, {m['better']} is better, bound {m['bound']:.0%}) "
              f"| {pmed:.4g} [{pq1:.4g}, {pq3:.4g}] | {cmed:.4g} [{cq1:.4g}, {cq3:.4g}] "
              f"| x{cmed / pmed:.3f} | {wins}/{pairs}" + (f" ({ties} ties)" if ties else "")
              + f" | {'yes' if beyond else 'no'} (IQR {pq3 - pq1:.4g}) |")
        # Loss relative to the parent's median, positive when the change is worse.
        loss = (pmed - cmed) / pmed if higher else (cmed - pmed) / pmed
        if loss > m["bound"]:
            word = "worse"
        elif better(pmed, cmed) and beyond and wins * 10 >= 9 * (pairs - ties):
            word = "better"
        else:
            word = "same"
        summary.append(f"{workload} {m['name']}: {word} (x{cmed / pmed:.3f}, change wins {wins}/{pairs}, "
                       f"bound {m['bound']:.0%}, parent IQR {(pq3 - pq1) / pmed:.1%} of its median)")

print("\nsummary (change against parent, per workload and end-to-end metric):")
for line in summary:
    print("  " + line)
if diverged:
    print("\nFAILED: the sides of a pair ran the same seed and disagree:", *diverged, sep="\n  ")
    sys.exit(1)
EOF
echo "raw runs kept in $runs" >&2
