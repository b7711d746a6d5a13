#!/usr/bin/env bash
# Alternated parent/change pairs of one benchmark workload — the protocol
# /opt/skills/guides/choosing-metrics §8 asks of a performance claim, and
# the table it asks for.
#
#   scripts/bench-pairs.sh <parent-ref> <workload> [pairs=10] [first-seed=901] [seconds=22]
#
# Builds benchmark/ twice — <parent-ref> from a `git archive` export, the
# change from the working tree as it stands — into target directories under
# ${TMPDIR:-/tmp}/corp-bench-pairs (kept, so the next workload reuses
# them), then runs the contract form
#
#   corp-benchmark --workload W --seed S --seconds N --trace 0
#
# once a side per pair, pair i on seed first-seed + i, the parent first on
# even pairs and the change first on odd ones: this guest's speed drifts
# over minutes, so only runs started back to back compare. A pair whose
# sides disagree on any simulated metric (or on `correct`, or on the share
# of operations that failed) fails the script — they ran the same seed, so
# the change moved a decision. Prints every pair, then per end-to-end metric each side's median
# [q1, q3], the ratio of the medians, how many pairs the change won, and
# whether the medians are further apart than the parent's own quartiles.
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
workload=$2
pairs=${3:-10}
first_seed=${4:-901}
seconds=${5:-22}

sha=$(git rev-parse --verify "$parent_ref^{commit}")
base="${TMPDIR:-/tmp}/corp-bench-pairs"
parent_src="$base/parent-$sha"
mkdir -p "$base/runs"

if [[ ! -d "$parent_src" ]]; then
    echo "==> exporting $parent_ref ($sha) to $parent_src" >&2
    mkdir -p "$parent_src.partial"
    git archive "$sha" | tar -x -C "$parent_src.partial"
    mv "$parent_src.partial" "$parent_src"
fi
build() { # <source dir> <target dir>
    echo "==> building $1/benchmark into $2" >&2
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml)
}
build "$parent_src" "$base/target-$sha"
build "$PWD" "$base/target-change"

run() { # <side> <source dir> <binary> <seed>
    local out="$runs/$1-$4.json"
    (cd "$2" && "$3" --workload "$workload" --seed "$4" --seconds "$seconds" --trace 0) |
        tail -n 1 >"$out"
    echo "    $1 seed $4: $(cat "$out")" >&2
}
runs=$(mktemp -d "$base/runs/$workload.XXXXXX")
for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    echo "==> pair $((i + 1))/$pairs, seed $seed" >&2
    if ((i % 2 == 0)); then
        run parent "$parent_src" "$base/target-$sha/release/corp-benchmark" "$seed"
        run change "$PWD" "$base/target-change/release/corp-benchmark" "$seed"
    else
        run change "$PWD" "$base/target-change/release/corp-benchmark" "$seed"
        run parent "$parent_src" "$base/target-$sha/release/corp-benchmark" "$seed"
    fi
done

python3 - "$runs" "$workload" "$first_seed" "$pairs" <<'EOF'
import json, statistics, sys

runs, workload, first_seed, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
spec = json.load(open("BENCHMARK.json"))["end_to_end"]
# Wall-clock and memory vary run to run; everything else is simulated and
# must repeat exactly for a seed.
MEASURED = {"setup_s", "slots_per_sec", "jobs_per_sec", "decision_ms_p95", "peak_rss_mb"}

def load(side, seed):
    return json.load(open(f"{runs}/{side}-{seed}.json"))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"\n{workload}: {pairs} alternated pairs, seeds {first_seed}-{first_seed + pairs - 1}\n")
print("| seed | first | " + " | ".join(m["name"] for m in spec if m["name"] in MEASURED) + " |")
print("|---|---|" + "---|" * len(MEASURED))
values = {m["name"]: ([], []) for m in spec}
diverged = []
for i in range(pairs):
    seed = first_seed + i
    parent, change = load("parent", seed), load("change", seed)
    # `attempted` is jobs x the repetitions that fit into --seconds, so it
    # differs between sides of different speed; the failed share must not.
    verdict = lambda run: (run["correct"], run["failed"] / run["attempted"])
    if verdict(parent) != verdict(change):
        diverged.append(f"seed {seed}: (correct, failed share) {verdict(parent)} vs {verdict(change)}")
    cells = []
    for m in spec:
        p, c = parent["metrics"][m["name"]]["value"], change["metrics"][m["name"]]["value"]
        values[m["name"]][0].append(p)
        values[m["name"]][1].append(c)
        if m["name"] in MEASURED:
            cells.append(f"{p:.4g} -> {c:.4g} (x{c / p:.3f})")
        elif p != c:
            diverged.append(f"seed {seed}: {m['name']} {p!r} vs {c!r}")
    print(f"| {seed} | {'parent' if i % 2 == 0 else 'change'} | " + " | ".join(cells) + " |")

print("\n| metric | parent median [q1, q3] | change median [q1, q3] | change / parent | change wins | beyond parent IQR |")
print("|---|---|---|---|---|---|")
for m in spec:
    ps, cs = values[m["name"]]
    if m["name"] not in MEASURED:
        print(f"| {m['name']} (simulated) | - | - | identical in each pair | - | - |")
        continue
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(ps), quartiles(cs)
    better = (lambda p, c: c > p) if m["better"] == "higher" else (lambda p, c: c < p)
    wins = sum(better(p, c) for p, c in zip(ps, cs))
    ties = sum(p == c for p, c in zip(ps, cs))
    beyond = abs(cmed - pmed) > pq3 - pq1
    print(f"| {m['name']} ({m['unit']}, {m['better']} is better, bound {m['bound']:.0%}) "
          f"| {pmed:.4g} [{pq1:.4g}, {pq3:.4g}] | {cmed:.4g} [{cq1:.4g}, {cq3:.4g}] "
          f"| x{cmed / pmed:.3f} | {wins}/{pairs}" + (f" ({ties} ties)" if ties else "")
          + f" | {'yes' if beyond else 'no'} (IQR {pq3 - pq1:.4g}) |")

if diverged:
    print("\nFAILED: the sides of a pair ran the same seed and disagree:", *diverged, sep="\n  ")
    sys.exit(1)
EOF
echo "raw runs kept in $runs" >&2
