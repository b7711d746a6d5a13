# Sourced by scripts/bench-pairs.sh and scripts/bench-digests.sh, from the
# repo root: the two sides of a parent/change comparison of benchmark/.
#
#   pick_workloads <workload>[,<workload>...]|all   sets `workloads`
#   build_sides <parent-ref>                        sets `base`, `sha`,
#       `parent_src`, `parent_bin`, `change_bin`
#
# build_sides exports <parent-ref> with `git archive` (no worktree) and
# builds benchmark/ for it and for the working tree as it stands, into
# target directories under ${TMPDIR:-/tmp}/corp-bench-pairs that are kept,
# so the next invocation of either script reuses them.

pick_workloads() {
    local known workload
    known=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
    if [[ $1 == all ]]; then
        workloads=$known
        return
    fi
    workloads=${1//,/ }
    for workload in $workloads; do
        if [[ " $known " != *" $workload "* ]]; then
            echo "unknown workload '$workload' (BENCHMARK.json has: $known)" >&2
            exit 2
        fi
    done
}

build_benchmark() { # <source dir> <target dir>
    echo "==> building $1/benchmark into $2" >&2
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml)
}

build_sides() {
    sha=$(git rev-parse --verify "$1^{commit}")
    base="${TMPDIR:-/tmp}/corp-bench-pairs"
    parent_src="$base/parent-$sha"
    if [[ ! -d "$parent_src" ]]; then
        echo "==> exporting $1 ($sha) to $parent_src" >&2
        mkdir -p "$parent_src.partial"
        git archive "$sha" | tar -x -C "$parent_src.partial"
        mv "$parent_src.partial" "$parent_src"
    fi
    build_benchmark "$parent_src" "$base/target-$sha"
    build_benchmark "$PWD" "$base/target-change"
    parent_bin="$base/target-$sha/release/corp-benchmark"
    change_bin="$base/target-change/release/corp-benchmark"
}
