#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints, build, and the full test
# suite. Run before every push.
#
#   scripts/check.sh              # the standard gate: examples, fmt, clippy,
#                                 # doc, release build, tests, then the
#                                 # serve, resilience, scale and bench smokes
#   scripts/check.sh examples     # grep only, no build: fails when an
#                                 # examples/*.rs file is not the `path` of
#                                 # some crate's `[[example]]`, or when a
#                                 # `cargo run --release --example NAME`
#                                 # line in README.md names no registered
#                                 # example
#   scripts/check.sh chaos-soak   # heavy fault-injection soak (release,
#                                 # end-to-end chaos runs; see
#                                 # crates/corp-faults/tests/soak.rs)
#   scripts/check.sh serve-smoke  # serving-mode smoke: a short trace
#                                 # replay through the corp-serve daemon
#                                 # that must measure non-empty placement-
#                                 # latency percentiles and shed nothing
#                                 # at low load (--smoke asserts both)
#   scripts/check.sh resilience-smoke
#                                 # chaos-serve smoke: the daemon under
#                                 # combined control-plane faults and
#                                 # arrival storms; --smoke asserts a
#                                 # byte-identical full replay, the
#                                 # zero-jobs-lost conservation law, and
#                                 # a complete breaker trip/recover cycle
#   scripts/check.sh scale-smoke  # streaming-soak smoke: a 5k-job synthetic
#                                 # stream through the reclaiming arena
#                                 # engine; --smoke asserts job conservation
#                                 # and that the arena high-water mark stays
#                                 # far below the trace length (memory
#                                 # bounded by concurrent jobs)
#   scripts/check.sh bench-smoke  # the benchmark crate (benchmark/, its own
#                                 # workspace, path-depends on crates/*): its
#                                 # unit tests, then `run --quick` (1/20 of
#                                 # the jobs, ~10 s) — compiles it against
#                                 # the current public APIs and runs its
#                                 # correctness checks (job conservation,
#                                 # digest repeatability, no invalid
#                                 # actions) on all five workloads; the
#                                 # timings it prints mean nothing
#   scripts/check.sh doc          # rustdoc gate only: every public item
#                                 # documented, no broken intra-doc links
#   scripts/check.sh reach        # advisory, not part of the gate: prints
#                                 # `crate::name` for every name a crate's
#                                 # lib.rs re-exports that no .rs file
#                                 # outside that crate's own src/ and tests/
#                                 # mentions (its src/bin/ counts as
#                                 # outside). A hit is a candidate for
#                                 # deletion or `pub(crate)`, to be
#                                 # confirmed with the compiler; always
#                                 # exits 0
#   scripts/check.sh size         # advisory, writes nothing: per crate and
#                                 # in total, the lines of `crates/*/src`
#                                 # (`*.rs` and one directory down) and the
#                                 # part of them outside test modules (each
#                                 # file up to its last `#[cfg(test)]`) — the
#                                 # number ROADMAP's code-diet budget is in
#   scripts/check.sh libm         # advisory, not part of the gate: the
#                                 # sigmoid's in-crate `exp` (corp-dnn's
#                                 # exp.rs, a port of glibc's) against libm's
#                                 # on 10^9 random inputs, in release;
#                                 # prints the mismatch count, exits non-zero
#                                 # on any. Meaningful on glibc >= 2.28 with
#                                 # FMA hardware, the host the pinned digests
#                                 # come from
#
# The serve / resilience / scale smoke modes are bare `corp-exp ... --smoke`
# calls whose own assertions set the exit code; no mode writes a file
# into the repo, so the standard gate leaves `git status` clean. Performance is measured by
# `benchmark/` (see BENCHMARK.json), never here; to compare a change with
# its parent use `scripts/bench-pairs.sh <parent-ref> <workload>`
# (alternated parent/change pairs of the unchanged benchmark, built outside
# the repo — see its header), and to check that it left every decision
# bit-identical `scripts/bench-digests.sh <parent-ref> all` (one digest
# line per workload and seed, parent → change; exits non-zero on any
# mismatch).
set -euo pipefail
cd "$(dirname "$0")/.."

doc_gate() {
    # Only the repo's own crates: the vendored stand-ins under vendor/
    # track upstream API shapes, not our documentation posture.
    local own_crates=()
    for d in crates/*/; do
        own_crates+=(-p "$(basename "$d")")
    done
    echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --no-deps ${own_crates[*]}"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${own_crates[@]}"
}

example_field() { # the `$1` value of every `[[example]]` table in crates/*/Cargo.toml
    awk -v key="$1" '/^\[/ { ex = ($0 == "[[example]]") }
        ex && $1 == key { gsub(/"/, "", $3); print $3 }' crates/*/Cargo.toml
}

examples_gate() {
    echo "==> examples/*.rs and README.md's \`--example\` lines against the [[example]] tables"
    local names files f name failed=0
    names=$(example_field name)
    files=$(example_field path | sed 's|.*/||')
    for f in examples/*.rs; do
        grep -qxF "$(basename "$f")" <<<"$files" || { echo "not an [[example]] path: $f"; failed=1; }
    done
    for name in $(grep -o 'cargo run --release --example [A-Za-z0-9_-]*' README.md | awk '{ print $NF }'); do
        grep -qxF "$name" <<<"$names" || { echo "README.md runs an unregistered example: $name"; failed=1; }
    done
    if ((failed)); then
        exit 1
    fi
    echo "Examples gate passed."
}

if [[ "${1:-}" == "examples" ]]; then
    examples_gate
    exit 0
fi

if [[ "${1:-}" == "doc" ]]; then
    doc_gate
    echo "Doc gate passed."
    exit 0
fi

if [[ "${1:-}" == "reach" ]]; then
    for lib in crates/*/src/lib.rs; do
        crate=$(basename "${lib%/src/lib.rs}")
        mapfile -t outside < <(find crates benchmark/src examples tests -name '*.rs' \
            \( -path "crates/$crate/src/bin/*" -o -not -path "crates/$crate/*" \))
        tr '\n' ' ' <"$lib" | { grep -o 'pub use [^;]*;' || true; } |
            sed -E 's/pub use [a-z_:]*//; s/[{},;]/ /g' | tr -s ' ' '\n' | sort -u |
            while read -r name; do
                [[ -z "$name" ]] || grep -qw "$name" "${outside[@]}" || echo "$crate::$name"
            done
    done
    exit 0
fi

if [[ "${1:-}" == "size" ]]; then
    shopt -s nullglob
    size_of() { # name files...: all lines, and lines up to each file's last `#[cfg(test)]`
        awk -v name="$1" 'FNR == 1 { n += cut ? cut : len; cut = 0 }
            /^#\[cfg\(test\)\]/ { cut = FNR } { len = FNR }
            END { printf "%7d %13d  %s\n", NR, n + (cut ? cut : len), name }' "${@:2}"
    }
    printf '%7s %13s  %s\n' lines outside-tests crate
    for d in crates/*/; do
        size_of "$(basename "$d")" "$d"src/*.rs "$d"src/*/*.rs
    done
    size_of total crates/*/src/*.rs crates/*/src/*/*.rs
    exit 0
fi

if [[ "${1:-}" == "libm" ]]; then
    echo "==> cargo test -p corp-dnn --release --lib -- --ignored --nocapture exp_matches_libm_on_a_billion_random_inputs"
    cargo test -p corp-dnn --release --lib -- --ignored --nocapture exp_matches_libm_on_a_billion_random_inputs
    exit 0
fi

if [[ "${1:-}" == "chaos-soak" ]]; then
    echo "==> cargo test -p corp-faults --release -- --ignored soak"
    cargo test -p corp-faults --release -- --ignored soak
    echo "Chaos soak passed."
    exit 0
fi

serve_smoke() {
    echo "==> cargo run --release -p corp-bench --bin corp-exp -- serve --fast --jobs 60 --speed inf --seed 7 --smoke"
    cargo run --release -p corp-bench --bin corp-exp -- serve --fast --jobs 60 --speed inf --seed 7 --smoke
    echo "Serve smoke passed."
}

if [[ "${1:-}" == "serve-smoke" ]]; then
    serve_smoke
    exit 0
fi

resilience_smoke() {
    echo "==> cargo run --release -p corp-bench --bin corp-exp -- resilience --fast --smoke"
    cargo run --release -p corp-bench --bin corp-exp -- resilience --fast --smoke
    echo "Resilience smoke passed."
}

if [[ "${1:-}" == "resilience-smoke" ]]; then
    resilience_smoke
    exit 0
fi

scale_smoke() {
    echo "==> cargo run --release -p corp-bench --bin corp-exp -- scale --smoke"
    cargo run --release -p corp-bench --bin corp-exp -- scale --smoke
    echo "Scale smoke passed."
}

if [[ "${1:-}" == "scale-smoke" ]]; then
    scale_smoke
    exit 0
fi

bench_smoke() {
    # Nothing in the workspace compiles benchmark/, so an API change under
    # crates/ can break it unseen. The quick record goes to a scratch file
    # (the default, benchmark/results/latest.json, is for real runs).
    echo "==> cargo test --offline --manifest-path benchmark/Cargo.toml"
    cargo test --offline --manifest-path benchmark/Cargo.toml
    local out
    out=$(mktemp)
    echo "==> cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --quick --out $out"
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --quick --out "$out"
    rm -f "$out"
    echo "Bench smoke passed."
}

if [[ "${1:-}" == "bench-smoke" ]]; then
    bench_smoke
    exit 0
fi

examples_gate

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

doc_gate

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

serve_smoke

resilience_smoke

scale_smoke

bench_smoke

echo "All checks passed."
