#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints, build, and the full test
# suite. Run before every push.
#
#   scripts/check.sh              # the standard gate: examples, unsafe, serde, size,
#                                 # fmt, clippy, doc, release build, tests, then
#                                 # the serve, resilience, scale and bench
#                                 # smokes, then portable
#   scripts/check.sh examples     # grep only, no build: fails when an
#                                 # examples/*.rs file is not the `path` of
#                                 # some crate's `[[example]]`, or when a
#                                 # `cargo run --release --example NAME`
#                                 # line in README.md names no registered
#                                 # example
#   scripts/check.sh unsafe       # grep only, no build: fails when a
#                                 # crates/*/src/lib.rs other than corp-pool's
#                                 # lacks `#![forbid(unsafe_code)]`, or when
#                                 # corp-pool's source uses the `unsafe`
#                                 # keyword outside comments more than once
#                                 # (its one block, the pool's lifetime
#                                 # erasure)
#   scripts/check.sh serde        # grep only, no build: fails when
#                                 # `Deserialize` or a `#[serde(` attribute
#                                 # appears under crates/, vendor/, tests/
#                                 # or examples/, or when a
#                                 # `#[derive(...Serialize...)]` stands on a
#                                 # type outside REPORT_TYPES below (the 16
#                                 # types a SimulationReport, ServeReport or
#                                 # FigureTable carries: serialization is
#                                 # for reports only)
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
#   scripts/check.sh portable     # the numerics at the baseline x86-64
#                                 # target: builds with RUSTFLAGS="-C
#                                 # target-cpu=x86-64" (no AVX2, no FMA)
#                                 # into its own target directory
#                                 # (target/portable) and runs
#                                 # tests/experiment_shapes.rs, figure and
#                                 # serve goldens included, then the
#                                 # corp-dnn and corp-core tests. It pins
#                                 # that the DNN kernels' bits do not
#                                 # depend on the x86-64-v3 level
#                                 # .cargo/config.toml selects. Timing
#                                 # trap: that file applies only to cargo
#                                 # run from the repo root (or below), so
#                                 # a benchmark built from elsewhere
#                                 # silently drops x86-64-v3 — same
#                                 # digests, forecast about 4x slower
#   scripts/check.sh doc          # rustdoc gate only: every public item
#                                 # documented, no broken intra-doc links
#   scripts/check.sh reach        # advisory, always exits 0: prints
#                                 # `crate::name` for each name a crate's
#                                 # lib.rs (or a `pub mod` of it)
#                                 # re-exports, and `crate::Type::method`
#                                 # for each `pub fn` method in its src/,
#                                 # that no .rs file outside the crate's
#                                 # src/ mentions (its own tests/ and
#                                 # src/bin/ count as outside). A hit is a
#                                 # type a public signature reaches (kept
#                                 # by the `unnameable_types` lint) or a
#                                 # candidate for deletion or `pub(crate)`.
#                                 # Name matching misses methods whose name
#                                 # another type's method shares: narrowing
#                                 # and rebuilding is the sure test
#   scripts/check.sh deps         # advisory, grep only, always exits 0:
#                                 # prints `crate: dep` for every
#                                 # `[dependencies]` line of crates/*/Cargo.toml
#                                 # whose name (`-` read as `_`) the crate's
#                                 # source outside test modules never
#                                 # mentions — a candidate to delete or to
#                                 # move to `[dev-dependencies]` (either may
#                                 # rewrite a lockfile)
#   scripts/check.sh size         # no build, writes nothing: per crate and
#                                 # in total, the lines of `crates/*/src`
#                                 # (`*.rs` and one directory down) and the
#                                 # part of them outside test modules (each
#                                 # file up to its last `#[cfg(test)]`), and
#                                 # the bytes of DESIGN.md and EXPERIMENTS.md;
#                                 # fails when any of them is above its
#                                 # ceiling in scripts/size-ceilings.txt
#                                 # (part of the default gate). Lowering a
#                                 # ceiling is free; raising one needs a
#                                 # CHANGES.md line, in the change that
#                                 # raises it, giving the reason
#   scripts/check.sh mutants      # advisory, not part of the gate: copies
#                                 # the files git tracks (and untracked
#                                 # ones it does not ignore) to
#                                 # target/mutants/tree, then for each line
#                                 # of tests/mutants/manifest.txt applies
#                                 # NAME.patch there, runs the line's
#                                 # command with one shared
#                                 # CARGO_TARGET_DIR (target/mutants/target)
#                                 # and reverts the patch. Prints `killed`
#                                 # (the command failed), `survived` (it
#                                 # passed), `broken` (it failed because
#                                 # the patched copy does not compile: its
#                                 # log shows `could not compile` or
#                                 # `error[E`) or `stale` (the patch no
#                                 # longer applies) per mutant, each
#                                 # command's output in
#                                 # target/mutants/NAME.log; exits non-zero
#                                 # on a survivor, a broken or a stale patch
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
# mismatch). To see which layer moved, `scripts/bench-layers.sh
# <parent-ref> <workload> [rounds=5] [seed=11] [kernels=0]` alternates
# traced runs of both sides on one seed and prints each layer's median for
# the parent, the change and their ratio; it exits non-zero if a `count`
# layer differs. `kernels` 1 adds the layers only the benchmark's kernel
# pass measures (`dnn.pretrain_s`, `dnn.forward_ns`, `predict.job_ns`,
# `coordinator.unsharded_provision_s`, ...).
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

unsafe_gate() {
    echo "==> #![forbid(unsafe_code)] in every crate but corp-pool, one \`unsafe\` in corp-pool"
    local lib uses failed=0
    for lib in crates/*/src/lib.rs; do
        [[ $lib == crates/corp-pool/src/lib.rs ]] && continue
        grep -qxF '#![forbid(unsafe_code)]' "$lib" || { echo "no #![forbid(unsafe_code)]: $lib"; failed=1; }
    done
    # Comment text is dropped first: the SAFETY argument may say `unsafe`.
    uses=$(find crates/corp-pool/src -name '*.rs' -exec sed 's|//.*||' {} + | grep -ow 'unsafe' | wc -l)
    if ((uses > 1)); then
        echo "corp-pool uses \`unsafe\` $uses times; it keeps one block"
        failed=1
    fi
    if ((failed)); then
        exit 1
    fi
    echo "Unsafe gate passed."
}

# The types a report carries: the only ones that may derive `Serialize`.
REPORT_TYPES="SimulationReport ControlPlaneStats ShardStats BreakerTransition BreakerStateName
FaultStats ServeReport LatencySummary QueueStats SloStats BrownoutSummary BrownoutTransition
BrownoutLevel BrownoutTrigger FigureTable TextTable"

serde_gate() {
    echo "==> no Deserialize, no #[serde(...)], Serialize derived on report types only"
    local dirs=(crates vendor tests examples) hits name failed=0
    hits=$(grep -rn --include='*.rs' -e 'Deserialize' -e '#\[serde(' "${dirs[@]}" || true)
    if [[ -n $hits ]]; then
        echo "$hits"
        failed=1
    fi
    # The name of the struct or enum under each `#[derive(...)]` that lists
    # `Serialize` (the attribute may span lines).
    while read -r name; do
        grep -qw "$name" <<<"$REPORT_TYPES" || { echo "Serialize derived on a non-report type: $name"; failed=1; }
    done < <(find "${dirs[@]}" -name '*.rs' -exec awk '
        /^[ \t]*#\[derive\(/ { attr = ""; open = 1 }
        open { attr = attr $0; if (/\)\]/) { open = 0; want = attr ~ /[(, :]Serialize[,) ]/ } next }
        want && /^[ \t]*(pub[^ \t]*[ \t]+)?(struct|enum)[ \t]/ {
            sub(/^[ \t]*(pub[^ \t]*[ \t]+)?(struct|enum)[ \t]+/, ""); sub(/[^A-Za-z0-9_].*/, ""); print; want = 0
        }' {} +)
    if ((failed)); then
        exit 1
    fi
    echo "Serde gate passed."
}

if [[ "${1:-}" == "serde" ]]; then
    serde_gate
    exit 0
fi

if [[ "${1:-}" == "examples" ]]; then
    examples_gate
    exit 0
fi

if [[ "${1:-}" == "unsafe" ]]; then
    unsafe_gate
    exit 0
fi

if [[ "${1:-}" == "doc" ]]; then
    doc_gate
    echo "Doc gate passed."
    exit 0
fi

if [[ "${1:-}" == "reach" ]]; then
    for lib in crates/*/src/lib.rs; do
        src=${lib%/lib.rs}
        crate=$(basename "${src%/src}")
        mapfile -t outside < <(find crates benchmark/src examples tests -name '*.rs' \
            \( -path "$src/bin/*" -o -not -path "$src/*" \))
        mentioned() { grep -qw "$1" "${outside[@]}"; }
        # The API lists: lib.rs and the `mod.rs` of each `pub mod` it declares.
        mapfile -t api < <(echo "$lib"; sed -n 's/^pub mod \([a-z_]*\);/\1/p' "$lib" |
            while read -r m; do ls "$src/$m.rs" "$src/$m/mod.rs" 2>/dev/null; done)
        cat "${api[@]}" | tr '\n' ' ' | { grep -o 'pub use [^;]*;' || true; } |
            sed -E 's/pub use ([a-z_]+::)*//; s/[{},;]/ /g' | tr -s ' ' '\n' | sort -u |
            while read -r name; do
                [[ -z "$name" ]] || mentioned "$name" || echo "$crate::$name"
            done
        # `Type method` for each indented `pub fn` under the impl block it sits in.
        find "$src" -name '*.rs' -not -path "$src/bin/*" -exec awk '
            /^impl/ { t = $0; sub(/^impl */, "", t)
                if (t ~ /^</) { d = 0; for (i = 1; i <= length(t); i++) { c = substr(t, i, 1)
                    d += (c == "<") - (c == ">"); if (!d) break }; t = substr(t, i + 1) }
                sub(/^ */, "", t); sub(/[^A-Za-z0-9_].*/, "", t) }
            /^[ \t]+pub fn / { f = $0; sub(/.*pub fn /, "", f); sub(/[^A-Za-z0-9_].*/, "", f); print t, f }' {} + |
            sort -u | while read -r type method; do
                mentioned "$method" || echo "$crate::$type::$method"
            done
    done
    exit 0
fi

if [[ "${1:-}" == "deps" ]]; then
    for manifest in crates/*/Cargo.toml; do
        dir=${manifest%/Cargo.toml}
        # The crate's source outside test modules: each file up to its last
        # `#[cfg(test)]`, as `size` counts it.
        source=$(find "$dir/src" -name '*.rs' -exec awk '
            function flush(   i) { for (i = 1; i <= (cut ? cut - 1 : n); i++) print line[i]; n = cut = 0 }
            FNR == 1 && NR > 1 { flush() }
            { line[++n] = $0 }
            /^#\[cfg\(test\)\]/ { cut = FNR }
            END { flush() }' {} +)
        awk '/^\[/ { deps = ($0 == "[dependencies]") }
            deps && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' "$manifest" |
            while read -r dep; do
                grep -qw "${dep//-/_}" <<<"$source" || echo "$(basename "$dir"): $dep"
            done
    done
    exit 0
fi

size_gate() {
    shopt -s nullglob
    size_of() { # name files...: all lines, and lines up to each file's last `#[cfg(test)]`
        awk -v name="$1" 'FNR == 1 { n += cut ? cut : len; cut = 0 }
            /^#\[cfg\(test\)\]/ { cut = FNR } { len = FNR }
            END { print NR, n + (cut ? cut : len), name }' "${@:2}"
    }
    local over=0 lines measured name ceiling
    echo "==> size against scripts/size-ceilings.txt"
    printf '%7s %13s %9s  %s\n' lines outside-tests ceiling crate
    while read -r lines measured name; do
        ceiling=$(awk -v name="$name" '$1 == name { print $2 }' scripts/size-ceilings.txt)
        printf '%7s %13s %9s  %s\n' "$lines" "$measured" "${ceiling:-none}" "$name"
        if [[ -z $ceiling ]] || ((measured > ceiling)); then
            echo "size: $name is $measured, above its ceiling (${ceiling:-none})" >&2
            over=1
        fi
    done < <(
        for d in crates/*/; do
            size_of "$(basename "$d")" "$d"src/*.rs "$d"src/*/*.rs
        done
        size_of total crates/*/src/*.rs crates/*/src/*/*.rs
        for doc in DESIGN.md EXPERIMENTS.md; do
            echo "bytes $(wc -c <"$doc") $doc"
        done
    )
    return "$over"
}

if [[ "${1:-}" == "size" ]]; then
    size_gate
    exit 0
fi

mutants() {
    local dir=$PWD/target/mutants name cmd failed=0
    local tree=$dir/tree
    rm -rf "$tree"
    mkdir -p "$tree"
    git ls-files -z --cached --others --exclude-standard |
        tar --null -T - --ignore-failed-read -cf - | tar -xf - -C "$tree"
    while IFS=$'\t' read -r name cmd; do
        [[ -z $name || $name == \#* ]] && continue
        local patch=$PWD/tests/mutants/$name.patch
        if ! (cd "$tree" && patch -p1 -s -f --dry-run <"$patch" >/dev/null); then
            echo "stale     $name"
            failed=1
            continue
        fi
        (cd "$tree" && patch -p1 -s <"$patch")
        if (cd "$tree" && CARGO_TARGET_DIR=$dir/target bash -c "$cmd") >"$dir/$name.log" 2>&1; then
            echo "survived  $name ($cmd)"
            failed=1
        elif grep -qE 'could not compile|error\[E' "$dir/$name.log"; then
            echo "broken    $name"
            failed=1
        else
            echo "killed    $name"
        fi
        (cd "$tree" && patch -p1 -s -R <"$patch")
    done <tests/mutants/manifest.txt
    return "$failed"
}

if [[ "${1:-}" == "mutants" ]]; then
    mutants
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

portable() {
    # RUSTFLAGS takes precedence over .cargo/config.toml's rustflags; its
    # own target directory keeps the default build's artifacts intact.
    local env=(env RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/portable)
    echo "==> RUSTFLAGS='-C target-cpu=x86-64' cargo test -p corp-bench --test experiment_shapes"
    "${env[@]}" cargo test -q -p corp-bench --test experiment_shapes
    echo "==> RUSTFLAGS='-C target-cpu=x86-64' cargo test -p corp-dnn -p corp-core"
    "${env[@]}" cargo test -q -p corp-dnn -p corp-core
    echo "Portable gate passed."
}

if [[ "${1:-}" == "portable" ]]; then
    portable
    exit 0
fi

examples_gate

unsafe_gate

serde_gate

size_gate

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

portable

echo "All checks passed."
