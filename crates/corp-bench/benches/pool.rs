//! Pool-vs-scoped runtime microbenchmark backing DESIGN.md §11's numbers:
//! the same prediction-shaped workload fanned through [`PredictRuntime`]
//! in its two execution modes.
//!
//! * `scoped_fresh_scratch` — the pre-pool path: scoped threads (serial on
//!   a single-core host) and a fresh `init()` scratch every window.
//! * `pooled_persistent_scratch` — the default path: the window's tasks
//!   run through thread-owned scratch (the caller's and, above width 1,
//!   the workers') that is reset, not reallocated, between windows.
//! * `pooled_width2_channels` — the pooled path with the width pinned to
//!   2, pricing the worker wake-up and done message the inline width-1
//!   path avoids.
//!
//! The workload per task mirrors the predictor hot loop: fill a series
//! buffer, run an activation pass over it, reduce. All three arms compute
//! identical results; only allocation and dispatch differ.

use corp_core::pipeline::{per_task, PredictRuntime, RuntimeMode};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// Stand-in for the predictor's per-worker state: buffers that a fresh
/// scratch must allocate and a persistent scratch only refills.
struct Scratch {
    series: Vec<f64>,
    activations: Vec<f64>,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            series: Vec::new(),
            activations: Vec::new(),
        }
    }
}

/// One prediction-shaped task: build a 96-sample series, run a sigmoid
/// pass, reduce. Buffers are fully overwritten before every read, so
/// scratch reuse cannot change the value — the same contract the real
/// predictor scratch upholds.
fn predict_like(task: u64, s: &mut Scratch) -> f64 {
    s.series.clear();
    s.series
        .extend((0..96u64).map(|k| (((task * 7 + k) as f64) * 0.13).sin()));
    s.activations.clear();
    s.activations
        .extend(s.series.iter().map(|x| 1.0 / (1.0 + (-x).exp())));
    s.activations.iter().sum()
}

fn run_window(rt: &mut PredictRuntime, tasks: &[u64]) -> f64 {
    let (results, _) = rt.fan_out(
        black_box(tasks),
        16,
        0.0f64,
        Scratch::new,
        per_task(|&t, s: &mut Scratch| predict_like(t, s)),
        |_| (),
    );
    results.iter().sum()
}

fn bench_pool_vs_scoped(c: &mut Criterion) {
    let tasks: Vec<u64> = (0..256).collect();
    let mut group = c.benchmark_group("predict_runtime_256tasks");
    group.bench_function("scoped_fresh_scratch", |b| {
        let mut rt = PredictRuntime::new(RuntimeMode::Scoped, true);
        b.iter(|| run_window(&mut rt, &tasks))
    });
    group.bench_function("pooled_persistent_scratch", |b| {
        let mut rt = PredictRuntime::new(RuntimeMode::Pooled, true);
        b.iter(|| run_window(&mut rt, &tasks))
    });
    group.bench_function("pooled_width2_channels", |b| {
        let mut rt = PredictRuntime::new(RuntimeMode::Pooled, true);
        rt.set_width(Some(2));
        b.iter(|| run_window(&mut rt, &tasks))
    });
    group.finish();
}

criterion_group!(benches, bench_pool_vs_scoped);
criterion_main!(benches);
