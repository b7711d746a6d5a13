//! Hot-path microbenchmarks backing DESIGN.md §9's numbers:
//!
//! * DNN pretraining through the three kernel tiers — the legacy
//!   per-sample reference kernels, the fused per-sample kernels
//!   (bit-identical to the reference), and the blocked minibatch kernels
//!   (the throughput tier; the acceptance bar is >= 2x over per-sample).
//!   Epoch counts are pinned (patience can never trigger) so every tier
//!   does the same number of dataset passes.
//! * Best-fit placement over a large fleet — the incremental
//!   [`VolumeIndex`] against the linear Eq. 22 scan it replaces, under
//!   per-slot churn (each iteration updates one VM's pool, then answers
//!   one placement query, exactly the scheduler's steady-state rhythm).

use corp_core::{most_matched_vm, VolumeIndex};
use corp_dnn::{Activation, BatchScratch, Network, TrainConfig, Trainer};
use corp_sim::ResourceVector;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// Synthetic unused-resource sliding windows: smooth bounded oscillation,
/// the shape the window predictor actually trains on.
fn pretrain_dataset(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut inputs = Vec::with_capacity(n);
    let mut targets = Vec::with_capacity(n);
    for i in 0..n {
        let x: Vec<f64> = (0..12)
            .map(|k| 0.5 + 0.4 * (((i * 13 + k * 7) as f64) * 0.37).sin())
            .collect();
        let y = x.iter().sum::<f64>() / 12.0;
        inputs.push(x);
        targets.push(vec![y]);
    }
    (inputs, targets)
}

/// Fixed-epoch training config (patience exceeds the epoch cap, so every
/// kernel tier runs exactly `max_epochs` passes).
fn pinned_epochs(reference_kernels: bool) -> TrainConfig {
    TrainConfig {
        max_epochs: 8,
        patience: 9,
        reference_kernels,
        ..TrainConfig::default()
    }
}

fn bench_dnn_pretrain(c: &mut Criterion) {
    let (inputs, targets) = pretrain_dataset(256);
    // The paper's predictor architecture: 12-sample window in, 4 hidden
    // layers of 50 units, scalar prediction out.
    let net = || {
        Network::new(
            &[12, 50, 50, 50, 50, 1],
            Activation::Sigmoid,
            Activation::Identity,
            7,
        )
    };
    let mut group = c.benchmark_group("dnn_pretrain");
    group.sample_size(20);
    group.bench_function("per_sample_reference", |b| {
        b.iter(|| {
            let mut n = net();
            Trainer::new(pinned_epochs(true))
                .train(&mut n, black_box(&inputs), &targets)
                .final_validation_mse
        })
    });
    group.bench_function("per_sample_fused", |b| {
        b.iter(|| {
            let mut n = net();
            Trainer::new(pinned_epochs(false))
                .train(&mut n, black_box(&inputs), &targets)
                .final_validation_mse
        })
    });
    // The throughput tier: wide batches keep >= 16 independent f64 lanes in
    // flight, hiding FMA latency the per-sample dot products are bound by.
    group.bench_function("minibatched_fused", |b| {
        b.iter(|| {
            let mut n = net();
            let mut scratch = BatchScratch::new();
            Trainer::new(TrainConfig {
                batch_size: 64,
                ..pinned_epochs(false)
            })
            .train_minibatched(&mut n, black_box(&inputs), &targets, &mut scratch)
            .final_validation_mse
        })
    });
    group.finish();
}

/// Deterministic churn value for VM `vm` at slot `step`, shaped like a
/// loaded fleet (CORP's target regime): 7 of 8 VMs are nearly full
/// (headroom components below 1), one in 8 has real room. Components are
/// quantized so exact volume ties — the index's tie-break case — occur.
fn churn_value(vm: usize, step: usize) -> ResourceVector {
    let q = |m: usize| ((vm * 37 + step * 53 + m) % 8) as f64 / 8.0;
    if vm % 8 == 0 {
        ResourceVector::new([1.0 + 7.0 * q(0), 1.0 + 7.0 * q(11), 1.0 + 7.0 * q(29)])
    } else {
        ResourceVector::new([q(0), q(11), q(29)])
    }
}

fn bench_best_fit(c: &mut Criterion) {
    const VMS: usize = 1024;
    let reference = ResourceVector::splat(8.0);
    let demand = ResourceVector::splat(1.0);
    let pools: Vec<ResourceVector> = (0..VMS).map(|vm| churn_value(vm, 0)).collect();
    let mut group = c.benchmark_group("best_fit_1024vms");
    group.bench_function("linear_scan", |b| {
        let mut pools = pools.clone();
        let mut step = 0usize;
        b.iter(|| {
            step = step.wrapping_add(1);
            let vm = step % VMS;
            pools[vm] = churn_value(vm, step);
            most_matched_vm(black_box(&pools), &demand, &reference)
        })
    });
    group.bench_function("volume_index", |b| {
        let mut pools = pools.clone();
        let mut idx = VolumeIndex::new(&pools, &reference);
        let mut step = 0usize;
        b.iter(|| {
            step = step.wrapping_add(1);
            let vm = step % VMS;
            pools[vm] = churn_value(vm, step);
            idx.update(vm, &pools[vm], &reference);
            idx.best_fit(black_box(&pools), &demand, &reference)
        })
    });
    group.finish();
}

/// Isolated kernel microbenches: one 50-unit layer at batch width 32, the
/// shapes the minibatch trainer actually runs, plus the sigmoid cost floor
/// (one pretrain run evaluates ~410k activations — that time is common to
/// every kernel tier and bounds the speedup batching can deliver).
fn bench_kernels(c: &mut Criterion) {
    use corp_dnn::Matrix;
    let mut group = c.benchmark_group("kernels");
    let xs: Vec<f64> = (0..410_000)
        .map(|i| (i as f64 * 0.001).sin() * 4.0)
        .collect();
    group.sample_size(10);
    group.bench_function("sigmoid_410k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &x in black_box(&xs) {
                acc += 1.0 / (1.0 + (-x).exp());
            }
            acc
        })
    });
    let w = Matrix::from_fn(50, 50, |r, c| ((r * 7 + c) as f64 * 0.01).sin());
    let x = Matrix::from_fn(50, 32, |r, c| ((r + c * 3) as f64 * 0.02).cos());
    let mut out = Matrix::zeros(50, 32);
    group.bench_function("matmul_fused_50x50x32", |b| {
        b.iter(|| w.matmul_fused_into(black_box(&x), &mut out, |_, acc| acc))
    });
    group.bench_function("matmul_transposed_50x50x32", |b| {
        b.iter(|| w.matmul_transposed_into(black_box(&x), &mut out))
    });
    let mut grad = Matrix::zeros(50, 50);
    group.bench_function("add_batch_outer_50x50x32", |b| {
        b.iter(|| grad.add_batch_outer(black_box(&x), black_box(&out)))
    });
    let mut vel = Matrix::zeros(50, 50);
    let mut wts = Matrix::from_fn(50, 50, |r, c| ((r + c) as f64 * 0.01).cos());
    group.bench_function("momentum_step_50x50", |b| {
        b.iter(|| wts.momentum_step_from(&mut vel, black_box(&grad), 0.5, 0.001))
    });
    group.finish();
}

criterion_group!(benches, bench_dnn_pretrain, bench_best_fit, bench_kernels);
criterion_main!(benches);
