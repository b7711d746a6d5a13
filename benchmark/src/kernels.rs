//! Kernel timings: direct loops over single public functions, on inputs
//! captured from a traced `corp-steady-1k` run (or, for the store and the
//! admission queue, on the fleet and job shapes of their own workload).
//! They apportion a stage span — `predict.forecast_s` between DNN, HMM and
//! the rest — without touching program code. Each number is the median of
//! [`PASSES`] passes over the inputs.

use crate::spec::Layers;
use crate::stats;
use crate::timed::Captures;
use corp_cluster::PlacementStore;
use corp_core::{pack_complementary, CorpConfig, CorpJobPredictor, PredictionScratch, VolumeIndex};
use corp_dnn::{PredictScratch, UnusedResourcePredictor};
use corp_hmm::{FluctuationPredictor, HmmScratch};
use corp_serve::{AdmissionQueue, BackpressurePolicy, DeadlineConfig};
use corp_sim::{Cluster, ResourceVector};
use corp_stats::QuantileSketch;
use corp_trace::{JobSpec, WorkloadGenerator};
use std::hint::black_box;
use std::time::Instant;

const PASSES: usize = 5;

/// Median over [`PASSES`] passes of one pass's time per operation, in
/// nanoseconds. `pass` gets the pass index, so it can vary its inputs.
fn ns_per_op(ops_per_pass: usize, mut pass: impl FnMut(usize)) -> f64 {
    let mut samples: Vec<f64> = (0..PASSES)
        .map(|i| {
            let start = Instant::now();
            pass(i);
            start.elapsed().as_nanos() as f64 / ops_per_pass.max(1) as f64
        })
        .collect();
    stats::median(&mut samples)
}

/// Predictor, packer and volume-index kernels on the captured inputs.
pub fn predict_pack_place(captures: &Captures, layers: &mut Layers) -> Result<(), String> {
    if captures.jobs.len() < 100 || captures.pools.is_empty() || captures.pending.len() < 100 {
        return Err(format!(
            "kernel inputs not captured: {} job series, {} pools, {} pending jobs",
            captures.jobs.len(),
            captures.pools.len(),
            captures.pending.len()
        ));
    }
    let config = CorpConfig::default();
    let histories = crate::workloads::histories();
    let jobs = &captures.jobs;

    let mut predictor = CorpJobPredictor::new(&config);
    let start = Instant::now();
    predictor.pretrain(&histories);
    layers.put("dnn.pretrain_s", start.elapsed().as_secs_f64());
    let mut scratch = PredictionScratch::persistent();
    layers.put(
        "predict.job_ns",
        ns_per_op(jobs.len(), |_| {
            for (series, requested) in jobs {
                black_box(predictor.predict_job_in(series, requested, &mut scratch));
            }
        }),
    );

    // One resource's DNN and HMM, trained as `CorpJobPredictor` trains
    // them; a job prediction runs each once per resource.
    let mut dnn = UnusedResourcePredictor::new(config.dnn_config());
    let _ = dnn.fit(&histories[0]);
    let mut net_scratch = PredictScratch::new();
    layers.put(
        "dnn.forward_ns",
        ns_per_op(jobs.len(), |_| {
            for (series, _) in jobs {
                black_box(dnn.predict_with(&series[0], &mut net_scratch));
            }
        }),
    );
    let mut hmm = FluctuationPredictor::new(config.hmm_window.max(2));
    let pooled: Vec<f64> = histories[0].iter().flatten().copied().collect();
    let _ = hmm.fit(&pooled);
    let mut hmm_scratch = HmmScratch::new();
    layers.put(
        "hmm.adjust_ns",
        ns_per_op(jobs.len(), |_| {
            for (series, _) in jobs {
                let u_hat = series[0].last().copied().unwrap_or(0.0);
                black_box(hmm.adjust_with(u_hat, &series[0], &mut hmm_scratch));
            }
        }),
    );

    let (pools, reference) = (&captures.pools, &captures.reference);
    let mut index = VolumeIndex::new(pools, reference);
    const REBUILDS: usize = 50;
    layers.put(
        "index.rebuild_us",
        ns_per_op(REBUILDS, |_| {
            for _ in 0..REBUILDS {
                index.rebuild(black_box(pools), reference);
            }
        }) / 1e3,
    );
    layers.put(
        "index.best_fit_ns",
        ns_per_op(captures.pending.len(), |_| {
            for job in &captures.pending {
                black_box(index.best_fit(pools, &job.demand, reference));
            }
        }),
    );
    const PACKS: usize = 20;
    let hundred = &captures.pending[..100];
    layers.put(
        "pack.us_per_100_jobs",
        ns_per_op(PACKS, |_| {
            for _ in 0..PACKS {
                black_box(pack_complementary(black_box(hundred), reference));
            }
        }) / 1e3,
    );
    Ok(())
}

/// The placement store's fused fast path against both 2PC phases, one
/// claim per VM of `cluster` from one shard (so every fast commit hits).
pub fn store(cluster: &Cluster, layers: &mut Layers) {
    let capacities: Vec<ResourceVector> = cluster.vms.iter().map(|vm| vm.capacity).collect();
    let idle = vec![ResourceVector::ZERO; capacities.len()];
    let amount = capacities[0].scaled(0.01);
    let vms = capacities.len();
    let store = PlacementStore::new(capacities);
    layers.put(
        "store.fast_commit_ns",
        ns_per_op(vms, |_| {
            store.begin_slot(&idle);
            for vm in 0..vms {
                black_box(store.try_fast_commit(0, vm, amount)).expect("idle VM, own shard");
            }
        }),
    );
    layers.put(
        "store.reserve_confirm_ns",
        ns_per_op(vms, |_| {
            store.begin_slot(&idle);
            for vm in 0..vms {
                let id = store.reserve(0, vm, amount).expect("idle VM has room");
                black_box(store.confirm(id)).expect("just reserved");
            }
        }),
    );
}

/// Admission-queue and latency-sketch kernels, at the queue capacity and
/// deadlines `serve-storm-1k` runs with.
pub fn serve(seed: u64, layers: &mut Layers) {
    const CAPACITY: usize = 256;
    let deadlines = DeadlineConfig::uniform(30_000_000);
    let specs: Vec<JobSpec> = {
        let mut generator = WorkloadGenerator::with_seed(seed);
        (0..2 * CAPACITY)
            .map(|_| generator.generate_next())
            .collect()
    };
    // Boxing the specs is the caller's cost in the daemon too, but not the
    // queue's: box every pass's offers before its clock starts.
    let mut offers: Vec<Vec<Box<JobSpec>>> = (0..PASSES)
        .map(|_| specs.iter().cloned().map(Box::new).collect())
        .collect();
    let mut queues: Vec<AdmissionQueue> = (0..PASSES)
        .map(|_| AdmissionQueue::new(CAPACITY, BackpressurePolicy::Block))
        .collect();
    layers.put(
        "admission.offer_ns",
        ns_per_op(2 * CAPACITY, |pass| {
            // Half the offers enqueue, half block at the door.
            for spec in offers[pass].drain(..) {
                black_box(queues[pass].offer(spec, 0));
            }
        }),
    );
    let queue = &mut queues[0];
    let mut expired = Vec::new();
    const SCANS: usize = 200;
    layers.put(
        "admission.expire_ns_per_waiter",
        // Nobody is overdue at time 1, so every scan visits every waiter.
        ns_per_op(SCANS * 2 * CAPACITY, |_| {
            for _ in 0..SCANS {
                queue.expire(black_box(1), &deadlines, &mut expired);
            }
        }),
    );
    const INSERTS: usize = 100_000;
    layers.put(
        "sketch.insert_ns",
        ns_per_op(INSERTS, |_| {
            let mut sketch = QuantileSketch::new(0.005);
            // Whole slots of wait, as the daemon records them.
            for i in 0..INSERTS {
                sketch.insert(((i * 7919) % 50) as f64 * 1e7);
            }
            black_box(sketch.count());
        }),
    );
}
