//! The scoped-thread prediction fan-out (the pre-pool execution path).
//!
//! Both prediction granularities — CORP's per-(vm, job) DNN tasks and the
//! baselines' per-VM forecasts — funnel through [`fan_out`]: tasks are
//! chunked across scoped threads, each worker owns a private scratch state,
//! and results land *by task index*, so the output (and everything
//! downstream of it) is bit-identical to the serial path regardless of
//! thread count. Worker states are returned for the caller to merge after
//! the join (CORP folds fallback counters back in — u64 adds,
//! order-independent).
//!
//! This module is the *legacy* arm of the runtime A/B: the default
//! execution path is the persistent [`PredictRuntime`](super::PredictRuntime)
//! pool, which reuses threads and scratch across windows. The scoped path
//! is kept as the measured baseline (`corp-exp e2e` runs both) and as the
//! determinism suite's reference.

pub use corp_pool::per_task;
use corp_sim::{ResourceVector, VmView};
use std::sync::OnceLock;

/// Below this many tasks every fan-out runs serially: a prediction task is
/// microseconds of work, so for small fleets the per-window spawn (scoped
/// path) or dispatch (pool path) overhead exceeds the win. The cutoff
/// counts *tasks* — jobs, for CORP — never the lanes a worker batches them
/// into: a 3 000-job window is only 47 lanes of 64 and must still fan
/// out. This is the fix for the `BENCH_hotpath.json`
/// tuned-slower-than-baseline inversion on small workloads (DESIGN.md §9);
/// serial and parallel results are bit-identical, so the cutoff never
/// changes a report.
pub const SERIAL_FANOUT_CUTOFF: usize = 64;

/// Hardware parallelism, queried once per process (the old code re-asked
/// `std::thread::available_parallelism` every provisioning window).
pub fn hardware_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The configured fan-out width: the `CORP_THREADS` environment variable
/// when set to a positive integer (bench runs pin pool width with it),
/// otherwise [`hardware_parallelism`]. Read once per process.
pub fn configured_pool_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        std::env::var("CORP_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&w| w >= 1)
            .unwrap_or_else(hardware_parallelism)
    })
}

/// Number of worker threads for a prediction fan-out over `tasks` tasks:
/// 1 when disabled or below [`SERIAL_FANOUT_CUTOFF`], else the configured
/// width capped by the task count.
pub fn prediction_threads(parallel: bool, tasks: usize) -> usize {
    if !parallel || tasks < SERIAL_FANOUT_CUTOFF {
        return 1;
    }
    configured_pool_width().min(tasks)
}

/// Fans `f` over `tasks` across scoped threads (serially when `parallel`
/// is false or the task count is below [`SERIAL_FANOUT_CUTOFF`]).
///
/// Each worker thread gets its own state from `init`; `f` maps one
/// contiguous chunk of tasks through that state into the chunk's slots of
/// a result vector pre-filled with `fill` ([`per_task`] adapts a one-task
/// closure). Returns the results alongside every worker's final state so
/// the caller can merge accumulated side-products (the serial path returns
/// exactly one state). Chunking is `ceil(tasks / threads)` contiguous
/// slices, so the task→thread mapping — and with it any per-thread
/// accumulation — is deterministic.
pub fn fan_out<I, T, S>(
    tasks: &[I],
    parallel: bool,
    fill: T,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&[I], &mut [T], &mut S) + Sync,
) -> (Vec<T>, Vec<S>)
where
    I: Sync,
    T: Send + Clone,
    S: Send,
{
    let threads = prediction_threads(parallel, tasks.len());
    let mut results = vec![fill; tasks.len()];
    if threads <= 1 {
        let mut state = init();
        f(tasks, &mut results, &mut state);
        return (results, vec![state]);
    }
    let chunk_len = tasks.len().div_ceil(threads);
    let init = &init;
    let f = &f;
    let states: Vec<S> = std::thread::scope(|s| {
        let handles: Vec<_> = tasks
            .chunks(chunk_len)
            .zip(results.chunks_mut(chunk_len))
            .map(|(chunk, slots)| {
                s.spawn(move || {
                    let mut state = init();
                    f(chunk, slots, &mut state);
                    state
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("prediction worker panicked"))
            .collect()
    });
    (results, states)
}

/// Fans the per-VM predictions of one provisioning window across scoped
/// threads, returning one slot per VM position (`None` for VMs with no
/// jobs or no forecast). When every VM has jobs — the common case under
/// load — the fleet slice itself is the task list, skipping the
/// intermediate index vector and the scatter copy.
pub fn fan_out_vm_predictions<F>(
    vms: &[VmView],
    parallel: bool,
    predict: F,
) -> Vec<Option<ResourceVector>>
where
    F: Fn(&VmView) -> Option<ResourceVector> + Sync,
{
    if vms.iter().all(|v| !v.jobs.is_empty()) {
        let (results, _) = fan_out(vms, parallel, None, || (), per_task(|vm, ()| predict(vm)));
        return results;
    }
    let tasks: Vec<usize> = vms
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.jobs.is_empty())
        .map(|(i, _)| i)
        .collect();
    let (results, _) = fan_out(
        &tasks,
        parallel,
        None,
        || (),
        per_task(|&i, ()| predict(&vms[i])),
    );
    let mut out: Vec<Option<ResourceVector>> = vec![None; vms.len()];
    for (&i, r) in tasks.iter().zip(results) {
        out[i] = r;
    }
    out
}
