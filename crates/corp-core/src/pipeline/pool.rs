//! The persistent prediction runtime: one [`PredictRuntime`] per predictor
//! stage, owning a lazily-spawned [`WorkerPool`] and the per-participant
//! scratch that persists across provisioning windows.
//!
//! ## Two execution modes, one contract
//!
//! * [`RuntimeMode::Pooled`] (default) — cuts each window's tasks into
//!   chunks of the caller's `grain` that the calling thread and the
//!   long-lived `corp-predict-{i}` threads claim one at a time
//!   ([`WorkerPool::run_chunks`]): a thread that wakes late or sits on a
//!   slow core takes fewer chunks instead of holding the window up.
//!   Scratch (DNN lane buffers, HMM decode buffers, series buffers) is
//!   created once per participant and reset-not-reallocated per use. When
//!   the effective width is 1 — small fleets below the serial cutoff, or a
//!   single-core host — the caller is the only participant: no worker
//!   thread, no wake-up, and still zero per-window allocation.
//! * [`RuntimeMode::Scoped`] — the pre-pool path: fresh scoped threads,
//!   one fixed contiguous share each, and fresh `init()` scratch every
//!   window ([`fan_out`]). Kept as the measured baseline arm of
//!   `corp-exp e2e` and for A/B determinism tests.
//!
//! ## Determinism argument
//!
//! Both modes hand `f` contiguous runs of tasks and write results by task
//! index; predictor states only carry buffers that are fully overwritten
//! before they are read plus order-independent counters (u64 adds)
//! extracted per window by `finish`. So it does not matter which thread
//! computes a task, nor where the runs are cut: reports are byte-identical
//! across modes, widths, grains and hosts — pinned by the determinism
//! suite and the pool-equivalence tests in `corp-bench`.

use crate::pipeline::fanout::{fan_out, fan_out_vm_predictions, per_task, prediction_threads};
pub use corp_pool::{WorkerPool, WorkerScratch};
use corp_sim::{ResourceVector, VmView};
use std::any::Any;

/// VMs per claimed chunk in [`PredictRuntime::fan_out_vms`]: a per-VM
/// forecast is microseconds, so a chunk has to hold a few dozen of them to
/// dwarf the claim, and a 1 024-VM fleet still cuts into 32 chunks.
const VM_GRAIN: usize = 32;

/// Which execution path a [`PredictRuntime`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeMode {
    /// Pre-pool path: fresh scoped threads and fresh scratch every window.
    Scoped,
    /// Persistent path: long-lived pool workers with reusable scratch
    /// (inline with persistent scratch at width 1).
    Pooled,
}

/// The per-stage prediction runtime: execution mode, fan-out width policy,
/// the lazily-spawned worker pool, and the calling thread's own scratch
/// (the caller takes part in every pooled fan-out).
pub struct PredictRuntime {
    mode: RuntimeMode,
    parallel: bool,
    width_override: Option<usize>,
    pool: Option<WorkerPool>,
    local: WorkerScratch,
}

impl std::fmt::Debug for PredictRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictRuntime")
            .field("mode", &self.mode)
            .field("parallel", &self.parallel)
            .field("width_override", &self.width_override)
            .field("pool_width", &self.pool.as_ref().map(WorkerPool::width))
            .finish()
    }
}

impl PredictRuntime {
    /// A runtime in `mode`, with the parallel fan-out enabled or not.
    pub fn new(mode: RuntimeMode, parallel: bool) -> Self {
        PredictRuntime {
            mode,
            parallel,
            width_override: None,
            pool: None,
            local: WorkerScratch::new(),
        }
    }

    /// The current execution mode.
    pub fn mode(&self) -> RuntimeMode {
        self.mode
    }

    /// Whether the persistent-pool path is active.
    pub fn is_pooled(&self) -> bool {
        self.mode == RuntimeMode::Pooled
    }

    /// Switches execution mode (reports are byte-identical either way).
    pub fn set_mode(&mut self, mode: RuntimeMode) {
        self.mode = mode;
    }

    /// Enables or disables the parallel fan-out (serial execution stays on
    /// the persistent inline scratch in pooled mode).
    pub fn set_parallel(&mut self, enabled: bool) {
        self.parallel = enabled;
    }

    /// Whether the parallel fan-out is enabled.
    pub fn parallel(&self) -> bool {
        self.parallel
    }

    /// Pins the fan-out width instead of the `CORP_THREADS` /
    /// hardware-parallelism default. `None` restores the default. The
    /// width only shapes the chunking — results are byte-identical at any
    /// width.
    pub fn set_width(&mut self, width: Option<usize>) {
        assert!(width != Some(0), "pool width must be at least 1");
        self.width_override = width;
    }

    /// The effective fan-out width for a window of `tasks` tasks.
    pub fn effective_width(&self, tasks: usize) -> usize {
        match self.width_override {
            // An explicit width skips the serial cutoff: equivalence tests
            // pin widths {1, 2, N} and must actually exercise them.
            Some(w) if self.parallel && tasks >= 2 => w.min(tasks),
            _ => prediction_threads(self.parallel, tasks),
        }
    }

    /// Fans `f` over `tasks` through the active execution path.
    ///
    /// `f` maps a contiguous chunk of tasks into the chunk's slots of a
    /// result vector pre-filled with `fill` ([`per_task`] adapts a one-task
    /// closure), so a thread may batch across neighbouring tasks. In pooled
    /// mode a chunk is `grain` tasks — pick the batch `f` works in — and
    /// the threads claim chunks as they go; in scoped mode it is one
    /// thread's whole share. The width policy
    /// ([`effective_width`](Self::effective_width)) counts tasks either
    /// way. Each thread threads its calls through a state of type `S`
    /// (`init` on first use — per window in scoped mode, once per thread in
    /// pooled mode) and `finish` extracts the window's side-product from
    /// each state once the chunks are gone (e.g. `mem::take` of fallback
    /// counters). Which thread ran which chunk is not fixed, so merge the
    /// extractions commutatively.
    pub fn fan_out<I, T, S, D>(
        &mut self,
        tasks: &[I],
        grain: usize,
        fill: T,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&[I], &mut [T], &mut S) + Sync,
        finish: impl Fn(&mut S) -> D + Sync,
    ) -> (Vec<T>, Vec<D>)
    where
        I: Sync,
        T: Send + Clone,
        S: Any + Send,
        D: Send,
    {
        match self.mode {
            RuntimeMode::Scoped => {
                let (results, mut states) = fan_out(tasks, self.parallel, fill, init, f);
                let deltas = states.iter_mut().map(finish).collect();
                (results, deltas)
            }
            RuntimeMode::Pooled => {
                // At width 1 — small windows, single-core hosts — the
                // caller is the only participant: no worker is spawned or
                // woken.
                let width = self.effective_width(tasks.len());
                let mut results = vec![fill; tasks.len()];
                let pool = self.pool.get_or_insert_with(WorkerPool::new);
                let deltas = pool.run_chunks(
                    tasks,
                    &mut results,
                    width,
                    grain,
                    &mut self.local,
                    &init,
                    &f,
                    &finish,
                );
                (results, deltas)
            }
        }
    }

    /// Fans the per-VM predictions of one window through the active path,
    /// returning one slot per VM position (`None` for VMs with no jobs or
    /// no forecast). Mirrors [`fan_out_vm_predictions`], including its
    /// all-VMs-busy fast path.
    pub fn fan_out_vms(
        &mut self,
        vms: &[VmView],
        predict: impl Fn(&VmView) -> Option<ResourceVector> + Sync,
    ) -> Vec<Option<ResourceVector>> {
        if self.mode == RuntimeMode::Scoped {
            return fan_out_vm_predictions(vms, self.parallel, predict);
        }
        if vms.iter().all(|v| !v.jobs.is_empty()) {
            let (results, _) = self.fan_out(
                vms,
                VM_GRAIN,
                None,
                || (),
                per_task(|vm, _: &mut ()| predict(vm)),
                |_| (),
            );
            return results;
        }
        let tasks: Vec<usize> = vms
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.jobs.is_empty())
            .map(|(i, _)| i)
            .collect();
        let (results, _) = self.fan_out(
            &tasks,
            VM_GRAIN,
            None,
            || (),
            per_task(|&i, _: &mut ()| predict(&vms[i])),
            |_| (),
        );
        let mut out: Vec<Option<ResourceVector>> = vec![None; vms.len()];
        for (&i, r) in tasks.iter().zip(results) {
            out[i] = r;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime(mode: RuntimeMode) -> PredictRuntime {
        PredictRuntime::new(mode, true)
    }

    #[test]
    fn pooled_results_match_scoped_results() {
        let tasks: Vec<u64> = (0..200).collect();
        let run = |rt: &mut PredictRuntime| {
            rt.fan_out(
                &tasks,
                16,
                0u64,
                || 0u64,
                per_task(|&t, acc: &mut u64| {
                    *acc += 1;
                    t * t
                }),
                std::mem::take,
            )
        };
        let (scoped, scoped_deltas) = run(&mut runtime(RuntimeMode::Scoped));
        for width in [1, 2, 5] {
            let mut rt = runtime(RuntimeMode::Pooled);
            rt.set_width(Some(width));
            let (pooled, deltas) = run(&mut rt);
            assert_eq!(pooled, scoped, "width {width}");
            assert_eq!(
                deltas.iter().sum::<u64>(),
                scoped_deltas.iter().sum::<u64>(),
                "every task processed exactly once at width {width}"
            );
        }
    }

    #[test]
    fn width_one_runs_inline_with_persistent_scratch() {
        let mut rt = runtime(RuntimeMode::Pooled);
        rt.set_width(Some(1));
        let tasks = [(); 5];
        for round in 1u64..=3 {
            let (_, deltas) = rt.fan_out(
                &tasks,
                2,
                0u64,
                || 0u64,
                per_task(|_, acc: &mut u64| {
                    *acc += 1;
                    *acc
                }),
                |acc| *acc,
            );
            assert_eq!(deltas, vec![round * 5], "scratch persists across windows");
        }
    }

    #[test]
    fn serial_cutoff_applies_without_an_override() {
        let rt = runtime(RuntimeMode::Pooled);
        assert_eq!(rt.effective_width(1), 1);
        assert_eq!(
            rt.effective_width(crate::pipeline::fanout::SERIAL_FANOUT_CUTOFF - 1),
            1,
            "below the cutoff the fan-out is serial"
        );
        let mut pinned = runtime(RuntimeMode::Pooled);
        pinned.set_width(Some(3));
        assert_eq!(pinned.effective_width(8), 3, "explicit width wins");
        assert_eq!(pinned.effective_width(2), 2, "but never exceeds tasks");
        assert_eq!(pinned.effective_width(1), 1);
    }

    #[test]
    fn width_policy_counts_jobs_not_lanes() {
        // CORP's forecast batches each worker's chunk into lanes of 64
        // jobs, but its fan-out tasks stay jobs: a 3 000-job window (47
        // lanes) gets the whole pool, and only a window under the cutoff
        // *in jobs* runs serially. Handing lanes to the runtime as its
        // tasks would have put 3 000 jobs on one thread.
        let rt = runtime(RuntimeMode::Pooled);
        assert_eq!(
            rt.effective_width(3_000),
            crate::pipeline::fanout::configured_pool_width()
        );
        assert_eq!(rt.effective_width(63), 1);
    }

    #[test]
    fn serial_runtime_never_fans_out() {
        let mut rt = PredictRuntime::new(RuntimeMode::Pooled, false);
        assert_eq!(rt.effective_width(10_000), 1);
        let tasks: Vec<u64> = (0..100).collect();
        let (out, deltas) = rt.fan_out(
            &tasks,
            8,
            0u64,
            || 0u64,
            per_task(|&t, _: &mut u64| t),
            |_| (),
        );
        assert_eq!(out, tasks);
        assert_eq!(deltas.len(), 1, "one inline state");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_width_override_rejected() {
        runtime(RuntimeMode::Pooled).set_width(Some(0));
    }
}
