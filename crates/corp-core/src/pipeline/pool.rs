//! The persistent prediction runtime: one [`PredictRuntime`] per predictor
//! stage, owning a lazily-spawned [`WorkerPool`] and the per-participant
//! scratch that persists across provisioning windows, plus the width
//! policy that decides how many threads a window gets.
//!
//! ## Execution
//!
//! Each window's tasks are cut into chunks of the caller's `grain` that
//! the calling thread and the long-lived `corp-predict-{i}` threads claim
//! one at a time ([`WorkerPool::run_chunks`]): a thread that wakes late or
//! sits on a slow core takes fewer chunks instead of holding the window
//! up. Scratch (DNN lane buffers, HMM decode buffers, series buffers) is
//! created once per participant and reset-not-reallocated per use. When
//! the effective width is 1 — a pinned width of 1, small fleets below the
//! serial cutoff, or a single-core host — the caller is the only
//! participant: no worker thread, no wake-up, and still zero per-window
//! allocation. Width 1 *is* the serial path; there is no other.
//!
//! ## Determinism argument
//!
//! `f` is handed contiguous runs of tasks and writes results by task
//! index; predictor states only carry buffers that are fully overwritten
//! before they are read plus order-independent counters (u64 adds)
//! extracted per window by `finish`. So it does not matter which thread
//! computes a task, nor where the runs are cut: reports are byte-identical
//! across widths, grains and hosts — pinned against width 1 by the
//! determinism suite and the pool-equivalence tests in `corp-bench`.

pub use corp_pool::{per_task, WorkerPool, WorkerScratch};
use corp_sim::{ResourceVector, SlotContext, VmView};
use std::any::Any;
use std::sync::OnceLock;

/// VMs per claimed chunk in [`PredictRuntime::fan_out_vms`]: a per-VM
/// forecast is microseconds, so a chunk has to hold a few dozen of them to
/// dwarf the claim, and a 1 024-VM fleet still cuts into 32 chunks.
const VM_GRAIN: usize = 32;

/// Below this many tasks every fan-out runs on the calling thread alone: a
/// prediction task is microseconds of work, so for small fleets waking the
/// pool costs more than it saves (without the cutoff, small workloads ran
/// slower fanned out than serial). The cutoff counts *tasks* — jobs, for
/// CORP — never the lanes a worker batches them into: a 3 000-job window
/// is only 47 lanes of 64 and must still fan out. Width-1 and wider
/// results are bit-identical, so the cutoff never changes a report.
pub const SERIAL_FANOUT_CUTOFF: usize = 64;

/// Hardware parallelism, queried once per process.
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

/// The default number of threads for a prediction fan-out over `tasks`
/// tasks: 1 below [`SERIAL_FANOUT_CUTOFF`], else the configured width
/// capped by the task count.
pub fn prediction_threads(tasks: usize) -> usize {
    if tasks < SERIAL_FANOUT_CUTOFF {
        return 1;
    }
    configured_pool_width().min(tasks)
}

/// The per-stage prediction runtime: fan-out width policy, the
/// lazily-spawned worker pool, and the calling thread's own scratch (the
/// caller takes part in every fan-out).
pub struct PredictRuntime {
    width_override: Option<usize>,
    pool: Option<WorkerPool>,
    local: WorkerScratch,
}

impl std::fmt::Debug for PredictRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictRuntime")
            .field("width_override", &self.width_override)
            .field("pool_width", &self.pool.as_ref().map(WorkerPool::width))
            .finish()
    }
}

impl PredictRuntime {
    /// A runtime at `width` threads per window: `None` follows the
    /// `CORP_THREADS` / hardware-parallelism default behind the serial
    /// cutoff, `Some(1)` is the serial path (everything on the calling
    /// thread). The width only shapes the chunking — results are
    /// byte-identical at any width.
    pub fn new(width: Option<usize>) -> Self {
        let mut runtime = PredictRuntime {
            width_override: None,
            pool: None,
            local: WorkerScratch::new(),
        };
        runtime.set_width(width);
        runtime
    }

    /// Re-pins the fan-out width (see [`new`](Self::new)).
    pub fn set_width(&mut self, width: Option<usize>) {
        assert!(width != Some(0), "pool width must be at least 1");
        self.width_override = width;
    }

    /// The effective fan-out width for a window of `tasks` tasks.
    pub fn effective_width(&self, tasks: usize) -> usize {
        match self.width_override {
            // An explicit width skips the serial cutoff: equivalence tests
            // pin widths {1, 2, N} and must actually exercise them.
            Some(w) => w.min(tasks).max(1),
            None => prediction_threads(tasks),
        }
    }

    /// Fans `f` over `tasks`.
    ///
    /// `f` maps a contiguous chunk of tasks into the chunk's slots of a
    /// result vector pre-filled with `fill` ([`per_task`] adapts a one-task
    /// closure), so a thread may batch across neighbouring tasks. A chunk
    /// is `grain` tasks — pick the batch `f` works in — and the threads
    /// claim chunks as they go. The width policy
    /// ([`effective_width`](Self::effective_width)) counts tasks. Each
    /// thread threads its calls through a state of type `S` (`init` on
    /// first use, once per thread) and `finish` extracts the window's
    /// side-product from each state once the chunks are gone (e.g.
    /// `mem::take` of fallback counters). Which thread ran which chunk is
    /// not fixed, so merge the extractions commutatively.
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
        // At width 1 the caller is the only participant: no worker is
        // spawned or woken.
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

    /// Fans the per-VM predictions of one window, returning one slot per
    /// VM position (`None` for VMs running none of the reader's jobs, or
    /// with no forecast). When every VM runs one — the common case under
    /// load — the fleet slice itself is the task list, skipping the
    /// intermediate index vector and the scatter copy.
    pub fn fan_out_vms(
        &mut self,
        ctx: &SlotContext<'_>,
        predict: impl Fn(&VmView) -> Option<ResourceVector> + Sync,
    ) -> Vec<Option<ResourceVector>> {
        let vms = ctx.vms;
        let occupied = |vm: &VmView| ctx.owned_jobs(vm).next().is_some();
        if vms.iter().all(occupied) {
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
            .filter(|(_, v)| occupied(v))
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

    fn pinned(width: usize) -> PredictRuntime {
        PredictRuntime::new(Some(width))
    }

    #[test]
    fn wider_results_match_width_one_results() {
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
        let (serial, serial_deltas) = run(&mut pinned(1));
        assert_eq!(serial_deltas, vec![200], "width 1 is one participant");
        for width in [2, 5] {
            let (pooled, deltas) = run(&mut pinned(width));
            assert_eq!(pooled, serial, "width {width}");
            assert_eq!(
                deltas.iter().sum::<u64>(),
                200,
                "every task processed exactly once at width {width}"
            );
        }
    }

    #[test]
    fn width_one_runs_inline_with_persistent_scratch() {
        let mut rt = pinned(1);
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
    fn vm_fan_out_predicts_only_for_vms_running_the_readers_jobs() {
        use corp_sim::{JobShare, RunningJobView};
        let vm = |id: usize, jobs: &[u64]| VmView {
            id,
            capacity: ResourceVector::splat(4.0),
            committed: ResourceVector::ZERO,
            free: ResourceVector::splat(4.0),
            jobs: jobs
                .iter()
                .map(|&id| RunningJobView {
                    id,
                    requested: ResourceVector::splat(1.0),
                    allocation: ResourceVector::splat(1.0),
                    recent_demand: Vec::new(),
                    recent_unused: Vec::new(),
                })
                .collect(),
            unused_history: Vec::new(),
        };
        // VM 0 runs only odd jobs, VM 1 one of each, VM 2 none at all.
        let vms = [vm(0, &[1, 3]), vm(1, &[2, 5]), vm(2, &[])];
        let odd = JobShare { shard: 1, of: 2 };
        let even = JobShare { shard: 0, of: 2 };
        for (fleet, share, expected) in [
            (&vms[..], JobShare::ALL, vec![true, true, false]),
            (&vms[..], even, vec![false, true, false]),
            (&vms[..], odd, vec![true, true, false]),
            // Every VM runs one of the reader's jobs: the fleet slice
            // itself is the task list.
            (&vms[..2], odd, vec![true, true]),
        ] {
            let ctx = SlotContext {
                slot: 0,
                vms: fleet,
                pending: &[],
                max_vm_capacity: ResourceVector::splat(4.0),
                share,
            };
            let forecast =
                pinned(1).fan_out_vms(&ctx, |vm| Some(ResourceVector::splat(vm.id as f64)));
            let predicted: Vec<bool> = forecast.iter().map(Option::is_some).collect();
            assert_eq!(predicted, expected, "{share:?} over {} VMs", fleet.len());
        }
    }

    #[test]
    fn serial_cutoff_applies_without_an_override() {
        let rt = PredictRuntime::new(None);
        assert_eq!(rt.effective_width(1), 1);
        assert_eq!(
            rt.effective_width(SERIAL_FANOUT_CUTOFF - 1),
            1,
            "below the cutoff the fan-out is serial"
        );
        assert_eq!(pinned(3).effective_width(8), 3, "explicit width wins");
        assert_eq!(pinned(3).effective_width(2), 2, "but never exceeds tasks");
        assert_eq!(pinned(3).effective_width(1), 1);
        assert_eq!(pinned(3).effective_width(0), 1);
        assert_eq!(pinned(1).effective_width(10_000), 1, "width 1 is serial");
    }

    #[test]
    fn width_policy_counts_jobs_not_lanes() {
        // CORP's forecast batches each worker's chunk into lanes of 64
        // jobs, but its fan-out tasks stay jobs: a 3 000-job window (47
        // lanes) gets the whole pool, and only a window under the cutoff
        // *in jobs* runs serially. Handing lanes to the runtime as its
        // tasks would have put 3 000 jobs on one thread.
        let rt = PredictRuntime::new(None);
        assert_eq!(rt.effective_width(3_000), configured_pool_width());
        assert_eq!(rt.effective_width(63), 1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_width_override_rejected() {
        PredictRuntime::new(Some(0));
    }
}
