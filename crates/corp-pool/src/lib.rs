//! Persistent worker pool for CORP's prediction fan-out.
//!
//! `corp-core::pipeline` used to spawn fresh OS threads through
//! `std::thread::scope` every provisioning window and rebuild each worker's
//! predictor scratch from nothing. This crate amortizes both costs across
//! the whole simulation:
//!
//! * [`WorkerPool`] owns long-lived named threads (`corp-predict-{i}`),
//!   each parked on a blocking channel receive while idle;
//! * every worker owns a [`WorkerScratch`] — a type-keyed map of reusable
//!   predictor states (DNN activation buffers, HMM decode buffers, …) that
//!   persists across dispatches behind a reset-not-reallocate discipline;
//! * [`WorkerPool::run_chunks`] cuts a window's tasks into contiguous
//!   chunks that the calling thread and the workers claim one at a time,
//!   so a participant that starts late or runs on a slow core simply takes
//!   fewer of them. Results land by task index and a chunk's results do
//!   not depend on who computed it, so everything downstream is
//!   byte-identical to a serial execution.
//!
//! ## Why this crate exists (and the one `unsafe` in the workspace)
//!
//! A persistent pool executing *borrowed* closures cannot be written in
//! safe Rust: the worker threads are `'static`, the per-window tasks
//! borrow the caller's stack (fleet views, result slots), and the only way
//! to hand one to the other is to erase the lifetime — the same move
//! `rayon` and `scoped_threadpool` make internally. Every other crate in
//! the workspace keeps `#![forbid(unsafe_code)]`; this crate isolates the
//! single erasure behind a safe blocking API whose soundness argument is
//! spelled out at the `unsafe` block, and nothing else.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use crossbeam::channel::{bounded, unbounded, Sender};
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::Mutex;

/// A lifetime-erased unit of work executed on a pool worker.
type PoolTask = Box<dyn FnOnce(&mut WorkerScratch) + Send + 'static>;

/// A panic payload carried back from a worker.
type Payload = Box<dyn Any + Send + 'static>;

/// Per-worker bag of reusable predictor states, keyed by type.
///
/// Workers own one scratch each for the lifetime of the pool; callers
/// fetch their state type with [`get_or_insert_with`](Self::get_or_insert_with)
/// and reset-not-reallocate inside it. States must be self-resetting per
/// use (every buffer fully overwritten before read), which is what makes
/// reuse invisible in the results.
#[derive(Default)]
pub struct WorkerScratch {
    slots: HashMap<TypeId, Box<dyn Any + Send>>,
}

impl std::fmt::Debug for WorkerScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerScratch")
            .field("states", &self.slots.len())
            .finish()
    }
}

impl WorkerScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        WorkerScratch::default()
    }

    /// The persistent state of type `S`, created with `init` on first use.
    pub fn get_or_insert_with<S: Any + Send>(&mut self, init: impl FnOnce() -> S) -> &mut S {
        self.slots
            .entry(TypeId::of::<S>())
            .or_insert_with(|| Box::new(init()))
            .downcast_mut::<S>()
            .expect("scratch slot keyed by its own TypeId")
    }

    /// Number of distinct state types held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no state has been created yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

struct PoolWorker {
    /// `None` once the pool is shutting down (sender dropped to unpark the
    /// worker loop into its exit path).
    tasks: Option<Sender<PoolTask>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Long-lived prediction workers, parked on a blocking channel receive
/// while idle. Workers are spawned lazily by [`ensure`](Self::ensure) and
/// joined on drop.
#[derive(Default)]
pub struct WorkerPool {
    workers: Vec<PoolWorker>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("width", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// An empty pool; workers spawn on first [`ensure`](Self::ensure).
    pub fn new() -> Self {
        WorkerPool::default()
    }

    /// Current number of live workers.
    pub fn width(&self) -> usize {
        self.workers.len()
    }

    /// Grows the pool to at least `width` workers (never shrinks — scratch
    /// in existing workers stays warm).
    pub fn ensure(&mut self, width: usize) {
        while self.workers.len() < width {
            let i = self.workers.len();
            let (tx, rx) = unbounded::<PoolTask>();
            let handle = std::thread::Builder::new()
                .name(format!("corp-predict-{i}"))
                .spawn(move || {
                    let mut scratch = WorkerScratch::new();
                    // Parked (condvar wait inside `recv`) while idle; exits
                    // when the pool drops its sender.
                    while let Ok(task) = rx.recv() {
                        task(&mut scratch);
                    }
                })
                .expect("failed to spawn prediction worker");
            self.workers.push(PoolWorker {
                tasks: Some(tx),
                handle: Some(handle),
            });
        }
    }

    /// Fans `f` over `tasks`: the tasks are cut into contiguous chunks of
    /// `grain` tasks (the last one shorter) and `width` participants — the
    /// calling thread and `width - 1` pool workers, fewer when there are
    /// fewer chunks — each claim the next unclaimed chunk until none is
    /// left. `f` receives a whole chunk with its result slots — `results`
    /// (at least `tasks.len()` long) split at the same indices — so a
    /// participant can batch across neighbouring tasks; [`per_task`] adapts
    /// a one-task closure.
    ///
    /// Every participant threads its calls through its persistent state of
    /// type `S` (created by `init` on first use; the caller's lives in
    /// `local`) and reduces it with `finish` once the chunks are gone. The
    /// reductions come back caller first, then workers in index order.
    /// *Which* participant runs a chunk depends on timing, so `f` must make
    /// a chunk's results independent of the state's history (buffers
    /// rewritten before they are read) and the reductions must be merged
    /// commutatively: only their combination repeats from run to run.
    ///
    /// Chunks are claimed, not assigned as one fixed share per worker, so
    /// that the fan-out lasts the work divided by the speed of all
    /// participants together and not as long as its unluckiest share — on
    /// a small shared host a thread is often woken late or onto a busy
    /// core. The caller takes part because it would otherwise sleep on a
    /// core that a woken worker then has to find.
    ///
    /// Blocks until every dispatched worker is done — the property the
    /// borrowed-data erasure below rests on.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any participant after all of them have
    /// settled, and panics if `results` is shorter than `tasks`, `width` or
    /// `grain` is zero, or a worker died without reporting.
    #[allow(clippy::too_many_arguments)]
    pub fn run_chunks<I, T, S, D>(
        &mut self,
        tasks: &[I],
        results: &mut [T],
        width: usize,
        grain: usize,
        local: &mut WorkerScratch,
        init: &(impl Fn() -> S + Sync),
        f: &(impl Fn(&[I], &mut [T], &mut S) + Sync),
        finish: &(impl Fn(&mut S) -> D + Sync),
    ) -> Vec<D>
    where
        I: Sync,
        T: Send,
        S: Any + Send,
        D: Send,
    {
        assert!(
            results.len() >= tasks.len(),
            "result buffer shorter than task list"
        );
        assert!(width >= 1, "need at least one participant");
        assert!(grain >= 1, "chunks hold at least one task");
        if tasks.is_empty() {
            return Vec::new();
        }
        let helpers = width.min(tasks.len().div_ceil(grain)) - 1;
        self.ensure(helpers);
        // The unclaimed chunks, in task order. The lock is held only for
        // the `next()` that claims one.
        let chunks = Mutex::new(
            tasks
                .chunks(grain)
                .zip(results[..tasks.len()].chunks_mut(grain)),
        );
        // One participant's share: claim chunks until none is left, then
        // reduce. Caught so that a worker's done message and the caller's
        // collect loop below are reached on every path.
        let drain = |scratch: &mut WorkerScratch| {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                let state = scratch.get_or_insert_with(init);
                loop {
                    let claimed = chunks.lock().unwrap_or_else(|e| e.into_inner()).next();
                    let Some((chunk, slots)) = claimed else { break };
                    f(chunk, slots, state);
                }
                finish(state)
            }))
        };
        let drain = &drain;
        let (done_tx, done_rx) = bounded::<(usize, Result<D, Payload>)>(helpers);

        let mut sent = 0usize;
        for (idx, worker) in self.workers[..helpers].iter().enumerate() {
            let tx = done_tx.clone();
            let task: Box<dyn FnOnce(&mut WorkerScratch) + Send + '_> =
                Box::new(move |scratch: &mut WorkerScratch| {
                    let _ = tx.send((idx, drain(scratch)));
                });
            // SAFETY: the boxed closure borrows `drain` — and through it
            // `chunks` (hence `tasks` and `results`), `init`, `f` and
            // `finish` — and owns a `done_tx` clone; none of these are
            // `'static`. Erasing the lifetime is sound because this
            // function does not return until every closure that was
            // successfully sent has finished running:
            //
            // * each closure sends on its `done_tx` clone as its final
            //   action (the send is unconditionally reached — `drain`
            //   catches unwinds — and dropping the closure unexecuted also
            //   drops the sender);
            // * nothing between here and the collect loop below can unwind
            //   past it: the caller's own share runs inside `drain`'s
            //   `catch_unwind`;
            // * the collect loop blocks until it has received `sent`
            //   messages or the done channel disconnects, and the channel
            //   can only disconnect after every outstanding clone of
            //   `done_tx` is dropped — i.e. after every dispatched closure
            //   has either run to completion or been destroyed;
            // * closure destruction cannot touch the borrowed data either:
            //   the captures are a shared reference and the sender, whose
            //   drops never dereference the borrows.
            //
            // Hence no worker can observe the borrowed stack frame after
            // `run_chunks` returns, which is exactly the guarantee
            // `std::thread::scope` provides by joining.
            let task: PoolTask = unsafe {
                std::mem::transmute::<
                    Box<dyn FnOnce(&mut WorkerScratch) + Send + '_>,
                    Box<dyn FnOnce(&mut WorkerScratch) + Send + 'static>,
                >(task)
            };
            if worker.tasks.as_ref().is_some_and(|t| t.send(task).is_ok()) {
                sent += 1;
            }
        }
        drop(done_tx);

        let mut deltas: Vec<Option<D>> =
            std::iter::repeat_with(|| None).take(helpers + 1).collect();
        let mut panic_payload: Option<Payload> = None;
        match drain(local) {
            Ok(d) => deltas[0] = Some(d),
            Err(p) => panic_payload = Some(p),
        }
        let mut received = 0usize;
        while received < sent {
            match done_rx.recv() {
                Ok((idx, Ok(d))) => {
                    deltas[idx + 1] = Some(d);
                    received += 1;
                }
                Ok((_, Err(p))) => {
                    panic_payload.get_or_insert(p);
                    received += 1;
                }
                // Disconnected: every remaining sender clone was dropped,
                // so no closure still borrows our frame. Fall through to
                // the death diagnostics below.
                Err(_) => break,
            }
        }
        if let Some(p) = panic_payload {
            std::panic::resume_unwind(p);
        }
        assert!(
            sent == helpers && received == sent,
            "prediction worker died mid-dispatch"
        );
        deltas
            .into_iter()
            .map(|d| d.expect("every participant reported a reduction"))
            .collect()
    }
}

/// Adapts a one-task closure to the chunk-level callback of
/// [`WorkerPool::run_chunks`]: each task's result lands in its own slot.
pub fn per_task<I, T, S>(f: impl Fn(&I, &mut S) -> T) -> impl Fn(&[I], &mut [T], &mut S) {
    move |chunk, slots, state| {
        for (task, slot) in chunk.iter().zip(slots) {
            *slot = f(task, state);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the task senders unparks every worker loop into its exit
        // path; join afterwards so no thread outlives the pool.
        for w in &mut self.workers {
            w.tasks.take();
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_land_by_task_index() {
        let mut pool = WorkerPool::new();
        let mut local = WorkerScratch::new();
        let tasks: Vec<usize> = (0..100).collect();
        for (width, grain) in [(1, 100), (2, 50), (2, 7), (3, 1), (7, 8)] {
            let mut results = vec![0usize; tasks.len()];
            let deltas = pool.run_chunks(
                &tasks,
                &mut results,
                width,
                grain,
                &mut local,
                &|| (),
                &per_task(|&t, _: &mut ()| t * 10),
                &|_| (),
            );
            assert_eq!(deltas.len(), width.min(tasks.len().div_ceil(grain)));
            for (i, &r) in results.iter().enumerate() {
                assert_eq!(r, i * 10, "width {width}, grain {grain}");
            }
        }
    }

    #[test]
    fn scratch_persists_across_dispatches() {
        let mut pool = WorkerPool::new();
        let mut local = WorkerScratch::new();
        let tasks = [0usize; 8];
        let mut results = [0usize; 8];
        // Every participant counts the tasks it has ever processed in its
        // persistent state; who takes which chunk varies, the total cannot.
        for round in 1..=3 {
            let seen = pool.run_chunks(
                &tasks,
                &mut results,
                2,
                2,
                &mut local,
                &|| 0usize,
                &per_task(|_, seen: &mut usize| {
                    *seen += 1;
                    *seen
                }),
                &|seen| *seen,
            );
            assert_eq!(seen.len(), 2);
            assert_eq!(seen.iter().sum::<usize>(), round * tasks.len());
        }
        assert_eq!(pool.width(), 1, "the caller is the other participant");
    }

    #[test]
    fn caller_and_workers_share_the_chunks() {
        let mut pool = WorkerPool::new();
        let mut local = WorkerScratch::new();
        let tasks: Vec<usize> = (0..64).collect();
        let mut results = vec![String::new(); tasks.len()];
        let me = std::thread::current().id();
        // Participants tag results with who they are. Each chunk is slow
        // enough that the two workers get to claim some.
        pool.run_chunks(
            &tasks,
            &mut results,
            3,
            1,
            &mut local,
            &|| (),
            &per_task(|_, _: &mut ()| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                let t = std::thread::current();
                if t.id() == me {
                    "caller".to_string()
                } else {
                    t.name().unwrap_or("?").to_string()
                }
            }),
            &|_| (),
        );
        for r in &results {
            assert!(
                ["caller", "corp-predict-0", "corp-predict-1"].contains(&r.as_str()),
                "unexpected participant {r}"
            );
        }
        assert!(results.iter().any(|r| r == "caller"));
        assert!(results.iter().any(|r| r != "caller"));
    }

    #[test]
    fn width_one_runs_everything_on_the_caller() {
        let mut pool = WorkerPool::new();
        let mut local = WorkerScratch::new();
        let tasks: Vec<usize> = (0..10).collect();
        let mut results = vec![None; tasks.len()];
        let me = std::thread::current().id();
        pool.run_chunks(
            &tasks,
            &mut results,
            1,
            3,
            &mut local,
            &|| (),
            &per_task(|_, _: &mut ()| Some(std::thread::current().id())),
            &|_| (),
        );
        assert!(results.iter().all(|&r| r == Some(me)));
        assert_eq!(pool.width(), 0, "no worker spawned");
    }

    #[test]
    fn chunk_callback_sees_whole_contiguous_chunks() {
        let mut pool = WorkerPool::new();
        let mut local = WorkerScratch::new();
        let tasks: Vec<usize> = (0..10).collect();
        // A longer result buffer is allowed; slots past the tasks stay put.
        let mut results = vec![usize::MAX; 12];
        pool.run_chunks(
            &tasks,
            &mut results,
            3,
            4,
            &mut local,
            &|| (),
            &|chunk: &[usize], slots: &mut [usize], _: &mut ()| {
                assert_eq!(chunk.len(), slots.len());
                // Every slot records its chunk's first task and length.
                slots.fill(chunk[0] * 100 + chunk.len());
            },
            &|_| (),
        );
        // Grain 4 -> chunks [0..4), [4..8), [8..10), whoever ran them.
        let expect = [4, 4, 4, 4, 404, 404, 404, 404, 802, 802];
        assert_eq!(results[..10], expect);
        assert_eq!(results[10..], [usize::MAX; 2]);
    }

    #[test]
    fn every_participant_reduces_once() {
        let mut pool = WorkerPool::new();
        let mut local = WorkerScratch::new();
        let tasks: Vec<usize> = (0..9).collect();
        let mut results = vec![0usize; tasks.len()];
        let mut deltas = pool.run_chunks(
            &tasks,
            &mut results,
            3,
            2,
            &mut local,
            &|| Vec::<usize>::new(),
            &per_task(|&t, acc: &mut Vec<usize>| {
                acc.push(t);
                t
            }),
            &std::mem::take,
        );
        assert_eq!(deltas.len(), 3, "caller and two workers");
        // Taken together the reductions hold every task exactly once.
        let mut all: Vec<usize> = deltas.drain(..).flatten().collect();
        all.sort_unstable();
        assert_eq!(all, tasks);
        // Fewer chunks than participants: the surplus is not woken.
        let deltas = pool.run_chunks(
            &tasks,
            &mut results,
            3,
            5,
            &mut local,
            &|| Vec::<usize>::new(),
            &per_task(|&t, _: &mut Vec<usize>| t),
            &std::mem::take,
        );
        assert_eq!(deltas.len(), 2);
    }

    #[test]
    fn panic_propagates_after_all_participants_settle() {
        let tasks: Vec<usize> = (0..8).collect();
        // Task 2 sits in the first chunk, which the caller claims before
        // any worker is awake; task 6 is usually a worker's.
        for bad in [2, 6] {
            let mut pool = WorkerPool::new();
            let mut local = WorkerScratch::new();
            let survived = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut results = vec![0usize; tasks.len()];
                pool.run_chunks(
                    &tasks,
                    &mut results,
                    4,
                    1,
                    &mut local,
                    &|| (),
                    &per_task(|&t, _: &mut ()| {
                        if t == bad {
                            panic!("boom on task {t}");
                        }
                        survived.fetch_add(1, Ordering::SeqCst);
                        t
                    }),
                    &|_| (),
                );
            }));
            assert!(result.is_err(), "panic must propagate to the caller");
            // The others kept claiming chunks after the panic.
            assert_eq!(survived.load(Ordering::SeqCst), tasks.len() - 1);
            // The pool survives the panic and keeps serving.
            let mut results = vec![0usize; 4];
            pool.run_chunks(
                &tasks[..4],
                &mut results,
                2,
                2,
                &mut local,
                &|| (),
                &per_task(|&t, _: &mut ()| t + 1),
                &|_| (),
            );
            assert_eq!(results, vec![1, 2, 3, 4]);
        }
    }

    #[test]
    fn empty_task_list_is_a_no_op() {
        let mut pool = WorkerPool::new();
        let mut results: Vec<usize> = Vec::new();
        let deltas = pool.run_chunks(
            &Vec::<usize>::new(),
            &mut results,
            4,
            1,
            &mut WorkerScratch::new(),
            &|| (),
            &per_task(|&t, _: &mut ()| t),
            &|_| (),
        );
        assert!(deltas.is_empty());
        assert_eq!(pool.width(), 0, "no workers spawned for nothing");
    }

    #[test]
    fn pool_never_shrinks_but_grows_on_demand() {
        let mut pool = WorkerPool::new();
        pool.ensure(2);
        assert_eq!(pool.width(), 2);
        pool.ensure(1);
        assert_eq!(pool.width(), 2, "warm scratch is kept");
        pool.ensure(5);
        assert_eq!(pool.width(), 5);
    }

    #[test]
    fn typed_scratch_slots_are_independent() {
        let mut s = WorkerScratch::new();
        *s.get_or_insert_with(|| 0u64) += 7;
        s.get_or_insert_with(Vec::<f64>::new).push(1.5);
        assert_eq!(*s.get_or_insert_with(|| 0u64), 7);
        assert_eq!(s.get_or_insert_with(Vec::<f64>::new).len(), 1);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }
}
