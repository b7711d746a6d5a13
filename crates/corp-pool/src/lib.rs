//! Persistent worker pool for CORP's prediction fan-out.
//!
//! * [`WorkerPool`] owns long-lived named threads (`corp-predict-{i}`),
//!   each parked on a blocking channel receive while idle;
//! * [`WorkerPool::run_chunks`] cuts a window's tasks into contiguous
//!   chunks that the calling thread and the workers claim one at a time,
//!   so a participant that starts late or runs on a slow core simply takes
//!   fewer of them. Results land by task index and a chunk's results do
//!   not depend on who computed it, so everything downstream is
//!   byte-identical to a serial execution;
//! * the caller owns the participants' states — one typed `S` each, kept
//!   across calls if it likes (DNN lane buffers, HMM decode buffers) —
//!   and lends one to each participant for the call. The pool keeps none.
//!
//! ## Why this crate exists (and the one `unsafe` in the workspace)
//!
//! A persistent pool executing *borrowed* closures cannot be written in
//! safe Rust: the worker threads are `'static`, the per-window tasks
//! borrow the caller's stack (fleet views, result slots, states), and the
//! only way to hand one to the other is to erase the lifetime — the same
//! move `rayon` and `scoped_threadpool` make internally. Safe
//! `std::thread::scope` helpers spawned per call, with the same
//! caller-owned states, are the alternative, and they are slower: on a
//! 2-vCPU x86-64 host, six alternated pairs a workload (seeds 4401–4406)
//! read `sharded-2-1k` `slots_per_sec` × 0.90 and `decision_ms_p95` × 1.18
//! against this pool and `baselines-1k` `slots_per_sec` × 0.96, the scoped
//! helpers winning no pair of either; `corp-steady-1k` ties
//! (BENCHMARK_LOG.md, "Persistent pool against per-call scoped threads").
//! Every other crate in the workspace keeps `#![forbid(unsafe_code)]`
//! (`scripts/check.sh` fails otherwise); this crate isolates the single
//! erasure behind a safe blocking API whose soundness argument is spelled
//! out at the `unsafe` block, and nothing else.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use crossbeam::channel::{bounded, unbounded, Sender};
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::Mutex;

/// A lifetime-erased unit of work executed on a pool worker.
type PoolTask = Box<dyn FnOnce() + Send + 'static>;

/// A panic payload carried back from a worker.
type Payload = Box<dyn Any + Send + 'static>;

struct PoolWorker {
    /// `None` once the pool is shutting down (sender dropped to unpark the
    /// worker loop into its exit path).
    tasks: Option<Sender<PoolTask>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Long-lived prediction workers, parked on a blocking channel receive
/// while idle. Workers are spawned lazily by `ensure` and
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
    /// An empty pool; workers spawn on first `ensure`.
    pub fn new() -> Self {
        WorkerPool::default()
    }

    /// Current number of live workers.
    pub fn width(&self) -> usize {
        self.workers.len()
    }

    /// Grows the pool to at least `width` workers (never shrinks).
    pub(crate) fn ensure(&mut self, width: usize) {
        while self.workers.len() < width {
            let i = self.workers.len();
            let (tx, rx) = unbounded::<PoolTask>();
            let handle = std::thread::Builder::new()
                .name(format!("corp-predict-{i}"))
                .spawn(move || {
                    // Parked (condvar wait inside `recv`) while idle; exits
                    // when the pool drops its sender.
                    while let Ok(task) = rx.recv() {
                        task();
                    }
                })
                // Only the OS refusing a thread fails here; no input reaches it.
                .expect("failed to spawn prediction worker");
            self.workers.push(PoolWorker {
                tasks: Some(tx),
                handle: Some(handle),
            });
        }
    }

    /// Fans `f` over `tasks`: the tasks are cut into contiguous chunks of
    /// `grain` tasks (the last one shorter) and the participants — the
    /// calling thread and up to `states.len() - 1` pool workers, fewer
    /// when there are fewer chunks — each claim the next unclaimed chunk
    /// until none is left. `f` receives a whole chunk with its result
    /// slots — `results` (at least `tasks.len()` long) split at the same
    /// indices — so a participant can batch across neighbouring tasks;
    /// [`per_task`] adapts a one-task closure.
    ///
    /// Participant `i` threads its calls through `states[i]` (the caller
    /// is participant 0); states past the participant count are not
    /// touched. *Which* participant runs a chunk depends on timing, so `f`
    /// must make a chunk's results independent of the state's history
    /// (buffers rewritten before they are read), and whatever the states
    /// accumulate must be merged commutatively by the caller: only their
    /// combination repeats from run to run.
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
    /// settled, and panics if `results` is shorter than `tasks`, `states`
    /// is empty, `grain` is zero, or a worker died without reporting.
    pub fn run_chunks<I, T, S>(
        &mut self,
        tasks: &[I],
        results: &mut [T],
        grain: usize,
        states: &mut [S],
        f: &(impl Fn(&[I], &mut [T], &mut S) + Sync),
    ) where
        I: Sync,
        T: Send,
        S: Send,
    {
        assert!(
            results.len() >= tasks.len(),
            "result buffer shorter than task list"
        );
        assert!(!states.is_empty(), "need at least one participant");
        assert!(grain >= 1, "chunks hold at least one task");
        let width = states.len().min(tasks.len().div_ceil(grain));
        // No chunk, no participant: an empty task list wakes nobody.
        let Some((mine, theirs)) = states[..width].split_first_mut() else {
            return;
        };
        self.ensure(theirs.len());
        // The unclaimed chunks, in task order. The lock is held only for
        // the `next()` that claims one.
        let chunks = Mutex::new(
            tasks
                .chunks(grain)
                .zip(results[..tasks.len()].chunks_mut(grain)),
        );
        // One participant's share: claim chunks until none is left. Caught
        // so that a worker's done message and the caller's collect loop
        // below are reached on every path.
        let drain = |state: &mut S| {
            std::panic::catch_unwind(AssertUnwindSafe(|| loop {
                let claimed = chunks.lock().unwrap_or_else(|e| e.into_inner()).next();
                let Some((chunk, slots)) = claimed else { break };
                f(chunk, slots, state);
            }))
        };
        let drain = &drain;
        let (done_tx, done_rx) = bounded::<Result<(), Payload>>(theirs.len());

        let mut sent = 0usize;
        for (worker, state) in self.workers.iter().zip(theirs.iter_mut()) {
            let tx = done_tx.clone();
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let _ = tx.send(drain(state));
            });
            // SAFETY: the boxed closure borrows `drain` — and through it
            // `chunks` (hence `tasks` and `results`) and `f` — holds the
            // exclusive borrow of its own element of `states` (`theirs`
            // lends each worker a different one and the caller keeps
            // `mine`, so no two participants share a state), and owns a
            // `done_tx` clone; none of these are `'static`. Erasing the
            // lifetime is sound because this function does not return
            // until every closure that was successfully sent has finished
            // running:
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
            //   the captures are a shared reference, a mutable reference
            //   and the sender, whose drops never dereference the borrows.
            //
            // Hence no worker can observe the borrowed stack frame — or
            // its state — after `run_chunks` returns, which is exactly the
            // guarantee `std::thread::scope` provides by joining.
            let task: PoolTask = unsafe {
                std::mem::transmute::<
                    Box<dyn FnOnce() + Send + '_>,
                    Box<dyn FnOnce() + Send + 'static>,
                >(task)
            };
            if worker.tasks.as_ref().is_some_and(|t| t.send(task).is_ok()) {
                sent += 1;
            }
        }
        drop(done_tx);

        let mut panic_payload = drain(mine).err();
        let mut received = 0usize;
        while received < sent {
            match done_rx.recv() {
                Ok(reply) => {
                    if let Err(p) = reply {
                        panic_payload.get_or_insert(p);
                    }
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
            sent == theirs.len() && received == sent,
            "prediction worker died mid-dispatch"
        );
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
        let tasks: Vec<usize> = (0..100).collect();
        for (width, grain) in [(1, 100), (2, 50), (2, 7), (3, 1), (7, 8)] {
            let mut results = vec![0usize; tasks.len()];
            let mut states = vec![(); width];
            pool.run_chunks(
                &tasks,
                &mut results,
                grain,
                &mut states,
                &per_task(|&t, _: &mut ()| t * 10),
            );
            for (i, &r) in results.iter().enumerate() {
                assert_eq!(r, i * 10, "width {width}, grain {grain}");
            }
        }
    }

    #[test]
    fn scratch_persists_across_dispatches() {
        let mut pool = WorkerPool::new();
        let tasks = [0usize; 8];
        let mut results = [0usize; 8];
        // Every participant counts the tasks it has ever processed in the
        // state the caller keeps for it; who takes which chunk varies, the
        // total cannot.
        let mut seen = [0usize; 2];
        for round in 1..=3 {
            pool.run_chunks(
                &tasks,
                &mut results,
                2,
                &mut seen,
                &per_task(|_, seen: &mut usize| {
                    *seen += 1;
                    *seen
                }),
            );
            assert_eq!(seen.iter().sum::<usize>(), round * tasks.len());
        }
        assert_eq!(pool.width(), 1, "the caller is the other participant");
    }

    #[test]
    fn caller_and_workers_share_the_chunks() {
        let mut pool = WorkerPool::new();
        let tasks: Vec<usize> = (0..64).collect();
        let mut results = vec![String::new(); tasks.len()];
        let me = std::thread::current().id();
        // Participants tag results with who they are. Each chunk is slow
        // enough that the two workers get to claim some.
        pool.run_chunks(
            &tasks,
            &mut results,
            1,
            &mut [(); 3],
            &per_task(|_, _: &mut ()| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                let t = std::thread::current();
                if t.id() == me {
                    "caller".to_string()
                } else {
                    t.name().unwrap_or("?").to_string()
                }
            }),
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
        let tasks: Vec<usize> = (0..10).collect();
        let mut results = vec![None; tasks.len()];
        let me = std::thread::current().id();
        pool.run_chunks(
            &tasks,
            &mut results,
            3,
            &mut [()],
            &per_task(|_, _: &mut ()| Some(std::thread::current().id())),
        );
        assert!(results.iter().all(|&r| r == Some(me)));
        assert_eq!(pool.width(), 0, "no worker spawned");
    }

    #[test]
    fn chunk_callback_sees_whole_contiguous_chunks() {
        let mut pool = WorkerPool::new();
        let tasks: Vec<usize> = (0..10).collect();
        // A longer result buffer is allowed; slots past the tasks stay put.
        let mut results = vec![usize::MAX; 12];
        pool.run_chunks(
            &tasks,
            &mut results,
            4,
            &mut [(); 3],
            &|chunk: &[usize], slots: &mut [usize], _: &mut ()| {
                assert_eq!(chunk.len(), slots.len());
                // Every slot records its chunk's first task and length.
                slots.fill(chunk[0] * 100 + chunk.len());
            },
        );
        // Grain 4 -> chunks [0..4), [4..8), [8..10), whoever ran them.
        let expect = [4, 4, 4, 4, 404, 404, 404, 404, 802, 802];
        assert_eq!(results[..10], expect);
        assert_eq!(results[10..], [usize::MAX; 2]);
    }

    #[test]
    fn states_together_hold_every_task_once() {
        let mut pool = WorkerPool::new();
        let tasks: Vec<usize> = (0..9).collect();
        let mut results = vec![0usize; tasks.len()];
        let mut states = vec![Vec::<usize>::new(); 3];
        pool.run_chunks(
            &tasks,
            &mut results,
            2,
            &mut states,
            &per_task(|&t, acc: &mut Vec<usize>| {
                acc.push(t);
                t
            }),
        );
        // Taken together the states hold every task exactly once.
        let mut all: Vec<usize> = states.iter_mut().flat_map(std::mem::take).collect();
        all.sort_unstable();
        assert_eq!(all, tasks);
        // Fewer chunks than states: the surplus state is not lent out.
        pool.run_chunks(
            &tasks,
            &mut results,
            5,
            &mut states,
            &per_task(|&t, acc: &mut Vec<usize>| {
                acc.push(t);
                t
            }),
        );
        assert!(states[2].is_empty(), "two chunks, two participants");
        assert_eq!(states[0].len() + states[1].len(), tasks.len());
    }

    #[test]
    fn panic_propagates_after_all_participants_settle() {
        let tasks: Vec<usize> = (0..8).collect();
        // Task 2 sits in the first chunk, which the caller claims before
        // any worker is awake; task 6 is usually a worker's.
        for bad in [2, 6] {
            let mut pool = WorkerPool::new();
            let survived = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut results = vec![0usize; tasks.len()];
                pool.run_chunks(
                    &tasks,
                    &mut results,
                    1,
                    &mut [(); 4],
                    &per_task(|&t, _: &mut ()| {
                        if t == bad {
                            panic!("boom on task {t}");
                        }
                        survived.fetch_add(1, Ordering::SeqCst);
                        t
                    }),
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
                &mut [(); 2],
                &per_task(|&t, _: &mut ()| t + 1),
            );
            assert_eq!(results, vec![1, 2, 3, 4]);
        }
    }

    #[test]
    fn empty_task_list_is_a_no_op() {
        let mut pool = WorkerPool::new();
        let mut results: Vec<usize> = Vec::new();
        let mut states = [0usize; 4];
        pool.run_chunks(
            &Vec::<usize>::new(),
            &mut results,
            1,
            &mut states,
            &per_task(|&t, n: &mut usize| {
                *n += 1;
                t
            }),
        );
        assert_eq!(states, [0; 4]);
        assert_eq!(pool.width(), 0, "no workers spawned for nothing");
    }

    #[test]
    fn pool_never_shrinks_but_grows_on_demand() {
        let mut pool = WorkerPool::new();
        pool.ensure(2);
        assert_eq!(pool.width(), 2);
        pool.ensure(1);
        assert_eq!(pool.width(), 2, "idle workers stay parked");
        pool.ensure(5);
        assert_eq!(pool.width(), 5);
    }

    /// SplitMix64: a seeded stream of schedule choices, no dependency.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn seeded_schedules_match_a_serial_pass() {
        // The schedule explorer: each seed picks a width (1-4), a grain
        // (1-7) and a task count (0-130), and every chunk stalls for a
        // seeded number of spin or yield rounds keyed on its first task,
        // so which participant claims which chunk varies from seed to
        // seed. Whatever the interleaving, the results must equal a serial
        // pass index for index, every task must run exactly once, and the
        // participants' states must count every task once between them.
        let value = |t: usize| mix(t as u64) as usize;
        let mut pool = WorkerPool::new();
        for seed in 0..256u64 {
            let draw = mix(seed);
            let width = 1 + (draw % 4) as usize;
            let grain = 1 + (draw >> 8) as usize % 7;
            let n = (draw >> 16) as usize % 131;
            let tasks: Vec<usize> = (0..n).collect();
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let mut results = vec![usize::MAX; n];
            let mut counts = vec![0usize; width];
            pool.run_chunks(
                &tasks,
                &mut results,
                grain,
                &mut counts,
                &|chunk: &[usize], slots: &mut [usize], count: &mut usize| {
                    let stall = mix(seed ^ mix(chunk[0] as u64));
                    for round in 0..stall % 24 {
                        if (stall >> (8 + round)) & 1 == 1 {
                            std::thread::yield_now();
                        } else {
                            for _ in 0..(stall >> 40) % 256 {
                                std::hint::spin_loop();
                            }
                        }
                    }
                    for (&t, slot) in chunk.iter().zip(slots) {
                        runs[t].fetch_add(1, Ordering::Relaxed);
                        *slot = value(t);
                        *count += 1;
                    }
                },
            );
            let serial: Vec<usize> = tasks.iter().map(|&t| value(t)).collect();
            let tag = format!("seed {seed}: width {width}, grain {grain}, {n} tasks");
            assert_eq!(results, serial, "{tag}");
            for (t, r) in runs.iter().enumerate() {
                assert_eq!(r.load(Ordering::Relaxed), 1, "task {t} runs, {tag}");
            }
            assert_eq!(counts.iter().sum::<usize>(), n, "{tag}");
        }
    }
}
