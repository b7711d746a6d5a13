//! The sharded control-plane coordinator, adapting N scheduler shards to
//! the engine's single-`Provisioner` interface.
//!
//! A shard is plain data the coordinator owns: one full scheduler pipeline
//! plus its supervision state. Each slot runs in two phases:
//!
//! 1. **Propose (parallel).** The serving shards are the task list of one
//!    [`WorkerPool::run_chunks`] call — one participant per shard, the
//!    calling thread among them, so it runs a shard instead of sleeping
//!    until the others are done. Every shard reads the engine's fleet views
//!    in place: its [`SlotContext`] borrows `ctx.vms`
//!    unchanged and carries the shard's [`JobShare`], through which the
//!    pipelines walk only the running jobs the shard owns (see
//!    [`crate::shard`]). The call returns when every participant is done,
//!    so nothing outlives the borrow.
//! 2. **Arbitrate (sequential, deterministic).** The coordinator replays
//!    the proposals against the [`PlacementStore`] in a fixed order —
//!    allocation adjustments first (shrinks before grows, as the engine
//!    applies them), then placements round-robin by (proposal index,
//!    shard). Each placement is one fused commit
//!    ([`PlacementStore::try_fast_commit`]) on the VM its shard proposed.
//!    Only when the claim no longer fits there — an earlier claim this
//!    slot took the room — does it go through the full 2PC claim
//!    ([`TwoPhaseBackend`]) at the same arbitration position: the refused
//!    reservation is counted as a conflict, then the claim retries against
//!    the next-best-fit VM up to the retry budget, after which the
//!    proposal aborts and the job stays pending — the queue itself is the
//!    bounded backoff, since the owning shard re-proposes next slot. The
//!    committed sequence the store validated is exactly the sequence the
//!    engine will apply: a store-approved plan can never trip the engine's
//!    validators. At one shard a proposal only ever competes with its own
//!    shard's earlier ones, which the pipeline already debited, so every
//!    claim commits as proposed and reports stay byte-identical to the
//!    monolithic path.
//!
//! ## Supervision
//!
//! The coordinator assumes a shard can fail at any call: every call into a
//! pipeline runs under `catch_unwind`, and a scheduled [`ControlFaultPlan`]
//! can kill shards, drop requests, or delay replies deterministically. A
//! kill or a caught panic drops the shard's pipeline on the spot (it may
//! hold arbitrary state mid-panic); a dropped request is a slot the shard
//! is not asked about; a delayed reply is a slot the shard does run — its
//! predictor state advances — but whose plan arrives too late to be used.
//! Whenever a shard produces no usable plan for a slot the coordinator
//! schedules that shard's jobs *inline* with a conservative static-peak
//! pass (full-request first fit over the shard's pending jobs), merged at
//! the shard's own index so arbitration order is unchanged. Dead shards
//! are rebuilt after the slot from their [`ProvisionerFactory`] when one
//! was registered ([`ShardedProvisioner::with_factories`]); without a
//! factory the shard degrades to permanent inline scheduling and a typed
//! [`ClusterError`] is recorded. What supervision cannot do is time a
//! shard out: a pipeline that never returns blocks the slot, exactly as a
//! wedged monolithic pipeline blocks the engine.
//!
//! Determinism: proposal generation is per-shard deterministic (each shard
//! owns its RNG/predictor state, and which thread runs it changes
//! nothing), arbitration order is a pure function of (shard index,
//! proposal index), and fault injection follows a pre-computed plan — so
//! identical seeds and configs yield byte-identical reports at any shard
//! count, while the store itself stays fully thread-safe for genuinely
//! racing users.

use corp_core::pipeline::{per_task, PlacementBackend, WorkerPool, WorkerScratch};
use corp_faults::ControlFaultPlan;
use corp_sim::control_plane::{ControlPlaneStats, ShardStats};
use corp_sim::{
    JobCompletion, JobId, JobShare, PendingJobView, Placement, ProvisionPlan, Provisioner,
    ResourceVector, SlotContext, StaticPeakProvisioner,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::backend::TwoPhaseBackend;
use crate::error::ClusterError;
use crate::health::{ShardHealth, ShardSlotOutcome};
use crate::shard::{owner_of, shard_pending};
use crate::store::{FastPathMiss, PlacementStore};

/// Rebuilds one shard's scheduler pipeline after it dies.
pub type ProvisionerFactory = Box<dyn Fn() -> Box<dyn Provisioner + Send> + Send>;

/// Coordinator knobs.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Alternative-VM attempts after a placement's first reservation
    /// conflicts; past the budget the proposal aborts to the pending queue.
    pub max_retries: usize,
    /// Scheduled control-plane chaos (shard kills, request drops, reply
    /// delays); `None` runs fault-free.
    pub fault_plan: Option<ControlFaultPlan>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            max_retries: 3,
            fault_plan: None,
        }
    }
}

/// A shard's scheduler pipeline. The lock is never contended — one pool
/// participant per slot, or the coordinator between slots — and is there
/// only so the shards can be shared with the pool's threads.
type Pipeline = Mutex<Box<dyn Provisioner + Send>>;

/// Runs `call` on `pipeline`; `None` reports a caught panic, after which
/// the pipeline may hold arbitrary state and must be dropped.
fn guarded<R>(pipeline: &Pipeline, call: impl FnOnce(&mut dyn Provisioner) -> R) -> Option<R> {
    let mut pipeline = pipeline.lock();
    catch_unwind(AssertUnwindSafe(|| call(pipeline.as_mut()))).ok()
}

/// One scheduler shard: its pipeline and what the supervisor knows of it.
struct Shard {
    /// `None` while the shard is dead: killed or panicked and not yet
    /// rebuilt, or `failed` for good.
    pipeline: Option<Pipeline>,
    stats: ShardStats,
    /// Dead with no way back (no factory): the coordinator schedules this
    /// shard inline permanently.
    failed: bool,
    /// Rebuilds the pipeline after a death, when registered.
    factory: Option<ProvisionerFactory>,
    /// External supervisor (circuit breaker) holds this shard isolated:
    /// schedule it inline without running its pipeline.
    forced_inline: bool,
    /// What happened on the most recent provisioning slot.
    last_outcome: ShardSlotOutcome,
    /// The pipeline's [`Provisioner::full_view_period`]: the coordinator
    /// advertises the gcd of its shards' periods, so every shard still
    /// sees deep view histories exactly on its own window boundaries.
    view_period: u64,
}

/// Counters for the supervisor's recovery activity.
#[derive(Debug, Default, Clone)]
struct RecoveryCounters {
    worker_kills: u64,
    worker_panics: u64,
    worker_restarts: u64,
    inline_slots: u64,
    isolated_slots: u64,
    messages_dropped: u64,
    messages_delayed: u64,
}

/// N scheduler shards behind the engine's `Provisioner` interface (see
/// module docs).
pub struct ShardedProvisioner {
    name: String,
    shards: Vec<Shard>,
    config: ShardConfig,
    /// Built lazily from the first slot's fleet view.
    store: Option<PlacementStore>,
    max_queue_depth: usize,
    recovery: RecoveryCounters,
    errors: Vec<ClusterError>,
    /// Current brownout posture, re-applied to a shard rebuilt from its
    /// factory.
    service_level: u8,
    /// Slots where at least one placement did not fit the VM its shard
    /// proposed (a capacity conflict) and went through the full 2PC claim.
    fallback_rounds: u64,
    /// The threads that run shards next to the calling one, spawned on the
    /// first slot that serves more than one shard.
    pool: WorkerPool,
    /// The calling thread's (empty) state for [`WorkerPool::run_chunks`].
    scratch: WorkerScratch,
    /// Per-slot scratch for the store rebase (capacity/committed columns).
    rebase_scratch: (Vec<ResourceVector>, Vec<ResourceVector>),
}

impl ShardedProvisioner {
    /// Wraps `inners` (one per shard) under a display name of
    /// `"<base>x<shards>"`. Shards built this way cannot be rebuilt after a
    /// death (there is no factory); the shard degrades to inline
    /// scheduling instead. Prefer [`ShardedProvisioner::with_factories`]
    /// when running under fault injection.
    ///
    /// # Panics
    ///
    /// If `inners` is empty.
    pub fn new(
        base_name: &str,
        inners: Vec<Box<dyn Provisioner + Send>>,
        config: ShardConfig,
    ) -> Self {
        let shards = inners.into_iter().map(|inner| (inner, None)).collect();
        Self::build(base_name, shards, config)
    }

    /// Like [`ShardedProvisioner::new`], but each shard's pipeline comes
    /// from a factory the supervisor re-invokes to rebuild the shard after
    /// a crash. Factories must be deterministic (same pipeline every call)
    /// for fault-injected runs to replay byte-identically.
    ///
    /// # Panics
    ///
    /// If `factories` is empty.
    pub fn with_factories(
        base_name: &str,
        factories: Vec<ProvisionerFactory>,
        config: ShardConfig,
    ) -> Self {
        let shards = factories
            .into_iter()
            .map(|factory| (factory(), Some(factory)))
            .collect();
        Self::build(base_name, shards, config)
    }

    fn build(
        base_name: &str,
        shards: Vec<(Box<dyn Provisioner + Send>, Option<ProvisionerFactory>)>,
        config: ShardConfig,
    ) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        let shards: Vec<Shard> = shards
            .into_iter()
            .enumerate()
            .map(|(shard, (inner, factory))| Shard {
                view_period: inner.full_view_period().max(1),
                pipeline: Some(Mutex::new(inner)),
                stats: ShardStats {
                    shard,
                    ..Default::default()
                },
                failed: false,
                factory,
                forced_inline: false,
                last_outcome: ShardSlotOutcome::Idle,
            })
            .collect();
        ShardedProvisioner {
            name: format!("{}x{}", base_name, shards.len()),
            shards,
            config,
            store: None,
            max_queue_depth: 0,
            recovery: RecoveryCounters::default(),
            errors: Vec::new(),
            service_level: 0,
            fallback_rounds: 0,
            pool: WorkerPool::new(),
            scratch: WorkerScratch::new(),
            rebase_scratch: (Vec::new(), Vec::new()),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shared placement store (after the first slot).
    pub fn store(&self) -> Option<&PlacementStore> {
        self.store.as_ref()
    }

    /// Typed failures the supervisor recorded (unrecoverable shards).
    /// Recovered incidents appear only as counters in
    /// [`Provisioner::control_plane_stats`].
    pub fn errors(&self) -> &[ClusterError] {
        &self.errors
    }

    /// Per-shard supervision snapshots after the most recent slot — the
    /// feed an external circuit-breaker layer keys its state machine on.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardHealth {
                shard,
                alive: s.pipeline.is_some(),
                failed: s.failed,
                last_outcome: s.last_outcome,
            })
            .collect()
    }

    /// Isolates (or releases) one shard: while forced, the coordinator
    /// schedules the shard inline every slot *without* running its
    /// pipeline — the inline-fallback half of a circuit breaker's Open
    /// state. The pipeline stays (and keeps receiving completion
    /// notifications) so a later probe finds it warm.
    ///
    /// Out-of-range shard indices are ignored.
    pub fn set_forced_inline(&mut self, shard: usize, forced: bool) {
        if let Some(shard) = self.shards.get_mut(shard) {
            shard.forced_inline = forced;
        }
    }

    /// Runs `call` on the shard's pipeline between slots. A panic is a
    /// death: the pipeline is dropped there and then, so everything the
    /// shard is told until the next slot rebuilds it is counted as lost —
    /// the same on every run.
    fn notify(&mut self, shard: usize, call: impl FnOnce(&mut dyn Provisioner)) -> bool {
        let Some(pipeline) = &self.shards[shard].pipeline else {
            return false;
        };
        if guarded(pipeline, call).is_none() {
            self.shards[shard].pipeline = None;
            self.recovery.worker_panics += 1;
        }
        true
    }

    /// Rebuilds a dead shard's pipeline from its factory; without one the
    /// shard is marked permanently failed.
    fn restart(&mut self, shard: usize) {
        if self.shards[shard].failed {
            return;
        }
        let Some(inner) = self.shards[shard].factory.as_ref().map(|f| f()) else {
            self.shards[shard].failed = true;
            self.errors
                .push(ClusterError::WorkerUnrecoverable { shard });
            return;
        };
        let state = &mut self.shards[shard];
        state.view_period = inner.full_view_period().max(1);
        state.pipeline = Some(Mutex::new(inner));
        state.stats.restarts += 1;
        self.recovery.worker_restarts += 1;
        // A factory rebuild starts at full service; re-apply the
        // coordinator's current brownout posture.
        let level = self.service_level;
        if level != 0 {
            self.notify(shard, |p| p.set_service_level(level));
        }
    }

    /// Conservative coordinator-side plan for a shard that produced none:
    /// static-peak first fit of the shard's own pending jobs. Static peak
    /// reads nothing of a VM but its free capacity, so the engine's views
    /// pass through as they are. Full-peak allocations can never violate
    /// an SLO on their own, and the store still arbitrates them against
    /// every other shard's proposals.
    fn inline_plan(ctx: &SlotContext<'_>, shard: usize, num_shards: usize) -> ProvisionPlan {
        let my_pending = shard_pending(ctx.pending, shard, num_shards);
        StaticPeakProvisioner.provision(&shard_context(ctx, &my_pending, shard, num_shards))
    }

    /// Phase A: every serving shard proposes, in parallel, over the
    /// engine's views. Scheduled chaos is applied here; any shard without
    /// a usable plan is scheduled inline, and dead shards are rebuilt
    /// before returning.
    fn propose(&mut self, ctx: &SlotContext<'_>) -> Vec<ProvisionPlan> {
        let n = self.shards.len();
        self.max_queue_depth = self.max_queue_depth.max(ctx.pending.len());
        let mut depths = vec![0usize; n];
        for job in ctx.pending {
            depths[owner_of(job.id, n)] += 1;
        }
        for (shard, depth) in self.shards.iter_mut().zip(depths) {
            shard.stats.max_queue_depth = shard.stats.max_queue_depth.max(depth);
        }

        // Scheduled chaos for this slot. A killed shard loses its state
        // now and is rebuilt below, after the slot it misses.
        let faults = self.config.fault_plan.as_ref();
        for (shard, state) in self.shards.iter_mut().enumerate() {
            let killed = faults.is_some_and(|f| f.kill_scheduled(ctx.slot, shard));
            if killed && state.pipeline.take().is_some() {
                self.recovery.worker_kills += 1;
            }
        }

        // The serving shards are one pool call's task list: a participant
        // per shard, the calling thread one of them. The call returns only
        // when every participant is done, so nothing reads `ctx` after
        // `provision` returns.
        let mut serving: Vec<(usize, &Pipeline)> = Vec::with_capacity(n);
        for (shard, state) in self.shards.iter().enumerate() {
            // Breaker-isolated shards are not run at all: the whole point
            // of Open is not paying for the shard while it is sick.
            let Some(pipeline) = state.pipeline.as_ref().filter(|_| !state.forced_inline) else {
                continue;
            };
            if faults.is_some_and(|f| f.drop_scheduled(ctx.slot, shard)) {
                self.recovery.messages_dropped += 1;
                continue;
            }
            serving.push((shard, pipeline));
        }
        // `None` reports a caught panic.
        let mut replies: Vec<Option<ProvisionPlan>> = vec![None; serving.len()];
        if !serving.is_empty() {
            self.pool.run_chunks(
                &serving,
                &mut replies,
                serving.len(),
                1,
                &mut self.scratch,
                &|| (),
                &per_task(|&(shard, pipeline): &(usize, &Pipeline), _: &mut ()| {
                    let my_pending = shard_pending(ctx.pending, shard, n);
                    let ctx = shard_context(ctx, &my_pending, shard, n);
                    guarded(pipeline, |p| p.provision(&ctx))
                }),
                &|_| (),
            );
        }

        // Collect in shard order: a deterministic merge.
        let served: Vec<usize> = serving.iter().map(|&(shard, _)| shard).collect();
        let mut plans: Vec<Option<ProvisionPlan>> = vec![None; n];
        for (shard, reply) in served.into_iter().zip(replies) {
            if reply.is_none() {
                self.shards[shard].pipeline = None;
                self.recovery.worker_panics += 1;
            } else if faults.is_some_and(|f| f.delay_scheduled(ctx.slot, shard)) {
                // The shard ran the slot; its plan missed the deadline.
                self.recovery.messages_delayed += 1;
            } else {
                plans[shard] = reply;
            }
        }

        // Recovery: rebuild what died, schedule inline what is missing,
        // and record each shard's slot outcome for shard_health().
        for (shard, plan) in plans.iter_mut().enumerate() {
            if self.shards[shard].pipeline.is_none() {
                self.restart(shard);
            }
            let state = &mut self.shards[shard];
            if plan.is_some() {
                state.last_outcome = ShardSlotOutcome::Served;
            } else {
                if state.forced_inline {
                    state.stats.isolated_slots += 1;
                    self.recovery.isolated_slots += 1;
                    state.last_outcome = ShardSlotOutcome::Isolated;
                } else {
                    state.stats.inline_slots += 1;
                    self.recovery.inline_slots += 1;
                    state.last_outcome = ShardSlotOutcome::FellBack;
                }
                *plan = Some(Self::inline_plan(ctx, shard, n));
            }
        }
        plans.into_iter().map(Option::unwrap_or_default).collect()
    }

    /// Phase B: deterministic sequential arbitration of all proposals
    /// through the store.
    fn arbitrate(&mut self, ctx: &SlotContext<'_>, plans: Vec<ProvisionPlan>) -> ProvisionPlan {
        let Some(store) = self.store.as_ref() else {
            // Unreachable (provision initializes the store) but no panic:
            // an empty plan is always safe.
            return ProvisionPlan::default();
        };
        let mut merged = ProvisionPlan::default();

        // Adjustments: shrinks release capacity before grows claim it —
        // the same stable ordering the engine applies, so the store's
        // committed sequence previews the engine's exactly. The per-job
        // allocation map is only built when some plan actually proposes an
        // adjustment; pure-placement slots (the common case for
        // non-reallocating schemes) skip the fleet walk entirely.
        let all_adjustments: Vec<(usize, JobId, ResourceVector)> = plans
            .iter()
            .enumerate()
            .flat_map(|(s, plan)| {
                plan.adjustments
                    .iter()
                    .map(move |(job, alloc)| (s, *job, *alloc))
            })
            .collect();
        if !all_adjustments.is_empty() {
            // Current allocations of running jobs, for adjustment rebasing.
            let current: HashMap<JobId, (usize, ResourceVector)> = ctx
                .vms
                .iter()
                .flat_map(|vm| vm.jobs.iter().map(|j| (j.id, (vm.id, j.allocation))))
                .collect();
            let is_shrink = |job: &JobId, new: &ResourceVector| {
                current
                    .get(job)
                    .map(|(_, old)| new.fits_within(old))
                    .unwrap_or(false)
            };
            let (shrinks, grows): (Vec<_>, Vec<_>) = all_adjustments
                .into_iter()
                .partition(|(_, job, new)| is_shrink(job, new));
            for (shard, job, new) in shrinks.into_iter().chain(grows) {
                if owner_of(job, plans.len()) != shard {
                    // Nothing but convention keeps a pipeline that reads
                    // the whole fleet's views off another shard's jobs.
                    self.shards[shard].stats.conflicts += 1;
                    continue;
                }
                let Some(&(vm, old)) = current.get(&job) else {
                    self.shards[shard].stats.conflicts += 1;
                    continue;
                };
                if !new.is_finite() {
                    // A poisoned pipeline may propose NaN; the engine would
                    // drop it anyway, but refusing here keeps the store's
                    // committed preview authoritative.
                    self.shards[shard].stats.conflicts += 1;
                    continue;
                }
                if store.adjust(vm, old, new) {
                    merged.adjustments.push((job, new));
                } else {
                    self.shards[shard].stats.conflicts += 1;
                }
            }
        }

        // Placements: round-robin by (proposal index, shard). Each claim is
        // one fused commit on its proposed VM; a claim that no longer fits
        // there goes, at the same canonical position, through a full 2PC
        // claim on the same `PlacementBackend` stage contract the
        // monolithic pipelines place through, which counts the conflict
        // and retries onto the best-fit VM within the retry budget.
        let pending_ids: HashSet<JobId> = ctx.pending.iter().map(|j| j.id).collect();
        let mut placed: HashSet<JobId> = HashSet::new();
        let mut backend = TwoPhaseBackend::new(store, self.config.max_retries);
        // The trait threads an RNG for randomized selectors; 2PC claims
        // are deterministic and never draw from it.
        let mut rng = StdRng::seed_from_u64(0);
        let mut fell_back = false;
        let deepest = plans.iter().map(|p| p.placements.len()).max().unwrap_or(0);
        for index in 0..deepest {
            for (shard, plan) in plans.iter().enumerate() {
                let Some(p) = plan.placements.get(index) else {
                    continue;
                };
                let stats = &mut self.shards[shard].stats;
                stats.proposals += 1;
                if !pending_ids.contains(&p.job)
                    || placed.contains(&p.job)
                    || owner_of(p.job, plans.len()) != shard
                {
                    continue; // not placeable: duplicate, unknown or foreign job
                }
                if !p.allocation.is_finite() {
                    stats.aborts += 1;
                    continue;
                }
                let alloc = p.allocation.clamp_nonnegative();
                let committed_vm = match store.try_fast_commit(shard, p.vm, alloc) {
                    Ok(()) => Some(p.vm),
                    Err(FastPathMiss::UnknownVm) => None,
                    Err(FastPathMiss::Conflict) => {
                        fell_back = true;
                        let claim =
                            backend.choose(&[], &alloc, Some(p.vm), &ctx.max_vm_capacity, &mut rng);
                        stats.conflicts += claim.conflicts;
                        stats.retries += claim.retries;
                        claim.vm
                    }
                };
                match committed_vm {
                    Some(vm) => {
                        stats.commits += 1;
                        placed.insert(p.job);
                        merged.placements.push(Placement {
                            job: p.job,
                            vm,
                            allocation: alloc,
                        });
                    }
                    None => stats.aborts += 1,
                }
            }
        }
        if fell_back {
            self.fallback_rounds += 1;
        }

        for plan in plans {
            merged.predictions.extend(plan.predictions);
        }
        merged
    }
}

impl Provisioner for ShardedProvisioner {
    fn name(&self) -> &str {
        &self.name
    }

    fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
        let (capacities, committed) = &mut self.rebase_scratch;
        capacities.clear();
        capacities.extend(ctx.vms.iter().map(|vm| vm.capacity));
        committed.clear();
        committed.extend(ctx.vms.iter().map(|vm| vm.committed));
        let store = self
            .store
            .get_or_insert_with(|| PlacementStore::new(capacities.clone()));
        // Re-basing capacities every slot tracks crashed VMs (whose view
        // capacity is zero) leaving and rejoining the fleet.
        store.begin_slot_full(capacities, committed);
        let plans = self.propose(ctx);
        self.arbitrate(ctx, plans)
    }

    fn full_view_period(&self) -> u64 {
        // The gcd of the shards' periods: every shard still receives deep
        // view histories on (at least) its own window boundaries, while
        // off-period slots skip the engine's deep history copies.
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        self.shards
            .iter()
            .map(|s| s.view_period)
            .fold(0, gcd)
            .max(1)
    }

    fn on_job_completed(&mut self, job: JobId, unused_history: &[Vec<f64>]) {
        let owner = owner_of(job, self.shards.len());
        if !self.notify(owner, |p| p.on_job_completed(job, unused_history)) {
            self.recovery.messages_dropped += 1;
        }
    }

    fn on_jobs_completed(&mut self, completed: &[JobCompletion]) {
        // Each completion goes to its owning shard by reference, in
        // completion order — the per-job sequence a monolithic pipeline
        // sees — and before the next `provision`, as the engine orders the
        // calls. A dead shard's corpus misses the slot's samples (it is
        // rebuilt on the next provision call); that is one lost message
        // per shard per slot, however many jobs it held.
        let n = self.shards.len();
        let mut lost = vec![false; n];
        for c in completed {
            let owner = owner_of(c.job, n);
            if !self.notify(owner, |p| p.on_jobs_completed(std::slice::from_ref(c))) {
                lost[owner] = true;
            }
        }
        self.recovery.messages_dropped += lost.iter().filter(|&&l| l).count() as u64;
    }

    fn set_service_level(&mut self, level: u8) {
        if self.service_level == level {
            return;
        }
        self.service_level = level;
        // Applied before the next `provision`, so every shard sees the
        // posture change at the same slot; a dead shard gets the current
        // level when its factory rebuilds it.
        for shard in 0..self.shards.len() {
            self.notify(shard, |p| p.set_service_level(level));
        }
    }

    fn control_plane_stats(&self) -> Option<ControlPlaneStats> {
        let counters = self
            .store
            .as_ref()
            .map(|s| s.counters())
            .unwrap_or_default();
        Some(ControlPlaneStats {
            shards: self.shards.len(),
            reservations: counters.reservations,
            commits: counters.commits,
            conflicts: counters.conflicts,
            aborts: counters.aborts,
            retries: self.shards.iter().map(|s| s.stats.retries).sum(),
            fast_path_hits: counters.fast_commits,
            fallback_rounds: self.fallback_rounds,
            // Nothing counts here any more; the field stays until
            // `benchmark/` stops reading it (see its doc in corp-sim).
            stripe_conflicts: 0,
            max_queue_depth: self.max_queue_depth,
            worker_kills: self.recovery.worker_kills,
            worker_panics: self.recovery.worker_panics,
            worker_restarts: self.recovery.worker_restarts,
            inline_slots: self.recovery.inline_slots,
            messages_dropped: self.recovery.messages_dropped,
            messages_delayed: self.recovery.messages_delayed,
            // Nothing to time out: shards run inside the slot's pool
            // call, which returns when they do (see the field's doc).
            recv_timeouts: 0,
            isolated_slots: self.recovery.isolated_slots,
            breaker_opens: 0,
            breaker_half_opens: 0,
            breaker_closes: 0,
            breaker_transitions: Vec::new(),
            per_shard: self.shards.iter().map(|s| s.stats.clone()).collect(),
        })
    }
}

/// The slot as shard `shard` of `num_shards` reads it: the engine's views
/// in place, its own pending jobs, and its share of the running ones.
fn shard_context<'a>(
    ctx: &SlotContext<'a>,
    pending: &'a [PendingJobView],
    shard: usize,
    num_shards: usize,
) -> SlotContext<'a> {
    SlotContext {
        slot: ctx.slot,
        vms: ctx.vms,
        pending,
        max_vm_capacity: ctx.max_vm_capacity,
        share: JobShare {
            shard,
            of: num_shards,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corp_core::most_matched_vm;
    use corp_faults::SlotShard;
    use corp_sim::{PendingJobView, RunningJobView, StaticPeakProvisioner, VmView};
    use rand::Rng;

    fn rv(v: f64) -> ResourceVector {
        ResourceVector::splat(v)
    }

    fn fleet(free: &[f64]) -> Vec<VmView> {
        free.iter()
            .enumerate()
            .map(|(id, &f)| VmView {
                id,
                capacity: rv(4.0),
                committed: rv(4.0) - rv(f),
                free: rv(f),
                jobs: Vec::new(),
                unused_history: Vec::new(),
            })
            .collect()
    }

    fn slot_ctx<'a>(
        slot: u64,
        vms: &'a [VmView],
        pending: &'a [PendingJobView],
    ) -> SlotContext<'a> {
        SlotContext {
            slot,
            vms,
            pending,
            max_vm_capacity: rv(4.0),
            share: JobShare::ALL,
        }
    }

    fn job(id: JobId, req: f64) -> PendingJobView {
        PendingJobView {
            id,
            requested: rv(req),
            arrival_slot: 0,
            slo_slots: 10,
        }
    }

    fn sharded(n: usize) -> ShardedProvisioner {
        let inners: Vec<Box<dyn Provisioner + Send>> = (0..n)
            .map(|_| Box::new(StaticPeakProvisioner) as _)
            .collect();
        ShardedProvisioner::new("static-peak", inners, ShardConfig::default())
    }

    fn sharded_with_plan(n: usize, fault_plan: ControlFaultPlan) -> ShardedProvisioner {
        let factories: Vec<ProvisionerFactory> = (0..n)
            .map(|_| {
                Box::new(|| Box::new(StaticPeakProvisioner) as Box<dyn Provisioner + Send>) as _
            })
            .collect();
        ShardedProvisioner::with_factories(
            "static-peak",
            factories,
            ShardConfig {
                fault_plan: Some(fault_plan),
                ..ShardConfig::default()
            },
        )
    }

    #[test]
    fn racing_shards_never_overcommit_a_vm() {
        // One VM with room for exactly two unit jobs; four shards each
        // propose their own job for it (static-peak first-fit all pick VM
        // 0). The store must admit exactly two and abort the rest.
        let vms = fleet(&[2.0]);
        let pending: Vec<PendingJobView> = (0..4).map(|i| job(i, 1.0)).collect();
        let ctx = slot_ctx(0, &vms, &pending);
        let mut p = sharded(4);
        let plan = p.provision(&ctx);
        assert_eq!(plan.placements.len(), 2, "{plan:?}");
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.commits, 2);
        assert!(stats.conflicts >= 2, "{stats:?}");
        assert!(p.store().unwrap().holds_invariants(1e-9));
    }

    #[test]
    fn conflicting_placements_retry_onto_best_fit_vm() {
        // VM 0 fits one unit job; VM 1 is wide open. Both shards propose
        // VM 0 (first fit); the loser must land on VM 1 via retry, and the
        // tighter VM is preferred when several fit.
        let vms = fleet(&[1.0, 4.0]);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        let ctx = slot_ctx(0, &vms, &pending);
        let mut p = sharded(2);
        let plan = p.provision(&ctx);
        assert_eq!(plan.placements.len(), 2, "{plan:?}");
        let vms_used: Vec<usize> = plan.placements.iter().map(|pl| pl.vm).collect();
        assert_eq!(vms_used, vec![0, 1], "loser retried onto VM 1: {plan:?}");
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.retries, 1, "{stats:?}");
        assert_eq!(stats.commits, 2);
    }

    #[test]
    fn retry_budget_bounds_attempts_and_aborts_to_pending() {
        // One VM with room for one job, two shards each proposing theirs.
        // The loser's reservation conflicts and best-fit finds no
        // alternative, so it aborts immediately instead of burning the
        // whole retry budget on hopeless VMs; its job stays pending.
        let vms = fleet(&[1.0]);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        let ctx = slot_ctx(0, &vms, &pending);
        let mut p = sharded(2);
        let plan = p.provision(&ctx);
        assert_eq!(plan.placements.len(), 1);
        let stats = p.control_plane_stats().unwrap();
        let aborted: u64 = stats.per_shard.iter().map(|s| s.aborts).sum();
        assert_eq!(aborted, 1, "{stats:?}");
        assert_eq!(stats.retries, 0, "no fitting alternative, no retry");
        assert_eq!(stats.commits, 1);
    }

    #[test]
    fn single_shard_passes_plans_through_unchanged() {
        let vms = fleet(&[4.0, 4.0]);
        let pending = vec![job(0, 1.0), job(1, 2.0)];
        let ctx = slot_ctx(0, &vms, &pending);
        let mut baseline = StaticPeakProvisioner;
        let expected = baseline.provision(&ctx);
        let mut p = sharded(1);
        let got = p.provision(&ctx);
        assert_eq!(got.placements, expected.placements);
        assert_eq!(p.name(), "static-peakx1");
    }

    #[test]
    fn queue_depths_track_the_deepest_slot() {
        let vms = fleet(&[4.0]);
        let pending: Vec<PendingJobView> = (0..3).map(|i| job(i, 0.5)).collect();
        let ctx = slot_ctx(0, &vms, &pending);
        let mut p = sharded(2);
        let _ = p.provision(&ctx);
        let empty: Vec<PendingJobView> = Vec::new();
        let ctx2 = slot_ctx(1, &vms, &empty);
        let _ = p.provision(&ctx2);
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.max_queue_depth, 3);
        // Jobs 0 and 2 belong to shard 0; job 1 to shard 1.
        assert_eq!(stats.per_shard[0].max_queue_depth, 2);
        assert_eq!(stats.per_shard[1].max_queue_depth, 1);
    }

    #[test]
    fn killed_worker_is_restarted_and_its_slot_scheduled_inline() {
        let plan = ControlFaultPlan::new(vec![SlotShard { slot: 0, shard: 1 }], vec![], vec![]);
        let mut p = sharded_with_plan(2, plan);
        let vms = fleet(&[4.0, 4.0]);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        let ctx = slot_ctx(0, &vms, &pending);
        let got = p.provision(&ctx);
        // Both jobs place: shard 0 via its worker, shard 1 inline.
        assert_eq!(got.placements.len(), 2, "{got:?}");
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.worker_kills, 1, "{stats:?}");
        assert_eq!(stats.worker_restarts, 1, "{stats:?}");
        assert_eq!(stats.inline_slots, 1, "{stats:?}");
        assert_eq!(stats.per_shard[1].restarts, 1);
        assert_eq!(stats.per_shard[1].inline_slots, 1);
        // The restarted worker serves the next slot normally.
        let ctx2 = slot_ctx(1, &vms, &pending);
        let again = p.provision(&ctx2);
        assert_eq!(again.placements.len(), 2, "{again:?}");
        assert_eq!(p.control_plane_stats().unwrap().inline_slots, 1);
        assert!(p.errors().is_empty(), "recovered without typed errors");
    }

    #[test]
    fn panicking_worker_is_caught_restarted_and_replaced_inline() {
        /// Panics the first time it is asked to provision; fine after a
        /// factory rebuild (the panic trigger is per-instance state).
        struct PanicOnce {
            armed: bool,
        }
        impl Provisioner for PanicOnce {
            fn name(&self) -> &str {
                "panic-once"
            }
            fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
                if self.armed && ctx.slot == 0 {
                    panic!("injected pipeline panic");
                }
                let mut inner = StaticPeakProvisioner;
                inner.provision(ctx)
            }
        }
        // Only the factory's first product is armed: the rebuilt instance
        // behaves, proving recovery rather than a crash loop.
        let factories: Vec<ProvisionerFactory> = {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let calls = std::sync::Arc::new(AtomicUsize::new(0));
            vec![
                Box::new(|| Box::new(StaticPeakProvisioner) as _),
                Box::new(move || {
                    let n = calls.fetch_add(1, Ordering::SeqCst);
                    Box::new(PanicOnce { armed: n == 0 }) as _
                }),
            ]
        };
        let mut p =
            ShardedProvisioner::with_factories("static-peak", factories, ShardConfig::default());
        let vms = fleet(&[4.0, 4.0]);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        let ctx = slot_ctx(0, &vms, &pending);
        let got = p.provision(&ctx);
        assert_eq!(got.placements.len(), 2, "inline covers the panic: {got:?}");
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.worker_panics, 1, "{stats:?}");
        assert_eq!(stats.worker_restarts, 1, "{stats:?}");
        // Next slot, the rebuilt worker answers for itself.
        let ctx2 = slot_ctx(1, &vms, &pending);
        let again = p.provision(&ctx2);
        assert_eq!(again.placements.len(), 2, "{again:?}");
        assert_eq!(p.control_plane_stats().unwrap().inline_slots, 1);
    }

    #[test]
    fn dropped_requests_and_delayed_replies_fall_back_inline() {
        let plan = ControlFaultPlan::new(
            vec![],
            vec![SlotShard { slot: 0, shard: 0 }],
            vec![SlotShard { slot: 1, shard: 1 }],
        );
        let mut p = sharded_with_plan(2, plan);
        let vms = fleet(&[4.0, 4.0]);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        for slot in 0..3u64 {
            let ctx = slot_ctx(slot, &vms, &pending);
            let got = p.provision(&ctx);
            assert_eq!(got.placements.len(), 2, "slot {slot}: {got:?}");
        }
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.messages_dropped, 1, "{stats:?}");
        assert_eq!(stats.messages_delayed, 1, "{stats:?}");
        assert_eq!(stats.inline_slots, 2, "{stats:?}");
        // Neither fault killed the worker: no restarts, and the stale
        // delayed reply was discarded by its slot tag, not misapplied.
        assert_eq!(stats.worker_restarts, 0, "{stats:?}");
        assert!(p.errors().is_empty());
    }

    #[test]
    fn factoryless_worker_death_degrades_to_permanent_inline() {
        let plan = ControlFaultPlan::new(vec![SlotShard { slot: 0, shard: 0 }], vec![], vec![]);
        let inners: Vec<Box<dyn Provisioner + Send>> = (0..2)
            .map(|_| Box::new(StaticPeakProvisioner) as _)
            .collect();
        let mut p = ShardedProvisioner::new(
            "static-peak",
            inners,
            ShardConfig {
                fault_plan: Some(plan),
                ..ShardConfig::default()
            },
        );
        let vms = fleet(&[4.0, 4.0]);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        for slot in 0..3u64 {
            let ctx = slot_ctx(slot, &vms, &pending);
            let got = p.provision(&ctx);
            assert_eq!(got.placements.len(), 2, "slot {slot}: {got:?}");
        }
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.worker_kills, 1);
        assert_eq!(stats.worker_restarts, 0, "no factory, no rebirth");
        assert_eq!(stats.inline_slots, 3, "shard 0 inline every slot");
        assert_eq!(
            p.errors(),
            &[ClusterError::WorkerUnrecoverable { shard: 0 }],
            "typed error recorded exactly once"
        );
    }

    #[test]
    fn forced_inline_isolates_a_shard_without_failure_accounting() {
        let mut p = sharded(2);
        let vms = fleet(&[4.0, 4.0]);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        p.set_forced_inline(1, true);
        for slot in 0..2u64 {
            let ctx = slot_ctx(slot, &vms, &pending);
            let got = p.provision(&ctx);
            assert_eq!(got.placements.len(), 2, "isolated shard places inline");
        }
        let health = p.shard_health();
        assert_eq!(health[0].last_outcome, ShardSlotOutcome::Served);
        assert_eq!(health[1].last_outcome, ShardSlotOutcome::Isolated);
        assert!(health[1].alive, "isolation never kills the worker");
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.isolated_slots, 2);
        assert_eq!(stats.per_shard[1].isolated_slots, 2);
        assert_eq!(stats.inline_slots, 0, "isolation is not a failure");
        // Release: the worker serves again immediately.
        p.set_forced_inline(1, false);
        let ctx = slot_ctx(2, &vms, &pending);
        let _ = p.provision(&ctx);
        assert_eq!(
            p.shard_health()[1].last_outcome,
            ShardSlotOutcome::Served,
            "released shard serves from its (still warm) worker"
        );
    }

    #[test]
    fn nonfinite_proposals_are_refused_in_arbitration() {
        /// Proposes a NaN allocation for every pending job.
        struct NanPlacer;
        impl Provisioner for NanPlacer {
            fn name(&self) -> &str {
                "nan-placer"
            }
            fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
                let mut plan = ProvisionPlan::default();
                for j in ctx.pending {
                    plan.placements.push(Placement {
                        job: j.id,
                        vm: 0,
                        allocation: ResourceVector::splat(f64::NAN),
                    });
                }
                plan
            }
        }
        let mut p = ShardedProvisioner::new(
            "nan",
            vec![Box::new(NanPlacer) as _],
            ShardConfig::default(),
        );
        let vms = fleet(&[4.0]);
        let pending = vec![job(0, 1.0)];
        let ctx = slot_ctx(0, &vms, &pending);
        let got = p.provision(&ctx);
        assert!(got.placements.is_empty(), "{got:?}");
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.per_shard[0].aborts, 1, "{stats:?}");
        assert!(p.store().unwrap().holds_invariants(1e-9));
    }

    proptest::proptest! {
        #[test]
        fn inline_plans_place_as_a_first_fit_over_a_copy_of_the_fleet(
            // Half units of free capacity per VM, and of request per job.
            free in proptest::collection::vec(0u8..=8, 1..40),
            requests in proptest::collection::vec(1u8..=8, 0..30),
            num_shards in 1usize..5,
        ) {
            let free: Vec<f64> = free.into_iter().map(|f| f64::from(f) * 0.5).collect();
            let vms = fleet(&free);
            let pending: Vec<PendingJobView> = requests
                .iter()
                .enumerate()
                .map(|(id, &r)| job(id as JobId, f64::from(r) * 0.5))
                .collect();
            let ctx = slot_ctx(0, &vms, &pending);
            for shard in 0..num_shards {
                // What static peak did before it stopped copying the
                // fleet: every job scans a full copy of the pools.
                let mut pools: Vec<ResourceVector> = vms.iter().map(|v| v.free).collect();
                let mut expected = Vec::new();
                for j in shard_pending(&pending, shard, num_shards) {
                    if let Some(vm) = pools.iter().position(|p| j.requested.fits_within(p)) {
                        pools[vm] -= j.requested;
                        expected.push(Placement { job: j.id, vm, allocation: j.requested });
                    }
                }
                let plan = ShardedProvisioner::inline_plan(&ctx, shard, num_shards);
                proptest::prop_assert_eq!(plan.placements, expected);
            }
        }
    }

    #[test]
    fn shards_read_the_engines_views_in_place() {
        type Seen = (u64, usize, JobShare);
        /// Records where the views it is shown live, and which share of
        /// them it is told it owns.
        struct Recorder(std::sync::Arc<std::sync::Mutex<Vec<Seen>>>);
        impl Provisioner for Recorder {
            fn name(&self) -> &str {
                "recorder"
            }
            fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
                let seen = (ctx.slot, ctx.vms.as_ptr() as usize, ctx.share);
                self.0.lock().unwrap().push(seen);
                ProvisionPlan::default()
            }
        }
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let inners: Vec<Box<dyn Provisioner + Send>> = (0..3)
            .map(|_| Box::new(Recorder(log.clone())) as _)
            .collect();
        let mut p = ShardedProvisioner::new("recorder", inners, ShardConfig::default());
        let vms = fleet(&[4.0, 4.0]);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        for slot in 0..3u64 {
            let _ = p.provision(&slot_ctx(slot, &vms, &pending));
        }
        let mut seen = log.lock().unwrap().clone();
        seen.sort_by_key(|&(slot, _, share)| (slot, share.shard));
        let handed = vms.as_ptr() as usize;
        let expected: Vec<Seen> = (0..3u64)
            .flat_map(|slot| (0..3).map(move |shard| (slot, shard)))
            .map(|(slot, shard)| (slot, handed, JobShare { shard, of: 3 }))
            .collect();
        assert_eq!(
            seen, expected,
            "every shard, every slot: the caller's own views"
        );
    }

    #[test]
    fn a_shard_that_panics_in_a_callback_is_dead_there_and_then() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// Static peak that counts the completions it is told of and
        /// panics on job 1's.
        struct Trapped(std::sync::Arc<AtomicUsize>);
        impl Provisioner for Trapped {
            fn name(&self) -> &str {
                "trapped"
            }
            fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
                StaticPeakProvisioner.provision(ctx)
            }
            fn on_job_completed(&mut self, job: JobId, _: &[Vec<f64>]) {
                assert_ne!(job, 1, "injected callback panic");
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let told = std::sync::Arc::new(AtomicUsize::new(0));
        let factories: Vec<ProvisionerFactory> = (0..2)
            .map(|_| {
                let told = told.clone();
                Box::new(move || Box::new(Trapped(told.clone())) as Box<dyn Provisioner + Send>)
                    as _
            })
            .collect();
        let mut p =
            ShardedProvisioner::with_factories("trapped", factories, ShardConfig::default());
        let done = |job: JobId| JobCompletion {
            job,
            unused_history: Vec::new(),
        };
        // Shard 1 owns jobs 1, 3 and 5: it dies on the first, so the rest
        // of its batch is lost with it; shard 0 hears of jobs 2 and 4.
        p.on_jobs_completed(&[done(1), done(2), done(3), done(4)]);
        assert_eq!(told.load(Ordering::SeqCst), 2);
        assert!(!p.shard_health()[1].alive, "dead before the next slot");
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(
            (stats.worker_panics, stats.messages_dropped),
            (1, 1),
            "{stats:?}"
        );
        // Still dead for the next batch: one more lost message, whatever
        // it held.
        p.on_jobs_completed(&[done(3), done(5)]);
        assert_eq!(p.control_plane_stats().unwrap().messages_dropped, 2);
        // The next slot misses the shard (scheduled inline) and rebuilds it.
        let vms = fleet(&[4.0, 4.0]);
        let pending = vec![job(6, 1.0), job(7, 1.0)];
        let got = p.provision(&slot_ctx(0, &vms, &pending));
        assert_eq!(got.placements.len(), 2, "{got:?}");
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(
            (stats.worker_restarts, stats.inline_slots),
            (1, 1),
            "{stats:?}"
        );
        assert!(p.shard_health()[1].alive);
        p.on_jobs_completed(&[done(3)]);
        assert_eq!(told.load(Ordering::SeqCst), 3, "the rebuilt shard listens");
        assert_eq!(p.control_plane_stats().unwrap().messages_dropped, 2);
    }

    // ---- differential test: store + arbiter against a plain vector ----

    /// A shard that proposes whatever its script says for the slot, valid
    /// or not.
    struct Scripted(Vec<ProvisionPlan>);

    impl Provisioner for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
            self.0[ctx.slot as usize].clone()
        }
    }

    #[test]
    fn proposals_for_another_shards_jobs_are_refused_in_arbitration() {
        // Running job 1000 and pending job 0 are even: shard 0's. Shard 1
        // reads the same views and proposes for both anyway.
        let mut vms = fleet(&[3.0]);
        vms[0].jobs.push(RunningJobView {
            id: 1_000,
            requested: rv(1.0),
            allocation: rv(1.0),
            recent_demand: Vec::new(),
            recent_unused: Vec::new(),
        });
        let trespass = ProvisionPlan {
            adjustments: vec![(1_000, rv(0.5))],
            placements: vec![Placement {
                job: 0,
                vm: 0,
                allocation: rv(1.0),
            }],
            predictions: Vec::new(),
        };
        let scripts = [ProvisionPlan::default(), trespass];
        let inners: Vec<Box<dyn Provisioner + Send>> = scripts
            .into_iter()
            .map(|plan| Box::new(Scripted(vec![plan])) as _)
            .collect();
        let mut p = ShardedProvisioner::new("scripted", inners, ShardConfig::default());
        let pending = vec![job(0, 1.0)];
        let got = p.provision(&slot_ctx(0, &vms, &pending));
        assert!(got.adjustments.is_empty(), "{got:?}");
        assert!(got.placements.is_empty(), "{got:?}");
        let stats = p.control_plane_stats().unwrap();
        let shard = &stats.per_shard[1];
        assert_eq!(shard.conflicts, 1, "the adjustment, as an unknown job's");
        assert_eq!((shard.proposals, shard.commits, shard.aborts), (1, 0, 0));
        assert_eq!(stats.commits, 0, "nothing reached the store: {stats:?}");
    }

    /// The obviously correct arbiter `provision` must agree with: headrooms
    /// in a plain vector, shrinks before grows, then placements round-robin
    /// — committed where proposed if that fits, else on the linear
    /// smallest-volume scan's VM (one claim at a time, a VM the scan finds
    /// never needs a second retry). Adds each shard's `[commits, conflicts,
    /// retries, aborts]` to `tally`.
    fn reference_arbiter(
        ctx: &SlotContext<'_>,
        plans: &[ProvisionPlan],
        max_retries: usize,
        tally: &mut [[u64; 4]],
    ) -> ProvisionPlan {
        let mut free: Vec<_> = ctx.vms.iter().map(|v| v.capacity - v.committed).collect();
        let running: HashMap<JobId, (usize, ResourceVector)> = ctx
            .vms
            .iter()
            .flat_map(|vm| vm.jobs.iter().map(|j| (j.id, (vm.id, j.allocation))))
            .collect();
        let owns = |shard: usize, job: JobId| job % plans.len() as u64 == shard as u64;
        let mut merged = ProvisionPlan::default();
        for shrinks in [true, false] {
            for (shard, plan) in plans.iter().enumerate() {
                for &(job, new) in &plan.adjustments {
                    let current = running.get(&job);
                    if current.is_some_and(|(_, old)| new.fits_within(old)) != shrinks {
                        continue;
                    }
                    match current {
                        Some(&(vm, old))
                            if owns(shard, job)
                                && new.is_finite()
                                && new.fits_within(&(free[vm] + old)) =>
                        {
                            free[vm] = free[vm] + old - new;
                            merged.adjustments.push((job, new));
                        }
                        _ => tally[shard][1] += 1,
                    }
                }
            }
        }
        let deepest = plans.iter().map(|p| p.placements.len()).max().unwrap_or(0);
        for index in 0..deepest {
            for (shard, plan) in plans.iter().enumerate() {
                let Some(p) = plan.placements.get(index) else {
                    continue;
                };
                let placed = merged.placements.iter().any(|m| m.job == p.job);
                if placed || !owns(shard, p.job) || !ctx.pending.iter().any(|j| j.id == p.job) {
                    continue;
                }
                let allocation = p.allocation.clamp_nonnegative();
                let mut vm = Some(p.vm).filter(|&vm| p.allocation.is_finite() && vm < free.len());
                if vm.is_some_and(|vm| !allocation.fits_within(&free[vm])) {
                    tally[shard][1] += 1;
                    vm = most_matched_vm(&free, &allocation, &ctx.max_vm_capacity)
                        .filter(|_| max_retries > 0);
                    tally[shard][2] += u64::from(vm.is_some());
                }
                tally[shard][if vm.is_some() { 0 } else { 3 }] += 1;
                if let Some(vm) = vm {
                    free[vm] -= allocation;
                    merged.placements.push(Placement {
                        vm,
                        allocation,
                        ..p.clone()
                    });
                }
            }
        }
        merged
    }

    /// Whole quarters per resource, none above `max`: every sum and
    /// difference in either arbiter is then exact.
    fn quarters(rng: &mut StdRng, max: ResourceVector) -> ResourceVector {
        let draw = |m: f64| f64::from(rng.gen_range(0..=(m * 4.0) as u32)) * 0.25;
        ResourceVector::new(max.as_array().map(draw))
    }

    /// One random slot: a fleet of uneven headroom (some VMs full) with
    /// running jobs, a pending queue, and per-shard plans drawn to include
    /// everything arbitration must refuse — duplicate and non-pending
    /// jobs, NaN and negative allocations, unknown and full VMs, grows
    /// listed before the shrinks that make room for them, unknown jobs,
    /// and one proposal in five from a shard that does not own the job.
    fn random_slot(
        rng: &mut StdRng,
        shards: usize,
        num_vms: usize,
    ) -> (Vec<VmView>, Vec<PendingJobView>, Vec<ProvisionPlan>) {
        let mut plans = vec![ProvisionPlan::default(); shards];
        let mut vms = fleet(&vec![4.0; num_vms]);
        let mut next_running: JobId = 1_000;
        for vm in &mut vms {
            for _ in 0..rng.gen_range(0..=3usize) {
                let allocation = if rng.gen_bool(0.2) {
                    vm.free // fills the VM
                } else {
                    quarters(rng, vm.free.scaled(0.5))
                };
                vm.free -= allocation;
                vm.committed += allocation;
                vm.jobs.push(RunningJobView {
                    id: next_running,
                    requested: allocation,
                    allocation,
                    recent_demand: Vec::new(),
                    recent_unused: Vec::new(),
                });
                next_running += 1;
                let new = match rng.gen_range(0..10u32) {
                    0..=2 => quarters(rng, allocation),
                    3..=5 => allocation + quarters(rng, rv(1.5)),
                    6 => rv(f64::NAN),
                    _ => continue,
                };
                let job = next_running - 1;
                let proposer = if rng.gen_bool(0.8) {
                    owner_of(job, shards)
                } else {
                    rng.gen_range(0..shards)
                };
                plans[proposer].adjustments.push((job, new));
            }
        }
        let num_pending = rng.gen_range(4..=16u64);
        for (shard, plan) in plans.iter_mut().enumerate() {
            if rng.gen_bool(0.3) {
                plan.adjustments.push((9_000, rv(1.0))); // no such running job
            }
            for _ in 0..rng.gen_range(0..=10usize) {
                let allocation = match rng.gen_range(0..10u32) {
                    0 => rv(f64::NAN),
                    1 => quarters(rng, rv(1.5)) - rv(0.25),
                    _ => quarters(rng, rv(1.5)),
                };
                // Past `num_pending` a job is not pending.
                let mut job = rng.gen_range(0..num_pending + 3);
                if rng.gen_bool(0.8) {
                    job = job - job % shards as u64 + shard as u64; // one of the shard's own
                }
                plan.placements.push(Placement {
                    job,
                    vm: rng.gen_range(0..num_vms + 2), // the last two do not exist
                    allocation,
                });
            }
        }
        let pending = (0..num_pending).map(|id| job(id, 1.0)).collect();
        (vms, pending, plans)
    }

    #[test]
    fn arbitration_matches_a_plain_vector_reference_arbiter() {
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let shards = rng.gen_range(2..=4usize);
            let num_vms = rng.gen_range(4..=12usize);
            let max_retries = rng.gen_range(0..=3usize);
            let slots: Vec<_> = (0..3)
                .map(|_| random_slot(&mut rng, shards, num_vms))
                .collect();
            let script = |s: usize| slots.iter().map(|slot| slot.2[s].clone()).collect();
            let inners: Vec<Box<dyn Provisioner + Send>> = (0..shards)
                .map(|s| Box::new(Scripted(script(s))) as _)
                .collect();
            let config = ShardConfig {
                max_retries,
                ..ShardConfig::default()
            };
            let mut p = ShardedProvisioner::new("scripted", inners, config);
            let mut tally = vec![[0u64; 4]; shards];
            for (slot, (vms, pending, plans)) in slots.iter().enumerate() {
                let ctx = slot_ctx(slot as u64, vms, pending);
                let expected = reference_arbiter(&ctx, plans, max_retries, &mut tally);
                let got = p.provision(&ctx);
                assert_eq!(
                    got.adjustments, expected.adjustments,
                    "seed {seed} slot {slot}: adjustments"
                );
                assert_eq!(
                    got.placements, expected.placements,
                    "seed {seed} slot {slot}: placements"
                );
                assert!(p.store().unwrap().holds_invariants(1e-9));
            }
            let stats = p.control_plane_stats().unwrap();
            for (shard, s) in stats.per_shard.iter().enumerate() {
                assert_eq!(
                    [s.commits, s.conflicts, s.retries, s.aborts],
                    tally[shard],
                    "seed {seed} shard {shard}: [commits, conflicts, retries, aborts]"
                );
            }
        }
    }
}
