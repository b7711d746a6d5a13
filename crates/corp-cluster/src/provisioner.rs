//! The sharded control-plane coordinator, adapting N scheduler shards to
//! the engine's single-`Provisioner` interface.
//!
//! Each shard is a long-lived worker thread owning one full scheduler
//! pipeline, fed over crossbeam channels (spawning threads per slot would
//! put coordination overhead on the critical path of every decision).
//! Each slot then runs in two phases:
//!
//! 1. **Propose (parallel).** The coordinator snapshots the fleet once
//!    (shared read-only via `Arc`) and posts it to every shard; each
//!    worker builds its own narrowed view — only the jobs it owns, see
//!    [`crate::shard`] — runs its pipeline, and ships its
//!    [`ProvisionPlan`] back on its reply channel.
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
//! The coordinator assumes workers can die at any point: worker bodies run
//! under `catch_unwind`, replies are slot-tagged and waited on with a
//! bounded timeout, and a scheduled [`ControlFaultPlan`] can kill workers,
//! drop requests, or delay replies deterministically. Whenever a shard
//! produces no usable plan for a slot — dead worker, lost request, late
//! reply — the coordinator schedules that shard's jobs *inline* with a
//! conservative static-peak pass (full-request first fit over the shard's
//! narrowed view), merged at the shard's own index so arbitration order is
//! unchanged. Dead workers are rebuilt from their
//! [`ProvisionerFactory`] when one was registered
//! ([`ShardedProvisioner::with_factories`]); without a factory the shard
//! degrades to permanent inline scheduling and a typed
//! [`ClusterError`] is recorded. No channel failure panics the
//! coordinator.
//!
//! Determinism: proposal generation is per-shard deterministic (each shard
//! owns its RNG/predictor state), arbitration order is a pure function
//! of (shard index, proposal index), and fault injection follows a
//! pre-computed plan — so identical seeds and configs yield byte-identical
//! reports at any shard count, while the store itself stays fully
//! thread-safe for genuinely racing users.

use corp_faults::ControlFaultPlan;
use corp_sim::control_plane::{ControlPlaneStats, ShardStats};
use corp_sim::{
    JobCompletion, JobId, PendingJobView, Placement, ProvisionPlan, Provisioner, ResourceVector,
    SlotContext, StaticPeakProvisioner, VmView,
};
use crossbeam::channel::RecvTimeoutError;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use crate::backend::TwoPhaseBackend;
use crate::error::ClusterError;
use crate::health::{ShardHealth, ShardSlotOutcome};
use crate::shard::{
    copy_vm_views_into, owner_of, shard_pending, shard_vm_views, shard_vm_views_into,
};
use crate::store::{FastPathMiss, PlacementStore};
use corp_core::pipeline::PlacementBackend;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Rebuilds one shard's scheduler pipeline after its worker dies.
pub type ProvisionerFactory = Box<dyn Fn() -> Box<dyn Provisioner + Send> + Send>;

/// Coordinator knobs.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Alternative-VM attempts after a placement's first reservation
    /// conflicts; past the budget the proposal aborts to the pending queue.
    pub max_retries: usize,
    /// Real-time safety net on worker replies. Deterministic chaos uses
    /// explicit kill/delay events instead; this only trips for a genuinely
    /// wedged worker, so it is generous by default.
    pub recv_timeout: Duration,
    /// Scheduled control-plane chaos (worker kills, request drops, reply
    /// delays); `None` runs fault-free.
    pub fault_plan: Option<ControlFaultPlan>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            max_retries: 3,
            recv_timeout: Duration::from_secs(30),
            fault_plan: None,
        }
    }
}

/// Work posted to a shard's worker thread.
enum ShardRequest {
    /// Propose a plan for one slot over the shared fleet snapshot.
    Provision {
        slot: u64,
        vms: Arc<Vec<VmView>>,
        pending: Arc<Vec<PendingJobView>>,
        committed: Arc<Vec<ResourceVector>>,
        max_vm_capacity: ResourceVector,
    },
    /// Fold one slot's completed jobs (every completion owned by this
    /// shard, in completion order) into the shard's training corpus — one
    /// message per shard per slot rather than one per job.
    JobsCompleted { jobs: Vec<JobCompletion> },
    /// Brownout posture broadcast from the coordinator: the worker applies
    /// it to its inner pipeline before the next provision request.
    SetServiceLevel(u8),
    /// Chaos: exit immediately, as an unplanned worker crash would.
    Die,
}

/// A worker's answer for one slot. `plan: None` reports a caught panic —
/// the worker exits right after sending it and waits to be rebuilt.
struct ShardReply {
    slot: u64,
    plan: Option<ProvisionPlan>,
}

/// One long-lived scheduler shard: its pipeline runs on a dedicated thread,
/// driven by `requests`; slot-tagged replies come back on `replies`.
struct Worker {
    /// `None` once shutdown has begun (dropping the sender stops the loop)
    /// or while the worker is dead awaiting restart.
    requests: Option<crossbeam::channel::Sender<ShardRequest>>,
    replies: crossbeam::channel::Receiver<ShardReply>,
    handle: Option<std::thread::JoinHandle<()>>,
    stats: ShardStats,
    /// Whether the coordinator believes the worker thread is serving.
    alive: bool,
    /// Dead with no way back (no factory, or respawn failed): the
    /// coordinator schedules this shard inline permanently.
    failed: bool,
    /// Rebuilds the inner provisioner after a death, when registered.
    factory: Option<ProvisionerFactory>,
    /// External supervisor (circuit breaker) holds this shard isolated:
    /// schedule it inline without dispatching to the worker.
    forced_inline: bool,
    /// What happened on the most recent provisioning slot.
    last_outcome: ShardSlotOutcome,
    /// The inner pipeline's [`Provisioner::full_view_period`], captured
    /// before the pipeline moves onto its worker thread: the coordinator
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
    recv_timeouts: u64,
}

type WorkerChannels = (
    crossbeam::channel::Sender<ShardRequest>,
    crossbeam::channel::Receiver<ShardReply>,
    std::thread::JoinHandle<()>,
);

fn spawn_worker(
    shard: usize,
    num_shards: usize,
    inner: Box<dyn Provisioner + Send>,
) -> Result<WorkerChannels, ClusterError> {
    let (req_tx, req_rx) = crossbeam::channel::unbounded();
    let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
    std::thread::Builder::new()
        .name(format!("corp-shard-{shard}"))
        .spawn(move || worker_loop(shard, num_shards, inner, req_rx, reply_tx))
        .map(|handle| (req_tx, reply_rx, handle))
        .map_err(|e| ClusterError::SpawnFailed {
            shard,
            reason: e.to_string(),
        })
}

fn worker_loop(
    shard: usize,
    num_shards: usize,
    mut inner: Box<dyn Provisioner + Send>,
    requests: crossbeam::channel::Receiver<ShardRequest>,
    replies: crossbeam::channel::Sender<ShardReply>,
) {
    // Narrowed-view buffers persist across slots: steady state reuses every
    // inner allocation (job vectors, history tails) instead of re-cloning
    // the fleet each slot.
    let mut my_vms: Vec<VmView> = Vec::new();
    while let Ok(request) = requests.recv() {
        match request {
            ShardRequest::Provision {
                slot,
                vms,
                pending,
                committed,
                max_vm_capacity,
            } => {
                // The pipeline may hold arbitrary state mid-panic, so a
                // caught panic is terminal for this worker: report it and
                // exit; the supervisor rebuilds from the factory.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    shard_vm_views_into(&vms, shard, num_shards, &mut my_vms);
                    let my_pending = shard_pending(&pending, shard, num_shards);
                    let ctx = SlotContext {
                        slot,
                        vms: &my_vms,
                        pending: &my_pending,
                        committed: &committed,
                        max_vm_capacity,
                    };
                    inner.provision(&ctx)
                }));
                match result {
                    Ok(plan) => {
                        if replies
                            .send(ShardReply {
                                slot,
                                plan: Some(plan),
                            })
                            .is_err()
                        {
                            break; // coordinator gone
                        }
                    }
                    Err(_) => {
                        let _ = replies.send(ShardReply { slot, plan: None });
                        break;
                    }
                }
            }
            ShardRequest::JobsCompleted { jobs } => {
                if catch_unwind(AssertUnwindSafe(|| {
                    inner.on_jobs_completed(&jobs);
                }))
                .is_err()
                {
                    break;
                }
            }
            ShardRequest::SetServiceLevel(level) => {
                if catch_unwind(AssertUnwindSafe(|| {
                    inner.set_service_level(level);
                }))
                .is_err()
                {
                    break;
                }
            }
            ShardRequest::Die => break,
        }
    }
}

/// N scheduler shards behind the engine's `Provisioner` interface (see
/// module docs).
pub struct ShardedProvisioner {
    name: String,
    workers: Vec<Worker>,
    config: ShardConfig,
    /// Built lazily from the first slot's fleet view.
    store: Option<PlacementStore>,
    max_queue_depth: usize,
    recovery: RecoveryCounters,
    errors: Vec<ClusterError>,
    /// Current brownout posture, re-applied to workers after a restart.
    service_level: u8,
    /// Slots where at least one placement did not fit the VM its shard
    /// proposed (a capacity conflict) and went through the full 2PC claim.
    fallback_rounds: u64,
    /// Recycled fleet-snapshot buffers: once the workers of a previous
    /// slot drop their `Arc` clones, the coordinator regains exclusive
    /// access and refreshes the buffer in place instead of re-cloning the
    /// fleet (the view copy was the dominant per-slot coordination cost).
    snap_vms: Vec<Arc<Vec<VmView>>>,
    snap_pending: Vec<Arc<Vec<PendingJobView>>>,
    snap_committed: Vec<Arc<Vec<ResourceVector>>>,
    /// Per-slot scratch for the store rebase (capacity/committed columns).
    rebase_scratch: (Vec<ResourceVector>, Vec<ResourceVector>),
}

/// Pulls a buffer with no outstanding readers from `pool`, or allocates a
/// fresh one. Callers push the handle back after sharing it; a buffer
/// still referenced by a slow worker simply stays in the pool until its
/// refcount drains.
fn checkout<T: Default>(pool: &mut Vec<Arc<T>>) -> Arc<T> {
    for i in 0..pool.len() {
        if Arc::get_mut(&mut pool[i]).is_some() {
            return pool.swap_remove(i);
        }
    }
    Arc::new(T::default())
}

/// Returns a shared snapshot to its pool, bounding the pool so a burst of
/// slow slots cannot grow it without limit.
fn check_in<T>(pool: &mut Vec<Arc<T>>, buf: Arc<T>) {
    pool.push(buf);
    if pool.len() > 4 {
        pool.swap_remove(0);
    }
}

impl ShardedProvisioner {
    /// Wraps `inners` (one per shard) under a display name of
    /// `"<base>x<shards>"`, spawning one worker thread per shard. Workers
    /// built this way cannot be rebuilt after a death (there is no
    /// factory); the shard degrades to inline scheduling instead. Prefer
    /// [`ShardedProvisioner::with_factories`] when running under fault
    /// injection.
    ///
    /// # Panics
    ///
    /// If `inners` is empty.
    pub fn new(
        base_name: &str,
        inners: Vec<Box<dyn Provisioner + Send>>,
        config: ShardConfig,
    ) -> Self {
        assert!(!inners.is_empty(), "need at least one shard");
        let num_shards = inners.len();
        let mut this = Self::empty(base_name, num_shards, config);
        for (shard, inner) in inners.into_iter().enumerate() {
            this.push_worker(shard, num_shards, inner, None);
        }
        this
    }

    /// Like [`ShardedProvisioner::new`], but each shard's pipeline comes
    /// from a factory the supervisor re-invokes to rebuild the worker
    /// after a crash. Factories must be deterministic (same pipeline every
    /// call) for fault-injected runs to replay byte-identically.
    ///
    /// # Panics
    ///
    /// If `factories` is empty.
    pub fn with_factories(
        base_name: &str,
        factories: Vec<ProvisionerFactory>,
        config: ShardConfig,
    ) -> Self {
        assert!(!factories.is_empty(), "need at least one shard");
        let num_shards = factories.len();
        let mut this = Self::empty(base_name, num_shards, config);
        for (shard, factory) in factories.into_iter().enumerate() {
            let inner = factory();
            this.push_worker(shard, num_shards, inner, Some(factory));
        }
        this
    }

    fn empty(base_name: &str, num_shards: usize, config: ShardConfig) -> Self {
        ShardedProvisioner {
            name: format!("{}x{}", base_name, num_shards),
            workers: Vec::new(),
            config,
            store: None,
            max_queue_depth: 0,
            recovery: RecoveryCounters::default(),
            errors: Vec::new(),
            service_level: 0,
            fallback_rounds: 0,
            snap_vms: Vec::new(),
            snap_pending: Vec::new(),
            snap_committed: Vec::new(),
            rebase_scratch: (Vec::new(), Vec::new()),
        }
    }

    fn push_worker(
        &mut self,
        shard: usize,
        num_shards: usize,
        inner: Box<dyn Provisioner + Send>,
        factory: Option<ProvisionerFactory>,
    ) {
        let stats = ShardStats {
            shard,
            ..Default::default()
        };
        let view_period = inner.full_view_period().max(1);
        match spawn_worker(shard, num_shards, inner) {
            Ok((requests, replies, handle)) => self.workers.push(Worker {
                requests: Some(requests),
                replies,
                handle: Some(handle),
                stats,
                alive: true,
                failed: false,
                factory,
                forced_inline: false,
                last_outcome: ShardSlotOutcome::Idle,
                view_period,
            }),
            Err(e) => {
                // Dead on arrival: keep the slot in the shard map (job
                // ownership is positional) and schedule it inline; a
                // factory still allows a later restart attempt.
                self.errors.push(e);
                let (_, orphan_replies) = crossbeam::channel::unbounded();
                let failed = factory.is_none();
                self.workers.push(Worker {
                    requests: None,
                    replies: orphan_replies,
                    handle: None,
                    stats,
                    alive: false,
                    failed,
                    factory,
                    forced_inline: false,
                    last_outcome: ShardSlotOutcome::Idle,
                    view_period,
                });
            }
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.workers.len()
    }

    /// The shared placement store (after the first slot).
    pub fn store(&self) -> Option<&PlacementStore> {
        self.store.as_ref()
    }

    /// Typed failures the supervisor recorded (spawn failures, timeouts,
    /// unrecoverable workers). Recovered incidents appear only as
    /// counters in [`Provisioner::control_plane_stats`].
    pub fn errors(&self) -> &[ClusterError] {
        &self.errors
    }

    /// Per-shard supervision snapshots after the most recent slot — the
    /// feed an external circuit-breaker layer keys its state machine on.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        self.workers
            .iter()
            .enumerate()
            .map(|(shard, w)| ShardHealth {
                shard,
                alive: w.alive,
                failed: w.failed,
                last_outcome: w.last_outcome,
            })
            .collect()
    }

    /// Isolates (or releases) one shard: while forced, the coordinator
    /// schedules the shard inline every slot *without* dispatching to its
    /// worker or waiting on its reply — the inline-fallback half of a
    /// circuit breaker's Open state. The worker thread stays up (and keeps
    /// receiving completion notifications) so a later probe finds it warm.
    ///
    /// Out-of-range shard indices are ignored.
    pub fn set_forced_inline(&mut self, shard: usize, forced: bool) {
        if let Some(worker) = self.workers.get_mut(shard) {
            worker.forced_inline = forced;
        }
    }

    /// Tears down a dead worker's thread and rebuilds it from its factory;
    /// without one the shard is marked permanently failed.
    fn restart_worker(&mut self, shard: usize) {
        if self.workers[shard].failed {
            return;
        }
        let num_shards = self.workers.len();
        self.workers[shard].requests.take();
        if let Some(handle) = self.workers[shard].handle.take() {
            let _ = handle.join();
        }
        let Some(inner) = self.workers[shard].factory.as_ref().map(|f| f()) else {
            self.workers[shard].failed = true;
            self.errors
                .push(ClusterError::WorkerUnrecoverable { shard });
            return;
        };
        let view_period = inner.full_view_period().max(1);
        match spawn_worker(shard, num_shards, inner) {
            Ok((requests, replies, handle)) => {
                let worker = &mut self.workers[shard];
                worker.view_period = view_period;
                worker.requests = Some(requests);
                worker.replies = replies;
                worker.handle = Some(handle);
                worker.alive = true;
                worker.stats.restarts += 1;
                self.recovery.worker_restarts += 1;
                // A factory rebuild starts at full service; re-apply the
                // coordinator's current brownout posture.
                if self.service_level != 0 {
                    if let Some(tx) = self.workers[shard].requests.as_ref() {
                        let _ = tx.send(ShardRequest::SetServiceLevel(self.service_level));
                    }
                }
            }
            Err(e) => {
                self.workers[shard].failed = true;
                self.errors.push(e);
            }
        }
    }

    /// Conservative coordinator-side plan for a shard that produced none:
    /// static-peak first fit over the shard's own narrowed view. Full-peak
    /// allocations can never violate an SLO on their own, and the store
    /// still arbitrates them against every other shard's proposals.
    fn inline_plan(ctx: &SlotContext<'_>, shard: usize, num_shards: usize) -> ProvisionPlan {
        let my_vms = shard_vm_views(ctx.vms, shard, num_shards);
        let my_pending = shard_pending(ctx.pending, shard, num_shards);
        let narrowed = SlotContext {
            slot: ctx.slot,
            vms: &my_vms,
            pending: &my_pending,
            committed: ctx.committed,
            max_vm_capacity: ctx.max_vm_capacity,
        };
        let mut fallback = StaticPeakProvisioner;
        fallback.provision(&narrowed)
    }

    /// Phase A: every shard proposes in parallel over the shared snapshot.
    /// Scheduled chaos is applied here; any shard without a usable plan is
    /// scheduled inline, and dead workers are restarted before returning.
    fn propose(&mut self, ctx: &SlotContext<'_>) -> Vec<ProvisionPlan> {
        let n = self.workers.len();
        self.max_queue_depth = self.max_queue_depth.max(ctx.pending.len());
        let mut depths = vec![0usize; n];
        for job in ctx.pending {
            depths[owner_of(job.id, n)] += 1;
        }
        for (worker, depth) in self.workers.iter_mut().zip(depths) {
            worker.stats.max_queue_depth = worker.stats.max_queue_depth.max(depth);
        }

        // Scheduled chaos for this slot.
        let mut kill = vec![false; n];
        let mut drop_request = vec![false; n];
        let mut delay = vec![false; n];
        if let Some(plan) = &self.config.fault_plan {
            for shard in 0..n {
                kill[shard] = plan.kill_scheduled(ctx.slot, shard);
                drop_request[shard] = plan.drop_scheduled(ctx.slot, shard);
                delay[shard] = plan.delay_scheduled(ctx.slot, shard);
            }
        }
        for (shard, &killed) in kill.iter().enumerate() {
            if killed && self.workers[shard].alive {
                if let Some(tx) = self.workers[shard].requests.as_ref() {
                    let _ = tx.send(ShardRequest::Die);
                }
                self.workers[shard].alive = false;
                self.recovery.worker_kills += 1;
            }
        }

        // Dispatch the snapshot to every serving shard, recycling a
        // previous slot's buffers when their workers have let go: refresh
        // in place instead of re-cloning the fleet.
        let mut vms = checkout(&mut self.snap_vms);
        copy_vm_views_into(
            ctx.vms,
            Arc::get_mut(&mut vms).expect("checked-out snapshot buffer is exclusive"),
        );
        let mut pending = checkout(&mut self.snap_pending);
        {
            let buf = Arc::get_mut(&mut pending).expect("checked-out snapshot buffer is exclusive");
            buf.clear();
            buf.extend_from_slice(ctx.pending);
        }
        let mut committed = checkout(&mut self.snap_committed);
        {
            let buf =
                Arc::get_mut(&mut committed).expect("checked-out snapshot buffer is exclusive");
            buf.clear();
            buf.extend_from_slice(ctx.committed);
        }
        let mut sent = vec![false; n];
        for shard in 0..n {
            // Breaker-isolated shards get no dispatch at all: the whole
            // point of Open is not paying the worker round-trip (or its
            // timeout) while the shard is sick.
            if self.workers[shard].forced_inline {
                continue;
            }
            if !self.workers[shard].alive {
                continue;
            }
            if drop_request[shard] {
                self.recovery.messages_dropped += 1;
                continue;
            }
            let request = ShardRequest::Provision {
                slot: ctx.slot,
                vms: Arc::clone(&vms),
                pending: Arc::clone(&pending),
                committed: Arc::clone(&committed),
                max_vm_capacity: ctx.max_vm_capacity,
            };
            let delivered = self.workers[shard]
                .requests
                .as_ref()
                .map(|tx| tx.send(request).is_ok())
                .unwrap_or(false);
            if delivered {
                sent[shard] = true;
            } else {
                // The worker died between slots (e.g. panicked in a
                // completion callback): recover below.
                self.workers[shard].alive = false;
            }
        }

        // Collect in shard order: deterministic merge, full overlap while
        // the slower shards finish. Replies are slot-tagged so a reply
        // delayed past its slot is discarded when it finally surfaces.
        let mut plans: Vec<Option<ProvisionPlan>> = (0..n).map(|_| None).collect();
        for shard in 0..n {
            if !sent[shard] {
                continue;
            }
            if delay[shard] {
                self.recovery.messages_delayed += 1;
                continue;
            }
            loop {
                let outcome = self.workers[shard]
                    .replies
                    .recv_timeout(self.config.recv_timeout);
                match outcome {
                    Ok(reply) if reply.slot == ctx.slot => {
                        match reply.plan {
                            Some(plan) => plans[shard] = Some(plan),
                            None => {
                                // The worker caught a panic and exited.
                                self.workers[shard].alive = false;
                                self.recovery.worker_panics += 1;
                            }
                        }
                        break;
                    }
                    Ok(_stale_reply) => continue,
                    Err(RecvTimeoutError::Timeout) => {
                        self.workers[shard].alive = false;
                        self.recovery.recv_timeouts += 1;
                        self.errors.push(ClusterError::ReplyTimeout {
                            shard,
                            slot: ctx.slot,
                        });
                        break;
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        self.workers[shard].alive = false;
                        break;
                    }
                }
            }
        }

        // Recovery: restart what died, schedule inline what is missing,
        // and record each shard's slot outcome for shard_health().
        for (shard, plan) in plans.iter_mut().enumerate() {
            if !self.workers[shard].alive {
                self.restart_worker(shard);
            }
            if plan.is_some() {
                self.workers[shard].last_outcome = ShardSlotOutcome::Served;
            } else {
                if self.workers[shard].forced_inline {
                    self.workers[shard].stats.isolated_slots += 1;
                    self.recovery.isolated_slots += 1;
                    self.workers[shard].last_outcome = ShardSlotOutcome::Isolated;
                } else {
                    self.workers[shard].stats.inline_slots += 1;
                    self.recovery.inline_slots += 1;
                    self.workers[shard].last_outcome = ShardSlotOutcome::FellBack;
                }
                *plan = Some(Self::inline_plan(ctx, shard, n));
            }
        }

        // Return the snapshot handles to their pools. A worker that is
        // still holding a clone (delayed reply) just parks the buffer until
        // its refcount drains; checkout skips shared buffers.
        check_in(&mut self.snap_vms, vms);
        check_in(&mut self.snap_pending, pending);
        check_in(&mut self.snap_committed, committed);

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
                let Some(&(vm, old)) = current.get(&job) else {
                    self.workers[shard].stats.conflicts += 1;
                    continue;
                };
                if !new.is_finite() {
                    // A poisoned pipeline may propose NaN; the engine would
                    // drop it anyway, but refusing here keeps the store's
                    // committed preview authoritative.
                    self.workers[shard].stats.conflicts += 1;
                    continue;
                }
                if store.adjust(vm, old, new) {
                    merged.adjustments.push((job, new));
                } else {
                    self.workers[shard].stats.conflicts += 1;
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
                let stats = &mut self.workers[shard].stats;
                stats.proposals += 1;
                if !pending_ids.contains(&p.job) || placed.contains(&p.job) {
                    continue; // not placeable: duplicate or unknown job
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
        // off-period slots skip the engine's deep history copies — the
        // dominant snapshot cost for window-driven pipelines.
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        self.workers
            .iter()
            .map(|w| w.view_period)
            .fold(0, gcd)
            .max(1)
    }

    fn on_job_completed(&mut self, job: JobId, unused_history: &[Vec<f64>]) {
        let single = [JobCompletion {
            job,
            handle: corp_sim::JobHandle::DETACHED,
            unused_history: unused_history.to_vec(),
        }];
        self.on_jobs_completed(&single);
    }

    fn on_jobs_completed(&mut self, completed: &[JobCompletion]) {
        // Group the slot's completions by owning shard, preserving
        // completion order within each group, and forward one batch
        // message per shard — the engine hands the whole slot at once, so
        // channel traffic is O(shards) per slot instead of O(jobs).
        let n = self.workers.len();
        let mut batches: Vec<Vec<JobCompletion>> = vec![Vec::new(); n];
        for c in completed {
            batches[owner_of(c.job, n)].push(c.clone());
        }
        for (owner, jobs) in batches.into_iter().enumerate() {
            if jobs.is_empty() {
                continue;
            }
            // FIFO per worker: the notification lands before the next
            // Provision request, exactly as the engine orders the calls.
            let delivered = self.workers[owner]
                .requests
                .as_ref()
                .map(|tx| tx.send(ShardRequest::JobsCompleted { jobs }).is_ok())
                .unwrap_or(false);
            if !delivered {
                // The worker is dead: this shard's corpus misses one
                // slot's samples (restart happens on the next provision
                // call). Dropped messages are counted per batch — one
                // message is what was actually lost on the wire.
                self.workers[owner].alive = false;
                self.recovery.messages_dropped += 1;
            }
        }
    }

    fn set_service_level(&mut self, level: u8) {
        if self.service_level == level {
            return;
        }
        self.service_level = level;
        // FIFO per worker: the posture change lands before the next
        // Provision request, so every shard sees it at the same slot.
        for worker in &mut self.workers {
            let delivered = worker
                .requests
                .as_ref()
                .map(|tx| tx.send(ShardRequest::SetServiceLevel(level)).is_ok())
                .unwrap_or(false);
            if !delivered {
                // Dead worker: the restart path re-applies the current
                // level once the factory rebuilds it.
                worker.alive = false;
            }
        }
    }

    fn control_plane_stats(&self) -> Option<ControlPlaneStats> {
        let counters = self
            .store
            .as_ref()
            .map(|s| s.counters())
            .unwrap_or_default();
        Some(ControlPlaneStats {
            shards: self.workers.len(),
            reservations: counters.reservations,
            commits: counters.commits,
            conflicts: counters.conflicts,
            aborts: counters.aborts,
            retries: self.workers.iter().map(|s| s.stats.retries).sum(),
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
            recv_timeouts: self.recovery.recv_timeouts,
            isolated_slots: self.recovery.isolated_slots,
            breaker_opens: 0,
            breaker_half_opens: 0,
            breaker_closes: 0,
            breaker_transitions: Vec::new(),
            per_shard: self.workers.iter().map(|s| s.stats.clone()).collect(),
        })
    }
}

impl Drop for ShardedProvisioner {
    fn drop(&mut self) {
        // Closing every request channel stops the worker loops; then join.
        for worker in &mut self.workers {
            worker.requests.take();
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
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

    fn committed_of(vms: &[VmView]) -> Vec<ResourceVector> {
        vms.iter().map(|v| v.committed).collect()
    }

    fn slot_ctx<'a>(
        slot: u64,
        vms: &'a [VmView],
        pending: &'a [PendingJobView],
        committed: &'a [ResourceVector],
    ) -> SlotContext<'a> {
        SlotContext {
            slot,
            vms,
            pending,
            committed,
            max_vm_capacity: rv(4.0),
        }
    }

    fn job(id: JobId, req: f64) -> PendingJobView {
        PendingJobView {
            id,
            requested: rv(req),
            arrival_slot: 0,
            slo_slots: 10,
            handle: corp_sim::JobHandle::DETACHED,
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
        let committed = committed_of(&vms);
        let pending: Vec<PendingJobView> = (0..4).map(|i| job(i, 1.0)).collect();
        let ctx = slot_ctx(0, &vms, &pending, &committed);
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
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        let ctx = slot_ctx(0, &vms, &pending, &committed);
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
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        let ctx = slot_ctx(0, &vms, &pending, &committed);
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
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0), job(1, 2.0)];
        let ctx = slot_ctx(0, &vms, &pending, &committed);
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
        let committed = committed_of(&vms);
        let pending: Vec<PendingJobView> = (0..3).map(|i| job(i, 0.5)).collect();
        let ctx = slot_ctx(0, &vms, &pending, &committed);
        let mut p = sharded(2);
        let _ = p.provision(&ctx);
        let empty: Vec<PendingJobView> = Vec::new();
        let ctx2 = slot_ctx(1, &vms, &empty, &committed);
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
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        let ctx = slot_ctx(0, &vms, &pending, &committed);
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
        let ctx2 = slot_ctx(1, &vms, &pending, &committed);
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
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        let ctx = slot_ctx(0, &vms, &pending, &committed);
        let got = p.provision(&ctx);
        assert_eq!(got.placements.len(), 2, "inline covers the panic: {got:?}");
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.worker_panics, 1, "{stats:?}");
        assert_eq!(stats.worker_restarts, 1, "{stats:?}");
        // Next slot, the rebuilt worker answers for itself.
        let ctx2 = slot_ctx(1, &vms, &pending, &committed);
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
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        for slot in 0..3u64 {
            let ctx = slot_ctx(slot, &vms, &pending, &committed);
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
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        for slot in 0..3u64 {
            let ctx = slot_ctx(slot, &vms, &pending, &committed);
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
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0), job(1, 1.0)];
        p.set_forced_inline(1, true);
        for slot in 0..2u64 {
            let ctx = slot_ctx(slot, &vms, &pending, &committed);
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
        let ctx = slot_ctx(2, &vms, &pending, &committed);
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
        let committed = committed_of(&vms);
        let pending = vec![job(0, 1.0)];
        let ctx = slot_ctx(0, &vms, &pending, &committed);
        let got = p.provision(&ctx);
        assert!(got.placements.is_empty(), "{got:?}");
        let stats = p.control_plane_stats().unwrap();
        assert_eq!(stats.per_shard[0].aborts, 1, "{stats:?}");
        assert!(p.store().unwrap().holds_invariants(1e-9));
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
                            if new.is_finite() && new.fits_within(&(free[vm] + old)) =>
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
                if placed || !ctx.pending.iter().any(|j| j.id == p.job) {
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
    /// listed before the shrinks that make room for them, unknown jobs.
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
                let proposer = &mut plans[rng.gen_range(0..shards)];
                proposer.adjustments.push((next_running - 1, new));
            }
        }
        let num_pending = rng.gen_range(4..=16u64);
        for plan in &mut plans {
            if rng.gen_bool(0.3) {
                plan.adjustments.push((9_000, rv(1.0))); // no such running job
            }
            for _ in 0..rng.gen_range(0..=10usize) {
                let allocation = match rng.gen_range(0..10u32) {
                    0 => rv(f64::NAN),
                    1 => quarters(rng, rv(1.5)) - rv(0.25),
                    _ => quarters(rng, rv(1.5)),
                };
                plan.placements.push(Placement {
                    job: rng.gen_range(0..num_pending + 3), // the last three are not pending
                    vm: rng.gen_range(0..num_vms + 2),      // the last two do not exist
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
                let committed = committed_of(vms);
                let ctx = slot_ctx(slot as u64, vms, pending, &committed);
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
