//! The slot-stepped simulation engine.
//!
//! Per slot the engine: admits arrivals, asks the [`Provisioner`] for a
//! plan (timing the decision and charging modeled communication latency per
//! action message), applies validated adjustments and placements, advances
//! running jobs under the strict-reservation execution model, resolves any
//! predictions targeting this slot, and records metrics.
//!
//! [`SlotEngine`] is the core, exposed so drivers can submit jobs as they
//! arrive and pump slots one [`step`](SlotEngine::step) at a time: the
//! slot loop in [`crate::streaming`] feeds it from an arrival-ordered
//! iterator, the `corp-serve` daemon through its admission queue.
//! [`Simulation`] is the batch form of the former — a complete workload
//! held in memory (the paper's evaluation mode). The decisions are the
//! same either way, byte for byte, because the slot body is the same code.
//!
//! ## Validation rules
//!
//! * An adjustment may not push a VM's committed total above capacity and
//!   may not be negative; invalid adjustments are dropped (counted).
//! * A placement must reference a pending job and fit the VM's free
//!   capacity at application time; invalid placements are dropped.
//! * Jobs whose peak request exceeds every VM's capacity are rejected at
//!   arrival (they could never run) and count as SLO violations.

use crate::cluster::Cluster;
use crate::faults::{corrupt_vector, FaultRuntime, FaultStats};
use crate::job::{JobId, JobState, RunningJob};
use crate::metrics::{MetricsCollector, PredictionOutcome, UtilizationSample};
use crate::provisioner::{
    JobCompletion, JobShare, PendingJobView, PredictionRecord, Provisioner, RunningJobView,
    SlotContext, VmView, VIEW_HISTORY_CAP,
};
use crate::resources::ResourceVector;
use crate::ring::{copy_tail, BoundedRing};
use crate::store::{JobHandle, JobStore};
use crate::streaming::StreamingSimulation;
use crate::vm_set::{ids_in, VmSet};
use corp_faults::{FaultEvent, FaultTimeline};
use corp_trace::{JobSpec, NUM_RESOURCES};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::Instant;

/// Samples reserved in a job's histories at placement beyond its
/// `duration_slots`, for a job throttled a slot or two. With 0 most
/// reclaimed jobs regrow (doubling); past 2 the room costs more than the
/// regrowths it saves (EXPERIMENTS.md, "The slot loop pays per job").
const HISTORY_SLACK_SLOTS: usize = 2;

/// Prediction-error tolerance for the error-rate metric, as a fraction
/// of each resource's maximum VM capacity (`eps_k = frac * C'_k`) —
/// resource types live on very different scales (cores vs. hundreds of
/// GB), so a relative tolerance is the only meaningful one.
const PREDICTION_EPS_FRAC: f64 = 0.25;

/// Engine knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulationOptions {
    /// Hard stop: slots simulated past the last arrival before declaring
    /// remaining jobs unfinished. The cap is measured only once every
    /// arrival has been submitted, so `0` means "stop the slot after the
    /// last arrival", never "stop before it".
    pub max_slots: u64,
    /// Include measured wall-clock decision time in the overhead metric
    /// (always true for overhead experiments; harmless elsewhere).
    pub measure_decision_time: bool,
    /// Recycle each job's arena slot (record, histories, SoA columns)
    /// as soon as it completes or is rejected, bounding engine memory by
    /// *active* jobs instead of total jobs submitted. Reports are
    /// byte-identical either way; the cost is that
    /// [`SlotEngine::jobs`] no longer retains terminal jobs for post-run
    /// inspection. `false` by default; the streaming soak runs set it
    /// (`corp-exp scale`, the benchmark's `soak-50k`).
    pub reclaim_completed: bool,
}

impl Default for SimulationOptions {
    fn default() -> Self {
        SimulationOptions {
            max_slots: 100_000,
            measure_decision_time: true,
            reclaim_completed: false,
        }
    }
}

/// Final report of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Provisioner name.
    pub provisioner: String,
    /// Environment profile name.
    pub environment: String,
    /// Number of jobs submitted.
    pub num_jobs: usize,
    /// Aggregate per-resource utilization (time-aggregated Eq. 1).
    pub utilization: [f64; NUM_RESOURCES],
    /// Aggregate weighted overall utilization (Eq. 2).
    pub overall_utilization: f64,
    /// SLO violation rate over terminal jobs (unfinished jobs count as
    /// violations).
    pub slo_violation_rate: f64,
    /// Prediction error rate at the configured tolerance (Fig. 6 metric).
    pub prediction_error_rate: f64,
    /// Number of predictions resolved.
    pub predictions_resolved: usize,
    /// Total allocation overhead in milliseconds (Figs. 10/14 metric).
    pub overhead_ms: f64,
    /// Completed job count.
    pub completed: usize,
    /// Completed jobs that violated their SLO.
    pub violated: usize,
    /// Arrival-time rejections.
    pub rejected: usize,
    /// Jobs still unfinished at the slot cap.
    pub unfinished: usize,
    /// Slots actually simulated.
    pub slots_run: u64,
    /// Mean response time over completed jobs, in slots.
    pub mean_response_slots: f64,
    /// Dropped invalid plan actions (diagnostics; 0 for well-behaved
    /// provisioners).
    pub invalid_actions: usize,
    /// Dropped non-finite (NaN/∞) action vectors — a subset of
    /// `invalid_actions`, split out because they indicate a poisoned
    /// pipeline rather than a mere capacity miss.
    pub nonfinite_actions: usize,
    /// Control-plane counters when the run used a sharded multi-scheduler
    /// provisioner; `None` for monolithic schedulers.
    pub control_plane: Option<crate::control_plane::ControlPlaneStats>,
    /// Fault-injection counters when the run carried a fault schedule;
    /// `None` for fault-free runs.
    pub faults: Option<FaultStats>,
}

/// What one [`SlotEngine::step`] did: the placements it applied, the jobs
/// that finished, and the arrivals it rejected. Event-driven drivers turn
/// these into `Completion` events and per-request placement latencies; the
/// batch driver ignores them.
#[derive(Debug, Clone, Default)]
pub struct SlotOutcome {
    /// `(job, vm)` for every placement applied this slot, application
    /// order.
    pub placements: Vec<(JobId, usize)>,
    /// Jobs that completed this slot, completion order (VM id ascending,
    /// scan order within a VM).
    pub completed: Vec<JobId>,
    /// Jobs rejected at admission this slot (request exceeds every VM).
    pub rejected: Vec<JobId>,
}

/// The reusable slot-stepping core: all engine state, pumped one slot at a
/// time.
///
/// Jobs enter through [`submit`](Self::submit) (queued for admission at the
/// next step) and the engine advances through [`step`](Self::step); when
/// the caller decides the run is over, [`report`](Self::report) folds the
/// accumulated metrics into a [`SimulationReport`]. [`StreamingSimulation`]
/// drives this from an arrival-ordered stream; the `corp-serve` daemon
/// runs the same loop behind an admission queue. Both produce identical
/// decisions for identical admission sequences because this is the only
/// slot body.
pub struct SlotEngine {
    cluster: Cluster,
    options: SimulationOptions,
    store: JobStore,
    index_of: HashMap<JobId, JobHandle>,
    metrics: MetricsCollector,
    /// Per-VM unused totals per slot; an idle VM's zeros are owed, not
    /// written (see `idle_from`).
    vm_unused_history: Vec<BoundedRing>,
    pending_predictions: Vec<PredictionRecord>,
    invalid_actions: usize,
    nonfinite_actions: usize,
    faults: Option<FaultRuntime>,
    max_capacity: ResourceVector,
    vm_committed: Vec<ResourceVector>,
    vm_jobs: Vec<Vec<JobHandle>>,
    /// Admitted jobs awaiting placement (engine-side pending queue).
    pending: Vec<JobHandle>,
    /// Jobs submitted since the last step, admitted (or rejected) at the
    /// start of the next one, submission-ordered.
    incoming: Vec<JobHandle>,
    active: usize,
    slot: u64,
    /// The VMs with `!vm_jobs[vm].is_empty()`, updated where `vm_jobs`
    /// changes (placement, completion, crash). Advance walks it instead
    /// of the fleet, in ascending VM id — the order the f64 slot totals
    /// and the completion batch depend on.
    occupied: VmSet,
    /// Per unoccupied VM, the first slot whose zero sample is not on its
    /// ring yet: its history at slot `s` is "ring ⧺ (s − idle_from)
    /// zeros", written out only when a job lands there.
    idle_from: Vec<u64>,
    /// Idle VMs whose view still changes slot to slot at the current
    /// depth (another owed zero moves it). The view phase walks
    /// `occupied ∪ unsettled`.
    unsettled: VmSet,
    /// Depth of the last view phase; a change invalidates every view.
    view_full: Option<bool>,
    /// See [`vm_visits`](Self::vm_visits).
    vm_visits: u64,
    // Per-slot scratch, reused across steps instead of reallocated.
    /// This slot's unused total per VM; zero for every unoccupied VM.
    slot_vm_unused: Vec<ResourceVector>,
    vm_views: Vec<VmView>,
    /// `(vm, vm_views[vm].jobs)`: entries and their history buffers, taken
    /// out while off-period slots list no jobs, put back at the next full.
    parked_jobs: Vec<(usize, Vec<RunningJobView>)>,
    pending_views: Vec<PendingJobView>,
    /// VMs where advance saw a job reach `work_done()` this slot,
    /// ascending: the only ones the completion phase visits.
    finished_vms: Vec<usize>,
    /// Reused completion records; a slot delivers the prefix it filled.
    completions: Vec<JobCompletion>,
    /// Every VM's unused total for every slot, eagerly and unbounded: the
    /// ground truth the lazy rings are checked against.
    #[cfg(test)]
    shadow_unused: Vec<Vec<ResourceVector>>,
}

impl SlotEngine {
    /// Builds an empty engine over `cluster`: no jobs yet, slot 0 next.
    pub fn new(cluster: Cluster, options: SimulationOptions) -> Self {
        let num_vms = cluster.vms.len();
        let max_capacity = cluster.max_vm_capacity();
        let vm_views = cluster
            .vms
            .iter()
            .map(|vm| VmView {
                id: vm.id,
                capacity: vm.capacity,
                committed: ResourceVector::ZERO,
                free: ResourceVector::ZERO,
                jobs: Vec::new(),
                unused_history: Vec::new(),
            })
            .collect();
        SlotEngine {
            cluster,
            store: JobStore::new(options.reclaim_completed),
            options,
            index_of: HashMap::new(),
            metrics: MetricsCollector::new(),
            vm_unused_history: vec![BoundedRing::new(); num_vms],
            pending_predictions: Vec::new(),
            invalid_actions: 0,
            nonfinite_actions: 0,
            faults: None,
            max_capacity,
            vm_committed: vec![ResourceVector::ZERO; num_vms],
            vm_jobs: vec![Vec::new(); num_vms],
            pending: Vec::new(),
            incoming: Vec::new(),
            active: 0,
            slot: 0,
            occupied: VmSet::empty(num_vms),
            idle_from: vec![0; num_vms],
            unsettled: VmSet::empty(num_vms),
            view_full: None,
            vm_visits: 0,
            slot_vm_unused: vec![ResourceVector::ZERO; num_vms],
            vm_views,
            parked_jobs: Vec::new(),
            pending_views: Vec::new(),
            finished_vms: Vec::new(),
            completions: Vec::new(),
            #[cfg(test)]
            shadow_unused: vec![Vec::new(); num_vms],
        }
    }

    /// Arms the engine to replay `timeline` alongside the workload (see
    /// [`Simulation::with_fault_timeline`]).
    pub fn with_fault_timeline(mut self, timeline: FaultTimeline) -> Self {
        let num_vms = self.cluster.vms.len();
        self.faults = Some(FaultRuntime::new(timeline, num_vms));
        self
    }

    /// Registers a job for admission at the start of the next
    /// [`step`](Self::step). Admission (and oversized-request rejection)
    /// happens inside the step so that fault events scheduled for the slot
    /// apply first.
    pub fn submit(&mut self, spec: JobSpec) {
        let id = spec.id;
        let handle = self.store.insert(spec);
        self.index_of.insert(id, handle);
        self.incoming.push(handle);
    }

    /// The next slot to be simulated (equivalently: slots simulated so
    /// far).
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Whether the slot cap has tripped: `max_slots` slots simulated past
    /// `last_arrival`, the newest arrival slot the driver has submitted.
    /// A driver asks only once its stream is exhausted — an engine idling
    /// through a gap between arrivals is waiting, not stalled.
    pub fn past_cap(&self, last_arrival: u64) -> bool {
        self.slot >= self.options.max_slots + last_arrival
    }

    /// Jobs currently admitted but not finished (pending + running).
    pub fn active(&self) -> usize {
        self.active
    }

    /// Read access to the metrics collected so far.
    pub fn metrics(&self) -> &MetricsCollector {
        &self.metrics
    }

    /// Read access to the job arena. With the default append-only store
    /// this is every submitted job's state, submission-ordered; under
    /// [`SimulationOptions::reclaim_completed`] terminal jobs are
    /// recycled, so slots hold tombstones (id `u64::MAX`) or reused
    /// records and order carries no meaning.
    pub fn jobs(&self) -> &[RunningJob] {
        self.store.as_slice()
    }

    /// The backing job store (arena occupancy and lifetime counters).
    pub fn store(&self) -> &JobStore {
        &self.store
    }

    /// VMs currently hosting at least one job.
    pub fn occupied_vms(&self) -> usize {
        self.occupied.len()
    }

    /// VM entries the slot loop has touched since construction: one per
    /// view written, VM advanced and VM scanned for completions. A
    /// deterministic work count, not part of the report: outside warm-up
    /// and view-depth flips it stays within a small multiple of the
    /// occupied VMs however large the fleet is.
    pub fn vm_visits(&self) -> u64 {
        self.vm_visits
    }

    /// Zero samples `vm`'s ring is owed as of the current slot: one per
    /// slot since it went idle, none while it hosts a job.
    fn owed_zeros(&self, vm: usize) -> u64 {
        if self.vm_jobs[vm].is_empty() {
            self.slot - self.idle_from[vm]
        } else {
            0
        }
    }

    /// Marks `vm` as having just lost its last job: its ring has samples
    /// through slot `idle_from − 1` and is owed zeros from there on.
    fn vacate(&mut self, vm: usize, idle_from: u64) {
        self.occupied.set(vm, false);
        self.unsettled.set(vm, true);
        self.idle_from[vm] = idle_from;
        self.slot_vm_unused[vm] = ResourceVector::ZERO;
    }

    /// Rebuilds `vm`'s view for the current slot from ground truth: the
    /// VM-level fields always, the per-job entries on `full` slots only.
    fn write_view(&mut self, vm: usize, full: bool) {
        self.vm_visits += 1;
        let owed = self.owed_zeros(vm);
        let view = &mut self.vm_views[vm];
        // A down VM presents as zero capacity with nothing running:
        // provisioners cannot place onto it, and sharded stores rebase it
        // to an empty ledger.
        if self.faults.as_ref().is_some_and(|f| f.is_down(vm)) {
            view.capacity = ResourceVector::ZERO;
            view.committed = ResourceVector::ZERO;
            view.free = ResourceVector::ZERO;
            view.jobs.clear();
            view.unused_history.clear();
            return;
        }
        let capacity = self.cluster.vms[vm].capacity;
        view.capacity = capacity;
        view.committed = self.vm_committed[vm];
        view.free = capacity.saturating_sub(&self.vm_committed[vm]);
        let occupants = &self.vm_jobs[vm];
        if full {
            // Match the view list to the VM's occupancy, keeping the
            // history buffers of surviving entries alive.
            view.jobs
                .resize_with(occupants.len(), RunningJobView::default);
            for (jv, &h) in view.jobs.iter_mut().zip(occupants) {
                let j = self.store.job(h);
                jv.id = j.id();
                jv.requested = self.store.requested(h);
                jv.allocation = self.store.allocation(h);
                copy_tail(&j.observed_demand, &mut jv.recent_demand);
                copy_tail(&j.observed_unused, &mut jv.recent_unused);
            }
        } else if !view.jobs.is_empty() {
            // The slot after a full one: park the entries.
            self.parked_jobs.push((vm, std::mem::take(&mut view.jobs)));
        }
        self.vm_unused_history[vm].copy_view(owed, full, &mut view.unused_history);
        // An idle VM's view stops changing once the owed zeros fill the
        // depth on show: one sample off-period, a whole tail in full.
        let settles_at = if full { VIEW_HISTORY_CAP as u64 } else { 1 };
        self.unsettled
            .set(vm, occupants.is_empty() && owed < settles_at);
        // Poisoning corrupts only the monitoring tails the provisioner
        // sees this slot; ground truth stays intact (a fault-armed engine
        // rewrites every view from it each slot).
        if let Some(kind) = self.faults.as_ref().and_then(|f| f.poison(vm)) {
            for job in &mut view.jobs {
                if let Some(v) = job.recent_demand.last_mut() {
                    corrupt_vector(v, kind);
                }
                if let Some(v) = job.recent_unused.last_mut() {
                    corrupt_vector(v, kind);
                }
            }
            if let Some(v) = view.unused_history.last_mut() {
                corrupt_vector(v, kind);
            }
        }
    }

    /// Simulates one slot under `provisioner` and returns what happened.
    pub fn step(&mut self, provisioner: &mut dyn Provisioner) -> SlotOutcome {
        let mut outcome = SlotOutcome::default();
        let slot = self.slot;

        // 0. Apply the faults scheduled for this slot, before arrivals
        // and provisioning: a crash kills the VM's running jobs
        // (progress lost — no checkpointing), re-enqueues them, and
        // releases the VM's committed capacity.
        if let Some(mut faults) = self.faults.take() {
            let num_vms = self.cluster.vms.len();
            faults.start_slot();
            while let Some(event) = faults.next_due(slot) {
                match event {
                    FaultEvent::VmCrash { vm } if vm < num_vms && !faults.is_down(vm) => {
                        faults.set_down(vm, true);
                        faults.stats.vm_crashes += 1;
                        if !self.vm_jobs[vm].is_empty() {
                            // Its ring holds samples through last slot.
                            self.vacate(vm, slot);
                        }
                        for h in self.vm_jobs[vm].drain(..) {
                            faults.stats.jobs_killed += 1;
                            faults.kill_slot.insert(self.store.job(h).id(), slot);
                            let job = self.store.job_mut(h);
                            job.state = JobState::Pending;
                            job.progress = 0.0;
                            self.store.set_allocation(h, ResourceVector::ZERO);
                            self.pending.push(h);
                        }
                        self.vm_committed[vm] = ResourceVector::ZERO;
                    }
                    FaultEvent::VmRecover { vm } if vm < num_vms && faults.is_down(vm) => {
                        faults.set_down(vm, false);
                        faults.stats.vm_recoveries += 1;
                    }
                    FaultEvent::VmDegrade { vm, factor } if vm < num_vms => {
                        faults.set_degrade(vm, factor.clamp(0.05, 1.0));
                    }
                    FaultEvent::VmRestore { vm } if vm < num_vms => {
                        faults.set_degrade(vm, 1.0);
                    }
                    FaultEvent::PoisonViews { vm, kind } if vm < num_vms => {
                        faults.set_poison(vm, kind);
                        faults.stats.poisoned_views += 1;
                    }
                    _ => {}
                }
            }
            faults.tally_slot();
            self.faults = Some(faults);
        }

        // 1. Admit arrivals submitted since the last step.
        for i in 0..self.incoming.len() {
            let h = self.incoming[i];
            if !self.store.requested(h).fits_within(&self.max_capacity) {
                let id = self.store.job(h).id();
                self.store.job_mut(h).state = JobState::Rejected;
                self.metrics.record_rejection();
                outcome.rejected.push(id);
                if self.options.reclaim_completed {
                    self.index_of.remove(&id);
                    self.store.release(h);
                }
            } else {
                self.pending.push(h);
                self.active += 1;
            }
        }
        self.incoming.clear();

        // 2. Ask the provisioner for a plan.
        let plan = {
            // How often the provisioner reads per-job views and deep
            // history tails (see `Provisioner::full_view_period`).
            // Off-period slots carry the VM-level fields and the newest
            // VM sample only. The period-1 equivalence test in
            // `corp-bench`'s determinism suite is what holds window-driven
            // provisioners to their declared period.
            let full_view_period = provisioner.full_view_period().max(1);
            let full = slot % full_view_period == 0;
            // Only occupied VMs and idle ones still absorbing owed zeros
            // can differ from last slot's views — unless the depth flipped
            // or a fault timeline is armed (crashes, recoveries and poison
            // bypass this bookkeeping): then every view is rebuilt.
            let whole_fleet = self.faults.is_some() || self.view_full != Some(full);
            self.view_full = Some(full);
            if full {
                // Off-period slots list no jobs, so nothing has taken the
                // parked entries' place.
                for (vm, jobs) in self.parked_jobs.drain(..) {
                    debug_assert!(self.vm_views[vm].jobs.is_empty());
                    self.vm_views[vm].jobs = jobs;
                }
            }
            if whole_fleet {
                for vm in 0..self.cluster.vms.len() {
                    self.write_view(vm, full);
                }
            } else {
                for w in 0..self.occupied.num_words() {
                    for vm in ids_in(w, self.occupied.word(w) | self.unsettled.word(w)) {
                        self.write_view(vm, full);
                    }
                }
            }
            #[cfg(test)]
            tests::check_views_against_reference(self, full);
            self.pending_views.clear();
            let store = &self.store;
            self.pending_views.extend(self.pending.iter().map(|&h| {
                let j = store.job(h);
                PendingJobView {
                    id: j.id(),
                    requested: store.requested(h),
                    arrival_slot: j.spec.arrival_slot,
                    slo_slots: j.spec.slo_slots,
                }
            }));
            let ctx = SlotContext {
                slot,
                vms: &self.vm_views,
                pending: &self.pending_views,
                max_vm_capacity: self.max_capacity,
                share: JobShare::ALL,
            };
            let started = Instant::now();
            let plan = provisioner.provision(&ctx);
            if self.options.measure_decision_time {
                self.metrics.overhead_us += started.elapsed().as_secs_f64() * 1e6;
            }
            plan
        };
        let messages = plan.adjustments.len() + plan.placements.len();
        self.metrics.overhead_us += messages as f64 * self.cluster.profile.comm_latency_us;
        self.pending_predictions.extend(plan.predictions);

        // 3. Apply allocation adjustments to running jobs. Shrinking
        // adjustments run first so that reclaim-and-restore bundles in
        // one plan never transit through a spuriously over-committed
        // state.
        let mut adjustments = plan.adjustments;
        adjustments.sort_by_key(|(job_id, new_alloc)| {
            let shrinking = self
                .index_of
                .get(job_id)
                .map(|&h| new_alloc.fits_within(&self.store.allocation(h)))
                .unwrap_or(false);
            !shrinking
        });
        for (job_id, new_alloc) in adjustments {
            let Some(&h) = self.index_of.get(&job_id) else {
                self.invalid_actions += 1;
                continue;
            };
            let JobState::Running { vm } = self.store.job(h).state else {
                self.invalid_actions += 1;
                continue;
            };
            if !new_alloc.is_finite() {
                self.invalid_actions += 1;
                self.nonfinite_actions += 1;
                continue;
            }
            if !new_alloc.is_nonnegative() {
                self.invalid_actions += 1;
                continue;
            }
            let new_alloc = new_alloc.clamp_nonnegative();
            let old = self.store.allocation(h);
            let candidate = self.vm_committed[vm] - old + new_alloc;
            if candidate
                .clamp_nonnegative()
                .fits_within(&self.cluster.vms[vm].capacity)
            {
                self.vm_committed[vm] = candidate.clamp_nonnegative();
                self.store.set_allocation(h, new_alloc);
            } else {
                self.invalid_actions += 1;
            }
        }

        // 4. Apply placements.
        for p in plan.placements {
            let Some(&h) = self.index_of.get(&p.job) else {
                self.invalid_actions += 1;
                continue;
            };
            if !p.allocation.is_finite() {
                self.invalid_actions += 1;
                self.nonfinite_actions += 1;
                continue;
            }
            // Past admission every `Pending` job is on the pending queue
            // (arrivals and crash re-enqueues put it there), so the state
            // alone says whether this one is still placeable.
            let is_pending = matches!(self.store.job(h).state, JobState::Pending);
            if !is_pending || p.vm >= self.cluster.vms.len() || !p.allocation.is_nonnegative() {
                self.invalid_actions += 1;
                continue;
            }
            // Down VMs are out of the fleet: placements onto them are
            // dropped even though nominal capacity would admit them.
            if let Some(faults) = self.faults.as_mut() {
                if faults.is_down(p.vm) {
                    self.invalid_actions += 1;
                    faults.stats.dropped_down_vm_actions += 1;
                    continue;
                }
            }
            let alloc = p.allocation.clamp_nonnegative();
            let free = self.cluster.vms[p.vm]
                .capacity
                .saturating_sub(&self.vm_committed[p.vm]);
            if !alloc.fits_within(&free) {
                self.invalid_actions += 1;
                continue;
            }
            self.vm_committed[p.vm] += alloc;
            if self.vm_jobs[p.vm].is_empty() {
                // Real samples resume this slot: settle the zeros owed
                // for the idle slots before it.
                let owed = self.owed_zeros(p.vm);
                self.vm_unused_history[p.vm].push_zeros(owed);
                self.occupied.set(p.vm, true);
            }
            self.vm_jobs[p.vm].push(h);
            self.store.set_allocation(h, alloc);
            let job = self.store.job_mut(h);
            // One sample a slot from here to completion: sized now, so
            // advance appends without reallocating (a throttled job
            // outgrows the slack and grows as any `Vec`).
            let samples = job.spec.duration_slots + HISTORY_SLACK_SLOTS;
            job.observed_demand.reserve_exact(samples);
            job.observed_unused.reserve_exact(samples);
            job.state = JobState::Running { vm: p.vm };
            job.placed_vm = Some(p.vm);
            if job.placed_slot.is_none() {
                job.placed_slot = Some(slot);
            }
            outcome.placements.push((p.job, p.vm));
            if let Some(faults) = self.faults.as_mut() {
                faults.note_placement(p.job, slot);
            }
        }
        if !outcome.placements.is_empty() {
            // One pass drops everything just placed; the survivors keep
            // their arrival order.
            let store = &self.store;
            self.pending
                .retain(|&h| matches!(store.job(h).state, JobState::Pending));
        }

        // 5. Advance running jobs and collect per-slot totals. Unoccupied
        // VMs are not visited: their sample is an owed zero.
        let mut slot_allocated = ResourceVector::ZERO;
        let mut slot_demanded = ResourceVector::ZERO;
        for w in 0..self.occupied.num_words() {
            for vm_id in ids_in(w, self.occupied.word(w)) {
                self.vm_visits += 1;
                let jobs_here = &self.vm_jobs[vm_id];
                // Physical congestion: total true demand vs capacity.
                let mut total_demand = ResourceVector::ZERO;
                for &h in jobs_here {
                    total_demand += self.store.job(h).current_demand();
                }
                // A degraded VM physically delivers only a fraction of its
                // nominal capacity; commitments are contractual and stay
                // against nominal, so only the congestion math scales.
                let cap = match self.faults.as_ref() {
                    Some(f) if f.degrade(vm_id) < 1.0 => {
                        self.cluster.vms[vm_id].capacity.scaled(f.degrade(vm_id))
                    }
                    _ => self.cluster.vms[vm_id].capacity,
                };
                let mut congestion = 1.0f64;
                for k in 0..NUM_RESOURCES {
                    if total_demand[k] > cap[k] && total_demand[k] > 0.0 {
                        congestion = congestion.min(cap[k] / total_demand[k]);
                    }
                }
                let mut vm_unused = ResourceVector::ZERO;
                let mut finished = false;
                for &h in jobs_here {
                    let demand = self.store.job(h).current_demand();
                    let allocation = self.store.allocation(h);
                    let rate = congestion.min(allocation.coverage_of(&demand));
                    let unused = allocation.saturating_sub(&demand);
                    let job = self.store.job_mut(h);
                    job.progress += rate;
                    job.observed_demand.push(demand);
                    job.observed_unused.push(unused);
                    finished |= job.work_done();
                    vm_unused += unused;
                    slot_allocated += allocation;
                    slot_demanded += demand;
                }
                if finished {
                    self.finished_vms.push(vm_id);
                }
                self.slot_vm_unused[vm_id] = vm_unused;
                self.vm_unused_history[vm_id].push(vm_unused);
            }
        }
        #[cfg(test)]
        for (series, &unused) in self.shadow_unused.iter_mut().zip(&self.slot_vm_unused) {
            series.push(unused);
        }
        self.metrics.record_slot(UtilizationSample {
            slot,
            allocated: slot_allocated,
            demanded: slot_demanded,
        });

        // 6. Resolve predictions targeting this slot: job-targeted
        // records score against that job's observed unused (dropped if
        // the job already finished), VM-targeted ones against the VM
        // total. Removal is swap_remove-style: matured records are
        // plucked without shifting the (much longer) still-pending
        // tail, so resolution costs O(matured) per slot instead of a
        // compaction of the whole queue. Resolved outcomes feed only
        // order-independent aggregates (counts and error rates), so the
        // removal order never reaches the report.
        {
            let mut i = 0;
            while i < self.pending_predictions.len() {
                if self.pending_predictions[i].target_slot > slot {
                    i += 1;
                    continue;
                }
                let p = self.pending_predictions.swap_remove(i);
                if p.target_slot != slot || p.resource >= NUM_RESOURCES {
                    continue; // stale or malformed: dropped unscored
                }
                let actual = match p.job {
                    Some(job_id) => match self.index_of.get(&job_id) {
                        Some(&h) if matches!(self.store.job(h).state, JobState::Running { .. }) => {
                            self.store
                                .job(h)
                                .observed_unused
                                .last()
                                .map(|u| u[p.resource])
                        }
                        _ => None,
                    },
                    None => self.slot_vm_unused.get(p.vm).map(|u| u[p.resource]),
                };
                if let Some(actual) = actual {
                    let outcome = PredictionOutcome {
                        vm: p.vm,
                        resource: p.resource,
                        target_slot: slot,
                        predicted: p.predicted,
                        actual,
                    };
                    let eps = PREDICTION_EPS_FRAC * self.max_capacity[p.resource];
                    self.metrics.record_prediction(&outcome, eps);
                }
            }
        }

        // 7. Completions — collected in completion order (VM id
        // ascending, scan order within a VM) from the VMs advance noted,
        // and delivered as one batch per slot, so distributed provisioners
        // can send one message per shard instead of one per job.
        #[cfg(test)]
        tests::check_finished_vms_against_full_scan(self);
        for noted in 0..self.finished_vms.len() {
            let vm_id = self.finished_vms[noted];
            self.vm_visits += 1;
            let jobs_here = &mut self.vm_jobs[vm_id];
            let mut i = 0;
            while i < jobs_here.len() {
                let h = jobs_here[i];
                let job = self.store.job(h);
                if !job.work_done() {
                    i += 1;
                    continue;
                }
                let id = job.id();
                let violated = job.violates_slo(slot);
                let response = job.response_slots(slot);
                // This slot's completions so far index the record to fill.
                if outcome.completed.len() == self.completions.len() {
                    self.completions.push(JobCompletion {
                        job: id,
                        unused_history: vec![Vec::new(); NUM_RESOURCES],
                    });
                }
                let completion = &mut self.completions[outcome.completed.len()];
                completion.job = id;
                for (r, series) in completion.unused_history.iter_mut().enumerate() {
                    series.clear();
                    series.extend(job.observed_unused.iter().map(|u| u[r]));
                }
                #[cfg(test)]
                tests::check_completion_against_fresh(job, completion);
                self.vm_committed[vm_id] =
                    (self.vm_committed[vm_id] - self.store.allocation(h)).clamp_nonnegative();
                self.store.set_allocation(h, ResourceVector::ZERO);
                self.store.job_mut(h).state = JobState::Completed {
                    finish_slot: slot,
                    violated,
                };
                self.metrics.record_completion(response, violated);
                outcome.completed.push(id);
                jobs_here.swap_remove(i);
                self.active -= 1;
                if self.options.reclaim_completed {
                    self.index_of.remove(&id);
                    self.store.release(h);
                }
            }
            if self.vm_jobs[vm_id].is_empty() {
                // This slot's sample is on the ring; zeros are owed
                // from the next one.
                self.vacate(vm_id, slot + 1);
            }
        }
        self.finished_vms.clear();
        if !outcome.completed.is_empty() {
            provisioner.on_jobs_completed(&self.completions[..outcome.completed.len()]);
        }

        self.slot += 1;
        outcome
    }

    /// Folds the accumulated metrics into a [`SimulationReport`]. Call
    /// once, after the last step — fault counters are moved into the
    /// report, so a second call would report them zeroed.
    pub fn report(&mut self, provisioner: &dyn Provisioner) -> SimulationReport {
        let fault_stats = self.faults.as_mut().map(|f| {
            f.finish();
            // The run is over and the counters are spent; taking the stats
            // hands them to the report without cloning the per-category
            // tallies.
            std::mem::take(&mut f.stats)
        });

        // Unfinished jobs are SLO violations by definition (never served in
        // time). Admitted-but-unfinished jobs are exactly `active`;
        // submitted-but-not-yet-admitted ones sit in `incoming` — counting
        // them incrementally (instead of scanning every job ever stored)
        // keeps the report O(live) under slot reclamation.
        let unfinished = self.active + self.incoming.len();

        let terminal = self.metrics.completed + self.metrics.rejected + unfinished;
        let slo_rate = if terminal == 0 {
            0.0
        } else {
            (self.metrics.violated + self.metrics.rejected + unfinished) as f64 / terminal as f64
        };

        SimulationReport {
            provisioner: provisioner.name().to_string(),
            environment: self.cluster.profile.name.clone(),
            num_jobs: self.store.total_inserted(),
            utilization: self.metrics.aggregate_utilization(),
            overall_utilization: self.metrics.aggregate_overall_utilization(),
            slo_violation_rate: slo_rate,
            prediction_error_rate: self.metrics.prediction_error_rate(),
            predictions_resolved: self.metrics.predictions_resolved(),
            overhead_ms: self.metrics.overhead_ms(),
            completed: self.metrics.completed,
            violated: self.metrics.violated,
            rejected: self.metrics.rejected,
            unfinished,
            slots_run: self.slot,
            mean_response_slots: self.metrics.mean_response_slots(),
            invalid_actions: self.invalid_actions,
            nonfinite_actions: self.nonfinite_actions,
            control_plane: provisioner.control_plane_stats(),
            faults: fault_stats,
        }
    }
}

/// The batch simulator: the streaming driver over a complete workload,
/// stably sorted by arrival slot (the paper's evaluation mode).
pub struct Simulation {
    inner: StreamingSimulation<std::vec::IntoIter<JobSpec>>,
}

impl Simulation {
    /// Builds a simulation over `cluster` with the given workload.
    pub fn new(cluster: Cluster, mut specs: Vec<JobSpec>, options: SimulationOptions) -> Self {
        specs.sort_by_key(|s| s.arrival_slot);
        Simulation {
            inner: StreamingSimulation::new(cluster, specs.into_iter(), options),
        }
    }

    /// Arms the simulation to replay `timeline` alongside the workload:
    /// VM crash/recovery windows, capacity degradation, and per-slot view
    /// poisoning, all applied at deterministic slots. An empty timeline
    /// behaves exactly like a plain [`Simulation::new`] run except that
    /// the report carries zeroed [`FaultStats`] instead of `None`.
    pub fn with_fault_timeline(mut self, timeline: FaultTimeline) -> Self {
        self.inner.engine = self.inner.engine.with_fault_timeline(timeline);
        self
    }

    /// Read access to the metrics collected so far (or after `run`).
    pub fn metrics(&self) -> &MetricsCollector {
        self.inner.engine.metrics()
    }

    /// Read access to job states after `run` (tests, detailed analyses),
    /// arrival-ordered (stable by arrival slot).
    pub fn jobs(&self) -> &[RunningJob] {
        self.inner.engine.jobs()
    }

    /// Runs the simulation to completion under `provisioner` and returns
    /// the report.
    pub fn run(&mut self, provisioner: &mut dyn Provisioner) -> SimulationReport {
        self.inner.run(provisioner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::EnvironmentProfile;
    use crate::provisioner::StaticPeakProvisioner;
    use corp_trace::{WorkloadConfig, WorkloadGenerator};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    fn small_workload(n: usize, seed: u64) -> Vec<JobSpec> {
        WorkloadGenerator::new(
            WorkloadConfig {
                num_jobs: n,
                ..WorkloadConfig::default()
            },
            seed,
        )
        .generate()
    }

    fn cluster() -> Cluster {
        Cluster::from_profile(EnvironmentProfile::palmetto_cluster())
    }

    thread_local! {
        /// Slots whose views this thread has compared with the reference.
        static VIEW_CHECKS: Cell<u64> = const { Cell::new(0) };
        /// Slots whose noted VMs this thread has compared with a full scan.
        static FINISH_CHECKS: Cell<u64> = const { Cell::new(0) };
    }

    /// The obviously-correct view construction: every view built from
    /// freshly allocated vectors straight off the engine's ground truth —
    /// no buffer reuse, no parking, no VM skipped, and VM histories read
    /// from the eager shadow series rather than the lazy rings. Off-period
    /// views list no jobs.
    fn reference_views(engine: &SlotEngine, full: bool) -> Vec<VmView> {
        let depth = if full { VIEW_HISTORY_CAP } else { 1 };
        let tail =
            |series: &[ResourceVector]| series[series.len().saturating_sub(depth)..].to_vec();
        let views = engine.cluster.vms.iter().map(|vm| {
            let faults = engine.faults.as_ref();
            if faults.is_some_and(|f| f.is_down(vm.id)) {
                return VmView {
                    id: vm.id,
                    capacity: ResourceVector::ZERO,
                    committed: ResourceVector::ZERO,
                    free: ResourceVector::ZERO,
                    jobs: Vec::new(),
                    unused_history: Vec::new(),
                };
            }
            let committed = engine.vm_committed[vm.id];
            let mut view = VmView {
                id: vm.id,
                capacity: vm.capacity,
                committed,
                free: vm.capacity.saturating_sub(&committed),
                jobs: engine.vm_jobs[vm.id]
                    .iter()
                    .filter(|_| full)
                    .map(|&h| {
                        let job = engine.store.job(h);
                        crate::provisioner::RunningJobView {
                            id: job.id(),
                            requested: engine.store.requested(h),
                            allocation: engine.store.allocation(h),
                            recent_demand: tail(&job.observed_demand),
                            recent_unused: tail(&job.observed_unused),
                        }
                    })
                    .collect(),
                unused_history: tail(&engine.shadow_unused[vm.id]),
            };
            if let Some(kind) = faults.and_then(|f| f.poison(vm.id)) {
                let tails = view
                    .jobs
                    .iter_mut()
                    .flat_map(|j| [&mut j.recent_demand, &mut j.recent_unused])
                    .chain([&mut view.unused_history]);
                for newest in tails.filter_map(|t| t.last_mut()) {
                    corrupt_vector(newest, kind);
                }
            }
            view
        });
        views.collect()
    }

    /// Called by [`SlotEngine::step`] in this crate's test builds, every
    /// slot of every test, right after the in-place view rewrite.
    pub(super) fn check_views_against_reference(engine: &SlotEngine, full: bool) {
        check_lazy_state_against_shadow(engine);
        // Debug text, not `==`: poisoned views hold NaNs.
        assert_eq!(
            format!("{:?}", engine.vm_views),
            format!("{:?}", reference_views(engine, full)),
            "in-place views diverged from a fresh rebuild at slot {}",
            engine.slot
        );
        VIEW_CHECKS.with(|n| n.set(n.get() + 1));
    }

    /// Called by [`SlotEngine::step`] in this crate's test builds, every
    /// slot of every test, between advance and the completion phase: the
    /// VMs advance noted are exactly the ones a scan of every VM's jobs
    /// finds a finished job on, in the same ascending order.
    pub(super) fn check_finished_vms_against_full_scan(engine: &SlotEngine) {
        let done = |h: &JobHandle| engine.store.job(*h).work_done();
        let scanned: Vec<usize> = (0..engine.vm_jobs.len())
            .filter(|&vm| engine.vm_jobs[vm].iter().any(done))
            .collect();
        assert_eq!(
            engine.finished_vms, scanned,
            "VMs noted by advance at slot {}",
            engine.slot
        );
        FINISH_CHECKS.with(|n| n.set(n.get() + 1));
    }

    /// Called for every completion record the engine fills: the reused
    /// record reads as one built from freshly allocated series.
    pub(super) fn check_completion_against_fresh(job: &RunningJob, completion: &JobCompletion) {
        assert_eq!(completion.job, job.id());
        let fresh: Vec<Vec<f64>> = (0..NUM_RESOURCES).map(|r| job.unused_series(r)).collect();
        assert_eq!(completion.unused_history, fresh, "job {}", job.id());
    }

    /// The lazy per-VM state against its eager ground truth: the occupied
    /// set is exactly the VMs with jobs, unoccupied VMs carry no unused
    /// total, and every ring plus the zeros it is owed reads as the tail
    /// of the series that got one sample per VM per slot.
    fn check_lazy_state_against_shadow(engine: &SlotEngine) {
        let slot = engine.slot;
        let occupied: Vec<usize> = (0..engine.occupied.num_words())
            .flat_map(|w| ids_in(w, engine.occupied.word(w)))
            .collect();
        let hosting: Vec<usize> = (0..engine.vm_jobs.len())
            .filter(|&vm| !engine.vm_jobs[vm].is_empty())
            .collect();
        assert_eq!(occupied, hosting, "occupied set at slot {slot}");
        assert_eq!(engine.occupied_vms(), hosting.len());
        let (mut lazy, mut eager) = (Vec::new(), Vec::new());
        for vm in 0..engine.vm_jobs.len() {
            let idle = engine.vm_jobs[vm].is_empty();
            if idle {
                assert_eq!(
                    engine.slot_vm_unused[vm],
                    ResourceVector::ZERO,
                    "unoccupied VM {vm} kept an unused total at slot {slot}"
                );
            }
            let owed = engine.owed_zeros(vm);
            engine.vm_unused_history[vm].copy_view(owed, true, &mut lazy);
            copy_tail(&engine.shadow_unused[vm], &mut eager);
            assert_eq!(
                lazy, eager,
                "VM {vm} at slot {slot}: ring + {owed} owed zeros is not its eager history"
            );
        }
    }

    #[test]
    fn static_peak_completes_all_jobs_without_violations() {
        // Full-peak reservations never throttle execution, so with ample
        // capacity every job completes within its SLO.
        let mut sim = Simulation::new(
            cluster(),
            small_workload(40, 1),
            SimulationOptions::default(),
        );
        let report = sim.run(&mut StaticPeakProvisioner);
        assert_eq!(report.completed, 40);
        assert_eq!(report.unfinished, 0);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.invalid_actions, 0);
        assert_eq!(report.slo_violation_rate, 0.0, "{report:?}");
    }

    #[test]
    fn static_peak_utilization_is_materially_below_one() {
        // Peak reservations waste the gap between peak and actual demand —
        // the premise of the whole paper.
        let mut sim = Simulation::new(
            cluster(),
            small_workload(60, 2),
            SimulationOptions::default(),
        );
        let report = sim.run(&mut StaticPeakProvisioner);
        assert!(
            report.overall_utilization < 0.95,
            "peak reservation should waste resources: {}",
            report.overall_utilization
        );
        assert!(
            report.overall_utilization > 0.2,
            "but demand is not negligible"
        );
    }

    #[test]
    fn oversized_job_is_rejected() {
        let mut jobs = small_workload(2, 3);
        jobs[0].requested = [999.0, 999.0, 999.0];
        let mut sim = Simulation::new(cluster(), jobs, SimulationOptions::default());
        let report = sim.run(&mut StaticPeakProvisioner);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed, 1);
        assert!(
            report.slo_violation_rate > 0.0,
            "rejection counts as violation"
        );
    }

    #[test]
    fn empty_workload_terminates_immediately() {
        let mut sim = Simulation::new(cluster(), Vec::new(), SimulationOptions::default());
        let report = sim.run(&mut StaticPeakProvisioner);
        assert_eq!(report.completed, 0);
        assert_eq!(report.slo_violation_rate, 0.0);
    }

    #[test]
    fn overhead_accumulates_comm_latency_per_message() {
        let jobs = small_workload(20, 4);
        let mut sim = Simulation::new(
            cluster(),
            jobs,
            SimulationOptions {
                measure_decision_time: false,
                ..SimulationOptions::default()
            },
        );
        let report = sim.run(&mut StaticPeakProvisioner);
        // 20 placements at 100us each = 2ms, exactly (no decision time).
        assert!(
            (report.overhead_ms - 2.0).abs() < 1e-9,
            "got {}",
            report.overhead_ms
        );
    }

    #[test]
    fn ec2_overhead_exceeds_cluster_overhead_for_same_workload() {
        let jobs = small_workload(20, 5);
        let opts = SimulationOptions {
            measure_decision_time: false,
            ..SimulationOptions::default()
        };
        let mut sim_c = Simulation::new(cluster(), jobs.clone(), opts.clone());
        let rep_c = sim_c.run(&mut StaticPeakProvisioner);
        // Scale demands down so jobs fit EC2's small nodes.
        let mut ec2_jobs = jobs;
        for j in &mut ec2_jobs {
            for r in &mut j.requested {
                *r *= 0.2;
            }
            for d in &mut j.demand {
                for v in d.iter_mut() {
                    *v *= 0.2;
                }
            }
        }
        let mut sim_e = Simulation::new(
            Cluster::from_profile(EnvironmentProfile::amazon_ec2()),
            ec2_jobs,
            opts,
        );
        let rep_e = sim_e.run(&mut StaticPeakProvisioner);
        assert!(
            rep_e.overhead_ms > rep_c.overhead_ms,
            "EC2 comm latency must dominate: {} vs {}",
            rep_e.overhead_ms,
            rep_c.overhead_ms
        );
    }

    #[test]
    fn deterministic_given_same_seed_and_policy() {
        let run = || {
            let mut sim = Simulation::new(
                cluster(),
                small_workload(30, 7),
                SimulationOptions {
                    measure_decision_time: false,
                    ..Default::default()
                },
            );
            let r = sim.run(&mut StaticPeakProvisioner);
            (r.completed, r.overall_utilization.to_bits(), r.slots_run)
        };
        assert_eq!(run(), run());
    }

    /// A deliberately hostile provisioner that issues invalid actions.
    struct Chaotic;
    impl Provisioner for Chaotic {
        fn name(&self) -> &str {
            "chaotic"
        }
        fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
            let mut plan = crate::provisioner::ProvisionPlan::default();
            // Bogus adjustment for a job that does not exist.
            plan.adjustments
                .push((u64::MAX, ResourceVector::splat(1.0)));
            // Place pending jobs on a bogus VM id, then correctly.
            for j in ctx.pending {
                plan.placements.push(crate::provisioner::Placement {
                    job: j.id,
                    vm: usize::MAX,
                    allocation: j.requested,
                });
                plan.placements.push(crate::provisioner::Placement {
                    job: j.id,
                    vm: 0,
                    allocation: j.requested,
                });
            }
            plan
        }
    }

    #[test]
    fn invalid_actions_are_dropped_not_fatal() {
        let mut jobs = small_workload(3, 8);
        // Space the arrivals so VM 0 can host them sequentially if needed.
        for (i, j) in jobs.iter_mut().enumerate() {
            j.arrival_slot = (i as u64) * 60;
        }
        let mut sim = Simulation::new(cluster(), jobs, SimulationOptions::default());
        let report = sim.run(&mut Chaotic);
        assert!(report.invalid_actions > 0);
        assert_eq!(
            report.completed, 3,
            "valid placements still apply: {report:?}"
        );
    }

    /// A provisioner that places jobs but allocates only 35% of the
    /// request — strict reservations must slow the jobs down (typical
    /// demand sits near 50% of the request, so this under-allocates nearly
    /// every job).
    struct HalfAllocator;
    impl Provisioner for HalfAllocator {
        fn name(&self) -> &str {
            "half"
        }
        fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
            let mut plan = crate::provisioner::ProvisionPlan::default();
            let mut free: Vec<ResourceVector> = ctx.vms.iter().map(|v| v.free).collect();
            for j in ctx.pending {
                let alloc = j.requested.scaled(0.35);
                if let Some(vm) = free.iter().position(|f| alloc.fits_within(f)) {
                    free[vm] -= alloc;
                    plan.placements.push(crate::provisioner::Placement {
                        job: j.id,
                        vm,
                        allocation: alloc,
                    });
                }
            }
            plan
        }
    }

    #[test]
    fn under_allocation_causes_slo_violations() {
        let mut sim = Simulation::new(
            cluster(),
            small_workload(40, 9),
            SimulationOptions::default(),
        );
        let report = sim.run(&mut HalfAllocator);
        // 35% allocation against ~50%-of-request demand => coverage ~0.7
        // on the binding resource, stretching response times past the SLO
        // slack for most jobs.
        assert!(
            report.slo_violation_rate > 0.5,
            "starved jobs must blow their SLOs: {report:?}"
        );
    }

    #[test]
    fn under_allocation_raises_utilization() {
        // The flip side: allocating closer to demand raises utilization.
        let jobs = small_workload(40, 10);
        let opts = SimulationOptions {
            measure_decision_time: false,
            ..SimulationOptions::default()
        };
        let full =
            Simulation::new(cluster(), jobs.clone(), opts.clone()).run(&mut StaticPeakProvisioner);
        let half = Simulation::new(cluster(), jobs, opts).run(&mut HalfAllocator);
        assert!(
            half.overall_utilization > full.overall_utilization,
            "tighter allocations must utilize better: {} vs {}",
            half.overall_utilization,
            full.overall_utilization
        );
    }

    /// Registers a same-slot prediction of zero unused for VM 0 every slot.
    struct ZeroPredictor(StaticPeakProvisioner);
    impl Provisioner for ZeroPredictor {
        fn name(&self) -> &str {
            "zero-pred"
        }
        fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
            let mut plan = self.0.provision(ctx);
            plan.predictions.push(PredictionRecord {
                vm: 0,
                job: None,
                resource: 0,
                made_at: ctx.slot,
                target_slot: ctx.slot,
                predicted: 0.0,
            });
            plan
        }
    }

    #[test]
    fn predictions_are_resolved_against_actuals() {
        let mut sim = Simulation::new(
            cluster(),
            small_workload(30, 11),
            SimulationOptions::default(),
        );
        let report = sim.run(&mut ZeroPredictor(StaticPeakProvisioner));
        assert!(report.predictions_resolved > 0);
        // Zero-unused predictions on a peak-allocated VM are mostly wrong.
        assert!(report.prediction_error_rate > 0.3, "{report:?}");
    }

    /// Registers per-job predictions equal to the job's last observed
    /// unused value (a persistence predictor — should score very well).
    struct JobPersistencePredictor(StaticPeakProvisioner);
    impl Provisioner for JobPersistencePredictor {
        fn name(&self) -> &str {
            "job-persistence"
        }
        fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
            let mut plan = self.0.provision(ctx);
            for vm in ctx.vms {
                for job in &vm.jobs {
                    if let Some(u) = job.recent_unused.last() {
                        plan.predictions.push(PredictionRecord {
                            vm: vm.id,
                            job: Some(job.id),
                            resource: 0,
                            made_at: ctx.slot,
                            target_slot: ctx.slot + 1,
                            predicted: u[0],
                        });
                    }
                }
            }
            plan
        }
    }

    #[test]
    fn job_targeted_predictions_resolve_against_the_job() {
        let mut sim = Simulation::new(
            cluster(),
            small_workload(30, 14),
            SimulationOptions::default(),
        );
        let report = sim.run(&mut JobPersistencePredictor(StaticPeakProvisioner));
        assert!(report.predictions_resolved > 0, "{report:?}");
        // Persistence on a per-job unused series has symmetric errors, and
        // the paper's correctness band [0, eps) rejects every
        // over-estimation — so ~half the predictions score "wrong" even
        // though their magnitudes are tiny. The rate must sit near that
        // structural 50%, far from the ~100% a systematically wrong
        // predictor would show.
        assert!(
            report.prediction_error_rate < 0.7,
            "persistence should score near the symmetric-band bound: {report:?}"
        );
        // Predictions for jobs that completed before their target slot are
        // dropped, never mis-scored: resolved <= registered.
        let metrics = sim.metrics();
        assert_eq!(metrics.predictions_resolved(), report.predictions_resolved);
        assert_eq!(
            metrics.resolved_predictions,
            [report.predictions_resolved, 0, 0],
            "every record registered was for resource 0"
        );
    }

    #[test]
    fn views_expose_job_histories_and_placed_slots_are_recorded() {
        struct Inspect {
            inner: StaticPeakProvisioner,
            saw_history: bool,
        }
        impl Provisioner for Inspect {
            fn name(&self) -> &str {
                "inspect"
            }
            fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
                for vm in ctx.vms {
                    for job in &vm.jobs {
                        assert_eq!(job.recent_demand.len(), job.recent_unused.len());
                        assert!(job.recent_demand.len() <= crate::provisioner::VIEW_HISTORY_CAP);
                        assert!(job.allocation.fits_within(&job.requested));
                        if !job.recent_demand.is_empty() {
                            self.saw_history = true;
                        }
                    }
                }
                self.inner.provision(ctx)
            }
        }
        let mut p = Inspect {
            inner: StaticPeakProvisioner,
            saw_history: false,
        };
        let mut sim = Simulation::new(
            cluster(),
            small_workload(20, 15),
            SimulationOptions::default(),
        );
        let report = sim.run(&mut p);
        assert!(p.saw_history, "views must carry usage history");
        assert_eq!(report.completed, 20);
        for j in sim.jobs() {
            if matches!(j.state, JobState::Completed { .. }) {
                let placed = j.placed_slot.expect("completed jobs were placed");
                assert!(placed >= j.spec.arrival_slot);
                assert!(j.placed_vm.is_some(), "completed jobs record a host VM");
            }
        }
    }

    #[test]
    fn vm_crash_kills_and_reenqueues_jobs_which_finish_after_recovery() {
        use corp_faults::{FaultEvent, FaultTimeline, TimedFault};
        let jobs = small_workload(10, 21);
        // Let the jobs get placed (slot 0-1), then crash every VM at slot 3
        // and bring them all back at slot 20: everything running dies, waits
        // out the outage in the queue, and restarts from scratch.
        let num_vms = cluster().vms.len();
        let mut events = Vec::new();
        for vm in 0..num_vms {
            events.push(TimedFault {
                slot: 3,
                event: FaultEvent::VmCrash { vm },
            });
            events.push(TimedFault {
                slot: 20,
                event: FaultEvent::VmRecover { vm },
            });
        }
        let mut sim = Simulation::new(cluster(), jobs, SimulationOptions::default())
            .with_fault_timeline(FaultTimeline::new(events));
        let report = sim.run(&mut StaticPeakProvisioner);
        let faults = report.faults.as_ref().expect("fault stats present");
        assert_eq!(faults.vm_crashes as usize, num_vms);
        assert_eq!(faults.vm_recoveries as usize, num_vms);
        assert!(faults.jobs_killed > 0, "{report:?}");
        assert_eq!(
            faults.replacements, faults.jobs_killed,
            "every killed job is eventually re-placed: {report:?}"
        );
        assert!(faults.mean_replacement_latency_slots >= 1.0, "{report:?}");
        assert_eq!(report.completed, 10, "{report:?}");
        assert_eq!(report.unfinished, 0);
    }

    #[test]
    fn placements_onto_down_vms_are_dropped() {
        use corp_faults::{FaultEvent, FaultTimeline, TimedFault};
        /// Ignores the zero-capacity view and insists on placing onto VM 0.
        struct Stubborn;
        impl Provisioner for Stubborn {
            fn name(&self) -> &str {
                "stubborn"
            }
            fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
                let mut plan = crate::provisioner::ProvisionPlan::default();
                for j in ctx.pending {
                    plan.placements.push(crate::provisioner::Placement {
                        job: j.id,
                        vm: 0,
                        allocation: j.requested,
                    });
                }
                plan
            }
        }
        let timeline = FaultTimeline::new(vec![TimedFault {
            slot: 0,
            event: FaultEvent::VmCrash { vm: 0 },
        }]);
        let mut sim = Simulation::new(
            cluster(),
            small_workload(3, 22),
            SimulationOptions {
                max_slots: 30,
                ..SimulationOptions::default()
            },
        )
        .with_fault_timeline(timeline);
        let report = sim.run(&mut Stubborn);
        let faults = report.faults.as_ref().expect("fault stats present");
        assert!(faults.dropped_down_vm_actions > 0, "{report:?}");
        assert_eq!(report.completed, 0, "VM 0 never hosts anything");
    }

    #[test]
    fn nonfinite_actions_are_dropped_and_counted() {
        /// Emits NaN placements first, then valid ones, plus NaN and
        /// infinite adjustments for whatever is running.
        struct Poisonous;
        impl Provisioner for Poisonous {
            fn name(&self) -> &str {
                "poisonous"
            }
            fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
                let mut plan = crate::provisioner::ProvisionPlan::default();
                for vm in ctx.vms {
                    for job in &vm.jobs {
                        plan.adjustments
                            .push((job.id, ResourceVector::splat(f64::NAN)));
                        plan.adjustments
                            .push((job.id, ResourceVector::splat(f64::INFINITY)));
                    }
                }
                for j in ctx.pending {
                    plan.placements.push(crate::provisioner::Placement {
                        job: j.id,
                        vm: 0,
                        allocation: ResourceVector::splat(f64::NAN),
                    });
                    plan.placements.push(crate::provisioner::Placement {
                        job: j.id,
                        vm: 0,
                        allocation: j.requested,
                    });
                }
                plan
            }
        }
        let mut jobs = small_workload(3, 23);
        for (i, j) in jobs.iter_mut().enumerate() {
            j.arrival_slot = (i as u64) * 60;
        }
        let mut sim = Simulation::new(cluster(), jobs, SimulationOptions::default());
        let report = sim.run(&mut Poisonous);
        assert!(report.nonfinite_actions > 0, "{report:?}");
        assert!(report.invalid_actions >= report.nonfinite_actions);
        assert_eq!(report.completed, 3, "valid placements still apply");
        // Allocations stayed finite throughout: utilization is a number.
        assert!(report.overall_utilization.is_finite());
    }

    #[test]
    fn degradation_throttles_jobs_on_the_straggler() {
        use corp_faults::{FaultEvent, FaultTimeline, TimedFault};
        let jobs = small_workload(30, 24);
        let opts = SimulationOptions {
            measure_decision_time: false,
            ..SimulationOptions::default()
        };
        let healthy =
            Simulation::new(cluster(), jobs.clone(), opts.clone()).run(&mut StaticPeakProvisioner);
        let num_vms = cluster().vms.len();
        let events = (0..num_vms)
            .map(|vm| TimedFault {
                slot: 1,
                event: FaultEvent::VmDegrade { vm, factor: 0.3 },
            })
            .collect();
        let degraded = Simulation::new(cluster(), jobs, opts)
            .with_fault_timeline(FaultTimeline::new(events))
            .run(&mut StaticPeakProvisioner);
        let faults = degraded.faults.as_ref().expect("fault stats present");
        assert!(faults.degraded_vm_slots > 0);
        assert!(
            degraded.mean_response_slots > healthy.mean_response_slots,
            "stragglers must stretch response times: {} vs {}",
            degraded.mean_response_slots,
            healthy.mean_response_slots
        );
    }

    #[test]
    fn poisoned_views_corrupt_monitoring_but_not_ground_truth() {
        use corp_faults::{FaultEvent, FaultTimeline, PoisonKind, TimedFault};
        struct SeesNan {
            inner: StaticPeakProvisioner,
            saw_nan: bool,
        }
        impl Provisioner for SeesNan {
            fn name(&self) -> &str {
                "sees-nan"
            }
            fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
                for vm in ctx.vms {
                    for job in &vm.jobs {
                        if job.recent_unused.iter().any(|u| !u.is_finite()) {
                            self.saw_nan = true;
                        }
                    }
                }
                self.inner.provision(ctx)
            }
        }
        let events = (2..12)
            .map(|slot| TimedFault {
                slot,
                event: FaultEvent::PoisonViews {
                    vm: 0,
                    kind: PoisonKind::Nan,
                },
            })
            .collect();
        let mut sim = Simulation::new(
            cluster(),
            small_workload(20, 25),
            SimulationOptions::default(),
        )
        .with_fault_timeline(FaultTimeline::new(events));
        let mut p = SeesNan {
            inner: StaticPeakProvisioner,
            saw_nan: false,
        };
        let report = sim.run(&mut p);
        assert!(p.saw_nan, "poison must reach the provisioner's view");
        let faults = report.faults.as_ref().expect("fault stats present");
        assert_eq!(faults.poisoned_views, 10);
        // Ground truth untouched: jobs complete and the metrics are finite.
        assert_eq!(report.completed, 20, "{report:?}");
        assert!(report.overall_utilization.is_finite());
    }

    #[test]
    fn empty_timeline_matches_fault_free_run_except_zeroed_stats() {
        use corp_faults::FaultTimeline;
        let jobs = small_workload(25, 26);
        let opts = SimulationOptions {
            measure_decision_time: false,
            ..SimulationOptions::default()
        };
        let plain =
            Simulation::new(cluster(), jobs.clone(), opts.clone()).run(&mut StaticPeakProvisioner);
        let faulty = Simulation::new(cluster(), jobs, opts)
            .with_fault_timeline(FaultTimeline::default())
            .run(&mut StaticPeakProvisioner);
        assert_eq!(plain.faults, None);
        assert_eq!(faulty.faults, Some(crate::faults::FaultStats::default()));
        assert_eq!(plain.completed, faulty.completed);
        assert_eq!(plain.slots_run, faulty.slots_run);
        assert_eq!(
            plain.overall_utilization.to_bits(),
            faulty.overall_utilization.to_bits(),
            "an empty schedule must not perturb a single bit"
        );
        assert_eq!(plain.slo_violation_rate, faulty.slo_violation_rate);
        assert_eq!(plain.invalid_actions, faulty.invalid_actions);
    }

    #[test]
    fn max_slots_bounds_runaway_runs() {
        /// Never places anything: jobs starve in the queue forever.
        struct DoNothing;
        impl Provisioner for DoNothing {
            fn name(&self) -> &str {
                "noop"
            }
            fn provision(&mut self, _: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
                crate::provisioner::ProvisionPlan::default()
            }
        }
        let mut sim = Simulation::new(
            cluster(),
            small_workload(5, 12),
            SimulationOptions {
                max_slots: 50,
                ..SimulationOptions::default()
            },
        );
        let report = sim.run(&mut DoNothing);
        assert_eq!(report.unfinished, 5);
        assert_eq!(report.slo_violation_rate, 1.0);
        assert!(report.slots_run <= 50 + small_workload(5, 12).last().unwrap().arrival_slot + 2);
    }

    #[test]
    fn stepped_engine_matches_batch_run_exactly() {
        // The SlotEngine pumped by hand must be indistinguishable from the
        // Simulation driver — same report bytes, same placement map. This
        // is the contract the corp-serve daemon builds on.
        let jobs = small_workload(25, 30);
        let opts = SimulationOptions {
            measure_decision_time: false,
            ..SimulationOptions::default()
        };
        let mut sim = Simulation::new(cluster(), jobs.clone(), opts.clone());
        let batch = sim.run(&mut StaticPeakProvisioner);

        let mut engine = SlotEngine::new(cluster(), opts);
        let mut provisioner = StaticPeakProvisioner;
        let mut sorted = jobs;
        sorted.sort_by_key(|j| j.arrival_slot);
        let mut next = 0;
        let mut placements = Vec::new();
        loop {
            while next < sorted.len() && sorted[next].arrival_slot <= engine.slot() {
                engine.submit(sorted[next].clone());
                next += 1;
            }
            let outcome = engine.step(&mut provisioner);
            placements.extend(outcome.placements);
            if next == sorted.len() && engine.active() == 0 {
                break;
            }
        }
        let stepped = engine.report(&provisioner);
        assert_eq!(
            serde::json::to_string(&batch),
            serde::json::to_string(&stepped),
            "stepped and batch drivers must agree byte for byte"
        );
        assert_eq!(placements.len(), batch.completed);
        for j in sim.jobs() {
            if let Some(vm) = j.placed_vm {
                assert!(placements.contains(&(j.id(), vm)));
            }
        }
    }

    #[test]
    fn reclaim_mode_report_is_byte_identical_and_arena_is_bounded() {
        // Two well-separated waves: with reclamation on, the second wave
        // reuses the first wave's arena slots, so the arena never grows to
        // the full job count — while the report stays bit-for-bit equal.
        let mut jobs = small_workload(30, 40);
        for (i, j) in jobs.iter_mut().enumerate() {
            j.arrival_slot = if i < 15 { 0 } else { 500 };
        }
        let opts = SimulationOptions {
            measure_decision_time: false,
            ..SimulationOptions::default()
        };
        let baseline =
            Simulation::new(cluster(), jobs.clone(), opts.clone()).run(&mut StaticPeakProvisioner);
        let mut sim = Simulation::new(
            cluster(),
            jobs,
            SimulationOptions {
                reclaim_completed: true,
                ..opts
            },
        );
        let reclaimed = sim.run(&mut StaticPeakProvisioner);
        assert_eq!(
            serde::json::to_string(&baseline),
            serde::json::to_string(&reclaimed),
            "slot reclamation must not change a single report byte"
        );
        let store = sim.inner.engine.store();
        assert_eq!(store.total_inserted(), 30);
        assert!(
            store.capacity() <= 15,
            "arena must be bounded by concurrently-live jobs, got {}",
            store.capacity()
        );
        assert_eq!(store.live(), 0, "everything completed and was released");
    }

    /// Static peak behind a window of the given length: slots off the
    /// period get VM-level views. Six exercises both view depths and
    /// the switches between them under the reference check; 1 is full
    /// depth every slot, `u64::MAX` VM-level only after slot 0.
    struct Windowed(u64);
    impl Provisioner for Windowed {
        fn name(&self) -> &str {
            "windowed"
        }
        fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
            StaticPeakProvisioner.provision(ctx)
        }
        fn full_view_period(&self) -> u64 {
            self.0
        }
    }

    /// Pumps `jobs` through `engine` under `Windowed(period)` until they
    /// drain, calling `inspect` with every step's outcome, and asserts
    /// the reference checks ran once per slot.
    fn pump_checked(
        mut engine: SlotEngine,
        mut jobs: Vec<JobSpec>,
        period: u64,
        mut inspect: impl FnMut(&SlotEngine, &SlotOutcome),
    ) -> SimulationReport {
        let checks = || (VIEW_CHECKS.with(Cell::get), FINISH_CHECKS.with(Cell::get));
        let (views_before, finishes_before) = checks();
        jobs.sort_by_key(|j| j.arrival_slot);
        let mut provisioner = Windowed(period);
        let mut next = 0;
        while next < jobs.len() || engine.active() > 0 {
            while next < jobs.len() && jobs[next].arrival_slot <= engine.slot() {
                engine.submit(jobs[next].clone());
                next += 1;
            }
            let outcome = engine.step(&mut provisioner);
            inspect(&engine, &outcome);
        }
        assert_eq!(
            checks(),
            (
                views_before + engine.slot(),
                finishes_before + engine.slot()
            ),
            "every slot's views and noted VMs were compared with their references"
        );
        engine.report(&provisioner)
    }

    /// [`pump_checked`] on a fresh default-options engine behind the
    /// six-slot window.
    fn run_checked(
        cluster: Cluster,
        jobs: Vec<JobSpec>,
        timeline: Option<FaultTimeline>,
        mut inspect: impl FnMut(&SlotEngine),
    ) {
        let mut engine = SlotEngine::new(cluster, SimulationOptions::default());
        if let Some(timeline) = timeline {
            engine = engine.with_fault_timeline(timeline);
        }
        pump_checked(engine, jobs, 6, |engine, _| inspect(engine));
    }

    /// A job that takes a whole VM to itself (3 of 4 cores) for exactly
    /// `duration` slots under static peak, with a demand that varies by
    /// slot so no two unused samples repeat.
    fn hog(id: u64, arrival_slot: u64, duration: usize) -> JobSpec {
        JobSpec {
            id,
            arrival_slot,
            duration_slots: duration,
            class: corp_trace::IntensityClass::Balanced,
            requested: [3.0, 4.0, 20.0],
            demand: (0..duration)
                .map(|s| {
                    let wobble = ((id as usize * 7 + s * 3) % 10) as f64 / 10.0;
                    [1.0 + wobble, 2.0 + wobble, 5.0 + wobble]
                })
                .collect(),
            slo_slots: 10_000,
            bandwidth_mbps: 0.02,
        }
    }

    #[test]
    fn owed_zeros_hold_across_gaps_view_periods_reclaim_and_crashes() {
        use corp_faults::{FaultEvent, TimedFault};
        use std::collections::BTreeSet;
        // Two waves of one-job-per-VM hogs on 8 VMs (VMs 5-7 host nothing
        // until a crash displaces a job), separated so that VM 4, the
        // longest-running of wave one, idles for exactly `gap` slots
        // before wave two lands on it; one extra job refills VM 0 the
        // slot after it empties. Every slot runs under the reference and
        // shadow checks.
        let fleet =
            || Cluster::from_profile(EnvironmentProfile::palmetto_cluster().with_num_pms(2));
        let mut rng = StdRng::seed_from_u64(0x0CC0_91ED);
        for gap in [1u64, 63, 64, 65, 200] {
            for period in [1, 6, u64::MAX] {
                for variant in ["plain", "reclaim", "faulted"] {
                    let mut middle = || rng.gen_range(4..11usize);
                    let durations = [3, middle(), middle(), middle(), 12];
                    let mut jobs: Vec<JobSpec> = durations
                        .iter()
                        .enumerate()
                        .map(|(i, &d)| hog(i as u64, 0, d))
                        .collect();
                    jobs.push(hog(5, 3, 2));
                    let second_wave = 12 + gap;
                    jobs.extend((6..11).map(|id| hog(id, second_wave, rng.gen_range(3..10usize))));
                    let total = jobs.len();

                    let mut engine = SlotEngine::new(
                        fleet(),
                        SimulationOptions {
                            reclaim_completed: variant == "reclaim",
                            ..SimulationOptions::default()
                        },
                    );
                    if variant == "faulted" {
                        // VM 1 is hosting a wave-one job when it crashes;
                        // VM 6 has never hosted anything.
                        let at = |slot, event| TimedFault { slot, event };
                        engine = engine.with_fault_timeline(FaultTimeline::new(vec![
                            at(1, FaultEvent::VmCrash { vm: 1 }),
                            at(2, FaultEvent::VmCrash { vm: 6 }),
                            at(4, FaultEvent::VmRecover { vm: 1 }),
                            at(3 + gap / 2, FaultEvent::VmRecover { vm: 6 }),
                        ]));
                    }
                    // Idle slots owed to each VM a job landed on.
                    let mut landed_after = BTreeSet::new();
                    let report = pump_checked(engine, jobs, period, |engine, outcome| {
                        for &(_, vm) in &outcome.placements {
                            landed_after.insert(engine.slot() - 1 - engine.idle_from[vm]);
                        }
                    });
                    let case = format!("gap {gap}, period {period}, {variant}");
                    assert_eq!(report.completed, total, "{case}: {report:?}");
                    assert_eq!(report.invalid_actions, 0, "{case}");
                    assert!(landed_after.contains(&gap), "{case}: {landed_after:?}");
                    assert!(
                        landed_after.contains(&0),
                        "{case}: a VM must refill the slot after it empties: {landed_after:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn slot_work_tracks_occupied_vms_not_the_fleet() {
        // 4 096 VMs, never more than 16 jobs at once, in three bursts
        // with fully idle stretches between them — all after the first
        // VIEW_HISTORY_CAP slots, where views are still filling.
        let fleet =
            Cluster::from_profile(EnvironmentProfile::palmetto_cluster().with_num_pms(1024));
        assert_eq!(fleet.vms.len(), 4096);
        let warm_up = VIEW_HISTORY_CAP as u64;
        let jobs: Vec<JobSpec> = (0..48)
            .map(|id| hog(id, warm_up + 6 + (id / 16) * 40, 10 + (id % 16) as usize))
            .collect();
        let engine = SlotEngine::new(fleet, SimulationOptions::default());
        // Before the step: visits so far, and whether the fleet was idle
        // with every view settled.
        let (mut visits_before, mut quiet_before) = (0, false);
        let (mut steady_visits, mut steady_occupied, mut idle_slots) = (0u64, 0u64, 0);
        pump_checked(engine, jobs, u64::MAX, |engine, _| {
            let visits = engine.vm_visits() - visits_before;
            let quiet = engine.occupied_vms() == 0 && engine.unsettled.len() == 0;
            if engine.slot() > warm_up {
                assert!(engine.occupied_vms() <= 16);
                steady_visits += visits;
                steady_occupied += engine.occupied_vms() as u64;
                if quiet_before && quiet {
                    assert_eq!(visits, 0, "slot {}: idle and settled", engine.slot() - 1);
                    idle_slots += 1;
                }
            }
            visits_before = engine.vm_visits();
            quiet_before = quiet;
        });
        assert!(idle_slots > 10, "the bursts must leave fully idle slots");
        assert!(steady_occupied > 0);
        assert!(
            steady_visits <= 3 * steady_occupied,
            "{steady_visits} VM visits for {steady_occupied} occupied VM-slots"
        );
    }

    /// Wraps static peak and then appends bogus placements; counts the
    /// actions the engine must refuse.
    struct Misplacer {
        rejected_job: JobId,
        expected_invalid: usize,
    }
    impl Provisioner for Misplacer {
        fn name(&self) -> &str {
            "misplacer"
        }
        fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
            let mut plan = StaticPeakProvisioner.provision(ctx);
            let again = |job, vm| crate::provisioner::Placement {
                job,
                vm,
                allocation: ResourceVector::splat(0.1),
            };
            // The same pending job a second time, onto a VM with room.
            let repeats: Vec<_> = plan.placements.iter().map(|p| again(p.job, 7)).collect();
            // Jobs already running, a job the engine never saw, and the
            // job it rejected at admission.
            let running = ctx.vms.iter().flat_map(|vm| &vm.jobs);
            let bogus: Vec<_> = running
                .map(|j| again(j.id, 7))
                .chain([again(u64::MAX - 1, 7), again(self.rejected_job, 7)])
                .collect();
            self.expected_invalid += repeats.len() + bogus.len();
            plan.placements.extend(repeats);
            plan.placements.extend(bogus);
            plan
        }
    }

    #[test]
    fn repeated_and_non_pending_placements_each_count_one_invalid_action() {
        for reclaim_completed in [false, true] {
            let mut jobs: Vec<JobSpec> = (0..6).map(|id| hog(id, id / 2, 4)).collect();
            jobs.push(JobSpec {
                requested: [999.0, 999.0, 999.0],
                ..hog(6, 0, 4)
            });
            let mut sim = Simulation::new(
                Cluster::from_profile(EnvironmentProfile::palmetto_cluster().with_num_pms(2)),
                jobs,
                SimulationOptions {
                    reclaim_completed,
                    ..SimulationOptions::default()
                },
            );
            let mut provisioner = Misplacer {
                rejected_job: 6,
                expected_invalid: 0,
            };
            let report = sim.run(&mut provisioner);
            assert_eq!(report.completed, 6, "{report:?}");
            assert_eq!(report.rejected, 1);
            assert!(provisioner.expected_invalid >= 6 + 6 + 2 * report.slots_run as usize);
            assert_eq!(report.invalid_actions, provisioner.expected_invalid);
            assert_eq!(report.nonfinite_actions, 0);
        }
    }

    #[test]
    fn placed_jobs_leave_the_queue_and_survivors_keep_arrival_order() {
        /// Places every other pending job (first-fit) and checks that the
        /// next slot's queue is exactly the jobs it skipped, in order,
        /// followed by newer arrivals.
        struct EveryOther {
            skipped: Vec<JobId>,
        }
        impl Provisioner for EveryOther {
            fn name(&self) -> &str {
                "every-other"
            }
            fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
                let queue: Vec<JobId> = ctx.pending.iter().map(|j| j.id).collect();
                assert_eq!(queue[..self.skipped.len()], self.skipped[..]);
                assert!(queue[self.skipped.len()..].windows(2).all(|w| w[0] < w[1]));
                let mut plan = StaticPeakProvisioner.provision(ctx);
                let mut keep = false;
                plan.placements.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.skipped = queue;
                self.skipped
                    .retain(|id| plan.placements.iter().all(|p| p.job != *id));
                plan
            }
        }
        let jobs: Vec<JobSpec> = (0..40).map(|id| hog(id, id / 8, 3)).collect();
        let mut sim = Simulation::new(cluster(), jobs, SimulationOptions::default());
        let report = sim.run(&mut EveryOther {
            skipped: Vec::new(),
        });
        assert_eq!(report.completed, 40, "{report:?}");
        assert_eq!(report.invalid_actions, 0);
    }

    #[test]
    fn in_place_views_match_reference_across_an_idle_gap() {
        // A long fully-idle gap (far beyond VIEW_HISTORY_CAP) between two
        // waves lets every VM's view settle, so whole slots visit nothing
        // before the second wave occupies VMs again.
        let mut jobs = small_workload(24, 41);
        for (i, j) in jobs.iter_mut().enumerate() {
            j.arrival_slot = if i < 12 { 0 } else { 400 };
        }
        let mut settled_everywhere = false;
        run_checked(cluster(), jobs, None, |engine| {
            settled_everywhere |= engine.occupied_vms() == 0 && engine.unsettled.len() == 0;
        });
        assert!(settled_everywhere, "the gap must idle and settle every VM");
    }

    #[test]
    fn in_place_views_match_reference_on_a_saturated_fleet() {
        // One burst on a small fleet: every VM fills, the rest queue, and
        // view job lists shrink and regrow as completions admit the queue.
        let mut jobs = small_workload(120, 42);
        for j in &mut jobs {
            j.arrival_slot = 0;
        }
        let small = Cluster::from_profile(EnvironmentProfile::palmetto_cluster().with_num_pms(2));
        let mut saturated = false;
        run_checked(small, jobs, None, |engine| {
            saturated |=
                !engine.pending.is_empty() && engine.vm_jobs.iter().all(|jobs| !jobs.is_empty());
        });
        assert!(saturated, "the burst must fill every VM with jobs queued");
    }

    #[test]
    fn in_place_views_match_reference_under_faults() {
        use corp_faults::{FaultEvent, PoisonKind, TimedFault};
        // VM 0 is down for slots 3..20 while VMs 1 and 2 carry NaN and
        // spike poison on the newest sample of every tail.
        let at = |slot, event| TimedFault { slot, event };
        let mut events = vec![
            at(3, FaultEvent::VmCrash { vm: 0 }),
            at(20, FaultEvent::VmRecover { vm: 0 }),
        ];
        for slot in 2..14 {
            for (vm, kind) in [(1, PoisonKind::Nan), (2, PoisonKind::Spike(10.0))] {
                events.push(at(slot, FaultEvent::PoisonViews { vm, kind }));
            }
        }
        let mut saw_down = false;
        let mut saw_poison = false;
        run_checked(
            cluster(),
            small_workload(40, 43),
            Some(FaultTimeline::new(events)),
            |engine| {
                saw_down |= engine.vm_views[0].capacity == ResourceVector::ZERO;
                saw_poison |= engine.vm_views[1]
                    .jobs
                    .iter()
                    .any(|j| j.recent_unused.iter().any(|u| !u.is_finite()));
            },
        );
        assert!(saw_down && saw_poison, "faults must reach the views");
    }

    #[test]
    fn off_period_views_list_no_jobs_and_park_them_through_faults() {
        use corp_faults::{FaultEvent, PoisonKind, TimedFault};
        // Five long hogs, one per VM, behind the six-slot window. Slot 6
        // is full, so slot 7 parks every job entry; at slot 8 — off the
        // period — VM 1 crashes with its entry parked and VM 2's
        // monitoring is poisoned. Slot 12 un-parks: VM 1's stale entry
        // must go, VM 2's must be refilled.
        let at = |slot, event| TimedFault { slot, event };
        let nan = PoisonKind::Nan;
        let timeline = FaultTimeline::new(vec![
            at(8, FaultEvent::VmCrash { vm: 1 }),
            at(8, FaultEvent::PoisonViews { vm: 2, kind: nan }),
            at(9, FaultEvent::PoisonViews { vm: 2, kind: nan }),
            at(10, FaultEvent::VmRecover { vm: 1 }),
        ]);
        let jobs = (0..5).map(|id| hog(id, 0, 20)).collect();
        let fleet = Cluster::from_profile(EnvironmentProfile::palmetto_cluster().with_num_pms(2));
        let (mut crashed_while_parked, mut poisoned_off_period, mut refilled) = (false, false, 0);
        run_checked(fleet, jobs, Some(timeline), |engine| {
            let slot = engine.slot() - 1;
            let listed = |vm: usize| engine.vm_views[vm].jobs.len();
            if slot % 6 != 0 {
                assert!(
                    (0..8).all(|vm| listed(vm) == 0),
                    "slot {slot} is off-period"
                );
            } else if slot > 0 {
                refilled += (0..8).filter(|&vm| listed(vm) == 1).count();
            }
            if slot == 8 {
                crashed_while_parked = engine.vm_views[1].capacity == ResourceVector::ZERO
                    && engine
                        .parked_jobs
                        .iter()
                        .any(|(vm, jobs)| *vm == 1 && jobs.len() == 1);
                let newest = engine.vm_views[2].unused_history.last();
                poisoned_off_period = newest.is_some_and(|u| !u.is_finite());
            }
            if slot == 12 {
                assert!(engine.parked_jobs.is_empty());
                assert_eq!(listed(1), 0, "the killed job restarted elsewhere");
            }
        });
        assert!(crashed_while_parked && poisoned_off_period);
        assert!(
            refilled >= 10,
            "slots 6 and 12 list all five jobs: {refilled}"
        );
    }

    #[test]
    fn a_throttled_job_outgrows_its_history_reservation() {
        use corp_faults::{FaultEvent, TimedFault};
        // Two ten-slot hogs. VM 0 delivers a tenth of its capacity from
        // slot 1 on, so job 0 crawls far past `duration_slots` plus slack
        // and its histories regrow; job 1 on VM 1 finishes on time inside
        // the buffers it got at placement. Every completion record is
        // compared with freshly built series by the engine's test hook.
        let reserved = 10 + HISTORY_SLACK_SLOTS;
        let timeline = FaultTimeline::new(vec![TimedFault {
            slot: 1,
            event: FaultEvent::VmDegrade { vm: 0, factor: 0.1 },
        }]);
        let (mut longest, mut regrown) = ([0; 2], [false; 2]);
        run_checked(
            cluster(),
            vec![hog(0, 0, 10), hog(1, 0, 10)],
            Some(timeline),
            |engine| {
                for (id, job) in engine.jobs().iter().enumerate() {
                    assert_eq!(job.observed_demand.len(), job.observed_unused.len());
                    let histories = [&job.observed_demand, &job.observed_unused];
                    assert!(histories.iter().all(|h| h.capacity() >= reserved));
                    longest[id] = job.observed_unused.len();
                    regrown[id] |= histories.iter().any(|h| h.capacity() >= 2 * reserved);
                }
            },
        );
        assert!(longest[0] > reserved, "job 0 ran {} slots", longest[0]);
        assert_eq!(longest[1], 10);
        assert_eq!(regrown, [true, false]);
    }

    #[test]
    fn slot_outcome_reports_rejections_and_completions() {
        let mut engine = SlotEngine::new(cluster(), SimulationOptions::default());
        let mut jobs = small_workload(2, 31);
        jobs[0].requested = [999.0, 999.0, 999.0];
        jobs[0].arrival_slot = 0;
        jobs[1].arrival_slot = 0;
        let survivor = jobs[1].id;
        let mut provisioner = StaticPeakProvisioner;
        engine.submit(jobs[0].clone());
        engine.submit(jobs[1].clone());
        let first = engine.step(&mut provisioner);
        assert_eq!(first.rejected, vec![jobs[0].id]);
        assert_eq!(first.placements, vec![(survivor, 0)]);
        let mut completed = Vec::new();
        while engine.active() > 0 {
            completed.extend(engine.step(&mut provisioner).completed);
        }
        assert_eq!(completed, vec![survivor]);
    }
}
