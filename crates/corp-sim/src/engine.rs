//! The slot-stepped simulation engine.
//!
//! Per slot the engine: admits arrivals, asks the [`Provisioner`] for a
//! plan (timing the decision and charging modeled communication latency per
//! action message), applies validated adjustments and placements, advances
//! running jobs under the strict-reservation execution model (recording
//! each job's usage history unless the provisioner declares it never reads
//! one), resolves any predictions targeting this slot, and records
//! metrics. [`SlotEngine::phase_times`] says how long each of those
//! phases has taken.
//!
//! Running jobs are one list per VM (`RunLists`, in `store.rs`), in the
//! order its jobs were placed, with `swap_remove` order on completion.
//! Advance and the views walk the occupied VMs in ascending id and each
//! one's list; the completion scan visits the VMs advance noted, and a
//! crash drains its VM's list in order.
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
//! * An adjustment must name a running job and the VM it runs on, may not
//!   push that VM's committed total above capacity and may not be
//!   negative; invalid adjustments are dropped (counted).
//! * A placement must reference a pending job and fit the VM's free
//!   capacity at application time; invalid placements are dropped.
//! * Neither may allocate a job more than it requested (to within 1e-9
//!   per resource); such actions are dropped too.
//! * Jobs whose peak request exceeds every VM's capacity are rejected at
//!   arrival (they could never run) and count as SLO violations.

use crate::cluster::Cluster;
use crate::faults::{corrupt_vector, FaultRuntime, FaultStats};
use crate::job::{JobId, JobState, RunningJob};
use crate::metrics::{MetricsCollector, UtilizationSample};
use crate::provisioner::{
    JobCompletion, JobShare, PendingJobView, PredictionRecord, Provisioner, RunningJobView,
    SlotContext, VmView, VIEW_HISTORY_CAP,
};
use crate::resources::ResourceVector;
use crate::ring::{copy_newest, copy_tail, BoundedRing};
use crate::store::{JobHandle, JobStore, RunLists};
use crate::streaming::StreamingSimulation;
use crate::vm_set::{ids_in, VmSet};
use corp_faults::{FaultEvent, FaultTimeline};
use corp_trace::{JobSpec, NUM_RESOURCES};
use serde::Serialize;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Samples reserved in a job's histories at placement beyond its
/// `duration_slots`, for a job throttled a slot or two. With 0 most
/// reclaimed jobs regrow (doubling); past 2 the room costs more than the
/// regrowths it saves (BENCHMARK_LOG.md, "The slot loop pays per job").
const HISTORY_SLACK_SLOTS: usize = 2;

/// Prediction-error tolerance for the error-rate metric, as a fraction
/// of each resource's maximum VM capacity (`eps_k = frac * C'_k`) —
/// resource types live on very different scales (cores vs. hundreds of
/// GB), so a relative tolerance is the only meaningful one.
const PREDICTION_EPS_FRAC: f64 = 0.25;

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct SimulationOptions {
    /// Hard stop: slots simulated past the last arrival before declaring
    /// remaining jobs unfinished. The cap is measured only once every
    /// arrival has been submitted, so `0` means "stop the slot after the
    /// last arrival", never "stop before it".
    pub max_slots: u64,
    /// Include measured wall-clock decision time in the overhead metric
    /// (always true for overhead experiments; harmless elsewhere).
    pub measure_decision_time: bool,
    /// Has no effect: every engine releases a job's arena slot (record,
    /// demand series, histories, SoA columns) in the slot the job
    /// completes or is rejected, so engine memory is bounded by resident
    /// jobs in every driver. The field remains so that option literals
    /// which set it still build.
    pub reclaim_completed: bool,
    /// Check the engine's bookkeeping after every step, in any build:
    /// job conservation, per-VM commitments, allocations within requests,
    /// the occupied set, and the per-VM job lists' links and membership.
    /// A violation panics with the slot and what broke. Off by
    /// default; off, it costs one branch per step. (Test builds of this
    /// crate run the same checks, and the shadow-based ones, always.) A
    /// `corp_serve::ServeDaemon` built with it also checks job
    /// conservation through its admission queue after every tick.
    pub check: bool,
}

impl Default for SimulationOptions {
    fn default() -> Self {
        SimulationOptions {
            max_slots: 100_000,
            measure_decision_time: true,
            reclaim_completed: false,
            check: false,
        }
    }
}

/// Final report of one run.
#[derive(Debug, Clone, Serialize)]
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

/// Wall time a [`SlotEngine`] has spent in each phase of
/// [`step`](SlotEngine::step) since it was built. The clock is always on
/// (one `Instant` read per phase boundary per slot) and never reaches the
/// report; the provisioner's own calls (`provision`,
/// `on_jobs_completed`) are in no phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Fault events due this slot and admission of submitted jobs.
    pub admit: Duration,
    /// VM and job views and the pending queue's views, and handing the
    /// histories lent to the views back after `provision`.
    pub views: Duration,
    /// Validating and applying the plan: predictions, adjustments,
    /// placements.
    pub apply: Duration,
    /// Advancing running jobs and the slot's utilization totals.
    pub advance: Duration,
    /// Scoring the predictions that target the slot.
    pub resolve: Duration,
    /// Collecting the slot's completions.
    pub completions: Duration,
}

impl PhaseTimes {
    /// The phases' names and times, in step order.
    pub fn named(&self) -> [(&'static str, Duration); 6] {
        [
            ("admit", self.admit),
            ("views", self.views),
            ("apply", self.apply),
            ("advance", self.advance),
            ("resolve", self.resolve),
            ("completions", self.completions),
        ]
    }
}

/// Adds the time since `*mark` to `phase` and moves the mark to now.
fn lap(phase: &mut Duration, mark: &mut Instant) {
    let now = Instant::now();
    *phase += now - *mark;
    *mark = now;
}

/// What one [`SlotEngine::step`] did: the placements it applied, the jobs
/// that finished, and the arrivals it rejected. The engine keeps nothing
/// of a job that has left, so this is where a caller learns where and
/// when each job ran: every driver's `run_inspecting` hands it out slot
/// by slot, and the serving daemon measures placement latency from it.
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
    /// Each VM's running jobs, in slot-loop order.
    runs: RunLists,
    /// The provisioner's [`full_view_period`](Provisioner::full_view_period),
    /// read at the first step and held for the run.
    view_period: Option<u64>,
    /// Per-VM unused totals per slot, the tails full views show; an idle
    /// VM's zeros are owed, not written (see `idle_from`). Empty, with no
    /// ring allocated, under a `view_period` of `u64::MAX`: no view after
    /// slot 0 shows more than `newest_unused`.
    vm_unused_history: Vec<BoundedRing>,
    /// Registered predictions by target slot: the slot takes its bucket
    /// and nothing else is looked at.
    predictions_due: HashMap<u64, Vec<PredictionRecord>>,
    /// Emptied buckets, reused for later target slots.
    spare_buckets: Vec<Vec<PredictionRecord>>,
    invalid_actions: usize,
    nonfinite_actions: usize,
    faults: Option<FaultRuntime>,
    max_capacity: ResourceVector,
    vm_committed: Vec<ResourceVector>,
    /// Admitted jobs awaiting placement (engine-side pending queue).
    pending: Vec<JobHandle>,
    /// Jobs submitted since the last step, admitted (or rejected) at the
    /// start of the next one, submission-ordered.
    incoming: Vec<JobHandle>,
    active: usize,
    slot: u64,
    /// The VMs whose job lists are not empty, updated where jobs come and
    /// go (placement, completion, crash). Advance and the view phase walk
    /// it instead of the fleet, in ascending VM id.
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
    /// Each VM's unused total on the newest slot advance visited it: the
    /// sample a newest-only view shows unless zeros are owed, and, for
    /// the VMs occupied this slot, the actual VM-targeted predictions are
    /// scored against.
    newest_unused: Vec<ResourceVector>,
    // Per-slot scratch, reused across steps instead of reallocated.
    vm_views: Vec<VmView>,
    /// `(vm, vm_views[vm].jobs)`: entries and their history buffers, taken
    /// out while off-period slots list no jobs, put back at the next full.
    parked_jobs: Vec<(usize, Vec<RunningJobView>)>,
    /// `(job, vm, i)` for every view entry `vm_views[vm].jobs[i]` holding
    /// the history buffers of `job` (swapped with the entry's) for this
    /// slot's `provision` call; swapped back right after it. Empty between
    /// steps.
    lent: Vec<(JobHandle, usize, usize)>,
    pending_views: Vec<PendingJobView>,
    /// The VMs where advance saw a job reach `work_done()` this slot,
    /// ascending: the only lists the completion phase visits.
    finished: Vec<usize>,
    /// Reused completion records; a slot delivers the prefix it filled.
    completions: Vec<JobCompletion>,
    /// See [`phase_times`](Self::phase_times).
    phase_times: PhaseTimes,
    /// Every VM's unused total for every slot, eagerly and unbounded: the
    /// ground truth the lazy rings are checked against.
    #[cfg(test)]
    shadow_unused: Vec<Vec<ResourceVector>>,
    /// Every resident job's observed demand and unused series, kept apart
    /// from its record: the ground truth lent histories are checked
    /// against.
    #[cfg(test)]
    shadow_histories: HashMap<JobHandle, [Vec<ResourceVector>; 2]>,
    /// Each VM's jobs as a `Vec` kept the obvious way — pushed on
    /// placement, `swap_remove`d on completion, drained on a crash: the
    /// ground truth the lists' order is checked against.
    #[cfg(test)]
    shadow_vm_jobs: Vec<Vec<JobHandle>>,
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
            store: JobStore::new(),
            options,
            index_of: HashMap::new(),
            metrics: MetricsCollector::new(),
            runs: RunLists::new(num_vms),
            view_period: None,
            vm_unused_history: Vec::new(),
            predictions_due: HashMap::new(),
            spare_buckets: Vec::new(),
            invalid_actions: 0,
            nonfinite_actions: 0,
            faults: None,
            max_capacity,
            vm_committed: vec![ResourceVector::ZERO; num_vms],
            pending: Vec::new(),
            incoming: Vec::new(),
            active: 0,
            slot: 0,
            occupied: VmSet::empty(num_vms),
            idle_from: vec![0; num_vms],
            unsettled: VmSet::empty(num_vms),
            view_full: None,
            vm_visits: 0,
            newest_unused: vec![ResourceVector::ZERO; num_vms],
            vm_views,
            parked_jobs: Vec::new(),
            lent: Vec::new(),
            pending_views: Vec::new(),
            finished: Vec::new(),
            completions: Vec::new(),
            phase_times: PhaseTimes::default(),
            #[cfg(test)]
            shadow_unused: vec![Vec::new(); num_vms],
            #[cfg(test)]
            shadow_histories: HashMap::new(),
            #[cfg(test)]
            shadow_vm_jobs: vec![Vec::new(); num_vms],
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
    #[cfg(test)]
    pub(crate) fn metrics(&self) -> &MetricsCollector {
        &self.metrics
    }

    /// The job arena's cold records, one entry per slot
    /// (`JobStore::as_slice`): resident jobs, and tombstones (id
    /// `u64::MAX`) where a job has left.
    /// Its length is the arena's high-water mark. What happened to a job
    /// that left is in the [`SlotOutcome`] of the slot it left in.
    pub fn jobs(&self) -> &[RunningJob] {
        self.store.as_slice()
    }

    /// The backing job store (arena occupancy and lifetime counters).
    pub fn store(&self) -> &JobStore {
        &self.store
    }

    /// Wall time spent in each phase of [`step`](Self::step) so far.
    pub fn phase_times(&self) -> PhaseTimes {
        self.phase_times
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

    /// Jobs running after the last step: the jobs on the VMs' lists.
    pub fn running_jobs(&self) -> usize {
        self.runs.running()
    }

    /// Zero samples `vm`'s history is owed as of the current slot: one
    /// per slot since it went idle, none while it hosts a job.
    fn owed_zeros(&self, vm: usize) -> u64 {
        if self.occupied.contains(vm) {
            0
        } else {
            self.slot - self.idle_from[vm]
        }
    }

    /// Marks `vm` as having just lost its last job: its history has
    /// samples through slot `idle_from − 1` and is owed zeros from there
    /// on.
    fn vacate(&mut self, vm: usize, idle_from: u64) {
        self.occupied.set(vm, false);
        self.unsettled.set(vm, true);
        self.idle_from[vm] = idle_from;
    }

    /// Whether `allocation` is within `h`'s request, to within 1e-9 per
    /// resource: what a placement or an adjustment may give a job.
    fn within_request(&self, h: JobHandle, allocation: ResourceVector) -> bool {
        allocation.fits_within(&(self.store.requested(h) + ResourceVector::splat(1e-9)))
    }

    /// Rebuilds `vm`'s view for the current slot from ground truth: the
    /// VM-level fields always, the per-job entries on `full` slots only,
    /// from the VM's list. A job entry takes the job's own history
    /// buffers for the slot (see `lent`) unless the history is longer
    /// than a view shows or the VM's monitoring is poisoned: then it gets
    /// a copy of the tail.
    fn write_view(&mut self, vm: usize, full: bool) {
        self.vm_visits += 1;
        let owed = self.owed_zeros(vm);
        let poison = self.faults.as_ref().and_then(|f| f.poison(vm));
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
        let idle = self.runs.first(vm).is_none();
        if full {
            // Match the view list to the VM's occupancy, keeping the
            // history buffers of surviving entries alive.
            view.jobs
                .resize_with(self.runs.jobs(vm).count(), RunningJobView::default);
            for (i, (jv, j)) in view.jobs.iter_mut().zip(self.runs.jobs(vm)).enumerate() {
                let h = self.store.handle_at(j);
                let job = self.store.job(h);
                (jv.id, jv.requested) = (job.id, job.requested);
                let hot = self.store.hot_mut(h);
                jv.allocation = hot.allocation;
                if poison.is_none() && hot.observed_demand.len() <= VIEW_HISTORY_CAP {
                    std::mem::swap(&mut jv.recent_demand, &mut hot.observed_demand);
                    std::mem::swap(&mut jv.recent_unused, &mut hot.observed_unused);
                    self.lent.push((h, vm, i));
                } else {
                    copy_tail(&hot.observed_demand, &mut jv.recent_demand);
                    copy_tail(&hot.observed_unused, &mut jv.recent_unused);
                }
            }
        } else if !view.jobs.is_empty() {
            // The slot after a full one: park the entries.
            self.parked_jobs.push((vm, std::mem::take(&mut view.jobs)));
        }
        match self.vm_unused_history.get(vm) {
            Some(ring) if full => ring.copy_view(owed, &mut view.unused_history),
            // Every VM has been advanced or owed a zero since slot 0.
            _ => copy_newest(
                (self.slot > 0).then(|| self.newest_unused[vm]),
                owed,
                &mut view.unused_history,
            ),
        }
        // An idle VM's view stops changing once the owed zeros fill the
        // depth on show: one sample off-period, a whole tail in full.
        let settles_at = if full { VIEW_HISTORY_CAP as u64 } else { 1 };
        self.unsettled.set(vm, idle && owed < settles_at);
        // Poisoning corrupts only the monitoring tails the provisioner
        // sees this slot, which are copies; ground truth stays intact (a
        // fault-armed engine rewrites every view from it each slot).
        if let Some(kind) = poison {
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
        let mut mark = Instant::now();
        // How often the provisioner reads per-job views and deep history
        // tails (see `Provisioner::full_view_period`), declared for the
        // run. Off-period slots carry the VM-level fields and the newest
        // VM sample only; under `u64::MAX` no history is kept at all,
        // per job or per VM, since nothing would ever read it. The
        // period-1 equivalence test in `corp-bench`'s determinism suite is
        // what holds provisioners to their declared period.
        let full_view_period = match self.view_period {
            Some(period) => period,
            None => {
                let period = provisioner.full_view_period();
                if period != u64::MAX {
                    self.vm_unused_history = vec![BoundedRing::new(); self.cluster.vms.len()];
                }
                self.view_period = Some(period);
                period
            }
        };
        let keeps_history = full_view_period != u64::MAX;

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
                        if self.occupied.contains(vm) {
                            // Its history has samples through last slot.
                            self.vacate(vm, slot);
                        }
                        while let Some(i) = self.runs.pop_front(vm) {
                            let h = self.store.handle_at(i);
                            faults.stats.jobs_killed += 1;
                            faults.kill_slot.insert(self.store.job(h).id(), slot);
                            self.store.job_mut(h).state = JobState::Pending;
                            let hot = self.store.hot_mut(h);
                            hot.progress = 0.0;
                            hot.demand_now = hot.current_demand();
                            hot.allocation = ResourceVector::ZERO;
                            self.pending.push(h);
                        }
                        #[cfg(test)]
                        self.shadow_vm_jobs[vm].clear();
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
                self.metrics.record_rejection();
                outcome.rejected.push(self.store.job(h).id());
                retire(&mut self.index_of, &mut self.store, h);
            } else {
                self.pending.push(h);
                self.active += 1;
            }
        }
        self.incoming.clear();
        lap(&mut self.phase_times.admit, &mut mark);

        // 2. Ask the provisioner for a plan.
        let plan = {
            let full = slot % full_view_period.max(1) == 0;
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
                    id: j.id,
                    requested: j.requested,
                    arrival_slot: j.arrival_slot,
                    slo_slots: j.slo_slots,
                }
            }));
            let ctx = SlotContext {
                slot,
                vms: &self.vm_views,
                pending: &self.pending_views,
                max_vm_capacity: self.max_capacity,
                share: JobShare::ALL,
            };
            lap(&mut self.phase_times.views, &mut mark);
            let plan = provisioner.provision(&ctx);
            let decided = Instant::now();
            if self.options.measure_decision_time {
                self.metrics.overhead_us += (decided - mark).as_secs_f64() * 1e6;
            }
            mark = decided;
            plan
        };
        // Every history lent to a view goes back to its job.
        for (h, vm, i) in self.lent.drain(..) {
            let view = &mut self.vm_views[vm].jobs[i];
            let hot = self.store.hot_mut(h);
            std::mem::swap(&mut view.recent_demand, &mut hot.observed_demand);
            std::mem::swap(&mut view.recent_unused, &mut hot.observed_unused);
        }
        lap(&mut self.phase_times.views, &mut mark);
        let messages = plan.adjustments.len() + plan.placements.len();
        self.metrics.overhead_us += messages as f64 * self.cluster.profile.comm_latency_us;
        // A record for a past slot could never be scored. Plans list
        // their records in runs of one target slot: one bucket lookup a run.
        let mut predictions = plan
            .predictions
            .into_iter()
            .filter(|p| p.target_slot >= slot)
            .peekable();
        while let Some(first) = predictions.next() {
            let target = first.target_slot;
            let spare = &mut self.spare_buckets;
            let bucket = self
                .predictions_due
                .entry(target)
                .or_insert_with(|| spare.pop().unwrap_or_default());
            bucket.push(first);
            while let Some(p) = predictions.next_if(|p| p.target_slot == target) {
                bucket.push(p);
            }
        }

        // 3. Apply allocation adjustments to running jobs. Shrinking
        // adjustments run first so that reclaim-and-restore bundles in
        // one plan never transit through a spuriously over-committed
        // state: a stable partition, each job looked up once.
        let mut adjustments = Vec::with_capacity(plan.adjustments.len());
        let mut grows = Vec::new();
        for a in plan.adjustments {
            let h = self.index_of.get(&a.job).copied();
            let shrinking = h.is_some_and(|h| a.allocation.fits_within(&self.store.allocation(h)));
            if shrinking {
                adjustments.push((h, a.vm, a.allocation));
            } else {
                grows.push((h, a.vm, a.allocation));
            }
        }
        adjustments.append(&mut grows);
        for (h, named_vm, new_alloc) in adjustments {
            let Some(h) = h else {
                self.invalid_actions += 1;
                continue;
            };
            // An adjustment names the VM its job runs on, as the proposer
            // read it; any other VM is refused like a bad placement's.
            let vm = match self.store.job(h).state {
                JobState::Running { vm } if vm == named_vm => vm,
                _ => {
                    self.invalid_actions += 1;
                    continue;
                }
            };
            if !new_alloc.is_finite() {
                self.invalid_actions += 1;
                self.nonfinite_actions += 1;
                continue;
            }
            if !new_alloc.is_nonnegative() || !self.within_request(h, new_alloc) {
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
                self.store.hot_mut(h).allocation = new_alloc;
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
            if !is_pending
                || p.vm >= self.cluster.vms.len()
                || !p.allocation.is_nonnegative()
                || !self.within_request(h, p.allocation)
            {
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
            if !self.occupied.contains(p.vm) {
                // Real samples resume this slot: settle the zeros owed
                // for the idle slots before it.
                let owed = self.owed_zeros(p.vm);
                if let Some(ring) = self.vm_unused_history.get_mut(p.vm) {
                    ring.push_zeros(owed);
                }
                self.occupied.set(p.vm, true);
            }
            #[cfg(test)]
            self.shadow_vm_jobs[p.vm].push(h);
            let hot = self.store.hot_mut(h);
            hot.allocation = alloc;
            if keeps_history {
                // One sample a slot from here to completion: sized now, so
                // advance appends without reallocating (a throttled job
                // outgrows the slack and grows as any `Vec`). A buffer
                // inherited from the slot's last tenant may be room enough.
                let samples = hot.duration as usize + HISTORY_SLACK_SLOTS;
                hot.observed_demand.reserve_exact(samples);
                hot.observed_unused.reserve_exact(samples);
            }
            self.runs.push(p.vm, h.index());
            self.store.job_mut(h).state = JobState::Running { vm: p.vm };
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

        lap(&mut self.phase_times.apply, &mut mark);

        // 5. Advance running jobs and collect per-slot totals, one
        // occupied VM's list at a time, in ascending VM id. Unoccupied VMs
        // are not visited: their sample is an owed zero. The congestion
        // sum needs only the first line of each hot record.
        let mut slot_allocated = ResourceVector::ZERO;
        let mut slot_demanded = ResourceVector::ZERO;
        for vm_id in self.occupied.iter() {
            self.vm_visits += 1;
            // Physical congestion: total true demand vs capacity.
            let mut total_demand = ResourceVector::ZERO;
            for i in self.runs.jobs(vm_id) {
                total_demand += self.store.hot(self.store.handle_at(i)).demand_now;
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
            let mut at = self.runs.first(vm_id);
            while let Some(i) = at {
                at = self.runs.next(i);
                let h = self.store.handle_at(i);
                let hot = self.store.hot_mut(h);
                let (demand, allocation) = (hot.demand_now, hot.allocation);
                let rate = congestion.min(allocation.coverage_of(&demand));
                let unused = allocation.saturating_sub(&demand);
                hot.progress += rate;
                hot.demand_now = hot.current_demand();
                if keeps_history {
                    hot.observed_demand.push(demand);
                    hot.observed_unused.push(unused);
                    #[cfg(test)]
                    for (series, sample) in self
                        .shadow_histories
                        .entry(h)
                        .or_default()
                        .iter_mut()
                        .zip([demand, unused])
                    {
                        series.push(sample);
                    }
                }
                finished |= hot.work_done();
                self.runs.unused[i] = unused;
                vm_unused += unused;
                slot_allocated += allocation;
                slot_demanded += demand;
            }
            if finished {
                self.finished.push(vm_id);
            }
            self.newest_unused[vm_id] = vm_unused;
            if let Some(ring) = self.vm_unused_history.get_mut(vm_id) {
                ring.push(vm_unused);
            }
        }
        #[cfg(test)]
        for (vm, series) in self.shadow_unused.iter_mut().enumerate() {
            let occupied = self.occupied.contains(vm);
            series.push(if occupied {
                self.newest_unused[vm]
            } else {
                ResourceVector::ZERO
            });
        }
        self.metrics.record_slot(UtilizationSample {
            slot,
            allocated: slot_allocated,
            demanded: slot_demanded,
        });
        lap(&mut self.phase_times.advance, &mut mark);

        // 6. Resolve the predictions targeting this slot, each with one
        // lookup: a job-targeted record scores against the unused sample
        // advance just wrote for that job (dropped unless the job is
        // running), a VM-targeted one against the VM total. Resolved
        // outcomes feed only counts, so the order records are scored in
        // never reaches the report.
        if let Some(mut due) = self.predictions_due.remove(&slot) {
            let eps = self.max_capacity.scaled(PREDICTION_EPS_FRAC);
            for p in due.drain(..) {
                let actual = match p.job {
                    Some(job_id) => self
                        .index_of
                        .get(&job_id)
                        .filter(|&&h| matches!(self.store.job(h).state, JobState::Running { .. }))
                        .map(|&h| self.runs.unused[h.index()]),
                    // An unoccupied VM's sample this slot is zero.
                    None => (p.vm < self.newest_unused.len()).then(|| {
                        if self.occupied.contains(p.vm) {
                            self.newest_unused[p.vm]
                        } else {
                            ResourceVector::ZERO
                        }
                    }),
                };
                if let Some(actual) = actual {
                    self.metrics.record_prediction(&p.predicted, &actual, &eps);
                }
            }
            self.spare_buckets.push(due);
        }
        lap(&mut self.phase_times.resolve, &mut mark);

        // 7. Completions — collected in completion order (VM id
        // ascending, scan order within a VM) from the VMs advance noted,
        // and delivered as one batch per slot, so distributed provisioners
        // can send one message per shard instead of one per job.
        #[cfg(test)]
        tests::check_finished_vms_against_full_scan(self);
        for noted in 0..self.finished.len() {
            let vm_id = self.finished[noted];
            self.vm_visits += 1;
            // Completed jobs leave the way `Vec::swap_remove` would: the
            // VM's last job takes the place, and is looked at next.
            let mut at = self.runs.first(vm_id);
            while let Some(i) = at {
                let h = self.store.handle_at(i);
                let (job, hot) = (self.store.job(h), self.store.hot(h));
                if !hot.work_done() {
                    at = self.runs.next(i);
                    continue;
                }
                let id = job.id;
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
                for (k, series) in completion.unused_history.iter_mut().enumerate() {
                    series.clear();
                    series.extend(hot.observed_unused.iter().map(|u| u[k]));
                }
                #[cfg(test)]
                tests::check_completion_against_fresh(id, hot, completion);
                self.vm_committed[vm_id] =
                    (self.vm_committed[vm_id] - hot.allocation).clamp_nonnegative();
                self.metrics.record_completion(response, violated);
                outcome.completed.push(id);
                at = self.runs.swap_remove(vm_id, i);
                #[cfg(test)]
                {
                    let jobs = &mut self.shadow_vm_jobs[vm_id];
                    if let Some(i) = jobs.iter().position(|&j| j == h) {
                        jobs.swap_remove(i);
                    }
                }
                self.active -= 1;
                retire(&mut self.index_of, &mut self.store, h);
            }
            if self.runs.first(vm_id).is_none() {
                // This slot's sample is in; zeros are owed from the next
                // one.
                self.vacate(vm_id, slot + 1);
            }
        }
        self.finished.clear();
        lap(&mut self.phase_times.completions, &mut mark);
        if !outcome.completed.is_empty() {
            provisioner.on_jobs_completed(&self.completions[..outcome.completed.len()]);
        }

        if cfg!(test) || self.options.check {
            self.check_invariants();
        }
        #[cfg(test)]
        tests::check_against_shadows(self);
        self.slot += 1;
        outcome
    }

    /// The bookkeeping the slot loop keeps incrementally, against a full
    /// recount; panics at the first disagreement. Run after every step
    /// under [`SimulationOptions::check`] and in this crate's test builds.
    fn check_invariants(&self) {
        let slot = self.slot;
        let (store, runs) = (&self.store, &self.runs);
        // Job conservation: every job ever submitted is in exactly one
        // place, or has left through a counted door.
        let running = runs.running();
        let (pending, incoming) = (self.pending.len(), self.incoming.len());
        let metrics = &self.metrics;
        assert_eq!(
            store.total_inserted(),
            incoming + pending + running + metrics.completed + metrics.rejected,
            "job conservation at slot {slot}"
        );
        assert_eq!(store.live(), incoming + pending + running, "slot {slot}");
        assert_eq!(self.active, pending + running, "slot {slot}");
        // The lists' links, before anything walks them.
        runs.check_links(slot);
        // Generation safety: every handle on a list or in the two queues
        // addresses a live job, and no arena slot is held twice.
        let num_vms = self.cluster.vms.len();
        let mut held = vec![false; store.capacity()];
        let listed = (0..num_vms).flat_map(|vm| runs.jobs(vm).map(|i| store.handle_at(i)));
        for h in listed.chain(self.pending.iter().chain(&self.incoming).copied()) {
            assert!(store.is_live(h), "stale handle {h:?} at slot {slot}");
            assert!(
                !std::mem::replace(&mut held[h.index()], true),
                "{h:?} held twice at slot {slot}"
            );
        }
        for &h in self.pending.iter().chain(&self.incoming) {
            assert_eq!(store.job(h).state, JobState::Pending, "slot {slot}");
        }
        // Each VM's list: every job on it running on that VM, holding no
        // more than it asked for. Per VM, the committed total is the sum
        // of its jobs' allocations, within capacity, and the occupied set
        // is exactly the VMs whose lists are not empty.
        let mut sums = vec![ResourceVector::ZERO; num_vms];
        let mut hosting = Vec::new();
        for (vm, sum) in sums.iter_mut().enumerate() {
            if runs.first(vm).is_some() {
                hosting.push(vm);
            }
            for i in runs.jobs(vm) {
                let h = store.handle_at(i);
                let (job, hot) = (store.job(h), store.hot(h));
                assert_eq!(
                    job.state,
                    JobState::Running { vm },
                    "job slot {i} on VM {vm}'s list at slot {slot}"
                );
                assert!(
                    self.within_request(h, hot.allocation),
                    "job {} holds {:?} of a {:?} request at slot {slot}",
                    job.id,
                    hot.allocation,
                    job.requested
                );
                assert_eq!(
                    hot.demand_now,
                    hot.current_demand(),
                    "job {} at slot {slot}",
                    job.id
                );
                *sum += hot.allocation;
            }
        }
        for (vm, sum) in sums.iter().enumerate() {
            let committed = self.vm_committed[vm];
            for k in 0..NUM_RESOURCES {
                assert!(
                    (committed[k] - sum[k]).abs() <= 1e-9,
                    "VM {vm} commits {committed:?}, its jobs hold {sum:?} at slot {slot}"
                );
            }
            let capacity = self.cluster.vms[vm].capacity + ResourceVector::splat(1e-9);
            assert!(
                sum.fits_within(&capacity),
                "VM {vm} over capacity at slot {slot}"
            );
        }
        let occupied: Vec<usize> = self.occupied.iter().collect();
        assert_eq!(occupied, hosting, "occupied set at slot {slot}");
        // Every index entry addresses a live job with that id, every lent
        // history is back in its job's record, and every pending job's
        // cached demand row is the one its progress points at.
        for (&id, &h) in &self.index_of {
            assert!(
                store.is_live(h),
                "stale index entry for job {id} at slot {slot}"
            );
            assert_eq!(store.job(h).id, id);
        }
        assert!(self.lent.is_empty(), "slot {slot}");
        for &h in &self.pending {
            let hot = store.hot(h);
            assert_eq!(hot.demand_now, hot.current_demand(), "slot {slot}");
        }
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
            predictions_resolved: self.metrics.resolved_predictions,
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

/// Drops the index entry of a job that completed or was rejected and
/// releases its arena slot. A later job may have reused the id; its entry
/// stays.
fn retire(index_of: &mut HashMap<JobId, JobHandle>, store: &mut JobStore, h: JobHandle) {
    if let Entry::Occupied(entry) = index_of.entry(store.job(h).id) {
        if *entry.get() == h {
            entry.remove();
        }
    }
    store.release(h);
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
    #[cfg(test)]
    pub(crate) fn metrics(&self) -> &MetricsCollector {
        self.inner.engine.metrics()
    }

    /// The engine's job arena ([`SlotEngine::jobs`]): after `run`, a
    /// tombstone per slot, as many as jobs were ever resident at once.
    pub fn jobs(&self) -> &[RunningJob] {
        self.inner.engine.jobs()
    }

    /// Runs the simulation to completion under `provisioner` and returns
    /// the report.
    pub fn run(&mut self, provisioner: &mut dyn Provisioner) -> SimulationReport {
        self.inner.run(provisioner)
    }

    /// [`run`](Self::run), handing every slot's engine and outcome to
    /// `inspect` ([`StreamingSimulation::run_inspecting`]).
    pub fn run_inspecting(
        &mut self,
        provisioner: &mut dyn Provisioner,
        inspect: impl FnMut(&SlotEngine, &SlotOutcome),
    ) -> SimulationReport {
        self.inner.run_inspecting(provisioner, inspect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::EnvironmentProfile;
    use crate::provisioner::{JobShare, StaticPeakProvisioner};
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
        /// Slots this thread has checked the engine's invariants after.
        static INVARIANT_CHECKS: Cell<u64> = const { Cell::new(0) };
    }

    /// The obviously-correct view construction: every view built from
    /// freshly allocated vectors straight off the engine's ground truth —
    /// no buffer reuse, no parking, no lending, no VM skipped, each VM's
    /// jobs in the order of its shadow `Vec`, and VM and job histories
    /// read from the eager shadow series rather than the lazy rings and
    /// the lists. Off-period views list no jobs.
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
                jobs: engine.shadow_vm_jobs[vm.id]
                    .iter()
                    .filter(|_| full)
                    .map(|&h| {
                        let job = engine.store.job(h);
                        let [demand, unused] =
                            &engine.shadow_histories.get(&h).cloned().unwrap_or_default();
                        crate::provisioner::RunningJobView {
                            id: job.id,
                            requested: job.requested,
                            allocation: engine.store.allocation(h),
                            recent_demand: tail(demand),
                            recent_unused: tail(unused),
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
        let done = |h: &JobHandle| engine.store.hot(*h).work_done();
        let jobs = &engine.shadow_vm_jobs;
        let scanned: Vec<usize> = (0..jobs.len())
            .filter(|&vm| jobs[vm].iter().any(done))
            .collect();
        assert_eq!(
            engine.finished, scanned,
            "VMs noted by advance at slot {}",
            engine.slot
        );
        FINISH_CHECKS.with(|n| n.set(n.get() + 1));
    }

    /// Called for every completion record the engine fills: the reused
    /// record reads as one built from freshly allocated series.
    pub(super) fn check_completion_against_fresh(
        id: JobId,
        job: &crate::job::HotJob,
        completion: &JobCompletion,
    ) {
        assert_eq!(completion.job, id);
        let fresh: Vec<Vec<f64>> = (0..NUM_RESOURCES).map(|r| job.unused_series(r)).collect();
        assert_eq!(completion.unused_history, fresh, "job {id}");
    }

    /// The handles on `vm`'s list, in order.
    fn jobs_on(engine: &SlotEngine, vm: usize) -> Vec<JobHandle> {
        let store = &engine.store;
        engine.runs.jobs(vm).map(|i| store.handle_at(i)).collect()
    }

    /// Every running job's handle, VM by VM.
    fn running(engine: &SlotEngine) -> Vec<JobHandle> {
        (0..engine.cluster.vms.len())
            .flat_map(|vm| jobs_on(engine, vm))
            .collect()
    }

    /// Called by [`SlotEngine::step`] in this crate's test builds at the
    /// end of every slot of every test, after
    /// [`SlotEngine::check_invariants`]: the state the engine keeps
    /// against its eager shadows. Each VM's list is its shadow `Vec`, in
    /// order, and every job's histories are its shadow series.
    pub(super) fn check_against_shadows(engine: &mut SlotEngine) {
        let slot = engine.slot;
        let store = &engine.store;
        engine.shadow_histories.retain(|&h, _| store.is_live(h));
        for (vm, shadow) in engine.shadow_vm_jobs.iter().enumerate() {
            assert_eq!(
                &jobs_on(engine, vm),
                shadow,
                "VM {vm}'s list at slot {slot}"
            );
        }
        for h in running(engine).into_iter().chain(engine.pending.clone()) {
            let hot = engine.store.hot(h);
            let shadow = engine.shadow_histories.get(&h).cloned().unwrap_or_default();
            assert_eq!(
                [&hot.observed_demand, &hot.observed_unused],
                [&shadow[0], &shadow[1]],
                "job {}'s histories at slot {slot}",
                engine.store.job(h).id
            );
        }
        INVARIANT_CHECKS.with(|n| n.set(n.get() + 1));
    }

    /// The lazy per-VM state against its eager ground truth: the occupied
    /// set is exactly the VMs with jobs, every VM's newest-only view reads
    /// as the newest sample of the series that got one sample per VM per
    /// slot, and, where the engine keeps rings, every ring plus the zeros
    /// it is owed reads as that series' tail. Under a view period of
    /// `u64::MAX` the engine keeps no ring: the newest sample is all any
    /// view after slot 0 can show.
    fn check_lazy_state_against_shadow(engine: &SlotEngine) {
        let slot = engine.slot;
        let occupied: Vec<usize> = engine.occupied.iter().collect();
        let hosting: Vec<usize> = (0..engine.shadow_vm_jobs.len())
            .filter(|&vm| !engine.shadow_vm_jobs[vm].is_empty())
            .collect();
        assert_eq!(occupied, hosting, "occupied set at slot {slot}");
        assert_eq!(engine.occupied_vms(), hosting.len());
        let keeps_rings = engine.view_period != Some(u64::MAX);
        assert_eq!(engine.vm_unused_history.is_empty(), !keeps_rings);
        let (mut lazy, mut eager) = (Vec::new(), Vec::new());
        for (vm, shadow) in engine.shadow_unused.iter().enumerate() {
            let owed = engine.owed_zeros(vm);
            let newest = (slot > 0).then(|| engine.newest_unused[vm]);
            copy_newest(newest, owed, &mut lazy);
            assert_eq!(
                lazy.as_slice(),
                &shadow[shadow.len().saturating_sub(1)..],
                "VM {vm} at slot {slot}: newest sample + {owed} owed zeros"
            );
            if keeps_rings {
                engine.vm_unused_history[vm].copy_view(owed, &mut lazy);
                copy_tail(shadow, &mut eager);
                assert_eq!(
                    lazy, eager,
                    "VM {vm} at slot {slot}: ring + {owed} owed zeros is not its eager history"
                );
            }
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
            plan.adjustments.push(crate::provisioner::Placement {
                job: u64::MAX,
                vm: 0,
                allocation: ResourceVector::splat(1.0),
            });
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
                target_slot: ctx.slot,
                predicted: ResourceVector::ZERO,
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

    /// Static peak that registers, every slot, VM-targeted records for
    /// the next slot, the last one, this one, the next one again and five
    /// ahead, in that order; keeps every record it made beside the slot
    /// it made it in.
    struct ScatteredTargets(Vec<(u64, PredictionRecord)>);
    impl Provisioner for ScatteredTargets {
        fn name(&self) -> &str {
            "scattered-targets"
        }
        fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
            let mut plan = StaticPeakProvisioner.provision(ctx);
            for target in [
                ctx.slot + 1,
                ctx.slot.saturating_sub(1),
                ctx.slot,
                ctx.slot + 1,
                ctx.slot + 5,
            ] {
                plan.predictions.push(PredictionRecord {
                    vm: 0,
                    job: None,
                    target_slot: target,
                    predicted: ResourceVector::ZERO,
                });
            }
            let made = plan.predictions.iter().map(|r| (ctx.slot, r.clone()));
            self.0.extend(made);
            plan
        }
    }

    #[test]
    fn predictions_resolve_in_their_target_slot_and_past_targets_never() {
        // VM-targeted records always have an actual, so exactly the ones
        // whose target is neither before the slot they were made in nor
        // past the end of the run are scored, every resource of each,
        // whatever order plans list them in.
        let mut sim = Simulation::new(
            cluster(),
            small_workload(20, 17),
            SimulationOptions::default(),
        );
        let mut p = ScatteredTargets(Vec::new());
        let report = sim.run(&mut p);
        let due = |(made, r): &&(u64, PredictionRecord)| {
            r.target_slot >= *made && r.target_slot < report.slots_run
        };
        let due_records = p.0.iter().filter(due).count();
        assert_eq!(report.predictions_resolved, NUM_RESOURCES * due_records);
        assert!(p.0.iter().any(|(made, r)| r.target_slot < *made));
    }

    /// Registers per-job predictions equal to the job's last observed
    /// unused value (a persistence predictor — should score very well).
    /// Counts the records it registers.
    struct JobPersistencePredictor(usize);
    impl Provisioner for JobPersistencePredictor {
        fn name(&self) -> &str {
            "job-persistence"
        }
        fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
            let mut plan = StaticPeakProvisioner.provision(ctx);
            for vm in ctx.vms {
                for job in &vm.jobs {
                    if let Some(u) = job.recent_unused.last() {
                        plan.predictions.push(PredictionRecord {
                            vm: vm.id,
                            job: Some(job.id),
                            target_slot: ctx.slot + 1,
                            predicted: *u,
                        });
                    }
                }
            }
            self.0 += plan.predictions.len();
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
        let mut p = JobPersistencePredictor(0);
        let report = sim.run(&mut p);
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
        // dropped, never mis-scored: resolved <= registered, and every
        // record scored scores all its resources.
        let resolved = sim.metrics().resolved_predictions;
        assert_eq!(resolved, report.predictions_resolved);
        assert_eq!(resolved % NUM_RESOURCES, 0, "{resolved}");
        assert!(resolved <= NUM_RESOURCES * p.0, "{resolved} of {}", p.0);
    }

    /// Static peak that also predicts, for every job it has placed and not
    /// yet seen complete, that half its request goes unused — job-targeted
    /// records built from its own placements, so it reads no view and can
    /// declare any period. Records the series lengths of every completion.
    struct BlindJobPredictor {
        period: u64,
        /// `(job, vm, request)` of the jobs it placed that are running.
        running: Vec<(JobId, usize, ResourceVector)>,
        completions: Vec<(JobId, Vec<usize>)>,
    }
    impl Provisioner for BlindJobPredictor {
        fn name(&self) -> &str {
            "blind-job-predictor"
        }
        fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
            let mut plan = StaticPeakProvisioner.provision(ctx);
            let placed = plan.placements.iter();
            self.running
                .extend(placed.map(|p| (p.job, p.vm, p.allocation)));
            for &(job, vm, request) in &self.running {
                plan.predictions.push(PredictionRecord {
                    vm,
                    job: Some(job),
                    // This slot, where the job was placed in it, and the
                    // next one on alternate jobs.
                    target_slot: ctx.slot + job % 2,
                    predicted: request.scaled(0.5),
                });
            }
            plan
        }
        fn on_job_completed(&mut self, job: JobId, unused_history: &[Vec<f64>]) {
            self.running.retain(|&(id, ..)| id != job);
            let lengths = unused_history.iter().map(Vec::len).collect();
            self.completions.push((job, lengths));
        }
        fn full_view_period(&self) -> u64 {
            self.period
        }
    }

    #[test]
    fn a_provisioner_that_reads_no_history_gets_none_and_the_same_scores() {
        // The same job-targeted predictions, declared under `u64::MAX`
        // (the engine keeps no per-job history) and under 1 (it keeps all
        // of it): every report byte, prediction scores included, agrees,
        // while only the second run's completions carry series.
        let run = |period| {
            let mut sim = Simulation::new(
                cluster(),
                small_workload(40, 16),
                SimulationOptions {
                    measure_decision_time: false,
                    ..SimulationOptions::default()
                },
            );
            let mut p = BlindJobPredictor {
                period,
                running: Vec::new(),
                completions: Vec::new(),
            };
            // Samples held in resident jobs' histories, summed over slots.
            let mut kept = 0;
            let report = sim.run_inspecting(&mut p, |engine, _| {
                let records = engine.store.hot_slice().iter();
                kept += records.map(|j| j.observed_unused.len()).sum::<usize>();
            });
            (serde::json::to_string(&report), report, p.completions, kept)
        };
        let (never_json, never, never_done, never_kept) = run(u64::MAX);
        let (every_json, _, every_done, every_kept) = run(1);
        assert_eq!(never_json, every_json);
        assert!(never.predictions_resolved > 0, "{never:?}");
        assert!(
            never.prediction_error_rate > 0.0 && never.prediction_error_rate < 1.0,
            "the scores must tell right from wrong: {never:?}"
        );
        assert_eq!(never.completed, 40);
        assert_eq!((never_done.len(), every_done.len()), (40, 40));
        assert_eq!(never_kept, 0, "no per-job history under u64::MAX");
        assert!(every_kept > 0);
        for ((id, never), (every_id, every)) in never_done.iter().zip(&every_done) {
            assert_eq!(id, every_id);
            assert_eq!(never, &[0; NUM_RESOURCES], "job {id}");
            assert!(every.iter().all(|&n| n > 0 && n == every[0]), "job {id}");
        }
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
        let jobs = small_workload(20, 15);
        let arrival: HashMap<JobId, u64> = jobs.iter().map(|j| (j.id, j.arrival_slot)).collect();
        let mut sim = Simulation::new(cluster(), jobs, SimulationOptions::default());
        // First placement slot of each job, from the slots' outcomes.
        let mut placed_slot: HashMap<JobId, u64> = HashMap::new();
        let mut finished: Vec<JobId> = Vec::new();
        let report = sim.run_inspecting(&mut p, |engine, outcome| {
            for &(job, _) in &outcome.placements {
                placed_slot.entry(job).or_insert(engine.slot() - 1);
            }
            finished.extend(&outcome.completed);
        });
        assert!(p.saw_history, "views must carry usage history");
        assert_eq!(report.completed, 20);
        assert_eq!(finished.len(), 20);
        for job in finished {
            let placed = placed_slot[&job];
            assert!(placed >= arrival[&job], "job {job} placed at {placed}");
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
                        for poison in [f64::NAN, f64::INFINITY] {
                            plan.adjustments.push(crate::provisioner::Placement {
                                job: job.id,
                                vm: vm.id,
                                allocation: ResourceVector::splat(poison),
                            });
                        }
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
        let mut batch_placements = Vec::new();
        let batch = sim.run_inspecting(&mut StaticPeakProvisioner, |_, outcome| {
            batch_placements.extend(&outcome.placements)
        });

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
        assert_eq!(placements, batch_placements);
    }

    #[test]
    fn reclaim_mode_report_is_byte_identical_and_arena_is_bounded() {
        // Two well-separated waves: the second wave reuses the first
        // wave's arena slots, so the arena never grows to the full job
        // count, with or without the (now inert) `reclaim_completed`.
        let mut jobs = small_workload(30, 40);
        for (i, j) in jobs.iter_mut().enumerate() {
            j.arrival_slot = if i < 15 { 0 } else { 500 };
        }
        let reports = [false, true].map(|reclaim_completed| {
            let options = SimulationOptions {
                measure_decision_time: false,
                reclaim_completed,
                ..SimulationOptions::default()
            };
            let mut sim = Simulation::new(cluster(), jobs.clone(), options);
            let report = sim.run(&mut StaticPeakProvisioner);
            let store = sim.inner.engine.store();
            assert_eq!(store.total_inserted(), 30);
            assert!(
                store.capacity() <= 15,
                "arena must be bounded by concurrently-live jobs, got {}",
                store.capacity()
            );
            assert_eq!(sim.jobs().len(), store.capacity());
            assert_eq!(store.live(), 0, "everything completed and was released");
            assert!(sim.inner.engine.index_of.is_empty());
            serde::json::to_string(&report)
        });
        assert_eq!(reports[0], reports[1]);
    }

    #[test]
    fn a_repeated_job_id_keeps_the_resident_jobs_entry() {
        // Two hogs share id 7: the first runs slots 0-2, the second is
        // placed at slot 1 and runs to slot 10. From slot 3 on, static
        // peak plus an adjustment of job 7 to its own request every slot:
        // the first job's departure must not unmap the second, or those
        // adjustments would be refused.
        struct AdjustSeven;
        impl Provisioner for AdjustSeven {
            fn name(&self) -> &str {
                "adjust-seven"
            }
            fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
                let mut plan = StaticPeakProvisioner.provision(ctx);
                if ctx.slot >= 3 && ctx.slot < 10 {
                    // The views list every running job, whatever the
                    // engine's id map holds.
                    let host = ctx.vms.iter().find(|vm| vm.jobs.iter().any(|j| j.id == 7));
                    plan.adjustments.push(crate::provisioner::Placement {
                        job: 7,
                        vm: host.expect("job 7 runs").id,
                        allocation: ResourceVector::new([3.0, 4.0, 20.0]),
                    });
                }
                plan
            }
        }
        let fleet = Cluster::from_profile(EnvironmentProfile::palmetto_cluster().with_num_pms(2));
        let mut sim = Simulation::new(
            fleet,
            vec![hog(7, 0, 3), hog(7, 1, 10)],
            SimulationOptions::default(),
        );
        let report = sim.run(&mut AdjustSeven);
        assert_eq!(report.completed, 2, "{report:?}");
        assert_eq!(report.invalid_actions, 0, "{report:?}");
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

    /// Pumps `jobs` through `engine` under `provisioner` until they
    /// drain or the engine's slot cap trips, calling `inspect` with every
    /// step's outcome, and asserts the reference checks ran once per
    /// slot.
    fn pump_checked(
        mut engine: SlotEngine,
        mut jobs: Vec<JobSpec>,
        provisioner: &mut dyn Provisioner,
        mut inspect: impl FnMut(&SlotEngine, &SlotOutcome),
    ) -> SimulationReport {
        let checks = || {
            (
                VIEW_CHECKS.with(Cell::get),
                FINISH_CHECKS.with(Cell::get),
                INVARIANT_CHECKS.with(Cell::get),
            )
        };
        let (views_before, finishes_before, invariants_before) = checks();
        jobs.sort_by_key(|j| j.arrival_slot);
        let mut next = 0;
        let last_arrival = jobs.last().map_or(0, |j| j.arrival_slot);
        while next < jobs.len() || (engine.active() > 0 && !engine.past_cap(last_arrival)) {
            while next < jobs.len() && jobs[next].arrival_slot <= engine.slot() {
                engine.submit(jobs[next].clone());
                next += 1;
            }
            let outcome = engine.step(provisioner);
            inspect(&engine, &outcome);
        }
        assert_eq!(
            checks(),
            (
                views_before + engine.slot(),
                finishes_before + engine.slot(),
                invariants_before + engine.slot()
            ),
            "every slot's views, noted VMs and invariants were checked"
        );
        engine.report(provisioner)
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
        pump_checked(engine, jobs, &mut Windowed(6), |engine, _| inspect(engine));
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
                for variant in ["plain", "faulted"] {
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

                    let mut engine = SlotEngine::new(fleet(), SimulationOptions::default());
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
                    let report =
                        pump_checked(engine, jobs, &mut Windowed(period), |engine, outcome| {
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
        pump_checked(engine, jobs, &mut Windowed(u64::MAX), |engine, _| {
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
        let mut jobs: Vec<JobSpec> = (0..6).map(|id| hog(id, id / 2, 4)).collect();
        jobs.push(JobSpec {
            requested: [999.0, 999.0, 999.0],
            ..hog(6, 0, 4)
        });
        let mut sim = Simulation::new(
            Cluster::from_profile(EnvironmentProfile::palmetto_cluster().with_num_pms(2)),
            jobs,
            SimulationOptions::default(),
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
                !engine.pending.is_empty() && engine.occupied_vms() == engine.vm_views.len();
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
                for h in running(engine) {
                    let id = engine.store.job(h).id as usize;
                    let job = engine.store.hot(h);
                    assert_eq!(job.observed_demand.len(), job.observed_unused.len());
                    let histories = [&job.observed_demand, &job.observed_unused];
                    assert!(histories.iter().all(|h| h.capacity() >= reserved));
                    longest[id] = job.observed_unused.len();
                    regrown[id] |= histories.iter().any(|h| h.capacity() >= 2 * reserved);
                }
            },
        );
        // Seen after each step: a job's last sample is written in the
        // slot it completes and leaves, so job 1 shows at most nine.
        assert!(longest[0] > reserved, "job 0 ran {} slots", longest[0]);
        assert_eq!(longest[1], 9);
        assert_eq!(regrown, [true, false]);
    }

    #[test]
    fn a_history_longer_than_a_view_is_copied_not_lent() {
        use corp_faults::{FaultEvent, TimedFault};
        // A 30-slot hog on a VM delivering a twentieth of its capacity
        // runs for about 230 slots; from slot 66 on its history is longer
        // than a view shows, so full slots copy its tail into the view
        // (which keeps the copy after the step) instead of lending.
        let timeline = FaultTimeline::new(vec![TimedFault {
            slot: 1,
            event: FaultEvent::VmDegrade {
                vm: 0,
                factor: 0.05,
            },
        }]);
        let mut copied_slots = 0;
        run_checked(cluster(), vec![hog(0, 0, 30)], Some(timeline), |engine| {
            let slot = engine.slot() - 1;
            let Some(&h) = jobs_on(engine, 0).first() else {
                return;
            };
            let history = &engine.store.hot(h).observed_unused;
            if slot % 6 == 0 && history.len() > VIEW_HISTORY_CAP + 1 {
                let view = &engine.vm_views[0].jobs[0];
                // The view was written before this slot's sample landed.
                let shown = &history[history.len() - 1 - VIEW_HISTORY_CAP..history.len() - 1];
                assert_eq!(view.recent_unused, shown, "slot {slot}");
                copied_slots += 1;
            }
        });
        assert!(copied_slots >= 10, "{copied_slots} full slots past the cap");
    }

    /// Static peak behind the six-slot window that records, per slot,
    /// whether any job history it was shown held a non-finite sample.
    struct NanWatcher(Vec<bool>);
    impl Provisioner for NanWatcher {
        fn name(&self) -> &str {
            "nan-watcher"
        }
        fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
            let jobs = ctx.vms.iter().flat_map(|vm| &vm.jobs);
            let histories = jobs.flat_map(|j| j.recent_demand.iter().chain(&j.recent_unused));
            self.0.push(histories.into_iter().any(|u| !u.is_finite()));
            StaticPeakProvisioner.provision(ctx)
        }
        fn full_view_period(&self) -> u64 {
            6
        }
    }

    #[test]
    fn a_poisoned_full_slot_corrupts_a_copy_and_the_next_slot_reads_clean() {
        use corp_faults::{FaultEvent, PoisonKind, TimedFault};
        // VM 0's monitoring is poisoned on full slot 6 only. Its view gets
        // copies with the newest samples corrupted; the job's own history
        // (compared with the shadow after every step) stays clean, and the
        // next full slot lends it, clean, to the view again.
        let timeline = FaultTimeline::new(vec![TimedFault {
            slot: 6,
            event: FaultEvent::PoisonViews {
                vm: 0,
                kind: PoisonKind::Nan,
            },
        }]);
        let engine =
            SlotEngine::new(cluster(), SimulationOptions::default()).with_fault_timeline(timeline);
        let mut watcher = NanWatcher(Vec::new());
        let report = pump_checked(engine, vec![hog(0, 0, 20)], &mut watcher, |engine, _| {
            for h in jobs_on(engine, 0) {
                let own = &engine.store.hot(h).observed_unused;
                assert!(own.iter().all(ResourceVector::is_finite));
            }
        });
        assert_eq!(report.completed, 1);
        let saw_nan: Vec<usize> = (0..watcher.0.len()).filter(|&s| watcher.0[s]).collect();
        assert_eq!(saw_nan, [6], "only the poisoned slot shows NaN");
    }

    #[test]
    fn a_crash_between_two_full_slots_returns_every_lent_history() {
        use corp_faults::{FaultEvent, TimedFault};
        // Every slot is full, so every slot lends. Half-size hogs fill
        // VMs two at a time; VM 1 crashes at slot 4 with two jobs whose
        // histories were lent the slot before. They restart elsewhere
        // with their histories intact (the invariant check compares them
        // with the shadow after every step) and finish.
        let at = |slot, event| TimedFault { slot, event };
        let timeline = FaultTimeline::new(vec![
            at(4, FaultEvent::VmCrash { vm: 1 }),
            at(9, FaultEvent::VmRecover { vm: 1 }),
        ]);
        let engine =
            SlotEngine::new(cluster(), SimulationOptions::default()).with_fault_timeline(timeline);
        let jobs = (0..6)
            .map(|id| {
                let mut job = hog(id, 0, 12);
                job.requested = [1.5, 2.0, 10.0];
                for row in &mut job.demand {
                    row.iter_mut().for_each(|d| *d *= 0.5);
                }
                job
            })
            .collect();
        let mut killed = Vec::new();
        let report = pump_checked(engine, jobs, &mut Windowed(1), |engine, _| {
            if engine.slot() == 4 {
                // Seen after slot 3: who is on VM 1 when it crashes.
                let on_vm_1 = jobs_on(engine, 1).into_iter();
                killed.extend(on_vm_1.map(|h| engine.store.job(h).id));
            }
        });
        let faults = report.faults.as_ref().expect("fault stats present");
        assert_eq!(report.completed, 6, "{report:?}");
        assert_eq!(killed.len(), 2);
        assert_eq!(faults.jobs_killed, 2, "{report:?}");
    }

    #[test]
    fn sharded_readers_share_the_lent_histories_in_place() {
        // Three scoped threads read one slot's views at once, each through
        // its own share, as a sharded coordinator's shards do: together
        // they see every job once and every lent sample.
        struct ShardedReader {
            full_slots_read: u64,
        }
        impl Provisioner for ShardedReader {
            fn name(&self) -> &str {
                "sharded-reader"
            }
            fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
                let whole = |vms: &[VmView]| {
                    let jobs = vms.iter().flat_map(|vm| &vm.jobs);
                    let samples = jobs.clone().map(|j| j.recent_unused.len()).sum::<usize>();
                    (jobs.count(), samples)
                };
                let per_shard: Vec<(usize, usize)> = std::thread::scope(|scope| {
                    let readers: Vec<_> = (0..3)
                        .map(|shard| {
                            scope.spawn(move || {
                                let share = JobShare { shard, of: 3 };
                                let view = SlotContext {
                                    slot: ctx.slot,
                                    vms: ctx.vms,
                                    pending: ctx.pending,
                                    max_vm_capacity: ctx.max_vm_capacity,
                                    share,
                                };
                                let owned = ctx.vms.iter().flat_map(|vm| view.owned_jobs(vm));
                                owned.fold((0, 0), |(jobs, samples), j| {
                                    (jobs + 1, samples + j.recent_unused.len())
                                })
                            })
                        })
                        .collect();
                    readers.into_iter().map(|r| r.join().unwrap()).collect()
                });
                let summed = per_shard
                    .iter()
                    .fold((0, 0), |(a, b), &(c, d)| (a + c, b + d));
                let (jobs, samples) = whole(ctx.vms);
                assert_eq!(summed, (jobs, samples), "slot {}", ctx.slot);
                self.full_slots_read += (samples > 0) as u64;
                StaticPeakProvisioner.provision(ctx)
            }
            fn full_view_period(&self) -> u64 {
                2
            }
        }
        let mut provisioner = ShardedReader { full_slots_read: 0 };
        let engine = SlotEngine::new(cluster(), SimulationOptions::default());
        let report = pump_checked(engine, small_workload(30, 45), &mut provisioner, |_, _| {});
        assert_eq!(report.completed, 30);
        assert!(
            provisioner.full_slots_read > 5,
            "{}",
            provisioner.full_slots_read
        );
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

    /// Static peak that offers 1.2 × the request: in every placement on
    /// even slots (odd slots place the request itself, so the jobs run),
    /// and in an adjustment of every running job every slot.
    struct OverAsker {
        over_asks: usize,
    }
    impl Provisioner for OverAsker {
        fn name(&self) -> &str {
            "over-asker"
        }
        fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
            let mut plan = StaticPeakProvisioner.provision(ctx);
            if ctx.slot % 2 == 0 {
                for p in &mut plan.placements {
                    p.allocation = p.allocation.scaled(1.2);
                }
                self.over_asks += plan.placements.len();
            }
            for vm in ctx.vms {
                for job in &vm.jobs {
                    plan.adjustments.push(crate::provisioner::Placement {
                        job: job.id,
                        vm: vm.id,
                        allocation: job.requested.scaled(1.2),
                    });
                    self.over_asks += 1;
                }
            }
            plan
        }
    }

    #[test]
    fn allocations_above_the_request_are_invalid_actions() {
        let options = SimulationOptions {
            check: true,
            ..SimulationOptions::default()
        };
        let mut sim = Simulation::new(cluster(), small_workload(12, 5), options);
        let mut provisioner = OverAsker { over_asks: 0 };
        let report = sim.run(&mut provisioner);
        assert_eq!(report.completed, 12, "{report:?}");
        assert!(provisioner.over_asks > 12, "{}", provisioner.over_asks);
        assert_eq!(report.invalid_actions, provisioner.over_asks);
        assert_eq!(report.nonfinite_actions, 0);
    }

    #[test]
    fn an_adjustment_that_names_another_vm_is_an_invalid_action() {
        /// Static peak plus, for every running job, a shrink to half its
        /// request named on the VM `offset` places past the job's own.
        struct Halver {
            offset: usize,
        }
        impl Provisioner for Halver {
            fn name(&self) -> &str {
                "halver"
            }
            fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
                let mut plan = StaticPeakProvisioner.provision(ctx);
                for vm in ctx.vms {
                    for job in &vm.jobs {
                        plan.adjustments.push(crate::provisioner::Placement {
                            job: job.id,
                            vm: (vm.id + self.offset) % ctx.vms.len(),
                            allocation: job.requested.scaled(0.5),
                        });
                    }
                }
                plan
            }
        }
        for (offset, refused) in [(0, 0), (1, 1)] {
            let mut engine = SlotEngine::new(cluster(), SimulationOptions::default());
            engine.submit(hog(1, 0, 5));
            let mut provisioner = Halver { offset };
            engine.step(&mut provisioner);
            let h = engine.index_of[&1];
            assert!(matches!(
                engine.store.job(h).state,
                JobState::Running { vm: 0 }
            ));
            let before = (engine.store.allocation(h), engine.vm_committed[0]);
            engine.step(&mut provisioner);
            assert_eq!(engine.invalid_actions, refused, "offset {offset}");
            let after = (engine.store.allocation(h), engine.vm_committed[0]);
            if refused == 1 {
                assert_eq!(after, before, "a refused adjustment changes nothing");
            } else {
                let halved = ResourceVector::new([1.5, 2.0, 10.0]);
                assert_eq!(after, (halved, halved), "named on its own VM, it applies");
            }
        }
    }

    /// One slot of a [`Scripted`] plan: placements as `(pending job pick,
    /// VM pick, allocation as a fraction of the request)` and adjustments
    /// as `(placed job pick, kind, fraction)`.
    type SlotScript = (Vec<(u8, u8, f64)>, Vec<(u8, u8, f64)>);

    /// Plays a random plan, one [`SlotScript`] a slot, then static peak
    /// once the plan runs out so the jobs can drain. A VM pick may name
    /// one past the fleet, which does not exist; adjustment kinds are 0 and 1
    /// a new allocation of the fraction of the request (growing or
    /// shrinking), 2 a negative one, 3 NaN, 4 infinity. It reads no view
    /// of a running job: it adjusts the jobs it placed and has not seen
    /// complete, so it may declare any period.
    struct Scripted {
        period: u64,
        script: Vec<SlotScript>,
        num_vms: usize,
        /// `(job, VM, request)` of every placement it made, accepted or
        /// not.
        placed: Vec<(JobId, usize, ResourceVector)>,
    }
    impl Provisioner for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn provision(&mut self, ctx: &SlotContext<'_>) -> crate::provisioner::ProvisionPlan {
            let Some((placements, adjustments)) = self.script.get(ctx.slot as usize) else {
                return StaticPeakProvisioner.provision(ctx);
            };
            let mut plan = crate::provisioner::ProvisionPlan::default();
            for &(pick, kind, fraction) in adjustments {
                let Some(&(job, vm, request)) =
                    self.placed.get(pick as usize % self.placed.len().max(1))
                else {
                    break;
                };
                let allocation = match kind {
                    0 | 1 => request.scaled(fraction),
                    2 => request.scaled(-fraction),
                    3 => ResourceVector::splat(f64::NAN),
                    _ => ResourceVector::splat(f64::INFINITY),
                };
                plan.adjustments.push(crate::provisioner::Placement {
                    job,
                    vm,
                    allocation,
                });
            }
            for &(pick, vm, fraction) in placements {
                let Some(job) = ctx.pending.get(pick as usize % ctx.pending.len().max(1)) else {
                    break;
                };
                // Half the picks crowd the first eight VMs, the faults'
                // targets; the rest range over the fleet and one past it.
                let vm = match vm {
                    0..128 => vm as usize % self.num_vms.min(8),
                    _ => vm as usize % (self.num_vms + 1),
                };
                plan.placements.push(crate::provisioner::Placement {
                    job: job.id,
                    vm,
                    allocation: job.requested.scaled(fraction),
                });
                self.placed.push((job.id, vm, job.requested));
            }
            plan
        }
        fn on_jobs_completed(&mut self, completed: &[JobCompletion]) {
            self.placed
                .retain(|(id, ..)| completed.iter().all(|c| c.job != *id));
        }
        fn full_view_period(&self) -> u64 {
            self.period
        }
    }

    /// A short job: `duration` slots of demand between a fifth and four
    /// fifths of its request, varying slot to slot.
    fn short_job(id: u64, arrival_slot: u64, duration: usize, requested: [f64; 3]) -> JobSpec {
        JobSpec {
            id,
            arrival_slot,
            duration_slots: duration,
            class: corp_trace::IntensityClass::Balanced,
            requested,
            demand: (0..duration)
                .map(|s| {
                    let share = 0.2 + 0.6 * ((id as usize * 7 + s * 3) % 10) as f64 / 10.0;
                    requested.map(|r| r * share)
                })
                .collect(),
            slo_slots: 10_000,
            bandwidth_mbps: 0.02,
        }
    }

    /// Faults as `(slot, VM pick, kind, factor)` on the fleet's first
    /// eight VMs, where first-fit packs jobs: kinds 0–5 are crash,
    /// recover, degrade by the factor, restore, NaN poison, spike poison.
    fn fault_timeline(faults: &[(u64, u8, u8, f64)], num_vms: usize) -> FaultTimeline {
        use corp_faults::{PoisonKind, TimedFault};
        let events = faults.iter().map(|&(slot, vm, kind, factor)| {
            let vm = vm as usize % num_vms.min(8);
            let event = match kind {
                0 => FaultEvent::VmCrash { vm },
                1 => FaultEvent::VmRecover { vm },
                2 => FaultEvent::VmDegrade { vm, factor },
                3 => FaultEvent::VmRestore { vm },
                4 => FaultEvent::PoisonViews {
                    vm,
                    kind: PoisonKind::Nan,
                },
                _ => FaultEvent::PoisonViews {
                    vm,
                    kind: PoisonKind::Spike(10.0),
                },
            };
            TimedFault { slot, event }
        });
        FaultTimeline::new(events.collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Random plans against every test-build check, every slot:
        /// reference views, the full scan of finished VMs, fresh
        /// completion records, the invariants and the shadows — the lists'
        /// order among them. Allocations reach 1.5 × the request, which the
        /// engine must refuse. A failed check panics inside the engine; the
        /// panic fails the case, which then shrinks to a minimal plan.
        #[test]
        fn random_plans_keep_every_check(
            num_pms in 1usize..=16,
            period in 0usize..3,
            jobs in proptest::collection::vec(
                (0u64..10, 1usize..12, 0.2f64..2.0, 0.2f64..2.5, 1.0f64..8.0, 0u8..16),
                1..60,
            ),
            script in proptest::collection::vec(
                (
                    proptest::collection::vec((0u8..=255, 0u8..=255, 0.05f64..=1.5), 0..5),
                    proptest::collection::vec((0u8..=255, 0u8..5, 0.0f64..=1.5), 0..4),
                ),
                0..30,
            ),
            faults in proptest::collection::vec((0u64..24, 0u8..=255, 0u8..6, 0.05f64..1.0), 0..10),
        ) {
            let fleet = Cluster::from_profile(
                EnvironmentProfile::palmetto_cluster().with_num_pms(num_pms),
            );
            let num_vms = fleet.vms.len();
            let specs: Vec<JobSpec> = jobs
                .iter()
                .enumerate()
                .map(|(id, &(arrival, duration, cpu, mem, disk, oversized))| {
                    // One job in sixteen asks for more than any VM has.
                    let scale = if oversized == 0 { 100.0 } else { 1.0 };
                    short_job(id as u64, arrival, duration, [cpu * scale, mem, disk])
                })
                .collect();
            let options = SimulationOptions { max_slots: 80, ..SimulationOptions::default() };
            let engine = SlotEngine::new(fleet, options)
                .with_fault_timeline(fault_timeline(&faults, num_vms));
            let period = [1, 6, u64::MAX][period];
            let mut provisioner = Scripted { period, script, num_vms, placed: Vec::new() };
            let report = pump_checked(engine, specs, &mut provisioner, |_, _| {});
            let terminal = report.completed + report.rejected + report.unfinished;
            proptest::prop_assert_eq!(terminal, jobs.len());
        }
    }
}
