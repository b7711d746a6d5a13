//! The provisioning interface between the engine and scheduling policies.
//!
//! Once per slot the engine hands the active [`Provisioner`] a
//! [`SlotContext`] — read-only views of every VM, every running job's
//! observed usage, and the pending queue — and receives a
//! [`ProvisionPlan`]: allocation adjustments for running jobs (how CORP
//! reclaims predicted-unused resources), placements for pending jobs, and
//! optional [`PredictionRecord`]s that the engine later resolves against
//! actual unused amounts to measure prediction accuracy (paper Fig. 6).
//!
//! A trivial [`StaticPeakProvisioner`] (first-fit at peak request, no
//! reclamation — classic reservation-based allocation) lives here both as
//! the simplest possible policy for engine tests and as the
//! "reservation-based" reference point from the paper's introduction.

use crate::job::JobId;
use crate::resources::ResourceVector;
use serde::{Deserialize, Serialize};

/// Cap on the per-job history tail copied into views each slot; bounds the
/// per-slot copying cost while comfortably exceeding any predictor's input
/// window.
pub const VIEW_HISTORY_CAP: usize = 64;

/// Read-only view of one running job for provisioning decisions.
#[derive(Debug, Clone, Default)]
pub struct RunningJobView {
    /// Job id.
    pub id: JobId,
    /// Peak request the job was admitted with.
    pub requested: ResourceVector,
    /// Current allocation `r_ij`.
    pub allocation: ResourceVector,
    /// Observed demand over the most recent slots (newest last, capped at
    /// [`VIEW_HISTORY_CAP`]).
    pub recent_demand: Vec<ResourceVector>,
    /// Observed unused allocation over the most recent slots (newest last)
    /// — the per-job series CORP's DNN predicts.
    pub recent_unused: Vec<ResourceVector>,
}

/// Read-only view of one VM for provisioning decisions.
#[derive(Debug, Clone)]
pub struct VmView {
    /// VM id.
    pub id: usize,
    /// Total capacity `C_ij`.
    pub capacity: ResourceVector,
    /// Sum of current job allocations on this VM.
    pub committed: ResourceVector,
    /// `capacity - committed`, never negative.
    pub free: ResourceVector,
    /// Jobs currently running here, on the slots the provisioner declared
    /// ([`Provisioner::full_view_period`]); off-period the list is empty,
    /// not stale.
    pub jobs: Vec<RunningJobView>,
    /// Per-resource total *observed unused* allocation on this VM over the
    /// most recent slots (newest last, capped at [`VIEW_HISTORY_CAP`]) —
    /// the series VM-level predictors (RCCR, CloudScale, DRA) forecast.
    /// Off-period: the newest sample alone. Predictors needing longer
    /// memory maintain their own state from the newest element each slot.
    pub unused_history: Vec<ResourceVector>,
}

/// Read-only view of a pending job.
#[derive(Debug, Clone)]
pub struct PendingJobView {
    /// Job id.
    pub id: JobId,
    /// Requested (peak) resources — what a reservation would allocate.
    pub requested: ResourceVector,
    /// Slot the job arrived.
    pub arrival_slot: u64,
    /// The job's SLO threshold in slots.
    pub slo_slots: usize,
}

/// One placement decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Which pending job.
    pub job: JobId,
    /// Destination VM.
    pub vm: usize,
    /// Initial allocation `r_ij` granted to the job.
    pub allocation: ResourceVector,
}

/// A prediction registered for later accuracy resolution: "at `made_at` we
/// predicted the unused amount of `resource` on VM `vm` (or of job `job`,
/// when set) for slot `target_slot` would be `predicted`".
///
/// The paper's Fig. 6 metric is *per job* ("we calculated the prediction
/// error ... for each job"); job-granular schemes (CORP) register per-job
/// records, VM-granular schemes (RCCR/CloudScale/DRA) per-VM ones — each
/// scheme is scored at its native prediction granularity, which is exactly
/// the comparison the paper makes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionRecord {
    /// VM the prediction concerns.
    pub vm: usize,
    /// Job the prediction concerns, for job-granular predictors.
    pub job: Option<JobId>,
    /// Resource index.
    pub resource: usize,
    /// Slot the prediction was made.
    pub made_at: u64,
    /// Slot the prediction targets.
    pub target_slot: u64,
    /// Predicted unused amount.
    pub predicted: f64,
}

/// Everything a provisioner may do in one slot.
#[derive(Debug, Clone, Default)]
pub struct ProvisionPlan {
    /// New allocations for running jobs (reclaim/restore). Applied before
    /// placements, so freed resources are placeable in the same slot.
    pub adjustments: Vec<(JobId, ResourceVector)>,
    /// Placements of pending jobs onto VMs.
    pub placements: Vec<Placement>,
    /// Predictions to score later.
    pub predictions: Vec<PredictionRecord>,
}

/// The share of the job-id space one scheduler owns: job `id` belongs to
/// share `shard` of `of` exactly when `id % of == shard`. The rule lives
/// here, once, so a sharded control plane and the pipelines it runs can
/// never disagree about who owns a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobShare {
    /// Which share, `0..of`.
    pub shard: usize,
    /// How many shares the id space is cut into (at least 1).
    pub of: usize,
}

impl JobShare {
    /// The only share of an unsharded scheduler: it owns every job.
    pub const ALL: JobShare = JobShare { shard: 0, of: 1 };

    /// The share that owns `job` when the id space is cut `of` ways.
    pub fn owner_of(job: JobId, of: usize) -> usize {
        debug_assert!(of > 0);
        (job % of as u64) as usize
    }

    /// Whether `job` belongs to this share.
    pub fn owns(&self, job: JobId) -> bool {
        Self::owner_of(job, self.of) == self.shard
    }
}

/// Read-only context handed to the provisioner each slot.
#[derive(Debug)]
pub struct SlotContext<'a> {
    /// Current slot index.
    pub slot: u64,
    /// Views of all VMs, id-indexed. On period slots every VM lists *all*
    /// of its running jobs; a provisioner acts only on the ones
    /// [`share`](Self::share) owns — walk them with
    /// [`owned_jobs`](Self::owned_jobs) rather than `vm.jobs`.
    pub vms: &'a [VmView],
    /// Jobs awaiting placement, arrival-ordered.
    pub pending: &'a [PendingJobView],
    /// The `C'` reference vector (per-resource max VM capacity, Eq. 22).
    pub max_vm_capacity: ResourceVector,
    /// Which running jobs the reader of this context owns:
    /// [`JobShare::ALL`] from the engine; a sharded coordinator hands each
    /// shard the engine's views unchanged and that shard's share instead of
    /// a filtered copy of the fleet.
    pub share: JobShare,
}

impl SlotContext<'_> {
    /// The running jobs on `vm` that this context's reader owns, in view
    /// order — so a sum or a task list built over them is, bit for bit and
    /// index for index, the one a copy of the views filtered to
    /// [`share`](Self::share) would give.
    pub fn owned_jobs<'v>(&self, vm: &'v VmView) -> impl Iterator<Item = &'v RunningJobView> + 'v {
        let share = self.share;
        vm.jobs.iter().filter(move |job| share.owns(job.id))
    }
}

/// One completed job's identity and full per-resource unused history —
/// the unit of the engine's batched completion notification.
#[derive(Debug, Clone)]
pub struct JobCompletion {
    /// The completed job.
    pub job: JobId,
    /// Full unused-resource history, one series per resource.
    pub unused_history: Vec<Vec<f64>>,
}

/// A scheduling policy driving the simulator.
pub trait Provisioner {
    /// Display name (used in experiment tables).
    fn name(&self) -> &str;

    /// Produces this slot's plan.
    fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan;

    /// Notifies the provisioner of a completed job's full unused-resource
    /// history (per resource), so learning policies can fold finished jobs
    /// into their training corpus. Default: ignore.
    fn on_job_completed(&mut self, job: JobId, unused_history: &[Vec<f64>]) {
        let _ = (job, unused_history);
    }

    /// Notifies the provisioner of every job that completed this slot, in
    /// completion order (VM id ascending, scan order within a VM). The
    /// engine calls this once per slot with the slot's batch instead of one
    /// [`on_job_completed`](Self::on_job_completed) call per job, so a
    /// sharded provisioner routes the slot's batch to its shards in one
    /// pass. Default: deliver each completion through `on_job_completed`, so
    /// monolithic provisioners observe the exact per-job sequence they
    /// always did.
    fn on_jobs_completed(&mut self, completed: &[JobCompletion]) {
        for c in completed {
            self.on_job_completed(c.job, &c.unused_history);
        }
    }

    /// Control-plane counters for sharded (multi-scheduler) provisioners,
    /// folded into the [`SimulationReport`](crate::SimulationReport) after
    /// a run. Monolithic schedulers have no control plane; default `None`.
    fn control_plane_stats(&self) -> Option<crate::control_plane::ControlPlaneStats> {
        None
    }

    /// Degradation hint from an overload controller (the corp-serve
    /// brownout ladder). `0` is full service; `1` asks the provisioner to
    /// skip opportunistic reallocation; `2` additionally asks it to stop
    /// paying for expensive forecasting and fall back to its cheapest
    /// prediction path. Levels are cumulative and may be raised or lowered
    /// at any slot boundary. Default: ignore — a provisioner with no
    /// degradable stages simply keeps serving at full fidelity.
    fn set_service_level(&mut self, level: u8) {
        let _ = level;
    }

    /// Slot period at which this provisioner reads per-job views and deep
    /// histories. The contract: per-job views and deep histories on period
    /// slots only. On slots divisible by the period (slot 0 included) every
    /// [`VmView::jobs`] lists the VM's running jobs and every history
    /// carries its [`VIEW_HISTORY_CAP`] tail; off-period `jobs` is empty,
    /// not stale, and `unused_history` holds its newest sample alone, while
    /// capacity, commitment and the pending queue are current on every
    /// slot. Window-driven pipelines return their window length (forecast,
    /// reallocation and outcome scoring all land on window boundaries); a
    /// provisioner that reads running jobs or deep tails on every slot
    /// must keep the default of 1.
    fn full_view_period(&self) -> u64 {
        1
    }
}

/// Reservation-based first-fit: allocate every job its full peak request on
/// the first VM with room; never reclaim. The paper's description of
/// classic reservation-based allocation — guaranteed SLO, wasteful
/// utilization.
#[derive(Debug, Default)]
pub struct StaticPeakProvisioner;

impl Provisioner for StaticPeakProvisioner {
    fn name(&self) -> &str {
        "static-peak"
    }

    fn provision(&mut self, ctx: &SlotContext<'_>) -> ProvisionPlan {
        let mut plan = ProvisionPlan::default();
        // A VM too full for the componentwise-smallest request is too
        // full for every pending job, and receiving none it stays so: the
        // leading run of such VMs is out of every scan.
        let smallest = ctx.pending.iter().map(|job| job.requested);
        let smallest = smallest.reduce(|least, request| least.min(&request));
        let start = smallest.and_then(|s| ctx.vms.iter().position(|v| s.fits_within(&v.free)));
        let Some(start) = start else { return plan };
        // Free capacity of VMs `start..` as this slot's placements commit
        // it, copied out of the views only as far as some scan has reached.
        let mut free: Vec<ResourceVector> = Vec::new();
        for job in ctx.pending {
            for (i, view) in ctx.vms[start..].iter().enumerate() {
                if i == free.len() {
                    free.push(view.free);
                }
                if job.requested.fits_within(&free[i]) {
                    free[i] -= job.requested;
                    plan.placements.push(Placement {
                        job: job.id,
                        vm: start + i,
                        allocation: job.requested,
                    });
                    break;
                }
            }
        }
        plan
    }

    /// First-fit reads each VM's `free` and nothing else: no per-job view
    /// and no history, on any slot.
    fn full_view_period(&self) -> u64 {
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vm_view(id: usize, free: [f64; 3]) -> VmView {
        VmView {
            id,
            capacity: ResourceVector::new([4.0, 16.0, 180.0]),
            committed: ResourceVector::new([4.0, 16.0, 180.0]) - ResourceVector::new(free),
            free: ResourceVector::new(free),
            jobs: Vec::new(),
            unused_history: Vec::new(),
        }
    }

    fn pending(id: JobId, req: [f64; 3]) -> PendingJobView {
        PendingJobView {
            id,
            requested: ResourceVector::new(req),
            arrival_slot: 0,
            slo_slots: 10,
        }
    }

    /// The first-fit static peak replaces: copy every VM's free pool,
    /// then scan the whole copy from VM 0 for each job.
    fn copy_the_fleet_first_fit(ctx: &SlotContext<'_>) -> Vec<Placement> {
        let mut placements = Vec::new();
        let mut free: Vec<ResourceVector> = ctx.vms.iter().map(|v| v.free).collect();
        for job in ctx.pending {
            if let Some(vm) = free.iter().position(|f| job.requested.fits_within(f)) {
                free[vm] -= job.requested;
                placements.push(Placement {
                    job: job.id,
                    vm,
                    allocation: job.requested,
                });
            }
        }
        placements
    }

    /// Half-unit components in `[0, 4]`: exact fits, ties and VMs with
    /// nothing free are common instead of measure-zero.
    fn quantized() -> impl Strategy<Value = [f64; 3]> {
        (0u8..=8, 0u8..=8, 0u8..=8).prop_map(|(a, b, c)| [a, b, c].map(|x| f64::from(x) * 0.5))
    }

    proptest! {
        #[test]
        fn lazy_first_fit_places_exactly_as_the_fleet_copy_did(
            free in prop::collection::vec(quantized(), 1..40),
            // Leading VMs too full for any request below.
            full_prefix in 0usize..12,
            requests in prop::collection::vec(quantized(), 0..30),
            floor in 0u8..=3,
        ) {
            let vms: Vec<VmView> = std::iter::repeat_n([0.0; 3], full_prefix)
                .chain(free)
                .enumerate()
                .map(|(id, free)| vm_view(id, free))
                .collect();
            let jobs: Vec<PendingJobView> = requests
                .iter()
                .enumerate()
                .map(|(id, r)| pending(id as JobId, r.map(|x| x.max(f64::from(floor) * 0.5))))
                .collect();
            let ctx = SlotContext {
                slot: 0,
                vms: &vms,
                pending: &jobs,
                max_vm_capacity: ResourceVector::new([4.0, 16.0, 180.0]),
                share: JobShare::ALL,
            };
            let plan = StaticPeakProvisioner.provision(&ctx);
            prop_assert_eq!(plan.placements, copy_the_fleet_first_fit(&ctx));
            prop_assert!(plan.adjustments.is_empty() && plan.predictions.is_empty());
        }
    }

    #[test]
    fn static_peak_places_first_fit() {
        let vms = vec![vm_view(0, [1.0, 1.0, 1.0]), vm_view(1, [4.0, 16.0, 180.0])];
        let jobs = vec![pending(7, [2.0, 2.0, 2.0])];
        let ctx = SlotContext {
            slot: 0,
            vms: &vms,
            pending: &jobs,
            max_vm_capacity: ResourceVector::new([4.0, 16.0, 180.0]),
            share: JobShare::ALL,
        };
        let plan = StaticPeakProvisioner.provision(&ctx);
        assert_eq!(plan.placements.len(), 1);
        assert_eq!(plan.placements[0].vm, 1, "VM 0 lacks room");
        assert_eq!(
            plan.placements[0].allocation,
            ResourceVector::new([2.0, 2.0, 2.0])
        );
    }

    #[test]
    fn static_peak_respects_intra_slot_commitments() {
        // One VM with room for exactly one of the two jobs.
        let vms = vec![vm_view(0, [2.0, 2.0, 2.0])];
        let jobs = vec![pending(1, [2.0, 2.0, 2.0]), pending(2, [2.0, 2.0, 2.0])];
        let ctx = SlotContext {
            slot: 0,
            vms: &vms,
            pending: &jobs,
            max_vm_capacity: ResourceVector::new([4.0, 16.0, 180.0]),
            share: JobShare::ALL,
        };
        let plan = StaticPeakProvisioner.provision(&ctx);
        assert_eq!(plan.placements.len(), 1, "second job must wait");
    }

    #[test]
    fn static_peak_leaves_unplaceable_jobs_pending() {
        let vms = vec![vm_view(0, [1.0, 1.0, 1.0])];
        let jobs = vec![pending(1, [9.0, 9.0, 9.0])];
        let ctx = SlotContext {
            slot: 3,
            vms: &vms,
            pending: &jobs,
            max_vm_capacity: ResourceVector::new([4.0, 16.0, 180.0]),
            share: JobShare::ALL,
        };
        let plan = StaticPeakProvisioner.provision(&ctx);
        assert!(plan.placements.is_empty());
        assert!(plan.adjustments.is_empty());
    }
}
