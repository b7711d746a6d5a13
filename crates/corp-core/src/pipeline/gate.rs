//! The reallocation stage: turn a window forecast into allocation
//! adjustments.
//!
//! [`ReallocationGate`] is the pipeline's second stage. At each window
//! boundary it receives the [`WindowForecast`] and the Eq. 21 gate verdict,
//! rewrites running jobs' allocations against the free pools, registers
//! prediction records for later accuracy scoring (paper Fig. 6), and
//! enqueues [`PendingOutcome`]s for the predictor to resolve a window
//! later. Three real policies exist — CORP's per-job gated reclaim,
//! the baselines' proportional VM-level reclaim, and DRA's record-only
//! pass — plus a no-op for reservation-based schemes.

use crate::pipeline::predict::{PendingOutcome, WindowForecast};
use corp_sim::{PredictionRecord, ProvisionPlan, ResourceVector, SlotContext, VmView};
use corp_trace::NUM_RESOURCES;

/// Floor fraction of the request that baseline reclaim never goes below.
/// VM-level schemes cannot attribute unused resource to individual jobs, so
/// they must keep a coarse per-job safety margin (about two thirds of the
/// reservation) to avoid starving whichever job their proportional split
/// lands on; CORP's per-job view lets it cut to just above observed demand.
pub(crate) const BASELINE_FLOOR: f64 = 0.65;
/// Restore headroom: when observed demand exceeds this fraction of the
/// allocation, the allocation is raised.
pub(crate) const RESTORE_MARGIN: f64 = 1.05;

/// Applies an adjustment's signed delta to a committed-tracking pool.
pub(crate) fn apply_delta(pool: &mut ResourceVector, old: &ResourceVector, new: &ResourceVector) {
    // pool tracks *free* capacity: freeing (old > new) grows it.
    *pool += old.saturating_sub(new);
    *pool = pool.saturating_sub(&new.saturating_sub(old));
}

/// Registers one engine prediction record per resource for a VM.
pub(crate) fn push_vm_prediction(
    plan: &mut ProvisionPlan,
    vm: usize,
    slot: u64,
    target: u64,
    predicted: &ResourceVector,
) {
    for k in 0..NUM_RESOURCES {
        plan.predictions.push(PredictionRecord {
            vm,
            job: None,
            resource: k,
            made_at: slot,
            target_slot: target,
            predicted: predicted[k],
        });
    }
}

/// Stage 2 of the provisioning pipeline: reallocation of running jobs.
///
/// Runs only at window boundaries (`slot % window == 0`), immediately
/// after the predictor's [`forecast`](crate::pipeline::UsagePredictor::forecast).
/// Implementations mutate `pools` (free capacity per VM) with delta
/// accounting so the placement stage sees freed capacity within the same
/// slot, exactly as the engine will apply it.
pub trait ReallocationGate {
    /// Rewrites allocations for one window.
    ///
    /// `unlocked` is the Eq. 21 preemption-gate verdict per resource,
    /// snapshotted by the driver before the loop (the gate state only
    /// changes when outcomes resolve, never mid-window). Newly made
    /// predictions are pushed onto `outcomes` for the predictor to score
    /// once the window matures.
    #[allow(clippy::too_many_arguments)]
    fn reallocate(
        &mut self,
        ctx: &SlotContext<'_>,
        forecast: &WindowForecast,
        unlocked: &[bool; NUM_RESOURCES],
        window: u64,
        pools: &mut [ResourceVector],
        outcomes: &mut Vec<PendingOutcome>,
        plan: &mut ProvisionPlan,
    );
}

// ---------------------------------------------------------------------------
// CORP: per-job gated reclaim
// ---------------------------------------------------------------------------

/// CORP's reallocation policy: subtract the predicted unused amount from
/// each job's allocation where the Eq. 21 gate is open, floored by the
/// demand-pressure restore and the configured reclaim floor; register
/// per-job prediction records (Fig. 6 scores "the prediction error ... for
/// each job", CORP's native granularity).
pub struct CorpReclaimGate {
    window_slots: usize,
    reclaim_floor: f64,
}

impl CorpReclaimGate {
    /// Builds the gate from CORP's window length and reclaim floor.
    pub fn new(window_slots: usize, reclaim_floor: f64) -> Self {
        CorpReclaimGate {
            window_slots,
            reclaim_floor,
        }
    }
}

impl ReallocationGate for CorpReclaimGate {
    fn reallocate(
        &mut self,
        ctx: &SlotContext<'_>,
        forecast: &WindowForecast,
        unlocked: &[bool; NUM_RESOURCES],
        window: u64,
        pools: &mut [ResourceVector],
        outcomes: &mut Vec<PendingOutcome>,
        plan: &mut ProvisionPlan,
    ) {
        let WindowForecast::PerJob(u_hats) = forecast else {
            debug_assert!(false, "CorpReclaimGate requires a per-job forecast");
            return;
        };
        let mut next_task = 0usize;
        for vm in ctx.vms {
            for job in ctx.owned_jobs(vm) {
                if job.recent_unused.is_empty() {
                    continue;
                }
                let u_hat = u_hats[next_task];
                next_task += 1;
                // Demand reference for the safety floor: the mean over
                // the last prediction window. The confidence-interval
                // term inside `u_hat` supplies the safety margin above
                // it, so the floor itself stays level-based — this is
                // what makes the confidence level the knob that trades
                // SLO risk for utilization (paper Figs. 8/9).
                // Poisoned samples are excluded per component; the
                // all-finite arithmetic is unchanged.
                let window_len = self.window_slots.min(job.recent_demand.len());
                let mut recent_mean = ResourceVector::ZERO;
                let mut finite_counts = [0usize; NUM_RESOURCES];
                for d in &job.recent_demand[job.recent_demand.len() - window_len..] {
                    for k in 0..NUM_RESOURCES {
                        if d[k].is_finite() {
                            recent_mean[k] += d[k];
                            finite_counts[k] += 1;
                        }
                    }
                }
                for k in 0..NUM_RESOURCES {
                    if finite_counts[k] > 0 {
                        recent_mean[k] *= 1.0 / finite_counts[k] as f64;
                    }
                }

                let mut new_alloc = job.allocation;
                for k in 0..NUM_RESOURCES {
                    let floor = (self.reclaim_floor * job.requested[k])
                        .max(recent_mean[k] * RESTORE_MARGIN)
                        .min(job.requested[k]);
                    new_alloc[k] = if unlocked[k] {
                        (job.allocation[k] - u_hat[k])
                            .max(floor)
                            .min(job.requested[k])
                    } else {
                        // Gate locked: no opportunistic reclaim, but
                        // demand-pressure restores still apply.
                        job.allocation[k].max(floor).min(job.requested[k])
                    };
                    // A restore can only grow into the VM's current
                    // headroom; clamp so the plan stays feasible.
                    let grow = new_alloc[k] - job.allocation[k];
                    if grow > pools[vm.id][k] {
                        new_alloc[k] = job.allocation[k] + pools[vm.id][k].max(0.0);
                    }
                }
                // The unused level the job should exhibit under the new
                // allocation: the headroom the reclaim chose to keep.
                let mut job_prediction = ResourceVector::ZERO;
                for k in 0..NUM_RESOURCES {
                    let expected_demand = job.allocation[k] - u_hat[k];
                    job_prediction[k] = (new_alloc[k] - expected_demand).max(0.0);
                }
                outcomes.push(PendingOutcome {
                    key: job.id,
                    made_at: ctx.slot,
                    predicted: job_prediction,
                });
                // Register per-job prediction records: Fig. 6 scores
                // "the prediction error ... for each job", which is
                // CORP's native granularity.
                let target = ctx.slot + window - 1;
                for k in 0..NUM_RESOURCES {
                    plan.predictions.push(PredictionRecord {
                        vm: vm.id,
                        job: Some(job.id),
                        resource: k,
                        made_at: ctx.slot,
                        target_slot: target,
                        predicted: job_prediction[k],
                    });
                }
                if new_alloc != job.allocation {
                    apply_delta(&mut pools[vm.id], &job.allocation, &new_alloc);
                    plan.adjustments.push((job.id, new_alloc));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Baselines: proportional VM-level reclaim
// ---------------------------------------------------------------------------

/// Shared baseline reclaim: distribute the VM-level predicted unused across
/// the VM's jobs proportionally to their allocations, with floor and
/// demand-pressure restore.
fn baseline_reclaim(
    ctx: &SlotContext<'_>,
    vm: &VmView,
    vm_unused_prediction: &ResourceVector,
    pools: &mut [ResourceVector],
    plan: &mut ProvisionPlan,
) {
    let mut total_alloc = ResourceVector::ZERO;
    for job in ctx.owned_jobs(vm) {
        total_alloc += job.allocation;
    }
    for job in ctx.owned_jobs(vm) {
        let mut last_d = job
            .recent_demand
            .last()
            .copied()
            .unwrap_or(ResourceVector::ZERO);
        for k in 0..NUM_RESOURCES {
            // A poisoned demand sample would turn the floor (and then the
            // adjustment) non-finite; holding the current allocation is
            // the neutral stand-in.
            if !last_d[k].is_finite() {
                last_d[k] = job.allocation[k];
            }
        }
        let mut new_alloc = job.allocation;
        for k in 0..NUM_RESOURCES {
            let share = if total_alloc[k] > 0.0 {
                job.allocation[k] / total_alloc[k]
            } else {
                0.0
            };
            let reclaim = vm_unused_prediction[k] * share;
            // VM-level schemes react to squeeze only after it is visible
            // (demand pressing on the allocation); CORP's per-job view lets
            // it keep headroom proactively — that granularity gap is the
            // paper's SLO story.
            let floor = if last_d[k] >= job.allocation[k] {
                (last_d[k] * RESTORE_MARGIN).min(job.requested[k])
            } else {
                BASELINE_FLOOR * job.requested[k]
            };
            new_alloc[k] = (job.allocation[k] - reclaim)
                .max(floor)
                .min(job.requested[k]);
            // Restores grow only into the VM's current headroom.
            let grow = new_alloc[k] - job.allocation[k];
            if grow > pools[vm.id][k] {
                new_alloc[k] = job.allocation[k] + pools[vm.id][k].max(0.0);
            }
        }
        if new_alloc != job.allocation {
            apply_delta(&mut pools[vm.id], &job.allocation, &new_alloc);
            plan.adjustments.push((job.id, new_alloc));
        }
    }
}

/// The baselines' reallocation policy (RCCR, CloudScale): proportional
/// reclaim of the VM-level forecast across the VM's jobs, per-VM prediction
/// records, per-VM outcome tracking.
#[derive(Debug, Default)]
pub struct BaselineReclaimGate;

impl ReallocationGate for BaselineReclaimGate {
    fn reallocate(
        &mut self,
        ctx: &SlotContext<'_>,
        forecast: &WindowForecast,
        _unlocked: &[bool; NUM_RESOURCES],
        window: u64,
        pools: &mut [ResourceVector],
        outcomes: &mut Vec<PendingOutcome>,
        plan: &mut ProvisionPlan,
    ) {
        let WindowForecast::PerVm(preds) = forecast else {
            debug_assert!(false, "BaselineReclaimGate requires a per-VM forecast");
            return;
        };
        for (i, vm) in ctx.vms.iter().enumerate() {
            if ctx.owned_jobs(vm).next().is_none() {
                continue;
            }
            let Some(prediction) = preds[i] else {
                continue;
            };
            baseline_reclaim(ctx, vm, &prediction, pools, plan);
            let target = ctx.slot + window - 1;
            push_vm_prediction(plan, vm.id, ctx.slot, target, &prediction);
            outcomes.push(PendingOutcome {
                key: vm.id as u64,
                made_at: ctx.slot,
                predicted: prediction,
            });
        }
    }
}

/// DRA's "reallocation" policy: register the run-time estimator's per-VM
/// prediction so DRA's accuracy is scored like everyone else's (Fig. 6),
/// but never act on it — DRA has no mechanism for reallocating
/// allocated-but-unused resources, which is both its low-utilization and
/// its high-SLO-violation story in the paper.
#[derive(Debug, Default)]
pub struct RecordOnlyGate;

impl ReallocationGate for RecordOnlyGate {
    fn reallocate(
        &mut self,
        ctx: &SlotContext<'_>,
        forecast: &WindowForecast,
        _unlocked: &[bool; NUM_RESOURCES],
        window: u64,
        _pools: &mut [ResourceVector],
        _outcomes: &mut Vec<PendingOutcome>,
        plan: &mut ProvisionPlan,
    ) {
        let WindowForecast::PerVm(preds) = forecast else {
            debug_assert!(false, "RecordOnlyGate requires a per-VM forecast");
            return;
        };
        for (i, vm) in ctx.vms.iter().enumerate() {
            if ctx.owned_jobs(vm).next().is_none() {
                continue;
            }
            if let Some(prediction) = preds[i] {
                push_vm_prediction(plan, vm.id, ctx.slot, ctx.slot + window - 1, &prediction);
            }
        }
    }
}

/// A gate that never adjusts anything — reservation-based schemes.
#[derive(Debug, Default)]
pub struct NoopGate;

impl ReallocationGate for NoopGate {
    fn reallocate(
        &mut self,
        _ctx: &SlotContext<'_>,
        _forecast: &WindowForecast,
        _unlocked: &[bool; NUM_RESOURCES],
        _window: u64,
        _pools: &mut [ResourceVector],
        _outcomes: &mut Vec<PendingOutcome>,
        _plan: &mut ProvisionPlan,
    ) {
    }
}
