//! Engine-side fault injection: runtime tracking of a
//! [`corp_faults::FaultTimeline`] and the counters the
//! report surfaces.
//!
//! The engine consumes a pre-computed schedule (see `corp-faults`) rather
//! than rolling dice at runtime, so fault-injected runs replay
//! byte-identically. Crash semantics: a down VM's running jobs are killed
//! and re-enqueued (progress lost — there is no checkpointing), its
//! committed capacity is released, and its views shrink to zero capacity
//! until recovery. Degradation scales only the *physical* congestion
//! computation — commitments are contractual and stay against nominal
//! capacity, the straggler just delivers less. Poisoning corrupts only the
//! monitoring tails a provisioner sees for one VM on one slot; ground
//! truth is untouched.

use crate::job::JobId;
use crate::resources::ResourceVector;
use corp_faults::{FaultEvent, FaultTimeline, PoisonKind};
use corp_trace::NUM_RESOURCES;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Counters from a fault-injected run, surfaced in the report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// VM crash windows that took effect.
    pub vm_crashes: u64,
    /// VMs that rejoined the fleet.
    pub vm_recoveries: u64,
    /// Running jobs killed by a VM crash and re-enqueued.
    pub jobs_killed: u64,
    /// Killed jobs successfully placed again.
    pub replacements: u64,
    /// Mean slots between a job's kill and its re-placement.
    pub mean_replacement_latency_slots: f64,
    /// VM-slots spent down (fleet capacity lost to crashes).
    pub down_vm_slots: u64,
    /// VM-slots spent degraded (straggling below nominal capacity).
    pub degraded_vm_slots: u64,
    /// Per-VM slot views whose monitoring tails were corrupted.
    pub poisoned_views: u64,
    /// Placements dropped because they targeted a down VM.
    pub dropped_down_vm_actions: u64,
}

/// Mutable per-run fault state the engine threads through its slot loop.
///
/// VM health lives behind setters because the per-slot tallies are running
/// counts kept current at each transition, so a slot's bookkeeping costs
/// what its events cost, not a walk over the fleet.
pub(crate) struct FaultRuntime {
    timeline: FaultTimeline,
    cursor: usize,
    /// Which VMs are currently crashed.
    down: Vec<bool>,
    /// Effective-capacity multiplier per VM (1.0 = healthy).
    degrade: Vec<f64>,
    /// Poison applied to this slot's views.
    poison: Vec<Option<PoisonKind>>,
    /// The VMs `poison` marks — what the next `start_slot` clears.
    poisoned: Vec<usize>,
    /// VMs currently down: one slot's worth of `down_vm_slots`.
    down_now: u64,
    /// VMs currently degraded *and up*: one slot's worth of
    /// `degraded_vm_slots` (a down straggler counts as down only).
    degraded_now: u64,
    /// Kill slot of each killed job still awaiting re-placement.
    pub kill_slot: HashMap<JobId, u64>,
    /// Counters surfaced in the report.
    pub stats: FaultStats,
    total_replacement_latency: u64,
}

impl FaultRuntime {
    pub fn new(timeline: FaultTimeline, num_vms: usize) -> Self {
        FaultRuntime {
            timeline,
            cursor: 0,
            down: vec![false; num_vms],
            degrade: vec![1.0; num_vms],
            poison: vec![None; num_vms],
            poisoned: Vec::new(),
            down_now: 0,
            degraded_now: 0,
            kill_slot: HashMap::new(),
            stats: FaultStats::default(),
            total_replacement_latency: 0,
        }
    }

    /// Clears the poison marks of the slot before.
    pub fn start_slot(&mut self) {
        for vm in self.poisoned.drain(..) {
            self.poison[vm] = None;
        }
    }

    /// Takes the next event due at or before `slot` off the timeline.
    pub fn next_due(&mut self, slot: u64) -> Option<FaultEvent> {
        let next = self.timeline.events().get(self.cursor)?;
        (next.slot <= slot).then(|| {
            self.cursor += 1;
            next.event
        })
    }

    /// Whether `vm` is currently crashed.
    pub fn is_down(&self, vm: usize) -> bool {
        self.down[vm]
    }

    /// `vm`'s effective-capacity multiplier (1.0 = healthy).
    pub fn degrade(&self, vm: usize) -> f64 {
        self.degrade[vm]
    }

    /// The poison on `vm`'s view this slot, if any.
    pub fn poison(&self, vm: usize) -> Option<PoisonKind> {
        self.poison[vm]
    }

    /// Crashes (`true`) or recovers (`false`) `vm`.
    pub fn set_down(&mut self, vm: usize, down: bool) {
        self.set_health(vm, down, self.degrade[vm]);
    }

    /// Sets `vm`'s effective-capacity multiplier; 1.0 restores it.
    pub fn set_degrade(&mut self, vm: usize, factor: f64) {
        self.set_health(vm, self.down[vm], factor);
    }

    /// Poisons `vm`'s view for this slot only.
    pub fn set_poison(&mut self, vm: usize, kind: PoisonKind) {
        self.poison[vm] = Some(kind);
        self.poisoned.push(vm);
    }

    /// The one place VM health changes: takes `vm` out of the running
    /// counts under its old health and back in under the new one.
    fn set_health(&mut self, vm: usize, down: bool, degrade: f64) {
        self.down_now -= u64::from(self.down[vm]);
        self.degraded_now -= u64::from(self.degraded_and_up(vm));
        self.down[vm] = down;
        self.degrade[vm] = degrade;
        self.down_now += u64::from(down);
        self.degraded_now += u64::from(self.degraded_and_up(vm));
    }

    fn degraded_and_up(&self, vm: usize) -> bool {
        !self.down[vm] && self.degrade[vm] < 1.0
    }

    /// Tallies down/degraded VM-slots after this slot's events applied.
    pub fn tally_slot(&mut self) {
        self.stats.down_vm_slots += self.down_now;
        self.stats.degraded_vm_slots += self.degraded_now;
    }

    /// Records a successful placement; if the job was previously killed,
    /// accounts its re-placement latency.
    pub fn note_placement(&mut self, job: JobId, slot: u64) {
        if let Some(killed_at) = self.kill_slot.remove(&job) {
            self.stats.replacements += 1;
            self.total_replacement_latency += slot.saturating_sub(killed_at);
        }
    }

    /// Finalizes derived metrics (call once, at end of run).
    pub fn finish(&mut self) {
        self.stats.mean_replacement_latency_slots = if self.stats.replacements > 0 {
            self.total_replacement_latency as f64 / self.stats.replacements as f64
        } else {
            0.0
        };
    }
}

/// Corrupts every component of a monitoring sample in place.
pub(crate) fn corrupt_vector(v: &mut ResourceVector, kind: PoisonKind) {
    for k in 0..NUM_RESOURCES {
        v[k] = kind.corrupt(v[k]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corp_faults::TimedFault;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn start_slot_drains_due_events_in_order() {
        let timeline = FaultTimeline::new(vec![
            TimedFault {
                slot: 1,
                event: FaultEvent::VmCrash { vm: 0 },
            },
            TimedFault {
                slot: 3,
                event: FaultEvent::VmRecover { vm: 0 },
            },
        ]);
        let mut rt = FaultRuntime::new(timeline, 2);
        let mut due = |slot| -> Vec<FaultEvent> {
            rt.start_slot();
            std::iter::from_fn(|| rt.next_due(slot)).collect()
        };
        assert!(due(0).is_empty());
        assert_eq!(due(1), vec![FaultEvent::VmCrash { vm: 0 }]);
        assert!(due(2).is_empty());
        assert_eq!(due(3), vec![FaultEvent::VmRecover { vm: 0 }]);
    }

    #[test]
    fn running_tallies_match_a_fleet_recount_after_every_transition() {
        // Includes the awkward ones: degrading an already-degraded VM,
        // degrading and restoring a down VM, crashing a straggler,
        // restoring a healthy VM, a factor of exactly 1.0.
        let num_vms = 5;
        let mut rt = FaultRuntime::new(FaultTimeline::default(), num_vms);
        let mut recount = FaultStats::default();
        let mut rng = StdRng::seed_from_u64(0xFA17);
        for _ in 0..400 {
            let vm = rng.gen_range(0..num_vms);
            match rng.gen_range(0..6) {
                0 => rt.set_down(vm, true),
                1 => rt.set_down(vm, false),
                2 => rt.set_degrade(vm, 0.3),
                3 => rt.set_degrade(vm, 0.7),
                4 => rt.set_degrade(vm, 1.0),
                _ => {}
            }
            rt.tally_slot();
            for vm in 0..num_vms {
                if rt.is_down(vm) {
                    recount.down_vm_slots += 1;
                } else if rt.degrade(vm) < 1.0 {
                    recount.degraded_vm_slots += 1;
                }
            }
            assert_eq!(rt.stats, recount);
        }
        assert!(recount.down_vm_slots > 0 && recount.degraded_vm_slots > 0);
    }

    #[test]
    fn poison_lasts_one_slot() {
        let mut rt = FaultRuntime::new(FaultTimeline::default(), 3);
        rt.set_poison(1, PoisonKind::Nan);
        rt.set_poison(1, PoisonKind::Spike(2.0));
        assert_eq!(rt.poison(1), Some(PoisonKind::Spike(2.0)));
        assert_eq!(rt.poison(0), None);
        rt.start_slot();
        assert_eq!(
            (rt.poison(0), rt.poison(1), rt.poison(2)),
            (None, None, None)
        );
    }

    #[test]
    fn replacement_latency_averages_over_replaced_jobs() {
        let mut rt = FaultRuntime::new(FaultTimeline::default(), 1);
        rt.kill_slot.insert(7, 10);
        rt.kill_slot.insert(8, 10);
        rt.stats.jobs_killed = 2;
        rt.note_placement(7, 14);
        rt.note_placement(9, 14); // never killed: no-op
        rt.note_placement(8, 20);
        rt.finish();
        assert_eq!(rt.stats.replacements, 2);
        assert_eq!(rt.stats.mean_replacement_latency_slots, 7.0);
    }

    #[test]
    fn corrupt_vector_applies_kind_per_component() {
        let mut v = ResourceVector::new([1.0, 2.0, 3.0]);
        corrupt_vector(&mut v, PoisonKind::Nan);
        assert!(!v.is_finite());
        let mut w = ResourceVector::new([1.0, 2.0, 3.0]);
        corrupt_vector(&mut w, PoisonKind::Spike(10.0));
        assert!(w.is_finite());
        assert_eq!(w.as_array(), &[20.0, 30.0, 40.0]);
    }
}
