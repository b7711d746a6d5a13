//! Property tests for the two-phase-commit `PlacementStore`.
//!
//! The safety contract: under *arbitrary* interleavings of reserve /
//! confirm / abort, (1) committed + reserved totals never exceed any VM's
//! capacity, and (2) every admitted reservation is eventually resolved —
//! confirmed or aborted, never leaked. Sequential sequences explore the
//! full interleaving space (the store is a single linearizable lock);
//! a racing-threads property checks the same invariants hold under real
//! concurrency.

use corp_cluster::{
    PlacementStore, ProvisionerFactory, ReservationId, ShardConfig, ShardedProvisioner,
};
use corp_faults::{ControlFaultPlan, SlotShard};
use corp_sim::{
    JobShare, PendingJobView, Provisioner, ResourceVector, SlotContext, StaticPeakProvisioner,
    VmView,
};
use proptest::prelude::*;
use std::collections::HashMap;

const VMS: usize = 4;
const CAPACITY: f64 = 4.0;
const EPS: f64 = 1e-9;

fn store() -> PlacementStore {
    PlacementStore::new(vec![ResourceVector::splat(CAPACITY); VMS])
}

/// Drains `open`, alternately confirming and aborting, so every hold is
/// resolved one way or the other.
fn resolve_all(store: &PlacementStore, open: &mut Vec<ReservationId>) {
    for (i, id) in open.drain(..).enumerate() {
        if i % 2 == 0 {
            store.confirm(id).expect("open hold confirms");
        } else {
            store.abort(id).expect("open hold aborts");
        }
    }
}

/// Applies one encoded op; kind 0 = reserve, 1 = confirm oldest, 2 = abort
/// newest.
fn apply(store: &PlacementStore, open: &mut Vec<ReservationId>, kind: usize, vm: usize, amt: f64) {
    match kind {
        0 => {
            if let Ok(id) = store.reserve(0, vm, ResourceVector::splat(amt)) {
                open.push(id);
            }
        }
        1 => {
            if !open.is_empty() {
                store.confirm(open.remove(0)).expect("tracked hold is open");
            }
        }
        _ => {
            if let Some(id) = open.pop() {
                store.abort(id).expect("tracked hold is open");
            }
        }
    }
}

proptest! {
    #[test]
    fn arbitrary_sequential_interleavings_never_overcommit(
        ops in prop::collection::vec((0usize..3, 0usize..VMS, 0.0f64..3.0), 1..120),
    ) {
        let store = store();
        let mut open: Vec<ReservationId> = Vec::new();
        for &(kind, vm, amt) in &ops {
            apply(&store, &mut open, kind, vm, amt);
            prop_assert!(store.holds_invariants(EPS), "invariant broken mid-sequence");
        }
        resolve_all(&store, &mut open);
        prop_assert_eq!(store.outstanding(), 0);
        prop_assert!(store.holds_invariants(EPS));
        let c = store.counters();
        prop_assert_eq!(
            c.commits + c.aborts, c.reservations,
            "every admitted reservation resolved exactly once"
        );
    }

    #[test]
    fn racing_threads_never_overcommit(
        per_thread in prop::collection::vec(
            prop::collection::vec((0usize..3, 0usize..VMS, 0.0f64..2.5), 0..60),
            2..5,
        ),
    ) {
        let store = store();
        let store = &store;
        std::thread::scope(|scope| {
            for ops in &per_thread {
                scope.spawn(move || {
                    let mut open: Vec<ReservationId> = Vec::new();
                    for &(kind, vm, amt) in ops {
                        match kind {
                            0 => {
                                if let Ok(id) = store.reserve(0, vm, ResourceVector::splat(amt)) {
                                    open.push(id);
                                }
                            }
                            1 => {
                                if !open.is_empty() {
                                    store.confirm(open.remove(0)).expect("own hold is open");
                                }
                            }
                            _ => {
                                if let Some(id) = open.pop() {
                                    store.abort(id).expect("own hold is open");
                                }
                            }
                        }
                        assert!(store.holds_invariants(EPS), "invariant broken under race");
                    }
                    resolve_all(store, &mut open);
                });
            }
        });
        prop_assert_eq!(store.outstanding(), 0);
        prop_assert!(store.holds_invariants(EPS));
        let c = store.counters();
        prop_assert_eq!(c.commits + c.aborts, c.reservations);
    }

    #[test]
    fn refused_reservations_change_nothing(
        fill in 0.0f64..4.0,
        excess in 0.1f64..4.0,
    ) {
        let store = store();
        let id = store.reserve(0, 0, ResourceVector::splat(fill)).expect("fits capacity");
        store.confirm(id).expect("open hold confirms");
        let before = store.free(0).expect("vm 0 exists");
        // A request beyond the remaining headroom must be refused and must
        // not perturb the ledger.
        let request = CAPACITY - fill + excess;
        prop_assert!(store.reserve(0, 0, ResourceVector::splat(request)).is_err());
        prop_assert_eq!(store.free(0).expect("vm 0 exists"), before);
        prop_assert_eq!(store.counters().conflicts, 1);
    }

    #[test]
    fn crash_recovery_interleavings_preserve_invariants(
        ops in prop::collection::vec((0usize..5, 0usize..VMS, 0.0f64..3.0), 1..150),
    ) {
        // Crashes (capacity -> zero) wipe a VM's commitments and abort its
        // open holds; recoveries restore nominal capacity. Under arbitrary
        // interleavings with reserve/confirm/abort the ledger must never
        // overcommit, and every admitted reservation must still resolve
        // exactly once — whether by the shard or by the crash itself.
        let store = store();
        let mut open: Vec<ReservationId> = Vec::new();
        for &(kind, vm, amt) in &ops {
            match kind {
                0 => {
                    if let Ok(id) = store.reserve(0, vm, ResourceVector::splat(amt)) {
                        open.push(id);
                    }
                }
                // A crash may already have aborted a tracked hold, so
                // confirm/abort answering UnknownReservation is legitimate
                // here (and counts nothing twice).
                1 => {
                    if !open.is_empty() {
                        let _ = store.confirm(open.remove(0));
                    }
                }
                2 => {
                    if let Some(id) = open.pop() {
                        let _ = store.abort(id);
                    }
                }
                3 => {
                    store.set_capacity(vm, ResourceVector::ZERO);
                }
                _ => {
                    store.set_capacity(vm, ResourceVector::splat(CAPACITY));
                }
            }
            prop_assert!(store.holds_invariants(EPS), "invariant broken mid-sequence");
        }
        for id in open.drain(..) {
            let _ = store.abort(id);
        }
        prop_assert_eq!(store.outstanding(), 0);
        prop_assert!(store.holds_invariants(EPS));
        let c = store.counters();
        prop_assert_eq!(
            c.commits + c.aborts, c.reservations,
            "crash-aborted holds still resolve exactly once"
        );
    }

    #[test]
    fn indexed_best_fit_matches_linear_scan_across_interleavings(
        ops in prop::collection::vec((0usize..8, 0usize..VMS, 0u8..=6), 1..150),
        demand in (0u8..=6).prop_map(|d| ResourceVector::splat(d as f64 * 0.5)),
    ) {
        // The store's incremental volume index must answer exactly what a
        // linear smallest-volume scan over free_all() answers — including
        // ties (quantized amounts make equal headrooms common, and both
        // sides must break toward the lower VM id) — after any interleaving
        // of reserve / confirm / abort / adjust / crash / recovery /
        // begin_slot rebases.
        let reference = ResourceVector::splat(CAPACITY);
        let linear = |store: &PlacementStore, demand: &ResourceVector| -> Option<usize> {
            let mut best: Option<(f64, usize)> = None;
            for (vm, free) in store.free_all().into_iter().enumerate() {
                if !demand.fits_within(&free) {
                    continue;
                }
                let vol = free.volume(&reference);
                if best.map(|(v, _)| vol < v).unwrap_or(true) {
                    best = Some((vol, vm));
                }
            }
            best.map(|(_, vm)| vm)
        };
        let store = store();
        let mut open: Vec<ReservationId> = Vec::new();
        for &(kind, vm, q) in &ops {
            let amt = ResourceVector::splat(q as f64 * 0.5);
            match kind {
                0 | 1 => {
                    if let Ok(id) = store.reserve(0, vm, amt) {
                        open.push(id);
                    }
                }
                2 => {
                    if !open.is_empty() {
                        let _ = store.confirm(open.remove(0));
                    }
                }
                3 => {
                    if let Some(id) = open.pop() {
                        let _ = store.abort(id);
                    }
                }
                4 => {
                    let _ = store.adjust(vm, ResourceVector::ZERO, amt);
                }
                5 => {
                    store.set_capacity(vm, ResourceVector::ZERO);
                }
                6 => {
                    store.set_capacity(vm, ResourceVector::splat(CAPACITY));
                }
                _ => {
                    // Whole-fleet rebase (capacities restored to nominal so
                    // the authoritative committed snapshot fits even after
                    // crashes): drops the index, forcing a lazy rebuild on
                    // the next query.
                    store.begin_slot_full(&[ResourceVector::splat(CAPACITY); VMS], &[amt; VMS]);
                    open.clear();
                }
            }
            prop_assert_eq!(
                store.best_fit(&demand, &reference),
                linear(&store, &demand),
                "index diverged from linear scan after op ({}, {}, {})", kind, vm, q
            );
            prop_assert!(store.holds_invariants(EPS));
        }
    }

    #[test]
    fn fast_path_fallback_preserves_no_overcommit_under_forced_conflicts(
        ops in prop::collection::vec((0usize..2, 0usize..VMS, 1u8..=4), 1..120),
        rebase_every in 3usize..10,
    ) {
        // Two shards hammer the same VMs through the fused commit until
        // they fill, and every miss goes on to full 2PC (reserve +
        // confirm) exactly as the coordinator does. Whatever the conflict
        // pattern: no overcommit, and every admitted reservation resolves
        // exactly once. Periodic slot rebases empty the fleet
        // mid-sequence, so the properties also hold across slot
        // boundaries.
        let store = store();
        for (i, &(shard, vm, q)) in ops.iter().enumerate() {
            if i % rebase_every == 0 {
                store.begin_slot(&[ResourceVector::ZERO; VMS]);
            }
            let amt = ResourceVector::splat(q as f64 * 0.5);
            if store.try_fast_commit(shard, vm, amt).is_err() {
                // The coordinator's next step: full 2PC at the same position.
                if let Ok(id) = store.reserve(shard, vm, amt) {
                    store.confirm(id).expect("own hold confirms");
                }
            }
            prop_assert!(store.holds_invariants(EPS), "overcommit after op {}", i);
        }
        let c = store.counters();
        prop_assert_eq!(c.commits + c.aborts, c.reservations);
        prop_assert_eq!(store.outstanding(), 0, "fused commits leave no dangling holds");
    }

    #[test]
    fn shard_kills_never_lose_or_duplicate_pending_jobs(
        kills in prop::collection::vec((0u64..6, 0usize..3), 0..10),
        num_jobs in 1usize..10,
    ) {
        // Killing a shard worker mid-run must not lose a pending job (its
        // slot falls back to inline scheduling, or the job stays pending
        // for the restarted worker) and must never place one twice.
        const SHARDS: usize = 3;
        const FLEET: usize = 4;
        let cap = ResourceVector::splat(100.0);
        let plan = ControlFaultPlan::new(
            kills
                .iter()
                .map(|&(slot, shard)| SlotShard { slot, shard })
                .collect(),
            vec![],
            vec![],
        );
        let factories: Vec<ProvisionerFactory> = (0..SHARDS)
            .map(|_| {
                Box::new(|| Box::new(StaticPeakProvisioner) as Box<dyn Provisioner + Send>) as _
            })
            .collect();
        let mut p = ShardedProvisioner::with_factories(
            "static-peak",
            factories,
            ShardConfig {
                fault_plan: Some(plan),
                ..ShardConfig::default()
            },
        );
        let mut committed = [ResourceVector::ZERO; FLEET];
        let mut pending: Vec<u64> = (0..num_jobs as u64).collect();
        let mut placed: HashMap<u64, usize> = HashMap::new();
        for slot in 0..8u64 {
            let vms: Vec<VmView> = committed
                .iter()
                .enumerate()
                .map(|(id, &c)| VmView {
                    id,
                    capacity: cap,
                    committed: c,
                    free: cap.saturating_sub(&c),
                    jobs: vec![],
                    unused_history: vec![],
                })
                .collect();
            let views: Vec<PendingJobView> = pending
                .iter()
                .map(|&id| PendingJobView {
                    id,
                    requested: ResourceVector::splat(1.0),
                    arrival_slot: 0,
                    slo_slots: 10,
                })
                .collect();
            let ctx = SlotContext {
                slot,
                vms: &vms,
                pending: &views,
                max_vm_capacity: cap,
                share: JobShare::ALL,
            };
            let slot_plan = p.provision(&ctx);
            for pl in &slot_plan.placements {
                *placed.entry(pl.job).or_insert(0) += 1;
                prop_assert!(
                    pending.contains(&pl.job),
                    "placed job {} that was not pending", pl.job
                );
                pending.retain(|&j| j != pl.job);
                committed[pl.vm] += pl.allocation;
                prop_assert!(
                    committed[pl.vm].fits_within(&cap),
                    "placement overcommitted vm {}", pl.vm
                );
            }
            if let Some(store) = p.store() {
                prop_assert!(store.holds_invariants(EPS));
            }
        }
        prop_assert!(pending.is_empty(), "jobs lost under shard kills: {:?}", pending);
        for (&job, &count) in &placed {
            prop_assert_eq!(count, 1, "job {} placed {} times", job, count);
        }
    }
}
