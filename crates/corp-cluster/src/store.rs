//! The placement store: one capacity ledger behind one lock.
//!
//! Scheduler shards propose placements onto a shared VM fleet, and the
//! store is the single arbiter of capacity: a claim first **reserves** the
//! resources a placement needs (phase 1 — the store admits the reservation
//! only if committed + reserved + amount still fits the VM), then either
//! **confirms** it (phase 2 — the hold becomes a durable commitment) or
//! **aborts** it (the hold is released). Because admission is checked under
//! a lock against the sum of durable commitments *and* outstanding holds,
//! no interleaving of racing callers can ever over-commit a VM — the
//! invariant the property tests drive with real thread interleavings.
//!
//! ## One lock
//!
//! Everything — the per-VM ledgers, the open-reservation map, the sequence
//! counter, the counters and the lazily built Eq. 22 volume index — sits
//! behind one mutex, following the "centralized database" that resolves
//! placement conflicts in dslab-iaas. Shards never touch the store (the
//! slot's pool call returns their plans); its one caller outside tests is the
//! coordinator's sequential arbitration
//! ([`ShardedProvisioner`](crate::ShardedProvisioner)), so the lock is
//! never contended. On `sharded-2-1k` the store's calls take 0.076 s of a
//! 1.1 s repetition, half of it best-fit retries. DESIGN.md §15 has the
//! numbers, the finer-grained locking this replaced and the measurement
//! that removed it.
//!
//! ## The fused commit
//!
//! [`PlacementStore::try_fast_commit`] runs both phases in one lock
//! acquisition with no hold bookkeeping. It admits exactly what `reserve`
//! followed by `confirm` would admit, and a miss changes no ledger, so the
//! coordinator claims through it alone: once on the proposed VM and, after
//! a capacity conflict, once on the [`PlacementStore::best_fit`] VM, which
//! fits by construction. `reserve` / `confirm` / `abort` and their holds
//! have no caller outside tests and the benchmark's store kernel.
//!
//! The store tracks capacity only; job identity, retry policy, and commit
//! ordering belong to the coordinator. Allocation *adjustments* to running
//! jobs go through [`PlacementStore::adjust`], which applies the engine's
//! own rebase arithmetic so a store-approved adjustment is engine-valid by
//! construction.

use std::collections::HashMap;

use corp_core::VolumeIndex;
use corp_sim::ResourceVector;
use parking_lot::Mutex;

/// Handle to an open (reserved but not yet confirmed/aborted) reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReservationId(u64);

/// Why a reservation was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReserveError {
    /// Admitting the reservation would over-commit the VM.
    Conflict,
    /// The VM id does not exist.
    UnknownVm,
}

/// Why a confirm/abort failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnError {
    /// The reservation id is not open (already confirmed, aborted, or never
    /// issued).
    UnknownReservation,
}

/// Why a fused commit did not commit. The store is untouched either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastPathMiss {
    /// The claim does not fit the VM's headroom.
    Conflict,
    /// The VM id does not exist.
    UnknownVm,
}

/// Monotone counters over the store's whole lifetime (slots accumulate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Reservations admitted (phase 1 successes). Fused commits count here
    /// too (a reserve and a confirm at once), so `commits + aborts ==
    /// reservations` holds across both paths.
    pub reservations: u64,
    /// Reservations confirmed (phase 2 commits), including fused commits.
    pub commits: u64,
    /// Claims refused for capacity (would-be overcommits) by `reserve` or
    /// the fused commit, and denied growing adjustments.
    pub conflicts: u64,
    /// Reservations rolled back.
    pub aborts: u64,
}

#[derive(Debug, Clone, Copy)]
struct Reservation {
    vm: usize,
    amount: ResourceVector,
}

struct VmLedger {
    capacity: ResourceVector,
    /// Durable commitments (confirmed allocations), mirroring the engine's
    /// per-VM committed vector.
    committed: ResourceVector,
    /// Sum of open reservations.
    reserved: ResourceVector,
}

impl VmLedger {
    fn headroom(&self) -> ResourceVector {
        self.capacity
            .saturating_sub(&(self.committed + self.reserved))
    }
}

/// Everything the lock guards.
struct Ledger {
    vms: Vec<VmLedger>,
    /// Open reservations keyed by the sequence number inside their
    /// [`ReservationId`].
    open: HashMap<u64, Reservation>,
    next_seq: u64,
    counters: StoreCounters,
    /// Lazily built Eq. 22 headroom index over [`Ledger::headrooms`].
    /// Whole-fleet rebases mark it stale (re-sorted, in its own buffers,
    /// on the next [`PlacementStore::best_fit`]); single-VM mutations
    /// shift just that VM's entry.
    index: VolumeIndex,
    /// The reference capacity `index` was sorted against; `None` while it
    /// is stale.
    indexed_against: Option<ResourceVector>,
    /// Every VM's headroom as of the last index rebuild or update, VM-id
    /// ordered: the pools `index` is sorted over.
    headrooms: Vec<ResourceVector>,
}

impl Ledger {
    /// Repositions `vm`'s index entry after any mutation that changed its
    /// headroom (reserve/confirm/abort/adjust/fused commit).
    fn reindex(&mut self, vm: usize) {
        if let Some(reference) = &self.indexed_against {
            self.headrooms[vm] = self.vms[vm].headroom();
            self.index.update(vm, &self.headrooms[vm], reference);
        }
    }

    /// Closes an open reservation, taking its amount out of the VM's holds;
    /// the caller decides whether that amount becomes a commitment.
    fn close(&mut self, id: ReservationId) -> Result<Reservation, TxnError> {
        let r = self
            .open
            .remove(&id.0)
            .ok_or(TxnError::UnknownReservation)?;
        let entry = &mut self.vms[r.vm];
        entry.reserved = (entry.reserved - r.amount).clamp_nonnegative();
        Ok(r)
    }
}

/// Thread-safe capacity arbiter for a VM fleet (see module docs).
pub struct PlacementStore {
    ledger: Mutex<Ledger>,
}

impl PlacementStore {
    /// Builds a store over VMs with the given capacities, all uncommitted.
    pub fn new(capacities: Vec<ResourceVector>) -> Self {
        let vms = capacities
            .into_iter()
            .map(|capacity| VmLedger {
                capacity,
                committed: ResourceVector::ZERO,
                reserved: ResourceVector::ZERO,
            })
            .collect();
        PlacementStore {
            ledger: Mutex::new(Ledger {
                vms,
                open: HashMap::new(),
                next_seq: 0,
                counters: StoreCounters::default(),
                index: VolumeIndex::default(),
                indexed_against: None,
                headrooms: Vec::new(),
            }),
        }
    }

    /// Re-bases the durable commitments from an authoritative snapshot (the
    /// engine's per-VM committed vectors at the start of a slot) and drops
    /// any reservation left open from the previous slot (counted as
    /// aborts). Counters persist across slots.
    ///
    /// # Panics
    ///
    /// If `committed` has a different length than the fleet.
    pub fn begin_slot(&self, committed: &[ResourceVector]) {
        self.rebase(None, committed);
    }

    /// [`begin_slot`](Self::begin_slot) that also re-bases per-VM
    /// capacities — required under fault injection, where a crashed VM's
    /// view capacity drops to zero and rejoins at nominal on recovery.
    /// This is the store's only crash path; no capacity changes mid-slot.
    /// With unchanged capacities this is exactly `begin_slot`.
    ///
    /// # Panics
    ///
    /// If `capacities` or `committed` has a different length than the
    /// fleet.
    pub fn begin_slot_full(&self, capacities: &[ResourceVector], committed: &[ResourceVector]) {
        self.rebase(Some(capacities), committed);
    }

    fn rebase(&self, capacities: Option<&[ResourceVector]>, committed: &[ResourceVector]) {
        let mut ledger = self.ledger.lock();
        let fleet = ledger.vms.len();
        assert_eq!(fleet, committed.len(), "fleet size changed mid-run");
        if let Some(caps) = capacities {
            assert_eq!(fleet, caps.len(), "fleet size changed mid-run");
            for (entry, &capacity) in ledger.vms.iter_mut().zip(caps) {
                entry.capacity = capacity;
            }
        }
        for (entry, &committed) in ledger.vms.iter_mut().zip(committed) {
            entry.committed = committed;
            entry.reserved = ResourceVector::ZERO;
        }
        ledger.counters.aborts += ledger.open.len() as u64;
        ledger.open.clear();
        // Every headroom changed at once; per-entry repositioning would be
        // wasted work, so mark the index stale and rebuild lazily.
        ledger.indexed_against = None;
    }

    /// Phase 1: holds `amount` on `vm`. Admitted only if the VM's durable
    /// commitments plus all open holds still leave room. The coordinator
    /// never opens a hold; the tests and `benchmark/`'s
    /// `store.reserve_confirm_ns` kernel do.
    ///
    /// `_shard` is unread: holds are not attributed to their proposer. The
    /// argument is kept only because `benchmark/` compiles against this
    /// signature; the next `benchmark` PR may drop it (ROADMAP item 4(a)).
    pub fn reserve(
        &self,
        _shard: usize,
        vm: usize,
        amount: ResourceVector,
    ) -> Result<ReservationId, ReserveError> {
        let mut guard = self.ledger.lock();
        let ledger = &mut *guard;
        let entry = ledger.vms.get_mut(vm).ok_or(ReserveError::UnknownVm)?;
        let amount = amount.clamp_nonnegative();
        if !amount.fits_within(&entry.headroom()) {
            ledger.counters.conflicts += 1;
            return Err(ReserveError::Conflict);
        }
        entry.reserved += amount;
        let seq = ledger.next_seq;
        ledger.next_seq += 1;
        ledger.open.insert(seq, Reservation { vm, amount });
        ledger.counters.reservations += 1;
        ledger.reindex(vm);
        Ok(ReservationId(seq))
    }

    /// Phase 2 commit: the hold becomes a durable commitment.
    pub fn confirm(&self, id: ReservationId) -> Result<(), TxnError> {
        let mut ledger = self.ledger.lock();
        let r = ledger.close(id)?;
        ledger.vms[r.vm].committed += r.amount;
        ledger.counters.commits += 1;
        ledger.reindex(r.vm);
        Ok(())
    }

    /// Phase 2 rollback: the hold is released.
    pub fn abort(&self, id: ReservationId) -> Result<(), TxnError> {
        let mut ledger = self.ledger.lock();
        let r = ledger.close(id)?;
        ledger.counters.aborts += 1;
        ledger.reindex(r.vm);
        Ok(())
    }

    /// Both 2PC phases in one lock acquisition: if `amount` fits `vm`'s
    /// headroom it is durably committed, exactly as
    /// [`reserve`](Self::reserve) followed by [`confirm`](Self::confirm)
    /// would, without ever opening a hold. A miss changes no ledger; a
    /// [`FastPathMiss::Conflict`] is counted in
    /// [`StoreCounters::conflicts`], as `reserve` counts its refusals.
    ///
    /// `_shard` is unread, and kept for the same reason as in
    /// [`reserve`](Self::reserve).
    pub fn try_fast_commit(
        &self,
        _shard: usize,
        vm: usize,
        amount: ResourceVector,
    ) -> Result<(), FastPathMiss> {
        let mut guard = self.ledger.lock();
        let ledger = &mut *guard;
        let entry = ledger.vms.get_mut(vm).ok_or(FastPathMiss::UnknownVm)?;
        let amount = amount.clamp_nonnegative();
        if !amount.fits_within(&entry.headroom()) {
            ledger.counters.conflicts += 1;
            return Err(FastPathMiss::Conflict);
        }
        entry.committed += amount;
        ledger.counters.reservations += 1;
        ledger.counters.commits += 1;
        ledger.reindex(vm);
        Ok(())
    }

    /// Re-bases a running job's allocation on `vm` from `old` to `new`,
    /// using the engine's own validation arithmetic (`committed - old +
    /// new`, clamped, must fit capacity net of open holds). Returns whether
    /// the adjustment was applied; a refusal counts as a conflict.
    pub fn adjust(&self, vm: usize, old: ResourceVector, new: ResourceVector) -> bool {
        let mut guard = self.ledger.lock();
        let ledger = &mut *guard;
        let applied = match ledger.vms.get_mut(vm) {
            Some(entry) if new.is_nonnegative() => {
                let candidate = (entry.committed - old + new).clamp_nonnegative();
                let fits = (candidate + entry.reserved).fits_within(&entry.capacity);
                if fits {
                    entry.committed = candidate;
                }
                fits
            }
            _ => false,
        };
        if applied {
            ledger.reindex(vm);
        } else {
            ledger.counters.conflicts += 1;
        }
        applied
    }

    /// Eq. 22 best-fit over the store's current headrooms: the VM fitting
    /// `demand` with the smallest unused volume relative to `reference`,
    /// ties toward the lower VM id — exactly the choice a linear scan over
    /// [`free_all`](Self::free_all) would make, served from the flat
    /// sorted blocks of a [`VolumeIndex`] over the headroom column. The
    /// first call after a whole-fleet rebase, or with a new `reference`,
    /// re-sorts them in their own buffers; every commit or adjustment
    /// after that moves one entry.
    pub fn best_fit(&self, demand: &ResourceVector, reference: &ResourceVector) -> Option<usize> {
        let mut guard = self.ledger.lock();
        let ledger = &mut *guard;
        if ledger.indexed_against.as_ref() != Some(reference) {
            ledger.headrooms.clear();
            let headrooms = ledger.vms.iter().map(VmLedger::headroom);
            ledger.headrooms.extend(headrooms);
            ledger.index.rebuild(&ledger.headrooms, reference);
            ledger.indexed_against = Some(*reference);
        }
        ledger.index.best_fit(&ledger.headrooms, demand, reference)
    }

    /// Capacity net of durable commitments and open holds on one VM.
    pub fn free(&self, vm: usize) -> Option<ResourceVector> {
        self.ledger.lock().vms.get(vm).map(VmLedger::headroom)
    }

    /// [`free`](Self::free) for the whole fleet, VM-id ordered.
    pub fn free_all(&self) -> Vec<ResourceVector> {
        let ledger = self.ledger.lock();
        ledger.vms.iter().map(VmLedger::headroom).collect()
    }

    /// Number of open (neither confirmed nor aborted) reservations.
    pub fn outstanding(&self) -> usize {
        self.ledger.lock().open.len()
    }

    /// Snapshot of the lifetime counters.
    pub fn counters(&self) -> StoreCounters {
        self.ledger.lock().counters
    }

    /// Checks the no-overcommit invariant on every VM: durable commitments
    /// plus open holds never exceed capacity (within `eps` of float
    /// accumulation slack per resource).
    pub fn holds_invariants(&self, eps: f64) -> bool {
        self.ledger.lock().vms.iter().all(|entry| {
            let total = entry.committed + entry.reserved;
            (0..total.as_array().len()).all(|k| total[k] <= entry.capacity[k] + eps)
                && entry.committed.is_nonnegative()
                && entry.reserved.is_nonnegative()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rv(a: f64, b: f64, c: f64) -> ResourceVector {
        ResourceVector::new([a, b, c])
    }

    fn store_one_vm() -> PlacementStore {
        PlacementStore::new(vec![rv(4.0, 16.0, 180.0)])
    }

    fn fleet(vms: usize) -> PlacementStore {
        PlacementStore::new(vec![rv(4.0, 4.0, 4.0); vms])
    }

    #[test]
    fn reserve_confirm_commits_capacity() {
        let store = store_one_vm();
        let id = store.reserve(0, 0, rv(2.0, 8.0, 90.0)).unwrap();
        assert_eq!(store.outstanding(), 1);
        store.confirm(id).unwrap();
        assert_eq!(store.outstanding(), 0);
        assert_eq!(store.free(0).unwrap(), rv(2.0, 8.0, 90.0));
        let c = store.counters();
        assert_eq!(
            (c.reservations, c.commits, c.conflicts, c.aborts),
            (1, 1, 0, 0)
        );
    }

    #[test]
    fn reserve_abort_releases_hold() {
        let store = store_one_vm();
        let id = store.reserve(0, 0, rv(4.0, 16.0, 180.0)).unwrap();
        store.abort(id).unwrap();
        assert_eq!(store.free(0).unwrap(), rv(4.0, 16.0, 180.0));
        let c = store.counters();
        assert_eq!((c.reservations, c.commits, c.aborts), (1, 0, 1));
    }

    #[test]
    fn open_holds_block_conflicting_reservations() {
        let store = store_one_vm();
        let _held = store.reserve(0, 0, rv(3.0, 1.0, 1.0)).unwrap();
        // A second reservation exceeding the remaining CPU must conflict
        // even though nothing is durably committed yet.
        assert_eq!(
            store.reserve(1, 0, rv(2.0, 1.0, 1.0)),
            Err(ReserveError::Conflict)
        );
        assert_eq!(store.counters().conflicts, 1);
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn double_confirm_and_unknown_ids_are_rejected() {
        let store = store_one_vm();
        let id = store.reserve(0, 0, rv(1.0, 1.0, 1.0)).unwrap();
        store.confirm(id).unwrap();
        assert_eq!(store.confirm(id), Err(TxnError::UnknownReservation));
        assert_eq!(store.abort(id), Err(TxnError::UnknownReservation));
        assert_eq!(
            store.reserve(0, 9, rv(1.0, 1.0, 1.0)),
            Err(ReserveError::UnknownVm)
        );
    }

    #[test]
    fn begin_slot_rebases_and_aborts_stale_holds() {
        let store = store_one_vm();
        let _stale = store.reserve(0, 0, rv(1.0, 1.0, 1.0)).unwrap();
        store.begin_slot(&[rv(1.0, 4.0, 45.0)]);
        assert_eq!(store.outstanding(), 0);
        assert_eq!(store.counters().aborts, 1);
        assert_eq!(store.free(0).unwrap(), rv(3.0, 12.0, 135.0));
    }

    #[test]
    fn adjust_applies_engine_arithmetic() {
        let store = store_one_vm();
        let id = store.reserve(0, 0, rv(2.0, 2.0, 2.0)).unwrap();
        store.confirm(id).unwrap();
        // Shrink 2 -> 1 CPU.
        assert!(store.adjust(0, rv(2.0, 2.0, 2.0), rv(1.0, 2.0, 2.0)));
        assert_eq!(store.free(0).unwrap(), rv(3.0, 14.0, 178.0));
        // Growing past capacity is refused and counted.
        assert!(!store.adjust(0, rv(1.0, 2.0, 2.0), rv(9.0, 2.0, 2.0)));
        assert_eq!(store.counters().conflicts, 1);
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn begin_slot_full_rebases_capacities() {
        let store = store_one_vm();
        // The VM crashed: zero capacity, nothing committed.
        store.begin_slot_full(&[ResourceVector::ZERO], &[ResourceVector::ZERO]);
        assert_eq!(
            store.reserve(0, 0, rv(1.0, 1.0, 1.0)),
            Err(ReserveError::Conflict)
        );
        // Recovery restores nominal capacity.
        store.begin_slot_full(&[rv(4.0, 16.0, 180.0)], &[ResourceVector::ZERO]);
        assert!(store.reserve(0, 0, rv(1.0, 1.0, 1.0)).is_ok());
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn racing_reservations_never_overcommit() {
        use std::sync::Arc;
        // 8 threads fight for one VM that fits exactly 4 unit reservations;
        // every interleaving must commit at most 4.
        let store = Arc::new(PlacementStore::new(vec![rv(4.0, 4.0, 4.0)]));
        std::thread::scope(|s| {
            for shard in 0..8 {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    if let Ok(id) = store.reserve(shard, 0, rv(1.0, 1.0, 1.0)) {
                        store.confirm(id).unwrap();
                    }
                });
            }
        });
        let c = store.counters();
        assert_eq!(c.commits, 4, "{c:?}");
        assert_eq!(c.conflicts, 4, "{c:?}");
        assert!(store.holds_invariants(1e-9));
        assert_eq!(store.free(0).unwrap(), rv(0.0, 0.0, 0.0));
    }

    #[test]
    fn fast_commit_fuses_both_phases() {
        let store = fleet(8);
        store.try_fast_commit(0, 5, rv(1.0, 1.0, 1.0)).unwrap();
        // Who proposed a claim is irrelevant: while the VM has room, a
        // second shard's claim on it commits the same way.
        store.try_fast_commit(3, 5, rv(1.0, 1.0, 1.0)).unwrap();
        assert_eq!(store.free(5).unwrap(), rv(2.0, 2.0, 2.0));
        assert_eq!(store.outstanding(), 0, "no hold is ever opened");
        let c = store.counters();
        assert_eq!((c.commits, c.reservations, c.conflicts), (2, 2, 0));
        assert!(store.holds_invariants(1e-9));
    }

    #[test]
    fn fast_commit_misses_cleanly_on_capacity_and_unknown_vms() {
        let store = fleet(2);
        assert_eq!(
            store.try_fast_commit(0, 0, rv(9.0, 1.0, 1.0)),
            Err(FastPathMiss::Conflict)
        );
        assert_eq!(
            store.try_fast_commit(0, 7, rv(1.0, 1.0, 1.0)),
            Err(FastPathMiss::UnknownVm)
        );
        let c = store.counters();
        // The capacity miss is a conflict; an unknown VM is not.
        assert_eq!((c.reservations, c.commits, c.conflicts), (0, 0, 1));
        assert_eq!(store.free(0).unwrap(), rv(4.0, 4.0, 4.0), "miss is a no-op");
    }

    #[test]
    fn racing_fast_commits_never_overcommit() {
        use std::sync::Arc;
        // 8 shards race fused commits across 4 VMs; whatever interleaving
        // of hits/misses occurs, capacity is never exceeded.
        let store = Arc::new(fleet(4));
        std::thread::scope(|s| {
            for shard in 0..8 {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    for vm in 0..4 {
                        if store.try_fast_commit(shard, vm, rv(1.0, 1.0, 1.0)).is_err() {
                            if let Ok(id) = store.reserve(shard, vm, rv(1.0, 1.0, 1.0)) {
                                store.confirm(id).unwrap();
                            }
                        }
                    }
                });
            }
        });
        assert!(store.holds_invariants(1e-9));
        let c = store.counters();
        assert_eq!(c.commits + c.aborts, c.reservations, "{c:?}");
        assert_eq!(c.commits, 16, "4 VMs x 4 unit claims each: {c:?}");
    }

    #[test]
    fn best_fit_prefers_smallest_volume_then_lowest_id() {
        let reference = rv(4.0, 4.0, 4.0);
        let store = PlacementStore::new(vec![
            rv(4.0, 4.0, 4.0),
            rv(2.0, 2.0, 2.0), // vm 1 — tightest fit
            rv(3.0, 3.0, 3.0),
            rv(2.0, 2.0, 2.0), // vm 3 — ties with vm 1
        ]);
        let demand = rv(1.0, 1.0, 1.0);
        assert_eq!(
            store.best_fit(&demand, &reference),
            Some(1),
            "volume tie between vm 1 and vm 3 resolves to the lower id"
        );
        // Commit vm 1 full: its tie-partner wins next.
        store.try_fast_commit(0, 1, rv(2.0, 2.0, 2.0)).unwrap();
        assert_eq!(store.best_fit(&demand, &reference), Some(3));
    }
}
