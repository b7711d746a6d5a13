//! The pipeline's placement stage over the two-phase-commit store.
//!
//! [`TwoPhaseBackend`] implements
//! [`corp_core::pipeline::PlacementBackend`] against the
//! [`PlacementStore`], making the distributed path a *backend choice*
//! rather than a separate code path: the monolithic schemes place through
//! `DirectBackend`, the coordinator's arbitration places through this —
//! same trait, same claim/commit contract.
//!
//! One `choose` call is one complete 2PC claim: `reserve` the target VM
//! (phase 1), `confirm` on admission (phase 2), and on conflict retry
//! against the store's best-fit VM up to the retry budget. The target is
//! the upstream proposal's VM when the caller hints one and the store's
//! Eq. 22 best fit otherwise. The returned [`Claim`] carries the
//! conflict/retry counts for the coordinator's control-plane statistics;
//! `claim.vm == None` means the proposal aborted and its job stays pending
//! (the queue is the backoff).

use corp_core::pipeline::{Claim, PlacementBackend};
use corp_sim::ResourceVector;
use rand::rngs::StdRng;

use crate::store::{PlacementStore, ReserveError};

/// A [`PlacementBackend`] whose claims are two-phase-commit reservations
/// against a shared [`PlacementStore`].
pub struct TwoPhaseBackend<'a> {
    store: &'a PlacementStore,
    max_retries: usize,
}

impl<'a> TwoPhaseBackend<'a> {
    /// Builds a backend claiming against `store`, allowed `max_retries`
    /// alternative VMs after a claim's first reservation conflicts.
    pub fn new(store: &'a PlacementStore, max_retries: usize) -> Self {
        TwoPhaseBackend { store, max_retries }
    }
}

impl PlacementBackend for TwoPhaseBackend<'_> {
    fn begin_slot(&mut self, _pools: &[ResourceVector], _reference: &ResourceVector) {
        // The coordinator rebases the store against the engine's committed
        // capacities once per slot (`begin_slot_full`), before proposals
        // even exist; there is no per-placement-round setup.
    }

    fn choose(
        &mut self,
        _pools: &[ResourceVector],
        fit: &ResourceVector,
        hint: Option<usize>,
        reference: &ResourceVector,
        _rng: &mut StdRng,
    ) -> Claim {
        let mut claim = Claim {
            vm: None,
            conflicts: 0,
            retries: 0,
        };
        // No proposal to validate: start from Eq. 22's smallest-volume fit
        // (nothing fitting is not a conflict, just an unplaced entity).
        let Some(mut target) = hint.or_else(|| self.store.best_fit(fit, reference)) else {
            return claim;
        };
        loop {
            // The store does not read the proposing shard (see `reserve`).
            match self.store.reserve(0, target, *fit) {
                Ok(id) => {
                    // A hold can only vanish under racing external users
                    // of the store; typed handling beats a panic, and the
                    // claim then counts as aborted.
                    if self.store.confirm(id).is_ok() {
                        claim.vm = Some(target);
                    }
                    break;
                }
                Err(ReserveError::Conflict) => {
                    claim.conflicts += 1;
                    if claim.retries as usize >= self.max_retries {
                        break;
                    }
                    match self.store.best_fit(fit, reference) {
                        Some(vm) => {
                            claim.retries += 1;
                            target = vm;
                        }
                        None => break,
                    }
                }
                Err(ReserveError::UnknownVm) => break,
            }
        }
        claim
    }

    fn debit(&mut self, _vm: usize, _pool_after: &ResourceVector, _reference: &ResourceVector) {
        // `confirm` already committed the capacity inside the store.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rv(v: f64) -> ResourceVector {
        ResourceVector::splat(v)
    }

    #[test]
    fn hintless_claim_starts_at_the_best_fit_vm() {
        // VM 0 is the roomiest, VM 2 the tightest that still fits.
        let store = PlacementStore::new(vec![rv(4.0), rv(0.5), rv(2.0)]);
        let mut backend = TwoPhaseBackend::new(&store, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let mut claim = |fit: f64, hint: Option<usize>| {
            let c = backend.choose(&[], &rv(fit), hint, &rv(4.0), &mut rng);
            (c.vm, c.conflicts, c.retries)
        };
        assert_eq!(claim(1.0, None), (Some(2), 0, 0), "Eq. 22, not VM 0");
        // Nothing fits: unplaced, and not a conflict.
        assert_eq!(claim(9.0, None), (None, 0, 0));
        // A hinted VM with room is taken as proposed, roomier or not; one
        // without costs a conflict and a retry onto the best fit.
        assert_eq!(claim(1.0, Some(0)), (Some(0), 0, 0));
        assert_eq!(claim(1.0, Some(1)), (Some(2), 1, 1));
        assert_eq!(store.counters().conflicts, 1);
        assert_eq!(store.outstanding(), 0, "every claim confirmed at once");
    }
}
