//! The placement stage: choose a VM for each entity and commit capacity.
//!
//! [`PlacementBackend`] is the pipeline's final stage, and
//! [`DirectBackend`] its one implementation: an in-process selector over
//! the slot's free pools (Eq. 22 volume best-fit through the incremental
//! [`VolumeIndex`], random fitting VM, or DRA's share-weighted choice). A
//! sharded run places through the same stage inside each shard; the
//! coordinator in `corp-cluster` then arbitrates the shards' placements
//! against its store on its own.

use crate::placement::{random_fitting_vm, VolumeIndex};
use crate::predictor::dra::ShareClass;
use corp_sim::ResourceVector;
use rand::rngs::StdRng;
use rand::Rng;

/// The outcome of one placement attempt.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// The VM the entity landed on, or `None` if nothing fit.
    pub vm: Option<usize>,
}

/// Stage 4 of the provisioning pipeline: VM choice and capacity commit.
///
/// `begin_slot` is called once per slot *after* entity formation proved
/// non-empty (so a slot with nothing to place never pays for index
/// construction — hot-path critical); `choose` picks a VM for one entity's
/// fit demand; `debit` reports the pool level after the driver committed
/// the entity, letting indexed backends reposition the chosen VM.
pub trait PlacementBackend {
    /// Prepares per-slot state (e.g. rebuilds the volume index) over the
    /// current free pools.
    fn begin_slot(&mut self, pools: &[ResourceVector], reference: &ResourceVector);

    /// Chooses a VM fitting `fit`. `rng` drives randomized selectors; a
    /// backend draws from it only when its policy does, preserving the
    /// scheme's exact random sequence.
    ///
    /// `hint` is unread: the driver always passes `None`, and no backend
    /// validates an upstream proposal. It stays because `benchmark/`'s
    /// timing decorator implements this signature (ROADMAP item 4(a)).
    fn choose(
        &mut self,
        pools: &[ResourceVector],
        fit: &ResourceVector,
        hint: Option<usize>,
        reference: &ResourceVector,
        rng: &mut StdRng,
    ) -> Claim;

    /// Notifies the backend that the driver debited `vm` down to
    /// `pool_after`.
    fn debit(&mut self, vm: usize, pool_after: &ResourceVector, reference: &ResourceVector);
}

/// VM-selection policy of the [`DirectBackend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmSelector {
    /// Eq. 22: the fitting VM with the smallest unused-resource volume,
    /// served by the incremental [`VolumeIndex`] (ties to the lowest id).
    Volume,
    /// A uniformly random fitting VM (RCCR, CloudScale).
    Random,
    /// DRA's share-weighted random choice among fitting VMs (4:2:1 share
    /// classes).
    ShareWeighted,
}

/// Share-weighted random choice among fitting VMs: sum the fitting VMs'
/// weights in id order, draw once, walk the same order to the drawn one.
fn share_weighted_vm(
    pools: &[ResourceVector],
    demand: &ResourceVector,
    rng: &mut StdRng,
) -> Option<usize> {
    let fitting = || (0..pools.len()).filter(|&i| demand.fits_within(&pools[i]));
    let (mut total, mut last) = (0.0, None);
    for i in fitting() {
        total += ShareClass::of_vm(i).weight();
        last = Some(i);
    }
    let last = last?;
    let mut x = rng.gen_range(0.0..total);
    for i in fitting() {
        let w = ShareClass::of_vm(i).weight();
        if x < w {
            return Some(i);
        }
        x -= w;
    }
    Some(last)
}

/// The monolithic placement backend: selects against the slot's free pools
/// and mutates nothing beyond its own (optional) volume index.
///
/// Volume placement runs through a [`VolumeIndex`] built once per slot and
/// repositioned after each reservation, so a burst of `E` entities over `V`
/// VMs costs `O((V + E) log V)` instead of the `O(E * V)` rescan — same
/// choices (the index reproduces the linear Eq. 22 argmin exactly).
pub struct DirectBackend {
    selector: VmSelector,
    index: Option<VolumeIndex>,
}

impl DirectBackend {
    /// Builds a direct backend with the given selection policy.
    pub fn new(selector: VmSelector) -> Self {
        DirectBackend {
            selector,
            index: None,
        }
    }
}

impl PlacementBackend for DirectBackend {
    fn begin_slot(&mut self, pools: &[ResourceVector], reference: &ResourceVector) {
        self.index =
            matches!(self.selector, VmSelector::Volume).then(|| VolumeIndex::new(pools, reference));
    }

    fn choose(
        &mut self,
        pools: &[ResourceVector],
        fit: &ResourceVector,
        _hint: Option<usize>,
        reference: &ResourceVector,
        rng: &mut StdRng,
    ) -> Claim {
        let vm = match self.selector {
            VmSelector::Volume => self
                .index
                .as_ref()
                .and_then(|idx| idx.best_fit(pools, fit, reference)),
            VmSelector::Random => random_fitting_vm(pools, fit, rng),
            VmSelector::ShareWeighted => share_weighted_vm(pools, fit, rng),
        };
        Claim { vm }
    }

    fn debit(&mut self, vm: usize, pool_after: &ResourceVector, reference: &ResourceVector) {
        if let Some(idx) = self.index.as_mut() {
            idx.update(vm, pool_after, reference);
        }
    }
}

/// Admission policy of the placement stage: what "fits" means and what a
/// placed job is granted.
#[derive(Debug, Clone, Copy)]
pub enum AdmissionPolicy {
    /// A job fits when its full request does, and is granted its full
    /// request (every opportunistic scheme).
    FullRequest,
    /// DRA's overbooking: a job is admitted when `factor * requested` fits
    /// the VM's free pool; its allocation is then capped at what is
    /// actually free. 1.0 = strict reservations; lower values overbook —
    /// the aggressiveness knob for the Fig. 8 sweep.
    Overcommit(f64),
}

impl AdmissionPolicy {
    /// The demand vector the backend must fit.
    pub(crate) fn fit_demand(&self, total_demand: &ResourceVector) -> ResourceVector {
        match self {
            AdmissionPolicy::FullRequest => *total_demand,
            AdmissionPolicy::Overcommit(factor) => total_demand.scaled(*factor),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    /// The selection `share_weighted_vm` replaces: collect the fitting
    /// indices, sum their weights, draw, walk the list.
    fn share_weighted_from_collected_fits(
        pools: &[ResourceVector],
        demand: &ResourceVector,
        rng: &mut StdRng,
    ) -> Option<usize> {
        let fitting: Vec<usize> = pools
            .iter()
            .enumerate()
            .filter(|(_, p)| demand.fits_within(p))
            .map(|(i, _)| i)
            .collect();
        if fitting.is_empty() {
            return None;
        }
        let total: f64 = fitting.iter().map(|&i| ShareClass::of_vm(i).weight()).sum();
        let mut x = rng.gen_range(0.0..total);
        for &i in &fitting {
            let w = ShareClass::of_vm(i).weight();
            if x < w {
                return Some(i);
            }
            x -= w;
        }
        fitting.last().copied()
    }

    proptest! {
        #[test]
        fn summed_share_weighted_choice_equals_the_collected_one_draw_for_draw(
            pools in prop::collection::vec((0u8..=8, 0u8..=8, 0u8..=8), 0..40),
            demands in prop::collection::vec((0u8..=8, 0u8..=8, 0u8..=8), 1..12),
            seed in 0u64..1_000,
        ) {
            let rv = |(a, b, c): (u8, u8, u8)| {
                ResourceVector::new([a, b, c].map(|x| f64::from(x) * 0.5))
            };
            let pools: Vec<ResourceVector> = pools.into_iter().map(rv).collect();
            let (mut summed, mut collected) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for demand in demands.into_iter().map(rv) {
                prop_assert_eq!(
                    share_weighted_vm(&pools, &demand, &mut summed),
                    share_weighted_from_collected_fits(&pools, &demand, &mut collected)
                );
            }
            // Neither side drew more than the other.
            prop_assert_eq!(summed.next_u64(), collected.next_u64());
        }
    }
}
