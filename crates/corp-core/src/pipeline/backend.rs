//! The placement stage: choose a VM for each entity and commit capacity.
//!
//! [`PlacementBackend`] is the pipeline's final stage, and
//! [`DirectBackend`] its one implementation: an in-process selector over
//! the slot's free pools (Eq. 22 volume best-fit through the incremental
//! [`VolumeIndex`], random fitting VM, or DRA's share-weighted choice). A
//! sharded run places through the same stage inside each shard; the
//! coordinator in `corp-cluster` then arbitrates the shards' placements
//! against its store on its own.

use crate::placement::VolumeIndex;
use crate::predictor::ShareClass;
use corp_sim::{FreeLanes, ResourceVector, LANES};
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

/// The lanes set in `mask`, lowest first.
fn set_lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// The slot's free pools as [`FreeLanes`] chunks, for the random
/// selectors: built once per slot, patched with the exact pool a debit
/// leaves, so a claim tests every VM in one pass of [`LANES`]-wide fit
/// checks and then draws over the resulting bit masks.
#[derive(Debug, Default)]
struct FitLanes {
    chunks: Vec<FreeLanes>,
    /// The last claim's fit mask per chunk.
    masks: Vec<u32>,
}

impl FitLanes {
    fn rebuild(&mut self, pools: &[ResourceVector]) {
        self.chunks.clear();
        let chunks = pools.chunks(LANES);
        self.chunks
            .extend(chunks.map(|c| FreeLanes::new(c.iter().copied())));
    }

    fn set(&mut self, vm: usize, pool: &ResourceVector) {
        if let Some(chunk) = self.chunks.get_mut(vm / LANES) {
            chunk.set(vm % LANES, pool);
        }
    }

    /// The one pass: records which VMs fit `demand`, returns how many do.
    fn scan(&mut self, demand: &ResourceVector) -> usize {
        self.masks.clear();
        let masks = self.chunks.iter().map(|lanes| lanes.fits(demand));
        self.masks.extend(masks);
        self.masks.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// The fitting VMs of the last scan, in id order.
    fn fitting(&self) -> impl Iterator<Item = usize> + '_ {
        let chunks = self.masks.iter().enumerate();
        chunks.flat_map(|(c, &mask)| set_lanes(mask).map(move |lane| c * LANES + lane))
    }

    /// A uniformly random fitting VM: count by popcount, draw once, select
    /// the drawn set bit.
    fn random(&mut self, demand: &ResourceVector, rng: &mut StdRng) -> Option<usize> {
        let count = self.scan(demand);
        if count == 0 {
            return None;
        }
        let mut n = rng.gen_range(0..count);
        for (c, &mask) in self.masks.iter().enumerate() {
            let fits = mask.count_ones() as usize;
            if n < fits {
                return set_lanes(mask).nth(n).map(|lane| c * LANES + lane);
            }
            n -= fits;
        }
        None
    }

    /// DRA's share-weighted choice: sum the fitting VMs' weights in id
    /// order, draw once, walk the same order to the drawn one.
    fn share_weighted(&mut self, demand: &ResourceVector, rng: &mut StdRng) -> Option<usize> {
        self.scan(demand);
        let (mut total, mut last) = (0.0, None);
        for i in self.fitting() {
            total += ShareClass::of_vm(i).weight();
            last = Some(i);
        }
        let last = last?;
        let mut x = rng.gen_range(0.0..total);
        for i in self.fitting() {
            let w = ShareClass::of_vm(i).weight();
            if x < w {
                return Some(i);
            }
            x -= w;
        }
        Some(last)
    }
}

/// The monolithic placement backend: selects against the slot's free pools
/// and mutates nothing beyond its own per-slot fit structure.
///
/// Volume placement runs through a [`VolumeIndex`] built once per slot and
/// repositioned after each reservation, so a burst of `E` entities over `V`
/// VMs costs `O((V + E) log V)` instead of the `O(E * V)` rescan — same
/// choices (the index reproduces the linear Eq. 22 argmin exactly). The
/// random selectors keep the pools as `FitLanes`, patched the same way.
pub struct DirectBackend {
    selector: VmSelector,
    index: Option<VolumeIndex>,
    lanes: FitLanes,
}

impl DirectBackend {
    /// Builds a direct backend with the given selection policy.
    pub fn new(selector: VmSelector) -> Self {
        DirectBackend {
            selector,
            index: None,
            lanes: FitLanes::default(),
        }
    }
}

impl PlacementBackend for DirectBackend {
    fn begin_slot(&mut self, pools: &[ResourceVector], reference: &ResourceVector) {
        match self.selector {
            VmSelector::Volume => self.index = Some(VolumeIndex::new(pools, reference)),
            VmSelector::Random | VmSelector::ShareWeighted => self.lanes.rebuild(pools),
        }
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
            VmSelector::Random => self.lanes.random(fit, rng),
            VmSelector::ShareWeighted => self.lanes.share_weighted(fit, rng),
        };
        Claim { vm }
    }

    fn debit(&mut self, vm: usize, pool_after: &ResourceVector, reference: &ResourceVector) {
        match self.index.as_mut() {
            Some(idx) => idx.update(vm, pool_after, reference),
            None => self.lanes.set(vm, pool_after),
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
    use crate::placement::tests::random_from_collected_fits;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    /// The plainest share-weighted choice: collect the fitting indices, sum
    /// their weights, draw, walk the list.
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

    /// A pool or demand component: half units, plus the values whose
    /// comparisons misbehave.
    fn amount() -> impl Strategy<Value = f64> {
        (0u8..12).prop_map(|x| match x {
            9 => f64::NAN,
            10 => -0.0,
            11 => f64::INFINITY,
            x => f64::from(x) * 0.5,
        })
    }

    fn vector() -> impl Strategy<Value = ResourceVector> {
        (amount(), amount(), amount()).prop_map(|(a, b, c)| ResourceVector::new([a, b, c]))
    }

    /// One step of a slot: a claim for a demand (debited like the driver
    /// does when it lands), or an outside debit of some VM to some pool.
    #[derive(Debug, Clone)]
    enum Step {
        Claim(ResourceVector),
        Debit(usize, ResourceVector),
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..4, 0usize..64, vector()).prop_map(|(kind, vm, v)| match kind {
            0 => Step::Debit(vm, v),
            _ => Step::Claim(v),
        })
    }

    /// Runs `steps` through a [`DirectBackend`] with `selector` and through
    /// `reference` over a mirror of the pools, claim for claim.
    fn backend_matches_reference(
        selector: VmSelector,
        reference: fn(&[ResourceVector], &ResourceVector, &mut StdRng) -> Option<usize>,
        mut pools: Vec<ResourceVector>,
        steps: &[Step],
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let capacity = ResourceVector::splat(4.0);
        let mut backend = DirectBackend::new(selector);
        backend.begin_slot(&pools, &capacity);
        let (mut lanes, mut scan) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        for step in steps {
            let (vm, pool) = match *step {
                Step::Claim(demand) => {
                    let claim = backend.choose(&pools, &demand, None, &capacity, &mut lanes);
                    prop_assert_eq!(claim.vm, reference(&pools, &demand, &mut scan));
                    let Some(vm) = claim.vm else { continue };
                    (vm, (pools[vm] - demand).clamp_nonnegative())
                }
                Step::Debit(vm, pool) if vm < pools.len() => (vm, pool),
                Step::Debit(..) => continue,
            };
            pools[vm] = pool;
            backend.debit(vm, &pools[vm], &capacity);
        }
        // Neither side drew more than the other.
        prop_assert_eq!(lanes.next_u64(), scan.next_u64());
        Ok(())
    }

    proptest! {
        #[test]
        fn lane_claims_equal_the_collected_fits_claim_for_claim(
            pools in prop::collection::vec(vector(), 0..40),
            steps in prop::collection::vec(step(), 1..40),
            seed in 0u64..1_000,
        ) {
            backend_matches_reference(
                VmSelector::Random,
                random_from_collected_fits,
                pools.clone(),
                &steps,
                seed,
            )?;
            backend_matches_reference(
                VmSelector::ShareWeighted,
                share_weighted_from_collected_fits,
                pools,
                &steps,
                seed,
            )?;
        }
    }
}
