//! VM selection.
//!
//! [`most_matched_vm`] implements the paper's Eq. 22 best-fit: among VMs
//! whose available pool satisfies the entity's demand, pick the one with
//! the smallest *unused resource volume* `sum_k pool_k / C'_k` — the "most
//! matched" VM, leaving large pools intact for future large entities.
//!
//! The baselines' random choices ("we randomly chose a VM that can
//! satisfy the resource demands" — uniform for RCCR and CloudScale,
//! share-weighted for DRA) live in the pipeline's placement backend, which
//! answers them from one fit pass per claim; `random_fitting_vm` here is
//! the test reference for the uniform one.
//!
//! [`VolumeIndex`] makes the Eq. 22 argmin incremental: a sorted set keyed
//! by `(volume bits, VM index)` that is updated in O(log V) whenever one
//! VM's pool changes, so each placement walks the candidates in best-fit
//! order instead of rescanning the whole fleet.

use corp_sim::ResourceVector;
use std::collections::BTreeSet;

/// Returns the index (into `pools`) of the fitting VM with the smallest
/// unused-resource volume relative to `reference` (`C'` of Eq. 22), or
/// `None` if no pool fits `demand`. Ties break toward the lower index,
/// making placement deterministic.
pub fn most_matched_vm(
    pools: &[ResourceVector],
    demand: &ResourceVector,
    reference: &ResourceVector,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, pool) in pools.iter().enumerate() {
        if !demand.fits_within(pool) {
            continue;
        }
        let vol = pool.volume(reference);
        if best.map(|(_, v)| vol < v).unwrap_or(true) {
            best = Some((i, vol));
        }
    }
    best.map(|(i, _)| i)
}

/// An incremental index over per-VM unused-resource volumes, keeping the
/// fleet sorted by the Eq. 22 objective so smallest-volume best-fit is
/// O(log V) per pool mutation instead of a full rescan per entity.
///
/// Entries are ordered by `(volume.to_bits(), vm_index)`. For the
/// non-negative finite volumes produced by real pools, `f64::to_bits` is
/// monotonic, so ascending entry order is exactly ascending volume with
/// ties broken toward the lower VM index — the same total order the linear
/// [`most_matched_vm`] scan resolves. The first fitting entry in that order
/// is therefore the linear scan's argmin, which is what the
/// equivalence proptests pin down.
///
/// Callers must keep the index in sync by calling [`update`](Self::update)
/// after every pool mutation (reserve, confirm, abort, release, capacity
/// rebase).
#[derive(Debug, Clone, Default)]
pub struct VolumeIndex {
    /// `(volume bits, vm index)` sorted ascending.
    entries: BTreeSet<(u64, usize)>,
    /// Current key per VM (None = not indexed), so updates can remove the
    /// stale entry without recomputing the old volume.
    keys: Vec<Option<u64>>,
}

impl VolumeIndex {
    /// Builds the index for a fleet of pools against the Eq. 22 reference
    /// capacity `C'`.
    pub fn new(pools: &[ResourceVector], reference: &ResourceVector) -> Self {
        let mut idx = VolumeIndex::default();
        idx.rebuild(pools, reference);
        idx
    }

    /// Re-indexes the whole fleet (used at slot boundaries where every
    /// pool changes at once and per-entry updates would be wasted work).
    pub fn rebuild(&mut self, pools: &[ResourceVector], reference: &ResourceVector) {
        self.entries.clear();
        self.keys.clear();
        self.keys.reserve(pools.len());
        for (i, pool) in pools.iter().enumerate() {
            let key = pool.volume(reference).to_bits();
            self.entries.insert((key, i));
            self.keys.push(Some(key));
        }
    }

    /// Number of indexed VMs.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Reposition VM `i` after its pool changed: O(log V).
    ///
    /// # Panics
    ///
    /// Panics if `i` was not part of the indexed fleet.
    pub fn update(&mut self, i: usize, pool: &ResourceVector, reference: &ResourceVector) {
        // Invariant: both callers pass a VM of the fleet this index was
        // built over (the pipeline backend's pools, the store's VMs).
        let slot = self.keys.get_mut(i).expect("VM index out of range");
        if let Some(old) = slot.take() {
            self.entries.remove(&(old, i));
        }
        let key = pool.volume(reference).to_bits();
        self.entries.insert((key, i));
        *slot = Some(key);
    }

    /// The lowest-volume VM for which `fits(vm)` holds, walking candidates
    /// in ascending `(volume, index)` order from the first entry whose
    /// volume bits are `>= min_volume_bits` — seeking into the sorted set
    /// in O(log V) instead of wading through entries the caller knows
    /// cannot fit.
    pub fn first_fit_from<F: FnMut(usize) -> bool>(
        &self,
        min_volume_bits: u64,
        mut fits: F,
    ) -> Option<usize> {
        self.entries
            .range((min_volume_bits, 0)..)
            .map(|&(_, i)| i)
            .find(|&i| fits(i))
    }

    /// Indexed Eq. 22 best-fit: equivalent to
    /// `most_matched_vm(pools, demand, reference)` for the reference this
    /// index was built against, but seeks straight past every pool whose
    /// volume is below the demand's own volume (a fitting pool dominates
    /// the demand componentwise, and the volume sum is monotone in each
    /// component — in exact arithmetic and in f64, since division by a
    /// positive reference and rounded addition are both monotone), then
    /// examines candidates only until the first fit.
    pub fn best_fit(
        &self,
        pools: &[ResourceVector],
        demand: &ResourceVector,
        reference: &ResourceVector,
    ) -> Option<usize> {
        self.first_fit_from(demand.volume(reference).to_bits(), |i| {
            demand.fits_within(&pools[i])
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// Returns a uniformly random index of a pool that fits `demand`, or
    /// `None` if none does: count the fitting pools, draw once, walk to the
    /// drawn one. The scan the placement backend's uniform claim replaced,
    /// kept as a test reference.
    fn random_fitting_vm<R: Rng>(
        pools: &[ResourceVector],
        demand: &ResourceVector,
        rng: &mut R,
    ) -> Option<usize> {
        let fitting = || (0..pools.len()).filter(|&i| demand.fits_within(&pools[i]));
        let count = fitting().count();
        if count == 0 {
            None
        } else {
            fitting().nth(rng.gen_range(0..count))
        }
    }

    /// The plainest uniform choice: collect the fitting indices, then
    /// index the list with one draw.
    pub(crate) fn random_from_collected_fits(
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
            None
        } else {
            Some(fitting[rng.gen_range(0..fitting.len())])
        }
    }

    proptest! {
        #[test]
        fn counted_random_choice_equals_the_collected_one_draw_for_draw(
            // Half-unit components: demands that fit some pools exactly
            // (the `1e-9` edge of `fits_within`), many or none.
            pools in prop::collection::vec((0u8..=8, 0u8..=8, 0u8..=8), 0..40),
            demands in prop::collection::vec((0u8..=8, 0u8..=8, 0u8..=8), 1..12),
            seed in 0u64..1_000,
        ) {
            let rv = |(a, b, c): (u8, u8, u8)| {
                ResourceVector::new([a, b, c].map(|x| f64::from(x) * 0.5))
            };
            let pools: Vec<ResourceVector> = pools.into_iter().map(rv).collect();
            let (mut counted, mut collected) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for demand in demands.into_iter().map(rv) {
                prop_assert_eq!(
                    random_fitting_vm(&pools, &demand, &mut counted),
                    random_from_collected_fits(&pools, &demand, &mut collected)
                );
            }
            // Neither side drew more than the other.
            prop_assert_eq!(counted.next_u64(), collected.next_u64());
        }
    }

    #[test]
    fn reproduces_paper_fig5_first_entity() {
        // C' = <25, 2, 30>; pools of VMs 1-4; entity (job 3, job 4) demands
        // <12, 1, 28>... the paper says VM1 and VM4 cannot satisfy it, and
        // VM2 (volume 1.233) wins over VM3 (2.8).
        let reference = ResourceVector::new([25.0, 2.0, 30.0]);
        let pools = [
            ResourceVector::new([5.0, 0.0, 20.0]),  // VM1: 0.867
            ResourceVector::new([10.0, 1.0, 10.0]), // VM2: 1.233
            ResourceVector::new([20.0, 2.0, 30.0]), // VM3: 2.8
            ResourceVector::new([10.0, 1.0, 8.5]),  // VM4: 1.183
        ];
        // A demand VM1/VM4 can't fit but VM2/VM3 can.
        let demand = ResourceVector::new([8.0, 1.0, 10.0]);
        assert_eq!(
            most_matched_vm(&pools, &demand, &reference),
            Some(1),
            "VM2 wins"
        );
    }

    #[test]
    fn reproduces_paper_fig5_second_entity() {
        // Entity (job 5, job 6): VM1 cannot satisfy; among VM2/VM3/VM4 the
        // smallest volume 1.183 (VM4) wins.
        let reference = ResourceVector::new([25.0, 2.0, 30.0]);
        let pools = [
            ResourceVector::new([5.0, 0.0, 20.0]),
            ResourceVector::new([10.0, 1.0, 10.0]),
            ResourceVector::new([20.0, 2.0, 30.0]),
            ResourceVector::new([10.0, 1.0, 8.5]),
        ];
        let demand = ResourceVector::new([9.0, 0.5, 8.0]);
        assert_eq!(
            most_matched_vm(&pools, &demand, &reference),
            Some(3),
            "VM4 wins"
        );
    }

    #[test]
    fn returns_none_when_nothing_fits() {
        let reference = ResourceVector::splat(10.0);
        let pools = [ResourceVector::splat(1.0)];
        let demand = ResourceVector::splat(5.0);
        assert_eq!(most_matched_vm(&pools, &demand, &reference), None);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(random_fitting_vm(&pools, &demand, &mut rng), None);
    }

    #[test]
    fn random_choice_only_picks_fitting_pools() {
        let pools = [
            ResourceVector::splat(1.0),
            ResourceVector::splat(10.0),
            ResourceVector::splat(0.5),
            ResourceVector::splat(10.0),
        ];
        let demand = ResourceVector::splat(5.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let pick = random_fitting_vm(&pools, &demand, &mut rng).unwrap();
            assert!(pick == 1 || pick == 3);
        }
    }

    #[test]
    fn random_choice_covers_all_fitting_pools() {
        let pools = [ResourceVector::splat(10.0), ResourceVector::splat(10.0)];
        let demand = ResourceVector::splat(1.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false, false];
        for _ in 0..100 {
            seen[random_fitting_vm(&pools, &demand, &mut rng).unwrap()] = true;
        }
        assert!(
            seen[0] && seen[1],
            "both fitting VMs should be chosen eventually"
        );
    }

    #[test]
    fn best_fit_prefers_snuggest_pool() {
        let reference = ResourceVector::splat(10.0);
        let pools = [
            ResourceVector::splat(9.0),
            ResourceVector::splat(3.0), // snug but fits
            ResourceVector::splat(6.0),
        ];
        let demand = ResourceVector::splat(2.0);
        assert_eq!(most_matched_vm(&pools, &demand, &reference), Some(1));
    }

    #[test]
    fn tie_breaks_to_lower_index() {
        let reference = ResourceVector::splat(10.0);
        let pools = [ResourceVector::splat(5.0), ResourceVector::splat(5.0)];
        let demand = ResourceVector::splat(1.0);
        assert_eq!(most_matched_vm(&pools, &demand, &reference), Some(0));
    }

    #[test]
    fn index_matches_linear_scan_on_fig5_fleet() {
        let reference = ResourceVector::new([25.0, 2.0, 30.0]);
        let pools = [
            ResourceVector::new([5.0, 0.0, 20.0]),
            ResourceVector::new([10.0, 1.0, 10.0]),
            ResourceVector::new([20.0, 2.0, 30.0]),
            ResourceVector::new([10.0, 1.0, 8.5]),
        ];
        let idx = VolumeIndex::new(&pools, &reference);
        for demand in [
            ResourceVector::new([8.0, 1.0, 10.0]),
            ResourceVector::new([9.0, 0.5, 8.0]),
            ResourceVector::new([100.0, 100.0, 100.0]),
            ResourceVector::new([0.0, 0.0, 0.0]),
        ] {
            assert_eq!(
                idx.best_fit(&pools, &demand, &reference),
                most_matched_vm(&pools, &demand, &reference),
                "demand {demand:?}"
            );
        }
    }

    #[test]
    fn index_tie_breaks_to_lower_index() {
        let reference = ResourceVector::splat(10.0);
        let pools = [ResourceVector::splat(5.0), ResourceVector::splat(5.0)];
        let idx = VolumeIndex::new(&pools, &reference);
        assert_eq!(
            idx.best_fit(&pools, &ResourceVector::splat(1.0), &reference),
            Some(0)
        );
    }

    #[test]
    fn index_tracks_incremental_pool_updates() {
        let reference = ResourceVector::splat(10.0);
        let mut pools = vec![
            ResourceVector::splat(9.0),
            ResourceVector::splat(3.0),
            ResourceVector::splat(6.0),
        ];
        let mut idx = VolumeIndex::new(&pools, &reference);
        let demand = ResourceVector::splat(2.0);
        assert_eq!(idx.best_fit(&pools, &demand, &reference), Some(1));

        // Shrink VM1 below the demand: the index must fall through to the
        // next-snuggest fitting pool.
        pools[1] = ResourceVector::splat(1.0);
        idx.update(1, &pools[1], &reference);
        assert_eq!(idx.best_fit(&pools, &demand, &reference), Some(2));

        // Grow VM0 snug again.
        pools[0] = ResourceVector::splat(2.5);
        idx.update(0, &pools[0], &reference);
        assert_eq!(idx.best_fit(&pools, &demand, &reference), Some(0));
        assert_eq!(
            idx.best_fit(&pools, &demand, &reference),
            most_matched_vm(&pools, &demand, &reference)
        );
    }

    #[test]
    fn rebuild_resets_to_a_new_fleet() {
        let reference = ResourceVector::splat(10.0);
        let mut idx = VolumeIndex::new(&[ResourceVector::splat(1.0)], &reference);
        let pools = [ResourceVector::splat(4.0), ResourceVector::splat(2.0)];
        idx.rebuild(&pools, &reference);
        assert_eq!(idx.len(), 2);
        assert_eq!(
            idx.best_fit(&pools, &ResourceVector::splat(1.5), &reference),
            Some(1)
        );
    }

    #[test]
    #[should_panic]
    fn update_rejects_unknown_vm() {
        let reference = ResourceVector::splat(10.0);
        let mut idx = VolumeIndex::new(&[ResourceVector::splat(1.0)], &reference);
        idx.update(5, &ResourceVector::splat(1.0), &reference);
    }
}
