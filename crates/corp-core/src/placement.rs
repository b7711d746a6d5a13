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
//! [`VolumeIndex`] makes the Eq. 22 argmin incremental: the fleet's
//! `(volume bits, VM index)` pairs in ascending order, in flat sorted
//! blocks that are re-sorted once per slot and shifted in place whenever
//! one VM's pool changes, so each placement seeks to the demand's volume
//! and scans the candidates in best-fit order instead of rescanning the
//! whole fleet. On `corp-steady-1k`'s 1 024 VMs a rebuild takes 20–30 µs
//! and a query 430–620 ns, against 63–93 µs and 1.1–1.4 µs for the
//! `BTreeSet` this replaced (EXPERIMENTS.md, "Eq. 22 from a flat index").

use corp_sim::ResourceVector;

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

/// Entries per block of a freshly rebuilt [`VolumeIndex`]. A block splits
/// in two past twice this many entries and merges into a neighbour below
/// half as many, so an update shifts a bounded number of entries however
/// large the fleet.
const BLOCK: usize = 128;

/// An incremental index over per-VM unused-resource volumes, keeping the
/// fleet sorted by the Eq. 22 objective so a best-fit query seeks to the
/// demand's volume and scans forward instead of rescanning the whole fleet.
///
/// Entries are ordered by `(volume.to_bits(), vm_index)`. For the
/// non-negative finite volumes produced by real pools, `f64::to_bits` is
/// monotonic, so ascending entry order is exactly ascending volume with
/// ties broken toward the lower VM index — the same total order the linear
/// [`most_matched_vm`] scan resolves. The first fitting entry in that order
/// is therefore the linear scan's argmin, which is what the
/// equivalence proptests pin down.
///
/// The entries are flat arrays in that order, cut into consecutive blocks
/// of 128 entries at a rebuild: a rebuild is one sort, a query a
/// binary search to its volume floor and then a contiguous scan, and an
/// update shifts the entries between the VM's old and new positions by
/// one place. A debit moves a VM's volume across a large part of the fleet
/// (413 of 1 024 entries on average on `corp-steady-1k`), so one flat
/// array would shift O(V) entries per update; blocks bound that to the
/// entries of the one or two blocks the VM leaves and joins.
///
/// Callers must keep the index in sync by calling [`update`](Self::update)
/// after every pool mutation (reserve, confirm, abort, release, capacity
/// rebase).
#[derive(Debug, Clone, Default)]
pub struct VolumeIndex {
    /// `(volume bits, vm index)` ascending, as consecutive sorted blocks:
    /// none empty, none longer than `2 * BLOCK`.
    blocks: Vec<Vec<(u64, usize)>>,
    /// Each block's first entry, to binary-search for an entry's block.
    heads: Vec<(u64, usize)>,
    /// Current key per VM, so an update finds the stale entry without
    /// recomputing the old volume.
    keys: Vec<u64>,
    /// The rebuild's sort buffer, kept for the next rebuild.
    sorted: Vec<(u64, usize)>,
}

/// Two indexes are equal when they hold the same keys in the same order,
/// however their entries are cut into blocks.
impl PartialEq for VolumeIndex {
    fn eq(&self, other: &Self) -> bool {
        self.keys == other.keys && self.entries().eq(other.entries())
    }
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
        self.keys.clear();
        self.keys
            .extend(pools.iter().map(|pool| pool.volume(reference).to_bits()));
        let sorted = &mut self.sorted;
        sorted.clear();
        sorted.extend(self.keys.iter().copied().zip(0..));
        // Keys are distinct (each carries its VM), so the unstable sort
        // has one outcome.
        sorted.sort_unstable();
        self.blocks
            .resize_with(sorted.len().div_ceil(BLOCK), Vec::new);
        self.heads.clear();
        for (block, chunk) in self.blocks.iter_mut().zip(sorted.chunks(BLOCK)) {
            block.clear();
            block.extend_from_slice(chunk);
            self.heads.push(chunk[0]);
        }
    }

    /// Number of indexed VMs.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Every entry, in ascending order.
    fn entries(&self) -> impl Iterator<Item = &(u64, usize)> {
        self.blocks.iter().flatten()
    }

    /// The block `entry` belongs in: the last whose first entry is not
    /// above it, or the first block.
    fn block_of(&self, entry: (u64, usize)) -> usize {
        self.heads
            .partition_point(|&h| h <= entry)
            .saturating_sub(1)
    }

    /// Reposition VM `i` after its pool changed: a shift of the entries
    /// between its old and new positions when both lie in one block, else
    /// a removal from one block and an insertion into another.
    ///
    /// # Panics
    ///
    /// Panics if `i` was not part of the indexed fleet.
    pub fn update(&mut self, i: usize, pool: &ResourceVector, reference: &ResourceVector) {
        // Invariant: both callers pass a VM of the fleet this index was
        // built over (the pipeline backend's pools, the store's VMs).
        let slot = self.keys.get_mut(i).expect("VM index out of range");
        let (old, new) = ((*slot, i), (pool.volume(reference).to_bits(), i));
        *slot = new.0;
        let b = self.block_of(old);
        if self.block_of(new) != b {
            self.remove(b, old);
            self.insert(new);
            return;
        }
        let block = &mut self.blocks[b];
        let from = block.partition_point(|&e| e < old);
        if new > old {
            // The entries after `from` that sort below `new` move down one.
            let to = from + block[from + 1..].partition_point(|&e| e < new);
            block.copy_within(from + 1..=to, from);
            block[to] = new;
        } else {
            // The entries before `from` that sort above `new` move up one.
            let to = block[..from].partition_point(|&e| e < new);
            block.copy_within(to..from, to + 1);
            block[to] = new;
        }
        self.heads[b] = block[0];
    }

    /// Takes `entry` out of block `b`, merging what is left of the block
    /// into a neighbour when it falls below half a rebuild's block.
    fn remove(&mut self, b: usize, entry: (u64, usize)) {
        let alone = self.blocks.len() == 1;
        let block = &mut self.blocks[b];
        let at = block.partition_point(|&e| e < entry);
        block.remove(at);
        if block.len() >= BLOCK / 2 || alone {
            if let Some(&head) = block.first() {
                self.heads[b] = head;
            }
            return;
        }
        // Into the previous block for the last, else the next into it.
        let b = b.min(self.blocks.len() - 2);
        let next = self.blocks.remove(b + 1);
        self.heads.remove(b + 1);
        self.blocks[b].extend_from_slice(&next);
        self.heads[b] = self.blocks[b][0];
        self.split(b);
    }

    /// Puts `entry` into its block, splitting the block when it grows
    /// past twice a rebuild's block.
    fn insert(&mut self, entry: (u64, usize)) {
        let b = self.block_of(entry);
        let block = &mut self.blocks[b];
        let at = block.partition_point(|&e| e < entry);
        block.insert(at, entry);
        self.heads[b] = block[0];
        self.split(b);
    }

    /// Cuts block `b` in half once it is longer than `2 * BLOCK`.
    fn split(&mut self, b: usize) {
        let block = &mut self.blocks[b];
        if block.len() > 2 * BLOCK {
            let tail = block.split_off(block.len() / 2);
            self.heads.insert(b + 1, tail[0]);
            self.blocks.insert(b + 1, tail);
        }
    }

    /// Indexed Eq. 22 best-fit: equivalent to
    /// `most_matched_vm(pools, demand, reference)` for the reference this
    /// index was built against, but seeks straight past every pool whose
    /// volume is below the demand's own volume (a fitting pool dominates
    /// the demand componentwise, and the volume sum is monotone in each
    /// component — in exact arithmetic and in f64, since division by a
    /// positive reference and rounded addition are both monotone), then
    /// examines candidates in ascending `(volume, index)` order only until
    /// the first fit.
    pub fn best_fit(
        &self,
        pools: &[ResourceVector],
        demand: &ResourceVector,
        reference: &ResourceVector,
    ) -> Option<usize> {
        let floor = demand.volume(reference).to_bits();
        // The first entry at or above the floor is in the block before the
        // first whose head is, or in that one.
        let b = self
            .heads
            .partition_point(|h| h.0 < floor)
            .saturating_sub(1);
        let first = self.blocks.get(b)?;
        let at = first.partition_point(|e| e.0 < floor);
        let rest = self.blocks[b + 1..].iter().flatten();
        first[at..]
            .iter()
            .chain(rest)
            .map(|&(_, i)| i)
            .find(|&i| demand.fits_within(&pools[i]))
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

    /// Panics unless `idx`'s blocks hold every VM once, under its current
    /// key, in ascending order, no block empty or longer than
    /// `2 * BLOCK`, and each head its block's first entry.
    fn check_blocks(idx: &VolumeIndex) {
        assert_eq!(idx.heads.len(), idx.blocks.len());
        for (block, head) in idx.blocks.iter().zip(&idx.heads) {
            assert!(
                !block.is_empty() && block.len() <= 2 * BLOCK,
                "{}",
                block.len()
            );
            assert_eq!(block[0], *head);
        }
        let entries: Vec<(u64, usize)> = idx.entries().copied().collect();
        assert!(entries.windows(2).all(|w| w[0] < w[1]), "out of order");
        let mut by_vm = entries.clone();
        by_vm.sort_unstable_by_key(|&(_, vm)| vm);
        let expected: Vec<(u64, usize)> = idx.keys.iter().copied().zip(0..).collect();
        assert_eq!(by_vm, expected, "every VM once, under its key");
    }

    /// A fleet whose volumes are all distinct and spread out.
    fn spread_fleet(n: usize) -> Vec<ResourceVector> {
        (0..n)
            .map(|i| ResourceVector::splat(1.0 + (i * 7919 % n) as f64 / n as f64))
            .collect()
    }

    #[test]
    fn blocks_split_as_vms_crowd_one_end_and_merge_as_they_leave() {
        let reference = ResourceVector::splat(10.0);
        let original = spread_fleet(1000);
        let mut pools = original.clone();
        let mut idx = VolumeIndex::new(&pools, &reference);
        let blocks = idx.blocks.len();
        // Crowd 700 VMs onto the front (volume 0, ties by id), one at a
        // time: the front block keeps splitting, the others drain.
        for i in (0..1000).step_by(3).chain((1..1000).step_by(3)).take(700) {
            pools[i] = ResourceVector::ZERO;
            idx.update(i, &pools[i], &reference);
            check_blocks(&idx);
        }
        assert_eq!(idx, VolumeIndex::new(&pools, &reference));
        // Send them back, and the emptied front blocks merge away again.
        for i in (0..1000).rev() {
            pools[i] = original[i];
            idx.update(i, &pools[i], &reference);
            check_blocks(&idx);
        }
        assert_eq!(idx, VolumeIndex::new(&pools, &reference));
        assert!(
            idx.blocks.len() <= 2 * blocks,
            "{} blocks",
            idx.blocks.len()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn random_updates_keep_the_blocks_sound(
            n in 1usize..600,
            // Targets near zero and near the end of the fleet's volumes are
            // as likely as any in between.
            steps in prop::collection::vec((0usize..600, 0u8..=20), 1..300),
        ) {
            let reference = ResourceVector::splat(10.0);
            let mut pools = spread_fleet(n);
            let mut idx = VolumeIndex::new(&pools, &reference);
            for (vm, level) in steps {
                let i = vm % n;
                pools[i] = ResourceVector::splat(f64::from(level) * 0.1);
                idx.update(i, &pools[i], &reference);
                check_blocks(&idx);
            }
            prop_assert_eq!(&idx, &VolumeIndex::new(&pools, &reference));
        }
    }
}
