//! Property tests pinning the incremental [`VolumeIndex`] to the linear
//! Eq. 22 scan ([`most_matched_vm`]) it replaces: same winner on arbitrary
//! fleets — including exact volume ties, which must break toward the lower
//! VM index in both — and after arbitrary sequences of incremental pool
//! updates, after each of which the index also equals a freshly rebuilt
//! one.

use corp_core::{most_matched_vm, VolumeIndex};
use corp_sim::ResourceVector;
use proptest::prelude::*;

const REF: f64 = 8.0;

/// Quantized components (multiples of 0.5 in `[0, 4]`) make coinciding
/// volumes — and therefore tie-breaks — common instead of measure-zero.
fn quantized_rv() -> impl Strategy<Value = ResourceVector> {
    (0u8..=8, 0u8..=8, 0u8..=8)
        .prop_map(|(a, b, c)| ResourceVector::new([a as f64 * 0.5, b as f64 * 0.5, c as f64 * 0.5]))
}

/// Continuous components in `[0, 4]` — the generic nonnegative-finite case.
fn continuous_rv() -> impl Strategy<Value = ResourceVector> {
    (0.0f64..4.0, 0.0f64..4.0, 0.0f64..4.0).prop_map(|(a, b, c)| ResourceVector::new([a, b, c]))
}

proptest! {
    #[test]
    fn index_equals_linear_scan_on_tie_heavy_fleets(
        pools in prop::collection::vec(quantized_rv(), 1..40),
        demands in prop::collection::vec(quantized_rv(), 1..8),
    ) {
        let reference = ResourceVector::splat(REF);
        let idx = VolumeIndex::new(&pools, &reference);
        for demand in &demands {
            prop_assert_eq!(
                idx.best_fit(&pools, demand, &reference),
                most_matched_vm(&pools, demand, &reference),
                "pools {:?} demand {:?}", pools, demand
            );
        }
    }

    #[test]
    fn index_equals_linear_scan_on_continuous_fleets(
        pools in prop::collection::vec(continuous_rv(), 1..40),
        demands in prop::collection::vec(continuous_rv(), 1..8),
    ) {
        let reference = ResourceVector::splat(REF);
        let idx = VolumeIndex::new(&pools, &reference);
        for demand in &demands {
            prop_assert_eq!(
                idx.best_fit(&pools, demand, &reference),
                most_matched_vm(&pools, demand, &reference),
            );
        }
    }

    #[test]
    fn index_equals_linear_scan_under_incremental_updates(
        mut pools in prop::collection::vec(quantized_rv(), 1..20),
        updates in prop::collection::vec((0usize..20, quantized_rv()), 1..60),
        demand in quantized_rv(),
    ) {
        let reference = ResourceVector::splat(REF);
        let mut idx = VolumeIndex::new(&pools, &reference);
        for (slot, pool) in updates {
            let i = slot % pools.len();
            pools[i] = pool;
            idx.update(i, &pools[i], &reference);
            prop_assert_eq!(
                idx.best_fit(&pools, &demand, &reference),
                most_matched_vm(&pools, &demand, &reference),
                "after updating vm {} to {:?}", i, pools[i]
            );
        }
    }

    /// Updates on fleets that span several of the index's blocks: volumes
    /// rising and falling, a VM moved onto another's exact key, a VM
    /// updated to its own key, and moves to the front (an empty pool) and
    /// the back (a pool larger than any quantized one). After every step
    /// the index equals a fresh rebuild and answers as the linear scan.
    #[test]
    fn updates_leave_the_index_a_fresh_rebuild_would_build(
        mut pools in prop::collection::vec(quantized_rv(), 1..700),
        steps in prop::collection::vec((0u8..6, 0usize..700, quantized_rv()), 1..60),
        demands in prop::collection::vec(quantized_rv(), 1..4),
    ) {
        let reference = ResourceVector::splat(REF);
        let mut idx = VolumeIndex::new(&pools, &reference);
        for (kind, vm, pool) in steps {
            let i = vm % pools.len();
            pools[i] = match kind {
                0 => pools[i],
                1 => ResourceVector::ZERO,
                2 => ResourceVector::splat(2.0 * REF),
                3 => pools[(i + 1) % pools.len()],
                4 => (pools[i] - pool).clamp_nonnegative(),
                _ => pools[i] + pool,
            };
            idx.update(i, &pools[i], &reference);
            prop_assert!(
                idx == VolumeIndex::new(&pools, &reference),
                "kind {} moved vm {} to {:?}", kind, i, pools[i]
            );
            for demand in &demands {
                prop_assert_eq!(
                    idx.best_fit(&pools, demand, &reference),
                    most_matched_vm(&pools, demand, &reference),
                );
            }
        }
    }
}
