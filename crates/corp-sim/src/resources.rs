//! Multi-resource vectors.
//!
//! Every capacity, allocation, and demand in the simulator is an
//! [`ResourceVector`] over the paper's `l = 3` resource types (CPU, MEM,
//! storage). The paper weights the overall utilization 0.4/0.4/0.2
//! ("storage is not the bottleneck resource"), exposed as
//! [`RESOURCE_WEIGHTS`].

use corp_trace::NUM_RESOURCES;
use std::ops::{Add, AddAssign, Index, IndexMut, Sub, SubAssign};

/// The paper's overall-utilization weights for CPU, MEM, storage (Fig. 8:
/// "we set the weights for CPU, MEM and storage as 0.4, 0.4 and 0.2").
pub const RESOURCE_WEIGHTS: [f64; NUM_RESOURCES] = [0.4, 0.4, 0.2];

/// Round-off an amount may exceed its pool by and still fit.
const EPS: f64 = 1e-9;

/// Whether amount `a` fits a pool of `b`: the one definition of "fits",
/// shared by [`ResourceVector::fits_within`] and [`FreeLanes::fits`].
#[inline(always)]
fn fits(a: f64, b: f64) -> bool {
    a <= b + EPS
}

/// VMs per [`FreeLanes`] chunk.
pub const LANES: usize = 8;

/// The free pools of [`LANES`] VMs in structure-of-arrays form, one row per
/// resource, so a request is tested against all of them in one branch-free
/// pass. Lanes past the end of a fleet hold NaN, which no amount fits,
/// not even `-∞`.
#[derive(Debug, Clone, Copy)]
pub struct FreeLanes([[f64; LANES]; NUM_RESOURCES]);

impl FreeLanes {
    /// Transposes up to [`LANES`] pools; missing lanes are padding.
    pub fn new(pools: impl Iterator<Item = ResourceVector>) -> Self {
        let mut lanes = [[f64::NAN; LANES]; NUM_RESOURCES];
        for (lane, pool) in pools.take(LANES).enumerate() {
            for (row, amount) in lanes.iter_mut().zip(pool.0) {
                row[lane] = amount;
            }
        }
        FreeLanes(lanes)
    }

    /// Bit `i` is set iff `request` fits lane `i`, by
    /// [`fits_within`](ResourceVector::fits_within)'s rule.
    #[inline]
    pub fn fits(&self, request: &ResourceVector) -> u32 {
        let mut all = [true; LANES];
        for (row, &amount) in self.0.iter().zip(&request.0) {
            for (fit, &pool) in all.iter_mut().zip(row) {
                *fit &= fits(amount, pool);
            }
        }
        all.iter()
            .enumerate()
            .fold(0, |mask, (lane, &fit)| mask | u32::from(fit) << lane)
    }

    /// Commits `request` out of lane `lane`.
    #[inline]
    pub(crate) fn take(&mut self, lane: usize, request: &ResourceVector) {
        for (row, amount) in self.0.iter_mut().zip(request.0) {
            row[lane] -= amount;
        }
    }

    /// Overwrites lane `lane` with `pool`.
    #[inline]
    pub fn set(&mut self, lane: usize, pool: &ResourceVector) {
        for (row, amount) in self.0.iter_mut().zip(pool.0) {
            row[lane] = amount;
        }
    }
}

/// A vector of amounts over the managed resource types.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVector(pub [f64; NUM_RESOURCES]);

impl ResourceVector {
    /// The zero vector.
    pub const ZERO: ResourceVector = ResourceVector([0.0; NUM_RESOURCES]);

    /// Constructs from per-resource amounts.
    pub fn new(amounts: [f64; NUM_RESOURCES]) -> Self {
        ResourceVector(amounts)
    }

    /// All components equal to `v`.
    pub fn splat(v: f64) -> Self {
        ResourceVector([v; NUM_RESOURCES])
    }

    /// Raw component array.
    pub fn as_array(&self) -> &[f64; NUM_RESOURCES] {
        &self.0
    }

    /// True iff every component of `self` is `<= other + eps`.
    pub fn fits_within(&self, other: &ResourceVector) -> bool {
        // `&`, not `&&`: three compares cost less than the mispredicted
        // exits of a scan over pools that mostly almost fit.
        let components = self.0.iter().zip(&other.0);
        components.fold(true, |all, (a, b)| all & fits(*a, *b))
    }

    /// True iff every component is (numerically) non-negative.
    pub fn is_nonnegative(&self) -> bool {
        self.0.iter().all(|&v| v >= -1e-9)
    }

    /// True iff every component is finite (neither NaN nor infinite).
    /// Non-finite vectors must never enter commitment arithmetic: NaN
    /// poisons every comparison downstream of it.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }

    /// Component-wise max with zero (clamp small negative round-off).
    pub fn clamp_nonnegative(mut self) -> Self {
        for v in &mut self.0 {
            *v = v.max(0.0);
        }
        self
    }

    /// Component-wise minimum.
    pub fn min(&self, other: &ResourceVector) -> ResourceVector {
        let mut out = [0.0; NUM_RESOURCES];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(&other.0)) {
            *o = a.min(*b);
        }
        ResourceVector(out)
    }

    /// Component-wise subtraction clamped at zero (`a - b` where negative
    /// components become 0).
    pub fn saturating_sub(&self, other: &ResourceVector) -> ResourceVector {
        let mut out = [0.0; NUM_RESOURCES];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(&other.0)) {
            *o = (a - b).max(0.0);
        }
        ResourceVector(out)
    }

    /// Scales every component.
    pub fn scaled(&self, s: f64) -> ResourceVector {
        let mut out = self.0;
        for v in &mut out {
            *v *= s;
        }
        ResourceVector(out)
    }

    /// The paper's *unused resource volume* (Eq. 22): `sum_k amount_k /
    /// C'_k`, where `C'` is the per-resource maximum capacity among all
    /// VMs. Components with zero reference capacity contribute nothing.
    pub fn volume(&self, reference: &ResourceVector) -> f64 {
        self.0
            .iter()
            .zip(&reference.0)
            .map(|(a, c)| if *c > 0.0 { a / c } else { 0.0 })
            .sum()
    }

    /// Weighted sum with the paper's resource weights (numerators and
    /// denominators of Eqs. 2 and 4).
    pub(crate) fn weighted_total(&self) -> f64 {
        self.0
            .iter()
            .zip(&RESOURCE_WEIGHTS)
            .map(|(a, w)| a * w)
            .sum()
    }

    /// Index of the largest component *relative to* `reference` — the
    /// dominant resource used by the packing strategy. Units differ across
    /// resource types (cores vs. GB), so dominance is judged on the
    /// capacity-normalized share, which is what makes the paper's Fig. 5
    /// arithmetic meaningful.
    pub fn dominant_index(&self, reference: &ResourceVector) -> usize {
        let mut best = 0;
        let mut best_v = f64::NEG_INFINITY;
        for (i, (a, c)) in self.0.iter().zip(&reference.0).enumerate() {
            let v = if *c > 0.0 { a / c } else { 0.0 };
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Smallest ratio `self_k / other_k` over components where
    /// `other_k > 0`; 1.0 if `other` is all-zero. Ratios are clamped into
    /// `[0, 1]`. This is the *adequacy* of an allocation `self` against a
    /// demand `other`: 1.0 means fully covered.
    pub fn coverage_of(&self, demand: &ResourceVector) -> f64 {
        let mut worst = 1.0f64;
        for (a, d) in self.0.iter().zip(&demand.0) {
            if *d > 0.0 {
                worst = worst.min((a / d).clamp(0.0, 1.0));
            }
        }
        worst
    }
}

impl Index<usize> for ResourceVector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for ResourceVector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    fn add(self, rhs: ResourceVector) -> ResourceVector {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(&rhs.0) {
            *o += r;
        }
        ResourceVector(out)
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        for (o, r) in self.0.iter_mut().zip(&rhs.0) {
            *o += r;
        }
    }
}

impl Sub for ResourceVector {
    type Output = ResourceVector;
    fn sub(self, rhs: ResourceVector) -> ResourceVector {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(&rhs.0) {
            *o -= r;
        }
        ResourceVector(out)
    }
}

impl SubAssign for ResourceVector {
    fn sub_assign(&mut self, rhs: ResourceVector) {
        for (o, r) in self.0.iter_mut().zip(&rhs.0) {
            *o -= r;
        }
    }
}

impl From<[f64; NUM_RESOURCES]> for ResourceVector {
    fn from(a: [f64; NUM_RESOURCES]) -> Self {
        ResourceVector(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one() {
        assert!((RESOURCE_WEIGHTS.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_is_componentwise() {
        let a = ResourceVector::new([1.0, 2.0, 3.0]);
        let b = ResourceVector::new([0.5, 0.5, 0.5]);
        assert_eq!((a + b).0, [1.5, 2.5, 3.5]);
        assert_eq!((a - b).0, [0.5, 1.5, 2.5]);
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn fits_within_respects_all_components() {
        let small = ResourceVector::new([1.0, 1.0, 1.0]);
        let big = ResourceVector::new([2.0, 2.0, 2.0]);
        assert!(small.fits_within(&big));
        assert!(!big.fits_within(&small));
        let mixed = ResourceVector::new([0.5, 3.0, 0.5]);
        assert!(
            !mixed.fits_within(&big),
            "one oversized component must fail"
        );
    }

    #[test]
    fn fits_within_tolerates_round_off() {
        let a = ResourceVector::new([1.0 + 1e-12, 1.0, 1.0]);
        assert!(a.fits_within(&ResourceVector::splat(1.0)));
    }

    #[test]
    fn saturating_sub_never_negative() {
        let a = ResourceVector::new([1.0, 5.0, 0.0]);
        let b = ResourceVector::new([2.0, 1.0, 1.0]);
        assert_eq!(a.saturating_sub(&b).0, [0.0, 4.0, 0.0]);
    }

    #[test]
    fn volume_matches_paper_example() {
        // Paper Fig. 5: C' = <25, 2, 30>; VM1 unused <5, 0, 20> -> 0.867.
        let c = ResourceVector::new([25.0, 2.0, 30.0]);
        let vm1 = ResourceVector::new([5.0, 0.0, 20.0]);
        let vm2 = ResourceVector::new([10.0, 1.0, 10.0]);
        let vm3 = ResourceVector::new([20.0, 2.0, 30.0]);
        let vm4 = ResourceVector::new([10.0, 1.0, 8.5]);
        assert!((vm1.volume(&c) - 0.8667).abs() < 1e-3);
        assert!((vm2.volume(&c) - 1.2333).abs() < 1e-3);
        assert!((vm3.volume(&c) - 2.8).abs() < 1e-9);
        assert!((vm4.volume(&c) - 1.1833).abs() < 1e-3);
    }

    #[test]
    fn volume_ignores_zero_reference_components() {
        let c = ResourceVector::new([10.0, 0.0, 10.0]);
        let v = ResourceVector::new([5.0, 99.0, 5.0]);
        assert!((v.volume(&c) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_total_uses_paper_weights() {
        let v = ResourceVector::new([1.0, 1.0, 1.0]);
        assert!((v.weighted_total() - 1.0).abs() < 1e-12);
        let cpu_only = ResourceVector::new([1.0, 0.0, 0.0]);
        assert!((cpu_only.weighted_total() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn dominant_index_is_capacity_normalized() {
        let cap = ResourceVector::new([4.0, 16.0, 180.0]);
        // 2 cores of 4 (50%) dominates 60 GB of 180 (33%).
        let demand = ResourceVector::new([2.0, 1.0, 60.0]);
        assert_eq!(demand.dominant_index(&cap), 0);
        let storage_heavy = ResourceVector::new([0.4, 1.0, 120.0]);
        assert_eq!(storage_heavy.dominant_index(&cap), 2);
    }

    #[test]
    fn coverage_of_full_allocation_is_one() {
        let alloc = ResourceVector::new([2.0, 2.0, 2.0]);
        let demand = ResourceVector::new([1.0, 2.0, 0.5]);
        assert_eq!(alloc.coverage_of(&demand), 1.0);
    }

    #[test]
    fn coverage_of_partial_allocation_is_worst_ratio() {
        let alloc = ResourceVector::new([1.0, 1.0, 1.0]);
        let demand = ResourceVector::new([2.0, 1.0, 4.0]);
        assert_eq!(alloc.coverage_of(&demand), 0.25);
    }

    #[test]
    fn coverage_of_zero_demand_is_one() {
        let alloc = ResourceVector::ZERO;
        assert_eq!(alloc.coverage_of(&ResourceVector::ZERO), 1.0);
    }

    #[test]
    fn is_finite_rejects_nan_and_infinity() {
        assert!(ResourceVector::new([1.0, 0.0, 3.0]).is_finite());
        assert!(!ResourceVector::new([1.0, f64::NAN, 3.0]).is_finite());
        assert!(!ResourceVector::new([f64::INFINITY, 0.0, 0.0]).is_finite());
        assert!(!ResourceVector::new([0.0, f64::NEG_INFINITY, 0.0]).is_finite());
    }

    #[test]
    fn min_and_clamp() {
        let a = ResourceVector::new([1.0, -0.5, 3.0]);
        assert_eq!(a.clamp_nonnegative().0, [1.0, 0.0, 3.0]);
        let b = ResourceVector::new([0.5, 2.0, 2.0]);
        assert_eq!(a.min(&b).0, [0.5, -0.5, 2.0]);
    }
}
