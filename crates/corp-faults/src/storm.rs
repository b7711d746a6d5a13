//! Seeded arrival-storm plans: deterministic bursts of demand.
//!
//! Control-plane chaos ([`crate::ControlFaultPlan`]) breaks the *supply*
//! side of the serving path; a resilience experiment also needs the
//! *demand* side to misbehave. A [`StormPlan`] is a set of
//! non-overlapping slot windows inside which arrival times are compressed
//! toward the window start — many jobs that would have trickled in over
//! `len` slots all land within `len / factor` slots, the classic
//! thundering-herd shape that fills admission queues and trips brownout
//! ladders.
//!
//! Like every other schedule in this crate, a plan is pure data expanded
//! from a seed: the same seed and horizon always yield the same windows,
//! and [`StormPlan::compress`] is a pure, monotone slot mapping — applying
//! it to an arrival-ordered trace keeps the trace arrival-ordered, which
//! the serve daemon's lazy arrival feed relies on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Storm windows [`StormPlan::generate`] draws (overlapping candidates
/// are skipped, so the realized count may be lower).
const BURSTS: usize = 3;
/// Inclusive range of window lengths in slots.
const BURST_LEN: (u64, u64) = (8, 16);
/// Arrival-time compression inside a window: a factor of 4 packs a
/// window's arrivals into its first quarter.
const COMPRESSION: u64 = 4;

/// One storm window: arrivals in `[start, start + len)` are compressed
/// toward `start` by `factor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormWindow {
    /// First slot of the window.
    pub start: u64,
    /// Window length in slots.
    pub len: u64,
    /// Compression factor (≥ 1).
    pub factor: u64,
}

/// A fully expanded storm plan: sorted, non-overlapping windows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StormPlan {
    /// Start-ordered, pairwise disjoint windows.
    pub windows: Vec<StormWindow>,
}

impl StormPlan {
    /// The storm mix over `[0, horizon_slots)`: up to three 8–16 slot
    /// windows, arrivals packed 4× tighter. A pure function of its
    /// arguments: the same seed and horizon yield the same windows.
    pub fn generate(seed: u64, horizon_slots: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let horizon = horizon_slots.max(1);
        let (lo, hi) = BURST_LEN;
        let mut windows: Vec<StormWindow> = Vec::new();
        for _ in 0..BURSTS {
            let len = rng.gen_range(lo..=hi);
            let start = rng.gen_range(0..horizon);
            let stop = start.saturating_add(len);
            if windows
                .iter()
                .any(|w| start < w.start + w.len && w.start < stop)
            {
                continue;
            }
            windows.push(StormWindow {
                start,
                len,
                factor: COMPRESSION,
            });
        }
        windows.sort_by_key(|w| w.start);
        StormPlan { windows }
    }

    /// Maps one arrival slot through the plan. Inside a window the offset
    /// from the window start is divided by the window's factor; outside,
    /// slots pass through unchanged. The mapping is monotone
    /// non-decreasing, so sorted arrival sequences stay sorted.
    pub fn compress(&self, slot: u64) -> u64 {
        for w in &self.windows {
            if slot >= w.start && slot < w.start + w.len {
                return w.start + (slot - w.start) / w.factor.max(1);
            }
        }
        slot
    }

    /// True when no storm is scheduled.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_disjoint() {
        let a = StormPlan::generate(11, 100);
        let b = StormPlan::generate(11, 100);
        assert_eq!(a, b, "same seed and horizon must expand to the same plan");
        assert!(!a.is_empty());
        for pair in a.windows.windows(2) {
            assert!(
                pair[0].start + pair[0].len <= pair[1].start,
                "windows overlap: {pair:?}"
            );
        }
    }

    #[test]
    fn compression_is_monotone_and_identity_outside_windows() {
        let plan = StormPlan {
            windows: vec![StormWindow {
                start: 10,
                len: 8,
                factor: 4,
            }],
        };
        assert_eq!(plan.compress(9), 9);
        assert_eq!(plan.compress(10), 10);
        assert_eq!(plan.compress(13), 10, "offset 3 / factor 4 = 0");
        assert_eq!(plan.compress(17), 11, "offset 7 / factor 4 = 1");
        assert_eq!(plan.compress(18), 18, "past the window: untouched");
        let mut prev = 0;
        for slot in 0..40 {
            let mapped = plan.compress(slot);
            assert!(mapped >= prev, "mapping must be monotone at slot {slot}");
            prev = mapped;
        }
    }

    #[test]
    fn zero_factor_is_clamped() {
        let plan = StormPlan {
            windows: vec![StormWindow {
                start: 0,
                len: 4,
                factor: 0,
            }],
        };
        assert_eq!(plan.compress(3), 3, "factor clamps to 1 (identity)");
    }
}
