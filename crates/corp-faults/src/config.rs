//! How much chaos to generate.

/// A chaos scenario: the seed, the horizon, and how hostile it is.
///
/// [`generate`](crate::generate) scales one fixed fault mix by
/// `intensity` (`0.0` = no faults, `1.0` = the baseline mix, `2.0` = twice
/// as hostile): expected counts grow linearly with it while window lengths
/// and magnitudes stay fixed, so sweeps vary *how often*, not *how bad*.
/// Counts are *expectations across the whole fleet over the horizon*, not
/// per-VM rates — intensity 1 draws about six crash windows regardless of
/// fleet size, so sweeps stay comparable across environments.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed controlling every draw in the schedule expansion.
    pub seed: u64,
    /// Number of slots the schedule spans; events land in `[1, horizon)`.
    pub horizon_slots: u64,
    /// Multiplier on every expected fault count (negative reads as 0).
    pub intensity: f64,
}

impl FaultConfig {
    /// The chaos scenario at `intensity` over a 400-slot horizon.
    pub fn scenario(seed: u64, intensity: f64) -> Self {
        Self {
            seed,
            horizon_slots: 400,
            intensity,
        }
    }

    /// A scenario at intensity zero:
    /// [`generate`](crate::schedule::generate) expands it to an empty
    /// schedule.
    pub fn disabled(seed: u64) -> Self {
        Self::scenario(seed, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, FaultEvent, PoisonKind};

    #[test]
    fn intensity_scales_counts_not_magnitudes() {
        let one = generate(&FaultConfig::scenario(7, 1.0), 64, 4);
        let two = generate(&FaultConfig::scenario(7, 2.0), 64, 4);
        // Whole expected counts need no coin flip: 4 kills and 6 drops at
        // intensity 1, twice that at 2.
        assert_eq!(one.control.kills.len(), 4);
        assert_eq!(two.control.kills.len(), 8);
        assert_eq!(
            two.control.drop_requests.len(),
            2 * one.control.drop_requests.len()
        );
        for schedule in [&one, &two] {
            for e in schedule.timeline.events() {
                match e.event {
                    FaultEvent::PoisonViews {
                        kind: PoisonKind::Spike(scale),
                        ..
                    } => assert_eq!(scale, 50.0),
                    FaultEvent::VmDegrade { factor, .. } => {
                        assert!((0.3..=0.8).contains(&factor), "factor {factor}")
                    }
                    _ => {}
                }
            }
        }
        assert!(generate(&FaultConfig::disabled(7), 64, 4).is_empty());
    }
}
