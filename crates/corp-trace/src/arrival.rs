//! Bursty job arrivals.
//!
//! The paper varies the number of submitted jobs (`n_t` per slot, 50–300
//! total) but does not fix an arrival law. The
//! [`WorkloadGenerator`](crate::WorkloadGenerator) submits on its own
//! Poisson clock; [`BurstyArrivals`] is the other shape short-lived cloud
//! queries arrive in — correlated bursts (flash crowds) — so a provisioner
//! can be stressed under bursty submission
//! ([`generate_one`](crate::WorkloadGenerator::generate_one) takes the
//! slot).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bursty arrivals: jobs arrive in clusters of geometric size separated by
/// longer quiet gaps — a flash-crowd model for IoT/online query floods.
#[derive(Debug)]
pub struct BurstyArrivals {
    /// Mean number of jobs per burst (geometric).
    mean_burst_size: f64,
    /// Mean quiet gap between bursts, in slots.
    mean_gap_slots: f64,
    rng: StdRng,
}

impl BurstyArrivals {
    /// Creates a bursty process.
    ///
    /// # Panics
    ///
    /// Panics if either mean is not positive.
    pub fn new(mean_burst_size: f64, mean_gap_slots: f64, seed: u64) -> Self {
        assert!(
            mean_burst_size >= 1.0,
            "bursts must average at least one job"
        );
        assert!(mean_gap_slots > 0.0, "gap must be positive");
        BurstyArrivals {
            mean_burst_size,
            mean_gap_slots,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Returns the arrival slots for `n` jobs, non-decreasing.
    pub fn arrivals(&mut self, n: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        let mut t = 0u64;
        let p = 1.0 / self.mean_burst_size;
        while out.len() < n {
            // Geometric burst size with success probability p.
            let mut burst = 1;
            while self.rng.gen_range(0.0..1.0) > p {
                burst += 1;
            }
            for _ in 0..burst {
                if out.len() == n {
                    break;
                }
                out.push(t);
            }
            let u: f64 = self.rng.gen_range(1e-12..1.0);
            t += (-self.mean_gap_slots * u.ln()).ceil() as u64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursty_arrivals_cluster() {
        let mut b = BurstyArrivals::new(8.0, 50.0, 3);
        let a = b.arrivals(400);
        assert_eq!(a.len(), 400);
        // Many identical (same-slot) arrivals is the burst signature.
        let same_slot_pairs = a.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(
            same_slot_pairs > 200,
            "expected heavy clustering, got {same_slot_pairs} same-slot pairs"
        );
    }

    #[test]
    fn bursty_arrivals_nondecreasing() {
        let mut b = BurstyArrivals::new(4.0, 10.0, 4);
        let a = b.arrivals(300);
        for w in a.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    #[should_panic]
    fn bursty_rejects_empty_bursts() {
        BurstyArrivals::new(0.5, 1.0, 1);
    }
}
