//! Time-series helpers shared by the workload generator and the HMM
//! fluctuation quantizer.
//!
//! The paper's HMM observation symbols are built from the *spread*
//! `Delta_j` — the difference between the maximum and minimum unused
//! resource inside each inter-observation window. These helpers compute
//! those spreads.

/// Spread (max - min) of one window of values. Returns 0.0 for windows with
/// fewer than two samples: a single sample cannot fluctuate.
pub fn window_spread(window: &[f64]) -> f64 {
    if window.len() < 2 {
        return 0.0;
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in window {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    hi - lo
}

/// Splits `series` into consecutive windows of `window_len` samples and
/// returns the spread `Delta_j` of each (the trailing partial window is
/// included when it has at least two samples).
///
/// # Panics
///
/// Panics if `window_len == 0`.
pub fn fluctuation_spreads(series: &[f64], window_len: usize) -> Vec<f64> {
    assert!(window_len > 0, "window length must be positive");
    series
        .chunks(window_len)
        .filter(|c| c.len() >= 2)
        .map(window_spread)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_of_constant_window_is_zero() {
        assert_eq!(window_spread(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn spread_is_max_minus_min() {
        assert_eq!(window_spread(&[1.0, 5.0, 2.0]), 4.0);
    }

    #[test]
    fn spread_of_short_window_is_zero() {
        assert_eq!(window_spread(&[7.0]), 0.0);
        assert_eq!(window_spread(&[]), 0.0);
    }

    #[test]
    fn fluctuation_spreads_chunks_correctly() {
        let series = [0.0, 4.0, 1.0, 1.0, 10.0, 0.0];
        let spreads = fluctuation_spreads(&series, 2);
        assert_eq!(spreads, vec![4.0, 0.0, 10.0]);
    }

    #[test]
    fn fluctuation_spreads_skips_singleton_tail() {
        let series = [0.0, 4.0, 9.0];
        let spreads = fluctuation_spreads(&series, 2);
        assert_eq!(spreads, vec![4.0]);
    }

    #[test]
    #[should_panic]
    fn spreads_reject_zero_window() {
        fluctuation_spreads(&[1.0, 2.0], 0);
    }
}
