//! Property-based tests for the HMM substrate.

use corp_hmm::{
    baum_welch, forward_scaled, log_likelihood, state_posteriors, viterbi, FluctuationPredictor,
    FluctuationSymbol, Hmm, HmmScratch, SpreadQuantizer,
};
use proptest::prelude::*;

/// Strategy: a random valid HMM with `h` states and `m` symbols.
fn arb_hmm(h: usize, m: usize) -> impl Strategy<Value = Hmm> {
    let row = |n: usize| {
        prop::collection::vec(0.05f64..1.0, n).prop_map(|mut r| {
            let s: f64 = r.iter().sum();
            r.iter_mut().for_each(|p| *p /= s);
            r
        })
    };
    (
        prop::collection::vec(row(h), h),
        prop::collection::vec(row(m), h),
        row(h),
    )
        .prop_map(|(a, b, pi)| Hmm::new(a, b, pi))
}

fn arb_obs(m: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..m, 1..64)
}

proptest! {
    #[test]
    fn alpha_rows_normalized((hmm, obs) in (arb_hmm(3, 3), arb_obs(3))) {
        let fwd = forward_scaled(&hmm, &obs);
        for row in &fwd.alpha {
            prop_assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn log_likelihood_is_nonpositive((hmm, obs) in (arb_hmm(3, 3), arb_obs(3))) {
        let fwd = forward_scaled(&hmm, &obs);
        prop_assert!(log_likelihood(&fwd.scale) <= 1e-9);
    }

    #[test]
    fn posteriors_rows_are_distributions((hmm, obs) in (arb_hmm(2, 4), arb_obs(4))) {
        for row in state_posteriors(&hmm, &obs) {
            prop_assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn viterbi_path_probability_at_most_total((hmm, obs) in (arb_hmm(3, 3), arb_obs(3))) {
        // P(Q*, O) <= P(O) always.
        let v = viterbi(&hmm, &obs);
        let fwd = forward_scaled(&hmm, &obs);
        prop_assert!(v.log_prob <= log_likelihood(&fwd.scale) + 1e-9);
        prop_assert_eq!(v.states.len(), obs.len());
    }

    #[test]
    fn viterbi_states_in_range((hmm, obs) in (arb_hmm(3, 3), arb_obs(3))) {
        let v = viterbi(&hmm, &obs);
        prop_assert!(v.states.iter().all(|&s| s < 3));
    }

    #[test]
    fn baum_welch_monotone_and_valid(
        (mut hmm, obs) in (arb_hmm(3, 3), prop::collection::vec(0usize..3, 16..128)),
    ) {
        let report = baum_welch(&mut hmm, &obs, 15, 1e-12);
        for w in report.log_likelihoods.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-6, "EM decreased: {} -> {}", w[0], w[1]);
        }
        for row in hmm.a.iter().chain(hmm.b.iter()) {
            prop_assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-6);
            prop_assert!(row.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn quantizer_total_over_bands(history in prop::collection::vec(0.0f64..100.0, 2..64), d in 0.0f64..200.0) {
        let q = SpreadQuantizer::from_history(&history);
        // Classification is total and consistent with thresholds.
        let s = q.classify(d);
        match s {
            FluctuationSymbol::Valley => prop_assert!(d <= q.low + 1e-12),
            FluctuationSymbol::Center => prop_assert!(d > q.low && d < q.high),
            FluctuationSymbol::Peak => prop_assert!(d >= q.high - 1e-12),
        }
    }

    #[test]
    fn quantizer_thresholds_ordered(history in prop::collection::vec(0.0f64..100.0, 2..64)) {
        let q = SpreadQuantizer::from_history(&history);
        prop_assert!(q.hist_min <= q.hist_mean + 1e-12);
        prop_assert!(q.hist_mean <= q.hist_max + 1e-12);
        prop_assert!(q.low <= q.high + 1e-12);
    }

    #[test]
    fn correction_magnitude_bounded_by_half_range(recent in prop::collection::vec(0.0f64..100.0, 2..64)) {
        let mag = FluctuationPredictor::correction_magnitude(&recent);
        let range = corp_stats::max(&recent) - corp_stats::min(&recent);
        prop_assert!(mag >= 0.0);
        prop_assert!(mag <= range / 2.0 + 1e-9, "min(h-m, m-l) <= range/2");
    }

    #[test]
    fn adjust_never_negative(
        u_hat in -10.0f64..100.0,
        recent in prop::collection::vec(0.0f64..50.0, 2..40),
    ) {
        let mut p = FluctuationPredictor::new(4);
        let _ = p.fit(&recent);
        prop_assert!(p.adjust(u_hat, &recent) >= 0.0);
    }

    #[test]
    fn hmm_scratch_reuse_matches_fresh_init(
        u_hats in prop::collection::vec(-5.0f64..60.0, 1..8),
        recent in prop::collection::vec(0.0f64..50.0, 2..40),
    ) {
        // The pool runtime reuses one HmmScratch across every window a
        // worker serves; corrections through a long-lived scratch must be
        // bit-identical both to a fresh scratch and to the allocating
        // `adjust` path.
        let mut p = FluctuationPredictor::new(4);
        let _ = p.fit(&recent);
        let mut reused = HmmScratch::new();
        for &u in &u_hats {
            let with_reused = p.adjust_with(u, &recent, &mut reused);
            let fresh = p.adjust_with(u, &recent, &mut HmmScratch::new());
            let allocating = p.adjust(u, &recent);
            prop_assert_eq!(with_reused.to_bits(), fresh.to_bits());
            prop_assert_eq!(with_reused.to_bits(), allocating.to_bits());
        }
    }
}
