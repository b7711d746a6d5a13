//! Property-based tests for the DNN substrate.

use corp_dnn::{
    Activation, LaneScratch, Matrix, Network, PredictBatchScratch, PredictScratch, Scratch,
    TrainConfig, UnusedResourcePredictor, WindowPredictorConfig,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn matrix_mul_vec_is_linear(
        rows in 1usize..6, cols in 1usize..6,
        seed in 0u64..1000, a in -3.0f64..3.0, b in -3.0f64..3.0,
    ) {
        // M(a*x + b*y) == a*Mx + b*My
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let m = Matrix::from_fn(rows, cols, |_, _| next());
        let x: Vec<f64> = (0..cols).map(|_| next()).collect();
        let y: Vec<f64> = (0..cols).map(|_| next()).collect();
        let combo: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| a * xi + b * yi).collect();
        let mut out_combo = vec![0.0; rows];
        m.mul_vec_into(&combo, &mut out_combo);
        let mut out_x = vec![0.0; rows];
        m.mul_vec_into(&x, &mut out_x);
        let mut out_y = vec![0.0; rows];
        m.mul_vec_into(&y, &mut out_y);
        for i in 0..rows {
            let expect = a * out_x[i] + b * out_y[i];
            prop_assert!((out_combo[i] - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn sigmoid_output_in_unit_interval(x in -50.0f64..50.0) {
        // At |x| >= ~37 the sigmoid saturates to exactly 0.0/1.0 in f64,
        // so the bound is closed.
        let y = Activation::Sigmoid.apply(x);
        prop_assert!((0.0..=1.0).contains(&y));
    }

    #[test]
    fn sigmoid_is_monotone(x1 in -20.0f64..20.0, x2 in -20.0f64..20.0) {
        prop_assume!(x1 < x2);
        prop_assert!(Activation::Sigmoid.apply(x1) < Activation::Sigmoid.apply(x2));
    }

    #[test]
    fn forward_is_deterministic(seed in 0u64..500, input in prop::collection::vec(-2.0f64..2.0, 3)) {
        let mut n1 = Network::new(&[3, 5, 2], Activation::Sigmoid, Activation::Identity, seed);
        let mut n2 = Network::new(&[3, 5, 2], Activation::Sigmoid, Activation::Identity, seed);
        prop_assert_eq!(n1.forward(&input).to_vec(), n2.forward(&input).to_vec());
    }

    #[test]
    fn forward_outputs_finite(seed in 0u64..500, input in prop::collection::vec(-10.0f64..10.0, 4)) {
        let mut n = Network::new(&[4, 8, 8, 1], Activation::Sigmoid, Activation::Identity, seed);
        let out = n.forward(&input);
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn single_sgd_step_reduces_example_error(
        seed in 0u64..200,
        input in prop::collection::vec(-1.0f64..1.0, 3),
        target in -1.0f64..1.0,
    ) {
        // For a small learning rate, one gradient step must not increase
        // the error on the very example it was computed from.
        let mut n = Network::new(&[3, 6, 1], Activation::Sigmoid, Activation::Identity, seed);
        let before = {
            let y = n.forward(&input)[0];
            (y - target) * (y - target)
        };
        n.train_on(&input, &[target], 0.01, 0.0);
        let after = {
            let y = n.forward(&input)[0];
            (y - target) * (y - target)
        };
        prop_assert!(after <= before + 1e-9, "error rose: {before} -> {after}");
    }

    #[test]
    fn predictor_never_negative(
        recent in prop::collection::vec(0.0f64..100.0, 1..12),
    ) {
        let mut p = UnusedResourcePredictor::new(WindowPredictorConfig {
            window: 4,
            horizon: 1,
            units: 6,
            hidden_layers: 1,
            ..WindowPredictorConfig::default()
        });
        prop_assert!(p.predict(&recent) >= 0.0);
    }

    #[test]
    fn predict_scratch_reuse_matches_fresh_init(
        serieses in prop::collection::vec(
            prop::collection::vec(0.0f64..100.0, 1..14),
            1..6,
        ),
        level in 1.0f64..50.0,
    ) {
        // The pool runtime reuses one PredictScratch across every window a
        // worker serves; predictions through a long-lived scratch must be
        // bit-identical to predictions through a fresh one. Train so the
        // DNN path (and its activation buffers) is actually exercised.
        let mut p = UnusedResourcePredictor::new(WindowPredictorConfig {
            window: 4,
            horizon: 1,
            units: 5,
            hidden_layers: 1,
            train: TrainConfig { max_epochs: 3, ..TrainConfig::default() },
            ..WindowPredictorConfig::default()
        });
        let histories: Vec<Vec<f64>> = (0..4)
            .map(|j| (0..12).map(|t| level + ((t + j) % 3) as f64).collect())
            .collect();
        p.fit(&histories);
        let mut reused = PredictScratch::new();
        for s in &serieses {
            let with_reused = p.predict_with(s, &mut reused);
            let fresh = p.predict_with(s, &mut PredictScratch::new());
            prop_assert_eq!(with_reused.to_bits(), fresh.to_bits());
        }
    }
}

// Lane identity: the batched inference path must reproduce the one-sample
// path bit for bit in every lane, whatever the architecture and the lane
// count. Fewer cases than the default: each one runs up to 130 lanes
// through up to four 70-wide layers twice.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_forward_lanes_equal_forward_with(
        inputs in 1usize..=16,
        // 1-4 hidden layers, widths on and off the kernel's 4- and 8-blocks.
        hidden in prop::collection::vec(1usize..=70, 1..=4),
        outputs in 1usize..=3,
        lanes in 1usize..=130,
        seed in 0u64..1000,
    ) {
        let mut sizes = vec![inputs];
        sizes.extend(&hidden);
        sizes.push(outputs);
        let net = Network::new(&sizes, Activation::Sigmoid, Activation::Identity, seed);
        let mut s = seed;
        let x = Matrix::from_fn(inputs, lanes, |_, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        });
        let mut batch = LaneScratch::new();
        let mut single = Scratch::new();
        let y = net.forward_batch_with(&x, &mut batch);
        prop_assert_eq!((y.rows(), y.cols()), (outputs, lanes));
        for b in 0..lanes {
            let col: Vec<f64> = (0..inputs).map(|k| x.get(k, b)).collect();
            let want = net.forward_with(&col, &mut single);
            for (i, w) in want.iter().enumerate() {
                prop_assert_eq!(y.get(i, b).to_bits(), w.to_bits(), "lane {} output {}", b, i);
            }
        }
    }

    #[test]
    fn predict_batch_lanes_equal_predict_with(
        // Histories shorter than, equal to and longer than the window (4);
        // zeros are drawn often enough that all-zero windows occur.
        serieses in prop::collection::vec(
            prop::collection::vec((0u8..4, 0.0f64..100.0), 1..10),
            1..80,
        ),
        trained in 0u8..2,
        level in 1.0f64..50.0,
    ) {
        let mut p = UnusedResourcePredictor::new(WindowPredictorConfig {
            window: 4,
            horizon: 1,
            units: 5,
            hidden_layers: 2,
            train: TrainConfig { max_epochs: 3, ..TrainConfig::default() },
            ..WindowPredictorConfig::default()
        });
        if trained == 1 {
            let histories: Vec<Vec<f64>> = (0..4)
                .map(|j| (0..12).map(|t| level + ((t + j) % 3) as f64).collect())
                .collect();
            p.fit(&histories);
        }
        prop_assert_eq!(p.is_trained(), trained == 1);
        let mut flat = Vec::new();
        let mut lanes = Vec::new();
        for (i, series) in serieses.iter().enumerate() {
            let start = flat.len();
            // Every fifth series is all zeros; elsewhere a quarter of the
            // samples are.
            flat.extend(series.iter().map(|&(z, v)| if z == 0 || i % 5 == 4 { 0.0 } else { v }));
            lanes.push(start..flat.len());
        }
        let mut out = vec![f64::NAN; lanes.len()];
        let mut batch = PredictBatchScratch::new();
        let mut single = PredictScratch::new();
        // One scratch throughout: a narrower batch must not see the wider
        // one's buffers, and one lane and no lanes are batches too.
        for n in [lanes.len(), lanes.len().div_ceil(2), 1, 0] {
            p.predict_batch_with(&flat, &lanes[..n], &mut out[..n], &mut batch);
            for (lane, o) in lanes[..n].iter().zip(&out) {
                let want = p.predict_with(&flat[lane.clone()], &mut single);
                prop_assert_eq!(o.to_bits(), want.to_bits(), "lane {:?}", lane);
            }
        }
    }
}
