//! Property-based bit-identity: the compiled streaming engine must
//! reproduce the reference `predict` path *exactly* — compared with
//! `f64::to_bits`, not an epsilon — across random configurations,
//! weights, normalizers and windows, including scratch reuse across
//! calls and the incremental `StreamHistory` window.

use pidpiper_ml::{LstmRegressor, PredictError, RegressorConfig, StreamHistory, WindowedDataset};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_rows(rng: &mut StdRng, n: usize, dim: usize, scale: f64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-scale..scale)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn predict_into_bit_identical_across_configs(
        input_dim in 1usize..6,
        output_dim in 1usize..4,
        hidden in 1usize..8,
        fc_width in 1usize..8,
        window in 1usize..8,
        seed in 0u64..10_000,
        fit_sel in 0u8..2,
    ) {
        let config = RegressorConfig { input_dim, output_dim, hidden, fc_width, window };
        let mut model = LstmRegressor::new(config, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        if fit_sel == 1 {
            // Real fitted statistics, so the normalize-once-on-ingest and
            // normalize-per-call paths see non-trivial means and stds.
            let inputs = random_rows(&mut rng, window + 20, input_dim, 50.0);
            let targets = random_rows(&mut rng, window + 20, output_dim, 10.0);
            let ds = WindowedDataset::from_series(&inputs, &targets, window);
            model.fit_normalizers(&ds);
        }
        let engine = model.compile();
        let mut scratch = engine.scratch();
        let mut out = vec![0.0; output_dim];
        // Several windows through ONE scratch: reuse must not leak state.
        for _ in 0..3 {
            let w = random_rows(&mut rng, window, input_dim, 20.0);
            let reference = model.predict(&w).expect("valid window");
            engine.predict_into(&w, &mut scratch, &mut out).expect("valid window");
            for (a, b) in out.iter().zip(&reference) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        // The same model streamed through a StreamHistory: the ring wraps
        // (more than 2 x window pushes), and at window 1 it stays empty.
        let mut history = StreamHistory::new(&engine);
        let mut live = engine.state();
        let raw = random_rows(&mut rng, 2 * window + 3, input_dim, 20.0);
        let mut normed = vec![vec![0.0; input_dim]; raw.len()];
        for k in 0..raw.len() {
            engine.normalize_into(&raw[k], &mut normed[k]).expect("dims");
            if history.is_full(&engine) {
                let reference = model.predict(&raw[k + 1 - window..=k]).expect("valid window");
                history
                    .predict(&engine, &normed[k], &mut live, &mut scratch, &mut out)
                    .expect("dims");
                for (a, b) in out.iter().zip(&reference) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            history.push(&engine, &normed[k]).expect("dims");
            history.replay(&engine, &mut scratch).expect("dims");
            let rows = (k + 1).min(window - 1);
            prop_assert_eq!(history.rows(), rows);
            for (i, want) in normed[k + 1 - rows..=k].iter().enumerate() {
                prop_assert_eq!(history.row(&engine, i), want.as_slice());
            }
        }
        prop_assert!(history.is_full(&engine));
    }

    #[test]
    fn both_paths_report_the_same_typed_errors(
        window in 2usize..8,
        extra in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let config = RegressorConfig { input_dim: 3, output_dim: 2, hidden: 4, fc_width: 4, window };
        let model = LstmRegressor::new(config, seed);
        let engine = model.compile();
        let mut scratch = engine.scratch();
        let mut out = vec![0.0; 2];

        let short = vec![vec![0.0; 3]; window - 1];
        let expected = Err(PredictError::WindowLength { got: window - 1, expected: window });
        prop_assert_eq!(model.predict(&short), expected.clone());
        prop_assert_eq!(engine.predict_into(&short, &mut scratch, &mut out), expected.map(|_: Vec<f64>| ()));

        let mut ragged = vec![vec![0.0; 3]; window];
        ragged[window / 2] = vec![0.0; 3 + extra];
        let expected = Err(PredictError::FeatureDim { step: window / 2, got: 3 + extra, expected: 3 });
        prop_assert_eq!(model.predict(&ragged), expected.clone());
        prop_assert_eq!(engine.predict_into(&ragged, &mut scratch, &mut out), expected.map(|_: Vec<f64>| ()));
    }
}
