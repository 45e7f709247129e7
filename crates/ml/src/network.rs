//! The assembled regression network of the paper:
//! 2-layer stacked LSTM → sigmoid dense layer → 2 PReLU dense layers →
//! linear head. Sequence-to-one: a window of feature vectors in, one
//! actuator-signal prediction out.

use crate::adam::Adam;
use crate::dataset::WindowedDataset;
use crate::dense::{Activation, Dense};
use crate::lstm::{LstmLayer, LstmState};
use crate::normalize::Normalizer;
use crate::param::Param;
use crate::stream::{PredictError, StreamingRegressor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Network hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegressorConfig {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Output dimension (the actuator signal's channels).
    pub output_dim: usize,
    /// Hidden size of each LSTM layer.
    pub hidden: usize,
    /// Width of the sigmoid + PReLU fully connected layers.
    pub fc_width: usize,
    /// Input window length (timesteps).
    pub window: usize,
}

impl RegressorConfig {
    /// The configuration used by the experiments: hidden 24, FC width 24,
    /// 20-step windows.
    pub fn standard(input_dim: usize, output_dim: usize) -> Self {
        RegressorConfig {
            input_dim,
            output_dim,
            hidden: 24,
            fc_width: 24,
            window: 20,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny(input_dim: usize, output_dim: usize) -> Self {
        RegressorConfig {
            input_dim,
            output_dim,
            hidden: 6,
            fc_width: 6,
            window: 5,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn validate(&self) {
        assert!(self.input_dim > 0, "input_dim must be positive");
        assert!(self.output_dim > 0, "output_dim must be positive");
        assert!(self.hidden > 0, "hidden must be positive");
        assert!(self.fc_width > 0, "fc_width must be positive");
        assert!(self.window > 0, "window must be positive");
    }
}

/// Summary of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean squared error per epoch on the training samples.
    pub train_mse: Vec<f64>,
    /// Final training MSE.
    pub final_mse: f64,
    /// Number of samples trained on.
    pub samples: usize,
}

impl fmt::Display for TrainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trained on {} samples, {} epochs, final MSE {:.6}",
            self.samples,
            self.train_mse.len(),
            self.final_mse
        )
    }
}

/// The paper's FFC/FBC network.
///
/// # Examples
///
/// ```
/// use pidpiper_ml::{LstmRegressor, RegressorConfig, WindowedDataset};
///
/// // Learn y = sum of the last window of a 1-D series.
/// let inputs: Vec<Vec<f64>> = (0..200).map(|i| vec![((i as f64) * 0.1).sin()]).collect();
/// let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![x[0] * 2.0]).collect();
/// let config = RegressorConfig::tiny(1, 1);
/// let ds = WindowedDataset::from_series(&inputs, &targets, config.window);
/// let mut model = LstmRegressor::new(config, 42);
/// let report = model.train(&ds, 20, 0.01, 7);
/// assert!(report.final_mse < 0.1, "MSE {}", report.final_mse);
/// ```
#[derive(Debug, Clone)]
pub struct LstmRegressor {
    config: RegressorConfig,
    lstm1: LstmLayer,
    lstm2: LstmLayer,
    fc_sigmoid: Dense,
    fc_prelu1: Dense,
    fc_prelu2: Dense,
    head: Dense,
    normalizer: Normalizer,
    target_normalizer: Normalizer,
}

impl LstmRegressor {
    /// Creates a network with seeded Xavier initialization and identity
    /// normalizers (call [`LstmRegressor::fit_normalizers`] before
    /// training on raw physical units).
    pub fn new(config: RegressorConfig, seed: u64) -> Self {
        config.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        LstmRegressor {
            lstm1: LstmLayer::new(config.input_dim, config.hidden, &mut rng),
            lstm2: LstmLayer::new(config.hidden, config.hidden, &mut rng),
            fc_sigmoid: Dense::new(
                config.hidden,
                config.fc_width,
                Activation::Sigmoid,
                &mut rng,
            ),
            fc_prelu1: Dense::new(
                config.fc_width,
                config.fc_width,
                Activation::PRelu,
                &mut rng,
            ),
            fc_prelu2: Dense::new(
                config.fc_width,
                config.fc_width,
                Activation::PRelu,
                &mut rng,
            ),
            head: Dense::new(
                config.fc_width,
                config.output_dim,
                Activation::Linear,
                &mut rng,
            ),
            normalizer: Normalizer::identity(config.input_dim),
            target_normalizer: Normalizer::identity(config.output_dim),
            config,
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &RegressorConfig {
        &self.config
    }

    /// The fitted input normalizer.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// The fitted target normalizer.
    pub(crate) fn target_normalizer(&self) -> &Normalizer {
        &self.target_normalizer
    }

    /// Both LSTM layers, in stack order.
    pub(crate) fn lstm_layers(&self) -> (&LstmLayer, &LstmLayer) {
        (&self.lstm1, &self.lstm2)
    }

    /// The dense stack: sigmoid FC, both PReLU FCs, linear head.
    pub(crate) fn dense_stack(&self) -> (&Dense, &Dense, &Dense, &Dense) {
        (
            &self.fc_sigmoid,
            &self.fc_prelu1,
            &self.fc_prelu2,
            &self.head,
        )
    }

    /// Compiles the network into its allocation-free streaming form (see
    /// [`StreamingRegressor`]). The compiled engine snapshots the current
    /// weights; recompile after further training.
    pub fn compile(&self) -> StreamingRegressor {
        StreamingRegressor::compile(self)
    }

    /// Fits input/target normalizers on a dataset (raw physical units).
    pub fn fit_normalizers(&mut self, ds: &WindowedDataset) {
        let mut all_inputs = Vec::new();
        let mut all_targets = Vec::new();
        for s in ds.samples() {
            all_inputs.extend(s.window.iter().cloned());
            all_targets.push(s.target.clone());
        }
        if !all_inputs.is_empty() {
            self.normalizer = Normalizer::fit(&all_inputs);
            self.target_normalizer = Normalizer::fit(&all_targets);
        }
    }

    /// Forward pass through the full stack for one normalized window.
    /// Caches for backprop. Returns the normalized prediction.
    fn forward_train(&mut self, window: &[Vec<f64>]) -> Vec<f64> {
        let h1 = self.lstm1.forward_seq(window);
        let h2 = self.lstm2.forward_seq(&h1);
        // Dataset windows are never empty; an empty one maps to the zero
        // hidden state rather than a panic.
        let last = h2
            .last()
            .cloned()
            .unwrap_or_else(|| vec![0.0; self.config.hidden]);
        let s = self.fc_sigmoid.forward(&last);
        let p1 = self.fc_prelu1.forward(&s);
        let p2 = self.fc_prelu2.forward(&p1);
        self.head.forward(&p2)
    }

    /// Backward pass for the cached forward, with `dL/dy_hat`.
    fn backward_train(&mut self, dy: &[f64], window_len: usize) {
        let dp2 = self.head.backward(dy);
        let dp1 = self.fc_prelu2.backward(&dp2);
        let ds = self.fc_prelu1.backward(&dp1);
        let dlast = self.fc_sigmoid.backward(&ds);
        // Only the final timestep of lstm2 receives external gradient.
        let mut dh2 = vec![vec![0.0; self.config.hidden]; window_len];
        if let Some(slot) = dh2.last_mut() {
            *slot = dlast;
        }
        let dh1 = self.lstm2.backward_seq(&dh2);
        let _ = self.lstm1.backward_seq(&dh1);
    }

    fn zero_grads(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = Vec::new();
        ps.extend(self.lstm1.params_mut());
        ps.extend(self.lstm2.params_mut());
        ps.extend(self.fc_sigmoid.params_mut());
        ps.extend(self.fc_prelu1.params_mut());
        ps.extend(self.fc_prelu2.params_mut());
        ps.extend(self.head.params_mut());
        ps
    }

    /// Immutable parameter views, in the same order as `params_mut`.
    fn params(&self) -> Vec<&Param> {
        let mut ps = Vec::new();
        ps.extend(self.lstm1.params());
        ps.extend(self.lstm2.params());
        ps.extend(self.fc_sigmoid.params());
        ps.extend(self.fc_prelu1.params());
        ps.extend(self.fc_prelu2.params());
        ps.extend(self.head.params());
        ps
    }

    /// Trains with Adam on MSE loss. Normalizers must already be fitted
    /// (or left as identity deliberately). Mini-batch size 1 with gradient
    /// accumulation over `batch` samples.
    ///
    /// Returns a [`TrainReport`] with per-epoch training MSE.
    pub fn train(
        &mut self,
        ds: &WindowedDataset,
        epochs: usize,
        lr: f64,
        shuffle_seed: u64,
    ) -> TrainReport {
        assert_eq!(
            ds.window(),
            self.config.window,
            "dataset window must match network window"
        );
        let mut opt = Adam::new(lr);
        let batch = 8;
        let mut order: Vec<usize> = (0..ds.len()).collect();
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        let mut train_mse = Vec::with_capacity(epochs);

        // Pre-normalize every sample once.
        let norm_samples: Vec<(Vec<Vec<f64>>, Vec<f64>)> = ds
            .samples()
            .iter()
            .map(|s| {
                (
                    s.window
                        .iter()
                        .map(|x| self.normalizer.transform(x))
                        .collect(),
                    self.target_normalizer.transform(&s.target),
                )
            })
            .collect();

        for _epoch in 0..epochs {
            use rand::seq::SliceRandom;
            order.shuffle(&mut rng);
            let mut epoch_se = 0.0;
            let mut since_step = 0;
            self.zero_grads();
            for &idx in &order {
                let (window, target) = &norm_samples[idx];
                let y = self.forward_train(window);
                let dy: Vec<f64> = y
                    .iter()
                    .zip(target)
                    .map(|(yi, ti)| (yi - ti) / self.config.output_dim as f64)
                    .collect();
                epoch_se += y
                    .iter()
                    .zip(target)
                    .map(|(yi, ti)| (yi - ti) * (yi - ti))
                    .sum::<f64>()
                    / self.config.output_dim as f64;
                self.backward_train(&dy, window.len());
                since_step += 1;
                if since_step == batch {
                    opt.step(&mut self.params_mut());
                    self.zero_grads();
                    since_step = 0;
                }
            }
            if since_step > 0 {
                opt.step(&mut self.params_mut());
                self.zero_grads();
            }
            train_mse.push(epoch_se / ds.len().max(1) as f64);
        }
        TrainReport {
            final_mse: train_mse.last().copied().unwrap_or(f64::NAN),
            train_mse,
            samples: ds.len(),
        }
    }

    /// Predicts from a raw (unnormalized) window of exactly
    /// `config.window` feature vectors. Returns the de-normalized output.
    ///
    /// This is the allocating *reference* path; deployments compile the
    /// network with [`LstmRegressor::compile`] and use the bit-identical
    /// [`StreamingRegressor::predict_into`] instead.
    ///
    /// # Errors
    ///
    /// Returns a [`PredictError`] if the window length or any row's
    /// feature dimension differs from the configuration.
    pub fn predict(&self, window: &[Vec<f64>]) -> Result<Vec<f64>, PredictError> {
        if window.len() != self.config.window {
            return Err(PredictError::WindowLength {
                got: window.len(),
                expected: self.config.window,
            });
        }
        for (step, row) in window.iter().enumerate() {
            if row.len() != self.config.input_dim {
                return Err(PredictError::FeatureDim {
                    step,
                    got: row.len(),
                    expected: self.config.input_dim,
                });
            }
        }
        let normed: Vec<Vec<f64>> = window
            .iter()
            .map(|x| self.normalizer.transform(x))
            .collect();
        let mut s1 = LstmState::zeros(self.config.hidden);
        let mut s2 = LstmState::zeros(self.config.hidden);
        for x in &normed {
            s1 = self.lstm1.infer_step(x, &s1);
            s2 = self.lstm2.infer_step(&s1.h, &s2);
        }
        let s = self.fc_sigmoid.infer(&s2.h);
        let p1 = self.fc_prelu1.infer(&s);
        let p2 = self.fc_prelu2.infer(&p1);
        let z = self.head.infer(&p2);
        Ok(self.target_normalizer.inverse(&z))
    }

    /// Serializes the full model (config, normalizers, weights) into a
    /// plain-text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let c = &self.config;
        out.push_str(&format!(
            "pidpiper-lstm-regressor v1\n{} {} {} {} {}\n",
            c.input_dim, c.output_dim, c.hidden, c.fc_width, c.window
        ));
        let write_slice = |out: &mut String, xs: &[f64]| {
            let strs: Vec<String> = xs.iter().map(|v| format!("{v:e}")).collect();
            out.push_str(&strs.join(" "));
            out.push('\n');
        };
        write_slice(&mut out, self.normalizer.means());
        write_slice(&mut out, self.normalizer.stds());
        write_slice(&mut out, self.target_normalizer.means());
        write_slice(&mut out, self.target_normalizer.stds());
        for p in self.params() {
            write_slice(&mut out, &p.value);
        }
        out
    }

    /// Deserializes a model written by [`LstmRegressor::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a descriptive error string on any format violation.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty model text")?;
        if header != "pidpiper-lstm-regressor v1" {
            return Err(format!("unknown model header: {header}"));
        }
        let dims: Vec<usize> = lines
            .next()
            .ok_or("missing dimensions line")?
            .split_whitespace()
            .map(|t| t.parse().map_err(|e| format!("bad dimension: {e}")))
            .collect::<Result<_, _>>()?;
        if dims.len() != 5 {
            return Err(format!("expected 5 dimensions, got {}", dims.len()));
        }
        let config = RegressorConfig {
            input_dim: dims[0],
            output_dim: dims[1],
            hidden: dims[2],
            fc_width: dims[3],
            window: dims[4],
        };
        let mut parse_line = |what: &str| -> Result<Vec<f64>, String> {
            lines
                .next()
                .ok_or_else(|| format!("missing {what} line"))?
                .split_whitespace()
                .map(|t| t.parse().map_err(|e| format!("bad float in {what}: {e}")))
                .collect()
        };
        let in_mean = parse_line("input mean")?;
        let in_std = parse_line("input std")?;
        let t_mean = parse_line("target mean")?;
        let t_std = parse_line("target std")?;

        let mut model = LstmRegressor::new(config, 0);
        model.normalizer = Normalizer::from_stats(in_mean, in_std);
        model.target_normalizer = Normalizer::from_stats(t_mean, t_std);
        let expected: Vec<usize> = model.params().iter().map(|p| p.len()).collect();
        for (i, want) in expected.iter().enumerate() {
            let vals = parse_line(&format!("parameter {i}"))?;
            if vals.len() != *want {
                return Err(format!(
                    "parameter {i} has {} values, expected {want}",
                    vals.len()
                ));
            }
            model.params_mut()[i].value = vals;
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset(n: usize, window: usize) -> WindowedDataset {
        // Target depends on a temporal pattern: y = x(t) + 0.5 * x(t-2).
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![((i as f64) * 0.37).sin(), ((i as f64) * 0.11).cos()])
            .collect();
        let targets: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let now = inputs[i][0];
                let past = if i >= 2 { inputs[i - 2][0] } else { 0.0 };
                vec![now + 0.5 * past]
            })
            .collect();
        WindowedDataset::from_series(&inputs, &targets, window)
    }

    #[test]
    fn learns_temporal_pattern() {
        let config = RegressorConfig::tiny(2, 1);
        let ds = toy_dataset(300, config.window);
        let mut model = LstmRegressor::new(config, 3);
        model.fit_normalizers(&ds);
        let report = model.train(&ds, 30, 0.02, 5);
        assert!(
            report.final_mse < 0.05,
            "model failed to learn: MSE {}",
            report.final_mse
        );
        // Training loss broadly decreases.
        assert!(report.train_mse[0] > report.final_mse * 2.0);
    }

    #[test]
    fn predict_is_deterministic() {
        let config = RegressorConfig::tiny(2, 1);
        let ds = toy_dataset(100, config.window);
        let mut model = LstmRegressor::new(config, 3);
        model.fit_normalizers(&ds);
        model.train(&ds, 3, 0.02, 5);
        let w = ds.samples()[0].window.clone();
        assert_eq!(
            model.predict(&w).expect("valid window"),
            model.predict(&w).expect("valid window")
        );
    }

    #[test]
    fn serialization_round_trip() {
        let config = RegressorConfig::tiny(2, 1);
        let ds = toy_dataset(120, config.window);
        let mut model = LstmRegressor::new(config, 9);
        model.fit_normalizers(&ds);
        model.train(&ds, 3, 0.02, 1);
        let text = model.to_text();
        let restored = LstmRegressor::from_text(&text).expect("round trip");
        let w = ds.samples()[3].window.clone();
        let a = model.predict(&w).expect("valid window");
        let b = restored.predict(&w).expect("valid window");
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(LstmRegressor::from_text("").is_err());
        assert!(LstmRegressor::from_text("not a model\n1 2 3 4 5\n").is_err());
        let config = RegressorConfig::tiny(2, 1);
        let model = LstmRegressor::new(config, 0);
        let mut text = model.to_text();
        // Truncate the last parameter line.
        text = text.lines().take(8).collect::<Vec<_>>().join("\n");
        assert!(LstmRegressor::from_text(&text).is_err());
    }

    #[test]
    fn seeded_initialization_reproducible() {
        let config = RegressorConfig::tiny(3, 2);
        let a = LstmRegressor::new(config, 77);
        let b = LstmRegressor::new(config, 77);
        let w = vec![vec![0.1, 0.2, 0.3]; config.window];
        assert_eq!(
            a.predict(&w).expect("valid window"),
            b.predict(&w).expect("valid window")
        );
        let c = LstmRegressor::new(config, 78);
        assert_ne!(
            a.predict(&w).expect("valid window"),
            c.predict(&w).expect("valid window")
        );
    }

    #[test]
    fn wrong_window_length_rejected() {
        let config = RegressorConfig::tiny(1, 1);
        let model = LstmRegressor::new(config, 0);
        assert_eq!(
            model.predict(&[vec![0.0]]),
            Err(PredictError::WindowLength {
                got: 1,
                expected: config.window
            })
        );
        assert_eq!(
            model.predict(&vec![vec![0.0, 0.0]; config.window]),
            Err(PredictError::FeatureDim {
                step: 0,
                got: 2,
                expected: 1
            })
        );
    }
}
