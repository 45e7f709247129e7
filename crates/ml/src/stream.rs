//! Zero-allocation streaming inference for [`LstmRegressor`].
//!
//! [`LstmRegressor::predict`] is the reference path: it allocates fresh
//! `Vec`s for every normalized row, every gate, and every dense layer of
//! every call. That is fine for training-time evaluation but not for the
//! FFC hot path, which runs inside every control tick. This module
//! provides the deployment path:
//!
//! - [`StreamingRegressor`] — a compiled form of the network whose four
//!   LSTM gate matmuls are fused into one contiguous row-major
//!   `[4*hidden x (input+hidden)]` block per layer (one cache-friendly
//!   sweep per step instead of two strided ones);
//! - [`InferenceScratch`] — caller-owned preallocated working buffers;
//! - [`StreamState`] — the `(h, c)` pair of both LSTM layers, exposed so
//!   callers can checkpoint a partially-consumed window (the FFC caches
//!   the state after its history rows and replays only the live row each
//!   tick);
//! - [`StreamHistory`] — one vehicle's streaming window: the normalized
//!   history ring, its prefix [`StreamState`], replay and the live
//!   prediction, shared by the FFC and every fleet session;
//! - [`StreamingRegressor::predict_into`] — a whole-window entry point
//!   that is **bit-identical** to [`LstmRegressor::predict`] and performs
//!   zero heap allocation after the scratch has been built.
//!
//! Bit-identity is load-bearing: the fused rows store `[w_row | u_row]`
//! contiguously but the dot products are still accumulated in two
//! separate passes (`(b + w·x) + u·h`), preserving the exact f64
//! operation order of `Param::matvec_into` as called by the reference
//! path. Tests in this module and `crates/ml/tests` compare outputs with
//! `f64::to_bits`, not an epsilon.

use crate::dense::Dense;
use crate::lstm::LstmLayer;
use crate::network::{LstmRegressor, RegressorConfig};
use crate::normalize::Normalizer;
use std::fmt;

/// The logistic gate activation, shared by every inference path.
///
/// Delegates to [`pidpiper_math::activations::fast_sigmoid`]: a
/// branch-free body the compiler can vectorize inside the batched panel
/// loops. Scalar streaming, batched, and training forward passes must
/// all call this same function — see the activations module docs for
/// the bit-identity argument.
#[inline]
pub(crate) fn sigmoid(z: f64) -> f64 {
    pidpiper_math::activations::fast_sigmoid(z)
}

/// The hyperbolic-tangent activation, shared by every inference path
/// (same contract as [`sigmoid`]).
#[inline]
pub(crate) fn tanh(z: f64) -> f64 {
    pidpiper_math::activations::fast_tanh(z)
}

/// Typed error for malformed inference inputs.
///
/// Replaces the panicking window-length `assert_eq!` the reference
/// `predict` used to carry: deployed controllers hold their previous
/// output on `Err` instead of crashing the autopilot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictError {
    /// The window holds the wrong number of timesteps.
    WindowLength {
        /// Number of rows supplied.
        got: usize,
        /// `RegressorConfig::window`.
        expected: usize,
    },
    /// One feature row has the wrong dimension.
    FeatureDim {
        /// Index of the offending row within the window.
        step: usize,
        /// Length of that row.
        got: usize,
        /// `RegressorConfig::input_dim`.
        expected: usize,
    },
    /// The caller-provided output slice has the wrong length.
    OutputLength {
        /// Length of the supplied output slice.
        got: usize,
        /// `RegressorConfig::output_dim`.
        expected: usize,
    },
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::WindowLength { got, expected } => {
                write!(f, "window length mismatch: got {got}, expected {expected}")
            }
            PredictError::FeatureDim {
                step,
                got,
                expected,
            } => write!(
                f,
                "feature dimension mismatch at step {step}: got {got}, expected {expected}"
            ),
            PredictError::OutputLength { got, expected } => {
                write!(f, "output length mismatch: got {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for PredictError {}

/// One LSTM layer with the four gate matmuls fused into a single
/// contiguous row-major block.
///
/// Row `r` of `rows` is `[w_row(r) | u_row(r)]` of length
/// `input + hidden`; the gate order is the layer's stacked `[i; f; o; g]`.
#[derive(Debug, Clone)]
pub(crate) struct FusedLstm {
    pub(crate) input: usize,
    pub(crate) hidden: usize,
    /// `4*hidden` fused rows, each `input + hidden` long.
    pub(crate) rows: Vec<f64>,
    /// Gate biases (`4*hidden`).
    pub(crate) bias: Vec<f64>,
}

impl FusedLstm {
    fn from_layer(layer: &LstmLayer) -> Self {
        let input = layer.input_dim();
        let hidden = layer.hidden_dim();
        let stride = input + hidden;
        let mut rows = vec![0.0; 4 * hidden * stride];
        for r in 0..4 * hidden {
            let dst = &mut rows[r * stride..(r + 1) * stride];
            dst[..input].copy_from_slice(&layer.w.value[r * input..(r + 1) * input]);
            dst[input..].copy_from_slice(&layer.u.value[r * hidden..(r + 1) * hidden]);
        }
        FusedLstm {
            input,
            hidden,
            rows,
            bias: layer.b.value.clone(),
        }
    }

    /// One cell update, in place. `pre` must hold at least `4*hidden`
    /// slots. The accumulation order — `(bias + w·x) + u·h`, each dot
    /// product summed left to right into its own accumulator — mirrors
    /// `Param::matvec_into` exactly; changing it breaks bit-identity with
    /// the reference path.
    fn step(&self, x: &[f64], h: &mut [f64], c: &mut [f64], pre: &mut [f64]) {
        let hd = self.hidden;
        let stride = self.input + hd;
        debug_assert_eq!(x.len(), self.input);
        debug_assert_eq!(h.len(), hd);
        debug_assert_eq!(c.len(), hd);
        let pre = &mut pre[..4 * hd];
        for r in 0..4 * hd {
            let row = &self.rows[r * stride..(r + 1) * stride];
            let (wx, uh) = row.split_at(self.input);
            let mut acc = 0.0;
            for (w, xi) in wx.iter().zip(x) {
                acc += w * xi;
            }
            let mut z = self.bias[r] + acc;
            let mut acc = 0.0;
            for (w, hi) in uh.iter().zip(h.iter()) {
                acc += w * hi;
            }
            z += acc;
            pre[r] = z;
        }
        for j in 0..hd {
            pre[j] = sigmoid(pre[j]);
            pre[hd + j] = sigmoid(pre[hd + j]);
            pre[2 * hd + j] = sigmoid(pre[2 * hd + j]);
            pre[3 * hd + j] = tanh(pre[3 * hd + j]);
        }
        for j in 0..hd {
            let cj = pre[hd + j] * c[j] + pre[j] * pre[3 * hd + j];
            c[j] = cj;
            h[j] = pre[2 * hd + j] * tanh(cj);
        }
    }
}

/// Hidden/cell state of both LSTM layers at some point in a window.
///
/// Separate from [`InferenceScratch`] so callers can keep *several*
/// states per engine (the FFC checkpoints the state after its history
/// rows and copies it into a working state each tick) while sharing one
/// scratch.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamState {
    pub(crate) h1: Vec<f64>,
    pub(crate) c1: Vec<f64>,
    pub(crate) h2: Vec<f64>,
    pub(crate) c2: Vec<f64>,
}

impl StreamState {
    fn zeros(hidden: usize) -> Self {
        StreamState {
            h1: vec![0.0; hidden],
            c1: vec![0.0; hidden],
            h2: vec![0.0; hidden],
            c2: vec![0.0; hidden],
        }
    }

    /// Resets to the zero state (start of a window).
    pub fn reset(&mut self) {
        for v in [&mut self.h1, &mut self.c1, &mut self.h2, &mut self.c2] {
            v.fill(0.0);
        }
    }

    /// Overwrites this state with `other` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the states belong to differently-sized engines.
    pub fn copy_from(&mut self, other: &StreamState) {
        self.h1.copy_from_slice(&other.h1);
        self.c1.copy_from_slice(&other.c1);
        self.h2.copy_from_slice(&other.h2);
        self.c2.copy_from_slice(&other.c2);
    }

    /// Heap bytes held by this state: the four hidden-sized `f64`
    /// vectors (`4 * hidden * 8`). Used by fleet capacity planning.
    pub fn resident_bytes(&self) -> usize {
        (self.h1.len() + self.c1.len() + self.h2.len() + self.c2.len()) * std::mem::size_of::<f64>()
    }
}

/// One vehicle's streaming window: the last `window - 1` *normalized*
/// history rows in a flat ring, the prefix [`StreamState`] after them,
/// and the live prediction over one more row.
///
/// The FFC and every fleet session keep their window in this type, so
/// the ring layout, replay order and live step exist once. Methods that
/// need a shape take the engine: nothing caches a dimension or capacity.
/// The ring grows by `extend` into capacity reserved by
/// [`StreamHistory::new`] and never reallocates, clones included.
#[derive(Debug)]
pub struct StreamHistory {
    /// Up to `window - 1` normalized rows of `input_dim`.
    ring: Vec<f64>,
    /// Rows held (`<= window - 1`).
    rows: usize,
    /// Slot of the oldest row (nonzero only once the ring is full).
    head: usize,
    /// State after the ring's rows, oldest to newest, as of the last
    /// [`StreamHistory::replay`].
    prefix: StreamState,
}

impl Clone for StreamHistory {
    /// Keeps the ring's reserved capacity: a derived clone would reserve
    /// only the rows held, so a clone of a fresh window (every mission's
    /// FFC starts as one) would reallocate while it warms up.
    fn clone(&self) -> Self {
        let mut ring = Vec::with_capacity(self.ring.capacity());
        ring.extend_from_slice(&self.ring);
        StreamHistory {
            ring,
            rows: self.rows,
            head: self.head,
            prefix: self.prefix.clone(),
        }
    }
}

impl StreamHistory {
    /// An empty window for `engine`, its ring capacity reserved.
    pub fn new(engine: &StreamingRegressor) -> Self {
        let c = engine.config();
        StreamHistory {
            ring: Vec::with_capacity(c.window.saturating_sub(1) * c.input_dim),
            rows: 0,
            head: 0,
            prefix: engine.state(),
        }
    }

    /// Rows currently in the ring.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the ring holds all `window - 1` rows (always at window 1).
    #[inline]
    pub fn is_full(&self, engine: &StreamingRegressor) -> bool {
        self.rows == engine.config().window.saturating_sub(1)
    }

    /// The `i`-th oldest row. Panics if `i >= rows()`.
    #[inline]
    pub fn row(&self, engine: &StreamingRegressor, i: usize) -> &[f64] {
        let dim = engine.config().input_dim;
        let slot = (self.head + i) % self.rows;
        &self.ring[slot * dim..(slot + 1) * dim]
    }

    /// Appends a normalized row, evicting the oldest once full; a no-op
    /// at window 1. The prefix is left for [`StreamHistory::replay`].
    ///
    /// # Errors
    ///
    /// [`PredictError::FeatureDim`], ring untouched, on a wrong-length row.
    pub fn push(&mut self, engine: &StreamingRegressor, row: &[f64]) -> Result<(), PredictError> {
        let c = engine.config();
        if row.len() != c.input_dim {
            return Err(PredictError::FeatureDim {
                step: 0,
                got: row.len(),
                expected: c.input_dim,
            });
        }
        let cap = c.window.saturating_sub(1);
        if self.rows < cap {
            self.ring.extend_from_slice(row);
            self.rows += 1;
        } else if cap > 0 {
            let at = self.head * c.input_dim;
            self.ring[at..at + c.input_dim].copy_from_slice(row);
            self.head = (self.head + 1) % cap;
        }
        Ok(())
    }

    /// Recomputes the prefix: the ring's rows, oldest to newest, stepped
    /// from the zero state.
    ///
    /// # Errors
    ///
    /// Stops at the first row that fails to step and returns its error.
    pub fn replay(
        &mut self,
        engine: &StreamingRegressor,
        scratch: &mut InferenceScratch,
    ) -> Result<(), PredictError> {
        let dim = engine.config().input_dim;
        self.prefix.reset();
        for i in 0..self.rows {
            let slot = (self.head + i) % self.rows;
            let row = &self.ring[slot * dim..(slot + 1) * dim];
            engine.step_normed(row, &mut self.prefix, scratch)?;
        }
        Ok(())
    }

    /// The live prediction, allocation-free: copies the prefix into
    /// `live`, steps the normalized present row, runs the dense head into
    /// `out`.
    ///
    /// # Errors
    ///
    /// A [`PredictError`] if `x_normed` or `out` has the wrong length.
    pub fn predict(
        &self,
        engine: &StreamingRegressor,
        x_normed: &[f64],
        live: &mut StreamState,
        scratch: &mut InferenceScratch,
        out: &mut [f64],
    ) -> Result<(), PredictError> {
        live.copy_from(&self.prefix);
        engine.step_normed(x_normed, live, scratch)?;
        engine.finish_into(live, scratch, out)
    }

    /// The prefix checkpoint.
    #[inline]
    pub fn prefix(&self) -> &StreamState {
        &self.prefix
    }

    /// Mutable prefix, for callers that replay in batches.
    #[inline]
    pub fn prefix_mut(&mut self) -> &mut StreamState {
        &mut self.prefix
    }

    /// Empties the ring (keeping its capacity) and zeroes the prefix.
    pub fn reset(&mut self) {
        self.ring.clear();
        self.rows = 0;
        self.head = 0;
        self.prefix.reset();
    }
}

/// Preallocated working buffers for one [`StreamingRegressor`].
///
/// Build once via [`StreamingRegressor::scratch`], reuse for every call;
/// no inference entry point allocates after this exists. A scratch is
/// engine-shaped, not call-shaped: one scratch serves any number of
/// interleaved states/windows of the same engine.
#[derive(Debug, Clone)]
pub struct InferenceScratch {
    /// Window-start state used by [`StreamingRegressor::predict_into`].
    state: StreamState,
    /// One normalized input row (`input_dim`).
    normed: Vec<f64>,
    /// Gate pre-activations (`4*hidden`), shared by both layers.
    pre: Vec<f64>,
    /// Dense ping buffer (`fc_width`).
    fc_a: Vec<f64>,
    /// Dense pong buffer (`fc_width`).
    fc_b: Vec<f64>,
    /// Normalized output (`output_dim`).
    z: Vec<f64>,
}

impl InferenceScratch {
    fn for_config(config: &RegressorConfig) -> Self {
        InferenceScratch {
            state: StreamState::zeros(config.hidden),
            normed: vec![0.0; config.input_dim],
            pre: vec![0.0; 4 * config.hidden],
            fc_a: vec![0.0; config.fc_width],
            fc_b: vec![0.0; config.fc_width],
            z: vec![0.0; config.output_dim],
        }
    }
}

/// The compiled, allocation-free deployment form of an [`LstmRegressor`].
///
/// Obtain via [`LstmRegressor::compile`]. The compiled engine snapshots
/// the network's weights; recompile after further training.
///
/// # Examples
///
/// ```
/// use pidpiper_ml::{LstmRegressor, RegressorConfig};
///
/// let model = LstmRegressor::new(RegressorConfig::tiny(2, 1), 7);
/// let engine = model.compile();
/// let window = vec![vec![0.1, -0.2]; engine.config().window];
/// let mut scratch = engine.scratch();
/// let mut out = [0.0];
/// engine.predict_into(&window, &mut scratch, &mut out).expect("valid window");
/// let reference = model.predict(&window).expect("valid window");
/// assert_eq!(out[0].to_bits(), reference[0].to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct StreamingRegressor {
    pub(crate) config: RegressorConfig,
    pub(crate) lstm1: FusedLstm,
    pub(crate) lstm2: FusedLstm,
    pub(crate) fc_sigmoid: Dense,
    pub(crate) fc_prelu1: Dense,
    pub(crate) fc_prelu2: Dense,
    pub(crate) head: Dense,
    pub(crate) normalizer: Normalizer,
    pub(crate) target_normalizer: Normalizer,
}

impl StreamingRegressor {
    /// Compiles a trained network. Equivalent to
    /// [`LstmRegressor::compile`].
    pub fn compile(model: &LstmRegressor) -> Self {
        let (lstm1, lstm2) = model.lstm_layers();
        let (fc_sigmoid, fc_prelu1, fc_prelu2, head) = model.dense_stack();
        StreamingRegressor {
            config: *model.config(),
            lstm1: FusedLstm::from_layer(lstm1),
            lstm2: FusedLstm::from_layer(lstm2),
            fc_sigmoid: fc_sigmoid.clone(),
            fc_prelu1: fc_prelu1.clone(),
            fc_prelu2: fc_prelu2.clone(),
            head: head.clone(),
            normalizer: model.normalizer().clone(),
            target_normalizer: model.target_normalizer().clone(),
        }
    }

    /// The compiled network's configuration.
    pub fn config(&self) -> &RegressorConfig {
        &self.config
    }

    /// A fresh zero [`StreamState`] sized for this engine.
    pub fn state(&self) -> StreamState {
        StreamState::zeros(self.config.hidden)
    }

    /// A fresh [`InferenceScratch`] sized for this engine.
    pub fn scratch(&self) -> InferenceScratch {
        InferenceScratch::for_config(&self.config)
    }

    /// Bytes a long-lived session must keep *resident between ticks* to
    /// stream this engine: one [`StreamHistory`] (`4 * hidden` prefix
    /// f64s plus `(window - 1) * input_dim` ring f64s).
    ///
    /// Engine weights and the [`InferenceScratch`] are shared across any
    /// number of sessions and are deliberately excluded — this is the
    /// marginal cost of one more session, the number fleet capacity
    /// planning multiplies by the session count (see `OPERATIONS.md`).
    pub fn session_state_bytes(&self) -> usize {
        let h = StreamHistory::new(self);
        h.ring.capacity() * std::mem::size_of::<f64>() + h.prefix.resident_bytes()
    }

    /// Standardizes one raw feature row into `out` without allocating.
    /// Bit-identical to `Normalizer::transform`.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::FeatureDim`] / [`PredictError::OutputLength`]
    /// on a length mismatch.
    pub fn normalize_into(&self, raw: &[f64], out: &mut [f64]) -> Result<(), PredictError> {
        if raw.len() != self.config.input_dim {
            return Err(PredictError::FeatureDim {
                step: 0,
                got: raw.len(),
                expected: self.config.input_dim,
            });
        }
        if out.len() != self.config.input_dim {
            return Err(PredictError::OutputLength {
                got: out.len(),
                expected: self.config.input_dim,
            });
        }
        self.normalizer.transform_into(raw, out);
        Ok(())
    }

    /// Advances `state` by one *already-normalized* input row.
    ///
    /// This is the incremental entry point: feeding `window` rows one by
    /// one from a reset state and then calling
    /// [`StreamingRegressor::finish_into`] is bit-identical to
    /// [`StreamingRegressor::predict_into`] over the same rows.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::FeatureDim`] if the row has the wrong
    /// length.
    pub fn step_normed(
        &self,
        x_normed: &[f64],
        state: &mut StreamState,
        scratch: &mut InferenceScratch,
    ) -> Result<(), PredictError> {
        if x_normed.len() != self.config.input_dim {
            return Err(PredictError::FeatureDim {
                step: 0,
                got: x_normed.len(),
                expected: self.config.input_dim,
            });
        }
        self.step_raw(x_normed, state, &mut scratch.pre);
        Ok(())
    }

    /// Runs the dense stack from `state` and writes the de-normalized
    /// prediction into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::OutputLength`] if `out` has the wrong
    /// length.
    pub fn finish_into(
        &self,
        state: &StreamState,
        scratch: &mut InferenceScratch,
        out: &mut [f64],
    ) -> Result<(), PredictError> {
        if out.len() != self.config.output_dim {
            return Err(PredictError::OutputLength {
                got: out.len(),
                expected: self.config.output_dim,
            });
        }
        let InferenceScratch { fc_a, fc_b, z, .. } = scratch;
        self.finish_raw(state, fc_a, fc_b, z, out);
        Ok(())
    }

    /// Predicts from a raw (unnormalized) window of exactly
    /// `config.window` rows, writing the de-normalized output into `out`.
    ///
    /// Bit-identical to [`LstmRegressor::predict`] on the same window and
    /// allocation-free given a prebuilt scratch.
    ///
    /// # Errors
    ///
    /// Returns a [`PredictError`] describing the first malformed input
    /// dimension; `out` is left unspecified on error.
    pub fn predict_into(
        &self,
        window: &[Vec<f64>],
        scratch: &mut InferenceScratch,
        out: &mut [f64],
    ) -> Result<(), PredictError> {
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
        if out.len() != self.config.output_dim {
            return Err(PredictError::OutputLength {
                got: out.len(),
                expected: self.config.output_dim,
            });
        }
        let InferenceScratch {
            state,
            normed,
            pre,
            fc_a,
            fc_b,
            z,
        } = scratch;
        state.reset();
        for row in window {
            self.normalizer.transform_into(row, normed);
            self.step_raw(normed, state, pre);
        }
        self.finish_raw(state, fc_a, fc_b, z, out);
        Ok(())
    }

    /// Core LSTM double-step: layer 1 consumes `x`, layer 2 consumes the
    /// *updated* `h1` — the same ordering as the reference loop.
    fn step_raw(&self, x: &[f64], state: &mut StreamState, pre: &mut [f64]) {
        let StreamState { h1, c1, h2, c2 } = state;
        self.lstm1.step(x, h1, c1, pre);
        self.lstm2.step(h1, h2, c2, pre);
    }

    /// Dense stack + de-normalization, ping-ponging between the two fc
    /// buffers so no layer reads and writes the same slice.
    fn finish_raw(
        &self,
        state: &StreamState,
        fc_a: &mut [f64],
        fc_b: &mut [f64],
        z: &mut [f64],
        out: &mut [f64],
    ) {
        self.fc_sigmoid.infer_into(&state.h2, fc_a);
        self.fc_prelu1.infer_into(fc_a, fc_b);
        self.fc_prelu2.infer_into(fc_b, fc_a);
        self.head.infer_into(fc_a, z);
        self.target_normalizer.inverse_into(z, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::WindowedDataset;

    fn trained_tiny() -> LstmRegressor {
        let config = RegressorConfig::tiny(2, 1);
        let inputs: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![((i as f64) * 0.37).sin(), ((i as f64) * 0.11).cos()])
            .collect();
        let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![x[0] + 0.5 * x[1]]).collect();
        let ds = WindowedDataset::from_series(&inputs, &targets, config.window);
        let mut model = LstmRegressor::new(config, 13);
        model.fit_normalizers(&ds);
        model.train(&ds, 2, 0.02, 5);
        model
    }

    fn window_for(model: &LstmRegressor, salt: f64) -> Vec<Vec<f64>> {
        let c = model.config();
        (0..c.window)
            .map(|t| {
                (0..c.input_dim)
                    .map(|j| ((t * 7 + j) as f64 * 0.31 + salt).sin() * 3.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn predict_into_bit_identical_to_predict() {
        let model = trained_tiny();
        let engine = model.compile();
        let mut scratch = engine.scratch();
        let mut out = vec![0.0; model.config().output_dim];
        for salt in [0.0, 1.3, -2.7] {
            let w = window_for(&model, salt);
            let reference = model.predict(&w).expect("valid window");
            engine
                .predict_into(&w, &mut scratch, &mut out)
                .expect("valid window");
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "bit mismatch: {a} vs {b}");
            }
        }
    }

    #[test]
    fn scratch_reuse_carries_no_state() {
        let model = trained_tiny();
        let engine = model.compile();
        let mut scratch = engine.scratch();
        let w = window_for(&model, 0.4);
        let mut first = vec![0.0; 1];
        let mut second = vec![0.0; 1];
        engine
            .predict_into(&w, &mut scratch, &mut first)
            .expect("valid");
        // A different window in between must not leak into the repeat.
        let other = window_for(&model, 9.9);
        engine
            .predict_into(&other, &mut scratch, &mut second)
            .expect("valid");
        engine
            .predict_into(&w, &mut scratch, &mut second)
            .expect("valid");
        assert_eq!(first[0].to_bits(), second[0].to_bits());
    }

    #[test]
    fn incremental_steps_match_whole_window() {
        let model = trained_tiny();
        let engine = model.compile();
        let mut scratch = engine.scratch();
        let w = window_for(&model, 2.2);
        let mut whole = vec![0.0; 1];
        engine
            .predict_into(&w, &mut scratch, &mut whole)
            .expect("valid");

        let mut state = engine.state();
        let mut normed = vec![0.0; engine.config().input_dim];
        for row in &w {
            engine.normalize_into(row, &mut normed).expect("dims");
            engine
                .step_normed(&normed, &mut state, &mut scratch)
                .expect("dims");
        }
        let mut inc = vec![0.0; 1];
        engine
            .finish_into(&state, &mut scratch, &mut inc)
            .expect("dims");
        assert_eq!(whole[0].to_bits(), inc[0].to_bits());
    }

    #[test]
    fn typed_errors_for_malformed_inputs() {
        let model = LstmRegressor::new(RegressorConfig::tiny(2, 1), 0);
        let engine = model.compile();
        let mut scratch = engine.scratch();
        let mut out = vec![0.0; 1];
        assert_eq!(
            engine.predict_into(&[vec![0.0, 0.0]], &mut scratch, &mut out),
            Err(PredictError::WindowLength {
                got: 1,
                expected: 5
            })
        );
        let mut bad_row = vec![vec![0.0, 0.0]; 5];
        bad_row[3] = vec![0.0];
        assert_eq!(
            engine.predict_into(&bad_row, &mut scratch, &mut out),
            Err(PredictError::FeatureDim {
                step: 3,
                got: 1,
                expected: 2
            })
        );
        let good = vec![vec![0.0, 0.0]; 5];
        let mut bad_out = vec![0.0; 3];
        assert_eq!(
            engine.predict_into(&good, &mut scratch, &mut bad_out),
            Err(PredictError::OutputLength {
                got: 3,
                expected: 1
            })
        );
        // The reference path reports the same typed errors.
        assert_eq!(
            model.predict(&[vec![0.0, 0.0]]),
            Err(PredictError::WindowLength {
                got: 1,
                expected: 5
            })
        );
    }

    #[test]
    fn session_state_sizing_matches_config() {
        let model = LstmRegressor::new(RegressorConfig::tiny(2, 1), 0);
        let engine = model.compile();
        let c = *engine.config();
        // tiny: hidden 6, window 5, input 2.
        let expected_state = 4 * c.hidden * 8;
        let expected_ring = (c.window - 1) * c.input_dim * 8;
        assert_eq!(engine.session_state_bytes(), expected_state + expected_ring);
        assert_eq!(engine.state().resident_bytes(), expected_state);
    }

    #[test]
    fn history_clone_keeps_reserved_ring() {
        let engine = LstmRegressor::new(RegressorConfig::tiny(2, 1), 0).compile();
        let c = *engine.config();
        let mut h = StreamHistory::new(&engine).clone();
        let ring = h.ring.as_ptr();
        for _ in 0..c.window {
            h.push(&engine, &[0.5, -0.5]).expect("dims");
        }
        assert_eq!(h.ring.capacity(), (c.window - 1) * c.input_dim);
        assert_eq!(h.ring.as_ptr(), ring, "warm-up reallocated the ring");
    }

    #[test]
    fn state_copy_and_reset_round_trip() {
        let model = trained_tiny();
        let engine = model.compile();
        let mut scratch = engine.scratch();
        let mut state = engine.state();
        let mut normed = vec![0.0; 2];
        engine
            .normalize_into(&[1.0, -1.0], &mut normed)
            .expect("dims");
        engine
            .step_normed(&normed, &mut state, &mut scratch)
            .expect("dims");
        let mut copy = engine.state();
        copy.copy_from(&state);
        assert_eq!(copy, state);
        state.reset();
        assert_eq!(state, engine.state());
        assert_ne!(copy, state);
    }
}
