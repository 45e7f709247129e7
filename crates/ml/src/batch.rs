//! Batched (multi-session) streaming inference for fleets that share a
//! model.
//!
//! [`crate::stream::StreamingRegressor`] is the per-session deployment
//! path: one matrix–vector product per gate block per tick. At fleet
//! scale thousands of sessions run the *same* weights, so every session
//! re-streams the whole weight matrix through the cache for a single
//! column of work. [`BatchedStreamingRegressor`] amortizes that: it
//! gathers up to `width` sessions' inputs and LSTM states into
//! struct-of-arrays *panels* (`panel[row * width + lane]`) and replaces N
//! matrix–vector passes with one cache-blocked matrix–matrix product per
//! gate block, built on the op-order-preserving kernels in
//! `pidpiper_math::gemm`.
//!
//! # Bit-identity
//!
//! The batched f64 path is `to_bits`-identical to the per-session
//! streaming path, by construction, for every lane: each lane's dot
//! products are summed in the same ascending-`k` order with the same
//! two-accumulator `(bias + w·x) + u·h` reduction, activations and cell
//! updates are elementwise with per-element expressions copied from
//! `FusedLstm::step` / `Dense::infer_into`, and the `k` dimension is
//! never split. `crates/ml/tests/batch_bit_identity.rs` gates this with
//! proptests; `exp_perf` re-gates it before every timing run.
//!
//! # Ragged batches and masked lanes
//!
//! Panels are allocated at capacity `width` but every entry point takes
//! the active lane count `n <= width`; lanes `n..width` are never read or
//! written. Callers with heterogeneous sessions (mid-window, decimation
//! phase skew, quarantine) simply pack the compatible subset and fall
//! back to the per-session path for the rest — see
//! `pidpiper-fleet::shard`, which groups sessions' [`crate::StreamHistory`]
//! windows by row count and replays each group through these kernels —
//! per lane the same op sequence as [`crate::StreamHistory::replay`].

use crate::dense::{Activation, Dense};
use crate::normalize::Normalizer;
use crate::stream::{FusedLstm, PredictError, StreamState, StreamingRegressor};
use pidpiper_math::activations;
use pidpiper_math::gemm;

/// Column-window width for wide batches: `step_batch`/`finish_batch`
/// process lanes in windows of this many columns so the per-window
/// pre-activation slab (`4 * hidden * COL_BLOCK` elements) stays
/// cache-resident regardless of the total batch width. Lanes are
/// independent, so windowing never changes per-lane op order.
const COL_BLOCK: usize = 64;

/// Caller-owned struct-of-arrays working panels for one
/// [`BatchedStreamingRegressor`].
///
/// Every panel stores `panel[row * width + lane]`: rows are feature /
/// hidden / gate indices, lanes are sessions. A scratch is allocated at a
/// fixed `width` (the batch capacity) and serves any active lane count
/// `n <= width`; the unused lanes are masked (never read or written).
/// One scratch is shard-resident and shared by every session the shard
/// ticks, so its footprint is amortized — see
/// `StreamingRegressor::session_state_bytes` and the fleet bench's
/// `bytes_per_session`.
#[derive(Debug, Clone)]
pub struct BatchScratch {
    width: usize,
    /// Normalized input rows (`input_dim x width`).
    x: Vec<f64>,
    h1: Vec<f64>,
    c1: Vec<f64>,
    h2: Vec<f64>,
    c2: Vec<f64>,
    /// Gate pre-activations (`4*hidden x width`), shared by both layers.
    pre: Vec<f64>,
    fc_a: Vec<f64>,
    fc_b: Vec<f64>,
    /// Normalized outputs (`output_dim x width`).
    z: Vec<f64>,
    /// De-normalized outputs (`output_dim x width`).
    out: Vec<f64>,
    /// One normalized row (`input_dim`), for the whole-window helpers.
    normed: Vec<f64>,
}

impl BatchScratch {
    /// The lane capacity this scratch was allocated for.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Heap bytes held by this scratch (all panels).
    pub fn resident_bytes(&self) -> usize {
        (self.x.len()
            + self.h1.len()
            + self.c1.len()
            + self.h2.len()
            + self.c2.len()
            + self.pre.len()
            + self.fc_a.len()
            + self.fc_b.len()
            + self.z.len()
            + self.out.len()
            + self.normed.len())
            * std::mem::size_of::<f64>()
    }

    /// Zeroes all LSTM state panels — every lane is then at the
    /// start-of-window state, like `StreamState::reset`.
    pub fn reset_states(&mut self) {
        for p in [&mut self.h1, &mut self.c1, &mut self.h2, &mut self.c2] {
            p.fill(0.0);
        }
    }

    /// Loads one *already-normalized* input row into `lane`'s column of
    /// the f64 input panel.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= width` or the row has the wrong dimension.
    pub fn load_row(&mut self, lane: usize, normed: &[f64]) {
        assert!(lane < self.width, "lane {lane} >= width {}", self.width);
        assert_eq!(normed.len() * self.width, self.x.len(), "row dimension mismatch");
        for (j, &v) in normed.iter().enumerate() {
            self.x[j * self.width + lane] = v;
        }
    }

    /// Loads a session's checkpoint state into `lane`'s columns of the
    /// f64 state panels (the batched analogue of `StreamState::copy_from`).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= width` or the state belongs to a
    /// differently-sized engine.
    pub fn load_state(&mut self, lane: usize, state: &StreamState) {
        assert!(lane < self.width, "lane {lane} >= width {}", self.width);
        assert_eq!(state.h1.len() * self.width, self.h1.len(), "state dimension mismatch");
        let w = self.width;
        for (j, &v) in state.h1.iter().enumerate() {
            self.h1[j * w + lane] = v;
        }
        for (j, &v) in state.c1.iter().enumerate() {
            self.c1[j * w + lane] = v;
        }
        for (j, &v) in state.h2.iter().enumerate() {
            self.h2[j * w + lane] = v;
        }
        for (j, &v) in state.c2.iter().enumerate() {
            self.c2[j * w + lane] = v;
        }
    }

    /// Scatters `lane`'s columns of the f64 state panels back into a
    /// per-session [`StreamState`].
    ///
    /// # Panics
    ///
    /// Panics if `lane >= width` or the state belongs to a
    /// differently-sized engine.
    pub fn store_state(&self, lane: usize, state: &mut StreamState) {
        assert!(lane < self.width, "lane {lane} >= width {}", self.width);
        assert_eq!(state.h1.len() * self.width, self.h1.len(), "state dimension mismatch");
        let w = self.width;
        for (j, v) in state.h1.iter_mut().enumerate() {
            *v = self.h1[j * w + lane];
        }
        for (j, v) in state.c1.iter_mut().enumerate() {
            *v = self.c1[j * w + lane];
        }
        for (j, v) in state.h2.iter_mut().enumerate() {
            *v = self.h2[j * w + lane];
        }
        for (j, v) in state.c2.iter_mut().enumerate() {
            *v = self.c2[j * w + lane];
        }
    }

    /// Copies `lane`'s de-normalized prediction out of the output panel.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= width` or `out` has the wrong dimension.
    pub fn read_output(&self, lane: usize, out: &mut [f64]) {
        assert!(lane < self.width, "lane {lane} >= width {}", self.width);
        assert_eq!(out.len() * self.width, self.out.len(), "output dimension mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            *o = self.out[r * self.width + lane];
        }
    }

    /// Bulk gather: loads `states[i]` into lane `i` for every state, in
    /// row-major panel order. Equivalent to calling
    /// [`BatchScratch::load_state`] per lane, but sweeps each panel row
    /// with sequential writes — at wide batches the per-lane form writes
    /// one value every `width * 8` bytes and pays a cache-line fill per
    /// store, which is the dominant cost of a monolithic wide gather.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() > width` or any state belongs to a
    /// differently-sized engine.
    pub fn load_states(&mut self, states: &[StreamState]) {
        let n = states.len();
        let w = self.width;
        assert!(n <= w, "{n} states exceed width {w}");
        for s in states {
            assert_eq!(s.h1.len() * w, self.h1.len(), "state dimension mismatch");
        }
        let rows = if n == 0 { 0 } else { states[0].h1.len() };
        for j in 0..rows {
            let (h1, c1) = (&mut self.h1[j * w..j * w + n], &mut self.c1[j * w..j * w + n]);
            for (lane, s) in states.iter().enumerate() {
                h1[lane] = s.h1[j];
                c1[lane] = s.c1[j];
            }
            let (h2, c2) = (&mut self.h2[j * w..j * w + n], &mut self.c2[j * w..j * w + n]);
            for (lane, s) in states.iter().enumerate() {
                h2[lane] = s.h2[j];
                c2[lane] = s.c2[j];
            }
        }
    }

    /// Bulk scatter: the inverse of [`BatchScratch::load_states`] —
    /// writes lane `i`'s state columns back into `states[i]` with
    /// sequential panel-row reads.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() > width` or any state belongs to a
    /// differently-sized engine.
    pub fn store_states(&self, states: &mut [StreamState]) {
        let n = states.len();
        let w = self.width;
        assert!(n <= w, "{n} states exceed width {w}");
        for s in states.iter() {
            assert_eq!(s.h1.len() * w, self.h1.len(), "state dimension mismatch");
        }
        let rows = if n == 0 { 0 } else { states[0].h1.len() };
        for j in 0..rows {
            let (h1, c1) = (&self.h1[j * w..j * w + n], &self.c1[j * w..j * w + n]);
            for (lane, s) in states.iter_mut().enumerate() {
                s.h1[j] = h1[lane];
                s.c1[j] = c1[lane];
            }
            let (h2, c2) = (&self.h2[j * w..j * w + n], &self.c2[j * w..j * w + n]);
            for (lane, s) in states.iter_mut().enumerate() {
                s.h2[j] = h2[lane];
                s.c2[j] = c2[lane];
            }
        }
    }

    /// Bulk row gather: loads `rows[i]` (already normalized) into lane
    /// `i` of the input panel, sweeping the panel row-major like
    /// [`BatchScratch::load_states`].
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() > width` or any row has the wrong dimension.
    pub fn load_rows(&mut self, rows: &[&[f64]]) {
        let n = rows.len();
        let w = self.width;
        assert!(n <= w, "{n} rows exceed width {w}");
        for r in rows {
            assert_eq!(r.len() * w, self.x.len(), "row dimension mismatch");
        }
        let dim = if n == 0 { 0 } else { rows[0].len() };
        for j in 0..dim {
            let xr = &mut self.x[j * w..j * w + n];
            for (lane, r) in rows.iter().enumerate() {
                xr[lane] = r[j];
            }
        }
    }

    /// Bulk output scatter: copies every active lane's de-normalized
    /// prediction into `out` (lane-major, `n * output_dim`), sweeping the
    /// output panel row-major.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not a multiple of the output dimension or
    /// implies more lanes than `width`.
    pub fn read_outputs(&self, out: &mut [f64]) {
        let w = self.width;
        let odim = self.out.len() / w;
        assert_eq!(out.len() % odim, 0, "out length not a lane multiple");
        let n = out.len() / odim;
        assert!(n <= w, "{n} lanes exceed width {w}");
        for j in 0..odim {
            let row = &self.out[j * w..j * w + n];
            for (lane, chunk) in out.chunks_exact_mut(odim).enumerate() {
                chunk[j] = row[lane];
            }
        }
    }

}

/// The batched deployment form of a compiled [`StreamingRegressor`].
///
/// Compiled from the same artifacts (`LstmRegressor::compile` →
/// [`BatchedStreamingRegressor::compile`]); holds its own snapshot of the
/// engine so fleet shards can share one instance across worker threads.
///
/// # Examples
///
/// ```
/// use pidpiper_ml::{BatchedStreamingRegressor, LstmRegressor, RegressorConfig};
///
/// let model = LstmRegressor::new(RegressorConfig::tiny(2, 1), 7);
/// let engine = model.compile();
/// let batched = BatchedStreamingRegressor::compile(&engine);
/// let windows: Vec<Vec<Vec<f64>>> =
///     (0..3).map(|s| vec![vec![0.1 * s as f64, -0.2]; engine.config().window]).collect();
/// let mut scratch = batched.scratch(8);
/// let mut out = vec![0.0; 3];
/// batched.predict_windows_into(&windows, &mut scratch, &mut out).expect("valid");
/// // Lane 0 is bit-identical to the per-session path:
/// let mut solo = engine.scratch();
/// let mut one = [0.0];
/// engine.predict_into(&windows[0], &mut solo, &mut one).expect("valid");
/// assert_eq!(out[0].to_bits(), one[0].to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct BatchedStreamingRegressor {
    engine: StreamingRegressor,
}

impl BatchedStreamingRegressor {
    /// Compiles the batched form of `engine` (bit-identical per lane to
    /// the per-session path).
    pub fn compile(engine: &StreamingRegressor) -> Self {
        BatchedStreamingRegressor {
            engine: engine.clone(),
        }
    }

    /// The wrapped per-session engine (same weights, same config).
    pub fn engine(&self) -> &StreamingRegressor {
        &self.engine
    }

    /// A fresh [`BatchScratch`] with capacity for `width` lanes.
    pub fn scratch(&self, width: usize) -> BatchScratch {
        let c = &self.engine.config;
        BatchScratch {
            width,
            x: vec![0.0; c.input_dim * width],
            h1: vec![0.0; c.hidden * width],
            c1: vec![0.0; c.hidden * width],
            h2: vec![0.0; c.hidden * width],
            c2: vec![0.0; c.hidden * width],
            pre: vec![0.0; 4 * c.hidden * width],
            fc_a: vec![0.0; c.fc_width * width],
            fc_b: vec![0.0; c.fc_width * width],
            z: vec![0.0; c.output_dim * width],
            out: vec![0.0; c.output_dim * width],
            normed: vec![0.0; c.input_dim],
        }
    }

    /// Advances the first `n` lanes by their loaded input rows: the
    /// batched, bit-identical analogue of `StreamingRegressor::step_normed`
    /// over every lane. Load each lane's row ([`BatchScratch::load_row`])
    /// and state ([`BatchScratch::load_state`] or a previous step's
    /// output) first.
    ///
    /// # Panics
    ///
    /// Panics if `n > scratch.width()`.
    pub fn step_batch(&self, scratch: &mut BatchScratch, n: usize) {
        assert!(n <= scratch.width, "n={n} exceeds scratch width {}", scratch.width);
        let w = scratch.width;
        // Wide batches run in COL_BLOCK-lane column windows so the
        // active pre-activation slab stays cache-resident; lanes are
        // independent, so windowing changes no per-lane op order (the
        // panels are sliced at the window offset, keeping the full
        // width `w` as the row stride).
        let mut off = 0;
        while off < n {
            let nb = (n - off).min(COL_BLOCK);
            lstm_step_panel(
                &self.engine.lstm1,
                &scratch.x[off..],
                &mut scratch.h1[off..],
                &mut scratch.c1[off..],
                &mut scratch.pre[off..],
                w,
                nb,
            );
            lstm_step_panel(
                &self.engine.lstm2,
                &scratch.h1[off..],
                &mut scratch.h2[off..],
                &mut scratch.c2[off..],
                &mut scratch.pre[off..],
                w,
                nb,
            );
            off += nb;
        }
    }

    /// Runs the dense stack over the first `n` lanes' layer-2 hidden
    /// states and writes de-normalized predictions into the output panel
    /// (read back per lane with [`BatchScratch::read_output`]). The
    /// batched, bit-identical analogue of
    /// `StreamingRegressor::finish_into`.
    ///
    /// # Panics
    ///
    /// Panics if `n > scratch.width()`.
    pub fn finish_batch(&self, scratch: &mut BatchScratch, n: usize) {
        assert!(n <= scratch.width, "n={n} exceeds scratch width {}", scratch.width);
        let w = scratch.width;
        // Same column windowing as `step_batch` (see the comment there).
        let mut off = 0;
        while off < n {
            let nb = (n - off).min(COL_BLOCK);
            dense_panel(&self.engine.fc_sigmoid, &scratch.h2[off..], &mut scratch.fc_a[off..], w, nb);
            dense_panel(&self.engine.fc_prelu1, &scratch.fc_a[off..], &mut scratch.fc_b[off..], w, nb);
            dense_panel(&self.engine.fc_prelu2, &scratch.fc_b[off..], &mut scratch.fc_a[off..], w, nb);
            dense_panel(&self.engine.head, &scratch.fc_a[off..], &mut scratch.z[off..], w, nb);
            inverse_panel(
                &self.engine.target_normalizer,
                &scratch.z[off..],
                &mut scratch.out[off..],
                w,
                nb,
            );
            off += nb;
        }
    }

    /// Whole-window batched prediction: validates and normalizes each
    /// lane's window, streams all rows through [`Self::step_batch`] from
    /// reset states and finishes into `out` (lane-major,
    /// `windows.len() * output_dim`). Bit-identical per lane to
    /// `StreamingRegressor::predict_into`.
    ///
    /// # Errors
    ///
    /// Returns the first [`PredictError`] found in any lane's window
    /// (scratch contents are unspecified on error).
    ///
    /// # Panics
    ///
    /// Panics if `windows.len() > scratch.width()`.
    pub fn predict_windows_into(
        &self,
        windows: &[Vec<Vec<f64>>],
        scratch: &mut BatchScratch,
        out: &mut [f64],
    ) -> Result<(), PredictError> {
        let c = &self.engine.config;
        let n = windows.len();
        assert!(n <= scratch.width, "{n} windows exceed scratch width {}", scratch.width);
        for window in windows {
            if window.len() != c.window {
                return Err(PredictError::WindowLength {
                    got: window.len(),
                    expected: c.window,
                });
            }
            for (step, row) in window.iter().enumerate() {
                if row.len() != c.input_dim {
                    return Err(PredictError::FeatureDim {
                        step,
                        got: row.len(),
                        expected: c.input_dim,
                    });
                }
            }
        }
        if out.len() != n * c.output_dim {
            return Err(PredictError::OutputLength {
                got: out.len(),
                expected: n * c.output_dim,
            });
        }
        scratch.reset_states();
        // Move the row buffer out so loading lanes can re-borrow the scratch.
        let mut normed = std::mem::take(&mut scratch.normed);
        for t in 0..c.window {
            for (lane, window) in windows.iter().enumerate() {
                self.engine.normalizer.transform_into(&window[t], &mut normed);
                scratch.load_row(lane, &normed);
            }
            self.step_batch(scratch, n);
        }
        scratch.normed = normed;
        self.finish_batch(scratch, n);
        for (lane, chunk) in out.chunks_exact_mut(c.output_dim).enumerate() {
            scratch.read_output(lane, chunk);
        }
        Ok(())
    }

}

/// One batched [`FusedLstm`] cell update over `n` lanes: the two-pass
/// `(bias + w·x) + u·h` GEMM reduction followed by the elementwise gate
/// and cell expressions of `FusedLstm::step`, per lane.
fn lstm_step_panel(
    l: &FusedLstm,
    xp: &[f64],
    hp: &mut [f64],
    cp: &mut [f64],
    pre: &mut [f64],
    w: usize,
    n: usize,
) {
    let hd = l.hidden;
    let stride = l.input + hd;
    gemm::gemm_bias(&l.rows, stride, 4 * hd, l.input, &l.bias, xp, w, pre, w, n);
    gemm::gemm_acc(&l.rows[l.input..], stride, 4 * hd, hd, hp, w, pre, w, n);
    // Gate activations via the ISA-dispatched slice kernels
    // (bit-identical to the scalar calls — see
    // `pidpiper_math::activations`). In the panel layout the i/f/o gate
    // rows `0..3*hd` are contiguous and all sigmoid; the candidate rows
    // `3*hd..4*hd` are tanh. Ragged batches activate per row so masked
    // lanes `n..w` are never written.
    activations::apply_rows(pre, 0..3 * hd, w, n, activations::fast_sigmoid_slice);
    activations::apply_rows(pre, 3 * hd..4 * hd, w, n, activations::fast_tanh_slice);
    // Cell update, staged so the `tanh(c)` sweep also runs through the
    // dispatched kernel: write the new cell into both `cp` and `hp`,
    // tanh `hp` in place, then scale by the output gate. Per element
    // this is the same op sequence as the scalar path
    // (`h = o * tanh(f*c' + i*g)`).
    for j in 0..hd {
        for c in 0..n {
            let cj = pre[(hd + j) * w + c] * cp[j * w + c] + pre[j * w + c] * pre[(3 * hd + j) * w + c];
            cp[j * w + c] = cj;
            hp[j * w + c] = cj;
        }
    }
    activations::apply_rows(hp, 0..hd, w, n, activations::fast_tanh_slice);
    for j in 0..hd {
        for c in 0..n {
            hp[j * w + c] *= pre[(2 * hd + j) * w + c];
        }
    }
}

/// One batched dense layer over `n` lanes, mirroring `Dense::infer_into`
/// per lane (bias preload folded into the GEMM, activation in place).
fn dense_panel(d: &Dense, xp: &[f64], outp: &mut [f64], w: usize, n: usize) {
    let m = d.output_dim();
    let k = d.input_dim();
    gemm::gemm_bias(&d.w.value, k, m, k, &d.b.value, xp, w, outp, w, n);
    match d.activation() {
        Activation::Linear => {}
        Activation::Sigmoid => {
            activations::apply_rows(outp, 0..m, w, n, activations::fast_sigmoid_slice);
        }
        Activation::PRelu => {
            for r in 0..m {
                let alpha = d.alpha.value[r];
                for c in 0..n {
                    let v = outp[r * w + c];
                    outp[r * w + c] = if v > 0.0 { v } else { alpha * v };
                }
            }
        }
    }
}

/// Batched `Normalizer::inverse_into`: `out = z * std + mean` per row,
/// per lane.
fn inverse_panel(norm: &Normalizer, zp: &[f64], outp: &mut [f64], w: usize, n: usize) {
    for (r, (m, s)) in norm.means().iter().zip(norm.stds()).enumerate() {
        for c in 0..n {
            outp[r * w + c] = zp[r * w + c] * s + m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{LstmRegressor, RegressorConfig};

    fn engine() -> StreamingRegressor {
        LstmRegressor::new(RegressorConfig::tiny(2, 1), 21).compile()
    }

    fn window_for(c: &RegressorConfig, salt: f64) -> Vec<Vec<f64>> {
        (0..c.window)
            .map(|t| {
                (0..c.input_dim)
                    .map(|j| ((t * 5 + j) as f64 * 0.43 + salt).sin() * 2.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batched_lane_matches_streaming_bitwise() {
        let e = engine();
        let b = BatchedStreamingRegressor::compile(&e);
        let windows: Vec<_> = (0..5).map(|i| window_for(e.config(), i as f64 * 0.7)).collect();
        let mut scratch = b.scratch(8);
        let mut out = vec![0.0; 5];
        b.predict_windows_into(&windows, &mut scratch, &mut out).expect("valid");
        let mut solo = e.scratch();
        let mut one = [0.0];
        for (lane, w) in windows.iter().enumerate() {
            e.predict_into(w, &mut solo, &mut one).expect("valid");
            assert_eq!(out[lane].to_bits(), one[0].to_bits(), "lane {lane}");
        }
    }

    #[test]
    fn state_gather_scatter_round_trips() {
        let e = engine();
        let b = BatchedStreamingRegressor::compile(&e);
        let mut scratch = b.scratch(4);
        let mut state = e.state();
        let mut solo = e.scratch();
        let mut normed = vec![0.0; 2];
        e.normalize_into(&[0.9, -0.4], &mut normed).expect("dims");
        e.step_normed(&normed, &mut state, &mut solo).expect("dims");
        scratch.load_state(2, &state);
        let mut back = e.state();
        scratch.store_state(2, &mut back);
        assert_eq!(back, state);
    }

    #[test]
    fn bulk_gather_scatter_matches_per_lane_apis() {
        let e = engine();
        let b = BatchedStreamingRegressor::compile(&e);
        let mut solo = e.scratch();
        let mut normed = vec![0.0; 2];
        // Distinct per-lane states and rows.
        let states: Vec<StreamState> = (0..3)
            .map(|i| {
                let mut s = e.state();
                for t in 0..=i {
                    e.normalize_into(&[0.3 * t as f64, -0.1 * i as f64], &mut normed)
                        .expect("dims");
                    e.step_normed(&normed, &mut s, &mut solo).expect("dims");
                }
                s
            })
            .collect();
        let rows: Vec<Vec<f64>> = (0..3).map(|i| vec![0.2 * i as f64, 0.7 - i as f64]).collect();
        let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();

        let mut bulk = b.scratch(8);
        bulk.load_states(&states);
        bulk.load_rows(&row_refs);
        let mut per_lane = b.scratch(8);
        for (lane, s) in states.iter().enumerate() {
            per_lane.load_state(lane, s);
            per_lane.load_row(lane, &rows[lane]);
        }
        b.step_batch(&mut bulk, 3);
        b.finish_batch(&mut bulk, 3);
        b.step_batch(&mut per_lane, 3);
        b.finish_batch(&mut per_lane, 3);

        let mut bulk_out = vec![0.0; 3];
        bulk.read_outputs(&mut bulk_out);
        let mut want = [0.0];
        let mut got_states: Vec<StreamState> = (0..3).map(|_| e.state()).collect();
        bulk.store_states(&mut got_states);
        for lane in 0..3 {
            per_lane.read_output(lane, &mut want);
            assert_eq!(bulk_out[lane].to_bits(), want[0].to_bits(), "output lane {lane}");
            let mut s = e.state();
            per_lane.store_state(lane, &mut s);
            assert_eq!(got_states[lane], s, "state lane {lane}");
        }
        // The bulk forms also round-trip: scatter back what was gathered.
        let mut round = b.scratch(8);
        round.load_states(&got_states);
        let mut back: Vec<StreamState> = (0..3).map(|_| e.state()).collect();
        round.store_states(&mut back);
        assert_eq!(back, got_states);
    }
}
