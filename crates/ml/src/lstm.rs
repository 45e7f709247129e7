//! LSTM layer with full backpropagation through time (BPTT).
//!
//! Standard LSTM cell:
//!
//! ```text
//! i = sigmoid(W_i x + U_i h' + b_i)     (input gate)
//! f = sigmoid(W_f x + U_f h' + b_f)     (forget gate)
//! o = sigmoid(W_o x + U_o h' + b_o)     (output gate)
//! g = tanh   (W_g x + U_g h' + b_g)     (candidate)
//! c = f * c' + i * g
//! h = o * tanh(c)
//! ```
//!
//! The paper leans on the memory cells as its "noise model": the gates
//! learn the relationship between past inputs `X(k)` and the present input
//! `x(t)`, down-weighting features whose present value deviates sharply
//! from their history — which is what attenuates attack-induced spikes in
//! the FFC's output.

use crate::param::Param;
use rand::rngs::StdRng;

// The activations are shared with the streaming and batched inference
// paths (pidpiper_math::activations), which keeps the training-time
// forward pass bit-identical to deployment inference.
use pidpiper_math::activations::{fast_sigmoid as sigmoid, fast_tanh as tanh};

/// Per-timestep cache for BPTT.
#[derive(Debug, Clone, Default)]
struct StepCache {
    x: Vec<f64>,
    h_prev: Vec<f64>,
    c_prev: Vec<f64>,
    i: Vec<f64>,
    f: Vec<f64>,
    o: Vec<f64>,
    g: Vec<f64>,
    // Kept alongside `tanh_c` for cache completeness; the backward pass
    // only needs the activated form.
    #[allow(dead_code)]
    c: Vec<f64>,
    tanh_c: Vec<f64>,
}

/// Hidden/cell state of an LSTM layer (for stateful streaming inference).
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden state `h`.
    pub h: Vec<f64>,
    /// Cell state `c`.
    pub c: Vec<f64>,
}

impl LstmState {
    /// A zero state for a layer of the given hidden size.
    pub fn zeros(hidden: usize) -> Self {
        LstmState {
            h: vec![0.0; hidden],
            c: vec![0.0; hidden],
        }
    }
}

/// One LSTM layer.
///
/// # Examples
///
/// ```
/// use pidpiper_ml::LstmLayer;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut lstm = LstmLayer::new(3, 8, &mut rng);
/// let seq = vec![vec![0.1, 0.2, 0.3]; 5];
/// let hs = lstm.forward_seq(&seq);
/// assert_eq!(hs.len(), 5);
/// assert_eq!(hs[0].len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct LstmLayer {
    /// Input weights for the four gates, stacked `[i; f; o; g]`
    /// (`4*hidden x input`).
    pub w: Param,
    /// Recurrent weights, stacked the same way (`4*hidden x hidden`).
    pub u: Param,
    /// Gate biases, stacked (`4*hidden`). Forget-gate block initialized
    /// to 1 (standard trick for gradient flow).
    pub b: Param,
    input: usize,
    hidden: usize,
    caches: Vec<StepCache>,
}

impl LstmLayer {
    /// Creates an LSTM layer with Xavier-initialized weights and
    /// forget-bias 1.
    pub fn new(input: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let mut b = Param::zeros(4 * hidden, 1);
        for j in hidden..2 * hidden {
            b.value[j] = 1.0; // forget gate bias
        }
        LstmLayer {
            w: Param::xavier(4 * hidden, input, rng),
            u: Param::xavier(4 * hidden, hidden, rng),
            b,
            input,
            hidden,
            caches: Vec::new(),
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input
    }

    /// Hidden dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Runs one step from an explicit state, returning the new state.
    /// Does not cache (inference-only).
    pub fn infer_step(&self, x: &[f64], state: &LstmState) -> LstmState {
        let (i, f, o, g) = self.gates(x, &state.h);
        let h = self.hidden;
        let mut c = vec![0.0; h];
        let mut h_new = vec![0.0; h];
        for j in 0..h {
            c[j] = f[j] * state.c[j] + i[j] * g[j];
            h_new[j] = o[j] * tanh(c[j]);
        }
        LstmState { h: h_new, c }
    }

    fn gates(&self, x: &[f64], h_prev: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        debug_assert_eq!(x.len(), self.input);
        let h = self.hidden;
        let mut pre = self.b.value.clone();
        self.w.matvec_into(x, &mut pre);
        self.u.matvec_into(h_prev, &mut pre);
        let i: Vec<f64> = pre[0..h].iter().map(|&z| sigmoid(z)).collect();
        let f: Vec<f64> = pre[h..2 * h].iter().map(|&z| sigmoid(z)).collect();
        let o: Vec<f64> = pre[2 * h..3 * h].iter().map(|&z| sigmoid(z)).collect();
        let g: Vec<f64> = pre[3 * h..4 * h].iter().map(|&z| tanh(z)).collect();
        (i, f, o, g)
    }

    /// Runs the layer over a sequence from a zero initial state, caching
    /// every step for [`LstmLayer::backward_seq`]. Returns the hidden state
    /// at every timestep.
    pub fn forward_seq(&mut self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let hdim = self.hidden;
        self.caches.clear();
        let mut h_prev = vec![0.0; hdim];
        let mut c_prev = vec![0.0; hdim];
        let mut outputs = Vec::with_capacity(xs.len());
        for x in xs {
            let (i, f, o, g) = self.gates(x, &h_prev);
            let mut c = vec![0.0; hdim];
            let mut tanh_c = vec![0.0; hdim];
            let mut h_new = vec![0.0; hdim];
            for j in 0..hdim {
                c[j] = f[j] * c_prev[j] + i[j] * g[j];
                tanh_c[j] = tanh(c[j]);
                h_new[j] = o[j] * tanh_c[j];
            }
            self.caches.push(StepCache {
                x: x.clone(),
                h_prev: h_prev.clone(),
                c_prev: c_prev.clone(),
                i,
                f,
                o,
                g,
                c: c.clone(),
                tanh_c,
            });
            outputs.push(h_new.clone());
            h_prev = h_new;
            c_prev = c;
        }
        outputs
    }

    /// BPTT: given `dL/dh_t` for every timestep, accumulates parameter
    /// gradients and returns `dL/dx_t` for every timestep.
    ///
    /// # Panics
    ///
    /// Panics if the length of `dhs` differs from the cached sequence
    /// length, or if called before [`LstmLayer::forward_seq`].
    pub fn backward_seq(&mut self, dhs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        assert_eq!(
            dhs.len(),
            self.caches.len(),
            "gradient sequence length mismatch (forward not run?)"
        );
        let hdim = self.hidden;
        let t_len = self.caches.len();
        let mut dxs = vec![vec![0.0; self.input]; t_len];
        let mut dh_next = vec![0.0; hdim];
        let mut dc_next = vec![0.0; hdim];

        for t in (0..t_len).rev() {
            let cache = &self.caches[t];
            // Total dL/dh at this step: external + recurrent.
            let mut dh = dhs[t].clone();
            for j in 0..hdim {
                dh[j] += dh_next[j];
            }
            // Backprop through h = o * tanh(c).
            let mut dpre = vec![0.0; 4 * hdim];
            let mut dc = vec![0.0; hdim];
            for j in 0..hdim {
                let do_ = dh[j] * cache.tanh_c[j];
                dc[j] = dh[j] * cache.o[j] * (1.0 - cache.tanh_c[j] * cache.tanh_c[j]) + dc_next[j];
                // Gate pre-activation gradients.
                let di = dc[j] * cache.g[j];
                let df = dc[j] * cache.c_prev[j];
                let dg = dc[j] * cache.i[j];
                dpre[j] = di * cache.i[j] * (1.0 - cache.i[j]);
                dpre[hdim + j] = df * cache.f[j] * (1.0 - cache.f[j]);
                dpre[2 * hdim + j] = do_ * cache.o[j] * (1.0 - cache.o[j]);
                dpre[3 * hdim + j] = dg * (1.0 - cache.g[j] * cache.g[j]);
            }

            // Parameter gradients.
            self.w.accumulate_outer(&dpre, &cache.x);
            self.u.accumulate_outer(&dpre, &cache.h_prev);
            for j in 0..4 * hdim {
                self.b.grad[j] += dpre[j];
            }

            // Gradients to input and previous hidden/cell state.
            self.w.matvec_t_into(&dpre, &mut dxs[t]);
            let mut dh_prev = vec![0.0; hdim];
            self.u.matvec_t_into(&dpre, &mut dh_prev);
            dh_next = dh_prev;
            for j in 0..hdim {
                dc_next[j] = dc[j] * cache.f[j];
            }
        }
        dxs
    }

    /// Trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.u, &mut self.b]
    }

    /// Immutable parameter views (serialization).
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.u, &self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Loss: 0.5 * ||h_T - target||^2 on the final hidden state.
    fn seq_loss(layer: &LstmLayer, xs: &[Vec<f64>], target: &[f64]) -> f64 {
        let mut state = LstmState::zeros(layer.hidden_dim());
        for x in xs {
            state = layer.infer_step(x, &state);
        }
        state
            .h
            .iter()
            .zip(target)
            .map(|(h, t)| 0.5 * (h - t) * (h - t))
            .sum()
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lstm = LstmLayer::new(2, 4, &mut rng);
        let xs = vec![vec![1.0, -1.0], vec![0.5, 0.5], vec![0.0, 1.0]];
        let out1 = lstm.forward_seq(&xs);
        let out2 = lstm.forward_seq(&xs);
        assert_eq!(out1, out2);
        assert_eq!(out1.len(), 3);
        assert_eq!(out1[2].len(), 4);
    }

    #[test]
    fn infer_step_matches_forward_seq() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut lstm = LstmLayer::new(3, 6, &mut rng);
        let xs = vec![
            vec![0.2, -0.4, 0.6],
            vec![-0.1, 0.3, 0.9],
            vec![0.0, 0.0, -0.5],
        ];
        let seq_out = lstm.forward_seq(&xs);
        let mut state = LstmState::zeros(6);
        for (t, x) in xs.iter().enumerate() {
            state = lstm.infer_step(x, &state);
            for j in 0..6 {
                assert!(
                    (state.h[j] - seq_out[t][j]).abs() < 1e-12,
                    "mismatch at t={t}, j={j}"
                );
            }
        }
    }

    #[test]
    fn bptt_gradcheck_weights() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut lstm = LstmLayer::new(2, 3, &mut rng);
        let xs = vec![
            vec![0.5, -0.3],
            vec![-0.2, 0.8],
            vec![0.1, 0.1],
            vec![0.9, -0.9],
        ];
        let target = vec![0.2, -0.1, 0.3];

        let hs = lstm.forward_seq(&xs);
        let t_last = hs.len() - 1;
        let mut dhs = vec![vec![0.0; 3]; xs.len()];
        for j in 0..3 {
            dhs[t_last][j] = hs[t_last][j] - target[j];
        }
        let dxs = lstm.backward_seq(&dhs);

        let eps = 1e-6;
        // Sample a spread of weight indices from each parameter tensor.
        for &(param_idx, idx) in &[
            (0usize, 0usize),
            (0, 5),
            (0, 23),
            (1, 0),
            (1, 17),
            (1, 35),
            (2, 0),
            (2, 4),
            (2, 11),
        ] {
            let get = |l: &LstmLayer, pi: usize, i: usize| match pi {
                0 => l.w.value[i],
                1 => l.u.value[i],
                _ => l.b.value[i],
            };
            let set = |l: &mut LstmLayer, pi: usize, i: usize, v: f64| match pi {
                0 => l.w.value[i] = v,
                1 => l.u.value[i] = v,
                _ => l.b.value[i] = v,
            };
            let grad = match param_idx {
                0 => lstm.w.grad[idx],
                1 => lstm.u.grad[idx],
                _ => lstm.b.grad[idx],
            };
            let orig = get(&lstm, param_idx, idx);
            let mut plus = lstm.clone();
            set(&mut plus, param_idx, idx, orig + eps);
            let mut minus = lstm.clone();
            set(&mut minus, param_idx, idx, orig - eps);
            let num =
                (seq_loss(&plus, &xs, &target) - seq_loss(&minus, &xs, &target)) / (2.0 * eps);
            assert!(
                (num - grad).abs() < 1e-5 * (1.0 + num.abs()),
                "param {param_idx}[{idx}]: numeric {num} vs analytic {grad}"
            );
        }

        // Input gradients.
        for t in 0..xs.len() {
            for k in 0..2 {
                let mut plus = xs.clone();
                plus[t][k] += eps;
                let mut minus = xs.clone();
                minus[t][k] -= eps;
                let num = (seq_loss(&lstm, &plus, &target) - seq_loss(&lstm, &minus, &target))
                    / (2.0 * eps);
                assert!(
                    (num - dxs[t][k]).abs() < 1e-5 * (1.0 + num.abs()),
                    "x[{t}][{k}]: numeric {num} vs analytic {}",
                    dxs[t][k]
                );
            }
        }
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let lstm = LstmLayer::new(2, 4, &mut rng);
        for j in 4..8 {
            assert_eq!(lstm.b.value[j], 1.0);
        }
        assert_eq!(lstm.b.value[0], 0.0);
    }

    #[test]
    fn hidden_state_bounded() {
        // h = o * tanh(c) with o in (0,1) and tanh in (-1,1): |h| < 1.
        let mut rng = StdRng::seed_from_u64(9);
        let mut lstm = LstmLayer::new(1, 5, &mut rng);
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i as f64 * 17.0).sin() * 100.0])
            .collect();
        for h in lstm.forward_seq(&xs) {
            for v in h {
                assert!(v.abs() < 1.0, "hidden state {v} out of bounds");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn backward_length_checked() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut lstm = LstmLayer::new(1, 2, &mut rng);
        lstm.forward_seq(&[vec![1.0]]);
        let _ = lstm.backward_seq(&[vec![0.0; 2], vec![0.0; 2]]);
    }
}
