//! Sliding-window datasets extracted from mission time series.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One training sample: a window of consecutive feature vectors and the
/// target vector aligned with the window's final step.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Input window `x(t-W+1) .. x(t)`.
    pub window: Vec<Vec<f64>>,
    /// Target `y(t)`.
    pub target: Vec<f64>,
}

/// A sequence-to-one dataset of sliding windows.
///
/// # Examples
///
/// ```
/// use pidpiper_ml::WindowedDataset;
///
/// let inputs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
/// let targets: Vec<Vec<f64>> = (0..10).map(|i| vec![2.0 * i as f64]).collect();
/// let ds = WindowedDataset::from_series(&inputs, &targets, 3);
/// assert_eq!(ds.len(), 8); // 10 - 3 + 1 windows
/// assert_eq!(ds.samples()[0].window.len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WindowedDataset {
    samples: Vec<Sample>,
    window: usize,
}

impl WindowedDataset {
    /// An empty dataset for the given window length.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        WindowedDataset {
            samples: Vec::new(),
            window,
        }
    }

    /// Extracts every full window from one aligned `(inputs, targets)`
    /// series. The target of a window ending at index `t` is `targets[t]`.
    ///
    /// # Panics
    ///
    /// Panics if the series lengths differ or `window == 0`.
    pub fn from_series(inputs: &[Vec<f64>], targets: &[Vec<f64>], window: usize) -> Self {
        let mut ds = WindowedDataset::new(window);
        ds.extend_from_series(inputs, targets);
        ds
    }

    /// Appends windows from another mission's series (windows never span
    /// mission boundaries).
    ///
    /// # Panics
    ///
    /// Panics if the series lengths differ.
    pub fn extend_from_series(&mut self, inputs: &[Vec<f64>], targets: &[Vec<f64>]) {
        assert_eq!(
            inputs.len(),
            targets.len(),
            "inputs and targets must be aligned"
        );
        if inputs.len() < self.window {
            return;
        }
        for t in (self.window - 1)..inputs.len() {
            self.samples.push(Sample {
                window: inputs[t + 1 - self.window..=t].to_vec(),
                target: targets[t].clone(),
            });
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Deterministically shuffles the samples.
    pub fn shuffle(&mut self, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        self.samples.shuffle(&mut rng);
    }

    /// Splits into `(train, validation)` with `train_fraction` of samples
    /// in the training part (mirrors the paper's 80/20 split).
    ///
    /// # Panics
    ///
    /// Panics if `train_fraction` is outside `(0, 1)`.
    pub fn split(mut self, train_fraction: f64, seed: u64) -> (WindowedDataset, WindowedDataset) {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train fraction must be in (0, 1)"
        );
        self.shuffle(seed);
        let n_train = ((self.samples.len() as f64) * train_fraction).round() as usize;
        let val_samples = self.samples.split_off(n_train.min(self.samples.len()));
        let window = self.window;
        (
            self,
            WindowedDataset {
                samples: val_samples,
                window,
            },
        )
    }

    /// Keeps every `k`-th sample (temporal subsampling to bound training
    /// cost).
    pub fn subsample(&mut self, k: usize) {
        if k <= 1 {
            return;
        }
        self.samples = self.samples.iter().step_by(k).cloned().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let inputs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, -(i as f64)]).collect();
        let targets: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 10.0]).collect();
        (inputs, targets)
    }

    #[test]
    fn window_alignment() {
        let (i, t) = series(6);
        let ds = WindowedDataset::from_series(&i, &t, 3);
        assert_eq!(ds.len(), 4);
        // First window covers indices 0..=2, target at index 2.
        assert_eq!(ds.samples()[0].window[0][0], 0.0);
        assert_eq!(ds.samples()[0].window[2][0], 2.0);
        assert_eq!(ds.samples()[0].target[0], 20.0);
        // Last window ends at index 5.
        assert_eq!(ds.samples()[3].target[0], 50.0);
    }

    #[test]
    fn short_series_yields_nothing() {
        let (i, t) = series(2);
        let ds = WindowedDataset::from_series(&i, &t, 5);
        assert!(ds.is_empty());
    }

    #[test]
    fn windows_do_not_span_missions() {
        let (i1, t1) = series(4);
        let (i2, t2) = series(4);
        let mut ds = WindowedDataset::new(3);
        ds.extend_from_series(&i1, &t1);
        ds.extend_from_series(&i2, &t2);
        // 2 windows per mission, none mixing the two.
        assert_eq!(ds.len(), 4);
        for s in ds.samples() {
            let first = s.window[0][0];
            let last = s.window[2][0];
            assert_eq!(last - first, 2.0, "window crosses a mission boundary");
        }
    }

    #[test]
    fn split_fractions() {
        let (i, t) = series(103);
        let ds = WindowedDataset::from_series(&i, &t, 4);
        let total = ds.len();
        let (train, val) = ds.split(0.8, 7);
        assert_eq!(train.len() + val.len(), total);
        let frac = train.len() as f64 / total as f64;
        assert!((frac - 0.8).abs() < 0.02, "train fraction {frac}");
    }

    #[test]
    fn shuffle_is_deterministic() {
        let (i, t) = series(30);
        let mut a = WindowedDataset::from_series(&i, &t, 3);
        let mut b = WindowedDataset::from_series(&i, &t, 3);
        a.shuffle(42);
        b.shuffle(42);
        assert_eq!(a.samples(), b.samples());
    }

    #[test]
    fn subsample_thins() {
        let (i, t) = series(50);
        let mut ds = WindowedDataset::from_series(&i, &t, 2);
        let before = ds.len();
        ds.subsample(5);
        assert_eq!(ds.len(), before.div_ceil(5));
    }
}
