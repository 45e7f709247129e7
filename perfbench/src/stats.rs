//! Percentiles under the benchmark's rank rule, medians, and the seeded
//! generator every workload draws its inputs from.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1)`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
///
/// The rank is `ceil(p * n)` (1-based) and the samples beyond it number
/// `n - rank`, so p50 needs 20 samples, p90 needs 100 and p99 needs 1000.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// `values` grouped into blocks of `block_s` seconds by the time each was
/// taken (`at`, parallel to `values`). Blocks come in time order and keep
/// their values in input order; empty blocks are left out.
pub fn blocks(at: &[f64], values: &[f64], block_s: f64) -> Vec<Vec<f64>> {
    let mut order: Vec<(u64, f64)> = at
        .iter()
        .zip(values)
        .map(|(&t, &v)| ((t / block_s).floor().max(0.0) as u64, v))
        .collect();
    order.sort_by_key(|&(k, _)| k);
    let mut blocks: Vec<(u64, Vec<f64>)> = Vec::new();
    for (k, v) in order {
        match blocks.last_mut() {
            Some((last, b)) if *last == k => b.push(v),
            _ => blocks.push((k, vec![v])),
        }
    }
    blocks.into_iter().map(|(_, b)| b).collect()
}

/// Fewest samples [`percentile`] accepts for `p`.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| n >= ((p * n as f64).ceil() as usize).max(1) + MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

/// Median of a handful of repetitions (set-up times, probe passes). This
/// is a summary of repeated measurements, not a tail percentile, so the
/// rank rule does not apply.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Arithmetic mean (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// SplitMix64: a tiny seeded generator, so the benchmark's inputs are a
/// pure function of `--seed` and never of the program's own RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` salted by `stream`, so independent input
    /// streams of one workload do not share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_rule_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 0.9),
            None,
            "99 samples leave only 9 beyond p90"
        );
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), None);
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
    }

    #[test]
    fn min_samples_matches_rank_rule() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.99), 1000);
        for p in [0.5, 0.9, 0.99] {
            let n = min_samples(p);
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(percentile(&xs, p).is_some());
            assert!(percentile(&xs[..n - 1], p).is_none());
        }
    }

    #[test]
    fn blocks_group_by_time() {
        let at = [0.1, 1.2, 0.4, 2.6, 1.0, 0.49];
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(
            blocks(&at, &xs, 0.5),
            vec![vec![1.0, 3.0, 6.0], vec![2.0, 5.0], vec![4.0]]
        );
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = {
            let mut g = SplitMix::new(7, 1);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut g = SplitMix::new(7, 1);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut g = SplitMix::new(8, 1);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut g = SplitMix::new(7, 2);
            (0..4).map(|_| g.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}
