//! Feature selection: the paper's greedy forward search and the VIF-based
//! collinearity pruning of the FFC design (Section IV-B/IV-C).

use pidpiper_math::{vif_all, Matrix};

/// Greedy forward feature selection (paper Section IV-B, step 2):
///
/// > "We start with having a single feature in the model, and on every
/// > iteration we add a new feature, and measure the model accuracy. We
/// > stop when the accuracy saturates."
///
/// `evaluate` receives a candidate feature subset (indices into the full
/// feature catalogue) and returns its validation error (lower = better).
/// Selection stops when the best single-feature addition improves the
/// error by less than `min_improvement` (relative), or when all features
/// are selected.
///
/// Returns the selected indices in the order they were added.
///
/// # Examples
///
/// ```
/// use pidpiper_ml::greedy_forward_selection;
///
/// // Error = 10 minus #useful features included (features 0 and 2 useful).
/// let useful = [0usize, 2];
/// let selected = greedy_forward_selection(4, 0.01, |subset| {
///     10.0 - subset.iter().filter(|i| useful.contains(i)).count() as f64
/// });
/// assert!(selected.contains(&0) && selected.contains(&2));
/// ```
pub fn greedy_forward_selection<F>(
    n_features: usize,
    min_improvement: f64,
    mut evaluate: F,
) -> Vec<usize>
where
    F: FnMut(&[usize]) -> f64,
{
    assert!(n_features > 0, "need at least one candidate feature");
    let mut selected: Vec<usize> = Vec::new();
    let mut remaining: Vec<usize> = (0..n_features).collect();
    let mut best_error = f64::INFINITY;

    while !remaining.is_empty() {
        let mut round_best: Option<(usize, f64)> = None;
        for (pos, &cand) in remaining.iter().enumerate() {
            let mut trial = selected.clone();
            trial.push(cand);
            let err = evaluate(&trial);
            if round_best.map(|(_, e)| err < e).unwrap_or(true) {
                round_best = Some((pos, err));
            }
        }
        let Some((pos, err)) = round_best else {
            // Unreachable while `remaining` is non-empty; terminate
            // rather than panic if that invariant ever breaks.
            break;
        };
        let improved = if best_error.is_infinite() {
            true
        } else {
            err < best_error * (1.0 - min_improvement)
        };
        if !improved {
            break;
        }
        best_error = err;
        selected.push(remaining.remove(pos));
    }
    selected
}

/// VIF-based collinearity pruning (paper Section IV-C, Equations 2–3):
/// drops every feature whose Variance Inflation Factor against the other
/// candidates exceeds `vif_threshold` (the paper uses the standard cut-off
/// of 10). Features the caller marks as `protected` (e.g. the target
/// state `u(t)`, which the model must keep) are never dropped.
///
/// Returns the retained feature indices (original order preserved).
///
/// `observations` is row-major: one row per time sample, one column per
/// feature.
///
/// # Panics
///
/// Panics if `observations` has fewer than 3 rows.
pub fn vif_prune(observations: &Matrix, vif_threshold: f64, protected: &[usize]) -> Vec<usize> {
    assert!(observations.rows() >= 3, "need at least 3 observations");
    let n = observations.cols();
    let mut retained: Vec<usize> = (0..n).collect();

    // Iteratively drop the worst offender (standard practice: VIF values
    // change as columns are removed).
    loop {
        if retained.len() <= 1 {
            break;
        }
        // Build the sub-matrix of retained columns.
        let rows: Vec<Vec<f64>> = (0..observations.rows())
            .map(|r| retained.iter().map(|&c| observations[(r, c)]).collect())
            .collect();
        let sub = Matrix::from_rows(&rows);
        let vifs = vif_all(&sub);
        // Find the highest VIF among non-protected features.
        let worst = vifs
            .iter()
            .enumerate()
            .filter(|(i, _)| !protected.contains(&retained[*i]))
            .max_by(|a, b| a.1.total_cmp(b.1));
        match worst {
            Some((idx, &v)) if v > vif_threshold => {
                retained.remove(idx);
            }
            _ => break,
        }
    }
    retained
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn greedy_stops_at_saturation() {
        // Only feature 1 helps; adding anything else changes nothing.
        let selected =
            greedy_forward_selection(
                5,
                0.01,
                |subset| {
                    if subset.contains(&1) {
                        1.0
                    } else {
                        5.0
                    }
                },
            );
        assert_eq!(selected, vec![1], "selection should stop after saturation");
    }

    #[test]
    fn greedy_orders_by_usefulness() {
        // Feature i reduces error by weight[i].
        let weights = [0.5, 3.0, 1.0, 0.1];
        let selected = greedy_forward_selection(4, 0.001, |subset| {
            10.0 - subset.iter().map(|&i| weights[i]).sum::<f64>()
        });
        assert_eq!(selected[0], 1, "most useful feature first");
        assert_eq!(selected[1], 2);
    }

    #[test]
    fn vif_prune_drops_collinear_keeps_independent() {
        let mut rng = StdRng::seed_from_u64(10);
        let n = 300;
        let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0_f64)).collect();
        let b: Vec<f64> = a
            .iter()
            .map(|x| 2.0 * x + rng.gen_range(-0.01..0.01))
            .collect();
        let c: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0_f64)).collect();
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![a[i], b[i], c[i]]).collect();
        let m = Matrix::from_rows(&rows);
        let kept = vif_prune(&m, 10.0, &[]);
        // Exactly one of the collinear pair {0, 1} must be dropped.
        assert_eq!(kept.len(), 2);
        assert!(kept.contains(&2), "independent feature must survive");
        assert!(kept.contains(&0) ^ kept.contains(&1));
    }

    #[test]
    fn vif_prune_respects_protection() {
        let mut rng = StdRng::seed_from_u64(20);
        let n = 300;
        let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0_f64)).collect();
        let b: Vec<f64> = a.iter().map(|x| x + rng.gen_range(-0.01..0.01)).collect();
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![a[i], b[i]]).collect();
        let m = Matrix::from_rows(&rows);
        // Protect column 0: column 1 must be the one dropped.
        let kept = vif_prune(&m, 10.0, &[0]);
        assert_eq!(kept, vec![0]);
    }

    #[test]
    fn vif_prune_keeps_everything_when_independent() {
        let mut rng = StdRng::seed_from_u64(30);
        let n = 200;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0_f64)).collect())
            .collect();
        let m = Matrix::from_rows(&rows);
        assert_eq!(vif_prune(&m, 10.0, &[]), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn greedy_rejects_zero_features() {
        let _ = greedy_forward_selection(0, 0.01, |_| 0.0);
    }
}
