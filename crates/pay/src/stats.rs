//! Small statistics helpers used by the allocation schemes and the online
//! estimator: medians (weights are medians of observed latencies, §5.2.2)
//! and simple linear least squares (the dual-weighted `z_i` fit, §5.2.2).

/// The median of a sample, or `None` when empty. Even-sized samples average
/// the two central order statistics.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    sorted_median(&sorted)
}

/// [`median`] of a sample already sorted ascending, read in place.
pub fn sorted_median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Ordinary least squares for `y ≈ a + b·x`. Returns `(a, b)`; `None` when
/// fewer than two points or when all `x` coincide.
pub fn linear_fit(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    let n = points.len() as f64;
    if points.len() < 2 {
        return None;
    }
    let sx: f64 = points.iter().map(|(x, _)| x).sum();
    let sy: f64 = points.iter().map(|(_, y)| y).sum();
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return None;
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    Some((a, b))
}

/// Fits the dual-weighted slope parameter `z` (paper §5.2.2): given the
/// per-rank completion times `t_1..t_n` for a key column, fit `t_k ≈ a + b·k`
/// and convert the relative slope into `z` such that linearly increasing
/// weights `(1−z)·y .. (1+z)·y` (mean `y`) are proportional to the fitted
/// line. Clamped to `[0, 1]` as the paper requires; `0` when the fit is
/// unavailable or the mean time is non-positive.
pub fn fit_z(times: &[f64]) -> f64 {
    let n = times.len();
    if n < 2 {
        return 0.0;
    }
    let points: Vec<(f64, f64)> = times
        .iter()
        .enumerate()
        .map(|(i, &t)| ((i + 1) as f64, t))
        .collect();
    let Some((_, slope)) = linear_fit(&points) else {
        return 0.0;
    };
    let mean: f64 = times.iter().sum::<f64>() / n as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    // Weight_k = (1 + 2z/(n−1)·(k − (n+1)/2))·y ∝ fitted t̂_k = t̄ + b(k − (n+1)/2)
    // ⇒ 2z/(n−1) = b/t̄ ⇒ z = b(n−1)/(2t̄).
    let z = slope * (n as f64 - 1.0) / (2.0 * mean);
    z.clamp(0.0, 1.0)
}

/// The dual-weighted multiplier for the `k`-th (1-based) of `n` cells:
/// `1 + 2z/(n−1)·(k − (n+1)/2)`, i.e. from `1−z` at `k=1` to `1+z` at `k=n`.
/// With `n ≤ 1` the multiplier is 1.
pub fn dual_multiplier(k: usize, n: usize, z: f64) -> f64 {
    if n <= 1 {
        return 1.0;
    }
    1.0 + 2.0 * z / (n as f64 - 1.0) * (k as f64 - (n as f64 + 1.0) / 2.0)
}

/// Mean absolute percentage error between paired (actual, estimate) values,
/// skipping pairs whose actual is zero. Returns `None` when nothing is
/// comparable. (The paper reports estimation accuracy as MAPE, §6.)
pub fn mape(pairs: &[(f64, f64)]) -> Option<f64> {
    let mut total = 0.0;
    let mut n = 0usize;
    for &(actual, est) in pairs {
        if actual.abs() < f64::EPSILON {
            continue;
        }
        total += ((est - actual) / actual).abs();
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some(total / n as f64 * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_resists_outliers() {
        assert_eq!(median(&[1.0, 1.0, 1.0, 1000.0]), Some(1.0));
    }

    #[test]
    fn linear_fit_exact_line() {
        let pts: Vec<(f64, f64)> = (1..=5).map(|k| (k as f64, 2.0 + 3.0 * k as f64)).collect();
        let (a, b) = linear_fit(&pts).unwrap();
        assert!((a - 2.0).abs() < 1e-9);
        assert!((b - 3.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_degenerate() {
        assert_eq!(linear_fit(&[]), None);
        assert_eq!(linear_fit(&[(1.0, 2.0)]), None);
        assert_eq!(linear_fit(&[(1.0, 2.0), (1.0, 5.0)]), None); // vertical
    }

    #[test]
    fn fit_z_flat_times_gives_zero() {
        assert_eq!(fit_z(&[5.0, 5.0, 5.0, 5.0]), 0.0);
        assert_eq!(fit_z(&[5.0]), 0.0);
        assert_eq!(fit_z(&[]), 0.0);
    }

    #[test]
    fn fit_z_increasing_times_gives_positive_z() {
        // t_k = k: t̄ = 2, b = 1, n = 3 ⇒ z = 1·2/(2·2) = 0.5.
        let z = fit_z(&[1.0, 2.0, 3.0]);
        assert!((z - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fit_z_clamps() {
        // Steeply super-linear growth: raw z = 50·2/(2·33.3) = 1.5 ⇒ clamps
        // at 1. (With n = 2 the raw z = (t2−t1)/(t2+t1) < 1 always.)
        assert_eq!(fit_z(&[0.0, 0.0, 100.0]), 1.0);
        // Decreasing: clamps at 0.
        assert_eq!(fit_z(&[100.0, 1.0]), 0.0);
    }

    #[test]
    fn dual_multiplier_endpoints_and_mean() {
        let n = 5;
        let z = 0.4;
        assert!((dual_multiplier(1, n, z) - 0.6).abs() < 1e-9);
        assert!((dual_multiplier(n, n, z) - 1.4).abs() < 1e-9);
        let mean: f64 = (1..=n).map(|k| dual_multiplier(k, n, z)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 1e-9, "weights must average to 1");
        assert_eq!(dual_multiplier(1, 1, z), 1.0);
    }

    #[test]
    fn mape_basic() {
        let m = mape(&[(10.0, 11.0), (10.0, 9.0)]).unwrap();
        assert!((m - 10.0).abs() < 1e-9);
        assert_eq!(mape(&[(0.0, 5.0)]), None);
        assert_eq!(mape(&[]), None);
    }
}
