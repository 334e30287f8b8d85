//! Small statistics helpers shared by the experiment harnesses.

/// Pearson correlation coefficient of two equal-length samples.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "pearson: length mismatch");
    let n = a.len() as f64;
    if a.is_empty() {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
    let denom = (va * vb).sqrt();
    if denom < 1e-300 {
        0.0
    } else {
        cov / denom
    }
}

/// Mean of a sample (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Empirical CDF evaluation points: returns `(sorted values, cumulative
/// fractions)` suitable for printing figure data. NaN samples order last
/// via `total_cmp` instead of panicking the sort.
pub fn ecdf(xs: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let fracs = (1..=v.len()).map(|i| i as f64 / n).collect();
    (v, fracs)
}

/// Fraction of points in quadrants I and III (positive product) — the
/// Figure-18(b) statistic.
pub fn quadrant13_fraction(points: &[(f64, f64)]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    points.iter().filter(|(x, y)| x * y > 0.0).count() as f64 / points.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_correlation() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        let c = [-1.0, -2.0, -3.0, -4.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_independent_near_zero() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.0, -1.0, 1.0, -1.0];
        assert!(pearson(&a, &b).abs() < 0.5);
    }

    #[test]
    fn pearson_constant_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn ecdf_shape() {
        let (v, f) = ecdf(&[3.0, 1.0, 2.0]);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
        assert!((f[2] - 1.0).abs() < 1e-12);
        assert!((f[0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ecdf_orders_nan_last() {
        let (v, f) = ecdf(&[2.0, f64::NAN, 1.0]);
        assert_eq!(&v[..2], &[1.0, 2.0]);
        assert!(v[2].is_nan());
        assert_eq!(f, vec![1.0 / 3.0, 2.0 / 3.0, 1.0]);
    }

    #[test]
    fn quadrant_fraction() {
        let pts = [(1.0, 1.0), (-1.0, -2.0), (1.0, -1.0), (0.0, 5.0)];
        assert!((quadrant13_fraction(&pts) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }
}
