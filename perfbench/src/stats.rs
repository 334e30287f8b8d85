//! Order statistics shared by every workload.

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`), the same
/// convention as NumPy's default. Returns NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Tail summary that stays steady on a shared host: split `samples` (in
/// arrival order) into consecutive windows of `window` samples, take each
/// window's p99, and report the median over windows. A trailing partial
/// window is dropped. With fewer samples than one window the whole-run
/// p99 is returned.
pub fn windowed_p99(samples: &[f64], window: usize) -> f64 {
    assert!(window > 0, "window must hold at least one sample");
    if samples.len() < window {
        return quantile(samples, 0.99);
    }
    let per_window: Vec<f64> = samples
        .chunks_exact(window)
        .map(|w| quantile(w, 0.99))
        .collect();
    median(&per_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_linearly() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.99) - 3.97).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn windowed_p99_takes_the_median_window() {
        // Three windows of 100 with tails of 10, 50 and a burst of 1000s.
        // A whole-run p99 lands in the burst; the windowed summary
        // reports the middle window.
        let mut samples = Vec::new();
        for (tail, n) in [(10.0, 2), (50.0, 2), (1000.0, 5)] {
            samples.extend(std::iter::repeat_n(1.0, 100 - n));
            samples.extend(std::iter::repeat_n(tail, n));
        }
        assert_eq!(windowed_p99(&samples, 100), 50.0);
        assert!(quantile(&samples, 0.99) > 50.0);
    }

    #[test]
    fn windowed_p99_drops_a_partial_window_and_falls_back_when_short() {
        let mut samples = vec![1.0; 200];
        samples.extend([1e9; 50]); // partial third window: ignored
        assert_eq!(windowed_p99(&samples, 100), 1.0);
        let short = [1.0, 2.0, 3.0];
        assert_eq!(windowed_p99(&short, 100), quantile(&short, 0.99));
    }
}
