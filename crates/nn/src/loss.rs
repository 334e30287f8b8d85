//! Loss functions: softmax cross-entropy, which returns `(loss,
//! gradient-wrt-logits)` so callers can feed the gradient straight into
//! `Mlp::backward`, and the mask objective's binary entropy.

use crate::net::softmax;

/// Softmax cross-entropy against a one-hot target class.
///
/// Takes raw logits; the returned gradient is with respect to the logits
/// (the well-known `softmax - onehot` form).
pub fn softmax_cross_entropy(logits: &[f64], target: usize) -> (f64, Vec<f64>) {
    assert!(
        target < logits.len(),
        "softmax_cross_entropy: target out of range"
    );
    let probs = softmax(logits);
    let loss = -(probs[target].max(1e-12)).ln();
    let mut grad = probs;
    grad[target] -= 1.0;
    (loss, grad)
}

/// Binary entropy `H(w) = -(w ln w + (1-w) ln(1-w))`, summed over the slice.
/// This is the determinism term of the mask objective (Eq. 8).
pub fn binary_entropy_sum(w: &[f64]) -> f64 {
    w.iter()
        .map(|&x| {
            let x = x.clamp(1e-12, 1.0 - 1e-12);
            -(x * x.ln() + (1.0 - x) * (1.0 - x).ln())
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_gradient_is_softmax_minus_onehot() {
        let logits = [1.0, 2.0, 3.0];
        let (loss, grad) = softmax_cross_entropy(&logits, 2);
        let probs = softmax(&logits);
        assert!(loss > 0.0);
        assert!((grad[0] - probs[0]).abs() < 1e-12);
        assert!((grad[2] - (probs[2] - 1.0)).abs() < 1e-12);
        // gradient sums to zero
        assert!(grad.iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_perfect_prediction_small_loss() {
        let (loss, _) = softmax_cross_entropy(&[100.0, 0.0], 0);
        assert!(loss < 1e-9);
    }

    #[test]
    fn binary_entropy_maximal_at_half() {
        let h_half = binary_entropy_sum(&[0.5]);
        assert!((h_half - std::f64::consts::LN_2).abs() < 1e-12);
        assert!(binary_entropy_sum(&[0.01]) < h_half);
        assert!(binary_entropy_sum(&[0.0]) >= 0.0); // clamped, finite
        assert!(binary_entropy_sum(&[1.0]).is_finite());
    }
}
