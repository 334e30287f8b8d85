//! A sequential multi-layer perceptron built from [`Dense`] layers.
//!
//! This covers every "plain" network in the reproduction (value/critic nets,
//! AuTO's sRLA and lRLA, RouteNet readouts). Pensieve's two-tower
//! architecture with a skip connection is composed from raw layers in
//! `metis-abr`, using the same primitives.

use crate::init::Init;
use crate::layer::{Activation, Dense, ParamGrad};
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// A stack of dense layers applied in order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Build an MLP with the given layer widths, e.g. `[25, 128, 128, 6]`.
    ///
    /// Hidden layers use `hidden_act`; the final layer uses `out_act`
    /// (typically [`Activation::Linear`] and the caller applies softmax).
    pub fn new(
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut rand::rngs::StdRng,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "Mlp::new: need at least input and output dims"
        );
        let init = match hidden_act {
            Activation::Relu | Activation::LeakyRelu => Init::HeUniform,
            _ => Init::XavierUniform,
        };
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i + 2 == dims.len() {
                out_act
            } else {
                hidden_act
            };
            layers.push(Dense::new(dims[i], dims[i + 1], act, init, rng));
        }
        Mlp { layers }
    }

    /// Construct from pre-built layers.
    pub fn from_layers(layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty(), "Mlp::from_layers: empty layer list");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].out_dim(),
                pair[1].in_dim(),
                "Mlp::from_layers: adjacent layer dims mismatch"
            );
        }
        Mlp { layers }
    }

    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().out_dim()
    }

    /// Total learnable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Training forward pass (caches activations in each layer).
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Inference forward pass (no caches, shared receiver).
    pub fn forward_inference(&self, input: &Matrix) -> Matrix {
        let (first, rest) = self.layers.split_first().expect("Mlp has layers");
        let mut x = first.forward_inference(input);
        for layer in rest {
            x = layer.forward_inference(&x);
        }
        x
    }

    /// Convenience: run inference on a single feature vector.
    pub fn predict(&self, features: &[f64]) -> Vec<f64> {
        self.forward_inference(&Matrix::row_vector(features))
            .data()
            .to_vec()
    }

    /// Batched inference over many feature vectors as one matrix-matrix
    /// pass. Row `i` of the result is bit-identical to
    /// `self.predict(&rows[i])` (see [`Matrix::matmul`]).
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Matrix {
        self.forward_inference(&Matrix::from_rows_vec(rows))
    }

    /// The layer stack (read-only) — consumed by tape-replay paths such as
    /// the hypergraph mask search, which rebuild the forward pass with the
    /// weights as constants.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Backward pass from the output gradient; accumulates parameter
    /// gradients and returns dL/d(input).
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Reset all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// All (param, grad) pairs, in a stable order, for the optimizer.
    pub fn params(&mut self) -> Vec<ParamGrad<'_>> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    /// Serialized size in bytes (JSON), used by the deployment cost model.
    pub fn artifact_bytes(&self) -> usize {
        serde_json::to_vec(self).map(|v| v.len()).unwrap_or(0)
    }
}

/// Numerically-stable softmax of a slice.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

/// Row-wise softmax of a `(batch, n)` matrix. Each row is computed by the
/// same scalar routine as [`softmax`], so row `i` of the result is
/// bit-identical to `softmax(m.row(i))`.
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for r in 0..m.rows() {
        out.row_mut(r).copy_from_slice(&softmax(m.row(r)));
    }
    out
}

/// Index of the maximum element (first on ties).
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss;
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&[4, 8, 3], Activation::Tanh, Activation::Linear, &mut rng);
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 3);
        assert_eq!(mlp.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1000.0, 1000.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-12));
        let q = softmax(&[-1e9, 0.0]);
        assert!(q[1] > 0.999);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
    }

    #[test]
    fn forward_matches_inference() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut mlp = Mlp::new(&[3, 5, 2], Activation::Relu, Activation::Linear, &mut rng);
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3], &[-0.1, 0.0, 0.4]]);
        assert_eq!(mlp.forward(&x), mlp.forward_inference(&x));
    }

    /// End-to-end learning check: a small MLP must fit XOR, which requires
    /// a hidden layer (a linear model cannot represent it).
    #[test]
    fn mlp_learns_xor() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Sigmoid, &mut rng);
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = [0.0, 1.0, 1.0, 0.0];
        let mut opt = Adam::new(0.05);
        for _ in 0..800 {
            let out = mlp.forward(&x);
            let mut grad = Matrix::zeros(4, 1);
            for i in 0..4 {
                grad[(i, 0)] = out[(i, 0)] - y[i];
            }
            mlp.zero_grad();
            mlp.backward(&grad);
            opt.step(&mut mlp.params());
        }
        let out = mlp.forward_inference(&x);
        for i in 0..4 {
            assert!(
                (out[(i, 0)] - y[i]).abs() < 0.1,
                "xor not learned: sample {i} predicted {}",
                out[(i, 0)]
            );
        }
    }

    /// The full pipeline gradient must match finite differences through
    /// a softmax cross-entropy loss.
    #[test]
    fn mlp_end_to_end_gradcheck() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut mlp = Mlp::new(&[3, 4, 3], Activation::Tanh, Activation::Linear, &mut rng);
        let x = Matrix::row_vector(&[0.5, -0.3, 0.8]);
        let target = 1usize;

        let logits = mlp.forward(&x);
        let (_, grad) = loss::softmax_cross_entropy(logits.row(0), target);
        mlp.zero_grad();
        let gin = mlp.backward(&Matrix::row_vector(&grad));

        let eps = 1e-6;
        for c in 0..3 {
            let mut xp = x.clone();
            xp[(0, c)] += eps;
            let mut xm = x.clone();
            xm[(0, c)] -= eps;
            let (lp, _) = loss::softmax_cross_entropy(mlp.forward_inference(&xp).row(0), target);
            let (lm, _) = loss::softmax_cross_entropy(mlp.forward_inference(&xm).row(0), target);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gin[(0, c)]).abs() < 1e-5,
                "end-to-end grad mismatch at input {c}: fd={fd} got={}",
                gin[(0, c)]
            );
        }
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let mut rng = StdRng::seed_from_u64(29);
        let mlp = Mlp::new(&[4, 6, 2], Activation::Relu, Activation::Linear, &mut rng);
        let json = serde_json::to_string(&mlp).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        let x = [0.1, -0.5, 0.9, 0.0];
        // JSON float formatting may lose the last ULP; allow tiny drift.
        for (a, b) in mlp.predict(&x).iter().zip(back.predict(&x).iter()) {
            assert!((a - b).abs() < 1e-9, "serde drift: {a} vs {b}");
        }
        assert!(mlp.artifact_bytes() > 0);
    }
}
