//! The [`Network`] trait: anything trainable by gradient descent with a
//! batched forward/backward interface.
//!
//! [`crate::net::Mlp`] covers the plain models in the reproduction, but the
//! paper's §6.2 experiment modifies Pensieve's *architecture* (a skip
//! connection feeding the last-bitrate input straight to the output layer,
//! Figure 10). Custom architectures implement this trait and plug into the
//! same RL trainer as ordinary MLPs.

use crate::layer::ParamGrad;
use crate::matrix::Matrix;

/// A differentiable network with explicit forward/backward passes.
pub trait Network: Clone {
    /// Training forward pass over a `(batch, in_dim)` input (caches
    /// whatever the backward pass needs).
    fn forward(&mut self, input: &Matrix) -> Matrix;

    /// Inference-only forward pass over a `(batch, in_dim)` input as one
    /// matrix-matrix pass (no caches, shared receiver). The layer kernels
    /// guarantee that row `i` of the output is bit-identical to `predict`
    /// of row `i`.
    fn forward_inference(&self, input: &Matrix) -> Matrix;

    /// Backward pass from the output gradient; accumulates parameter
    /// gradients and returns dL/d(input).
    fn backward(&mut self, grad_out: &Matrix) -> Matrix;

    /// Reset accumulated gradients.
    fn zero_grad(&mut self);

    /// All (param, grad) pairs in a stable order for the optimizer.
    fn params(&mut self) -> Vec<ParamGrad<'_>>;

    /// Input width.
    fn in_dim(&self) -> usize;

    /// Output width.
    fn out_dim(&self) -> usize;

    /// Run inference on a single feature vector.
    fn predict(&self, features: &[f64]) -> Vec<f64> {
        self.forward_inference(&Matrix::row_vector(features))
            .data()
            .to_vec()
    }

    /// Batched [`Network::predict`]: one row per observation.
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Matrix {
        self.forward_inference(&Matrix::from_rows_vec(rows))
    }

    /// [`Network::forward_inference`] sharded across `threads` workers
    /// (0 = all cores) in fixed 32-row blocks merged in row order. Rows
    /// are independent, so the output is **bit-identical to
    /// `forward_inference` for any thread count** — the deterministic way
    /// to throw cores at large labelling batches (fidelity evaluation,
    /// dataset relabelling).
    fn forward_batch_threads(&self, input: &Matrix, threads: usize) -> Matrix
    where
        Self: Sync,
    {
        const BLOCK: usize = 32;
        let rows = input.rows();
        if rows <= BLOCK {
            return self.forward_inference(input);
        }
        let n_blocks = rows.div_ceil(BLOCK);
        let blocks = crate::par::parallel_map_indexed(n_blocks, threads, |b| {
            let lo = b * BLOCK;
            let hi = (lo + BLOCK).min(rows);
            self.forward_inference(&input.row_block(lo, hi))
        });
        let mut out = Matrix::zeros(rows, blocks[0].cols());
        let mut r = 0;
        for block in blocks {
            for i in 0..block.rows() {
                out.row_mut(r).copy_from_slice(block.row(i));
                r += 1;
            }
        }
        out
    }
}

impl Network for crate::net::Mlp {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        crate::net::Mlp::forward(self, input)
    }

    fn forward_inference(&self, input: &Matrix) -> Matrix {
        crate::net::Mlp::forward_inference(self, input)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        crate::net::Mlp::backward(self, grad_out)
    }

    fn zero_grad(&mut self) {
        crate::net::Mlp::zero_grad(self)
    }

    fn params(&mut self) -> Vec<ParamGrad<'_>> {
        crate::net::Mlp::params(self)
    }

    fn in_dim(&self) -> usize {
        crate::net::Mlp::in_dim(self)
    }

    fn out_dim(&self) -> usize {
        crate::net::Mlp::out_dim(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use crate::net::Mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn generic_roundtrip<N: Network>(net: &mut N, x: &Matrix) -> Matrix {
        let y = net.forward(x);
        net.zero_grad();
        net.backward(&y);
        net.forward_inference(x)
    }

    #[test]
    fn forward_batch_threads_matches_forward_inference_bitwise() {
        let mut rng = StdRng::seed_from_u64(8);
        let mlp = Mlp::new(&[4, 9, 3], Activation::Tanh, Activation::Linear, &mut rng);
        let x = Matrix::from_fn(101, 4, |r, c| ((r * 4 + c) as f64 * 0.17).sin());
        let single = Network::forward_inference(&mlp, &x);
        for threads in [1, 2, 5] {
            assert_eq!(mlp.forward_batch_threads(&x, threads), single);
        }
    }

    #[test]
    fn mlp_satisfies_network() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mlp = Mlp::new(&[3, 4, 2], Activation::Tanh, Activation::Linear, &mut rng);
        let x = Matrix::row_vector(&[0.1, 0.2, 0.3]);
        let out = generic_roundtrip(&mut mlp, &x);
        assert_eq!(out.shape(), (1, 2));
        assert_eq!(Network::in_dim(&mlp), 3);
        assert_eq!(Network::out_dim(&mlp), 2);
        assert_eq!(
            Network::predict(&mlp, &[0.1, 0.2, 0.3]),
            out.data().to_vec()
        );
    }
}
