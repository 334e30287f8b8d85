//! Network layers with explicit forward/backward passes.
//!
//! Each layer caches whatever it needs from the forward pass; `backward`
//! accumulates parameter gradients (callers reset them via
//! [`Dense::zero_grad`]) and returns the gradient with respect to the
//! input, so layers compose by simple chaining.

use crate::init::Init;
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Elementwise activation functions.
///
/// `Tanh` is [`crate::tanh::tanh`], bit-identical to glibc's `tanh` on an
/// x86-64 FMA host but computed by this crate, so a network's outputs do
/// not depend on the host's libm. Slices go through
/// [`Activation::apply_in_place`], which runs `tanh` eight lanes at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    Relu,
    LeakyRelu,
    Tanh,
    Sigmoid,
    /// Identity (useful as a placeholder in configurable stacks).
    Linear,
}

impl Activation {
    /// Apply the activation.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
            Activation::Tanh => crate::tanh::tanh(x),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Linear => x,
        }
    }

    /// [`Activation::apply`] to every element of `xs`, bit for bit; `Tanh`
    /// runs the lane-parallel kernel.
    pub fn apply_in_place(self, xs: &mut [f64]) {
        match self {
            Activation::Tanh => crate::tanh::tanh_in_place(xs),
            _ => xs.iter_mut().for_each(|x| *x = self.apply(*x)),
        }
    }

    /// Derivative expressed in terms of the *output* `y = f(x)` where
    /// possible, falling back to the input for ReLU variants.
    #[inline]
    pub fn derivative(self, x: f64, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Linear => 1.0,
        }
    }
}

/// A pair of (parameter, gradient) mutable slices handed to optimizers.
pub struct ParamGrad<'a> {
    pub param: &'a mut [f64],
    pub grad: &'a mut [f64],
}

/// A fully-connected layer `y = x W + b` with optional activation.
///
/// `W` has shape `(in_dim, out_dim)`; inputs are `(batch, in_dim)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    w: Matrix,
    b: Vec<f64>,
    activation: Activation,
    #[serde(skip)]
    gw: Option<Matrix>,
    #[serde(skip)]
    gb: Vec<f64>,
    #[serde(skip)]
    cache_input: Option<Matrix>,
    #[serde(skip)]
    cache_pre: Option<Matrix>,
    #[serde(skip)]
    cache_out: Option<Matrix>,
}

impl Dense {
    /// Create a dense layer with the given initializer.
    pub fn new(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        init: Init,
        rng: &mut rand::rngs::StdRng,
    ) -> Self {
        Dense {
            w: init.sample(in_dim, out_dim, rng),
            b: vec![0.0; out_dim],
            activation,
            gw: None,
            gb: vec![],
            cache_input: None,
            cache_pre: None,
            cache_out: None,
        }
    }

    /// Create from explicit weights (tests, hand-built models).
    pub fn from_weights(w: Matrix, b: Vec<f64>, activation: Activation) -> Self {
        assert_eq!(
            w.cols(),
            b.len(),
            "Dense::from_weights: bias width mismatch"
        );
        Dense {
            w,
            b,
            activation,
            gw: None,
            gb: vec![],
            cache_input: None,
            cache_pre: None,
            cache_out: None,
        }
    }

    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    pub fn bias(&self) -> &[f64] {
        &self.b
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Number of learnable parameters.
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    fn ensure_grads(&mut self) {
        if self.gw.is_none() {
            self.gw = Some(Matrix::zeros(self.w.rows(), self.w.cols()));
        }
        if self.gb.len() != self.b.len() {
            self.gb = vec![0.0; self.b.len()];
        }
    }

    /// Forward pass; caches input and pre/post-activation for backward.
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        assert_eq!(
            input.cols(),
            self.w.rows(),
            "Dense::forward: input width {} != layer in_dim {}",
            input.cols(),
            self.w.rows()
        );
        let mut pre = input.matmul(&self.w);
        pre.add_row_broadcast(&self.b);
        let mut out = pre.clone();
        self.activation.apply_in_place(out.data_mut());
        self.cache_input = Some(input.clone());
        self.cache_pre = Some(pre);
        self.cache_out = Some(out.clone());
        out
    }

    /// Inference-only forward pass: no caches are written, `&self`
    /// receiver. Uses the fused kernel (bias + activation applied at tile
    /// write-back) — bit-identical to the unfused training forward.
    pub fn forward_inference(&self, input: &Matrix) -> Matrix {
        input.matmul_bias_act(&self.w, &self.b, self.activation)
    }

    /// Backward pass. Accumulates `gw`/`gb` and returns dL/d(input).
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        self.ensure_grads();
        let input = self
            .cache_input
            .as_ref()
            .expect("Dense::backward called before forward");
        let pre = self.cache_pre.as_ref().unwrap();
        let out = self.cache_out.as_ref().unwrap();
        // Chain through the activation: grad_pre = grad_out ⊙ f'(pre).
        let act = self.activation;
        let mut grad_pre = Matrix::zeros(grad_out.rows(), grad_out.cols());
        {
            let gp = grad_pre.data_mut();
            let elems = grad_out.data().iter().zip(pre.data()).zip(out.data());
            for (gp_i, ((&g, &x), &y)) in gp.iter_mut().zip(elems) {
                *gp_i = g * act.derivative(x, y);
            }
        }
        // dW = input^T * grad_pre ; db = column sums of grad_pre. The
        // transpose-fused kernels accumulate over the batch in row order,
        // so batched gradients bit-match per-obs accumulation.
        let gw_update = input.matmul_ta(&grad_pre);
        self.gw.as_mut().unwrap().add_assign(&gw_update);
        for (gb, s) in self.gb.iter_mut().zip(grad_pre.column_sums()) {
            *gb += s;
        }
        // dInput = grad_pre * W^T
        grad_pre.matmul_tb(&self.w)
    }

    /// Reset accumulated gradients to zero.
    pub fn zero_grad(&mut self) {
        if let Some(gw) = &mut self.gw {
            gw.fill_zero();
        }
        self.gb.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Hand (param, grad) slices to an optimizer.
    pub fn params(&mut self) -> Vec<ParamGrad<'_>> {
        self.ensure_grads();
        vec![
            ParamGrad {
                param: self.w.data_mut(),
                grad: self.gw.as_mut().unwrap().data_mut(),
            },
            ParamGrad {
                param: &mut self.b,
                grad: &mut self.gb,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn dense_forward_known_values() {
        let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let mut d = Dense::from_weights(w, vec![0.5, -0.5], Activation::Linear);
        let x = Matrix::row_vector(&[3.0, 4.0]);
        let y = d.forward(&x);
        assert_eq!(y, Matrix::row_vector(&[3.5, 7.5]));
    }

    #[test]
    fn dense_relu_clamps() {
        let w = Matrix::from_rows(&[&[1.0]]);
        let mut d = Dense::from_weights(w, vec![0.0], Activation::Relu);
        assert_eq!(
            d.forward(&Matrix::row_vector(&[-2.0])),
            Matrix::row_vector(&[0.0])
        );
        assert_eq!(
            d.forward(&Matrix::row_vector(&[2.0])),
            Matrix::row_vector(&[2.0])
        );
    }

    /// Finite-difference gradient check of the dense layer (weights, bias,
    /// and input gradient) under a quadratic loss.
    #[test]
    fn dense_gradcheck() {
        let mut rng = rng();
        for act in [
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::LeakyRelu,
            Activation::Linear,
        ] {
            let mut layer = Dense::new(3, 2, act, Init::XavierUniform, &mut rng);
            let x = Matrix::from_rows(&[&[0.3, -0.7, 0.5], &[1.1, 0.2, -0.4]]);
            // loss = 0.5 * sum(y^2) => dL/dy = y
            let y = layer.forward(&x);
            let gin = layer.backward(&y.clone());

            // check input gradient via finite differences
            let eps = 1e-6;
            for r in 0..x.rows() {
                for c in 0..x.cols() {
                    let mut xp = x.clone();
                    xp[(r, c)] += eps;
                    let mut xm = x.clone();
                    xm[(r, c)] -= eps;
                    let lp: f64 = layer
                        .forward_inference(&xp)
                        .data()
                        .iter()
                        .map(|v| 0.5 * v * v)
                        .sum();
                    let lm: f64 = layer
                        .forward_inference(&xm)
                        .data()
                        .iter()
                        .map(|v| 0.5 * v * v)
                        .sum();
                    let fd = (lp - lm) / (2.0 * eps);
                    assert!(
                        (fd - gin[(r, c)]).abs() < 1e-5,
                        "input grad mismatch for {act:?}: fd={fd}, got={}",
                        gin[(r, c)]
                    );
                }
            }
        }
    }

    #[test]
    fn dense_weight_gradcheck() {
        let mut rng = rng();
        let mut layer = Dense::new(2, 2, Activation::Tanh, Init::XavierUniform, &mut rng);
        let x = Matrix::from_rows(&[&[0.4, -0.2]]);
        let y = layer.forward(&x);
        let _ = layer.backward(&y.clone());
        let eps = 1e-6;
        // Perturb each weight, compare to accumulated gw.
        let w0 = layer.w.clone();
        let gw = layer.gw.clone().unwrap();
        for r in 0..w0.rows() {
            for c in 0..w0.cols() {
                let mut lp_layer = layer.clone();
                lp_layer.w[(r, c)] += eps;
                let mut lm_layer = layer.clone();
                lm_layer.w[(r, c)] -= eps;
                let lp: f64 = lp_layer
                    .forward_inference(&x)
                    .data()
                    .iter()
                    .map(|v| 0.5 * v * v)
                    .sum();
                let lm: f64 = lm_layer
                    .forward_inference(&x)
                    .data()
                    .iter()
                    .map(|v| 0.5 * v * v)
                    .sum();
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - gw[(r, c)]).abs() < 1e-5,
                    "weight grad mismatch at ({r},{c}): fd={fd}, got={}",
                    gw[(r, c)]
                );
            }
        }
    }

    #[test]
    fn dense_grad_accumulates_until_zeroed() {
        let mut rng = rng();
        let mut layer = Dense::new(2, 1, Activation::Linear, Init::XavierUniform, &mut rng);
        let x = Matrix::row_vector(&[1.0, 1.0]);
        let g = Matrix::row_vector(&[1.0]);
        layer.forward(&x);
        layer.backward(&g);
        let g1 = layer.gw.clone().unwrap();
        layer.forward(&x);
        layer.backward(&g);
        let g2 = layer.gw.clone().unwrap();
        assert!((g2[(0, 0)] - 2.0 * g1[(0, 0)]).abs() < 1e-12);
        layer.zero_grad();
        assert_eq!(layer.gw.unwrap().max_abs(), 0.0);
    }

    #[test]
    fn dense_serde_roundtrip_preserves_inference() {
        let mut rng = rng();
        let mut layer = Dense::new(4, 3, Activation::Tanh, Init::XavierUniform, &mut rng);
        let x = Matrix::row_vector(&[0.1, 0.2, 0.3, 0.4]);
        let y = layer.forward(&x);
        let json = serde_json::to_string(&layer).unwrap();
        let back: Dense = serde_json::from_str(&json).unwrap();
        assert_eq!(back.forward_inference(&x), y);
    }
}
