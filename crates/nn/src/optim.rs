//! First-order optimizers operating on flat (param, grad) slice pairs.
//!
//! Optimizers are stateful (Adam's moments) and identify parameter
//! tensors positionally: callers must pass the same tensor list, in the same
//! order, on every step — which `Mlp::params()` guarantees.

use crate::layer::ParamGrad;

/// Common interface for all optimizers.
pub trait Optimizer {
    /// Apply one update step given freshly accumulated gradients.
    fn step(&mut self, params: &mut [ParamGrad<'_>]);
    /// Current learning rate.
    fn learning_rate(&self) -> f64;
    /// Replace the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f64);
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999) and eps 1e-8.
    pub fn new(lr: f64) -> Self {
        Self::with_betas(lr, 0.9, 0.999)
    }

    pub fn with_betas(lr: f64, beta1: f64, beta2: f64) -> Self {
        assert!(lr > 0.0 && (0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        Adam {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    fn ensure_state(&mut self, params: &[ParamGrad<'_>]) {
        if self.m.len() != params.len() {
            self.m = params.iter().map(|pg| vec![0.0; pg.param.len()]).collect();
            self.v = params.iter().map(|pg| vec![0.0; pg.param.len()]).collect();
            self.t = 0;
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [ParamGrad<'_>]) {
        self.ensure_state(params);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, pg) in params.iter_mut().enumerate() {
            let (m, v) = (&mut self.m[i], &mut self.v[i]);
            for (j, (p, &g)) in pg.param.iter_mut().zip(pg.grad.iter()).enumerate() {
                m[j] = self.beta1 * m[j] + (1.0 - self.beta1) * g;
                v[j] = self.beta2 * v[j] + (1.0 - self.beta2) * g * g;
                let m_hat = m[j] / bc1;
                let v_hat = v[j] / bc2;
                *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

/// Clip every gradient tensor to a maximum L2 norm (computed jointly over
/// all tensors), the standard stabilizer for policy-gradient training.
pub fn clip_grad_norm(params: &mut [ParamGrad<'_>], max_norm: f64) -> f64 {
    let total: f64 = params
        .iter()
        .map(|pg| pg.grad.iter().map(|g| g * g).sum::<f64>())
        .sum::<f64>()
        .sqrt();
    if total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        for pg in params.iter_mut() {
            for g in pg.grad.iter_mut() {
                *g *= scale;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)^2 with `opt`; it must converge.
    fn run_quadratic(opt: &mut dyn Optimizer, steps: usize) -> f64 {
        let mut x = [0.0_f64];
        let mut g = [0.0_f64];
        for _ in 0..steps {
            g[0] = 2.0 * (x[0] - 3.0);
            let mut params = [ParamGrad {
                param: &mut x,
                grad: &mut g,
            }];
            opt.step(&mut params);
        }
        x[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = run_quadratic(&mut Adam::new(0.3), 300);
        assert!((x - 3.0).abs() < 1e-3, "adam ended at {x}");
    }

    #[test]
    fn adam_is_scale_invariant_at_start() {
        // Adam's first step size is exactly lr regardless of gradient scale.
        for scale in [1.0, 1000.0] {
            let mut x = [0.0_f64];
            let mut g = [scale];
            let mut opt = Adam::new(0.1);
            let mut params = [ParamGrad {
                param: &mut x,
                grad: &mut g,
            }];
            opt.step(&mut params);
            assert!(
                (x[0] + 0.1).abs() < 1e-6,
                "first adam step should be -lr, got {}",
                x[0]
            );
        }
    }

    #[test]
    fn clip_grad_norm_scales_down_only_when_needed() {
        let mut p1 = [0.0];
        let mut g1 = [3.0];
        let mut p2 = [0.0];
        let mut g2 = [4.0];
        {
            let mut params = [
                ParamGrad {
                    param: &mut p1,
                    grad: &mut g1,
                },
                ParamGrad {
                    param: &mut p2,
                    grad: &mut g2,
                },
            ];
            let norm = clip_grad_norm(&mut params, 1.0);
            assert!((norm - 5.0).abs() < 1e-12);
        }
        assert!((g1[0] - 0.6).abs() < 1e-12);
        assert!((g2[0] - 0.8).abs() < 1e-12);
        // Below the limit: unchanged.
        {
            let mut params = [ParamGrad {
                param: &mut p1,
                grad: &mut g1,
            }];
            clip_grad_norm(&mut params, 10.0);
        }
        assert!((g1[0] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn set_learning_rate_roundtrip() {
        let mut o = Adam::new(0.1);
        o.set_learning_rate(0.01);
        assert_eq!(o.learning_rate(), 0.01);
    }
}
