//! Critical-connection search (§4.2, Figure 6 / Eqs. 4–9).
//!
//! We optimize a fractional incidence mask `W ∈ [0,1]^{|E|×|V|}` so that
//!
//! ```text
//! min ℓ(W) = D(Y_W, Y_I) + λ₁·‖W‖ + λ₂·H(W)      s.t. 0 ≤ W_ev ≤ I_ev
//! ```
//!
//! * `D` — output similarity when features are damped by the mask
//!   (KL divergence for discrete outputs, MSE for continuous, Eq. 6),
//! * `‖W‖` — conciseness: Σ|W_ev| (Eq. 7),
//! * `H(W)` — determinism: binary entropy pushing each mask to 0 or 1
//!   (Eq. 8).
//!
//! The constraint is enforced with the gating of Eq. 9:
//! `W = I ∘ sigmoid(W′)` — we only parameterize logits for *existing*
//! connections, so `W_ev = 0` wherever `I_ev = 0` by construction.
//!
//! A *high* surviving mask value marks a connection whose damping would
//! change the system output a lot — a **critical** connection.

use metis_nn::tape::{sum, Tape, Var};
use metis_nn::{Adam, Optimizer, ParamGrad};
use std::cmp::Ordering;

/// What the system's masked output represents, selecting the `D` metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputKind {
    /// Probability vectors (possibly several distributions concatenated):
    /// compared with KL divergence `Σ Y_W ln(Y_W / Y_I)`.
    Discrete,
    /// Real-valued outputs: compared with squared error `Σ (Y_W − Y_I)²`.
    Continuous,
}

/// A system whose output can be recomputed under a connection mask.
///
/// `mask[i]` aligns with the `i`-th entry of
/// [`crate::structure::Hypergraph::connections`] of the formulated system.
/// Implementations damp the corresponding input features and rebuild their
/// output *on the tape* so gradients flow back to the mask.
pub trait MaskedSystem {
    /// Number of maskable connections.
    fn n_connections(&self) -> usize;

    /// Reference output `Y_I` (all-ones mask).
    fn reference_output(&self) -> Vec<f64>;

    /// Output under the given mask, recorded on `tape`.
    fn masked_output<'t>(&self, tape: &'t Tape, mask: &[Var<'t>]) -> Vec<Var<'t>>;

    /// Which `D` to use.
    fn output_kind(&self) -> OutputKind;

    /// Value of the similarity term `D(Y_W, Y_I)` (Eq. 6) and its gradient
    /// with respect to the mask values, against a precomputed reference.
    ///
    /// The default records one scalar tape over the full
    /// [`MaskedSystem::masked_output`] — correct for monolithic systems
    /// whose output couples every connection (RouteNet message passing).
    /// Row-separable systems (one independent output block per
    /// observation, e.g. [`crate::nnmask::MaskedMlp`]) override this with
    /// a thread-sharded evaluation whose result is **bit-identical for any
    /// thread count** (per-row gradients merged in row order).
    fn d_value_grad(&self, mask: &[f64], reference: &[f64], _threads: usize) -> (f64, Vec<f64>) {
        let tape = Tape::new();
        let mask_vars = tape.vars(mask);
        let output = self.masked_output(&tape, &mask_vars);
        assert_eq!(
            output.len(),
            reference.len(),
            "masked_output length must match reference_output"
        );
        let d = d_term(&tape, &output, reference, self.output_kind());
        let grads = d.grad();
        (d.value(), mask_vars.iter().map(|v| grads.wrt(*v)).collect())
    }
}

/// Eq.-6 similarity between a masked output on a tape and the reference.
pub(crate) fn d_term<'t>(
    tape: &'t Tape,
    output: &[Var<'t>],
    reference: &[f64],
    kind: OutputKind,
) -> Var<'t> {
    let terms: Vec<Var<'t>> = match kind {
        OutputKind::Discrete => output
            .iter()
            .zip(reference.iter())
            .map(|(yw, &yi)| {
                // y_w ln(y_w / y_i); reference floored for safety.
                let ratio = *yw / yi.max(1e-12);
                *yw * ratio.ln()
            })
            .collect(),
        OutputKind::Continuous => output
            .iter()
            .zip(reference.iter())
            .map(|(yw, &yi)| (*yw - yi).square())
            .collect(),
    };
    sum(tape, &terms)
}

/// Adam step size on the gating logits.
const LEARNING_RATE: f64 = 0.05;

/// Initial logit for all connections. 0.0 (mask 0.5) sits at the saddle
/// of the entropy term, so the similarity and conciseness terms pick each
/// connection's direction before the determinism term locks it toward 0
/// or 1. Starting near a pole instead lets H(W) freeze every mask at that
/// pole — the degenerate interpretation the paper's Eq. 8 discussion
/// warns about.
const INIT_LOGIT: f64 = 0.0;

/// Fraction of steps during which λ₂ is held at 0. Early in the search
/// the D residual is large and briefly drags even unimportant masks
/// upward; Adam's scale-invariant steps mean they climb as fast as the
/// truly critical ones. Holding the determinism term off until the
/// D-vs-λ₁ equilibrium settles prevents that transient from being frozen
/// at the W=1 pole.
const ENTROPY_WARMUP: f64 = 0.5;

/// Hyperparameters (paper Table 4: λ₁ = 0.25, λ₂ = 1 for RouteNet*). The
/// search's other settings are fixed: Adam at step size 0.05 on logits
/// that start at 0 (every mask at 0.5), with λ₂ held at 0 for the first
/// half of the steps.
#[derive(Debug, Clone)]
pub struct MaskConfig {
    pub lambda1: f64,
    pub lambda2: f64,
    pub steps: usize,
    /// Worker threads for the per-iteration `D` gradient of systems that
    /// shard it, such as [`crate::nnmask::MaskedMlp`] (0 = all cores).
    /// Results are **identical for any value**: work is sharded by
    /// observation block and merged back in row order.
    pub threads: usize,
}

impl Default for MaskConfig {
    fn default() -> Self {
        MaskConfig {
            lambda1: 0.25,
            lambda2: 1.0,
            steps: 300,
            threads: 0,
        }
    }
}

/// Result of the mask search.
#[derive(Debug, Clone)]
pub struct MaskResult {
    /// Final mask value per connection (same order as `connections()`).
    pub mask: Vec<f64>,
    /// Total loss per optimization step.
    pub loss_history: Vec<f64>,
    /// Final loss decomposition.
    pub final_d: f64,
    pub final_l1: f64,
    pub final_entropy: f64,
}

impl MaskResult {
    /// Connection indices sorted by descending mask value, ties in index
    /// order and NaN masks last.
    pub fn ranked(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.mask.len()).collect();
        idx.sort_by(|&a, &b| {
            let (wa, wb) = (self.mask[a], self.mask[b]);
            wa.is_nan()
                .cmp(&wb.is_nan())
                .then(wb.partial_cmp(&wa).unwrap_or(Ordering::Equal))
        });
        idx
    }

    /// `‖W‖ / ‖I‖`: mean mask value (the Fig.-30 y-axis).
    pub fn scale(&self) -> f64 {
        if self.mask.is_empty() {
            return 0.0;
        }
        self.mask.iter().sum::<f64>() / self.mask.len() as f64
    }

    /// Mean binary entropy of the mask (the other Fig.-30 y-axis).
    pub fn mean_entropy(&self) -> f64 {
        if self.mask.is_empty() {
            return 0.0;
        }
        metis_nn::loss::binary_entropy_sum(&self.mask) / self.mask.len() as f64
    }

    /// Fraction of masks in the "undetermined" middle band (Fig. 9a).
    pub fn median_fraction(&self, lo: f64, hi: f64) -> f64 {
        if self.mask.is_empty() {
            return 0.0;
        }
        self.mask.iter().filter(|&&m| m > lo && m < hi).count() as f64 / self.mask.len() as f64
    }
}

/// Binary entropy of one mask value with the tape's log clamping.
fn binary_entropy_val(w: f64) -> f64 {
    -(w * w.max(1e-300).ln() + (1.0 - w) * (1.0 - w).max(1e-300).ln())
}

/// `dH/dw` with the same clamping: `ln(1-w) − ln(w)`.
fn binary_entropy_grad(w: f64) -> f64 {
    (1.0 - w).max(1e-300).ln() - w.max(1e-300).ln()
}

/// Run the critical-connection search (Adam on the gating logits).
///
/// Each iteration evaluates the `D` term's mask gradient through
/// [`MaskedSystem::d_value_grad`] (batched/thread-sharded where the
/// system supports it), adds the closed-form ‖W‖ and `H(W)` gradients,
/// chains through the Eq.-9 sigmoid gate per connection in connection
/// order, and takes one Adam step. A unit test checks it against a
/// single-tape optimizer that records the gate, `D` and both penalties on
/// one tape per step.
pub fn optimize_mask<S: MaskedSystem>(system: &S, cfg: &MaskConfig) -> MaskResult {
    let n = system.n_connections();
    let reference = system.reference_output();
    let mut logits = vec![INIT_LOGIT; n];
    let mut opt = Adam::new(LEARNING_RATE);
    let mut loss_history = Vec::with_capacity(cfg.steps);
    let (mut final_d, mut final_l1, mut final_entropy) = (0.0, 0.0, 0.0);

    for step in 0..cfg.steps {
        let warmup_steps = ENTROPY_WARMUP * cfg.steps as f64;
        let l2_now = if (step as f64) < warmup_steps {
            0.0
        } else {
            cfg.lambda2
        };
        // Eq. 9 gate: W = sigmoid(W′), elementwise per connection.
        let mask: Vec<f64> = logits.iter().map(|&l| 1.0 / (1.0 + (-l).exp())).collect();

        let (d_val, d_grad) = system.d_value_grad(&mask, &reference, cfg.threads);
        assert_eq!(d_grad.len(), n, "d_value_grad: gradient length mismatch");

        // ‖W‖ (Eq. 7) and H(W) (Eq. 8) plus the per-connection chain rule
        // through the sigmoid gate.
        let (mut l1_val, mut ent_val) = (0.0, 0.0);
        let mut grad_vec = Vec::with_capacity(n);
        for (&w, &g) in mask.iter().zip(&d_grad) {
            l1_val += w;
            ent_val += binary_entropy_val(w);
            let dw_dlogit = w * (1.0 - w);
            let dl_dw = g + cfg.lambda1 + l2_now * binary_entropy_grad(w);
            grad_vec.push(dl_dw * dw_dlogit);
        }

        loss_history.push(d_val + l1_val * cfg.lambda1 + ent_val * l2_now);
        final_d = d_val;
        final_l1 = l1_val;
        final_entropy = ent_val;

        let mut params = [ParamGrad {
            param: &mut logits,
            grad: &mut grad_vec,
        }];
        opt.step(&mut params);
    }

    let mask = logits.iter().map(|&l| 1.0 / (1.0 + (-l).exp())).collect();
    MaskResult {
        mask,
        loss_history,
        final_d,
        final_l1,
        final_entropy,
    }
}

/// The pre-refactor optimizer, kept verbatim as the behavioural oracle
/// for [`optimize_mask`]: one scalar tape per step carrying the gate, the
/// D term, and both penalties. Gradients agree with the closed-form path
/// up to floating-point association, so parity is asserted on the
/// *ranked* masks.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn optimize_mask_single_tape<S: MaskedSystem>(
        system: &S,
        cfg: &MaskConfig,
    ) -> MaskResult {
        let n = system.n_connections();
        let reference = system.reference_output();
        let mut logits = vec![INIT_LOGIT; n];
        let mut opt = Adam::new(LEARNING_RATE);
        let mut loss_history = Vec::with_capacity(cfg.steps);
        let (mut final_d, mut final_l1, mut final_entropy) = (0.0, 0.0, 0.0);

        for step in 0..cfg.steps {
            let warmup_steps = ENTROPY_WARMUP * cfg.steps as f64;
            let l2_now = if (step as f64) < warmup_steps {
                0.0
            } else {
                cfg.lambda2
            };
            let tape = Tape::new();
            let logit_vars = tape.vars(&logits);
            let mask: Vec<Var<'_>> = logit_vars.iter().map(|v| v.sigmoid()).collect();

            let output = system.masked_output(&tape, &mask);
            assert_eq!(
                output.len(),
                reference.len(),
                "masked_output length must match reference_output"
            );
            let d = d_term(&tape, &output, &reference, system.output_kind());

            // ‖W‖ — Eq. 7 (masks are already in (0,1): |W| = W).
            let l1 = sum(&tape, &mask);

            // H(W) — Eq. 8.
            let ent_terms: Vec<Var<'_>> = mask.iter().map(|w| w.binary_entropy()).collect();
            let entropy = sum(&tape, &ent_terms);

            let loss = d + l1 * cfg.lambda1 + entropy * l2_now;
            loss_history.push(loss.value());
            final_d = d.value();
            final_l1 = l1.value();
            final_entropy = entropy.value();

            let grads = loss.grad();
            let mut grad_vec: Vec<f64> = logit_vars.iter().map(|v| grads.wrt(*v)).collect();
            let mut params = [ParamGrad {
                param: &mut logits,
                grad: &mut grad_vec,
            }];
            opt.step(&mut params);
        }

        let mask = logits.iter().map(|&l| 1.0 / (1.0 + (-l).exp())).collect();
        MaskResult {
            mask,
            loss_history,
            final_d,
            final_l1,
            final_entropy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linear toy system: output_j = Σ_c mask_c · a_jc · x_c, continuous.
    /// Connections with large |a·x| contributions are "critical".
    struct LinearSystem {
        /// contributions[j][c]
        contributions: Vec<Vec<f64>>,
    }

    impl MaskedSystem for LinearSystem {
        fn n_connections(&self) -> usize {
            self.contributions[0].len()
        }

        fn reference_output(&self) -> Vec<f64> {
            self.contributions
                .iter()
                .map(|row| row.iter().sum())
                .collect()
        }

        fn masked_output<'t>(&self, tape: &'t Tape, mask: &[Var<'t>]) -> Vec<Var<'t>> {
            self.contributions
                .iter()
                .map(|row| {
                    let terms: Vec<Var<'t>> =
                        row.iter().zip(mask.iter()).map(|(&a, m)| *m * a).collect();
                    sum(tape, &terms)
                })
                .collect()
        }

        fn output_kind(&self) -> OutputKind {
            OutputKind::Continuous
        }
    }

    fn toy() -> LinearSystem {
        // Connection 0 dominates the output; connections 1, 2 are noise.
        LinearSystem {
            contributions: vec![vec![10.0, 0.05, 0.02]],
        }
    }

    #[test]
    fn critical_connection_survives_unimportant_pruned() {
        let result = optimize_mask(&toy(), &MaskConfig::default());
        assert!(
            result.mask[0] > 0.9,
            "critical connection should stay on: {:?}",
            result.mask
        );
        assert!(
            result.mask[1] < 0.1 && result.mask[2] < 0.1,
            "noise connections should be suppressed: {:?}",
            result.mask
        );
    }

    /// The refactored per-connection optimizer must agree with the
    /// retained single-tape oracle: same ranking, near-identical masks.
    #[test]
    fn new_optimizer_matches_single_tape_reference() {
        let sys = LinearSystem {
            contributions: vec![vec![8.0, 3.0, 1.0, 0.3, 0.05]],
        };
        let cfg = MaskConfig::default();
        let new = optimize_mask(&sys, &cfg);
        let old = reference::optimize_mask_single_tape(&sys, &cfg);
        assert_eq!(new.ranked(), old.ranked());
        for (a, b) in new.mask.iter().zip(old.mask.iter()) {
            assert!((a - b).abs() < 1e-6, "mask drift: {a} vs {b}");
        }
        assert!((new.final_d - old.final_d).abs() < 1e-6);
        assert!((new.final_l1 - old.final_l1).abs() < 1e-9);
        assert!((new.final_entropy - old.final_entropy).abs() < 1e-9);
    }

    #[test]
    fn masks_respect_unit_interval() {
        let result = optimize_mask(&toy(), &MaskConfig::default());
        assert!(result.mask.iter().all(|&m| m > 0.0 && m < 1.0));
    }

    #[test]
    fn loss_decreases() {
        let result = optimize_mask(
            &toy(),
            &MaskConfig {
                steps: 200,
                ..Default::default()
            },
        );
        let first = result.loss_history[0];
        let last = *result.loss_history.last().unwrap();
        assert!(last < first, "loss should decrease: {first} -> {last}");
    }

    #[test]
    fn lambda1_shrinks_masks() {
        // Figure 29(a): increasing λ₁ penalizes ‖W‖ and shifts the mask CDF
        // downward.
        let lo = optimize_mask(
            &toy(),
            &MaskConfig {
                lambda1: 0.05,
                ..Default::default()
            },
        );
        let hi = optimize_mask(
            &toy(),
            &MaskConfig {
                lambda1: 2.0,
                ..Default::default()
            },
        );
        assert!(
            hi.scale() < lo.scale(),
            "higher lambda1 must shrink scale: {} vs {}",
            hi.scale(),
            lo.scale()
        );
    }

    #[test]
    fn lambda2_reduces_median_masks() {
        // Figure 29(b): higher λ₂ pushes masks toward {0,1}.
        let sys = LinearSystem {
            contributions: vec![vec![2.0, 1.5, 1.0, 0.75, 0.5, 0.25, 0.1, 0.05]],
        };
        let lo = optimize_mask(
            &sys,
            &MaskConfig {
                lambda2: 0.0,
                steps: 400,
                ..Default::default()
            },
        );
        let hi = optimize_mask(
            &sys,
            &MaskConfig {
                lambda2: 3.0,
                steps: 400,
                ..Default::default()
            },
        );
        assert!(
            hi.mean_entropy() <= lo.mean_entropy() + 1e-9,
            "higher lambda2 must reduce entropy: {} vs {}",
            hi.mean_entropy(),
            lo.mean_entropy()
        );
    }

    #[test]
    fn discrete_kl_system() {
        /// Two-way distribution steered by one connection; masking it moves
        /// probability mass, which KL penalizes.
        struct DistSystem;
        impl MaskedSystem for DistSystem {
            fn n_connections(&self) -> usize {
                2
            }
            fn reference_output(&self) -> Vec<f64> {
                vec![0.8, 0.2]
            }
            fn masked_output<'t>(&self, tape: &'t Tape, mask: &[Var<'t>]) -> Vec<Var<'t>> {
                // p0 = (0.8·m0 + eps) / norm; p1 = (0.2·m1 + eps) / norm
                let a = mask[0] * 0.8 + 1e-6;
                let b = mask[1] * 0.2 + 1e-6;
                let norm = a + b;
                let _ = tape;
                vec![a / norm, b / norm]
            }
            fn output_kind(&self) -> OutputKind {
                OutputKind::Discrete
            }
        }
        let result = optimize_mask(
            &DistSystem,
            &MaskConfig {
                steps: 400,
                ..Default::default()
            },
        );
        // The dominant-mass connection must rank first.
        assert_eq!(result.ranked()[0], 0);
        assert!(result.final_d.is_finite());
    }

    #[test]
    fn ranked_orders_by_mask() {
        let r = MaskResult {
            mask: vec![0.2, 0.9, 0.5],
            loss_history: vec![],
            final_d: 0.0,
            final_l1: 0.0,
            final_entropy: 0.0,
        };
        assert_eq!(r.ranked(), vec![1, 2, 0]);
        assert!((r.scale() - (0.2 + 0.9 + 0.5) / 3.0).abs() < 1e-12);
        assert!((r.median_fraction(0.3, 0.7) - 1.0 / 3.0).abs() < 1e-12);
        // A NaN mask ranks last instead of panicking; ties keep index order.
        let r = MaskResult {
            mask: vec![0.2, f64::NAN, 0.9, 0.2],
            ..r
        };
        assert_eq!(r.ranked(), vec![2, 0, 3, 1]);
    }
}
