//! §4 critical-connection search over **local** systems: a feature mask on
//! an MLP policy, evaluated over a batch of recorded observations.
//!
//! The paper's hypergraph formulation of a local system (§4.1) makes the
//! observation features the vertices and the decision the hyperedge, so a
//! connection is simply one input feature feeding the network; damping
//! connection `f` multiplies feature column `f` by the mask before the
//! forward pass. `D` compares the masked decision distribution (or raw
//! outputs) against the unmasked one, summed over the observation batch.
//!
//! Because rows (observations) are independent given the mask, the D term
//! is **row-separable**, and the gradient exploits it: each observation is
//! recorded on its own scalar [`Tape`] (the mask gates, one fused
//! [`Tape::affine`] row per unit of each layer, the softmax head and the
//! row's D), 64-row blocks of observations fan out across threads, and the
//! per-row D values and gradients are summed in global row order. That
//! order depends on neither the block size nor the thread count, so the
//! search is bit-identical for any thread count — the §4 mirror of the
//! conversion engine's batched-labelling parity contract. The network's
//! parameters are one flat block that each observation's tape copies once
//! ([`Tape::params`]), so a tape records no node per parameter and its
//! backward updates no parameter adjoint.

use crate::mask::{MaskedSystem, OutputKind};
use metis_nn::par::parallel_map_indexed;
use metis_nn::tape::{sum, Params, Tape, Var};
use metis_nn::{softmax_rows, Matrix, Mlp};

/// Observations per pool work item. Results are bit-identical for any
/// value (see the module docs); it only sets how much work one stripe
/// takes at a time.
const BLOCK_ROWS: usize = 64;

/// An MLP policy under a per-input-feature mask, evaluated over a batch
/// of observations. Implements [`MaskedSystem`], overriding the gradient
/// path with the thread-sharded per-observation evaluation.
pub struct MaskedMlp<'a> {
    net: &'a Mlp,
    /// Layer after layer, its bias, then its weights transposed to
    /// `out × in`, the row-major layout [`Tape::affine`] takes: the
    /// parameter block each observation's tape copies once.
    params: Vec<f64>,
    obs: Vec<Vec<f64>>,
    kind: OutputKind,
    /// Unmasked reference outputs (decision distributions for
    /// [`OutputKind::Discrete`], raw outputs otherwise), one row of the
    /// network's output width per observation.
    reference: Vec<f64>,
}

impl<'a> MaskedMlp<'a> {
    /// Formulate the masked system for `net` over recorded observations.
    /// `Discrete` applies a softmax head (policy networks, KL similarity);
    /// `Continuous` compares raw outputs (value nets, MSE).
    pub fn new(net: &'a Mlp, obs: Vec<Vec<f64>>, kind: OutputKind) -> Self {
        assert!(!obs.is_empty(), "MaskedMlp: empty observation batch");
        assert!(
            obs.iter().all(|o| o.len() == net.in_dim()),
            "MaskedMlp: observation width must match the network input"
        );
        let out = net.forward_inference(&Matrix::from_rows_vec(&obs));
        let reference = match kind {
            OutputKind::Discrete => softmax_rows(&out),
            OutputKind::Continuous => out,
        };
        let mut params = Vec::new();
        for layer in net.layers() {
            params.extend_from_slice(layer.bias());
            params.extend_from_slice(layer.weights().transpose().data());
        }
        MaskedMlp {
            net,
            params,
            obs,
            kind,
            reference: reference.data().to_vec(),
        }
    }

    /// Panics unless a mask of `len` values has one per input feature.
    fn check_mask_len(&self, len: usize) {
        assert_eq!(
            len,
            self.n_connections(),
            "MaskedMlp: mask length must equal the network's input feature count"
        );
    }

    /// Masked network output of one observation: the mask gates, one
    /// [`Tape::affine`] call per layer over `params`, this system's
    /// parameter block on `tape`, then the optional softmax head.
    fn masked_row<'t>(
        &self,
        tape: &'t Tape,
        params: Params<'t>,
        mask: &[Var<'t>],
        row: usize,
    ) -> Vec<Var<'t>> {
        let mut h: Vec<Var<'t>> = mask
            .iter()
            .zip(&self.obs[row])
            .map(|(m, &xi)| *m * xi)
            .collect();
        let mut next = Vec::new();
        let mut at = 0;
        for layer in self.net.layers() {
            let (outs, len) = (layer.out_dim(), layer.out_dim() * (1 + layer.in_dim()));
            let bias = params.range(at..at + outs);
            let weights = params.range(at + outs..at + len);
            at += len;
            tape.affine(layer.activation(), bias, weights, &h, &mut next);
            std::mem::swap(&mut h, &mut next);
            next.clear();
        }
        match self.kind {
            OutputKind::Continuous => h,
            OutputKind::Discrete => {
                // Numerically stable softmax: subtract the row max as a
                // tape constant before exponentiating. Softmax is
                // invariant under a uniform shift, so both the values and
                // the mask gradients are unchanged — but large logits no
                // longer overflow `exp` into inf/inf = NaN.
                let max = h
                    .iter()
                    .map(|v| v.value())
                    .fold(f64::NEG_INFINITY, f64::max);
                let exps: Vec<Var<'t>> = h.iter().map(|v| (*v - max).exp()).collect();
                let total = sum(tape, &exps);
                exps.into_iter().map(|e| e / total).collect()
            }
        }
    }

    /// Eq.-6 D term of one row against that row's `reference`. The
    /// reference enters as a tape var: dividing by it as a constant would
    /// record a different node and give other bits.
    fn row_d<'t>(&self, tape: &'t Tape, output: &[Var<'t>], reference: &[f64]) -> Var<'t> {
        let terms: Vec<Var<'t>> = match self.kind {
            OutputKind::Discrete => output
                .iter()
                .zip(reference.iter())
                .map(|(yw, &yi)| {
                    let yr = tape.var(yi.max(1e-12));
                    let ratio = *yw / yr;
                    *yw * ratio.ln()
                })
                .collect(),
            OutputKind::Continuous => output
                .iter()
                .zip(reference.iter())
                .map(|(yw, &yi)| {
                    let yr = tape.var(yi);
                    (*yw - yr).square()
                })
                .collect(),
        };
        sum(tape, &terms)
    }

    /// One observation's D value against its `reference` row and its
    /// gradient with respect to `mask`, on a tape of its own.
    fn row_d_grad(&self, mask: &[f64], reference: &[f64], row: usize) -> (f64, Vec<f64>) {
        let tape = Tape::new();
        let mask_vars = tape.vars(mask);
        let output = self.masked_row(&tape, tape.params(&self.params), &mask_vars, row);
        let d = self.row_d(&tape, &output, reference);
        let grads = d.grad();
        (d.value(), mask_vars.iter().map(|&v| grads.wrt(v)).collect())
    }
}

impl MaskedSystem for MaskedMlp<'_> {
    fn n_connections(&self) -> usize {
        self.net.in_dim()
    }

    fn reference_output(&self) -> Vec<f64> {
        self.reference.clone()
    }

    /// Monolithic scalar-tape output (all rows on one tape, concatenated).
    ///
    /// # Panics
    /// Unless `mask` has one var per input feature.
    fn masked_output<'t>(&self, tape: &'t Tape, mask: &[Var<'t>]) -> Vec<Var<'t>> {
        self.check_mask_len(mask.len());
        let params = tape.params(&self.params);
        (0..self.obs.len())
            .flat_map(|row| self.masked_row(tape, params, mask, row))
            .collect()
    }

    fn output_kind(&self) -> OutputKind {
        self.kind
    }

    /// Thread-sharded D gradient: blocks of observations fan out across
    /// threads, each observation on a tape of its own, and the per-row D
    /// values and gradients are summed in global row order, so the result
    /// is bit-identical for any thread count. Row `r`'s D is taken against
    /// `reference[r·w..][..w]`, where `w` is the network's output width.
    ///
    /// # Panics
    /// Unless `mask` has one value per input feature and `reference` one
    /// row of `w` values per observation.
    fn d_value_grad(&self, mask: &[f64], reference: &[f64], threads: usize) -> (f64, Vec<f64>) {
        self.check_mask_len(mask.len());
        let (n_rows, width) = (self.obs.len(), self.net.out_dim());
        assert_eq!(
            reference.len(),
            n_rows * width,
            "MaskedMlp: reference has {} values, not {} ({n_rows} rows of {width} outputs)",
            reference.len(),
            n_rows * width
        );
        let blocks = parallel_map_indexed(n_rows.div_ceil(BLOCK_ROWS), threads, |b| {
            (b * BLOCK_ROWS..n_rows.min((b + 1) * BLOCK_ROWS))
                .map(|row| self.row_d_grad(mask, &reference[row * width..][..width], row))
                .collect::<Vec<_>>()
        });
        let mut d_total = 0.0;
        let mut grad = vec![0.0; mask.len()];
        for (d, row_grad) in blocks.iter().flatten() {
            d_total += d;
            for (g, r) in grad.iter_mut().zip(row_grad) {
                *g += r;
            }
        }
        (d_total, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::{optimize_mask, MaskConfig};
    use metis_nn::Activation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two full blocks and a ragged 23-row tail.
    const ROWS: usize = 2 * BLOCK_ROWS + 23;

    fn setup(rows: usize) -> (Mlp, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(77);
        let net = Mlp::new(&[6, 10, 4], Activation::Tanh, Activation::Linear, &mut rng);
        let obs: Vec<Vec<f64>> = (0..rows)
            .map(|r| (0..6).map(|c| ((r * 6 + c) as f64 * 0.13).sin()).collect())
            .collect();
        (net, obs)
    }

    /// The per-obs oracle: one observation's tape after another on this
    /// thread, each against its row of `reference`, D values and gradients
    /// summed in row order.
    fn per_obs_oracle(sys: &MaskedMlp<'_>, mask: &[f64], reference: &[f64]) -> (f64, Vec<f64>) {
        let mut d_total = 0.0;
        let mut grad = vec![0.0; mask.len()];
        let width = reference.len() / sys.obs.len();
        for (row, reference) in reference.chunks_exact(width).enumerate() {
            let (d, row_grad) = sys.row_d_grad(mask, reference, row);
            d_total += d;
            grad.iter_mut().zip(&row_grad).for_each(|(g, r)| *g += r);
        }
        (d_total, grad)
    }

    fn assert_same_bits(got: &(f64, Vec<f64>), want: &(f64, Vec<f64>), label: &str) {
        assert_eq!(got.0.to_bits(), want.0.to_bits(), "D diverges {label}");
        for (a, b) in got.1.iter().zip(want.1.iter()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "gradient diverges {label}: {a} vs {b}"
            );
        }
    }

    /// The block-sharded gradient must be bit-identical to the per-obs
    /// oracle for any thread count, over full blocks and a ragged tail.
    #[test]
    fn batched_gradient_matches_per_obs_oracle_bitwise() {
        let (net, obs) = setup(ROWS);
        let mask: Vec<f64> = (0..6).map(|i| 0.2 + 0.1 * i as f64).collect();
        for kind in [OutputKind::Discrete, OutputKind::Continuous] {
            let sys = MaskedMlp::new(&net, obs.clone(), kind);
            let reference = sys.reference_output();
            let oracle = per_obs_oracle(&sys, &mask, &reference);
            for threads in [1usize, 2, 3] {
                let got = sys.d_value_grad(&mask, &reference, threads);
                assert_same_bits(&got, &oracle, &format!("at threads={threads} ({kind:?})"));
            }
        }
    }

    /// `d_value_grad` of a six-feature network under a mask of `len`
    /// values. Unchecked, a short mask drops the trailing features and a
    /// long one returns a gradient for features that do not exist.
    fn gradient_with_mask_len(len: usize) {
        let (net, obs) = setup(3);
        let sys = MaskedMlp::new(&net, obs, OutputKind::Discrete);
        let reference = sys.reference_output();
        sys.d_value_grad(&vec![0.5; len], &reference, 1);
    }

    #[test]
    #[should_panic(expected = "mask length must equal the network's input feature count")]
    fn a_short_mask_is_rejected() {
        gradient_with_mask_len(5);
    }

    #[test]
    #[should_panic(expected = "mask length must equal the network's input feature count")]
    fn a_long_mask_is_rejected() {
        gradient_with_mask_len(7);
    }

    /// D is taken against the reference the caller passes, not the one
    /// the constructor computed: with one row of it reversed, the sharded
    /// gradient equals the per-obs oracle on that reference.
    #[test]
    fn d_uses_the_given_reference() {
        let (net, obs) = setup(ROWS);
        let mask: Vec<f64> = (0..6).map(|i| 0.2 + 0.1 * i as f64).collect();
        for kind in [OutputKind::Discrete, OutputKind::Continuous] {
            let sys = MaskedMlp::new(&net, obs.clone(), kind);
            let unmasked = sys.reference_output();
            let mut reference = unmasked.clone();
            reference[70 * 4..][..4].reverse();
            let oracle = per_obs_oracle(&sys, &mask, &reference);
            let label = format!("against a perturbed reference ({kind:?})");
            assert_same_bits(&sys.d_value_grad(&mask, &reference, 2), &oracle, &label);
            let (d, _) = per_obs_oracle(&sys, &mask, &unmasked);
            assert_ne!(oracle.0.to_bits(), d.to_bits(), "the perturbation moves D");
        }
    }

    /// A reference short of one value would leave the last row's D
    /// against a short slice.
    #[test]
    #[should_panic(expected = "reference has 11 values, not 12 (3 rows of 4 outputs)")]
    fn a_short_reference_is_rejected() {
        let (net, obs) = setup(3);
        let sys = MaskedMlp::new(&net, obs, OutputKind::Discrete);
        let mut reference = sys.reference_output();
        reference.pop();
        sys.d_value_grad(&[0.5; 6], &reference, 1);
    }

    /// An observation's tape records no node per parameter: eight more
    /// hidden units add eight nodes, one fused row each (96 while the
    /// biases and weights were leaf vars).
    #[test]
    fn a_tape_records_no_node_per_parameter() {
        let nodes = |hidden: usize| {
            let mut rng = StdRng::seed_from_u64(77);
            let net = Mlp::new(
                &[6, hidden, 4],
                Activation::Tanh,
                Activation::Linear,
                &mut rng,
            );
            let sys = MaskedMlp::new(&net, vec![vec![0.5; 6]], OutputKind::Discrete);
            let tape = Tape::new();
            sys.masked_output(&tape, &tape.vars(&[0.5; 6]));
            tape.len()
        };
        assert_eq!(nodes(16) - nodes(8), 8);
    }

    /// Full search: identical masks for threads = 1 vs N.
    #[test]
    fn mask_search_thread_invariant() {
        let (net, obs) = setup(ROWS);
        let run = |threads: usize| {
            let sys = MaskedMlp::new(&net, obs.clone(), OutputKind::Discrete);
            optimize_mask(
                &sys,
                &MaskConfig {
                    steps: 30,
                    threads,
                    ..Default::default()
                },
            )
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.mask, b.mask);
        assert_eq!(a.ranked(), b.ranked());
        assert_eq!(a.loss_history, b.loss_history);
    }

    /// Policies with huge logits must not overflow the masked softmax
    /// (stable max-subtraction on the tape), and the sharded gradient must
    /// still match the per-obs oracle bitwise.
    #[test]
    fn large_logits_stay_finite() {
        let w1 = Matrix::from_fn(3, 2, |r, c| if r == c { 500.0 } else { -400.0 });
        let l1 = metis_nn::Dense::from_weights(w1, vec![0.0; 2], Activation::Linear);
        let net = Mlp::from_layers(vec![l1]);
        let obs: Vec<Vec<f64>> = (0..ROWS)
            .map(|r| {
                (0..3)
                    .map(|c| 1.0 + ((r * 3 + c) as f64 * 0.21).sin())
                    .collect()
            })
            .collect();
        let sys = MaskedMlp::new(&net, obs, OutputKind::Discrete);
        let mask = vec![0.9; 3];
        let reference = sys.reference_output();
        let (d, g) = sys.d_value_grad(&mask, &reference, 2);
        assert!(d.is_finite(), "D overflowed: {d}");
        assert!(
            g.iter().all(|x| x.is_finite()),
            "gradient overflowed: {g:?}"
        );
        let oracle = per_obs_oracle(&sys, &mask, &reference);
        assert_same_bits(&(d, g), &oracle, "with large logits");
    }

    /// A feature the network ignores must be pruned; a dominant feature
    /// must survive.
    #[test]
    fn dominant_feature_survives_dead_feature_pruned() {
        // Hand-build a net that only reads feature 0 (strongly) and
        // feature 1 (weakly); features 2.. are dead.
        let w1 = Matrix::from_fn(4, 3, |r, c| match (r, c) {
            (0, 0) => 3.0,
            (1, 1) => 0.05,
            _ => 0.0,
        });
        let l1 = metis_nn::Dense::from_weights(w1, vec![0.0; 3], Activation::Tanh);
        let w2 = Matrix::from_fn(3, 2, |r, c| match (r, c) {
            (0, 0) => 4.0,
            (0, 1) => -4.0,
            (1, 0) => 0.1,
            _ => 0.0,
        });
        let l2 = metis_nn::Dense::from_weights(w2, vec![0.0; 2], Activation::Linear);
        let net = Mlp::from_layers(vec![l1, l2]);
        let obs: Vec<Vec<f64>> = (0..32)
            .map(|r| (0..4).map(|c| ((r * 4 + c) as f64 * 0.29).cos()).collect())
            .collect();
        let sys = MaskedMlp::new(&net, obs, OutputKind::Discrete);
        let result = optimize_mask(&sys, &MaskConfig::default());
        assert!(
            result.mask[0] > 0.8,
            "dominant feature pruned: {:?}",
            result.mask
        );
        assert!(
            result.mask[2] < 0.2 && result.mask[3] < 0.2,
            "dead features kept: {:?}",
            result.mask
        );
    }
}
