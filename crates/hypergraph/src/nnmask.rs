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
//! is **row-separable** — the property the batched gradient path exploits:
//! observations are chunked into 64-row blocks, each block replays the
//! network on one [`BatchTape`] (a batched forward/backward: every tape
//! node carries the whole block's rows), blocks fan out across threads,
//! and per-row gradients merge back in global row order. The merge order
//! depends on neither the block size nor the thread count, so the search
//! is bit-identical to the per-obs oracle ([`MaskedMlp::d_value_grad_per_obs`],
//! one scalar tape per observation) for any thread count — the §4
//! mirror of the conversion engine's batched-labelling parity contract.

use crate::mask::{MaskedSystem, OutputKind};
use metis_nn::par::parallel_map_indexed;
use metis_nn::tape::{sum, sum_batch, BVar, BatchTape, Tape, Var};
use metis_nn::{softmax_rows, Matrix, Mlp};

/// Rows per [`BatchTape`] block. Results are bit-identical for any
/// value (see the module docs); it only sets how much work one tape and
/// one pool stripe carry.
const BLOCK_ROWS: usize = 64;

/// An MLP policy under a per-input-feature mask, evaluated over a batch
/// of observations. Implements [`MaskedSystem`], overriding the gradient
/// path with the batched block evaluation.
pub struct MaskedMlp<'a> {
    net: &'a Mlp,
    obs: Vec<Vec<f64>>,
    kind: OutputKind,
    /// Unmasked per-row reference outputs (decision distributions for
    /// [`OutputKind::Discrete`], raw outputs otherwise).
    reference: Vec<Vec<f64>>,
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
            OutputKind::Discrete => {
                let p = softmax_rows(&out);
                (0..p.rows()).map(|r| p.row(r).to_vec()).collect()
            }
            OutputKind::Continuous => (0..out.rows()).map(|r| out.row(r).to_vec()).collect(),
        };
        MaskedMlp {
            net,
            obs,
            kind,
            reference,
        }
    }

    /// Observations in the batch.
    pub fn n_rows(&self) -> usize {
        self.obs.len()
    }

    /// Masked network output of one observation on a scalar tape.
    ///
    /// This and [`Self::masked_block`] are deliberate op-for-op mirrors:
    /// each records the same node sequence (leaf mask gates, per-layer
    /// weighted sums, activations, optional softmax head), which is what
    /// makes the batched path bit-identical per row.
    fn masked_row<'t>(&self, tape: &'t Tape, mask: &[Var<'t>], row: usize) -> Vec<Var<'t>> {
        let x = &self.obs[row];
        let mut h: Vec<Var<'t>> = mask.iter().zip(x.iter()).map(|(m, &xi)| *m * xi).collect();
        for layer in self.net.layers() {
            let w = layer.weights();
            let b = layer.bias();
            h = (0..layer.out_dim())
                .map(|j| {
                    let mut acc = tape.var(b[j]);
                    for (k, hk) in h.iter().enumerate() {
                        acc = acc + *hk * w[(k, j)];
                    }
                    acc.activation(layer.activation())
                })
                .collect();
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

    /// Masked network output of rows `lo..hi` on a batch tape — the
    /// batched twin of [`Self::masked_row`].
    fn masked_block<'t>(&self, bt: &'t BatchTape, mask: &[BVar<'t>], lo: usize) -> Vec<BVar<'t>> {
        let rows = bt.batch();
        let column = |f: usize| -> Vec<f64> { (lo..lo + rows).map(|r| self.obs[r][f]).collect() };
        let mut h: Vec<BVar<'t>> = mask
            .iter()
            .enumerate()
            .map(|(f, m)| *m * bt.var(&column(f)))
            .collect();
        for layer in self.net.layers() {
            let w = layer.weights();
            let b = layer.bias();
            h = (0..layer.out_dim())
                .map(|j| {
                    let mut acc = bt.broadcast(b[j]);
                    for (k, hk) in h.iter().enumerate() {
                        acc = acc + *hk * w[(k, j)];
                    }
                    acc.activation(layer.activation())
                })
                .collect();
        }
        match self.kind {
            OutputKind::Continuous => h,
            OutputKind::Discrete => {
                // Stable softmax, batched twin of the per-row path: the
                // per-row logit max enters as a leaf (its adjoint is
                // discarded), so each row computes exactly the scalar
                // path's `(v - max).exp()`.
                let maxes: Vec<f64> = (0..rows)
                    .map(|r| {
                        h.iter()
                            .map(|v| v.value(r))
                            .fold(f64::NEG_INFINITY, f64::max)
                    })
                    .collect();
                let max_var = bt.var(&maxes);
                let exps: Vec<BVar<'t>> = h.iter().map(|v| (*v - max_var).exp()).collect();
                let total = sum_batch(bt, &exps);
                exps.into_iter().map(|e| e / total).collect()
            }
        }
    }

    /// Per-obs oracle for the D term: one scalar tape per observation,
    /// values and gradients accumulated in row order — the reference the
    /// batched path is pinned against, bit for bit.
    pub fn d_value_grad_per_obs(&self, mask: &[f64]) -> (f64, Vec<f64>) {
        let mut d_total = 0.0;
        let mut grad = vec![0.0; mask.len()];
        for row in 0..self.obs.len() {
            let tape = Tape::new();
            let mask_vars = tape.vars(mask);
            let output = self.masked_row(&tape, &mask_vars, row);
            let d = self.row_d_scalar(&tape, &output, row);
            d_total += d.value();
            let grads = d.grad();
            for (g, v) in grad.iter_mut().zip(mask_vars.iter()) {
                *g += grads.wrt(*v);
            }
        }
        (d_total, grad)
    }

    /// Eq.-6 D term of one row on a scalar tape. The reference enters as a
    /// tape var (mirroring the batch path's per-row leaf) so both record
    /// the identical division node.
    fn row_d_scalar<'t>(&self, tape: &'t Tape, output: &[Var<'t>], row: usize) -> Var<'t> {
        let reference = &self.reference[row];
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

    /// Eq.-6 D term of a block on a batch tape (per-row values).
    fn block_d<'t>(&self, bt: &'t BatchTape, output: &[BVar<'t>], lo: usize) -> BVar<'t> {
        let rows = bt.batch();
        let ref_column = |c: usize, clamp: bool| -> Vec<f64> {
            (lo..lo + rows)
                .map(|r| {
                    let yi = self.reference[r][c];
                    if clamp {
                        yi.max(1e-12)
                    } else {
                        yi
                    }
                })
                .collect()
        };
        let terms: Vec<BVar<'t>> = match self.kind {
            OutputKind::Discrete => output
                .iter()
                .enumerate()
                .map(|(c, yw)| {
                    let yr = bt.var(&ref_column(c, true));
                    let ratio = *yw / yr;
                    *yw * ratio.ln()
                })
                .collect(),
            OutputKind::Continuous => output
                .iter()
                .enumerate()
                .map(|(c, yw)| {
                    let yr = bt.var(&ref_column(c, false));
                    (*yw - yr).square()
                })
                .collect(),
        };
        sum_batch(bt, &terms)
    }
}

impl MaskedSystem for MaskedMlp<'_> {
    fn n_connections(&self) -> usize {
        self.net.in_dim()
    }

    fn reference_output(&self) -> Vec<f64> {
        self.reference.iter().flatten().copied().collect()
    }

    /// Monolithic scalar-tape output (all rows on one tape, concatenated).
    fn masked_output<'t>(&self, tape: &'t Tape, mask: &[Var<'t>]) -> Vec<Var<'t>> {
        (0..self.obs.len())
            .flat_map(|row| self.masked_row(tape, mask, row))
            .collect()
    }

    fn output_kind(&self) -> OutputKind {
        self.kind
    }

    /// Batched, thread-sharded D gradient: observation blocks on
    /// [`BatchTape`]s fan out across threads; per-row gradients merge in
    /// global row order, so the result is bit-identical for any thread
    /// count — and to [`Self::d_value_grad_per_obs`].
    fn d_value_grad(&self, mask: &[f64], _reference: &[f64], threads: usize) -> (f64, Vec<f64>) {
        let n_rows = self.obs.len();
        let n_blocks = n_rows.div_ceil(BLOCK_ROWS);
        let blocks = parallel_map_indexed(n_blocks, threads, |b| {
            let lo = b * BLOCK_ROWS;
            let rows = BLOCK_ROWS.min(n_rows - lo);
            let bt = BatchTape::new(rows);
            let mask_vars = bt.broadcasts(mask);
            let output = self.masked_block(&bt, &mask_vars, lo);
            let d = self.block_d(&bt, &output, lo);
            let grads = d.grad();
            let per_conn: Vec<Vec<f64>> =
                mask_vars.iter().map(|v| grads.wrt(*v).to_vec()).collect();
            (d.values(), per_conn)
        });

        let mut d_total = 0.0;
        let mut grad = vec![0.0; mask.len()];
        for (d_rows, per_conn) in blocks {
            for r in 0..d_rows.len() {
                d_total += d_rows[r];
                for (g, rows) in grad.iter_mut().zip(per_conn.iter()) {
                    *g += rows[r];
                }
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

    /// The batched block gradient must be bit-identical to the per-obs
    /// oracle for any thread count, over full blocks and a ragged tail.
    #[test]
    fn batched_gradient_matches_per_obs_oracle_bitwise() {
        let (net, obs) = setup(ROWS);
        let mask: Vec<f64> = (0..6).map(|i| 0.2 + 0.1 * i as f64).collect();
        for kind in [OutputKind::Discrete, OutputKind::Continuous] {
            let sys = MaskedMlp::new(&net, obs.clone(), kind);
            let reference = sys.reference_output();
            let (d_oracle, g_oracle) = sys.d_value_grad_per_obs(&mask);
            for threads in [1usize, 2, 3] {
                let (d, g) = sys.d_value_grad(&mask, &reference, threads);
                assert_eq!(
                    d.to_bits(),
                    d_oracle.to_bits(),
                    "D diverges at threads={threads} ({kind:?})"
                );
                for (a, b) in g.iter().zip(g_oracle.iter()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "gradient diverges at threads={threads}: {a} vs {b}"
                    );
                }
            }
        }
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
    /// (stable max-subtraction on the tape), and the batched path must
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
        let (d_oracle, g_oracle) = sys.d_value_grad_per_obs(&mask);
        assert_eq!(d.to_bits(), d_oracle.to_bits());
        for (a, b) in g.iter().zip(g_oracle.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
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
