//! State-value estimates for the Eq.-1 Q lookahead, with a batched path.
//!
//! The conversion pipeline bootstraps `Q(s, a) = r + γ·V(s')` from a
//! caller-supplied value estimate. Historically that was a bare
//! `Fn(&[f64]) -> f64` closure queried one afterstate at a time; the
//! batched inference engine wants whole matrices of afterstates labelled
//! in one matrix-matrix pass. [`ValueEstimate`] covers both: every
//! `Fn(&[f64]) -> f64 + Sync` closure still works (per-row fallback), and
//! [`NetworkValue`] wraps a critic [`Network`] with a genuinely batched
//! `value_batch`.
//!
//! Bit-parity contract: `value_batch` row `i` must equal
//! `value(of row i)` exactly. The closure fallback satisfies it by
//! construction; [`NetworkValue`] inherits it from the matmul kernel's
//! row invariance (see [`Matrix::matmul`]).

use metis_nn::{Matrix, Network};

/// A bootstrap state-value estimate `V(s)` with a batched query path.
pub trait ValueEstimate: Sync {
    /// Value of a single observation.
    fn value(&self, obs: &[f64]) -> f64;

    /// Values of a `(batch, obs_dim)` matrix of observations, one per row.
    /// Default: per-row fallback through [`ValueEstimate::value`].
    fn value_batch(&self, obs: &Matrix) -> Vec<f64> {
        (0..obs.rows()).map(|r| self.value(obs.row(r))).collect()
    }

    /// Whether batched queries amortize real work. Network-backed
    /// estimates return `true` (one matrix-matrix pass beats N
    /// matrix-vector passes); the closure default is `false`, telling the
    /// collector to skip the afterstate-deferral bookkeeping and query
    /// inline — the values are identical either way.
    fn prefers_batch(&self) -> bool {
        false
    }
}

impl<F: Fn(&[f64]) -> f64 + Sync> ValueEstimate for F {
    fn value(&self, obs: &[f64]) -> f64 {
        self(obs)
    }
}

/// A critic network as a value estimate: output 0 of the network is
/// `V(s)`, and `value_batch` is one batched forward pass.
#[derive(Debug, Clone)]
pub struct NetworkValue<N: Network> {
    pub net: N,
}

impl<N: Network> NetworkValue<N> {
    pub fn new(net: N) -> Self {
        NetworkValue { net }
    }
}

impl<N: Network + Sync> ValueEstimate for NetworkValue<N> {
    fn value(&self, obs: &[f64]) -> f64 {
        self.net.predict(obs)[0]
    }

    fn value_batch(&self, obs: &Matrix) -> Vec<f64> {
        let out = self.net.forward_inference(obs);
        (0..out.rows()).map(|r| out[(r, 0)]).collect()
    }

    fn prefers_batch(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_nn::{Activation, Mlp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn closure_fallback_is_per_row() {
        let v = |obs: &[f64]| obs.iter().sum::<f64>();
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(ValueEstimate::value(&v, &[1.0, 2.0]), 3.0);
        assert_eq!(v.value_batch(&m), vec![3.0, 7.0]);
    }

    #[test]
    fn network_value_batch_matches_per_obs_exactly() {
        let mut rng = StdRng::seed_from_u64(21);
        let critic = Mlp::new(&[5, 8, 1], Activation::Tanh, Activation::Linear, &mut rng);
        let nv = NetworkValue::new(critic);
        let rows: Vec<Vec<f64>> = (0..9)
            .map(|i| (0..5).map(|j| ((i * 5 + j) as f64).sin()).collect())
            .collect();
        let batched = nv.value_batch(&Matrix::from_rows_vec(&rows));
        for (row, &b) in rows.iter().zip(batched.iter()) {
            assert_eq!(nv.value(row), b, "value_batch row diverges from value");
        }
    }
}
