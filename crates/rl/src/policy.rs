//! Policy abstraction: anything that maps an observation to a distribution
//! over discrete actions. Both teacher DNNs and student decision trees
//! implement this trait, which is what lets the conversion pipeline treat
//! them interchangeably.

use metis_nn::{argmax, softmax, Matrix, Mlp, Network};
use rand::rngs::StdRng;
use rand::Rng;

/// A stochastic discrete policy.
///
/// The batched methods take a `(batch, obs_dim)` matrix and must return,
/// row for row, exactly what the per-obs methods return — network-backed
/// policies override them with one matrix-matrix forward pass, everything
/// else inherits the per-row fallback. This contract is what lets the
/// conversion engine label whole episodes at once while staying
/// bit-identical to per-obs labelling.
pub trait Policy {
    /// Action probability distribution for an observation.
    fn action_probs(&self, obs: &[f64]) -> Vec<f64>;

    /// Greedy action (argmax of the distribution).
    fn act_greedy(&self, obs: &[f64]) -> usize {
        argmax(&self.action_probs(obs))
    }

    /// Sample an action from the distribution.
    fn act_sample(&self, obs: &[f64], rng: &mut StdRng) -> usize {
        sample_categorical(&self.action_probs(obs), rng)
    }

    /// Batched [`Policy::action_probs`], one distribution per row.
    fn action_probs_batch(&self, obs: &Matrix) -> Vec<Vec<f64>> {
        (0..obs.rows())
            .map(|r| self.action_probs(obs.row(r)))
            .collect()
    }

    /// Batched [`Policy::act_greedy`], one action per row.
    fn act_greedy_batch(&self, obs: &Matrix) -> Vec<usize> {
        (0..obs.rows())
            .map(|r| self.act_greedy(obs.row(r)))
            .collect()
    }

    /// Distributions **and** greedy actions for a batch in one query —
    /// the unit of DAgger teacher labelling (the label is the greedy
    /// action, the distribution feeds the Eq.-1 weight). The default
    /// issues both batched queries; policies whose greedy action is the
    /// argmax of their distribution (softmax policies) override this to
    /// share a single forward pass, which must return exactly what the
    /// two separate queries would.
    fn probs_and_greedy_batch(&self, obs: &Matrix) -> (Vec<Vec<f64>>, Vec<usize>) {
        (self.action_probs_batch(obs), self.act_greedy_batch(obs))
    }
}

/// Sample an index from an (approximately normalized) distribution.
pub fn sample_categorical(probs: &[f64], rng: &mut StdRng) -> usize {
    debug_assert!(!probs.is_empty());
    let total: f64 = probs.iter().sum();
    let mut u = rng.gen_range(0.0..1.0) * total;
    for (i, &p) in probs.iter().enumerate() {
        u -= p;
        if u <= 0.0 {
            return i;
        }
    }
    probs.len() - 1
}

/// A softmax policy over network logits — the teacher-DNN form used by
/// Pensieve-style agents and AuTO's lRLA. Generic over [`Network`] so the
/// §6.2 architecture-modification experiment (skip connection) trains with
/// the same machinery as a plain [`Mlp`].
#[derive(Debug, Clone)]
pub struct SoftmaxPolicy<N: Network = Mlp> {
    pub net: N,
}

impl<N: Network> SoftmaxPolicy<N> {
    pub fn new(net: N) -> Self {
        SoftmaxPolicy { net }
    }

    /// Raw logits for an observation.
    pub fn logits(&self, obs: &[f64]) -> Vec<f64> {
        self.net.predict(obs)
    }
}

impl<N: Network> Policy for SoftmaxPolicy<N> {
    fn action_probs(&self, obs: &[f64]) -> Vec<f64> {
        softmax(&self.net.predict(obs))
    }

    /// One batched forward; row `i` equals `action_probs` of row `i`
    /// bit-exactly (kernel row invariance + the same scalar softmax).
    fn action_probs_batch(&self, obs: &Matrix) -> Vec<Vec<f64>> {
        let logits = self.net.forward_inference(obs);
        (0..logits.rows()).map(|r| softmax(logits.row(r))).collect()
    }

    fn act_greedy_batch(&self, obs: &Matrix) -> Vec<usize> {
        self.action_probs_batch(obs)
            .iter()
            .map(|p| argmax(p))
            .collect()
    }

    /// One forward pass serves both: `act_greedy` for a softmax policy is
    /// `argmax(action_probs(obs))` (the trait default — this type does not
    /// override it), so deriving the action from the freshly computed row
    /// distribution is bit-identical to querying it separately.
    fn probs_and_greedy_batch(&self, obs: &Matrix) -> (Vec<Vec<f64>>, Vec<usize>) {
        let probs = self.action_probs_batch(obs);
        let actions = probs.iter().map(|p| argmax(p)).collect();
        (probs, actions)
    }
}

/// A fixed-action policy (useful as a degenerate baseline and in tests).
#[derive(Debug, Clone)]
pub struct ConstantPolicy {
    pub action: usize,
    pub n_actions: usize,
}

impl Policy for ConstantPolicy {
    fn action_probs(&self, _obs: &[f64]) -> Vec<f64> {
        let mut p = vec![0.0; self.n_actions];
        p[self.action] = 1.0;
        p
    }
}

/// A uniformly random policy (exploration baseline).
#[derive(Debug, Clone)]
pub struct UniformPolicy {
    pub n_actions: usize,
}

impl Policy for UniformPolicy {
    fn action_probs(&self, _obs: &[f64]) -> Vec<f64> {
        vec![1.0 / self.n_actions as f64; self.n_actions]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_nn::Activation;
    use rand::SeedableRng;

    #[test]
    fn constant_policy_always_acts() {
        let p = ConstantPolicy {
            action: 2,
            n_actions: 4,
        };
        assert_eq!(p.act_greedy(&[0.0]), 2);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(p.act_sample(&[0.0], &mut rng), 2);
    }

    #[test]
    fn sample_categorical_respects_distribution() {
        let mut rng = StdRng::seed_from_u64(9);
        let probs = [0.1, 0.7, 0.2];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[sample_categorical(&probs, &mut rng)] += 1;
        }
        assert!((counts[1] as f64 / 10_000.0 - 0.7).abs() < 0.03);
        assert!((counts[0] as f64 / 10_000.0 - 0.1).abs() < 0.02);
    }

    #[test]
    fn sample_categorical_handles_degenerate() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_categorical(&[0.0, 1.0, 0.0], &mut rng), 1);
        assert_eq!(sample_categorical(&[1.0], &mut rng), 0);
    }

    #[test]
    fn softmax_policy_probs_normalized() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Mlp::new(&[3, 8, 4], Activation::Tanh, Activation::Linear, &mut rng);
        let p = SoftmaxPolicy::new(net);
        let probs = p.action_probs(&[0.1, 0.2, 0.3]);
        assert_eq!(probs.len(), 4);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(probs.iter().all(|&x| x > 0.0));
        assert!(p.act_greedy(&[0.1, 0.2, 0.3]) < 4);
    }

    #[test]
    fn uniform_policy_samples_everything() {
        let p = UniformPolicy { n_actions: 3 };
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[p.act_sample(&[], &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
