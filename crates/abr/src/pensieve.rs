//! The Pensieve-style deep-RL ABR agent, in both architectures of the
//! paper's Figure 10:
//!
//! * [`PensieveArch::Original`] — state → 2×128 hidden → 6 logits,
//! * [`PensieveArch::LastBitrateSkip`] — the §6.2 redesign: the last-chunk
//!   bitrate `r_t` is additionally concatenated onto the final hidden layer
//!   so it reaches the output directly. Mathematically equivalent in
//!   expressive power, but the shorter path makes the optimizer exploit the
//!   feature Metis identified as dominant (Figure 7's top split).

use crate::env::AbrEnv;
use metis_nn::{Activation, Dense, Init, Matrix, Mlp, Network, ParamGrad};
use metis_rl::{ActorCritic, TrainConfig};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Which Figure-10 structure to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PensieveArch {
    Original,
    LastBitrateSkip,
}

/// The Pensieve actor network.
///
/// Layout: `x → Dense(in,h) → Dense(h,h)`; the head consumes either the
/// hidden vector (Original) or `[hidden ‖ r_t]` (LastBitrateSkip), where
/// `r_t` is input feature 0 (the last-bitrate observation).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PensieveNet {
    arch: PensieveArch,
    l1: Dense,
    l2: Dense,
    head: Dense,
    #[serde(skip)]
    cache_input: Option<Matrix>,
}

impl PensieveNet {
    pub fn new(
        arch: PensieveArch,
        obs_dim: usize,
        hidden: usize,
        n_actions: usize,
        rng: &mut StdRng,
    ) -> Self {
        let head_in = match arch {
            PensieveArch::Original => hidden,
            PensieveArch::LastBitrateSkip => hidden + 1,
        };
        PensieveNet {
            arch,
            l1: Dense::new(obs_dim, hidden, Activation::Tanh, Init::XavierUniform, rng),
            l2: Dense::new(hidden, hidden, Activation::Tanh, Init::XavierUniform, rng),
            head: Dense::new(
                head_in,
                n_actions,
                Activation::Linear,
                Init::XavierUniform,
                rng,
            ),
            cache_input: None,
        }
    }

    pub fn arch(&self) -> PensieveArch {
        self.arch
    }

    pub fn param_count(&self) -> usize {
        self.l1.param_count() + self.l2.param_count() + self.head.param_count()
    }

    /// Serialized artifact size in bytes (deployment cost model).
    pub fn artifact_bytes(&self) -> usize {
        serde_json::to_vec(self).map(|v| v.len()).unwrap_or(0)
    }

    /// Extract the `r_t` column (input feature 0) as a `(batch, 1)` matrix.
    fn rt_column(input: &Matrix) -> Matrix {
        Matrix::from_fn(input.rows(), 1, |r, _| input[(r, 0)])
    }
}

impl Network for PensieveNet {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        self.cache_input = Some(input.clone());
        let h = self.l2.forward(&self.l1.forward(input));
        match self.arch {
            PensieveArch::Original => self.head.forward(&h),
            PensieveArch::LastBitrateSkip => self.head.forward(&h.hconcat(&Self::rt_column(input))),
        }
    }

    fn forward_inference(&self, input: &Matrix) -> Matrix {
        let h = self.l2.forward_inference(&self.l1.forward_inference(input));
        match self.arch {
            PensieveArch::Original => self.head.forward_inference(&h),
            PensieveArch::LastBitrateSkip => self
                .head
                .forward_inference(&h.hconcat(&Self::rt_column(input))),
        }
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let g_head_in = self.head.backward(grad_out);
        let (g_hidden, g_rt) = match self.arch {
            PensieveArch::Original => (g_head_in, None),
            PensieveArch::LastBitrateSkip => {
                let (gh, gr) = g_head_in.hsplit(1);
                (gh, Some(gr))
            }
        };
        let mut g_input = self.l1.backward(&self.l2.backward(&g_hidden));
        if let Some(gr) = g_rt {
            // Route the skip gradient back onto input feature 0.
            for r in 0..g_input.rows() {
                g_input[(r, 0)] += gr[(r, 0)];
            }
        }
        g_input
    }

    fn zero_grad(&mut self) {
        self.l1.zero_grad();
        self.l2.zero_grad();
        self.head.zero_grad();
    }

    fn params(&mut self) -> Vec<ParamGrad<'_>> {
        let mut p = self.l1.params();
        p.extend(self.l2.params());
        p.extend(self.head.params());
        p
    }

    fn in_dim(&self) -> usize {
        self.l1.in_dim()
    }

    fn out_dim(&self) -> usize {
        self.head.out_dim()
    }
}

/// Default Pensieve training configuration (scaled-down single-process A3C;
/// see the README's *Substitutions*).
pub fn pensieve_train_config() -> TrainConfig {
    TrainConfig {
        gamma: 0.99,
        actor_lr: 1e-3,
        critic_lr: 2e-3,
        entropy_coef: 0.02,
        episodes_per_epoch: 8,
        max_steps: 512,
    }
}

/// Build an untrained Pensieve agent (actor + critic) for the given
/// architecture.
pub fn pensieve_agent(
    arch: PensieveArch,
    hidden: usize,
    rng: &mut StdRng,
) -> ActorCritic<PensieveNet> {
    let obs_dim = crate::env::OBS_DIM;
    let actor = PensieveNet::new(
        arch,
        obs_dim,
        hidden,
        crate::video::BITRATES_KBPS.len(),
        rng,
    );
    let critic = Mlp::new(
        &[obs_dim, hidden, 1],
        Activation::Tanh,
        Activation::Linear,
        rng,
    );
    ActorCritic::from_networks(actor, critic, pensieve_train_config())
}

/// Train a Pensieve agent for `epochs` epochs on an environment pool,
/// returning per-epoch mean returns (the Figure-11 training curve).
pub fn train_pensieve(
    agent: &mut ActorCritic<PensieveNet>,
    pool: &[AbrEnv],
    epochs: usize,
    rng: &mut StdRng,
) -> Vec<f64> {
    let mut curve = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let stats = agent.train_epoch(pool, rng);
        curve.push(stats.mean_return);
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::OBS_DIM;
    use crate::trace::NetworkTrace;
    use crate::video::VideoModel;
    use metis_nn::loss;
    use metis_rl::{evaluate, Policy};
    use rand::SeedableRng;
    use std::sync::Arc;

    #[test]
    fn shapes_for_both_architectures() {
        let mut rng = StdRng::seed_from_u64(0);
        for arch in [PensieveArch::Original, PensieveArch::LastBitrateSkip] {
            let net = PensieveNet::new(arch, OBS_DIM, 32, 6, &mut rng);
            assert_eq!(net.in_dim(), OBS_DIM);
            assert_eq!(net.out_dim(), 6);
            let out = net.predict(&[0.1; OBS_DIM]);
            assert_eq!(out.len(), 6);
        }
    }

    #[test]
    fn skip_arch_has_six_more_weights() {
        let mut rng = StdRng::seed_from_u64(0);
        let orig = PensieveNet::new(PensieveArch::Original, OBS_DIM, 32, 6, &mut rng);
        let skip = PensieveNet::new(PensieveArch::LastBitrateSkip, OBS_DIM, 32, 6, &mut rng);
        assert_eq!(skip.param_count(), orig.param_count() + 6);
    }

    #[test]
    fn forward_matches_inference() {
        let mut rng = StdRng::seed_from_u64(1);
        for arch in [PensieveArch::Original, PensieveArch::LastBitrateSkip] {
            let mut net = PensieveNet::new(arch, 5, 8, 3, &mut rng);
            let x = Matrix::from_rows(&[&[0.5, 0.1, -0.2, 0.3, 0.9]]);
            assert_eq!(net.forward(&x), net.forward_inference(&x));
        }
    }

    /// Finite-difference gradient check through the skip architecture —
    /// validates the manual gradient routing of the concatenation.
    #[test]
    fn skip_net_gradcheck() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = PensieveNet::new(PensieveArch::LastBitrateSkip, 4, 6, 3, &mut rng);
        let x = Matrix::from_rows(&[&[0.7, -0.2, 0.4, 0.1]]);
        let target = 2usize;
        let logits = net.forward(&x);
        let (_, grad) = loss::softmax_cross_entropy(logits.row(0), target);
        net.zero_grad();
        let gin = net.backward(&Matrix::row_vector(&grad));
        let eps = 1e-6;
        for c in 0..4 {
            let mut xp = x.clone();
            xp[(0, c)] += eps;
            let mut xm = x.clone();
            xm[(0, c)] -= eps;
            let (lp, _) = loss::softmax_cross_entropy(net.forward_inference(&xp).row(0), target);
            let (lm, _) = loss::softmax_cross_entropy(net.forward_inference(&xm).row(0), target);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gin[(0, c)]).abs() < 1e-5,
                "skip-net grad mismatch at input {c}: fd={fd} got={}",
                gin[(0, c)]
            );
        }
    }

    #[test]
    fn rt_gradient_flows_through_skip() {
        // With the skip, input 0 must receive gradient from BOTH paths;
        // zero out the tower and only the skip remains.
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = PensieveNet::new(PensieveArch::LastBitrateSkip, 3, 4, 2, &mut rng);
        let x = Matrix::from_rows(&[&[0.5, 0.0, 0.0]]);
        net.forward(&x);
        net.zero_grad();
        let gin = net.backward(&Matrix::row_vector(&[1.0, 0.0]));
        assert!(gin[(0, 0)].abs() > 0.0, "r_t must receive gradient");
    }

    #[test]
    fn untrained_agent_runs_and_training_improves_it() {
        let mut rng = StdRng::seed_from_u64(77);
        let video = Arc::new(VideoModel::standard(16, 3));
        let trace = Arc::new(NetworkTrace::fixed(2000.0, 400.0));
        let pool = vec![AbrEnv::new(video, trace, 0.0)];
        let mut agent = pensieve_agent(PensieveArch::Original, 24, &mut rng);
        let before = evaluate(&pool[0], &agent.policy, 1, 100, &mut rng);
        let curve = train_pensieve(&mut agent, &pool, 60, &mut rng);
        assert_eq!(curve.len(), 60);
        let after = evaluate(&pool[0], &agent.policy, 1, 100, &mut rng);
        assert!(
            after > before,
            "training should improve QoE: before {before:.3}, after {after:.3}"
        );
        // And the learned policy must produce valid distributions.
        let probs = agent.policy.action_probs(&[0.1; OBS_DIM]);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let mut rng = StdRng::seed_from_u64(13);
        let net = PensieveNet::new(PensieveArch::LastBitrateSkip, OBS_DIM, 16, 6, &mut rng);
        let json = serde_json::to_string(&net).unwrap();
        let back: PensieveNet = serde_json::from_str(&json).unwrap();
        let x = vec![0.3; OBS_DIM];
        for (a, b) in net.predict(&x).iter().zip(back.predict(&x).iter()) {
            assert!((a - b).abs() < 1e-9);
        }
        assert!(net.artifact_bytes() > 1000);
    }
}
