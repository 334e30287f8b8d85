//! Advantage actor-critic (A2C-style) policy-gradient training.
//!
//! This is the single-process stand-in for the A3C/policy-gradient setups
//! the teacher systems were trained with (Pensieve, AuTO's lRLA/sRLA);
//! parallel workers only change wall-clock time, not the policy class, so
//! the substitution is listed in the README's *Substitutions*.

use crate::env::Env;
use crate::policy::SoftmaxPolicy;
use crate::rollout::{rollout, ActionMode, Trajectory};
use metis_nn::{clip_grad_norm, softmax, Activation, Adam, Matrix, Mlp, Network, Optimizer};
use rand::rngs::StdRng;
use rand::Rng;

/// Hyperparameters for actor-critic training.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    pub gamma: f64,
    pub actor_lr: f64,
    pub critic_lr: f64,
    /// Entropy bonus coefficient (exploration pressure).
    pub entropy_coef: f64,
    /// Episodes collected per `train_epoch` call.
    pub episodes_per_epoch: usize,
    /// Hard cap on episode length.
    pub max_steps: usize,
}

/// Joint L2 norm every actor and critic gradient is clipped to.
const GRAD_CLIP: f64 = 5.0;

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            gamma: 0.99,
            actor_lr: 1e-3,
            critic_lr: 3e-3,
            entropy_coef: 0.01,
            episodes_per_epoch: 8,
            max_steps: 1000,
        }
    }
}

/// Statistics from one training epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    pub mean_return: f64,
    pub mean_entropy: f64,
    pub mean_episode_len: f64,
}

/// An actor (softmax policy) and critic (value MLP) trained jointly.
/// Generic over the actor's [`Network`] so custom architectures (the
/// Figure-10 skip connection) train identically to plain MLPs.
#[derive(Debug, Clone)]
pub struct ActorCritic<N: Network = Mlp> {
    pub policy: SoftmaxPolicy<N>,
    pub critic: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    pub config: TrainConfig,
}

impl ActorCritic<Mlp> {
    /// Build actor `[obs, hidden.., n_actions]` and critic
    /// `[obs, hidden.., 1]` networks with tanh hidden activations.
    pub fn new(
        obs_dim: usize,
        n_actions: usize,
        hidden: &[usize],
        config: TrainConfig,
        rng: &mut StdRng,
    ) -> Self {
        let mut actor_dims = vec![obs_dim];
        actor_dims.extend_from_slice(hidden);
        actor_dims.push(n_actions);
        let mut critic_dims = vec![obs_dim];
        critic_dims.extend_from_slice(hidden);
        critic_dims.push(1);
        let actor = Mlp::new(&actor_dims, Activation::Tanh, Activation::Linear, rng);
        let critic = Mlp::new(&critic_dims, Activation::Tanh, Activation::Linear, rng);
        let actor_opt = Adam::new(config.actor_lr);
        let critic_opt = Adam::new(config.critic_lr);
        ActorCritic {
            policy: SoftmaxPolicy::new(actor),
            critic,
            actor_opt,
            critic_opt,
            config,
        }
    }
}

impl<N: Network> ActorCritic<N> {
    /// Wrap externally built networks (used by the Pensieve architecture
    /// experiments where the actor has a custom structure).
    pub fn from_networks(actor: N, critic: Mlp, config: TrainConfig) -> Self {
        let actor_opt = Adam::new(config.actor_lr);
        let critic_opt = Adam::new(config.critic_lr);
        ActorCritic {
            policy: SoftmaxPolicy::new(actor),
            critic,
            actor_opt,
            critic_opt,
            config,
        }
    }

    /// Critic value estimate for one observation.
    pub fn value(&self, obs: &[f64]) -> f64 {
        self.critic.predict(obs)[0]
    }

    /// A snapshot of the critic as a batched [`crate::ValueEstimate`] —
    /// the value bootstrap handed to the conversion pipeline so Eq.-1
    /// lookaheads are labelled in matrix-matrix passes.
    pub fn value_estimate(&self) -> crate::value::NetworkValue<Mlp> {
        crate::value::NetworkValue::new(self.critic.clone())
    }

    /// Collect episodes (sampling actions) and apply one gradient update to
    /// actor and critic. `env_pool` supplies episode variation: one element
    /// is chosen (uniformly) and cloned per episode.
    pub fn train_epoch<E: Env>(&mut self, env_pool: &[E], rng: &mut StdRng) -> EpochStats {
        assert!(!env_pool.is_empty(), "train_epoch: empty environment pool");
        let mut trajectories = Vec::with_capacity(self.config.episodes_per_epoch);
        for _ in 0..self.config.episodes_per_epoch {
            let mut env = env_pool[rng.gen_range(0..env_pool.len())].clone();
            trajectories.push(rollout(
                &mut env,
                &self.policy,
                ActionMode::Sample,
                self.config.max_steps,
                rng,
            ));
        }
        self.update(&trajectories)
    }

    /// Apply one actor-critic update from already-collected trajectories.
    pub fn update(&mut self, trajectories: &[Trajectory]) -> EpochStats {
        let gamma = self.config.gamma;
        let mut observations: Vec<&[f64]> = Vec::new();
        let mut actions: Vec<usize> = Vec::new();
        let mut returns: Vec<f64> = Vec::new();
        for traj in trajectories {
            let g = traj.discounted_returns(gamma);
            for ((obs, &action), ret) in traj.observations.iter().zip(&traj.actions).zip(g) {
                observations.push(obs);
                actions.push(action);
                returns.push(ret);
            }
        }
        let n = observations.len();
        if n == 0 {
            return EpochStats {
                mean_return: 0.0,
                mean_entropy: 0.0,
                mean_episode_len: 0.0,
            };
        }

        let obs_dim = observations[0].len();
        let mut x = Matrix::zeros(n, obs_dim);
        for (i, o) in observations.iter().enumerate() {
            x.row_mut(i).copy_from_slice(o);
        }

        // ---- critic update: fit V(s) to the Monte-Carlo return ----
        let values = self.critic.forward(&x);
        let mut critic_grad = Matrix::zeros(n, 1);
        for i in 0..n {
            critic_grad[(i, 0)] = 2.0 * (values[(i, 0)] - returns[i]) / n as f64;
        }
        self.critic.zero_grad();
        self.critic.backward(&critic_grad);
        {
            let mut params = self.critic.params();
            clip_grad_norm(&mut params, GRAD_CLIP);
            self.critic_opt.step(&mut params);
        }

        // ---- advantages (from pre-update critic values), standardized
        // within the epoch for variance reduction ----
        let mut advantages: Vec<f64> = (0..n).map(|i| returns[i] - values[(i, 0)]).collect();
        if n > 1 {
            let mean = advantages.iter().sum::<f64>() / n as f64;
            let var = advantages
                .iter()
                .map(|a| (a - mean) * (a - mean))
                .sum::<f64>()
                / n as f64;
            let std = var.sqrt().max(1e-8);
            for a in &mut advantages {
                *a = (*a - mean) / std;
            }
        }

        // ---- actor update: policy gradient + entropy bonus ----
        let logits = self.policy.net.forward(&x);
        let n_actions = logits.cols();
        let mut actor_grad = Matrix::zeros(n, n_actions);
        let mut total_entropy = 0.0;
        for i in 0..n {
            let probs = softmax(logits.row(i));
            let entropy: f64 = -probs
                .iter()
                .filter(|&&p| p > 0.0)
                .map(|&p| p * p.ln())
                .sum::<f64>();
            total_entropy += entropy;
            for k in 0..n_actions {
                let onehot = if k == actions[i] { 1.0 } else { 0.0 };
                // d(-adv·lnπ)/dz_k = adv·(p_k − 1{k=a})
                let pg = advantages[i] * (probs[k] - onehot);
                // d(-β·H)/dz_k = β·p_k·(ln p_k + H)
                let ent =
                    self.config.entropy_coef * probs[k] * (probs[k].max(1e-12).ln() + entropy);
                actor_grad[(i, k)] = (pg + ent) / n as f64;
            }
        }
        self.policy.net.zero_grad();
        self.policy.net.backward(&actor_grad);
        {
            let mut params = self.policy.net.params();
            clip_grad_norm(&mut params, GRAD_CLIP);
            self.actor_opt.step(&mut params);
        }

        let total_return: f64 = trajectories.iter().map(|t| t.total_reward()).sum();
        EpochStats {
            mean_return: total_return / trajectories.len() as f64,
            mean_entropy: total_entropy / n as f64,
            mean_episode_len: n as f64 / trajectories.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_envs::{BanditEnv, DelayedEnv};
    use crate::policy::Policy;
    use crate::rollout::evaluate;
    use rand::SeedableRng;

    #[test]
    fn learns_contextual_bandit() {
        let mut rng = StdRng::seed_from_u64(11);
        let config = TrainConfig {
            gamma: 0.9,
            actor_lr: 5e-3,
            critic_lr: 1e-2,
            episodes_per_epoch: 8,
            max_steps: 20,
            ..Default::default()
        };
        let mut ac = ActorCritic::new(3, 3, &[16], config, &mut rng);
        let pool: Vec<BanditEnv> = (0..8).map(|s| BanditEnv::new(3, 20, s)).collect();
        for _ in 0..150 {
            ac.train_epoch(&pool, &mut rng);
        }
        let score = evaluate(&pool[0], &ac.policy, 4, 20, &mut rng);
        assert!(score > 17.0, "bandit not learned: mean return {score}/20");
    }

    #[test]
    fn learns_delayed_credit() {
        let mut rng = StdRng::seed_from_u64(7);
        let config = TrainConfig {
            gamma: 0.99,
            actor_lr: 1e-2,
            critic_lr: 2e-2,
            episodes_per_epoch: 16,
            max_steps: 10,
            ..Default::default()
        };
        let mut ac = ActorCritic::new(2, 2, &[8], config, &mut rng);
        let pool = [DelayedEnv::new()];
        for _ in 0..120 {
            ac.train_epoch(&pool, &mut rng);
        }
        // The first action decides everything: the policy must pick 1.
        assert_eq!(ac.policy.act_greedy(&[0.0, 0.0]), 1);
        let score = evaluate(&pool[0], &ac.policy, 3, 10, &mut rng);
        assert_eq!(score, 1.0);
    }

    #[test]
    fn critic_learns_values() {
        let mut rng = StdRng::seed_from_u64(19);
        let config = TrainConfig {
            episodes_per_epoch: 16,
            max_steps: 10,
            ..Default::default()
        };
        let mut ac = ActorCritic::new(2, 2, &[8], config, &mut rng);
        let pool = [DelayedEnv::new()];
        for _ in 0..200 {
            ac.train_epoch(&pool, &mut rng);
        }
        // Once the policy picks action 1, V(initial state) -> gamma * 1.
        let v0 = ac.value(&[0.0, 0.0]);
        assert!(
            v0 > 0.5,
            "critic value at start should approach ~0.99, got {v0}"
        );
    }

    #[test]
    fn update_with_empty_batch_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ac = ActorCritic::new(2, 2, &[4], TrainConfig::default(), &mut rng);
        let stats = ac.update(&[]);
        assert_eq!(stats.mean_return, 0.0);
    }

    #[test]
    fn entropy_decreases_as_policy_sharpens() {
        let mut rng = StdRng::seed_from_u64(23);
        let config = TrainConfig {
            entropy_coef: 0.0,
            episodes_per_epoch: 8,
            max_steps: 20,
            ..Default::default()
        };
        let mut ac = ActorCritic::new(3, 3, &[16], config, &mut rng);
        let pool: Vec<BanditEnv> = (0..4).map(|s| BanditEnv::new(3, 20, s)).collect();
        let first = ac.train_epoch(&pool, &mut rng);
        let mut last = first;
        for _ in 0..150 {
            last = ac.train_epoch(&pool, &mut rng);
        }
        assert!(
            last.mean_entropy < first.mean_entropy,
            "entropy should drop: {} -> {}",
            first.mean_entropy,
            last.mean_entropy
        );
    }
}
