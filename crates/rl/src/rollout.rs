//! Trajectory collection and return/advantage computation.

use crate::env::{Env, Step};
use crate::policy::Policy;
use rand::rngs::StdRng;

/// A completed (or truncated) episode.
#[derive(Debug, Clone, Default)]
pub struct Trajectory {
    /// Observation at each decision point (length = number of actions).
    pub observations: Vec<Vec<f64>>,
    pub actions: Vec<usize>,
    pub rewards: Vec<f64>,
    /// Whether the episode reached a terminal state (vs. hit `max_steps`).
    pub terminated: bool,
}

impl Trajectory {
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Total undiscounted reward.
    pub fn total_reward(&self) -> f64 {
        self.rewards.iter().sum()
    }

    /// Discounted returns `G_t = r_t + γ·G_{t+1}` for every step.
    pub fn discounted_returns(&self, gamma: f64) -> Vec<f64> {
        let mut returns = vec![0.0; self.rewards.len()];
        let mut acc = 0.0;
        for t in (0..self.rewards.len()).rev() {
            acc = self.rewards[t] + gamma * acc;
            returns[t] = acc;
        }
        returns
    }
}

/// How actions are selected during a rollout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionMode {
    /// Sample from the policy distribution (training).
    Sample,
    /// Always take the argmax (evaluation / trace collection).
    Greedy,
}

/// Roll a policy through one episode (capped at `max_steps`).
pub fn rollout<E: Env, P: Policy + ?Sized>(
    env: &mut E,
    policy: &P,
    mode: ActionMode,
    max_steps: usize,
    rng: &mut StdRng,
) -> Trajectory {
    let mut traj = Trajectory::default();
    let mut obs = env.reset();
    for _ in 0..max_steps {
        let action = match mode {
            ActionMode::Sample => policy.act_sample(&obs, rng),
            ActionMode::Greedy => policy.act_greedy(&obs),
        };
        let Step {
            obs: next,
            reward,
            done,
        } = env.step(action);
        traj.observations.push(obs);
        traj.actions.push(action);
        traj.rewards.push(reward);
        obs = next;
        if done {
            traj.terminated = true;
            break;
        }
    }
    traj
}

/// Mean total reward of a policy over `episodes` greedy rollouts, each on a
/// fresh clone of `env` (the env itself decides any internal variation).
pub fn evaluate<E: Env, P: Policy + ?Sized>(
    env: &E,
    policy: &P,
    episodes: usize,
    max_steps: usize,
    rng: &mut StdRng,
) -> f64 {
    if episodes == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for _ in 0..episodes {
        let mut e = env.clone();
        total += rollout(&mut e, policy, ActionMode::Greedy, max_steps, rng).total_reward();
    }
    total / episodes as f64
}

/// Summary of one greedy evaluation episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeScore {
    /// Total undiscounted reward of the episode.
    pub total_reward: f64,
    /// Number of decision steps taken.
    pub steps: usize,
}

/// Greedy episode score of a policy on every environment of a pool, with
/// the episodes fanned across `threads` workers (0 = all cores) and the
/// results merged in environment order — identical output for any thread
/// count. Each episode's RNG derives from `seed` and the environment
/// index (greedy rollouts only consume it if a policy samples internally).
pub fn evaluate_pool<E: Env + Sync, P: Policy + Sync + ?Sized>(
    pool: &[E],
    policy: &P,
    max_steps: usize,
    seed: u64,
    threads: usize,
) -> Vec<EpisodeScore> {
    use rand::SeedableRng;
    metis_nn::par::parallel_map_indexed(pool.len(), threads, |i| {
        let mut env = pool[i].clone();
        let mut rng = StdRng::seed_from_u64(metis_nn::par::mix_seed(
            seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15),
        ));
        let traj = rollout(&mut env, policy, ActionMode::Greedy, max_steps, &mut rng);
        EpisodeScore {
            total_reward: traj.total_reward(),
            steps: traj.len(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_envs::{BanditEnv, DelayedEnv};
    use crate::policy::{ConstantPolicy, UniformPolicy};
    use rand::SeedableRng;

    #[test]
    fn discounted_returns_known_values() {
        let traj = Trajectory {
            rewards: vec![1.0, 1.0, 1.0],
            ..Default::default()
        };
        let r = traj.discounted_returns(0.5);
        assert_eq!(r, vec![1.75, 1.5, 1.0]);
        let r1 = traj.discounted_returns(1.0);
        assert_eq!(r1, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn rollout_respects_max_steps() {
        let mut env = BanditEnv::new(2, 1_000_000, 3);
        let policy = UniformPolicy { n_actions: 2 };
        let mut rng = StdRng::seed_from_u64(0);
        let traj = rollout(&mut env, &policy, ActionMode::Sample, 10, &mut rng);
        assert_eq!(traj.len(), 10);
        assert!(!traj.terminated);
    }

    #[test]
    fn rollout_stops_at_terminal() {
        let mut env = DelayedEnv::new();
        let policy = ConstantPolicy {
            action: 1,
            n_actions: 2,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let traj = rollout(&mut env, &policy, ActionMode::Greedy, 100, &mut rng);
        assert_eq!(traj.len(), 2);
        assert!(traj.terminated);
        assert_eq!(traj.total_reward(), 1.0);
    }

    #[test]
    fn rollout_records_aligned_tuples() {
        let mut env = DelayedEnv::new();
        let policy = ConstantPolicy {
            action: 0,
            n_actions: 2,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let traj = rollout(&mut env, &policy, ActionMode::Greedy, 100, &mut rng);
        assert_eq!(traj.observations.len(), traj.actions.len());
        assert_eq!(traj.actions.len(), traj.rewards.len());
        assert_eq!(traj.observations[0], vec![0.0, 0.0]);
        assert_eq!(traj.total_reward(), 0.0);
    }

    #[test]
    fn evaluate_scores_optimal_vs_bad_policy() {
        // For DelayedEnv, always-1 is optimal (return 1), always-0 gets 0.
        let env = DelayedEnv::new();
        let mut rng = StdRng::seed_from_u64(0);
        let good = evaluate(
            &env,
            &ConstantPolicy {
                action: 1,
                n_actions: 2,
            },
            5,
            100,
            &mut rng,
        );
        let bad = evaluate(
            &env,
            &ConstantPolicy {
                action: 0,
                n_actions: 2,
            },
            5,
            100,
            &mut rng,
        );
        assert_eq!(good, 1.0);
        assert_eq!(bad, 0.0);
    }
}
