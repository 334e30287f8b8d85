//! Conversion configuration, results, and deployable students for the
//! §3.2 pipeline.
//!
//! The loop itself — trace collection with DAgger takeover, Eq.-1
//! resampling, fitting, CCP pruning — lives in the scenario-agnostic
//! engine [`crate::pipeline::ConversionPipeline`], the one conversion
//! entry point. Also here: the §6.3 debugging interface (oversampling
//! rare actions) and the multi-output regression student for AuTO's sRLA.

use crate::pipeline::PipelineStats;
use metis_dt::{fit, Criterion, Dataset, DecisionTree, TreeConfig};
use metis_rl::{Policy, SampledState};
use rand::rngs::StdRng;

/// A decision-tree policy: the deployable student (§3.2 Step 4).
#[derive(Debug, Clone)]
pub struct TreePolicy {
    pub tree: DecisionTree,
}

impl TreePolicy {
    pub fn new(tree: DecisionTree) -> Self {
        TreePolicy { tree }
    }
}

impl Policy for TreePolicy {
    fn action_probs(&self, obs: &[f64]) -> Vec<f64> {
        // Leaf class frequencies are a natural soft output; fall back to a
        // one-hot on the prediction for degenerate leaves.
        match self.tree.predict_proba(obs) {
            Some(p) => p,
            None => {
                let n = match self.tree.kind() {
                    metis_dt::TreeKind::Classifier { n_classes } => n_classes,
                    metis_dt::TreeKind::Regressor => {
                        panic!("TreePolicy requires a classification tree")
                    }
                };
                let mut p = vec![0.0; n];
                p[self.tree.predict_class(obs)] = 1.0;
                p
            }
        }
    }

    fn act_greedy(&self, obs: &[f64]) -> usize {
        self.tree.predict_class(obs)
    }
}

/// Conversion configuration (§3.2 + Table 4).
#[derive(Debug, Clone)]
pub struct ConversionConfig {
    /// Final leaf budget (Table 4: 200 for Pensieve, 2000 for AuTO).
    pub max_leaf_nodes: usize,
    /// Overshoot factor before CCP pruning (§3.2 Step 3): the tree is
    /// grown to `ccp_overshoot * max_leaf_nodes` leaves, then pruned.
    pub ccp_overshoot: usize,
    /// DAgger rounds after the initial teacher-controlled round.
    pub dagger_rounds: usize,
    /// Episodes collected per round.
    pub episodes_per_round: usize,
    pub max_steps: usize,
    pub gamma: f64,
    /// Apply the Eq.-1 advantage resampling (Step 2). Off = ablation.
    pub resample: bool,
    /// Number of resampled points (defaults to the dataset size).
    pub resample_size: Option<usize>,
    /// Teacher takeover probability on student deviation.
    pub takeover_prob: f64,
    /// §6.3 debugging: oversample each action to at least this fraction.
    pub oversample_min_frac: Option<f64>,
}

impl Default for ConversionConfig {
    fn default() -> Self {
        ConversionConfig {
            max_leaf_nodes: 200,
            ccp_overshoot: 4,
            dagger_rounds: 2,
            episodes_per_round: 16,
            max_steps: 1000,
            gamma: 0.99,
            resample: true,
            resample_size: None,
            takeover_prob: 0.7,
            oversample_min_frac: None,
        }
    }
}

impl ConversionConfig {
    /// Panic, naming the field, on a config the conversion cannot run or
    /// would run as something else: a zero leaf budget, episode count,
    /// step limit or resample size (each would fail later inside the fit
    /// or the resampler with a message about neither), a NaN or
    /// out-of-[0, 1] discount (a NaN one zeroes every Eq.-1 weight, so
    /// resampling falls back to uniform) or takeover probability (a NaN
    /// one never takes over), and an oversampling floor outside [0, 1),
    /// which [`oversample_rare_actions`] would never reach.
    pub(crate) fn check(&self) {
        for (field, value) in [
            ("max_leaf_nodes", self.max_leaf_nodes),
            ("episodes_per_round", self.episodes_per_round),
            ("max_steps", self.max_steps),
            ("resample_size", self.resample_size.unwrap_or(1)),
        ] {
            assert!(
                value > 0,
                "ConversionConfig::{field} must be positive, got 0"
            );
        }
        for (field, value) in [("gamma", self.gamma), ("takeover_prob", self.takeover_prob)] {
            assert!(
                (0.0..=1.0).contains(&value),
                "ConversionConfig::{field} must be in [0, 1], got {value}"
            );
        }
        if let Some(frac) = self.oversample_min_frac {
            check_min_frac(frac);
        }
    }
}

/// The oversampling floor must be a fraction below 1: every duplicate adds
/// one state to both the action's count and the total, so a floor of 1 or
/// more is never reached while another action holds a state.
fn check_min_frac(min_frac: f64) {
    assert!(
        (0.0..1.0).contains(&min_frac),
        "ConversionConfig::oversample_min_frac must be in [0, 1), got {min_frac}"
    );
}

/// Conversion output.
#[derive(Debug, Clone)]
pub struct ConversionResult {
    pub policy: TreePolicy,
    /// Aggregated training states (before resampling).
    pub dataset_size: usize,
    /// Student-vs-teacher agreement after each round.
    pub fidelity_history: Vec<f64>,
    /// Wall-clock/volume statistics of the run.
    pub stats: PipelineStats,
}

/// §6.3: duplicate states of rare actions until every action present in
/// the dataset reaches `min_frac` of the total (missing actions cannot be
/// conjured, matching the paper — oversampling only rebalances).
///
/// # Panics
/// Panics unless `min_frac` is finite and in [0, 1).
pub fn oversample_rare_actions(
    states: &mut Vec<SampledState>,
    n_actions: usize,
    min_frac: f64,
    rng: &mut StdRng,
) {
    use rand::Rng;
    check_min_frac(min_frac);
    let total0 = states.len();
    if total0 == 0 {
        return;
    }
    for a in 0..n_actions {
        let holders: Vec<usize> = (0..states.len())
            .filter(|&i| states[i].teacher_action == a)
            .collect();
        if holders.is_empty() {
            continue;
        }
        let mut count = holders.len();
        while (count as f64) < min_frac * states.len() as f64 {
            let pick = holders[rng.gen_range(0..holders.len())];
            states.push(states[pick].clone());
            count += 1;
        }
    }
}

/// A bundle of per-output regression trees — Metis' student for agents
/// with continuous multi-dimensional outputs (AuTO's sRLA thresholds).
#[derive(Debug, Clone)]
pub struct MultiRegressor {
    pub trees: Vec<DecisionTree>,
}

impl MultiRegressor {
    /// Fit one regression tree per output dimension, output dimensions in
    /// parallel (they are independent; results merge in dimension order,
    /// so the bundle is identical for any core count).
    pub fn fit(
        x: &[Vec<f64>],
        y: &[Vec<f64>],
        max_leaf_nodes: usize,
    ) -> Result<Self, metis_dt::FitError> {
        assert!(!x.is_empty() && x.len() == y.len(), "x/y mismatch");
        let out_dim = y[0].len();
        let fit_dim = |k: usize| {
            let ds = Dataset::regression(x.to_vec(), y.iter().map(|row| row[k]).collect())
                .expect("valid regression dataset");
            let cfg = TreeConfig {
                max_leaf_nodes,
                criterion: Criterion::Mse,
                // Outer per-dimension parallelism; keep the inner split
                // scan sequential to avoid oversubscription.
                threads: 1,
                ..Default::default()
            };
            fit(&ds, &cfg)
        };
        let results = metis_rl::parallel_map_indexed(out_dim, 0, fit_dim);
        let trees: Result<Vec<DecisionTree>, metis_dt::FitError> = results.into_iter().collect();
        Ok(MultiRegressor { trees: trees? })
    }

    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        self.trees.iter().map(|t| t.predict_value(x)).collect()
    }

    /// Mean per-dimension RMSE against reference outputs.
    pub fn rmse(&self, x: &[Vec<f64>], y: &[Vec<f64>]) -> f64 {
        let out_dim = self.trees.len();
        let mut acc = 0.0;
        for k in 0..out_dim {
            let pred: Vec<f64> = x.iter().map(|xi| self.trees[k].predict_value(xi)).collect();
            let truth: Vec<f64> = y.iter().map(|row| row[k]).collect();
            acc += metis_dt::metrics::rmse_slices(&pred, &truth);
        }
        acc / out_dim as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ConversionPipeline;
    use metis_rl::env::test_envs::{BanditEnv, DelayedEnv};
    use metis_rl::{evaluate, ConstantPolicy};
    use rand::{RngCore, SeedableRng};

    /// Oracle teacher for the bandit.
    #[derive(Clone)]
    struct Oracle;
    impl Policy for Oracle {
        fn action_probs(&self, obs: &[f64]) -> Vec<f64> {
            let mut p = vec![0.0; obs.len()];
            p[obs.iter().position(|&x| x == 1.0).unwrap()] = 1.0;
            p
        }
    }

    #[test]
    fn converted_tree_mimics_oracle_bandit() {
        let pool: Vec<BanditEnv> = (0..4).map(|s| BanditEnv::new(3, 20, s)).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = ConversionConfig {
            max_leaf_nodes: 8,
            episodes_per_round: 8,
            max_steps: 20,
            ..Default::default()
        };
        let result = ConversionPipeline::new(&pool, &Oracle, |_| 0.0)
            .conversion(cfg)
            .seed(rng.next_u64())
            .run();
        // The one-hot context is trivially separable: perfect fidelity.
        assert!(
            *result.fidelity_history.last().unwrap() > 0.99,
            "fidelity {:?}",
            result.fidelity_history
        );
        // And the tree must actually play the bandit optimally.
        let score = evaluate(&pool[0], &result.policy, 3, 20, &mut rng);
        assert!(score > 19.0, "tree bandit score {score}");
    }

    #[test]
    fn converted_tree_solves_delayed_env() {
        let pool = [DelayedEnv::new()];
        let teacher = ConstantPolicy {
            action: 1,
            n_actions: 2,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = ConversionConfig {
            max_leaf_nodes: 4,
            episodes_per_round: 4,
            max_steps: 5,
            ..Default::default()
        };
        let result = ConversionPipeline::new(&pool, &teacher, |_| 0.0)
            .conversion(cfg)
            .seed(rng.next_u64())
            .run();
        assert_eq!(result.policy.act_greedy(&[0.0, 0.0]), 1);
        let score = evaluate(&pool[0], &result.policy, 1, 5, &mut rng);
        assert_eq!(score, 1.0);
    }

    #[test]
    fn leaf_budget_respected() {
        let pool: Vec<BanditEnv> = (0..4).map(|s| BanditEnv::new(3, 50, s)).collect();
        let mut rng = StdRng::seed_from_u64(3);
        for max in [2, 4, 16] {
            let cfg = ConversionConfig {
                max_leaf_nodes: max,
                episodes_per_round: 4,
                max_steps: 50,
                ..Default::default()
            };
            let result = ConversionPipeline::new(&pool, &Oracle, |_| 0.0)
                .conversion(cfg)
                .seed(rng.next_u64())
                .run();
            assert!(result.policy.tree.n_leaves() <= max);
        }
    }

    #[test]
    fn tree_policy_probs_are_distributions() {
        let pool = [BanditEnv::new(3, 20, 9)];
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = ConversionConfig {
            max_leaf_nodes: 4,
            episodes_per_round: 4,
            max_steps: 20,
            dagger_rounds: 0,
            ..Default::default()
        };
        let result = ConversionPipeline::new(&pool, &Oracle, |_| 0.0)
            .conversion(cfg)
            .seed(rng.next_u64())
            .run();
        let p = result.policy.action_probs(&[1.0, 0.0, 0.0]);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn oversampling_rebalances_actions() {
        let mut states = vec![
            SampledState {
                obs: vec![0.0],
                teacher_action: 0,
                weight: 1.0
            };
            99
        ];
        states.push(SampledState {
            obs: vec![1.0],
            teacher_action: 1,
            weight: 1.0,
        });
        let mut rng = StdRng::seed_from_u64(5);
        oversample_rare_actions(&mut states, 3, 0.05, &mut rng);
        let ones = states.iter().filter(|s| s.teacher_action == 1).count();
        assert!(
            ones as f64 >= 0.05 * states.len() as f64 - 1.0,
            "action 1 still rare: {ones}/{}",
            states.len()
        );
        // Action 2 was absent: oversampling cannot create it.
        assert!(states.iter().all(|s| s.teacher_action != 2));
    }

    #[test]
    fn multiregressor_fits_independent_outputs() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![if i < 25 { 1.0 } else { 3.0 }, i as f64 * 0.1])
            .collect();
        let mr = MultiRegressor::fit(&x, &y, 16).unwrap();
        assert_eq!(mr.trees.len(), 2);
        let p = mr.predict(&[10.0]);
        assert!((p[0] - 1.0).abs() < 0.1);
        assert!((p[1] - 1.0).abs() < 0.3);
        assert!(mr.rmse(&x, &y) < 0.2);
    }

    #[test]
    fn resampling_ablation_both_work() {
        let pool: Vec<BanditEnv> = (0..2).map(|s| BanditEnv::new(2, 20, s)).collect();
        let mut rng = StdRng::seed_from_u64(6);
        for resample in [true, false] {
            let cfg = ConversionConfig {
                max_leaf_nodes: 4,
                episodes_per_round: 4,
                max_steps: 20,
                resample,
                ..Default::default()
            };
            let result = ConversionPipeline::new(&pool, &Oracle, |_| 0.0)
                .conversion(cfg)
                .seed(rng.next_u64())
                .run();
            assert!(*result.fidelity_history.last().unwrap() > 0.9);
        }
    }
}
