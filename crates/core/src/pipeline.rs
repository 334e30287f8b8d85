//! The unified, parallel §3.2 conversion engine.
//!
//! [`ConversionPipeline`] owns the complete teacher→tree loop the paper
//! describes — DAgger-style trace collection with teacher takeover,
//! Eq.-1 advantage resampling, CART fitting, cost-complexity pruning, and
//! fidelity/return evaluation — parameterized over the [`metis_rl::Env`] /
//! [`metis_rl::Policy`] traits so every scenario (Pensieve/ABR, AuTO flow
//! scheduling, and anything future) runs through the same code path
//! instead of hand-rolling the loop per experiment.
//!
//! Parallelism and batching are explicit and deterministic:
//!
//! * **Episode-level** — collection rounds fan independent seeded episodes
//!   across threads and merge by episode index
//!   ([`metis_rl::collect_seeded`]).
//! * **Batch-level** — within each episode, teacher labels/distributions
//!   and Eq.-1 value lookaheads are issued as matrix-matrix passes (one
//!   per episode) instead of per-obs matrix-vector queries; fidelity
//!   evaluation labels the whole dataset in one batched pass. Both are
//!   bit-identical to the per-obs oracle (`metis_rl::viper::oracle`).
//! * **Feature-level** — tree fitting scans features in parallel over a
//!   sort-once presorted index ([`metis_dt::TreeConfig::threads`]).
//!
//! Same seed ⇒ identical tree, for **any** thread count and batch size.
//!
//! ```
//! use metis_core::ConversionPipeline;
//! use metis_rl::env::test_envs::BanditEnv;
//! use metis_rl::UniformPolicy;
//!
//! let pool: Vec<BanditEnv> = (0..4).map(|s| BanditEnv::new(3, 20, s)).collect();
//! let teacher = UniformPolicy { n_actions: 3 };
//! let result = ConversionPipeline::new(&pool, &teacher, |_| 0.0)
//!     .seed(7)
//!     .threads(0) // all cores
//!     .run();
//! assert!(result.policy.tree.n_leaves() >= 1);
//! ```

use crate::convert::{oversample_rare_actions, ConversionConfig, ConversionResult, TreePolicy};
use metis_dt::{fit, prune_to_leaves, Criterion, Dataset, TreeConfig};
use metis_rl::{
    collect_seeded, resample_by_weight, CollectConfig, Controller, Env, Policy, SampledState,
    ValueEstimate,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Wall-clock and volume statistics of one [`ConversionPipeline::run`].
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Seconds spent in trace collection (all rounds).
    pub collect_s: f64,
    /// Seconds spent in §6.3 oversampling (when configured) and Eq.-1
    /// resampling (all rounds).
    pub resample_s: f64,
    /// Seconds spent building the weighted dataset and growing the CART
    /// tree (all rounds).
    pub fit_s: f64,
    /// Seconds spent in cost-complexity pruning (all rounds).
    pub prune_s: f64,
    /// Total labelled states collected across rounds.
    pub states_collected: usize,
    /// Collection rounds executed (1 + DAgger rounds).
    pub rounds: usize,
    /// Worker threads the run resolved to.
    pub threads: usize,
}

impl PipelineStats {
    /// End-to-end conversion throughput in labelled states per second.
    pub fn samples_per_sec(&self) -> f64 {
        let total = self.collect_s + self.resample_s + self.fit_s + self.prune_s;
        if total > 0.0 {
            self.states_collected as f64 / total
        } else {
            0.0
        }
    }
}

/// Derive a decorrelated per-stage seed from the pipeline's base seed.
fn stage_seed(base: u64, stage: u64) -> u64 {
    metis_rl::mix_seed(base ^ stage.wrapping_mul(0xD1B54A32D192ED03))
}

/// The scenario-agnostic §3.2 conversion engine. See the module docs.
pub struct ConversionPipeline<'a, E, T: ?Sized, V> {
    pool: &'a [E],
    teacher: &'a T,
    value_fn: V,
    conversion: ConversionConfig,
    threads: usize,
    seed: u64,
}

impl<'a, E, T, V> ConversionPipeline<'a, E, T, V>
where
    E: Env + Sync,
    T: Policy + Sync + ?Sized,
    V: Fn(&[f64]) -> f64 + Sync,
{
    /// Build a pipeline over an environment pool, a teacher policy, and a
    /// closure bootstrap value estimate for the Eq.-1 Q lookahead
    /// (`|_| 0.0` for myopic weights). Closures are queried per-obs; for
    /// batched value labelling wrap a critic network and use
    /// [`ConversionPipeline::with_value`].
    pub fn new(pool: &'a [E], teacher: &'a T, value_fn: V) -> Self {
        Self::with_value(pool, teacher, value_fn)
    }
}

impl<'a, E, T, V> ConversionPipeline<'a, E, T, V>
where
    E: Env + Sync,
    T: Policy + Sync + ?Sized,
    V: ValueEstimate,
{
    /// Build a pipeline with any [`ValueEstimate`] — in particular
    /// [`metis_rl::NetworkValue`] wrapping the teacher's critic, whose
    /// Eq.-1 afterstate lookups then run as one batched forward pass per
    /// episode instead of one per observation.
    pub fn with_value(pool: &'a [E], teacher: &'a T, value_fn: V) -> Self {
        assert!(
            !pool.is_empty(),
            "ConversionPipeline: empty environment pool"
        );
        ConversionPipeline {
            pool,
            teacher,
            value_fn,
            conversion: ConversionConfig::default(),
            threads: 0,
            seed: 0,
        }
    }

    /// Replace the conversion hyperparameters (Table 4 knobs).
    pub fn conversion(mut self, cfg: ConversionConfig) -> Self {
        self.conversion = cfg;
        self
    }

    /// Worker threads for collection, fitting, and evaluation
    /// (0 = all available cores). Results are identical for any value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Base RNG seed: the single source of randomness for the whole run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn collect_cfg(&self) -> CollectConfig {
        CollectConfig {
            episodes: self.conversion.episodes_per_round,
            max_steps: self.conversion.max_steps,
            gamma: self.conversion.gamma,
            weighted: self.conversion.resample,
        }
    }

    /// Run the full conversion loop: teacher round, DAgger rounds with
    /// takeover, Eq.-1 resampling, fitting, and CCP pruning.
    ///
    /// # Panics
    /// Panics, naming the field, on a [`ConversionConfig`] the loop cannot
    /// run: a zero `max_leaf_nodes`, `episodes_per_round`, `max_steps` or
    /// `resample_size`, a `gamma` or `takeover_prob` that is NaN or outside
    /// [0, 1], or an `oversample_min_frac` outside [0, 1).
    pub fn run(&self) -> ConversionResult {
        self.run_publishing(|_, _| {})
    }

    /// [`ConversionPipeline::run`] with a publication hook: `publish`
    /// fires after every round's fit with `(round, &student)` — the
    /// serve-while-converting wiring hands each freshly fitted tree to a
    /// [`metis_serve::ModelRegistry`] so live traffic hot-swaps onto it
    /// mid-conversion. The hook never influences the conversion itself:
    /// results are bit-identical to [`ConversionPipeline::run`].
    pub fn run_publishing(&self, mut publish: impl FnMut(usize, &TreePolicy)) -> ConversionResult {
        let cfg = &self.conversion;
        cfg.check();
        let n_actions = self.pool[0].n_actions();
        let collect_cfg = self.collect_cfg();
        let mut stats = PipelineStats {
            rounds: 1 + cfg.dagger_rounds,
            threads: metis_rl::resolve_threads(self.threads),
            ..Default::default()
        };

        // Round 0: teacher-controlled traces.
        let t0 = Instant::now();
        let mut all_states = collect_seeded(
            self.pool,
            self.teacher,
            &self.value_fn,
            &Controller::Teacher,
            &collect_cfg,
            stage_seed(self.seed, 0),
            self.threads,
        );
        stats.collect_s += t0.elapsed().as_secs_f64();

        let mut student = self.debug_oversample_and_fit(&mut all_states, n_actions, 0, &mut stats);
        publish(0, &student);
        let mut fidelity_history = vec![metis_rl::fidelity_sharded(
            &all_states,
            &student,
            self.teacher,
            self.threads,
        )];

        // DAgger rounds: the student drives, the teacher labels and takes
        // over on deviation (§3.2 Step 1).
        for round in 1..=cfg.dagger_rounds {
            let t0 = Instant::now();
            let new_states = collect_seeded(
                self.pool,
                self.teacher,
                &self.value_fn,
                &Controller::StudentWithTakeover(&student, cfg.takeover_prob),
                &collect_cfg,
                stage_seed(self.seed, round as u64),
                self.threads,
            );
            stats.collect_s += t0.elapsed().as_secs_f64();
            all_states.extend(new_states);
            student =
                self.debug_oversample_and_fit(&mut all_states, n_actions, round as u64, &mut stats);
            publish(round, &student);
            fidelity_history.push(metis_rl::fidelity_sharded(
                &all_states,
                &student,
                self.teacher,
                self.threads,
            ));
        }

        stats.states_collected = all_states.len();
        ConversionResult {
            policy: student,
            dataset_size: all_states.len(),
            fidelity_history,
            stats,
        }
    }

    /// §6.3 oversampling (when configured) followed by resample, fit and
    /// prune, each timed into its own `stats` field.
    fn debug_oversample_and_fit(
        &self,
        states: &mut Vec<SampledState>,
        n_actions: usize,
        round: u64,
        stats: &mut PipelineStats,
    ) -> TreePolicy {
        let t0 = Instant::now();
        if let Some(frac) = self.conversion.oversample_min_frac {
            let mut rng = StdRng::seed_from_u64(stage_seed(self.seed, 0x0500 + round));
            oversample_rare_actions(states, n_actions, frac, &mut rng);
        }
        stats.resample_s += t0.elapsed().as_secs_f64();
        self.resample_fit_prune(states, n_actions, round, stats)
    }

    /// §3.2 Steps 2–3 on an explicit dataset: Eq.-1 resampling (when
    /// enabled), CART fit past the leaf budget, then CCP pruning back.
    /// Panics on the configs [`ConversionPipeline::run`] rejects.
    pub fn fit_states(&self, states: &[SampledState], n_actions: usize, round: u64) -> TreePolicy {
        self.conversion.check();
        self.resample_fit_prune(states, n_actions, round, &mut PipelineStats::default())
    }

    /// [`ConversionPipeline::fit_states`], adding each stage's wall time
    /// to `stats` under the names of the conversion ledger's layers.
    fn resample_fit_prune(
        &self,
        states: &[SampledState],
        n_actions: usize,
        round: u64,
        stats: &mut PipelineStats,
    ) -> TreePolicy {
        let cfg = &self.conversion;
        let t0 = Instant::now();
        let resampled;
        let fit_on: &[SampledState] = if cfg.resample {
            let n = cfg.resample_size.unwrap_or(states.len());
            let mut rng = StdRng::seed_from_u64(stage_seed(self.seed, 0x0A00 + round));
            resampled = resample_by_weight(states, n, &mut rng);
            &resampled
        } else {
            states
        };
        stats.resample_s += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let ds = dataset_from_states(fit_on, n_actions);
        let grown = fit(
            &ds,
            &TreeConfig {
                max_leaf_nodes: cfg.max_leaf_nodes * cfg.ccp_overshoot.max(1),
                criterion: Criterion::Gini,
                threads: self.threads,
                ..Default::default()
            },
        )
        .expect("classification fit cannot fail on a valid dataset");
        stats.fit_s += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let student = TreePolicy::new(prune_to_leaves(&grown, cfg.max_leaf_nodes));
        stats.prune_s += t0.elapsed().as_secs_f64();
        student
    }

    /// Collect teacher-controlled labelled states without fitting — the
    /// dataset-producing stage on its own, for evaluation corpora and the
    /// surrogate-baseline comparisons.
    pub fn collect_teacher_states(&self, episodes: usize, max_steps: usize) -> Vec<SampledState> {
        let collect_cfg = CollectConfig {
            episodes,
            max_steps,
            gamma: self.conversion.gamma,
            weighted: false,
        };
        collect_seeded(
            self.pool,
            self.teacher,
            &self.value_fn,
            &Controller::Teacher,
            &collect_cfg,
            stage_seed(self.seed, 0x0E00),
            self.threads,
        )
    }

    /// Mean greedy episode return of a policy across the pool (one episode
    /// per environment), evaluated in parallel with deterministic
    /// environment-order reduction.
    pub fn evaluate(&self, policy: &(dyn Policy + Sync), max_steps: usize) -> f64 {
        let per_env = self.evaluate_per_env(policy, max_steps);
        per_env.iter().sum::<f64>() / per_env.len() as f64
    }

    /// Per-environment greedy episode returns (parallel, env-ordered).
    pub fn evaluate_per_env(&self, policy: &(dyn Policy + Sync), max_steps: usize) -> Vec<f64> {
        metis_rl::evaluate_pool(
            self.pool,
            policy,
            max_steps,
            stage_seed(self.seed, 0x0F00),
            self.threads,
        )
        .into_iter()
        .map(|s| s.total_reward)
        .collect()
    }
}

fn dataset_from_states(states: &[SampledState], n_actions: usize) -> Dataset {
    let x: Vec<Vec<f64>> = states.iter().map(|s| s.obs.clone()).collect();
    let y: Vec<usize> = states.iter().map(|s| s.teacher_action).collect();
    let w: Vec<f64> = states.iter().map(|s| s.weight.max(1e-9)).collect();
    Dataset::classification_weighted(x, y, n_actions, w)
        .expect("states collected from an env are schema-consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_rl::env::test_envs::BanditEnv;

    /// Oracle teacher for the bandit (reads the one-hot context).
    #[derive(Clone)]
    struct Oracle;
    impl Policy for Oracle {
        fn action_probs(&self, obs: &[f64]) -> Vec<f64> {
            let mut p = vec![0.0; obs.len()];
            p[obs.iter().position(|&x| x == 1.0).unwrap()] = 1.0;
            p
        }
    }

    fn pool() -> Vec<BanditEnv> {
        (0..4).map(|s| BanditEnv::new(3, 20, s)).collect()
    }

    #[test]
    fn pipeline_reaches_high_fidelity_on_bandit() {
        let pool = pool();
        let cfg = ConversionConfig {
            max_leaf_nodes: 8,
            episodes_per_round: 8,
            max_steps: 20,
            ..Default::default()
        };
        let result = ConversionPipeline::new(&pool, &Oracle, |_| 0.0)
            .conversion(cfg)
            .seed(3)
            .run();
        assert!(
            *result.fidelity_history.last().unwrap() > 0.99,
            "fidelity {:?}",
            result.fidelity_history
        );
        let stats = &result.stats;
        assert_eq!(stats.rounds, 3);
        assert!(stats.states_collected > 0);
        // Every stage is timed on its own, and the rate covers them all.
        assert!(stats.collect_s > 0.0 && stats.fit_s > 0.0);
        assert!(stats.resample_s >= 0.0 && stats.prune_s >= 0.0);
        let total = stats.collect_s + stats.resample_s + stats.fit_s + stats.prune_s;
        assert_eq!(
            stats.samples_per_sec(),
            stats.states_collected as f64 / total
        );
    }

    #[test]
    fn same_seed_same_tree_any_thread_count() {
        let pool = pool();
        let cfg = ConversionConfig {
            max_leaf_nodes: 8,
            episodes_per_round: 8,
            max_steps: 20,
            ..Default::default()
        };
        let run = |threads: usize| {
            ConversionPipeline::new(&pool, &Oracle, |_| 0.0)
                .conversion(cfg.clone())
                .seed(11)
                .threads(threads)
                .run()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.policy.tree, b.policy.tree);
        assert_eq!(a.fidelity_history, b.fidelity_history);
        assert_eq!(a.dataset_size, b.dataset_size);
    }

    #[test]
    fn different_seeds_differ() {
        let pool = pool();
        let a = ConversionPipeline::new(&pool, &Oracle, |_| 0.0)
            .seed(1)
            .run();
        let b = ConversionPipeline::new(&pool, &Oracle, |_| 0.0)
            .seed(2)
            .run();
        assert!(a.dataset_size > 0 && b.dataset_size > 0);
        // The bandit's trajectories are env-deterministic, but the Eq.-1
        // resampling draws differ per seed, so the fitted trees' leaf
        // statistics must differ — seeding is actually consumed.
        assert_ne!(
            a.policy.tree, b.policy.tree,
            "different seeds produced bit-identical trees"
        );
    }

    #[test]
    fn evaluate_scores_oracle_perfect_on_bandit() {
        let pool = pool();
        let pipeline = ConversionPipeline::new(&pool, &Oracle, |_| 0.0).seed(5);
        let score = pipeline.evaluate(&Oracle, 20);
        assert_eq!(score, 20.0);
        let per_env = pipeline.evaluate_per_env(&Oracle, 20);
        assert_eq!(per_env.len(), 4);
        // Parallel evaluation must agree with the sequential path.
        let seq = ConversionPipeline::new(&pool, &Oracle, |_| 0.0)
            .seed(5)
            .threads(1)
            .evaluate_per_env(&Oracle, 20);
        assert_eq!(per_env, seq);
    }

    /// A one-round conversion under `cfg` with one field overridden.
    fn run_with(edit: impl FnOnce(&mut ConversionConfig)) {
        let pool = pool();
        let mut cfg = ConversionConfig {
            max_leaf_nodes: 4,
            dagger_rounds: 0,
            episodes_per_round: 2,
            max_steps: 5,
            ..Default::default()
        };
        edit(&mut cfg);
        ConversionPipeline::new(&pool, &Oracle, |_| 0.0)
            .conversion(cfg)
            .threads(1)
            .run();
    }

    #[test]
    #[should_panic(expected = "ConversionConfig::oversample_min_frac must be in [0, 1), got 1")]
    fn rejects_an_oversampling_floor_of_one() {
        run_with(|c| c.oversample_min_frac = Some(1.0));
    }

    #[test]
    #[should_panic(expected = "ConversionConfig::oversample_min_frac must be in [0, 1), got NaN")]
    fn rejects_a_nan_oversampling_floor_in_the_pub_function() {
        let mut states = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        oversample_rare_actions(&mut states, 3, f64::NAN, &mut rng);
    }

    #[test]
    #[should_panic(expected = "ConversionConfig::max_leaf_nodes must be positive")]
    fn rejects_a_zero_leaf_budget() {
        run_with(|c| c.max_leaf_nodes = 0);
    }

    #[test]
    #[should_panic(expected = "ConversionConfig::episodes_per_round must be positive")]
    fn rejects_zero_episodes_per_round() {
        run_with(|c| c.episodes_per_round = 0);
    }

    #[test]
    #[should_panic(expected = "ConversionConfig::max_steps must be positive")]
    fn rejects_zero_max_steps() {
        run_with(|c| c.max_steps = 0);
    }

    #[test]
    #[should_panic(expected = "ConversionConfig::resample_size must be positive")]
    fn rejects_a_zero_resample_size() {
        run_with(|c| c.resample_size = Some(0));
    }

    #[test]
    #[should_panic(expected = "ConversionConfig::gamma must be in [0, 1], got NaN")]
    fn rejects_a_nan_gamma() {
        run_with(|c| c.gamma = f64::NAN);
    }

    #[test]
    #[should_panic(expected = "ConversionConfig::takeover_prob must be in [0, 1], got NaN")]
    fn rejects_a_nan_takeover_prob() {
        run_with(|c| c.takeover_prob = f64::NAN);
    }

    #[test]
    #[should_panic(expected = "ConversionConfig::takeover_prob must be in [0, 1], got 1.5")]
    fn fit_states_checks_the_config_too() {
        let pool = pool();
        let cfg = ConversionConfig {
            takeover_prob: 1.5,
            ..Default::default()
        };
        let p = ConversionPipeline::new(&pool, &Oracle, |_| 0.0).conversion(cfg);
        p.fit_states(&[], 3, 0);
    }

    #[test]
    fn collect_teacher_states_is_deterministic() {
        let pool = pool();
        let p = ConversionPipeline::new(&pool, &Oracle, |_| 0.0).seed(9);
        let a = p.collect_teacher_states(6, 20);
        let b = p.collect_teacher_states(6, 20);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x.obs == y.obs
            && x.teacher_action == y.teacher_action
            && x.weight == y.weight));
    }
}
