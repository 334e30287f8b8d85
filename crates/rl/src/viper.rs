//! Teacher–student dataset collection: the RL side of Metis' conversion
//! methodology (§3.2 / Appendix A).
//!
//! * **Step 1 (trace collection)** — follow the teacher DNN's trajectories;
//!   in later rounds the student controls, the teacher labels, and —
//!   matching the paper — the teacher *takes over* when the student
//!   deviates, so the state distribution stays near the teacher's.
//! * **Step 2 (resampling, Eq. 1)** — each (state, action) pair gets weight
//!   `ℓ̃(s) = V(s) − min_a Q(s, a)` (the loss bound of Bastani et al. \[7\]);
//!   because our substrates are deterministic cloneable simulators, `Q` is
//!   exact one-step lookahead rather than a learned estimate.
//!
//! **Batched labelling.** Rolling an episode is inherently sequential (each
//! action feeds the simulator), but the teacher-side queries are not: the
//! Eq.-1 value lookups over every afterstate, and — for plain-DAgger
//! episodes where the student drives — the teacher's labels and
//! distributions, are deferred and issued as **one matrix-matrix pass per
//! episode** ([`Policy::action_probs_batch`] / [`ValueEstimate::value_batch`]).
//! The per-obs implementation is kept verbatim in [`oracle`]; a parity
//! suite pins the batched path to it bit-for-bit.

use crate::env::{q_by_cloning, Env};
use crate::policy::Policy;
use crate::value::ValueEstimate;
use metis_nn::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A labelled state collected from teacher rollouts.
#[derive(Debug, Clone)]
pub struct SampledState {
    pub obs: Vec<f64>,
    /// The teacher's (greedy) action at this state — the student's label.
    pub teacher_action: usize,
    /// Eq.-1 importance weight (1.0 when weighting is disabled).
    pub weight: f64,
}

/// Who drives the environment during collection.
///
/// Student policies are `Sync` so collection can fan episodes out across
/// threads (every deployed student — trees, DNNs — is plain data).
pub enum Controller<'a> {
    /// The teacher acts (round 0 of the conversion loop).
    Teacher,
    /// The student acts; the teacher only labels (plain DAgger).
    Student(&'a (dyn Policy + Sync)),
    /// The student acts until it deviates from the teacher; from then on
    /// the teacher takes over with the given probability per step. This is
    /// the paper's "DNN takes over on the deviated trajectory".
    StudentWithTakeover(&'a (dyn Policy + Sync), f64),
}

/// Collection parameters.
#[derive(Debug, Clone)]
pub struct CollectConfig {
    pub episodes: usize,
    pub max_steps: usize,
    pub gamma: f64,
    /// Compute Eq.-1 weights via env cloning (otherwise all 1.0).
    pub weighted: bool,
}

impl Default for CollectConfig {
    fn default() -> Self {
        CollectConfig {
            episodes: 16,
            max_steps: 1000,
            gamma: 0.99,
            weighted: true,
        }
    }
}

/// Derive the RNG seed of one episode from the collection's base seed
/// (SplitMix64 finalizer — decorrelates episode streams regardless of
/// which thread runs them).
fn episode_seed(base: u64, episode: u64) -> u64 {
    crate::par::mix_seed(base ^ episode.wrapping_mul(0x9E3779B97F4A7C15))
}

/// Roll one labelled episode (the per-episode body of [`collect_seeded`]).
///
/// The environment is driven stepwise (it has to be), but every teacher
/// query that does not steer the trajectory is deferred and batched:
///
/// * the Eq.-1 lookahead's `V(s')` over all afterstates of the episode is
///   one [`ValueEstimate::value_batch`] call;
/// * the Eq.-1 teacher distributions defer in every controller mode (one
///   [`Policy::action_probs_batch`] pass at episode end);
/// * for [`Controller::Student`] (the teacher never steers), the labels
///   defer too — [`Policy::probs_and_greedy_batch`] answers both from a
///   single forward pass for softmax teachers.
///
/// Teacher-driven and takeover episodes still query the teacher's action
/// stepwise — it decides (or checks) the executed action. Output is
/// bit-identical to [`oracle::collect_episode`] for any policy honouring
/// the batch-parity contract.
fn collect_episode<E: Env, T: Policy + ?Sized, V: ValueEstimate + ?Sized>(
    env: &E,
    teacher: &T,
    value_fn: &V,
    controller: &Controller<'_>,
    cfg: &CollectConfig,
    rng: &mut StdRng,
) -> Vec<SampledState> {
    let mut env = env.clone();
    let mut obs = env.reset();
    let mut teacher_in_control = matches!(controller, Controller::Teacher);
    // The teacher must be consulted during rolling unless the student is
    // in sole control (plain DAgger).
    let stepwise_teacher = !matches!(controller, Controller::Student(_));
    // Deferring value lookups only pays when batching amortizes real
    // work; trivial (closure) estimates are queried inline, exactly as
    // the oracle does — identical values either way.
    let defer_values = cfg.weighted && value_fn.prefers_batch();

    let mut observations: Vec<Vec<f64>> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    let mut probs: Vec<Vec<f64>> = Vec::new();
    // Afterstate table of the deferred Eq.-1 lookahead: per step and
    // action, the immediate reward and (for non-terminal transitions) an
    // index into the shared afterstate-observation pool.
    let mut q_rewards: Vec<Vec<f64>> = Vec::new();
    let mut q_next: Vec<Vec<Option<usize>>> = Vec::new();
    let mut afterstates: Vec<Vec<f64>> = Vec::new();

    for _ in 0..cfg.max_steps {
        let teacher_action = if stepwise_teacher {
            let a = teacher.act_greedy(&obs);
            labels.push(a);
            Some(a)
        } else {
            None
        };
        if cfg.weighted {
            // The env part of `q_by_cloning` (clone + step per action);
            // the value part is either deferred to one batched pass (real
            // critics) or evaluated inline (trivial estimates).
            let n_actions = env.n_actions();
            let mut rewards = Vec::with_capacity(n_actions);
            let mut next = Vec::with_capacity(n_actions);
            for a in 0..n_actions {
                let mut sim = env.clone();
                let step = sim.step(a);
                if step.done {
                    rewards.push(step.reward);
                    next.push(None);
                } else if defer_values {
                    rewards.push(step.reward);
                    afterstates.push(step.obs);
                    next.push(Some(afterstates.len() - 1));
                } else {
                    // Inline Q: same arithmetic as the deferred merge.
                    rewards.push(step.reward + cfg.gamma * value_fn.value(&step.obs));
                    next.push(None);
                }
            }
            q_rewards.push(rewards);
            q_next.push(next);
        }
        observations.push(obs.clone());

        let action = match controller {
            Controller::Teacher => teacher_action.unwrap(),
            Controller::Student(student) => student.act_greedy(&obs),
            Controller::StudentWithTakeover(student, p_takeover) => {
                let ta = teacher_action.unwrap();
                if teacher_in_control {
                    ta
                } else {
                    let sa = student.act_greedy(&obs);
                    if sa != ta && rng.gen_range(0.0..1.0) < *p_takeover {
                        teacher_in_control = true;
                        ta
                    } else {
                        sa
                    }
                }
            }
        };
        let step = env.step(action);
        obs = step.obs;
        if step.done {
            break;
        }
    }
    if observations.is_empty() {
        return Vec::new();
    }

    // Deferred teacher labelling — one batched query per episode. Only
    // the greedy action must be answered stepwise (it steers the env or
    // checks deviation); the Eq.-1 distributions are consumed solely in
    // the weight merge below, so they defer in *every* controller mode.
    // For softmax teachers `probs_and_greedy_batch` answers labels and
    // distributions from a single forward pass, where the per-obs path
    // pays one per state per quantity.
    if !stepwise_teacher || cfg.weighted {
        let m = Matrix::from_rows_vec(&observations);
        match (stepwise_teacher, cfg.weighted) {
            (true, true) => probs = teacher.action_probs_batch(&m),
            (false, true) => (probs, labels) = teacher.probs_and_greedy_batch(&m),
            (false, false) => labels = teacher.act_greedy_batch(&m),
            (true, false) => unreachable!(),
        }
    }
    // Deferred value lookups — one batched pass over all afterstates.
    let values = if afterstates.is_empty() {
        Vec::new()
    } else {
        value_fn.value_batch(&Matrix::from_rows_vec(&afterstates))
    };

    observations
        .into_iter()
        .enumerate()
        .map(|(t, obs)| {
            let weight = if cfg.weighted {
                // Reassemble Q(s,a) = r + γ·V(s') exactly as the per-obs
                // lookahead would (terminal transitions take the reward).
                let q: Vec<f64> = q_rewards[t]
                    .iter()
                    .zip(q_next[t].iter())
                    .map(|(&r, next)| match next {
                        None => r,
                        Some(i) => r + cfg.gamma * values[*i],
                    })
                    .collect();
                let v: f64 = probs[t].iter().zip(q.iter()).map(|(p, qa)| p * qa).sum();
                let qmin = q.iter().cloned().fold(f64::INFINITY, f64::min);
                (v - qmin).max(0.0)
            } else {
                1.0
            };
            SampledState {
                obs,
                teacher_action: labels[t],
                weight,
            }
        })
        .collect()
}

/// Collect labelled states by rolling through the environments in `pool`
/// (cycled). `value_fn` is the bootstrap state-value estimate used for the
/// Q lookahead (a critic wrapped in [`crate::NetworkValue`] for batched
/// lookups, any `Fn(&[f64]) -> f64 + Sync` closure, or `|_| 0.0` for
/// undiscounted myopia).
///
/// Episodes are independent: each gets its own RNG derived from `seed` and
/// its episode index, and results are merged in episode order — so the
/// output is **identical for every `threads` value** (0 = all cores).
/// Within each episode, teacher labelling is batched per episode; see
/// `collect_episode` — output is bit-identical to the per-obs
/// [`oracle::collect_seeded`].
pub fn collect_seeded<E: Env + Sync, T: Policy + Sync + ?Sized, V: ValueEstimate + ?Sized>(
    pool: &[E],
    teacher: &T,
    value_fn: &V,
    controller: &Controller<'_>,
    cfg: &CollectConfig,
    seed: u64,
    threads: usize,
) -> Vec<SampledState> {
    assert!(!pool.is_empty(), "collect: empty environment pool");
    let per_episode = crate::par::parallel_map_indexed(cfg.episodes, threads, |ep| {
        let mut rng = StdRng::seed_from_u64(episode_seed(seed, ep as u64));
        collect_episode(
            &pool[ep % pool.len()],
            teacher,
            value_fn,
            controller,
            cfg,
            &mut rng,
        )
    });
    per_episode.into_iter().flatten().collect()
}

/// Single-threaded [`collect_seeded`] driven by a caller-owned RNG (the
/// base seed is drawn from it, so successive calls differ as before).
pub fn collect<E: Env + Sync, T: Policy + Sync + ?Sized, V: ValueEstimate + ?Sized>(
    pool: &[E],
    teacher: &T,
    value_fn: &V,
    controller: &Controller<'_>,
    cfg: &CollectConfig,
    rng: &mut StdRng,
) -> Vec<SampledState> {
    use rand::RngCore;
    let seed = rng.next_u64();
    collect_seeded(pool, teacher, value_fn, controller, cfg, seed, 1)
}

/// The pre-refactor per-obs collection path, kept verbatim as the parity
/// oracle for the batched implementation (mirroring the CART builder's
/// reference splitter): every teacher label, distribution, and value
/// lookup is issued one observation at a time. The proptest parity suite
/// asserts `collect_seeded` == `oracle::collect_seeded` bit-for-bit.
#[doc(hidden)]
pub mod oracle {
    use super::*;

    /// Per-obs body of the original `collect_seeded`.
    pub fn collect_episode<E: Env, T: Policy + ?Sized, V: ValueEstimate + ?Sized>(
        env: &E,
        teacher: &T,
        value_fn: &V,
        controller: &Controller<'_>,
        cfg: &CollectConfig,
        rng: &mut StdRng,
    ) -> Vec<SampledState> {
        let mut out = Vec::new();
        let mut env = env.clone();
        let mut obs = env.reset();
        let mut teacher_in_control = matches!(controller, Controller::Teacher);
        for _ in 0..cfg.max_steps {
            let teacher_action = teacher.act_greedy(&obs);
            let weight = if cfg.weighted {
                let q = q_by_cloning(&env, |o: &[f64]| value_fn.value(o), cfg.gamma);
                let probs = teacher.action_probs(&obs);
                let v: f64 = probs.iter().zip(q.iter()).map(|(p, qa)| p * qa).sum();
                let qmin = q.iter().cloned().fold(f64::INFINITY, f64::min);
                (v - qmin).max(0.0)
            } else {
                1.0
            };
            out.push(SampledState {
                obs: obs.clone(),
                teacher_action,
                weight,
            });

            let action = match controller {
                Controller::Teacher => teacher_action,
                Controller::Student(student) => student.act_greedy(&obs),
                Controller::StudentWithTakeover(student, p_takeover) => {
                    if teacher_in_control {
                        teacher_action
                    } else {
                        let sa = student.act_greedy(&obs);
                        if sa != teacher_action && rng.gen_range(0.0..1.0) < *p_takeover {
                            teacher_in_control = true;
                            teacher_action
                        } else {
                            sa
                        }
                    }
                }
            };
            let step = env.step(action);
            obs = step.obs;
            if step.done {
                break;
            }
        }
        out
    }

    /// Per-obs `collect_seeded` (same episode seeding and merge order as
    /// the batched engine).
    pub fn collect_seeded<E: Env + Sync, T: Policy + Sync + ?Sized, V: ValueEstimate + ?Sized>(
        pool: &[E],
        teacher: &T,
        value_fn: &V,
        controller: &Controller<'_>,
        cfg: &CollectConfig,
        seed: u64,
        threads: usize,
    ) -> Vec<SampledState> {
        assert!(!pool.is_empty(), "collect: empty environment pool");
        let per_episode = crate::par::parallel_map_indexed(cfg.episodes, threads, |ep| {
            let mut rng = StdRng::seed_from_u64(episode_seed(seed, ep as u64));
            collect_episode(
                &pool[ep % pool.len()],
                teacher,
                value_fn,
                controller,
                cfg,
                &mut rng,
            )
        });
        per_episode.into_iter().flatten().collect()
    }
}

/// Eq. 1: resample `n` states with replacement, with probability
/// proportional to `weight`. Falls back to uniform when all weights are
/// (numerically) zero, which happens for teachers whose actions never
/// matter — better to keep the data than return nothing.
pub fn resample_by_weight(
    states: &[SampledState],
    n: usize,
    rng: &mut StdRng,
) -> Vec<SampledState> {
    assert!(!states.is_empty(), "resample_by_weight: empty input");
    let total: f64 = states.iter().map(|s| s.weight).sum();
    let mut out = Vec::with_capacity(n);
    if total <= 0.0 {
        for _ in 0..n {
            out.push(states[rng.gen_range(0..states.len())].clone());
        }
        return out;
    }
    // Cumulative distribution + binary search per draw.
    let mut cdf = Vec::with_capacity(states.len());
    let mut acc = 0.0;
    for s in states {
        acc += s.weight;
        cdf.push(acc);
    }
    for _ in 0..n {
        let u = rng.gen_range(0.0..total);
        let idx = match cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
        .min(states.len() - 1);
        out.push(states[idx].clone());
    }
    out
}

/// Stack the observations of labelled states into a `(n, obs_dim)` matrix
/// for batched (re)labelling and evaluation.
pub fn states_matrix(states: &[SampledState]) -> Matrix {
    assert!(!states.is_empty(), "states_matrix: empty state list");
    Matrix::from_fn(states.len(), states[0].obs.len(), |r, c| states[r].obs[c])
}

/// Fraction of states where the student's greedy action matches the
/// teacher's — the "deviation is confined" convergence check of Step 1.
/// The student is queried in one batched pass over the whole dataset.
pub fn fidelity<P: Policy + Sync + ?Sized, Q: Policy + ?Sized>(
    states: &[SampledState],
    student: &P,
    teacher: &Q,
) -> f64 {
    fidelity_sharded(states, student, teacher, 1)
}

/// [`fidelity`] with the dataset sharded across `threads` workers
/// (0 = all cores) in fixed row blocks: each block is one batched student
/// query, blocks merge in row order, so the result is identical for any
/// thread count — and to the per-obs loop.
pub fn fidelity_sharded<P: Policy + Sync + ?Sized, Q: Policy + ?Sized>(
    states: &[SampledState],
    student: &P,
    _teacher: &Q,
    threads: usize,
) -> f64 {
    const BLOCK: usize = 256;
    if states.is_empty() {
        return 0.0;
    }
    let matrix = states_matrix(states);
    let n_blocks = states.len().div_ceil(BLOCK);
    let matches: usize = crate::par::parallel_map_indexed(n_blocks, threads, |b| {
        let lo = b * BLOCK;
        let hi = (lo + BLOCK).min(states.len());
        let actions = student.act_greedy_batch(&matrix.row_block(lo, hi));
        states[lo..hi]
            .iter()
            .zip(actions.iter())
            .filter(|(s, &a)| a == s.teacher_action)
            .count()
    })
    .into_iter()
    .sum();
    matches as f64 / states.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_envs::{BanditEnv, DelayedEnv};
    use crate::policy::{ConstantPolicy, Policy, UniformPolicy};
    use rand::SeedableRng;

    /// Teacher that plays the bandit optimally (reads the one-hot context).
    #[derive(Clone)]
    struct OracleBandit;
    impl Policy for OracleBandit {
        fn action_probs(&self, obs: &[f64]) -> Vec<f64> {
            let mut p = vec![0.0; obs.len()];
            let idx = obs.iter().position(|&x| x == 1.0).unwrap();
            p[idx] = 1.0;
            p
        }
    }

    #[test]
    fn collect_labels_with_teacher_actions() {
        let pool = [DelayedEnv::new()];
        let teacher = ConstantPolicy {
            action: 1,
            n_actions: 2,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = CollectConfig {
            episodes: 3,
            max_steps: 10,
            gamma: 0.9,
            weighted: false,
        };
        let states = collect(
            &pool,
            &teacher,
            &(|_: &[f64]| 0.0),
            &Controller::Teacher,
            &cfg,
            &mut rng,
        );
        assert_eq!(states.len(), 6); // 2 steps per episode
        assert!(states.iter().all(|s| s.teacher_action == 1));
        assert!(states.iter().all(|s| s.weight == 1.0));
    }

    #[test]
    fn weights_reflect_action_importance() {
        // In the bandit, picking right vs wrong changes reward by 1, so
        // V - min Q = P(correct) * 1 = 1 for the oracle teacher.
        let pool = [BanditEnv::new(3, 5, 2)];
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = CollectConfig {
            episodes: 1,
            max_steps: 5,
            gamma: 0.9,
            weighted: true,
        };
        let states = collect(
            &pool,
            &OracleBandit,
            &(|_: &[f64]| 0.0),
            &Controller::Teacher,
            &cfg,
            &mut rng,
        );
        for s in &states {
            assert!((s.weight - 1.0).abs() < 1e-9, "weight {}", s.weight);
        }
        // A uniform teacher only gets 1/3 of the value: weight = 1/3.
        let u = UniformPolicy { n_actions: 3 };
        let states_u = collect(
            &pool,
            &u,
            &(|_: &[f64]| 0.0),
            &Controller::Teacher,
            &cfg,
            &mut rng,
        );
        for s in &states_u {
            assert!((s.weight - 1.0 / 3.0).abs() < 1e-9, "weight {}", s.weight);
        }
    }

    #[test]
    fn takeover_returns_to_teacher_distribution() {
        // Student always picks 0 (wrong on DelayedEnv); with takeover_prob
        // 1.0 the teacher immediately reclaims control after the first
        // deviating state, so the latch becomes... the student's action at
        // t=0 is recorded but control flips at the *deviating step itself*.
        let pool = [DelayedEnv::new()];
        let teacher = ConstantPolicy {
            action: 1,
            n_actions: 2,
        };
        let student = ConstantPolicy {
            action: 0,
            n_actions: 2,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = CollectConfig {
            episodes: 1,
            max_steps: 10,
            gamma: 0.9,
            weighted: false,
        };
        let states = collect(
            &pool,
            &teacher,
            &(|_: &[f64]| 0.0),
            &Controller::StudentWithTakeover(&student, 1.0),
            &cfg,
            &mut rng,
        );
        // With immediate takeover, the executed action at t=0 is the
        // teacher's (1), so the t=1 observation has latch == 1.
        assert_eq!(states.len(), 2);
        assert_eq!(states[1].obs, vec![1.0, 1.0]);
    }

    #[test]
    fn student_controller_visits_student_states() {
        let pool = [DelayedEnv::new()];
        let teacher = ConstantPolicy {
            action: 1,
            n_actions: 2,
        };
        let student = ConstantPolicy {
            action: 0,
            n_actions: 2,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = CollectConfig {
            episodes: 1,
            max_steps: 10,
            gamma: 0.9,
            weighted: false,
        };
        let states = collect(
            &pool,
            &teacher,
            &(|_: &[f64]| 0.0),
            &Controller::Student(&student),
            &cfg,
            &mut rng,
        );
        // Student drove: latch is 0 at t=1, but the label is still 1.
        assert_eq!(states[1].obs, vec![1.0, 0.0]);
        assert_eq!(states[1].teacher_action, 1);
    }

    #[test]
    fn resample_prefers_heavy_states() {
        let states = vec![
            SampledState {
                obs: vec![0.0],
                teacher_action: 0,
                weight: 0.01,
            },
            SampledState {
                obs: vec![1.0],
                teacher_action: 1,
                weight: 100.0,
            },
        ];
        let mut rng = StdRng::seed_from_u64(5);
        let out = resample_by_weight(&states, 1000, &mut rng);
        let heavy = out.iter().filter(|s| s.teacher_action == 1).count();
        assert!(heavy > 990, "heavy sampled {heavy}/1000");
    }

    #[test]
    fn resample_uniform_fallback_on_zero_weights() {
        let states = vec![
            SampledState {
                obs: vec![0.0],
                teacher_action: 0,
                weight: 0.0,
            },
            SampledState {
                obs: vec![1.0],
                teacher_action: 1,
                weight: 0.0,
            },
        ];
        let mut rng = StdRng::seed_from_u64(5);
        let out = resample_by_weight(&states, 500, &mut rng);
        let ones = out.iter().filter(|s| s.teacher_action == 1).count();
        assert!(ones > 150 && ones < 350, "expected ~250, got {ones}");
    }

    /// The batched collection engine must be bit-identical to the per-obs
    /// oracle across every controller mode, with a real network teacher
    /// (batched labels/probs) and a network critic (batched values).
    #[test]
    fn batched_collection_matches_oracle_bitwise() {
        use crate::policy::SoftmaxPolicy;
        use crate::value::NetworkValue;
        use metis_nn::{Activation, Mlp};

        let pool: Vec<BanditEnv> = (0..3).map(|s| BanditEnv::new(4, 12, s)).collect();
        let mut rng = StdRng::seed_from_u64(40);
        let teacher = SoftmaxPolicy::new(Mlp::new(
            &[4, 8, 4],
            Activation::Tanh,
            Activation::Linear,
            &mut rng,
        ));
        let student = SoftmaxPolicy::new(Mlp::new(
            &[4, 6, 4],
            Activation::Tanh,
            Activation::Linear,
            &mut rng,
        ));
        let critic = NetworkValue::new(Mlp::new(
            &[4, 6, 1],
            Activation::Tanh,
            Activation::Linear,
            &mut rng,
        ));
        let cfg = CollectConfig {
            episodes: 5,
            max_steps: 12,
            gamma: 0.97,
            weighted: true,
        };
        for controller in [
            Controller::Teacher,
            Controller::Student(&student),
            Controller::StudentWithTakeover(&student, 0.5),
        ] {
            let batched = collect_seeded(&pool, &teacher, &critic, &controller, &cfg, 7, 2);
            let oracle = oracle::collect_seeded(&pool, &teacher, &critic, &controller, &cfg, 7, 1);
            assert_eq!(batched.len(), oracle.len());
            for (b, o) in batched.iter().zip(oracle.iter()) {
                assert_eq!(b.obs, o.obs);
                assert_eq!(b.teacher_action, o.teacher_action);
                assert_eq!(
                    b.weight.to_bits(),
                    o.weight.to_bits(),
                    "weight diverges: {} vs {}",
                    b.weight,
                    o.weight
                );
            }
        }
    }

    #[test]
    fn fidelity_counts_matches() {
        let states = vec![
            SampledState {
                obs: vec![0.0, 0.0],
                teacher_action: 1,
                weight: 1.0,
            },
            SampledState {
                obs: vec![1.0, 1.0],
                teacher_action: 0,
                weight: 1.0,
            },
        ];
        let student = ConstantPolicy {
            action: 1,
            n_actions: 2,
        };
        let teacher = ConstantPolicy {
            action: 1,
            n_actions: 2,
        };
        assert_eq!(fidelity(&states, &student, &teacher), 0.5);
    }
}
