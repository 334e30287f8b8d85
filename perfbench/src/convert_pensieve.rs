//! `convert_pensieve`: the §3.2 conversion (`ConversionPipeline::with_value`)
//! of a seeded, briefly trained Pensieve teacher with the Table-4 config
//! (M = 200, 36 episodes × 512 steps, 3 DAgger rounds), then the tree's
//! and the teacher's QoE on the HSDPA test pool.
//!
//! No serving layer runs here: CART fitting and rollout plus teacher
//! labelling are almost the whole cost.

use crate::hostspeed;
use crate::ledger;
use crate::report::Outcome;
use crate::stats::median;
use crate::Args;
use metis_abr::PensieveArch;
use metis_bench::setup::{mean_qoe, pensieve, pensieve_conversion_config, PensieveSetup};
use metis_core::{ConversionConfig, ConversionPipeline, TreePolicy};
use metis_dt::{fit, prune_to_leaves, Criterion, Dataset, DecisionTree, TreeConfig};
use metis_nn::Matrix;
use metis_rl::{
    collect_seeded, fidelity_sharded, mix_seed, resample_by_weight, CollectConfig, Controller, Env,
    Policy, SampledState,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

const TEACHER_EPOCHS: usize = 60;
/// The teacher is the system being converted, so it stays fixed; the
/// seed drives the conversion's own draws (rollouts, takeover, Eq.-1
/// resampling). Different teachers grow trees of very different sizes,
/// which would make the cost a property of the seed.
const TEACHER_SEED: u64 = 42;
/// Conversion threads. With the worker pool on a two-core host, both the
/// time and the peak memory of a run depend on which thread happens to
/// pick up which episode or feature scan; one thread makes them repeat.
const THREADS: usize = 1;
const SETUPS: usize = 9;
/// Fewest untraced conversions, however short the time budget.
const MIN_RUNS: usize = 10;

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, s) = hostspeed::median_setup(SETUPS, || {
        pensieve(TEACHER_SEED, PensieveArch::Original, TEACHER_EPOCHS)
    });
    out.set("setup_s", setup_s);
    let cfg = pensieve_conversion_config();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut first: Option<DecisionTree> = None;
    let mut convert = || {
        let t = Instant::now();
        let result = ConversionPipeline::with_value(
            &s.train_pool,
            &s.agent.policy,
            s.agent.value_estimate(),
        )
        .conversion(cfg.clone())
        .seed(args.seed)
        .threads(THREADS)
        .run();
        let wall = t.elapsed().as_secs_f64();
        // The same seed must give the same tree every time.
        let reference = first.get_or_insert_with(|| result.policy.tree.clone());
        let repeated = *reference == result.policy.tree;
        (wall, result, repeated)
    };

    convert(); // warm-up
    let t = Instant::now();
    if !args.trace {
        let mut walls = Vec::new();
        let mut rates = Vec::new();
        while walls.len() < MIN_RUNS || t.elapsed().as_secs_f64() < args.seconds {
            let bracket = hostspeed::Bracket::open();
            let (wall, result, repeated) = convert();
            let wall = bracket.close(wall);
            attempted += 1;
            failed += u64::from(!repeated);
            walls.push(wall * 1e3);
            rates.push(result.dataset_size as f64 / wall);
        }
        out.set("throughput_per_s", median(&rates));
        out.set("p50_ms", median(&walls));
    } else {
        let mut off = Vec::new();
        let mut chains: Vec<Chain> = Vec::new();
        let mut fidelity = 0.0;
        let mut tree = None;
        while off.len() < 3 || t.elapsed().as_secs_f64() < args.seconds {
            // Alternate which side of the pair runs first.
            let chain_first = off.len() % 2 == 1;
            let early = chain_first.then(|| traced_chain(&s, args.seed, &cfg));
            let (wall, result, repeated) = convert();
            off.push(wall);
            fidelity = *result.fidelity_history.last().expect("at least one round");
            let chain = early.unwrap_or_else(|| traced_chain(&s, args.seed, &cfg));
            // The traced chain must build exactly the tree `run()` built.
            attempted += 1;
            failed += u64::from(!repeated || chain.tree.as_ref() != Some(&result.policy.tree));
            tree = Some(result.policy);
            chains.push(chain);
        }
        let tree = tree.expect("at least one conversion");
        let col = |f: fn(&Chain) -> f64| median(&chains.iter().map(f).collect::<Vec<f64>>());
        out.set("convert_fidelity", fidelity);
        out.set(
            "convert_qoe_gap",
            mean_qoe(&s.test_pool_hsdpa, &s.agent.policy) - mean_qoe(&s.test_pool_hsdpa, &tree),
        );
        out.set("rl.collect_s", col(|c| c.collect_s));
        out.set("nn.label_s", col(|c| c.label_s));
        out.set("rl.resample_s", col(|c| c.resample_s));
        out.set("dt.fit_s", col(|c| c.fit_s));
        out.set("dt.prune_s", col(|c| c.prune_s));
        out.set("rl.fidelity_s", col(|c| c.fidelity_s));
        out.set("convert.states", col(|c| c.states));
        out.set("dt.leaves", tree.tree.n_leaves() as f64);
        let layers = [
            col(|c| c.collect_s),
            col(|c| c.resample_s),
            col(|c| c.fit_s),
            col(|c| c.prune_s),
            col(|c| c.fidelity_s),
        ];
        out.set(
            "ledger_closure_pct",
            ledger::closure_pct(&layers, median(&off)),
        );
        out.set(
            "tracing_overhead_pct",
            ledger::overhead_pct(median(&off), col(|c| c.total_s)),
        );
    }
    out.attempted = attempted;
    out.failed = failed;
    out.checks_passed = true;
    out
}

/// Layer times (seconds) of one traced conversion, summed over rounds.
struct Chain {
    tree: Option<DecisionTree>,
    collect_s: f64,
    label_s: f64,
    resample_s: f64,
    fit_s: f64,
    prune_s: f64,
    fidelity_s: f64,
    total_s: f64,
    states: f64,
}

/// The pipeline's per-stage seed derivation.
fn stage_seed(base: u64, stage: u64) -> u64 {
    mix_seed(base ^ stage.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// `ConversionPipeline::run` step by step over public APIs (collect →
/// resample → fit → prune → fidelity, per round), with a timer around
/// each stage.
fn traced_chain(s: &PensieveSetup, seed: u64, cfg: &ConversionConfig) -> Chain {
    assert!(
        cfg.oversample_min_frac.is_none() && cfg.resample,
        "the traced chain follows the Table-4 path"
    );
    let start = Instant::now();
    let teacher = &s.agent.policy;
    let value = s.agent.value_estimate();
    let n_actions = s.train_pool[0].n_actions();
    let collect_cfg = CollectConfig {
        episodes: cfg.episodes_per_round,
        max_steps: cfg.max_steps,
        gamma: cfg.gamma,
        weighted: cfg.resample,
    };
    let mut c = Chain {
        tree: None,
        collect_s: 0.0,
        label_s: 0.0,
        resample_s: 0.0,
        fit_s: 0.0,
        prune_s: 0.0,
        fidelity_s: 0.0,
        total_s: 0.0,
        states: 0.0,
    };
    let mut states: Vec<SampledState> = Vec::new();
    let mut student: Option<TreePolicy> = None;
    for round in 0..=cfg.dagger_rounds {
        let t = Instant::now();
        let controller = match &student {
            None => Controller::Teacher,
            Some(st) => Controller::StudentWithTakeover(st, cfg.takeover_prob),
        };
        let new = collect_seeded(
            &s.train_pool,
            teacher,
            &value,
            &controller,
            &collect_cfg,
            stage_seed(seed, round as u64),
            THREADS,
        );
        states.extend(new);
        c.collect_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let n = cfg.resample_size.unwrap_or(states.len());
        let mut rng = StdRng::seed_from_u64(stage_seed(seed, 0x0A00 + round as u64));
        let resampled = resample_by_weight(&states, n, &mut rng);
        c.resample_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let ds = Dataset::classification_weighted(
            resampled.iter().map(|s| s.obs.clone()).collect(),
            resampled.iter().map(|s| s.teacher_action).collect(),
            n_actions,
            resampled.iter().map(|s| s.weight.max(1e-9)).collect(),
        )
        .expect("collected states are schema-consistent");
        let grown = fit(
            &ds,
            &TreeConfig {
                max_leaf_nodes: cfg.max_leaf_nodes * cfg.ccp_overshoot.max(1),
                criterion: Criterion::Gini,
                threads: THREADS,
                ..Default::default()
            },
        )
        .expect("classification fit");
        c.fit_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let tree = TreePolicy::new(prune_to_leaves(&grown, cfg.max_leaf_nodes));
        c.prune_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        black_box(fidelity_sharded(&states, &tree, teacher, THREADS));
        c.fidelity_s += t.elapsed().as_secs_f64();
        student = Some(tree);
    }
    c.total_s = start.elapsed().as_secs_f64();
    c.states = states.len() as f64;
    c.tree = student.map(|st| st.tree);

    // Teacher labelling alone: one batched forward over the same
    // observations the rollouts labelled.
    let obs: Vec<Vec<f64>> = states.iter().map(|s| s.obs.clone()).collect();
    let m = Matrix::from_rows_vec(&obs);
    let t = Instant::now();
    black_box(teacher.probs_and_greedy_batch(&m));
    c.label_s = t.elapsed().as_secs_f64();
    c
}
