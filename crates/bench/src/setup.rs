//! Shared experiment setup: trained teachers and evaluation corpora.
//!
//! Training budgets are deliberately laptop-scale (README,
//! *Substitutions*): every teacher is "finetuned enough" to exhibit the
//! paper's qualitative behaviours, which is what the interpretation
//! experiments consume.

use metis_abr::{
    env_pool, fcc_corpus, hsdpa_corpus, pensieve_agent, train_pensieve, AbrEnv, NetworkTrace,
    PensieveArch, PensieveNet, VideoModel,
};
use metis_core::{ConversionConfig, ConversionPipeline, ConversionResult};
use metis_rl::{ActorCritic, Policy};
use metis_routing::{
    demand_corpus, optimize_routing, DemandSample, LatencyModel, RouteNetModel, Routing, Topology,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A trained Pensieve teacher plus its train/test environment pools.
pub struct PensieveSetup {
    pub agent: ActorCritic<PensieveNet>,
    pub video: Arc<VideoModel>,
    pub train_pool: Vec<AbrEnv>,
    pub test_pool_hsdpa: Vec<AbrEnv>,
    pub test_pool_fcc: Vec<AbrEnv>,
}

/// Train a Pensieve teacher (hidden width 32, HSDPA-like traces).
pub fn pensieve(seed: u64, arch: PensieveArch, epochs: usize) -> PensieveSetup {
    let mut rng = StdRng::seed_from_u64(seed);
    let video = Arc::new(VideoModel::pensieve_default(7));
    let train: Vec<Arc<NetworkTrace>> = hsdpa_corpus(12, seed ^ 0xABCD)
        .into_iter()
        .map(Arc::new)
        .collect();
    let test_h: Vec<Arc<NetworkTrace>> = hsdpa_corpus(25, seed ^ 0x1111)
        .into_iter()
        .map(Arc::new)
        .collect();
    let test_f: Vec<Arc<NetworkTrace>> = fcc_corpus(25, seed ^ 0x2222)
        .into_iter()
        .map(Arc::new)
        .collect();
    let train_pool = env_pool(&video, &train);
    let mut agent = pensieve_agent(arch, 32, &mut rng);
    train_pensieve(&mut agent, &train_pool, epochs, &mut rng);
    PensieveSetup {
        agent,
        video: video.clone(),
        train_pool,
        test_pool_hsdpa: env_pool(&video, &test_h),
        test_pool_fcc: env_pool(&video, &test_f),
    }
}

/// Convert the teacher to a tree with paper defaults (M = 200) through
/// the unified engine (critic-bootstrapped Eq.-1 weights, all cores).
pub fn pensieve_tree(setup: &PensieveSetup, seed: u64, cfg: &ConversionConfig) -> ConversionResult {
    ConversionPipeline::with_value(
        &setup.train_pool,
        &setup.agent.policy,
        setup.agent.value_estimate(),
    )
    .conversion(cfg.clone())
    .seed(seed)
    .run()
}

/// Default Pensieve conversion config (Table 4).
pub fn pensieve_conversion_config() -> ConversionConfig {
    ConversionConfig {
        max_leaf_nodes: 200,
        episodes_per_round: 36,
        max_steps: 512,
        dagger_rounds: 3,
        ..Default::default()
    }
}

/// Mean QoE of a policy over an environment pool (greedy, one episode per
/// env), normalized per chunk.
pub fn mean_qoe(pool: &[AbrEnv], policy: &(impl Policy + Sync + ?Sized)) -> f64 {
    let per: Vec<f64> = per_trace_qoe(pool, policy);
    per.iter().sum::<f64>() / per.len() as f64
}

/// Per-trace mean chunk QoE, evaluated through the engine's parallel
/// pool evaluator (greedy rollouts; env-ordered, thread-count invariant).
pub fn per_trace_qoe(pool: &[AbrEnv], policy: &(impl Policy + Sync + ?Sized)) -> Vec<f64> {
    metis_rl::evaluate_pool(pool, policy, 1000, 0, 0)
        .into_iter()
        .map(|s| s.total_reward / s.steps.max(1) as f64)
        .collect()
}

/// Bitrate-selection frequency of a policy over a pool (fraction per rung).
pub fn action_frequencies(pool: &[AbrEnv], policy: &(impl Policy + ?Sized)) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(0);
    let mut counts = [0usize; 6];
    let mut total = 0usize;
    for env in pool {
        let mut e = env.clone();
        let traj = metis_rl::rollout(&mut e, policy, metis_rl::ActionMode::Greedy, 1000, &mut rng);
        for &a in &traj.actions {
            counts[a] += 1;
            total += 1;
        }
    }
    counts
        .iter()
        .map(|&c| c as f64 / total.max(1) as f64)
        .collect()
}

/// A trained RouteNet* stack: topology, queueing ground truth, trained
/// message-passing model, demand corpus, and per-sample optimized routings.
pub struct RoutingSetup {
    pub topo: Topology,
    pub latency: LatencyModel,
    pub model: RouteNetModel,
    pub samples: Vec<DemandSample>,
    pub routings: Vec<Routing>,
}

/// Build and train the RouteNet* stack on NSFNet.
pub fn routing(seed: u64, n_demands: usize, n_samples: usize, train_epochs: usize) -> RoutingSetup {
    let topo = Topology::nsfnet();
    let latency = LatencyModel::default();
    let mut rng = StdRng::seed_from_u64(seed);
    // Training corpus: random candidate routings labelled by ground truth.
    let train_samples = demand_corpus(14, n_demands, 6, seed ^ 0x77);
    let mut train_data = Vec::new();
    for s in &train_samples {
        let routing: Routing = s
            .demands
            .iter()
            .map(|d| {
                let cands = metis_routing::candidate_paths(&topo, d.src, d.dst);
                cands[rng.gen_range(0..cands.len())].clone()
            })
            .collect();
        let truth = latency.path_latencies(&topo, &s.demands, &routing);
        train_data.push((s.demands.clone(), routing, truth));
    }
    let mut model = RouteNetModel::new(6, &mut rng);
    model.train(&topo, &train_data, train_epochs, 0.01);

    // Evaluation corpus with closed-loop optimized routings (ground-truth
    // optimizer, matching "routing results generated by RouteNet").
    let samples = demand_corpus(14, n_demands, n_samples, seed ^ 0x99);
    let routings: Vec<Routing> = samples
        .iter()
        .map(|s| optimize_routing(&topo, &s.demands, &latency, 1))
        .collect();
    RoutingSetup {
        topo,
        latency,
        model,
        samples,
        routings,
    }
}

/// Output directory for experiment artifacts.
pub fn results_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(
        std::env::var("METIS_RESULTS_DIR").unwrap_or_else(|_| "results".to_string()),
    );
    std::fs::create_dir_all(&dir).expect("cannot create results dir");
    dir
}
