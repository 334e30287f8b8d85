//! Interpret a Pensieve-style ABR agent (§6.1 of the paper, scaled down so
//! the example runs in a couple of minutes).
//!
//! Trains the deep-RL teacher on synthetic HSDPA-like traces, converts it
//! to a 50-leaf decision tree, prints the top layers with bitrate decision
//! frequencies (the paper's Figure 7), and compares QoE against the
//! heuristic baselines.
//!
//! Run with: `cargo run --release --example abr_interpretation`

use metis::abr::{
    baseline_by_name, baseline_names, bitrate_labels, env_pool, feature_names, hsdpa_corpus,
    pensieve_agent, train_pensieve, NetworkTrace, PensieveArch, VideoModel,
};
use metis::core::{ConversionConfig, ConversionPipeline};
use metis::dt::{render, RenderOptions};
use metis::rl::Policy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn mean_qoe(pool: &[metis::abr::AbrEnv], policy: &(impl Policy + Sync + ?Sized)) -> f64 {
    // The engine's parallel pool evaluator: greedy episodes fan across all
    // cores, scores merge in trace order.
    let total: f64 = metis::rl::evaluate_pool(pool, policy, 1000, 0, 0)
        .iter()
        .zip(pool)
        .map(|(score, e)| score.total_reward / e.video().n_chunks() as f64)
        .sum();
    total / pool.len() as f64
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let video = Arc::new(VideoModel::pensieve_default(7));
    let train: Vec<Arc<NetworkTrace>> = hsdpa_corpus(10, 1).into_iter().map(Arc::new).collect();
    let test: Vec<Arc<NetworkTrace>> = hsdpa_corpus(15, 2).into_iter().map(Arc::new).collect();
    let train_pool = env_pool(&video, &train);
    let test_pool = env_pool(&video, &test);

    println!("training the Pensieve teacher (this takes a moment)...");
    let mut agent = pensieve_agent(PensieveArch::Original, 32, &mut rng);
    train_pensieve(&mut agent, &train_pool, 250, &mut rng);

    println!("converting the DNN into a decision tree (Metis §3.2)...");
    let cfg = ConversionConfig {
        max_leaf_nodes: 50,
        episodes_per_round: 10,
        max_steps: 512,
        ..Default::default()
    };
    // The unified engine: collection rounds fan across all cores, the
    // split search parallelizes per feature — same tree for any core
    // count at a fixed seed.
    let result = ConversionPipeline::with_value(&train_pool, &agent.policy, agent.value_estimate())
        .conversion(cfg)
        .seed(42)
        .run();
    println!(
        "collected {} states in {:.2}s; resampled in {:.1} ms, fitted in {:.1} ms, pruned in \
         {:.2} ms ({:.0} samples/s on {} threads)",
        result.stats.states_collected,
        result.stats.collect_s,
        result.stats.resample_s * 1e3,
        result.stats.fit_s * 1e3,
        result.stats.prune_s * 1e3,
        result.stats.samples_per_sec(),
        result.stats.threads
    );

    println!("\n=== top layers of the interpretation (cf. paper Figure 7) ===");
    let mut tree = result.policy.tree.clone();
    tree.feature_names = Some(feature_names());
    let opts = RenderOptions {
        max_depth: Some(3),
        class_labels: Some(bitrate_labels()),
        show_frequencies: true,
    };
    println!("{}", render(&tree, &opts));

    println!("=== QoE on held-out traces (mean per chunk) ===");
    for name in baseline_names() {
        let b = baseline_by_name(name);
        println!("{:<16} {:+.4}", name, mean_qoe(&test_pool, b.as_ref()));
    }
    let q_dnn = mean_qoe(&test_pool, &agent.policy);
    let q_tree = mean_qoe(&test_pool, &result.policy);
    println!("{:<16} {:+.4}", "Pensieve (DNN)", q_dnn);
    println!(
        "{:<16} {:+.4}  ({:+.2}% vs DNN)",
        "Metis tree",
        q_tree,
        (q_tree - q_dnn) / q_dnn.abs().max(1e-9) * 100.0
    );
}
