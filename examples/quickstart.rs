//! Quickstart: interpret a DNN policy with Metis in under a minute.
//!
//! We train a tiny actor-critic teacher on a contextual bandit, convert it
//! into a decision tree with the full §3.2 pipeline (DAgger collection,
//! Eq.-1 resampling, CCP pruning), and print the human-readable rules.
//!
//! Run with: `cargo run --release --example quickstart`

use metis::core::{ConversionConfig, ConversionPipeline};
use metis::dt::{render, RenderOptions};
use metis::rl::env::test_envs::BanditEnv;
use metis::rl::{evaluate, ActorCritic, TrainConfig};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // 1. A "DL-based networking system": a DNN policy on a 3-context task.
    let pool: Vec<BanditEnv> = (0..8).map(|s| BanditEnv::new(3, 20, s)).collect();
    let mut teacher = ActorCritic::new(
        3,
        3,
        &[16],
        TrainConfig {
            max_steps: 20,
            ..Default::default()
        },
        &mut rng,
    );
    for _ in 0..150 {
        teacher.train_epoch(&pool, &mut rng);
    }
    let teacher_score = evaluate(&pool[0], &teacher.policy, 4, 20, &mut rng);
    println!("teacher DNN mean return: {teacher_score:.2} / 20");

    // 2. Metis: convert the blackbox DNN into a decision tree.
    let cfg = ConversionConfig {
        max_leaf_nodes: 8,
        episodes_per_round: 8,
        max_steps: 20,
        ..Default::default()
    };
    let critic = teacher.critic.clone();
    let result = ConversionPipeline::new(&pool, &teacher.policy, move |obs: &[f64]| {
        critic.predict(obs)[0]
    })
    .conversion(cfg)
    .seed(rng.next_u64())
    .run();
    let tree_score = evaluate(&pool[0], &result.policy, 4, 20, &mut rng);
    println!(
        "student tree mean return: {tree_score:.2} / 20 (fidelity {:.1}%)",
        result.fidelity_history.last().unwrap() * 100.0
    );

    // 3. The interpretation: transparent, deployable rules.
    println!("\nthe policy, as humans read it:");
    let mut tree = result.policy.tree;
    tree.feature_names = Some(vec!["ctx0".into(), "ctx1".into(), "ctx2".into()]);
    println!("{}", render(&tree, &RenderOptions::default()));
    println!(
        "tree artifact: {} bytes, {} leaves, depth {}",
        tree.artifact_bytes(),
        tree.n_leaves(),
        tree.depth()
    );
}
