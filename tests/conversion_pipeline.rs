//! Cross-crate integration tests: the full §3.2 conversion pipeline on a
//! real substrate (the ABR simulator), end to end.

use metis::abr::{
    env_pool, hsdpa_corpus, pensieve_agent, train_pensieve, NetworkTrace, PensieveArch, VideoModel,
};
use metis::core::{ConversionConfig, ConversionPipeline};
use metis::rl::{evaluate, Policy};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

fn small_setup() -> (
    Vec<metis::abr::AbrEnv>,
    metis::rl::ActorCritic<metis::abr::PensieveNet>,
) {
    let mut rng = StdRng::seed_from_u64(7);
    let video = Arc::new(VideoModel::standard(24, 3));
    let traces: Vec<Arc<NetworkTrace>> = hsdpa_corpus(6, 11).into_iter().map(Arc::new).collect();
    let pool = env_pool(&video, &traces);
    let mut agent = pensieve_agent(PensieveArch::Original, 24, &mut rng);
    train_pensieve(&mut agent, &pool, 120, &mut rng);
    (pool, agent)
}

#[test]
fn tree_tracks_teacher_qoe_on_abr() {
    let (pool, agent) = small_setup();
    let mut rng = StdRng::seed_from_u64(1);
    let critic = agent.critic.clone();
    let cfg = ConversionConfig {
        max_leaf_nodes: 100,
        episodes_per_round: 6,
        max_steps: 64,
        ..Default::default()
    };
    let result = ConversionPipeline::new(&pool, &agent.policy, move |obs: &[f64]| {
        critic.predict(obs)[0]
    })
    .conversion(cfg)
    .seed(rng.next_u64())
    .run();

    // Fidelity to the teacher on collected states must be high.
    let last = *result.fidelity_history.last().unwrap();
    assert!(last > 0.8, "fidelity {last}");

    // QoE parity: the student should track the teacher closely across the
    // pool (within 15% on this small setup; the paper reports <2% at full
    // training scale).
    let q_teacher: f64 = pool
        .iter()
        .map(|e| evaluate(e, &agent.policy, 1, 64, &mut rng))
        .sum::<f64>();
    let q_tree: f64 = pool
        .iter()
        .map(|e| evaluate(e, &result.policy, 1, 64, &mut rng))
        .sum::<f64>();
    let rel = (q_tree - q_teacher).abs() / q_teacher.abs().max(1e-9);
    assert!(
        rel < 0.15,
        "teacher {q_teacher:.2}, tree {q_tree:.2} (rel {rel:.3})"
    );
}

#[test]
fn oversampling_keeps_all_observed_actions_present() {
    let (pool, agent) = small_setup();
    let mut rng = StdRng::seed_from_u64(2);
    let cfg = ConversionConfig {
        max_leaf_nodes: 100,
        episodes_per_round: 6,
        max_steps: 64,
        dagger_rounds: 1,
        oversample_min_frac: Some(0.01),
        ..Default::default()
    };
    let result = ConversionPipeline::new(&pool, &agent.policy, |_| 0.0)
        .conversion(cfg)
        .seed(rng.next_u64())
        .run();
    assert!(result.policy.tree.n_leaves() <= 100);
    // The tree must be a valid policy over the full action space.
    let probs = result.policy.action_probs(&[0.1; metis::abr::OBS_DIM]);
    assert_eq!(probs.len(), 6);
    assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
}

#[test]
fn compiled_tree_agrees_with_tree_policy() {
    let (pool, agent) = small_setup();
    let mut rng = StdRng::seed_from_u64(3);
    let cfg = ConversionConfig {
        max_leaf_nodes: 64,
        episodes_per_round: 4,
        max_steps: 64,
        dagger_rounds: 0,
        ..Default::default()
    };
    let result = ConversionPipeline::new(&pool, &agent.policy, |_| 0.0)
        .conversion(cfg)
        .seed(rng.next_u64())
        .run();
    let compiled = metis::dt::CompiledTree::compile(&result.policy.tree);
    // Agreement on live observations from an episode.
    let mut env = pool[0].clone();
    let mut obs = metis::rl::Env::reset(&mut env);
    for _ in 0..24 {
        let a = result.policy.act_greedy(&obs);
        assert_eq!(a, compiled.predict_class(&obs));
        let step = metis::rl::Env::step(&mut env, a);
        if step.done {
            break;
        }
        obs = step.obs;
    }
}
