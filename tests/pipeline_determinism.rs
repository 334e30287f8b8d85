//! Regression tests for the parallel conversion engine's determinism
//! guarantee on a real substrate: same seed ⇒ identical tree and identical
//! collected traces, regardless of thread count.

mod common;

use common::tree_digest;
use metis::abr::{
    env_pool, hsdpa_corpus, pensieve_agent, train_pensieve, NetworkTrace, PensieveArch, VideoModel,
};
use metis::core::{ConversionConfig, ConversionPipeline};
use metis::nn::Network;
use metis::rl::{collect_seeded, CollectConfig, Controller};
use metis::telemetry::Fnv1a;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn abr_pool() -> Vec<metis::abr::AbrEnv> {
    let video = Arc::new(VideoModel::standard(16, 3));
    let traces: Vec<Arc<NetworkTrace>> = hsdpa_corpus(4, 23).into_iter().map(Arc::new).collect();
    env_pool(&video, &traces)
}

#[test]
fn conversion_identical_across_thread_counts_on_abr() {
    let pool = abr_pool();
    let mut rng = StdRng::seed_from_u64(5);
    // An untrained teacher exercises the full loop (collection, Eq.-1
    // weights via the critic-free lookahead, DAgger takeover, fit, prune).
    let agent = pensieve_agent(PensieveArch::Original, 16, &mut rng);
    let cfg = ConversionConfig {
        max_leaf_nodes: 32,
        episodes_per_round: 6,
        max_steps: 48,
        dagger_rounds: 1,
        ..Default::default()
    };
    let run = |threads: usize| {
        ConversionPipeline::new(&pool, &agent.policy, |_| 0.0)
            .conversion(cfg.clone())
            .seed(77)
            .threads(threads)
            .run()
    };
    let single = run(1);
    let multi = run(4);
    assert_eq!(
        single.policy.tree, multi.policy.tree,
        "tree differs across thread counts"
    );
    assert_eq!(single.fidelity_history, multi.fidelity_history);
    assert_eq!(single.dataset_size, multi.dataset_size);
    // And a different seed produces a different trace set (sanity that the
    // equality above is not vacuous).
    let other = ConversionPipeline::new(&pool, &agent.policy, |_| 0.0)
        .conversion(cfg.clone())
        .seed(78)
        .run();
    assert!(other.dataset_size > 0);
}

#[test]
fn collection_merges_identically_across_thread_counts() {
    let pool = abr_pool();
    let mut rng = StdRng::seed_from_u64(6);
    let agent = pensieve_agent(PensieveArch::Original, 16, &mut rng);
    let cfg = CollectConfig {
        episodes: 8,
        max_steps: 40,
        gamma: 0.99,
        weighted: true,
    };
    let collect = |threads: usize| {
        collect_seeded(
            &pool,
            &agent.policy,
            &(|_: &[f64]| 0.0),
            &Controller::Teacher,
            &cfg,
            99,
            threads,
        )
    };
    let a = collect(1);
    let b = collect(3);
    let c = collect(8);
    assert!(!a.is_empty());
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), c.len());
    for ((sa, sb), sc) in a.iter().zip(b.iter()).zip(c.iter()) {
        assert_eq!(sa.obs, sb.obs);
        assert_eq!(sa.obs, sc.obs);
        assert_eq!(sa.teacher_action, sb.teacher_action);
        assert_eq!(sa.weight.to_bits(), sb.weight.to_bits());
        assert_eq!(sa.weight.to_bits(), sc.weight.to_bits());
    }
}

/// A trained teacher, the states it collects and the tree it converts to,
/// each pinned to a digest recorded before the networks' `tanh` and the
/// collection loop were rewritten. Every other determinism suite compares
/// runs inside one binary, so only this test notices a result that moves
/// between commits (a `tanh` one ulp off would change all three). A
/// failure names the first stage that moved; fix the change, never
/// re-pin.
#[test]
fn conversion_is_pinned() {
    let video = Arc::new(VideoModel::pensieve_default(7));
    let traces: Vec<Arc<NetworkTrace>> = hsdpa_corpus(4, 23).into_iter().map(Arc::new).collect();
    let pool = env_pool(&video, &traces);
    let mut rng = StdRng::seed_from_u64(11);
    let mut agent = pensieve_agent(PensieveArch::Original, 32, &mut rng);
    train_pensieve(&mut agent, &pool, 10, &mut rng);

    let mut params = Fnv1a::new();
    let mut actor = agent.policy.net.clone();
    let mut critic = agent.critic.clone();
    for pg in actor.params().into_iter().chain(critic.params()) {
        pg.param.iter().for_each(|v| params.write_u64(v.to_bits()));
    }

    let cfg = CollectConfig {
        episodes: 12,
        max_steps: 48,
        gamma: 0.99,
        weighted: true,
    };
    let value = agent.value_estimate();
    let states = collect_seeded(
        &pool,
        &agent.policy,
        &value,
        &Controller::Teacher,
        &cfg,
        5,
        1,
    );
    let mut collected = Fnv1a::new();
    for s in &states {
        s.obs.iter().for_each(|v| collected.write_u64(v.to_bits()));
        collected.write_u64(s.teacher_action as u64);
        collected.write_u64(s.weight.to_bits());
    }

    let result = ConversionPipeline::with_value(&pool, &agent.policy, agent.value_estimate())
        .conversion(ConversionConfig {
            max_leaf_nodes: 64,
            episodes_per_round: 12,
            max_steps: 48,
            dagger_rounds: 2,
            ..Default::default()
        })
        .seed(3)
        .threads(1)
        .run();
    let mut converted = Fnv1a::new();
    converted.write_u64(tree_digest(&result.policy.tree));
    result
        .fidelity_history
        .iter()
        .for_each(|f| converted.write_u64(f.to_bits()));
    converted.write_u64(result.dataset_size as u64);

    let got = [params.finish(), collected.finish(), converted.finish()];
    eprintln!(
        "{} states, {} leaves, digests {:#018x} {:#018x} {:#018x}",
        states.len(),
        result.policy.tree.n_leaves(),
        got[0],
        got[1],
        got[2]
    );
    let want = [
        0x13b0_0383_6e73_65c3,
        0xd629_98c7_bb22_3760,
        0x83ed_43a7_5ebf_7093,
    ];
    for (stage, (g, w)) in ["teacher parameters", "collected states", "converted tree"]
        .iter()
        .zip(got.iter().zip(want.iter()))
    {
        assert_eq!(g, w, "{stage} moved: got {g:#018x}, pinned {w:#018x}");
    }
}
