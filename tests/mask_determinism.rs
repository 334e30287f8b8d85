//! §4 mask-search determinism on real scenario observations: the
//! thread-sharded critical-connection search must produce identical
//! ranked masks for `threads = 1` and `threads = N`, on both the ABR
//! (Pensieve) and flow-scheduling (AuTO lRLA) scenarios, and
//! `feature_mask_search_is_pinned` holds its bits across commits.

use metis::core::interpret_policy_features;
use metis::hypergraph::{MaskConfig, MaskResult, MaskedMlp, MaskedSystem, OutputKind};
use metis::nn::{Activation, Mlp};
use metis::rl::{rollout, ActionMode, Env, Policy, SoftmaxPolicy};
use metis::telemetry::Fnv1a;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Roll a policy through a pool and gather the visited observations.
fn collect_observations<E: Env>(
    pool: &[E],
    policy: &(impl Policy + Sync),
    max_steps: usize,
) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(0);
    let mut obs = Vec::new();
    for env in pool {
        let mut env = env.clone();
        let traj = rollout(&mut env, policy, ActionMode::Greedy, max_steps, &mut rng);
        obs.extend(traj.observations);
    }
    obs
}

/// An untrained Pensieve-shaped policy and the observations it visits.
fn abr_observations() -> (Mlp, Vec<Vec<f64>>) {
    use metis::abr::{env_pool, NetworkTrace, VideoModel, OBS_DIM};
    let mut rng = StdRng::seed_from_u64(17);
    let net = Mlp::new(
        &[OBS_DIM, 16, 6],
        Activation::Tanh,
        Activation::Linear,
        &mut rng,
    );
    let video = Arc::new(VideoModel::standard(12, 3));
    let traces: Vec<Arc<NetworkTrace>> = metis::abr::hsdpa_corpus(13, 5)
        .into_iter()
        .map(Arc::new)
        .collect();
    let pool = env_pool(&video, &traces);
    let policy = SoftmaxPolicy::new(net.clone());
    let observations = collect_observations(&pool, &policy, 12);
    (net, observations)
}

/// An untrained lRLA-shaped policy and the observations it visits.
fn flowsched_observations() -> (Mlp, Vec<Vec<f64>>) {
    use metis::flowsched::{
        generate_flows, FabricConfig, LrlaEnv, MlfqThresholds, SimConfig, SizeDistribution,
        LRLA_ACTIONS, LRLA_STATE_DIM,
    };
    let mut rng = StdRng::seed_from_u64(23);
    let net = Mlp::new(
        &[LRLA_STATE_DIM, 12, LRLA_ACTIONS],
        Activation::Tanh,
        Activation::Linear,
        &mut rng,
    );
    let config = SimConfig {
        fabric: FabricConfig {
            n_servers: 4,
            link_bps: 10e9,
        },
        thresholds: MlfqThresholds::default_web_search(),
        long_flow_cutoff_bytes: 1e6,
        decision_latency_s: 0.0,
    };
    let dist = SizeDistribution::web_search();
    let pool: Vec<LrlaEnv> = (0..6)
        .map(|i| {
            let mut wl = StdRng::seed_from_u64(300 + i);
            LrlaEnv::new(
                generate_flows(&dist, 4, 10e9, 0.7, 0.05, &mut wl),
                config.clone(),
            )
        })
        .collect();
    let policy = SoftmaxPolicy::new(net.clone());
    let observations = collect_observations(&pool, &policy, 30);
    (net, observations)
}

/// Rows per block of `MaskedMlp`'s sharded gradient.
const BLOCK_ROWS: usize = 64;

/// A mask that is neither uniform nor at a pole.
fn test_mask(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.3 + 0.4 * ((i % 3) as f64) / 3.0).collect()
}

/// The full search through the public entry point.
fn search(net: &Mlp, observations: &[Vec<f64>], threads: usize) -> MaskResult {
    let cfg = MaskConfig {
        steps: 40,
        threads,
        ..Default::default()
    };
    interpret_policy_features(net, observations.to_vec(), None, &cfg, net.in_dim()).0
}

fn assert_thread_invariant(net: &Mlp, observations: Vec<Vec<f64>>, label: &str) {
    eprintln!("{label}: {} observations", observations.len());
    assert!(
        observations.len() > 2 * BLOCK_ROWS && !observations.len().is_multiple_of(BLOCK_ROWS),
        "{label}: need two full {BLOCK_ROWS}-row blocks and a ragged tail, got {} rows",
        observations.len()
    );
    let sys = MaskedMlp::new(net, observations.clone(), OutputKind::Discrete);
    let mask = test_mask(sys.n_connections());
    let reference = sys.reference_output();
    let (d_1, g_1) = sys.d_value_grad(&mask, &reference, 1);
    for threads in [2usize, 4] {
        let (d, g) = sys.d_value_grad(&mask, &reference, threads);
        assert_eq!(d.to_bits(), d_1.to_bits(), "{label}: D diverges");
        for (a, b) in g.iter().zip(g_1.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: gradient diverges");
        }
    }

    // Identical ranked masks for threads = 1 vs N.
    let result_1 = search(net, &observations, 1);
    let result_n = search(net, &observations, 4);
    assert_eq!(result_1.mask, result_n.mask, "{label}: masks diverge");
    assert_eq!(
        result_1.ranked(),
        result_n.ranked(),
        "{label}: ranking diverges"
    );
    assert_eq!(result_1.loss_history, result_n.loss_history);
}

#[test]
fn abr_scenario_mask_search_is_thread_invariant() {
    let (net, observations) = abr_observations();
    assert_thread_invariant(&net, observations, "ABR");
}

#[test]
fn flowsched_scenario_mask_search_is_thread_invariant() {
    let (net, observations) = flowsched_observations();
    assert_thread_invariant(&net, observations, "flowsched");
}

/// `MaskedMlp::d_value_grad`'s D and gradient at threads 1, 2 and 0 (all
/// cores), under every activation as the hidden layer's and both output
/// kinds, on two full blocks and a ragged tail; then the mask and loss
/// history that `interpret_policy_features` finds on the ABR and lRLA
/// observation sets. Each is pinned to a digest recorded while the
/// gradient ran on a batched tape, so only this test notices a feature
/// mask result that moves between commits. A failure names the first
/// stage that moved; fix the change, never re-pin.
#[test]
fn feature_mask_search_is_pinned() {
    let rows = 2 * BLOCK_ROWS + 23;
    let obs: Vec<Vec<f64>> = (0..rows)
        .map(|r| (0..6).map(|c| ((r * 6 + c) as f64 * 0.13).sin()).collect())
        .collect();
    let mut gradients = Fnv1a::new();
    for hidden in [
        Activation::Relu,
        Activation::LeakyRelu,
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::Linear,
    ] {
        let mut rng = StdRng::seed_from_u64(77);
        let net = Mlp::new(&[6, 10, 4], hidden, Activation::Linear, &mut rng);
        for kind in [OutputKind::Discrete, OutputKind::Continuous] {
            let sys = MaskedMlp::new(&net, obs.clone(), kind);
            let mask = test_mask(sys.n_connections());
            let reference = sys.reference_output();
            for threads in [1, 2, 0] {
                let (d, g) = sys.d_value_grad(&mask, &reference, threads);
                gradients.write_u64(d.to_bits());
                g.iter().for_each(|v| gradients.write_u64(v.to_bits()));
            }
        }
    }

    let searched = |(net, observations): (Mlp, Vec<Vec<f64>>)| {
        let result = search(&net, &observations, 0);
        let mut digest = Fnv1a::new();
        result
            .mask
            .iter()
            .chain(&result.loss_history)
            .for_each(|v| digest.write_u64(v.to_bits()));
        digest.finish()
    };
    let got = [
        gradients.finish(),
        searched(abr_observations()),
        searched(flowsched_observations()),
    ];
    eprintln!("digests {:#018x} {:#018x} {:#018x}", got[0], got[1], got[2]);
    let want = [
        0x6c46_4293_b4f3_0373,
        0xb834_adda_c5ac_a36d,
        0xbd7b_b482_2f79_5d56,
    ];
    let stages = ["D and gradients", "ABR search", "lRLA search"];
    for (stage, (g, w)) in stages.iter().zip(got.iter().zip(want.iter())) {
        assert_eq!(g, w, "{stage} moved: got {g:#018x}, pinned {w:#018x}");
    }
}
