//! §4 mask-search determinism on real scenario observations: the
//! batched, thread-sharded critical-connection search must produce
//! identical ranked masks for `threads = 1` and `threads = N`, on both
//! the ABR (Pensieve) and flow-scheduling (AuTO lRLA) scenarios — and the
//! batched gradient must match the per-obs oracle bit for bit.

use metis::core::interpret_policy_features;
use metis::hypergraph::{MaskConfig, MaskedMlp, MaskedSystem, OutputKind};
use metis::nn::{Activation, Mlp};
use metis::rl::{rollout, ActionMode, Env, Policy, SoftmaxPolicy};
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

/// Rows per block of `MaskedMlp`'s batched gradient.
const BLOCK_ROWS: usize = 64;

fn assert_thread_invariant(net: &Mlp, observations: Vec<Vec<f64>>, label: &str) {
    eprintln!("{label}: {} observations", observations.len());
    assert!(
        observations.len() > 2 * BLOCK_ROWS && !observations.len().is_multiple_of(BLOCK_ROWS),
        "{label}: need two full {BLOCK_ROWS}-row blocks and a ragged tail, got {} rows",
        observations.len()
    );
    // Bitwise gradient parity against the per-obs oracle first.
    let sys = MaskedMlp::new(net, observations.clone(), OutputKind::Discrete);
    let mask: Vec<f64> = (0..sys.n_connections())
        .map(|i| 0.3 + 0.4 * ((i % 3) as f64) / 3.0)
        .collect();
    let reference = sys.reference_output();
    let (d_oracle, g_oracle) = sys.d_value_grad_per_obs(&mask);
    for threads in [1usize, 2, 4] {
        let (d, g) = sys.d_value_grad(&mask, &reference, threads);
        assert_eq!(d.to_bits(), d_oracle.to_bits(), "{label}: D diverges");
        for (a, b) in g.iter().zip(g_oracle.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: gradient diverges");
        }
    }

    // Full search through the public entry point: identical ranked masks
    // for threads = 1 vs N.
    let run = |threads: usize| {
        interpret_policy_features(
            net,
            observations.clone(),
            None,
            &MaskConfig {
                steps: 40,
                threads,
                ..Default::default()
            },
            net.in_dim(),
        )
    };
    let (result_1, report_1) = run(1);
    let (result_n, report_n) = run(4);
    assert_eq!(result_1.mask, result_n.mask, "{label}: masks diverge");
    assert_eq!(
        result_1.ranked(),
        result_n.ranked(),
        "{label}: ranking diverges"
    );
    assert_eq!(result_1.loss_history, result_n.loss_history);
    let ranked_1: Vec<usize> = report_1.iter().map(|r| r.index).collect();
    let ranked_n: Vec<usize> = report_n.iter().map(|r| r.index).collect();
    assert_eq!(ranked_1, ranked_n);
}

#[test]
fn abr_scenario_mask_search_is_thread_invariant() {
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
    assert_thread_invariant(&net, observations, "ABR");
}

#[test]
fn flowsched_scenario_mask_search_is_thread_invariant() {
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
    assert_thread_invariant(&net, observations, "flowsched");
}
