//! sRLA — AuTO's short-flow RL agent. It observes features of recently
//! finished short flows (the paper's 700-dimensional state: 100 flows × 7
//! features) and outputs the MLFQ demotion thresholds as continuous values.
//!
//! The original is trained with DDPG; here we use a (1+1)-ES hill climb on
//! the simulated mean FCT, which suffices to produce a non-trivial teacher
//! for the interpretation experiments (the paper's experiments only need a
//! finetuned teacher, not a state-of-the-art one); see the README's
//! *Substitutions*.

use crate::mlfq::{MlfqThresholds, N_PRIORITIES};
use crate::sim::{CompletedFlow, FabricConfig, FlowSim, SimConfig};
use crate::workload::{generate_flows, SizeDistribution};
use metis_nn::{Activation, Mlp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Flows tracked in the sRLA state.
pub const SRLA_FLOWS: usize = 100;
/// Features per tracked flow.
pub const SRLA_FEATURES: usize = 7;
/// Total state dimensionality (the paper's "700 states").
pub const SRLA_STATE_DIM: usize = SRLA_FLOWS * SRLA_FEATURES;
/// Number of continuous outputs (the K−1 thresholds).
pub const SRLA_OUT_DIM: usize = N_PRIORITIES - 1;

/// Encode the sRLA state from the most recent finished flows (newest
/// last). Shorter histories are zero-padded at the front.
pub fn srla_state(recent: &[CompletedFlow], fabric: &FabricConfig) -> Vec<f64> {
    let mut state = vec![0.0; SRLA_STATE_DIM];
    let take = recent.len().min(SRLA_FLOWS);
    let start = SRLA_FLOWS - take;
    for (slot, f) in recent[recent.len() - take..].iter().enumerate() {
        let base = (start + slot) * SRLA_FEATURES;
        let ideal_s = f.size_bytes * 8.0 / fabric.link_bps;
        let slowdown = (f.fct_s / ideal_s.max(1e-9)).min(1e4);
        state[base] = f.src as f64 / fabric.n_servers as f64;
        state[base + 1] = f.dst as f64 / fabric.n_servers as f64;
        // Port/protocol stand-ins: deterministic per-flow hash features
        // (the paper uses the raw 5-tuple; we have no ports in the
        // flow-level model, so feed stable pseudo-identifiers instead).
        state[base + 2] = ((f.id * 2654435761) % 65536) as f64 / 65536.0;
        state[base + 3] = ((f.id * 40503) % 65536) as f64 / 65536.0;
        state[base + 4] = (f.size_bytes.max(1.0)).log10() / 10.0;
        state[base + 5] = (f.fct_s.max(1e-9)).log10().clamp(-9.0, 3.0) / 10.0 + 0.5;
        state[base + 6] = slowdown.log10() / 4.0;
    }
    state
}

/// Map the network's sigmoid outputs (each in (0,1)) to strictly
/// increasing byte thresholds on a log scale:
/// `t_1 ∈ [1 KB, 100 KB]`, and each subsequent threshold is 1.26×–126×
/// the previous one. Always yields a valid [`MlfqThresholds`].
pub fn thresholds_from_outputs(out: &[f64]) -> MlfqThresholds {
    assert_eq!(out.len(), SRLA_OUT_DIM, "expected {SRLA_OUT_DIM} outputs");
    let mut ts = Vec::with_capacity(SRLA_OUT_DIM);
    let mut t = 1e3 * 10f64.powf(2.0 * out[0].clamp(0.0, 1.0));
    ts.push(t);
    for &o in &out[1..] {
        t *= 10f64.powf(0.1 + 2.0 * o.clamp(0.0, 1.0));
        ts.push(t);
    }
    MlfqThresholds::new(ts).expect("construction guarantees validity")
}

/// Build the sRLA network: `[700, hidden.., 3]` with sigmoid outputs.
pub fn srla_net(hidden: &[usize], rng: &mut StdRng) -> Mlp {
    let mut dims = vec![SRLA_STATE_DIM];
    dims.extend_from_slice(hidden);
    dims.push(SRLA_OUT_DIM);
    Mlp::new(&dims, Activation::Tanh, Activation::Sigmoid, rng)
}

/// The full-size sRLA of the paper (600×600 hidden), used by the
/// decision-latency and deployment benchmarks.
pub fn srla_net_paper_scale(rng: &mut StdRng) -> Mlp {
    srla_net(&[600, 600], rng)
}

/// Thresholds chosen by the agent for a given state.
pub fn srla_decide(net: &Mlp, state: &[f64]) -> MlfqThresholds {
    thresholds_from_outputs(&net.predict(state))
}

/// Mean FCT of short flows when running `flows` under `thresholds`.
pub fn evaluate_thresholds(
    flows: Vec<crate::workload::FlowRequest>,
    thresholds: MlfqThresholds,
    fabric: FabricConfig,
) -> f64 {
    let config = SimConfig {
        fabric,
        thresholds,
        long_flow_cutoff_bytes: f64::INFINITY,
        decision_latency_s: 0.0,
    };
    let mut sim = FlowSim::new(flows, config);
    let done = sim.run_mlfq_only();
    done.iter().map(|f| f.fct_s).sum::<f64>() / done.len().max(1) as f64
}

/// Standard deviation of the Gaussian perturbation the ES hill climb adds
/// to every parameter.
const NOISE_STD: f64 = 0.05;

/// Training configuration for the ES hill climb.
#[derive(Debug, Clone)]
pub struct SrlaTrainConfig {
    pub iterations: usize,
    pub load: f64,
    pub duration_s: f64,
    pub n_servers: usize,
    pub link_bps: f64,
}

impl Default for SrlaTrainConfig {
    fn default() -> Self {
        SrlaTrainConfig {
            iterations: 40,
            load: 0.6,
            duration_s: 0.02,
            n_servers: 8,
            link_bps: 10e9,
        }
    }
}

/// (1+1)-ES: perturb all parameters, keep the perturbation when the mean
/// FCT (averaged over a few workload seeds) improves. Returns the mean-FCT
/// history (one entry per accepted or rejected iteration).
pub fn train_srla(
    net: &mut Mlp,
    dist: &SizeDistribution,
    cfg: &SrlaTrainConfig,
    rng: &mut StdRng,
) -> Vec<f64> {
    let fabric = FabricConfig {
        n_servers: cfg.n_servers,
        link_bps: cfg.link_bps,
    };
    let eval = |net: &Mlp, seed: u64| -> f64 {
        // Fresh workload per seed; state from a warmup run with defaults.
        let mut wl_rng = StdRng::seed_from_u64(seed);
        let flows = generate_flows(
            dist,
            cfg.n_servers,
            cfg.link_bps,
            cfg.load,
            cfg.duration_s,
            &mut wl_rng,
        );
        if flows.is_empty() {
            return 0.0;
        }
        // Warmup to build a state, then decide thresholds and score them.
        let warm = flows
            .iter()
            .take(flows.len() / 2)
            .cloned()
            .collect::<Vec<_>>();
        let mut warm_sim = FlowSim::new(
            warm,
            SimConfig {
                fabric: fabric.clone(),
                thresholds: MlfqThresholds::default_web_search(),
                long_flow_cutoff_bytes: f64::INFINITY,
                decision_latency_s: 0.0,
            },
        );
        warm_sim.run_mlfq_only();
        let state = srla_state(warm_sim.completed(), &fabric);
        let thresholds = srla_decide(net, &state);
        evaluate_thresholds(flows, thresholds, fabric.clone())
    };
    let score = |net: &Mlp| -> f64 { (0..3).map(|s| eval(net, 1000 + s)).sum::<f64>() / 3.0 };

    let mut best = score(net);
    let mut history = vec![best];
    for _ in 0..cfg.iterations {
        // Gaussian perturbation of every parameter.
        let backup: Vec<Vec<f64>> = net.params().iter().map(|pg| pg.param.to_vec()).collect();
        {
            let mut params = net.params();
            for pg in params.iter_mut() {
                for p in pg.param.iter_mut() {
                    let u1: f64 = rng.gen_range(1e-12..1.0);
                    let u2: f64 = rng.gen_range(0.0..1.0);
                    let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    *p += NOISE_STD * g;
                }
            }
        }
        let candidate = score(net);
        if candidate < best {
            best = candidate;
        } else {
            // Revert.
            let mut params = net.params();
            for (pg, saved) in params.iter_mut().zip(backup.iter()) {
                pg.param.copy_from_slice(saved);
            }
        }
        history.push(best);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> FabricConfig {
        FabricConfig {
            n_servers: 8,
            link_bps: 10e9,
        }
    }

    #[test]
    fn state_dimension_is_700() {
        assert_eq!(SRLA_STATE_DIM, 700);
        let state = srla_state(&[], &fabric());
        assert_eq!(state.len(), 700);
        assert!(state.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn state_packs_newest_flows_at_end() {
        let flows: Vec<CompletedFlow> = (0..3)
            .map(|i| CompletedFlow {
                id: i,
                src: 1,
                dst: 2,
                size_bytes: 10_000.0,
                arrival_s: 0.0,
                fct_s: 0.001,
            })
            .collect();
        let state = srla_state(&flows, &fabric());
        // First 97 slots are zero-padded.
        assert!(state[..97 * SRLA_FEATURES].iter().all(|&x| x == 0.0));
        // Last 3 slots are populated.
        assert!(state[97 * SRLA_FEATURES] > 0.0);
    }

    #[test]
    fn state_handles_overflow_history() {
        let flows: Vec<CompletedFlow> = (0..250)
            .map(|i| CompletedFlow {
                id: i,
                src: i % 8,
                dst: (i + 1) % 8,
                size_bytes: 1000.0 + i as f64,
                arrival_s: 0.0,
                fct_s: 0.0001,
            })
            .collect();
        let state = srla_state(&flows, &fabric());
        assert_eq!(state.len(), 700);
        assert!(state.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn threshold_mapping_valid_over_grid() {
        for a in [0.0, 0.3, 0.7, 1.0] {
            for b in [0.0, 0.5, 1.0] {
                for c in [0.0, 0.5, 1.0] {
                    let t = thresholds_from_outputs(&[a, b, c]);
                    let s = t.as_slice();
                    assert!(s[0] >= 1e3 - 1.0 && s[0] <= 1e5 + 1.0);
                    assert!(s.windows(2).all(|w| w[1] > w[0]));
                }
            }
        }
    }

    #[test]
    fn net_shape_and_decide() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = srla_net(&[16], &mut rng);
        assert_eq!(net.in_dim(), 700);
        assert_eq!(net.out_dim(), 3);
        let state = vec![0.1; 700];
        let t = srla_decide(&net, &state);
        assert!(t.as_slice().windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn es_training_never_regresses() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = srla_net(&[8], &mut rng);
        let cfg = SrlaTrainConfig {
            iterations: 6,
            duration_s: 0.004,
            n_servers: 4,
            ..Default::default()
        };
        let history = train_srla(&mut net, &SizeDistribution::web_search(), &cfg, &mut rng);
        assert_eq!(history.len(), 7);
        // (1+1)-ES keeps the best: the history must be non-increasing.
        for w in history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "ES regressed: {:?}", w);
        }
    }

    #[test]
    fn good_thresholds_beat_degenerate_on_web_search() {
        // Thresholds that demote elephants beat "everything stays top
        // priority" (single-queue) on mean FCT.
        let mut rng = StdRng::seed_from_u64(21);
        let flows = generate_flows(
            &SizeDistribution::web_search(),
            8,
            10e9,
            0.7,
            0.03,
            &mut rng,
        );
        let tuned = evaluate_thresholds(
            flows.clone(),
            MlfqThresholds::default_web_search(),
            fabric(),
        );
        let single_queue = evaluate_thresholds(
            flows,
            MlfqThresholds::new(vec![1e14, 2e14, 3e14]).unwrap(),
            fabric(),
        );
        assert!(
            tuned < single_queue,
            "tuned {tuned} should beat single-queue {single_queue}"
        );
    }
}
