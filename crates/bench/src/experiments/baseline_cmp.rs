//! Figure 27 (Appendix E): faithfulness of the Metis decision tree against
//! LIME and LEMNA across k-means cluster counts, for three teacher agents
//! (Pensieve, AuTO-lRLA, AuTO-sRLA).

use crate::setup;
use metis_abr::PensieveArch;
use metis_core::baselines::{surrogate_accuracy, surrogate_rmse, Lemna, Lime, Surrogate};
use metis_core::{ConversionConfig, ConversionPipeline, MultiRegressor};
use metis_flowsched::{
    generate_flows, lrla_agent, srla_decide, srla_net, srla_state, train_srla, FabricConfig,
    FlowSim, LrlaEnv, MlfqThresholds, SimConfig, SizeDistribution, SrlaTrainConfig,
};
use metis_rl::{Policy, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

/// A classification teacher dataset: states, output vectors, argmax labels.
struct ClsData {
    x: Vec<Vec<f64>>,
    y: Vec<Vec<f64>>,
    labels: Vec<usize>,
}

struct TreeSurrogate(metis_core::TreePolicy);

impl Surrogate for TreeSurrogate {
    fn predict(&self, x: &[f64]) -> Vec<f64> {
        self.0.action_probs(x)
    }
    fn predict_class(&self, x: &[f64]) -> usize {
        self.0.act_greedy(x)
    }
}

fn pensieve_data() -> (ClsData, metis_core::TreePolicy) {
    let s = setup::pensieve(42, PensieveArch::Original, 300);
    let cfg = ConversionConfig {
        max_leaf_nodes: 200,
        episodes_per_round: 12,
        max_steps: 512,
        dagger_rounds: 0,
        ..Default::default()
    };
    let pipeline = ConversionPipeline::new(&s.train_pool, &s.agent.policy, |_| 0.0)
        .conversion(cfg)
        .seed(9);
    let states = pipeline.collect_teacher_states(12, 512);
    let x: Vec<Vec<f64>> = states.iter().map(|st| st.obs.clone()).collect();
    let y: Vec<Vec<f64>> = x.iter().map(|xi| s.agent.policy.action_probs(xi)).collect();
    let labels: Vec<usize> = states.iter().map(|st| st.teacher_action).collect();
    let tree = pipeline.run();
    (ClsData { x, y, labels }, tree.policy)
}

fn lrla_data() -> (ClsData, metis_core::TreePolicy) {
    let mut rng = StdRng::seed_from_u64(21);
    let dist = SizeDistribution::web_search();
    let sim_cfg = SimConfig {
        fabric: FabricConfig {
            n_servers: 8,
            link_bps: 10e9,
        },
        thresholds: MlfqThresholds::default_web_search(),
        long_flow_cutoff_bytes: 1e6,
        decision_latency_s: 0.0,
    };
    let mut agent = lrla_agent(
        &[32],
        TrainConfig {
            episodes_per_epoch: 4,
            max_steps: 400,
            ..Default::default()
        },
        &mut rng,
    );
    let pool: Vec<LrlaEnv> = (0..3)
        .map(|i| {
            let mut wl_rng = StdRng::seed_from_u64(500 + i);
            LrlaEnv::new(
                generate_flows(&dist, 8, 10e9, 0.6, 0.03, &mut wl_rng),
                sim_cfg.clone(),
            )
        })
        .collect();
    for _ in 0..20 {
        agent.train_epoch(&pool, &mut rng);
    }
    let cfg = ConversionConfig {
        max_leaf_nodes: 2000,
        episodes_per_round: 6,
        max_steps: 400,
        dagger_rounds: 0,
        ..Default::default()
    };
    let pipeline = ConversionPipeline::new(&pool, &agent.policy, |_| 0.0)
        .conversion(cfg)
        .seed(21);
    let states = pipeline.collect_teacher_states(6, 400);
    let x: Vec<Vec<f64>> = states.iter().map(|st| st.obs.clone()).collect();
    let y: Vec<Vec<f64>> = x.iter().map(|xi| agent.policy.action_probs(xi)).collect();
    let labels: Vec<usize> = states.iter().map(|st| st.teacher_action).collect();
    let tree = pipeline.run();
    (ClsData { x, y, labels }, tree.policy)
}

/// sRLA is a regression teacher: (projected state, thresholds-as-log10).
/// The full 700-dim state makes the dense LIME/LEMNA solvers cubic-cost;
/// all three surrogates therefore share a 70-feature projection (the 10
/// most recent flows).
fn srla_data() -> (Vec<Vec<f64>>, Vec<Vec<f64>>, MultiRegressor) {
    let mut rng = StdRng::seed_from_u64(33);
    let dist = SizeDistribution::web_search();
    let mut net = srla_net(&[32], &mut rng);
    let cfg = SrlaTrainConfig {
        iterations: 10,
        duration_s: 0.01,
        ..Default::default()
    };
    train_srla(&mut net, &dist, &cfg, &mut rng);

    let fabric = FabricConfig {
        n_servers: 8,
        link_bps: 10e9,
    };
    let mut x = Vec::new();
    let mut y = Vec::new();
    for seed in 0..60u64 {
        let mut wl_rng = StdRng::seed_from_u64(7000 + seed);
        let flows = generate_flows(&dist, 8, 10e9, 0.5, 0.008, &mut wl_rng);
        if flows.is_empty() {
            continue;
        }
        let mut sim = FlowSim::new(
            flows,
            SimConfig {
                fabric: fabric.clone(),
                thresholds: MlfqThresholds::default_web_search(),
                long_flow_cutoff_bytes: f64::INFINITY,
                decision_latency_s: 0.0,
            },
        );
        sim.run_mlfq_only();
        let full = srla_state(sim.completed(), &fabric);
        let thresholds = srla_decide(&net, &full);
        // Project: last 10 flows x 7 features.
        x.push(full[full.len() - 70..].to_vec());
        y.push(thresholds.as_slice().iter().map(|t| t.log10()).collect());
    }
    let tree = MultiRegressor::fit(&x, &y, 2000).expect("regression fit");
    (x, y, tree)
}

/// Figure 27: the full comparison grid.
pub fn fig27(out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(
        out,
        "=== Figure 27: Metis vs LIME vs LEMNA faithfulness ==="
    )?;
    let ks = [1usize, 2, 5, 10, 20, 50];

    // (a, b) Pensieve; (c, d) lRLA. Surrogates are fitted on the even
    // half of the samples and every method is scored on the odd half —
    // without the split, a 50-cluster LIME memorizes its evaluation data.
    for (name, (data, tree)) in [("Pensieve", pensieve_data()), ("AuTO-lRLA", lrla_data())] {
        let train_x: Vec<Vec<f64>> = data.x.iter().step_by(2).cloned().collect();
        let train_y: Vec<Vec<f64>> = data.y.iter().step_by(2).cloned().collect();
        let test_x: Vec<Vec<f64>> = data.x.iter().skip(1).step_by(2).cloned().collect();
        let test_y: Vec<Vec<f64>> = data.y.iter().skip(1).step_by(2).cloned().collect();
        let test_labels: Vec<usize> = data.labels.iter().skip(1).step_by(2).cloned().collect();
        let surrogate = TreeSurrogate(tree);
        let tree_acc = surrogate_accuracy(&surrogate, &test_x, &test_labels);
        let tree_rmse = surrogate_rmse(&surrogate, &test_x, &test_y);
        writeln!(
            out,
            "--- {name} ({} train / {} test samples) ---",
            train_x.len(),
            test_x.len()
        )?;
        writeln!(
            out,
            "Metis tree: accuracy {:.1}%  rmse {:.4} (cluster-independent)",
            tree_acc * 100.0,
            tree_rmse
        )?;
        writeln!(
            out,
            "{:>4} {:>10} {:>10} {:>10} {:>10}",
            "k", "lime_acc", "lime_rmse", "lemna_acc", "lemna_rmse"
        )?;
        for &k in &ks {
            let mut rng = StdRng::seed_from_u64(100 + k as u64);
            let lime = Lime::fit(&train_x, &train_y, k, &mut rng);
            let lemna = Lemna::fit(&train_x, &train_y, k, 2, &mut rng);
            writeln!(
                out,
                "{:>4} {:>9.1}% {:>10.4} {:>9.1}% {:>10.4}",
                k,
                surrogate_accuracy(&lime, &test_x, &test_labels) * 100.0,
                surrogate_rmse(&lime, &test_x, &test_y),
                surrogate_accuracy(&lemna, &test_x, &test_labels) * 100.0,
                surrogate_rmse(&lemna, &test_x, &test_y),
            )?;
        }
    }

    // (e) sRLA: RMSE only (real-valued outputs).
    let (x, y, tree) = srla_data();
    let train_x: Vec<Vec<f64>> = x.iter().step_by(2).cloned().collect();
    let train_y: Vec<Vec<f64>> = y.iter().step_by(2).cloned().collect();
    let test_x: Vec<Vec<f64>> = x.iter().skip(1).step_by(2).cloned().collect();
    let test_y: Vec<Vec<f64>> = y.iter().skip(1).step_by(2).cloned().collect();
    let tree_half = MultiRegressor::fit(&train_x, &train_y, 2000).expect("regression fit");
    writeln!(
        out,
        "--- AuTO-sRLA ({} train / {} test, log10-threshold outputs) ---",
        train_x.len(),
        test_x.len()
    )?;
    writeln!(
        out,
        "Metis trees: rmse {:.4}",
        tree_half.rmse(&test_x, &test_y)
    )?;
    let _ = tree;
    writeln!(out, "{:>4} {:>10} {:>10}", "k", "lime_rmse", "lemna_rmse")?;
    for &k in &[1usize, 2, 5, 10] {
        let mut rng = StdRng::seed_from_u64(200 + k as u64);
        let lime = Lime::fit(&train_x, &train_y, k, &mut rng);
        let lemna = Lemna::fit(&train_x, &train_y, k, 2, &mut rng);
        writeln!(
            out,
            "{:>4} {:>10.4} {:>10.4}",
            k,
            surrogate_rmse(&lime, &test_x, &test_y),
            surrogate_rmse(&lemna, &test_x, &test_y),
        )?;
    }
    writeln!(
        out,
        "(paper: the decision tree beats both baselines on accuracy and RMSE)"
    )?;
    Ok(())
}
