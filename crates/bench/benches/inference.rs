//! Batched-inference benchmarks: the per-obs matrix-vector engine of the
//! seed (kept verbatim as the oracle) against the batched matrix-matrix
//! engine, measured on the repo's heaviest local teacher (AuTO lRLA
//! scale: 143 state features, 2×128 hidden, 108 actions), plus the
//! throughput of one §4 mask-search gradient step on a masked MLP and on
//! RouteNet (the scalar tape's recording path). Emits
//! `BENCH_inference.json` at the workspace root — the artifact the CI
//! regression guard (`bench_guard`) compares against the committed
//! baseline.
//!
//! Two layers of measurement:
//!
//! * **Raw forward** — `N × predict` (pre-refactor `ikj` kernel, the
//!   seed's exact path) vs one `forward_inference` matrix-matrix pass.
//! * **Teacher labelling unit** — what DAgger collection actually pays
//!   per state: the per-obs oracle queries `act_greedy` *and*
//!   `action_probs` (two forwards + two softmaxes per state), while the
//!   batched engine answers both from one forward pass per episode
//!   ([`metis_rl::Policy::probs_and_greedy_batch`]), bit-identically.
//!   The headline `speedup_batch256` is this unit's ratio.

use metis_bench::measure::{median_rate, Windows};
use metis_core::MaskedRouting;
use metis_hypergraph::{MaskedMlp, MaskedSystem, OutputKind};
use metis_nn::{argmax, softmax, Activation, Matrix, Mlp, Network};
use metis_rl::{Policy, SoftmaxPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const BATCH_SIZES: [usize; 3] = [1, 32, 256];

fn teacher_net(rng: &mut StdRng) -> Mlp {
    // lRLA scale (the paper's 143-state / 108-action AuTO agent), ReLU
    // like the original systems, so the measurement exposes the
    // linear-algebra engine rather than the activation pass.
    Mlp::new(
        &[
            metis_flowsched::LRLA_STATE_DIM,
            128,
            128,
            metis_flowsched::LRLA_ACTIONS,
        ],
        Activation::Relu,
        Activation::Linear,
        rng,
    )
}

fn random_obs(n: usize, dim: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect()
}

/// The pre-refactor per-obs inference path, reproduced verbatim: one
/// matrix-vector `ikj` product per layer plus separate bias and
/// activation passes — what every teacher query cost before the batched
/// engine.
fn predict_reference(net: &Mlp, row: &[f64]) -> Vec<f64> {
    let mut x = Matrix::row_vector(row);
    for layer in net.layers() {
        let mut pre = x.matmul_reference(layer.weights());
        pre.add_row_broadcast(layer.bias());
        let act = layer.activation();
        pre.map_inplace(|v| act.apply(v));
        x = pre;
    }
    x.data().to_vec()
}

/// The pre-refactor DAgger teacher-labelling unit for one state, exactly
/// as `viper::oracle::collect_episode` issues it: `act_greedy` =
/// `argmax(action_probs(obs))` and then `action_probs` again for the
/// Eq.-1 weight — two independent forwards.
fn label_reference(net: &Mlp, row: &[f64]) -> (usize, Vec<f64>) {
    let action = argmax(&softmax(&predict_reference(net, row)));
    let probs = softmax(&predict_reference(net, row));
    (action, probs)
}

/// Observations per second of `f`: the median of several windows after
/// warmup (see [`Windows::inference`]).
fn throughput(obs_per_run: usize, f: impl FnMut()) -> f64 {
    median_rate(Windows::inference(), obs_per_run, f)
}

/// Measured summary for the JSON artifact consumed by the CI guard.
fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let net = teacher_net(&mut rng);
    let policy = SoftmaxPolicy::new(net.clone());

    let mut forward_per_obs = Vec::new();
    let mut forward_batched = Vec::new();
    let mut label_per_obs = Vec::new();
    let mut label_batched = Vec::new();
    for batch in BATCH_SIZES {
        let obs = random_obs(batch, net.in_dim(), &mut rng);
        let matrix = Matrix::from_rows_vec(&obs);
        forward_per_obs.push(throughput(batch, || {
            for row in &obs {
                black_box(predict_reference(&net, row));
            }
        }));
        forward_batched.push(throughput(batch, || {
            black_box(net.forward_batch_threads(&matrix, 0));
        }));
        label_per_obs.push(throughput(batch, || {
            for row in &obs {
                black_box(label_reference(&net, row));
            }
        }));
        label_batched.push(throughput(batch, || {
            black_box(policy.probs_and_greedy_batch(&matrix));
        }));
    }

    let mut mask_rng = StdRng::seed_from_u64(7);
    let mask_net = Mlp::new(
        &[metis_abr::OBS_DIM, 32, 6],
        Activation::Tanh,
        Activation::Linear,
        &mut mask_rng,
    );
    let obs = random_obs(256, mask_net.in_dim(), &mut mask_rng);
    let system = MaskedMlp::new(&mask_net, obs, OutputKind::Discrete);
    let mask = vec![0.5; system.n_connections()];
    let reference = system.reference_output();
    let mask_batched = throughput(1, || {
        black_box(system.d_value_grad(&mask, &reference, 0));
    });
    // One RouteNet search step on `mask_routenet`'s first sample: a
    // 6,358-node scalar tape (1,438 of them fused affine rows, which read
    // the model's parameters from one block) recorded and differentiated.
    let s = metis_bench::setup::routing(0, 20, 4, 30);
    let routing = MaskedRouting::new(&s.model, &s.topo, &s.samples[0].demands, &s.routings[0]);
    let routing_mask = vec![0.5; routing.n_connections()];
    let routing_reference = routing.reference_output();
    let mask_routenet = throughput(1, || {
        black_box(routing.d_value_grad(&routing_mask, &routing_reference, 0));
    });

    let report = InferenceReport {
        host: metis_bench::measure::host_id(),
        cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        obs_dim: net.in_dim(),
        n_actions: net.out_dim(),
        forward_per_obs_per_sec_b1: forward_per_obs[0],
        forward_per_obs_per_sec_b32: forward_per_obs[1],
        forward_per_obs_per_sec_b256: forward_per_obs[2],
        forward_batched_per_sec_b1: forward_batched[0],
        forward_batched_per_sec_b32: forward_batched[1],
        forward_batched_per_sec_b256: forward_batched[2],
        forward_speedup_batch256: forward_batched[2] / forward_per_obs[2].max(1e-12),
        label_per_obs_per_sec_b256: label_per_obs[2],
        label_batched_per_sec_b256: label_batched[2],
        speedup_batch32: label_batched[1] / label_per_obs[1].max(1e-12),
        speedup_batch256: label_batched[2] / label_per_obs[2].max(1e-12),
        mask_steps_per_sec_batched: mask_batched,
        mask_steps_per_sec_routenet: mask_routenet,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_inference.json");
    std::fs::write(&path, &json).expect("write BENCH_inference.json");
    println!(
        "teacher labelling at batch 256: {:.0} obs/s per-obs vs {:.0} obs/s batched ({:.2}x); \
         raw forward {:.2}x; mask step {:.1}/s masked MLP, {:.1}/s RouteNet -> {}",
        report.label_per_obs_per_sec_b256,
        report.label_batched_per_sec_b256,
        report.speedup_batch256,
        report.forward_speedup_batch256,
        report.mask_steps_per_sec_batched,
        report.mask_steps_per_sec_routenet,
        path.display()
    );
    // The acceptance bar (>= 3x at batch 256) is recorded in the JSON the
    // CI guard diffs against the committed baseline; warn loudly rather
    // than panic so a slow/noisy runner cannot fail the bench step on
    // hardware variance alone.
    if report.speedup_batch256 < 3.0 {
        eprintln!(
            "WARNING: batched labelling speedup at batch 256 is {:.2}x (< 3x target)",
            report.speedup_batch256
        );
    }
}

#[derive(serde::Serialize)]
struct InferenceReport {
    /// Machine that produced this artifact (baseline floors are
    /// host-specific; see `metis_bench::measure::host_id`).
    host: String,
    cores: usize,
    obs_dim: usize,
    n_actions: usize,
    forward_per_obs_per_sec_b1: f64,
    forward_per_obs_per_sec_b32: f64,
    forward_per_obs_per_sec_b256: f64,
    forward_batched_per_sec_b1: f64,
    forward_batched_per_sec_b32: f64,
    forward_batched_per_sec_b256: f64,
    forward_speedup_batch256: f64,
    label_per_obs_per_sec_b256: f64,
    label_batched_per_sec_b256: f64,
    speedup_batch32: f64,
    speedup_batch256: f64,
    mask_steps_per_sec_batched: f64,
    mask_steps_per_sec_routenet: f64,
}
