//! Closed-loop co-simulation benchmark: tens of thousands of concurrent
//! ABR sessions driving the live serving fabric in virtual time on one
//! core (`metis_sim::run_abr_cosim`). Emits `BENCH_sim.json` at the
//! workspace root for the `bench_guard` CI regression gate: the gated
//! metrics are `sim_events_per_sec` (decision events fired per wall
//! second, fabric round-trips included) and `sim_sessions_per_sec`
//! (complete sessions simulated per wall second). Every timed run also
//! re-checks the determinism contract — same seed ⇒ same QoE digest —
//! so a perf number can never come from a run that silently diverged.
//! A third gated metric, `abr_env_steps_per_sec`, times the ABR
//! environment's step alone (`AbrEnv::step_detailed`), the co-sim's
//! largest layer and the Eq.-1 lookahead's inner loop.

use metis_abr::{hsdpa_corpus, AbrEnv, NetworkTrace, VideoModel};
use metis_bench::measure::{host_id, median, median_rate, Windows};
use metis_dt::{fit, Dataset, DecisionTree, TreeConfig};
use metis_fabric::{FabricConfig, Router, ScenarioSpec, TenantSpec};
use metis_rl::Env;
use metis_serve::{Clock, ServeConfig};
use metis_sim::{run_abr_cosim, session_plan, CosimConfig, CosimReport, ModelSwap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SESSIONS: usize = 50_000;
const RUNS: usize = 3;
/// The env-step workload: as many sessions and chunks as perfbench's
/// `abr_cosim`, each session streaming to the end once per timed call.
const ENV_SESSIONS: usize = 500;
const ENV_CHUNKS: usize = 24;

/// A fitted ABR policy tree over the 25-feature observation (labels key
/// off buffer and throughput features, so the policy actually branches).
fn abr_tree(seed: u64, classes: usize) -> DecisionTree {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let x: Vec<Vec<f64>> = (0..300)
        .map(|_| {
            (0..metis_abr::OBS_DIM)
                .map(|_| rng.gen_range(0.0..1.0))
                .collect()
        })
        .collect();
    let y: Vec<usize> = x
        .iter()
        .map(|xi| ((xi[1] * 3.0 + xi[9] * 2.0 + xi[0]) as usize) % classes)
        .collect();
    fit(
        &Dataset::classification(x, y, classes).unwrap(),
        &TreeConfig {
            max_leaf_nodes: 24,
            ..Default::default()
        },
    )
    .unwrap()
}

fn timed_run(
    initial: &DecisionTree,
    swaps: &[ModelSwap],
    video: &Arc<VideoModel>,
    traces: &[Arc<NetworkTrace>],
    cfg: &CosimConfig,
) -> (CosimReport, f64) {
    let router = Router::new(
        vec![TenantSpec::new("abr")],
        vec![ScenarioSpec::new("pensieve", "abr", initial.clone()).shards(2)],
        FabricConfig {
            serve: ServeConfig {
                max_batch: 512,
                max_delay: Duration::from_secs(3600), // never consulted: virtual
                stripe_rows: 16,
                ..Default::default()
            },
            mirror_batch: 0,
            clock: Clock::virtual_at(0.0),
            ..Default::default()
        },
    );
    let start = Instant::now();
    let report = run_abr_cosim(&router, "pensieve", video, traces, swaps, cfg);
    let wall_s = start.elapsed().as_secs_f64();
    let fabric = router.shutdown();
    assert_eq!(fabric.served, report.decisions, "fabric dropped decisions");
    (report, wall_s)
}

/// Env steps per second: `ENV_SESSIONS` environments on
/// `hsdpa_corpus(8, 0)`, placed as a co-sim places its sessions, each
/// reset and stepped through all `ENV_CHUNKS` chunks per call with the
/// fixed action pattern `(session + chunk) % qualities`.
fn env_steps_per_sec() -> f64 {
    let video = Arc::new(VideoModel::standard(ENV_CHUNKS, 7));
    let traces: Vec<Arc<NetworkTrace>> = hsdpa_corpus(8, 0).into_iter().map(Arc::new).collect();
    let cfg = CosimConfig {
        sessions: ENV_SESSIONS,
        seed: 0,
        ..Default::default()
    };
    let mut envs: Vec<AbrEnv> = session_plan(&cfg, &traces)
        .iter()
        .map(|p| {
            AbrEnv::new(
                Arc::clone(&video),
                Arc::clone(&traces[p.trace_idx]),
                p.offset_s,
            )
        })
        .collect();
    let qualities = video.n_qualities();
    median_rate(Windows::serving(), ENV_SESSIONS * ENV_CHUNKS, || {
        let mut reward = 0.0;
        for (s, env) in envs.iter_mut().enumerate() {
            env.reset();
            for k in 0..ENV_CHUNKS {
                reward += env.step_detailed((s + k) % qualities).0.reward;
            }
        }
        std::hint::black_box(reward);
    })
}

fn main() {
    let video = Arc::new(VideoModel::standard(8, 7));
    let classes = video.n_qualities();
    let traces: Vec<Arc<NetworkTrace>> = hsdpa_corpus(8, 5).into_iter().map(Arc::new).collect();
    let initial = abr_tree(1, classes);
    let swaps = vec![ModelSwap {
        at_s: 15.0,
        trees: vec![abr_tree(2, classes)],
    }];
    let cfg = CosimConfig {
        sessions: SESSIONS,
        seed: 42,
        start_window_s: 8.0,
        decision_quantum_s: 0.25,
        wave_cap: 4096,
    };

    let mut digests = Vec::new();
    let mut events_rates = Vec::new();
    let mut sessions_rates = Vec::new();
    let mut last: Option<CosimReport> = None;
    for _ in 0..RUNS {
        let (report, wall_s) = timed_run(&initial, &swaps, &video, &traces, &cfg);
        digests.push(report.qoe_digest);
        events_rates.push(report.events as f64 / wall_s);
        sessions_rates.push(SESSIONS as f64 / wall_s);
        last = Some(report);
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "timed runs diverged: {digests:x?}"
    );
    let last = last.unwrap();
    assert_eq!(last.decisions, (SESSIONS * video.n_chunks()) as u64);
    let abr_env_steps_per_sec = env_steps_per_sec();

    let report = SimReport {
        host: host_id(),
        cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        sim_sessions: SESSIONS,
        sim_chunks_per_session: video.n_chunks(),
        sim_events_per_sec: median(events_rates),
        sim_sessions_per_sec: median(sessions_rates),
        abr_env_steps_per_sec,
        sim_waves: last.waves,
        sim_mean_wave: last.decisions as f64 / last.waves.max(1) as f64,
        sim_virtual_end_s: last.virtual_end_s,
        sim_mean_qoe: last.mean_qoe,
        sim_qoe_digest: format!("{:016x}", last.qoe_digest),
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_sim.json");
    std::fs::write(&path, &json).expect("write BENCH_sim.json");
    println!(
        "co-sim: {} sessions x {} chunks closed-loop -> {:.0} events/s, {:.0} sessions/s, \
         {:.0} env steps/s ({} waves, mean {:.0} decisions/wave, virtual end {:.0}s, \
         mean QoE {:.2}, digest {}) -> {}",
        report.sim_sessions,
        report.sim_chunks_per_session,
        report.sim_events_per_sec,
        report.sim_sessions_per_sec,
        report.abr_env_steps_per_sec,
        report.sim_waves,
        report.sim_mean_wave,
        report.sim_virtual_end_s,
        report.sim_mean_qoe,
        report.sim_qoe_digest,
        path.display()
    );
}

#[derive(serde::Serialize)]
struct SimReport {
    /// Machine that produced this artifact (baseline floors are
    /// host-specific; see `metis_bench::measure::host_id`).
    host: String,
    cores: usize,
    sim_sessions: usize,
    sim_chunks_per_session: usize,
    /// Gated: decision events fired per wall second — the end-to-end
    /// co-simulation rate including every fabric round-trip.
    sim_events_per_sec: f64,
    /// Gated: complete closed-loop sessions simulated per wall second.
    sim_sessions_per_sec: f64,
    /// Gated: `AbrEnv::step_detailed` calls per wall second, outside the
    /// co-sim (median of nine 100 ms windows).
    abr_env_steps_per_sec: f64,
    sim_waves: u64,
    sim_mean_wave: f64,
    sim_virtual_end_s: f64,
    sim_mean_qoe: f64,
    /// Hex QoE digest of the timed run (determinism witness, ungated).
    sim_qoe_digest: String,
}
