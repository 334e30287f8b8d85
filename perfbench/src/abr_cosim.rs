//! `abr_cosim`: the closed-loop, virtual-time ABR co-simulation
//! (`run_abr_cosim`) over a 2-shard fabric serving 25-feature, 24-leaf
//! trees, with a mid-run swap to a new tree and a later one to a 3-tree
//! forest.
//!
//! It uses the serving fabric differently from `serve_open`: waves are
//! large, the clock is virtual and the tree walk is negligible, so the
//! event core and the environment step dominate, and hot-swap writes sit
//! beside reads. A serving change that costs waves or publishes shows
//! here.

use crate::hostspeed;
use crate::ledger;
use crate::report::Outcome;
use crate::stats::median;
use crate::Args;
use metis_abr::{hsdpa_corpus, AbrEnv, NetworkTrace, VideoModel, OBS_DIM};
use metis_dt::{fit, Dataset, DecisionTree, TreeConfig};
use metis_fabric::{FabricConfig, Router, ScenarioSpec, TenantSpec};
use metis_serve::{Clock, ServeConfig};
use metis_sim::{
    outcome_digest, run_abr_cosim, session_plan, CosimConfig, CosimEvent, ModelSwap,
    SessionOutcome, Simulation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sessions per co-simulation. Runs stay short (about 25 ms), so the
/// host-speed references on either side see the same host as the run
/// they correct; at 2 000 sessions (about 100 ms) a heavily shared host
/// slowed runs by a quarter more than the references.
const SESSIONS: usize = 500;
const CHUNKS: usize = 24;
const SETUPS: usize = 9;
/// Fewest untraced runs, however short the time budget.
const MIN_RUNS: usize = 10;
const SCENARIO: &str = "pensieve";

struct Fixture {
    video: Arc<VideoModel>,
    traces: Vec<Arc<NetworkTrace>>,
    initial: DecisionTree,
    swaps: Vec<ModelSwap>,
    cfg: CosimConfig,
}

/// An ABR policy tree over the observation whose labels key off buffer
/// and throughput features, so the policy really branches.
fn abr_tree(seed: u64, classes: usize) -> DecisionTree {
    let mut rng = StdRng::seed_from_u64(metis_rl::mix_seed(seed));
    let x: Vec<Vec<f64>> = (0..300)
        .map(|_| (0..OBS_DIM).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let y: Vec<usize> = x
        .iter()
        .map(|xi| ((xi[1] * 3.0 + xi[9] * 2.0 + xi[0]) as usize) % classes)
        .collect();
    fit(
        &Dataset::classification(x, y, classes).expect("well-formed fixture"),
        &TreeConfig {
            max_leaf_nodes: 24,
            ..Default::default()
        },
    )
    .expect("fixture fit")
}

fn fixture(seed: u64) -> Fixture {
    let video = Arc::new(VideoModel::standard(CHUNKS, 7));
    let classes = video.n_qualities();
    let traces = hsdpa_corpus(8, seed).into_iter().map(Arc::new).collect();
    let tree = |k: u64| abr_tree(k, classes);
    Fixture {
        initial: tree(1),
        swaps: vec![
            ModelSwap {
                at_s: 12.0,
                trees: vec![tree(2)],
            },
            ModelSwap {
                at_s: 24.0,
                trees: vec![tree(3), tree(4), tree(5)],
            },
        ],
        traces,
        video,
        cfg: CosimConfig {
            sessions: SESSIONS,
            seed,
            start_window_s: 4.0,
            decision_quantum_s: 2.0,
            wave_cap: 4096,
        },
    }
}

fn router(fx: &Fixture) -> Router {
    Router::new(
        vec![TenantSpec::new("abr")],
        vec![ScenarioSpec::new(SCENARIO, "abr", fx.initial.clone()).shards(2)],
        FabricConfig {
            serve: ServeConfig {
                max_batch: 512,
                // Never consulted: the clock is virtual.
                max_delay: Duration::from_secs(3600),
                stripe_rows: 16,
                // Stripes run inline on the shard batchers: the two
                // batchers and the driving thread already fill the two
                // cores, and a pool worker beside them only adds
                // contention.
                threads: 1,
                ..Default::default()
            },
            mirror_batch: 0,
            clock: Clock::virtual_at(0.0),
            ..Default::default()
        },
    )
}

/// One untraced co-simulation: (wall seconds, events, digest, mean QoE,
/// decisions the fabric served).
fn untraced(fx: &Fixture) -> (f64, u64, u64, f64, u64) {
    let r = router(fx);
    let t = Instant::now();
    let report = run_abr_cosim(&r, SCENARIO, &fx.video, &fx.traces, &fx.swaps, &fx.cfg);
    let wall = t.elapsed().as_secs_f64();
    let served = r.shutdown().served;
    (
        wall,
        report.events,
        report.qoe_digest,
        report.mean_qoe,
        served.min(report.decisions),
    )
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, fx) = hostspeed::median_setup(SETUPS, || fixture(args.seed));
    out.set("setup_s", setup_s);
    let want_decisions = (SESSIONS * fx.video.n_chunks()) as u64;
    let mut digests = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut check = |digest: u64, decisions: u64| {
        attempted += want_decisions;
        failed += want_decisions.saturating_sub(decisions);
        digests.push(digest);
    };

    untraced(&fx); // warm-up
    let t = Instant::now();
    if !args.trace {
        let mut walls = Vec::new();
        let mut rates = Vec::new();
        while walls.len() < MIN_RUNS || t.elapsed().as_secs_f64() < args.seconds {
            let bracket = hostspeed::Bracket::open();
            let (wall, events, digest, _, served) = untraced(&fx);
            let wall = bracket.close(wall);
            check(digest, served);
            walls.push(wall * 1e3);
            rates.push(events as f64 / wall);
        }
        out.set("throughput_per_s", median(&rates));
        out.set("p50_ms", median(&walls));
    } else {
        let mut off = Vec::new();
        let mut on = Vec::new();
        let mut layers: Vec<Layers> = Vec::new();
        let mut qoe = 0.0;
        while off.len() < 3 || t.elapsed().as_secs_f64() < args.seconds {
            // Alternate which side of the pair runs first.
            let traced_first = off.len() % 2 == 1;
            let early = traced_first.then(|| traced(&fx));
            let (wall, _, digest, mean_qoe, served) = untraced(&fx);
            check(digest, served);
            off.push(wall);
            qoe = mean_qoe;
            let (l, digest, served) = early.unwrap_or_else(|| traced(&fx));
            check(digest, served);
            on.push(l.total_s);
            layers.push(l);
        }
        let col = |f: fn(&Layers) -> f64| median(&layers.iter().map(f).collect::<Vec<f64>>());
        out.set("cosim_mean_qoe", qoe);
        out.set("sim.event_ns", col(|l| l.event_s * 1e9 / l.events));
        out.set(
            "fabric.wave_submit_ns",
            col(|l| l.submit_s * 1e9 / l.decisions),
        );
        out.set(
            "fabric.wave_collect_ns",
            col(|l| l.collect_s * 1e9 / l.decisions),
        );
        out.set("abr.env_step_ns", col(|l| l.env_s * 1e9 / l.decisions));
        out.set("sim.mean_wave", col(|l| l.decisions / l.waves));
        out.set("fabric.publish_us", col(|l| l.publish_s * 1e6 / l.swaps));
        out.set(
            "ledger_closure_pct",
            col(|l| {
                ledger::closure_pct(
                    &[
                        l.init_s,
                        l.event_s,
                        l.submit_s,
                        l.collect_s,
                        l.env_s,
                        l.publish_s,
                    ],
                    l.total_s,
                )
            }),
        );
        out.set(
            "tracing_overhead_pct",
            ledger::overhead_pct(median(&off), median(&on)),
        );
    }
    // Same seed, same schedule: every run, traced or not, must produce
    // the identical outcome digest.
    let stable = digests.windows(2).all(|w| w[0] == w[1]);
    out.attempted = attempted;
    out.failed = failed + if stable { 0 } else { attempted };
    out.checks_passed = stable;
    out
}

/// Layer times (seconds) and volumes of one traced co-simulation.
#[derive(Default)]
struct Layers {
    init_s: f64,
    event_s: f64,
    submit_s: f64,
    collect_s: f64,
    env_s: f64,
    publish_s: f64,
    total_s: f64,
    events: f64,
    decisions: f64,
    waves: f64,
    swaps: f64,
}

/// The co-simulation wave loop of `run_abr_cosim`, copied over public
/// APIs with timers around its layers. It must reproduce the library's
/// outcome digest bit for bit.
fn traced(fx: &Fixture) -> (Layers, u64, u64) {
    let router = router(fx);
    let cfg = &fx.cfg;
    let mut l = Layers::default();
    let start = Instant::now();
    let scen_idx = router.scenario_index(SCENARIO).expect("scenario exists");
    let n_actions = fx.video.n_qualities();
    let mut sim: Simulation<CosimEvent> =
        Simulation::with_clock(Arc::clone(router.clock()), cfg.seed);
    for (i, swap) in fx.swaps.iter().enumerate() {
        sim.schedule_at(swap.at_s, CosimEvent::Swap(i as u32));
    }
    struct Session {
        env: AbrEnv,
        obs: Vec<f64>,
        outcome: SessionOutcome,
    }
    let mut states: Vec<Session> = session_plan(cfg, &fx.traces)
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let mut env = AbrEnv::new(
                Arc::clone(&fx.video),
                Arc::clone(&fx.traces[plan.trace_idx]),
                plan.offset_s,
            );
            let obs = metis_rl::Env::reset(&mut env);
            sim.schedule_at(plan.start_s, CosimEvent::Decide(i as u32));
            Session {
                env,
                obs,
                outcome: SessionOutcome::new(plan.trace_idx, plan.start_s),
            }
        })
        .collect();
    l.init_s = start.elapsed().as_secs_f64();

    let mut handle = router.handle();
    let mut wave: Vec<(u32, f64)> = Vec::new();
    let mut next: Vec<(f64, u32)> = Vec::new();
    // Each wave runs as separately timed passes — pop its decisions,
    // submit them, collect, step the environments, schedule the next
    // decisions — so the clock is read a few times per wave rather than
    // around every decision. Submitting after the pops instead of between
    // them changes only the requests' virtual latency stamps; batches and
    // answers, and so every session's outcome, are the same.
    while let Some(front) = sim.peek() {
        let t = Instant::now();
        let front_time = front.time_s;
        if let CosimEvent::Swap(k) = front.event {
            sim.pop();
            let swap = &fx.swaps[k as usize];
            if swap.trees.len() == 1 {
                router.publish(SCENARIO, swap.trees[0].clone());
            } else {
                router.publish_forest(SCENARIO, swap.trees.to_vec());
            }
            l.publish_s += t.elapsed().as_secs_f64();
            l.swaps += 1.0;
            continue;
        }
        let horizon = front_time + cfg.decision_quantum_s;
        wave.clear();
        while wave.len() < cfg.wave_cap {
            let take = sim.peek().is_some_and(|e| {
                matches!(e.event, CosimEvent::Decide(_)) && (wave.is_empty() || e.time_s < horizon)
            });
            if !take {
                break;
            }
            let entry = sim.pop().expect("peeked");
            let CosimEvent::Decide(s) = entry.event else {
                unreachable!("only decisions join a wave")
            };
            wave.push((s, entry.time_s));
        }
        let t1 = Instant::now();
        for &(s, _) in &wave {
            handle.submit(scen_idx, s as u64, states[s as usize].obs.clone());
        }
        let t2 = Instant::now();
        let responses = handle.collect();
        let t3 = Instant::now();
        next.clear();
        for (resp, &(s, at)) in responses.iter().zip(&wave) {
            let action = resp.response.prediction.class().min(n_actions - 1);
            let state = &mut states[s as usize];
            let (step, d) = state.env.step_detailed(action);
            state.outcome.record_chunk(step.reward, &d);
            if !step.done {
                state.obs = step.obs;
                next.push((at + d.download_time_s + d.sleep_s, s));
            }
        }
        let t4 = Instant::now();
        for &(when, s) in &next {
            sim.schedule_at(when, CosimEvent::Decide(s));
        }
        l.event_s += (t1 - t).as_secs_f64() + t4.elapsed().as_secs_f64();
        l.submit_s += (t2 - t1).as_secs_f64();
        l.collect_s += (t3 - t2).as_secs_f64();
        l.env_s += (t4 - t3).as_secs_f64();
        l.decisions += wave.len() as f64;
        l.waves += 1.0;
    }
    l.events = sim.processed() as f64;
    let sessions: Vec<SessionOutcome> = states.into_iter().map(|s| s.outcome).collect();
    let digest = outcome_digest(&sessions);
    l.total_s = start.elapsed().as_secs_f64();
    drop(handle);
    let served = router.shutdown().served.min(l.decisions as u64);
    (l, digest, served)
}
