//! Closed-loop ABR co-simulation: millions of client sessions, each
//! owning real [`metis_abr`] player state, driving the **live** serving
//! fabric ([`metis_fabric::Router`]) in virtual time.
//!
//! This is the loop the open-loop traffic replays in `metis_serve` cannot
//! close: there, arrival times are a fixed input; here, each session's
//! next request time *depends on the bitrate the tree actually returned*
//! — the Pensieve trace-replay rule `next = now + download_time + sleep`.
//! A bad model stalls its sessions and reshapes the arrival process the
//! fabric sees; that feedback is the point.
//!
//! ## Determinism
//!
//! Sessions advance in **decision waves**. The earliest pending event
//! opens a wave; every `Decide` within `decision_quantum_s` of it (up to
//! `wave_cap`, and never past a pending model swap or observer tick) is
//! popped in `(time, seq)` order, **submitted as it pops** — so each
//! request's fabric-side stamp is its own event time, and the wave's
//! latency spread (`[0, decision_quantum_s)` back from the closing
//! flush) is schedule-derived, not a wall-clock artifact — and answered
//! by one [`metis_fabric::FabricHandle::collect`], whose responses come
//! back sorted by global submission id, i.e. exactly wave order,
//! regardless of shard count, batch sizes, or pool thread count. Session
//! timelines are **exact**: the next `Decide` is scheduled at the popped
//! event's own time plus the chunk's download+sleep, not at the wave
//! boundary.
//!
//! Model swaps are scheduled **before** any session start, so at equal
//! virtual times the swap's lower sequence number pops first: a decision
//! at time `T` always sees the latest swap with `at_s <= T`, the same
//! rule a sequential oracle applies (`tests/sim_determinism.rs`).
//!
//! Health-plane observation composes the same way
//! ([`run_abr_cosim_observed`]): observer ticks are scheduled as
//! ordinary simulation events, fire at quiescent points (between
//! waves), and re-arm themselves while work remains — so every ring
//! sample, burn-rate window, and alert the [`metis_obs::Observer`]
//! produces is a pure function of the schedule, pinned bit-identical
//! across thread counts in `tests/obs_determinism.rs`.

use crate::sim::Simulation;
use metis_abr::{AbrEnv, ChunkDownload, NetworkTrace, VideoModel, OBS_DIM};
use metis_dt::DecisionTree;
use metis_fabric::Router;
use metis_obs::Observer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Co-simulation knobs.
#[derive(Debug, Clone)]
pub struct CosimConfig {
    /// Concurrent client sessions.
    pub sessions: usize,
    /// Seed for session placement (trace choice, trace offset, start
    /// time) and the simulation RNG.
    pub seed: u64,
    /// Session start times draw uniformly from `[0, start_window_s)`.
    pub start_window_s: f64,
    /// Wave width in virtual seconds: decisions within this span of the
    /// wave-opening event ride the same fabric round-trip. Larger values
    /// batch better; fabric latency stamps quantize by at most this much.
    pub decision_quantum_s: f64,
    /// Hard cap on decisions per wave (bounds peak in-flight work).
    pub wave_cap: usize,
}

impl Default for CosimConfig {
    fn default() -> Self {
        CosimConfig {
            sessions: 100,
            seed: 0,
            start_window_s: 4.0,
            decision_quantum_s: 0.25,
            wave_cap: 4096,
        }
    }
}

/// A scheduled hot swap of the scenario's live model: one tree publishes
/// a single model, several publish a majority-vote forest.
#[derive(Debug, Clone)]
pub struct ModelSwap {
    /// Virtual time the swap lands. A decision at exactly `at_s` already
    /// sees the new model (swaps sort before decisions at equal times).
    pub at_s: f64,
    /// The new ensemble (must be non-empty).
    pub trees: Vec<DecisionTree>,
}

/// Events the co-simulation schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CosimEvent {
    /// Session `i` requests its next chunk.
    Decide(u32),
    /// Apply [`ModelSwap`] `i`.
    Swap(u32),
    /// Health-plane observer tick ([`run_abr_cosim_observed`]); re-arms
    /// itself every `ObserverConfig::tick_s` while events remain.
    Tick,
}

/// Where and when one session runs — a pure function of
/// `(CosimConfig::seed, sessions, start_window_s, traces)`, exposed so an
/// oracle can replay the identical placement.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPlan {
    /// Index into the trace pool.
    pub trace_idx: usize,
    /// Offset into that bandwidth trace, seconds.
    pub offset_s: f64,
    /// Virtual time of the session's first request.
    pub start_s: f64,
}

/// Draw every session's placement from the config seed. Deterministic:
/// same config and trace pool ⇒ bitwise-identical plans.
pub fn session_plan(cfg: &CosimConfig, traces: &[Arc<NetworkTrace>]) -> Vec<SessionPlan> {
    assert!(!traces.is_empty(), "session_plan needs at least one trace");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    (0..cfg.sessions)
        .map(|_| {
            let trace_idx = rng.gen_range(0..traces.len());
            let dur = traces[trace_idx].duration_s();
            let offset_s = if dur > 0.0 {
                rng.gen_range(0.0..dur)
            } else {
                0.0
            };
            let start_s = if cfg.start_window_s > 0.0 {
                rng.gen_range(0.0..cfg.start_window_s)
            } else {
                0.0
            };
            SessionPlan {
                trace_idx,
                offset_s,
                start_s,
            }
        })
        .collect()
}

/// Per-session rollup — compact on purpose (a million sessions is a
/// million of these, not a million trajectories).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Index into the trace pool the session streamed over.
    pub trace_idx: usize,
    /// Virtual time of the session's first request.
    pub start_s: f64,
    /// Sum of per-chunk linear QoE.
    pub qoe_sum: f64,
    /// Total stall time, seconds.
    pub rebuffer_s: f64,
    /// Chunk-to-chunk quality changes.
    pub switches: u64,
    /// Chunks downloaded.
    pub chunks: u64,
    last_quality: Option<usize>,
}

impl SessionOutcome {
    pub fn new(trace_idx: usize, start_s: f64) -> Self {
        SessionOutcome {
            trace_idx,
            start_s,
            qoe_sum: 0.0,
            rebuffer_s: 0.0,
            switches: 0,
            chunks: 0,
            last_quality: None,
        }
    }

    /// Fold one chunk into the rollup. Shared with the sequential oracle
    /// so both sides accumulate bit-identically.
    pub fn record_chunk(&mut self, reward: f64, d: &ChunkDownload) {
        self.qoe_sum += reward;
        self.rebuffer_s += d.rebuffer_s;
        self.chunks += 1;
        if let Some(q) = self.last_quality {
            if q != d.quality {
                self.switches += 1;
            }
        }
        self.last_quality = Some(d.quality);
    }
}

/// What a co-simulation run produced.
#[derive(Debug, Clone)]
pub struct CosimReport {
    /// One rollup per session, in session-id order.
    pub sessions: Vec<SessionOutcome>,
    /// Chunk decisions served by the fabric.
    pub decisions: u64,
    /// Fabric round-trips (submit→collect waves).
    pub waves: u64,
    /// Events fired (decisions + swaps).
    pub events: u64,
    /// Virtual time when the last session finished.
    pub virtual_end_s: f64,
    /// Observer ticks fired (0 without an observer; includes the final
    /// end-of-run tick).
    pub ticks: u64,
    /// Mean per-session QoE sum.
    pub mean_qoe: f64,
    /// FNV-1a over every session's bit patterns — one u64 that differs if
    /// *any* outcome differs by even one ULP.
    pub qoe_digest: u64,
}

/// FNV-1a digest of the per-session outcomes (bitwise on the floats).
pub fn outcome_digest(sessions: &[SessionOutcome]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in sessions {
        eat(s.qoe_sum.to_bits());
        eat(s.rebuffer_s.to_bits());
        eat(s.switches);
        eat(s.chunks);
    }
    h
}

struct SessionState {
    env: AbrEnv,
    obs: Vec<f64>,
    outcome: SessionOutcome,
}

/// Run the closed loop: every session in `cfg` streams `video` over its
/// planned trace, asking `router`'s `scenario` for each chunk's bitrate,
/// with `swaps` landing mid-run. The router must have been built on a
/// virtual clock ([`metis_serve::Clock::virtual_at`]) — this function
/// drives that clock — and the scenario must serve `OBS_DIM`-wide
/// classification trees over the bitrate ladder.
///
/// The caller keeps ownership of the router: shut it down afterwards for
/// the fabric-side [`metis_fabric::FabricReport`] (batch sizes, per-epoch
/// counts, latency percentiles) of exactly this traffic.
pub fn run_abr_cosim(
    router: &Router,
    scenario: &str,
    video: &Arc<VideoModel>,
    traces: &[Arc<NetworkTrace>],
    swaps: &[ModelSwap],
    cfg: &CosimConfig,
) -> CosimReport {
    run_abr_cosim_observed(router, scenario, video, traces, swaps, cfg, None)
}

/// [`run_abr_cosim`] with a streaming health plane riding along: the
/// observer's ticks are scheduled as simulation events every
/// `observer.config().tick_s` virtual seconds (first tick one period
/// in), firing between waves — quiescent points where every counter and
/// sketch reflects exactly the waves before them — plus one final tick
/// at end-of-run so the tail is observed. The whole health surface
/// (rings, burn rates, alerts, [`metis_obs::HealthReport`]) is therefore
/// a pure function of the schedule.
///
/// Ticks are scheduled whenever an observer is passed, even one whose
/// telemetry plane is disabled (its ticks no-op): the *event schedule*
/// — and with it wave composition and every serving outcome — is
/// identical between an enabled and a disabled observed run.
pub fn run_abr_cosim_observed(
    router: &Router,
    scenario: &str,
    video: &Arc<VideoModel>,
    traces: &[Arc<NetworkTrace>],
    swaps: &[ModelSwap],
    cfg: &CosimConfig,
    observer: Option<&Observer>,
) -> CosimReport {
    assert!(
        router.clock().is_virtual(),
        "co-simulation needs a router built on Clock::virtual_at"
    );
    assert_eq!(
        router.n_features(scenario),
        OBS_DIM,
        "scenario `{scenario}` does not serve the {OBS_DIM}-feature ABR observation"
    );
    assert!(cfg.sessions > 0, "need at least one session");
    let scen_idx = router
        .scenario_index(scenario)
        .unwrap_or_else(|| panic!("unknown scenario `{scenario}`"));
    let n_actions = video.n_qualities();

    let mut sim: Simulation<CosimEvent> =
        Simulation::with_clock(Arc::clone(router.clock()), cfg.seed);
    // Swaps first: at equal times their lower seqs pop before any Decide,
    // giving the oracle rule "a decision at T sees the latest swap with
    // at_s <= T".
    for (i, swap) in swaps.iter().enumerate() {
        assert!(!swap.trees.is_empty(), "swap {i} has no trees");
        sim.schedule_at(swap.at_s, CosimEvent::Swap(i as u32));
    }
    let plans = session_plan(cfg, traces);
    let mut states: Vec<SessionState> = Vec::with_capacity(plans.len());
    for (i, plan) in plans.iter().enumerate() {
        let mut env = AbrEnv::new(
            Arc::clone(video),
            Arc::clone(&traces[plan.trace_idx]),
            plan.offset_s,
        );
        let obs = metis_rl::Env::reset(&mut env);
        states.push(SessionState {
            env,
            obs,
            outcome: SessionOutcome::new(plan.trace_idx, plan.start_s),
        });
        sim.schedule_at(plan.start_s, CosimEvent::Decide(i as u32));
    }
    let tick_s = observer.map(|o| o.config().tick_s).unwrap_or(0.0);
    if observer.is_some() && tick_s > 0.0 {
        sim.schedule_at(tick_s, CosimEvent::Tick);
    }

    let mut handle = router.handle();
    let wave_cap = cfg.wave_cap.max(1);
    let mut wave: Vec<(u32, f64)> = Vec::new();
    let mut decisions = 0u64;
    let mut waves = 0u64;
    let mut ticks = 0u64;
    while let Some(front) = sim.peek() {
        let front_time = front.time_s;
        match front.event {
            CosimEvent::Swap(k) => {
                sim.pop();
                let swap = &swaps[k as usize];
                if swap.trees.len() == 1 {
                    router.publish(scenario, swap.trees[0].clone());
                } else {
                    router.publish_forest(scenario, swap.trees.to_vec());
                }
                continue;
            }
            CosimEvent::Tick => {
                sim.pop();
                ticks += 1;
                if let Some(obs) = observer {
                    obs.tick(front_time);
                }
                // Re-arm only while work remains: the final flush tick
                // after the loop covers the tail.
                if sim.peek().is_some() {
                    sim.schedule_at(front_time + tick_s, CosimEvent::Tick);
                }
                continue;
            }
            CosimEvent::Decide(_) => {}
        }
        // Open a decision wave at the front event's time.
        let horizon = front_time + cfg.decision_quantum_s;
        wave.clear();
        while wave.len() < wave_cap {
            let take = match sim.peek() {
                Some(e) => {
                    matches!(e.event, CosimEvent::Decide(_))
                        && (wave.is_empty() || e.time_s < horizon)
                }
                None => false,
            };
            if !take {
                break;
            }
            let entry = sim.pop().unwrap();
            let CosimEvent::Decide(s) = entry.event else {
                unreachable!()
            };
            // Submit as we pop: the pop advanced the virtual clock to
            // this event's time, so the fabric stamps the request at its
            // own schedule time — the wave's closing flush then carries a
            // deterministic in-wave latency spread instead of zeros.
            handle.submit(scen_idx, s as u64, states[s as usize].obs.clone());
            wave.push((s, entry.time_s));
        }
        let responses = handle.collect(); // global id order == wave order
        waves += 1;
        debug_assert_eq!(responses.len(), wave.len());
        for (resp, &(s, t)) in responses.iter().zip(&wave) {
            debug_assert_eq!(resp.session, s as u64);
            let action = resp.response.prediction.class().min(n_actions - 1);
            let state = &mut states[s as usize];
            let (step, d) = state.env.step_detailed(action);
            state.outcome.record_chunk(step.reward, &d);
            decisions += 1;
            if !step.done {
                state.obs = step.obs;
                // The session's own timeline is exact: next request when
                // this chunk finished downloading (plus any buffer-full
                // sleep), anchored at the event's time, not the wave's.
                sim.schedule_at(t + d.download_time_s + d.sleep_s, CosimEvent::Decide(s));
            }
        }
    }

    // Final flush tick at the run's end: the stretch after the last
    // scheduled tick (or a sub-period run) still reaches the rings and
    // monitors, stamped at the deterministic virtual end time.
    if let Some(obs) = observer {
        obs.tick(sim.now_s());
        ticks += 1;
    }

    let sessions: Vec<SessionOutcome> = states.into_iter().map(|s| s.outcome).collect();
    let mean_qoe = sessions.iter().map(|s| s.qoe_sum).sum::<f64>() / sessions.len() as f64;
    let qoe_digest = outcome_digest(&sessions);
    CosimReport {
        decisions,
        waves,
        events: sim.processed(),
        virtual_end_s: sim.now_s(),
        ticks,
        mean_qoe,
        qoe_digest,
        sessions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_dt::{fit, Dataset, TreeConfig};
    use metis_fabric::{FabricConfig, ScenarioSpec, TenantSpec};
    use metis_serve::{Clock, ServeConfig};
    use std::time::Duration;

    /// A single-leaf tree that always answers `action`.
    fn constant_tree(action: usize, classes: usize) -> DecisionTree {
        let x: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64; OBS_DIM]).collect();
        let y = vec![action; 8];
        fit(
            &Dataset::classification(x, y, classes).unwrap(),
            &TreeConfig::default(),
        )
        .unwrap()
    }

    /// A buffer-threshold policy: low rung when the buffer is shallow,
    /// high rung once it is comfortable (splits on obs[1]).
    fn buffer_tree(classes: usize) -> DecisionTree {
        let x: Vec<Vec<f64>> = (0..64)
            .map(|i| {
                let mut row = vec![0.0; OBS_DIM];
                row[1] = i as f64 / 64.0;
                row
            })
            .collect();
        let y: Vec<usize> = (0..64).map(|i| if i < 32 { 0 } else { 4 }).collect();
        fit(
            &Dataset::classification(x, y, classes).unwrap(),
            &TreeConfig {
                max_leaf_nodes: 4,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn virtual_router(initial: DecisionTree, shards: usize) -> Router {
        virtual_router_with_telemetry(initial, shards, metis_telemetry::Telemetry::off())
    }

    fn virtual_router_with_telemetry(
        initial: DecisionTree,
        shards: usize,
        telemetry: metis_telemetry::Telemetry,
    ) -> Router {
        Router::new(
            vec![TenantSpec::new("abr")],
            vec![ScenarioSpec::new("pensieve", "abr", initial).shards(shards)],
            FabricConfig {
                serve: ServeConfig {
                    max_batch: 32,
                    max_delay: Duration::from_secs(10), // never consulted: virtual
                    ..Default::default()
                },
                mirror_batch: 0,
                clock: Clock::virtual_at(0.0),
                telemetry,
            },
        )
    }

    fn pool() -> (Arc<VideoModel>, Vec<Arc<NetworkTrace>>) {
        let video = Arc::new(VideoModel::standard(16, 7));
        let traces = metis_abr::hsdpa_corpus(3, 9)
            .into_iter()
            .map(Arc::new)
            .collect();
        (video, traces)
    }

    #[test]
    fn session_plans_are_deterministic_and_in_bounds() {
        let (_, traces) = pool();
        let cfg = CosimConfig {
            sessions: 50,
            seed: 3,
            ..Default::default()
        };
        let a = session_plan(&cfg, &traces);
        let b = session_plan(&cfg, &traces);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        for p in &a {
            assert!(p.trace_idx < traces.len());
            assert!(p.offset_s >= 0.0 && p.offset_s < traces[p.trace_idx].duration_s());
            assert!(p.start_s >= 0.0 && p.start_s < cfg.start_window_s);
        }
        let distinct: std::collections::HashSet<u64> =
            a.iter().map(|p| p.start_s.to_bits()).collect();
        assert!(distinct.len() > 1, "starts must actually spread");
    }

    #[test]
    fn closed_loop_runs_every_session_to_completion() {
        let (video, traces) = pool();
        let router = virtual_router(buffer_tree(video.n_qualities()), 2);
        let cfg = CosimConfig {
            sessions: 40,
            seed: 1,
            ..Default::default()
        };
        let report = run_abr_cosim(&router, "pensieve", &video, &traces, &[], &cfg);
        assert_eq!(report.sessions.len(), 40);
        for s in &report.sessions {
            assert_eq!(s.chunks, video.n_chunks() as u64);
        }
        assert_eq!(report.decisions, 40 * video.n_chunks() as u64);
        assert_eq!(report.events, report.decisions);
        assert!(
            report.waves < report.decisions,
            "waves must batch decisions"
        );
        assert!(report.virtual_end_s > cfg.start_window_s);
        let fabric = router.shutdown();
        assert_eq!(fabric.served, report.decisions);
    }

    #[test]
    fn two_runs_are_bit_identical_across_shard_counts() {
        let (video, traces) = pool();
        let cfg = CosimConfig {
            sessions: 30,
            seed: 7,
            ..Default::default()
        };
        let swaps = vec![ModelSwap {
            at_s: 30.0,
            trees: vec![constant_tree(2, video.n_qualities())],
        }];
        let run = |shards: usize| {
            let router = virtual_router(buffer_tree(video.n_qualities()), shards);
            let report = run_abr_cosim(&router, "pensieve", &video, &traces, &swaps, &cfg);
            let fabric = router.shutdown();
            (report, fabric)
        };
        let (r1, f1) = run(1);
        let (r2, f2) = run(4);
        assert_eq!(
            r1.sessions, r2.sessions,
            "outcomes must not depend on sharding"
        );
        assert_eq!(r1.qoe_digest, r2.qoe_digest);
        assert_eq!(r1.decisions, r2.decisions);
        assert_eq!(r1.virtual_end_s.to_bits(), r2.virtual_end_s.to_bits());
        assert_eq!(f1.served, f2.served);
        // The swap actually landed on both.
        assert_eq!(f1.scenarios[0].swaps, 1);
        assert_eq!(f2.scenarios[0].swaps, 1);
    }

    #[test]
    fn swap_at_zero_equals_starting_with_the_new_model() {
        let (video, traces) = pool();
        let cfg = CosimConfig {
            sessions: 12,
            seed: 5,
            ..Default::default()
        };
        let new_model = constant_tree(3, video.n_qualities());
        let swapped = {
            let router = virtual_router(constant_tree(0, video.n_qualities()), 2);
            let swaps = vec![ModelSwap {
                at_s: 0.0,
                trees: vec![new_model.clone()],
            }];
            run_abr_cosim(&router, "pensieve", &video, &traces, &swaps, &cfg)
        };
        let native = {
            let router = virtual_router(new_model, 2);
            run_abr_cosim(&router, "pensieve", &video, &traces, &[], &cfg)
        };
        // The swap sorts before every decision at t=0, so no session ever
        // saw the old model.
        assert_eq!(swapped.qoe_digest, native.qoe_digest);
        assert_eq!(swapped.sessions, native.sessions);
    }

    /// A telemetry-enabled co-simulation exports a valid Chrome
    /// trace-event document, its shard scopes account for every fabric
    /// decision, the control scope records the mid-run hot swap, and each
    /// shard scope's live latency sketch holds exactly the buckets of the
    /// shard report's recorder: both record the same samples in the same
    /// geometry.
    #[test]
    fn telemetry_cosim_exports_a_trace_and_tracks_live_percentiles() {
        use metis_telemetry::{Telemetry, CONTROL_SHARD};

        let (video, traces) = pool();
        let telemetry = Telemetry::enabled();
        let router =
            virtual_router_with_telemetry(buffer_tree(video.n_qualities()), 2, telemetry.clone());
        let cfg = CosimConfig {
            sessions: 30,
            seed: 11,
            ..Default::default()
        };
        let swaps = vec![ModelSwap {
            at_s: 25.0,
            trees: vec![constant_tree(2, video.n_qualities())],
        }];
        let report = run_abr_cosim(&router, "pensieve", &video, &traces, &swaps, &cfg);

        // The trace export is a valid JSON document of the expected
        // shape: {"traceEvents": [...], "displayTimeUnit": ...}.
        let json = telemetry.chrome_trace_json();
        let doc: serde::Value = serde_json::from_str(&json).expect("trace is valid JSON");
        let obj = doc.as_object().expect("trace root is an object");
        let events = obj
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v.as_array().expect("traceEvents is an array"))
            .expect("trace has a traceEvents key");
        assert!(
            events.len() > report.waves as usize,
            "at least one duration event per wave plus metadata"
        );

        let scopes = telemetry.scopes();
        assert_eq!(scopes.len(), 3, "2 shard scopes + 1 control scope");
        let control = scopes
            .iter()
            .find(|s| s.shard() == CONTROL_SHARD)
            .expect("control scope");
        assert!(
            control
                .events
                .events()
                .iter()
                .any(|e| e.kind.name() == "hot_swap"),
            "the scheduled swap must land on the control scope"
        );

        let fabric = router.shutdown();
        assert_eq!(fabric.served, report.decisions);
        let shard_reports = &fabric.scenarios[0].shards;
        let mut scoped_served = 0u64;
        for scope in scopes.iter().filter(|s| s.shard() != CONTROL_SHARD) {
            scoped_served += scope.served.get();
            let shard = &shard_reports[scope.shard()];
            let live = scope.latency.cumulative().snapshot();
            assert_eq!(live, shard.recorder.snapshot(), "scope and report diverge");
            assert_eq!(
                live.total, shard.latency.count as u64,
                "sketch saw every sample"
            );
        }
        assert_eq!(
            scoped_served, report.decisions,
            "shard scopes account for every decision"
        );
    }

    /// An observed co-simulation schedules ticks as simulation events:
    /// ticks fire, the health digest is run-to-run stable, and — because
    /// the tick schedule is identical whether the underlying telemetry
    /// plane is enabled or not — serving outcomes are bit-identical
    /// between an enabled-plane and a disabled-plane observed run (the
    /// disabled observer staying fully inert).
    #[test]
    fn observed_runs_tick_and_stay_behaviour_invariant() {
        use metis_obs::ObserverConfig;
        use metis_telemetry::Telemetry;

        let (video, traces) = pool();
        let cfg = CosimConfig {
            sessions: 20,
            seed: 3,
            ..Default::default()
        };
        let run = |telemetry: Telemetry| {
            let router =
                virtual_router_with_telemetry(buffer_tree(video.n_qualities()), 2, telemetry);
            let obs = router.observer(ObserverConfig {
                tick_s: 10.0,
                ..Default::default()
            });
            let report =
                run_abr_cosim_observed(&router, "pensieve", &video, &traces, &[], &cfg, Some(&obs));
            let digest = obs.digest();
            let n_alerts = obs.alerts().len();
            let obs_ticks = obs.health_report().ticks;
            router.shutdown();
            (report, digest, n_alerts, obs_ticks)
        };
        let (on, digest_on, _, ticks_on) = run(Telemetry::enabled());
        assert!(on.ticks > 1, "periodic + final ticks fired: {}", on.ticks);
        assert_eq!(ticks_on, on.ticks, "every tick event reached the observer");
        let (on2, digest_on2, _, _) = run(Telemetry::enabled());
        assert_eq!(digest_on, digest_on2, "health digest is run-to-run stable");
        assert_eq!(on.qoe_digest, on2.qoe_digest);
        let (off, digest_off, alerts_off, ticks_off) = run(Telemetry::off());
        assert_eq!(
            on.qoe_digest, off.qoe_digest,
            "observation must never change what is served"
        );
        assert_eq!(on.ticks, off.ticks, "tick schedule is plane-independent");
        assert_eq!(ticks_off, 0, "disabled plane: observer ticks no-op");
        assert_eq!(alerts_off, 0, "disabled plane: observer stays inert");
        assert_ne!(digest_on, digest_off);
    }

    #[test]
    #[should_panic(expected = "Clock::virtual_at")]
    fn real_clock_router_is_rejected() {
        let (video, traces) = pool();
        let router = Router::new(
            vec![TenantSpec::new("abr")],
            vec![ScenarioSpec::new(
                "pensieve",
                "abr",
                constant_tree(0, video.n_qualities()),
            )],
            FabricConfig::default(),
        );
        run_abr_cosim(
            &router,
            "pensieve",
            &video,
            &traces,
            &[],
            &CosimConfig::default(),
        );
    }
}
