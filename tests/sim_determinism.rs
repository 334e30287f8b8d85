//! Determinism suite for the closed-loop co-simulation
//! (`metis::sim::run_abr_cosim`):
//!
//! * **Oracle property** — the multi-session co-sim, with all its wave
//!   batching, sharding, and worker-pool parallelism, is bit-identical to
//!   a *sequential single-session oracle*: each session replayed alone,
//!   predicting with `metis::dt::Forest::predict` under the rule "a
//!   decision at time `T` uses the latest swap with `at_s <= T`" — for
//!   any shard count, thread count, stripe width, wave quantum, and wave
//!   cap, **including a mid-run model hot swap**.
//! * **Scale acceptance** — a 100 000-concurrent-session run completes in
//!   virtual time on one core and is bit-identical across repeated runs
//!   and across worker thread counts: same per-session outcomes, same
//!   QoE digest, and the same fabric-side latency percentiles, epoch
//!   swap counts, and served totals.
//! * **Pin** — one fixed 500-session schedule's QoE digest, virtual end
//!   time, decision and wave counts, recorded across commits, so a change
//!   to the simulator itself (which the oracle shares) cannot pass.
//!
//! Thread counts sweep 1/2/8/16.

use metis::abr::{hsdpa_corpus, AbrEnv, NetworkTrace, VideoModel, OBS_DIM};
use metis::dt::{fit, Dataset, DecisionTree, Forest, TreeConfig};
use metis::fabric::{FabricConfig, Router, ScenarioSpec, TenantSpec};
use metis::rl::Env;
use metis::serve::{Clock, ServeConfig};
use metis::sim::{run_abr_cosim, session_plan, CosimConfig, ModelSwap, SessionOutcome};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Thread counts every property sweeps.
const THREAD_COUNTS: [usize; 4] = [1, 2, 8, 16];

/// A fitted ABR policy tree over the 25-feature observation, varied by
/// seed: labels key off buffer level and recent throughput, so different
/// seeds yield genuinely different (non-constant) serving policies.
fn abr_tree(seed: u64, classes: usize) -> DecisionTree {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let x: Vec<Vec<f64>> = (0..200)
        .map(|_| (0..OBS_DIM).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let y: Vec<usize> = x
        .iter()
        .map(|xi| ((xi[1] * 3.0 + xi[9] * 2.0 + xi[0]) as usize) % classes)
        .collect();
    fit(
        &Dataset::classification(x, y, classes).unwrap(),
        &TreeConfig {
            max_leaf_nodes: 12,
            ..Default::default()
        },
    )
    .unwrap()
}

fn virtual_router(
    initial: DecisionTree,
    shards: usize,
    threads: usize,
    stripe: usize,
    max_batch: usize,
) -> Router {
    Router::new(
        vec![TenantSpec::new("abr")],
        vec![ScenarioSpec::new("pensieve", "abr", initial).shards(shards)],
        FabricConfig {
            serve: ServeConfig {
                max_batch,
                // Never consulted on a virtual clock; absurdly long so a
                // regression to deadline-based flushing would hang loudly
                // rather than pass quietly.
                max_delay: Duration::from_secs(3600),
                threads,
                stripe_rows: stripe,
                ..Default::default()
            },
            mirror_batch: 0,
            clock: Clock::virtual_at(0.0),
            ..Default::default()
        },
    )
}

/// The sequential oracle: each session replayed alone with direct
/// `Forest::predict` calls, no fabric, no waves, no event queue — just
/// the per-session timeline `t += download_time + sleep` and the swap
/// rule "a decision at `T` uses the latest swap with `at_s <= T`"
/// (`swaps` must be sorted by `at_s`, as the co-sim schedules them).
fn oracle_outcomes(
    initial: &DecisionTree,
    swaps: &[ModelSwap],
    video: &Arc<VideoModel>,
    traces: &[Arc<NetworkTrace>],
    cfg: &CosimConfig,
) -> Vec<SessionOutcome> {
    let mut models: Vec<(f64, Forest)> = vec![(
        f64::NEG_INFINITY,
        Forest::from_trees(std::slice::from_ref(initial)).unwrap(),
    )];
    for swap in swaps {
        models.push((swap.at_s, Forest::from_trees(&swap.trees).unwrap()));
    }
    let n_actions = video.n_qualities();
    session_plan(cfg, traces)
        .iter()
        .map(|plan| {
            let mut env = AbrEnv::new(
                Arc::clone(video),
                Arc::clone(&traces[plan.trace_idx]),
                plan.offset_s,
            );
            let mut obs = env.reset();
            let mut outcome = SessionOutcome::new(plan.trace_idx, plan.start_s);
            let mut t = plan.start_s;
            loop {
                let model = models
                    .iter()
                    .rev()
                    .find(|(at_s, _)| *at_s <= t)
                    .map(|(_, f)| f)
                    .unwrap();
                let action = model.predict(&obs).class().min(n_actions - 1);
                let (step, d) = env.step_detailed(action);
                outcome.record_chunk(step.reward, &d);
                if step.done {
                    break;
                }
                obs = step.obs;
                t += d.download_time_s + d.sleep_s;
            }
            outcome
        })
        .collect()
}

proptest! {
    /// The tentpole acceptance bar: for any fabric shape (shards, worker
    /// threads, stripe width, batch cap) and any wave pacing (quantum,
    /// cap), the co-sim's per-session outcomes equal the sequential
    /// oracle **bitwise** — with a mid-run hot swap (singleton tree or
    /// 3-tree forest) landing at an arbitrary time, possibly inside the
    /// start window or after every session finished.
    #[test]
    fn prop_cosim_bit_identical_to_sequential_oracle(
        tree_seed in 0u64..6,
        swap_seed in 6u64..12,
        sessions in 1usize..10,
        shards in 1usize..4,
        stripe in 1usize..24,
        max_batch in 1usize..40,
        quantum_ms in 1u64..2000,
        wave_cap in 1usize..64,
        swap_at_s in 0.0f64..90.0,
        forest_sel in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let forest_swap = forest_sel == 1;
        let video = Arc::new(VideoModel::standard(12, 7));
        let classes = video.n_qualities();
        let traces: Vec<Arc<NetworkTrace>> =
            hsdpa_corpus(3, 11).into_iter().map(Arc::new).collect();
        let initial = abr_tree(tree_seed, classes);
        let swap_trees = if forest_swap {
            vec![
                abr_tree(swap_seed, classes),
                abr_tree(swap_seed + 17, classes),
                abr_tree(swap_seed + 34, classes),
            ]
        } else {
            vec![abr_tree(swap_seed, classes)]
        };
        let swaps = vec![ModelSwap { at_s: swap_at_s, trees: swap_trees }];
        let cfg = CosimConfig {
            sessions,
            seed,
            start_window_s: 4.0,
            decision_quantum_s: quantum_ms as f64 / 1000.0,
            wave_cap,
        };
        let threads = THREAD_COUNTS[(seed % THREAD_COUNTS.len() as u64) as usize];

        let router = virtual_router(initial.clone(), shards, threads, stripe, max_batch);
        let report = run_abr_cosim(&router, "pensieve", &video, &traces, &swaps, &cfg);
        let fabric = router.shutdown();

        let oracle = oracle_outcomes(&initial, &swaps, &video, &traces, &cfg);
        prop_assert_eq!(report.sessions.len(), oracle.len());
        for (got, want) in report.sessions.iter().zip(&oracle) {
            prop_assert_eq!(got, want, "co-sim outcome diverges from the oracle");
        }
        prop_assert_eq!(report.decisions, (sessions * video.n_chunks()) as u64);
        prop_assert_eq!(fabric.served, report.decisions);
        prop_assert_eq!(fabric.scenarios[0].swaps, 1);
    }
}

/// The co-sim's result pinned across commits: 500 sessions of 24 chunks
/// over eight HSDPA-like traces, offsets drawn over each whole trace (so
/// sessions wrap past its end), a one-tree swap and a three-tree swap.
/// The oracle property above compares the co-sim with a replay on the
/// same `AbrEnv`; this pin is what notices a change to the env itself.
/// A moved value means a float op of the simulator changed: fix the
/// change, never re-pin.
#[test]
fn cosim_outcome_is_pinned() {
    let video = Arc::new(VideoModel::standard(24, 7));
    let classes = video.n_qualities();
    let traces: Vec<Arc<NetworkTrace>> = hsdpa_corpus(8, 0).into_iter().map(Arc::new).collect();
    let tree = |seed: u64| abr_tree(seed, classes);
    let swaps = vec![
        ModelSwap {
            at_s: 12.0,
            trees: vec![tree(2)],
        },
        ModelSwap {
            at_s: 24.0,
            trees: vec![tree(3), tree(4), tree(5)],
        },
    ];
    let cfg = CosimConfig {
        sessions: 500,
        seed: 0,
        start_window_s: 4.0,
        decision_quantum_s: 2.0,
        wave_cap: 4096,
    };
    // A session's download clock runs at least 24 × 4 s of video less
    // the 60 s buffer cap, so every offset within 36 s of the end wraps.
    let wrapping = session_plan(&cfg, &traces)
        .iter()
        .filter(|p| p.offset_s + 36.0 > traces[p.trace_idx].duration_s())
        .count();
    assert!(wrapping >= 20, "only {wrapping} sessions wrap the trace");

    let router = virtual_router(tree(1), 2, 2, 16, 512);
    let report = run_abr_cosim(&router, "pensieve", &video, &traces, &swaps, &cfg);
    router.shutdown();
    assert_eq!(
        (
            report.qoe_digest,
            report.virtual_end_s.to_bits(),
            report.decisions,
            report.waves,
        ),
        (0x69c4_2e22_a494_2819, 0x405f_d3c7_1eaa_82e1, 12_000, 80)
    );
}

/// The scale acceptance bar: 100 000 concurrent closed-loop sessions
/// complete in virtual time on one core, and the run is **bit-identical**
/// across repeated runs and across worker thread counts — per-session
/// outcomes, QoE digest, virtual end time, and the fabric-side report
/// (served totals, epoch swaps, and every latency percentile).
#[test]
fn hundred_thousand_sessions_bit_identical_across_runs_and_threads() {
    let video = Arc::new(VideoModel::standard(8, 7));
    let classes = video.n_qualities();
    let traces: Vec<Arc<NetworkTrace>> = hsdpa_corpus(8, 5).into_iter().map(Arc::new).collect();
    let initial = abr_tree(1, classes);
    let swaps = vec![ModelSwap {
        at_s: 15.0,
        trees: vec![abr_tree(2, classes)],
    }];
    let cfg = CosimConfig {
        sessions: 100_000,
        seed: 42,
        start_window_s: 8.0,
        decision_quantum_s: 0.25,
        wave_cap: 4096,
    };
    let run = |threads: usize, shards: usize| {
        let router = virtual_router(initial.clone(), shards, threads, 16, 512);
        let report = run_abr_cosim(&router, "pensieve", &video, &traces, &swaps, &cfg);
        (report, router.shutdown())
    };

    let (r1, f1) = run(2, 2);
    let (r2, f2) = run(2, 2); // identical config: must be a bitwise replay
    let (r3, f3) = run(8, 2); // more worker threads: must change nothing

    for (report, fabric) in [(&r1, &f1), (&r2, &f2), (&r3, &f3)] {
        assert_eq!(report.sessions.len(), 100_000);
        assert_eq!(report.decisions, 100_000 * video.n_chunks() as u64);
        assert!(
            report
                .sessions
                .iter()
                .all(|s| s.chunks == video.n_chunks() as u64),
            "every session must stream to completion"
        );
        assert_eq!(fabric.served, report.decisions);
        assert_eq!(fabric.scenarios[0].swaps, 1);
        assert!(report.virtual_end_s > cfg.start_window_s);
        assert!(report.waves < report.decisions / 10, "waves must batch");
    }

    for (a, b) in [(&r1, &r2), (&r1, &r3)] {
        assert_eq!(a.qoe_digest, b.qoe_digest, "QoE digest diverged");
        assert_eq!(a.sessions, b.sessions, "per-session outcomes diverged");
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.waves, b.waves);
        assert_eq!(a.events, b.events);
        assert_eq!(a.virtual_end_s.to_bits(), b.virtual_end_s.to_bits());
        assert_eq!(a.mean_qoe.to_bits(), b.mean_qoe.to_bits());
    }
    for (a, b) in [(&f1, &f2), (&f1, &f3)] {
        assert_eq!(a.served, b.served);
        let (la, lb) = (&a.scenarios[0].latency, &b.scenarios[0].latency);
        assert_eq!(la.count, lb.count);
        assert_eq!(la.mean_s.to_bits(), lb.mean_s.to_bits());
        assert_eq!(la.p50_s.to_bits(), lb.p50_s.to_bits());
        assert_eq!(la.p95_s.to_bits(), lb.p95_s.to_bits());
        assert_eq!(la.p99_s.to_bits(), lb.p99_s.to_bits());
        assert_eq!(la.max_s.to_bits(), lb.max_s.to_bits());
        assert_eq!(a.scenarios[0].live_epoch, b.scenarios[0].live_epoch);
        for (sa, sb) in a.scenarios[0].shards.iter().zip(&b.scenarios[0].shards) {
            assert_eq!(sa.served, sb.served, "per-shard traffic split diverged");
        }
    }
}
