//! Determinism suite for the streaming health plane (`metis::obs`) on
//! the serving fabric and the closed-loop co-simulation:
//!
//! * **Schedule purity (co-sim)** — with observer ticks scheduled as
//!   `metis_sim` events, the whole health surface — tick count, alert
//!   stream (fires, clears, severities, attributions), and the
//!   [`metis::obs::HealthReport`] digest — is a pure function of the
//!   submission/swap/tick schedule: **bit-identical** across worker
//!   thread counts and shard stripe widths, including a mid-run model
//!   hot swap.
//! * **Alert lifecycle (fabric)** — a fixed virtual-time schedule with a
//!   calm → hot → calm latency profile drives every monitor through its
//!   full lifecycle: fast-burn and slow-burn fire with stage
//!   attribution, drift fires on the quantile shift, and all of them
//!   clear under hysteresis — identically at every thread count.
//! * **Disabled plane** — under [`Telemetry::off`] the observer is
//!   inert (no ticks observed, no alerts, no scopes) and serving
//!   behaviour is bit-identical with the observer on or off.
//!
//! The co-sim property and the lifecycle test run each schedule under
//! both [`Telemetry::enabled`] and [`Telemetry::off`]: within a plane
//! every surface is compared across thread counts and stripe widths,
//! and what is served (responses, the co-sim QoE digest) must also
//! match across the two planes.
//!
//! Thread counts sweep 1/2/8/16.

use metis::abr::{hsdpa_corpus, NetworkTrace, VideoModel, OBS_DIM};
use metis::dt::{fit, Dataset, DecisionTree, TreeConfig};
use metis::fabric::{FabricConfig, Router, ScenarioSpec, TenantSpec};
use metis::obs::{Alert, ObserverConfig};
use metis::serve::{Clock, ServeConfig};
use metis::sim::{run_abr_cosim_observed, CosimConfig, ModelSwap};
use metis::telemetry::{fnv1a, Fnv1a, Telemetry};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Thread counts every property sweeps.
const THREAD_COUNTS: [usize; 4] = [1, 2, 8, 16];

/// A fitted ABR policy tree over the 25-feature observation, varied by
/// seed.
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

/// The full alert stream, flattened to a bit-exact fingerprint string
/// (floats by `to_bits`, attribution included) for cross-run comparison.
fn alert_fingerprint(alerts: &[Alert]) -> String {
    let mut out = String::new();
    for a in alerts {
        out.push_str(&format!(
            "#{} t={:x} {}/dc{} {} firing={} sev={:x}",
            a.seq,
            a.time_s.to_bits(),
            a.tenant,
            a.deadline_class,
            a.kind.name(),
            a.firing,
            a.severity.to_bits(),
        ));
        for s in &a.attribution {
            out.push_str(&format!(
                " [{} mass={:x} share={:x}]",
                s.stage,
                s.mass_s.to_bits(),
                s.share.to_bits()
            ));
        }
        out.push('\n');
    }
    out
}

/// A virtual-clock router whose single tenant carries a finite p99
/// budget, so burn monitors have something to burn.
fn budgeted_router(
    initial: DecisionTree,
    budget_s: f64,
    shards: usize,
    threads: usize,
    stripe: usize,
    plane: Telemetry,
) -> Router {
    Router::new(
        vec![TenantSpec {
            name: "abr".into(),
            deadline_class: 1,
            p99_budget_s: budget_s,
        }],
        vec![ScenarioSpec::new("pensieve", "abr", initial).shards(shards)],
        FabricConfig {
            serve: ServeConfig {
                max_batch: 512,
                max_delay: Duration::from_secs(3600), // never consulted
                threads,
                stripe_rows: stripe,
                ..Default::default()
            },
            mirror_batch: 0,
            clock: Clock::virtual_at(0.0),
            telemetry: plane,
        },
    )
}

proptest! {
    /// The tentpole pin: an observed co-simulation's health surface —
    /// tick count, alert stream, report digest — is bit-identical across
    /// thread counts and stripe widths on each plane for any session
    /// count, seed, and mid-run hot-swap time, and the QoE digest is the
    /// same on both planes. Requests inside a decision wave stamp at
    /// their own event times, so in-wave queueing spread is nonzero and
    /// the tight tenant budget genuinely exercises the burn monitors.
    #[test]
    fn observed_cosim_health_is_bit_identical_across_thread_counts(
        tree_seed in 0u64..4,
        sessions in 2usize..8,
        swap_at_s in 0.0f64..60.0,
        seed in 0u64..10_000,
    ) {
        let video = Arc::new(VideoModel::standard(8, 5));
        let classes = video.n_qualities();
        let traces: Vec<Arc<NetworkTrace>> =
            hsdpa_corpus(3, 11).into_iter().map(Arc::new).collect();
        let initial = abr_tree(tree_seed, classes);
        let swaps = vec![ModelSwap {
            at_s: swap_at_s,
            trees: vec![abr_tree(tree_seed + 7, classes)],
        }];
        let cfg = CosimConfig {
            sessions,
            seed,
            start_window_s: 4.0,
            decision_quantum_s: 0.25,
            wave_cap: 64,
        };
        let obs_cfg = ObserverConfig {
            tick_s: 5.0,
            fast_window: 2,
            slow_window: 6,
            baseline_window: 4,
            clear_ticks: 1,
            ..Default::default()
        };
        let mut qoe: Option<u64> = None;
        for enabled in [true, false] {
            let mut baseline: Option<(u64, u64, u64, String)> = None;
            for threads in THREAD_COUNTS {
                for stripe in [4usize, 64] {
                    let plane = if enabled { Telemetry::enabled() } else { Telemetry::off() };
                    let router = budgeted_router(
                        initial.clone(), 0.02, 2, threads, stripe, plane);
                    let obs = router.observer(obs_cfg.clone());
                    let report = run_abr_cosim_observed(
                        &router, "pensieve", &video, &traces, &swaps, &cfg, Some(&obs));
                    let health = obs.health_report();
                    let got = (
                        report.qoe_digest,
                        report.ticks,
                        obs.digest(),
                        alert_fingerprint(&obs.alerts()),
                    );
                    router.shutdown();
                    if enabled {
                        prop_assert!(report.ticks > 0, "scheduled ticks reached the observer");
                        prop_assert_eq!(health.ticks, report.ticks);
                    } else {
                        prop_assert_eq!(health.ticks, 0, "disabled plane: ticks no-op");
                        prop_assert!(got.3.is_empty(), "disabled plane: no alerts");
                    }
                    let served = *qoe.get_or_insert(got.0);
                    prop_assert_eq!(got.0, served, "QoE drifted (enabled={}, threads={}, stripe={})", enabled, threads, stripe);
                    match &baseline {
                        None => baseline = Some(got),
                        Some(b) => {
                            prop_assert_eq!(got.1, b.1, "tick count drifted (enabled={}, threads={}, stripe={})", enabled, threads, stripe);
                            prop_assert_eq!(got.2, b.2, "health digest drifted (enabled={}, threads={}, stripe={})", enabled, threads, stripe);
                            prop_assert_eq!(&got.3, &b.3, "alert stream drifted (enabled={}, threads={}, stripe={})", enabled, threads, stripe);
                        }
                    }
                }
            }
        }
    }
}

/// Drive one calm → hot → calm schedule through a budgeted fabric with
/// manual observer ticks at quiescent points; returns everything the
/// lifecycle assertions need plus bit-exact comparison surfaces.
fn run_lifecycle(threads: usize, stripe: usize, plane: Telemetry) -> (u64, u64, String, String) {
    let clock = Clock::virtual_at(0.0);
    let router = Router::new(
        vec![TenantSpec {
            name: "abr".into(),
            deadline_class: 1,
            p99_budget_s: 0.1,
        }],
        vec![ScenarioSpec::new("pensieve", "abr", abr_tree(1, 5)).shards(2)],
        FabricConfig {
            serve: ServeConfig {
                max_batch: usize::MAX,
                max_delay: Duration::from_secs(3600),
                threads,
                stripe_rows: stripe,
                ..Default::default()
            },
            mirror_batch: 0,
            clock: Arc::clone(&clock),
            telemetry: plane.clone(),
        },
    );
    let obs = router.observer(ObserverConfig {
        fast_window: 1,
        slow_window: 4,
        baseline_window: 2,
        clear_ticks: 1,
        drift_buckets: 4,
        ..Default::default()
    });
    let mut handle = router.handle();
    let mut fingerprint = Fnv1a::new();
    // Each phase: submit a 20-request wave with the clock advancing
    // `gap_s` between submissions. Under a virtual clock the batch
    // closes at its *latest* submit stamp, so request `i`'s latency is
    // `(19 - i) * gap_s` — a pure function of the schedule. Budget is
    // 0.1s: 1ms gaps keep the whole wave under it (calm), the 100ms-gap
    // wave pushes 18 of 20 requests over it (hot).
    let mut t = 0.0;
    for (phase, gap_s) in [0.001, 0.001, 0.1, 0.001, 0.001, 0.001, 0.001]
        .into_iter()
        .enumerate()
    {
        if phase == 4 {
            // Mid-run hot swap, between waves like the co-sim does it.
            router.publish("pensieve", abr_tree(9, 5));
        }
        t += 4.0;
        for k in 0..20u64 {
            clock.advance_to(t + k as f64 * gap_s);
            let salt = ((phase as u64) << 32) | k;
            let h = metis::nn::par::mix_seed(salt);
            let features: Vec<f64> = (0..OBS_DIM)
                .map(|i| ((h >> (i % 48)) & 0x3ff) as f64 / 1023.0)
                .collect();
            handle.submit(0, k % 7, features);
        }
        for resp in handle.collect() {
            fingerprint.write_u64(resp.id);
            fingerprint.write_u64(resp.response.epoch);
            fingerprint.write_u64(resp.response.prediction.class() as u64);
        }
        obs.tick_now();
    }
    drop(handle);
    let digest = obs.digest();
    let alerts = alert_fingerprint(&obs.alerts());
    let prom = obs.prometheus_text();
    router.shutdown();
    (fingerprint.finish(), digest, alerts, prom)
}

/// A fixed calm → hot → calm schedule walks every monitor through fire
/// and clear, with stage attribution on the fires — and the whole
/// lifecycle (alert stream, digest, Prometheus text) is bit-identical
/// at every thread count on each plane, with the same responses on both.
#[test]
fn alert_lifecycle_fires_attributes_and_clears_identically_across_threads() {
    let mut responses: Option<u64> = None;
    for enabled in [true, false] {
        let mut baseline: Option<(u64, u64, String, String)> = None;
        for threads in THREAD_COUNTS {
            let plane = if enabled {
                Telemetry::enabled()
            } else {
                Telemetry::off()
            };
            let got = run_lifecycle(threads, 16, plane);
            if enabled {
                // The hot wave fires both burn monitors and the drift
                // monitor; the calm tail clears all three.
                for kind in ["fast_burn", "slow_burn", "drift"] {
                    assert!(
                        got.2.contains(&format!("{kind} firing=true")),
                        "{kind} never fired:\n{}",
                        got.2
                    );
                    assert!(
                        got.2.contains(&format!("{kind} firing=false")),
                        "{kind} never cleared:\n{}",
                        got.2
                    );
                }
                // Fires carry stage attribution (the hot window has mass).
                let first_fire = got.2.lines().find(|l| l.contains("firing=true")).unwrap();
                assert!(
                    first_fire.contains("[queue_wait") || first_fire.contains("[kernel"),
                    "fire lacks stage attribution: {first_fire}"
                );
                assert!(got.3.contains("metis_tenant_slo_firing"));
                assert!(got.3.contains("metis_tenant_burn_rate"));
            } else {
                assert!(got.2.is_empty(), "disabled plane: no alerts");
            }
            let served = *responses.get_or_insert(got.0);
            assert_eq!(
                got.0, served,
                "responses drifted (enabled={enabled}, threads={threads})"
            );
            match &baseline {
                None => baseline = Some(got),
                Some(b) => {
                    assert_eq!(
                        got.1, b.1,
                        "health digest drifted (enabled={enabled}, threads={threads})"
                    );
                    assert_eq!(
                        got.2, b.2,
                        "alert stream drifted (enabled={enabled}, threads={threads})"
                    );
                    assert_eq!(
                        got.3, b.3,
                        "prometheus text drifted (enabled={enabled}, threads={threads})"
                    );
                }
            }
        }
    }
}

/// The enabled plane's health digest, alert stream and Prometheus text on
/// the lifecycle schedule, pinned to values recorded before the latency
/// sketch lost its rotating windows. The other tests here compare runs
/// inside one binary, so only this one notices a health surface that
/// moves between commits. Fix the change, never re-pin.
#[test]
fn health_is_pinned() {
    let (_, digest, alerts, prom) = run_lifecycle(2, 16, Telemetry::enabled());
    let got = [digest, fnv1a(alerts.as_bytes()), fnv1a(prom.as_bytes())];
    eprintln!("digests {:#018x} {:#018x} {:#018x}", got[0], got[1], got[2]);
    let want = [
        0x806a_8d49_a1e6_8efd,
        0xe550_61eb_3216_5ec4,
        0x316f_8ae6_8c14_fe3e,
    ];
    for (surface, (g, w)) in ["health digest", "alert stream", "prometheus text"]
        .iter()
        .zip(got.iter().zip(want.iter()))
    {
        assert_eq!(g, w, "{surface} moved: got {g:#018x}, pinned {w:#018x}");
    }
}

/// The disabled plane leaves the observer inert — zero observed ticks,
/// no alerts, no scope series — and what is served is bit-identical
/// with the plane on or off.
#[test]
fn disabled_plane_observer_is_inert_and_behaviour_invariant() {
    let off = Telemetry::off();
    let (fp_off, _, alerts_off, prom_off) = run_lifecycle(2, 16, off.clone());
    assert!(alerts_off.is_empty());
    assert!(off.scopes().is_empty());
    assert!(
        !prom_off.contains("{scenario="),
        "disabled plane exposes no scope series"
    );
    let on = Telemetry::enabled();
    let (fp_on, digest_on, alerts_on, prom_on) = run_lifecycle(2, 16, on.clone());
    assert_eq!(
        fp_on, fp_off,
        "health observation must never change what is served"
    );
    assert_ne!(digest_on, 0);
    assert!(!alerts_on.is_empty(), "enabled plane observes the hot wave");
    assert!(prom_on.contains("metis_scope_served_total"));
}
