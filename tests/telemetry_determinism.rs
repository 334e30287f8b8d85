//! Determinism suite for the live telemetry plane
//! (`metis::telemetry`) on the serving fabric:
//!
//! * **Schedule purity** — under a virtual clock, every deterministic
//!   telemetry surface (span log, flight-recorder events, latency and
//!   stage sketches, served/per-epoch splits) is a pure function of the
//!   submission/swap schedule: the combined [`Telemetry::digest`] and
//!   the full Chrome trace-event JSON are **bit-identical** across
//!   worker thread counts, shard stripe widths, and batch sizes that
//!   preserve batch composition.
//! * **Disabled plane** — [`Telemetry::off`] registers no scopes and
//!   digests to 0; the serving path's behaviour (responses, reports) is
//!   identical with the plane on or off.
//!
//! The schedule property runs each case under both [`Telemetry::enabled`]
//! and [`Telemetry::off`]: within a plane every surface is compared
//! across thread counts and stripe widths, and the served responses
//! must also match across the two planes.
//!
//! Thread counts sweep 1/2/8/16.

use metis::dt::{fit, Dataset, DecisionTree, TreeConfig};
use metis::fabric::{FabricConfig, PromotePolicy, Router, ScenarioSpec, ShadowConfig, TenantSpec};
use metis::serve::{Clock, ServeConfig};
use metis::telemetry::{fnv1a, Fnv1a, Telemetry};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Thread counts every property sweeps.
const THREAD_COUNTS: [usize; 4] = [1, 2, 8, 16];

/// A fitted 2-feature policy tree, varied by seed.
fn policy_tree(seed: u64, leaves: usize) -> DecisionTree {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let x: Vec<Vec<f64>> = (0..160)
        .map(|_| vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..9.0)])
        .collect();
    let y: Vec<usize> = x
        .iter()
        .map(|xi| ((xi[0] * 3.0 + xi[1] * 0.5) as usize) % 5)
        .collect();
    fit(
        &Dataset::classification(x, y, 5).unwrap(),
        &TreeConfig {
            max_leaf_nodes: leaves,
            ..Default::default()
        },
    )
    .unwrap()
}

fn request_features(k: u64, salt: u64) -> Vec<f64> {
    let h = metis::nn::par::mix_seed(k ^ salt);
    vec![(h % 1000) as f64 / 1000.0, ((h >> 10) % 9) as f64]
}

/// A virtual-time schedule: waves of `(advance-to time, session ids)`,
/// with an optional mid-run hot swap `(time, tree seed)` applied from
/// the driver thread between waves.
struct Schedule {
    waves: Vec<(f64, Vec<u64>)>,
    swap: Option<(usize, u64)>,
    salt: u64,
}

/// Drive `schedule` through a telemetry-enabled fabric at the given
/// knobs; returns (response fingerprint, telemetry digest, trace JSON).
fn run_schedule(
    schedule: &Schedule,
    threads: usize,
    shards: usize,
    stripe: usize,
    plane: Telemetry,
) -> (u64, u64, String) {
    let clock = Clock::virtual_at(0.0);
    let router = Router::new(
        vec![TenantSpec::new("t")],
        vec![ScenarioSpec::new("s", "t", policy_tree(1, 12))
            .shards(shards)
            .shadow(ShadowConfig {
                audit_rows: 16,
                policy: PromotePolicy::AfterAudit,
            })],
        FabricConfig {
            serve: ServeConfig {
                max_batch: usize::MAX,                // composition = exactly one wave
                max_delay: Duration::from_secs(3600), // never consulted
                threads,
                stripe_rows: stripe,
                ..Default::default()
            },
            mirror_batch: 0,
            clock: Arc::clone(&clock),
            telemetry: plane.clone(),
        },
    );
    let mut handle = router.handle();
    let mut fingerprint = Fnv1a::new();
    for (wave_idx, (at_s, sessions)) in schedule.waves.iter().enumerate() {
        if let Some((swap_wave, seed)) = schedule.swap {
            if swap_wave == wave_idx {
                router.publish("s", policy_tree(seed, 8));
            }
        }
        clock.advance_to(*at_s);
        for &session in sessions {
            handle.submit(0, session, request_features(session, schedule.salt));
        }
        for resp in handle.collect() {
            fingerprint.write_u64(resp.id);
            fingerprint.write_u64(resp.response.epoch);
            fingerprint.write_u64(resp.response.prediction.class() as u64);
        }
    }
    drop(handle);
    let digest = plane.digest();
    let trace = plane.chrome_trace_json();
    router.shutdown();
    (fingerprint.finish(), digest, trace)
}

proptest! {
    /// The tentpole pin: for any schedule, the virtual-time telemetry
    /// digest and the full trace JSON are bit-identical across thread
    /// counts and stripe widths on each plane, the disabled plane digests
    /// zero, and the responses are identical everywhere.
    #[test]
    fn virtual_time_telemetry_is_bit_identical_across_thread_counts(
        n_waves in 1usize..5,
        wave_seed in 0u64..1_000,
        shards in 1usize..3,
        swap_on in 0u64..2,
    ) {
        let mut rng = StdRng::seed_from_u64(wave_seed ^ 0x7E1E);
        let mut t = 0.0;
        let waves: Vec<(f64, Vec<u64>)> = (0..n_waves)
            .map(|_| {
                t += rng.gen_range(0.05..1.5);
                let n = rng.gen_range(1..24usize);
                (t, (0..n).map(|_| rng.gen_range(0..40u64)).collect())
            })
            .collect();
        let schedule = Schedule {
            swap: (swap_on == 1 && n_waves > 1).then(|| (n_waves / 2, wave_seed + 7)),
            waves,
            salt: wave_seed,
        };
        let mut responses: Option<u64> = None;
        for enabled in [true, false] {
            let mut baseline: Option<(u64, u64, String)> = None;
            for threads in THREAD_COUNTS {
                for stripe in [4usize, 64] {
                    let plane = if enabled { Telemetry::enabled() } else { Telemetry::off() };
                    let got = run_schedule(&schedule, threads, shards, stripe, plane.clone());
                    if enabled {
                        prop_assert!(
                            got.1 != 0 || plane.scopes().is_empty(),
                            "enabled plane with scopes digests nonzero"
                        );
                    } else {
                        prop_assert_eq!(got.1, 0, "disabled plane must digest zero");
                    }
                    let served = *responses.get_or_insert(got.0);
                    prop_assert_eq!(got.0, served, "responses drifted (enabled={}, threads={}, stripe={})", enabled, threads, stripe);
                    match &baseline {
                        None => baseline = Some(got),
                        Some(b) => {
                            prop_assert_eq!(got.1, b.1, "telemetry digest drifted (enabled={}, threads={}, stripe={})", enabled, threads, stripe);
                            prop_assert_eq!(&got.2, &b.2, "trace JSON drifted (enabled={}, threads={}, stripe={})", enabled, threads, stripe);
                        }
                    }
                }
            }
        }
    }
}

/// Three waves with a hot swap between the first two.
fn fixed_schedule() -> Schedule {
    Schedule {
        waves: vec![
            (0.5, (0..20u64).collect()),
            (1.25, (5..30u64).collect()),
            (3.0, (0..10u64).collect()),
        ],
        swap: Some((1, 42)),
        salt: 9,
    }
}

/// The enabled plane's digest and trace on a fixed schedule, pinned to
/// values recorded before the latency sketch lost its rotating windows.
/// The other tests here compare runs inside one binary, so only this one
/// notices a telemetry surface that moves between commits. Fix the
/// change, never re-pin.
#[test]
fn telemetry_is_pinned() {
    let plane = Telemetry::enabled();
    let (_, digest, trace) = run_schedule(&fixed_schedule(), 2, 2, 16, plane);
    let got = [digest, fnv1a(trace.as_bytes())];
    eprintln!("digests {:#018x} {:#018x}", got[0], got[1]);
    let want = [0xa839_775d_1cfb_a3bb, 0x1a27_31d9_18a9_6e44];
    for (surface, (g, w)) in ["telemetry digest", "trace JSON"]
        .iter()
        .zip(got.iter().zip(want.iter()))
    {
        assert_eq!(g, w, "{surface} moved: got {g:#018x}, pinned {w:#018x}");
    }
}

/// The disabled plane is inert — no scopes, digest 0, an empty trace —
/// and serving behaviour is identical with the plane on or off.
#[test]
fn disabled_plane_is_inert_and_behaviour_invariant() {
    let schedule = fixed_schedule();
    let off = Telemetry::off();
    let (fp_off, digest_off, trace_off) = run_schedule(&schedule, 2, 2, 16, off.clone());
    assert_eq!(digest_off, 0);
    assert!(off.scopes().is_empty());
    assert!(
        !trace_off.contains("\"ph\":\"X\""),
        "a disabled plane exports no duration events"
    );
    let on = Telemetry::enabled();
    let (fp_on, digest_on, trace_on) = run_schedule(&schedule, 2, 2, 16, on.clone());
    assert_eq!(
        fp_on, fp_off,
        "observability must never change what is served"
    );
    assert_ne!(digest_on, 0, "an enabled plane digests its surfaces");
    assert_eq!(on.scopes().len(), 3, "2 shards + 1 control scope");
    assert!(trace_on.contains("\"traceEvents\""));
    assert!(trace_on.len() > trace_off.len());
}
