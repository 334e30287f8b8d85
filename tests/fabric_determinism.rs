//! Proptest suite pinning the serving fabric to the PR 4 single-server
//! path and to the sequential oracle:
//!
//! * a **1-model / 1-shard / 1-tenant** fabric answers bit-identically to
//!   a plain [`metis::serve::TreeServer`] fed the same requests, for any
//!   micro-batch size, flush deadline, thread count, and stripe width —
//!   the fabric is a strict generalization, not a new execution semantics;
//! * a **1-tree [`metis::dt::Forest`]** published into the fabric answers
//!   bit-identically to publishing its tree directly — ensemble epochs
//!   change nothing when the vote is a vote of one;
//! * any-shard-count fabrics keep every answer bit-identical to
//!   `DecisionTree::predict` while holding **session→shard affinity**
//!   exactly at [`metis::fabric::shard_for_session`]'s pure hash (stable
//!   across thread counts and interleavings);
//! * **shadow serving** diffs clean (and promotes) for an identical
//!   staged tree and reports nonzero mismatches (and rejects) for a
//!   perturbed one, with live traffic never touched by a rejected
//!   candidate.
//!
//! Thread counts default to 1/2/3/8; set `METIS_TEST_THREADS=<n>` to test
//! an additional setting (CI runs the suite under two values).

use metis::dt::{fit, Dataset, DecisionTree, TreeConfig};
use metis::fabric::{
    shard_for_session, FabricConfig, PromotePolicy, Router, ScenarioSpec, ShadowConfig, TenantSpec,
};
use metis::serve::{ModelRegistry, ServeConfig, TreeServer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

const DIMS: usize = 5;

/// Thread counts every property sweeps, plus an optional CI-injected one.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 3, 8];
    if let Ok(extra) = std::env::var("METIS_TEST_THREADS") {
        if let Ok(n) = extra.trim().parse::<usize>() {
            if !counts.contains(&n) {
                counts.push(n);
            }
        }
    }
    counts
}

/// A fitted multi-class tree over DIMS features, varied by seed.
fn fitted_tree(seed: u64) -> DecisionTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..150)
        .map(|_| (0..DIMS).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let y: Vec<usize> = x
        .iter()
        .map(|xi| ((xi[0] * 4.0 + xi[2] * 3.0 + xi[4] * 2.0) as usize) % 4)
        .collect();
    let ds = Dataset::classification(x, y, 4).unwrap();
    fit(
        &ds,
        &TreeConfig {
            max_leaf_nodes: 20,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Request features: deterministic in the request id, with NaNs injected
/// into every fifth request to keep the comparator hazard on the fabric
/// path too.
fn request_features(k: u64, salt: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(salt ^ k.wrapping_mul(0x9E3779B97F4A7C15));
    let mut v: Vec<f64> = (0..DIMS).map(|_| rng.gen_range(0.0..1.0)).collect();
    if k % 5 == 4 {
        v[(k % DIMS as u64) as usize] = f64::NAN;
    }
    v
}

fn serve_cfg(batch: usize, deadline_us: u64, threads: usize, stripe: usize) -> ServeConfig {
    ServeConfig {
        max_batch: batch,
        max_delay: Duration::from_micros(deadline_us),
        threads,
        stripe_rows: stripe,
        ..Default::default()
    }
}

proptest! {
    /// The acceptance bar: a 1-model/1-shard/1-tenant fabric is
    /// bit-identical to the PR 4 `TreeServer` path — same predictions,
    /// same epochs, same id order, zero drops — across batch sizes,
    /// deadlines, thread counts, and stripe widths.
    #[test]
    fn prop_minimal_fabric_bit_identical_to_tree_server(
        tree_seed in 0u64..25,
        batch in 1usize..48,
        deadline_us in 0u64..400,
        stripe in 1usize..32,
        n in 1u64..120,
        salt in 0u64..10_000,
    ) {
        let tree = fitted_tree(tree_seed);
        let threads = thread_counts()[(salt % 5 % thread_counts().len() as u64) as usize];
        let cfg = serve_cfg(batch, deadline_us, threads, stripe);

        // PR 4 path: one TreeServer.
        let server = TreeServer::start(Arc::new(ModelRegistry::new(tree.clone())), cfg.clone());
        let mut server_handle = server.handle();
        for k in 0..n {
            server_handle.submit(request_features(k, salt));
        }
        let baseline = server_handle.collect();
        let baseline_report = server.shutdown();

        // Fabric path: one scenario, one shard, one tenant.
        let router = Router::new(
            vec![TenantSpec::new("only")],
            vec![ScenarioSpec::new("model", "only", tree.clone())],
            FabricConfig { serve: cfg, mirror_batch: 0, ..Default::default() },
        );
        let mut handle = router.handle();
        for k in 0..n {
            handle.submit(0, k, request_features(k, salt));
        }
        let fabric = handle.collect();
        drop(handle);
        let report = router.shutdown();

        prop_assert_eq!(baseline.len() as u64, n);
        prop_assert_eq!(fabric.len() as u64, n);
        for (a, b) in baseline.iter().zip(fabric.iter()) {
            prop_assert_eq!(a.id, b.id, "submission order must align");
            prop_assert_eq!(b.shard, 0usize);
            prop_assert_eq!(a.epoch, b.response.epoch);
            match (a.prediction, b.response.prediction) {
                (metis::dt::Prediction::Class(x), metis::dt::Prediction::Class(y)) =>
                    prop_assert_eq!(x, y, "class diverges from the single-server path"),
                (metis::dt::Prediction::Value(x), metis::dt::Prediction::Value(y)) =>
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "value diverges"),
                _ => prop_assert!(false, "prediction kinds diverge"),
            }
        }
        prop_assert_eq!(report.served, baseline_report.served);
        prop_assert_eq!(report.scenarios[0].shards[0].delivery_failures, 0);
        prop_assert_eq!(report.latency.count as u64, n);
    }

    /// The ensemble acceptance bar: a **1-tree `Forest`** published into
    /// the fabric is bit-identical to publishing the tree itself — same
    /// predictions, same epochs, same id order, zero drops — for any
    /// batch size, deadline, thread count, stripe width, and NaN-laden
    /// rows. A vote of one must not be a new execution semantics.
    #[test]
    fn prop_one_tree_forest_fabric_bit_identical_to_tree_fabric(
        tree_seed in 0u64..25,
        batch in 1usize..48,
        deadline_us in 0u64..400,
        stripe in 1usize..32,
        n in 1u64..120,
        salt in 0u64..10_000,
    ) {
        let tree = fitted_tree(tree_seed);
        let threads = thread_counts()[(salt % 5 % thread_counts().len() as u64) as usize];
        let cfg = serve_cfg(batch, deadline_us, threads, stripe);

        let run = |as_forest: bool| {
            let router = Router::new(
                vec![TenantSpec::new("only")],
                vec![ScenarioSpec::new("model", "only", tree.clone())],
                FabricConfig { serve: cfg.clone(), mirror_batch: 0, ..Default::default() },
            );
            // Same epoch schedule on both sides: epoch 1 is the tree
            // itself on one, a 1-tree forest over it on the other.
            if as_forest {
                router.publish_forest("model", vec![tree.clone()]);
            } else {
                router.publish("model", tree.clone());
            }
            let mut handle = router.handle();
            for k in 0..n {
                handle.submit(0, k, request_features(k, salt));
            }
            let responses = handle.collect();
            drop(handle);
            (responses, router.shutdown())
        };
        let (tree_resp, tree_report) = run(false);
        let (forest_resp, forest_report) = run(true);

        prop_assert_eq!(tree_resp.len() as u64, n);
        prop_assert_eq!(forest_resp.len() as u64, n);
        for (a, b) in tree_resp.iter().zip(forest_resp.iter()) {
            prop_assert_eq!(a.id, b.id, "submission order must align");
            prop_assert_eq!(a.response.epoch, b.response.epoch, "epoch diverges");
            match (a.response.prediction, b.response.prediction) {
                (metis::dt::Prediction::Class(x), metis::dt::Prediction::Class(y)) =>
                    prop_assert_eq!(x, y, "1-tree forest vote diverges from its tree"),
                (metis::dt::Prediction::Value(x), metis::dt::Prediction::Value(y)) =>
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "value diverges"),
                _ => prop_assert!(false, "prediction kinds diverge"),
            }
        }
        prop_assert_eq!(forest_report.served, tree_report.served);
        prop_assert_eq!(forest_report.scenarios[0].live_trees, 1usize);
        prop_assert_eq!(forest_report.scenarios[0].live_epoch, 1u64);
        prop_assert_eq!(forest_report.scenarios[0].shards[0].delivery_failures, 0u64);
    }

    /// Sharded fabrics: every answer still matches the sequential oracle,
    /// and the shard every response reports is exactly the session hash —
    /// for any shard count, batch shape, and thread count.
    #[test]
    fn prop_sharded_fabric_oracle_and_affinity(
        tree_seed in 0u64..20,
        shards in 1usize..5,
        batch in 1usize..32,
        sessions in 1u64..12,
        n in 1u64..150,
        salt in 0u64..10_000,
    ) {
        let tree = fitted_tree(tree_seed);
        let threads = thread_counts()[(salt % thread_counts().len() as u64) as usize];
        let router = Router::new(
            vec![TenantSpec::new("only")],
            vec![ScenarioSpec::new("model", "only", tree.clone()).shards(shards)],
            FabricConfig {
                serve: serve_cfg(batch, 200, threads, 8),
                mirror_batch: 0,
                ..Default::default()
            },
        );
        let mut handle = router.handle();
        for k in 0..n {
            handle.submit(0, k % sessions, request_features(k, salt));
        }
        let responses = handle.collect();
        drop(handle);
        prop_assert_eq!(responses.len() as u64, n, "zero drops");
        for resp in &responses {
            prop_assert_eq!(resp.session, resp.id % sessions);
            prop_assert_eq!(
                resp.shard,
                shard_for_session(resp.session, shards),
                "routing must equal the pure session hash"
            );
            let oracle = tree.predict(&request_features(resp.id, salt));
            match (resp.response.prediction, oracle) {
                (metis::dt::Prediction::Class(x), metis::dt::Prediction::Class(y)) =>
                    prop_assert_eq!(x, y, "class diverges from oracle"),
                (metis::dt::Prediction::Value(x), metis::dt::Prediction::Value(y)) =>
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "value diverges"),
                _ => prop_assert!(false, "prediction kinds diverge"),
            }
        }
        let report = router.shutdown();
        prop_assert_eq!(report.served, n);
        prop_assert_eq!(
            report.scenarios[0].shards.iter().map(|s| s.served).sum::<u64>(),
            n,
            "per-shard serves must add up"
        );
        prop_assert_eq!(report.scenarios[0].latency.count as u64, n);
    }

    /// Shadow audit: an identical staged tree diffs clean on mirrored
    /// traffic and promotes; a perturbed tree reports nonzero mismatches
    /// and (under OnZeroDiff) never serves a request.
    #[test]
    fn prop_shadow_zero_diff_promotes_perturbed_rejects(
        tree_seed in 0u64..20,
        audit_rows in 1usize..80,
        n in 80u64..200,
        salt in 0u64..10_000,
    ) {
        let tree = fitted_tree(tree_seed);
        let perturbed = metis::dt::prune_to_leaves(&tree, 2);
        for (candidate, expect_promote) in [(tree.clone(), true), (perturbed, false)] {
            let router = Router::new(
                vec![TenantSpec::new("only")],
                vec![ScenarioSpec::new("model", "only", tree.clone()).shadow(ShadowConfig {
                    audit_rows,
                    policy: PromotePolicy::OnZeroDiff,
                })],
                FabricConfig {
                    serve: serve_cfg(16, 200, 1, 8),
                    mirror_batch: 8,
                    ..Default::default()
                },
            );
            router.stage("model", candidate);
            let mut handle = router.handle();
            for k in 0..n {
                handle.submit(0, k, request_features(k, salt));
            }
            let responses = handle.collect();
            drop(handle);
            let report = router.shutdown();
            let shadow = &report.scenarios[0].shadow;
            prop_assert_eq!(responses.len() as u64, n);
            prop_assert!(shadow.mirrored_rows >= audit_rows as u64, "audit starved");
            if expect_promote {
                prop_assert_eq!(shadow.promotions.len(), 1, "clean candidate must promote");
                prop_assert_eq!(shadow.promotions[0].mismatches, 0usize);
                prop_assert_eq!(shadow.mismatch_rows, 0u64);
                prop_assert_eq!(report.scenarios[0].live_epoch, 1);
            } else {
                prop_assert_eq!(shadow.rejected, 1, "dirty candidate must be rejected");
                prop_assert!(shadow.mismatch_rows > 0, "diffs must be reported");
                prop_assert_eq!(report.scenarios[0].live_epoch, 0);
                // The rejected candidate never influenced an answer.
                for resp in &responses {
                    prop_assert_eq!(resp.response.epoch, 0);
                }
            }
        }
    }
}

/// The session-hash stability satellite, pinned outside proptest so the
/// exact values are part of the repo's contract: the mapping is a pure
/// function — identical across repeated calls, thread counts, and
/// processes — and golden values guard against the hash ever changing
/// silently (which would break cross-restart affinity).
#[test]
fn session_hash_is_stable_across_threads_and_pinned() {
    let expected: Vec<usize> = (0..64u64).map(|s| shard_for_session(s, 7)).collect();
    let per_thread: Vec<Vec<usize>> = std::thread::scope(|scope| {
        (0..4)
            .map(|_| {
                let expected = &expected;
                scope.spawn(move || {
                    let got: Vec<usize> = (0..64u64).map(|s| shard_for_session(s, 7)).collect();
                    assert_eq!(&got, expected);
                    got
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for thread_view in &per_thread {
        assert_eq!(thread_view, &expected);
    }
    // Golden pins: SplitMix64 finalize of the session id, mod shards.
    assert_eq!(shard_for_session(0, 7), 0);
    assert_eq!(shard_for_session(1, 7), 6);
    assert_eq!(shard_for_session(42, 7), 3);
    assert_eq!(shard_for_session(17, 3), shard_for_session(17, 3));
    assert_eq!(
        shard_for_session(u64::MAX, 2),
        shard_for_session(u64::MAX, 2)
    );
    for shards in 1..9 {
        for s in 0..100 {
            assert!(shard_for_session(s, shards) < shards);
        }
    }
}
