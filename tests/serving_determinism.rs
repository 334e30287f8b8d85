//! Proptest suite pinning the online serving engine to its sequential
//! oracle: for **any** micro-batch size, flush deadline, thread count,
//! stripe width, and hot-swap interleaving, every response must be
//! bit-identical to evaluating `DecisionTree::predict` on the source tree
//! of the epoch the response reports — including NaN-laden feature
//! vectors, which route right at every split in every evaluator.
//!
//! Thread counts sweep 1/2/3/8/16.

use metis::dt::{fit, CompiledTree, Dataset, DecisionTree, Forest, Prediction, TreeConfig};
use metis::serve::{Clock, ModelRegistry, ServeConfig, ServerHandle, TreeServer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

const DIMS: usize = 5;

/// Thread counts every property sweeps.
const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 8, 16];

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
/// into every fifth request to pin the comparator hazard on the live path.
fn request_features(k: u64, salt: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(salt ^ k.wrapping_mul(0x9E3779B97F4A7C15));
    let mut v: Vec<f64> = (0..DIMS).map(|_| rng.gen_range(0.0..1.0)).collect();
    if k % 5 == 4 {
        v[(k % DIMS as u64) as usize] = f64::NAN;
    }
    v
}

fn assert_prediction_bits(a: Prediction, b: Prediction, label: &str) {
    match (a, b) {
        (Prediction::Class(x), Prediction::Class(y)) => {
            assert_eq!(x, y, "{label}: class diverges")
        }
        (Prediction::Value(x), Prediction::Value(y)) => {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: value diverges")
        }
        _ => panic!("{label}: prediction kinds diverge"),
    }
}

proptest! {
    /// Micro-batched serving is bit-identical to sequential per-request
    /// evaluation for any batch size, flush deadline, thread count, and
    /// stripe width — the batching schedule may change *when* a request
    /// is answered, never *what* the answer is.
    #[test]
    fn prop_microbatching_never_changes_answers(
        tree_seed in 0u64..30,
        batch in 1usize..48,
        deadline_us in 0u64..400,
        stripe in 1usize..32,
        n in 1u64..140,
        salt in 0u64..10_000,
    ) {
        let tree = fitted_tree(tree_seed);
        let threads = THREAD_COUNTS[(salt % THREAD_COUNTS.len() as u64) as usize];
        let server = TreeServer::start(
            Arc::new(ModelRegistry::new(tree.clone())),
            ServeConfig {
                max_batch: batch,
                max_delay: Duration::from_micros(deadline_us),
                threads,
                stripe_rows: stripe,
                ..Default::default()
            },
        );
        let mut handle = server.handle();
        for k in 0..n {
            handle.submit(request_features(k, salt));
        }
        let responses = handle.collect();
        prop_assert_eq!(responses.len() as u64, n, "zero drops");
        for resp in &responses {
            prop_assert_eq!(resp.epoch, 0);
            prop_assert!(resp.batch_size >= 1 && resp.batch_size <= batch);
            assert_prediction_bits(
                resp.prediction,
                tree.predict(&request_features(resp.id, salt)),
                "serve vs sequential oracle",
            );
        }
        let report = server.shutdown();
        prop_assert_eq!(report.served, n);
        prop_assert_eq!(report.delivery_failures, 0);
    }

    /// Mid-stream hot swaps: requests keep flowing while new epochs are
    /// published. Every response must match its *own* epoch's tree
    /// (in-flight batches finish on the model they pinned), epochs are
    /// monotone in submission order, and nothing is dropped.
    #[test]
    fn prop_hot_swap_serves_each_epoch_consistently(
        tree_seed in 0u64..20,
        batch in 1usize..24,
        swaps in 1usize..4,
        per_phase in 1u64..40,
        salt in 0u64..10_000,
    ) {
        let sources: Vec<DecisionTree> =
            (0..=swaps as u64).map(|e| fitted_tree(tree_seed ^ (e << 8) ^ 1)).collect();
        let registry = Arc::new(ModelRegistry::new(sources[0].clone()));
        let server = TreeServer::start(
            Arc::clone(&registry),
            ServeConfig {
                max_batch: batch,
                max_delay: Duration::from_micros(200),
                threads: THREAD_COUNTS[(salt % THREAD_COUNTS.len() as u64) as usize],
                stripe_rows: 8,
                ..Default::default()
            },
        );
        let mut handle = server.handle();
        let mut submitted = 0u64;
        for epoch_tree in &sources[1..] {
            for _ in 0..per_phase {
                handle.submit(request_features(submitted, salt));
                submitted += 1;
            }
            registry.publish(epoch_tree.clone());
        }
        for _ in 0..per_phase {
            handle.submit(request_features(submitted, salt));
            submitted += 1;
        }
        let responses = handle.collect();
        prop_assert_eq!(responses.len() as u64, submitted, "zero drops across swaps");
        let mut last_epoch = 0u64;
        for resp in &responses {
            prop_assert!(
                (resp.epoch as usize) < sources.len(),
                "unknown epoch {}", resp.epoch
            );
            prop_assert!(
                resp.epoch >= last_epoch,
                "epochs regressed: {} after {}", resp.epoch, last_epoch
            );
            last_epoch = resp.epoch;
            assert_prediction_bits(
                resp.prediction,
                sources[resp.epoch as usize].predict(&request_features(resp.id, salt)),
                "old-epoch request must get old-epoch answer",
            );
        }
        // The final phase ran after every publish, so the last response
        // must have seen the final epoch.
        prop_assert_eq!(last_epoch, swaps as u64, "final epoch never served");
        let report = server.shutdown();
        prop_assert_eq!(report.served, submitted);
        let per_epoch_total: u64 = report.per_epoch.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(per_epoch_total, submitted);
    }

    /// Ensemble epochs: a k-tree majority-vote forest served through the
    /// micro-batching engine answers bit-identically to the offline
    /// [`Forest`] oracle row-for-row, for any batch size, deadline,
    /// thread count, and stripe width — and a swap from a tree epoch to
    /// a forest epoch mid-stream keeps every response on its own epoch's
    /// model.
    #[test]
    fn prop_forest_epochs_match_offline_forest_oracle(
        tree_seed in 0u64..20,
        batch in 1usize..32,
        deadline_us in 0u64..300,
        stripe in 1usize..24,
        k in 2usize..5,
        n in 1u64..120,
        salt in 0u64..10_000,
    ) {
        let single = fitted_tree(tree_seed);
        let members: Vec<DecisionTree> =
            (0..k as u64).map(|t| fitted_tree(tree_seed ^ ((t + 1) << 9))).collect();
        let forest = Forest::from_trees(&members).unwrap();
        let threads = THREAD_COUNTS[(salt % THREAD_COUNTS.len() as u64) as usize];
        let registry = Arc::new(ModelRegistry::new(single.clone()));
        let server = TreeServer::start(
            Arc::clone(&registry),
            ServeConfig {
                max_batch: batch,
                max_delay: Duration::from_micros(deadline_us),
                threads,
                stripe_rows: stripe,
                ..Default::default()
            },
        );
        let mut handle = server.handle();
        // Phase 1 on the single-tree epoch, then hot-swap to the forest.
        let phase = n / 2;
        for idx in 0..phase {
            handle.submit(request_features(idx, salt));
        }
        registry.publish(forest.clone());
        for idx in phase..n {
            handle.submit(request_features(idx, salt));
        }
        let responses = handle.collect();
        prop_assert_eq!(responses.len() as u64, n, "zero drops across the shape swap");
        let mut last_epoch = 0u64;
        for resp in &responses {
            prop_assert!(resp.epoch <= 1, "unknown epoch {}", resp.epoch);
            prop_assert!(resp.epoch >= last_epoch, "epochs regressed");
            last_epoch = resp.epoch;
            let row = request_features(resp.id, salt);
            let oracle = if resp.epoch == 0 {
                single.predict(&row)
            } else {
                forest.predict(&row)
            };
            assert_prediction_bits(resp.prediction, oracle, "served vs offline ensemble oracle");
        }
        // Every request submitted after the publish saw the forest epoch.
        prop_assert_eq!(last_epoch, 1, "forest epoch never served");
        let report = server.shutdown();
        prop_assert_eq!(report.served, n);
        prop_assert_eq!(report.delivery_failures, 0);
        // Latency is bucketed by ensemble width: only widths 1 and k.
        for (width, _) in &report.per_width {
            prop_assert!(*width == 1 || *width == k, "unexpected width {}", width);
        }
    }

    /// Several handles share one server's page ingest. From one thread on
    /// a virtual clock, round-robin submits fill pages in submission order,
    /// so every page of two or more rows mixes handles and each answer's
    /// batch size is a pure function of the schedule; from concurrent
    /// client threads on the real clock, pages mix whatever arrives. Either
    /// way every collect returns exactly its own ids, ascending, with
    /// oracle answers, and a handle dropped with requests in flight is
    /// counted in `delivery_failures` without stalling the others.
    #[test]
    fn prop_interleaved_handles_collect_their_own_answers(
        tree_seed in 0u64..20,
        handles in 2usize..5,
        batch in 2usize..24,
        per_handle in 1u64..40,
        dropped in 0usize..6,
        salt in 0u64..10_000,
    ) {
        let tree = fitted_tree(tree_seed);
        // Rows depend on the handle too, so a misrouted answer shows.
        let row = |h: usize, id: u64| request_features(id, salt ^ ((h as u64 + 1) << 20));
        let check = |h: usize, responses: &[metis::serve::Response]| {
            let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
            assert_eq!(ids, (0..per_handle).collect::<Vec<u64>>(), "handle {h} ids");
            for resp in responses {
                assert_prediction_bits(resp.prediction, tree.predict(&row(h, resp.id)), "handle answer");
            }
        };
        // `dropped >= handles` runs without a dropped handle.
        let lost = if dropped < handles { per_handle } else { 0 };

        let clock = Clock::virtual_at(0.0);
        let server = TreeServer::start_clocked(
            Arc::new(ModelRegistry::new(tree.clone())),
            ServeConfig { max_batch: batch, ..Default::default() },
            clock,
        );
        let mut clients: Vec<Option<ServerHandle>> =
            (0..handles).map(|_| Some(server.handle())).collect();
        for id in 0..per_handle {
            for (h, client) in clients.iter_mut().enumerate() {
                let client = client.as_mut().expect("every handle submits");
                prop_assert_eq!(client.submit(row(h, id)), id);
            }
        }
        if dropped < handles {
            clients[dropped] = None;
        }
        let total = handles * per_handle as usize;
        for (h, client) in clients.iter_mut().enumerate() {
            let Some(client) = client else { continue };
            let responses = client.collect();
            check(h, &responses);
            for resp in &responses {
                // Global submission index → page; only the last page is
                // partial (the first collect's flush closed it).
                let page = (resp.id as usize * handles + h) / batch;
                let expect = if page < total / batch { batch } else { total % batch };
                prop_assert_eq!(resp.batch_size, expect, "page composition");
            }
        }
        drop(clients);
        let report = server.shutdown();
        prop_assert_eq!(report.served, total as u64);
        // Full pages the batcher answered before the drop were delivered.
        // The dropped handle's rows in the last, partial page were not:
        // that page stayed open until the first collect's flush.
        let full = total / batch * batch;
        let surely_lost = if lost > 0 {
            (full..total).filter(|g| g % handles == dropped).count() as u64
        } else {
            0
        };
        prop_assert!(
            (surely_lost..=lost).contains(&report.delivery_failures),
            "delivery failures {} outside {surely_lost}..={lost}",
            report.delivery_failures
        );

        let server = TreeServer::start(
            Arc::new(ModelRegistry::new(tree.clone())),
            ServeConfig {
                max_batch: batch,
                max_delay: Duration::from_micros(200),
                threads: 1,
                ..Default::default()
            },
        );
        let clients: Vec<ServerHandle> = (0..handles).map(|_| server.handle()).collect();
        std::thread::scope(|s| {
            for (h, mut client) in clients.into_iter().enumerate() {
                s.spawn(move || {
                    for id in 0..per_handle {
                        assert_eq!(client.submit(row(h, id)), id);
                    }
                    if h != dropped {
                        check(h, &client.collect());
                    }
                });
            }
        });
        let report = server.shutdown();
        prop_assert_eq!(report.served, total as u64);
        prop_assert!(report.delivery_failures <= lost, "only the dropped handle loses answers");
    }

    /// The compiled batch walk used by every flush agrees with both
    /// single-row evaluators on NaN-laden inputs for any chunking — the
    /// backend-level restatement of the engine property above.
    #[test]
    fn prop_compiled_batch_nan_parity(tree_seed in 0u64..40, n in 1usize..100, salt in 0u64..10_000) {
        let tree = fitted_tree(tree_seed);
        let compiled = CompiledTree::compile(&tree);
        let rows: Vec<Vec<f64>> =
            (0..n).map(|k| request_features(k as u64, salt)).collect();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let batched = compiled.predict_batch(&flat);
        prop_assert_eq!(batched.len(), n);
        for (row, got) in rows.iter().zip(batched.iter()) {
            assert_prediction_bits(*got, tree.predict(row), "batch vs tree");
            assert_prediction_bits(*got, compiled.predict(row), "batch vs single");
            if row.iter().any(|v| v.is_nan()) {
                // NaN fails `<` everywhere: the decision path may only take
                // right edges at NaN-featured splits.
                let mut idx = 0usize;
                while let Some(split) = &tree.node(idx).split {
                    let right =
                        row[split.feature] >= split.threshold || row[split.feature].is_nan();
                    if row[split.feature].is_nan() {
                        prop_assert!(right, "NaN took a left edge");
                    }
                    idx = if right { split.right } else { split.left };
                }
            }
        }
    }
}
