//! Proptest suite pinning the lane-vectorized compiled-tree kernel, the
//! [`Forest`] ensemble evaluator, and the frontier-parallel CART grower
//! to their sequential oracles:
//!
//! * `CompiledTree::predict_batch_into` (the quantized lane walk) must be
//!   bit-identical to `DecisionTree::predict` row by row — including
//!   NaN-laden rows, which route right at every split.
//! * `Forest::predict_batch_into` must equal the per-tree oracle reduce
//!   (majority vote with lowest-class-index tie-break; mean in tree
//!   order) computed from `DecisionTree::predict`.
//! * `fit` at any thread count (which is also the frontier width) must
//!   produce a tree bit-identical to strictly sequential growth.
//! * `fit` on real-valued (non-dyadic) data must reproduce pinned tree
//!   digests: every node's split and statistics bits, for Gini, Entropy
//!   and MSE fits. The builder's in-crate oracle only matches on dyadic
//!   data, so these digests are what pins the fitter's floating-point
//!   accumulation order on data shaped like the Eq.-1-weighted traces.
//!
//! Thread counts sweep 1/2/3/8/16; the frontier property adds 0 (all
//! cores), 5, 32 and 64.

mod common;

use common::tree_digest;
use metis::dt::{
    fit, CompiledTree, Criterion, Dataset, DecisionTree, Forest, Prediction, TreeConfig, LANES,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIMS: usize = 6;

/// Thread counts every property sweeps.
const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 8, 16];

/// A fitted multi-class tree over DIMS features, varied by seed and leaf
/// budget (budget 1 yields a single-leaf tree, 2 a depth-1 stump).
fn fitted_classifier(seed: u64, max_leaf_nodes: usize) -> DecisionTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..200)
        .map(|_| (0..DIMS).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let y: Vec<usize> = x
        .iter()
        .map(|xi| ((xi[0] * 5.0 + xi[2] * 3.0 + xi[4] * 2.0) as usize) % 5)
        .collect();
    let ds = Dataset::classification(x, y, 5).unwrap();
    fit(
        &ds,
        &TreeConfig {
            max_leaf_nodes,
            ..Default::default()
        },
    )
    .unwrap()
}

/// A fitted regressor over DIMS features, varied by seed.
fn fitted_regressor(seed: u64, max_leaf_nodes: usize) -> DecisionTree {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let x: Vec<Vec<f64>> = (0..200)
        .map(|_| (0..DIMS).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|xi| xi[0] * 2.0 - xi[3] + xi[5] * 0.5)
        .collect();
    let ds = Dataset::regression(x, y).unwrap();
    fit(
        &ds,
        &TreeConfig {
            max_leaf_nodes,
            criterion: Criterion::Mse,
            min_samples_leaf: 2,
            ..Default::default()
        },
    )
    .unwrap()
}

/// `n` rows, flattened row-major; every fifth row gets one NaN feature
/// and every eleventh row is entirely NaN, pinning the comparator hazard
/// (`NaN < thr` is false, so NaNs must route right at every split).
fn random_rows(n: usize, salt: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(salt.wrapping_mul(0x9E3779B97F4A7C15));
    let mut rows = Vec::with_capacity(n * DIMS);
    for k in 0..n {
        let mut row: Vec<f64> = (0..DIMS).map(|_| rng.gen_range(0.0..1.0)).collect();
        if k % 5 == 4 {
            row[k % DIMS] = f64::NAN;
        }
        if k % 11 == 10 {
            row.iter_mut().for_each(|v| *v = f64::NAN);
        }
        rows.extend_from_slice(&row);
    }
    rows
}

/// Per-row oracle over the flattened row block.
fn oracle_predictions(tree: &DecisionTree, rows: &[f64]) -> Vec<Prediction> {
    rows.chunks_exact(DIMS).map(|r| tree.predict(r)).collect()
}

fn assert_bits_equal(got: &[Prediction], want: &[Prediction], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (k, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        match (g, w) {
            (Prediction::Class(a), Prediction::Class(b)) => {
                assert_eq!(a, b, "{ctx}: row {k}");
            }
            (Prediction::Value(a), Prediction::Value(b)) => {
                assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: row {k} ({a} vs {b})");
            }
            _ => panic!("{ctx}: row {k} prediction kind mismatch"),
        }
    }
}

proptest! {
    /// The lane kernel is bit-identical to `DecisionTree::predict` for
    /// arbitrary row counts (deliberately spanning partial lane blocks)
    /// and leaf budgets, on classifiers and regressors alike, NaNs
    /// included.
    #[test]
    fn kernel_matches_per_row_oracle(
        seed in 0u64..12,
        n in 1usize..70,
        leaves in 1usize..40,
    ) {
        for tree in [fitted_classifier(seed, leaves), fitted_regressor(seed, leaves)] {
            let compiled = CompiledTree::compile(&tree);
            let rows = random_rows(n, seed * 1000 + n as u64);
            let want = oracle_predictions(&tree, &rows);

            let mut got = vec![Prediction::Class(usize::MAX); n];
            compiled.predict_batch_into(&rows, &mut got);
            assert_bits_equal(&got, &want, "lane kernel");

            for (k, row) in rows.chunks_exact(DIMS).enumerate() {
                prop_assert_eq!(compiled.predict(row), want[k], "scalar predict row {}", k);
            }
        }
    }

    /// Forest block-major evaluation equals the per-tree oracle reduce:
    /// majority vote with lowest-class-index tie-break for classifiers,
    /// tree-order mean for regressors.
    #[test]
    fn forest_matches_per_tree_oracle_reduce(
        seed in 0u64..8,
        n in 1usize..60,
        n_trees in 1usize..6,
    ) {
        let members: Vec<DecisionTree> = (0..n_trees)
            .map(|t| fitted_classifier(seed * 31 + t as u64, 8 + 4 * t))
            .collect();
        let forest = Forest::from_trees(&members).unwrap();
        let rows = random_rows(n, seed * 7777 + n as u64);

        let mut want = Vec::with_capacity(n);
        for row in rows.chunks_exact(DIMS) {
            let mut votes = [0u32; 5];
            for tree in &members {
                votes[tree.predict(row).class()] += 1;
            }
            let best = (0..5).max_by_key(|&c| (votes[c], std::cmp::Reverse(c))).unwrap();
            want.push(Prediction::Class(best));
        }
        let got = forest.predict_batch(&rows);
        assert_bits_equal(&got, &want, "forest vote");

        for (k, row) in rows.chunks_exact(DIMS).enumerate() {
            prop_assert_eq!(forest.predict(row), want[k], "forest scalar row {}", k);
        }

        let regs: Vec<DecisionTree> = (0..n_trees)
            .map(|t| fitted_regressor(seed * 13 + t as u64, 6 + 3 * t))
            .collect();
        let rforest = Forest::from_trees(&regs).unwrap();
        let mut rwant = Vec::with_capacity(n);
        for row in rows.chunks_exact(DIMS) {
            let sum: f64 = regs.iter().map(|t| t.predict(row).value()).sum();
            rwant.push(Prediction::Value(sum / n_trees as f64));
        }
        let rgot = rforest.predict_batch(&rows);
        assert_bits_equal(&rgot, &rwant, "forest mean");
    }

    /// `Forest::predict` and `Forest::predict_batch_into` are
    /// bit-identical row-wise — the contract the serving engine's
    /// ensemble flush path rests on. Leaf budgets are spread so small
    /// members take the in-register walk while large ones stay on the
    /// gather path, and the row block carries NaN-salted and all-NaN
    /// rows (every evaluator must route NaN right at every split).
    #[test]
    fn forest_scalar_and_batched_paths_bit_identical(
        seed in 0u64..8,
        n in 1usize..70,
        n_trees in 1usize..6,
    ) {
        let members: Vec<DecisionTree> = (0..n_trees)
            .map(|t| fitted_classifier(seed * 17 + t as u64, 3 + 9 * t))
            .collect();
        let forest = Forest::from_trees(&members).unwrap();
        let rows = random_rows(n, seed * 31337 + n as u64);
        let mut got = vec![Prediction::Class(usize::MAX); n];
        forest.predict_batch_into(&rows, &mut got);
        let want: Vec<Prediction> = rows.chunks_exact(DIMS).map(|r| forest.predict(r)).collect();
        assert_bits_equal(&got, &want, "forest batched vs scalar");

        // Entirely-NaN batch: every member must walk the all-right path.
        let nan_rows = vec![f64::NAN; n * DIMS];
        let mut nan_got = vec![Prediction::Class(usize::MAX); n];
        forest.predict_batch_into(&nan_rows, &mut nan_got);
        let nan_want: Vec<Prediction> =
            nan_rows.chunks_exact(DIMS).map(|r| forest.predict(r)).collect();
        assert_bits_equal(&nan_got, &nan_want, "forest batched vs scalar, all-NaN");

        // Regression ensembles: the tree-order sum is order-sensitive in
        // floating point, so bit-identity here pins the reduction order.
        let regs: Vec<DecisionTree> = (0..n_trees)
            .map(|t| fitted_regressor(seed * 23 + t as u64, 4 + 7 * t))
            .collect();
        let rforest = Forest::from_trees(&regs).unwrap();
        let mut rgot = vec![Prediction::Class(usize::MAX); n];
        rforest.predict_batch_into(&rows, &mut rgot);
        let rwant: Vec<Prediction> = rows.chunks_exact(DIMS).map(|r| rforest.predict(r)).collect();
        assert_bits_equal(&rgot, &rwant, "regression forest batched vs scalar");
    }

    /// Frontier-parallel growth (one speculative expansion per thread) is
    /// bit-identical to strictly sequential growth for every thread
    /// count, with and without a depth cap.
    #[test]
    fn frontier_fit_matches_sequential(seed in 0u64..6, max_depth in 0usize..2) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545F4914F6CDD1D));
        let x: Vec<Vec<f64>> = (0..400)
            .map(|_| (0..DIMS).map(|_| (rng.gen_range(0u32..16) as f64) / 16.0).collect())
            .collect();
        let y: Vec<usize> = x
            .iter()
            .map(|xi| ((xi[0] * 7.0 + xi[1] * 5.0 + xi[3] * 3.0) as usize) % 4)
            .collect();
        let ds = Dataset::classification(x, y, 4).unwrap();
        let base = TreeConfig {
            max_leaf_nodes: 24,
            max_depth: if max_depth == 0 { None } else { Some(4) },
            ..Default::default()
        };
        let sequential = fit(&ds, &TreeConfig { threads: 1, ..base.clone() }).unwrap();
        for threads in THREAD_COUNTS.into_iter().chain([0, 5, 32, 64]) {
            let grown = fit(&ds, &TreeConfig { threads, ..base.clone() }).unwrap();
            prop_assert_eq!(&grown, &sequential, "threads {}", threads);
        }
    }
}

/// Edge shapes the lane walk must handle exactly: row counts around the
/// lane width, single rows, all-NaN batches, stumps, and single leaves.
#[test]
fn kernel_edge_shapes() {
    for (name, tree) in [
        ("single-leaf", fitted_classifier(3, 1)),
        ("depth-1 stump", fitted_classifier(3, 2)),
        ("regressor stump", fitted_regressor(3, 2)),
        ("full classifier", fitted_classifier(3, 30)),
        ("full regressor", fitted_regressor(3, 30)),
    ] {
        let compiled = CompiledTree::compile(&tree);
        for n in [1, 2, LANES - 1, LANES, LANES + 1, 3 * LANES, 3 * LANES + 7] {
            let rows = random_rows(n, 42 + n as u64);
            let want = oracle_predictions(&tree, &rows);
            let mut got = vec![Prediction::Class(usize::MAX); n];
            compiled.predict_batch_into(&rows, &mut got);
            assert_bits_equal(&got, &want, &format!("{name}, {n} rows"));
        }

        // A batch where every value of every row is NaN: all rows must
        // take the all-right path, identically to the oracle.
        let n = LANES + 3;
        let rows = vec![f64::NAN; n * DIMS];
        let want = oracle_predictions(&tree, &rows);
        let mut got = vec![Prediction::Class(usize::MAX); n];
        compiled.predict_batch_into(&rows, &mut got);
        assert_bits_equal(&got, &want, &format!("{name}, all-NaN batch"));
    }
}

/// Forest schema validation: empty ensembles and mixed kinds/shapes are
/// rejected rather than silently mis-reduced.
#[test]
fn forest_rejects_invalid_ensembles() {
    assert!(Forest::from_trees(&[]).is_err());
    let mixed_kind = [fitted_classifier(1, 8), fitted_regressor(1, 8)];
    assert!(Forest::from_trees(&mixed_kind).is_err());
    let ok = Forest::from_trees(&[fitted_classifier(1, 8), fitted_classifier(2, 8)]).unwrap();
    assert_eq!(ok.n_trees(), 2);
    assert_eq!(ok.n_features(), DIMS);
}

/// Pensieve-shaped training rows: 25 features, every third one quantized
/// to 6–48 levels (bitrate indices, chunk counters), the rest continuous.
fn pensieve_shaped_rows(rng: &mut StdRng, n: usize) -> Vec<Vec<f64>> {
    const FEATURES: usize = 25;
    let levels: Vec<u32> = (0..FEATURES).map(|_| rng.gen_range(6u32..49)).collect();
    (0..n)
        .map(|_| {
            (0..FEATURES)
                .map(|f| {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    if f % 3 == 0 {
                        (u * levels[f] as f64).floor() / levels[f] as f64
                    } else {
                        u
                    }
                })
                .collect()
        })
        .collect()
}

/// Eq.-1-style sample weights, log-uniform on [1e-9, 1e2]. Built from
/// exact and correctly rounded operations only (a Taylor series for the
/// octave fraction), so the pinned digests never depend on a libm.
fn log_uniform_weights(rng: &mut StdRng, n: usize) -> Vec<f64> {
    // log2(1e-9) and log2(1e2).
    let (lo, hi) = (-29.897_352_853_986_26, 6.643_856_189_774_724);
    (0..n)
        .map(|_| {
            let e: f64 = rng.gen_range(lo..hi);
            let octave = e.floor();
            let r = (e - octave) * std::f64::consts::LN_2;
            let (mut term, mut frac) = (1.0, 1.0);
            for i in 1..20 {
                term *= r / i as f64;
                frac += term;
            }
            frac * f64::from_bits(((octave as i64 + 1023) as u64) << 52)
        })
        .collect()
}

/// Noisy class labels: a piecewise function of a few features, with one
/// label in five redrawn at random so the tree keeps finding splits.
fn noisy_labels(rng: &mut StdRng, x: &[Vec<f64>], n_classes: usize) -> Vec<usize> {
    x.iter()
        .map(|xi| {
            if rng.gen_range(0u32..5) == 0 {
                rng.gen_range(0..n_classes)
            } else {
                ((xi[0] * 5.0 + xi[1] * 3.0 + xi[3] * 7.0 + xi[4] * 2.0) as usize) % n_classes
            }
        })
        .collect()
}

/// Fit at threads 1 and 2 and return the digest,
/// asserting both thread counts grow the same tree.
fn digest_at_threads_1_and_2(ds: &Dataset, cfg: &TreeConfig, name: &str) -> u64 {
    let fit_with = |threads: usize| {
        let tree = fit(
            ds,
            &TreeConfig {
                threads,
                ..cfg.clone()
            },
        )
        .unwrap();
        (tree_digest(&tree), tree.n_leaves())
    };
    let (one, leaves) = fit_with(1);
    let (two, _) = fit_with(2);
    assert_eq!(one, two, "{name}: threads 1 and 2 grew different trees");
    eprintln!("{name}: {leaves} leaves, digest {one:#018x}");
    one
}

/// Fitted-tree digests on real-valued data, recorded before the builder's
/// presort and split scan were rewritten: the rewrite must reproduce every
/// bit of every tree.
#[test]
fn fit_digests_on_real_valued_data_are_pinned() {
    let mut got = Vec::new();

    // Pensieve-shaped, Gini, Eq.-1 weights, the conversion's leaf budget
    // before CCP pruning.
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    let x = pensieve_shaped_rows(&mut rng, 2400);
    let y = noisy_labels(&mut rng, &x, 6);
    let w = log_uniform_weights(&mut rng, x.len());
    let pensieve = Dataset::classification_weighted(x, y, 6, w).unwrap();
    let gini = TreeConfig::with_max_leaves(800);
    got.push(digest_at_threads_1_and_2(&pensieve, &gini, "pensieve gini"));

    // Entropy on the same shape (smaller set, smaller budget).
    let mut rng = StdRng::seed_from_u64(0x5EED_0002);
    let x = pensieve_shaped_rows(&mut rng, 1200);
    let y = noisy_labels(&mut rng, &x, 6);
    let w = log_uniform_weights(&mut rng, x.len());
    let entropy_ds = Dataset::classification_weighted(x, y, 6, w).unwrap();
    let entropy = TreeConfig {
        criterion: Criterion::Entropy,
        max_leaf_nodes: 200,
        ..Default::default()
    };
    got.push(digest_at_threads_1_and_2(
        &entropy_ds,
        &entropy,
        "pensieve entropy",
    ));

    // lRLA-shaped: 143 continuous features, 108 classes.
    let mut rng = StdRng::seed_from_u64(0x5EED_0003);
    let x: Vec<Vec<f64>> = (0..1500)
        .map(|_| (0..143).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let y: Vec<usize> = x
        .iter()
        .map(|xi| ((xi[0] * 17.0 + xi[5] * 9.0 + xi[40] * 4.0) as usize) % 108)
        .collect();
    let w: Vec<f64> = (0..x.len()).map(|_| rng.gen_range(0.25..4.0)).collect();
    let wide = Dataset::classification_weighted(x, y, 108, w).unwrap();
    got.push(digest_at_threads_1_and_2(
        &wide,
        &TreeConfig::with_max_leaves(300),
        "108-class",
    ));

    // MSE under a leaf-size floor and a depth cap.
    let mut rng = StdRng::seed_from_u64(0x5EED_0004);
    let x = pensieve_shaped_rows(&mut rng, 1500);
    let y: Vec<f64> = x
        .iter()
        .map(|xi| 3.0 * xi[0] * xi[0] + xi[1] * xi[4] - 0.7 * xi[6] + rng.gen_range(-0.1..0.1))
        .collect();
    let w = log_uniform_weights(&mut rng, x.len());
    let reg = Dataset::regression_weighted(x, y, w).unwrap();
    let mse = TreeConfig {
        criterion: Criterion::Mse,
        max_leaf_nodes: 400,
        min_samples_leaf: 3,
        max_depth: Some(6),
        ..Default::default()
    };
    got.push(digest_at_threads_1_and_2(&reg, &mse, "mse"));

    let pinned: [u64; 4] = [
        0x6370_0ee3_158b_9bce,
        0x987c_8b4e_2a1e_fa36,
        0xdd86_9e2c_86f6_27e0,
        0x97ec_04a5_b0c8_2c43,
    ];
    assert_eq!(got, pinned, "fitted trees changed");
}
