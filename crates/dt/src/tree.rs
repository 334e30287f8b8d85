//! The decision-tree data structure: an arena of nodes with per-node
//! weighted statistics (needed both for pruning and for the paper's
//! Figure-7-style "decision frequency" annotations).

use serde::{Deserialize, Serialize};

/// Weighted statistics carried by every node (internal and leaf).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeStats {
    /// Classification: weighted class histogram.
    Class { dist: Vec<f64> },
    /// Regression: total weight, weighted sum, weighted sum of squares.
    Value { w: f64, sum: f64, sumsq: f64 },
}

impl NodeStats {
    /// Total sample weight at this node.
    pub fn weight(&self) -> f64 {
        match self {
            NodeStats::Class { dist } => dist.iter().sum(),
            NodeStats::Value { w, .. } => *w,
        }
    }

    /// Prediction if this node were a leaf.
    pub fn prediction(&self) -> Prediction {
        match self {
            NodeStats::Class { dist } => {
                let mut best = 0;
                for (i, &d) in dist.iter().enumerate() {
                    if d > dist[best] {
                        best = i;
                    }
                }
                Prediction::Class(best)
            }
            NodeStats::Value { w, sum, .. } => {
                Prediction::Value(if *w > 0.0 { sum / w } else { 0.0 })
            }
        }
    }

    /// Resubstitution error if this node were a leaf (weighted
    /// misclassification for classification, SSE for regression). This is
    /// the `R(t)` of cost-complexity pruning.
    pub fn leaf_error(&self) -> f64 {
        match self {
            NodeStats::Class { dist } => {
                let total: f64 = dist.iter().sum();
                let max = dist.iter().cloned().fold(0.0, f64::max);
                total - max
            }
            NodeStats::Value { w, sum, sumsq } => {
                if *w > 0.0 {
                    (sumsq - sum * sum / w).max(0.0)
                } else {
                    0.0
                }
            }
        }
    }

    /// Normalized class distribution (classification only).
    pub fn class_frequencies(&self) -> Option<Vec<f64>> {
        match self {
            NodeStats::Class { dist } => {
                let total: f64 = dist.iter().sum();
                if total <= 0.0 {
                    return None;
                }
                Some(dist.iter().map(|d| d / total).collect())
            }
            NodeStats::Value { .. } => None,
        }
    }
}

/// A tree prediction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Prediction {
    Class(usize),
    Value(f64),
}

impl Prediction {
    /// Class index; panics on a regression prediction.
    pub fn class(self) -> usize {
        match self {
            Prediction::Class(c) => c,
            Prediction::Value(_) => panic!("expected a class prediction"),
        }
    }

    /// Regression value; panics on a classification prediction.
    pub fn value(self) -> f64 {
        match self {
            Prediction::Value(v) => v,
            Prediction::Class(_) => panic!("expected a value prediction"),
        }
    }
}

/// One node in the arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    pub stats: NodeStats,
    pub split: Option<Split>,
}

/// A binary split: `x[feature] < threshold` goes left, else right.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Split {
    pub feature: usize,
    pub threshold: f64,
    pub left: usize,
    pub right: usize,
}

/// Kind of tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TreeKind {
    Classifier { n_classes: usize },
    Regressor,
}

/// Why a tree failed [`DecisionTree::validate`]. Node indices refer to
/// the tree's arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The arena has no root node.
    Empty,
    /// The tree takes zero features, so a row has nothing to walk on.
    NoFeatures,
    /// The tree takes more features than the kernel's `u16` feature ids
    /// can address (65,536).
    TooManyFeatures { n_features: usize },
    /// A split names a child outside the arena.
    ChildOutOfRange { node: usize, child: usize },
    /// A node is reached twice from the root: the splits form a cycle or
    /// share a subtree.
    ReachedTwice { node: usize },
    /// A node is never reached from the root.
    Unreachable { node: usize },
    /// A split tests a feature the tree's schema does not have.
    FeatureOutOfRange {
        node: usize,
        feature: usize,
        n_features: usize,
    },
    /// A classifier leaf predicts a class the tree does not have.
    ClassOutOfRange {
        node: usize,
        class: usize,
        n_classes: usize,
    },
    /// A leaf's statistics are of the other tree kind (class histogram in
    /// a regressor, or value sums in a classifier).
    KindMismatch { node: usize },
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Empty => write!(f, "tree has no nodes"),
            TreeError::NoFeatures => write!(f, "tree takes no features"),
            TreeError::TooManyFeatures { n_features } => write!(
                f,
                "tree takes {n_features} features; the kernel serves at most {}",
                crate::kernel::MAX_FEATURES
            ),
            TreeError::ChildOutOfRange { node, child } => {
                write!(f, "node {node} names child {child} outside the arena")
            }
            TreeError::ReachedTwice { node } => {
                write!(f, "node {node} is reached twice from the root")
            }
            TreeError::Unreachable { node } => write!(f, "node {node} is unreachable"),
            TreeError::FeatureOutOfRange {
                node,
                feature,
                n_features,
            } => write!(
                f,
                "node {node} splits on feature {feature} of a {n_features}-feature tree"
            ),
            TreeError::ClassOutOfRange {
                node,
                class,
                n_classes,
            } => write!(
                f,
                "leaf {node} predicts class {class} of a {n_classes}-class tree"
            ),
            TreeError::KindMismatch { node } => {
                write!(f, "leaf {node} carries statistics of the other tree kind")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// A trained CART decision tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) kind: TreeKind,
    pub(crate) n_features: usize,
    /// Optional human-readable feature names for export.
    pub feature_names: Option<Vec<String>>,
}

pub(crate) const ROOT: usize = 0;

impl DecisionTree {
    pub(crate) fn new(nodes: Vec<Node>, kind: TreeKind, n_features: usize) -> Self {
        DecisionTree {
            nodes,
            kind,
            n_features,
            feature_names: None,
        }
    }

    pub fn kind(&self) -> TreeKind {
        self.kind
    }

    pub fn n_features(&self) -> usize {
        self.n_features
    }

    pub fn node(&self, idx: usize) -> &Node {
        &self.nodes[idx]
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.reachable(ROOT)
            .filter(|&i| self.nodes[i].split.is_none())
            .count()
    }

    /// Maximum depth (root = depth 0; a single-leaf tree has depth 0).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], idx: usize) -> usize {
            match &nodes[idx].split {
                None => 0,
                Some(s) => 1 + rec(nodes, s.left).max(rec(nodes, s.right)),
            }
        }
        rec(&self.nodes, ROOT)
    }

    /// Iterator over node indices reachable from `start` (preorder).
    pub(crate) fn reachable(&self, start: usize) -> impl Iterator<Item = usize> + '_ {
        let mut stack = vec![start];
        std::iter::from_fn(move || {
            let idx = stack.pop()?;
            if let Some(s) = &self.nodes[idx].split {
                stack.push(s.right);
                stack.push(s.left);
            }
            Some(idx)
        })
    }

    /// Check that the tree is well formed: it takes at least one and at
    /// most 65,536 features, every child index is inside the arena, every
    /// node is reached exactly once from the root (no cycles, shared
    /// subtrees or orphans), every split tests a feature `< n_features`,
    /// and every leaf carries statistics of the tree's kind — for
    /// classifiers, predicting a class `< n_classes`. Trees from
    /// [`crate::fit`] and the pruners pass unless they take more than
    /// 65,536 features; a deserialized tree may not.
    /// [`CompiledTree::compile`] and [`crate::Forest::from_trees`] call
    /// this first, because the kernel walk trusts these invariants.
    pub fn validate(&self) -> Result<(), TreeError> {
        let n = self.nodes.len();
        if n == 0 {
            return Err(TreeError::Empty);
        }
        if self.n_features == 0 {
            return Err(TreeError::NoFeatures);
        }
        if self.n_features > crate::kernel::MAX_FEATURES {
            return Err(TreeError::TooManyFeatures {
                n_features: self.n_features,
            });
        }
        let mut seen = vec![false; n];
        let mut stack = vec![ROOT];
        while let Some(idx) = stack.pop() {
            if std::mem::replace(&mut seen[idx], true) {
                return Err(TreeError::ReachedTwice { node: idx });
            }
            let node = &self.nodes[idx];
            if let Some(s) = &node.split {
                if s.feature >= self.n_features {
                    return Err(TreeError::FeatureOutOfRange {
                        node: idx,
                        feature: s.feature,
                        n_features: self.n_features,
                    });
                }
                for child in [s.right, s.left] {
                    if child >= n {
                        return Err(TreeError::ChildOutOfRange { node: idx, child });
                    }
                    stack.push(child);
                }
                continue;
            }
            match (self.kind, &node.stats) {
                (TreeKind::Classifier { n_classes }, NodeStats::Class { .. }) => {
                    let class = node.stats.prediction().class();
                    if class >= n_classes {
                        return Err(TreeError::ClassOutOfRange {
                            node: idx,
                            class,
                            n_classes,
                        });
                    }
                }
                (TreeKind::Regressor, NodeStats::Value { .. }) => {}
                _ => return Err(TreeError::KindMismatch { node: idx }),
            }
        }
        match seen.iter().position(|&s| !s) {
            Some(node) => Err(TreeError::Unreachable { node }),
            None => Ok(()),
        }
    }

    /// Walk the tree for a feature vector, returning the leaf node index.
    pub fn leaf_for(&self, x: &[f64]) -> usize {
        assert_eq!(
            x.len(),
            self.n_features,
            "leaf_for: expected {} features, got {}",
            self.n_features,
            x.len()
        );
        let mut idx = ROOT;
        while let Some(s) = &self.nodes[idx].split {
            idx = if x[s.feature] < s.threshold {
                s.left
            } else {
                s.right
            };
        }
        idx
    }

    /// The root-to-leaf node index path for a feature vector.
    pub fn decision_path(&self, x: &[f64]) -> Vec<usize> {
        let mut idx = ROOT;
        let mut path = vec![idx];
        while let Some(s) = &self.nodes[idx].split {
            idx = if x[s.feature] < s.threshold {
                s.left
            } else {
                s.right
            };
            path.push(idx);
        }
        path
    }

    /// Predict for a single feature vector.
    pub fn predict(&self, x: &[f64]) -> Prediction {
        self.nodes[self.leaf_for(x)].stats.prediction()
    }

    /// Predicted class index (classification trees only).
    pub fn predict_class(&self, x: &[f64]) -> usize {
        self.predict(x).class()
    }

    /// Predicted value (regression trees only).
    pub fn predict_value(&self, x: &[f64]) -> f64 {
        self.predict(x).value()
    }

    /// Leaf class distribution for a sample (classification trees only).
    pub fn predict_proba(&self, x: &[f64]) -> Option<Vec<f64>> {
        self.nodes[self.leaf_for(x)].stats.class_frequencies()
    }

    /// Sum of impurity decreases per feature ("which inputs drive the
    /// decisions"), normalized to sum to 1. Used in interpretation reports.
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for idx in self.reachable(ROOT).collect::<Vec<_>>() {
            if let Some(s) = &self.nodes[idx].split {
                let parent = self.nodes[idx].stats.leaf_error();
                let child =
                    self.nodes[s.left].stats.leaf_error() + self.nodes[s.right].stats.leaf_error();
                imp[s.feature] += (parent - child).max(0.0);
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    /// Serialized size in bytes (JSON) — the deployment cost model input.
    pub fn artifact_bytes(&self) -> usize {
        serde_json::to_vec(self).map(|v| v.len()).unwrap_or(0)
    }

    /// Compact the arena, dropping nodes that became unreachable after
    /// pruning. Indices are remapped; statistics are preserved.
    pub fn compact(&self) -> DecisionTree {
        let order: Vec<usize> = self.reachable(ROOT).collect();
        let mut remap = vec![usize::MAX; self.nodes.len()];
        for (new, &old) in order.iter().enumerate() {
            remap[old] = new;
        }
        let nodes = order
            .iter()
            .map(|&old| {
                let n = &self.nodes[old];
                Node {
                    stats: n.stats.clone(),
                    split: n.split.as_ref().map(|s| Split {
                        feature: s.feature,
                        threshold: s.threshold,
                        left: remap[s.left],
                        right: remap[s.right],
                    }),
                }
            })
            .collect();
        DecisionTree {
            nodes,
            kind: self.kind,
            n_features: self.n_features,
            feature_names: self.feature_names.clone(),
        }
    }
}

/// A flattened, branch-only evaluator in a cache-friendly quantized
/// structure-of-arrays layout (see [`crate::kernel`]: `u16` feature ids,
/// `u32` child indices, `f64` thresholds in their own contiguous column,
/// leaves as self-loops), demonstrating the paper's "decision trees can
/// be implemented with branching clauses only" deployment claim (§6.4).
/// A walk ends at its leaf's node id, and one answer table maps every
/// node id to that node's [`Prediction`]. It backs the latency
/// benchmarks and every member of a [`crate::Forest`], the model shape
/// the `metis_serve` engine serves.
///
/// It is deliberately not `Deserialize`: the kernel walk trusts the table's
/// child and feature indices, so the only way in is [`CompiledTree::compile`]
/// on a validated tree. Load a [`DecisionTree`] and recompile it instead.
#[derive(Debug, Clone, Serialize)]
pub struct CompiledTree {
    table: crate::kernel::NodeTable,
    /// Entry `i` is node `i`'s prediction, indexed by the node ids the
    /// kernel walks end at.
    answers: Vec<Prediction>,
    n_features: usize,
    kind: TreeKind,
}

impl CompiledTree {
    /// Flatten a [`DecisionTree`] into the kernel's quantized node table
    /// (breadth-first order, so the hot top levels are contiguous).
    ///
    /// Panics, in the calling (publishing) thread, when the tree fails
    /// [`DecisionTree::validate`]: a malformed table would send the
    /// unchecked kernel walk out of bounds.
    pub fn compile(tree: &DecisionTree) -> Self {
        if let Err(e) = tree.validate() {
            panic!("compile: malformed tree: {e}");
        }
        let tree = tree.compact();
        let (table, answers) = crate::kernel::NodeTable::build(&tree);
        CompiledTree {
            table,
            answers,
            n_features: tree.n_features,
            kind: tree.kind,
        }
    }

    /// The kernel node table (crate-internal: the forest evaluator walks
    /// member tables directly).
    #[inline]
    pub(crate) fn table(&self) -> &crate::kernel::NodeTable {
        &self.table
    }

    /// Every node's prediction, indexed by node id (crate-internal: the
    /// forest evaluator maps member walks through it).
    #[inline]
    pub(crate) fn answers(&self) -> &[Prediction] {
        &self.answers
    }

    /// The answer of the leaf `x` walks to.
    #[inline]
    fn leaf_answer(&self, x: &[f64]) -> Prediction {
        self.answers[crate::kernel::walk_one(&self.table, x) as usize]
    }

    /// Predicted class (classification trees).
    #[inline]
    pub fn predict_class(&self, x: &[f64]) -> usize {
        self.leaf_answer(x).class()
    }

    /// Predicted value (regression trees).
    #[inline]
    pub fn predict_value(&self, x: &[f64]) -> f64 {
        self.leaf_answer(x).value()
    }

    /// Predict for a single feature vector — same comparator
    /// (`x[f] < thr` goes left; NaN therefore routes **right**) and
    /// bit-identical answer as [`DecisionTree::predict`].
    #[inline]
    pub fn predict(&self, x: &[f64]) -> Prediction {
        assert_eq!(
            x.len(),
            self.n_features,
            "predict: expected {} features, got {}",
            self.n_features,
            x.len()
        );
        self.leaf_answer(x)
    }

    /// Batched prediction over a row-major block of feature vectors
    /// (`rows.len() == out.len() * n_features`) through the
    /// lane-vectorized kernel walk ([`crate::kernel`]): full
    /// [`crate::kernel::LANES`]-row blocks advance together with
    /// branch-free child selects, the tail walks scalar. Per row the
    /// result is **bit-identical** to [`DecisionTree::predict`] — same
    /// `<` comparator, so a NaN feature always fails the test and routes
    /// right.
    pub fn predict_batch_into(&self, rows: &[f64], out: &mut [Prediction]) {
        let n = out.len();
        assert_eq!(
            rows.len(),
            n * self.n_features,
            "predict_batch_into: {} values is not {} rows of {} features",
            rows.len(),
            n,
            self.n_features
        );
        let mut leaves = vec![0u32; n];
        crate::kernel::walk_leaves(&self.table, rows, self.n_features, &mut leaves);
        for (slot, &leaf) in out.iter_mut().zip(&leaves) {
            *slot = self.answers[leaf as usize];
        }
    }

    /// [`CompiledTree::predict_batch_into`] into a fresh vector. `rows` is
    /// row-major with `n_features` values per row.
    pub fn predict_batch(&self, rows: &[f64]) -> Vec<Prediction> {
        assert!(
            rows.len().is_multiple_of(self.n_features),
            "predict_batch: {} values do not divide into {}-feature rows",
            rows.len(),
            self.n_features
        );
        let mut out = vec![Prediction::Class(0); rows.len() / self.n_features];
        self.predict_batch_into(rows, &mut out);
        out
    }

    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Kind of the source tree.
    pub fn kind(&self) -> TreeKind {
        self.kind
    }

    /// Node count of the flattened arena.
    pub fn node_count(&self) -> usize {
        self.table.len()
    }

    /// A copy of this tree with the in-register node table dropped, so
    /// evaluation always takes the gather (or portable) walk — the A/B
    /// lever the kernel benchmarks use to price the `vpermi2*` path
    /// against hardware gathers on the same tree. Predictions are
    /// bit-identical either way.
    pub fn without_inreg(&self) -> CompiledTree {
        let mut copy = self.clone();
        copy.table.inreg = None;
        copy
    }
}

/// Compare two prediction slices the way the serving path compares
/// answers — class indices by equality, values by `to_bits` (so `0.0` vs
/// `-0.0` or a NaN payload swap counts as a mismatch, exactly like a
/// diverging response would); predictions of different kinds mismatch.
/// This is the comparator behind [`crate::Forest::diff_batch`], the
/// shadow audit's one entry point. The slices must be the same length
/// (they came from the same row block).
pub(crate) fn diff_predictions(ours: &[Prediction], theirs: &[Prediction]) -> BatchDiff {
    assert_eq!(
        ours.len(),
        theirs.len(),
        "diff_predictions: {} vs {} rows",
        ours.len(),
        theirs.len()
    );
    let mut diff = BatchDiff {
        rows: ours.len(),
        mismatches: 0,
        first_mismatch: None,
    };
    for (row, (a, b)) in ours.iter().zip(theirs.iter()).enumerate() {
        let same = match (a, b) {
            (Prediction::Class(x), Prediction::Class(y)) => x == y,
            (Prediction::Value(x), Prediction::Value(y)) => x.to_bits() == y.to_bits(),
            _ => false,
        };
        if !same {
            diff.mismatches += 1;
            diff.first_mismatch.get_or_insert(row);
        }
    }
    diff
}

/// Outcome of [`crate::Forest::diff_batch`]: how many rows two models
/// answered differently, bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchDiff {
    /// Rows compared.
    pub rows: usize,
    /// Rows where the predictions differ (class inequality, or value
    /// bit-pattern inequality).
    pub mismatches: usize,
    /// Index of the first differing row, if any.
    pub first_mismatch: Option<usize>,
}

impl BatchDiff {
    /// True when every compared row answered identically.
    pub fn is_clean(&self) -> bool {
        self.mismatches == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{fit, TreeConfig};
    use crate::dataset::Dataset;

    /// Deterministic pseudo-random features without pulling in `rand`.
    fn lcg_features(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(1);
        (0..n)
            .map(|_| {
                (0..dims)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 11) as f64 / (1u64 << 53) as f64
                    })
                    .collect()
            })
            .collect()
    }

    fn fitted_classifier(seed: u64) -> DecisionTree {
        let x = lcg_features(400, 4, seed);
        let y: Vec<usize> = x
            .iter()
            .map(|xi| ((xi[0] * 5.0 + xi[2] * 3.0) as usize) % 5)
            .collect();
        let ds = Dataset::classification(x, y, 5).unwrap();
        fit(
            &ds,
            &TreeConfig {
                max_leaf_nodes: 40,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn fitted_regressor(seed: u64) -> DecisionTree {
        let x = lcg_features(300, 3, seed);
        let y: Vec<f64> = x.iter().map(|xi| xi[0] * 2.0 - xi[1]).collect();
        let ds = Dataset::regression(x, y).unwrap();
        fit(
            &ds,
            &TreeConfig {
                max_leaf_nodes: 30,
                criterion: crate::builder::Criterion::Mse,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn assert_predictions_bit_identical(a: Prediction, b: Prediction, label: &str) {
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

    /// The serving backend's core contract: the batched kernel walk is
    /// bit-identical per row to `DecisionTree::predict`, for classifiers
    /// and regressors, at every batch size including 0 and 1.
    #[test]
    fn predict_batch_bit_identical_to_tree_predict() {
        for (tree, dims) in [(fitted_classifier(7), 4), (fitted_regressor(9), 3)] {
            let compiled = CompiledTree::compile(&tree);
            assert_eq!(compiled.kind(), tree.kind());
            for batch in [0usize, 1, 2, 7, 33, 256] {
                let rows = lcg_features(batch, dims, 1000 + batch as u64);
                let flat: Vec<f64> = rows.iter().flatten().copied().collect();
                let batched = compiled.predict_batch(&flat);
                assert_eq!(batched.len(), batch);
                for (row, got) in rows.iter().zip(batched.iter()) {
                    assert_predictions_bit_identical(*got, tree.predict(row), "batch vs tree");
                    assert_predictions_bit_identical(*got, compiled.predict(row), "batch vs one");
                }
            }
        }
    }

    /// NaN-routing parity: `x[f] < thr` is false for NaN, so every
    /// evaluator — `leaf_for`/`predict`, the compiled single-row walk, and
    /// the batched kernel walk — must send a NaN feature to the **right**
    /// child, at every split it reaches.
    #[test]
    fn nan_features_route_right_in_every_evaluator() {
        // A known single-split tree: x[0] < 0.5 -> class 0, else class 1.
        let ds = Dataset::classification(
            vec![vec![0.0], vec![0.1], vec![0.9], vec![1.0]],
            vec![0, 0, 1, 1],
            2,
        )
        .unwrap();
        let tree = fit(&ds, &TreeConfig::default()).unwrap();
        let compiled = CompiledTree::compile(&tree);
        let nan_row = [f64::NAN];
        // NaN fails the `<` test, so it must land in the right (class 1) leaf.
        assert_eq!(tree.predict_class(&nan_row), 1);
        assert_eq!(compiled.predict_class(&nan_row), 1);
        assert_eq!(compiled.predict_batch(&nan_row), vec![Prediction::Class(1)]);
        let split = tree.node(0).split.as_ref().expect("root splits");
        assert_eq!(tree.leaf_for(&nan_row), split.right);

        // And on a deeper fitted tree: every path agrees row-for-row when
        // NaNs are scattered through the features.
        let tree = fitted_classifier(21);
        let compiled = CompiledTree::compile(&tree);
        let mut rows = lcg_features(64, 4, 77);
        for (r, row) in rows.iter_mut().enumerate() {
            row[r % 4] = f64::NAN;
            if r % 3 == 0 {
                row[(r + 2) % 4] = f64::NAN;
            }
        }
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let batched = compiled.predict_batch(&flat);
        for (row, got) in rows.iter().zip(batched.iter()) {
            assert_predictions_bit_identical(*got, tree.predict(row), "NaN batch vs tree");
            assert_predictions_bit_identical(*got, compiled.predict(row), "NaN batch vs one");
            // The decision path itself must only ever take right edges at
            // NaN-featured splits.
            let mut idx = 0usize;
            while let Some(s) = &tree.node(idx).split {
                let went_right = row[s.feature] >= s.threshold || row[s.feature].is_nan();
                if row[s.feature].is_nan() {
                    assert!(went_right, "NaN took a left edge at node {idx}");
                }
                idx = if went_right { s.right } else { s.left };
            }
        }
    }

    /// The shadow-audit primitive: identical trees diff clean on any
    /// traffic (including NaN rows); a perturbed tree reports its
    /// mismatches with a stable first-row index; regressors compare by
    /// bit pattern.
    #[test]
    fn diff_batch_clean_for_identical_trees_and_counts_perturbations() {
        use crate::kernel::Forest;
        let tree = fitted_classifier(13);
        let compiled = Forest::from(tree.clone());
        let mut rows = lcg_features(120, 4, 31);
        for (r, row) in rows.iter_mut().enumerate() {
            if r % 7 == 0 {
                row[r % 4] = f64::NAN;
            }
        }
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let clean = compiled.diff_batch(&Forest::from(tree.clone()), &flat);
        assert_eq!(
            clean,
            BatchDiff {
                rows: 120,
                mismatches: 0,
                first_mismatch: None
            }
        );
        assert!(clean.is_clean());

        // A pruned tree answers differently somewhere on 120 rows.
        let perturbed = Forest::from(crate::prune::prune_to_leaves(&tree, 3));
        let diff = compiled.diff_batch(&perturbed, &flat);
        assert_eq!(diff.rows, 120);
        assert!(
            diff.mismatches > 0,
            "pruning to 3 leaves must change answers"
        );
        let first = diff.first_mismatch.expect("mismatches imply a first row");
        assert_ne!(
            compiled.predict(&rows[first]),
            perturbed.predict(&rows[first]),
            "first_mismatch must point at a genuinely differing row"
        );
        // Symmetry: mismatch counting has no direction.
        assert_eq!(
            perturbed.diff_batch(&compiled, &flat).mismatches,
            diff.mismatches
        );

        // Empty traffic diffs clean trivially.
        assert!(compiled.diff_batch(&perturbed, &[]).is_clean());
    }

    #[test]
    fn diff_batch_compares_regressor_values_by_bit_pattern() {
        use crate::kernel::Forest;
        let tree = fitted_regressor(17);
        let compiled = Forest::from(tree.clone());
        let rows = lcg_features(50, 3, 91);
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        assert!(compiled.diff_batch(&Forest::from(tree), &flat).is_clean());
        let other = Forest::from(fitted_regressor(18));
        let diff = compiled.diff_batch(&other, &flat);
        assert!(diff.mismatches > 0, "different fits must diff");
        // A classifier against a regressor mismatches on every row.
        let classifier = {
            let x = lcg_features(40, 3, 5);
            let y: Vec<usize> = x.iter().map(|xi| usize::from(xi[0] > 0.5)).collect();
            Forest::from(
                fit(
                    &Dataset::classification(x, y, 2).unwrap(),
                    &TreeConfig::default(),
                )
                .unwrap(),
            )
        };
        assert_eq!(compiled.diff_batch(&classifier, &flat).mismatches, 50);
    }

    #[test]
    #[should_panic(expected = "diff_batch")]
    fn diff_batch_rejects_mismatched_feature_widths() {
        use crate::kernel::Forest;
        let a = Forest::from(fitted_classifier(1)); // 4 features
        let b = Forest::from(fitted_regressor(1)); // 3 features
        let _ = a.diff_batch(&b, &[0.0; 12]);
    }

    #[test]
    #[should_panic(expected = "predict_batch_into")]
    fn predict_batch_rejects_misaligned_rows() {
        let tree = fitted_classifier(3);
        let compiled = CompiledTree::compile(&tree);
        let mut out = vec![Prediction::Class(0); 2];
        compiled.predict_batch_into(&[0.0; 7], &mut out);
    }

    /// Rewrite the first `key` field of a tree's JSON to `value` — the
    /// shape of a corrupted or hostile model file.
    fn with_json_edit(tree: &DecisionTree, key: &str, value: usize) -> DecisionTree {
        let json = serde_json::to_string(tree).unwrap();
        let at = json.find(&format!("\"{key}\":")).expect("key present") + key.len() + 3;
        let end = at + json[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        serde_json::from_str(&format!("{}{value}{}", &json[..at], &json[end..])).unwrap()
    }

    fn two_feature_tree() -> DecisionTree {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let y: Vec<usize> = (0..40).map(|i| (i / 8) % 3).collect();
        let ds = Dataset::classification(x, y, 3).unwrap();
        fit(&ds, &TreeConfig::default()).unwrap()
    }

    /// The crashes validation closes. Each malformed tree used to compile,
    /// and the unchecked kernel walk then read out of bounds (SIGSEGV): a
    /// 2-feature tree whose root split was edited to test feature 40000,
    /// and a single-leaf tree edited to take zero features, whose block
    /// walk read the first value of an empty row slice. A single-leaf tree
    /// edited to take 70,000 features (more than the kernel's `u16`
    /// feature ids address) used to pass validation and panic inside the
    /// kernel's table builder. Now `compile` panics with the validation
    /// error in its caller and the forest builder returns `Err`: the
    /// kernel is never reached.
    #[test]
    fn malformed_tree_never_reaches_the_kernel() {
        use crate::kernel::{Forest, ForestError};
        let tree = two_feature_tree();
        assert_eq!(tree.validate(), Ok(()));
        let one_leaf = Dataset::classification(vec![vec![0.5]; 4], vec![1; 4], 2).unwrap();
        let leaf = fit(&one_leaf, &TreeConfig::default()).unwrap();
        assert_eq!((leaf.node_count(), leaf.validate()), (1, Ok(())));
        let out_of_range = TreeError::FeatureOutOfRange {
            node: 0,
            feature: 40000,
            n_features: 2,
        };
        for (bad, error, message_part) in [
            (
                with_json_edit(&tree, "feature", 40000),
                out_of_range,
                "feature 40000",
            ),
            (
                with_json_edit(&leaf, "n_features", 0),
                TreeError::NoFeatures,
                "no features",
            ),
            (
                with_json_edit(&leaf, "n_features", 70_000),
                TreeError::TooManyFeatures { n_features: 70_000 },
                "70000 features",
            ),
        ] {
            assert_eq!(bad.validate(), Err(error.clone()));
            let walked = std::panic::catch_unwind(|| {
                let compiled = CompiledTree::compile(&bad);
                let mut out = vec![Prediction::Class(0); 20];
                compiled.predict_batch_into(&vec![0.5; 20 * bad.n_features()], &mut out);
            });
            let panic = walked.expect_err("compile must refuse the tree");
            let message = panic
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(message.contains(message_part), "{message}");
            assert_eq!(
                Forest::from_trees(&[tree.clone(), bad]).err(),
                Some(ForestError::Invalid { tree: 1, error })
            );
        }
    }

    /// A 1-tree regression forest answers exactly what its tree answers,
    /// sign of zero included: a leaf worth −0.0 (a stored tree can carry
    /// one) must not come back from the forest as +0.0.
    #[test]
    fn one_tree_regression_forest_keeps_negative_zero() {
        use crate::kernel::Forest;
        let leaf = |sum: f64| Node {
            stats: NodeStats::Value {
                w: 4.0,
                sum,
                sumsq: 0.0,
            },
            split: None,
        };
        let root = Node {
            stats: NodeStats::Value {
                w: 8.0,
                sum: 4.0,
                sumsq: 16.0,
            },
            split: Some(Split {
                feature: 0,
                threshold: 0.5,
                left: 1,
                right: 2,
            }),
        };
        let tree = DecisionTree::new(vec![root, leaf(-0.0), leaf(4.0)], TreeKind::Regressor, 1);
        assert_eq!(tree.validate(), Ok(()));
        assert_eq!(tree.predict(&[0.0]).value().to_bits(), (-0.0f64).to_bits());
        let forest = Forest::from_trees(std::slice::from_ref(&tree)).unwrap();
        let rows = [0.0, 1.0];
        let batch = forest.predict_batch(&rows);
        for (x, batched) in rows.iter().zip(batch) {
            let want = tree.predict(&[*x]);
            assert_predictions_bit_identical(forest.predict(&[*x]), want, "scalar forest");
            assert_predictions_bit_identical(batched, want, "batched forest");
        }
    }

    #[test]
    fn validate_names_each_structural_fault() {
        let tree = two_feature_tree();
        assert!(tree.node(0).split.is_some() && tree.node_count() > 3);
        let left = tree.node(0).split.as_ref().unwrap().left;
        assert_eq!(
            with_json_edit(&tree, "left", 999).validate(),
            Err(TreeError::ChildOutOfRange {
                node: 0,
                child: 999
            })
        );
        assert_eq!(
            with_json_edit(&tree, "right", left).validate(),
            Err(TreeError::ReachedTwice { node: left }),
            "shared subtree"
        );
        assert_eq!(
            with_json_edit(&tree, "left", 0).validate(),
            Err(TreeError::ReachedTwice { node: 0 }),
            "cycle through the root"
        );
        let mut orphans = tree.clone();
        orphans.nodes[0].split = None;
        assert_eq!(orphans.validate(), Err(TreeError::Unreachable { node: 1 }));
        let mut one_class = tree.clone();
        one_class.kind = TreeKind::Classifier { n_classes: 1 };
        assert!(matches!(
            one_class.validate(),
            Err(TreeError::ClassOutOfRange { n_classes: 1, .. })
        ));
        let mut regressor = tree.clone();
        regressor.kind = TreeKind::Regressor;
        assert!(matches!(
            regressor.validate(),
            Err(TreeError::KindMismatch { .. })
        ));
        let mut empty = tree;
        empty.nodes.clear();
        assert_eq!(empty.validate(), Err(TreeError::Empty));
    }
}
