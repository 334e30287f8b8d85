//! CART construction with weighted samples and best-first growth.
//!
//! Growth is *best-first* (highest impurity decrease next), matching
//! scikit-learn's behaviour under `max_leaf_nodes` — the knob Table 4 of the
//! paper sets to 200 (Pensieve) and 2000 (AuTO agents).
//!
//! Five optimizations over the naive splitter (which re-sorted every
//! node's samples for every feature):
//!
//! * **Sort-once presorting** — per-feature sorted sample indices are built
//!   once at the root and *partitioned* (order-preserving) into the child
//!   nodes at every split, so no sort ever runs below the root.
//! * **Radix presort** — the root sort itself is a stable LSD radix sort
//!   of order-preserving `u64` keys, one per feature column, starting from
//!   row order and skipping every byte pass in which all keys agree. Its
//!   key pass is also where a NaN feature is caught
//!   ([`FitError::NanFeature`]).
//! * **Lane split scan** — a feature's presorted list is walked in chunks
//!   of eight positions. Lane `l` of a chunk holds the left/right
//!   statistics after position `k0 + l` (the running totals broadcast to
//!   every lane, then each row added into the lanes at and after its
//!   position), and all eight boundaries' impurities are evaluated
//!   together, so no boundary waits on the latency of another's sums.
//!   Chunks without a boundary between distinct values skip the
//!   evaluation. Labels are read from a flat `u32` array built once per
//!   fit.
//! * **Parallel split search** — the per-node scan over features fans out
//!   across threads ([`TreeConfig::threads`]); the reduction picks the
//!   best gain with the same tie-breaking (lowest feature index first) as
//!   a sequential scan, so the fitted tree is identical for any thread
//!   count.
//! * **Frontier-parallel growth** — when feature-parallelism is narrower
//!   than the worker count (ABR's ~25 dims vs a many-core pool), the
//!   builder speculatively *expands* one heap candidate per thread
//!   concurrently: each expansion precomputes the partition, child
//!   statistics, and child best splits for one candidate. Expansions are
//!   pure functions of their candidate, and splits are still *applied*
//!   strictly in heap-pop order by the sequential main loop, so the fitted
//!   tree is bit-identical for any thread count — the only cost of
//!   speculation is wasted work on candidates the leaf budget never
//!   reaches.
//!
//! **Why the radix presort and the lane scan change no bit of any tree.**
//! Keys fold −0.0 onto +0.0 and otherwise order exactly as the values
//! compare, and a stable sort from row order leaves ties in ascending row
//! index: the (value, row index) order of a comparison sort, for every
//! NaN-free input. Each lane adds the same weights to the same running
//! totals in the same row order as a one-row-at-a-time sweep, and its
//! impurity comes from the one function the node statistics also use,
//! which sums every lane's classes in class order from −0.0 as
//! `Iterator::sum` does. No addition is reordered or fused, so every
//! gain, and therefore every winning split (first in position order under
//! a strict `>`), is the one the row-at-a-time scan found.

use crate::dataset::{Dataset, Targets};
use crate::tree::{DecisionTree, Node, NodeStats, Split, TreeKind};
use std::array;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Resolve a thread-count knob: 0 means "all available cores".
pub(crate) fn resolve_threads(requested: usize) -> usize {
    metis_nn::par::resolve_threads(requested)
}

/// Minimum `samples x features` product for a node before the split scan
/// fans out across threads (below it, spawn overhead dominates).
const PAR_SPLIT_THRESHOLD: usize = 16 * 1024;

/// Boundaries the split scan evaluates together: lane `l` of a chunk
/// holds the statistics after the chunk's `l`-th position.
const SCAN_LANES: usize = 8;

/// Minimum weighted impurity decrease for a split to be considered; a
/// node whose weighted impurity is at most this is treated as pure.
const MIN_GAIN: f64 = 1e-12;

/// Split quality criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Gini impurity (classification default).
    Gini,
    /// Shannon entropy (classification).
    Entropy,
    /// Variance reduction (regression; the only valid choice there).
    Mse,
}

/// Tree-growing configuration. Defaults mirror the paper's setup.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum number of leaves (best-first growth stops here).
    pub max_leaf_nodes: usize,
    /// Optional depth cap (root has depth 0).
    pub max_depth: Option<usize>,
    /// Minimum number of samples in each child of a split.
    pub min_samples_leaf: usize,
    pub criterion: Criterion,
    /// Threads for the per-node split search and the frontier-parallel
    /// grower (0 = all available cores), which expands as many heap
    /// candidates at once as there are threads. The fitted tree is
    /// identical for every thread count.
    pub threads: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_leaf_nodes: 200,
            max_depth: None,
            min_samples_leaf: 1,
            criterion: Criterion::Gini,
            threads: 0,
        }
    }
}

impl TreeConfig {
    pub fn with_max_leaves(max_leaf_nodes: usize) -> Self {
        TreeConfig {
            max_leaf_nodes,
            ..Default::default()
        }
    }
}

/// Errors raised by [`fit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// MSE requested on classification targets or Gini/Entropy on regression.
    CriterionMismatch,
    /// `max_leaf_nodes` must be at least 1.
    NoLeavesAllowed,
    /// A feature value is NaN, which has no place in a split order. The
    /// [`Dataset`] constructors reject it too
    /// ([`crate::DatasetError::NanFeature`]); this catches datasets built
    /// as struct literals. Infinite values are accepted.
    NanFeature,
    /// The rows have zero features, so no split can be tested. The
    /// [`Dataset`] constructors reject them too
    /// ([`crate::DatasetError::NoFeatures`]).
    NoFeatures,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::CriterionMismatch => write!(f, "criterion does not match target type"),
            FitError::NoLeavesAllowed => write!(f, "max_leaf_nodes must be >= 1"),
            FitError::NanFeature => write!(f, "feature value is NaN"),
            FitError::NoFeatures => write!(f, "feature rows are empty"),
        }
    }
}

impl std::error::Error for FitError {}

/// Accumulated target statistics for a sample subset.
#[derive(Clone)]
enum Acc {
    Class(Vec<f64>),
    Value { w: f64, sum: f64, sumsq: f64 },
}

impl Acc {
    fn empty_like(ds: &Dataset) -> Acc {
        match &ds.y {
            Targets::Class { n_classes, .. } => Acc::Class(vec![0.0; *n_classes]),
            Targets::Value(_) => Acc::Value {
                w: 0.0,
                sum: 0.0,
                sumsq: 0.0,
            },
        }
    }

    fn add(&mut self, ds: &Dataset, i: usize, sign: f64) {
        let w = ds.w[i] * sign;
        match self {
            Acc::Class(h) => h[ds.label(i).unwrap()] += w,
            Acc::Value { w: tw, sum, sumsq } => {
                let y = ds.value(i).unwrap();
                *tw += w;
                *sum += w * y;
                *sumsq += w * y * y;
            }
        }
    }

    fn from_indices(ds: &Dataset, idx: &[u32]) -> Acc {
        let mut acc = Acc::empty_like(ds);
        for &i in idx {
            acc.add(ds, i as usize, 1.0);
        }
        acc
    }

    fn weight(&self) -> f64 {
        match self {
            Acc::Class(h) => h.iter().sum(),
            Acc::Value { w, .. } => *w,
        }
    }

    /// Weighted impurity contribution: `weight * impurity`.
    /// For Gini: W * (1 - Σ p²); entropy: W * (-Σ p ln p); MSE: SSE.
    fn weighted_impurity(&self, criterion: Criterion) -> f64 {
        match self {
            Acc::Class(h) => class_impurity(criterion, h.as_chunks::<1>().0)[0],
            Acc::Value { w, sum, sumsq } => value_impurity([*w], [*sum], [*sumsq])[0],
        }
    }

    fn into_stats(self) -> NodeStats {
        match self {
            Acc::Class(dist) => NodeStats::Class { dist },
            Acc::Value { w, sum, sumsq } => NodeStats::Value { w, sum, sumsq },
        }
    }
}

/// Weighted impurity of `N` class histograms stored class-major
/// (`hist[c][lane]`): Gini `W - Σ c² / W`, or entropy `-Σ c ln(c / W)`
/// over the positive classes, where `W` is the histogram's sum. Every
/// lane sums its classes in class order starting from −0.0, as
/// `Iterator::sum` does, so a one-lane call is [`Acc`]'s scalar formula
/// and each lane of a wider call is bit-identical to it.
fn class_impurity<const N: usize>(criterion: Criterion, hist: &[[f64; N]]) -> [f64; N] {
    let mut w = [-0.0; N];
    let mut acc = [-0.0; N];
    match criterion {
        Criterion::Gini => {
            for h in hist {
                for l in 0..N {
                    w[l] += h[l];
                    acc[l] += h[l] * h[l];
                }
            }
            array::from_fn(|l| {
                if w[l] <= 0.0 {
                    0.0
                } else {
                    w[l] - acc[l] / w[l]
                }
            })
        }
        Criterion::Entropy => {
            for h in hist {
                for l in 0..N {
                    w[l] += h[l];
                }
            }
            for h in hist {
                for l in 0..N {
                    if h[l] > 0.0 {
                        acc[l] += h[l] * (h[l] / w[l]).ln();
                    }
                }
            }
            array::from_fn(|l| if w[l] <= 0.0 { 0.0 } else { -acc[l] })
        }
        Criterion::Mse => unreachable!("criterion/target mismatch checked in fit"),
    }
}

/// Weighted MSE impurity (the SSE `Σ wy² - (Σ wy)² / Σ w`, floored at 0)
/// of `N` lanes of regression moments; a one-lane call is [`Acc`]'s
/// scalar formula.
fn value_impurity<const N: usize>(w: [f64; N], sum: [f64; N], sumsq: [f64; N]) -> [f64; N] {
    array::from_fn(|l| {
        if w[l] <= 0.0 {
            0.0
        } else {
            (sumsq[l] - sum[l] * sum[l] / w[l]).max(0.0)
        }
    })
}

/// The best split found for a candidate node.
struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
}

/// A pending (not-yet-split) node in the best-first frontier.
///
/// Besides the member indices (kept in root-relative order so weighted
/// statistics accumulate exactly as a sequential builder would), each
/// candidate carries its *presorted* per-feature index lists, inherited by
/// order-preserving partition from its parent — no per-node sorting.
struct Candidate {
    node_idx: usize,
    indices: Vec<u32>,
    orders: Vec<Vec<u32>>,
    depth: usize,
    best: BestSplit,
    /// Precomputed split application, attached by the frontier-parallel
    /// expander. Never participates in the heap order, so attaching it
    /// cannot change which candidate pops next.
    expansion: Option<Box<Expansion>>,
}

/// Everything needed to apply a candidate's best split: the partition,
/// both children's statistics, and both children's own best splits. An
/// expansion is a **pure function** of its candidate (plus the dataset
/// and config), so it can be computed speculatively and in parallel
/// without changing the fitted tree: the sequential main loop still
/// applies splits strictly in heap-pop order.
struct Expansion {
    left: ChildData,
    right: ChildData,
}

/// One side of an applied split.
struct ChildData {
    indices: Vec<u32>,
    acc: Acc,
    /// The child's partitioned per-feature order lists and its best
    /// split — present only when the child may grow further (depth cap
    /// not reached and a qualifying split exists).
    grow: Option<(Vec<Vec<u32>>, BestSplit)>,
}

/// One fit's read-only inputs, shared by every expansion and split scan.
struct Grower<'a> {
    ds: &'a Dataset,
    config: &'a TreeConfig,
    threads: usize,
    /// Class labels flattened to `u32` once per fit, so the split scan
    /// reads a label without matching on [`Targets`] per row; empty for
    /// regression.
    labels: Vec<u32>,
}

impl Grower<'_> {
    /// Best split over `orders`, the presorted lists of the features
    /// `first..first + orders.len()`, scanned in order with one sweep.
    fn scan_features(
        &self,
        first: usize,
        orders: &[Vec<u32>],
        parent: &Acc,
        parent_imp: f64,
    ) -> Option<BestSplit> {
        fn run<S: Sweep>(
            g: &Grower,
            first: usize,
            orders: &[Vec<u32>],
            parent: &Acc,
            parent_imp: f64,
            mut sweep: S,
        ) -> Option<BestSplit> {
            let mut best: Option<BestSplit> = None;
            for (off, order) in orders.iter().enumerate() {
                sweep.reset(parent);
                let found =
                    scan_feature(g.ds, first + off, order, parent_imp, g.config, &mut sweep);
                best = better(best, found);
            }
            best
        }
        match &self.ds.y {
            Targets::Class { n_classes, .. } => {
                let sweep = ClassSweep::new(&self.labels, &self.ds.w, *n_classes);
                run(self, first, orders, parent, parent_imp, sweep)
            }
            Targets::Value(y) => {
                let sweep = ValueSweep {
                    y,
                    w: &self.ds.w,
                    sides: [[0.0; 3]; 2],
                };
                run(self, first, orders, parent, parent_imp, sweep)
            }
        }
    }
}

std::thread_local! {
    /// Per-thread membership mark for order-list partitioning. Expansions
    /// run concurrently on pool workers, so the scratch cannot live in
    /// `fit`'s stack frame; each worker sets, uses, and clears its own
    /// buffer with **no pool calls inside the marked window**, so nested
    /// work-stealing can never observe another expansion's marks.
    static LEFT_MARK: std::cell::RefCell<Vec<bool>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Expand one candidate: partition its members and order lists, build the
/// child statistics, and find the children's best splits. Deterministic
/// given `(ds, config, cand)` — thread count only changes how fast the
/// child split scans run, not what they return.
fn expand(g: &Grower, cand: &Candidate) -> Expansion {
    let ds = g.ds;
    let (left_idx, right_idx) = partition_by(ds, &cand.indices, &cand.best);
    debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());
    let children_may_grow = g.config.max_depth.is_none_or(|m| cand.depth + 1 < m);

    // Partition every presorted feature list (order-preserving, so
    // children never re-sort), reusing the split predicate via the
    // per-thread membership mark. Skipped entirely under a depth cap that
    // forbids the children from splitting again.
    let (left_orders, right_orders) = if children_may_grow {
        LEFT_MARK.with(|mark| {
            let mut mark = mark.borrow_mut();
            if mark.len() < ds.len() {
                mark.resize(ds.len(), false);
            }
            for &i in &left_idx {
                mark[i as usize] = true;
            }
            let mut left_orders = Vec::with_capacity(cand.orders.len());
            let mut right_orders = Vec::with_capacity(cand.orders.len());
            for order in &cand.orders {
                let (lo, ro) = partition_by_mark(&mark, order, left_idx.len());
                left_orders.push(lo);
                right_orders.push(ro);
            }
            for &i in &left_idx {
                mark[i as usize] = false;
            }
            (left_orders, right_orders)
        })
    } else {
        (Vec::new(), Vec::new())
    };

    let left_acc = Acc::from_indices(ds, &left_idx);
    let right_acc = Acc::from_indices(ds, &right_idx);
    debug_assert!(left_acc.weight() > 0.0 && right_acc.weight() > 0.0);

    let grow_of = |orders: Vec<Vec<u32>>, acc: &Acc| {
        if !children_may_grow {
            return None;
        }
        best_split(g, &orders, acc).map(|b| (orders, b))
    };
    let left_grow = grow_of(left_orders, &left_acc);
    let right_grow = grow_of(right_orders, &right_acc);
    Expansion {
        left: ChildData {
            indices: left_idx,
            acc: left_acc,
            grow: left_grow,
        },
        right: ChildData {
            indices: right_idx,
            acc: right_acc,
            grow: right_grow,
        },
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on gain; ties broken by node index for determinism.
        // `total_cmp` (not `partial_cmp(..).unwrap_or(Equal)`): a NaN gain
        // made NaN compare "equal" to *everything* while finite gains
        // still ordered, violating the Ord contract and silently
        // scrambling `BinaryHeap` pop order. Under the IEEE total order a
        // positive NaN simply sorts above +inf and transitivity holds.
        self.best
            .gain
            .total_cmp(&other.best.gain)
            .then_with(|| other.node_idx.cmp(&self.node_idx))
    }
}

/// Left/right target statistics swept along one presorted feature list,
/// a chunk of [`SCAN_LANES`] positions at a time.
trait Sweep {
    /// Start a feature with every member on the right.
    fn reset(&mut self, parent: &Acc);
    /// Gains of the boundaries after each of `rows` (lane `l`: after
    /// `rows[l]`; lanes past `rows.len()` hold junk), leaving the running
    /// statistics as they are.
    fn gains(&mut self, rows: &[u32], parent_imp: f64, criterion: Criterion) -> [f64; SCAN_LANES];
    /// Move `rows` from the right side to the left, in order.
    fn advance(&mut self, rows: &[u32]);
}

/// Class histograms for Gini and entropy scans.
struct ClassSweep<'a> {
    labels: &'a [u32],
    w: &'a [f64],
    left: Vec<f64>,
    right: Vec<f64>,
    /// Per-lane histograms of both sides, class-major: `lanes[c][l]` is
    /// the left side after lane `l`'s row and `lanes[c][SCAN_LANES + l]`
    /// the right side, so one impurity call evaluates all sixteen.
    lanes: Vec<[f64; 2 * SCAN_LANES]>,
}

impl<'a> ClassSweep<'a> {
    fn new(labels: &'a [u32], w: &'a [f64], n_classes: usize) -> Self {
        ClassSweep {
            labels,
            w,
            left: vec![0.0; n_classes],
            right: vec![0.0; n_classes],
            lanes: vec![[0.0; 2 * SCAN_LANES]; n_classes],
        }
    }
}

impl Sweep for ClassSweep<'_> {
    fn reset(&mut self, parent: &Acc) {
        let Acc::Class(h) = parent else {
            unreachable!("class sweep over regression statistics")
        };
        self.left.fill(0.0);
        self.right.copy_from_slice(h);
    }

    fn gains(&mut self, rows: &[u32], parent_imp: f64, criterion: Criterion) -> [f64; SCAN_LANES] {
        // Broadcast the running totals to every lane, then add each row
        // into the lanes at and after its position: per lane, the same
        // additions in the same order as a row-at-a-time sweep.
        for (h, (&left, &right)) in self.lanes.iter_mut().zip(self.left.iter().zip(&self.right)) {
            *h = array::from_fn(|l| if l < SCAN_LANES { left } else { right });
        }
        for (j, &i) in rows.iter().enumerate() {
            let h = &mut self.lanes[self.labels[i as usize] as usize];
            let w = self.w[i as usize];
            for l in j..SCAN_LANES {
                h[l] += w;
                h[SCAN_LANES + l] -= w;
            }
        }
        let imp = class_impurity(criterion, &self.lanes);
        array::from_fn(|l| parent_imp - imp[l] - imp[SCAN_LANES + l])
    }

    fn advance(&mut self, rows: &[u32]) {
        for &i in rows {
            let c = self.labels[i as usize] as usize;
            let w = self.w[i as usize];
            self.left[c] += w;
            self.right[c] -= w;
        }
    }
}

/// Regression moments `(Σ w, Σ wy, Σ wy²)` for MSE scans.
struct ValueSweep<'a> {
    y: &'a [f64],
    w: &'a [f64],
    /// Running left and right moments.
    sides: [[f64; 3]; 2],
}

impl ValueSweep<'_> {
    /// Move row `i` from the right moments of `sides` to the left ones,
    /// multiplying in [`Acc::add`]'s order.
    fn shift(&self, sides: &mut [[f64; 3]; 2], i: u32) {
        let (w, y) = (self.w[i as usize], self.y[i as usize]);
        let [left, right] = sides;
        for ((l, r), m) in left
            .iter_mut()
            .zip(right.iter_mut())
            .zip([w, w * y, w * y * y])
        {
            *l += m;
            *r -= m;
        }
    }
}

impl Sweep for ValueSweep<'_> {
    fn reset(&mut self, parent: &Acc) {
        let Acc::Value { w, sum, sumsq } = *parent else {
            unreachable!("value sweep over class statistics")
        };
        self.sides = [[0.0; 3], [w, sum, sumsq]];
    }

    fn gains(&mut self, rows: &[u32], parent_imp: f64, _: Criterion) -> [f64; SCAN_LANES] {
        // Three moments make lanes a plain prefix: the running totals
        // after each row, by side, moment and lane.
        let mut sides = self.sides;
        let mut lanes = [[[0.0; SCAN_LANES]; 3]; 2];
        for lane in 0..SCAN_LANES {
            if let Some(&i) = rows.get(lane) {
                self.shift(&mut sides, i);
            }
            for (side_lanes, side) in lanes.iter_mut().zip(&sides) {
                for (moment_lanes, &moment) in side_lanes.iter_mut().zip(side) {
                    moment_lanes[lane] = moment;
                }
            }
        }
        let [[lw, ls, lq], [rw, rs, rq]] = lanes;
        let left = value_impurity(lw, ls, lq);
        let right = value_impurity(rw, rs, rq);
        array::from_fn(|l| parent_imp - left[l] - right[l])
    }

    fn advance(&mut self, rows: &[u32]) {
        let mut sides = self.sides;
        for &i in rows {
            self.shift(&mut sides, i);
        }
        self.sides = sides;
    }
}

/// Threshold between adjacent distinct values `v < v_next`: their
/// midpoint, or `v_next` when the midpoint collapses onto `v` in floating
/// point (such a split would send everything right).
fn midpoint(v: f64, v_next: f64) -> f64 {
    let threshold = v + (v_next - v) / 2.0;
    if threshold > v {
        threshold
    } else {
        v_next
    }
}

/// Scan one feature's presorted index list for its best boundary split,
/// [`SCAN_LANES`] positions per chunk. The boundary after position `k`
/// (left = `order[..=k]`) qualifies when the values on either side
/// differ and both sides keep `min_samples_leaf` rows; the first of the
/// highest gains in position order wins, as in a row-at-a-time scan.
fn scan_feature<S: Sweep>(
    ds: &Dataset,
    f: usize,
    order: &[u32],
    parent_imp: f64,
    config: &TreeConfig,
    sweep: &mut S,
) -> Option<BestSplit> {
    let n = order.len();
    // `best_split` guarantees n >= 2 * max(min_samples_leaf, 1).
    let first = config.min_samples_leaf.saturating_sub(1);
    let last = n - 1 - config.min_samples_leaf.max(1);
    sweep.advance(&order[..first]);

    let value = |k: usize| ds.x[order[k] as usize][f];
    let mut best: Option<BestSplit> = None;
    // v[l] is the value at position k0 + l, for l in 0..=m.
    let mut v = [0.0; SCAN_LANES + 1];
    v[0] = value(first);
    let mut k0 = first;
    while k0 <= last {
        let m = (last + 1 - k0).min(SCAN_LANES);
        let mut boundary = [false; SCAN_LANES];
        for l in 0..m {
            v[l + 1] = value(k0 + l + 1);
            boundary[l] = v[l + 1] > v[l];
        }
        let rows = &order[k0..k0 + m];
        if boundary.contains(&true) {
            let gains = sweep.gains(rows, parent_imp, config.criterion);
            for l in 0..m {
                let gain = gains[l];
                if boundary[l] && gain > MIN_GAIN && best.as_ref().is_none_or(|b| gain > b.gain) {
                    best = Some(BestSplit {
                        feature: f,
                        threshold: midpoint(v[l], v[l + 1]),
                        gain,
                    });
                }
            }
        }
        sweep.advance(rows);
        v[0] = v[m];
        k0 += m;
    }
    best
}

/// Keep the better of two per-feature results, breaking gain ties toward
/// the lower feature index — the same winner a sequential `for f in 0..F`
/// scan with a strict `gain > best.gain` update would pick.
fn better(a: Option<BestSplit>, b: Option<BestSplit>) -> Option<BestSplit> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(x), Some(y)) => {
            // `x` always comes from a lower feature index than `y`.
            debug_assert!(x.feature < y.feature);
            if y.gain > x.gain {
                Some(y)
            } else {
                Some(x)
            }
        }
    }
}

/// Find the best split over all features using the candidate's presorted
/// per-feature index lists, fanning the feature scan across threads when
/// the node is large enough to amortize the spawns.
fn best_split(g: &Grower, orders: &[Vec<u32>], parent: &Acc) -> Option<BestSplit> {
    let config = g.config;
    let n = orders[0].len();
    if n < 2 * config.min_samples_leaf.max(1) {
        return None;
    }
    let parent_imp = parent.weighted_impurity(config.criterion);
    if parent_imp <= MIN_GAIN {
        return None; // already pure
    }
    let n_features = g.ds.n_features();
    let workers = g.threads.min(n_features);
    if workers <= 1 || n * n_features < PAR_SPLIT_THRESHOLD {
        return g.scan_features(0, orders, parent, parent_imp);
    }
    // Contiguous feature chunks on the persistent worker pool, reduced in
    // ascending order so the tie-breaking matches the sequential scan
    // exactly. `lo` is clamped: with ceil-divided chunks a late worker's
    // start can exceed `n_features` (e.g. 5 features over 4 workers), and
    // the unclamped slice would panic.
    let chunk = n_features.div_ceil(workers);
    let per_chunk = metis_nn::par::parallel_map_indexed(workers, workers, |w| {
        let lo = (w * chunk).min(n_features);
        let hi = ((w + 1) * chunk).min(n_features);
        g.scan_features(lo, &orders[lo..hi], parent, parent_imp)
    });
    per_chunk.into_iter().fold(None, better)
}

/// Order-preserving `u64` key of a non-NaN `f64`: keys compare as
/// unsigned integers exactly as the values compare, with −0.0 folded
/// onto +0.0 because the two compare equal.
fn sort_key(v: f64) -> u64 {
    let bits = if v == 0.0 { 0 } else { v.to_bits() };
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Build the root's per-feature sorted index lists. Each feature column
/// is stably LSD-radix-sorted on [`sort_key`], a byte per pass, starting
/// from row order, so ties stay in ascending row index: the (value, row
/// index) order of a comparison sort. A pass is skipped when every key
/// has the same byte there. The key pass reads every value, so it is
/// also where a NaN feature is rejected.
fn presort(ds: &Dataset) -> Result<Vec<Vec<u32>>, FitError> {
    let n = ds.len();
    let mut keys = vec![0u64; n];
    let mut keys_out = vec![0u64; n];
    let mut rows_out = vec![0u32; n];
    (0..ds.n_features())
        .map(|f| {
            let mut counts = [[0u32; 256]; 8];
            for (key, row) in keys.iter_mut().zip(&ds.x) {
                let v = row[f];
                if v.is_nan() {
                    return Err(FitError::NanFeature);
                }
                *key = sort_key(v);
                for (byte, count) in counts.iter_mut().enumerate() {
                    count[(*key >> (8 * byte)) as u8 as usize] += 1;
                }
            }
            let mut order: Vec<u32> = (0..n as u32).collect();
            for (byte, count) in counts.iter().enumerate() {
                let shift = 8 * byte;
                if count[(keys[0] >> shift) as u8 as usize] as usize == n {
                    continue; // every key has this byte: the pass keeps the order
                }
                let mut next = [0u32; 256];
                let mut start = 0;
                for (slot, &c) in next.iter_mut().zip(count) {
                    *slot = start;
                    start += c;
                }
                for (&key, &row) in keys.iter().zip(&order) {
                    let slot = &mut next[(key >> shift) as u8 as usize];
                    keys_out[*slot as usize] = key;
                    rows_out[*slot as usize] = row;
                    *slot += 1;
                }
                std::mem::swap(&mut keys, &mut keys_out);
                std::mem::swap(&mut order, &mut rows_out);
            }
            Ok(order)
        })
        .collect()
}

/// Partition an index list by the split predicate, preserving order.
fn partition_by(ds: &Dataset, idx: &[u32], split: &BestSplit) -> (Vec<u32>, Vec<u32>) {
    let mut left = Vec::new();
    let mut right = Vec::new();
    for &i in idx {
        if ds.x[i as usize][split.feature] < split.threshold {
            left.push(i);
        } else {
            right.push(i);
        }
    }
    (left, right)
}

/// Partition an index list by a precomputed membership mark, preserving
/// order — the per-feature order lists reuse the predicate evaluated once
/// in [`partition_by`] instead of re-testing `F` times per split.
/// `n_left` is the number of marked members. Branch-free: each index is
/// written to the next slot of both sides and only its own side advances,
/// so a mixed mark costs no mispredictions.
fn partition_by_mark(mark: &[bool], idx: &[u32], n_left: usize) -> (Vec<u32>, Vec<u32>) {
    let n_right = idx.len() - n_left;
    // One spare slot per side takes the write that does not advance.
    let mut left = vec![0u32; n_left + 1];
    let mut right = vec![0u32; n_right + 1];
    let (mut l, mut r) = (0, 0);
    for &i in idx {
        let to_left = usize::from(mark[i as usize]);
        left[l] = i;
        right[r] = i;
        l += to_left;
        r += 1 - to_left;
    }
    left.truncate(n_left);
    right.truncate(n_right);
    (left, right)
}

/// Fit a CART tree to a weighted dataset.
///
/// Fails with [`FitError::NanFeature`] if any feature value is NaN, and
/// with [`FitError::NoFeatures`] if the rows are empty.
pub fn fit(ds: &Dataset, config: &TreeConfig) -> Result<DecisionTree, FitError> {
    match (&ds.y, config.criterion) {
        (Targets::Class { .. }, Criterion::Gini | Criterion::Entropy) => {}
        (Targets::Value(_), Criterion::Mse) => {}
        _ => return Err(FitError::CriterionMismatch),
    }
    if config.max_leaf_nodes == 0 {
        return Err(FitError::NoLeavesAllowed);
    }
    if ds.x.first().is_some_and(Vec::is_empty) {
        return Err(FitError::NoFeatures);
    }
    let orders = presort(ds)?;

    let (kind, labels) = match &ds.y {
        Targets::Class { n_classes, labels } => (
            TreeKind::Classifier {
                n_classes: *n_classes,
            },
            labels.iter().map(|&l| l as u32).collect(),
        ),
        Targets::Value(_) => (TreeKind::Regressor, Vec::new()),
    };
    let threads = resolve_threads(config.threads);
    let g = Grower {
        ds,
        config,
        threads,
        labels,
    };

    let all: Vec<u32> = (0..ds.len() as u32).collect();
    let root_acc = Acc::from_indices(ds, &all);
    let mut nodes = vec![Node {
        stats: root_acc.clone().into_stats(),
        split: None,
    }];

    let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
    let depth_ok = |d: usize| config.max_depth.is_none_or(|m| d < m);
    if depth_ok(0) {
        if let Some(best) = best_split(&g, &orders, &root_acc) {
            heap.push(Candidate {
                node_idx: 0,
                indices: all,
                orders,
                depth: 0,
                best,
                expansion: None,
            });
        }
    }

    let mut n_leaves = 1usize;
    while n_leaves < config.max_leaf_nodes {
        let Some(mut cand) = heap.pop() else { break };

        if cand.expansion.is_none() {
            if threads <= 1 {
                cand.expansion = Some(Box::new(expand(&g, &cand)));
            } else {
                // Frontier-parallel expansion: gather up to `threads`
                // unexpanded candidates (never more than the remaining
                // leaf budget could apply — anything beyond is guaranteed
                // waste), parking already-expanded ones, expand the batch
                // on the pool, and push everything back. The heap key
                // ignores expansions, so the re-pop surfaces the same
                // best candidate — now expanded — and the `continue`
                // applies it through the sequential path below. Splits
                // therefore apply in exactly the heap-pop order of a
                // one-thread build, and the tree is bit-identical for
                // any thread count.
                let want = threads.min(config.max_leaf_nodes - n_leaves);
                let mut batch = vec![cand];
                let mut parked = Vec::new();
                while batch.len() < want {
                    match heap.pop() {
                        Some(c) if c.expansion.is_none() => batch.push(c),
                        Some(c) => parked.push(c),
                        None => break,
                    }
                }
                let expansions = metis_nn::par::parallel_map_indexed(batch.len(), threads, |b| {
                    Box::new(expand(&g, &batch[b]))
                });
                for (mut c, e) in batch.into_iter().zip(expansions) {
                    c.expansion = Some(e);
                    heap.push(c);
                }
                for c in parked {
                    heap.push(c);
                }
                continue;
            }
        }

        // Apply the (pre)computed expansion — the only place the tree is
        // mutated, strictly in heap-pop order.
        let Candidate {
            node_idx,
            depth,
            best,
            expansion,
            ..
        } = cand;
        let Expansion { left, right } = *expansion.expect("expanded above");

        let left_node = nodes.len();
        nodes.push(Node {
            stats: left.acc.into_stats(),
            split: None,
        });
        let right_node = nodes.len();
        nodes.push(Node {
            stats: right.acc.into_stats(),
            split: None,
        });
        nodes[node_idx].split = Some(Split {
            feature: best.feature,
            threshold: best.threshold,
            left: left_node,
            right: right_node,
        });
        n_leaves += 1;

        if let Some((orders, b)) = left.grow {
            heap.push(Candidate {
                node_idx: left_node,
                indices: left.indices,
                orders,
                depth: depth + 1,
                best: b,
                expansion: None,
            });
        }
        if let Some((orders, b)) = right.grow {
            heap.push(Candidate {
                node_idx: right_node,
                indices: right.indices,
                orders,
                depth: depth + 1,
                best: b,
                expansion: None,
            });
        }
    }

    Ok(DecisionTree::new(nodes, kind, ds.n_features()))
}

/// The pre-refactor splitter, kept verbatim as the parity oracle for the
/// presorted/parallel implementation: per-node re-sorting, sequential
/// feature scan, identical gain and tie-breaking rules.
#[cfg(test)]
mod reference {
    use super::*;

    fn best_split(
        ds: &Dataset,
        idx: &[usize],
        parent: &Acc,
        config: &TreeConfig,
    ) -> Option<BestSplit> {
        if idx.len() < 2 * config.min_samples_leaf.max(1) {
            return None;
        }
        let parent_imp = parent.weighted_impurity(config.criterion);
        if parent_imp <= MIN_GAIN {
            return None; // already pure
        }
        let n_features = ds.n_features();
        let mut best: Option<BestSplit> = None;

        // Reusable sort buffer.
        let mut order: Vec<usize> = idx.to_vec();
        for f in 0..n_features {
            order.sort_unstable_by(|&a, &b| {
                ds.x[a][f]
                    .partial_cmp(&ds.x[b][f])
                    .unwrap_or(Ordering::Equal)
            });
            let mut left = Acc::empty_like(ds);
            let mut right = {
                let u32s: Vec<u32> = idx.iter().map(|&i| i as u32).collect();
                Acc::from_indices(ds, &u32s)
            };
            for k in 0..order.len() - 1 {
                let i = order[k];
                left.add(ds, i, 1.0);
                right.add(ds, i, -1.0);
                let v = ds.x[i][f];
                let v_next = ds.x[order[k + 1]][f];
                if v_next <= v {
                    continue;
                }
                let n_left = k + 1;
                let n_right = order.len() - n_left;
                if n_left < config.min_samples_leaf || n_right < config.min_samples_leaf {
                    continue;
                }
                let gain = parent_imp
                    - left.weighted_impurity(config.criterion)
                    - right.weighted_impurity(config.criterion);
                if gain > MIN_GAIN && best.as_ref().is_none_or(|b| gain > b.gain) {
                    let threshold = v + (v_next - v) / 2.0;
                    let threshold = if threshold > v { threshold } else { v_next };
                    best = Some(BestSplit {
                        feature: f,
                        threshold,
                        gain,
                    });
                }
            }
        }
        best
    }

    struct RefCandidate {
        node_idx: usize,
        indices: Vec<usize>,
        depth: usize,
        best: BestSplit,
    }

    impl PartialEq for RefCandidate {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for RefCandidate {}
    impl PartialOrd for RefCandidate {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for RefCandidate {
        fn cmp(&self, other: &Self) -> Ordering {
            // Same total_cmp fix as `Candidate::cmp`: the oracle heap must
            // honour the Ord contract for NaN gains too.
            self.best
                .gain
                .total_cmp(&other.best.gain)
                .then_with(|| other.node_idx.cmp(&self.node_idx))
        }
    }

    pub fn fit(ds: &Dataset, config: &TreeConfig) -> Result<DecisionTree, FitError> {
        match (&ds.y, config.criterion) {
            (Targets::Class { .. }, Criterion::Gini | Criterion::Entropy) => {}
            (Targets::Value(_), Criterion::Mse) => {}
            _ => return Err(FitError::CriterionMismatch),
        }
        if config.max_leaf_nodes == 0 {
            return Err(FitError::NoLeavesAllowed);
        }

        let kind = match &ds.y {
            Targets::Class { n_classes, .. } => TreeKind::Classifier {
                n_classes: *n_classes,
            },
            Targets::Value(_) => TreeKind::Regressor,
        };

        let all: Vec<usize> = (0..ds.len()).collect();
        let acc_of = |idx: &[usize]| {
            let u32s: Vec<u32> = idx.iter().map(|&i| i as u32).collect();
            Acc::from_indices(ds, &u32s)
        };
        let root_acc = acc_of(&all);
        let mut nodes = vec![Node {
            stats: root_acc.clone().into_stats(),
            split: None,
        }];

        let mut heap: BinaryHeap<RefCandidate> = BinaryHeap::new();
        let depth_ok = |d: usize| config.max_depth.is_none_or(|m| d < m);
        if depth_ok(0) {
            if let Some(best) = best_split(ds, &all, &root_acc, config) {
                heap.push(RefCandidate {
                    node_idx: 0,
                    indices: all,
                    depth: 0,
                    best,
                });
            }
        }

        let mut n_leaves = 1usize;
        while n_leaves < config.max_leaf_nodes {
            let Some(cand) = heap.pop() else { break };
            let RefCandidate {
                node_idx,
                indices,
                depth,
                best,
            } = cand;

            let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
            for &i in &indices {
                if ds.x[i][best.feature] < best.threshold {
                    left_idx.push(i);
                } else {
                    right_idx.push(i);
                }
            }

            let left_acc = acc_of(&left_idx);
            let right_acc = acc_of(&right_idx);

            let left_node = nodes.len();
            nodes.push(Node {
                stats: left_acc.clone().into_stats(),
                split: None,
            });
            let right_node = nodes.len();
            nodes.push(Node {
                stats: right_acc.clone().into_stats(),
                split: None,
            });
            nodes[node_idx].split = Some(Split {
                feature: best.feature,
                threshold: best.threshold,
                left: left_node,
                right: right_node,
            });
            n_leaves += 1;

            if depth_ok(depth + 1) {
                if let Some(b) = best_split(ds, &left_idx, &left_acc, config) {
                    heap.push(RefCandidate {
                        node_idx: left_node,
                        indices: left_idx,
                        depth: depth + 1,
                        best: b,
                    });
                }
                if let Some(b) = best_split(ds, &right_idx, &right_acc, config) {
                    heap.push(RefCandidate {
                        node_idx: right_node,
                        indices: right_idx,
                        depth: depth + 1,
                        best: b,
                    });
                }
            }
        }

        Ok(DecisionTree::new(nodes, kind, ds.n_features()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    fn axis_ds() -> Dataset {
        // Perfectly separable on feature 0 at threshold ~0.5.
        let x = vec![
            vec![0.0, 9.0],
            vec![0.2, 1.0],
            vec![0.4, 8.0],
            vec![0.6, 2.0],
            vec![0.8, 7.0],
            vec![1.0, 3.0],
        ];
        let y = vec![0, 0, 0, 1, 1, 1];
        Dataset::classification(x, y, 2).unwrap()
    }

    #[test]
    fn separable_data_one_split() {
        let ds = axis_ds();
        let tree = fit(&ds, &TreeConfig::default()).unwrap();
        assert_eq!(tree.n_leaves(), 2);
        assert_eq!(tree.depth(), 1);
        let split = tree.node(0).split.as_ref().unwrap();
        assert_eq!(split.feature, 0);
        assert!(split.threshold > 0.4 && split.threshold <= 0.6);
        assert_eq!(tree.predict_class(&[0.1, 5.0]), 0);
        assert_eq!(tree.predict_class(&[0.9, 5.0]), 1);
    }

    #[test]
    fn pure_node_not_split() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![1, 1, 1];
        let ds = Dataset::classification(x, y, 2).unwrap();
        let tree = fit(&ds, &TreeConfig::default()).unwrap();
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict_class(&[5.0]), 1);
    }

    #[test]
    fn max_leaf_nodes_respected() {
        // Checkerboard-ish data that wants many splits.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..64 {
            x.push(vec![i as f64]);
            y.push((i / 4) % 2);
        }
        let ds = Dataset::classification(x, y, 2).unwrap();
        for max in [1, 2, 3, 5, 8] {
            let tree = fit(&ds, &TreeConfig::with_max_leaves(max)).unwrap();
            assert!(
                tree.n_leaves() <= max,
                "asked {max}, got {}",
                tree.n_leaves()
            );
        }
        let big = fit(&ds, &TreeConfig::with_max_leaves(1000)).unwrap();
        // 16 alternating blocks need 16 leaves to classify perfectly.
        assert_eq!(big.n_leaves(), 16);
        for i in 0..64 {
            assert_eq!(big.predict_class(&[i as f64]), (i / 4) % 2);
        }
    }

    #[test]
    fn max_depth_respected() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..32 {
            x.push(vec![i as f64]);
            y.push(i % 2);
        }
        let ds = Dataset::classification(x, y, 2).unwrap();
        let cfg = TreeConfig {
            max_depth: Some(3),
            max_leaf_nodes: 1000,
            ..Default::default()
        };
        let tree = fit(&ds, &cfg).unwrap();
        assert!(tree.depth() <= 3);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let ds = axis_ds();
        let cfg = TreeConfig {
            min_samples_leaf: 4,
            ..Default::default()
        };
        let tree = fit(&ds, &cfg).unwrap();
        // 6 samples cannot form two children of >= 4 samples.
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn entropy_criterion_also_separates() {
        let ds = axis_ds();
        let cfg = TreeConfig {
            criterion: Criterion::Entropy,
            ..Default::default()
        };
        let tree = fit(&ds, &cfg).unwrap();
        assert_eq!(tree.predict_class(&[0.0, 0.0]), 0);
        assert_eq!(tree.predict_class(&[1.0, 0.0]), 1);
    }

    #[test]
    fn criterion_mismatch_rejected() {
        let ds = axis_ds();
        let cfg = TreeConfig {
            criterion: Criterion::Mse,
            ..Default::default()
        };
        assert_eq!(fit(&ds, &cfg).unwrap_err(), FitError::CriterionMismatch);
        let reg = Dataset::regression(vec![vec![0.0]], vec![1.0]).unwrap();
        assert_eq!(
            fit(&reg, &TreeConfig::default()).unwrap_err(),
            FitError::CriterionMismatch
        );
    }

    #[test]
    fn regression_step_function() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        let ds = Dataset::regression(x, y).unwrap();
        let cfg = TreeConfig {
            criterion: Criterion::Mse,
            ..Default::default()
        };
        let tree = fit(&ds, &cfg).unwrap();
        assert_eq!(tree.n_leaves(), 2);
        assert!((tree.predict_value(&[3.0]) - 1.0).abs() < 1e-12);
        assert!((tree.predict_value(&[15.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn weights_shift_majority() {
        // Same features, conflicting labels; weights decide the prediction.
        let x = vec![vec![0.0], vec![0.0], vec![0.0]];
        let y = vec![0, 1, 1];
        let ds = Dataset::classification_weighted(x, y, 2, vec![10.0, 1.0, 1.0]).unwrap();
        let tree = fit(&ds, &TreeConfig::default()).unwrap();
        assert_eq!(tree.predict_class(&[0.0]), 0);
    }

    #[test]
    fn weights_shift_split_choice() {
        // Without weights, feature 1 separates 4/6 correctly and feature 0
        // separates all; both datasets are crafted so that upweighting the
        // samples that disagree on f0 moves the best first split.
        let x = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![2.0, 1.0],
            vec![3.0, 1.0],
        ];
        let y = vec![0, 0, 1, 1];
        let ds = Dataset::classification(x.clone(), y.clone(), 2).unwrap();
        let t = fit(&ds, &TreeConfig::with_max_leaves(2)).unwrap();
        // Both features separate perfectly; gain ties are broken
        // deterministically, so just check it is perfect.
        for (xi, yi) in x.iter().zip(y.iter()) {
            assert_eq!(t.predict_class(xi), *yi);
        }
    }

    #[test]
    fn decision_path_and_proba() {
        let ds = axis_ds();
        let tree = fit(&ds, &TreeConfig::default()).unwrap();
        let path = tree.decision_path(&[0.0, 0.0]);
        assert_eq!(path[0], 0);
        assert_eq!(path.len(), 2);
        let proba = tree.predict_proba(&[0.0, 0.0]).unwrap();
        assert!((proba[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compiled_tree_matches() {
        let ds = axis_ds();
        let tree = fit(&ds, &TreeConfig::default()).unwrap();
        let compiled = crate::tree::CompiledTree::compile(&tree);
        for x in [[0.1, 2.0], [0.5, 3.0], [0.9, 1.0]] {
            assert_eq!(tree.predict_class(&x), compiled.predict_class(&x));
        }
    }

    #[test]
    fn compiled_regression_matches() {
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![i as f64, (i * 7 % 5) as f64])
            .collect();
        let y: Vec<f64> = (0..30).map(|i| (i as f64 * 0.5).sin()).collect();
        let ds = Dataset::regression(x.clone(), y).unwrap();
        let cfg = TreeConfig {
            criterion: Criterion::Mse,
            max_leaf_nodes: 8,
            ..Default::default()
        };
        let tree = fit(&ds, &cfg).unwrap();
        let compiled = crate::tree::CompiledTree::compile(&tree);
        for xi in &x {
            assert!((tree.predict_value(xi) - compiled.predict_value(xi)).abs() < 1e-12);
        }
    }

    /// Deterministic pseudo-random dyadic values (multiples of 1/64): all
    /// impurity accumulations are exact in f64, so the presorted/parallel
    /// splitter and the pre-refactor reference are bit-identical.
    fn dyadic(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 33) % 64) as f64 / 64.0
    }

    fn parity_features(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut s = seed;
        (0..n)
            .map(|_| (0..d).map(|_| dyadic(&mut s)).collect())
            .collect()
    }

    #[test]
    fn parity_with_reference_classification() {
        let x = parity_features(300, 6, 7);
        let y: Vec<usize> = x
            .iter()
            .map(|xi| ((xi[0] * 4.0 + xi[3] * 2.0) as usize).min(4))
            .collect();
        let w: Vec<f64> = (0..x.len()).map(|i| 1.0 + (i % 4) as f64 * 0.25).collect();
        let ds = Dataset::classification_weighted(x.clone(), y, 5, w).unwrap();
        for leaves in [2, 8, 31, 200] {
            let cfg = TreeConfig {
                max_leaf_nodes: leaves,
                ..Default::default()
            };
            let new = fit(&ds, &cfg).unwrap();
            let old = super::reference::fit(&ds, &cfg).unwrap();
            assert_eq!(new, old, "trees diverge at {leaves} leaves");
            for xi in &x {
                assert_eq!(new.predict_class(xi), old.predict_class(xi));
            }
        }
        // Entropy criterion and the threaded scan agree too.
        let cfg = TreeConfig {
            criterion: Criterion::Entropy,
            max_leaf_nodes: 16,
            threads: 4,
            ..Default::default()
        };
        let new = fit(&ds, &cfg).unwrap();
        let old = super::reference::fit(&ds, &cfg).unwrap();
        assert_eq!(new, old);
    }

    #[test]
    fn parity_with_reference_regression() {
        let x = parity_features(250, 4, 13);
        let y: Vec<f64> = x.iter().map(|xi| xi[1] * 2.0 - xi[2] + 0.25).collect();
        let ds = Dataset::regression(x.clone(), y).unwrap();
        for leaves in [2, 10, 64] {
            let cfg = TreeConfig {
                criterion: Criterion::Mse,
                max_leaf_nodes: leaves,
                min_samples_leaf: 3,
                ..Default::default()
            };
            let new = fit(&ds, &cfg).unwrap();
            let old = super::reference::fit(&ds, &cfg).unwrap();
            assert_eq!(new, old, "regression trees diverge at {leaves} leaves");
            for xi in &x {
                assert_eq!(
                    new.predict_value(xi).to_bits(),
                    old.predict_value(xi).to_bits()
                );
            }
        }
    }

    #[test]
    fn threaded_fit_identical_to_sequential() {
        // Large enough (samples x features > PAR_SPLIT_THRESHOLD) that the
        // scan genuinely fans out across threads near the root.
        let x = parity_features(3000, 8, 21);
        assert!(x.len() * x[0].len() > super::PAR_SPLIT_THRESHOLD);
        let y: Vec<usize> = x
            .iter()
            .map(|xi| ((xi[0] + xi[7]) * 3.0) as usize % 6)
            .collect();
        let ds = Dataset::classification(x, y, 6).unwrap();
        let fit_with = |threads: usize| {
            fit(
                &ds,
                &TreeConfig {
                    max_leaf_nodes: 64,
                    threads,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let t1 = fit_with(1);
        assert_eq!(t1, fit_with(2));
        assert_eq!(t1, fit_with(5));
        assert_eq!(t1, fit_with(16));
    }

    /// Frontier-parallel growth (one speculative expansion per thread) is
    /// bit-identical to strictly sequential expansion for every thread
    /// count — including frontiers wider than the heap ever gets and wider
    /// than the leaf budget, under a depth cap, and for regression.
    /// Speculation may waste work; it may never change the tree.
    #[test]
    fn frontier_parallel_fit_identical_to_sequential() {
        const THREADS: [usize; 6] = [2, 3, 5, 8, 32, 64];
        let x = parity_features(1200, 6, 33);
        let y: Vec<usize> = x
            .iter()
            .map(|xi| ((xi[1] * 3.0 + xi[4] * 4.0) as usize) % 5)
            .collect();
        let ds = Dataset::classification(x.clone(), y, 5).unwrap();
        for max_depth in [None, Some(4)] {
            let fit_with = |threads: usize| {
                fit(
                    &ds,
                    &TreeConfig {
                        max_leaf_nodes: 48,
                        max_depth,
                        threads,
                        ..Default::default()
                    },
                )
                .unwrap()
            };
            let sequential = fit_with(1);
            for threads in THREADS {
                assert_eq!(
                    sequential,
                    fit_with(threads),
                    "diverged at threads={threads} depth={max_depth:?}"
                );
            }
        }

        let yv: Vec<f64> = x.iter().map(|xi| xi[0] * 3.0 - xi[5] + 0.5).collect();
        let reg = Dataset::regression(x, yv).unwrap();
        let cfg = |threads: usize| TreeConfig {
            criterion: Criterion::Mse,
            max_leaf_nodes: 32,
            min_samples_leaf: 2,
            threads,
            ..Default::default()
        };
        let sequential = fit(&reg, &cfg(1)).unwrap();
        for threads in THREADS {
            assert_eq!(sequential, fit(&reg, &cfg(threads)).unwrap());
        }
    }

    /// The frontier gather path survives a leaf budget that runs out
    /// mid-speculation (want clamps to the remaining budget) and a heap
    /// that drains during the gather.
    #[test]
    fn frontier_wider_than_budget_or_heap() {
        let x = parity_features(200, 3, 41);
        let y: Vec<usize> = x.iter().map(|xi| usize::from(xi[0] > 0.5)).collect();
        let ds = Dataset::classification(x, y, 2).unwrap();
        for max in [1, 2, 3] {
            let cfg = |threads: usize| TreeConfig {
                max_leaf_nodes: max,
                threads,
                ..Default::default()
            };
            let seq = fit(&ds, &cfg(1)).unwrap();
            let wide = fit(&ds, &cfg(32)).unwrap();
            assert_eq!(seq, wide, "diverged at max_leaf_nodes={max}");
        }
    }

    /// Regression for the Ord-contract bug: `partial_cmp(..).unwrap_or(Equal)`
    /// made a NaN-gain candidate "equal" to every other candidate while
    /// finite gains still ordered, so `BinaryHeap` pop order was scrambled
    /// (NaN could surface anywhere, dragging neighbours with it). Under
    /// `total_cmp`, positive NaN sorts above +inf, ties (including
    /// NaN-vs-NaN, e.g. two zero-variance/overflowed splits) break toward
    /// the lower node index, and pops are a strict total order.
    #[test]
    fn heap_pop_order_is_total_with_nan_gain_candidates() {
        let mk = |gain: f64, node_idx: usize| Candidate {
            node_idx,
            indices: Vec::new(),
            orders: Vec::new(),
            depth: 0,
            best: BestSplit {
                feature: 0,
                threshold: 0.0,
                gain,
            },
            expansion: None,
        };
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
        for (gain, node_idx) in [
            (1.0, 10),
            (f64::NAN, 11),
            (2.0, 12),
            (0.0, 13),
            (f64::NAN, 14),
            (f64::INFINITY, 15),
        ] {
            heap.push(mk(gain, node_idx));
        }
        let popped: Vec<usize> = std::iter::from_fn(|| heap.pop())
            .map(|c| c.node_idx)
            .collect();
        assert_eq!(popped, vec![11, 14, 15, 12, 10, 13]);

        // And the comparator is a genuine total order over NaN candidates:
        // reflexivity-of-equality and antisymmetry spot checks.
        let (a, b) = (mk(f64::NAN, 1), mk(f64::NAN, 2));
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        assert!(mk(f64::NAN, 1) == mk(f64::NAN, 1));
        assert!(mk(f64::NAN, 1) != mk(f64::NAN, 2));
    }

    /// Regression for the parallel split-scan chunk guard: with a worker
    /// count that over-divides the feature count (ceil chunks), a late
    /// worker's `lo` exceeds `n_features` — 5 features over 4 workers put
    /// worker 3 at `lo = 6` — and the unclamped slice panicked.
    #[test]
    fn threaded_scan_with_overdivided_feature_chunks() {
        // 5 features x 4000 samples > PAR_SPLIT_THRESHOLD, threads = 4
        // => chunk = ceil(5/4) = 2, worker 3 starts past the feature end.
        let x = parity_features(4000, 5, 29);
        assert!(x.len() * x[0].len() > super::PAR_SPLIT_THRESHOLD);
        let y: Vec<usize> = x
            .iter()
            .map(|xi| ((xi[0] + xi[4]) * 2.0) as usize % 4)
            .collect();
        let ds = Dataset::classification(x, y, 4).unwrap();
        let fit_with = |threads: usize| {
            fit(
                &ds,
                &TreeConfig {
                    max_leaf_nodes: 16,
                    threads,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let sequential = fit_with(1);
        assert_eq!(sequential, fit_with(4));
    }

    /// The chunked lane scan matches the oracle on random dyadic datasets
    /// whose sizes straddle the 8-position chunks and their tails, for
    /// every criterion, 1–130 classes, leaf-size floors, depth caps and
    /// thread counts. Feature values take 2–64 levels,
    /// so some chunks hold no boundary and some hold eight.
    mod chunk_edges {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_lane_scan_matches_reference(
                seed in 0u64..u64::MAX,
                n in 2usize..301,
                n_features in 1usize..4,
                n_classes in 1usize..131,
                criterion in 0usize..3,
                min_samples_leaf in 1usize..6,
                depth in 0usize..8,
                leaves in 2usize..48,
            ) {
                let mut s = seed;
                let levels = 2 + (seed % 63) as usize;
                let x: Vec<Vec<f64>> = (0..n)
                    .map(|_| {
                        (0..n_features)
                            .map(|_| ((dyadic(&mut s) * 64.0) as usize % levels) as f64 / 64.0)
                            .collect()
                    })
                    .collect();
                let w: Vec<f64> = (0..n).map(|_| 1.0 + (dyadic(&mut s) * 4.0).floor() / 4.0).collect();
                let criterion = [Criterion::Gini, Criterion::Entropy, Criterion::Mse][criterion];
                let ds = if criterion == Criterion::Mse {
                    let y = (0..n).map(|_| dyadic(&mut s) * 4.0 - 1.0).collect();
                    Dataset::regression_weighted(x, y, w).unwrap()
                } else {
                    let y = x
                        .iter()
                        .map(|xi| ((xi[0] * 64.0) as usize + (dyadic(&mut s) * 8.0) as usize) % n_classes)
                        .collect();
                    Dataset::classification_weighted(x, y, n_classes, w).unwrap()
                };
                let cfg = TreeConfig {
                    max_leaf_nodes: leaves,
                    max_depth: (depth > 0).then_some(depth),
                    min_samples_leaf,
                    criterion,
                    ..Default::default()
                };
                let want = super::super::reference::fit(&ds, &cfg).unwrap();
                for threads in [1, 2, 3, 4] {
                    let cfg = TreeConfig { threads, ..cfg.clone() };
                    prop_assert_eq!(
                        fit(&ds, &cfg).unwrap(),
                        want.clone(),
                        "n {} criterion {:?} threads {}",
                        n, criterion, threads
                    );
                }
            }
        }
    }

    /// `Dataset`'s fields are public, so a struct literal can carry the
    /// NaN its constructors reject: `fit` returns `NanFeature` from the
    /// presort's key pass instead of panicking inside a sort, whatever
    /// the criterion or depth cap. Infinite features stay accepted, and
    /// the compiled tree routes them as the arena tree does.
    #[test]
    fn fit_rejects_nan_feature_and_accepts_infinities() {
        let mut ds = axis_ds();
        ds.x[3][1] = f64::NAN;
        for cfg in [
            TreeConfig::default(),
            TreeConfig {
                criterion: Criterion::Entropy,
                ..Default::default()
            },
            TreeConfig {
                max_depth: Some(0),
                ..Default::default()
            },
        ] {
            assert_eq!(fit(&ds, &cfg).unwrap_err(), FitError::NanFeature);
        }
        let reg = Dataset {
            x: vec![vec![1.0], vec![f64::NAN]],
            y: Targets::Value(vec![0.0, 1.0]),
            w: vec![1.0, 1.0],
        };
        let mse = TreeConfig {
            criterion: Criterion::Mse,
            ..Default::default()
        };
        assert_eq!(fit(&reg, &mse).unwrap_err(), FitError::NanFeature);

        let (inf, ninf) = (f64::INFINITY, f64::NEG_INFINITY);
        let x = vec![
            vec![ninf, 0.0],
            vec![-1.0, inf],
            vec![-0.0, ninf],
            vec![0.0, 1.0],
            vec![2.0, -2.0],
            vec![inf, 3.0],
        ];
        let ds = Dataset::classification(x.clone(), vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        let tree = fit(&ds, &TreeConfig::default()).unwrap();
        assert_eq!(tree.n_leaves(), 3);
        let compiled = crate::tree::CompiledTree::compile(&tree);
        for xi in &x {
            assert_eq!(tree.predict(xi), compiled.predict(xi));
        }
    }

    /// A struct literal can also carry the zero-width rows the
    /// constructors reject: `fit` returns `NoFeatures` instead of
    /// indexing the first feature's presorted order.
    #[test]
    fn fit_rejects_zero_width_rows() {
        let ds = Dataset {
            x: vec![vec![]; 20],
            y: Targets::Class {
                labels: vec![0; 20],
                n_classes: 2,
            },
            w: vec![1.0; 20],
        };
        assert_eq!(
            fit(&ds, &TreeConfig::default()).unwrap_err(),
            FitError::NoFeatures
        );
    }

    /// The radix presort gives the (value, row index) order of a
    /// comparison sort, with −0.0 and +0.0 tied and infinities at the
    /// ends, and every single-byte difference in a key resolved.
    #[test]
    fn radix_presort_matches_comparison_order() {
        let mut s = 11u64;
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -5e-324,
        ];
        let x: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let r = dyadic(&mut s);
                vec![
                    specials[i % specials.len()],
                    r - 0.5,
                    f64::from_bits(0x3FF0_0000_0000_0000 | (1 << (i % 52))),
                    (i % 3) as f64,
                ]
            })
            .collect();
        let ds = Dataset::classification(x.clone(), vec![0; 200], 1).unwrap();
        let orders = presort(&ds).unwrap();
        for (f, order) in orders.iter().enumerate() {
            let mut want: Vec<u32> = (0..200).collect();
            want.sort_by(|&a, &b| {
                x[a as usize][f]
                    .partial_cmp(&x[b as usize][f])
                    .unwrap()
                    .then(a.cmp(&b))
            });
            assert_eq!(order, &want, "feature {f}");
        }
    }

    #[test]
    fn feature_importance_prefers_informative_feature() {
        let ds = axis_ds();
        let tree = fit(&ds, &TreeConfig::default()).unwrap();
        let imp = tree.feature_importance();
        assert!(imp[0] > 0.99, "importance {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
