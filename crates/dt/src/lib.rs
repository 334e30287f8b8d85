//! # metis-dt — decision-tree substrate for the Metis reproduction
//!
//! The paper converts teacher DNN policies into student decision trees
//! (§3). This crate is the from-scratch replacement for the scikit-learn
//! CART implementation (plus the custom cost-complexity pruning the authors
//! bolted onto it):
//!
//! * [`dataset::Dataset`] — weighted samples, classification or regression
//!   targets (weights carry the Eq.-1 advantage resampling),
//! * [`builder::fit`] — CART with best-first growth under `max_leaf_nodes`
//!   (Table 4: 200 for Pensieve, 2000 for AuTO's agents),
//! * [`prune`] — cost-complexity pruning + a depth-truncation ablation
//!   baseline,
//! * [`tree::DecisionTree`] — arena tree with per-node weighted statistics
//!   (powers the Figure-7 decision-frequency annotations) and
//!   [`tree::CompiledTree`], a flat branch-only evaluator backing the
//!   lightweight-deployment claims of §6.4,
//! * [`kernel`] — the lane-vectorized quantized-layout walk behind
//!   [`tree::CompiledTree::predict_batch_into`] and the [`kernel::Forest`]
//!   ensemble evaluator (block-major across member trees),
//! * [`export`] — ASCII (Figure 7 style) and Graphviz rendering,
//! * [`metrics`] — accuracy / RMSE / agreement (Figures 27–28 axes).
//!
//! No dependencies beyond `serde` for model artifacts.

pub mod builder;
pub mod dataset;
pub mod export;
pub mod kernel;
pub mod metrics;
pub mod prune;
pub mod tree;

pub use builder::{fit, Criterion, FitError, TreeConfig};
pub use dataset::{Dataset, DatasetError, Targets};
pub use export::{render, to_graphviz, RenderOptions};
pub use kernel::{Forest, ForestError, INREG_NODES, LANES};
pub use prune::{alpha_sequence, prune_alpha, prune_to_leaves, truncate_depth, PruneStep};
pub use tree::{
    BatchDiff, CompiledTree, DecisionTree, Node, NodeStats, Prediction, Split, TreeError, TreeKind,
};
