//! One module per paper table/figure; `registry()` lists them all for the
//! `run_all` binary. Each experiment takes a writer so `run_all` can tee
//! its output into `results/`.

pub mod appendix_b;
pub mod auto;
pub mod baseline_cmp;
pub mod global;
pub mod local;
pub mod overhead;

use std::io::Write;

/// Experiment function signature.
pub type Experiment = fn(&mut dyn Write) -> std::io::Result<()>;

/// Every reproducible table/figure, in paper order.
pub fn registry() -> Vec<(&'static str, Experiment)> {
    vec![
        ("fig07_pensieve_tree", local::fig07 as Experiment),
        ("table3_top_masks", global::table3),
        ("fig09_mask_stats", global::fig09),
        ("fig11_model_design", local::fig11),
        ("fig12_bitrate_freq", local::fig12),
        ("fig13_fixed_link", local::fig13),
        ("fig14_oversampling", local::fig14),
        ("fig15a_pensieve_qoe", local::fig15a),
        ("fig15b_auto_fct", auto::fig15b),
        ("fig16_latency_coverage", auto::fig16),
        ("fig17a_median_flows", auto::fig17a),
        ("fig17b_deployment_cost", auto::fig17b),
        ("fig18_adhoc", global::fig18),
        ("fig20_resampling", local::fig20),
        ("fig27_baseline_cmp", baseline_cmp::fig27),
        ("fig28_leaf_sensitivity", local::fig28),
        ("fig29_lambda_sensitivity", global::fig29),
        ("fig31_overhead", overhead::fig31),
        ("appendixB_formulations", appendix_b::appendix_b),
    ]
}
