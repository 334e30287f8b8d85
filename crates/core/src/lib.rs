//! # metis-core — the Metis framework (SIGCOMM 2020)
//!
//! *"Interpreting Deep Learning-Based Networking Systems"*, Meng et al.
//! Metis interprets **local** systems (Pensieve, AuTO) by converting their
//! DNN policies into decision trees, and **global** systems (RouteNet*) by
//! formulating them as hypergraphs and searching for critical connections.
//!
//! * [`pipeline`] — the unified, parallel §3.2 conversion engine
//!   ([`pipeline::ConversionPipeline`], the one conversion entry point)
//!   driving every scenario through one code path: DAgger collection rounds, Eq.-1 advantage resampling,
//!   CART fitting, CCP pruning, and fidelity/return evaluation,
//! * [`convert`] — conversion config/result types, the deployable
//!   [`convert::TreePolicy`], the §6.3 oversampling debug interface, and
//!   the multi-output regression student for sRLA,
//! * [`interpret`] — the §4 hypergraph interpretation of RouteNet*:
//!   formulation, masked-GNN critical-connection search, Table-3
//!   classification, Figure-9 statistics, Figure-18 ad-hoc rerouting,
//! * [`formulate`] — the Appendix-B scenario formulations (NFV placement,
//!   ultra-dense cellular, cluster scheduling),
//! * [`baselines`] — LIME and LEMNA (Appendix E) over k-means clusters,
//! * [`deploy`] — artifact/latency cost model (§6.4),
//! * [`workload`] — cross-workload sharding: many pipelines concurrently
//!   over one shared thread budget ([`workload::WorkloadRunner`]),
//! * [`serving`] — serve-while-converting: live traffic through the
//!   `metis_fabric` router's session-affine shards and a conversion
//!   pipeline over one budget, each round's student (or a forest over
//!   the last rounds) published straight to the live epoch or
//!   shadow-audited before it goes live,
//! * [`stats`] — experiment statistics helpers.

pub mod baselines;
pub mod convert;
pub mod deploy;
pub mod formulate;
pub mod interpret;
pub mod pipeline;
pub mod serving;
pub mod stats;
pub mod workload;

pub use convert::{
    oversample_rare_actions, ConversionConfig, ConversionResult, MultiRegressor, TreePolicy,
};
pub use deploy::{measure_latency, ArtifactCost, DeployError};
pub use interpret::{
    adhoc_points, classify_connection, interpret_policy_features, interpret_routing,
    mask_mass_per_link, routing_hypergraph, AdhocPoint, ConnectionReport, FeatureReport,
    InterpretationKind, MaskedRouting,
};
pub use pipeline::{ConversionPipeline, PipelineStats};
pub use serving::{serve_while_converting, ServeOutcome, ServeSpec, STUDENT_KEY};
pub use stats::{ecdf, mean, pearson, quadrant13_fraction, std_dev};
pub use workload::{RunnerStats, Workload, WorkloadResult, WorkloadRunner};
