//! # metis-flowsched — datacenter flow-scheduling substrate (AuTO)
//!
//! The AuTO side of the Metis reproduction. The original runs on a
//! 16-server testbed with two hardware switches; this crate rebuilds the
//! whole stack as a flow-level discrete-event simulation:
//!
//! * [`workload`] — web-search (DCTCP) and data-mining (VL2) flow-size
//!   CDFs with Poisson arrivals at a target load,
//! * [`mlfq`] — multi-level feedback queues (4 priorities, 3 thresholds),
//! * [`sim::FlowSim`] — strict-priority + max-min fair fabric simulator
//!   with MLFQ demotion, per-flow decisions, and decision latency,
//! * [`srla`] — the short-flow agent (700-dim state → 3 thresholds),
//! * [`lrla`] — the long-flow agent (143-dim state → 108 actions),
//! * [`coverage`](mod@coverage) — the Figure-16b per-flow decision coverage model.

pub mod coverage;
pub mod lrla;
pub mod mlfq;
pub mod sim;
pub mod srla;
pub mod workload;

pub use coverage::{coverage, Coverage};
pub use lrla::{
    decode_action, encode_action, lrla_agent, lrla_net_paper_scale, lrla_state, LrlaEnv,
    LRLA_ACTIONS, LRLA_STATE_DIM, RATE_LEVELS,
};
pub use mlfq::{MlfqThresholds, N_PRIORITIES};
pub use sim::{
    ActiveFlow, CompletedFlow, DecisionPoint, FabricConfig, FctStats, FlowDecision, FlowSim,
    SimConfig,
};
pub use srla::{
    evaluate_thresholds, srla_decide, srla_net, srla_net_paper_scale, srla_state,
    thresholds_from_outputs, train_srla, SrlaTrainConfig, SRLA_OUT_DIM, SRLA_STATE_DIM,
};
pub use workload::{generate_flows, FlowRequest, SizeDistribution};
