//! # metis-fabric — the multi-model serving fabric
//!
//! PR 4's [`metis_serve::TreeServer`] serves **one** model behind **one**
//! micro-batcher. The paper's deployability argument (§6.4) and the
//! ROADMAP's north star — many scenarios, millions of users, per-tenant
//! SLOs — need the layer *around* those servers: one ingest stream fanned
//! across many models, shards, and tenants. That layer is this crate:
//!
//! * [`router`] — the [`Router`]: a set of *scenarios* (one
//!   [`metis_serve::ModelRegistry`] each), each split into N
//!   **session-affine shards** — independent micro-batchers over the same
//!   registry, each on its own pool group. Requests are hashed by session
//!   id ([`shard_for_session`], a pure SplitMix64 finalize), so a sticky
//!   ABR session always lands on the same shard regardless of thread
//!   counts or interleaving.
//! * [`shadow`] — **shadow serving**: the next round's student tree (or
//!   ensemble) is staged beside the live model and evaluated on mirrored
//!   traffic with bit-exact response diffing
//!   ([`metis_dt::Forest::diff_batch`]).
//!   A [`PromotePolicy::OnZeroDiff`] candidate hot-swaps live only after
//!   its audit diffs clean; [`PromotePolicy::AfterAudit`] swaps
//!   unconditionally but records how much behaviour changed first.
//! * [`report`] — per-shard [`metis_serve::EngineReport`]s merged into
//!   per-scenario, per-tenant and fabric-wide views: the shards' latency
//!   recorders merge bucket-wise ([`metis_serve::LatencyRecorder::merge`])
//!   and each tenant's **p99 budget** is checked in its
//!   [`TenantReport`]. Every report type is serde-serializable, and its
//!   size does not grow with the requests served, so a fabric run's full
//!   accounting exports as a few KB of JSON.
//!
//! Observability: [`FabricConfig::telemetry`] plugs the fabric into the
//! live telemetry plane (`metis_telemetry`). The router registers one
//! scope per `(scenario, shard)` — stage-attributed spans, streaming
//! percentile sketches, flight-recorder events — plus a per-scenario
//! *control scope* ([`metis_telemetry::CONTROL_SHARD`]) that records
//! hot-swap costs and shadow-audit verdicts. All stamps read the fabric
//! [`metis_serve::Clock`], and the whole plane exports a Chrome
//! trace-event timeline ([`metis_telemetry::Telemetry::chrome_trace_json`]).
//!
//! SLO-aware scheduling: every tenant carries a *deadline class* that the
//! fabric stamps onto its shards' pool submissions
//! ([`metis_nn::par::with_deadline_class`]); the worker pool drains the
//! most urgent class first, round-robinning within a class. Classes move
//! helper threads, never answers.
//!
//! Determinism contract: a 1-model/1-shard/1-tenant fabric is
//! **bit-identical** to the plain `TreeServer` path, and every response in
//! any fabric is bit-identical to `DecisionTree::predict` on the epoch it
//! reports — for any shard count, batch size, deadline, thread count, or
//! staging interleaving (`tests/fabric_determinism.rs`).

pub mod report;
pub mod router;
pub mod shadow;

pub use report::{FabricReport, ScenarioReport, TenantReport};
pub use router::{
    shard_for_session, FabricConfig, FabricHandle, FabricResponse, Router, ScenarioSpec, TenantSpec,
};
pub use shadow::{PromotePolicy, PromotionRecord, ShadowConfig, ShadowReport};
