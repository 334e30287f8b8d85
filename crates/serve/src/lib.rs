//! # metis-serve — online tree-serving engine
//!
//! The paper's deployability claim (§6.4, Figures 16a/17b) is that the
//! converted decision trees are small and fast enough to serve decisions
//! in production where the teacher DNN cannot. This crate turns that
//! closed-loop measurement into an actual serving subsystem, the shape a
//! tree takes when it sits in front of live traffic:
//!
//! * [`clock`] — the time substrate: one [`Clock`] with a real
//!   (wall-time) and a virtual (discrete-event) implementation; every
//!   stamp, deadline, and pacing sleep in this crate reads it, so the
//!   whole serving path runs unchanged under either time source,
//! * [`latency`] — percentile summaries (p50/p95/p99/max), the
//!   SLO-accounting vocabulary shared with `metis_core::deploy`, and the
//!   engine's bounded-memory [`LatencyRecorder`]: exact count, mean and
//!   max plus a mergeable log-bucketed sketch, so a server that runs
//!   indefinitely keeps a few KB of latency state,
//! * [`registry`] — an epoch-pointer model registry with atomic hot-swap:
//!   readers grab an `Arc` to the current [`ServedModel`] — one compiled
//!   tree or a [`metis_dt::Forest`] majority-vote ensemble — and never
//!   block; the §3.2 conversion pipeline publishes each newly fitted
//!   model mid-traffic, and in-flight batches finish on the epoch they
//!   started with,
//! * [`engine`] — the request engine, which serves by the batch: submits
//!   append to a page of the server's ingest queue, a page closes on
//!   batch size, deadline, or a flush/shutdown marker, and a closed page
//!   *is* the micro-batch. The batcher walks each page in place through
//!   the epoch's served model in the lane-vectorized kernel
//!   ([`ServedModel::predict_batch_into`]), fanning across
//!   [`metis_nn::par::global`] stripe jobs under a dedicated
//!   pool group, stamps completion once per batch, and sends one reply
//!   per (handle, batch),
//! * [`traffic`] — open-loop load generation: ABR-trace replay
//!   inter-arrivals and Poisson (flowsched-style) arrival processes driven
//!   against a server without ever waiting for responses.
//!
//! The engine and registry optionally report into the live telemetry
//! plane (`metis_telemetry`): hand [`ServeConfig::telemetry`] a
//! registered scope and every flush decomposes into stage-attributed
//! spans (queue-wait / batch-form / kernel / collect), feeds streaming
//! percentile sketches and flight-recorder events;
//! [`ModelRegistry::attach_telemetry`] does the same for publish/swap
//! cost. All stamps come from the engine's [`Clock`], so under virtual
//! time the telemetry is as deterministic as the responses.
//!
//! Determinism contract: every response is bit-identical to evaluating
//! the reported epoch's model sequentially — `DecisionTree::predict` for
//! tree epochs, the forest's majority vote for ensemble epochs — for any
//! batch size, flush deadline, thread count, and any interleaving of hot
//! swaps (`tests/serving_determinism.rs`). On a virtual clock the
//! contract extends to **time itself**: batch composition and every
//! latency figure are pure functions of the submission schedule
//! (`tests/sim_determinism.rs` at the workspace root).

pub mod clock;
pub mod engine;
pub mod latency;
pub mod registry;
pub mod traffic;

pub use clock::Clock;
pub use engine::{EngineReport, Response, ServeConfig, ServerHandle, TreeServer};
pub use latency::{summarize, summarize_sorted, LatencyRecorder, LatencySummary};
pub use registry::{EpochModel, ModelRegistry, ServedModel};
pub use traffic::{
    drive_open_loop, drive_open_loop_paced, drive_open_loop_virtual, ArrivalProcess,
};
