//! # metis-sim — deterministic co-simulation over the live serving fabric
//!
//! The paper's evaluation loop is closed: an ABR client's *next* request
//! time depends on the bitrate the model just returned (download time +
//! buffer-full sleep), so model behaviour reshapes the traffic the model
//! then sees. The serving layers (`metis_serve`, `metis_fabric`) replay
//! open-loop traces; this crate closes the loop — millions of concurrent
//! sessions, each owning real [`metis_abr`] player state, driving the
//! **real** fabric hot path in virtual time on one core:
//!
//! * [`events`] — the deterministic event queue: a binary heap keyed by
//!   `(virtual_time, schedule_seq)`, so the pop order is a pure function
//!   of the push order (dslab-core's discipline),
//! * [`sim`] — [`Simulation`]: the queue + a [`metis_serve::Clock`]
//!   virtual clock + a seeded RNG,
//! * [`cosim`] — [`run_abr_cosim`]: closed-loop ABR sessions against a
//!   [`metis_fabric::Router`] built on [`metis_serve::Clock::virtual_at`],
//!   with scheduled mid-run model hot swaps ([`ModelSwap`]).
//!
//! Determinism contract: same seed and config ⇒ bitwise-identical
//! [`CosimReport`] (per-session QoE, stalls, switches — see
//! [`outcome_digest`]) and identical fabric-side request/epoch counts, for
//! any shard count, worker-pool thread count, or wave interleaving. The
//! property tests live in `tests/sim_determinism.rs` at the workspace
//! root, pinned against a sequential single-session oracle.

pub mod cosim;
pub mod events;
pub mod sim;

pub use cosim::{
    outcome_digest, run_abr_cosim, run_abr_cosim_observed, session_plan, CosimConfig, CosimEvent,
    CosimReport, ModelSwap, SessionOutcome, SessionPlan,
};
pub use events::{EventEntry, EventQueue};
pub use sim::Simulation;
