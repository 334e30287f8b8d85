//! # metis-abr — adaptive-bitrate video streaming substrate
//!
//! The Pensieve side of the Metis reproduction (§5/§6 of the paper). The
//! original system streams real video through dash.js over recorded HSDPA
//! and FCC traces; this crate rebuilds the whole stack in Rust:
//!
//! * [`video::VideoModel`] — chunked video on the 300–4300 kbps ladder,
//! * [`trace`] — piecewise-constant bandwidth traces + synthetic HSDPA-like
//!   and FCC-like corpus generators (README, *Substitutions*),
//! * [`sim::StreamingSession`] — download/buffer/rebuffer mechanics,
//! * [`qoe::QoeMetric`] — Pensieve's linear QoE,
//! * [`env::AbrEnv`] — the 25-feature RL environment,
//! * [`baselines`] — BB, RB, FESTIVE, BOLA, robustMPC (all as
//!   [`metis_rl::Policy`], so one rollout harness evaluates everything),
//! * [`pensieve`] — the deep-RL agent in both Figure-10 architectures.

pub mod baselines;
pub mod env;
pub mod pensieve;
pub mod qoe;
pub mod sim;
pub mod trace;
pub mod video;

pub use baselines::{
    baseline_by_name, baseline_names, Bola, BufferBased, Festive, FixedLowest, RateBased, RobustMpc,
};
pub use env::{env_pool, feature_names, AbrEnv, AbrObservation, HISTORY_LEN, OBS_DIM};
pub use pensieve::{
    pensieve_agent, pensieve_train_config, train_pensieve, PensieveArch, PensieveNet,
};
pub use qoe::{percentile, QoeMetric, SessionStats};
pub use sim::{ChunkDownload, StreamingSession, BUFFER_CAP_S};
pub use trace::{fcc_corpus, generate_trace, hsdpa_corpus, NetworkTrace, TraceGenConfig};
pub use video::{bitrate_labels, VideoModel, BITRATES_KBPS, CHUNK_DURATION_S};
