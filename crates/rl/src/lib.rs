//! # metis-rl — reinforcement-learning machinery for the Metis reproduction
//!
//! The paper's local systems (Pensieve, AuTO) are deep-RL agents; Metis'
//! conversion pipeline additionally needs their value/Q estimates for the
//! Eq.-1 resampling. This crate provides:
//!
//! * [`env::Env`] — the cloneable discrete-action environment trait shared
//!   by the ABR and flow-scheduling simulators (`Clone` enables *exact*
//!   counterfactual Q via [`env::q_by_cloning`]),
//! * [`policy::Policy`] — distribution-over-actions abstraction implemented
//!   by both teacher DNNs and student decision trees,
//! * [`rollout`](mod@rollout) — trajectory collection and discounted returns,
//! * [`train::ActorCritic`] — A2C-style policy-gradient training (the
//!   single-process stand-in for the teachers' A3C setups),
//! * [`viper`] — teacher–student collection with DAgger-style teacher
//!   takeover and the Eq.-1 advantage resampler.

pub mod env;
pub mod policy;
pub mod rollout;
pub mod train;
pub mod value;
pub mod viper;

pub use env::{q_by_cloning, Env, Step};
pub use metis_nn::par::{mix_seed, parallel_map_indexed, resolve_threads};
pub use policy::{sample_categorical, ConstantPolicy, Policy, SoftmaxPolicy, UniformPolicy};
pub use rollout::{evaluate, evaluate_pool, rollout, ActionMode, EpisodeScore, Trajectory};
pub use train::{ActorCritic, EpochStats, TrainConfig};
pub use value::{NetworkValue, ValueEstimate};
pub use viper::{
    collect_seeded, fidelity_sharded, resample_by_weight, states_matrix, CollectConfig, Controller,
    SampledState,
};
