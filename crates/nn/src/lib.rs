//! # metis-nn — neural-network substrate for the Metis reproduction
//!
//! The paper's systems (Pensieve, AuTO, RouteNet*) are built on TensorFlow;
//! this crate is the from-scratch Rust replacement. It provides:
//!
//! * [`matrix::Matrix`] — a dense row-major `f64` matrix,
//! * [`layer`] — `Dense` and `Conv1D` layers with explicit, finite-difference
//!   checked forward/backward passes,
//! * [`tanh`](mod@tanh) — the layers' `tanh`: an eight-lane kernel
//!   bit-identical to glibc 2.36's, so network outputs depend on this
//!   crate rather than on the host's libm,
//! * [`net::Mlp`] — a sequential network sufficient for every plain model in
//!   the reproduction (critics, sRLA, lRLA, readouts),
//! * [`optim`] — SGD / Momentum / Adam + gradient clipping,
//! * [`loss`] — MSE, Huber, softmax cross-entropy, KL divergence, binary
//!   entropy (the building blocks of the paper's Eq. 1 and Eqs. 4–8),
//! * [`tape`] — a scalar reverse-mode autodiff tape for ad-hoc differentiable
//!   programs (the hypergraph mask search and the RouteNet message-passing
//!   surrogate).
//!
//! Design notes: everything is deterministic under a caller-supplied
//! [`rand::rngs::StdRng`]; shapes are validated eagerly; no `unsafe`.

pub mod init;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod net;
pub mod network;
pub mod optim;
pub mod par;
pub mod tanh;
pub mod tape;

pub use init::Init;
pub use layer::{Activation, Conv1D, Dense, ParamGrad};
pub use matrix::Matrix;
pub use net::{argmax, argmax_rows, softmax, softmax_rows, Mlp};
pub use network::Network;
pub use optim::{clip_grad_norm, Adam, Momentum, Optimizer, Sgd};
pub use tape::{BVar, BatchGrads, BatchTape, Grads, Tape, Var};
