//! # metis-nn — neural-network substrate for the Metis reproduction
//!
//! The paper's systems (Pensieve, AuTO, RouteNet*) are built on TensorFlow;
//! this crate is the from-scratch Rust replacement. It provides:
//!
//! * [`matrix::Matrix`] — a dense row-major `f64` matrix,
//! * [`layer`] — the `Dense` layer with explicit, finite-difference checked
//!   forward/backward passes,
//! * [`tanh`](mod@tanh) — the layers' `tanh`: an eight-lane kernel
//!   bit-identical to glibc 2.36's, so network outputs depend on this
//!   crate rather than on the host's libm,
//! * [`net::Mlp`] — a sequential network sufficient for every plain model in
//!   the reproduction (critics, sRLA, lRLA, readouts),
//! * [`optim`] — Adam + gradient clipping,
//! * [`loss`] — softmax cross-entropy and binary entropy (the mask
//!   objective's Eq. 8),
//! * [`par`] — the persistent worker pool behind every thread-sharded
//!   loop, with results identical for any thread count,
//! * [`tape`] — the scalar reverse-mode autodiff tape for ad-hoc
//!   differentiable programs (the hypergraph mask search on RouteNet's
//!   message passing and on an MLP's feature mask), with one fused node
//!   per affine row.
//!
//! Design notes: everything is deterministic under a caller-supplied
//! [`rand::rngs::StdRng`]; shapes are validated eagerly; the only `unsafe`
//! is the worker pool's, in [`par`].

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
pub use layer::{Activation, Dense, ParamGrad};
pub use matrix::Matrix;
pub use net::{argmax, softmax, softmax_rows, Mlp};
pub use network::Network;
pub use optim::{clip_grad_norm, Adam, Optimizer};
pub use tape::{Grads, Tape, Var};
