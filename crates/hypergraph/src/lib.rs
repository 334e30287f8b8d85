//! # metis-hypergraph — hypergraph interpretation substrate
//!
//! §4 of the Metis paper: global DL-based networking systems (SDN routing,
//! NFV placement, ultra-dense cellular, cluster scheduling) are formulated
//! as hypergraphs, and interpretability is obtained by searching for the
//! vertex–hyperedge connections that are *critical* to the system output.
//!
//! * [`structure::Hypergraph`] — vertices, hyperedges, features, and the
//!   incidence matrix of Eq. 3 (the Figure-5 example is a unit test),
//! * [`mask`] — the differentiable critical-connection search of Figure 6:
//!   `min D(Y_W, Y_I) + λ₁‖W‖ + λ₂H(W)` with the sigmoid gating of Eq. 9,
//!   optimized with Adam over the `metis-nn` autodiff tape: the `D`
//!   gradient comes from the system, the ‖W‖ and `H(W)` gradients are
//!   closed-form, and a unit test checks the result against a single-tape
//!   optimizer,
//! * [`nnmask::MaskedMlp`] — the local-system instance: a feature mask on
//!   an MLP policy over a batch of observations, each recorded on a tape of
//!   its own, with a thread-sharded gradient that gives the same bits for
//!   any thread count.
//!
//! Domain formulations (which system maps to which hypergraph) live in
//! `metis-core::formulate`; this crate is domain-agnostic.

pub mod mask;
pub mod nnmask;
pub mod structure;

pub use mask::{optimize_mask, MaskConfig, MaskResult, MaskedSystem, OutputKind};
pub use nnmask::MaskedMlp;
pub use structure::{EdgeId, Hypergraph, HypergraphError, VertexId};
