//! # metis-routing — SDN routing substrate (RouteNet*)
//!
//! The global-system side of the Metis reproduction. The original RouteNet
//! is a GNN trained on OMNeT++ packet simulations of NSFNet; this crate
//! rebuilds the stack:
//!
//! * [`topo::Topology`] — directed-link graphs + the NSFNet topology of
//!   the paper's Figure 8,
//! * [`paths`] — BFS shortest paths and the "≤ 1 hop longer" candidate
//!   enumeration of §6.5,
//! * [`demand`] — traffic-matrix sampling (the 50-sample corpus),
//! * [`latency::LatencyModel`] — M/M/1-style queueing ground truth
//!   (substitute for the packet-level dataset; README, *Substitutions*),
//! * [`routenet::RouteNetModel`] — a path↔link message-passing latency
//!   predictor whose one forward runs on the `metis_nn` tape, so the same
//!   code predicts, trains and drives the §4.2 mask search,
//! * [`routenet_star`] — the closed-loop greedy routing optimizer.

pub mod demand;
pub mod latency;
pub mod paths;
pub mod routenet;
pub mod routenet_star;
pub mod topo;

pub use demand::{demand_corpus, generate_demands, Demand, DemandSample};
pub use latency::{LatencyModel, Routing};
pub use paths::{all_paths_within, candidate_paths, shortest_hops};
pub use routenet::{connections, RouteNetModel, MP_ROUNDS};
pub use routenet_star::{candidates_for, optimize_routing, LatencyPredictor};
pub use topo::{Link, Topology};
