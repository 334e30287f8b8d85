//! # metis — reproduction of *"Interpreting Deep Learning-Based Networking
//! Systems"* (Meng et al., SIGCOMM 2020)
//!
//! This facade crate re-exports the whole workspace so examples and
//! downstream users need a single dependency:
//!
//! * [`core`] — the Metis framework itself: decision-tree conversion of
//!   local systems (§3) and hypergraph critical-connection search for
//!   global systems (§4), plus the LIME/LEMNA baselines and the
//!   deployment cost model,
//! * [`abr`] — the Pensieve substrate: ABR simulator, traces, QoE, five
//!   heuristic baselines, the deep-RL agent in both Figure-10 variants,
//! * [`flowsched`] — the AuTO substrate: fabric DES, MLFQ, workloads,
//!   sRLA/lRLA agents,
//! * [`routing`] — the RouteNet* substrate: NSFNet, candidate paths,
//!   queueing ground truth, message-passing predictor, closed loop,
//! * [`hypergraph`] — hypergraph structure + differentiable mask search,
//! * [`serve`] — the online tree-serving engine: micro-batched request
//!   engine, hot-swap model registry, open-loop traffic generation,
//! * [`fabric`] — the multi-model serving fabric over [`serve`]:
//!   session-affine sharded routing, shadow serving with bit-exact
//!   response diffing, per-tenant SLO scheduling and reporting,
//! * [`sim`] — deterministic discrete-event core and the closed-loop ABR
//!   co-simulation: millions of client sessions driving the live fabric
//!   in virtual time, bit-identical for any thread or shard count,
//! * [`telemetry`] — the live telemetry plane: stage-attributed spans,
//!   streaming percentile sketches, a flight recorder, and Chrome
//!   trace-event timeline export across the serving fabric,
//! * [`obs`] — the streaming health plane over [`telemetry`]: per-scope
//!   time-series rings, multi-window SLO burn-rate alerts with
//!   hysteresis, quantile-drift detection, and per-stage tail-latency
//!   attribution, deterministic under the virtual clock,
//! * [`dt`] — CART trees with cost-complexity pruning and export,
//! * [`rl`] — env/policy traits, rollouts, actor-critic, VIPER utilities,
//! * [`nn`] — matrices, layers, optimizers, losses, autodiff tape.
//!
//! Start with `examples/quickstart.rs`. `metis_bench::experiments::registry()`
//! lists every paper table and figure with the experiment binary that
//! regenerates it, and the README's *Substitutions* list says what stands
//! in for the paper's datasets, testbeds and training setups.

pub use metis_abr as abr;
pub use metis_core as core;
pub use metis_dt as dt;
pub use metis_fabric as fabric;
pub use metis_flowsched as flowsched;
pub use metis_hypergraph as hypergraph;
pub use metis_nn as nn;
pub use metis_obs as obs;
pub use metis_rl as rl;
pub use metis_routing as routing;
pub use metis_serve as serve;
pub use metis_sim as sim;
pub use metis_telemetry as telemetry;
