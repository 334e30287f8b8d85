//! The RouteNet-style latency predictor: a path↔link message-passing model
//! (Rusek et al., SOSR 2019) sized down to this reproduction. Paths and
//! links carry hidden states; T rounds of message passing exchange state
//! across (path, link) connections; a readout predicts per-path delay.
//!
//! The message passing is written once, on the [`metis_nn::tape`]:
//! prediction, training and the Metis mask search all record it there. The
//! mask search damps each (path, link) connection's messages by a mask
//! variable and lets gradients flow back to the mask (§4.2 / Eq. 9 of the
//! paper).

use crate::demand::Demand;
use crate::latency::Routing;
use crate::topo::Topology;
use metis_nn::tape::{Params, Tape, Var};
use metis_nn::{Activation, Adam, Optimizer, ParamGrad};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Message-passing rounds.
pub const MP_ROUNDS: usize = 3;

/// The model: flat parameter vector + layout bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteNetModel {
    pub hidden: usize,
    params: Vec<f64>,
}

/// Parameter layout offsets.
struct Layout {
    w_path: usize,
    b_path: usize,
    w_link: usize,
    b_link: usize,
    w_out: usize,
    b_out: usize,
    total: usize,
}

impl RouteNetModel {
    fn layout(hidden: usize) -> Layout {
        let d = hidden;
        let in_dim = 2 * d + 1;
        let w_path = 0;
        let b_path = w_path + d * in_dim;
        let w_link = b_path + d;
        let b_link = w_link + d * in_dim;
        let w_out = b_link + d;
        let b_out = w_out + d;
        Layout {
            w_path,
            b_path,
            w_link,
            b_link,
            w_out,
            b_out,
            total: b_out + 1,
        }
    }

    /// Random initialization.
    pub fn new(hidden: usize, rng: &mut StdRng) -> Self {
        let layout = Self::layout(hidden);
        let scale = (1.0 / (2 * hidden + 1) as f64).sqrt();
        let params = (0..layout.total)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        RouteNetModel { hidden, params }
    }

    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Flat parameter vector, the block the tape forward reads
    /// ([`Tape::params`]).
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// Per-demand predicted delays: the tape forward's values, unmasked.
    pub fn predict(&self, topo: &Topology, demands: &[Demand], routing: &Routing) -> Vec<f64> {
        let tape = Tape::new();
        let params = tape.params(&self.params);
        self.forward_tape(&tape, params, topo, demands, routing, None)
            .iter()
            .map(|v| v.value())
            .collect()
    }

    /// The `MP_ROUNDS` rounds of path↔link message passing over `routing`,
    /// recorded on `tape` over `params`, this model's parameter block
    /// ([`Tape::params`]), so the same code trains the model and drives
    /// the Metis critical-connection search. With a mask, `mask[i]` damps
    /// both messages across the `i`-th connection of [`connections`]
    /// (path-major order) and gradients flow back to it (§4.2 / Eq. 9 of
    /// the paper). Returns the final path and link states, flat and
    /// `hidden` wide per row.
    ///
    /// States live in flat row-major buffers swapped between rounds, and
    /// one input buffer is refilled per update, so a call allocates the
    /// same few buffers whatever the routing's size.
    fn message_passing<'t>(
        &self,
        tape: &'t Tape,
        params: Params<'t>,
        topo: &Topology,
        demands: &[Demand],
        routing: &Routing,
        mask: Option<&[Var<'t>]>,
    ) -> (Vec<Var<'t>>, Vec<Var<'t>>) {
        let d = self.hidden;
        let layout = Self::layout(d);
        assert_eq!(params.len(), layout.total);
        assert_eq!(
            routing.len(),
            demands.len(),
            "RouteNet: routing has {} paths for {} demands",
            routing.len(),
            demands.len()
        );
        // Every connection's link, path-major; path `p`'s connections are
        // `starts[p]..starts[p + 1]`.
        let mut starts = Vec::with_capacity(routing.len() + 1);
        let mut conn_links = Vec::new();
        for path in routing {
            starts.push(conn_links.len());
            conn_links.extend(topo.links_along(path));
        }
        starts.push(conn_links.len());
        if let Some(m) = mask {
            assert_eq!(
                m.len(),
                conn_links.len(),
                "mask length must equal connection count"
            );
        }

        let (n_paths, n_links) = (demands.len(), topo.n_links());
        let mut h_link = Vec::with_capacity(n_links * d);
        for l in 0..n_links {
            push_initial_state(tape, d, topo.link(l).capacity / 10.0, &mut h_link);
        }
        let mut h_path = Vec::with_capacity(n_paths * d);
        for dm in demands {
            push_initial_state(tape, d, dm.volume, &mut h_path);
        }
        let mut next_link = Vec::with_capacity(n_links * d);
        let mut next_path = Vec::with_capacity(n_paths * d);
        let mut agg_link = Vec::with_capacity(n_links * d);
        let mut input = Vec::with_capacity(2 * d + 1);

        for _ in 0..MP_ROUNDS {
            // Path updates: input = [h_path[p], Σ links' states, volume].
            next_path.clear();
            for p in 0..n_paths {
                let zero = tape.var(0.0);
                input.clear();
                input.extend_from_slice(&h_path[p * d..][..d]);
                input.resize(2 * d, zero);
                for conn in starts[p]..starts[p + 1] {
                    let h = &h_link[conn_links[conn] * d..][..d];
                    accumulate(&mut input[d..], h, mask.map(|mm| mm[conn]));
                }
                input.push(tape.var(demands[p].volume));
                matvec(
                    tape,
                    params,
                    d,
                    layout.w_path,
                    layout.b_path,
                    &input,
                    &mut next_path,
                );
            }
            std::mem::swap(&mut h_path, &mut next_path);

            // Link updates. Every link's aggregate starts from one shared
            // zero var: gradients accumulate in tape-node order, so the
            // nodes and their order are part of the pinned results.
            agg_link.clear();
            agg_link.resize(n_links * d, tape.var(0.0));
            for p in 0..n_paths {
                let h = &h_path[p * d..][..d];
                for conn in starts[p]..starts[p + 1] {
                    let agg = &mut agg_link[conn_links[conn] * d..][..d];
                    accumulate(agg, h, mask.map(|mm| mm[conn]));
                }
            }
            next_link.clear();
            for l in 0..n_links {
                input.clear();
                input.extend_from_slice(&h_link[l * d..][..d]);
                input.extend_from_slice(&agg_link[l * d..][..d]);
                input.push(tape.var(topo.link(l).capacity / 10.0));
                matvec(
                    tape,
                    params,
                    d,
                    layout.w_link,
                    layout.b_link,
                    &input,
                    &mut next_link,
                );
            }
            std::mem::swap(&mut h_link, &mut next_link);
        }
        (h_path, h_link)
    }

    /// Per-demand predicted delays on the tape: message passing, then the
    /// readout of each final path state.
    fn forward_tape<'t>(
        &self,
        tape: &'t Tape,
        params: Params<'t>,
        topo: &Topology,
        demands: &[Demand],
        routing: &Routing,
        mask: Option<&[Var<'t>]>,
    ) -> Vec<Var<'t>> {
        let layout = Self::layout(self.hidden);
        let (h_path, _) = self.message_passing(tape, params, topo, demands, routing, mask);
        let mut delays = Vec::with_capacity(demands.len());
        for h in h_path.chunks_exact(self.hidden) {
            readout(tape, params, &layout, h, &mut delays);
        }
        delays
    }

    /// Differentiable candidate scoring for the closed-loop mask search:
    /// run the masked message passing over the *chosen* routing, then score
    /// every candidate path of every demand by one path-update over the
    /// final (mask-shaped) link states plus the readout. Element `[i][c]`
    /// is the predicted delay of demand `i` on its `c`-th candidate.
    /// `params` is this model's parameter block on `tape`
    /// ([`Tape::params`] of [`RouteNetModel::params`]).
    #[allow(clippy::too_many_arguments)] // message passing's arguments plus the candidates
    pub fn candidate_delays_tape<'t>(
        &self,
        tape: &'t Tape,
        params: Params<'t>,
        topo: &Topology,
        demands: &[Demand],
        routing: &Routing,
        candidates: &[Vec<Vec<usize>>],
        mask: Option<&[Var<'t>]>,
    ) -> Vec<Vec<Var<'t>>> {
        assert_eq!(
            candidates.len(),
            demands.len(),
            "RouteNet: {} candidate lists for {} demands",
            candidates.len(),
            demands.len()
        );
        let d = self.hidden;
        let layout = Self::layout(d);
        let (_, h_link) = self.message_passing(tape, params, topo, demands, routing, mask);

        // Candidate scoring: one path update from scratch over the final
        // link states, then the readout.
        let mut input = Vec::with_capacity(2 * d + 1);
        let mut out = Vec::with_capacity(d);
        let mut delay = Vec::with_capacity(1);
        demands
            .iter()
            .zip(candidates)
            .map(|(dm, cands)| {
                cands
                    .iter()
                    .map(|cand| {
                        input.clear();
                        push_initial_state(tape, d, dm.volume, &mut input);
                        input.resize(2 * d, tape.var(0.0));
                        for l in topo.links_along(cand) {
                            accumulate(&mut input[d..], &h_link[l * d..][..d], None);
                        }
                        input.push(tape.var(dm.volume));
                        out.clear();
                        matvec(
                            tape,
                            params,
                            d,
                            layout.w_path,
                            layout.b_path,
                            &input,
                            &mut out,
                        );
                        delay.clear();
                        readout(tape, params, &layout, &out, &mut delay);
                        delay[0]
                    })
                    .collect()
            })
            .collect()
    }

    /// One training sample: (demands, routing, ground-truth delays).
    pub fn train(
        &mut self,
        topo: &Topology,
        samples: &[(Vec<Demand>, Routing, Vec<f64>)],
        epochs: usize,
        lr: f64,
    ) -> Vec<f64> {
        let mut opt = Adam::new(lr);
        let mut history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut epoch_loss = 0.0;
            for (demands, routing, truth) in samples {
                assert_eq!(
                    truth.len(),
                    demands.len(),
                    "RouteNet: {} true delays for {} demands",
                    truth.len(),
                    demands.len()
                );
                let tape = Tape::new();
                let params = tape.params(&self.params);
                let pred = self.forward_tape(&tape, params, topo, demands, routing, None);
                // MSE over the sample's demands.
                let mut loss = tape.var(0.0);
                for (p, &t) in pred.iter().zip(truth.iter()) {
                    loss = loss + (*p - t).square();
                }
                loss = loss / truth.len() as f64;
                epoch_loss += loss.value();
                let grads = loss.grad_with_params();
                let mut grad_vec = grads.wrt_params(params).to_vec();
                let mut pg = [ParamGrad {
                    param: &mut self.params,
                    grad: &mut grad_vec,
                }];
                opt.step(&mut pg);
            }
            history.push(epoch_loss / samples.len() as f64);
        }
        history
    }
}

/// Append a fresh hidden state `[x0, 0, …, 0]` to `out`: one zero var
/// shared by the zero entries, recorded first, then a var for `x0`.
fn push_initial_state<'t>(tape: &'t Tape, d: usize, x0: f64, out: &mut Vec<Var<'t>>) {
    let zero = tape.var(0.0);
    out.push(tape.var(x0));
    out.extend(std::iter::repeat_n(zero, d - 1));
}

/// `agg += m·h` elementwise, or `agg += h` without a mask var: per
/// element, the product node (if any), then the sum node.
#[inline(always)]
fn accumulate<'t>(agg: &mut [Var<'t>], h: &[Var<'t>], m: Option<Var<'t>>) {
    for (a, &hk) in agg.iter_mut().zip(h) {
        let term = match m {
            Some(mv) => mv * hk,
            None => hk,
        };
        *a = *a + term;
    }
}

/// One update layer, `tanh(W·input + b)` with `W` at `w` and `b` at `b`
/// in `params`, appended to `out`: each of the `d` rows sums left to
/// right from its bias, one fused tape node per row.
#[inline(always)]
fn matvec<'t>(
    tape: &'t Tape,
    params: Params<'t>,
    d: usize,
    w: usize,
    b: usize,
    input: &[Var<'t>],
    out: &mut Vec<Var<'t>>,
) {
    let weights = params.range(w..w + d * (2 * d + 1));
    tape.affine(
        Activation::Tanh,
        params.range(b..b + d),
        weights,
        input,
        out,
    );
}

/// The delay readout of one path state, `((b + w₀h₀) + w₁h₁) + …`,
/// appended to `out`: one fused `Linear` row, bit-identical to that chain
/// (see [`Tape::affine`]).
#[inline(always)]
fn readout<'t>(
    tape: &'t Tape,
    params: Params<'t>,
    layout: &Layout,
    h: &[Var<'t>],
    out: &mut Vec<Var<'t>>,
) {
    let (b, w) = (layout.b_out, layout.w_out);
    let weights = params.range(w..w + h.len());
    tape.affine(Activation::Linear, params.range(b..b + 1), weights, h, out);
}

/// The (path, link) connection list of a routing in the canonical
/// path-major order shared by the model, the hypergraph formulation and
/// the mask search.
pub fn connections(topo: &Topology, routing: &Routing) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (p, path) in routing.iter().enumerate() {
        for l in topo.path_links(path) {
            out.push((p, l));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::paths::candidate_paths;
    use rand::SeedableRng;

    fn setup() -> (Topology, Vec<Demand>, Routing) {
        let topo = Topology::nsfnet();
        let demands = vec![
            Demand {
                src: 6,
                dst: 9,
                volume: 1.0,
            },
            Demand {
                src: 0,
                dst: 12,
                volume: 2.0,
            },
            Demand {
                src: 3,
                dst: 10,
                volume: 0.5,
            },
        ];
        let routing: Routing = demands
            .iter()
            .map(|d| candidate_paths(&topo, d.src, d.dst)[0].clone())
            .collect();
        (topo, demands, routing)
    }

    #[test]
    fn masked_forward_matches_all_ones_mask() {
        let (topo, demands, routing) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let model = RouteNetModel::new(4, &mut rng);
        let n_conn = connections(&topo, &routing).len();
        let unmasked = model.predict(&topo, &demands, &routing);
        let masked = |value: f64| -> Vec<f64> {
            let tape = Tape::new();
            let params = tape.params(&model.params);
            let mask = tape.vars(&vec![value; n_conn]);
            let out = model.forward_tape(&tape, params, &topo, &demands, &routing, Some(&mask));
            out.iter().map(|v| v.value()).collect()
        };
        // Each damped term is 1.0·h, so an all-ones mask changes no bit.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&masked(1.0)), bits(&unmasked));
        // A zeroed mask must change the output.
        let zeroed = masked(0.0);
        assert!(unmasked
            .iter()
            .zip(zeroed.iter())
            .any(|(a, b)| (a - b).abs() > 1e-9));
    }

    /// Path states come from `routing` and volumes from `demands`, so a
    /// short routing would silently drop demands from the prediction.
    #[test]
    #[should_panic(expected = "routing has 2 paths for 3 demands")]
    fn predict_rejects_a_routing_shorter_than_its_demands() {
        let (topo, demands, mut routing) = setup();
        routing.pop();
        let model = RouteNetModel::new(4, &mut StdRng::seed_from_u64(4));
        model.predict(&topo, &demands, &routing);
    }

    #[test]
    #[should_panic(expected = "2 candidate lists for 3 demands")]
    fn candidate_scoring_rejects_missing_candidates() {
        let (topo, demands, routing) = setup();
        let model = RouteNetModel::new(4, &mut StdRng::seed_from_u64(4));
        let candidates: Vec<_> = demands[..2]
            .iter()
            .map(|d| candidate_paths(&topo, d.src, d.dst))
            .collect();
        let tape = Tape::new();
        let params = tape.params(model.params());
        model.candidate_delays_tape(&tape, params, &topo, &demands, &routing, &candidates, None);
    }

    #[test]
    #[should_panic(expected = "2 true delays for 3 demands")]
    fn train_rejects_a_truth_without_one_delay_per_demand() {
        let (topo, demands, routing) = setup();
        let mut model = RouteNetModel::new(4, &mut StdRng::seed_from_u64(4));
        model.train(&topo, &[(demands, routing, vec![1.0, 2.0])], 1, 0.01);
    }

    #[test]
    fn training_reduces_loss_and_correlates() {
        let topo = Topology::nsfnet();
        let model_gt = LatencyModel::default();
        let mut rng = StdRng::seed_from_u64(7);
        // Build a small training corpus of random routings.
        let mut samples = Vec::new();
        for i in 0..6 {
            let sample = crate::demand::demand_corpus(14, 12, 1, 100 + i)[0].clone();
            let routing: Routing = sample
                .demands
                .iter()
                .map(|d| {
                    let cands = candidate_paths(&topo, d.src, d.dst);
                    cands[rng.gen_range(0..cands.len())].clone()
                })
                .collect();
            let truth = model_gt.path_latencies(&topo, &sample.demands, &routing);
            samples.push((sample.demands, routing, truth));
        }
        let mut net = RouteNetModel::new(6, &mut rng);
        let history = net.train(&topo, &samples, 60, 0.01);
        assert!(
            history.last().unwrap() < &(history[0] * 0.5),
            "training should at least halve the loss: {:?} -> {:?}",
            history[0],
            history.last().unwrap()
        );
        // Predictions must correlate with ground truth on the train set.
        let (demands, routing, truth) = &samples[0];
        let pred = net.predict(&topo, demands, routing);
        let corr = pearson(&pred, truth);
        assert!(corr > 0.5, "prediction correlation too weak: {corr}");
    }

    fn pearson(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
        let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
        cov / (va.sqrt() * vb.sqrt()).max(1e-12)
    }

    #[test]
    fn connections_path_major_order() {
        let (topo, _, routing) = setup();
        let conns = connections(&topo, &routing);
        // Path indices appear in non-decreasing order.
        assert!(conns.windows(2).all(|w| w[0].0 <= w[1].0));
        let total: usize = routing.iter().map(|p| p.len() - 1).sum();
        assert_eq!(conns.len(), total);
    }

    #[test]
    fn param_count_matches_layout() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = RouteNetModel::new(8, &mut rng);
        // 2 * (d*(2d+1) + d) + d + 1 with d=8.
        assert_eq!(m.param_count(), 2 * (8 * 17 + 8) + 8 + 1);
    }
}
