//! Hypergraph interpretation of the RouteNet* global system (§4, §6.1,
//! §6.5): formulate the routing as a hypergraph, run the critical-
//! connection search, classify the top connections (Table 3), correlate
//! mask mass with link traffic (Figure 9b), and drive ad-hoc rerouting
//! decisions (Figure 18). Also the local-system instance of the same
//! search ([`interpret_policy_features`]): a feature mask on an MLP policy
//! over recorded observations, evaluated through the thread-sharded
//! gradient of [`metis_hypergraph::MaskedMlp`].

use metis_hypergraph::{
    optimize_mask, Hypergraph, MaskConfig, MaskResult, MaskedMlp, MaskedSystem, OutputKind,
};
use metis_nn::net::softmax;
use metis_nn::tape::{Tape, Var};
use metis_nn::Mlp;
use metis_routing::{
    candidates_for, connections, Demand, LatencyModel, RouteNetModel, Routing, Topology,
};

/// Formulate an SDN routing result as a hypergraph (§4.1 / Figure 5):
/// vertices are directed links, hyperedges are the routed paths, features
/// are capacities and demand volumes.
pub fn routing_hypergraph(topo: &Topology, demands: &[Demand], routing: &Routing) -> Hypergraph {
    let mut h = Hypergraph::new(topo.n_links());
    for path in routing {
        let links = topo.path_links(path);
        h.add_edge(&links).expect("paths produce valid hyperedges");
    }
    h.set_vertex_features(
        (0..topo.n_links())
            .map(|l| vec![topo.link(l).capacity])
            .collect(),
    )
    .unwrap();
    h.set_edge_features(demands.iter().map(|d| vec![d.volume]).collect())
        .unwrap();
    h.vertex_names = Some((0..topo.n_links()).map(|l| topo.link_name(l)).collect());
    h.edge_names = Some(
        routing
            .iter()
            .map(|p| {
                p.iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join("->")
            })
            .collect(),
    );
    h
}

/// The masked RouteNet* system: damping a (path, link) connection damps
/// the messages exchanged across it inside the GNN, and the output is the
/// concatenation of per-demand softmax distributions over candidate paths
/// (routing decisions -> discrete, compared by KL; Eq. 6).
pub struct MaskedRouting<'a> {
    pub model: &'a RouteNetModel,
    pub topo: &'a Topology,
    pub demands: &'a [Demand],
    pub routing: &'a Routing,
    pub candidates: Vec<Vec<Vec<usize>>>,
    n_connections: usize,
}

/// Softmax sharpness over candidate delays. Sharp candidate distributions
/// matter: damping a decisive connection must move real probability mass,
/// otherwise the KL term cannot compete with the conciseness penalty and
/// every mask collapses to zero.
const BETA: f64 = 25.0;

impl<'a> MaskedRouting<'a> {
    pub fn new(
        model: &'a RouteNetModel,
        topo: &'a Topology,
        demands: &'a [Demand],
        routing: &'a Routing,
    ) -> Self {
        let candidates = candidates_for(topo, demands);
        let n_connections = connections(topo, routing).len();
        MaskedRouting {
            model,
            topo,
            demands,
            routing,
            candidates,
            n_connections,
        }
    }
}

impl MaskedSystem for MaskedRouting<'_> {
    fn n_connections(&self) -> usize {
        self.n_connections
    }

    fn reference_output(&self) -> Vec<f64> {
        // Unmasked candidate delays -> per-demand softmax, concatenated.
        let tape = Tape::new();
        let delays = self.model.candidate_delays_tape(
            &tape,
            tape.params(self.model.params()),
            self.topo,
            self.demands,
            self.routing,
            &self.candidates,
            None,
        );
        let mut out = Vec::new();
        for per_demand in delays {
            let scores: Vec<f64> = per_demand.iter().map(|v| -BETA * v.value()).collect();
            out.extend(softmax(&scores));
        }
        out
    }

    fn masked_output<'t>(&self, tape: &'t Tape, mask: &[Var<'t>]) -> Vec<Var<'t>> {
        let delays = self.model.candidate_delays_tape(
            tape,
            tape.params(self.model.params()),
            self.topo,
            self.demands,
            self.routing,
            &self.candidates,
            Some(mask),
        );
        let mut out = Vec::new();
        for per_demand in delays {
            // Differentiable softmax over -BETA * delay.
            let exps: Vec<Var<'t>> = per_demand.iter().map(|d| (*d * (-BETA)).exp()).collect();
            let total = metis_nn::tape::sum(tape, &exps);
            for e in exps {
                out.push(e / total);
            }
        }
        out
    }

    fn output_kind(&self) -> OutputKind {
        OutputKind::Discrete
    }
}

/// One row of the Table-3 style report.
#[derive(Debug, Clone)]
pub struct ConnectionReport {
    pub path: String,
    pub link: String,
    pub mask: f64,
    pub kind: InterpretationKind,
    /// (demand index, link index) of the connection.
    pub demand_idx: usize,
    pub link_idx: usize,
}

/// The paper's two interpretation categories for critical connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpretationKind {
    /// The chosen path is strictly shorter than the masked alternative.
    Shorter,
    /// An equal-length alternative exists but is more congested.
    LessCongested,
    Other,
}

impl std::fmt::Display for InterpretationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpretationKind::Shorter => write!(f, "Shorter"),
            InterpretationKind::LessCongested => write!(f, "Less congested"),
            InterpretationKind::Other => write!(f, "Other"),
        }
    }
}

/// Classify why a critical connection matters (Table 3's last column):
/// compare the chosen path against the alternatives that avoid this link.
pub fn classify_connection(
    topo: &Topology,
    demands: &[Demand],
    routing: &Routing,
    latency: &LatencyModel,
    demand_idx: usize,
    link_idx: usize,
) -> InterpretationKind {
    let chosen = &routing[demand_idx];
    let d = demands[demand_idx];
    let alternatives: Vec<Vec<usize>> = metis_routing::candidate_paths(topo, d.src, d.dst)
        .into_iter()
        .filter(|p| p != chosen && !topo.path_links(p).contains(&link_idx))
        .collect();
    if alternatives.is_empty() {
        // Every candidate route uses this link: it is selected because all
        // detours would be longer than the candidate budget allows.
        return InterpretationKind::Shorter;
    }
    let chosen_len = chosen.len();
    if alternatives.iter().all(|p| p.len() > chosen_len) {
        return InterpretationKind::Shorter;
    }
    // Some equal-length alternative exists: critical if it is more loaded.
    let loads = latency.link_loads(topo, demands, routing);
    let path_max_load = |p: &Vec<usize>| -> f64 {
        topo.path_links(p)
            .iter()
            .map(|&l| loads[l])
            .fold(0.0, f64::max)
    };
    let chosen_load = path_max_load(chosen);
    let equal_len: Vec<&Vec<usize>> = alternatives
        .iter()
        .filter(|p| p.len() == chosen_len)
        .collect();
    if equal_len.iter().any(|p| path_max_load(p) > chosen_load) {
        InterpretationKind::LessCongested
    } else {
        InterpretationKind::Other
    }
}

/// Run the full §4.2 search and produce the Table-3 style top-k report.
pub fn interpret_routing(
    model: &RouteNetModel,
    topo: &Topology,
    demands: &[Demand],
    routing: &Routing,
    mask_cfg: &MaskConfig,
    top_k: usize,
) -> (MaskResult, Vec<ConnectionReport>) {
    let system = MaskedRouting::new(model, topo, demands, routing);
    let result = optimize_mask(&system, mask_cfg);
    let conns = connections(topo, routing);
    let latency = LatencyModel::default();
    let reports = result
        .ranked()
        .into_iter()
        .take(top_k)
        .map(|i| {
            let (p, l) = conns[i];
            ConnectionReport {
                path: routing[p]
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join("->"),
                link: topo.link_name(l),
                mask: result.mask[i],
                kind: classify_connection(topo, demands, routing, &latency, p, l),
                demand_idx: p,
                link_idx: l,
            }
        })
        .collect();
    (result, reports)
}

/// One row of the local-system (feature-mask) interpretation report.
#[derive(Debug, Clone)]
pub struct FeatureReport {
    /// Feature name (or `feature <i>` when no names are supplied).
    pub feature: String,
    /// Observation-feature index of the connection.
    pub index: usize,
    /// Surviving mask value.
    pub mask: f64,
}

/// Run the §4 critical-connection search over a **local** system: mask
/// the observation features of an MLP policy (ABR, flow scheduling)
/// against a batch of recorded observations, and report the ranked
/// critical features. The gradient evaluation records each observation
/// on its own tape and shards [`metis_hypergraph::MaskedMlp`]'s blocks of
/// observations across `mask_cfg.threads` workers; results are
/// bit-identical for any thread count.
pub fn interpret_policy_features(
    net: &Mlp,
    observations: Vec<Vec<f64>>,
    feature_names: Option<&[String]>,
    mask_cfg: &MaskConfig,
    top_k: usize,
) -> (MaskResult, Vec<FeatureReport>) {
    if let Some(names) = feature_names {
        assert_eq!(names.len(), net.in_dim(), "feature name count mismatch");
    }
    let system = MaskedMlp::new(net, observations, OutputKind::Discrete);
    let result = optimize_mask(&system, mask_cfg);
    let reports = result
        .ranked()
        .into_iter()
        .take(top_k)
        .map(|i| FeatureReport {
            feature: feature_names.map_or_else(|| format!("feature {i}"), |n| n[i].clone()),
            index: i,
            mask: result.mask[i],
        })
        .collect();
    (result, reports)
}

/// Figure 9(b): per-link mask mass `Σ_e W_ve` aligned with `topo.links()`.
pub fn mask_mass_per_link(topo: &Topology, routing: &Routing, mask: &[f64]) -> Vec<f64> {
    let conns = connections(topo, routing);
    assert_eq!(conns.len(), mask.len());
    let mut mass = vec![0.0; topo.n_links()];
    for ((_, l), &m) in conns.iter().zip(mask.iter()) {
        mass[*l] += m;
    }
    mass
}

/// One Figure-18 ad-hoc rerouting observation.
#[derive(Debug, Clone, Copy)]
pub struct AdhocPoint {
    /// `w⁰₁ − w⁰₂`: mask difference at the two diverting hops.
    pub dw: f64,
    /// `l₁ − l₂`: true latency difference of the two reroute options.
    pub dl: f64,
}

/// Index (into the path's links) of the first hop where `alt` diverges
/// from `base`; `None` if `alt` does not share a proper prefix.
fn divergence_hop(base: &[usize], alt: &[usize]) -> Option<usize> {
    let shared = base
        .iter()
        .zip(alt.iter())
        .take_while(|(a, b)| a == b)
        .count();
    if shared == 0 || shared >= base.len() || shared >= alt.len() {
        None
    } else {
        Some(shared - 1) // the hop leaving the last shared node
    }
}

/// Collect Figure-18 points for a routed sample: for every demand with two
/// candidates `p1`, `p2` diverting from the chosen `p0` at *different*
/// nodes, record the mask difference at those diverting hops and the true
/// latency difference of rerouting onto `p1` vs `p2`.
pub fn adhoc_points(
    topo: &Topology,
    demands: &[Demand],
    routing: &Routing,
    mask: &[f64],
    latency: &LatencyModel,
) -> Vec<AdhocPoint> {
    let conns = connections(topo, routing);
    // Connection-index lookup: (demand, link) -> position in mask vector.
    let lookup = |demand: usize, link: usize| -> Option<usize> {
        conns.iter().position(|&(p, l)| p == demand && l == link)
    };
    let mut points = Vec::new();
    for (i, d) in demands.iter().enumerate() {
        let p0 = &routing[i];
        let cands: Vec<Vec<usize>> = metis_routing::candidate_paths(topo, d.src, d.dst)
            .into_iter()
            .filter(|p| p != p0)
            .collect();
        // All pairs diverting at different hops.
        for (a, p1) in cands.iter().enumerate() {
            let Some(h1) = divergence_hop(p0, p1) else {
                continue;
            };
            for p2 in cands.iter().skip(a + 1) {
                let Some(h2) = divergence_hop(p0, p2) else {
                    continue;
                };
                if h1 == h2 {
                    continue;
                }
                let links0 = topo.path_links(p0);
                let (Some(c1), Some(c2)) = (lookup(i, links0[h1]), lookup(i, links0[h2])) else {
                    continue;
                };
                // True latencies after rerouting demand i onto p1 / p2.
                let mut r1 = routing.clone();
                r1[i] = p1.clone();
                let l1 = latency.path_latencies(topo, demands, &r1)[i];
                let mut r2 = routing.clone();
                r2[i] = p2.clone();
                let l2 = latency.path_latencies(topo, demands, &r2)[i];
                points.push(AdhocPoint {
                    dw: mask[c1] - mask[c2],
                    dl: l1 - l2,
                });
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_routing::optimize_routing;
    use rand::SeedableRng;

    fn small_setup() -> (Topology, Vec<Demand>, Routing, RouteNetModel) {
        let topo = Topology::nsfnet();
        let demands = vec![
            Demand {
                src: 6,
                dst: 9,
                volume: 1.2,
            },
            Demand {
                src: 0,
                dst: 12,
                volume: 0.8,
            },
            Demand {
                src: 8,
                dst: 2,
                volume: 1.5,
            },
        ];
        let latency = LatencyModel::default();
        let routing = optimize_routing(&topo, &demands, &latency, 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let model = RouteNetModel::new(4, &mut rng);
        (topo, demands, routing, model)
    }

    #[test]
    fn hypergraph_matches_routing_structure() {
        let (topo, demands, routing, _) = small_setup();
        let h = routing_hypergraph(&topo, &demands, &routing);
        assert_eq!(h.n_vertices(), topo.n_links());
        assert_eq!(h.n_edges(), demands.len());
        for (e, path) in routing.iter().enumerate() {
            assert_eq!(h.edge_size(e), path.len() - 1);
            for l in topo.path_links(path) {
                assert!(h.contains(e, l));
            }
        }
        // Connection count matches the canonical ordering helper.
        assert_eq!(h.n_connections(), connections(&topo, &routing).len());
    }

    #[test]
    fn masked_routing_reference_is_distribution() {
        let (topo, demands, routing, model) = small_setup();
        let system = MaskedRouting::new(&model, &topo, &demands, &routing);
        let reference = system.reference_output();
        // One softmax per demand, each summing to 1.
        let mut offset = 0;
        for c in &system.candidates {
            let s: f64 = reference[offset..offset + c.len()].iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            offset += c.len();
        }
        assert_eq!(offset, reference.len());
    }

    #[test]
    fn masked_output_matches_reference_at_full_mask() {
        let (topo, demands, routing, model) = small_setup();
        let system = MaskedRouting::new(&model, &topo, &demands, &routing);
        let reference = system.reference_output();
        let tape = Tape::new();
        // logit +inf ~ mask 1: use a large logit.
        let big = tape.vars(&vec![30.0; system.n_connections()]);
        let mask: Vec<Var<'_>> = big.iter().map(|v| v.sigmoid()).collect();
        let out = system.masked_output(&tape, &mask);
        for (a, b) in out.iter().zip(reference.iter()) {
            assert!((a.value() - b).abs() < 1e-6, "{} vs {}", a.value(), b);
        }
    }

    #[test]
    fn interpret_routing_produces_ranked_report() {
        let (topo, demands, routing, model) = small_setup();
        let cfg = MaskConfig {
            steps: 40,
            ..Default::default()
        };
        let (result, report) = interpret_routing(&model, &topo, &demands, &routing, &cfg, 5);
        assert_eq!(report.len(), 5.min(result.mask.len()));
        // Ranked by mask, descending.
        for w in report.windows(2) {
            assert!(w[0].mask >= w[1].mask);
        }
        assert!(result.mask.iter().all(|&m| (0.0..=1.0).contains(&m)));
    }

    #[test]
    fn classification_identifies_shorter() {
        let (topo, demands, routing, _) = small_setup();
        // Demand 0 on an idle network takes the shortest path; masking one
        // of its links forces a detour -> "Shorter" (or LessCongested if an
        // equal-length alternative exists).
        let latency = LatencyModel::default();
        let links = topo.path_links(&routing[0]);
        let kind = classify_connection(&topo, &demands, &routing, &latency, 0, links[0]);
        assert!(
            kind == InterpretationKind::Shorter || kind == InterpretationKind::LessCongested,
            "unexpected class {kind:?}"
        );
    }

    #[test]
    fn mask_mass_alignment() {
        let (topo, _, routing, _) = small_setup();
        let n = connections(&topo, &routing).len();
        let mass = mask_mass_per_link(&topo, &routing, &vec![1.0; n]);
        // Total mass equals the number of connections.
        assert!((mass.iter().sum::<f64>() - n as f64).abs() < 1e-12);
        // Links not on any path have zero mass.
        let used: std::collections::HashSet<usize> =
            routing.iter().flat_map(|p| topo.path_links(p)).collect();
        for (l, &m) in mass.iter().enumerate() {
            if !used.contains(&l) {
                assert_eq!(m, 0.0);
            }
        }
    }

    #[test]
    fn divergence_hop_detection() {
        assert_eq!(divergence_hop(&[6, 7, 10, 9], &[6, 4, 5, 9]), Some(0));
        assert_eq!(divergence_hop(&[0, 2, 5, 12], &[0, 2, 1, 7, 12]), Some(1));
        assert_eq!(divergence_hop(&[0, 1], &[2, 1]), None);
    }

    #[test]
    fn adhoc_points_have_both_coordinates() {
        let (topo, demands, routing, _) = small_setup();
        let n = connections(&topo, &routing).len();
        let latency = LatencyModel::default();
        // A synthetic mask that decays along each path.
        let mask: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let pts = adhoc_points(&topo, &demands, &routing, &mask, &latency);
        for p in &pts {
            assert!(p.dw.is_finite() && p.dl.is_finite());
            assert!(
                p.dw != 0.0,
                "different hops should have different masks here"
            );
        }
    }
}
