//! Cross-crate integration tests: the §4 hypergraph interpretation on the
//! real RouteNet* substrate, and the Appendix-B formulations.

use metis::core::{interpret_routing, routing_hypergraph, InterpretationKind, MaskedRouting};
use metis::hypergraph::{optimize_mask, MaskConfig, MaskedSystem};
use metis::routing::{
    candidate_paths, connections, demand_corpus, optimize_routing, Demand, LatencyModel,
    RouteNetModel, Routing, Topology,
};
use metis::telemetry::Fnv1a;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn full_interpretation_on_nsfnet() {
    let topo = Topology::nsfnet();
    let latency = LatencyModel::default();
    let sample = demand_corpus(14, 10, 1, 3)[0].clone();
    let routing = optimize_routing(&topo, &sample.demands, &latency, 1);
    let mut rng = StdRng::seed_from_u64(5);
    let model = RouteNetModel::new(4, &mut rng);

    let cfg = MaskConfig {
        steps: 60,
        ..Default::default()
    };
    let (result, report) = interpret_routing(&model, &topo, &sample.demands, &routing, &cfg, 5);

    // Masks valid and aligned with the hypergraph connection count.
    let h = routing_hypergraph(&topo, &sample.demands, &routing);
    assert_eq!(result.mask.len(), h.n_connections());
    assert_eq!(result.mask.len(), connections(&topo, &routing).len());
    assert!(result.mask.iter().all(|&m| (0.0..=1.0).contains(&m)));

    // Report rows reference real connections with sane classifications.
    assert_eq!(report.len(), 5);
    for r in &report {
        assert!(r.demand_idx < sample.demands.len());
        assert!(r.link_idx < topo.n_links());
        assert!(matches!(
            r.kind,
            InterpretationKind::Shorter
                | InterpretationKind::LessCongested
                | InterpretationKind::Other
        ));
        // The link must actually be on the reported path.
        let links = topo.path_links(&routing[r.demand_idx]);
        assert!(links.contains(&r.link_idx));
    }
}

#[test]
fn mask_search_is_deterministic() {
    let topo = Topology::nsfnet();
    let latency = LatencyModel::default();
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
    ];
    let routing = optimize_routing(&topo, &demands, &latency, 1);
    let mut rng = StdRng::seed_from_u64(9);
    let model = RouteNetModel::new(4, &mut rng);
    let cfg = MaskConfig {
        steps: 40,
        ..Default::default()
    };
    let (r1, _) = interpret_routing(&model, &topo, &demands, &routing, &cfg, 3);
    let (r2, _) = interpret_routing(&model, &topo, &demands, &routing, &cfg, 3);
    assert_eq!(r1.mask, r2.mask, "the search has no stochastic component");
}

#[test]
fn figure5_worked_example_roundtrip() {
    // The paper's Figure-5 example expressed through the public API:
    // two demands on a custom 8-link topology produce exactly Eq. 2/3.
    // (The unit-level checks live in metis-hypergraph; here we verify the
    // routing-to-hypergraph integration path.)
    let topo = Topology::nsfnet();
    let demands = vec![Demand {
        src: 6,
        dst: 9,
        volume: 1.0,
    }];
    let routing = vec![vec![6, 7, 10, 9]];
    let h = routing_hypergraph(&topo, &demands, &routing);
    assert_eq!(h.n_edges(), 1);
    assert_eq!(h.edge_size(0), 3);
    let i = h.incidence_matrix();
    assert_eq!(i.rows(), 1);
    assert_eq!(i.cols(), topo.n_links());
    let row_sum: f64 = i.data().iter().sum();
    assert_eq!(row_sum, 3.0);
}

/// A trained RouteNet, its reference routing distribution, the mask the
/// §4 search finds on it and its `predict` on the same sample, each
/// pinned to a digest. The first three were recorded before RouteNet's
/// message passing was rewritten onto the tape, the fourth before it
/// moved onto flat state buffers. The other tests here compare runs
/// inside one binary, so only this one notices a RouteNet or mask result
/// that moves between commits. A failure names the first stage that
/// moved; fix the change, never re-pin.
#[test]
fn mask_search_is_pinned() {
    let topo = Topology::nsfnet();
    let latency = LatencyModel::default();
    let mut rng = StdRng::seed_from_u64(11);
    let corpus: Vec<_> = demand_corpus(14, 8, 3, 0x77)
        .into_iter()
        .map(|s| {
            let routing: Routing = s
                .demands
                .iter()
                .map(|d| {
                    let cands = candidate_paths(&topo, d.src, d.dst);
                    cands[rng.gen_range(0..cands.len())].clone()
                })
                .collect();
            let truth = latency.path_latencies(&topo, &s.demands, &routing);
            (s.demands, routing, truth)
        })
        .collect();
    let mut model = RouteNetModel::new(6, &mut rng);
    let history = model.train(&topo, &corpus, 5, 0.01);
    let mut trained = Fnv1a::new();
    model
        .params()
        .iter()
        .chain(&history)
        .for_each(|v| trained.write_u64(v.to_bits()));

    let sample = demand_corpus(14, 8, 1, 0x99).remove(0);
    let routing = optimize_routing(&topo, &sample.demands, &latency, 1);
    let system = MaskedRouting::new(&model, &topo, &sample.demands, &routing);
    let mut reference = Fnv1a::new();
    system
        .reference_output()
        .iter()
        .for_each(|v| reference.write_u64(v.to_bits()));
    let cfg = MaskConfig {
        steps: 40,
        ..Default::default()
    };
    let result = optimize_mask(&system, &cfg);
    let mut searched = Fnv1a::new();
    result
        .mask
        .iter()
        .chain(&result.loss_history)
        .for_each(|v| searched.write_u64(v.to_bits()));

    let mut predicted = Fnv1a::new();
    model
        .predict(&topo, &sample.demands, &routing)
        .iter()
        .for_each(|v| predicted.write_u64(v.to_bits()));

    let got = [
        trained.finish(),
        reference.finish(),
        searched.finish(),
        predicted.finish(),
    ];
    eprintln!(
        "{} connections, digests {:#018x} {:#018x} {:#018x} {:#018x}",
        system.n_connections(),
        got[0],
        got[1],
        got[2],
        got[3]
    );
    let want = [
        0x939e_1a29_cfe9_ea49,
        0xbe44_7dd2_63b8_5a8e,
        0xf390_c6f8_9888_4f45,
        0x4e27_fb5f_7cff_6ad4,
    ];
    let stages = [
        "trained model",
        "reference output",
        "searched mask",
        "predicted delays",
    ];
    for (stage, (g, w)) in stages.iter().zip(got.iter().zip(want.iter())) {
        assert_eq!(g, w, "{stage} moved: got {g:#018x}, pinned {w:#018x}");
    }
}
