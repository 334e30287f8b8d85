//! Facade-level smoke tests: every re-exported crate is reachable and the
//! headline types compose.

use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn all_reexports_reachable() {
    let mut rng = StdRng::seed_from_u64(1);
    // nn
    let mlp = metis::nn::Mlp::new(
        &[2, 4, 2],
        metis::nn::Activation::Tanh,
        metis::nn::Activation::Linear,
        &mut rng,
    );
    assert_eq!(mlp.predict(&[0.0, 0.0]).len(), 2);
    // dt
    let ds = metis::dt::Dataset::classification(vec![vec![0.0], vec![1.0]], vec![0, 1], 2).unwrap();
    let tree = metis::dt::fit(&ds, &metis::dt::TreeConfig::default()).unwrap();
    assert_eq!(tree.predict_class(&[0.0]), 0);
    // hypergraph
    let mut h = metis::hypergraph::Hypergraph::new(3);
    h.add_edge(&[0, 1]).unwrap();
    assert_eq!(h.n_connections(), 2);
    // abr
    assert_eq!(metis::abr::OBS_DIM, 25);
    // flowsched
    assert_eq!(metis::flowsched::LRLA_STATE_DIM, 143);
    assert_eq!(metis::flowsched::SRLA_STATE_DIM, 700);
    // routing
    assert_eq!(metis::routing::Topology::nsfnet().n_nodes(), 14);
    // serve + fabric: compile a tree, check the hash contract surface
    let compiled = metis::dt::CompiledTree::compile(&tree);
    assert_eq!(compiled.n_features(), 1);
    let served = metis::dt::Forest::from(tree.clone());
    assert!(served.diff_batch(&served.clone(), &[0.0, 1.0]).is_clean());
    assert!(metis::fabric::shard_for_session(7, 3) < 3);
    let _cfg: metis::serve::ServeConfig = Default::default();
    let _shadow = metis::fabric::ShadowConfig::default();
}

#[test]
fn table4_defaults_flow_into_mask_search() {
    let cfg = metis::hypergraph::MaskConfig::default();
    assert_eq!(cfg.lambda1, 0.25);
    assert_eq!(cfg.lambda2, 1.0);
}
