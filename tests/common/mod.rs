//! Helpers shared by the integration suites that pin trees by digest.

use metis::dt::{DecisionTree, NodeStats};
use metis::telemetry::Fnv1a;

/// FNV-1a over every node of a tree: split feature, threshold bits and
/// children (or a leaf marker), then the statistics' bits.
pub fn tree_digest(tree: &DecisionTree) -> u64 {
    let mut h = Fnv1a::new();
    for k in 0..tree.node_count() {
        let node = tree.node(k);
        match &node.split {
            Some(s) => {
                h.write(&[1]);
                for word in [
                    s.feature as u64,
                    s.threshold.to_bits(),
                    s.left as u64,
                    s.right as u64,
                ] {
                    h.write_u64(word);
                }
            }
            None => h.write(&[0]),
        }
        match &node.stats {
            NodeStats::Class { dist } => dist.iter().for_each(|c| h.write_u64(c.to_bits())),
            NodeStats::Value { w, sum, sumsq } => [w, sum, sumsq]
                .iter()
                .for_each(|v| h.write_u64(v.to_bits())),
        }
    }
    h.finish()
}
