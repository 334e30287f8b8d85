//! Ground-truth latency model: per-link M/M/1-style queueing delay
//! (substitute for RouteNet's OMNeT++ packet-level dataset; see the
//! README's *Substitutions*). Delay grows as `1/(C − load)` and saturates with
//! a finite overload penalty so optimizers see a strong but bounded
//! gradient away from congestion.

use crate::demand::Demand;
use crate::topo::Topology;
use serde::{Deserialize, Serialize};

/// A routing assignment: one node path per demand (same order as the
/// demand list).
pub type Routing = Vec<Vec<usize>>;

/// Latency model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Fixed per-hop propagation delay.
    pub propagation: f64,
    /// Utilization at which the queueing term is clamped (e.g. 0.95).
    pub max_utilization: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            propagation: 0.1,
            max_utilization: 0.95,
        }
    }
}

impl LatencyModel {
    /// Per-link loads induced by a routing (aligned with `topo.links()`).
    pub fn link_loads(&self, topo: &Topology, demands: &[Demand], routing: &Routing) -> Vec<f64> {
        assert_eq!(demands.len(), routing.len(), "routing/demand mismatch");
        let mut loads = vec![0.0; topo.n_links()];
        for (d, path) in demands.iter().zip(routing.iter()) {
            assert_eq!(path[0], d.src, "path must start at the demand source");
            assert_eq!(
                *path.last().unwrap(),
                d.dst,
                "path must end at the demand sink"
            );
            for l in topo.path_links(path) {
                loads[l] += d.volume;
            }
        }
        loads
    }

    /// Queueing + propagation delay of one link at a given load.
    pub fn link_delay(&self, capacity: f64, load: f64) -> f64 {
        let effective = load.min(capacity * self.max_utilization);
        let queueing = 1.0 / (capacity - effective);
        // Linear overload penalty keeps the model finite and monotone.
        let overload = (load - capacity * self.max_utilization).max(0.0) / capacity;
        self.propagation + queueing + 10.0 * overload
    }

    /// End-to-end latency of every routed demand.
    pub fn path_latencies(
        &self,
        topo: &Topology,
        demands: &[Demand],
        routing: &Routing,
    ) -> Vec<f64> {
        let loads = self.link_loads(topo, demands, routing);
        routing
            .iter()
            .map(|path| {
                topo.path_links(path)
                    .iter()
                    .map(|&l| self.link_delay(topo.link(l).capacity, loads[l]))
                    .sum()
            })
            .collect()
    }

    /// Latency of a hypothetical extra path under existing loads (used by
    /// the closed-loop optimizer when scoring candidates).
    pub fn path_latency_given_loads(
        &self,
        topo: &Topology,
        loads: &[f64],
        path: &[usize],
        extra_volume: f64,
    ) -> f64 {
        topo.path_links(path)
            .iter()
            .map(|&l| self.link_delay(topo.link(l).capacity, loads[l] + extra_volume))
            .sum()
    }

    /// Mean latency over all demands (the optimizer's objective).
    pub fn mean_latency(&self, topo: &Topology, demands: &[Demand], routing: &Routing) -> f64 {
        let lat = self.path_latencies(topo, demands, routing);
        lat.iter().sum::<f64>() / lat.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Demand;

    fn line_topo() -> Topology {
        Topology::from_undirected(3, &[(0, 1), (1, 2)], 10.0)
    }

    #[test]
    fn delay_monotone_in_load() {
        let m = LatencyModel::default();
        let mut last = 0.0;
        for load in [0.0, 2.0, 5.0, 8.0, 9.4, 9.6, 12.0] {
            let d = m.link_delay(10.0, load);
            assert!(d > last, "delay must increase with load");
            assert!(d.is_finite());
            last = d;
        }
    }

    #[test]
    fn loads_accumulate_over_shared_links() {
        let t = line_topo();
        let m = LatencyModel::default();
        let demands = vec![
            Demand {
                src: 0,
                dst: 2,
                volume: 2.0,
            },
            Demand {
                src: 1,
                dst: 2,
                volume: 3.0,
            },
        ];
        let routing = vec![vec![0, 1, 2], vec![1, 2]];
        let loads = m.link_loads(&t, &demands, &routing);
        let l12 = t.link_index(1, 2).unwrap();
        let l01 = t.link_index(0, 1).unwrap();
        assert_eq!(loads[l12], 5.0);
        assert_eq!(loads[l01], 2.0);
        // Reverse directions untouched.
        assert_eq!(loads[t.link_index(2, 1).unwrap()], 0.0);
    }

    #[test]
    fn path_latency_sums_hops() {
        let t = line_topo();
        let m = LatencyModel::default();
        let demands = vec![Demand {
            src: 0,
            dst: 2,
            volume: 1.0,
        }];
        let routing = vec![vec![0, 1, 2]];
        let lat = m.path_latencies(&t, &demands, &routing);
        let expected = 2.0 * (0.1 + 1.0 / 9.0);
        assert!((lat[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn congested_path_slower_than_idle() {
        let t = Topology::nsfnet();
        let m = LatencyModel::default();
        let demands = vec![
            Demand {
                src: 9,
                dst: 12,
                volume: 8.0,
            },
            Demand {
                src: 11,
                dst: 12,
                volume: 1.0,
            },
        ];
        let routing = vec![vec![9, 12], vec![11, 12]];
        let lat = m.path_latencies(&t, &demands, &routing);
        assert!(lat[0] > lat[1], "heavily loaded 9->12 must be slower");
    }

    #[test]
    fn candidate_scoring_includes_own_volume() {
        let t = line_topo();
        let m = LatencyModel::default();
        let loads = vec![0.0; t.n_links()];
        let quiet = m.path_latency_given_loads(&t, &loads, &[0, 1], 1.0);
        let heavy = m.path_latency_given_loads(&t, &loads, &[0, 1], 8.0);
        assert!(heavy > quiet);
    }

    #[test]
    #[should_panic(expected = "path must start")]
    fn mismatched_routing_rejected() {
        let t = line_topo();
        let m = LatencyModel::default();
        let demands = vec![Demand {
            src: 0,
            dst: 2,
            volume: 1.0,
        }];
        let _ = m.link_loads(&t, &demands, &vec![vec![1, 2]]);
    }
}
