//! Per-flow decision coverage (Figure 16b): a flow can only receive an
//! individualized scheduling decision if it lives longer than the agent's
//! decision latency. Faster decisions (the converted tree) therefore cover
//! more flows and more bytes.

use crate::sim::CompletedFlow;

/// Coverage of per-flow decisions at a given decision latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coverage {
    /// Fraction of flows whose FCT exceeds the latency.
    pub flow_fraction: f64,
    /// Fraction of bytes carried by those flows.
    pub byte_fraction: f64,
}

/// Compute coverage from a completed-flow population.
pub fn coverage(flows: &[CompletedFlow], decision_latency_s: f64) -> Coverage {
    if flows.is_empty() {
        return Coverage {
            flow_fraction: 0.0,
            byte_fraction: 0.0,
        };
    }
    let total_bytes = bytes(flows.iter());
    let covered: Vec<&CompletedFlow> = flows
        .iter()
        .filter(|f| f.fct_s > decision_latency_s)
        .collect();
    let covered_bytes = bytes(covered.iter().copied());
    Coverage {
        flow_fraction: covered.len() as f64 / flows.len() as f64,
        byte_fraction: covered_bytes / total_bytes.max(1e-12),
    }
}

/// Bytes carried by `flows`, summed from +0.0: `Sum` over no `f64` gives
/// -0.0, which printed an uncovered population as "-0.0% bytes".
fn bytes<'a>(flows: impl Iterator<Item = &'a CompletedFlow>) -> f64 {
    flows.fold(0.0, |b, f| b + f.size_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(size: f64, fct: f64) -> CompletedFlow {
        CompletedFlow {
            id: 0,
            src: 0,
            dst: 1,
            size_bytes: size,
            arrival_s: 0.0,
            fct_s: fct,
        }
    }

    #[test]
    fn zero_latency_covers_everything() {
        let flows = vec![flow(100.0, 0.001), flow(1e6, 0.1)];
        let c = coverage(&flows, 0.0);
        assert_eq!(c.flow_fraction, 1.0);
        assert_eq!(c.byte_fraction, 1.0);
    }

    #[test]
    fn latency_excludes_short_flows() {
        let flows = vec![flow(100.0, 0.001), flow(1e6, 0.1)];
        let c = coverage(&flows, 0.01);
        assert_eq!(c.flow_fraction, 0.5);
        // The surviving flow carries ~all the bytes.
        assert!(c.byte_fraction > 0.999);
    }

    #[test]
    fn coverage_monotone_in_latency() {
        let flows: Vec<CompletedFlow> = (1..100)
            .map(|i| flow(i as f64 * 1000.0, i as f64 * 0.001))
            .collect();
        let mut last = coverage(&flows, 0.0);
        for lat in [0.005, 0.02, 0.05, 0.09] {
            let c = coverage(&flows, lat);
            assert!(c.flow_fraction <= last.flow_fraction);
            assert!(c.byte_fraction <= last.byte_fraction);
            last = c;
        }
    }

    /// No flow outlives the latency: the byte fraction is +0.0, not the
    /// -0.0 an empty `Sum` gives.
    #[test]
    fn uncovered_population_has_positive_zero_bytes() {
        let c = coverage(&[flow(100.0, 0.001), flow(1e6, 0.1)], 1.0);
        assert_eq!(c.flow_fraction.to_bits(), 0.0f64.to_bits());
        assert_eq!(c.byte_fraction.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn empty_population() {
        let c = coverage(&[], 0.1);
        assert_eq!(c.flow_fraction, 0.0);
    }
}
