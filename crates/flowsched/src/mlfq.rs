//! Multi-level feedback queues: the short-flow scheduling mechanism of
//! AuTO \[16\] (after PIAS). A flow starts in the highest-priority queue and
//! is demoted as its sent bytes cross the thresholds; the thresholds are
//! what the sRLA agent outputs.

use serde::{Deserialize, Serialize};

/// Number of priority levels in the fabric (AuTO's testbed configuration).
pub const N_PRIORITIES: usize = 4;

/// Demotion thresholds for [`N_PRIORITIES`] queues (so `N_PRIORITIES - 1`
/// strictly increasing byte thresholds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlfqThresholds {
    thresholds_bytes: Vec<f64>,
}

impl MlfqThresholds {
    /// Validate and build.
    pub fn new(thresholds_bytes: Vec<f64>) -> Result<Self, String> {
        if thresholds_bytes.len() != N_PRIORITIES - 1 {
            return Err(format!(
                "expected {} thresholds, got {}",
                N_PRIORITIES - 1,
                thresholds_bytes.len()
            ));
        }
        if !thresholds_bytes.iter().all(|&t| t > 0.0 && t.is_finite()) {
            return Err("thresholds must be positive and finite".to_string());
        }
        if !thresholds_bytes.windows(2).all(|w| w[1] > w[0]) {
            return Err("thresholds must be strictly increasing".to_string());
        }
        Ok(MlfqThresholds { thresholds_bytes })
    }

    /// A PIAS-style default tuned for the web-search workload.
    pub fn default_web_search() -> Self {
        MlfqThresholds::new(vec![20_000.0, 200_000.0, 2_000_000.0]).unwrap()
    }

    /// A default tuned for the data-mining workload (smaller first queue,
    /// matching its tiny-flow mass).
    pub fn default_data_mining() -> Self {
        MlfqThresholds::new(vec![1_000.0, 100_000.0, 10_000_000.0]).unwrap()
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.thresholds_bytes
    }

    /// Priority (0 = highest) of a flow that has sent `bytes_sent` bytes.
    pub fn priority(&self, bytes_sent: f64) -> usize {
        self.thresholds_bytes
            .iter()
            .filter(|&&t| bytes_sent >= t)
            .count()
    }

    /// Bytes until the next demotion (None if already in the lowest queue).
    pub fn next_threshold(&self, bytes_sent: f64) -> Option<f64> {
        self.thresholds_bytes
            .iter()
            .find(|&&t| bytes_sent < t)
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn priority_progression() {
        let t = MlfqThresholds::new(vec![100.0, 1000.0, 10000.0]).unwrap();
        assert_eq!(t.priority(0.0), 0);
        assert_eq!(t.priority(99.0), 0);
        assert_eq!(t.priority(100.0), 1);
        assert_eq!(t.priority(5000.0), 2);
        assert_eq!(t.priority(1e9), 3);
    }

    #[test]
    fn next_threshold_lookup() {
        let t = MlfqThresholds::new(vec![100.0, 1000.0, 10000.0]).unwrap();
        assert_eq!(t.next_threshold(0.0), Some(100.0));
        assert_eq!(t.next_threshold(100.0), Some(1000.0));
        assert_eq!(t.next_threshold(99999.0), None);
    }

    #[test]
    fn validation() {
        assert!(MlfqThresholds::new(vec![1.0, 2.0]).is_err()); // wrong count
        assert!(MlfqThresholds::new(vec![2.0, 1.0, 3.0]).is_err()); // not increasing
        assert!(MlfqThresholds::new(vec![0.0, 1.0, 2.0]).is_err()); // non-positive
        assert!(MlfqThresholds::new(vec![1.0, 2.0, 3.0]).is_ok());
    }

    #[test]
    fn defaults_are_valid() {
        let _ = MlfqThresholds::default_web_search();
        let _ = MlfqThresholds::default_data_mining();
    }

    proptest! {
        /// Priority is monotone non-decreasing in bytes sent and bounded by
        /// the number of queues.
        #[test]
        fn prop_priority_monotone(a in 0.0_f64..1e9, b in 0.0_f64..1e9) {
            let t = MlfqThresholds::default_web_search();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(t.priority(lo) <= t.priority(hi));
            prop_assert!(t.priority(hi) < N_PRIORITIES);
        }
    }
}
