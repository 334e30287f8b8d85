//! The lightweight-deployment cost model (§6.4 / Figures 16a, 17b).
//!
//! The paper measures page size, page-load time at 1200 kbps, JS heap and
//! per-decision latency of the DNN vs. the converted tree. In this
//! reproduction the artifacts are the serialized models and latency is
//! measured in-process (README, *Substitutions*): the absolute
//! numbers differ from a browser/Python stack, the *ratios* are the claim.
//!
//! Latency summaries share the serving-side percentile vocabulary
//! ([`metis_serve::latency`]) — the same p50/p95/p99/max discipline the
//! online engine accounts SLOs in.

use metis_serve::latency::{summarize, LatencySummary};
use std::time::Instant;

/// Errors of the deployment cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeployError {
    /// Load-time projection needs a strictly positive bandwidth.
    NonPositiveBandwidth(f64),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::NonPositiveBandwidth(b) => {
                write!(f, "bandwidth must be positive, got {b} kbps")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// Cost summary of a deployable model artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArtifactCost {
    pub bytes: usize,
}

impl ArtifactCost {
    pub fn new(bytes: usize) -> Self {
        ArtifactCost { bytes }
    }

    /// Transfer time of the artifact at a given bandwidth (the paper's
    /// page-load model uses 1200 kbps, the mean of its evaluation traces).
    /// Non-positive bandwidth is a checked error, not a panic.
    pub fn load_time_s(&self, bandwidth_kbps: f64) -> Result<f64, DeployError> {
        if bandwidth_kbps.is_nan() || bandwidth_kbps <= 0.0 {
            return Err(DeployError::NonPositiveBandwidth(bandwidth_kbps));
        }
        Ok(self.bytes as f64 * 8.0 / (bandwidth_kbps * 1000.0))
    }
}

/// Measure per-call latency of `f` over `iters` calls (after `warmup`
/// unmeasured calls), summarized in seconds. `f` should perform exactly
/// one decision.
pub fn measure_latency(mut f: impl FnMut(), iters: usize, warmup: usize) -> LatencySummary {
    assert!(iters > 0);
    for _ in 0..warmup {
        f();
    }
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    summarize(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_time_scales_with_size_and_bandwidth() {
        let small = ArtifactCost::new(15_000); // ~15 KB tree
        let big = ArtifactCost::new(1_370_000); // ~1.37 MB DNN (paper's delta)
        let t_small = small.load_time_s(1200.0).unwrap();
        let t_big = big.load_time_s(1200.0).unwrap();
        assert!(t_big / t_small > 80.0, "ratio {}", t_big / t_small);
        // 1.37 MB at 1200 kbps ≈ 9.1 s — the paper's "9.36 seconds" scale.
        assert!(t_big > 8.0 && t_big < 11.0, "t_big {t_big}");
        assert!(small.load_time_s(2400.0).unwrap() < t_small);
    }

    #[test]
    fn load_time_rejects_non_positive_bandwidth_without_panicking() {
        let cost = ArtifactCost::new(1000);
        for bad in [0.0, -5.0, f64::NAN] {
            let err = cost.load_time_s(bad).unwrap_err();
            assert!(matches!(err, DeployError::NonPositiveBandwidth(_)));
            assert!(err.to_string().contains("positive"), "{err}");
        }
    }

    #[test]
    fn latency_measurement_orders_cheap_vs_expensive() {
        let cheap = measure_latency(
            || {
                std::hint::black_box(1 + 1);
            },
            200,
            10,
        );
        let mut acc = 0.0_f64;
        let expensive = measure_latency(
            || {
                for i in 0..20_000 {
                    acc += (i as f64).sqrt();
                }
                std::hint::black_box(acc);
            },
            200,
            10,
        );
        assert!(
            expensive.mean_s > cheap.mean_s,
            "{} vs {}",
            expensive.mean_s,
            cheap.mean_s
        );
        assert!(cheap.p50_s <= cheap.p95_s && cheap.p95_s <= cheap.p99_s);
        assert!(cheap.p99_s <= cheap.max_s);
        assert_eq!(cheap.count, 200);
    }
}
