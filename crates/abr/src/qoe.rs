//! The linear QoE metric of Pensieve (and of the paper's evaluation):
//!
//! ```text
//! QoE_t = q(R_t) − μ·rebuffer_t − |q(R_t) − q(R_{t−1})|
//! ```
//!
//! with `q(R) = R` in Mbps and μ = 4.3 (the rebuffering penalty of the
//! Pensieve paper's `QoE_lin`).

use serde::{Deserialize, Serialize};

/// QoE weights.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QoeMetric {
    /// Seconds-of-rebuffering penalty (μ).
    pub rebuf_penalty: f64,
    /// Smoothness penalty weight on |Δ quality|.
    pub smooth_penalty: f64,
}

impl Default for QoeMetric {
    fn default() -> Self {
        QoeMetric {
            rebuf_penalty: 4.3,
            smooth_penalty: 1.0,
        }
    }
}

impl QoeMetric {
    /// Per-chunk QoE.
    pub fn chunk_qoe(&self, bitrate_kbps: f64, last_bitrate_kbps: f64, rebuffer_s: f64) -> f64 {
        let q = bitrate_kbps / 1000.0;
        let q_last = last_bitrate_kbps / 1000.0;
        q - self.rebuf_penalty * rebuffer_s - self.smooth_penalty * (q - q_last).abs()
    }
}

/// Aggregate session statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionStats {
    pub chunk_qoe: Vec<f64>,
    pub bitrates_kbps: Vec<f64>,
    pub rebuffer_s: Vec<f64>,
    pub download_time_s: Vec<f64>,
}

impl SessionStats {
    pub fn push(&mut self, qoe: f64, bitrate_kbps: f64, rebuffer_s: f64, download_time_s: f64) {
        self.chunk_qoe.push(qoe);
        self.bitrates_kbps.push(bitrate_kbps);
        self.rebuffer_s.push(rebuffer_s);
        self.download_time_s.push(download_time_s);
    }

    /// Mean per-chunk QoE (the paper's headline number).
    pub fn mean_qoe(&self) -> f64 {
        if self.chunk_qoe.is_empty() {
            return 0.0;
        }
        self.chunk_qoe.iter().sum::<f64>() / self.chunk_qoe.len() as f64
    }

    pub fn total_rebuffer_s(&self) -> f64 {
        self.rebuffer_s.iter().sum()
    }

    pub fn mean_bitrate_kbps(&self) -> f64 {
        if self.bitrates_kbps.is_empty() {
            return 0.0;
        }
        self.bitrates_kbps.iter().sum::<f64>() / self.bitrates_kbps.len() as f64
    }

    /// Count of bitrate switches.
    pub fn n_switches(&self) -> usize {
        self.bitrates_kbps
            .windows(2)
            .filter(|w| w[0] != w[1])
            .count()
    }
}

/// Percentile of a sample (linear interpolation, `p` in `[0, 100]`).
/// NaN samples order last via `total_cmp`, so they reach only the upper
/// percentiles instead of panicking the sort.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        v[lo] + (rank - lo as f64) * (v[hi] - v[lo])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qoe_rewards_bitrate() {
        let m = QoeMetric::default();
        assert!(m.chunk_qoe(4300.0, 4300.0, 0.0) > m.chunk_qoe(300.0, 300.0, 0.0));
        assert!((m.chunk_qoe(1000.0, 1000.0, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn qoe_penalizes_rebuffering() {
        let m = QoeMetric::default();
        let base = m.chunk_qoe(1850.0, 1850.0, 0.0);
        let stalled = m.chunk_qoe(1850.0, 1850.0, 1.0);
        assert!((base - stalled - 4.3).abs() < 1e-12);
    }

    #[test]
    fn qoe_penalizes_switching_symmetrically() {
        let m = QoeMetric::default();
        let up = m.chunk_qoe(2850.0, 1850.0, 0.0);
        let down = m.chunk_qoe(1850.0, 2850.0, 0.0);
        // |Δ| term is symmetric; the difference is purely the q(R) term.
        assert!((up - down - 1.0).abs() < 1e-12);
        assert!(up < m.chunk_qoe(2850.0, 2850.0, 0.0));
    }

    #[test]
    fn stats_aggregate() {
        let mut s = SessionStats::default();
        s.push(1.0, 1200.0, 0.0, 2.0);
        s.push(2.0, 1850.0, 0.5, 3.0);
        s.push(2.0, 1850.0, 0.0, 3.0);
        assert!((s.mean_qoe() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.total_rebuffer_s(), 0.5);
        assert_eq!(s.n_switches(), 1);
        assert!((s.mean_bitrate_kbps() - 4900.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_basics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((percentile(&v, 50.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&v, 25.0) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_orders_nan_last() {
        let v = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!((percentile(&v, 50.0) - 2.5).abs() < 1e-12);
        assert!(percentile(&v, 100.0).is_nan());
    }
}
