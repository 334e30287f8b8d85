//! Network bandwidth traces and synthetic generators.
//!
//! The paper evaluates on 250 HSDPA (Norwegian 3G commute) and 205 FCC
//! (US fixed broadband) traces; those datasets are not available offline,
//! so we generate Markov-modulated bandwidth processes matched to their
//! published characteristics (README, *Substitutions*):
//!
//! * **HSDPA-like** — mobile: low mean (~1.2 Mbps), bursty, deep fades,
//!   strong temporal correlation.
//! * **FCC-like** — broadband: higher mean (~2.3 Mbps after Pensieve's
//!   0.2–6 Mbps filtering), lower variance, occasional congestion dips.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A piecewise-constant bandwidth trace. Between `timestamps_s[i]` and
/// `timestamps_s[i+1]` the bandwidth is `bandwidths_kbps[i]`; playback
/// wraps around at the end (like the Pensieve simulator).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkTrace {
    pub name: String,
    pub timestamps_s: Vec<f64>,
    pub bandwidths_kbps: Vec<f64>,
}

impl NetworkTrace {
    /// Construct and validate a trace.
    pub fn new(name: impl Into<String>, timestamps_s: Vec<f64>, bandwidths_kbps: Vec<f64>) -> Self {
        assert!(
            !timestamps_s.is_empty(),
            "trace must have at least one point"
        );
        assert_eq!(
            timestamps_s.len(),
            bandwidths_kbps.len(),
            "trace arrays must align"
        );
        assert!(
            timestamps_s.windows(2).all(|w| w[1] > w[0]),
            "timestamps must be strictly increasing"
        );
        assert!(
            bandwidths_kbps.iter().all(|&b| b > 0.0 && b.is_finite()),
            "bandwidths must be positive"
        );
        NetworkTrace {
            name: name.into(),
            timestamps_s,
            bandwidths_kbps,
        }
    }

    /// A constant-bandwidth trace (the §6.3 fixed-link debugging setup).
    pub fn fixed(kbps: f64, duration_s: f64) -> Self {
        NetworkTrace::new(
            format!("fixed-{}kbps", kbps as u64),
            vec![0.0, duration_s],
            vec![kbps, kbps],
        )
    }

    /// Total covered duration before wrap-around.
    pub fn duration_s(&self) -> f64 {
        *self.timestamps_s.last().unwrap()
    }

    /// Bandwidth at an absolute time (wraps around).
    pub fn bandwidth_at(&self, t: f64) -> f64 {
        let d = self.duration_s();
        // A single-point trace is constant.
        if self.timestamps_s.len() == 1 || d <= 0.0 {
            return self.bandwidths_kbps[0];
        }
        let t = t.rem_euclid(d);
        // Find the segment containing t.
        match self
            .timestamps_s
            .binary_search_by(|ts| ts.partial_cmp(&t).unwrap())
        {
            Ok(i) => self.bandwidths_kbps[i.min(self.bandwidths_kbps.len() - 1)],
            Err(0) => self.bandwidths_kbps[0],
            Err(i) => self.bandwidths_kbps[i - 1],
        }
    }

    /// Time needed to download `bytes` starting at absolute time `start_s`,
    /// integrating the piecewise-constant bandwidth (with wrap-around).
    pub fn download_time(&self, start_s: f64, bytes: f64) -> f64 {
        assert!(bytes >= 0.0);
        if bytes == 0.0 {
            return 0.0;
        }
        let mut remaining = bytes;
        let mut t = start_s;
        let mut elapsed = 0.0;
        // Advance in sub-second steps bounded by segment edges.
        let step_cap: f64 = 1.0; // seconds; matches the 1 s granularity of traces
        loop {
            let bw_bytes_per_s = self.bandwidth_at(t) * 1000.0 / 8.0;
            let dt = step_cap.min(remaining / bw_bytes_per_s);
            let got = bw_bytes_per_s * dt;
            remaining -= got;
            t += dt;
            elapsed += dt;
            if remaining <= 1e-9 {
                return elapsed;
            }
            // Safety valve: pathological traces cannot stall forever since
            // bandwidths are validated positive, but guard regardless.
            assert!(
                elapsed < 1e7,
                "download_time diverged: {remaining} bytes left after {elapsed} s"
            );
        }
    }

    /// Mean bandwidth (time-weighted) in kbps.
    pub fn mean_kbps(&self) -> f64 {
        if self.timestamps_s.len() == 1 {
            return self.bandwidths_kbps[0];
        }
        let mut acc = 0.0;
        let mut total = 0.0;
        for w in 0..self.timestamps_s.len() - 1 {
            let dt = self.timestamps_s[w + 1] - self.timestamps_s[w];
            acc += self.bandwidths_kbps[w] * dt;
            total += dt;
        }
        acc / total
    }
}

/// Parameters of the Markov-modulated generator.
#[derive(Debug, Clone)]
pub struct TraceGenConfig {
    /// Mean of the log-bandwidth random walk (kbps).
    pub mean_kbps: f64,
    /// Per-step standard deviation of the log random walk.
    pub volatility: f64,
    /// Mean-reversion strength toward `mean_kbps` (0..1).
    pub reversion: f64,
    /// Probability per step of entering a deep fade.
    pub fade_prob: f64,
    /// Multiplier applied during a fade.
    pub fade_depth: f64,
    /// Trace duration in seconds (1 s granularity).
    pub duration_s: usize,
    /// Clamp range (Pensieve filters traces to 0.2–6 Mbps).
    pub min_kbps: f64,
    pub max_kbps: f64,
}

impl TraceGenConfig {
    /// Mobile 3G profile (HSDPA-like).
    pub fn hsdpa_like() -> Self {
        TraceGenConfig {
            mean_kbps: 1200.0,
            volatility: 0.35,
            reversion: 0.15,
            fade_prob: 0.02,
            fade_depth: 0.25,
            duration_s: 320,
            min_kbps: 200.0,
            max_kbps: 6000.0,
        }
    }

    /// Fixed-broadband profile (FCC-like).
    pub fn fcc_like() -> Self {
        TraceGenConfig {
            mean_kbps: 2300.0,
            volatility: 0.12,
            reversion: 0.25,
            fade_prob: 0.005,
            fade_depth: 0.4,
            duration_s: 320,
            min_kbps: 200.0,
            max_kbps: 6000.0,
        }
    }
}

/// Standard normal via Box–Muller (keeps us inside the allowed `rand` API).
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Generate one trace from a profile.
pub fn generate_trace(cfg: &TraceGenConfig, name: impl Into<String>, seed: u64) -> NetworkTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut log_bw = cfg.mean_kbps.ln() + gauss(&mut rng) * cfg.volatility;
    let mut fade_left = 0usize;
    let mut timestamps = Vec::with_capacity(cfg.duration_s);
    let mut bandwidths = Vec::with_capacity(cfg.duration_s);
    for t in 0..cfg.duration_s {
        // Mean-reverting log random walk.
        log_bw += cfg.reversion * (cfg.mean_kbps.ln() - log_bw) + gauss(&mut rng) * cfg.volatility;
        if fade_left == 0 && rng.gen_range(0.0..1.0) < cfg.fade_prob {
            fade_left = rng.gen_range(3..10); // fades last a few seconds
        }
        let mut bw = log_bw.exp();
        if fade_left > 0 {
            bw *= cfg.fade_depth;
            fade_left -= 1;
        }
        timestamps.push(t as f64);
        bandwidths.push(bw.clamp(cfg.min_kbps, cfg.max_kbps));
    }
    NetworkTrace::new(name, timestamps, bandwidths)
}

/// Generate the HSDPA-like corpus (paper: 250 traces).
pub fn hsdpa_corpus(count: usize, seed: u64) -> Vec<NetworkTrace> {
    (0..count)
        .map(|i| {
            generate_trace(
                &TraceGenConfig::hsdpa_like(),
                format!("hsdpa-{i}"),
                seed ^ (i as u64) << 17 | 1,
            )
        })
        .collect()
}

/// Generate the FCC-like corpus (paper: 205 traces).
pub fn fcc_corpus(count: usize, seed: u64) -> Vec<NetworkTrace> {
    (0..count)
        .map(|i| {
            generate_trace(
                &TraceGenConfig::fcc_like(),
                format!("fcc-{i}"),
                seed ^ (i as u64) << 21 | 2,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_trace_constant() {
        let t = NetworkTrace::fixed(3000.0, 100.0);
        assert_eq!(t.bandwidth_at(0.0), 3000.0);
        assert_eq!(t.bandwidth_at(55.5), 3000.0);
        assert_eq!(t.bandwidth_at(250.0), 3000.0); // wraps
        assert!((t.mean_kbps() - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn download_time_fixed_rate() {
        let t = NetworkTrace::fixed(8000.0, 100.0); // 1 MB/s
        let dt = t.download_time(0.0, 2_000_000.0);
        assert!((dt - 2.0).abs() < 1e-6, "expected 2 s, got {dt}");
    }

    #[test]
    fn download_time_integrates_across_segments() {
        // 1 MB/s for 2 s, then 0.5 MB/s.
        let t = NetworkTrace::new("seg", vec![0.0, 2.0, 100.0], vec![8000.0, 4000.0, 4000.0]);
        // 3 MB: 2 MB in the first 2 s, remaining 1 MB at 0.5 MB/s -> 2 s.
        let dt = t.download_time(0.0, 3_000_000.0);
        assert!((dt - 4.0).abs() < 1e-6, "expected 4 s, got {dt}");
    }

    #[test]
    fn download_time_wraps_around() {
        let t = NetworkTrace::new("short", vec![0.0, 10.0], vec![8000.0, 8000.0]);
        // Start near the end; crosses the wrap boundary seamlessly.
        let dt = t.download_time(9.0, 5_000_000.0);
        assert!((dt - 5.0).abs() < 1e-6, "expected 5 s, got {dt}");
    }

    #[test]
    fn bandwidth_lookup_segments() {
        let t = NetworkTrace::new("seg", vec![0.0, 1.0, 2.0], vec![100.0, 200.0, 300.0]);
        assert_eq!(t.bandwidth_at(0.0), 100.0);
        assert_eq!(t.bandwidth_at(0.99), 100.0);
        assert_eq!(t.bandwidth_at(1.0), 200.0);
        assert_eq!(t.bandwidth_at(1.5), 200.0);
        // Duration is 2.0, so t=2.5 wraps to 0.5 -> first segment.
        assert_eq!(t.bandwidth_at(2.5), 100.0);
    }

    #[test]
    fn corpus_statistics_match_profiles() {
        let hsdpa = hsdpa_corpus(30, 42);
        let fcc = fcc_corpus(30, 42);
        let mean =
            |ts: &[NetworkTrace]| ts.iter().map(|t| t.mean_kbps()).sum::<f64>() / ts.len() as f64;
        let m_h = mean(&hsdpa);
        let m_f = mean(&fcc);
        assert!(m_h > 600.0 && m_h < 2200.0, "hsdpa mean {m_h}");
        assert!(m_f > 1600.0 && m_f < 3400.0, "fcc mean {m_f}");
        assert!(m_f > m_h, "fcc should be faster than hsdpa on average");
        // Variability: coefficient of variation within a trace.
        let cv = |t: &NetworkTrace| {
            let m = t.mean_kbps();
            let var = t
                .bandwidths_kbps
                .iter()
                .map(|b| (b - m) * (b - m))
                .sum::<f64>()
                / t.bandwidths_kbps.len() as f64;
            var.sqrt() / m
        };
        let cv_h = hsdpa.iter().map(cv).sum::<f64>() / 30.0;
        let cv_f = fcc.iter().map(cv).sum::<f64>() / 30.0;
        assert!(cv_h > cv_f, "hsdpa must be burstier: {cv_h} vs {cv_f}");
    }

    #[test]
    fn traces_respect_clamps() {
        for t in hsdpa_corpus(10, 1) {
            assert!(t
                .bandwidths_kbps
                .iter()
                .all(|&b| (200.0..=6000.0).contains(&b)));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_trace(&TraceGenConfig::hsdpa_like(), "x", 5);
        let b = generate_trace(&TraceGenConfig::hsdpa_like(), "x", 5);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_timestamps() {
        let _ = NetworkTrace::new("bad", vec![0.0, 2.0, 1.0], vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn serde_roundtrip() {
        let t = generate_trace(&TraceGenConfig::fcc_like(), "t", 9);
        let json = serde_json::to_string(&t).unwrap();
        let back: NetworkTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(t.name, back.name);
        assert_eq!(t.bandwidths_kbps.len(), back.bandwidths_kbps.len());
    }
}
