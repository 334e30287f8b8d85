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

/// Segments a download's cursor walks forward before it falls back to a
/// binary search, so on a fine-grained trace a lookup costs at most this
/// short walk more than a fresh search.
const CURSOR_WALK: usize = 8;

/// A cursor that holds no hint: its first lookup searches.
pub(crate) const NO_SEGMENT: usize = usize::MAX;

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
        if self.is_constant() {
            return self.bandwidths_kbps[0];
        }
        self.bandwidths_kbps[self.segment(t.rem_euclid(self.duration_s()))]
    }

    /// A single-point trace is constant.
    fn is_constant(&self) -> bool {
        self.timestamps_s.len() == 1 || self.duration_s() <= 0.0
    }

    /// The segment holding the wrapped time `t`: the last timestamp at or
    /// before `t`, or the first segment when `t` precedes it.
    fn segment(&self, t: f64) -> usize {
        match self
            .timestamps_s
            .binary_search_by(|ts| ts.partial_cmp(&t).unwrap())
        {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        }
    }

    /// [`NetworkTrace::segment`], walked forward from the hint `seg`. A
    /// hint that is out of range or past `t` (after a wrap-around), or a
    /// walk longer than [`CURSOR_WALK`] segments, falls back to the
    /// search, so every hint gives the same segment. A NaN `t` fails the
    /// first comparison and panics in the search, as in `bandwidth_at`.
    fn segment_after(&self, seg: usize, t: f64) -> usize {
        let ts = &self.timestamps_s;
        if ts.get(seg).is_some_and(|&at| at <= t) {
            let mut seg = seg;
            for _ in 0..=CURSOR_WALK {
                match ts.get(seg + 1) {
                    Some(&next) if next <= t => seg += 1,
                    _ => return seg,
                }
            }
        }
        self.segment(t)
    }

    /// Time needed to download `bytes` starting at absolute time `start_s`
    /// over the piecewise-constant bandwidth (with wrap-around).
    ///
    /// The download advances in steps of at most 1 s, each starting where
    /// the last one ended and charged at the bandwidth in effect at its
    /// start. Steps are not clipped at segment edges: from t = 0.5 s on a
    /// trace of 1-s segments, every step straddles an edge and runs its
    /// second half at the earlier segment's rate. (Pensieve's simulator
    /// clips at the edges; doing so here would change every result.)
    pub fn download_time(&self, start_s: f64, bytes: f64) -> f64 {
        let mut seg = NO_SEGMENT;
        self.download_time_from(&mut seg, start_s, bytes)
    }

    /// [`NetworkTrace::download_time`] with its segment cursor held in
    /// `seg`, so a session's next download resumes the walk where its last
    /// one ended instead of searching. The cursor is only a hint: any
    /// value gives the same bits.
    pub(crate) fn download_time_from(&self, seg: &mut usize, start_s: f64, bytes: f64) -> f64 {
        assert!(bytes >= 0.0);
        if bytes == 0.0 {
            return 0.0;
        }
        let constant = self.is_constant();
        let d = self.duration_s();
        let mut remaining = bytes;
        let mut t = start_s;
        let mut elapsed = 0.0;
        let step_cap: f64 = 1.0; // seconds; matches the 1 s granularity of traces
        loop {
            let kbps = if constant {
                self.bandwidths_kbps[0]
            } else {
                *seg = self.segment_after(*seg, t.rem_euclid(d));
                self.bandwidths_kbps[*seg]
            };
            let bw_bytes_per_s = kbps * 1000.0 / 8.0;
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
    use crate::sim::StreamingSession;
    use crate::video::VideoModel;
    use metis_telemetry::Fnv1a;
    use proptest::prelude::*;
    use std::sync::Arc;

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

    /// The bits of `download_time` pinned across commits, on every kind
    /// of trace the crate builds or accepts: starts in the first lap, on
    /// timestamps, at the wrap point, in the second lap, far beyond it and
    /// just before zero (which wraps onto the last timestamp); zero, small
    /// and multi-MB downloads. A moved digest means a
    /// float op of the download walk changed: fix the change, never
    /// re-pin.
    #[test]
    fn download_time_is_pinned() {
        let traces = [
            generate_trace(&TraceGenConfig::hsdpa_like(), "hsdpa", 3),
            generate_trace(&TraceGenConfig::fcc_like(), "fcc", 4),
            NetworkTrace::fixed(2500.0, 100.0),
            NetworkTrace::new("one", vec![0.0], vec![1800.0]),
            NetworkTrace::new(
                "uneven",
                vec![0.0, 0.25, 0.4, 1.7, 2.0, 5.5, 5.6, 9.0, 12.5],
                vec![
                    900.0, 4100.0, 300.0, 2200.0, 650.0, 5000.0, 1200.0, 350.0, 2600.0,
                ],
            ),
            NetworkTrace::new(
                "late-start",
                vec![0.5, 0.75, 2.0, 2.1, 4.0, 7.5, 7.6, 11.0],
                vec![1500.0, 250.0, 3300.0, 800.0, 4400.0, 210.0, 1900.0, 700.0],
            ),
        ];
        let mut h = Fnv1a::new();
        for trace in &traces {
            let d = trace.duration_s();
            let mut starts = vec![
                0.0,
                0.3,
                0.5 * d + 0.123,
                d,
                d + 0.7,
                1.5 * d + 0.01,
                2.0 * d + 3.3,
                7.25 * d + 0.37,
                1e4 + 0.61,
                -0.4,
                -1e-17,
            ];
            starts.extend(
                trace
                    .timestamps_s
                    .iter()
                    .step_by(1 + trace.timestamps_s.len() / 10),
            );
            for &start in &starts {
                for bytes in [0.0, 1234.5, 61_000.0, 3.2e6, 9.7e6] {
                    h.write_u64(trace.download_time(start, bytes).to_bits());
                }
            }
        }
        assert_eq!(h.finish(), 0xf67a_fc70_6610_6c12);
    }

    /// The download walk with a fresh search at every step: the oracle
    /// the cursor must match bit for bit.
    fn searched_download_time(trace: &NetworkTrace, start_s: f64, bytes: f64) -> f64 {
        if bytes == 0.0 {
            return 0.0;
        }
        let (mut remaining, mut t, mut elapsed) = (bytes, start_s, 0.0);
        loop {
            let bw_bytes_per_s = trace.bandwidth_at(t) * 1000.0 / 8.0;
            let dt = 1.0f64.min(remaining / bw_bytes_per_s);
            remaining -= bw_bytes_per_s * dt;
            t += dt;
            elapsed += dt;
            if remaining <= 1e-9 {
                return elapsed;
            }
        }
    }

    proptest! {
        /// The cursor is never a correctness input. On random traces of 1
        /// to 39 points (1-s steps, uneven steps, and uneven steps after a
        /// late first timestamp), a download gives the searched bits from
        /// every hint: the first segment, mid-trace, the last, one past
        /// the end, `usize::MAX` and one segment ahead of the start. A
        /// session carrying its hint from download to download fetches
        /// what fresh searches fetch.
        #[test]
        fn prop_any_hint_gives_the_searched_bits(
            n in 1usize..40,
            shape in 0usize..3,
            first in 0.05f64..2.0,
            gaps in collection::vec(0.05f64..3.0, 40),
            kbps in collection::vec(200.0f64..6000.0, 40),
            laps in collection::vec(0.0f64..4.0, 6),
            sizes in collection::vec(0.0f64..4e6, 8),
            actions in collection::vec(0usize..6, 24),
        ) {
            let mut timestamps = Vec::with_capacity(n);
            let mut at = if shape == 2 { first } else { 0.0 };
            for gap in &gaps[..n] {
                timestamps.push(at);
                at += if shape == 0 { 1.0 } else { *gap };
            }
            let trace = NetworkTrace::new("random", timestamps, kbps[..n].to_vec());
            let d = trace.duration_s();
            let mut starts: Vec<f64> = laps.iter().map(|lap| lap * d).collect();
            starts.extend([trace.timestamps_s[n / 2], d]);
            for (&start, &bytes) in starts.iter().zip(&sizes) {
                let want = searched_download_time(&trace, start, bytes).to_bits();
                let ahead = if trace.is_constant() {
                    1
                } else {
                    trace.segment(start.rem_euclid(d)) + 1
                };
                for hint in [0, n / 2, n - 1, n, usize::MAX, ahead] {
                    let mut seg = hint;
                    let got = trace.download_time_from(&mut seg, start, bytes).to_bits();
                    prop_assert_eq!(got, want, "hint {} from {} s, {} bytes", hint, start, bytes);
                }
            }

            let video = Arc::new(VideoModel::standard(actions.len(), 7));
            let mut session =
                StreamingSession::new(Arc::clone(&video), Arc::new(trace.clone()), starts[0]);
            for &q in &actions {
                let (start, size) = (session.time_s(), video.chunk_size_bytes(session.next_chunk(), q));
                let got = session.download_next(q).download_time_s.to_bits();
                let want = searched_download_time(&trace, start, size).to_bits();
                prop_assert_eq!(got, want, "session download from {} s", start);
            }
        }
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
