//! Latency capture and percentile summaries — the SLO-accounting
//! vocabulary of the serving engine, reused by `metis_core::deploy` for
//! its per-decision measurements.
//!
//! Two ways to get a [`LatencySummary`]:
//!
//! * [`summarize`] — exact percentiles over a finite sample slice (the
//!   §6.4 decision-latency measurements, the serving bench, and the
//!   tests' oracle);
//! * [`LatencyRecorder`] — the serving engine's accountant, in bounded
//!   memory for a server that runs indefinitely: exact count, sum and
//!   max, percentiles from a mergeable log-bucketed sketch.

use metis_telemetry::{bucket_edge, LogSketch, SketchSnapshot};
use serde::{Deserialize, Serialize};

/// Percentile summary of a latency sample set (seconds). Percentiles use
/// the floor-index convention (`samples[floor(p/100 * (len-1))]` of the
/// sorted samples) so they match the historical `deploy::measure_latency`
/// numbers exactly. A [`LatencyRecorder`]'s summary reports the upper
/// edge of the sketch bucket holding that sample instead, clamped to
/// `max_s`: at most `γ = 2^(1/8)` (9.05%) above the exact percentile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    pub count: usize,
    pub mean_s: f64,
    pub p50_s: f64,
    pub p95_s: f64,
    pub p99_s: f64,
    pub max_s: f64,
}

impl LatencySummary {
    /// The all-zero summary of an empty sample set.
    pub fn empty() -> Self {
        LatencySummary {
            count: 0,
            mean_s: 0.0,
            p50_s: 0.0,
            p95_s: 0.0,
            p99_s: 0.0,
            max_s: 0.0,
        }
    }

    /// True when `p99 <= budget_s` — the serving SLO check. On a
    /// [`LatencyRecorder`]'s summary the verdict equals the exact one
    /// unless the budget lies in `[exact p99, exact p99 · γ)`, where the
    /// sketch may report a miss the exact samples would not.
    pub fn meets_p99_slo(&self, budget_s: f64) -> bool {
        self.count > 0 && self.p99_s <= budget_s
    }
}

/// Summarize a latency sample set (seconds). Sorts a copy; NaN samples
/// order last via `total_cmp`, so a poisoned sample inflates the tail
/// percentiles instead of silently vanishing.
pub fn summarize(samples: &[f64]) -> LatencySummary {
    if samples.is_empty() {
        return LatencySummary::empty();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pct = |p: f64| sorted[floor_rank(p, sorted.len() as u64) as usize];
    LatencySummary {
        count: sorted.len(),
        mean_s: sorted.iter().sum::<f64>() / sorted.len() as f64,
        p50_s: pct(50.0),
        p95_s: pct(95.0),
        p99_s: pct(99.0),
        max_s: *sorted.last().unwrap(),
    }
}

/// The floor-index rank of percentile `p` among `n > 0` samples.
fn floor_rank(p: f64, n: u64) -> u64 {
    ((p / 100.0 * (n - 1) as f64) as u64).min(n - 1)
}

/// The serving engine's latency accountant: exact `count`, `sum_s` and
/// `max_s` beside a [`LogSketch`] of the samples, so its memory and its
/// serialized size stay a few KB however long the server runs.
/// Recorders merge bucket-wise — commutative and associative, so the
/// fabric's per-scenario and per-tenant sketches are the same for any
/// shard split or merge order. Single-writer by design (the engine's
/// batcher thread owns one per ensemble width).
///
/// Its [`LatencySummary`] keeps `count`, `mean_s` and `max_s` exact (a
/// NaN sample poisons the mean and is the max, as in [`summarize`]).
/// Each percentile is the upper edge of the sketch bucket holding the
/// floor-index rank, clamped to `max_s`, so for samples of zero or
/// within the sketch's range (≈1e-7 s .. 1024 s)
/// `exact ≤ reported ≤ min(exact · γ, max)`. NaNs rank last, as under
/// `total_cmp`: a percentile whose rank lands on one reports NaN.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyRecorder {
    count: u64,
    sum_s: f64,
    max_s: f64,
    sketch: LogSketch,
}

impl LatencyRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// The latency sample between two [`crate::Clock`] readings — a
    /// submit stamp and a completion stamp from the same clock, real or
    /// virtual. The subtraction lives here so every sample the engine
    /// records is derived from clock readings the same way.
    ///
    /// A completion stamp earlier than its submit stamp is a caller bug
    /// (stamps from two different clocks, or a rewound time source): it
    /// trips a debug assertion, and in release builds the span **clamps
    /// to zero** rather than yielding negative latency — negative
    /// samples would deflate the mean and the low percentiles of every
    /// summary downstream. NaN stamps pass through unclamped
    /// (`NaN < 0.0` is false), preserving the NaN-poisons-the-tail
    /// contract of [`summarize`].
    pub fn span_s(submitted_s: f64, completed_s: f64) -> f64 {
        let raw_s = completed_s - submitted_s;
        debug_assert!(
            raw_s >= 0.0 || raw_s.is_nan(),
            "span_s: completion stamp {completed_s} earlier than submit stamp {submitted_s}"
        );
        if raw_s < 0.0 {
            0.0
        } else {
            raw_s
        }
    }

    /// Record a batch of latency samples (seconds): one pass for the
    /// exact figures, one run-length amortized pass into the sketch.
    pub fn record_all(&mut self, samples_s: &[f64]) {
        let Some(&first) = samples_s.first() else {
            return;
        };
        let mut max_s = if self.count == 0 { first } else { self.max_s };
        let mut sum_s = self.sum_s;
        for &v in samples_s {
            sum_s += v;
            if v.total_cmp(&max_s).is_gt() {
                max_s = v;
            }
        }
        self.count += samples_s.len() as u64;
        self.sum_s = sum_s;
        self.max_s = max_s;
        self.sketch.record_all(samples_s);
    }

    /// Fold another recorder into this one: counts and sums add, the max
    /// is the `total_cmp` larger, and the sketches add bucket-wise.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.max_s.total_cmp(&self.max_s).is_gt() {
            self.max_s = other.max_s;
        }
        self.count += other.count;
        self.sum_s += other.sum_s;
        self.sketch.merge(&other.sketch);
    }

    /// The sketch's contents: the same geometry as the telemetry plane's
    /// latency sketches, so the two compare bucket for bucket.
    pub fn snapshot(&self) -> SketchSnapshot {
        self.sketch.snapshot()
    }

    /// Percentile summary of everything recorded so far.
    pub fn summary(&self) -> LatencySummary {
        if self.count == 0 {
            return LatencySummary::empty();
        }
        let snap = self.sketch.snapshot();
        let pct = |p: f64| rank_upper_edge(&snap, floor_rank(p, self.count)).min(self.max_s);
        LatencySummary {
            count: self.count as usize,
            mean_s: self.sum_s / self.count as f64,
            p50_s: pct(50.0),
            p95_s: pct(95.0),
            p99_s: pct(99.0),
            max_s: self.max_s,
        }
    }
}

/// Upper edge of the sketch bucket holding the `rank`-th smallest sample
/// in `total_cmp` order: underflow reads 0, overflow reads +∞ (the caller
/// clamps it to the max), and ranks past every bucketed sample fall on
/// the NaNs, which order last.
fn rank_upper_edge(snap: &SketchSnapshot, rank: u64) -> f64 {
    let mut seen = snap.underflow;
    if rank < seen {
        return 0.0;
    }
    for &(i, n) in &snap.counts {
        seen += n;
        if rank < seen {
            return bucket_edge(i);
        }
    }
    if rank < seen + snap.overflow {
        f64::INFINITY
    } else {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_summarizes_to_zero() {
        let mut rec = LatencyRecorder::new();
        assert_eq!(rec.summary(), LatencySummary::empty());
        assert!(!rec.summary().meets_p99_slo(1.0), "empty set meets no SLO");
        rec.record_all(&[]);
        assert_eq!(rec.summary(), LatencySummary::empty());
    }

    #[test]
    fn percentiles_follow_floor_index_convention() {
        // 0..100 ms: p50 floor-index = samples[49], p99 = samples[98].
        let samples: Vec<f64> = (0..100).map(|i| i as f64 * 1e-3).collect();
        let s = summarize(&samples);
        assert_eq!(s.count, 100);
        assert!((s.p50_s - 0.049).abs() < 1e-12, "p50 {}", s.p50_s);
        assert!((s.p95_s - 0.094).abs() < 1e-12, "p95 {}", s.p95_s);
        assert!((s.p99_s - 0.098).abs() < 1e-12, "p99 {}", s.p99_s);
        assert!((s.max_s - 0.099).abs() < 1e-12);
        assert!((s.mean_s - 0.0495).abs() < 1e-12);
    }

    #[test]
    fn span_subtracts_clock_readings() {
        assert_eq!(LatencyRecorder::span_s(1.5, 4.0), 2.5);
        assert_eq!(LatencyRecorder::span_s(3.0, 3.0), 0.0);
    }

    #[test]
    fn capture_order_does_not_matter() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        // Dyadic samples sum exactly in any order, so the means agree too.
        let up: Vec<f64> = (0..50).map(|i| i as f64 / 1024.0).collect();
        let down: Vec<f64> = up.iter().rev().copied().collect();
        a.record_all(&up);
        b.record_all(&down);
        assert_eq!(a.summary(), b.summary());
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.summary().count, 50);
    }

    #[test]
    fn slo_check_uses_p99() {
        // 4 samples: p99 floor-index = 2 -> 0.002 (the max stays separate).
        let s = summarize(&[0.001, 0.001, 0.002, 0.010]);
        assert!((s.p99_s - 0.002).abs() < 1e-12);
        assert!(s.meets_p99_slo(0.002));
        assert!(!s.meets_p99_slo(0.001));
        assert!((s.max_s - 0.010).abs() < 1e-12);
    }

    #[test]
    fn nan_samples_inflate_the_tail_not_vanish() {
        let s = summarize(&[0.001, f64::NAN, 0.002]);
        assert_eq!(s.count, 3);
        assert!(s.max_s.is_nan(), "NaN must surface in max");
    }

    #[test]
    fn single_sample_summary() {
        let s = summarize(&[0.5]);
        assert_eq!(s.p50_s, 0.5);
        assert_eq!(s.p99_s, 0.5);
        assert_eq!(s.max_s, 0.5);
        assert_eq!(s.count, 1);
    }

    /// A recorder's percentile is clamped to the exact max, so a sample
    /// set of one value reports that value exactly, not its bucket edge.
    #[test]
    fn recorder_percentiles_clamp_to_the_exact_max() {
        let mut rec = LatencyRecorder::new();
        rec.record_all(&[0.3, 0.3]);
        let s = rec.summary();
        assert_eq!((s.count, s.mean_s, s.p50_s, s.p99_s), (2, 0.3, 0.3, 0.3));
        rec.record_all(&[0.5]);
        let s = rec.summary();
        assert_eq!(s.max_s, 0.5);
        assert!(s.p99_s > 0.3 && s.p99_s <= 0.3 * metis_telemetry::GAMMA);
        // Zeros (virtual-time batches that close on their own stamp)
        // read as exactly zero.
        let mut zeros = LatencyRecorder::new();
        zeros.record_all(&[0.0; 4]);
        assert_eq!(zeros.summary().p99_s, 0.0);
        // Past the sketch's 1024 s edge a percentile reads the max.
        let mut slow = LatencyRecorder::new();
        slow.record_all(&[5000.0]);
        assert_eq!(slow.summary().p99_s, 5000.0);
        slow.record_all(&[1e-3, 6000.0]);
        assert_eq!(slow.summary().p99_s, 6000.0, "rank 1 is the 5000 s sample");
    }

    /// A NaN sample poisons the mean, is the max, and survives a merge in
    /// either direction.
    #[test]
    fn nan_inflated_tail_survives_the_merge() {
        let mut poisoned = LatencyRecorder::new();
        poisoned.record_all(&[0.001, f64::NAN, f64::NAN]);
        let mut clean = LatencyRecorder::new();
        clean.record_all(&[0.002, 0.003]);
        let mut left = poisoned.clone();
        left.merge(&clean);
        let mut right = clean.clone();
        right.merge(&poisoned);
        for merged in [left, right] {
            let s = merged.summary();
            assert!(s.max_s.is_nan(), "NaN tail vanished in merge");
            assert!(s.mean_s.is_nan(), "NaN must poison the mean");
            assert!(s.p99_s.is_nan(), "p99's rank lands on a NaN");
            assert_eq!(s.count, 5);
        }
    }

    /// A recorder round-trips through JSON as its exact figures plus a
    /// sparse sketch.
    #[test]
    fn recorder_round_trips_through_json() {
        let mut rec = LatencyRecorder::new();
        rec.record_all(&[0.0, 1e-3, 2e-3, 2e-3, 0.25]);
        let json = serde_json::to_string(&rec).unwrap();
        let back: LatencyRecorder = serde_json::from_str(&json).unwrap();
        assert_eq!(back.snapshot(), rec.snapshot());
        assert_eq!(back.summary(), rec.summary());
    }

    /// Debug builds reject a completion stamp earlier than its submit
    /// stamp outright — the silent-negative-latency regression.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "earlier than submit stamp")]
    fn span_rejects_negative_spans_in_debug() {
        LatencyRecorder::span_s(2.0, 1.0);
    }

    /// Release builds clamp the same bug to zero instead of deflating
    /// the summary with a negative sample.
    #[cfg(not(debug_assertions))]
    #[test]
    fn span_clamps_negative_spans_in_release() {
        let span = LatencyRecorder::span_s(2.0, 1.0);
        assert_eq!(span, 0.0);
        let mut rec = LatencyRecorder::new();
        rec.record_all(&[span]);
        assert!(rec.summary().mean_s >= 0.0);
    }

    #[test]
    fn span_passes_nan_through_unclamped() {
        let span = LatencyRecorder::span_s(1.0, f64::NAN);
        assert!(span.is_nan());
        let mut rec = LatencyRecorder::new();
        rec.record_all(&[0.001, span]);
        let s = rec.summary();
        assert!(s.max_s.is_nan(), "NaN span must poison the tail");
        assert!(s.mean_s.is_nan(), "NaN span must poison the mean");
    }
}

#[cfg(test)]
mod summarize_order_props {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Deterministic Fisher–Yates shuffle.
    fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
        for i in (1..items.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            items.swap(i, j);
        }
    }

    proptest! {
        /// The recorder against the exact oracle: random in-range sample
        /// sets salted with zeros, duplicates, exact bucket edges and
        /// NaNs, recorded in random batch splits. `count` and `max_s` are
        /// bit-exact, `mean_s` is within 1e-12 relative, every percentile
        /// lies in `[exact, min(exact · γ, max)]`, the p99 SLO verdict
        /// agrees whenever the budget is outside `[exact, exact · γ)`, and
        /// merging the per-batch recorders in any order yields the
        /// one-pass recorder's sketch bit for bit.
        #[test]
        fn prop_recorder_brackets_the_exact_oracle(
            n in 1usize..400,
            seed in 0u64..1_000_000,
            zero_quarters in 0u32..4,
            dup_every in 0usize..4,
            edge_every in 0usize..6,
            nan_every in 0usize..10,
            octaves in 1.0f64..33.0,
            batches in 1usize..9,
        ) {
            use metis_telemetry::{bucket_edge, GAMMA};
            let mut rng = StdRng::seed_from_u64(seed);
            // Log-uniform over `octaves` octaves inside the sketch's
            // (2^-23 s, 1024 s) range: narrow spans pile samples into a
            // few buckets, wide ones spread them thin.
            let lo = rng.gen_range(-23.0..10.0 - octaves.min(32.9));
            let salted = |every: usize, k: usize| every > 0 && k % (every + 2) == every;
            let mut samples: Vec<f64> = Vec::with_capacity(n);
            for k in 0..n {
                // Up to 3 in 4 samples zero, as in virtual-time batches
                // that close on their own submit stamp.
                let v = if rng.gen_range(0..4) < zero_quarters {
                    0.0
                } else if salted(dup_every, k) && k > 0 {
                    samples[k - 1]
                } else if salted(edge_every, k) {
                    bucket_edge(rng.gen_range(-180i64..80))
                } else if salted(nan_every, k) {
                    f64::NAN
                } else {
                    2f64.powf(lo + rng.gen_range(0.0..octaves.min(32.9)))
                };
                samples.push(v);
            }
            // Random contiguous batches, as the engine records them.
            let mut cuts: Vec<usize> = (0..batches - 1).map(|_| rng.gen_range(0..n + 1)).collect();
            cuts.push(0);
            cuts.push(n);
            cuts.sort_unstable();
            let parts: Vec<&[f64]> = cuts.windows(2).map(|w| &samples[w[0]..w[1]]).collect();

            let mut one_pass = LatencyRecorder::new();
            let mut per_batch = Vec::new();
            for part in &parts {
                one_pass.record_all(part);
                let mut rec = LatencyRecorder::new();
                rec.record_all(part);
                per_batch.push(rec);
            }
            let exact = summarize(&samples);
            let got = one_pass.summary();
            prop_assert_eq!(got.count, exact.count);
            prop_assert_eq!(got.max_s.to_bits(), exact.max_s.to_bits());
            if exact.mean_s.is_nan() {
                prop_assert!(got.mean_s.is_nan());
            } else {
                let tol = 1e-12 * exact.mean_s.abs();
                prop_assert!((got.mean_s - exact.mean_s).abs() <= tol,
                    "mean {} vs exact {}", got.mean_s, exact.mean_s);
            }
            for (p, reported, want) in [
                (50, got.p50_s, exact.p50_s),
                (95, got.p95_s, exact.p95_s),
                (99, got.p99_s, exact.p99_s),
            ] {
                if want.is_nan() {
                    prop_assert!(reported.is_nan(), "p{} {} but the oracle's rank is a NaN", p, reported);
                } else {
                    let hi = (want * GAMMA).min(exact.max_s);
                    prop_assert!(reported >= want && reported <= hi,
                        "p{} {} outside [{}, {}]", p, reported, want, hi);
                }
            }
            let p99 = exact.p99_s;
            for budget in [
                p99 / GAMMA,
                p99 * GAMMA,
                p99 * rng.gen_range(0.0..2.0),
                2f64.powf(rng.gen_range(-24.0..11.0)),
                0.0,
            ] {
                if budget < p99 || budget >= p99 * GAMMA {
                    prop_assert_eq!(got.meets_p99_slo(budget), exact.meets_p99_slo(budget),
                        "verdict at budget {} (exact p99 {})", budget, p99);
                }
            }

            // Bucket-wise merges: any order, same sketch, count and max.
            let mut order: Vec<usize> = (0..per_batch.len()).collect();
            for _ in 0..2 {
                let mut merged = LatencyRecorder::new();
                for &b in &order {
                    merged.merge(&per_batch[b]);
                }
                prop_assert_eq!(merged.snapshot(), one_pass.snapshot());
                let m = merged.summary();
                prop_assert_eq!(m.count, got.count);
                prop_assert_eq!(m.max_s.to_bits(), got.max_s.to_bits());
                for (x, y) in [(m.p50_s, got.p50_s), (m.p95_s, got.p95_s), (m.p99_s, got.p99_s)] {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
                shuffle(&mut order, &mut rng);
            }
        }
    }
}
