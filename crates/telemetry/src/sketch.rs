//! Streaming percentile sketch: a fixed log-spaced histogram over
//! latency seconds, mergeable and bounded-memory, in the spirit of
//! DDSketch's relative-error guarantee but with **static** bucket edges
//! so that merging is a plain bucket-wise add — commutative and
//! associative, hence bit-identical for any interleaving of writers.
//!
//! Geometry: 8 buckets per octave (`γ = 2^(1/8) ≈ 1.0905`). Bucket `i`
//! covers `(2^((i-1)/8), 2^(i/8)]` seconds; indices span
//! [`IDX_MIN`]..=[`IDX_MAX`] (≈ 1.1e-7 s .. 1024 s), values outside
//! land in dedicated under/overflow buckets and NaNs in an `invalid`
//! count. A quantile estimate returns the **upper edge** of the bucket
//! holding the exact order statistic at the same floor-index rank the
//! exact recorder uses (`metis_serve::summarize_sorted`), so for
//! in-range samples:
//!
//! ```text
//!   exact_p  ≤  sketch_p  ≤  exact_p · γ        (γ − 1 ≈ 9.05% relative error)
//! ```
//!
//! Underflow reports 0.0 (absolute error < 1.2e-7 s); overflow saturates
//! at the 1024 s edge. All counters are relaxed atomics: recording is
//! lock-free and wait-free; snapshots are racy against concurrent
//! writers (each bucket individually consistent), which is fine for live
//! scraping — deterministic reads happen after the writers quiesce.
//!
//! The record path never calls libm and takes no data-dependent branch
//! per sample: a sample's bucket comes from its float bits
//! (`bucket_index`), and a batch lands as one add per run of adjacent
//! samples in the same bucket, with the runs found branch-free
//! (`record_runs`). Batches stay cheap to record whether their samples
//! share a few buckets (a real-clock burst) or spread over dozens (a
//! co-sim wave whose latencies span seconds). The same sketch backs
//! the serving engine's latency accountant
//! (`metis_serve::LatencyRecorder`), so a shard's report and its
//! telemetry scope bucket the same samples identically.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// Buckets per octave: `γ = 2^(1/8)`.
const BUCKETS_PER_OCTAVE: f64 = 8.0;
/// The sketch's relative-error factor, `2^(1/8)`.
pub const GAMMA: f64 = 1.090_507_732_665_257_7;
/// Lowest bucket index: lower edge `2^((IDX_MIN-1)/8) ≈ 9.2e-8 s`.
pub const IDX_MIN: i64 = -186;
/// Highest bucket index: upper edge `2^(IDX_MAX/8) = 1024 s`.
pub const IDX_MAX: i64 = 80;
const N_BUCKETS: usize = (IDX_MAX - IDX_MIN + 1) as usize;

/// A sketch's counters, in order: underflow, the buckets from [`IDX_MIN`]
/// to [`IDX_MAX`], overflow, and invalid (NaN). A sample's *slot* is the
/// index of the counter it lands in.
const UNDERFLOW: usize = 0;
const OVERFLOW: usize = N_BUCKETS + 1;
const INVALID: usize = N_BUCKETS + 2;
const N_SLOTS: usize = N_BUCKETS + 3;

/// Upper edge of bucket `i`: `2^(i/8)`.
fn edge(i: i64) -> f64 {
    (i as f64 / BUCKETS_PER_OCTAVE).exp2()
}

/// Public view of the bucket geometry: the upper edge (seconds) of
/// bucket `i` — what a consumer of [`SketchSnapshot::counts`] needs to
/// turn bucket indices back into durations (e.g. the health plane's
/// stage-attribution mass estimates).
pub fn bucket_edge(i: i64) -> f64 {
    edge(i)
}

/// `edge(IDX_MIN - 1)` = `2^(-187/8)`: samples at or below it underflow.
const UNDERFLOW_EDGE: f64 = 9.192_292_841_720_228e-8;
/// `edge(IDX_MAX)` = `2^(80/8)` = 1024 s exactly: samples above it
/// overflow.
const OVERFLOW_EDGE: f64 = 1024.0;

/// The slot sample `v` lands in. Branch-free — the bucket index is
/// computed for every input and the out-of-range cases are selected
/// over it — so a batch classifies in one vectorizable pass.
#[inline]
fn slot(v: f64) -> usize {
    let bucket = (bucket_index(v).clamp(IDX_MIN, IDX_MAX) - IDX_MIN + 1) as usize;
    // Zero, negatives (upstream clamps, but be total) and tiny values.
    let s = if v <= UNDERFLOW_EDGE {
        UNDERFLOW
    } else {
        bucket
    };
    let s = if v > OVERFLOW_EDGE { OVERFLOW } else { s };
    if v.is_nan() {
        INVALID
    } else {
        s
    }
}

/// Sub-octave edges `2^(k/8)` for `k = 0..=7` — the thresholds a
/// mantissa in `[1, 2)` is compared against to find its bucket within
/// the octave.
const SUB_EDGES: [f64; 8] = [
    1.0,
    1.090_507_732_665_257_7,  // 2^(1/8)
    1.189_207_115_002_721,    // 2^(2/8)
    1.296_839_554_651_009_6,  // 2^(3/8)
    std::f64::consts::SQRT_2, // 2^(4/8)
    1.542_210_825_407_940_7,  // 2^(5/8)
    1.681_792_830_507_429,    // 2^(6/8)
    1.834_008_086_409_342_4,  // 2^(7/8)
];

/// Bucket index `ceil(8·log2(v))` for a positive, finite, **normal**
/// `v`, computed from the float's bits: the exponent gives the octave,
/// eight branchless mantissa compares give the sub-octave — no libm call
/// on the per-request hot path. Exact by construction: the mantissa is
/// compared against the correctly rounded `2^(k/8)` edges, with ties (a
/// sample exactly on an edge) landing in the lower bucket, matching the
/// `(lo, hi]` bucket contract. Any other input yields an arbitrary index,
/// which [`slot`] discards: the under/overflow edges are far inside the
/// normal range.
#[inline]
fn bucket_index(v: f64) -> i64 {
    let bits = v.to_bits();
    let octave = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mantissa = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    let mut k = 0i64;
    for e in SUB_EDGES {
        k += (e < mantissa) as i64;
    }
    8 * octave + k
}

/// Samples [`record_runs`] classifies per pass.
const CHUNK: usize = 64;

/// Classify each sample and hand `(slot, run length)` pairs to `sink`,
/// one per run of adjacent samples in the same slot — the amortization
/// behind [`LogSketch::record_all`] / [`WindowedSketch::record_all`]:
/// a batch-sorted input (an engine flush's latencies are monotone
/// within the batch) costs one add per bucket spanned, not per sample.
/// Branch-free per sample, so spread batches (co-sim latencies span
/// seconds, and almost every sample opens a run) pay no mispredictions:
/// one pass computes a chunk's slots, a second writes every position
/// into `ends` but advances past it only at a run's last sample.
#[inline]
fn record_runs(vs: &[f64], mut sink: impl FnMut(usize, u64)) {
    for chunk in vs.chunks(CHUNK) {
        // Past the chunk's slots sits a sentinel no sample lands in, so
        // the chunk's last sample always ends a run.
        let mut slots = [u16::MAX; CHUNK + 1];
        for (s, &v) in slots.iter_mut().zip(chunk) {
            *s = slot(v) as u16;
        }
        let mut ends = [0u8; CHUNK];
        let mut runs = 0;
        for i in 0..chunk.len() {
            ends[runs] = i as u8;
            runs += (slots[i] != slots[i + 1]) as usize;
        }
        let mut start = 0;
        for &end in &ends[..runs] {
            let end = end as usize;
            sink(slots[end] as usize, (end + 1 - start) as u64);
            start = end + 1;
        }
    }
}

/// A fixed-geometry log-spaced histogram of non-negative seconds.
#[derive(Debug)]
pub struct LogSketch {
    /// One counter per slot: underflow, buckets, overflow, invalid.
    counters: Box<[AtomicU64]>,
}

impl Default for LogSketch {
    fn default() -> Self {
        LogSketch {
            counters: (0..N_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl LogSketch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample (seconds). Lock-free; NaN counts as `invalid`
    /// and is excluded from quantiles (unlike the exact recorder, whose
    /// NaNs inflate the tail — documented divergence).
    pub fn record(&self, v: f64) {
        self.add(slot(v), 1);
    }

    #[inline]
    fn add(&self, slot: usize, n: u64) {
        self.counters[slot].fetch_add(n, Relaxed);
    }

    /// Record a slice of samples in one pass, one atomic add per run of
    /// adjacent samples in the same bucket (see `record_runs`).
    pub fn record_all(&self, vs: &[f64]) {
        record_runs(vs, |slot, n| self.add(slot, n));
    }

    /// Bucket-wise add of `other` into `self` — commutative, so any
    /// merge order over the same multiset of samples yields identical
    /// contents.
    pub fn merge(&self, other: &LogSketch) {
        for (dst, src) in self.counters.iter().zip(other.counters.iter()) {
            let n = src.load(Relaxed);
            if n > 0 {
                dst.fetch_add(n, Relaxed);
            }
        }
    }

    /// Reset to the contents of `other` (single-writer window rotation).
    pub(crate) fn reset_from(&self, other: &LogSketch) {
        for (dst, src) in self.counters.iter().zip(other.counters.iter()) {
            dst.store(src.load(Relaxed), Relaxed);
        }
    }

    pub(crate) fn clear(&self) {
        for counter in self.counters.iter() {
            counter.store(0, Relaxed);
        }
    }

    /// Sparse point-in-time copy of the contents.
    pub fn snapshot(&self) -> SketchSnapshot {
        let load = |slot: usize| self.counters[slot].load(Relaxed);
        let counts: Vec<(i64, u64)> = (1..=N_BUCKETS)
            .filter_map(|slot| {
                let n = load(slot);
                (n > 0).then_some((IDX_MIN - 1 + slot as i64, n))
            })
            .collect();
        let (underflow, overflow) = (load(UNDERFLOW), load(OVERFLOW));
        SketchSnapshot {
            total: counts.iter().map(|&(_, n)| n).sum::<u64>() + underflow + overflow,
            counts,
            underflow,
            overflow,
            invalid: load(INVALID),
        }
    }

    /// Quantile estimate (see module docs for the error contract).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.snapshot().quantile(q)
    }

    /// Samples recorded (excluding `invalid`).
    pub fn count(&self) -> u64 {
        self.snapshot().total
    }
}

impl Clone for LogSketch {
    fn clone(&self) -> Self {
        let copy = LogSketch::new();
        copy.reset_from(self);
        copy
    }
}

/// A sketch serializes as its sparse [`SketchSnapshot`], so a report that
/// carries one stays a few KB however many samples it holds.
impl Serialize for LogSketch {
    fn to_value(&self) -> serde::Value {
        self.snapshot().to_value()
    }
}

impl Deserialize for LogSketch {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let snap = SketchSnapshot::from_value(v)?;
        let sketch = LogSketch::new();
        for &(i, n) in &snap.counts {
            if !(IDX_MIN..=IDX_MAX).contains(&i) {
                return Err(serde::Error::custom(format!(
                    "sketch bucket {i} outside {IDX_MIN}..={IDX_MAX}"
                )));
            }
            sketch.add((i - IDX_MIN + 1) as usize, n);
        }
        sketch.add(UNDERFLOW, snap.underflow);
        sketch.add(OVERFLOW, snap.overflow);
        sketch.add(INVALID, snap.invalid);
        Ok(sketch)
    }
}

/// Point-in-time sketch contents: sparse `(bucket index, count)` pairs
/// plus the out-of-range counts. Comparable, serializable, mergeable —
/// the unit the determinism tests pin bit-identical across thread
/// counts.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SketchSnapshot {
    pub counts: Vec<(i64, u64)>,
    pub underflow: u64,
    pub overflow: u64,
    pub invalid: u64,
    pub total: u64,
}

impl SketchSnapshot {
    /// Merge with another snapshot (bucket-wise add).
    pub fn merged(&self, other: &SketchSnapshot) -> SketchSnapshot {
        let mut map: std::collections::BTreeMap<i64, u64> = self.counts.iter().copied().collect();
        for &(i, n) in &other.counts {
            *map.entry(i).or_insert(0) += n;
        }
        SketchSnapshot {
            counts: map.into_iter().collect(),
            underflow: self.underflow + other.underflow,
            overflow: self.overflow + other.overflow,
            invalid: self.invalid + other.invalid,
            total: self.total + other.total,
        }
    }

    /// Quantile estimate at the same floor-index rank as
    /// `summarize_sorted`: the upper edge of the bucket containing the
    /// `floor(q·(n−1))`-th smallest sample. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * (self.total - 1) as f64).floor() as u64;
        let mut cum = self.underflow;
        if cum > target {
            return Some(0.0);
        }
        for &(i, n) in &self.counts {
            cum += n;
            if cum > target {
                return Some(edge(i));
            }
        }
        Some(OVERFLOW_EDGE)
    }

    /// Bucket **index** holding the `floor(q·(n−1))`-th sample: the
    /// resolution the health plane's drift score works in (shift counted
    /// in buckets, i.e. multiples of γ, rather than seconds). Underflow
    /// reports `IDX_MIN − 1`, a rank past every retained bucket reports
    /// `IDX_MAX + 1`. `None` when empty.
    pub fn quantile_index(&self, q: f64) -> Option<i64> {
        if self.total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * (self.total - 1) as f64).floor() as u64;
        let mut cum = self.underflow;
        if cum > target {
            return Some(IDX_MIN - 1);
        }
        for &(i, n) in &self.counts {
            cum += n;
            if cum > target {
                return Some(i);
            }
        }
        Some(IDX_MAX + 1)
    }

    /// Samples strictly attributable above `threshold_s`: buckets whose
    /// **lower** edge clears the threshold, plus overflow (≥ 1024 s)
    /// when the threshold is below the overflow edge, plus underflow
    /// only for negative thresholds. Conservative by up to one bucket
    /// (γ relative) — a sample inside the threshold's own bucket is not
    /// counted. Non-finite thresholds count nothing.
    pub fn count_over(&self, threshold_s: f64) -> u64 {
        if !threshold_s.is_finite() {
            return 0;
        }
        let mut over = 0u64;
        for &(i, n) in &self.counts {
            if edge(i - 1) > threshold_s {
                over += n;
            }
        }
        if threshold_s < OVERFLOW_EDGE {
            over += self.overflow;
        }
        if threshold_s < 0.0 {
            over += self.underflow;
        }
        over
    }

    /// Bucket-wise `self − earlier`, saturating at zero: the per-window
    /// delta between two snapshots of one monotone (cumulative) sketch.
    /// `total` is recomputed from the surviving counts.
    pub fn saturating_delta(&self, earlier: &SketchSnapshot) -> SketchSnapshot {
        let prev: std::collections::BTreeMap<i64, u64> = earlier.counts.iter().copied().collect();
        let mut counts = Vec::new();
        let mut total = 0u64;
        for &(i, n) in &self.counts {
            let d = n.saturating_sub(prev.get(&i).copied().unwrap_or(0));
            if d > 0 {
                counts.push((i, d));
                total += d;
            }
        }
        let underflow = self.underflow.saturating_sub(earlier.underflow);
        let overflow = self.overflow.saturating_sub(earlier.overflow);
        SketchSnapshot {
            counts,
            underflow,
            overflow,
            invalid: self.invalid.saturating_sub(earlier.invalid),
            total: total + underflow + overflow,
        }
    }

    /// Upper-bound estimate of the summed duration mass (seconds) in the
    /// snapshot: each bucket contributes `count × upper edge`, overflow
    /// contributes at the overflow edge, underflow contributes nothing.
    /// The health plane ranks stages by this when attributing a tail.
    pub fn mass_s(&self) -> f64 {
        let mut mass = 0.0;
        for &(i, n) in &self.counts {
            mass += n as f64 * edge(i);
        }
        mass + self.overflow as f64 * OVERFLOW_EDGE
    }
}

/// A [`LogSketch`] tripled into cumulative + rotating time windows, so a
/// scraper can read both all-of-run and recent percentiles mid-run.
/// Window rotation keys off the **stamp** passed to [`Self::record`]
/// (virtual or real seconds), so rotation is a pure function of the
/// sample schedule. Recording is single-writer per sketch (the engine's
/// batcher thread); reads may race a rotation and see a freshly cleared
/// current window — the `window_quantile` read merges current + previous
/// to smooth that seam.
#[derive(Debug)]
pub struct WindowedSketch {
    /// `1 / window_s` when windowing is active, else 0.0 — the record
    /// path multiplies instead of dividing.
    inv_window_s: f64,
    cumulative: LogSketch,
    cur: LogSketch,
    prev: LogSketch,
    cur_window: AtomicI64,
}

impl WindowedSketch {
    pub fn new(window_s: f64) -> Self {
        WindowedSketch {
            inv_window_s: if window_s.is_finite() && window_s > 0.0 {
                window_s.recip()
            } else {
                0.0
            },
            cumulative: LogSketch::new(),
            cur: LogSketch::new(),
            prev: LogSketch::new(),
            cur_window: AtomicI64::new(0),
        }
    }

    /// Rotate the current window if `stamp_s` has crossed a boundary.
    #[inline]
    fn rotate_to(&self, stamp_s: f64) {
        let w = if self.inv_window_s > 0.0 && stamp_s.is_finite() {
            (stamp_s * self.inv_window_s).floor() as i64
        } else {
            0
        };
        if w != self.cur_window.load(Relaxed) {
            self.prev.reset_from(&self.cur);
            self.cur.clear();
            self.cur_window.store(w, Relaxed);
        }
    }

    /// Record `v` stamped at `stamp_s`. Single writer per sketch.
    pub fn record(&self, stamp_s: f64, v: f64) {
        self.rotate_to(stamp_s);
        let slot = slot(v);
        self.cumulative.add(slot, 1);
        self.cur.add(slot, 1);
    }

    /// Record a batch of samples sharing one window stamp (an engine
    /// flush's close): one rotation check, then run-length classified
    /// adds into cumulative + current (see [`LogSketch::record_all`]).
    /// Keying every sample off the batch stamp can shift a sample by at
    /// most one flush interval at a window seam — windows are seconds,
    /// flushes sub-millisecond, and under a virtual clock the per-batch
    /// and per-sample stamps coincide exactly.
    pub fn record_all(&self, stamp_s: f64, vs: &[f64]) {
        self.rotate_to(stamp_s);
        record_runs(vs, |slot, n| {
            self.cumulative.add(slot, n);
            self.cur.add(slot, n);
        });
    }

    /// All-of-run sketch.
    pub fn cumulative(&self) -> &LogSketch {
        &self.cumulative
    }

    /// All-of-run quantile estimate.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.cumulative.quantile(q)
    }

    /// Recent quantile estimate over the current + previous windows.
    pub fn window_quantile(&self, q: f64) -> Option<f64> {
        self.cur
            .snapshot()
            .merged(&self.prev.snapshot())
            .quantile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact floor-index percentile, the `summarize_sorted` rule.
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        sorted[((q * (sorted.len() - 1) as f64) as usize).min(sorted.len() - 1)]
    }

    #[test]
    fn quantile_brackets_the_exact_order_statistic() {
        let sketch = LogSketch::new();
        let mut xs: Vec<f64> = (1..=1000).map(|k| 1e-5 * k as f64 * 1.37).collect();
        for &x in &xs {
            sketch.record(x);
        }
        xs.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(&xs, q);
            let est = sketch.quantile(q).unwrap();
            assert!(
                est >= exact && est <= exact * GAMMA,
                "q={q}: est {est} not in [{exact}, {}]",
                exact * GAMMA
            );
        }
    }

    #[test]
    fn merge_is_order_independent_bitwise() {
        let parts: Vec<LogSketch> = (0..4).map(|_| LogSketch::new()).collect();
        for (k, part) in parts.iter().enumerate() {
            for j in 0..50 {
                part.record(1e-4 * ((k * 50 + j) as f64 + 1.0));
            }
        }
        let forward = LogSketch::new();
        for p in &parts {
            forward.merge(p);
        }
        let backward = LogSketch::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        assert_eq!(forward.snapshot(), backward.snapshot());
        assert_eq!(forward.count(), 200);
    }

    #[test]
    fn out_of_range_and_nan_are_bucketed_not_lost() {
        let sketch = LogSketch::new();
        sketch.record(0.0);
        sketch.record(-1.0);
        sketch.record(1e-9);
        sketch.record(5000.0);
        sketch.record(f64::INFINITY);
        sketch.record(f64::NAN);
        let snap = sketch.snapshot();
        assert_eq!(snap.underflow, 3);
        assert_eq!(snap.overflow, 2);
        assert_eq!(snap.invalid, 1);
        assert_eq!(snap.total, 5, "invalid excluded from total");
        // All-underflow quantile reports 0.0; overflow tail saturates.
        assert_eq!(sketch.quantile(0.0).unwrap(), 0.0);
        assert_eq!(sketch.quantile(1.0).unwrap(), edge(IDX_MAX));
    }

    #[test]
    fn empty_sketch_has_no_quantile() {
        assert_eq!(LogSketch::new().quantile(0.5), None);
        assert_eq!(LogSketch::new().count(), 0);
    }

    #[test]
    fn snapshot_round_trips_through_the_serde_shim() {
        let sketch = LogSketch::new();
        for k in 1..=100 {
            sketch.record(1e-3 * k as f64);
        }
        sketch.record(f64::NAN);
        let snap = sketch.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: SketchSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
        // The sketch itself serializes as its snapshot and loads back.
        assert_eq!(serde_json::to_string(&sketch).unwrap(), json);
        let loaded: LogSketch = serde_json::from_str(&json).unwrap();
        assert_eq!(loaded.snapshot(), snap);
        assert_eq!(sketch.clone().snapshot(), snap);
        let stray = json.replacen('[', &format!("[[{},1],", IDX_MAX + 1), 1);
        assert!(serde_json::from_str::<LogSketch>(&stray).is_err());
    }

    #[test]
    fn windows_rotate_on_the_stamp_and_cumulative_keeps_everything() {
        let w = WindowedSketch::new(1.0);
        for k in 0..100 {
            w.record(0.5, 1e-3 * (k + 1) as f64); // window 0: 1ms..100ms
        }
        for k in 0..100 {
            w.record(1.5, 1.0 + 1e-3 * k as f64); // window 1: ~1s
        }
        for _ in 0..100 {
            w.record(2.5, 10.0); // window 2: 10s
        }
        // Cumulative p50 sits in the ~1s region (rank 149 of 0..=299).
        let cum = w.quantile(0.5).unwrap();
        assert!((1.0..=1.2 * GAMMA).contains(&cum), "cumulative p50 {cum}");
        // Recent (windows 1+2 after rotation... window 0 aged out) median
        // covers only the 1s/10s samples.
        let recent = w.window_quantile(0.5).unwrap();
        assert!(recent >= 1.0, "recent p50 {recent} must not see window 0");
        let recent_p99 = w.window_quantile(0.99).unwrap();
        assert!(
            (10.0..=10.0 * GAMMA).contains(&recent_p99),
            "recent p99 {recent_p99}"
        );
    }

    /// The branchless bit-twiddled bucket index must agree with the
    /// reference `ceil(8·log2(v))` everywhere in range — dense sweep
    /// plus every edge and its representable neighbours (at an exact
    /// edge the bit path is authoritative: it compares the mantissa
    /// against the correctly rounded `2^(k/8)`, where libm's log2 can
    /// round either way).
    #[test]
    fn bucket_index_matches_the_log_reference() {
        let reference = |v: f64| (BUCKETS_PER_OCTAVE * v.log2()).ceil() as i64;
        let mut v = edge(IDX_MIN - 1) * 1.0001;
        while v <= edge(IDX_MAX) {
            let got = bucket_index(v);
            let want = reference(v);
            assert!(
                (got - want).abs() <= 1,
                "bucket index diverged at {v}: bit path {got}, log2 path {want}"
            );
            // Off-by-one is only legal exactly on an edge, where the
            // (lo, hi] contract puts the sample in the lower bucket.
            if got != want {
                assert_eq!(got + 1, want);
                assert!((edge(got) - v).abs() <= v * 1e-15, "not an edge: {v}");
            }
            v *= 1.000_37;
        }
        for i in IDX_MIN..=IDX_MAX {
            let e = edge(i);
            assert_eq!(bucket_index(e), i, "edge {i} must land in its own bucket");
            let above = f64::from_bits(e.to_bits() + 1);
            assert_eq!(bucket_index(above), i + 1, "just above edge {i}");
        }
    }

    #[test]
    fn precomputed_range_edges_match_the_bucket_geometry() {
        assert_eq!(UNDERFLOW_EDGE, edge(IDX_MIN - 1));
        assert_eq!(OVERFLOW_EDGE, edge(IDX_MAX));
    }

    /// The amortized batch path must produce the identical histogram to
    /// per-sample recording — exercised with exact edges, their ulp
    /// neighbours, NaNs, out-of-range values, runs, and non-monotone
    /// order (the run optimization must not *require* sorted input).
    #[test]
    fn record_all_matches_per_sample_recording() {
        let mut vs = vec![
            0.0,
            -3.0,
            f64::NAN,
            f64::NAN,
            1e-9,
            5000.0,
            f64::INFINITY,
            0.2,
            0.2,
            0.2,
            0.19,
            1.0,
        ];
        for i in [IDX_MIN, -5, 0, 7, IDX_MAX] {
            let e = edge(i);
            vs.push(e);
            vs.push(e);
            vs.push(f64::from_bits(e.to_bits() + 1));
        }
        for k in 0..200 {
            vs.push(0.3 - k as f64 * 1e-4); // monotone sweep across buckets
        }
        let batched = LogSketch::new();
        batched.record_all(&vs);
        let singles = LogSketch::new();
        for &v in &vs {
            singles.record(v);
        }
        assert_eq!(batched.snapshot(), singles.snapshot());

        let windowed = WindowedSketch::new(1.0);
        windowed.record_all(7.25, &vs);
        assert_eq!(windowed.cumulative().snapshot(), singles.snapshot());
        assert_eq!(windowed.cur.snapshot(), singles.snapshot());
    }

    #[test]
    fn bucket_edges_bound_single_samples() {
        let sketch = LogSketch::new();
        for v in [1.19e-7, 1e-6, 0.003, 1.0, 42.0, 1023.9] {
            sketch.clear();
            sketch.record(v);
            let est = sketch.quantile(0.5).unwrap();
            assert!(
                est >= v && est <= v * GAMMA,
                "sample {v}: estimate {est} outside [v, v·γ]"
            );
        }
    }

    #[test]
    fn snapshot_delta_recovers_a_window_and_saturates() {
        let sketch = LogSketch::new();
        sketch.record(0.01);
        sketch.record(f64::NAN);
        let before = sketch.snapshot();
        sketch.record(0.01);
        sketch.record(0.5);
        sketch.record(5000.0);
        sketch.record(-1.0);
        let delta = sketch.snapshot().saturating_delta(&before);
        assert_eq!(delta.total, 4);
        assert_eq!(delta.overflow, 1);
        assert_eq!(delta.underflow, 1);
        assert_eq!(delta.invalid, 0);
        assert_eq!(delta.counts.iter().map(|&(_, n)| n).sum::<u64>(), 2);
        // Deltas against a *later* snapshot saturate instead of wrapping.
        let wrapped = before.saturating_delta(&sketch.snapshot());
        assert_eq!(wrapped.total, 0);
        assert!(wrapped.counts.is_empty());
    }

    #[test]
    fn count_over_splits_on_the_budget_edge() {
        let sketch = LogSketch::new();
        for _ in 0..10 {
            sketch.record(0.001);
        }
        for _ in 0..4 {
            sketch.record(1.0);
        }
        sketch.record(5000.0);
        sketch.record(0.0);
        let snap = sketch.snapshot();
        // Budget between the clusters: the 1s samples + overflow clear it.
        assert_eq!(snap.count_over(0.1), 5);
        // Budget above everything finite in range: only overflow remains.
        assert_eq!(snap.count_over(1023.0), 1);
        // Nothing is "over" an infinite or invalid budget.
        assert_eq!(snap.count_over(f64::INFINITY), 0);
        assert_eq!(snap.count_over(f64::NAN), 0);
        // A negative budget counts every sample, underflow included.
        assert_eq!(snap.count_over(-1.0), snap.total);
    }

    #[test]
    fn quantile_index_tracks_the_value_quantile() {
        let sketch = LogSketch::new();
        for k in 1..=100 {
            sketch.record(1e-3 * k as f64);
        }
        let snap = sketch.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            let i = snap.quantile_index(q).unwrap();
            assert_eq!(snap.quantile(q).unwrap(), bucket_edge(i));
        }
        let under = LogSketch::new();
        under.record(0.0);
        assert_eq!(under.snapshot().quantile_index(0.5), Some(IDX_MIN - 1));
        let over = LogSketch::new();
        over.record(f64::INFINITY);
        assert_eq!(over.snapshot().quantile_index(0.5), Some(IDX_MAX + 1));
        assert_eq!(SketchSnapshot::default().quantile_index(0.5), None);
    }

    #[test]
    fn mass_upper_bounds_the_recorded_sum() {
        let sketch = LogSketch::new();
        let mut sum = 0.0;
        for k in 1..=500 {
            let v = 1e-4 * k as f64 * 2.13;
            sketch.record(v);
            sum += v;
        }
        let mass = sketch.snapshot().mass_s();
        assert!(mass >= sum, "mass {mass} must bound the true sum {sum}");
        assert!(mass <= sum * GAMMA, "mass {mass} over-estimates past γ");
    }

    /// Satellite: `LogSketch::merge` algebra under proptest — the merged
    /// histogram is a commutative monoid (associative, commutative,
    /// empty-sketch identity) and merging can only move quantiles
    /// monotonically toward the union's, never invent mass. Includes
    /// empty and single-bucket operands via the `0` sample-count case.
    mod merge_algebra {
        use super::*;
        use proptest::prelude::*;

        /// Decode a proptest-chosen integer into a sample: mostly
        /// in-range log-uniform magnitudes, with underflow, overflow,
        /// and invalid classes mixed in.
        fn decode(code: u64) -> f64 {
            match code % 16 {
                0 => 0.0,
                1 => -2.5,
                2 => 1e-9,
                3 => 4096.0,
                4 => f64::INFINITY,
                5 => f64::NAN,
                _ => ((code / 16) as f64 / 62_500.0 * 32.9 - 23.0).exp2(),
            }
        }

        /// Build a sketch from the first `n` decoded codes — `n = 0`
        /// yields the empty sketch, `n = 1` a single-bucket one.
        fn sketch_of(codes: &[u64], n: usize) -> LogSketch {
            let samples: Vec<f64> = codes[..n.min(codes.len())]
                .iter()
                .map(|&c| decode(c))
                .collect();
            let s = LogSketch::new();
            s.record_all(&samples);
            s
        }

        proptest! {
            #[test]
            fn merge_is_associative_and_commutative(
                a in collection::vec(0u64..1_000_000, 24),
                b in collection::vec(0u64..1_000_000, 24),
                c in collection::vec(0u64..1_000_000, 24),
                na in 0usize..25,
                nb in 0usize..25,
                nc in 0usize..25,
            ) {
                let (sa, sb, sc) = (sketch_of(&a, na), sketch_of(&b, nb), sketch_of(&c, nc));
                // (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c), built via fresh accumulators.
                let left = LogSketch::new();
                left.merge(&sa);
                left.merge(&sb);
                let lhs = LogSketch::new();
                lhs.merge(&left);
                lhs.merge(&sc);
                let right = LogSketch::new();
                right.merge(&sb);
                right.merge(&sc);
                let rhs = LogSketch::new();
                rhs.merge(&sa);
                rhs.merge(&right);
                prop_assert_eq!(lhs.snapshot(), rhs.snapshot());
                // Commutativity, snapshot-level and sketch-level.
                let ab = LogSketch::new();
                ab.merge(&sa);
                ab.merge(&sb);
                let ba = LogSketch::new();
                ba.merge(&sb);
                ba.merge(&sa);
                prop_assert_eq!(ab.snapshot(), ba.snapshot());
                prop_assert_eq!(
                    sa.snapshot().merged(&sb.snapshot()),
                    sb.snapshot().merged(&sa.snapshot())
                );
            }

            #[test]
            fn empty_sketch_is_the_merge_identity(
                a in collection::vec(0u64..1_000_000, 24),
                na in 0usize..25,
            ) {
                let sa = sketch_of(&a, na);
                let merged = LogSketch::new();
                merged.merge(&sa);
                merged.merge(&LogSketch::new());
                prop_assert_eq!(merged.snapshot(), sa.snapshot());
                prop_assert_eq!(
                    sa.snapshot().merged(&SketchSnapshot::default()),
                    sa.snapshot()
                );
            }

            #[test]
            fn merged_quantiles_stay_bracketed_and_monotone(
                a in collection::vec(0u64..1_000_000, 24),
                b in collection::vec(0u64..1_000_000, 24),
                na in 0usize..25,
                nb in 0usize..25,
            ) {
                let (sa, sb) = (sketch_of(&a, na), sketch_of(&b, nb));
                let union = sa.snapshot().merged(&sb.snapshot());
                prop_assert_eq!(union.total, sa.count() + sb.count());
                // Quantiles are monotone in q after a merge…
                let mut prev = f64::NEG_INFINITY;
                for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                    if let Some(v) = union.quantile(q) {
                        prop_assert!(v >= prev, "q={} regressed: {} < {}", q, v, prev);
                        prev = v;
                    }
                }
                // …and bracketed by the operands' extremes: the union's
                // min/max quantile cannot escape [min of mins, max of maxes].
                if union.total > 0 && sa.count() > 0 && sb.count() > 0 {
                    let lo = sa
                        .quantile(0.0)
                        .unwrap()
                        .min(sb.quantile(0.0).unwrap());
                    let hi = sa
                        .quantile(1.0)
                        .unwrap()
                        .max(sb.quantile(1.0).unwrap());
                    prop_assert!(union.quantile(0.0).unwrap() >= lo);
                    prop_assert!(union.quantile(1.0).unwrap() <= hi);
                }
            }
        }
    }
}
