//! # metis-telemetry — the live telemetry plane
//!
//! Everything the serving stack knew about itself used to materialize
//! only at shutdown (`EngineReport` / `FabricReport` / `RunnerStats`).
//! This crate is the *while-it-runs* view — the observability
//! prerequisite for the ROADMAP's autoscaler — in four pieces:
//!
//! * [`span`] — **stage-attributed spans**: each request's latency
//!   decomposes into queue-wait / batch-formation / kernel-compute /
//!   collect (plus publish cost on the registry path), stamped from the
//!   serving stack's `Clock` so real and virtual time share one path,
//! * [`metrics`] — lock-free counters and gauges (queue depth,
//!   in-flight batches, served-per-epoch, ensemble width),
//! * [`sketch`] — a cumulative streaming percentile sketch (fixed
//!   log-spaced histogram, `γ = 2^(1/8)` ⇒ ≤ 9.05% relative error,
//!   mergeable, bounded memory) for mid-run per-tenant p50/p99 reads;
//!   the health plane (`metis_obs`) gets its windows by diffing
//!   cumulative snapshots taken at each tick
//!   ([`SketchSnapshot::saturating_delta`]),
//! * [`recorder`] — a flight recorder: bounded ring of structured
//!   events (admission, flush, hot-swap, audit verdict, drain) with
//!   per-scope sequence numbers,
//! * [`trace`] — Chrome trace-event JSON export
//!   (`chrome://tracing` / Perfetto) rendering a run as a
//!   per-shard/per-tenant timeline.
//!
//! **Determinism contract**: under a virtual clock every span stamp,
//! flight event, and sketch bucket is derived from the submission/swap
//! schedule — never from a wall clock or thread interleaving — so the
//! deterministic surfaces ([`ShardTelemetry::digest`]) are bit-identical
//! across thread counts (`tests/telemetry_determinism.rs`). Gauges are
//! the documented exception: instantaneous levels are monitoring data,
//! excluded from digests.
//!
//! **Disabled cost**: a disabled plane ([`Telemetry::off`], the
//! default) hands out no scopes, so instrumented call sites reduce to
//! one `Option` test on an engine-local field — no atomics, no locks
//! (`telemetry_overhead_pct` in `BENCH_serving.json` gates the enabled
//! cost too).

pub mod metrics;
pub mod recorder;
pub mod sketch;
pub mod span;
pub mod trace;

pub use metrics::{Counter, Gauge};
pub use recorder::{EventKind, FlightEvent, FlightRecorder};
pub use sketch::{bucket_edge, LogSketch, SketchSnapshot, GAMMA};
pub use span::{SpanLog, SpanRecord, Stage};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// FNV-1a over a byte string — the digest primitive shared by the
/// deterministic telemetry surfaces, the co-sim outcome digest and the
/// determinism suites' fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Streaming [`fnv1a`]: feeding a byte string in pieces gives the same
/// digest as hashing it whole.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hash `v`'s little-endian bytes (the same on every host).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// Sizing of the per-scope span log.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Max spans retained per scope (head of run; overflow counted).
    pub span_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            span_capacity: 4096,
        }
    }
}

/// Flight-recorder ring size per scope (tail of run; drops counted).
const RECORDER_CAPACITY: usize = 1024;

/// Shard index used when registering a control scope (registry/audit
/// events for a scenario rather than one shard's serving lane).
pub const CONTROL_SHARD: usize = usize::MAX;

/// Per-scope instruments: one per serving shard, plus one control scope
/// per scenario for registry/audit events. Handed out by
/// [`Telemetry::register`]; every field is safe to read while the run
/// is live.
pub struct ShardTelemetry {
    scenario: String,
    shard: usize,
    tenant: String,
    deadline_class: u8,
    /// Requests queued in pages the batcher has not taken yet (set by the
    /// batcher once per batch).
    pub queue_depth: Gauge,
    /// Batches opened but not yet flushed.
    pub inflight_batches: Gauge,
    /// Requests served (batcher-written — exact).
    pub served: Counter,
    /// Batches flushed.
    pub batches: Counter,
    /// Ensemble width of the last flushed epoch.
    pub ensemble_width: Gauge,
    /// Cumulative latency sketch (full request span, seconds).
    pub latency: LogSketch,
    stage_sketches: [LogSketch; Stage::ALL.len()],
    per_epoch: Mutex<BTreeMap<u64, u64>>,
    /// Batch-level span timeline.
    pub spans: SpanLog,
    /// Structured event ring.
    pub events: FlightRecorder,
}

impl std::fmt::Debug for ShardTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardTelemetry")
            .field("scenario", &self.scenario)
            .field("shard", &self.shard)
            .field("tenant", &self.tenant)
            .field("served", &self.served.get())
            .finish_non_exhaustive()
    }
}

/// Raw stamps of one flushed micro-batch, handed to
/// [`ShardTelemetry::record_flush`]. Under a virtual clock the engine
/// derives all four from the batch's submit stamps (open = min submit,
/// the rest = the batch close), keeping the telemetry a pure function
/// of the schedule.
#[derive(Debug, Clone, Copy)]
pub struct FlushStamps {
    pub open_s: f64,
    pub kernel_start_s: f64,
    pub kernel_end_s: f64,
    pub close_s: f64,
    pub rows: usize,
    pub epoch: u64,
    pub width: usize,
}

impl ShardTelemetry {
    fn new(
        scenario: &str,
        shard: usize,
        tenant: &str,
        deadline_class: u8,
        cfg: &TelemetryConfig,
    ) -> Self {
        ShardTelemetry {
            scenario: scenario.to_string(),
            shard,
            tenant: tenant.to_string(),
            deadline_class,
            queue_depth: Gauge::new(),
            inflight_batches: Gauge::new(),
            served: Counter::new(),
            batches: Counter::new(),
            ensemble_width: Gauge::new(),
            latency: LogSketch::new(),
            stage_sketches: Default::default(),
            per_epoch: Mutex::new(BTreeMap::new()),
            spans: SpanLog::new(cfg.span_capacity),
            events: FlightRecorder::new(RECORDER_CAPACITY),
        }
    }

    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// Shard index, or [`CONTROL_SHARD`] for a scenario's control scope.
    pub fn shard(&self) -> usize {
        self.shard
    }

    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The tenant's deadline class at registration — labels trace rows
    /// and health reports.
    pub fn deadline_class(&self) -> u8 {
        self.deadline_class
    }

    /// Duration sketch of one stage.
    pub fn stage_sketch(&self, stage: Stage) -> &LogSketch {
        &self.stage_sketches[stage.index()]
    }

    /// Requests served per registry epoch.
    pub fn served_per_epoch(&self) -> Vec<(u64, u64)> {
        self.per_epoch
            .lock()
            .unwrap()
            .iter()
            .map(|(&e, &n)| (e, n))
            .collect()
    }

    /// A micro-batch opened. Gauge-only: the admission **event** is
    /// recorded by [`ShardTelemetry::record_flush`], once the batch's
    /// deterministic composition is known — the instant a batch opens,
    /// the ingest queue's length depends on host scheduling, which must
    /// never leak into the digestable event stream.
    pub fn on_batch_open(&self) {
        self.inflight_batches.inc();
    }

    /// One request completed: full-span latency plus its queue-wait
    /// share.
    pub fn on_request(&self, latency_s: f64, queue_wait_s: f64) {
        self.latency.record(latency_s);
        self.stage_sketches[Stage::QueueWait.index()].record(queue_wait_s);
    }

    /// A whole flushed batch's request samples in one pass — the
    /// engine's hot path. Equivalent multiset to calling
    /// [`Self::on_request`] per request, but run-length amortized:
    /// within a batch latencies and queue-waits are monotone (earlier
    /// submits waited longer), so each distinct sketch bucket costs one
    /// atomic add regardless of batch size.
    pub fn on_requests(&self, latencies_s: &[f64], queue_waits_s: &[f64]) {
        self.latency.record_all(latencies_s);
        self.stage_sketches[Stage::QueueWait.index()].record_all(queue_waits_s);
    }

    /// A micro-batch flushed; records the batch-form/kernel/collect
    /// spans, their duration sketches, and the flush event.
    pub fn record_flush(&self, s: &FlushStamps) {
        self.inflight_batches.dec();
        self.batches.inc();
        self.served.add(s.rows as u64);
        self.ensemble_width.set(s.width as i64);
        *self.per_epoch.lock().unwrap().entry(s.epoch).or_insert(0) += s.rows as u64;
        self.events
            .record(s.open_s, EventKind::Admission { queued: s.rows });
        for (stage, start, end) in [
            (Stage::BatchForm, s.open_s, s.kernel_start_s),
            (Stage::KernelCompute, s.kernel_start_s, s.kernel_end_s),
            (Stage::Collect, s.kernel_end_s, s.close_s),
        ] {
            let dur_s = (end - start).max(0.0);
            self.stage_sketches[stage.index()].record(dur_s);
            self.spans.push(SpanRecord {
                stage,
                start_s: start,
                dur_s,
                rows: s.rows,
                epoch: s.epoch,
            });
        }
        self.events.record(
            s.close_s,
            EventKind::Flush {
                rows: s.rows,
                epoch: s.epoch,
                width: s.width,
            },
        );
    }

    /// A model hot-swap published to the registry scope.
    pub fn on_hot_swap(&self, time_s: f64, epoch: u64, trees: usize, cost_s: f64) {
        self.stage_sketches[Stage::Publish.index()].record(cost_s);
        self.spans.push(SpanRecord {
            stage: Stage::Publish,
            start_s: time_s,
            dur_s: cost_s,
            rows: 0,
            epoch,
        });
        self.events.record(
            time_s,
            EventKind::HotSwap {
                epoch,
                trees,
                cost_s,
            },
        );
    }

    /// A shadow audit concluded on this scope.
    pub fn on_audit(&self, time_s: f64, epoch: u64, mismatches: u64, promoted: bool) {
        self.events.record(
            time_s,
            EventKind::AuditVerdict {
                epoch,
                mismatches,
                promoted,
            },
        );
    }

    /// Shutdown drained `rows` queued requests.
    pub fn on_drain(&self, time_s: f64, rows: usize) {
        self.events.record(time_s, EventKind::Drain { rows });
    }

    /// Digest of the scope's deterministic surfaces: the span log, the
    /// event ring (retained entries **and** overflow drop counts, so a
    /// saturated recorder is visible, not silently lossy), the latency
    /// sketch, every stage sketch, the served count, and the per-epoch
    /// split. Gauges (instantaneous levels) are excluded by design.
    pub fn digest(&self) -> u64 {
        let mut text = String::new();
        text.push_str(&self.scenario);
        text.push('/');
        text.push_str(&self.tenant);
        text.push_str(&format!(
            "|spans:{:x}/{}|events:{:x}/{}/{}|served:{}|epochs:{:?}|lat:{:?}",
            self.spans.digest(),
            self.spans.dropped(),
            self.events.digest(),
            self.events.recorded(),
            self.events.dropped(),
            self.served.get(),
            self.served_per_epoch(),
            self.latency.snapshot(),
        ));
        for stage in Stage::ALL {
            text.push_str(&format!(
                "|{}:{:?}",
                stage.name(),
                self.stage_sketch(stage).snapshot()
            ));
        }
        fnv1a(text.as_bytes())
    }
}

#[derive(Debug)]
struct Plane {
    cfg: TelemetryConfig,
    scopes: Mutex<Vec<Arc<ShardTelemetry>>>,
}

/// The plane handle threaded through configs. Cloning shares the plane;
/// the default is **off** — a disabled plane registers no scopes, so
/// instrumented call sites cost one `Option` test.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Plane>>,
}

impl Telemetry {
    /// A disabled plane (also the `Default`).
    pub fn off() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled plane with default sizing.
    pub fn enabled() -> Self {
        Self::with_config(TelemetryConfig::default())
    }

    /// An enabled plane with explicit sizing.
    pub fn with_config(cfg: TelemetryConfig) -> Self {
        Telemetry {
            inner: Some(Arc::new(Plane {
                cfg,
                scopes: Mutex::new(Vec::new()),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register a scope (a serving shard, or a scenario control scope
    /// with [`CONTROL_SHARD`]) carrying the tenant's deadline class, so
    /// trace rows and health reports can label scopes by service tier.
    /// `None` when the plane is disabled — callers store the `Option` and
    /// skip all instrumentation on `None`.
    pub fn register(
        &self,
        scenario: &str,
        shard: usize,
        tenant: &str,
        deadline_class: u8,
    ) -> Option<Arc<ShardTelemetry>> {
        let plane = self.inner.as_ref()?;
        let scope = Arc::new(ShardTelemetry::new(
            scenario,
            shard,
            tenant,
            deadline_class,
            &plane.cfg,
        ));
        plane.scopes.lock().unwrap().push(Arc::clone(&scope));
        Some(scope)
    }

    /// Every registered scope, in registration order (deterministic:
    /// the router registers sequentially at construction).
    pub fn scopes(&self) -> Vec<Arc<ShardTelemetry>> {
        match &self.inner {
            Some(plane) => plane.scopes.lock().unwrap().clone(),
            None => Vec::new(),
        }
    }

    /// Chrome trace-event JSON of every scope's timeline.
    pub fn chrome_trace(&self) -> serde::Value {
        trace::chrome_trace(&self.scopes())
    }

    /// [`Telemetry::chrome_trace`] rendered to a JSON string.
    pub fn chrome_trace_json(&self) -> String {
        serde_json::to_string(&self.chrome_trace()).expect("trace document serializes infallibly")
    }

    /// Combined digest over every scope's deterministic surfaces, in
    /// registration order. 0 for a disabled plane.
    pub fn digest(&self) -> u64 {
        let mut h = 0u64;
        for scope in self.scopes() {
            h = h.rotate_left(7).wrapping_mul(0x0000_0100_0000_01b3) ^ scope.digest();
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_registers_nothing() {
        let t = Telemetry::off();
        assert!(!t.is_enabled());
        assert!(t.register("abr", 0, "gold", 0).is_none());
        assert!(t.scopes().is_empty());
        assert_eq!(t.digest(), 0);
        assert!(!Telemetry::default().is_enabled());
    }

    #[test]
    fn scopes_register_in_order_and_clones_share_the_plane() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        let a = t.register("abr", 0, "gold", 0).unwrap();
        let b = t2.register("abr", 1, "gold", 0).unwrap();
        let scopes = t.scopes();
        assert_eq!(scopes.len(), 2);
        assert!(Arc::ptr_eq(&scopes[0], &a));
        assert!(Arc::ptr_eq(&scopes[1], &b));
        assert_eq!(scopes[1].shard(), 1);
    }

    #[test]
    fn flush_accounting_feeds_every_surface() {
        let t = Telemetry::enabled();
        let s = t.register("abr", 0, "gold", 0).unwrap();
        s.on_batch_open();
        s.on_request(1.0, 0.5);
        s.on_request(0.25, 0.0);
        s.record_flush(&FlushStamps {
            open_s: 1.0,
            kernel_start_s: 2.0,
            kernel_end_s: 2.0,
            close_s: 2.0,
            rows: 2,
            epoch: 5,
            width: 3,
        });
        assert_eq!(s.served.get(), 2);
        assert_eq!(s.batches.get(), 1);
        assert_eq!(s.inflight_batches.get(), 0);
        assert_eq!(s.ensemble_width.get(), 3);
        assert_eq!(s.served_per_epoch(), vec![(5, 2)]);
        assert_eq!(s.latency.count(), 2);
        assert_eq!(s.stage_sketch(Stage::QueueWait).count(), 2);
        assert_eq!(s.stage_sketch(Stage::BatchForm).count(), 1);
        assert_eq!(s.spans.len(), 3, "batch_form + kernel + collect spans");
        let events = s.events.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind.name(), "admission");
        assert_eq!(events[1].kind.name(), "flush");
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let run = |latency: f64| {
            let t = Telemetry::enabled();
            let s = t.register("abr", 0, "gold", 0).unwrap();
            s.on_request(latency, 0.0);
            s.on_hot_swap(1.5, 2, 4, 0.0);
            t.digest()
        };
        assert_eq!(run(0.25), run(0.25));
        assert_ne!(run(0.25), run(0.5));
    }
}
