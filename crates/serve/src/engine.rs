//! The request engine: page ingest → micro-batcher → striped
//! compiled-tree execution on the shared worker pool.
//!
//! Requests travel **by the batch**. Each server owns one ingest queue of
//! *pages*: a page holds the row-major features of its requests plus,
//! per row, the request id, its submit stamp and the reply slot of the
//! handle that sent it. [`ServerHandle::submit`] appends to the open page
//! under one mutex and frees the caller's `Vec` on the submitting thread.
//! A page closes when it holds `max_batch` rows, when `max_delay` has
//! passed since its first row, or at a flush or shutdown marker — the
//! classic size-or-deadline micro-batching rule, applied where requests
//! arrive. A closed page **is** the micro-batch: one long-lived **batcher
//! thread**, woken per page rather than per request, takes closed pages
//! in order and for each:
//!
//! 1. pins the live model epoch ([`crate::ModelRegistry::current`]) — a
//!    concurrent hot swap never retroactively changes a dispatched batch,
//! 2. walks the page's rows in place (no gather copy) through the epoch's
//!    [`crate::ServedModel`] — a single lane-vectorized compiled tree or
//!    a block-major [`metis_dt::Forest`] ensemble — into a scratch buffer
//!    reused across batches ([`crate::ServedModel::predict_batch_into`]),
//!    striping row chunks across [`metis_nn::par::parallel_map_indexed`]
//!    under the engine's **dedicated pool group** (so serving shares the
//!    process-wide pool fairly with concurrently running conversion
//!    pipelines),
//! 3. stamps completion once for the whole batch and answers each run of
//!    same-handle rows with **one** `Vec<Response>` through that handle's
//!    reply slot — one message per (handle, batch). Pages are answered in
//!    order and a handle's ids follow page order, so a handle's answers
//!    arrive in id order and [`ServerHandle::collect`] never sorts.
//!    The batch's latencies (queue + batching + service) are recorded
//!    once, into the [`LatencyRecorder`] of the serving model's ensemble
//!    width, so a registry that hot-swaps between tree and forest epochs
//!    reports each shape's percentiles separately
//!    ([`EngineReport::per_width`]) and the lifetime figure is their
//!    merge,
//!
//! and then returns the page to a small free list.
//!
//! Results are merged by row index, so every response is bit-identical to
//! the sequential oracle on the reported epoch's source trees (single
//! `DecisionTree::predict`, or the forest's majority vote) for any batch
//! size, deadline, thread count, or swap interleaving.
//!
//! **Time** comes from a [`Clock`]: [`TreeServer::start`] runs on the
//! real clock (wall-time stamps and the deadline close), while
//! [`TreeServer::start_clocked`] with a virtual clock turns the engine
//! into a discrete-event component — no wall deadline at all (pages close
//! on size, an explicit [`ServerHandle`] flush, or shutdown), and
//! per-request latency is the batch's virtual close time minus the
//! request's virtual submit stamp, a pure function of the event schedule.
//! That is what lets `metis_sim` run millions of virtual sessions through
//! this exact hot path with bit-identical reports for any thread count.

use crate::clock::Clock;
use crate::latency::{LatencyRecorder, LatencySummary};
use crate::registry::ModelRegistry;
use metis_dt::Prediction;
use metis_telemetry::{FlushStamps, ShardTelemetry};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Emptied pages a server keeps for reuse. A steady stream cycles through
/// two or three; a burst that queued more frees the surplus.
const FREE_PAGES: usize = 4;

/// Micro-batching and execution knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Close a page (a micro-batch) as soon as it holds this many
    /// requests.
    pub max_batch: usize,
    /// Close an incomplete page this long after its first request.
    pub max_delay: Duration,
    /// Worker threads a flush stripes across (0 = all cores). Results are
    /// identical for any value.
    pub threads: usize,
    /// Rows per pool stripe chunk; batches at or below this size execute
    /// inline on the batcher thread.
    pub stripe_rows: usize,
    /// Pool scheduling group this server's flushes submit under. `None`
    /// (the default) reserves a fresh group per batcher, making the
    /// server its own fairness tenant; the fabric's shards pass explicit
    /// groups so related batchers can share or split tenancy as the
    /// tenant map dictates. Never affects results.
    pub group: Option<u64>,
    /// Deadline class of this server's pool submissions (lower = more
    /// urgent; see [`metis_nn::par::with_deadline_class`]). The fabric
    /// maps per-tenant SLO tiers onto this. Never affects results.
    pub deadline_class: u8,
    /// Live telemetry scope this engine reports into (`None`, the
    /// default, disables instrumentation — the hot path then pays one
    /// `Option` test per site and reads no clocks for telemetry).
    /// Under a virtual clock every stamp the engine feeds the scope is
    /// derived from submit stamps, never from a live clock read, so the
    /// scope's digest is bit-identical across thread counts.
    pub telemetry: Option<Arc<ShardTelemetry>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 256,
            max_delay: Duration::from_micros(500),
            threads: 0,
            stripe_rows: 64,
            group: None,
            deadline_class: 0,
            telemetry: None,
        }
    }
}

/// The engine's answer to one submitted request.
#[derive(Debug, Clone)]
pub struct Response {
    /// Id the submitting [`ServerHandle`] assigned.
    pub id: u64,
    /// Bit-identical to `DecisionTree::predict` on the epoch's source tree.
    pub prediction: Prediction,
    /// Model epoch that served this request.
    pub epoch: u64,
    /// Queue wait + batching delay + service time, in seconds.
    pub latency_s: f64,
    /// Size of the micro-batch this request was flushed in.
    pub batch_size: usize,
}

/// One micro-batch: the row-major features of its requests and, per row,
/// the request id, submit stamp (a [`Clock`] reading, so wall stamps
/// under the real clock and event stamps under a virtual one) and the
/// reply slot of the submitting handle.
#[derive(Default)]
struct Page {
    rows: Vec<f64>,
    ids: Vec<u64>,
    stamps: Vec<f64>,
    slots: Vec<SlotKey>,
}

impl Page {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn push(&mut self, features: &[f64], id: u64, stamp: f64, slot: SlotKey) {
        self.rows.extend_from_slice(features);
        self.ids.push(id);
        self.stamps.push(stamp);
        self.slots.push(slot);
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.ids.clear();
        self.stamps.clear();
        self.slots.clear();
    }
}

/// A handle's reply slot: its index in [`ReplySlots`] plus the generation
/// it was issued under, so a slot freed by a dropped handle and reissued
/// to a new one never receives the old handle's answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotKey {
    index: u32,
    generation: u32,
}

/// Every live handle's reply sender. The batcher is the only sender: a
/// handle keeps just the receiving end, so once the batcher drops the
/// senders a waiting `collect` wakes instead of blocking forever.
#[derive(Default)]
struct ReplySlots {
    /// `(generation, sender)` per slot; `None` once the handle dropped or
    /// the batcher exited.
    slots: Vec<(u32, Option<Sender<Vec<Response>>>)>,
    free: Vec<u32>,
}

impl ReplySlots {
    fn open(&mut self, tx: Sender<Vec<Response>>) -> SlotKey {
        let index = self.free.pop().unwrap_or_else(|| {
            self.slots.push((0, None));
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 live handles")
        });
        let slot = &mut self.slots[index as usize];
        slot.1 = Some(tx);
        SlotKey {
            index,
            generation: slot.0,
        }
    }

    /// Free a dropped handle's slot. Rows it left in flight now miss the
    /// generation check and count as delivery failures.
    fn close(&mut self, key: SlotKey) {
        let slot = &mut self.slots[key.index as usize];
        slot.0 = slot.0.wrapping_add(1);
        slot.1 = None;
        self.free.push(key.index);
    }

    fn sender(&self, key: SlotKey) -> Option<&Sender<Vec<Response>>> {
        match &self.slots[key.index as usize] {
            (generation, Some(tx)) if *generation == key.generation => Some(tx),
            _ => None,
        }
    }
}

#[derive(Default)]
struct PageQueue {
    /// The page submits append to; `None` until the next submit opens one.
    open: Option<Page>,
    /// Closed pages in close order: the batcher's work list.
    closed: VecDeque<Page>,
    free: Vec<Page>,
    /// Rows in `open` and `closed`.
    queued: usize,
    /// The batcher waits on the condvar. Submitters signal it only then:
    /// a busy batcher finds closed pages when it comes back.
    asleep: bool,
    /// `Some` once a shutdown marker arrived: the open page closes at
    /// once and the batcher exits when nothing is queued. Counts the
    /// closed pages still ahead of the first marker; whatever is queued
    /// once the batcher has taken them arrived behind it (the drain).
    shutdown: Option<usize>,
    /// The drain behind the shutdown marker has been reported.
    drain_seen: bool,
    /// The batcher has exited: submits panic in their client.
    dead: bool,
}

impl PageQueue {
    /// Move the open page, if any, onto the work list.
    fn close_open(&mut self) -> bool {
        let page = self.open.take();
        let closed = page.is_some();
        self.closed.extend(page);
        closed
    }

    /// Latest submit stamp among the queued rows.
    fn latest_stamp(&self) -> f64 {
        self.closed
            .iter()
            .chain(&self.open)
            .flat_map(|page| page.stamps.iter().copied())
            .fold(0.0, f64::max)
    }
}

/// The shared ingest of one server: its page queue, the condvar the
/// batcher sleeps on, and the handles' reply slots.
struct Ingest {
    queue: Mutex<PageQueue>,
    wake: Condvar,
    replies: RwLock<ReplySlots>,
    max_batch: usize,
    /// `max_delay` in seconds under the real clock; `None` under a
    /// virtual one, where pages close only on size or a marker.
    max_delay_s: Option<f64>,
}

impl Ingest {
    fn new(cfg: &ServeConfig, clock: &Clock) -> Self {
        Ingest {
            queue: Mutex::default(),
            wake: Condvar::new(),
            replies: RwLock::default(),
            max_batch: cfg.max_batch,
            max_delay_s: (!clock.is_virtual()).then_some(cfg.max_delay.as_secs_f64()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PageQueue> {
        self.queue
            .lock()
            .expect("serve ingest poisoned: a thread panicked mid-update")
    }

    /// Append one request to the open page, opening one if needed.
    fn push(&self, features: &[f64], id: u64, stamp: f64, slot: SlotKey) {
        let mut guard = self.lock();
        let q = &mut *guard;
        if q.dead {
            drop(guard);
            panic!("TreeServer ingest queue closed while submitting");
        }
        let opened = q.open.is_none();
        let page = q
            .open
            .get_or_insert_with(|| q.free.pop().unwrap_or_default());
        page.push(features, id, stamp, slot);
        q.queued += 1;
        let wake = if page.len() >= self.max_batch {
            q.close_open();
            q.asleep
        } else {
            // A sleeping real-clock batcher must arm the new page's deadline.
            opened && self.max_delay_s.is_some() && q.asleep
        };
        drop(guard);
        if wake {
            self.wake.notify_one();
        }
    }

    /// A flush marker closes the open page now — a no-op when none is
    /// open. A shutdown marker does the same, then lets the batcher exit
    /// once every row queued before or after it is answered.
    fn mark(&self, shutdown: bool) {
        // Only a panic under the lock poisons it, and no critical section
        // panics; a poisoned queue has no batcher left to signal.
        let Ok(mut q) = self.queue.lock() else {
            return;
        };
        let closed = q.close_open();
        if shutdown && q.shutdown.is_none() {
            q.shutdown = Some(q.closed.len());
        }
        let wake = (closed || shutdown) && q.asleep;
        drop(q);
        if wake {
            self.wake.notify_one();
        }
    }

    /// Return the batcher's finished page to the free list and block until
    /// the next page closes. `None` once a shutdown marker has arrived and
    /// nothing is queued. Sets the telemetry queue-depth gauge once per
    /// page, and records the drain when the batcher reaches the first
    /// shutdown marker.
    fn next_page(
        &self,
        done: Option<Page>,
        clock: &Clock,
        scope: Option<&ShardTelemetry>,
    ) -> Option<Page> {
        let mut q = self.lock();
        let mut surplus = done;
        if q.free.len() < FREE_PAGES {
            q.free.extend(surplus.take());
        }
        let next = self.await_page(q, clock, scope);
        // A page the free list had no room for is freed outside the lock.
        drop(surplus);
        next
    }

    fn await_page(
        &self,
        mut q: MutexGuard<'_, PageQueue>,
        clock: &Clock,
        scope: Option<&ShardTelemetry>,
    ) -> Option<Page> {
        loop {
            if q.shutdown == Some(0) && !q.drain_seen {
                // Every page ahead of the marker is taken: what is still
                // queued arrived behind it. Counting from the marker, not
                // from whenever the batcher notices it, keeps the event a
                // function of the schedule under a virtual clock.
                q.drain_seen = true;
                if let Some(scope) = scope.filter(|_| q.queued > 0) {
                    // Virtual stamp: the latest queued submit stamp
                    // (schedule-pure); real stamp: the wall drain time.
                    let stamp_s = if clock.is_virtual() {
                        q.latest_stamp()
                    } else {
                        clock.now_s()
                    };
                    scope.on_drain(stamp_s, q.queued);
                }
            }
            if let Some(page) = q.closed.pop_front() {
                q.queued -= page.len();
                if let Some(ahead) = q.shutdown.as_mut() {
                    *ahead = ahead.saturating_sub(1);
                }
                if let Some(scope) = scope {
                    scope.queue_depth.set(q.queued as i64);
                }
                return Some(page);
            }
            // Real clock: how much longer the open page may wait.
            let wait_s = match (&q.open, self.max_delay_s) {
                (Some(page), Some(delay_s)) => Some(page.stamps[0] + delay_s - clock.now_s()),
                _ => None,
            };
            if q.open.is_some() && (q.shutdown.is_some() || wait_s.is_some_and(|w| w <= 0.0)) {
                q.close_open();
                continue;
            }
            if q.shutdown.is_some() {
                return None;
            }
            q.asleep = true;
            q = match wait_s {
                Some(wait_s) => {
                    let wait = Duration::try_from_secs_f64(wait_s).unwrap_or(Duration::MAX);
                    self.wake
                        .wait_timeout(q, wait)
                        .expect("serve ingest poisoned: a thread panicked mid-update")
                        .0
                }
                None => self
                    .wake
                    .wait(q)
                    .expect("serve ingest poisoned: a thread panicked mid-update"),
            };
            q.asleep = false;
        }
    }
}

/// Runs when the batcher exits, normally or by unwinding: marks the
/// ingest dead (a later submit panics in its client) and drops every
/// reply sender, so a handle waiting in `collect` receives what was
/// answered and then panics instead of blocking forever.
struct BatcherExit<'a>(&'a Ingest);

impl Drop for BatcherExit<'_> {
    fn drop(&mut self) {
        let ingest = self.0;
        ingest
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .dead = true;
        let mut replies = ingest
            .replies
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        for (_, tx) in &mut replies.slots {
            *tx = None;
        }
    }
}

/// What the batcher thread accumulated over its lifetime.
#[derive(Default)]
struct EngineLog {
    served: u64,
    batches: u64,
    delivery_failures: u64,
    max_batch_seen: usize,
    per_epoch: BTreeMap<u64, u64>,
    /// Latency by the serving model's ensemble width (1 = single tree,
    /// k = k-tree forest) — the engine's only latency accountant.
    per_width: BTreeMap<usize, LatencyRecorder>,
}

/// Buffers a batcher reuses across batches, so the steady-state flush
/// path allocates nothing but the replies.
#[derive(Default)]
struct FlushScratch {
    predictions: Vec<Prediction>,
    /// Per-request latency / queue-wait of the batch in flight, staged
    /// here so the recorder and telemetry each take them in one amortized
    /// pass before any response is delivered.
    latencies: Vec<f64>,
    queue_waits: Vec<f64>,
}

/// Lifetime summary of one [`TreeServer`], returned by
/// [`TreeServer::shutdown`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EngineReport {
    /// Requests answered (predictions computed and sent).
    pub served: u64,
    /// Micro-batches flushed.
    pub batches: u64,
    /// Responses whose submitter had already dropped its handle.
    pub delivery_failures: u64,
    /// Largest micro-batch flushed.
    pub max_batch_seen: usize,
    /// Mean flushed batch size.
    pub mean_batch: f64,
    /// Percentile summary over every served request's latency
    /// (`recorder`'s summary: count, mean and max exact, percentiles
    /// within the sketch's `γ`).
    pub latency: LatencySummary,
    /// The latency accountant behind [`EngineReport::latency`], a few KB
    /// however many requests were served. The fabric merges these
    /// bucket-wise across shards into its per-scenario and per-tenant
    /// summaries ([`LatencyRecorder::merge`]).
    pub recorder: LatencyRecorder,
    /// `(epoch, requests served from it)`, ascending by epoch.
    pub per_epoch: Vec<(u64, u64)>,
    /// `(ensemble width, latency summary of requests served at that
    /// width)`, ascending by width — separates single-tree epochs from
    /// k-tree forest epochs when a registry hot-swaps between shapes.
    pub per_width: Vec<(usize, LatencySummary)>,
}

/// A per-client submission handle with its own reply slot. Submit
/// open-loop with [`ServerHandle::submit`]; gather everything outstanding
/// with [`ServerHandle::collect`]. Handles are independent — one per
/// client thread. Dropping a handle frees its reply slot; answers still
/// in flight for it count as [`EngineReport::delivery_failures`].
pub struct ServerHandle {
    ingest: Arc<Ingest>,
    slot: SlotKey,
    replies: Receiver<Vec<Response>>,
    next_id: u64,
    outstanding: usize,
    n_features: usize,
    clock: Arc<Clock>,
}

impl ServerHandle {
    fn new(ingest: &Arc<Ingest>, n_features: usize, clock: &Arc<Clock>) -> Self {
        let (tx, replies) = channel();
        let slot = ingest
            .replies
            .write()
            .expect("serve reply slots poisoned: a thread panicked mid-update")
            .open(tx);
        ServerHandle {
            ingest: Arc::clone(ingest),
            slot,
            replies,
            next_id: 0,
            outstanding: 0,
            n_features,
            clock: Arc::clone(clock),
        }
    }

    /// Feature width every request must carry (invariant across hot
    /// swaps — the registry rejects trees with a different schema).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The clock this handle stamps submissions with — the server's own.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// Enqueue one request and return its (per-handle) id. Never blocks on
    /// the server beyond the ingest mutex: the features are copied into
    /// the open page and `features` is freed here. A malformed request
    /// panics **here**, in the submitting client's thread — the shared
    /// batcher never sees it, so one bad client cannot take the engine
    /// down for its neighbours.
    pub fn submit(&mut self, features: Vec<f64>) -> u64 {
        assert_eq!(
            features.len(),
            self.n_features,
            "submit: request has {} features, the server's models take {}",
            features.len(),
            self.n_features
        );
        let id = self.next_id;
        self.ingest
            .push(&features, id, self.clock.now_s(), self.slot);
        self.next_id += 1;
        self.outstanding += 1;
        id
    }

    /// Requests submitted through this handle that have not been collected.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Block until every outstanding request is answered; returns the
    /// responses in id order (deterministic regardless of batching: pages
    /// are answered in order and ids follow page order).
    ///
    /// On a virtual-clock server there is no deadline close, so a partial
    /// page would otherwise wait forever: collecting first places an
    /// explicit flush marker (a no-op when no page is open). The real
    /// clock path is untouched — the deadline does the closing there.
    /// Panics if the server's batcher has exited with requests of this
    /// handle unanswered.
    pub fn collect(&mut self) -> Vec<Response> {
        if self.outstanding == 0 {
            return Vec::new();
        }
        if self.clock.is_virtual() {
            self.ingest.mark(false);
        }
        let mut out: Vec<Response> = Vec::new();
        while out.len() < self.outstanding {
            let batch = self
                .replies
                .recv()
                .expect("TreeServer dropped with requests in flight");
            if out.is_empty() {
                out = batch;
            } else {
                out.extend(batch);
            }
        }
        debug_assert!(out.windows(2).all(|w| w[0].id < w[1].id));
        self.outstanding = 0;
        out
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.ingest
            .replies
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .close(self.slot);
    }
}

/// The serving engine: spawn with [`TreeServer::start`], mint client
/// handles with [`TreeServer::handle`], stop with [`TreeServer::shutdown`].
pub struct TreeServer {
    ingest: Arc<Ingest>,
    thread: Option<JoinHandle<EngineLog>>,
    registry: Arc<ModelRegistry>,
    clock: Arc<Clock>,
}

impl TreeServer {
    /// Start the batcher thread over a model registry, on the real clock.
    pub fn start(registry: Arc<ModelRegistry>, cfg: ServeConfig) -> Self {
        TreeServer::start_clocked(registry, cfg, Clock::real())
    }

    /// [`TreeServer::start`] on an explicit [`Clock`]. A virtual clock
    /// switches batching from size-or-deadline to size-or-explicit-flush
    /// (see [`ServerHandle::collect`]) and makes every latency figure a
    /// deterministic virtual-time span.
    pub fn start_clocked(
        registry: Arc<ModelRegistry>,
        cfg: ServeConfig,
        clock: Arc<Clock>,
    ) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(cfg.stripe_rows >= 1, "stripe_rows must be at least 1");
        let ingest = Arc::new(Ingest::new(&cfg, &clock));
        let batcher_ingest = Arc::clone(&ingest);
        let reg = Arc::clone(&registry);
        let batcher_clock = Arc::clone(&clock);
        let thread = std::thread::Builder::new()
            .name("metis-serve-batcher".into())
            .spawn(move || batcher_loop(batcher_ingest, reg, cfg, batcher_clock))
            .expect("spawn serve batcher");
        TreeServer {
            ingest,
            thread: Some(thread),
            registry,
            clock,
        }
    }

    /// The registry this server reads — publish to it to hot-swap.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The clock this server stamps and flushes on.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// Mint an independent client handle.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle::new(&self.ingest, self.registry.n_features(), &self.clock)
    }

    /// Stop the engine: already-queued requests are drained and answered
    /// (zero drops for clients that finished submitting), then the batcher
    /// exits and its lifetime report is returned.
    pub fn shutdown(mut self) -> EngineReport {
        self.ingest.mark(true);
        let log = self
            .thread
            .take()
            .expect("shutdown called once")
            .join()
            .expect("serve batcher panicked");
        let batches = log.batches.max(1);
        let mut recorder = LatencyRecorder::new();
        for width in log.per_width.values() {
            recorder.merge(width);
        }
        EngineReport {
            served: log.served,
            batches: log.batches,
            delivery_failures: log.delivery_failures,
            max_batch_seen: log.max_batch_seen,
            mean_batch: log.served as f64 / batches as f64,
            latency: recorder.summary(),
            recorder,
            per_epoch: log.per_epoch.into_iter().collect(),
            per_width: log
                .per_width
                .iter()
                .map(|(&w, rec)| (w, rec.summary()))
                .collect(),
        }
    }
}

impl Drop for TreeServer {
    /// A server dropped without [`TreeServer::shutdown`] still drains its
    /// queue and stops its batcher; the report is discarded.
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.ingest.mark(true);
            let _ = thread.join();
        }
    }
}

fn batcher_loop(
    ingest: Arc<Ingest>,
    registry: Arc<ModelRegistry>,
    cfg: ServeConfig,
    clock: Arc<Clock>,
) -> EngineLog {
    let _exit = BatcherExit(&ingest);
    // Pool submissions carry this server's group (its own fresh one by
    // default), so the pool's scheduler treats the serving path as one
    // tenant — or as part of a shared tenant when the config says so.
    let group = cfg.group.unwrap_or_else(metis_nn::par::fresh_group);
    let scope = cfg.telemetry.clone();
    let scope = scope.as_deref();
    let mut log = EngineLog::default();
    let mut scratch = FlushScratch::default();
    let mut done = None;
    while let Some(mut page) = ingest.next_page(done.take(), &clock, scope) {
        if let Some(scope) = scope {
            scope.on_batch_open();
        }
        flush(
            &mut log,
            &mut scratch,
            &ingest,
            &registry,
            &cfg,
            group,
            &clock,
            &page,
        );
        page.clear();
        done = Some(page);
    }
    log
}

#[allow(clippy::too_many_arguments)]
fn flush(
    log: &mut EngineLog,
    scratch: &mut FlushScratch,
    ingest: &Ingest,
    registry: &ModelRegistry,
    cfg: &ServeConfig,
    group: u64,
    clock: &Clock,
    page: &Page,
) {
    // Virtual-clock latency must not read the clock here: concurrent
    // drivers may have pushed the high-water mark past this batch's
    // events, and a racy read would leak host scheduling into the
    // report. The batch closes at its **latest submit stamp** — a pure
    // function of the event schedule — so latency_i = close - stamp_i,
    // the virtual batching delay. The real clock stamps completion with
    // one wall read after the kernel.
    let virtual_close_s = clock
        .is_virtual()
        .then(|| page.stamps.iter().copied().fold(0.0, f64::max));
    // Telemetry stamps follow the same discipline: the batch opens at its
    // earliest submit stamp (under the real clock that is when the page
    // opened, so the batch-form span covers the page filling) and under a
    // virtual clock the kernel/close stamps collapse onto the batch close
    // — all pure functions of the schedule, so the span stream digests
    // identically for any thread count. Under a real clock they are wall
    // reads around the work.
    let scope = cfg.telemetry.as_deref();
    let open_s = scope.map(|_| page.stamps.iter().copied().fold(f64::INFINITY, f64::min));
    // Pin the epoch for the whole batch: in-flight work finishes on the
    // model it started with even if a publish lands mid-execution.
    let epoch_model = registry.current();
    let model = &epoch_model.model;
    let n_features = model.n_features();
    let n = page.len();
    // Unreachable for well-typed use: submit() validates width and
    // publish() keeps it invariant across epochs.
    debug_assert_eq!(page.rows.len(), n * n_features);
    let chunks = n.div_ceil(cfg.stripe_rows);
    let kernel_start_s = scope.map(|_| virtual_close_s.unwrap_or_else(|| clock.now_s()));
    scratch.predictions.clear();
    if chunks <= 1 {
        // The steady-state micro-batch path: evaluate the page in place
        // into the reused scratch buffer.
        scratch.predictions.resize(n, Prediction::Class(0));
        model.predict_batch_into(&page.rows, &mut scratch.predictions);
    } else {
        // Contiguous row chunks across the pool, merged in chunk order —
        // identical to the single-chunk walk for any thread count. The
        // deadline class steers which tenant's chunks the pool's helpers
        // pick up first under contention; it never touches results.
        let rows = &page.rows;
        let chunked = metis_nn::par::with_deadline_class(cfg.deadline_class, || {
            metis_nn::par::with_group(group, || {
                metis_nn::par::parallel_map_indexed(chunks, cfg.threads, |c| {
                    let lo = c * cfg.stripe_rows;
                    let hi = ((c + 1) * cfg.stripe_rows).min(n);
                    model.predict_batch(&rows[lo * n_features..hi * n_features])
                })
            })
        });
        for chunk in chunked {
            scratch.predictions.extend_from_slice(&chunk);
        }
    }
    // One completion stamp for the whole batch.
    let completed_s = virtual_close_s.unwrap_or_else(|| clock.now_s());
    log.batches += 1;
    log.served += n as u64;
    log.max_batch_seen = log.max_batch_seen.max(n);
    *log.per_epoch.entry(epoch_model.epoch).or_insert(0) += n as u64;
    // Accounting pass: stage every request's latency (and, with
    // telemetry on, queue-wait), record the batch once, and only then
    // deliver anything.
    scratch.latencies.clear();
    scratch.queue_waits.clear();
    for &submitted_s in &page.stamps {
        scratch
            .latencies
            .push(LatencyRecorder::span_s(submitted_s, completed_s));
        if let Some(kernel_start_s) = kernel_start_s {
            // Queue-wait = submit → kernel start: everything before the
            // model ran (page fill + wait for the batcher).
            scratch
                .queue_waits
                .push((kernel_start_s - submitted_s).max(0.0));
        }
    }
    log.per_width
        .entry(model.n_trees())
        .or_default()
        .record_all(&scratch.latencies);
    // Record ALL the batch's telemetry (spans, flush event, served
    // counters, request sketches) BEFORE delivering any response: a
    // driver that has drained a wave must observe a quiescent scope,
    // otherwise the digest races the tail of the flush and drifts
    // across thread counts.
    if let Some(scope) = scope {
        let close_s = virtual_close_s.unwrap_or_else(|| clock.now_s());
        scope.record_flush(&FlushStamps {
            open_s: open_s.unwrap_or(close_s),
            kernel_start_s: kernel_start_s.unwrap_or(close_s),
            kernel_end_s: completed_s,
            close_s,
            rows: n,
            epoch: epoch_model.epoch,
            width: model.n_trees(),
        });
        scope.on_requests(close_s, &scratch.latencies, &scratch.queue_waits);
    }
    // One reply per run of same-handle rows.
    let replies = ingest
        .replies
        .read()
        .expect("serve reply slots poisoned: a thread panicked mid-update");
    let mut start = 0;
    for run in page.slots.chunk_by(|a, b| a == b) {
        let rows = start..start + run.len();
        start = rows.end;
        let answers: Vec<Response> = rows
            .clone()
            .map(|r| Response {
                id: page.ids[r],
                prediction: scratch.predictions[r],
                epoch: epoch_model.epoch,
                latency_s: scratch.latencies[r],
                batch_size: n,
            })
            .collect();
        let delivered = replies
            .sender(run[0])
            .is_some_and(|tx| tx.send(answers).is_ok());
        if !delivered {
            log.delivery_failures += rows.len() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_dt::{fit, Dataset, DecisionTree, TreeConfig};

    fn staircase_tree(n_classes: usize) -> DecisionTree {
        let x: Vec<Vec<f64>> = (0..120)
            .map(|i| vec![i as f64 / 120.0, (i % 7) as f64])
            .collect();
        let y: Vec<usize> = (0..120).map(|i| i * n_classes / 120).collect();
        let ds = Dataset::classification(x, y, n_classes).unwrap();
        fit(
            &ds,
            &TreeConfig {
                max_leaf_nodes: 16,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn req_features(k: u64) -> Vec<f64> {
        vec![(k % 120) as f64 / 120.0, (k % 7) as f64]
    }

    #[test]
    fn responses_match_sequential_oracle_and_ids() {
        let tree = staircase_tree(6);
        let server = TreeServer::start(
            Arc::new(ModelRegistry::new(tree.clone())),
            ServeConfig {
                max_batch: 8,
                max_delay: Duration::from_millis(2),
                ..Default::default()
            },
        );
        let mut handle = server.handle();
        for k in 0..50u64 {
            handle.submit(req_features(k));
        }
        let responses = handle.collect();
        assert_eq!(responses.len(), 50);
        for (k, resp) in responses.iter().enumerate() {
            assert_eq!(resp.id, k as u64, "collect returns id order");
            assert_eq!(resp.epoch, 0);
            assert_eq!(resp.prediction, tree.predict(&req_features(k as u64)));
            assert!(resp.latency_s >= 0.0 && resp.batch_size >= 1 && resp.batch_size <= 8);
        }
        let report = server.shutdown();
        assert_eq!(report.served, 50);
        assert_eq!(report.delivery_failures, 0);
        assert!(report.max_batch_seen <= 8);
        assert_eq!(report.per_epoch, vec![(0, 50)]);
        assert_eq!(report.latency.count, 50);
    }

    #[test]
    fn batch_one_flushes_immediately_and_deadline_flushes_partials() {
        let tree = staircase_tree(3);
        let server = TreeServer::start(
            Arc::new(ModelRegistry::new(tree)),
            ServeConfig {
                max_batch: 1,
                max_delay: Duration::from_secs(10), // never the trigger
                ..Default::default()
            },
        );
        let mut handle = server.handle();
        for k in 0..5 {
            handle.submit(req_features(k));
        }
        let responses = handle.collect();
        assert!(responses.iter().all(|r| r.batch_size == 1));
        let report = server.shutdown();
        assert_eq!(report.batches, 5);
        assert!((report.mean_batch - 1.0).abs() < 1e-12);
    }

    /// On a virtual clock the deadline never fires (max_delay 10s would
    /// hang the collect if it were consulted): the open batch closes on
    /// the collect's explicit flush, and every latency is exactly the
    /// batch's latest virtual stamp minus the request's own — a pure
    /// function of the advance_to schedule.
    #[test]
    fn virtual_clock_server_flushes_on_collect_with_schedule_pure_latency() {
        let tree = staircase_tree(4);
        let clock = Clock::virtual_at(0.0);
        let server = TreeServer::start_clocked(
            Arc::new(ModelRegistry::new(tree.clone())),
            ServeConfig {
                max_batch: 64,
                max_delay: Duration::from_secs(10), // must never be the trigger
                ..Default::default()
            },
            Arc::clone(&clock),
        );
        let mut handle = server.handle();
        for k in 0..5u64 {
            handle.submit(req_features(k)); // stamped 0.0
        }
        clock.advance_to(2.5);
        for k in 5..9u64 {
            handle.submit(req_features(k)); // stamped 2.5
        }
        let responses = handle.collect();
        assert_eq!(responses.len(), 9);
        for resp in &responses {
            assert_eq!(resp.prediction, tree.predict(&req_features(resp.id)));
            assert_eq!(resp.batch_size, 9, "one explicit flush closes everything");
            let expect = if resp.id < 5 { 2.5 } else { 0.0 };
            assert_eq!(resp.latency_s, expect, "close(2.5) - own stamp, exactly");
        }
        let report = server.shutdown();
        assert_eq!(report.batches, 1);
        assert_eq!(report.served, 9);
        assert_eq!(report.latency.max_s, 2.5);
    }

    /// Virtual-clock telemetry stamps are pure functions of the submit
    /// schedule: batch-form spans min→max submit stamp, kernel/collect
    /// collapse onto the close, and the admission event carries the
    /// batch's deterministic composition.
    #[test]
    fn virtual_clock_telemetry_is_schedule_pure() {
        use metis_telemetry::{Stage, Telemetry};
        let tree = staircase_tree(4);
        let clock = Clock::virtual_at(0.0);
        let telemetry = Telemetry::enabled();
        let scope = telemetry.register("abr", 0, "gold").unwrap();
        let server = TreeServer::start_clocked(
            Arc::new(ModelRegistry::new(tree)),
            ServeConfig {
                max_batch: 64,
                max_delay: Duration::from_secs(10),
                telemetry: Some(Arc::clone(&scope)),
                ..Default::default()
            },
            Arc::clone(&clock),
        );
        let mut handle = server.handle();
        for k in 0..5u64 {
            handle.submit(req_features(k)); // stamped 0.0
        }
        clock.advance_to(2.5);
        for k in 5..9u64 {
            handle.submit(req_features(k)); // stamped 2.5
        }
        handle.collect();
        server.shutdown();
        assert_eq!(scope.served.get(), 9);
        assert_eq!(scope.batches.get(), 1);
        assert_eq!(scope.queue_depth.get(), 0, "submits all consumed");
        assert_eq!(scope.inflight_batches.get(), 0);
        assert_eq!(scope.served_per_epoch(), vec![(0, 9)]);
        let spans = scope.spans.records();
        assert_eq!(spans.len(), 3, "batch_form + kernel + collect");
        assert_eq!(spans[0].stage, Stage::BatchForm);
        assert_eq!(spans[0].start_s, 0.0, "opens at the earliest submit stamp");
        assert_eq!(spans[0].dur_s, 2.5, "forms until the latest submit stamp");
        for span in &spans[1..] {
            assert_eq!(span.start_s, 2.5, "kernel/collect collapse onto the close");
            assert_eq!(span.dur_s, 0.0);
            assert_eq!(span.rows, 9);
        }
        let events = scope.events.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind.name(), "admission");
        assert_eq!(events[0].time_s, 0.0);
        assert_eq!(events[1].kind.name(), "flush");
        assert_eq!(events[1].time_s, 2.5);
        assert_eq!(scope.latency.cumulative().count(), 9);
        assert_eq!(scope.stage_sketch(Stage::QueueWait).count(), 9);
    }

    #[test]
    fn shutdown_drains_queued_requests_zero_drops() {
        let tree = staircase_tree(4);
        let server = TreeServer::start(
            Arc::new(ModelRegistry::new(tree)),
            ServeConfig {
                max_batch: 64,
                max_delay: Duration::from_secs(10),
                ..Default::default()
            },
        );
        let mut handle = server.handle();
        for k in 0..200 {
            handle.submit(req_features(k));
        }
        // Shut down while most requests are still queued: all must answer.
        let report = std::thread::scope(|scope| {
            let collector = scope.spawn(move || {
                let responses = handle.collect();
                assert_eq!(responses.len(), 200);
            });
            let report = server.shutdown();
            collector.join().unwrap();
            report
        });
        assert_eq!(report.served, 200);
        assert_eq!(report.delivery_failures, 0);
    }

    #[test]
    fn hot_swap_mid_stream_serves_each_epoch_consistently() {
        let t0 = staircase_tree(5);
        let t1 = staircase_tree(2);
        let registry = Arc::new(ModelRegistry::new(t0.clone()));
        let server = TreeServer::start(
            Arc::clone(&registry),
            ServeConfig {
                max_batch: 4,
                max_delay: Duration::from_micros(200),
                ..Default::default()
            },
        );
        let mut handle = server.handle();
        for k in 0..30 {
            handle.submit(req_features(k));
        }
        registry.publish(t1.clone());
        for k in 30..60 {
            handle.submit(req_features(k));
        }
        let responses = handle.collect();
        assert_eq!(responses.len(), 60);
        let sources = [t0, t1];
        let mut late_epoch_seen = false;
        for resp in &responses {
            let oracle = &sources[resp.epoch as usize];
            assert_eq!(
                resp.prediction,
                oracle.predict(&req_features(resp.id)),
                "epoch {} answer diverges from its own tree",
                resp.epoch
            );
            late_epoch_seen |= resp.epoch == 1;
        }
        // Requests submitted after the publish must see the new epoch
        // (the swap completed before they were enqueued).
        assert!(late_epoch_seen, "post-swap requests never saw epoch 1");
        assert!(responses[59].epoch == 1);
        let report = server.shutdown();
        assert_eq!(report.served, 60);
        assert_eq!(report.per_epoch.iter().map(|(_, c)| c).sum::<u64>(), 60);
    }

    /// An ensemble epoch served through the engine answers exactly like
    /// the offline `Forest` oracle, and a mid-stream swap from tree to
    /// forest buckets latency under both ensemble widths.
    #[test]
    fn forest_epochs_serve_majority_votes_and_bucket_latency_by_width() {
        let t0 = staircase_tree(5);
        // Same kind (5 classes), different shapes: vary the leaf budget.
        let members: Vec<DecisionTree> = [16usize, 8, 5]
            .iter()
            .map(|&leaves| {
                let x: Vec<Vec<f64>> = (0..120)
                    .map(|i| vec![i as f64 / 120.0, (i % 7) as f64])
                    .collect();
                let y: Vec<usize> = (0..120).map(|i| i * 5 / 120).collect();
                fit(
                    &Dataset::classification(x, y, 5).unwrap(),
                    &TreeConfig {
                        max_leaf_nodes: leaves,
                        ..Default::default()
                    },
                )
                .unwrap()
            })
            .collect();
        let ensemble = crate::ServedModel::from_trees(members.clone()).unwrap();
        let forest = metis_dt::Forest::from_trees(&members).unwrap();
        let registry = Arc::new(ModelRegistry::new(t0.clone()));
        let server = TreeServer::start(
            Arc::clone(&registry),
            ServeConfig {
                max_batch: 8,
                max_delay: Duration::from_micros(200),
                ..Default::default()
            },
        );
        let mut handle = server.handle();
        for k in 0..25 {
            handle.submit(req_features(k));
        }
        registry.publish_model(ensemble);
        for k in 25..60 {
            handle.submit(req_features(k));
        }
        let responses = handle.collect();
        assert_eq!(responses.len(), 60);
        let mut forest_served = false;
        for resp in &responses {
            match resp.epoch {
                0 => assert_eq!(resp.prediction, t0.predict(&req_features(resp.id))),
                1 => {
                    assert_eq!(
                        resp.prediction,
                        forest.predict(&req_features(resp.id)),
                        "forest epoch answer diverges from the offline oracle"
                    );
                    forest_served = true;
                }
                e => panic!("unexpected epoch {e}"),
            }
        }
        assert!(forest_served, "post-swap requests never saw the ensemble");
        let report = server.shutdown();
        assert_eq!(report.served, 60);
        let widths: Vec<usize> = report.per_width.iter().map(|(w, _)| *w).collect();
        assert!(widths.contains(&3), "3-tree bucket missing: {widths:?}");
        assert_eq!(
            report
                .per_width
                .iter()
                .map(|(_, s)| s.count as u64)
                .sum::<u64>(),
            60,
            "width buckets must partition the served requests"
        );
    }

    #[test]
    #[should_panic(expected = "features")]
    fn malformed_submit_panics_in_the_client_not_the_batcher() {
        let tree = staircase_tree(3);
        let server = TreeServer::start(Arc::new(ModelRegistry::new(tree)), ServeConfig::default());
        let mut handle = server.handle();
        assert_eq!(handle.n_features(), 2);
        let _ = handle.submit(vec![0.5]); // wrong width: dies here
    }

    #[test]
    fn large_batches_stripe_across_the_pool_bit_identically() {
        let tree = staircase_tree(6);
        for threads in [1usize, 3] {
            let server = TreeServer::start(
                Arc::new(ModelRegistry::new(tree.clone())),
                ServeConfig {
                    max_batch: 512,
                    max_delay: Duration::from_millis(20),
                    threads,
                    stripe_rows: 16,
                    ..Default::default()
                },
            );
            let mut handle = server.handle();
            for k in 0..300 {
                handle.submit(req_features(k));
            }
            for resp in handle.collect() {
                assert_eq!(resp.prediction, tree.predict(&req_features(resp.id)));
            }
            server.shutdown();
        }
    }

    /// The drain-ordering audit: several servers sharing one pool group
    /// (fabric shards under a single tenant), all with deep queues, shut
    /// down while the others are still flushing. Every server must drain
    /// its own queue completely — shared-group ticketing may reorder
    /// helpers but can never starve a sibling's drain — and answers stay
    /// bit-identical throughout.
    #[test]
    fn shared_group_servers_drain_fully_on_shutdown() {
        let tree = staircase_tree(5);
        let group = metis_nn::par::fresh_group();
        let servers: Vec<TreeServer> = (0..3)
            .map(|_| {
                TreeServer::start(
                    Arc::new(ModelRegistry::new(tree.clone())),
                    ServeConfig {
                        max_batch: 32,
                        max_delay: Duration::from_secs(10), // drain path only
                        stripe_rows: 4,
                        group: Some(group),
                        ..Default::default()
                    },
                )
            })
            .collect();
        let mut handles: Vec<ServerHandle> = servers.iter().map(|s| s.handle()).collect();
        for (s, handle) in handles.iter_mut().enumerate() {
            for k in 0..150u64 {
                handle.submit(req_features(k.wrapping_add(s as u64 * 37)));
            }
        }
        // Shut all three down concurrently: each batcher flushes its
        // backlog through the shared group at the same time.
        std::thread::scope(|scope| {
            let collectors: Vec<_> = handles
                .into_iter()
                .enumerate()
                .map(|(s, mut handle)| {
                    let tree = &tree;
                    scope.spawn(move || {
                        let responses = handle.collect();
                        assert_eq!(responses.len(), 150, "server {s} dropped requests");
                        for resp in &responses {
                            assert_eq!(
                                resp.prediction,
                                tree.predict(&req_features(resp.id.wrapping_add(s as u64 * 37)))
                            );
                        }
                    })
                })
                .collect();
            for (s, server) in servers.into_iter().enumerate() {
                let report = server.shutdown();
                assert_eq!(report.served, 150, "server {s} under-served");
                assert_eq!(report.delivery_failures, 0);
            }
            for c in collectors {
                c.join().unwrap();
            }
        });
    }

    /// The drain-ordering regression: a shutdown marker landing exactly
    /// on a page boundary must not end the batcher before the requests
    /// queued behind it are answered, and a second marker mid-stream must
    /// not truncate the drain either. The drain event counts exactly the
    /// rows behind the first marker. Filling the queue before the batcher
    /// runs makes the interleaving deterministic.
    #[test]
    fn requests_behind_shutdown_markers_still_drain() {
        let tree = staircase_tree(4);
        let registry = Arc::new(ModelRegistry::new(tree.clone()));
        let clock = Clock::real();
        let telemetry = metis_telemetry::Telemetry::enabled();
        let scope = telemetry.register("abr", 0, "gold").unwrap();
        let cfg = ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_secs(10),
            telemetry: Some(Arc::clone(&scope)),
            ..Default::default()
        };
        let ingest = Arc::new(Ingest::new(&cfg, &clock));
        let mut handle = ServerHandle::new(&ingest, 2, &clock);
        for k in 0..30u64 {
            handle.submit(req_features(k));
            if k == 7 {
                // Request 7 closed a full page: no page is open, so the
                // flush is a no-op and the shutdown lands on the boundary.
                ingest.mark(false);
                ingest.mark(true);
            }
            if k == 19 {
                // Off the boundary: closes the 4-row page 16..=19.
                ingest.mark(true);
            }
        }
        let log = batcher_loop(Arc::clone(&ingest), registry, cfg, clock);
        assert_eq!(log.served, 30, "requests behind a marker were dropped");
        assert_eq!(log.batches, 5, "pages 0-7, 8-15, 16-19, 20-27, 28-29");
        let responses = handle.collect();
        let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..30).collect::<Vec<u64>>());
        let sizes: Vec<usize> = responses.iter().map(|r| r.batch_size).collect();
        let expect: Vec<usize> = [8, 8, 4, 8, 2]
            .iter()
            .flat_map(|&n| std::iter::repeat_n(n, n))
            .collect();
        assert_eq!(sizes, expect);
        for resp in &responses {
            assert_eq!(resp.prediction, tree.predict(&req_features(resp.id)));
        }
        // Rows 8..30 queued behind the first marker; the batcher reached
        // it after the first page.
        let events = scope.events.events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds[..4], ["admission", "flush", "drain", "admission"]);
        assert_eq!(
            events[2].kind,
            metis_telemetry::EventKind::Drain { rows: 22 }
        );
    }

    /// Under a virtual clock the drain is a function of the schedule:
    /// pages queued ahead of the shutdown marker are ordinary batches
    /// however far the batcher has got, so shutting down with uncollected
    /// requests but nothing behind the marker records no drain.
    #[test]
    fn virtual_shutdown_ahead_of_the_marker_records_no_drain() {
        let telemetry = metis_telemetry::Telemetry::enabled();
        let scope = telemetry.register("abr", 0, "gold").unwrap();
        let server = TreeServer::start_clocked(
            Arc::new(ModelRegistry::new(staircase_tree(4))),
            ServeConfig {
                max_batch: 8,
                telemetry: Some(Arc::clone(&scope)),
                ..Default::default()
            },
            Clock::virtual_at(0.0),
        );
        let mut handle = server.handle();
        for k in 0..100u64 {
            handle.submit(req_features(k));
        }
        let report = server.shutdown();
        assert_eq!(report.served, 100);
        assert_eq!(
            report.batches, 13,
            "12 full pages + the 4 rows the marker closed"
        );
        let events = scope.events.events();
        assert!(
            events.iter().all(|e| e.kind.name() != "drain"),
            "{events:?}"
        );
        assert_eq!(handle.collect().len(), 100);
    }

    /// A batcher that dies (here: unwinds) must not leave a collecting
    /// client blocked forever: its exit guard marks the ingest dead and
    /// drops every reply sender, so `collect` panics, and a later submit
    /// panics in its client as after a shutdown.
    #[test]
    fn a_dead_batcher_makes_collect_panic_instead_of_blocking() {
        let clock = Clock::real();
        let cfg = ServeConfig::default();
        let ingest = Arc::new(Ingest::new(&cfg, &clock));
        let mut handle = ServerHandle::new(&ingest, 2, &clock);
        handle.submit(req_features(0));
        let unwound = std::panic::catch_unwind(|| {
            let _exit = BatcherExit(&ingest);
            panic!("batcher fault");
        });
        assert!(unwound.is_err());
        let mut late = ServerHandle::new(&ingest, 2, &clock);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            late.submit(req_features(1))
        }));
        assert!(refused.is_err(), "submit to a dead server must panic");
        let collector = std::thread::spawn(move || handle.collect());
        let start = std::time::Instant::now();
        while !collector.is_finished() && start.elapsed() < Duration::from_secs(20) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(collector.is_finished(), "collect blocked on a dead batcher");
        assert!(collector.join().is_err(), "collect must panic");
    }

    /// A dropped handle frees its reply slot at once. The slot is reissued
    /// to the next handle under a new generation, so the old handle's
    /// queued rows are served but count as delivery failures and never
    /// reach the new owner.
    #[test]
    fn dropped_handle_frees_its_slot_without_leaking_answers() {
        let tree = staircase_tree(4);
        let clock = Clock::virtual_at(0.0);
        let server = TreeServer::start_clocked(
            Arc::new(ModelRegistry::new(tree.clone())),
            ServeConfig {
                max_batch: 64,
                ..Default::default()
            },
            Arc::clone(&clock),
        );
        let mut gone = server.handle();
        for k in 0..5u64 {
            gone.submit(req_features(k)); // waits in the open page
        }
        let old_slot = gone.slot;
        drop(gone);
        let mut next = server.handle();
        assert_eq!(next.slot.index, old_slot.index, "freed slot is reused");
        assert_ne!(next.slot.generation, old_slot.generation);
        for k in 0..3u64 {
            next.submit(req_features(k + 100));
        }
        let responses = next.collect();
        assert_eq!(responses.len(), 3);
        for (k, resp) in responses.iter().enumerate() {
            assert_eq!(resp.id, k as u64);
            assert_eq!(resp.batch_size, 8, "one page holds both handles' rows");
            assert_eq!(resp.prediction, tree.predict(&req_features(k as u64 + 100)));
        }
        drop(next);
        let report = server.shutdown();
        assert_eq!(report.served, 8);
        assert_eq!(report.delivery_failures, 5);
    }
}
