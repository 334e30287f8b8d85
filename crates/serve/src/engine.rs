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
//! arrive. A closed page **is** the micro-batch. On the real clock one
//! long-lived **batcher thread**, woken per page rather than per request,
//! takes closed pages in order; on a virtual clock the thread that closes
//! a page serves it (see **Time** below). Either way each page is served
//! by the one `flush`, which:
//!
//! 1. pins the live model epoch ([`crate::ModelRegistry::current`]) — a
//!    concurrent hot swap never retroactively changes a dispatched batch,
//! 2. walks the page's rows in place (no gather copy) through the epoch's
//!    [`metis_dt::Forest`] — one lane-vectorized compiled tree or a
//!    block-major ensemble of them — into a scratch buffer reused across
//!    batches ([`metis_dt::Forest::predict_batch_into`]),
//!    striping row chunks across [`metis_nn::par::parallel_map_indexed`]
//!    under the server's own fresh **pool group** (so serving shares the
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
//! the sequential oracle on the reported epoch's source trees
//! (`DecisionTree::predict` for a one-tree epoch, the majority vote or
//! mean for an ensemble) for any batch size, deadline, thread count, or
//! swap interleaving.
//!
//! **Time** comes from a [`Clock`]: [`TreeServer::start`] runs on the
//! real clock (wall-time stamps and the deadline close), while
//! [`TreeServer::start_clocked`] with a virtual clock turns the engine
//! into a discrete-event component. A virtual server has no wall deadline
//! and **no batcher thread**: a page closes on size, on a collect's flush
//! or at shutdown, and the thread that closes it serves it at once —
//! [`ServerHandle::submit`] when the page fills, [`ServerHandle::collect`]
//! after it closes the open page, [`TreeServer::shutdown`] (or a drop)
//! for whatever is left. Virtual time does not move while a batch runs,
//! so a handoff to another thread would buy nothing. Per-request latency
//! is the batch's virtual close time (its latest submit stamp) minus the
//! request's own stamp, a pure function of the event schedule. That is
//! what lets `metis_sim` run millions of virtual sessions through this
//! exact hot path, on one thread from event pop to env step, with
//! bit-identical reports for any thread count.

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
    /// inline on the thread that flushes them.
    pub stripe_rows: usize,
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

/// Every live handle's reply sender. Only a flush sends: a handle keeps
/// just the receiving end, so once the server stops and drops the senders
/// a waiting `collect` wakes instead of blocking forever.
#[derive(Default)]
struct ReplySlots {
    /// `(generation, sender)` per slot; `None` once the handle dropped or
    /// the server stopped.
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
    /// Closed pages in close order: the work list a flush pops from.
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
    /// The server has stopped: submits panic in their client.
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

    /// Take the oldest closed page, and set the telemetry queue-depth
    /// gauge to the rows still queued behind it.
    fn pop_closed(&mut self, scope: Option<&ShardTelemetry>) -> Option<Page> {
        let page = self.closed.pop_front()?;
        self.queued -= page.len();
        if let Some(ahead) = self.shutdown.as_mut() {
            *ahead = ahead.saturating_sub(1);
        }
        if let Some(scope) = scope {
            scope.queue_depth.set(self.queued as i64);
        }
        Some(page)
    }
}

/// The shared ingest of one server: its page queue, the condvar the
/// batcher sleeps on, and the handles' reply slots.
struct Ingest {
    queue: Mutex<PageQueue>,
    wake: Condvar,
    replies: RwLock<ReplySlots>,
    max_batch: usize,
    /// How long the batcher lets an open page wait, in seconds.
    max_delay_s: f64,
    /// Virtual clock only: the flush state of a server with no batcher.
    /// Whichever thread closes a page serves it under this lock, after
    /// releasing the page queue's. Lock order: flush state → page queue
    /// → reply slots. Boxed, so the real-clock fields keep their layout.
    inline: Option<Box<Mutex<FlushState>>>,
}

impl Ingest {
    fn new(cfg: &ServeConfig) -> Self {
        Ingest {
            queue: Mutex::default(),
            wake: Condvar::new(),
            replies: RwLock::default(),
            max_batch: cfg.max_batch,
            max_delay_s: cfg.max_delay.as_secs_f64(),
            inline: None,
        }
    }

    fn lock(&self) -> MutexGuard<'_, PageQueue> {
        self.queue
            .lock()
            .expect("serve ingest poisoned: a thread panicked mid-update")
    }

    /// Append one request to the open page, opening one if needed. A
    /// request that fills the page closes it, and on a virtual clock
    /// serves it here.
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
        let full = page.len() >= self.max_batch;
        if full {
            q.close_open();
        }
        // A sleeping batcher takes the full page, or arms the new page's
        // deadline.
        let wake = q.asleep && (full || opened);
        drop(guard);
        if wake {
            self.wake.notify_one();
        }
        if full {
            self.serve_closed();
        }
    }

    /// Virtual clock: serve every closed page on the calling thread, in
    /// close order. Pages are popped only under the flush-state lock, so
    /// concurrent callers never reorder them, and a caller returns only
    /// once every page closed before its call is answered. A no-op under
    /// the real clock, where the batcher serves. Panics if an earlier
    /// flush panicked (its pages are lost), rather than block a collect.
    fn serve_closed(&self) {
        if let Some(state) = &self.inline {
            state
                .lock()
                .expect("serve flush state poisoned: a flush panicked")
                .serve(self, false);
        }
    }

    /// Virtual clock: stop the server. Closes the open page and marks the
    /// ingest dead in one step, so a later submit panics in its client;
    /// serves what is queued on this thread; then drops every reply
    /// sender, as a batcher's exit does, so a collect returns what was
    /// answered. `None` under the real clock or when a flush panicked.
    fn finish(&self) -> Option<EngineLog> {
        let state = self.inline.as_deref()?;
        let _exit = BatcherExit(self);
        let mut state = state.lock().ok()?;
        let mut q = self.lock();
        q.close_open();
        q.dead = true;
        drop(q);
        state.serve(self, false);
        Some(std::mem::take(&mut state.log))
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

    /// Return a flushed page to the free list and take the next closed
    /// one: under the real clock (`wait`, the batcher) block until a page
    /// closes, and return `None` once a shutdown marker has arrived and
    /// nothing is queued; under a virtual clock return `None` when no
    /// closed page is left. Sets the telemetry queue-depth gauge once per
    /// page, and records the drain when the batcher reaches the first
    /// shutdown marker.
    fn next_page(
        &self,
        done: Option<Page>,
        wait: bool,
        clock: &Clock,
        scope: Option<&ShardTelemetry>,
    ) -> Option<Page> {
        let mut q = self.lock();
        let mut surplus = done;
        if q.free.len() < FREE_PAGES {
            q.free.extend(surplus.take());
        }
        let next = if wait {
            self.await_page(q, clock, scope)
        } else {
            q.pop_closed(scope)
        };
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
                // queued arrived behind it.
                q.drain_seen = true;
                if let Some(scope) = scope.filter(|_| q.queued > 0) {
                    scope.on_drain(clock.now_s(), q.queued);
                }
            }
            if let Some(page) = q.pop_closed(scope) {
                return Some(page);
            }
            // How much longer the open page may wait.
            let wait_s = q
                .open
                .as_ref()
                .map(|page| page.stamps[0] + self.max_delay_s - clock.now_s());
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

/// Runs when the batcher exits, or a virtual server stops, normally or
/// by unwinding: marks the ingest dead (a later submit panics in its
/// client) and drops every reply sender, so a handle waiting in `collect`
/// receives what was answered and then panics instead of blocking
/// forever.
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

/// What a server's flushes accumulated over its lifetime.
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

/// Buffers a server reuses across batches, so the steady-state flush
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

/// Everything a flush reads and writes besides the page: owned by the
/// batcher thread under the real clock, and held in the ingest behind one
/// mutex under a virtual clock ([`Ingest::serve_closed`]).
struct FlushState {
    log: EngineLog,
    scratch: FlushScratch,
    registry: Arc<ModelRegistry>,
    cfg: ServeConfig,
    clock: Arc<Clock>,
    /// This server's pool group: every flush's stripes carry it, so the
    /// pool's scheduler treats each server as one fairness tenant.
    group: u64,
}

impl FlushState {
    fn new(registry: Arc<ModelRegistry>, cfg: ServeConfig, clock: Arc<Clock>) -> Self {
        FlushState {
            log: EngineLog::default(),
            scratch: FlushScratch::default(),
            registry,
            cfg,
            clock,
            group: metis_nn::par::fresh_group(),
        }
    }

    /// Flush closed pages in close order until [`Ingest::next_page`]
    /// returns `None` (see there for `wait`).
    fn serve(&mut self, ingest: &Ingest, wait: bool) {
        metis_nn::par::with_group(self.group, || {
            let mut done = None;
            while let Some(mut page) = ingest.next_page(
                done.take(),
                wait,
                &self.clock,
                self.cfg.telemetry.as_deref(),
            ) {
                if let Some(scope) = &self.cfg.telemetry {
                    scope.on_batch_open();
                }
                flush(
                    &mut self.log,
                    &mut self.scratch,
                    ingest,
                    &self.registry,
                    &self.cfg,
                    &self.clock,
                    &page,
                );
                page.clear();
                done = Some(page);
            }
        });
    }
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

    /// Enqueue one request and return its (per-handle) id. The features
    /// are copied into the open page and `features` is freed here. On the
    /// real clock this never blocks on the server beyond the ingest mutex.
    /// On a virtual clock, a request that fills its page serves that page
    /// on this thread before returning, so its answers are in the reply
    /// slots before any collect. A malformed request panics **here**, in
    /// the submitting client's thread — no flush ever sees it, so one bad
    /// client cannot take the engine down for its neighbours.
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

    /// Block until every outstanding request is answered; returns the
    /// responses in id order (deterministic regardless of batching: pages
    /// are answered in order and ids follow page order).
    ///
    /// On a virtual-clock server there is no deadline close and no
    /// batcher: collecting first closes the open page (a no-op when none
    /// is open) and serves every closed page on this thread, so the
    /// answers are waiting when it reads them. The real clock path is
    /// untouched — the deadline does the closing and the batcher the
    /// serving there. Panics if the server stopped with requests of this
    /// handle unanswered, or if a virtual flush panicked.
    pub fn collect(&mut self) -> Vec<Response> {
        if self.outstanding == 0 {
            return Vec::new();
        }
        if self.clock.is_virtual() {
            self.ingest.mark(false);
            self.ingest.serve_closed();
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

/// The serving engine: start with [`TreeServer::start`], mint client
/// handles with [`TreeServer::handle`], stop with [`TreeServer::shutdown`].
pub struct TreeServer {
    ingest: Arc<Ingest>,
    /// The batcher; `None` on a virtual clock, where clients serve.
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
    /// (see [`ServerHandle::collect`]), spawns no batcher thread (the
    /// thread that closes a page serves it; see [`ServerHandle::submit`])
    /// and makes every latency figure a deterministic virtual-time span.
    pub fn start_clocked(
        registry: Arc<ModelRegistry>,
        cfg: ServeConfig,
        clock: Arc<Clock>,
    ) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(cfg.stripe_rows >= 1, "stripe_rows must be at least 1");
        let mut ingest = Ingest::new(&cfg);
        let state = FlushState::new(Arc::clone(&registry), cfg, Arc::clone(&clock));
        let (ingest, thread) = if clock.is_virtual() {
            ingest.inline = Some(Box::new(Mutex::new(state)));
            (Arc::new(ingest), None)
        } else {
            let ingest = Arc::new(ingest);
            let batcher = Arc::clone(&ingest);
            let thread = std::thread::Builder::new()
                .name("metis-serve-batcher".into())
                .spawn(move || batcher_loop(batcher, state))
                .expect("spawn serve batcher");
            (ingest, Some(thread))
        };
        TreeServer {
            ingest,
            thread,
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
    /// exits — on a virtual clock this thread serves them — and the
    /// lifetime report is returned.
    pub fn shutdown(mut self) -> EngineReport {
        let log = self.stop().expect("serve batcher or flush panicked");
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

    /// Drain the queue and stop serving. `None` when the batcher or a
    /// flush panicked, or the real-clock batcher was already stopped.
    fn stop(&mut self) -> Option<EngineLog> {
        if let Some(thread) = self.thread.take() {
            self.ingest.mark(true);
            return thread.join().ok();
        }
        self.ingest.finish()
    }
}

impl Drop for TreeServer {
    /// A server dropped without [`TreeServer::shutdown`] still drains its
    /// queue and stops serving; the report is discarded, and so is the
    /// panic of a virtual flush run here, as a batcher's panic is.
    fn drop(&mut self) {
        let stop = std::panic::AssertUnwindSafe(|| self.stop());
        let _ = std::panic::catch_unwind(stop);
    }
}

fn batcher_loop(ingest: Arc<Ingest>, mut state: FlushState) -> EngineLog {
    let _exit = BatcherExit(&ingest);
    state.serve(&ingest, true);
    state.log
}

fn flush(
    log: &mut EngineLog,
    scratch: &mut FlushScratch,
    ingest: &Ingest,
    registry: &ModelRegistry,
    cfg: &ServeConfig,
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
            metis_nn::par::parallel_map_indexed(chunks, cfg.threads, |c| {
                let lo = c * cfg.stripe_rows;
                let hi = ((c + 1) * cfg.stripe_rows).min(n);
                model.predict_batch(&rows[lo * n_features..hi * n_features])
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
        scope.on_requests(&scratch.latencies, &scratch.queue_waits);
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
        let scope = telemetry.register("abr", 0, "gold", 0).unwrap();
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
        assert_eq!(scope.latency.count(), 9);
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
        registry.publish(forest.clone());
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

    /// The drain-ordering audit: several servers striping through the
    /// one shared pool (like a fabric's shards), all with deep queues,
    /// shut down while the others are still flushing. Every server must
    /// drain its own queue completely — the pool's group round-robin may
    /// reorder helpers but can never starve a sibling's drain — and
    /// answers stay bit-identical throughout.
    #[test]
    fn shared_group_servers_drain_fully_on_shutdown() {
        let tree = staircase_tree(5);
        let servers: Vec<TreeServer> = (0..3)
            .map(|_| {
                TreeServer::start(
                    Arc::new(ModelRegistry::new(tree.clone())),
                    ServeConfig {
                        max_batch: 32,
                        max_delay: Duration::from_secs(10), // drain path only
                        stripe_rows: 4,
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
        // backlog through the shared pool at the same time.
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
        let scope = telemetry.register("abr", 0, "gold", 0).unwrap();
        let cfg = ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_secs(10),
            telemetry: Some(Arc::clone(&scope)),
            ..Default::default()
        };
        let ingest = Arc::new(Ingest::new(&cfg));
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
        let log = batcher_loop(Arc::clone(&ingest), FlushState::new(registry, cfg, clock));
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
        let scope = telemetry.register("abr", 0, "gold", 0).unwrap();
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
        let ingest = Arc::new(Ingest::new(&cfg));
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
        assert!(
            join_within(collector, "collect on a dead batcher").is_err(),
            "collect must panic"
        );
    }

    /// Join `thread`, failing the test if it has not finished within 20 s
    /// (a blocked collect or a lock-order deadlock) instead of hanging.
    fn join_within<T>(thread: std::thread::JoinHandle<T>, what: &str) -> std::thread::Result<T> {
        let start = std::time::Instant::now();
        while !thread.is_finished() {
            assert!(
                start.elapsed() < Duration::from_secs(20),
                "{what} still running after 20 s"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        thread.join()
    }

    /// A virtual-clock server holds no batcher thread: the submit that
    /// fills a page serves it, so its answers are in the handle's reply
    /// slot before any collect, while a partial page waits for the collect.
    /// After shutdown a late submit panics in its client.
    #[test]
    fn virtual_server_serves_a_full_page_on_the_submitting_thread() {
        let tree = staircase_tree(5);
        let registry = Arc::new(ModelRegistry::new(tree.clone()));
        let real = TreeServer::start(Arc::clone(&registry), ServeConfig::default());
        assert!(real.thread.is_some(), "the real clock keeps its batcher");
        drop(real);
        let server = TreeServer::start_clocked(
            registry,
            ServeConfig {
                max_batch: 4,
                ..Default::default()
            },
            Clock::virtual_at(0.0),
        );
        assert!(server.thread.is_none(), "a virtual server spawns no thread");
        let mut handle = server.handle();
        for k in 0..4u64 {
            handle.submit(req_features(k));
        }
        let page = handle
            .replies
            .try_recv()
            .expect("the fourth submit served its page");
        // Taken by hand, so the collect below does not wait for them.
        handle.outstanding -= page.len();
        let ids: Vec<u64> = page.iter().map(|r| r.id).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        for resp in &page {
            assert_eq!(resp.batch_size, 4);
            assert_eq!(resp.prediction, tree.predict(&req_features(resp.id)));
        }
        for k in 4..6u64 {
            handle.submit(req_features(k));
        }
        assert!(handle.replies.try_recv().is_err(), "a partial page waits");
        let rest = handle.collect();
        assert_eq!(rest.iter().map(|r| r.id).collect::<Vec<u64>>(), [4, 5]);
        assert!(rest.iter().all(|r| r.batch_size == 2));
        let report = server.shutdown();
        assert_eq!((report.served, report.batches), (6, 2));
        let late = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle.submit(req_features(6))
        }));
        assert!(late.is_err(), "submit to a stopped server must panic");
    }

    /// Three client threads share one virtual server and race to close
    /// and serve its pages. Pages still flush in close order under the
    /// one flush-state lock, so each collect returns exactly its own ids,
    /// ascending, with oracle answers; a lock-order deadlock fails the
    /// bounded joins instead of hanging the suite. The barrier and the
    /// yields make the clients' rows share pages; without them the three
    /// threads barely overlap.
    #[test]
    fn client_threads_share_a_virtual_server() {
        const ROWS: u64 = 200;
        let tree = staircase_tree(6);
        let clock = Clock::virtual_at(0.0);
        let server = TreeServer::start_clocked(
            Arc::new(ModelRegistry::new(tree.clone())),
            ServeConfig {
                max_batch: 5,
                ..Default::default()
            },
            Arc::clone(&clock),
        );
        let row = |t: u64, k: u64| req_features(k * 3 + t);
        let start = Arc::new(std::sync::Barrier::new(3));
        let clients: Vec<_> = (0..3u64)
            .map(|t| {
                let mut handle = server.handle();
                let (tree, clock) = (tree.clone(), Arc::clone(&clock));
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    let mut answered = Vec::new();
                    start.wait();
                    for k in 0..ROWS {
                        // Hand the core over, so the clients' pages mix.
                        std::thread::yield_now();
                        clock.advance_to(k as f64);
                        assert_eq!(handle.submit(row(t, k)), k);
                        if k % (11 + 2 * t) == 0 {
                            answered.extend(handle.collect());
                        }
                    }
                    answered.extend(handle.collect());
                    let ids: Vec<u64> = answered.iter().map(|r| r.id).collect();
                    assert_eq!(ids, (0..ROWS).collect::<Vec<u64>>(), "client {t} ids");
                    for resp in &answered {
                        assert_eq!(resp.prediction, tree.predict(&row(t, resp.id)));
                    }
                })
            })
            .collect();
        for (t, client) in clients.into_iter().enumerate() {
            let joined = join_within(client, &format!("client {t}"));
            assert!(joined.is_ok(), "client {t} failed");
        }
        let report = server.shutdown();
        assert_eq!(report.served, 3 * ROWS);
        assert_eq!(report.delivery_failures, 0);
        assert!(report.max_batch_seen <= 5);
    }

    /// A flush that panics poisons the virtual flush state, and its pages
    /// are lost: the next collect must panic rather than block on answers
    /// that will never come. Dropping the server then still stops it.
    #[test]
    fn a_poisoned_flush_state_makes_collect_panic_instead_of_blocking() {
        let server = TreeServer::start_clocked(
            Arc::new(ModelRegistry::new(staircase_tree(3))),
            ServeConfig::default(),
            Clock::virtual_at(0.0),
        );
        let mut handle = server.handle();
        handle.submit(req_features(0));
        let state = server.ingest.inline.as_deref().expect("a virtual server");
        let poisoned = std::panic::catch_unwind(|| {
            let _state = state.lock().unwrap();
            panic!("flush fault");
        });
        assert!(poisoned.is_err());
        let collector = std::thread::spawn(move || handle.collect());
        assert!(
            join_within(collector, "collect on a poisoned server").is_err(),
            "collect must panic"
        );
        drop(server);
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
