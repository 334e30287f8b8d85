//! Deterministic fork/join primitives shared by every parallel stage of
//! the stack (episode collection, evaluation, multi-output fitting, the
//! per-node CART split scan, and the batched §4 mask-gradient blocks).
//!
//! The contract everywhere: work items are independent, each worker
//! handles an index stripe, and results merge back **in index order** —
//! so the output is identical for any thread count.
//!
//! # The persistent worker pool
//!
//! Every [`parallel_map_indexed`] call used to spawn fresh OS threads.
//! That is fine for coarse stages (a collection round), but once pipelines
//! run *concurrently* (one per workload) the inner stages fire thousands
//! of fine-grained calls and per-call spawning both dominates the runtime
//! and oversubscribes the machine. Calls now execute on one process-wide
//! [`WorkerPool`] ([`global`]):
//!
//! * **Long-lived workers** block on a condvar-fed queue; a call enqueues
//!   lightweight *tickets* instead of spawning.
//! * **Stripe claiming** — each job exposes an atomic cursor over its
//!   logical stripes (`w`, `w+T`, `w+2T`, … for stripe `w` of `T`). The
//!   submitting thread claims stripes too, so a job always makes progress
//!   even when every pool worker is busy — nested submissions (a pipeline
//!   stage inside a workload, a workload inside the pool) cannot deadlock.
//! * **Fair scheduling** — tickets are tagged with the submitting
//!   thread's *group* (see [`with_group`]); the queue round-robins across
//!   groups so concurrent workloads share the pool instead of the first
//!   submitter draining it.
//! * **Deadline classes** — a group may additionally carry a *deadline
//!   class* (see [`with_deadline_class`]; lower = more urgent). Workers
//!   drain every ticket of the most urgent class present before touching
//!   laxer ones, round-robinning across groups *within* a class. This is
//!   how the serving fabric pushes per-tenant SLO tiers into the pool:
//!   an urgent tenant's micro-batches get the helper threads first.
//!   Classes reorder **helpers only** — the submitting thread always
//!   claims stripes of its own job, so a lax job still progresses (no
//!   starvation-induced deadlock) and results stay bit-identical for any
//!   class assignment (merging is by index, never by completion order).
//! * **Determinism is structural** — the `threads` knob picks the stripe
//!   layout, results scatter into a pre-sized output by item index, and
//!   nothing depends on which OS thread computes which stripe. The output
//!   is bit-identical to the retained spawn-per-call implementation
//!   ([`reference::parallel_map_indexed`]) for every thread count, pool
//!   size, and interleaving; a proptest suite pins this.

use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Resolve a thread-count knob: 0 means "all available cores".
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// SplitMix64 finalizer — the avalanche step used to derive decorrelated
/// per-item RNG seeds from a base seed and an item index.
pub fn mix_seed(z: u64) -> u64 {
    let mut z = z;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

thread_local! {
    /// Scheduling group of pool submissions made from this thread
    /// (0 = ungrouped). Purely a fairness tag — results never depend on it.
    static GROUP: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Deadline class of pool submissions made from this thread
    /// (lower = more urgent; 0 = the default, most-urgent class). Purely
    /// a scheduling tag — results never depend on it.
    static CLASS: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
}

static NEXT_GROUP: AtomicU64 = AtomicU64::new(1);

/// Reserve a fresh, process-unique scheduling group id.
pub fn fresh_group() -> u64 {
    NEXT_GROUP.fetch_add(1, Ordering::Relaxed)
}

/// Run `f` with every pool submission from this thread tagged with
/// `group`, the unit of the pool's round-robin fairness. The previous tag
/// is restored afterwards (also on unwind). Workload drivers wrap their
/// whole pipeline in this so concurrent workloads share the pool fairly;
/// the tag never affects results, only latency.
pub fn with_group<R>(group: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            GROUP.with(|g| g.set(self.0));
        }
    }
    let _restore = Restore(GROUP.with(|g| g.replace(group)));
    f()
}

fn current_group() -> u64 {
    GROUP.with(|g| g.get())
}

/// Run `f` with every pool submission from this thread scheduled in
/// deadline `class` (lower = more urgent; ties round-robin across
/// groups). The previous class is restored afterwards (also on unwind).
/// The class only steers which queued tickets pool workers pick up
/// first — the submitter still works its own job, so a lax class delays
/// helpers, never completion, and results are bit-identical for any
/// class assignment.
pub fn with_deadline_class<R>(class: u8, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            CLASS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CLASS.with(|c| c.replace(class)));
    f()
}

/// Deadline class pool submissions from this thread currently carry.
pub fn current_deadline_class() -> u8 {
    CLASS.with(|c| c.get())
}

#[derive(Default)]
struct JobState {
    /// Stripes whose bodies have finished running.
    completed: usize,
    /// First panic payload raised by a stripe body, if any.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// One fork/join submission: an atomic cursor over `total` logical
/// stripes plus a completion latch. The body pointer is type-erased; the
/// submitter guarantees its referent outlives the job by blocking until
/// `completed == total` before returning (see [`WorkerPool::run_stripes`]).
struct Job {
    next: AtomicUsize,
    total: usize,
    state: Mutex<JobState>,
    done: Condvar,
    /// Scheduling group of the submitter, re-applied around stripe
    /// bodies so *nested* submissions made from pool workers inherit the
    /// workload's fairness tag instead of the worker's default group.
    group: u64,
    /// Deadline class of the submitter, re-applied around stripe bodies
    /// for the same nested-inheritance reason as `group`.
    class: u8,
    body: *const (dyn Fn(usize) + Sync),
}

// SAFETY: `body` is only dereferenced for stripes claimed from `next`
// (strictly fewer than `total` claims succeed), and the submitting thread
// keeps the referent alive until all `total` stripes have completed.
// Everything else in the struct is Sync.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claim and run stripes until the cursor is exhausted. Safe to call
    /// from any thread, any number of times (late tickets no-op).
    fn work(&self) {
        loop {
            let w = self.next.fetch_add(1, Ordering::Relaxed);
            if w >= self.total {
                return;
            }
            // SAFETY: see the `unsafe impl Send` comment above.
            let body = unsafe { &*self.body };
            let result = catch_unwind(AssertUnwindSafe(|| {
                with_deadline_class(self.class, || with_group(self.group, || body(w)));
            }));
            let mut state = self.state.lock().unwrap();
            state.completed += 1;
            if let Err(payload) = result {
                state.panic.get_or_insert(payload);
            }
            if state.completed == self.total {
                self.done.notify_all();
            }
        }
    }

    /// Block until every stripe has completed, then re-raise the first
    /// stripe panic (if any) on the calling thread.
    fn wait(&self) {
        let mut state = self.state.lock().unwrap();
        while state.completed < self.total {
            state = self.done.wait(state).unwrap();
        }
        if let Some(payload) = state.panic.take() {
            drop(state);
            resume_unwind(payload);
        }
    }
}

/// One group's pending tickets plus the deadline class its most recent
/// submission carried.
struct GroupQueue {
    group: u64,
    class: u8,
    tickets: VecDeque<Arc<Job>>,
}

/// Per-group FIFO ticket queues with deadline-aware ordering: each pop
/// serves the most urgent (lowest) deadline class present, round-robin
/// across the groups *of that class* so one chatty workload cannot
/// starve its peers. Groups vanish as soon as they drain, so every
/// present entry holds at least one ticket.
#[derive(Default)]
struct Queues {
    groups: Vec<GroupQueue>,
    cursor: usize,
    shutdown: bool,
}

impl Queues {
    fn push(&mut self, group: u64, class: u8, job: &Arc<Job>, tickets: usize) {
        let queue = match self.groups.iter_mut().position(|g| g.group == group) {
            Some(i) => {
                // Latest submission wins: a workload that tightens (or
                // relaxes) its class mid-run reschedules its whole queue.
                self.groups[i].class = class;
                &mut self.groups[i].tickets
            }
            None => {
                self.groups.push(GroupQueue {
                    group,
                    class,
                    tickets: VecDeque::new(),
                });
                &mut self.groups.last_mut().unwrap().tickets
            }
        };
        for _ in 0..tickets {
            queue.push_back(Arc::clone(job));
        }
    }

    fn pop(&mut self) -> Option<Arc<Job>> {
        let urgent = self.groups.iter().map(|g| g.class).min()?;
        let len = self.groups.len();
        for k in 0..len {
            let idx = (self.cursor + k) % len;
            if self.groups[idx].class != urgent {
                continue;
            }
            if let Some(job) = self.groups[idx].tickets.pop_front() {
                if self.groups[idx].tickets.is_empty() {
                    self.groups.remove(idx);
                    let remaining = self.groups.len();
                    self.cursor = if remaining == 0 { 0 } else { idx % remaining };
                } else {
                    self.cursor = (idx + 1) % len;
                }
                return Some(job);
            }
        }
        None
    }
}

struct Shared {
    queues: Mutex<Queues>,
    available: Condvar,
}

/// A persistent pool of worker threads executing index-striped fork/join
/// jobs. See the module docs; most callers go through [`global`] and
/// [`parallel_map_indexed`] rather than owning a pool.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut queues = shared.queues.lock().unwrap();
            loop {
                if let Some(job) = queues.pop() {
                    break Some(job);
                }
                if queues.shutdown {
                    break None;
                }
                queues = shared.available.wait(queues).unwrap();
            }
        };
        match job {
            Some(job) => job.work(),
            None => return,
        }
    }
}

impl WorkerPool {
    /// Spawn a pool with `background_threads` long-lived workers. Zero is
    /// valid: every job then runs inline on the submitting thread (same
    /// results — determinism never depends on the pool size).
    pub fn new(background_threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queues: Mutex::new(Queues::default()),
            available: Condvar::new(),
        });
        let handles = (0..background_threads)
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("metis-pool-{k}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of long-lived background workers (the submitting thread
    /// always participates on top of these).
    pub fn background_threads(&self) -> usize {
        self.handles.len()
    }

    /// Run `body(w)` for every stripe `w` in `0..stripes`, fanning across
    /// the pool. The submitting thread claims stripes alongside the
    /// workers and does not return until all stripes completed, so `body`
    /// may borrow from the caller's stack. Panics in any stripe are
    /// re-raised here after the remaining stripes finish.
    pub fn run_stripes<F: Fn(usize) + Sync>(&self, stripes: usize, body: F) {
        if stripes <= 1 || self.handles.is_empty() {
            for w in 0..stripes {
                body(w);
            }
            return;
        }
        let erased: &(dyn Fn(usize) + Sync) = &body;
        // SAFETY: the lifetime is erased only for storage in `Job`; this
        // function blocks (`job.wait()`) until every stripe completed, so
        // no dereference outlives `body`.
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(erased)
        };
        let group = current_group();
        let class = current_deadline_class();
        let job = Arc::new(Job {
            next: AtomicUsize::new(0),
            total: stripes,
            state: Mutex::new(JobState::default()),
            done: Condvar::new(),
            group,
            class,
            body: erased as *const _,
        });
        let helpers = (stripes - 1).min(self.handles.len());
        self.shared
            .queues
            .lock()
            .unwrap()
            .push(group, class, &job, helpers);
        if helpers == 1 {
            self.shared.available.notify_one();
        } else {
            self.shared.available.notify_all();
        }
        job.work();
        job.wait();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.queues.lock().unwrap().shutdown = true;
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The process-wide pool every [`parallel_map_indexed`] call executes on,
/// created on first use with `cores - 1` background workers (minimum 1, so
/// cross-thread merging is exercised even on single-core machines).
pub fn global() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        WorkerPool::new(cores.saturating_sub(1).max(1))
    })
}

/// Pointer to the pre-sized output slots workers scatter into. Each item
/// index is written by exactly one stripe, so concurrent writers never
/// alias.
struct SlotPtr<T>(*mut MaybeUninit<T>);
impl<T> Clone for SlotPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SlotPtr<T> {}
// SAFETY: stripes write disjoint indices; the owning Vec outlives the job
// because the submitter blocks until every stripe completed.
unsafe impl<T: Send> Send for SlotPtr<T> {}
unsafe impl<T: Send> Sync for SlotPtr<T> {}

impl<T> SlotPtr<T> {
    /// # Safety
    /// `i` must be in bounds and written by exactly one stripe.
    unsafe fn write(&self, i: usize, value: T) {
        (*self.0.add(i)).write(value);
    }
}

/// Map `f` over `0..n` across `threads` logical workers (0 = all cores),
/// returning results in index order. Runs on the persistent [`global`]
/// pool: workers take index stripes (`w`, `w+T`, `w+2T`, …) and scatter
/// results **directly into pre-sized output slots** — no intermediate
/// `(index, value)` buffers. Falls back to a plain sequential map when one
/// worker suffices. Output is identical for any thread count and
/// bit-identical to [`reference::parallel_map_indexed`].
pub fn parallel_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = resolve_threads(threads).min(n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
    slots.resize_with(n, MaybeUninit::uninit);
    let out = SlotPtr(slots.as_mut_ptr());
    let f = &f;
    global().run_stripes(workers, move |w| {
        for i in (w..n).step_by(workers) {
            // SAFETY: stripe `w` owns exactly the indices `w, w+T, …`, so
            // this slot is written once, with no concurrent access. (If a
            // stripe panics, already-written slots leak rather than
            // double-drop: `MaybeUninit` suppresses the element drops.)
            unsafe { out.write(i, f(i)) };
        }
    });
    // Every index in 0..n belongs to exactly one stripe and run_stripes
    // completed them all, so all n slots are initialized.
    let (ptr, len, cap) = (slots.as_mut_ptr(), slots.len(), slots.capacity());
    std::mem::forget(slots);
    // SAFETY: MaybeUninit<T> has the same layout as T and all slots are
    // initialized; ptr/len/cap come from the forgotten Vec.
    unsafe { Vec::from_raw_parts(ptr as *mut T, len, cap) }
}

/// The pre-pool spawn-per-call implementation, kept verbatim as the
/// behavioural oracle for the pool-backed engine (mirroring the CART
/// builder's reference splitter): scoped threads per call, per-item
/// `(index, value)` tuples merged through `Option` slots. The proptest
/// suite pins `parallel_map_indexed` bit-identical to this for any thread
/// count; the conversion bench quantifies how much pool reuse saves at
/// fine granularity.
#[doc(hidden)]
pub mod reference {
    use super::resolve_threads;

    pub fn parallel_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = resolve_threads(threads).min(n.max(1));
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let chunks = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let f = &f;
                    scope.spawn(move || {
                        (w..n)
                            .step_by(workers)
                            .map(|i| (i, f(i)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("parallel_map_indexed worker panicked"))
                .collect::<Vec<_>>()
        });
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        for chunk in chunks {
            for (i, v) in chunk {
                slots[i] = Some(v);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index mapped"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_index_order_for_any_thread_count() {
        let sq = |i: usize| i * i;
        let expected: Vec<usize> = (0..37).map(sq).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(parallel_map_indexed(37, threads, sq), expected);
        }
        assert_eq!(parallel_map_indexed(0, 4, sq), Vec::<usize>::new());
    }

    #[test]
    fn resolve_threads_zero_means_all_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn empty_and_tiny_inputs_for_every_worker_count() {
        // n == 0 and n < workers must not touch the pool's scatter path
        // incorrectly: every stripe layout covers 0..n exactly once.
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(parallel_map_indexed(0, threads, |i| i), Vec::<usize>::new());
            for n in 1..6 {
                let expected: Vec<usize> = (0..n).map(|i| i * 7 + 1).collect();
                assert_eq!(parallel_map_indexed(n, threads, |i| i * 7 + 1), expected);
            }
        }
    }

    #[test]
    fn heap_owning_results_match_reference() {
        // String results exercise drop correctness of the scatter merge.
        let f = |i: usize| format!("item-{i}-{}", i * i);
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                parallel_map_indexed(29, threads, f),
                reference::parallel_map_indexed(29, threads, f)
            );
        }
    }

    #[test]
    fn pool_reuse_across_many_calls() {
        for round in 0..200 {
            let out = parallel_map_indexed(17, 4, |i| i + round);
            assert_eq!(out, (0..17).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_submissions_do_not_deadlock() {
        // A pipeline stage inside a workload inside the pool: inner maps
        // submitted from pool-executed stripes must complete (submitter
        // claiming guarantees progress even with every worker busy).
        let out = parallel_map_indexed(6, 3, |i| {
            parallel_map_indexed(5, 2, move |j| i * 10 + j)
                .into_iter()
                .sum::<usize>()
        });
        let expected: Vec<usize> = (0..6).map(|i| (0..5).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn panics_propagate_and_pool_survives() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_indexed(16, 4, |i| {
                if i == 11 {
                    panic!("boom at {i}");
                }
                i
            })
        });
        assert!(result.is_err(), "stripe panic must reach the submitter");
        // The pool keeps serving jobs afterwards.
        let ok = parallel_map_indexed(8, 4, |i| i * 2);
        assert_eq!(ok, (0..8).map(|i| i * 2).collect::<Vec<_>>());
    }

    /// End-to-end class ordering on a real pool: with the only worker
    /// gated, a lax job queued *first* and an urgent job queued second,
    /// the freed worker must help the urgent job first. Every stripe logs
    /// `(job, thread)`. The lax and urgent submitters hold in their own
    /// first stripes until the worker takes a stripe after the gate, so
    /// each job still has a stripe for the worker to pick and the log
    /// shows which one it picked, however the host schedules the threads.
    #[test]
    fn urgent_class_gets_the_helper_before_an_earlier_lax_job() {
        use std::thread::{yield_now, ThreadId};
        use std::time::Duration;
        type Latch = (Mutex<bool>, Condvar);
        // Bounded, so a pool that never hands the worker a ticket fails
        // the assertion below instead of hanging the suite.
        fn wait_for((lock, cv): &Latch) {
            let open = lock.lock().unwrap();
            drop(cv.wait_timeout_while(open, Duration::from_secs(20), |open| !*open));
        }
        fn open((lock, cv): &Latch) {
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        let pool = WorkerPool::new(1);
        let log: Mutex<Vec<(&str, ThreadId)>> = Mutex::new(Vec::new());
        let gate: Latch = Default::default();
        let picked: Latch = Default::default();
        let worker: OnceLock<ThreadId> = OnceLock::new();
        let queued_groups = |n: usize| pool.shared.queues.lock().unwrap().groups.len() >= n;
        let stripe = |job: &'static str| {
            let me = std::thread::current().id();
            log.lock().unwrap().push((job, me));
            if worker.get() == Some(&me) {
                open(&picked);
            }
            wait_for(&picked);
        };
        std::thread::scope(|scope| {
            // Occupy the only worker (and this job's submitter) behind
            // the gate: both stripes block until it opens.
            let gate_job = scope.spawn(|| {
                pool.run_stripes(2, |_| {
                    log.lock()
                        .unwrap()
                        .push(("gate", std::thread::current().id()));
                    wait_for(&gate);
                });
            });
            while log.lock().unwrap().len() < 2 {
                yield_now();
            }
            let submitter = gate_job.thread().id();
            let on_pool = log
                .lock()
                .unwrap()
                .iter()
                .map(|&(_, t)| t)
                .find(|&t| t != submitter);
            worker.set(on_pool.unwrap()).unwrap();
            let (pool, stripe) = (&pool, &stripe);
            // Lax job enqueues its helper ticket first…
            scope.spawn(move || {
                with_group(fresh_group(), || {
                    with_deadline_class(4, || pool.run_stripes(2, |_| stripe("lax")))
                })
            });
            while !queued_groups(1) {
                yield_now();
            }
            // …then the urgent job.
            scope.spawn(move || {
                with_group(fresh_group(), || {
                    with_deadline_class(0, || pool.run_stripes(2, |_| stripe("urgent")))
                })
            });
            while !queued_groups(2) {
                yield_now();
            }
            // Open the gate: the worker frees up and must pick the
            // urgent ticket despite the lax one being queued longer.
            open(&gate);
        });
        let worker = *worker.get().unwrap();
        let on_worker: Vec<&str> = (log.into_inner().unwrap().into_iter())
            .filter(|&(_, t)| t == worker)
            .map(|(job, _)| job)
            .collect();
        assert_eq!(
            on_worker.get(..2),
            Some(&["gate", "urgent"][..]),
            "the freed worker must help the urgent job before the earlier lax one: {on_worker:?}"
        );
    }

    #[test]
    fn group_tag_propagates_into_worker_executed_stripes() {
        // Stripe bodies may run on pool worker threads whose own
        // thread-local group is 0; the job must re-apply the submitter's
        // group so *nested* submissions keep the workload's fairness tag.
        let group = fresh_group();
        with_group(group, || {
            let seen = parallel_map_indexed(8, 4, |_| current_group());
            assert!(
                seen.iter().all(|&g| g == group),
                "stripe lost the submitter's group: {seen:?} != {group}"
            );
        });
    }

    #[test]
    fn group_tag_is_scoped_and_restored() {
        assert_eq!(current_group(), 0);
        let (a, b) = (fresh_group(), fresh_group());
        assert_ne!(a, b);
        with_group(a, || {
            assert_eq!(current_group(), a);
            // Grouping never changes results.
            let tagged = parallel_map_indexed(13, 3, |i| i * 3);
            assert_eq!(tagged, (0..13).map(|i| i * 3).collect::<Vec<_>>());
            with_group(b, || assert_eq!(current_group(), b));
            assert_eq!(current_group(), a);
        });
        assert_eq!(current_group(), 0);
    }

    /// A queue ticket that never runs a body — identity-compared via
    /// `Arc::ptr_eq` to pin the scheduler's pop order exactly.
    fn dummy_job(group: u64, class: u8) -> Arc<Job> {
        static NOOP: fn(usize) = |_| {};
        let body: &'static (dyn Fn(usize) + Sync) = &NOOP;
        Arc::new(Job {
            next: AtomicUsize::new(0),
            total: 1,
            state: Mutex::new(JobState::default()),
            done: Condvar::new(),
            group,
            class,
            body: body as *const _,
        })
    }

    #[test]
    fn queue_pops_round_robin_within_a_class_and_urgent_class_first() {
        let mut queues = Queues::default();
        let (a, b, c) = (dummy_job(1, 0), dummy_job(2, 2), dummy_job(3, 0));
        queues.push(1, 0, &a, 2);
        queues.push(2, 2, &b, 2);
        queues.push(3, 0, &c, 1);
        // Class 0 drains first (groups 1 and 3 alternating), then class 2.
        let order: Vec<Arc<Job>> = std::iter::from_fn(|| queues.pop()).collect();
        assert_eq!(order.len(), 5);
        let expected = [&a, &c, &a, &b, &b];
        for (got, want) in order.iter().zip(expected) {
            assert!(Arc::ptr_eq(got, want), "pop order diverged");
        }
        assert!(queues.pop().is_none());
    }

    #[test]
    fn urgent_arrival_preempts_queued_lax_tickets() {
        let mut queues = Queues::default();
        let lax = dummy_job(7, 3);
        queues.push(7, 3, &lax, 3);
        assert!(Arc::ptr_eq(&queues.pop().unwrap(), &lax));
        // An urgent group arriving mid-drain is served before the
        // remaining lax tickets…
        let urgent = dummy_job(8, 1);
        queues.push(8, 1, &urgent, 1);
        assert!(Arc::ptr_eq(&queues.pop().unwrap(), &urgent));
        assert!(Arc::ptr_eq(&queues.pop().unwrap(), &lax));
        // …and a group re-pushed under a tighter class reschedules its
        // whole queue (latest submission wins).
        let tightened = dummy_job(7, 0);
        queues.push(7, 0, &tightened, 1);
        let nine = dummy_job(9, 1);
        queues.push(9, 1, &nine, 1);
        assert!(
            Arc::ptr_eq(&queues.pop().unwrap(), &lax),
            "group 7's FIFO serves its older ticket first, now at class 0"
        );
        assert!(Arc::ptr_eq(&queues.pop().unwrap(), &tightened));
        assert!(Arc::ptr_eq(&queues.pop().unwrap(), &nine));
        assert!(queues.pop().is_none());
    }

    #[test]
    fn deadline_class_is_scoped_and_never_changes_results() {
        assert_eq!(current_deadline_class(), 0);
        let expected: Vec<usize> = (0..31).map(|i| i * 13).collect();
        with_deadline_class(2, || {
            assert_eq!(current_deadline_class(), 2);
            assert_eq!(parallel_map_indexed(31, 3, |i| i * 13), expected);
            with_deadline_class(5, || assert_eq!(current_deadline_class(), 5));
            assert_eq!(current_deadline_class(), 2);
            // Stripe bodies inherit the submitter's class, so nested
            // submissions keep the tenant's SLO tier.
            let seen = parallel_map_indexed(6, 3, |_| current_deadline_class());
            assert!(seen.iter().all(|&c| c == 2), "stripe lost class: {seen:?}");
        });
        assert_eq!(current_deadline_class(), 0);
    }

    #[test]
    fn lax_class_jobs_still_complete_under_urgent_load() {
        // The submitter always claims its own stripes, so a lax job
        // finishes even while urgent groups keep the helpers busy.
        let out = with_deadline_class(250, || parallel_map_indexed(64, 8, |i| i + 1));
        assert_eq!(out, (0..64).map(|i| i + 1).collect::<Vec<_>>());
    }

    #[test]
    fn private_pool_any_size_matches() {
        let expected: Vec<usize> = (0..23).map(|i| i ^ 5).collect();
        for background in [0, 1, 3] {
            let pool = WorkerPool::new(background);
            assert_eq!(pool.background_threads(), background);
            let mut slots = vec![0usize; 23];
            let cell = std::sync::Mutex::new(&mut slots);
            pool.run_stripes(4, |w| {
                for i in (w..23).step_by(4) {
                    // Keep the test simple: serialize writes via the lock.
                    cell.lock().unwrap()[i] = i ^ 5;
                }
            });
            assert_eq!(slots, expected);
        }
    }
}
