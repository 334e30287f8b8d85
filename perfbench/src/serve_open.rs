//! `serve_open`: independent AuTO-style flows arriving open-loop at a
//! real-clock fabric (1 scenario × 1 shard, `max_batch` 256, `max_delay`
//! 200 µs) that serves a 2000-leaf tree over the 143-feature lRLA state.
//!
//! The kernel walks a row in tens of nanoseconds while a request costs
//! about a microsecond end to end, so this is where request plumbing
//! shows. The 50k rps point is deadline-dominated (batches close on
//! `max_delay`), so batching policy shows there too.

use crate::hostspeed;
use crate::ledger;
use crate::loadgen::{self, PhaseSummary};
use crate::procfs::{own_thread_cpu_ns, ThreadCpu, LOADGEN_THREAD};
use crate::report::Outcome;
use crate::stats::median;
use crate::Args;
use metis_dt::{fit, CompiledTree, Dataset, DecisionTree, Prediction, TreeConfig};
use metis_fabric::{FabricConfig, FabricResponse, Router, ScenarioSpec, TenantSpec};
use metis_flowsched::LRLA_STATE_DIM;
use metis_serve::ServeConfig;
use metis_telemetry::{Stage, Telemetry, TelemetryConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

const LEAVES: usize = 2000;
const FIT_ROWS: usize = 6000;
const POOL: usize = 1024;
const SETUPS: usize = 5;
/// Requests per burst: enough to fill batches, few enough that the queued
/// backlog (1.1 KB of features per request) stays a small share of
/// peak memory.
const BURST: usize = 20_000;
/// Bursts per second of run budget. The count, not the clock, ends the
/// run, so every run serves the same number of requests and the engine's
/// per-request records grow to the same size.
const BURSTS_PER_S: f64 = 11.0;
/// Requests per latency window (the p99 of each window needs ten
/// samples beyond it).
const WINDOW: usize = 1000;
const LOW_RPS: f64 = 50_000.0;
const HIGH_RPS: f64 = 400_000.0;
/// The latency limit of the rate ladder.
const P99_LIMIT_S: f64 = 2e-3;
/// Ladder steps are this factor apart (≤ 5%).
const LADDER_STEP: f64 = 1.03;

struct Fixture {
    tree: DecisionTree,
    pool: Vec<Vec<f64>>,
    /// `tree.predict(pool[k])`, the oracle every response is checked by.
    oracle: Vec<Prediction>,
}

fn fixture(seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let row = |rng: &mut StdRng| -> Vec<f64> {
        (0..LRLA_STATE_DIM)
            .map(|_| rng.gen_range(0.0..1.0))
            .collect()
    };
    let x: Vec<Vec<f64>> = (0..FIT_ROWS).map(|_| row(&mut rng)).collect();
    let y: Vec<usize> = x
        .iter()
        .map(|xi| ((xi[0] * 17.0 + xi[5] * 9.0 + xi[40] * 4.0) as usize) % 108)
        .collect();
    let ds = Dataset::classification(x, y, 108).expect("well-formed fixture");
    let tree = fit(
        &ds,
        &TreeConfig {
            max_leaf_nodes: LEAVES,
            ..Default::default()
        },
    )
    .expect("fixture fit");
    let pool: Vec<Vec<f64>> = (0..POOL).map(|_| row(&mut rng)).collect();
    let oracle = pool.iter().map(|x| tree.predict(x)).collect();
    Fixture { tree, pool, oracle }
}

fn router(tree: &DecisionTree, telemetry: Telemetry) -> Router {
    Router::new(
        vec![TenantSpec::new("flows")],
        vec![ScenarioSpec::new("lrla", "flows", tree.clone())],
        FabricConfig {
            serve: ServeConfig {
                max_batch: 256,
                max_delay: Duration::from_micros(200),
                // Batches run inline on the batcher. Striping them across
                // a pool worker put three busy threads (generator,
                // batcher, worker) on a two-core host, and the burst rate
                // then swung by 15% between runs instead of 5%.
                threads: 1,
                ..Default::default()
            },
            mirror_batch: 0,
            telemetry,
            ..Default::default()
        },
    )
}

fn traced_plane() -> Telemetry {
    // Room for every span of a burst, so stage sums are exact.
    Telemetry::with_config(TelemetryConfig {
        span_capacity: 1 << 20,
        ..Default::default()
    })
}

/// Responses that are missing or differ from the oracle. Request `i` of a
/// phase used `pool[(base + i) % POOL]`.
fn failures(fx: &Fixture, base: usize, sent: usize, responses: &[FabricResponse]) -> u64 {
    let wrong = responses
        .iter()
        .filter(|r| r.response.prediction != fx.oracle[(base + r.id as usize) % POOL])
        .count();
    (sent.saturating_sub(responses.len()) + wrong) as u64
}

/// Counters a workload accumulates across phases.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// Client-side layer timings of one traced burst.
#[derive(Default)]
struct ClientTimes {
    submit_ns: u64,
    collect_cpu_ns: u64,
    region_wall_s: f64,
    cpu: std::collections::BTreeMap<&'static str, u64>,
}

/// Run the whole measured part of a run on one load-generator thread, so
/// every phase's load comes from the same thread.
fn on_loadgen<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name(LOADGEN_THREAD.into())
            .spawn_scoped(s, f)
            .expect("spawn load generator")
            .join()
            .expect("load generator panicked")
    })
}

/// Submit `n` requests at once and collect them: the queue drain rate
/// with full batches. Returns requests/s; with `traced`, also the client
/// timers and per-thread CPU of the region.
fn burst(
    fx: &Fixture,
    router: &Router,
    n: usize,
    base: usize,
    traced: bool,
    tally: &mut Tally,
) -> (f64, ClientTimes) {
    let mut handle = router.handle();
    let mut times = ClientTimes::default();
    let cpu0 = traced.then(ThreadCpu::snapshot);
    let start = Instant::now();
    for i in 0..n {
        // Building the owned feature vector the API takes is part of the
        // submit layer.
        if traced {
            let t = Instant::now();
            handle.submit(0, (i % 101) as u64, fx.pool[(base + i) % POOL].clone());
            times.submit_ns += t.elapsed().as_nanos() as u64;
        } else {
            handle.submit(0, (i % 101) as u64, fx.pool[(base + i) % POOL].clone());
        }
    }
    let c0 = if traced { own_thread_cpu_ns() } else { 0 };
    let responses = handle.collect();
    let wall = start.elapsed().as_secs_f64();
    if let Some(cpu0) = cpu0 {
        times.collect_cpu_ns = own_thread_cpu_ns() - c0;
        times.cpu = ThreadCpu::snapshot().since(&cpu0);
        times.region_wall_s = wall;
    }
    tally.attempted += n as u64;
    tally.failed += failures(fx, base, n, &responses);
    (n as f64 / wall, times)
}

/// One open-loop Poisson phase at `rate` for `duration_s`.
fn open_phase(
    fx: &Fixture,
    router: &Router,
    rate: f64,
    duration_s: f64,
    rng: &mut StdRng,
    tally: &mut Tally,
) -> PhaseSummary {
    let n = ((rate * duration_s) as usize).max(WINDOW);
    let due = loadgen::poisson_schedule(rate, n, rng);
    let base = rng.gen_range(0..POOL);
    let mut handle = router.handle();
    let sent = loadgen::drive(
        &due,
        |i| fx.pool[(base + i) % POOL].clone(),
        |features| {
            let id = handle.outstanding();
            handle.submit(0, (id % 101) as u64, features);
        },
    );
    let responses = handle.collect();
    tally.attempted += n as u64;
    tally.failed += failures(fx, base, n, &responses);
    // A missing answer counts as failed above; it has no latency, so the
    // phase is summarised over the requests that were answered.
    let pick = |v: &[f64]| -> Vec<f64> { responses.iter().map(|r| v[r.id as usize]).collect() };
    let engine: Vec<f64> = responses.iter().map(|r| r.response.latency_s).collect();
    loadgen::summarize(&pick(&due), &pick(&sent), &engine, WINDOW)
}

/// Median of `f` over `reps` timed windows of `iters` calls, in ns per call.
fn ns_per_call(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let per: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, fx) = hostspeed::median_setup(SETUPS, || fixture(args.seed));
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5EED);
    let mut tally = Tally::default();
    let budget = args.seconds;

    if !args.trace {
        // The untraced run times only bursts. The open-loop latencies are
        // deadline- and wake-up-bound, which no reference job can correct:
        // on a shared host the p50 at 50k rps rose by a third, and at
        // times many-fold, for minutes on end, so the traced run reports
        // the latencies instead.
        let drains_ms = on_loadgen(|| {
            let r = router(&fx.tree, Telemetry::off());
            burst(&fx, &r, BURST / 2, 0, false, &mut tally); // warm-up
            let bursts = ((budget * BURSTS_PER_S) as usize).max(3);
            let mut drains_ms = Vec::new();
            for _ in 0..bursts {
                let base = rng.gen_range(0..POOL);
                let bracket = hostspeed::Bracket::open();
                let rate = burst(&fx, &r, BURST, base, false, &mut tally).0;
                drains_ms.push(bracket.close(BURST as f64 / rate) * 1e3);
            }
            r.shutdown();
            drains_ms
        });
        let drain_ms = median(&drains_ms);
        out.set("throughput_per_s", BURST as f64 / (drain_ms * 1e-3));
        out.set("p50_ms", drain_ms);
    } else {
        on_loadgen(|| traced_run(&fx, budget, &mut rng, &mut tally, &mut out));
    }
    out.set("setup_s", setup_s);
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.checks_passed = true;
    out
}

/// Per-request layer costs of one traced burst.
struct BurstLedger {
    submit_ns: f64,
    collect_ns: f64,
    batcher_ns: f64,
    busy_frac: f64,
    form_ns: f64,
    kernel_ns: f64,
    account_ns: f64,
    closure_pct: f64,
}

fn traced_run(fx: &Fixture, budget: f64, rng: &mut StdRng, tally: &mut Tally, out: &mut Outcome) {
    // Burst pairs: untraced vs traced (telemetry plane + client timers +
    // per-thread CPU), interleaved so host drift hits both sides.
    let mut off_rates = Vec::new();
    let mut on_rates = Vec::new();
    let mut ledgers: Vec<BurstLedger> = Vec::new();
    let t = Instant::now();
    while off_rates.len() < 3 || t.elapsed().as_secs_f64() < 0.3 * budget {
        let base = rng.gen_range(0..POOL);
        let untraced = |tally: &mut Tally| {
            let r = router(&fx.tree, Telemetry::off());
            burst(fx, &r, BURST / 5, base, false, tally); // warm-up
            let rate = burst(fx, &r, BURST, base, false, tally).0;
            r.shutdown();
            rate
        };
        // Alternate which side of the pair runs first.
        let traced_first = off_rates.len() % 2 == 1;
        if !traced_first {
            off_rates.push(untraced(tally));
        }

        let plane = traced_plane();
        let r = router(&fx.tree, plane.clone());
        burst(fx, &r, BURST / 5, base, false, tally);
        let spans_before = shard_stage_sums(&plane);
        let (rate, times) = burst(fx, &r, BURST, base, true, tally);
        let spans = shard_stage_sums(&plane);
        r.shutdown();
        on_rates.push(rate);
        if traced_first {
            off_rates.push(untraced(tally));
        }
        let n = BURST as f64;
        let cpu = |class: &str| times.cpu.get(class).copied().unwrap_or(0) as f64 / n;
        let stage = |i: usize| (spans[i] - spans_before[i]) * 1e9 / n;
        let submit_ns = times.submit_ns as f64 / n;
        let collect_ns = times.collect_cpu_ns as f64 / n;
        let all_cpu_ns: f64 = times.cpu.values().map(|&v| v as f64 / n).sum();
        ledgers.push(BurstLedger {
            submit_ns,
            collect_ns,
            batcher_ns: cpu("batcher"),
            busy_frac: cpu("batcher") * n * 1e-9 / times.region_wall_s,
            form_ns: stage(0),
            kernel_ns: stage(1),
            account_ns: stage(2),
            // Layers timed by their own instruments (client timers,
            // per-thread CPU) against the whole process's CPU.
            closure_pct: ledger::closure_pct(
                &[submit_ns, collect_ns, cpu("batcher"), cpu("pool")],
                all_cpu_ns,
            ),
        });
    }
    let col = |f: fn(&BurstLedger) -> f64| median(&ledgers.iter().map(f).collect::<Vec<f64>>());
    let capacity = median(&off_rates);
    out.set(
        "tracing_overhead_pct",
        ledger::overhead_pct(1.0 / capacity, 1.0 / median(&on_rates)),
    );
    out.set("fabric.submit_ns", col(|l| l.submit_ns));
    out.set("fabric.collect_ns", col(|l| l.collect_ns));
    out.set("serve.batcher_cpu_ns", col(|l| l.batcher_ns));
    out.set("serve.batcher_busy_frac", col(|l| l.busy_frac));
    out.set("serve.form_ns", col(|l| l.form_ns));
    out.set("serve.kernel_ns", col(|l| l.kernel_ns));
    out.set("serve.account_ns", col(|l| l.account_ns));
    out.set(
        "serve.unattributed_ns",
        col(|l| l.batcher_ns - l.form_ns - l.kernel_ns - l.account_ns),
    );
    out.set("ledger_closure_pct", col(|l| l.closure_pct));

    // The fixed-rate points, untraced, then the loaded one again on an
    // enabled plane for the queue-wait sketch and batch sizes. The tail
    // at 50k rps is reported here rather than as an end-to-end figure:
    // it is the size of the host's scheduling stalls, which vary by half
    // from minute to minute on a shared host.
    let r = router(&fx.tree, Telemetry::off());
    let low = open_phase(fx, &r, LOW_RPS, 0.1 * budget, rng, tally);
    out.set("serve_p50_us_at_50k", low.p50_s * 1e6);
    out.set("serve_p99_us_at_50k", low.p99_s * 1e6);
    let high = open_phase(fx, &r, HIGH_RPS, 0.15 * budget, rng, tally);
    out.set("serve_p50_us_at_400k", high.p50_s * 1e6);
    out.set("serve_p99_us_at_400k", high.p99_s * 1e6);
    out.set("loadgen.late_us_p99", high.late_p99_s * 1e6);
    out.set("loadgen.late_us_max", high.late_max_s * 1e6);
    out.set("loadgen.achieved_frac", high.achieved_frac);
    out.set(
        "serve_max_rps_p99_2ms",
        ladder(fx, &r, capacity, 0.25 * budget, rng, tally),
    );
    r.shutdown();

    let plane = Telemetry::enabled();
    let r = router(&fx.tree, plane.clone());
    open_phase(fx, &r, HIGH_RPS, 0.1 * budget, rng, tally);
    let scope = shard_scope(&plane);
    let wait = scope.stage_sketch(Stage::QueueWait);
    out.set(
        "serve.queue_wait_us_p50",
        wait.quantile(0.5).unwrap_or(0.0) * 1e6,
    );
    out.set(
        "serve.queue_wait_us_p99",
        wait.quantile(0.99).unwrap_or(0.0) * 1e6,
    );
    let mean_batch = scope.served.get() as f64 / scope.batches.get().max(1) as f64;
    out.set("serve.mean_batch", mean_batch);
    out.set("serve.registry_read_ns", {
        let registry = r.registry("lrla");
        ns_per_call(9, 100_000, || {
            black_box(registry.current());
        })
    });
    r.shutdown();

    // The kernel alone, at the batch size the engine actually formed.
    let compiled = CompiledTree::compile(&fx.tree);
    let rows = (mean_batch.round() as usize).clamp(1, 256);
    let flat: Vec<f64> = fx.pool.iter().take(rows).flatten().copied().collect();
    let mut preds = vec![Prediction::Class(0); rows];
    let per_call = ns_per_call(9, (200_000 / rows).max(100), || {
        compiled.predict_batch_into(black_box(&flat), black_box(&mut preds));
    });
    for (p, want) in preds.iter().zip(&fx.oracle) {
        tally.attempted += 1;
        tally.failed += u64::from(p != want);
    }
    out.set("dt.kernel_ns_per_row", per_call / rows as f64);
}

/// Sum of span durations (seconds) per stage [form, kernel, account] over
/// the serving shard's scope.
fn shard_stage_sums(plane: &Telemetry) -> [f64; 3] {
    let mut sums = [0.0; 3];
    for span in shard_scope(plane).spans.records() {
        let i = match span.stage {
            Stage::BatchForm => 0,
            Stage::KernelCompute => 1,
            Stage::Collect => 2,
            _ => continue,
        };
        sums[i] += span.dur_s;
    }
    sums
}

fn shard_scope(plane: &Telemetry) -> std::sync::Arc<metis_telemetry::ShardTelemetry> {
    plane
        .scopes()
        .into_iter()
        .find(|s| s.shard() == 0)
        .expect("the shard registered a scope")
}

/// Highest rate on a ladder of steps ≤ 5% apart whose windowed p99 stays
/// within [`P99_LIMIT_S`] while the achieved rate keeps up with ≥ 98% of
/// the offered one. Climbs from a third of the burst capacity and stops
/// after two failing steps in a row or past the capacity.
fn ladder(
    fx: &Fixture,
    router: &Router,
    capacity: f64,
    budget_s: f64,
    rng: &mut StdRng,
    tally: &mut Tally,
) -> f64 {
    let mut rate = capacity / 3.0;
    let mut best = 0.0f64;
    let mut misses = 0;
    let t = Instant::now();
    while misses < 2 && rate <= capacity * 1.1 && t.elapsed().as_secs_f64() < budget_s {
        let step_s = (20.0 * WINDOW as f64 / rate).max(0.05);
        let s = open_phase(fx, router, rate, step_s, rng, tally);
        if s.p99_s <= P99_LIMIT_S && s.achieved_frac >= 0.98 {
            best = best.max(rate);
            misses = 0;
        } else {
            misses += 1;
        }
        rate *= LADDER_STEP;
    }
    best
}
