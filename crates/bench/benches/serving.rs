//! Online-serving benchmarks behind the `metis_serve` subsystem: batched
//! compiled-tree throughput vs the single-request arena walk, registry
//! read cost, and the micro-batching engine under open-loop load —
//! including a sustained-load hot-swap audit (zero drops, every response
//! bit-identical to its epoch's sequential oracle). Emits
//! `BENCH_serving.json` at the workspace root for the `bench_guard` CI
//! regression gate (only the compute-bound `per_sec` metrics are gated;
//! scheduling-sensitive engine/latency numbers are reported ungated).

use metis_bench::measure::{median, median_rate, Windows};
use metis_dt::{
    fit, prune_to_leaves, CompiledTree, Dataset, DecisionTree, Forest, Prediction, TreeConfig,
};
use metis_fabric::{FabricConfig, PromotePolicy, Router, ScenarioSpec, ShadowConfig, TenantSpec};
use metis_flowsched::LRLA_STATE_DIM;
use metis_serve::clock::DEFAULT_SPIN_TRIM;
use metis_serve::{
    drive_open_loop, ArrivalProcess, ModelRegistry, Response, ServeConfig, TreeServer,
};
use metis_telemetry::{LogSketch, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH_SIZES: [usize; 3] = [1, 32, 256];

/// The bench fixture: a paper-scale serving tree, its compiled
/// form, and a fixed pool of request feature vectors (request `k` uses
/// `pool[k % len]`, so swap audits can regenerate any request's features
/// from its id alone).
struct Fixture {
    tree: DecisionTree,
    compiled: CompiledTree,
    pool: Vec<Vec<f64>>,
}

fn fixture() -> Fixture {
    let mut rng = StdRng::seed_from_u64(23);
    // A 2000-leaf tree over the lRLA feature space (content does not
    // affect traversal cost; only depth/branching does).
    let n = 6000;
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..LRLA_STATE_DIM)
                .map(|_| rng.gen_range(0.0..1.0))
                .collect()
        })
        .collect();
    let y: Vec<usize> = x
        .iter()
        .map(|xi| ((xi[0] * 17.0 + xi[5] * 9.0 + xi[40] * 4.0) as usize) % 108)
        .collect();
    let ds = Dataset::classification(x, y, 108).unwrap();
    let tree = fit(
        &ds,
        &TreeConfig {
            max_leaf_nodes: 2000,
            ..Default::default()
        },
    )
    .unwrap();
    let compiled = CompiledTree::compile(&tree);
    let pool = (0..1024)
        .map(|_| {
            (0..LRLA_STATE_DIM)
                .map(|_| rng.gen_range(0.0..1.0))
                .collect()
        })
        .collect();
    Fixture {
        tree,
        compiled,
        pool,
    }
}

/// Median rate over this bench's historical window schedule (nine 100ms
/// windows, one warmup) through the shared [`metis_bench::measure`] loop.
fn rows_per_sec(rows_per_call: usize, f: impl FnMut()) -> f64 {
    median_rate(Windows::serving(), rows_per_call, f)
}

/// Outcome of one open-loop engine run plus its response audit.
struct EngineRun {
    served: usize,
    wall_s: f64,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
    mean_batch: f64,
    mismatches: usize,
}

fn audit(responses: &[Response], sources: &[DecisionTree], pool: &[Vec<f64>]) -> usize {
    responses
        .iter()
        .filter(|r| {
            let oracle = sources[r.epoch as usize].predict(&pool[r.id as usize % pool.len()]);
            match (r.prediction, oracle) {
                (Prediction::Class(a), Prediction::Class(b)) => a != b,
                (Prediction::Value(a), Prediction::Value(b)) => a.to_bits() != b.to_bits(),
                _ => true,
            }
        })
        .count()
}

fn run_engine(
    sources: &[DecisionTree],
    pool: &[Vec<f64>],
    arrivals: &ArrivalProcess,
    time_scale: f64,
    publish_mid_run: bool,
) -> (EngineRun, u64, f64) {
    let registry = Arc::new(ModelRegistry::new(sources[0].clone()));
    let server = TreeServer::start(
        Arc::clone(&registry),
        ServeConfig {
            max_batch: 256,
            max_delay: Duration::from_micros(200),
            ..Default::default()
        },
    );
    let mut handle = server.handle();
    let start = Instant::now();
    let mut publish_max_us = 0.0f64;
    let (responses, swaps) = std::thread::scope(|scope| {
        let publisher = publish_mid_run.then(|| {
            let registry = Arc::clone(&registry);
            let trees = &sources[1..];
            scope.spawn(move || {
                let mut max_us = 0.0f64;
                for tree in trees {
                    std::thread::sleep(Duration::from_millis(15));
                    let t0 = Instant::now();
                    registry.publish(tree.clone());
                    max_us = max_us.max(t0.elapsed().as_secs_f64() * 1e6);
                }
                max_us
            })
        });
        drive_open_loop(
            server.clock(),
            arrivals,
            time_scale,
            DEFAULT_SPIN_TRIM,
            |k| {
                handle.submit(pool[k as usize % pool.len()].clone());
            },
        );
        let responses = handle.collect();
        if let Some(p) = publisher {
            publish_max_us = p.join().expect("publisher panicked");
        }
        (responses, registry.swap_count())
    });
    let wall_s = start.elapsed().as_secs_f64();
    let report = server.shutdown();
    // Same percentile convention as the engine's own report: the shared
    // metis_serve::summarize, not a local re-implementation.
    let summary =
        metis_serve::summarize(&responses.iter().map(|r| r.latency_s).collect::<Vec<f64>>());
    let run = EngineRun {
        served: responses.len(),
        wall_s,
        p50_us: summary.p50_s * 1e6,
        p99_us: summary.p99_s * 1e6,
        max_us: summary.max_s * 1e6,
        mean_batch: report.mean_batch,
        mismatches: audit(&responses, sources, pool),
    };
    assert_eq!(report.delivery_failures, 0, "responses went undelivered");
    (run, swaps, publish_max_us)
}

/// Engine-level ensemble serving A/B: a k-tree majority-vote forest
/// behind **one** `TreeServer` (each flush walks all members block-major
/// over one micro-batch) vs the one-at-a-time shape it replaces — k
/// single-tree servers all fed the same requests, majority vote on the
/// client. Both sides do k tree-walks per request and drain a full burst;
/// the returned rates are requests/s (median of `runs`). Every run
/// cross-checks a response sample bit-exactly against the offline
/// [`Forest`] oracle.
fn forest_serve_rates(
    members: &[DecisionTree],
    pool: &[Vec<f64>],
    requests: usize,
    runs: usize,
) -> (f64, f64) {
    let k = members.len();
    let oracle = Forest::from_trees(members).expect("ensemble members share the serving schema");
    let n_classes = 108;
    let cfg = ServeConfig {
        max_batch: 256,
        max_delay: Duration::from_micros(200),
        ..Default::default()
    };
    let ensemble_rates: Vec<f64> = (0..runs)
        .map(|_| {
            let model = Forest::from_trees(members).expect("coherent ensemble");
            let server = TreeServer::start(Arc::new(ModelRegistry::new(model)), cfg.clone());
            let mut handle = server.handle();
            let start = Instant::now();
            for r in 0..requests {
                handle.submit(pool[r % pool.len()].clone());
            }
            let responses = handle.collect();
            let rate = requests as f64 / start.elapsed().as_secs_f64();
            assert_eq!(
                responses.len(),
                requests,
                "ensemble engine dropped requests"
            );
            for resp in responses.iter().step_by(97) {
                let want = oracle.predict(&pool[resp.id as usize % pool.len()]);
                assert_eq!(
                    resp.prediction, want,
                    "served ensemble vote diverged from the offline forest"
                );
            }
            server.shutdown();
            rate
        })
        .collect();
    let naive_rates: Vec<f64> = (0..runs)
        .map(|_| {
            let servers: Vec<TreeServer> = members
                .iter()
                .map(|t| TreeServer::start(Arc::new(ModelRegistry::new(t.clone())), cfg.clone()))
                .collect();
            let mut handles: Vec<_> = servers.iter().map(|s| s.handle()).collect();
            let start = Instant::now();
            for r in 0..requests {
                for handle in handles.iter_mut() {
                    handle.submit(pool[r % pool.len()].clone());
                }
            }
            // `collect` answers in id order, so index r is request r on every lane.
            let lanes: Vec<Vec<Response>> = handles.iter_mut().map(|h| h.collect()).collect();
            let mut votes = vec![0u32; n_classes];
            let mut voted = Vec::with_capacity(requests);
            for r in 0..requests {
                votes.fill(0);
                for lane in &lanes {
                    votes[lane[r].prediction.class()] += 1;
                }
                let best = votes
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                    .unwrap()
                    .0;
                voted.push(Prediction::Class(best));
            }
            let rate = requests as f64 / start.elapsed().as_secs_f64();
            black_box(&voted);
            for lane in &lanes {
                assert_eq!(lane.len(), requests, "a member server dropped requests");
            }
            for r in (0..requests).step_by(97) {
                assert_eq!(
                    voted[r],
                    oracle.predict(&pool[r % pool.len()]),
                    "client-side vote diverged from the offline forest"
                );
            }
            drop(handles);
            for server in servers {
                server.shutdown();
            }
            rate
        })
        .collect();
    assert_eq!(k, oracle.n_trees());
    (median(ensemble_rates), median(naive_rates))
}

/// Wall time each telemetry and health-observer A/B burst lasts.
const AB_BURST_S: f64 = 0.25;

fn fabric_cfg() -> FabricConfig {
    FabricConfig {
        serve: ServeConfig {
            max_batch: 256,
            max_delay: Duration::from_micros(200),
            ..Default::default()
        },
        mirror_batch: 0,
        ..Default::default()
    }
}

/// One burst-saturated fabric run: `scenarios` models behind one router,
/// each split into `shards` session-affine micro-batchers, everything
/// submitted at once (the queue drain rate with full batches). Returns
/// requests/s.
/// Cumulative CPU seconds this process has consumed across all live
/// threads, summed from `/proc/self/task/*/schedstat` (field 0 =
/// nanoseconds actually executed). CPU time is immune to the
/// descheduling noise a shared host injects into wall-clock rates —
/// blocked threads stop accruing — which makes it the right clock for
/// small *relative* costs like the telemetry plane's overhead, and
/// schedstat's ns resolution (vs the 10 ms ticks of `/proc/self/stat`)
/// resolves sub-percent deltas over sub-second regions. Falls back to
/// wall time when `/proc` is unavailable (non-Linux dev box).
fn process_cpu_s() -> f64 {
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        let mut total_ns = 0.0f64;
        let mut seen = false;
        for entry in tasks.flatten() {
            if let Ok(s) = std::fs::read_to_string(entry.path().join("schedstat")) {
                if let Some(Ok(ns)) = s.split_whitespace().next().map(|f| f.parse::<f64>()) {
                    total_ns += ns;
                    seen = true;
                }
            }
        }
        if seen {
            return total_ns * 1e-9;
        }
    }
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// One burst through the fabric: returns `(requests/s, cpu_s)` where
/// `cpu_s` is the process CPU consumed inside the submit→collect
/// region only (setup/compile/teardown excluded).
fn fabric_burst_once(
    tree: &DecisionTree,
    pool: &[Vec<f64>],
    scenarios: usize,
    shards: usize,
    requests: usize,
    telemetry: Telemetry,
) -> (f64, f64) {
    let router = Router::new(
        vec![TenantSpec::new("bench")],
        (0..scenarios)
            .map(|i| ScenarioSpec::new(format!("s{i}"), "bench", tree.clone()).shards(shards))
            .collect(),
        FabricConfig {
            telemetry,
            ..fabric_cfg()
        },
    );
    let mut handle = router.handle();
    let cpu_start = process_cpu_s();
    let start = Instant::now();
    for k in 0..requests {
        handle.submit(
            k % scenarios,
            (k % 101) as u64,
            pool[k % pool.len()].clone(),
        );
    }
    let responses = handle.collect();
    let rate = requests as f64 / start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu_start;
    assert_eq!(responses.len(), requests);
    drop(handle);
    let report = router.shutdown();
    assert_eq!(report.served, requests as u64, "fabric dropped requests");
    (rate, cpu_s)
}

/// Median burst throughput (requests/s) of one fabric shape with the
/// telemetry plane off — the fabric counterpart of `engine_capacity_rps`.
fn fabric_burst_rps(
    tree: &DecisionTree,
    pool: &[Vec<f64>],
    scenarios: usize,
    shards: usize,
    requests: usize,
    runs: usize,
) -> f64 {
    let rates: Vec<f64> = (0..runs)
        .map(|_| fabric_burst_once(tree, pool, scenarios, shards, requests, Telemetry::off()).0)
        .collect();
    median(rates)
}

/// Telemetry-plane A/B on the burst-saturated 1-shard fabric: identical
/// runs with the plane enabled vs disabled, interleaved pair by pair so
/// host drift lands on both sides equally. Returns
/// `(enabled_rps, disabled_rps, overhead_pct)`. The rps figures are
/// wall-clock medians (informational); the gated overhead compares the
/// **minimum process CPU time** each side achieved across its runs —
/// on a shared/virtualized host, wall-clock rates swing ±50% with OS
/// scheduling of the submit vs batcher thread and even CPU time is
/// inflated unpredictably by steal, but the fastest run of each side
/// approaches the interference-free cost, which is exactly what the
/// plane adds to. Clamped at 0: an enabled side measuring *cheaper* is
/// residual noise, not a negative cost. Every enabled run also audits
/// the plane itself: one scope per shard plus the control scope, and
/// the scoped served counters must cover every request.
fn telemetry_overhead(
    tree: &DecisionTree,
    pool: &[Vec<f64>],
    requests: usize,
    pairs: usize,
) -> (f64, f64, f64) {
    let (mut on_rates, mut off_rates) = (Vec::new(), Vec::new());
    let (mut on_cpu, mut off_cpu) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..pairs {
        let (off, off_c) = fabric_burst_once(tree, pool, 1, 1, requests, Telemetry::off());
        let plane = Telemetry::enabled();
        let (on, on_c) = fabric_burst_once(tree, pool, 1, 1, requests, plane.clone());
        let scopes = plane.scopes();
        assert_eq!(scopes.len(), 2, "1 shard + 1 control scope");
        let served: u64 = scopes.iter().map(|s| s.served.get()).sum();
        assert_eq!(served, requests as u64, "telemetry lost requests");
        off_rates.push(off);
        on_rates.push(on);
        off_cpu = off_cpu.min(off_c);
        on_cpu = on_cpu.min(on_c);
    }
    let overhead_pct = ((on_cpu - off_cpu) / off_cpu.max(1e-12) * 100.0).max(0.0);
    (median(on_rates), median(off_rates), overhead_pct)
}

/// One burst through a telemetry-enabled 1-shard fabric, optionally with
/// a live health observer scraping it from a side thread (ticking every
/// ~5 ms — three orders of magnitude harder than a real scraper's
/// 10–15 s cadence, while keeping the measured figure about per-tick
/// cost rather than a pathological tick *rate*). Returns
/// `(requests/s, cpu_s)`; the scraper thread's CPU is inside the
/// measured region, so the cost of snapshotting sketches, updating
/// rings, and evaluating burn/drift monitors all lands on the observed
/// side.
fn obs_burst_once(
    tree: &DecisionTree,
    pool: &[Vec<f64>],
    requests: usize,
    observe: bool,
) -> (f64, f64) {
    use std::sync::atomic::{AtomicBool, Ordering};

    let plane = Telemetry::enabled();
    let router = Router::new(
        vec![TenantSpec {
            name: "bench".into(),
            deadline_class: 0,
            // A finite budget the burst actually brushes against, so the
            // burn monitors do real window arithmetic instead of
            // short-circuiting on infinity.
            p99_budget_s: 1e-3,
        }],
        vec![ScenarioSpec::new("s0", "bench", tree.clone())],
        FabricConfig {
            telemetry: plane,
            ..fabric_cfg()
        },
    );
    let observer = observe.then(|| {
        Arc::new(router.observer(metis_obs::ObserverConfig {
            tick_s: 5e-3,
            ..Default::default()
        }))
    });
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = observer.as_ref().map(|obs| {
        let obs = Arc::clone(obs);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                obs.tick_now();
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    });
    let mut handle = router.handle();
    let cpu_start = process_cpu_s();
    let start = Instant::now();
    for k in 0..requests {
        handle.submit(0, (k % 101) as u64, pool[k % pool.len()].clone());
    }
    let responses = handle.collect();
    let rate = requests as f64 / start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    if let Some(t) = scraper {
        t.join().expect("scraper thread");
    }
    let cpu_s = process_cpu_s() - cpu_start;
    assert_eq!(responses.len(), requests);
    if let Some(obs) = &observer {
        // A final tick so the report covers the burst's tail, then audit
        // the health plane end to end: it observed real traffic.
        obs.tick_now();
        let health = obs.health_report();
        assert!(health.ticks > 0, "scraper never ticked");
        let served: u64 = health.tenants.iter().map(|t| t.served_total).sum();
        assert_eq!(served, requests as u64, "observer missed traffic");
    }
    drop(handle);
    let report = router.shutdown();
    assert_eq!(report.served, requests as u64, "fabric dropped requests");
    (rate, cpu_s)
}

/// Health-observer A/B on the telemetry-enabled burst fabric: identical
/// runs with and without a live observer + scraper thread, interleaved
/// pair by pair. Same minimum-CPU discipline as [`telemetry_overhead`]
/// (wall rates are informational; the gated figure compares each side's
/// interference-free floor). Returns `(observed_rps, overhead_pct)` —
/// the marginal cost of the health plane *on top of* the telemetry
/// plane, gated by bench_guard's absolute `overhead_pct` ceiling.
fn obs_overhead(
    tree: &DecisionTree,
    pool: &[Vec<f64>],
    requests: usize,
    pairs: usize,
) -> (f64, f64) {
    let mut on_rates = Vec::new();
    let (mut on_cpu, mut off_cpu) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..pairs {
        let (_, off_c) = obs_burst_once(tree, pool, requests, false);
        let (on, on_c) = obs_burst_once(tree, pool, requests, true);
        on_rates.push(on);
        off_cpu = off_cpu.min(off_c);
        on_cpu = on_cpu.min(on_c);
    }
    let overhead_pct = ((on_cpu - off_cpu) / off_cpu.max(1e-12) * 100.0).max(0.0);
    (median(on_rates), overhead_pct)
}

/// Two tenants in different deadline classes flooding the fabric from
/// separate client threads: the per-tenant p99s out of the merged
/// `FabricReport` show how far the SLO scheduler's class ordering reaches
/// under contention. Flushes are forced onto the pool (`threads: 2`,
/// narrow stripes) so the deadline classes actually steer ticket order —
/// with `threads: 0` a 1-core host resolves to inline execution and the
/// class is inert. Median of `iterations` runs per tenant: a single p99
/// on a contended host is mostly OS-scheduler noise. (The *deterministic*
/// class-ordering proof is the pool's queue unit tests; this measurement
/// is the macro-level demonstration, honest about hardware limits.)
fn fabric_contention_p99_us(
    tree: &DecisionTree,
    pool: &[Vec<f64>],
    requests: usize,
    iterations: usize,
) -> (f64, f64) {
    let (mut urgent_runs, mut lax_runs) = (Vec::new(), Vec::new());
    for _ in 0..iterations {
        let router = Router::new(
            vec![
                TenantSpec {
                    name: "urgent".into(),
                    deadline_class: 0,
                    p99_budget_s: f64::INFINITY,
                },
                TenantSpec {
                    name: "lax".into(),
                    deadline_class: 4,
                    p99_budget_s: f64::INFINITY,
                },
            ],
            vec![
                ScenarioSpec::new("urgent-s", "urgent", tree.clone()),
                ScenarioSpec::new("lax-s", "lax", tree.clone()),
            ],
            FabricConfig {
                serve: ServeConfig {
                    max_batch: 256,
                    max_delay: Duration::from_micros(200),
                    threads: 2,
                    stripe_rows: 32,
                    ..Default::default()
                },
                mirror_batch: 0,
                ..Default::default()
            },
        );
        std::thread::scope(|scope| {
            for scenario in 0..2usize {
                let mut handle = router.handle();
                scope.spawn(move || {
                    for k in 0..requests {
                        handle.submit(scenario, (k % 53) as u64, pool[k % pool.len()].clone());
                    }
                    assert_eq!(handle.collect().len(), requests);
                });
            }
        });
        let report = router.shutdown();
        assert_eq!(report.served, 2 * requests as u64);
        let p99 = |name: &str| report.tenant(name).expect("tenant reported").latency.p99_s * 1e6;
        urgent_runs.push(p99("urgent"));
        lax_runs.push(p99("lax"));
    }
    (median(urgent_runs), median(lax_runs))
}

/// Shadow serving under sustained load: an identical candidate must
/// promote with a clean audit; a perturbed candidate must be rejected
/// with its mismatches on the record. Returns
/// `(mirrored_rows, mismatch_rows, promotions, rejected)`.
fn fabric_shadow_audit(
    tree: &DecisionTree,
    pool: &[Vec<f64>],
    requests: usize,
) -> (u64, u64, usize, u64) {
    let router = Router::new(
        vec![TenantSpec::new("bench")],
        vec![
            ScenarioSpec::new("s", "bench", tree.clone()).shadow(ShadowConfig {
                audit_rows: 2048,
                policy: PromotePolicy::OnZeroDiff,
            }),
        ],
        FabricConfig {
            mirror_batch: 64,
            ..fabric_cfg()
        },
    );
    let mut handle = router.handle();
    // Phase 1: a bit-identical refresh, audited on live traffic.
    router.stage("s", tree.clone());
    for k in 0..requests / 2 {
        handle.submit(0, (k % 97) as u64, pool[k % pool.len()].clone());
    }
    handle.collect();
    assert_eq!(
        router.registry("s").epoch(),
        1,
        "clean candidate must promote"
    );
    // Phase 2: a behaviourally different candidate must not go live.
    router.stage("s", prune_to_leaves(tree, 300));
    for k in 0..requests / 2 {
        handle.submit(0, (k % 97) as u64, pool[k % pool.len()].clone());
    }
    handle.collect();
    assert_eq!(
        router.registry("s").epoch(),
        1,
        "dirty candidate must be rejected"
    );
    drop(handle);
    let report = router.shutdown();
    let shadow = &report.scenarios[0].shadow;
    assert_eq!(shadow.promotions.len(), 1);
    assert_eq!(shadow.promotions[0].mismatches, 0);
    assert_eq!(shadow.rejected, 1);
    assert!(
        shadow.mismatch_rows > 0,
        "perturbed audit must surface diffs"
    );
    (
        shadow.mirrored_rows,
        shadow.mismatch_rows,
        shadow.promotions.len(),
        shadow.rejected,
    )
}

/// Measured summary for the JSON artifact consumed by the CI guard.
fn main() {
    let Fixture {
        tree,
        compiled,
        pool,
    } = &fixture();

    // Backend throughput: the arena walk the seed deployed vs the
    // compiled batch walk the serving engine flushes.
    let tree_single_per_sec = rows_per_sec(pool.len(), || {
        for x in pool {
            black_box(tree.predict(black_box(x)));
        }
    });
    let compiled_single_per_sec = rows_per_sec(pool.len(), || {
        for x in pool {
            black_box(compiled.predict(black_box(x)));
        }
    });
    let batch_rates: Vec<f64> = BATCH_SIZES
        .iter()
        .map(|&batch| {
            let flat: Vec<f64> = pool.iter().take(batch).flatten().copied().collect();
            rows_per_sec(batch, || {
                black_box(compiled.predict_batch(black_box(&flat)));
            })
        })
        .collect();

    // The lane kernel in isolation: `predict_batch_into` with a
    // preallocated output buffer, so the number is the walk itself rather
    // than per-call result allocation.
    let flat256: Vec<f64> = pool.iter().take(256).flatten().copied().collect();
    let mut out256 = vec![Prediction::Class(0); 256];
    let kernel_rows_per_sec_b256 = rows_per_sec(256, || {
        compiled.predict_batch_into(black_box(&flat256), black_box(&mut out256));
    });

    // Forest evaluation, 8 trees over one schema: the block-major
    // evaluator (all trees walk one 16-row block before the batch
    // advances), in *rows* per second (each row costs 8 tree-walks).
    // Measured at 16384 rows (19 MB of features, past L2 and most of
    // L3): that is the regime ensemble amortization targets, because
    // block-major touches each 16-row block once and keeps it in L1
    // across all 8 trees instead of re-streaming the batch per tree.
    let forest = Forest::from_compiled(
        std::iter::once(compiled.clone())
            .chain(
                [1750, 1500, 1250, 1000, 800, 600, 400]
                    .iter()
                    .map(|&l| CompiledTree::compile(&prune_to_leaves(tree, l))),
            )
            .collect(),
    )
    .expect("forest trees share the serving schema");
    assert_eq!(forest.n_trees(), 8);
    const FOREST_BATCH: usize = 16384;
    let forest_rows: Vec<f64> = (0..FOREST_BATCH)
        .flat_map(|k| pool[k % pool.len()].iter().copied())
        .collect();
    let mut forest_out = vec![Prediction::Class(0); FOREST_BATCH];
    let forest_rows_per_sec = rows_per_sec(FOREST_BATCH, || {
        forest.predict_batch_into(black_box(&forest_rows), black_box(&mut forest_out));
    });
    // The in-register small-tree kernel: a 32-leaf prune (≤ 63 nodes,
    // within the 64-slot budget) whose compiled table carries the
    // register-resident threshold/feature/child lookups, vs the identical
    // tree with them stripped (the hardware-gather per-level loads it
    // replaces). Same rows, same process, back-to-back — the honest A/B
    // on a noisy host. On machines without AVX-512 both sides take the
    // same path and the ratio sits near 1x (warned, never gated: the
    // gather twin is `rows_x1`, invisible to the guard).
    let small_tree = prune_to_leaves(tree, 32);
    let small = CompiledTree::compile(&small_tree);
    assert!(
        small.node_count() <= metis_dt::INREG_NODES,
        "prune exceeded the in-register budget"
    );
    let small_gather = small.without_inreg();
    let mut small_out = vec![Prediction::Class(0); FOREST_BATCH];
    let kernel_inreg_rows_per_sec = rows_per_sec(FOREST_BATCH, || {
        small.predict_batch_into(black_box(&forest_rows), black_box(&mut small_out));
    });
    let mut gather_out = vec![Prediction::Class(0); FOREST_BATCH];
    let kernel_inreg_gather_rows_x1 = rows_per_sec(FOREST_BATCH, || {
        small_gather.predict_batch_into(black_box(&forest_rows), black_box(&mut gather_out));
    });
    let kernel_inreg_vs_gather_x =
        kernel_inreg_rows_per_sec / kernel_inreg_gather_rows_x1.max(1e-12);
    // Cross-check while the fixtures are in hand: the in-register walk,
    // the gather walk, and the sequential oracle must agree bit-exactly.
    {
        small.predict_batch_into(&forest_rows, &mut small_out);
        small_gather.predict_batch_into(&forest_rows, &mut gather_out);
        assert_eq!(
            small_out, gather_out,
            "in-register walk diverged from the gather walk"
        );
        for (r, row) in forest_rows.chunks_exact(small.n_features()).enumerate() {
            assert_eq!(small_out[r], small_tree.predict(row), "row {r} diverged");
        }
    }

    // Ensemble serving through the engine: the same 8-member forest
    // behind one TreeServer vs eight single-tree servers with a
    // client-side vote (the one-at-a-time shape a naive deployment would
    // run). Requests/s over a burst drain, k tree-walks per request on
    // both sides.
    let ensemble_sources: Vec<DecisionTree> = std::iter::once(tree.clone())
        .chain(
            [1750, 1500, 1250, 1000, 800, 600, 400]
                .iter()
                .map(|&l| prune_to_leaves(tree, l)),
        )
        .collect();
    let (forest_serve_per_sec, forest_serve_onebyone_rps) =
        forest_serve_rates(&ensemble_sources, pool, 10_000, 3);
    let forest_serve_vs_onebyone_x8 = forest_serve_per_sec / forest_serve_onebyone_rps.max(1e-12);

    // Registry read cost: what every flush pays to pin an epoch.
    let registry = ModelRegistry::new(tree.clone());
    let registry_read_per_sec = rows_per_sec(1024, || {
        for _ in 0..1024 {
            black_box(registry.current());
        }
    });

    // "Retrained" swap candidates: cheaper prunes of the serving tree —
    // structurally different answers, instant to produce.
    let sources: Vec<DecisionTree> = std::iter::once(tree.clone())
        .chain(
            [1500, 1000, 600, 300]
                .iter()
                .map(|&l| prune_to_leaves(tree, l)),
        )
        .collect();

    // Engine capacity: everything submitted at once (scale 0) — the queue
    // drain rate with full batches.
    let burst = ArrivalProcess::poisson(1.0, 30_000, 3);
    let (cap, _, _) = run_engine(&sources[..1], pool, &burst, 0.0, false);
    assert_eq!(cap.served, 30_000);
    assert_eq!(cap.mismatches, 0, "burst responses diverged from oracle");
    let capacity_rps = cap.served as f64 / cap.wall_s;

    // Steady open-loop Poisson load at half capacity: honest tail latency.
    let offered = capacity_rps * 0.5;
    let steady_arrivals = ArrivalProcess::poisson(offered, 20_000, 7);
    let (steady, _, _) = run_engine(&sources[..1], pool, &steady_arrivals, 1.0, false);
    assert_eq!(
        steady.mismatches, 0,
        "steady responses diverged from oracle"
    );

    // Hot swaps under the same sustained load: zero drops, bit-identical
    // per epoch, and the publisher's worst swap cost.
    let swap_arrivals = ArrivalProcess::poisson(offered, 20_000, 11);
    let (swap, swap_count, publish_max_us) = run_engine(&sources, pool, &swap_arrivals, 1.0, true);
    assert_eq!(swap.served, 20_000, "requests dropped across hot swaps");
    assert_eq!(
        swap.mismatches, 0,
        "hot-swap responses diverged from oracle"
    );

    // ABR-trace replay (decision-per-chunk cadence), compressed 2000x so
    // the bench stays fast while keeping the trace's burst shape.
    let trace = metis_abr::generate_trace(&metis_abr::TraceGenConfig::hsdpa_like(), "bench", 5);
    let abr_arrivals = ArrivalProcess::from_abr_trace(&trace, 1_000_000.0, 400);
    let (abr, _, _) = run_engine(&sources[..1], pool, &abr_arrivals, 0.0005, false);
    assert_eq!(abr.mismatches, 0, "ABR replay diverged from oracle");

    // Fabric: router fan-out and shard scaling, burst-saturated like the
    // engine capacity number; the 1-scenario/1-shard point is the apples-
    // to-apples comparison against the single `TreeServer` above.
    //
    // Shard scaling is a *parallelism* claim: 4 session-affine batcher
    // threads can only beat 1 when the host has cores for them. On a
    // 1-core host the 4-shard run measures OS context-switch overhead
    // (the inversion the seed baseline recorded: ~771k vs ~1032k rps), so
    // the unconditional 4-shard number is reported UNGATED
    // (`fabric_shard4_rps` — no `per_sec`, invisible to bench_guard), and
    // the gated `fabric_shard4_multiworker_per_sec` variant is emitted
    // only on hosts with >= 4 cores, where sharding can genuinely win.
    // The guard ignores current-only metrics, so a few-core baseline
    // stays green while a many-core baseline gates the scaling win.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let fabric_shard1_per_sec = fabric_burst_rps(tree, pool, 1, 1, 40_000, 5);
    let fabric_shard4_rps = fabric_burst_rps(tree, pool, 1, 4, 40_000, 5);
    let fabric_shard4_multiworker_per_sec = (cores >= 4).then_some(fabric_shard4_rps);
    let fabric_fanout3_per_sec = fabric_burst_rps(tree, pool, 3, 1, 40_000, 5);
    let fabric_vs_engine = fabric_shard1_per_sec / capacity_rps.max(1e-12);
    if fabric_vs_engine < 0.9 {
        eprintln!(
            "WARNING: 1-shard fabric at {:.2}x the single-server engine (< 0.9x target)",
            fabric_vs_engine
        );
    }
    if fabric_shard4_rps < 0.9 * fabric_shard1_per_sec && cores >= 4 {
        eprintln!(
            "WARNING: 4-shard fabric ({fabric_shard4_rps:.0} rps) below 1-shard \
             ({fabric_shard1_per_sec:.0} rps) despite {cores} cores"
        );
    }

    // Telemetry plane A/B: the full observability stack (stage spans,
    // flight recorder, latency + stage sketches, counters) against the
    // disabled plane on the identical burst. The overhead is gated by
    // bench_guard's absolute `overhead_pct` ceiling; the absolute rates
    // ride along ungated (`rps`, not `per_sec`) for context.
    //
    // Both A/Bs size their bursts by duration, not request count: the
    // gated figures compare minimum CPU per burst, and a burst must last
    // long enough that scheduler noise stays a small share of it however
    // fast the engine drains. The cap bounds the answers held in memory.
    let ab_burst_requests =
        ((fabric_shard1_per_sec * AB_BURST_S) as usize).clamp(40_000, 1_000_000);
    let (telemetry_enabled_rps, telemetry_disabled_rps, telemetry_overhead_pct) =
        telemetry_overhead(tree, pool, ab_burst_requests, 7);

    // Health-observer A/B: the streaming health plane (time-series
    // rings, burn/drift monitors, attribution) scraping an enabled
    // telemetry plane at a punishing ~5 ms cadence, against the same
    // enabled plane unobserved. Marginal cost, gated at the same
    // absolute `overhead_pct` ceiling.
    let (obs_enabled_rps, obs_overhead_pct) = obs_overhead(tree, pool, ab_burst_requests, 5);

    // Streaming sketch merge: the aggregation cost of folding 64
    // populated shard sketches into one fleet view (what a scrape or a
    // cross-shard percentile query pays). Gated as a `per_sec` metric.
    let shard_sketches: Vec<LogSketch> = (0..64)
        .map(|i| {
            let sketch = LogSketch::new();
            let mut rng = StdRng::seed_from_u64(i as u64 + 1);
            for _ in 0..4096 {
                sketch.record(rng.gen_range(1e-6..10.0));
            }
            sketch
        })
        .collect();
    let sketch_merge_per_sec = rows_per_sec(shard_sketches.len(), || {
        let fleet = LogSketch::new();
        for sketch in &shard_sketches {
            fleet.merge(sketch);
        }
        black_box(fleet.count());
    });

    // SLO contention: two deadline classes flooding concurrently.
    let (fabric_urgent_p99_us, fabric_lax_p99_us) = fabric_contention_p99_us(tree, pool, 20_000, 3);
    if fabric_urgent_p99_us > fabric_lax_p99_us {
        eprintln!(
            "WARNING: urgent-class p99 ({fabric_urgent_p99_us:.0} us) above lax-class \
             ({fabric_lax_p99_us:.0} us) — class ordering not visible on this host \
             ({} cores; inline flushes bypass the pool scheduler on few-core machines)",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        );
    }

    // Shadow audit under load: clean promote + dirty reject.
    let (shadow_mirrored, shadow_mismatch_rows, shadow_promotions, shadow_rejected) =
        fabric_shadow_audit(tree, pool, 12_000);

    let report = ServingReport {
        host: metis_bench::measure::host_id(),
        cores,
        n_features: compiled.n_features(),
        tree_nodes: compiled.node_count(),
        tree_single_per_sec,
        compiled_single_per_sec,
        serve_batch_rows_per_sec_b1: batch_rates[0],
        serve_batch_rows_per_sec_b32: batch_rates[1],
        serve_batch_rows_per_sec_b256: batch_rates[2],
        batch256_speedup_vs_single_tree: batch_rates[2] / tree_single_per_sec.max(1e-12),
        kernel_rows_per_sec_b256,
        forest_trees: forest.n_trees(),
        forest_rows_per_sec,
        inreg_tree_nodes: small.node_count(),
        kernel_inreg_rows_per_sec,
        kernel_inreg_gather_rows_x1,
        kernel_inreg_vs_gather_x,
        forest_serve_per_sec,
        forest_serve_onebyone_rps,
        forest_serve_vs_onebyone_x8,
        registry_read_per_sec,
        engine_capacity_rps: capacity_rps,
        engine_offered_rps: offered,
        engine_mean_batch: steady.mean_batch,
        engine_p50_us: steady.p50_us,
        engine_p99_us: steady.p99_us,
        engine_max_us: steady.max_us,
        abr_replay_served: abr.served,
        swap_count,
        swap_dropped: 20_000 - swap.served,
        swap_bit_mismatches: swap.mismatches,
        swap_publish_max_us: publish_max_us,
        swap_p99_us: swap.p99_us,
        swap_max_latency_us: swap.max_us,
        fabric_shard1_per_sec,
        fabric_shard4_rps,
        fabric_fanout3_per_sec,
        fabric_shard1_vs_engine: fabric_vs_engine,
        ab_burst_requests,
        telemetry_enabled_rps,
        telemetry_disabled_rps,
        telemetry_overhead_pct,
        obs_enabled_rps,
        obs_overhead_pct,
        sketch_merge_per_sec,
        fabric_urgent_p99_us,
        fabric_lax_p99_us,
        fabric_shadow_mirrored_rows: shadow_mirrored,
        fabric_shadow_mismatch_rows: shadow_mismatch_rows,
        fabric_shadow_promotions: shadow_promotions,
        fabric_shadow_rejected: shadow_rejected,
    };
    let mut json = serde_json::to_string(&report).expect("report serializes");
    // The multi-worker shard metric is spliced in (rather than being an
    // always-present field) because it must be *absent* on few-core
    // hosts: a `null`/0 placeholder under a `per_sec` name would fail the
    // guard's finiteness check or gate a number that only measures
    // context-switch overhead.
    if let Some(rate) = fabric_shard4_multiworker_per_sec {
        assert!(json.starts_with('{'), "report must be a JSON object");
        json = format!(
            "{{\"fabric_shard4_multiworker_per_sec\":{rate},{}",
            &json[1..]
        );
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_serving.json");
    std::fs::write(&path, &json).expect("write BENCH_serving.json");
    println!(
        "serving backend: tree {:.0} rows/s, compiled batch-256 {:.0} rows/s ({:.1}x), \
         kernel batch-256 {:.0} rows/s; \
         in-register {}-node walk {:.0} rows/s ({:.2}x gather); \
         forest x8 {:.0} rows/s; \
         ensemble serving {:.0} rps ({:.2}x one-at-a-time x8); \
         engine {:.0} rps capacity, p99 {:.0} us at {:.0} rps offered; \
         {} swaps under load: {} dropped, {} mismatches; \
         fabric 1-shard {:.0} rps ({:.2}x engine), 4-shard {:.0} rps (ungated on {} cores), \
         3-way fan-out {:.0} rps; \
         telemetry plane {:.2}% overhead ({:.0} rps on vs {:.0} rps off), \
         health observer {:.2}% overhead ({:.0} rps observed), \
         sketch merge {:.0}/s; \
         contention p99 urgent {:.0} us vs lax {:.0} us; \
         shadow: {} rows mirrored, {} promoted clean, {} rejected ({} diff rows) -> {}",
        report.tree_single_per_sec,
        report.serve_batch_rows_per_sec_b256,
        report.batch256_speedup_vs_single_tree,
        report.kernel_rows_per_sec_b256,
        report.inreg_tree_nodes,
        report.kernel_inreg_rows_per_sec,
        report.kernel_inreg_vs_gather_x,
        report.forest_rows_per_sec,
        report.forest_serve_per_sec,
        report.forest_serve_vs_onebyone_x8,
        report.engine_capacity_rps,
        report.engine_p99_us,
        report.engine_offered_rps,
        report.swap_count,
        report.swap_dropped,
        report.swap_bit_mismatches,
        report.fabric_shard1_per_sec,
        report.fabric_shard1_vs_engine,
        report.fabric_shard4_rps,
        report.cores,
        report.fabric_fanout3_per_sec,
        report.telemetry_overhead_pct,
        report.telemetry_enabled_rps,
        report.telemetry_disabled_rps,
        report.obs_overhead_pct,
        report.obs_enabled_rps,
        report.sketch_merge_per_sec,
        report.fabric_urgent_p99_us,
        report.fabric_lax_p99_us,
        report.fabric_shadow_mirrored_rows,
        report.fabric_shadow_promotions,
        report.fabric_shadow_rejected,
        report.fabric_shadow_mismatch_rows,
        path.display()
    );
    // Acceptance bars: batched compiled serving >= 3x the single-request
    // arena walk at batch 256. Warn loudly rather than panic so a noisy
    // runner cannot fail the bench step on hardware variance alone.
    if report.batch256_speedup_vs_single_tree < 3.0 {
        eprintln!(
            "WARNING: batch-256 serving speedup is {:.2}x (< 3x target)",
            report.batch256_speedup_vs_single_tree
        );
    }
    if report.kernel_inreg_vs_gather_x < 1.5 {
        eprintln!(
            "WARNING: in-register kernel speedup over the gather walk is {:.2}x (< 1.5x target; \
             ~1x is expected on hosts without AVX-512)",
            report.kernel_inreg_vs_gather_x
        );
    }
    if report.forest_serve_vs_onebyone_x8 < 2.0 {
        eprintln!(
            "WARNING: ensemble serving speedup over one-at-a-time k=8 is {:.2}x (< 2x target)",
            report.forest_serve_vs_onebyone_x8
        );
    }
}

#[derive(serde::Serialize)]
struct ServingReport {
    /// Machine that produced this artifact (baseline floors are
    /// host-specific; see `metis_bench::measure::host_id`).
    host: String,
    cores: usize,
    n_features: usize,
    tree_nodes: usize,
    tree_single_per_sec: f64,
    compiled_single_per_sec: f64,
    serve_batch_rows_per_sec_b1: f64,
    serve_batch_rows_per_sec_b32: f64,
    serve_batch_rows_per_sec_b256: f64,
    batch256_speedup_vs_single_tree: f64,
    /// Gated: the lane-vectorized kernel walk alone (`predict_batch_into`
    /// with a preallocated output buffer, 256 rows).
    kernel_rows_per_sec_b256: f64,
    forest_trees: usize,
    /// Gated: block-major 8-tree forest evaluation, rows per second, on a
    /// 16384-row batch (feature matrix larger than L2/L3 — the regime the
    /// block-major schedule targets).
    forest_rows_per_sec: f64,
    /// Node count of the in-register A/B tree (≤ `metis_dt::INREG_NODES`).
    inreg_tree_nodes: usize,
    /// Gated: the in-register small-tree walk (`vpermi2*` register
    /// lookups) on a 32-leaf prune, 16384-row batch.
    kernel_inreg_rows_per_sec: f64,
    /// Ungated reference (`rows_x1`, not `per_sec`): the identical tree
    /// with its in-register tables stripped — the hardware-gather path.
    kernel_inreg_gather_rows_x1: f64,
    /// Same-process in-register speedup over the gather walk (~1x on
    /// hosts without AVX-512, where both sides dispatch identically).
    kernel_inreg_vs_gather_x: f64,
    /// Gated: 8-tree ensemble serving through one micro-batching engine
    /// (requests/s, each request a full majority vote).
    forest_serve_per_sec: f64,
    /// Ungated comparison point (`rps`, not `per_sec`): eight single-tree
    /// servers fed the same requests with a client-side vote.
    forest_serve_onebyone_rps: f64,
    forest_serve_vs_onebyone_x8: f64,
    registry_read_per_sec: f64,
    engine_capacity_rps: f64,
    engine_offered_rps: f64,
    engine_mean_batch: f64,
    engine_p50_us: f64,
    engine_p99_us: f64,
    engine_max_us: f64,
    abr_replay_served: usize,
    swap_count: u64,
    swap_dropped: usize,
    swap_bit_mismatches: usize,
    swap_publish_max_us: f64,
    swap_p99_us: f64,
    swap_max_latency_us: f64,
    /// Gated: router burst throughput, 1 scenario × 1 shard (the
    /// apples-to-apples point against `engine_capacity_rps`).
    fabric_shard1_per_sec: f64,
    /// UNGATED (`rps`, not `per_sec`): 1 scenario × 4 session-affine
    /// shards regardless of host width. On a 1-core host this inverts
    /// below the 1-shard number — 4 batcher threads time-slicing one
    /// hardware thread measures context-switch overhead, not sharding —
    /// so it is reported for visibility only. The gated
    /// `fabric_shard4_multiworker_per_sec` twin is spliced into the JSON
    /// only when the host has >= 4 cores.
    fabric_shard4_rps: f64,
    /// Gated: 3 scenarios × 1 shard fan-out through one router.
    fabric_fanout3_per_sec: f64,
    fabric_shard1_vs_engine: f64,
    /// Requests per telemetry/observer A/B burst: the 1-shard fabric's
    /// burst rate times `AB_BURST_S`.
    ab_burst_requests: usize,
    /// Ungated context (`rps`, not `per_sec`): the 1-shard burst with the
    /// full telemetry plane recording every request.
    telemetry_enabled_rps: f64,
    /// Ungated context: the identical interleaved burst, plane disabled.
    telemetry_disabled_rps: f64,
    /// Gated against bench_guard's absolute `overhead_pct` ceiling (5%):
    /// the throughput cost of the telemetry plane, clamped at 0.
    telemetry_overhead_pct: f64,
    /// Ungated: burst throughput with a live health observer scraping
    /// the enabled telemetry plane every ~5 ms from a side thread.
    obs_enabled_rps: f64,
    /// Gated against bench_guard's absolute `overhead_pct` ceiling (5%):
    /// the *marginal* CPU cost of the streaming health plane (rings,
    /// burn/drift monitors, attribution) on top of the telemetry plane.
    obs_overhead_pct: f64,
    /// Gated: folding 64 populated shard sketches into one fleet sketch
    /// (merges/s) — the cross-shard percentile aggregation cost.
    sketch_merge_per_sec: f64,
    fabric_urgent_p99_us: f64,
    fabric_lax_p99_us: f64,
    fabric_shadow_mirrored_rows: u64,
    fabric_shadow_mismatch_rows: u64,
    fabric_shadow_promotions: usize,
    fabric_shadow_rejected: u64,
}
