//! Conversion-throughput benchmark of the unified `ConversionPipeline`
//! (single-thread vs all-cores), the fine-granularity persistent-pool vs
//! spawn-per-call comparison, the frontier-parallel CART fit and the
//! cross-workload sharding benchmark (`WorkloadRunner` over a shared
//! budget). Emits `BENCH_conversion.json` at the workspace root for the
//! `bench_guard` CI regression gate. Figure 31's fitting and mask-search
//! costs are reported by the `fig31_overhead` experiment.

use metis_abr::{env_pool, hsdpa_corpus, pensieve_agent, NetworkTrace, PensieveArch, VideoModel};
use metis_bench::measure::{median, median_rate, Windows};
use metis_core::{
    ConversionConfig, ConversionPipeline, ConversionResult, PipelineStats, Workload, WorkloadRunner,
};
use metis_dt::{fit, Criterion as SplitCriterion, Dataset, TreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn pensieve_like_dataset(n: usize, rng: &mut StdRng) -> Dataset {
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..metis_abr::OBS_DIM)
                .map(|_| rng.gen_range(0.0..1.0))
                .collect()
        })
        .collect();
    let y: Vec<usize> = x
        .iter()
        .map(|xi| ((xi[0] * 3.0 + xi[1] * 2.0) as usize) % 6)
        .collect();
    Dataset::classification(x, y, 6).unwrap()
}

/// Fine-granularity fork/join rate: calls per second of a small (64-item,
/// 2-stripe, trivial body) indexed map — the shape the inner batched
/// stages issue thousands of times per conversion — through the
/// persistent pool vs the retained spawn-per-call reference. This is the
/// overhead the pool exists to delete. Median-of-windows via the shared
/// [`metis_bench::measure`] loop: the pool mode sustains ~1M calls/s (a
/// fixed call count would finish in microseconds), and spawn-mode
/// thread-creation latency is noisy, so single-window rates swing far
/// more than the guard tolerance.
fn fine_map_calls_per_sec(use_pool: bool) -> f64 {
    const N: usize = 64;
    let mut acc = 0usize;
    let mut calls = 0usize;
    let rate = median_rate(Windows::fine(), 1, || {
        let out = if use_pool {
            metis_nn::par::parallel_map_indexed(N, 2, |i| i * 3 + calls)
        } else {
            metis_nn::par::reference::parallel_map_indexed(N, 2, |i| i * 3 + calls)
        };
        acc = acc.wrapping_add(out[N - 1]);
        calls += 1;
    });
    black_box(acc);
    rate
}

/// Frontier-parallel CART fit rate (fits per second) on a paper-shaped
/// workload: ABR-width features where per-node feature-parallelism runs
/// out long before a wide pool does — exactly the gap frontier
/// speculation (one expansion per thread) exists to fill. Fitted with
/// the default `threads: 0` (all cores), so the gated number tracks
/// whatever the host genuinely runs.
fn frontier_fit_per_sec(ds: &Dataset) -> f64 {
    median_rate(Windows::fine(), 1, || {
        black_box(
            fit(
                black_box(ds),
                &TreeConfig {
                    max_leaf_nodes: 96,
                    criterion: SplitCriterion::Gini,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
    })
}

/// Per-workload and aggregate throughput of [`WorkloadRunner`] sharding
/// several conversion pipelines (a parameter sweep over the ABR scenario)
/// across one shared thread budget.
struct WorkloadShardingReport {
    per_workload: Vec<(String, f64)>,
    aggregate_per_sec: f64,
}

/// Median-of-3 [`workload_sharding_once`]: per-workload rates contend on
/// the shared pool, so single runs are too noisy to gate at 20%.
fn workload_sharding_report(
    pool: &[metis_abr::AbrEnv],
    agent_policy: &(impl metis_rl::Policy + Sync),
    base_cfg: &ConversionConfig,
) -> WorkloadShardingReport {
    let runs: Vec<WorkloadShardingReport> = (0..3)
        .map(|_| workload_sharding_once(pool, agent_policy, base_cfg))
        .collect();
    WorkloadShardingReport {
        per_workload: runs[0]
            .per_workload
            .iter()
            .enumerate()
            .map(|(k, (name, _))| {
                (
                    name.clone(),
                    median(runs.iter().map(|r| r.per_workload[k].1).collect()),
                )
            })
            .collect(),
        aggregate_per_sec: median(runs.iter().map(|r| r.aggregate_per_sec).collect()),
    }
}

fn workload_sharding_once(
    pool: &[metis_abr::AbrEnv],
    agent_policy: &(impl metis_rl::Policy + Sync),
    base_cfg: &ConversionConfig,
) -> WorkloadShardingReport {
    // Three concurrent workloads: the base config plus two sweep points
    // (different leaf budgets and seeds — the "many scenarios at once"
    // serving shape).
    let sweep: Vec<(String, usize, u64)> = vec![
        ("abr_leaves64".to_string(), 64, 3),
        ("abr_leaves32".to_string(), 32, 4),
        ("abr_leaves96".to_string(), 96, 5),
    ];
    let start = Instant::now();
    let results = WorkloadRunner::new(0).run(
        sweep
            .iter()
            .map(|(name, leaves, seed)| {
                let cfg = ConversionConfig {
                    max_leaf_nodes: *leaves,
                    ..base_cfg.clone()
                };
                Workload::new(name.clone(), move || {
                    ConversionPipeline::new(pool, agent_policy, |_| 0.0)
                        .conversion(cfg)
                        .seed(*seed)
                        .threads(0)
                        .run()
                })
            })
            .collect(),
    );
    let wall = start.elapsed().as_secs_f64();
    let total_states: usize = results.iter().map(|r| r.value.stats.states_collected).sum();
    WorkloadShardingReport {
        per_workload: results
            .iter()
            .map(|r| (r.name.clone(), r.value.stats.samples_per_sec()))
            .collect(),
        aggregate_per_sec: total_states as f64 / wall.max(1e-12),
    }
}

/// Pipeline runs per thread setting. The gated conversion rates and stage
/// times are medians over these, so the process's first (cold)
/// conversion is one sample among seven rather than the whole gate.
const CONVERSION_RUNS: usize = 7;

/// Median over `runs` of one statistic.
fn median_of(runs: &[ConversionResult], stat: fn(&PipelineStats) -> f64) -> f64 {
    median(runs.iter().map(|r| stat(&r.stats)).collect())
}

/// End-to-end §3.2 conversion throughput (labelled states per second
/// through collection + resampling + fit + prune), single-thread vs
/// all-cores, on the ABR substrate — plus the pool-vs-spawn
/// fine-granularity comparison and the cross-workload sharding run.
/// Emits `BENCH_conversion.json`.
fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let video = Arc::new(VideoModel::standard(24, 3));
    let traces: Vec<Arc<NetworkTrace>> = hsdpa_corpus(6, 31).into_iter().map(Arc::new).collect();
    let pool = env_pool(&video, &traces);
    let agent = pensieve_agent(PensieveArch::Original, 24, &mut rng);
    let cfg = ConversionConfig {
        max_leaf_nodes: 64,
        episodes_per_round: 12,
        max_steps: 256,
        dagger_rounds: 1,
        ..Default::default()
    };
    let run = |threads: usize| {
        ConversionPipeline::new(&pool, &agent.policy, |_| 0.0)
            .conversion(cfg.clone())
            .seed(3)
            .threads(threads)
            .run()
    };

    // Alternate the two settings, so host drift spreads over both.
    let mut single = Vec::with_capacity(CONVERSION_RUNS);
    let mut parallel = Vec::with_capacity(CONVERSION_RUNS);
    for _ in 0..CONVERSION_RUNS {
        single.push(run(1));
        parallel.push(run(0));
    }
    // Every run converts the same tree, whatever its thread count.
    let tree = &single[0].policy.tree;
    for (k, result) in single.iter().chain(&parallel).enumerate() {
        assert_eq!(
            &result.policy.tree, tree,
            "conversion run {k} fitted a different tree"
        );
    }
    let samples_per_sec_single = median_of(&single, PipelineStats::samples_per_sec);
    let samples_per_sec_parallel = median_of(&parallel, PipelineStats::samples_per_sec);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Warm the pool once so neither fine-map mode pays first-use setup.
    black_box(metis_nn::par::parallel_map_indexed(8, 2, |i| i));
    let pool_map_fine_per_sec = fine_map_calls_per_sec(true);
    let spawn_map_fine_per_sec = fine_map_calls_per_sec(false);

    let fit_ds = pensieve_like_dataset(5000, &mut rng);
    let frontier_fit_per_sec = frontier_fit_per_sec(&fit_ds);

    let sharding = workload_sharding_report(&pool, &agent.policy, &cfg);
    let workload_per_sec = |name: &str| {
        sharding
            .per_workload
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, rate)| *rate)
            .expect("workload present")
    };

    let report = ThroughputReport {
        host: metis_bench::measure::host_id(),
        cores,
        threads_parallel: parallel[0].stats.threads,
        states_per_run: single[0].stats.states_collected,
        leaf_budget: cfg.max_leaf_nodes,
        samples_per_sec_single,
        samples_per_sec_parallel,
        speedup: samples_per_sec_parallel / samples_per_sec_single.max(1e-12),
        collect_s_single: median_of(&single, |s| s.collect_s),
        resample_s_single: median_of(&single, |s| s.resample_s),
        fit_s_single: median_of(&single, |s| s.fit_s),
        prune_s_single: median_of(&single, |s| s.prune_s),
        collect_s_parallel: median_of(&parallel, |s| s.collect_s),
        resample_s_parallel: median_of(&parallel, |s| s.resample_s),
        fit_s_parallel: median_of(&parallel, |s| s.fit_s),
        prune_s_parallel: median_of(&parallel, |s| s.prune_s),
        pool_map_fine_per_sec,
        spawn_map_fine_per_sec,
        pool_fine_speedup: pool_map_fine_per_sec / spawn_map_fine_per_sec.max(1e-12),
        frontier_fit_per_sec,
        workload_count: sharding.per_workload.len(),
        workload_abr_leaves64_per_sec: workload_per_sec("abr_leaves64"),
        workload_abr_leaves32_per_sec: workload_per_sec("abr_leaves32"),
        workload_abr_leaves96_per_sec: workload_per_sec("abr_leaves96"),
        workload_agg_per_sec: sharding.aggregate_per_sec,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_conversion.json");
    std::fs::write(&path, &json).expect("write BENCH_conversion.json");
    println!(
        "conversion throughput: {:.0} samples/s single-thread, {:.0} samples/s on {} threads \
         ({:.2}x) -> {}",
        report.samples_per_sec_single,
        report.samples_per_sec_parallel,
        report.threads_parallel,
        report.speedup,
        path.display()
    );
    println!(
        "fine-granularity fork/join: pool {:.0} calls/s vs spawn {:.0} calls/s ({:.1}x)",
        report.pool_map_fine_per_sec, report.spawn_map_fine_per_sec, report.pool_fine_speedup
    );
    println!(
        "frontier-parallel CART: {:.2} fits/s (5000x{} rows, 96 leaves)",
        report.frontier_fit_per_sec,
        metis_abr::OBS_DIM
    );
    println!(
        "workload sharding ({} pipelines, shared budget): {:.0} aggregate samples/s",
        report.workload_count, report.workload_agg_per_sec
    );
}

#[derive(serde::Serialize)]
struct ThroughputReport {
    /// Machine that produced this artifact (baseline floors are
    /// host-specific; see `metis_bench::measure::host_id`).
    host: String,
    cores: usize,
    threads_parallel: usize,
    states_per_run: usize,
    leaf_budget: usize,
    /// Median end-to-end rate of the single-thread and all-cores runs.
    samples_per_sec_single: f64,
    samples_per_sec_parallel: f64,
    speedup: f64,
    /// Per-stage seconds of a run (medians over the runs), named after
    /// the conversion ledger's layers: rollout + labelling, oversampling +
    /// Eq.-1 resampling, dataset + CART fit, and CCP pruning.
    collect_s_single: f64,
    resample_s_single: f64,
    fit_s_single: f64,
    prune_s_single: f64,
    collect_s_parallel: f64,
    resample_s_parallel: f64,
    fit_s_parallel: f64,
    prune_s_parallel: f64,
    /// Small-map call rate on the persistent pool…
    pool_map_fine_per_sec: f64,
    /// …vs the retained spawn-per-call reference (same work).
    spawn_map_fine_per_sec: f64,
    pool_fine_speedup: f64,
    /// Frontier-parallel CART fits per second (5000x25 ABR-shaped rows,
    /// 96-leaf budget, default thread resolution).
    frontier_fit_per_sec: f64,
    workload_count: usize,
    workload_abr_leaves64_per_sec: f64,
    workload_abr_leaves32_per_sec: f64,
    workload_abr_leaves96_per_sec: f64,
    /// Total labelled states over the sharded run's wall clock.
    workload_agg_per_sec: f64,
}
