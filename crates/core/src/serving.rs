//! Serve-while-converting: live fabric serving and §3.2 conversion
//! sharing one thread budget.
//!
//! The deployment story the paper gestures at (§6.4) and the ROADMAP's
//! north star both need the same shape: a converted tree **keeps serving
//! decisions** while the conversion pipeline retrains behind it, each
//! freshly fitted round hot-swapping into the serving path with zero
//! dropped requests. [`serve_while_converting`] wires the pieces:
//!
//! * the [`crate::ConversionPipeline`] runs as one [`crate::Workload`]
//!   and hands every round's student to the fabric via
//!   [`crate::ConversionPipeline::run_publishing`] — published straight
//!   to the live epoch or staged for a shadow audit
//!   ([`ServeSpec::shadow`]), as the round's tree or as a majority-vote
//!   forest over the last rounds ([`ServeSpec::ensemble_k`]),
//! * an open-loop traffic schedule ([`metis_serve::ArrivalProcess`])
//!   drives a session-affine [`metis_fabric::Router`] as a second
//!   workload, paced on the fabric's clock by
//!   [`metis_serve::drive_open_loop`],
//! * both run under one [`crate::WorkloadRunner`] (shared admission
//!   budget); the shards' batches and the pipeline's stages share the
//!   process-wide worker pool under distinct fairness groups.
//!
//! Every response is bit-identical to `DecisionTree::predict` on the
//! epoch it reports — swaps change *which* model answers, never *how*.
//! Serving always runs on the fabric: a 1-shard fabric is bit-identical
//! to a bare `metis_serve::TreeServer` (`tests/fabric_determinism.rs`).

use crate::convert::ConversionResult;
use crate::pipeline::ConversionPipeline;
use crate::workload::{RunnerStats, Workload, WorkloadRunner};
use metis_dt::{DecisionTree, Forest};
use metis_fabric::{
    FabricConfig, FabricReport, FabricResponse, Router, ScenarioSpec, ShadowConfig, TenantSpec,
};
use metis_rl::{Env, Policy, ValueEstimate};
use metis_serve::{drive_open_loop, ArrivalProcess};
use std::time::Duration;

/// The scenario key the conversion lane publishes or stages under.
pub const STUDENT_KEY: &str = "student";

/// How one serve-while-converting run serves.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Epoch-0 model, so traffic never waits for the first fit.
    pub initial: DecisionTree,
    /// Per-shard batching, mirror batch, clock and telemetry plane.
    pub fabric: FabricConfig,
    /// Session-affine shards of the student scenario (≥ 1).
    pub shards: usize,
    /// `None` publishes each round straight to the live epoch. `Some`
    /// stages it as the scenario's shadow candidate, and the audit policy
    /// decides the swap ([`metis_fabric::PromotePolicy::AfterAudit`]
    /// hot-swaps every round with its behavioural diff on the record,
    /// [`metis_fabric::PromotePolicy::OnZeroDiff`] only ever auto-swaps
    /// no-op refreshes).
    pub shadow: Option<ShadowConfig>,
    /// Rounds per served model (≥ 1). After round `r` the model is a
    /// majority-vote [`metis_dt::Forest`] over the last
    /// `min(ensemble_k, r + 1)` students (vote order = round order) — the
    /// serving-side analogue of epoch averaging. A window of one is the
    /// round's tree, so `ensemble_k == 1` serves each round's tree alone.
    pub ensemble_k: usize,
    /// The open-loop request schedule.
    pub arrivals: ArrivalProcess,
    /// Stretches the arrival schedule (0 = submit as fast as possible).
    pub time_scale: f64,
}

/// Everything one serve-while-converting run produces.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The conversion pipeline's final result (identical to a solo run).
    pub conversion: ConversionResult,
    /// The fabric's shutdown report: per-shard engine reports, the
    /// student scenario's swaps (`scenario(STUDENT_KEY).swaps` counts the
    /// epochs that went live) and shadow audit trail, and per-tenant SLO
    /// accounting.
    pub fabric: FabricReport,
    /// Every response, sorted by submission id.
    pub responses: Vec<FabricResponse>,
    /// Admission-queue statistics of the shared runner.
    pub runner: RunnerStats,
}

enum Lane {
    Converted(Box<ConversionResult>),
    Served(Vec<FabricResponse>),
}

/// Run `pipeline` and an open-loop serving lane concurrently over one
/// shared [`WorkloadRunner`] budget: traffic flows through a
/// session-affine sharded [`Router`] while the pipeline retrains behind
/// it, and each round's student goes live as `spec` says.
/// `features(k)` supplies request `k`'s feature vector and `session(k)`
/// its sticky session. Conversion results stay bit-identical to a solo
/// [`ConversionPipeline::run`].
pub fn serve_while_converting<E, T, V>(
    pipeline: &ConversionPipeline<'_, E, T, V>,
    spec: ServeSpec,
    mut features: impl FnMut(u64) -> Vec<f64> + Send,
    mut session: impl FnMut(u64) -> u64 + Send,
) -> ServeOutcome
where
    E: Env + Sync,
    T: Policy + Sync + ?Sized,
    V: ValueEstimate,
{
    let ServeSpec {
        initial,
        fabric,
        shards,
        shadow,
        ensemble_k,
        arrivals,
        time_scale,
    } = spec;
    assert!(ensemble_k >= 1, "ensemble_k must be at least 1");
    // The runner reports into the same plane the fabric serves on: its
    // scope rides shard slot `CONTROL_SHARD` under a synthetic "runner"
    // scenario, so health observers see admission queueing next to the
    // serving stages it competes with.
    let plane = fabric.telemetry.clone();
    let router = Router::new(
        vec![TenantSpec::new("convert-serve")],
        vec![ScenarioSpec::new(STUDENT_KEY, "convert-serve", initial)
            .shards(shards)
            .shadow(shadow.unwrap_or_default())],
        fabric,
    );
    let mut workload_runner = WorkloadRunner::new(2);
    if let Some(scope) =
        plane.register("runner", metis_telemetry::CONTROL_SHARD, "convert-serve", 0)
    {
        workload_runner = workload_runner.telemetry(scope);
    }
    let mut recent: Vec<DecisionTree> = Vec::new();
    let (results, runner) = workload_runner.run_detailed(vec![
        Workload::new("convert", {
            let router = &router;
            move || {
                Lane::Converted(Box::new(pipeline.run_publishing(|_, student| {
                    recent.push(student.tree.clone());
                    if recent.len() > ensemble_k {
                        recent.remove(0);
                    }
                    let model =
                        Forest::from_trees(&recent).expect("every round fits the same schema");
                    if shadow.is_some() {
                        router.stage(STUDENT_KEY, model);
                    } else {
                        router.publish(STUDENT_KEY, model);
                    }
                })))
            }
        }),
        Workload::new("serve", {
            let router = &router;
            move || {
                let mut handle = router.handle();
                // No busy-spin tail: this lane shares its core budget
                // with the conversion pipeline.
                drive_open_loop(router.clock(), &arrivals, time_scale, Duration::ZERO, |k| {
                    handle.submit(0, session(k), features(k));
                });
                Lane::Served(handle.collect())
            }
        }),
    ]);
    let mut conversion = None;
    let mut responses = Vec::new();
    for result in results {
        match result.value {
            Lane::Converted(c) => conversion = Some(*c),
            Lane::Served(r) => responses = r,
        }
    }
    ServeOutcome {
        conversion: conversion.expect("conversion workload completed"),
        fabric: router.shutdown(),
        responses,
        runner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::ConversionConfig;
    use metis_fabric::PromotePolicy;
    use metis_rl::env::test_envs::BanditEnv;
    use metis_serve::ServeConfig;
    use metis_telemetry::{Telemetry, CONTROL_SHARD};

    #[derive(Clone)]
    struct Oracle;
    impl Policy for Oracle {
        fn action_probs(&self, obs: &[f64]) -> Vec<f64> {
            let mut p = vec![0.0; obs.len()];
            p[obs.iter().position(|&x| x == 1.0).unwrap()] = 1.0;
            p
        }
    }

    fn one_hot(k: u64) -> Vec<f64> {
        let mut v = vec![0.0; 3];
        v[(k % 3) as usize] = 1.0;
        v
    }

    const AUDIT: ShadowConfig = ShadowConfig {
        audit_rows: 32,
        policy: PromotePolicy::AfterAudit,
    };

    /// Serve `requests` Poisson arrivals over seven sticky sessions while
    /// a 3-round bandit conversion runs, and check the conversion stayed
    /// bit-identical to a solo run. Returns the outcome and the model
    /// each round handed over, epoch-0 tree first.
    fn run(
        shards: usize,
        shadow: Option<ShadowConfig>,
        ensemble_k: usize,
        requests: usize,
        telemetry: Telemetry,
    ) -> (ServeOutcome, Vec<DecisionTree>) {
        let pool: Vec<BanditEnv> = (0..3).map(|s| BanditEnv::new(3, 16, s)).collect();
        let cfg = ConversionConfig {
            max_leaf_nodes: 8,
            episodes_per_round: 6,
            max_steps: 16,
            dagger_rounds: 2,
            ..Default::default()
        };
        let pipeline = ConversionPipeline::new(&pool, &Oracle, |_| 0.0)
            .conversion(cfg)
            .seed(5);
        // Epoch 0: a quick teacher-round fit so serving never waits.
        let seed_states = pipeline.collect_teacher_states(4, 16);
        let initial = pipeline.fit_states(&seed_states, 3, 0).tree;
        let mut students = vec![initial.clone()];
        let solo = pipeline.run_publishing(|_, student| students.push(student.tree.clone()));

        let outcome = serve_while_converting(
            &pipeline,
            ServeSpec {
                initial,
                fabric: FabricConfig {
                    serve: ServeConfig {
                        max_batch: 32,
                        max_delay: Duration::from_micros(300),
                        ..Default::default()
                    },
                    mirror_batch: 16,
                    telemetry,
                    ..Default::default()
                },
                shards,
                shadow,
                ensemble_k,
                arrivals: ArrivalProcess::poisson(20_000.0, requests, 9),
                time_scale: 1.0,
            },
            one_hot,
            |k| k % 7,
        );

        // Serving never perturbs the pipeline.
        assert_eq!(outcome.conversion.policy.tree, solo.policy.tree);
        assert_eq!(outcome.conversion.fidelity_history, solo.fidelity_history);
        // Zero drops, and session affinity held for every response.
        assert_eq!(outcome.responses.len(), requests);
        assert_eq!(outcome.fabric.served, requests as u64);
        let mut session_shard = std::collections::HashMap::new();
        for resp in &outcome.responses {
            assert_eq!(resp.session, resp.id % 7);
            let prev = session_shard.entry(resp.session).or_insert(resp.shard);
            assert_eq!(*prev, resp.shard, "session hopped shards");
            if resp.response.epoch == 0 {
                assert_eq!(
                    resp.response.prediction,
                    students[0].predict(&one_hot(resp.id)),
                    "epoch-0 answers must come from the initial tree"
                );
            }
        }
        (outcome, students)
    }

    /// Publish on one shard: each round goes straight to the live epoch,
    /// and every answer is the one its epoch's tree gives.
    #[test]
    fn publish_serves_every_round_with_zero_drops() {
        let (outcome, students) = run(1, None, 1, 400, Telemetry::off());
        let scenario = outcome.fabric.scenario(STUDENT_KEY).unwrap();
        // One publish per round (round 0 + 2 DAgger rounds).
        assert_eq!(scenario.swaps, 3);
        let shard = &scenario.shards[0];
        assert_eq!(shard.served, 400);
        assert_eq!(shard.delivery_failures, 0);
        for resp in &outcome.responses {
            let epoch = resp.response.epoch;
            assert_eq!(
                resp.response.prediction,
                students[epoch as usize].predict(&one_hot(resp.id)),
                "epoch {epoch} diverged"
            );
        }
        let served_total: u64 = shard.per_epoch.iter().map(|(_, c)| c).sum();
        assert_eq!(served_total, 400);
        assert_eq!(outcome.fabric.latency.count, 400);
        assert!(outcome.runner.peak_queue_depth >= 1);
    }

    /// Stage on two shards: each round is audited on mirrored traffic
    /// before it goes live, and the telemetry plane sees every request,
    /// every verdict and the runner's admissions.
    #[test]
    fn stage_audits_every_round_before_it_serves() {
        let telemetry = Telemetry::enabled();
        let (outcome, _) = run(2, Some(AUDIT), 1, 500, telemetry.clone());
        let scenario = outcome.fabric.scenario(STUDENT_KEY).unwrap();
        assert_eq!(scenario.shards.len(), 2);
        assert_eq!(scenario.served, 500);
        for report in &scenario.shards {
            assert_eq!(report.delivery_failures, 0);
        }
        // One staging per round (round 0 + 2 DAgger rounds); every staged
        // candidate is accounted for as promoted, replaced, or pending.
        assert_eq!(scenario.shadow.staged, 3);
        let decided = scenario.shadow.promotions.len() as u64
            + scenario.shadow.replaced
            + scenario.shadow.rejected
            + u64::from(scenario.shadow.pending.is_some());
        assert_eq!(decided, 3, "shadow audit lost a candidate");
        // Promotions went live in order and were audited first.
        assert_eq!(scenario.swaps, scenario.shadow.promotions.len() as u64);
        for promo in &scenario.shadow.promotions {
            assert!(promo.audited_rows >= 32);
        }
        let tenant = outcome.fabric.tenant("convert-serve").unwrap();
        assert_eq!(tenant.served, 500);
        assert!(tenant.met_p99_budget);
        // The telemetry plane flowed through the fabric: one scope per
        // shard, the scenario's control scope, and the workload runner's
        // admission scope; every request accounted for, and each
        // concluded audit on the control scope's flight recorder.
        let scopes = telemetry.scopes();
        assert_eq!(
            scopes.len(),
            4,
            "2 shard scopes + 1 control scope + 1 runner scope"
        );
        let served: u64 = scopes
            .iter()
            .filter(|s| s.shard() != CONTROL_SHARD)
            .map(|s| s.served.get())
            .sum();
        assert_eq!(served, 500);
        let runner_scope = scopes
            .iter()
            .find(|s| s.scenario() == "runner")
            .expect("runner scope");
        // Both workloads (convert + serve) landed as runner requests.
        assert_eq!(runner_scope.latency.count(), 2);
        let control = scopes
            .iter()
            .find(|s| s.shard() == CONTROL_SHARD && s.scenario() == STUDENT_KEY)
            .expect("control scope");
        let verdicts = control
            .events
            .events()
            .iter()
            .filter(|e| e.kind.name() == "audit_verdict")
            .count() as u64;
        let concluded = scenario.shadow.promotions.len() as u64
            + scenario.shadow.rejected
            + scenario.shadow.superseded;
        assert_eq!(verdicts, concluded, "every concluded audit is recorded");
    }

    /// Stage with `ensemble_k = 2`: each round stages a forest over the
    /// last two students, every promotion records its ensemble width
    /// within the window bound, and the live model at shutdown is
    /// whatever the last promotion installed.
    #[test]
    fn stage_with_ensemble_window_promotes_windowed_forests() {
        let (outcome, _) = run(2, Some(AUDIT), 2, 500, Telemetry::off());
        let scenario = outcome.fabric.scenario(STUDENT_KEY).unwrap();
        // One staging per round; round 0 stages a lone tree, later rounds
        // two-tree forests — every promotion's width reflects its window.
        assert_eq!(scenario.shadow.staged, 3);
        for (i, promo) in scenario.shadow.promotions.iter().enumerate() {
            assert!(
                promo.trees == 1 || promo.trees == 2,
                "window bound violated: promotion {i} carries {} trees",
                promo.trees
            );
            assert!(promo.audited_rows >= 32);
        }
        assert_eq!(scenario.swaps, scenario.shadow.promotions.len() as u64);
        // The live model at shutdown is the last promotion's ensemble (or
        // still the epoch-0 tree when nothing promoted in time).
        match scenario.shadow.promotions.last() {
            Some(last) => {
                assert_eq!(scenario.live_trees, last.trees);
                assert_eq!(scenario.live_epoch, last.epoch);
            }
            None => assert_eq!(scenario.live_trees, 1),
        }
    }
}
