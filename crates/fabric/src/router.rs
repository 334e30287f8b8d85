//! The request router: one ingest surface fanned across scenarios,
//! session-affine shards, and tenants.
//!
//! A [`Router`] owns, per *scenario*, one
//! [`metis_serve::ModelRegistry`] and `shards` independent
//! [`metis_serve::TreeServer`] micro-batchers over it, each batcher on
//! its own pool group. A request names its scenario and a **session id**;
//! [`shard_for_session`] hashes the session to a shard, so a sticky
//! client (an ABR session carrying per-client state) always flows through
//! the same micro-batcher — its decisions stay ordered relative to each
//! other — while unrelated sessions spread across shards. The hash is a
//! pure SplitMix64 finalize of the session id: stable across thread
//! counts, process restarts, and request interleavings.
//!
//! Tenancy: every scenario belongs to a [`TenantSpec`], whose
//! `deadline_class` is stamped onto the shards' pool submissions (the
//! pool drains urgent classes first — [`metis_nn::par::with_deadline_class`])
//! and whose `p99_budget_s` is checked in the shutdown report. Shadow
//! staging ([`Router::stage`], [`Router::stage_forest`]) audits a
//! candidate model — a single tree or a [`metis_dt::Forest`]
//! majority-vote ensemble — on mirrored traffic before (or instead of)
//! letting it serve — see [`crate::shadow`].

use crate::report::{FabricReport, ScenarioReport, TenantReport};
use crate::shadow::{ShadowConfig, ShadowState};
use metis_dt::DecisionTree;
use metis_obs::{Observer, ObserverConfig, SloSpec};
use metis_serve::{
    Clock, LatencyRecorder, ModelRegistry, Response, ServeConfig, ServedModel, ServerHandle,
    TreeServer,
};
use metis_telemetry::{ShardTelemetry, Telemetry, CONTROL_SHARD};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Map a session id onto one of `shards` batcher shards. Pure function of
/// its arguments (SplitMix64 finalize), so the mapping is identical for
/// any thread count, submission order, or process — the property that
/// makes shard affinity a contract rather than an accident.
pub fn shard_for_session(session: u64, shards: usize) -> usize {
    assert!(shards >= 1, "a scenario has at least one shard");
    (metis_nn::par::mix_seed(session) % shards as u64) as usize
}

/// One SLO tenant: a deadline class (lower = the pool schedules its
/// batches' helper work first) and a p99 latency budget checked in the
/// [`TenantReport`].
#[derive(Debug, Clone)]
pub struct TenantSpec {
    pub name: String,
    /// Deadline class of every pool submission made on this tenant's
    /// behalf (see [`metis_nn::par::with_deadline_class`]).
    pub deadline_class: u8,
    /// p99 latency budget in seconds ([`f64::INFINITY`] = unbounded).
    pub p99_budget_s: f64,
}

impl TenantSpec {
    /// An unconstrained tenant: class 0, infinite budget.
    pub fn new(name: impl Into<String>) -> Self {
        TenantSpec {
            name: name.into(),
            deadline_class: 0,
            p99_budget_s: f64::INFINITY,
        }
    }
}

/// One served scenario: a model family behind one registry, split into
/// session-affine shards, owned by a tenant.
pub struct ScenarioSpec {
    pub key: String,
    /// Name of the owning [`TenantSpec`].
    pub tenant: String,
    /// Epoch-0 model.
    pub initial: DecisionTree,
    /// Session-affine batcher shards (≥ 1).
    pub shards: usize,
    /// Shadow-serving knobs.
    pub shadow: ShadowConfig,
}

impl ScenarioSpec {
    /// A 1-shard scenario with default shadow policy.
    pub fn new(key: impl Into<String>, tenant: impl Into<String>, initial: DecisionTree) -> Self {
        ScenarioSpec {
            key: key.into(),
            tenant: tenant.into(),
            initial,
            shards: 1,
            shadow: ShadowConfig::default(),
        }
    }

    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    pub fn shadow(mut self, shadow: ShadowConfig) -> Self {
        self.shadow = shadow;
        self
    }
}

/// Fabric-wide knobs.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Per-shard micro-batching template. `group` and `deadline_class`
    /// are **owned by the fabric** and overridden per shard: every shard
    /// gets its own fresh pool group (a user-set shared group would let
    /// one tenant's class re-tag another's queued tickets, silently
    /// defeating per-tenant SLO scheduling) and its tenant's class.
    pub serve: ServeConfig,
    /// Mirrored feature rows a handle buffers before flushing them to a
    /// scenario's shadow audit (0 = flush on every submit).
    pub mirror_batch: usize,
    /// The time source every shard stamps, batches, and paces on. The
    /// default is the real clock (wall-time serving, exactly the
    /// pre-clock fabric); a [`Clock::virtual_at`] fabric is the
    /// discrete-event mode `metis_sim` drives millions of sessions
    /// through.
    pub clock: Arc<Clock>,
    /// The live telemetry plane. [`Telemetry::off`] (the default) costs
    /// one pointer check per shard flush; an enabled plane registers one
    /// scope per `(scenario, shard)` — every flush decomposes into
    /// stage-attributed spans and streaming sketches — plus one
    /// *control scope* per scenario ([`CONTROL_SHARD`]) that records
    /// hot-swap costs and shadow-audit verdicts. All stamps come from
    /// `clock`, so a virtual-time fabric's telemetry is as deterministic
    /// as its responses.
    pub telemetry: Telemetry,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            serve: ServeConfig::default(),
            mirror_batch: 0,
            clock: Clock::real(),
            telemetry: Telemetry::off(),
        }
    }
}

struct ScenarioRuntime {
    key: String,
    tenant: usize,
    registry: Arc<ModelRegistry>,
    shards: Vec<TreeServer>,
    shadow: Mutex<ShadowState>,
    /// Cached [`ShadowState::active_generation`] (0 = nothing staged) so
    /// the submit hot path can skip mirroring — and tag buffered rows
    /// with the staging generation — without taking the lock.
    shadow_gen: AtomicU64,
    /// The scenario's telemetry control scope ([`CONTROL_SHARD`]):
    /// hot-swap costs land here via the registry hook, audit verdicts
    /// via [`ScenarioRuntime::mirror_rows`]. `None` when the plane is
    /// off.
    control: Option<Arc<ShardTelemetry>>,
    /// The fabric clock, cloned here so audit verdicts can be stamped
    /// without threading the clock through every mirror call site.
    clock: Arc<Clock>,
}

impl ScenarioRuntime {
    fn mirror_rows(&self, rows: &[f64], generation: u64) {
        if rows.is_empty() {
            return;
        }
        let mut shadow = self.shadow.lock().unwrap();
        shadow.mirror(rows, generation, &self.registry);
        self.shadow_gen
            .store(shadow.active_generation().unwrap_or(0), Ordering::Relaxed);
        if let Some(scope) = &self.control {
            if let Some(verdict) = shadow.take_last_decision() {
                scope.on_audit(
                    self.clock.now_s(),
                    verdict.epoch,
                    verdict.mismatches,
                    verdict.promoted,
                );
            }
        }
    }
}

/// The serving fabric. Build with [`Router::new`], mint per-client
/// [`FabricHandle`]s, publish or stage new models per scenario, and
/// [`Router::shutdown`] for the merged [`FabricReport`].
pub struct Router {
    scenarios: Vec<ScenarioRuntime>,
    tenants: Vec<TenantSpec>,
    mirror_batch: usize,
    clock: Arc<Clock>,
    telemetry: Telemetry,
}

impl Router {
    /// Start every scenario's shards. Scenario keys and tenant names must
    /// be unique; every scenario's `tenant` must resolve.
    pub fn new(tenants: Vec<TenantSpec>, scenarios: Vec<ScenarioSpec>, cfg: FabricConfig) -> Self {
        assert!(!tenants.is_empty(), "a fabric needs at least one tenant");
        assert!(
            !scenarios.is_empty(),
            "a fabric needs at least one scenario"
        );
        for (i, t) in tenants.iter().enumerate() {
            assert!(
                tenants[..i].iter().all(|o| o.name != t.name),
                "duplicate tenant `{}`",
                t.name
            );
        }
        let mut runtimes: Vec<ScenarioRuntime> = Vec::new();
        for spec in scenarios {
            assert!(spec.shards >= 1, "scenario `{}` needs ≥ 1 shard", spec.key);
            assert!(
                runtimes.iter().all(|o| o.key != spec.key),
                "duplicate scenario key `{}`",
                spec.key
            );
            let tenant = tenants
                .iter()
                .position(|t| t.name == spec.tenant)
                .unwrap_or_else(|| {
                    panic!(
                        "scenario `{}` names unknown tenant `{}`",
                        spec.key, spec.tenant
                    )
                });
            let registry = Arc::new(ModelRegistry::new(spec.initial));
            let tenant_name = &tenants[tenant].name;
            let control = cfg.telemetry.register_scope(
                &spec.key,
                CONTROL_SHARD,
                tenant_name,
                tenants[tenant].deadline_class,
            );
            if let Some(scope) = &control {
                registry.attach_telemetry(Arc::clone(scope), Arc::clone(&cfg.clock));
            }
            let shards = (0..spec.shards)
                .map(|shard_idx| {
                    TreeServer::start_clocked(
                        Arc::clone(&registry),
                        ServeConfig {
                            deadline_class: tenants[tenant].deadline_class,
                            // Always a fresh group per shard: sharing one
                            // group across tenants would let the last
                            // flusher's class re-tag every queued ticket.
                            group: None,
                            telemetry: cfg.telemetry.register_scope(
                                &spec.key,
                                shard_idx,
                                tenant_name,
                                tenants[tenant].deadline_class,
                            ),
                            ..cfg.serve.clone()
                        },
                        Arc::clone(&cfg.clock),
                    )
                })
                .collect();
            runtimes.push(ScenarioRuntime {
                key: spec.key,
                tenant,
                registry,
                shards,
                shadow: Mutex::new(ShadowState::new(spec.shadow)),
                shadow_gen: AtomicU64::new(0),
                control,
                clock: Arc::clone(&cfg.clock),
            });
        }
        let scenarios = runtimes;
        Router {
            scenarios,
            tenants,
            mirror_batch: cfg.mirror_batch,
            clock: cfg.clock,
            telemetry: cfg.telemetry,
        }
    }

    /// The time source every shard runs on ([`FabricConfig::clock`]).
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// The fabric's telemetry plane ([`FabricConfig::telemetry`]):
    /// disabled it answers nothing; enabled it holds every scope the
    /// router registered — live sketches, flight-recorder events, and
    /// the [`Telemetry::chrome_trace_json`] timeline export.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Build a streaming health-plane [`Observer`] over this fabric:
    /// one SLO monitor per tenant (budget and deadline class straight
    /// from the [`TenantSpec`]s), watching every scope the router
    /// registered, stamping [`Observer::tick_now`] from the fabric's
    /// clock. The observer holds no thread — drive it from a scraper
    /// loop (real clock) or schedule its ticks as simulation events
    /// (`metis_sim`'s `run_abr_cosim_observed`).
    pub fn observer(&self, cfg: ObserverConfig) -> Observer {
        let slos = self
            .tenants
            .iter()
            .map(|t| SloSpec::new(&t.name, t.deadline_class, t.p99_budget_s))
            .collect();
        Observer::new(self.telemetry.clone(), slos, cfg).with_clock(Arc::clone(&self.clock))
    }

    /// Index of a scenario key (stable for the router's lifetime; submit
    /// by index on the hot path).
    pub fn scenario_index(&self, key: &str) -> Option<usize> {
        self.scenarios.iter().position(|s| s.key == key)
    }

    fn scenario(&self, key: &str) -> &ScenarioRuntime {
        let idx = self
            .scenario_index(key)
            .unwrap_or_else(|| panic!("unknown scenario `{key}`"));
        &self.scenarios[idx]
    }

    /// The registry behind a scenario (publish to it for an unaudited hot
    /// swap).
    pub fn registry(&self, key: &str) -> &Arc<ModelRegistry> {
        &self.scenario(key).registry
    }

    /// Shards a scenario runs.
    pub fn shard_count(&self, key: &str) -> usize {
        self.scenario(key).shards.len()
    }

    /// Feature width a scenario serves.
    pub fn n_features(&self, key: &str) -> usize {
        self.scenario(key).registry.n_features()
    }

    /// Hot-swap a scenario's live model immediately (no shadow audit);
    /// returns the new epoch.
    pub fn publish(&self, key: &str, tree: DecisionTree) -> u64 {
        self.scenario(key).registry.publish(tree)
    }

    /// Hot-swap a scenario's live model to a majority-vote
    /// [`metis_dt::Forest`] over `sources` (no shadow audit); returns the
    /// new epoch. Panics when the ensemble is empty or mixes widths or
    /// output kinds.
    pub fn publish_forest(&self, key: &str, sources: Vec<DecisionTree>) -> u64 {
        let model = ServedModel::from_trees(sources).expect("published ensemble must be coherent");
        self.scenario(key).registry.publish_model(model)
    }

    /// Stage `tree` as the scenario's shadow candidate: mirrored traffic
    /// diffs it bit-exactly against the live model it would replace, and
    /// the scenario's [`ShadowConfig`] policy decides the swap once the
    /// audit quota is reached. A still-undecided previous candidate is
    /// replaced (latest round wins).
    pub fn stage(&self, key: &str, tree: DecisionTree) {
        self.stage_model(key, ServedModel::from_tree(tree));
    }

    /// Stage a majority-vote [`metis_dt::Forest`] over `sources` as the
    /// scenario's shadow candidate — same mirrored audit and CAS
    /// promotion as [`Router::stage`], but the candidate (and, once
    /// promoted, the live epoch) is a k-tree ensemble. Panics when the
    /// ensemble is empty or mixes widths or output kinds.
    pub fn stage_forest(&self, key: &str, sources: Vec<DecisionTree>) {
        let model = ServedModel::from_trees(sources).expect("staged ensemble must be coherent");
        self.stage_model(key, model);
    }

    fn stage_model(&self, key: &str, model: ServedModel) {
        let scenario = self.scenario(key);
        // `model` was compiled before this call — a mirror flush on the
        // live submit path must never wait out a compile under the lock.
        let mut shadow = scenario.shadow.lock().unwrap();
        shadow.stage(model, &scenario.registry);
        scenario.shadow_gen.store(
            shadow.active_generation().expect("just staged"),
            Ordering::Relaxed,
        );
    }

    /// Mint an independent per-client handle (one per client thread).
    pub fn handle(&self) -> FabricHandle<'_> {
        FabricHandle {
            lanes: self
                .scenarios
                .iter()
                .map(|s| s.shards.iter().map(|shard| shard.handle()).collect())
                .collect(),
            id_maps: self
                .scenarios
                .iter()
                .map(|s| vec![Vec::new(); s.shards.len()])
                .collect(),
            sessions: Vec::new(),
            global_base: 0,
            mirror_buf: vec![Vec::new(); self.scenarios.len()],
            mirror_gen: vec![0; self.scenarios.len()],
            router: self,
            outstanding: 0,
        }
    }

    /// Stop every shard (draining all queued requests — zero drops for
    /// clients that finished submitting) and merge the per-shard latency
    /// recorders bucket-wise into the scenario, tenant and fabric-wide
    /// summaries. Drop all handles first.
    pub fn shutdown(self) -> FabricReport {
        let mut tenant_recorders = vec![LatencyRecorder::new(); self.tenants.len()];
        let mut tenant_served = vec![0u64; self.tenants.len()];
        let mut scenario_reports = Vec::with_capacity(self.scenarios.len());
        let mut fabric_recorder = LatencyRecorder::new();
        let mut served_total = 0u64;
        for scenario in self.scenarios {
            let shard_reports: Vec<_> = scenario.shards.into_iter().map(|s| s.shutdown()).collect();
            let mut merged = LatencyRecorder::new();
            let mut served = 0u64;
            for report in &shard_reports {
                merged.merge(&report.recorder);
                served += report.served;
            }
            fabric_recorder.merge(&merged);
            served_total += served;
            tenant_recorders[scenario.tenant].merge(&merged);
            tenant_served[scenario.tenant] += served;
            scenario_reports.push(ScenarioReport {
                key: scenario.key,
                tenant: self.tenants[scenario.tenant].name.clone(),
                served,
                swaps: scenario.registry.swap_count(),
                live_epoch: scenario.registry.epoch(),
                live_trees: scenario.registry.current().model.n_trees(),
                latency: merged.summary(),
                shards: shard_reports,
                shadow: scenario.shadow.into_inner().unwrap().finish(),
            });
        }
        let tenants = self
            .tenants
            .into_iter()
            .zip(tenant_recorders)
            .zip(tenant_served)
            .map(|((spec, recorder), served)| {
                let latency = recorder.summary();
                TenantReport {
                    met_p99_budget: served == 0 || latency.meets_p99_slo(spec.p99_budget_s),
                    name: spec.name,
                    deadline_class: spec.deadline_class,
                    p99_budget_s: spec.p99_budget_s,
                    served,
                    latency,
                }
            })
            .collect();
        FabricReport {
            served: served_total,
            latency: fabric_recorder.summary(),
            scenarios: scenario_reports,
            tenants,
        }
    }
}

/// One fabric answer: the engine's [`Response`] plus where it was routed.
#[derive(Debug, Clone)]
pub struct FabricResponse {
    /// Handle-global submission id ([`FabricHandle::collect`] returns
    /// answers in this order).
    pub id: u64,
    /// Scenario index the request named.
    pub scenario: usize,
    /// Shard the session hashed onto.
    pub shard: usize,
    /// Session id the request carried.
    pub session: u64,
    /// The serving engine's answer (its `id` field is shard-local;
    /// use [`FabricResponse::id`]).
    pub response: Response,
}

/// A per-client submission surface over every scenario and shard. Submit
/// open-loop with [`FabricHandle::submit`]; gather everything outstanding
/// with [`FabricHandle::collect`]. Handles are independent — one per
/// client thread.
pub struct FabricHandle<'r> {
    router: &'r Router,
    /// `[scenario][shard]` engine handles.
    lanes: Vec<Vec<ServerHandle>>,
    /// `[scenario][shard]` global ids of the lane's outstanding requests,
    /// in the lane's submission order — the order its answers come back
    /// in. Emptied by every collect, so a long-lived handle's memory is
    /// bounded by its in-flight window, not its lifetime request count.
    id_maps: Vec<Vec<Vec<u64>>>,
    /// `[global id - global_base] -> session` of each outstanding request.
    sessions: Vec<u64>,
    /// Global id the `sessions` window starts at.
    global_base: u64,
    /// Per-scenario mirrored rows awaiting a shadow flush…
    mirror_buf: Vec<Vec<f64>>,
    /// …and the staging generation they were captured under (a buffer
    /// from a decided/replaced candidate is discarded, never counted
    /// toward a later candidate's audit).
    mirror_gen: Vec<u64>,
    outstanding: usize,
}

impl FabricHandle<'_> {
    /// Route one request: hash `session` to its scenario shard, mirror
    /// the features to a staged shadow candidate (when one is staged),
    /// and enqueue. Returns the handle-global id. Never blocks on the
    /// servers; a malformed request panics here, in the client.
    pub fn submit(&mut self, scenario: usize, session: u64, features: Vec<f64>) -> u64 {
        let runtime = &self.router.scenarios[scenario];
        let live_gen = runtime.shadow_gen.load(Ordering::Relaxed);
        if !self.mirror_buf[scenario].is_empty() && self.mirror_gen[scenario] != live_gen {
            // The candidate these rows shadowed was decided or replaced:
            // they must not leak into a different candidate's audit.
            self.mirror_buf[scenario].clear();
        }
        if live_gen != 0 {
            self.mirror_gen[scenario] = live_gen;
            self.mirror_buf[scenario].extend_from_slice(&features);
            let n_features = runtime.registry.n_features().max(1);
            if self.mirror_buf[scenario].len() >= self.router.mirror_batch.max(1) * n_features {
                runtime.mirror_rows(&self.mirror_buf[scenario], live_gen);
                self.mirror_buf[scenario].clear();
            }
        }
        let shard = shard_for_session(session, self.lanes[scenario].len());
        let global = self.global_base + self.sessions.len() as u64;
        self.lanes[scenario][shard].submit(features);
        self.id_maps[scenario][shard].push(global);
        self.sessions.push(session);
        self.outstanding += 1;
        global
    }

    /// Requests submitted through this handle that have not been
    /// collected.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Flush any buffered mirror rows to their shadow audits without
    /// waiting for responses (collect does this implicitly).
    pub fn flush_mirrors(&mut self) {
        for (scenario, buf) in self.mirror_buf.iter_mut().enumerate() {
            if !buf.is_empty() {
                self.router.scenarios[scenario].mirror_rows(buf, self.mirror_gen[scenario]);
                buf.clear();
            }
        }
    }

    /// Block until every outstanding request is answered; returns the
    /// responses **in global id order** (deterministic regardless of
    /// scenario, shard, or batching interleavings). Each lane answers in
    /// its own submission order, so every answer is placed straight at
    /// `id - global_base`; the id windows then slide forward, so
    /// long-lived handles stay lean.
    pub fn collect(&mut self) -> Vec<FabricResponse> {
        self.flush_mirrors();
        let mut placed: Vec<Option<FabricResponse>> = Vec::new();
        placed.resize_with(self.sessions.len(), || None);
        for (scenario, shard_handles) in self.lanes.iter_mut().enumerate() {
            for (shard, handle) in shard_handles.iter_mut().enumerate() {
                let ids = &mut self.id_maps[scenario][shard];
                let responses = handle.collect();
                assert_eq!(
                    responses.len(),
                    ids.len(),
                    "lane answered a different count"
                );
                for (response, id) in responses.into_iter().zip(ids.drain(..)) {
                    let slot = (id - self.global_base) as usize;
                    placed[slot] = Some(FabricResponse {
                        id,
                        scenario,
                        shard,
                        session: self.sessions[slot],
                        response,
                    });
                }
            }
        }
        self.outstanding = 0;
        self.global_base += self.sessions.len() as u64;
        self.sessions.clear();
        placed
            .into_iter()
            .map(|r| r.expect("every outstanding request answered by its lane"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::PromotePolicy;
    use metis_dt::{fit, Dataset, TreeConfig};
    use std::time::Duration;

    fn tree(leaves: usize, classes: usize) -> DecisionTree {
        let x: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![i as f64 / 200.0, (i % 9) as f64])
            .collect();
        let y: Vec<usize> = (0..200).map(|i| (i * classes / 200) % classes).collect();
        fit(
            &Dataset::classification(x, y, classes).unwrap(),
            &TreeConfig {
                max_leaf_nodes: leaves,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn features(k: u64) -> Vec<f64> {
        vec![(k % 200) as f64 / 200.0, (k % 9) as f64]
    }

    fn quick_cfg() -> FabricConfig {
        FabricConfig {
            serve: ServeConfig {
                max_batch: 16,
                max_delay: Duration::from_micros(200),
                ..Default::default()
            },
            mirror_batch: 32,
            ..Default::default()
        }
    }

    #[test]
    fn session_hashing_is_stable_and_spreads() {
        for shards in [1usize, 2, 3, 8] {
            let mut hits = vec![0usize; shards];
            for session in 0..4096u64 {
                let shard = shard_for_session(session, shards);
                assert_eq!(
                    shard,
                    shard_for_session(session, shards),
                    "mapping must be pure"
                );
                hits[shard] += 1;
            }
            let (min, max) = (
                *hits.iter().min().unwrap() as f64,
                *hits.iter().max().unwrap() as f64,
            );
            assert!(
                max / min.max(1.0) < 1.5,
                "shard load skew {hits:?} for {shards} shards"
            );
        }
    }

    #[test]
    fn requests_fan_across_scenarios_and_stick_to_session_shards() {
        let t_abr = tree(24, 6);
        let t_flow = tree(12, 4);
        let router = Router::new(
            vec![TenantSpec::new("video"), TenantSpec::new("dc")],
            vec![
                ScenarioSpec::new("abr", "video", t_abr.clone()).shards(3),
                ScenarioSpec::new("flow", "dc", t_flow.clone()),
            ],
            quick_cfg(),
        );
        assert_eq!(router.shard_count("abr"), 3);
        assert_eq!(router.shard_count("flow"), 1);
        let abr = router.scenario_index("abr").unwrap();
        let flow = router.scenario_index("flow").unwrap();
        let mut handle = router.handle();
        for k in 0..240u64 {
            let scenario = if k % 3 == 0 { flow } else { abr };
            handle.submit(scenario, k % 17, features(k));
        }
        let responses = handle.collect();
        assert_eq!(responses.len(), 240);
        let mut session_shard = std::collections::HashMap::new();
        for resp in &responses {
            // Global ids are submission-ordered.
            let k = resp.id;
            assert_eq!(resp.scenario, if k % 3 == 0 { flow } else { abr });
            assert_eq!(resp.session, k % 17);
            let oracle = if resp.scenario == abr {
                &t_abr
            } else {
                &t_flow
            };
            assert_eq!(resp.response.prediction, oracle.predict(&features(k)));
            // Affinity: one shard per (scenario, session), forever.
            let prev = session_shard
                .entry((resp.scenario, resp.session))
                .or_insert(resp.shard);
            assert_eq!(*prev, resp.shard, "session hopped shards");
        }
        drop(handle);
        let report = router.shutdown();
        assert_eq!(report.served, 240);
        assert_eq!(report.scenarios.len(), 2);
        assert_eq!(report.tenants.len(), 2);
        let abr_report = &report.scenarios[abr];
        assert_eq!(abr_report.served, 160);
        assert_eq!(abr_report.shards.len(), 3);
        assert_eq!(
            abr_report.shards.iter().map(|s| s.served).sum::<u64>(),
            160,
            "per-shard serves must add up"
        );
        assert_eq!(
            abr_report.latency.count, 160,
            "merged recorders count every shard"
        );
        assert_eq!(report.latency.count, 240);
        for tenant in &report.tenants {
            assert!(tenant.met_p99_budget, "infinite budgets always met");
        }
        assert_eq!(report.tenants[0].served, 160);
        assert_eq!(report.tenants[1].served, 80);
    }

    /// A long-running fabric's report stays bounded: latency is accounted
    /// in sketches, so the serialized report after 200k requests is about
    /// the size it is after 2k, not 20 B per request bigger.
    #[test]
    fn report_size_stays_flat_as_requests_grow() {
        let t = tree(24, 6);
        let report_json = |requests: u64| {
            let clock = Clock::virtual_at(0.0);
            let router = Router::new(
                vec![TenantSpec::new("t")],
                vec![ScenarioSpec::new("s", "t", t.clone()).shards(2)],
                FabricConfig {
                    clock: Arc::clone(&clock),
                    ..quick_cfg()
                },
            );
            let mut handle = router.handle();
            let mut now_s = 0.0;
            for k in 0..requests {
                // Submit gaps from ~1 µs to 1 s spread the latencies over
                // most of the sketch's buckets.
                now_s += (-20.0 + (k * 7919 % 21) as f64).exp2();
                clock.advance_to(now_s);
                handle.submit(0, k % 64, features(k));
                if k % 1000 == 999 {
                    handle.collect();
                }
            }
            handle.collect();
            drop(handle);
            let report = router.shutdown();
            assert_eq!(report.served, requests);
            serde_json::to_string(&report).expect("reports serialize")
        };
        let small = report_json(2_000).len();
        let large = report_json(200_000).len();
        assert!(large <= 64 * 1024, "200k-request report is {large} B");
        assert!(large < 2 * small, "report grew from {small} B to {large} B");
    }

    /// Long-lived handles: every collect that drains the window rebases
    /// the id maps, so memory is bounded by in-flight requests — and
    /// global ids keep counting across waves with answers staying
    /// correct.
    #[test]
    fn repeated_submit_collect_waves_rebase_and_stay_correct() {
        let t = tree(24, 6);
        let router = Router::new(
            vec![TenantSpec::new("t")],
            vec![ScenarioSpec::new("s", "t", t.clone()).shards(2)],
            quick_cfg(),
        );
        let mut handle = router.handle();
        let mut next_expected = 0u64;
        for wave in 0..5u64 {
            for k in 0..40u64 {
                let id = handle.submit(0, k % 5, features(wave * 40 + k));
                assert_eq!(id, next_expected, "global ids must keep counting");
                next_expected += 1;
            }
            let responses = handle.collect();
            assert_eq!(responses.len(), 40);
            for (k, resp) in responses.iter().enumerate() {
                assert_eq!(resp.id, wave * 40 + k as u64);
                assert_eq!(
                    resp.response.prediction,
                    t.predict(&features(wave * 40 + k as u64))
                );
            }
            // The window is drained: the dead mappings must be gone.
            assert!(handle.sessions.is_empty(), "session window not rebased");
            assert!(
                handle.id_maps.iter().flatten().all(|m| m.is_empty()),
                "id maps not rebased"
            );
        }
        assert_eq!(handle.global_base, 200);
        drop(handle);
        assert_eq!(router.shutdown().served, 200);
    }

    #[test]
    fn staged_identical_tree_promotes_on_mirrored_traffic() {
        let t = tree(24, 6);
        let router = Router::new(
            vec![TenantSpec::new("t")],
            vec![ScenarioSpec::new("s", "t", t.clone()).shadow(ShadowConfig {
                audit_rows: 64,
                policy: PromotePolicy::OnZeroDiff,
            })],
            quick_cfg(),
        );
        router.stage("s", t.clone());
        let mut handle = router.handle();
        for k in 0..100u64 {
            handle.submit(0, k, features(k));
        }
        let responses = handle.collect();
        assert_eq!(responses.len(), 100);
        assert_eq!(router.registry("s").epoch(), 1, "clean audit promoted");
        drop(handle);
        let report = router.shutdown();
        let shadow = &report.scenarios[0].shadow;
        assert_eq!(shadow.promotions.len(), 1);
        assert_eq!(shadow.promotions[0].mismatches, 0);
        assert!(shadow.mirrored_rows >= 64);
        assert_eq!(shadow.mismatch_rows, 0);
        assert_eq!(report.scenarios[0].swaps, 1);
    }

    #[test]
    fn staged_perturbed_tree_is_rejected_with_nonzero_diffs() {
        let t = tree(24, 6);
        let router = Router::new(
            vec![TenantSpec::new("t")],
            vec![ScenarioSpec::new("s", "t", t.clone()).shadow(ShadowConfig {
                audit_rows: 64,
                policy: PromotePolicy::OnZeroDiff,
            })],
            quick_cfg(),
        );
        router.stage("s", tree(2, 6)); // coarse fit: must diverge
        let mut handle = router.handle();
        for k in 0..100u64 {
            handle.submit(0, k, features(k));
        }
        let responses = handle.collect();
        // Live answers stay on epoch 0 throughout: the dirty candidate
        // never served.
        for resp in &responses {
            assert_eq!(resp.response.epoch, 0);
            assert_eq!(resp.response.prediction, t.predict(&features(resp.id)));
        }
        assert_eq!(router.registry("s").epoch(), 0);
        drop(handle);
        let report = router.shutdown();
        let shadow = &report.scenarios[0].shadow;
        assert_eq!(shadow.rejected, 1);
        assert!(shadow.mismatch_rows > 0, "audit must surface the diffs");
        assert!(shadow.promotions.is_empty());
    }

    /// A k-tree ensemble flows through the same fabric surfaces a single
    /// tree does: `stage_forest` audits it on mirrored traffic and CAS
    /// promotion makes it live; after the swap every response matches the
    /// offline `Forest` majority vote, and the report carries the live
    /// ensemble width.
    #[test]
    fn staged_and_published_forests_serve_majority_votes() {
        let t = tree(24, 6);
        let members = vec![tree(24, 6), tree(12, 6), tree(6, 6)];
        let oracle = metis_dt::Forest::from_trees(&members).unwrap();
        let router = Router::new(
            vec![TenantSpec::new("t")],
            vec![ScenarioSpec::new("s", "t", t.clone()).shadow(ShadowConfig {
                audit_rows: 64,
                policy: PromotePolicy::OnZeroDiff,
            })],
            quick_cfg(),
        );
        // Identical members ⇒ the forest votes exactly like the live tree
        // on every mirrored row, so the audit is clean and it promotes.
        router.stage_forest("s", vec![t.clone(), t.clone(), t.clone()]);
        let mut handle = router.handle();
        for k in 0..100u64 {
            handle.submit(0, k, features(k));
        }
        handle.collect();
        assert_eq!(router.registry("s").epoch(), 1, "clean audit promoted");
        assert_eq!(router.registry("s").current().model.n_trees(), 3);
        // Direct ensemble hot swap, no audit: responses after the publish
        // follow the forest's majority vote row-for-row.
        let epoch = router.publish_forest("s", members);
        assert_eq!(epoch, 2);
        for k in 0..100u64 {
            handle.submit(0, k, features(k));
        }
        let responses = handle.collect();
        for resp in &responses {
            assert_eq!(resp.response.epoch, 2);
            assert_eq!(
                resp.response.prediction,
                oracle.predict(&features(resp.id - 100))
            );
        }
        drop(handle);
        let report = router.shutdown();
        assert_eq!(report.scenarios[0].live_trees, 3);
        assert_eq!(report.scenarios[0].swaps, 2);
        assert_eq!(report.scenarios[0].shadow.promotions.len(), 1);
        assert_eq!(report.scenarios[0].shadow.promotions[0].mismatches, 0);
    }

    #[test]
    fn tenant_p99_budget_violations_surface_in_the_report() {
        let t = tree(8, 3);
        let router = Router::new(
            vec![TenantSpec {
                name: "strict".into(),
                deadline_class: 0,
                p99_budget_s: 1e-12, // unmeetably tight
            }],
            vec![ScenarioSpec::new("s", "strict", t)],
            quick_cfg(),
        );
        let mut handle = router.handle();
        for k in 0..50u64 {
            handle.submit(0, k, features(k));
        }
        handle.collect();
        drop(handle);
        let report = router.shutdown();
        assert!(!report.tenants[0].met_p99_budget, "1ps budget must fail");
        assert_eq!(report.tenants[0].deadline_class, 0);
        // A served==0 tenant cannot violate.
        let router = Router::new(
            vec![TenantSpec {
                name: "idle".into(),
                deadline_class: 3,
                p99_budget_s: 1e-12,
            }],
            vec![ScenarioSpec::new("s", "idle", tree(8, 3))],
            quick_cfg(),
        );
        let report = router.shutdown();
        assert!(report.tenants[0].met_p99_budget);
        assert_eq!(report.served, 0);
    }

    /// An enabled plane registers one scope per shard plus a control
    /// scope per scenario; a staged promotion lands on the control scope
    /// as the registry's hot-swap event followed by the audit verdict,
    /// and the shard scopes account for every served request.
    #[test]
    fn telemetry_scopes_cover_shards_and_the_control_plane() {
        let t = tree(24, 6);
        let router = Router::new(
            vec![TenantSpec::new("video")],
            vec![ScenarioSpec::new("abr", "video", t.clone())
                .shards(2)
                .shadow(ShadowConfig {
                    audit_rows: 64,
                    policy: PromotePolicy::OnZeroDiff,
                })],
            FabricConfig {
                telemetry: Telemetry::enabled(),
                ..quick_cfg()
            },
        );
        router.stage("abr", t.clone());
        let mut handle = router.handle();
        for k in 0..100u64 {
            handle.submit(0, k, features(k));
        }
        assert_eq!(handle.collect().len(), 100);
        assert_eq!(router.registry("abr").epoch(), 1, "clean audit promoted");
        let scopes = router.telemetry().scopes();
        assert_eq!(scopes.len(), 3, "2 shard scopes + 1 control scope");
        let control = scopes
            .iter()
            .find(|s| s.shard() == CONTROL_SHARD)
            .expect("control scope registered");
        assert_eq!(control.scenario(), "abr");
        assert_eq!(control.tenant(), "video");
        let names: Vec<&str> = control
            .events
            .events()
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(
            names,
            vec!["hot_swap", "audit_verdict"],
            "the registry hook fires inside the promotion CAS, then the \
             verdict is recorded"
        );
        let served: u64 = scopes
            .iter()
            .filter(|s| s.shard() != CONTROL_SHARD)
            .map(|s| s.served.get())
            .sum();
        assert_eq!(served, 100, "shard scopes account for every request");
        // The trace export carries all three scopes' thread metadata.
        let trace = router.telemetry().chrome_trace_json();
        assert!(trace.contains("\"traceEvents\""));
        drop(handle);
        router.shutdown();
    }

    /// `Router::observer` derives one SLO monitor per tenant from the
    /// `TenantSpec`s (budget + deadline class), watches the router's
    /// scopes, and stamps from the router's clock: a tenant with an
    /// impossible budget burns its error budget on the first tick, with
    /// tail attribution over the fabric's stage sketches.
    #[test]
    fn observer_monitors_tenant_slos_over_the_fabric() {
        let router = Router::new(
            vec![TenantSpec {
                name: "gold".into(),
                deadline_class: 2,
                p99_budget_s: 1e-12,
            }],
            vec![ScenarioSpec::new("s", "gold", tree(24, 6)).shards(2)],
            FabricConfig {
                telemetry: Telemetry::enabled(),
                ..quick_cfg()
            },
        );
        let obs = router.observer(metis_obs::ObserverConfig {
            fast_window: 1,
            clear_ticks: 1,
            ..Default::default()
        });
        assert_eq!(obs.slos().len(), 1);
        assert_eq!(obs.slos()[0].deadline_class, 2);
        let mut handle = router.handle();
        for k in 0..200u64 {
            handle.submit(0, k, features(k));
        }
        assert_eq!(handle.collect().len(), 200);
        obs.tick_now();
        let report = obs.health_report();
        assert_eq!(report.ticks, 1);
        assert_eq!(report.tenants[0].served_total, 200);
        assert_eq!(
            report.tenants[0].over_total, 200,
            "every request misses a 1ps budget"
        );
        let fired = obs
            .alerts()
            .into_iter()
            .find(|a| a.kind == metis_obs::AlertKind::FastBurn && a.firing)
            .expect("impossible budget fires fast burn on tick 1");
        assert_eq!(fired.tenant, "gold");
        assert_eq!(fired.deadline_class, 2);
        assert!(
            !fired.attribution.is_empty(),
            "fired alert attributes stages"
        );
        // Scope series cover both shards + control, classes attached.
        assert_eq!(report.scopes.len(), 3);
        assert!(report.scopes.iter().all(|s| s.deadline_class == 2));
        assert!(report.scopes.iter().any(|s| s.shard == -1), "control row");
        // The observed trace carries the alert mark on top of the spans.
        let trace = obs.chrome_trace_json();
        assert!(trace.contains("alert/gold/fast_burn"));
        drop(handle);
        router.shutdown();
    }

    /// A rejected candidate still concludes its audit on the control
    /// scope — promoted = false, with the mismatch count — and no
    /// hot-swap event follows.
    #[test]
    fn rejected_audits_surface_on_the_control_scope() {
        let t = tree(24, 6);
        let router = Router::new(
            vec![TenantSpec::new("t")],
            vec![ScenarioSpec::new("s", "t", t.clone()).shadow(ShadowConfig {
                audit_rows: 64,
                policy: PromotePolicy::OnZeroDiff,
            })],
            FabricConfig {
                telemetry: Telemetry::enabled(),
                ..quick_cfg()
            },
        );
        router.stage("s", tree(2, 6)); // coarse fit: must diverge
        let mut handle = router.handle();
        for k in 0..100u64 {
            handle.submit(0, k, features(k));
        }
        handle.collect();
        assert_eq!(router.registry("s").epoch(), 0, "rejected, never live");
        let scopes = router.telemetry().scopes();
        let control = scopes.iter().find(|s| s.shard() == CONTROL_SHARD).unwrap();
        let events = control.events.events();
        assert_eq!(events.len(), 1, "one audit verdict, no hot swap");
        match &events[0].kind {
            metis_telemetry::EventKind::AuditVerdict {
                epoch,
                mismatches,
                promoted,
            } => {
                assert_eq!(*epoch, 0, "verdict names the audited baseline");
                assert!(*mismatches > 0);
                assert!(!promoted);
            }
            other => panic!("expected an audit verdict, got {other:?}"),
        }
        drop(handle);
        router.shutdown();
    }

    #[test]
    #[should_panic(expected = "unknown tenant")]
    fn scenario_with_unknown_tenant_panics() {
        let _ = Router::new(
            vec![TenantSpec::new("a")],
            vec![ScenarioSpec::new("s", "b", tree(8, 3))],
            FabricConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "duplicate scenario")]
    fn duplicate_scenario_keys_panic() {
        let _ = Router::new(
            vec![TenantSpec::new("a")],
            vec![
                ScenarioSpec::new("s", "a", tree(8, 3)),
                ScenarioSpec::new("s", "a", tree(8, 3)),
            ],
            FabricConfig::default(),
        );
    }
}
