//! The hot-swap model registry: an epoch pointer the §3.2 conversion
//! pipeline can re-point mid-traffic.
//!
//! Readers ([`ModelRegistry::current`]) clone an `Arc` to the live
//! [`EpochModel`] under a read lock held for a pointer copy — they never
//! wait on a publisher compiling a model (compilation happens *outside*
//! the lock; the swap itself is a single pointer store). In-flight
//! batches keep their `Arc`, so a swap never invalidates work already
//! dispatched: requests served from epoch `e` are answered by epoch `e`'s
//! model, bit-identically to the sequential oracle on that model.
//!
//! An epoch's model is a [`Forest`]: a single tree is served as a
//! one-tree forest, so the registry, the engine flush and the fabric's
//! shadow audit handle one model shape, and a scenario can hot-swap
//! between one tree and an ensemble with the same CAS / bit-exactness
//! guarantees.

use crate::clock::Clock;
use metis_dt::Forest;
use metis_telemetry::ShardTelemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One published model generation: the served forest (one tree or an
/// ensemble) tagged with its registry epoch.
#[derive(Debug)]
pub struct EpochModel {
    pub epoch: u64,
    pub model: Forest,
}

/// A telemetry scope attached to a registry: publishes record their
/// hot-swap span/event on it, stamped from the given clock.
struct TelemetryHook {
    scope: Arc<ShardTelemetry>,
    clock: Arc<Clock>,
}

/// Epoch-pointer registry. See the module docs for the swap contract.
pub struct ModelRegistry {
    current: RwLock<Arc<EpochModel>>,
    /// Feature width of every epoch, fixed by the initial model, so a
    /// publish can be checked before it takes the write lock.
    n_features: usize,
    next_epoch: AtomicU64,
    swaps: AtomicU64,
    telemetry: Mutex<Option<TelemetryHook>>,
}

impl ModelRegistry {
    /// Seed the registry with its epoch-0 model: a
    /// [`metis_dt::DecisionTree`] (served as a one-tree forest) or a
    /// [`Forest`].
    pub fn new(initial: impl Into<Forest>) -> Self {
        let model = initial.into();
        ModelRegistry {
            n_features: model.n_features(),
            current: RwLock::new(Arc::new(EpochModel { epoch: 0, model })),
            next_epoch: AtomicU64::new(1),
            swaps: AtomicU64::new(0),
            telemetry: Mutex::new(None),
        }
    }

    /// Attach a live telemetry scope (normally a scenario's **control
    /// scope**): every subsequent publish records its hot-swap span and
    /// flight event there, stamped from `clock`. Under a virtual clock
    /// the swap cost is reported as 0 (a schedule event has no wall
    /// duration), keeping the event stream deterministic; under a real
    /// clock the cost spans compile + pointer swap.
    pub fn attach_telemetry(&self, scope: Arc<ShardTelemetry>, clock: Arc<Clock>) {
        *self.telemetry.lock().unwrap() = Some(TelemetryHook { scope, clock });
    }

    /// Wall stamp at publish entry, read only when a real-clock scope is
    /// attached — virtual publishes must never take live clock readings
    /// for durations.
    fn publish_start_s(&self) -> Option<f64> {
        let guard = self.telemetry.lock().unwrap();
        guard
            .as_ref()
            .and_then(|h| (!h.clock.is_virtual()).then(|| h.clock.now_s()))
    }

    /// Publish a newly fitted tree or a [`Forest`] (from
    /// [`Forest::from_trees`]), returning its epoch. A tree is compiled
    /// before the lock is taken; the epoch is
    /// assigned and the pointer swapped under the same write lock, so
    /// concurrent publishers install strictly increasing epochs (later
    /// publish ⇒ later epoch ⇒ the one readers see) and readers stall for
    /// at most a pointer store. Every epoch of a registry serves the same
    /// feature schema: a model with a different `n_features` panics here,
    /// before the lock, so readers never see a poisoned pointer (queued
    /// requests were validated against the old width).
    pub fn publish(&self, model: impl Into<Forest>) -> u64 {
        // Stamp before the compile so the reported swap cost covers it.
        let started_s = self.publish_start_s();
        self.install(model.into(), None, started_s)
            .expect("unconditional publish cannot be superseded")
    }

    /// Compare-and-swap publish: install `model` only if `expected_epoch`
    /// is still live, returning `None` (and installing nothing) when a
    /// concurrent publish moved the pointer first. The epoch check and
    /// the swap happen under one write lock, so an audited promotion can
    /// never clobber a model it was not audited against. The caller
    /// supplies the compiled artifact (shadow audits already hold one),
    /// so the lock covers no compile work.
    pub fn publish_if_current(&self, model: Forest, expected_epoch: u64) -> Option<u64> {
        let started_s = self.publish_start_s();
        self.install(model, Some(expected_epoch), started_s)
    }

    fn install(
        &self,
        model: Forest,
        expected_epoch: Option<u64>,
        started_s: Option<f64>,
    ) -> Option<u64> {
        assert_eq!(
            model.n_features(),
            self.n_features,
            "publish: the registry serves {} features, the new model takes {}",
            self.n_features,
            model.n_features()
        );
        let mut current = self.current.write().unwrap();
        if expected_epoch.is_some_and(|e| current.epoch != e) {
            return None;
        }
        let width = model.n_trees();
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        *current = Arc::new(EpochModel { epoch, model });
        self.swaps.fetch_add(1, Ordering::Relaxed);
        // Recorded while the write lock serializes publishers, so swap
        // events land in epoch order on the scope.
        if let Some(hook) = self.telemetry.lock().unwrap().as_ref() {
            let (start_s, cost_s) = if hook.clock.is_virtual() {
                (hook.clock.now_s(), 0.0)
            } else {
                let now_s = hook.clock.now_s();
                let start_s = started_s.unwrap_or(now_s);
                (start_s, (now_s - start_s).max(0.0))
            };
            hook.scope.on_hot_swap(start_s, epoch, width, cost_s);
        }
        Some(epoch)
    }

    /// The live model. The returned `Arc` pins its epoch for as long as
    /// the caller holds it — a concurrent [`ModelRegistry::publish`]
    /// never changes what this handle evaluates.
    pub fn current(&self) -> Arc<EpochModel> {
        Arc::clone(&self.current.read().unwrap())
    }

    /// Epoch of the live model.
    pub fn epoch(&self) -> u64 {
        self.current.read().unwrap().epoch
    }

    /// Feature width every epoch of this registry serves (invariant
    /// across swaps — [`ModelRegistry::publish`] enforces it).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of completed hot swaps (publishes after the initial seed).
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_dt::{fit, Dataset, DecisionTree, Prediction, TreeConfig, TreeKind};

    fn tree(shift: f64) -> DecisionTree {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0 + shift]).collect();
        let y: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let ds = Dataset::classification(x, y, 2).unwrap();
        fit(&ds, &TreeConfig::default()).unwrap()
    }

    #[test]
    fn publish_advances_epoch_and_swap_count() {
        let reg = ModelRegistry::new(tree(0.0));
        assert_eq!(reg.epoch(), 0);
        assert_eq!(reg.swap_count(), 0);
        assert_eq!(reg.publish(tree(0.1)), 1);
        assert_eq!(reg.publish(tree(0.2)), 2);
        assert_eq!(reg.epoch(), 2);
        assert_eq!(reg.swap_count(), 2);
    }

    #[test]
    fn forest_epochs_swap_like_tree_epochs() {
        let reg = ModelRegistry::new(tree(0.0));
        let ensemble = Forest::from_trees(&[tree(0.0), tree(0.1), tree(0.2)]).unwrap();
        assert_eq!(ensemble.n_trees(), 3);
        assert_eq!(reg.publish(ensemble), 1);
        assert_eq!(reg.current().model.n_trees(), 3);
        // And back to a single tree — shape changes ride the same pointer.
        assert_eq!(reg.publish(tree(0.3)), 2);
        assert_eq!(reg.current().model.n_trees(), 1);
    }

    /// A wrong-width publish panics in its caller and nowhere else: the
    /// width is checked before the write lock, so the epoch pointer the
    /// batcher reads is never poisoned and the live epoch keeps serving.
    #[test]
    fn rejected_publish_leaves_the_live_epoch_serving() {
        use crate::engine::{ServeConfig, TreeServer};
        let reg = Arc::new(ModelRegistry::new(tree(0.0)));
        assert_eq!(reg.n_features(), 1);
        let server = TreeServer::start(Arc::clone(&reg), ServeConfig::default());
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, -(i as f64)]).collect();
        let y: Vec<usize> = (0..20).map(|i| usize::from(i >= 10)).collect();
        let wide = fit(
            &Dataset::classification(x, y, 2).unwrap(),
            &TreeConfig::default(),
        )
        .unwrap();
        let publisher = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || reg.publish(wide))
        };
        let panic = publisher
            .join()
            .expect_err("a wrong-width publish must panic");
        let message = panic.downcast_ref::<String>().expect("formatted message");
        assert!(message.contains("features"), "{message}");
        assert_eq!(reg.epoch(), 0);
        let mut handle = server.handle();
        for k in 0..8 {
            handle.submit(vec![k as f64 / 8.0]);
        }
        let responses = handle.collect();
        assert_eq!(responses.len(), 8);
        assert!(responses.iter().all(|r| r.epoch == 0));
        drop(handle);
        assert_eq!(server.shutdown().served, 8);
    }

    /// The shadow-promotion CAS: a publish conditioned on a stale epoch
    /// must install nothing, and the check races correctly under one
    /// write lock with unconditional publishes.
    #[test]
    fn conditional_publish_refuses_a_moved_epoch() {
        let reg = ModelRegistry::new(tree(0.0));
        let candidate = Forest::from(tree(0.1));
        // Live epoch matches: installs.
        assert_eq!(reg.publish_if_current(candidate.clone(), 0), Some(1));
        // A hotfix lands…
        let hotfix_epoch = reg.publish(tree(0.2));
        assert_eq!(hotfix_epoch, 2);
        // …so a promotion audited against epoch 1 must refuse.
        assert_eq!(reg.publish_if_current(candidate, 1), None);
        assert_eq!(reg.epoch(), 2, "refused publish must install nothing");
        assert_eq!(reg.swap_count(), 2);
    }

    /// An attached control scope sees every publish as a hot-swap event
    /// and a publish-stage span; under a virtual clock the cost is 0
    /// and the stamp is the schedule time — fully deterministic.
    #[test]
    fn attached_scope_records_hot_swaps() {
        use metis_telemetry::{Stage, Telemetry, CONTROL_SHARD};
        let reg = ModelRegistry::new(tree(0.0));
        let telemetry = Telemetry::enabled();
        let scope = telemetry.register("abr", CONTROL_SHARD, "gold", 0).unwrap();
        let clock = Clock::virtual_at(3.0);
        reg.attach_telemetry(Arc::clone(&scope), Arc::clone(&clock));
        reg.publish(tree(0.1));
        reg.publish(Forest::from_trees(&[tree(0.0), tree(0.1), tree(0.2)]).unwrap());
        // A refused CAS publish must record nothing.
        assert_eq!(reg.publish_if_current(Forest::from(tree(0.3)), 0), None);
        let events = scope.events.events();
        assert_eq!(events.len(), 2, "one event per completed swap");
        for (event, (want_epoch, want_trees)) in events.iter().zip([(1u64, 1usize), (2, 3)]) {
            assert_eq!(event.time_s, 3.0, "stamped at virtual schedule time");
            match &event.kind {
                metis_telemetry::EventKind::HotSwap {
                    epoch,
                    trees,
                    cost_s,
                } => {
                    assert_eq!(*epoch, want_epoch);
                    assert_eq!(*trees, want_trees);
                    assert_eq!(*cost_s, 0.0, "virtual swaps cost no wall time");
                }
                other => panic!("expected HotSwap, got {other:?}"),
            }
        }
        assert_eq!(scope.stage_sketch(Stage::Publish).count(), 2);
        assert_eq!(scope.spans.len(), 2);
    }

    #[test]
    fn held_handle_pins_its_epoch_across_swaps() {
        // Epoch `e` serves `sources[e]`.
        let sources = [tree(0.0), tree(0.3)];
        let reg = ModelRegistry::new(sources[0].clone());
        let pinned = reg.current();
        reg.publish(sources[1].clone());
        assert_eq!(pinned.epoch, 0, "in-flight handle must keep its epoch");
        assert_eq!(reg.current().epoch, 1);
        // The pinned model still answers from its own source tree.
        let x = [0.25];
        assert_eq!(
            pinned.model.predict(&x),
            sources[pinned.epoch as usize].predict(&x)
        );
    }

    #[test]
    fn concurrent_readers_see_a_consistent_epoch() {
        // Epoch `e` serves `sources[e]`.
        let sources: Vec<DecisionTree> = std::iter::once(tree(0.0))
            .chain((0..20).map(|k| tree(k as f64 * 0.01)))
            .collect();
        let reg = std::sync::Arc::new(ModelRegistry::new(sources[0].clone()));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let reg = &reg;
                    let stop = &stop;
                    let sources = &sources;
                    scope.spawn(move || {
                        let mut last = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let m = reg.current();
                            assert!(m.epoch >= last, "epochs must be monotone per reader");
                            // The handle is internally consistent: the
                            // served model and its source agree.
                            assert_eq!(
                                m.model.predict(&[0.1]),
                                sources[m.epoch as usize].predict(&[0.1])
                            );
                            last = m.epoch;
                        }
                        last
                    })
                })
                .collect();
            for source in &sources[1..] {
                reg.publish(source.clone());
            }
            stop.store(true, Ordering::Relaxed);
            for r in readers {
                assert!(r.join().unwrap() <= 20);
            }
        });
        assert_eq!(reg.epoch(), 20);
    }

    /// The compile-outside-lock claim, pinned: while writer threads
    /// publish a mix of single-tree and forest epochs, every model a
    /// reader observes is fully compiled — its served answers match its
    /// own source trees' sequential oracle on every probe, for every
    /// handle ever returned. A torn or half-installed epoch would
    /// diverge.
    #[test]
    fn readers_only_observe_fully_compiled_epochs_during_concurrent_publishes() {
        // Epoch `e` serves the ensemble of `sources[e]`, in vote order.
        let sources: Vec<Vec<DecisionTree>> = std::iter::once(vec![tree(0.0)])
            .chain((0..12u64).map(|k| {
                if k % 2 == 0 {
                    vec![tree(k as f64 * 0.01)]
                } else {
                    let width = 2 + (k as usize % 3);
                    (0..width).map(|j| tree(j as f64 * 0.02 + 0.005)).collect()
                }
            }))
            .collect();
        let reg = std::sync::Arc::new(ModelRegistry::new(sources[0][0].clone()));
        let probes: Vec<[f64; 1]> = (0..16).map(|i| [i as f64 / 16.0]).collect();
        let oracle = |sources: &[DecisionTree], x: &[f64]| -> Prediction {
            match sources[0].kind() {
                TreeKind::Classifier { n_classes } => {
                    let mut votes = vec![0u32; n_classes];
                    for s in sources {
                        votes[s.predict_class(x)] += 1;
                    }
                    let best = (0..n_classes).max_by_key(|&c| (votes[c], std::cmp::Reverse(c)));
                    Prediction::Class(best.unwrap())
                }
                TreeKind::Regressor => {
                    let sum: f64 = sources.iter().map(|s| s.predict_value(x)).sum();
                    Prediction::Value(sum / sources.len() as f64)
                }
            }
        };
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let stop = &stop;
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let reg = &reg;
                    let probes = &probes;
                    let sources = &sources;
                    scope.spawn(move || {
                        let mut seen_widths = std::collections::BTreeSet::new();
                        // Check-then-test, so at least one epoch is always
                        // observed even if the publishers finish first.
                        loop {
                            let m = reg.current();
                            seen_widths.insert(m.model.n_trees());
                            for x in probes {
                                assert_eq!(
                                    m.model.predict(x),
                                    oracle(&sources[m.epoch as usize], x),
                                    "epoch {} served an answer its sources disown",
                                    m.epoch
                                );
                            }
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                        seen_widths
                    })
                })
                .collect();
            for members in &sources[1..] {
                match members.as_slice() {
                    [one] => reg.publish(one.clone()),
                    members => reg.publish(Forest::from_trees(members).unwrap()),
                };
            }
            stop.store(true, Ordering::Relaxed);
            for r in readers {
                // Readers are free-running; they must at least have seen
                // *some* epoch, and nothing they saw was torn.
                assert!(!r.join().unwrap().is_empty());
            }
        });
        assert_eq!(reg.epoch(), 12);
    }
}
