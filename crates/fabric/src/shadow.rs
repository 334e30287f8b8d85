//! Shadow serving: stage the next model beside the live one, replay
//! mirrored traffic through both, and only hot-swap when the audit says
//! so.
//!
//! A staged *candidate* — a [`Forest`], so a single tree or an
//! ensemble — pins the live epoch it would replace
//! ([`metis_serve::ModelRegistry::current`] at staging time) as its
//! **baseline**. Mirrored feature rows are diffed bit-exactly —
//! candidate vs baseline — via [`Forest::diff_batch`], the one audit
//! entry point; once `audit_rows` rows have been mirrored the
//! [`PromotePolicy`] decides:
//!
//! * [`PromotePolicy::OnZeroDiff`] — promote only a clean audit: the swap
//!   is provably a behavioural no-op on observed traffic (a safe
//!   refresh); a dirty candidate is *rejected* and its mismatch count
//!   surfaced instead of silently going live.
//! * [`PromotePolicy::AfterAudit`] — promote unconditionally once
//!   audited, recording how many mirrored rows changed answer. This is
//!   the serve-while-converting mode: each conversion round's student
//!   *should* differ, and the audit quantifies by how much before it
//!   takes traffic.
//! * [`PromotePolicy::Hold`] — never auto-promote; audits accumulate for
//!   an operator decision.
//!
//! Mirroring costs: most submits pay one feature-row copy while a
//! candidate is staged (and nothing when none is); the submit that
//! crosses the flush threshold additionally pays the batched diff of its
//! buffered block under the scenario's shadow lock, and the one that
//! crosses the audit quota pays the registry pointer swap (the candidate
//! is compiled at staging time, never on the submit path). Promotion is
//! a compare-and-swap on the baseline epoch: if a direct publish landed
//! mid-audit, the candidate is *superseded* — recorded, never installed.

use metis_dt::Forest;
use metis_serve::{EpochModel, ModelRegistry};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// What to do with a staged candidate once its audit quota is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromotePolicy {
    /// Promote only when every mirrored row answered identically to the
    /// baseline; reject otherwise.
    OnZeroDiff,
    /// Promote once audited, whatever the diff count (recorded in the
    /// [`PromotionRecord`]).
    AfterAudit,
    /// Accumulate audits, never auto-promote.
    Hold,
}

/// Shadow-serving knobs of one scenario.
#[derive(Debug, Clone, Copy)]
pub struct ShadowConfig {
    /// Mirrored rows a candidate must see before a promotion decision.
    pub audit_rows: usize,
    /// Decision rule at the quota.
    pub policy: PromotePolicy,
}

impl Default for ShadowConfig {
    fn default() -> Self {
        ShadowConfig {
            audit_rows: 256,
            policy: PromotePolicy::OnZeroDiff,
        }
    }
}

/// One audited hot swap that went live.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PromotionRecord {
    /// Epoch the candidate became.
    pub epoch: u64,
    /// Live epoch the candidate was audited against.
    pub baseline_epoch: u64,
    /// Mirrored rows in the audit.
    pub audited_rows: usize,
    /// Rows that answered differently from the baseline (always 0 under
    /// [`PromotePolicy::OnZeroDiff`]).
    pub mismatches: usize,
    /// Ensemble width of the promoted model (1 = a single tree, k = a
    /// k-tree majority-vote forest).
    pub trees: usize,
}

/// Lifetime shadow accounting of one scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShadowReport {
    /// Candidates ever staged.
    pub staged: u64,
    /// Candidates replaced by a newer staging before their audit decided.
    pub replaced: u64,
    /// Candidates rejected by [`PromotePolicy::OnZeroDiff`] (with their
    /// total mismatch rows folded into `mismatch_rows`).
    pub rejected: u64,
    /// Candidates whose audit passed but whose baseline epoch was no
    /// longer live at promotion time (a direct publish landed mid-audit)
    /// — the swap was refused rather than clobbering an unaudited model.
    pub superseded: u64,
    /// Mirrored rows diffed across all candidates.
    pub mirrored_rows: u64,
    /// Mirrored rows that answered differently from their baseline.
    pub mismatch_rows: u64,
    /// Every promotion that went live, in order.
    pub promotions: Vec<PromotionRecord>,
    /// `(mirrored, mismatches)` of a candidate still staged at shutdown.
    pub pending: Option<(usize, usize)>,
}

struct Candidate {
    model: Forest,
    baseline: Arc<EpochModel>,
    /// Staging generation (monotone per slot) — mirrored rows carry the
    /// generation they were captured under, so traffic buffered before a
    /// candidate was staged (or for an already-decided one) can never be
    /// counted toward a different candidate's audit.
    generation: u64,
    mirrored: usize,
    mismatches: usize,
}

/// One concluded audit, for the telemetry plane's flight recorder:
/// which epoch the verdict concerned, how many mirrored rows diverged,
/// and whether the candidate went live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AuditDecision {
    pub epoch: u64,
    pub mismatches: u64,
    pub promoted: bool,
}

/// Per-scenario shadow slot: at most one staged candidate plus the
/// accumulated report. Callers serialize access (the router wraps this in
/// a `Mutex`).
pub(crate) struct ShadowState {
    cfg: ShadowConfig,
    candidate: Option<Candidate>,
    next_generation: u64,
    report: ShadowReport,
    /// Verdict of the most recent concluded audit, until taken — the
    /// router forwards it to the scenario's telemetry control scope.
    last_decision: Option<AuditDecision>,
}

impl ShadowState {
    pub(crate) fn new(cfg: ShadowConfig) -> Self {
        assert!(cfg.audit_rows >= 1, "audit_rows must be at least 1");
        ShadowState {
            cfg,
            candidate: None,
            next_generation: 1,
            report: ShadowReport::default(),
            last_decision: None,
        }
    }

    /// Take the most recent concluded audit verdict, if one landed since
    /// the last call. `epoch` is the newly live epoch on promotion, the
    /// audited baseline epoch on rejection/supersession.
    pub(crate) fn take_last_decision(&mut self) -> Option<AuditDecision> {
        self.last_decision.take()
    }

    /// Generation of the staged candidate, or `None` when the slot is
    /// empty (the router caches this in an atomic — 0 = empty — so the
    /// submit path can skip mirroring without the lock).
    pub(crate) fn active_generation(&self) -> Option<u64> {
        self.candidate.as_ref().map(|c| c.generation)
    }

    /// Stage a candidate model (tree or ensemble) against the registry's
    /// current epoch, replacing any undecided predecessor (latest round
    /// wins). The caller compiles the candidate and checks its feature
    /// width **before** locking this state (mirroring the registry's
    /// compile-outside-the-lock rule), so live submits flushing mirrors
    /// never stall behind a compile and a rejected candidate never
    /// poisons the lock.
    pub(crate) fn stage(&mut self, model: Forest, registry: &ModelRegistry) {
        let baseline = registry.current();
        if let Some(old) = self.candidate.take() {
            self.report.replaced += 1;
            self.report.mirrored_rows += old.mirrored as u64;
            self.report.mismatch_rows += old.mismatches as u64;
        }
        self.report.staged += 1;
        let generation = self.next_generation;
        self.next_generation += 1;
        self.candidate = Some(Candidate {
            model,
            baseline,
            generation,
            mirrored: 0,
            mismatches: 0,
        });
    }

    /// Diff a block of mirrored feature rows (row-major) against the
    /// staged candidate's baseline, and decide promotion when the audit
    /// quota is reached. Rows captured under a different `generation`
    /// than the staged candidate are discarded (they mirror traffic the
    /// candidate never shadowed). Returns the promotion if one went live.
    pub(crate) fn mirror(
        &mut self,
        rows: &[f64],
        generation: u64,
        registry: &ModelRegistry,
    ) -> Option<PromotionRecord> {
        let candidate = self.candidate.as_mut()?;
        if candidate.generation != generation {
            return None;
        }
        let diff = candidate.model.diff_batch(&candidate.baseline.model, rows);
        candidate.mirrored += diff.rows;
        candidate.mismatches += diff.mismatches;
        if candidate.mirrored < self.cfg.audit_rows {
            return None;
        }
        match self.cfg.policy {
            PromotePolicy::Hold => None,
            PromotePolicy::OnZeroDiff if candidate.mismatches > 0 => {
                let rejected = self.candidate.take().unwrap();
                self.report.rejected += 1;
                self.report.mirrored_rows += rejected.mirrored as u64;
                self.report.mismatch_rows += rejected.mismatches as u64;
                self.last_decision = Some(AuditDecision {
                    epoch: rejected.baseline.epoch,
                    mismatches: rejected.mismatches as u64,
                    promoted: false,
                });
                None
            }
            PromotePolicy::OnZeroDiff | PromotePolicy::AfterAudit => {
                let promoted = self.candidate.take().unwrap();
                self.report.mirrored_rows += promoted.mirrored as u64;
                self.report.mismatch_rows += promoted.mismatches as u64;
                // Compare-and-swap on the baseline epoch: if a direct
                // publish landed mid-audit, this candidate was audited
                // against a model that is no longer live — refusing to
                // install it is the only honest outcome (a clobbered
                // hotfix would be far worse than a lost refresh).
                let trees = promoted.model.n_trees();
                let Some(epoch) =
                    registry.publish_if_current(promoted.model, promoted.baseline.epoch)
                else {
                    self.report.superseded += 1;
                    self.last_decision = Some(AuditDecision {
                        epoch: promoted.baseline.epoch,
                        mismatches: promoted.mismatches as u64,
                        promoted: false,
                    });
                    return None;
                };
                self.last_decision = Some(AuditDecision {
                    epoch,
                    mismatches: promoted.mismatches as u64,
                    promoted: true,
                });
                let record = PromotionRecord {
                    epoch,
                    baseline_epoch: promoted.baseline.epoch,
                    audited_rows: promoted.mirrored,
                    mismatches: promoted.mismatches,
                    trees,
                };
                self.report.promotions.push(record.clone());
                Some(record)
            }
        }
    }

    /// Close the slot at shutdown: a still-staged candidate is surfaced
    /// as `pending` rather than silently dropped.
    pub(crate) fn finish(mut self) -> ShadowReport {
        if let Some(pending) = self.candidate.take() {
            self.report.mirrored_rows += pending.mirrored as u64;
            self.report.mismatch_rows += pending.mismatches as u64;
            self.report.pending = Some((pending.mirrored, pending.mismatches));
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_dt::{fit, Dataset, DecisionTree, TreeConfig};

    fn tree(leaves: usize) -> DecisionTree {
        let x: Vec<Vec<f64>> = (0..160)
            .map(|i| vec![i as f64 / 160.0, (i % 5) as f64])
            .collect();
        let y: Vec<usize> = (0..160).map(|i| (i * 6 / 160) % 6).collect();
        fit(
            &Dataset::classification(x, y, 6).unwrap(),
            &TreeConfig {
                max_leaf_nodes: leaves,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn rows(n: usize) -> Vec<f64> {
        (0..n)
            .flat_map(|k| vec![(k % 160) as f64 / 160.0, (k % 5) as f64])
            .collect()
    }

    /// Test-side staging: compile then stage, as the router does.
    fn stage(shadow: &mut ShadowState, tree: DecisionTree, registry: &ModelRegistry) {
        shadow.stage(tree.into(), registry);
    }

    #[test]
    fn zero_diff_candidate_promotes_at_the_quota_and_not_before() {
        let registry = ModelRegistry::new(tree(16));
        let mut shadow = ShadowState::new(ShadowConfig {
            audit_rows: 100,
            policy: PromotePolicy::OnZeroDiff,
        });
        stage(&mut shadow, tree(16), &registry); // identical fit: zero diffs
        let gen = shadow.active_generation().expect("staged");
        assert!(
            shadow.mirror(&rows(60), gen, &registry).is_none(),
            "below quota"
        );
        let promo = shadow
            .mirror(&rows(60), gen, &registry)
            .expect("clean audit at quota must promote");
        assert_eq!(promo.baseline_epoch, 0);
        assert_eq!(promo.epoch, 1);
        assert_eq!(promo.audited_rows, 120);
        assert_eq!(promo.mismatches, 0);
        assert_eq!(registry.epoch(), 1, "promotion goes live");
        assert!(shadow.active_generation().is_none());
        let report = shadow.finish();
        assert_eq!(report.staged, 1);
        assert_eq!(report.promotions.len(), 1);
        assert_eq!(report.mismatch_rows, 0);
        assert_eq!(report.pending, None);
    }

    #[test]
    fn dirty_candidate_is_rejected_under_zero_diff_and_promoted_after_audit() {
        let registry = ModelRegistry::new(tree(16));
        let mut shadow = ShadowState::new(ShadowConfig {
            audit_rows: 64,
            policy: PromotePolicy::OnZeroDiff,
        });
        stage(&mut shadow, tree(2), &registry); // coarse fit: must diverge
        let gen = shadow.active_generation().unwrap();
        assert!(
            shadow.mirror(&rows(64), gen, &registry).is_none(),
            "dirty audit"
        );
        assert_eq!(registry.epoch(), 0, "rejected candidate must not go live");
        assert!(shadow.active_generation().is_none());
        let report = shadow.finish();
        assert_eq!(report.rejected, 1);
        assert!(report.mismatch_rows > 0);

        // The same candidate under AfterAudit goes live with its diff
        // count on the record.
        let registry = ModelRegistry::new(tree(16));
        let mut shadow = ShadowState::new(ShadowConfig {
            audit_rows: 64,
            policy: PromotePolicy::AfterAudit,
        });
        stage(&mut shadow, tree(2), &registry);
        let gen = shadow.active_generation().unwrap();
        let promo = shadow
            .mirror(&rows(64), gen, &registry)
            .expect("audited swap");
        assert!(promo.mismatches > 0);
        assert_eq!(registry.epoch(), 1);
    }

    #[test]
    fn restaging_replaces_the_undecided_candidate_and_hold_never_promotes() {
        let registry = ModelRegistry::new(tree(16));
        let mut shadow = ShadowState::new(ShadowConfig {
            audit_rows: 32,
            policy: PromotePolicy::Hold,
        });
        stage(&mut shadow, tree(2), &registry);
        let first_gen = shadow.active_generation().unwrap();
        shadow.mirror(&rows(10), first_gen, &registry);
        stage(&mut shadow, tree(16), &registry); // replaces the first
        let second_gen = shadow.active_generation().unwrap();
        assert_ne!(first_gen, second_gen, "restaging advances the generation");
        assert!(
            shadow.mirror(&rows(64), second_gen, &registry).is_none(),
            "Hold never swaps"
        );
        assert_eq!(registry.epoch(), 0);
        let report = shadow.finish();
        assert_eq!(report.staged, 2);
        assert_eq!(report.replaced, 1);
        assert_eq!(
            report.pending,
            Some((64, 0)),
            "undecided candidate surfaces at shutdown"
        );
        assert_eq!(report.mirrored_rows, 74);
    }

    /// Rows buffered under a previous staging must never count toward a
    /// later candidate's audit.
    #[test]
    fn stale_generation_rows_are_discarded() {
        let registry = ModelRegistry::new(tree(16));
        let mut shadow = ShadowState::new(ShadowConfig {
            audit_rows: 32,
            policy: PromotePolicy::OnZeroDiff,
        });
        stage(&mut shadow, tree(2), &registry);
        let stale = shadow.active_generation().unwrap();
        stage(&mut shadow, tree(16), &registry);
        let live = shadow.active_generation().unwrap();
        // 64 stale rows would cross the quota — they must be ignored.
        assert!(shadow.mirror(&rows(64), stale, &registry).is_none());
        assert!(shadow.active_generation().is_some(), "candidate untouched");
        let promo = shadow.mirror(&rows(32), live, &registry);
        assert!(promo.is_some(), "only live-generation rows audit");
        assert_eq!(promo.unwrap().audited_rows, 32);
    }

    /// A direct publish landing mid-audit supersedes the candidate: the
    /// audit passed, but against a baseline that is no longer live — the
    /// hotfix must win.
    #[test]
    fn mid_audit_publish_supersedes_the_candidate_instead_of_being_clobbered() {
        let registry = ModelRegistry::new(tree(16));
        let mut shadow = ShadowState::new(ShadowConfig {
            audit_rows: 64,
            policy: PromotePolicy::OnZeroDiff,
        });
        stage(&mut shadow, tree(16), &registry); // clean candidate vs epoch 0
        let gen = shadow.active_generation().unwrap();
        shadow.mirror(&rows(32), gen, &registry);
        // Hotfix goes straight to the registry mid-audit.
        let hotfix_epoch = registry.publish(tree(4));
        assert_eq!(hotfix_epoch, 1);
        // Audit completes clean — but the baseline is stale, so the
        // candidate must NOT be installed over the hotfix.
        assert!(shadow.mirror(&rows(32), gen, &registry).is_none());
        assert_eq!(registry.epoch(), 1, "hotfix must stay live");
        assert!(shadow.active_generation().is_none(), "slot cleared");
        let report = shadow.finish();
        assert_eq!(report.superseded, 1);
        assert!(report.promotions.is_empty());
        assert_eq!(report.rejected, 0);
    }

    /// Ensemble candidates ride the same audit: a 1-tree forest of the
    /// live tree diffs clean (the kernel guarantees a 1-tree forest is
    /// bit-identical to its tree) and promotes a forest epoch; a wider
    /// ensemble whose vote diverges is rejected under OnZeroDiff.
    #[test]
    fn forest_candidates_audit_and_promote_like_trees() {
        let registry = ModelRegistry::new(tree(16));
        let mut shadow = ShadowState::new(ShadowConfig {
            audit_rows: 64,
            policy: PromotePolicy::OnZeroDiff,
        });
        let clean = Forest::from_trees(&[tree(16)]).unwrap();
        shadow.stage(clean, &registry);
        let gen = shadow.active_generation().unwrap();
        let promo = shadow
            .mirror(&rows(64), gen, &registry)
            .expect("1-tree forest of the live tree must audit clean");
        assert_eq!(promo.mismatches, 0);
        assert_eq!(registry.epoch(), 1);
        assert_eq!(
            registry.current().model.n_trees(),
            1,
            "promoted model is the staged forest"
        );

        // A coarse ensemble diverges from the live tree: rejected.
        let dirty = Forest::from_trees(&[tree(2), tree(3), tree(4)]).unwrap();
        shadow.stage(dirty, &registry);
        let gen = shadow.active_generation().unwrap();
        assert!(shadow.mirror(&rows(64), gen, &registry).is_none());
        assert_eq!(registry.epoch(), 1, "dirty ensemble must not go live");
        let report = shadow.finish();
        assert_eq!(report.rejected, 1);
        assert!(report.mismatch_rows > 0);
    }
}
