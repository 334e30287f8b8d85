//! Merged fabric accounting: per-shard engine reports rolled up into
//! per-scenario, per-tenant and fabric-wide views, with SLO budgets
//! checked.
//!
//! One accountant throughout: each shard's
//! [`metis_serve::LatencyRecorder`] (exact count, sum and max plus a
//! log-bucketed sketch) merges bucket-wise into its scenario's, its
//! tenant's and the fabric's recorder, and every [`LatencySummary`] here
//! is one of those recorders' summaries. The merge is commutative and
//! associative, so a scenario's figures do not depend on how its
//! requests were split across shards; percentiles read at most
//! `γ = 2^(1/8)` above the exact ones.

use crate::shadow::ShadowReport;
use metis_serve::{EngineReport, LatencySummary};
use serde::{Deserialize, Serialize};

/// One scenario's merged view: its shards' engine reports, their merged
/// latency summary, and its shadow audit trail.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioReport {
    pub key: String,
    /// Owning tenant's name.
    pub tenant: String,
    /// Requests served across all shards.
    pub served: u64,
    /// Hot swaps (audited promotions + direct publishes).
    pub swaps: u64,
    /// Epoch live at shutdown.
    pub live_epoch: u64,
    /// Ensemble width of the model live at shutdown (1 = a single tree,
    /// k = a k-tree majority-vote [`metis_dt::Forest`]).
    pub live_trees: usize,
    /// Latency summary of every request the scenario's shards served.
    pub latency: LatencySummary,
    /// Per-shard engine reports, in shard order.
    pub shards: Vec<EngineReport>,
    /// Shadow-serving audit trail.
    pub shadow: ShadowReport,
}

/// One tenant's SLO view across every scenario it owns.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantReport {
    pub name: String,
    /// Deadline class its pool submissions carried (lower = more urgent).
    pub deadline_class: u8,
    /// The p99 budget the tenant declared (seconds).
    pub p99_budget_s: f64,
    /// Requests served for this tenant.
    pub served: u64,
    /// Latency summary of every request the tenant's scenarios served.
    pub latency: LatencySummary,
    /// True when `latency.p99_s` is within `p99_budget_s` (an idle tenant
    /// cannot violate). The sketch's p99 reads at most `γ` above the
    /// exact one, so a budget in `[exact p99, exact p99 · γ)` can read as
    /// a miss; outside that band the verdict is the exact one.
    pub met_p99_budget: bool,
}

/// Everything one fabric run produced, returned by
/// [`crate::Router::shutdown`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FabricReport {
    /// Requests served across the whole fabric.
    pub served: u64,
    /// Latency summary of every request the fabric served.
    pub latency: LatencySummary,
    /// Per-scenario views, in construction order.
    pub scenarios: Vec<ScenarioReport>,
    /// Per-tenant SLO views, in construction order.
    pub tenants: Vec<TenantReport>,
}

impl FabricReport {
    /// Tenants that blew their p99 budget, most urgent class first —
    /// the page-worthy list.
    pub fn violations(&self) -> Vec<&TenantReport> {
        let mut out: Vec<&TenantReport> =
            self.tenants.iter().filter(|t| !t.met_p99_budget).collect();
        out.sort_by_key(|t| t.deadline_class);
        out
    }

    /// Look up one scenario's report by key.
    pub fn scenario(&self, key: &str) -> Option<&ScenarioReport> {
        self.scenarios.iter().find(|s| s.key == key)
    }

    /// Look up one tenant's report by name.
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::PromotionRecord;
    use metis_serve::{summarize, LatencyRecorder};

    fn tenant(name: &str, class: u8, met: bool) -> TenantReport {
        TenantReport {
            name: name.into(),
            deadline_class: class,
            p99_budget_s: 0.5,
            served: 10,
            latency: summarize(&[0.1, 0.2, 0.3]),
            met_p99_budget: met,
        }
    }

    fn report() -> FabricReport {
        let mut recorder = LatencyRecorder::new();
        recorder.record_all(&[0.001, 0.002]);
        let latency = recorder.summary();
        FabricReport {
            served: 10,
            latency,
            scenarios: vec![ScenarioReport {
                key: "abr".into(),
                tenant: "video".into(),
                served: 10,
                swaps: 1,
                live_epoch: 1,
                live_trees: 3,
                latency,
                shards: vec![],
                shadow: ShadowReport {
                    staged: 2,
                    mirrored_rows: 67,
                    promotions: vec![PromotionRecord {
                        epoch: 1,
                        baseline_epoch: 0,
                        audited_rows: 64,
                        mismatches: 0,
                        trees: 3,
                    }],
                    pending: Some((3, 1)),
                    ..Default::default()
                },
            }],
            tenants: vec![
                tenant("video", 2, false),
                tenant("dc", 0, false),
                tenant("idle", 1, true),
            ],
        }
    }

    /// `violations` pages the blown budgets most-urgent-class first;
    /// the key/name lookups resolve hits and miss cleanly.
    #[test]
    fn violations_sort_by_urgency_and_lookups_resolve() {
        let report = report();
        let paged = report.violations();
        assert_eq!(paged.len(), 2, "the met tenant is not a violation");
        assert_eq!(paged[0].name, "dc", "class 0 pages before class 2");
        assert_eq!(paged[1].name, "video");
        assert_eq!(report.scenario("abr").unwrap().live_trees, 3);
        assert!(report.scenario("nope").is_none());
        assert_eq!(report.tenant("idle").unwrap().deadline_class, 1);
        assert!(report.tenant("nope").is_none());
    }

    /// Every report type serializes to JSON and deserializes back to an
    /// equivalent value (fixed-point re-serialization, since the nested
    /// recorders don't implement `PartialEq`).
    #[test]
    fn reports_round_trip_through_json() {
        let report = report();
        let json = serde_json::to_string(&report).expect("reports serialize");
        let back: FabricReport = serde_json::from_str(&json).expect("reports deserialize");
        assert_eq!(
            json,
            serde_json::to_string(&back).unwrap(),
            "round trip is a fixed point"
        );
        assert_eq!(back.served, report.served);
        assert_eq!(back.scenarios[0].shadow, report.scenarios[0].shadow);
        assert_eq!(back.tenants.len(), 3);
        assert_eq!(back.tenants[0].latency.count, 3);
        assert_eq!(back.latency.p99_s.to_bits(), report.latency.p99_s.to_bits());
    }
}
