//! The metric catalog and the result line.
//!
//! Every workload reports every end-to-end metric (untraced run) and
//! every per-layer metric (traced run). The end-to-end metrics are
//! defined per workload on its own unit of work ([`ALIASES`] names each
//! one); a per-layer metric of a layer a workload never calls reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub const WORKLOADS: [&str; 4] = [
    "serve_open",
    "abr_cosim",
    "convert_pensieve",
    "mask_routenet",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reported by every workload's untraced run.
    EndToEnd,
    /// Reported by the traced run; measured by the named workload, or by
    /// every workload when `None`.
    Layer(Option<&'static str>),
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::EndToEnd,
    }
}

const fn layer(
    workload: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::Layer(Some(workload)),
    }
}

use Better::{Higher, Lower};

const SO: &str = "serve_open";
const AC: &str = "abr_cosim";
const CP: &str = "convert_pensieve";
const MR: &str = "mask_routenet";

pub const CATALOG: &[Def] = &[
    e2e("throughput_per_s", "1/s", Higher),
    e2e("p50_ms", "ms", Lower),
    e2e("setup_s", "s", Lower),
    e2e("peak_rss_mb", "MiB", Lower),
    Def {
        name: "ledger_closure_pct",
        unit: "%",
        better: Higher,
        kind: Kind::Layer(None),
    },
    Def {
        name: "tracing_overhead_pct",
        unit: "%",
        better: Lower,
        kind: Kind::Layer(None),
    },
    layer(SO, "serve_p50_us_at_50k", "us", Lower),
    layer(SO, "serve_p99_us_at_50k", "us", Lower),
    layer(SO, "serve_p50_us_at_400k", "us", Lower),
    layer(SO, "serve_p99_us_at_400k", "us", Lower),
    layer(SO, "serve_max_rps_p99_2ms", "1/s", Higher),
    layer(SO, "fabric.submit_ns", "ns", Lower),
    layer(SO, "fabric.collect_ns", "ns", Lower),
    layer(SO, "serve.batcher_cpu_ns", "ns", Lower),
    layer(SO, "serve.batcher_busy_frac", "fraction", Lower),
    layer(SO, "serve.form_ns", "ns", Lower),
    layer(SO, "serve.kernel_ns", "ns", Lower),
    layer(SO, "serve.account_ns", "ns", Lower),
    layer(SO, "serve.unattributed_ns", "ns", Lower),
    layer(SO, "serve.queue_wait_us_p50", "us", Lower),
    layer(SO, "serve.queue_wait_us_p99", "us", Lower),
    layer(SO, "serve.mean_batch", "count", Higher),
    layer(SO, "dt.kernel_ns_per_row", "ns", Lower),
    layer(SO, "serve.registry_read_ns", "ns", Lower),
    layer(SO, "loadgen.late_us_p99", "us", Lower),
    layer(SO, "loadgen.late_us_max", "us", Lower),
    layer(SO, "loadgen.achieved_frac", "fraction", Higher),
    layer(AC, "cosim_mean_qoe", "score", Higher),
    layer(AC, "sim.event_ns", "ns", Lower),
    layer(AC, "fabric.wave_submit_ns", "ns", Lower),
    layer(AC, "fabric.wave_collect_ns", "ns", Lower),
    layer(AC, "abr.env_step_ns", "ns", Lower),
    layer(AC, "sim.mean_wave", "count", Higher),
    layer(AC, "fabric.publish_us", "us", Lower),
    layer(CP, "convert_fidelity", "fraction", Higher),
    layer(CP, "convert_qoe_gap", "score", Lower),
    layer(CP, "rl.collect_s", "s", Lower),
    layer(CP, "nn.label_s", "s", Lower),
    layer(CP, "rl.resample_s", "s", Lower),
    layer(CP, "dt.fit_s", "s", Lower),
    layer(CP, "dt.prune_s", "s", Lower),
    layer(CP, "rl.fidelity_s", "s", Lower),
    layer(CP, "convert.states", "count", Higher),
    layer(CP, "dt.leaves", "count", Higher),
    layer(MR, "mask_loss", "score", Lower),
    layer(MR, "routing.forward_ms", "ms", Lower),
    layer(MR, "hypergraph.grad_ms", "ms", Lower),
    layer(MR, "hypergraph.steps", "count", Higher),
];

/// What each end-to-end metric means on each workload.
pub const ALIASES: &[(&str, &str, &str)] = &[
    (
        SO,
        "throughput_per_s",
        "serve_capacity_rps: burst drain rate",
    ),
    (
        SO,
        "p50_ms",
        "burst_drain_ms: 20 000 requests queued at once, all answered",
    ),
    (SO, "setup_s", "fit of the 2000-leaf serving tree"),
    (AC, "throughput_per_s", "cosim_events_per_s"),
    (AC, "p50_ms", "cosim_run_ms: wall of one co-sim run"),
    (AC, "setup_s", "fit of the served ABR trees"),
    (
        CP,
        "throughput_per_s",
        "labelled states converted per second",
    ),
    (CP, "p50_ms", "convert_s: wall of one conversion, in ms"),
    (CP, "setup_s", "Pensieve teacher training"),
    (MR, "throughput_per_s", "mask-search steps per second"),
    (MR, "p50_ms", "mask_s: wall of one mask search, in ms"),
    (MR, "setup_s", "RouteNet training and routing corpus"),
];

impl Def {
    /// Whether `workload` runs the code this metric measures.
    fn measured_by(&self, workload: &str) -> bool {
        !matches!(self.kind, Kind::Layer(Some(w)) if w != workload)
    }
}

pub fn def(name: &str) -> Option<&'static Def> {
    CATALOG.iter().find(|d| d.name == name)
}

/// Whether `d` is printed by an untraced (`trace` false) or traced run.
fn expected(d: &Def, trace: bool) -> bool {
    matches!(
        (d.kind, trace),
        (Kind::EndToEnd, false) | (Kind::Layer(_), true)
    )
}

/// One run's result.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every determinism and correctness check of the run passed.
    pub checks_passed: bool,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "metric `{name}` is not in the catalog");
        self.values.insert(name, value);
    }

    /// Every metric this run must print, in catalog order: the measured
    /// value, or 0 for a layer the workload does not call.
    pub fn metrics(&self, workload: &str, trace: bool) -> Result<Vec<(&'static Def, f64)>, String> {
        let mut out = Vec::new();
        for d in CATALOG.iter().filter(|d| expected(d, trace)) {
            let value = match (self.values.get(d.name), d.measured_by(workload)) {
                (Some(&v), true) => v,
                (None, false) => 0.0,
                (None, true) => return Err(format!("{workload} did not report `{}`", d.name)),
                (Some(_), false) => {
                    return Err(format!(
                        "{workload} reported another workload's `{}`",
                        d.name
                    ))
                }
            };
            if !value.is_finite() {
                return Err(format!("{workload}: `{}` is not finite ({value})", d.name));
            }
            out.push((d, value));
        }
        Ok(out)
    }
}

/// Human-readable lines: one per metric, with its unit and meaning.
pub fn table(workload: &str, metrics: &[(&'static Def, f64)]) -> String {
    let mut s = String::new();
    for (d, v) in metrics {
        if !d.measured_by(workload) {
            continue;
        }
        let note = ALIASES
            .iter()
            .find(|(w, n, _)| *w == workload && *n == d.name)
            .map(|(_, _, a)| format!("  ({a})"))
            .unwrap_or_default();
        let better = if d.better == Better::Higher {
            "higher"
        } else {
            "lower"
        };
        let _ = writeln!(
            s,
            "{workload:<17} {:<26} {v:>16.6} {:<8} {better:<6}{note}",
            d.name, d.unit
        );
    }
    s
}

/// The machine-readable result line: correctness, operation counts and
/// every metric with its unit.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static Def, f64)],
) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (d, v)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(workload: &str, trace: bool) -> Outcome {
        let mut o = Outcome::default();
        for d in CATALOG.iter().filter(|d| expected(d, trace)) {
            if d.measured_by(workload) {
                o.set(d.name, 1.5);
            }
        }
        o
    }

    #[test]
    fn every_workload_prints_every_metric_with_its_unit() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let metrics = full(workload, trace).metrics(workload, trace).unwrap();
                let n = CATALOG.iter().filter(|d| expected(d, trace)).count();
                assert_eq!(metrics.len(), n);
                let line = json_line(true, 1, 0, &metrics);
                let doc: serde::Value = serde_json::from_str(&line).expect("valid JSON");
                let m = serde::get_field(doc.as_object().unwrap(), "metrics").unwrap();
                assert_eq!(m.as_object().unwrap().len(), n);
                let text = table(workload, &metrics);
                for (d, _) in &metrics {
                    let own = d.measured_by(workload);
                    let printed = text
                        .lines()
                        .any(|l| l.split_whitespace().nth(1) == Some(d.name) && l.contains(d.unit));
                    assert_eq!(printed, own, "{workload}: {}", d.name);
                }
            }
        }
    }

    #[test]
    fn missing_foreign_and_non_finite_metrics_are_rejected() {
        let mut o = full("abr_cosim", false);
        o.values.remove("p50_ms");
        assert!(o.metrics("abr_cosim", false).is_err());
        let mut o = full("abr_cosim", true);
        o.set("dt.fit_s", 1.0);
        assert!(o.metrics("abr_cosim", true).is_err());
        let mut o = full("abr_cosim", false);
        o.set("throughput_per_s", f64::NAN);
        assert!(o.metrics("abr_cosim", false).is_err());
        // Layers the workload never calls read 0.
        let m = full("abr_cosim", true).metrics("abr_cosim", true).unwrap();
        assert!(m.iter().any(|(d, v)| d.name == "dt.fit_s" && *v == 0.0));
    }

    /// `BENCHMARK.json` at the repository root lists exactly the catalog.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let text = include_str!("../../BENCHMARK.json");
        let doc: serde::Value = serde_json::from_str(text).unwrap();
        let root = doc.as_object().unwrap();
        let names = |key: &str| -> Vec<(String, String, String)> {
            serde::get_field(root, key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let o = m.as_object().unwrap();
                    let f = |k: &str| {
                        serde::get_field(o, k)
                            .unwrap()
                            .as_str()
                            .unwrap()
                            .to_string()
                    };
                    (f("name"), f("unit"), f("better"))
                })
                .collect()
        };
        let want = |trace: bool| -> Vec<(String, String, String)> {
            CATALOG
                .iter()
                .filter(|d| expected(d, trace))
                .map(|d| {
                    let better = if d.better == Higher {
                        "higher"
                    } else {
                        "lower"
                    };
                    (d.name.to_string(), d.unit.to_string(), better.to_string())
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), want(false));
        assert_eq!(names("per_layer"), want(true));
        let workloads: Vec<String> = serde::get_field(root, "workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| {
                let o = w.as_object().unwrap();
                serde::get_field(o, "name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
