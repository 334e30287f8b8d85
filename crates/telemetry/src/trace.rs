//! Chrome trace-event JSON export (`chrome://tracing` / Perfetto's
//! legacy JSON format): render every registered scope's span timeline
//! and flight events as one `{"traceEvents": [...]}` document.
//!
//! Mapping: each **scenario** becomes a trace process (`pid` in order
//! of first appearance, named via `process_name` metadata), each shard
//! a thread (`tid` = shard + 1; a scenario's control scope is `tid` 0,
//! named "control"). Spans become complete events (`ph: "X"`, `ts`/`dur`
//! in microseconds), flight events become thread-scoped instants
//! (`ph: "i"`, `s: "t"`) carrying their structured payload in `args`.

use crate::{ShardTelemetry, CONTROL_SHARD};
use serde::{Serialize, Value};
use std::sync::Arc;

const US_PER_S: f64 = 1e6;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(x: f64) -> Value {
    Value::Number(x)
}

fn s(text: &str) -> Value {
    Value::String(text.to_string())
}

fn tid_of(scope: &ShardTelemetry) -> f64 {
    if scope.shard() == CONTROL_SHARD {
        0.0
    } else {
        (scope.shard() + 1) as f64
    }
}

/// Build the trace document for a set of scopes (normally
/// [`crate::Telemetry::scopes`], in registration order).
pub fn chrome_trace(scopes: &[Arc<ShardTelemetry>]) -> Value {
    let mut events: Vec<Value> = Vec::new();
    let mut pids: Vec<String> = Vec::new();
    for scope in scopes {
        let pid = match pids.iter().position(|k| k == scope.scenario()) {
            Some(p) => p as f64,
            None => {
                pids.push(scope.scenario().to_string());
                let p = (pids.len() - 1) as f64;
                events.push(obj(vec![
                    ("name", s("process_name")),
                    ("ph", s("M")),
                    ("pid", num(p)),
                    ("tid", num(0.0)),
                    ("args", obj(vec![("name", s(scope.scenario()))])),
                ]));
                p
            }
        };
        let tid = tid_of(scope);
        let thread_name = if scope.shard() == CONTROL_SHARD {
            format!("control ({}, dc{})", scope.tenant(), scope.deadline_class())
        } else {
            format!(
                "shard{} ({}, dc{})",
                scope.shard(),
                scope.tenant(),
                scope.deadline_class()
            )
        };
        events.push(obj(vec![
            ("name", s("thread_name")),
            ("ph", s("M")),
            ("pid", num(pid)),
            ("tid", num(tid)),
            (
                "args",
                obj(vec![
                    ("name", s(&thread_name)),
                    ("tenant", s(scope.tenant())),
                    ("deadline_class", num(scope.deadline_class() as f64)),
                ]),
            ),
        ]));
        for span in scope.spans.records() {
            events.push(obj(vec![
                ("name", s(span.stage.name())),
                ("ph", s("X")),
                ("ts", num(span.start_s * US_PER_S)),
                ("dur", num(span.dur_s * US_PER_S)),
                ("pid", num(pid)),
                ("tid", num(tid)),
                (
                    "args",
                    obj(vec![
                        ("rows", num(span.rows as f64)),
                        ("epoch", num(span.epoch as f64)),
                    ]),
                ),
            ]));
        }
        for event in scope.events.events() {
            events.push(obj(vec![
                ("name", s(event.kind.name())),
                ("ph", s("i")),
                ("s", s("t")),
                ("ts", num(event.time_s * US_PER_S)),
                ("pid", num(pid)),
                ("tid", num(tid)),
                (
                    "args",
                    obj(vec![
                        ("seq", num(event.seq as f64)),
                        ("event", event.kind.to_value()),
                    ]),
                ),
            ]));
        }
        // Ring-wrap visibility: a scope whose recorder or span log
        // overflowed gets an instant mark carrying the drop counts, so
        // a saturated timeline reads as truncated, not complete.
        let event_drops = scope.events.dropped();
        let span_drops = scope.spans.dropped();
        if event_drops > 0 || span_drops > 0 {
            events.push(obj(vec![
                ("name", s("recorder_drops")),
                ("ph", s("i")),
                ("s", s("t")),
                ("ts", num(0.0)),
                ("pid", num(pid)),
                ("tid", num(tid)),
                (
                    "args",
                    obj(vec![
                        ("events_dropped", num(event_drops as f64)),
                        ("events_recorded", num(scope.events.recorded() as f64)),
                        ("spans_dropped", num(span_drops as f64)),
                    ]),
                ),
            ]));
        }
    }
    obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", s("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlushStamps, Telemetry};

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, v)| v))
            .unwrap_or_else(|| panic!("missing field {key}"))
    }

    #[test]
    fn export_is_valid_trace_event_json() {
        let t = Telemetry::enabled();
        let shard = t.register("abr", 0, "gold", 0).unwrap();
        let control = t.register("abr", CONTROL_SHARD, "gold", 0).unwrap();
        shard.on_batch_open();
        shard.record_flush(&FlushStamps {
            open_s: 1.0,
            kernel_start_s: 1.5,
            kernel_end_s: 1.75,
            close_s: 2.0,
            rows: 2,
            epoch: 1,
            width: 1,
        });
        control.on_hot_swap(1.2, 2, 3, 0.1);

        // Round-trip through the JSON printer/parser: the document must
        // survive serialization, the shape a trace viewer loads.
        let json = t.chrome_trace_json();
        let doc: Value = serde_json::from_str(&json).unwrap();
        let events = field(&doc, "traceEvents").as_array().unwrap();
        // 2 metadata pairs (process + 2 threads = 3), 4 spans, 3 events.
        let phases: Vec<&str> = events
            .iter()
            .map(|e| field(e, "ph").as_str().unwrap())
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 3);
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 4);
        assert_eq!(phases.iter().filter(|p| **p == "i").count(), 3);
        for e in events {
            assert!(field(e, "name").as_str().is_some());
            assert!(field(e, "pid").as_f64().unwrap().is_finite());
            assert!(field(e, "tid").as_f64().unwrap().is_finite());
            if field(e, "ph").as_str() == Some("X") {
                assert!(field(e, "ts").as_f64().unwrap() >= 0.0);
                assert!(field(e, "dur").as_f64().unwrap() >= 0.0);
            }
        }
        // The hot-swap span lives on the control thread (tid 0).
        let publish = events
            .iter()
            .find(|e| field(e, "name").as_str() == Some("publish"))
            .expect("publish span exported");
        assert_eq!(field(publish, "tid").as_f64().unwrap(), 0.0);
        // Instant events carry the structured payload.
        let swap = events
            .iter()
            .find(|e| field(e, "name").as_str() == Some("hot_swap"))
            .expect("hot_swap instant exported");
        let args = field(swap, "args");
        let event = field(args, "event");
        let trees = field(field(event, "HotSwap"), "trees").as_f64().unwrap();
        assert_eq!(trees, 3.0);
    }

    #[test]
    fn rows_are_labeled_and_saturated_recorders_surface_drop_marks() {
        let t = Telemetry::with_config(crate::TelemetryConfig { span_capacity: 1 });
        let scope = t.register("abr", 0, "gold", 2).unwrap();
        let swaps = crate::RECORDER_CAPACITY as u64 + 3;
        for k in 0..swaps {
            scope.on_hot_swap(k as f64, k, 1, 0.0);
        }
        let json = t.chrome_trace_json();
        let doc: Value = serde_json::from_str(&json).unwrap();
        let events = field(&doc, "traceEvents").as_array().unwrap();
        // Thread metadata names the tenant + deadline class.
        let thread = events
            .iter()
            .find(|e| field(e, "name").as_str() == Some("thread_name"))
            .unwrap();
        let args = field(thread, "args");
        assert_eq!(field(args, "name").as_str(), Some("shard0 (gold, dc2)"));
        assert_eq!(field(args, "deadline_class").as_f64(), Some(2.0));
        // One drop mark carrying both overflow counts.
        let drops = events
            .iter()
            .find(|e| field(e, "name").as_str() == Some("recorder_drops"))
            .expect("overflowed scope exports a drop mark");
        let args = field(drops, "args");
        assert_eq!(field(args, "events_dropped").as_f64(), Some(3.0));
        assert_eq!(field(args, "events_recorded").as_f64(), Some(swaps as f64));
        assert_eq!(
            field(args, "spans_dropped").as_f64(),
            Some((swaps - 1) as f64)
        );
    }

    #[test]
    fn disabled_plane_exports_an_empty_timeline() {
        let doc = Telemetry::off().chrome_trace();
        let events = field(&doc, "traceEvents").as_array().unwrap();
        assert!(events.is_empty());
    }
}
