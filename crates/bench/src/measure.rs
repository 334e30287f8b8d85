//! Shared throughput-measurement helpers for the CI benches.
//!
//! Every gated `per_sec` metric in `BENCH_*.json` is summarized the same
//! way: repeat a workload in fixed-minimum wall-clock windows and take
//! the **median** window rate, so one preempted window cannot trip the
//! 20% `bench_guard` regression gate.

use std::time::Instant;

/// Window schedule for [`median_rate`]. Each bench keeps its historical
/// tuning (window count, minimum window length, warmup) by constructing
/// its own schedule — the measurement loop itself is shared.
#[derive(Debug, Clone, Copy)]
pub struct Windows {
    /// Timed windows measured; the reported rate is their median.
    pub count: usize,
    /// Minimum wall-clock seconds per window (a window always runs at
    /// least this long, so per-call timer noise amortizes away).
    pub min_seconds: f64,
    /// Minimum calls per window (guards very fast clocks against a
    /// window ending after a single call).
    pub min_calls: usize,
    /// Untimed calls before the first window (cache/branch warmup).
    pub warmup_calls: usize,
}

impl Windows {
    /// Nine 100ms windows after one warmup call — the schedule the
    /// serving bench's gated metrics have always used.
    pub fn serving() -> Windows {
        Windows {
            count: 9,
            min_seconds: 0.1,
            min_calls: 1,
            warmup_calls: 1,
        }
    }

    /// Five 80ms windows, no warmup — the conversion bench's
    /// fine-granularity fork/join schedule.
    pub fn fine() -> Windows {
        Windows {
            count: 5,
            min_seconds: 0.08,
            min_calls: 1,
            warmup_calls: 0,
        }
    }

    /// Five 100ms / ≥10-call windows after three warmup calls — the
    /// inference bench's schedule. The median drops a single outlier
    /// window within a run; it does not absorb a drift in host speed
    /// between runs, which moves every window of a run together.
    pub fn inference() -> Windows {
        Windows {
            count: 5,
            min_seconds: 0.1,
            min_calls: 10,
            warmup_calls: 3,
        }
    }
}

/// Host identifier stamped into every `BENCH_*.json` artifact (alongside
/// the core count) so a committed baseline can be traced to the machine
/// that produced it — `per_sec` floors only mean anything same-host.
/// Reads the kernel hostname; `"unknown"` when unavailable.
pub fn host_id() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Median of a sample set under the IEEE total order (upper median for
/// even lengths). Panics on an empty set — a gated metric with no
/// samples is a bench bug, not a value.
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample set");
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median units-per-second of `f` over the window schedule: each window
/// repeats `f` until both window minimums are met, yielding
/// `calls * units_per_call / elapsed`; the reported rate is the median
/// window.
pub fn median_rate(w: Windows, units_per_call: usize, mut f: impl FnMut()) -> f64 {
    assert!(w.count > 0, "median_rate needs at least one window");
    for _ in 0..w.warmup_calls {
        f();
    }
    let rates: Vec<f64> = (0..w.count)
        .map(|_| {
            let mut calls = 0usize;
            let start = Instant::now();
            loop {
                f();
                calls += 1;
                let seconds = start.elapsed().as_secs_f64();
                if seconds >= w.min_seconds && calls >= w.min_calls.max(1) {
                    break (calls * units_per_call) as f64 / seconds;
                }
            }
        })
        .collect();
    median(rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_order_free_and_upper_for_even() {
        assert_eq!(median(vec![3.0]), 3.0);
        assert_eq!(median(vec![9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
        // One wild outlier cannot move the summary — the property the
        // bench_guard gate relies on.
        assert_eq!(median(vec![5.0, 5.0, 1e12, 5.0, 5.0]), 5.0);
        // total_cmp keeps NaN at the top instead of scrambling the sort.
        assert_eq!(median(vec![2.0, f64::NAN, 1.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn median_rejects_empty() {
        median(Vec::new());
    }

    #[test]
    fn median_rate_counts_warmup_and_window_calls() {
        let mut calls = 0usize;
        let w = Windows {
            count: 3,
            min_seconds: 0.0,
            min_calls: 4,
            warmup_calls: 2,
        };
        let rate = median_rate(w, 1, || calls += 1);
        assert_eq!(calls, 2 + 3 * 4, "warmup + count x min_calls");
        assert!(rate.is_finite() && rate > 0.0, "rate {rate}");
    }

    #[test]
    fn median_rate_scales_with_units_per_call() {
        // Identical work measured with 1 vs 1000 units per call must
        // report ~1000x the rate (same wall clock, more units).
        let w = Windows {
            count: 3,
            min_seconds: 0.001,
            min_calls: 1,
            warmup_calls: 0,
        };
        let work = || {
            std::hint::black_box((0..2_000).map(|i| i as f64).sum::<f64>());
        };
        let r1 = median_rate(w, 1, work);
        let r1000 = median_rate(w, 1000, work);
        let ratio = r1000 / r1;
        assert!(
            (200.0..5000.0).contains(&ratio),
            "ratio {ratio} far from 1000x"
        );
    }

    #[test]
    fn median_rate_respects_min_window_seconds() {
        let w = Windows {
            count: 1,
            min_seconds: 0.02,
            min_calls: 1,
            warmup_calls: 0,
        };
        let start = Instant::now();
        median_rate(w, 1, || {});
        assert!(
            start.elapsed().as_secs_f64() >= 0.02,
            "window ended before its minimum length"
        );
    }

    #[test]
    fn preset_schedules_match_their_benches() {
        let s = Windows::serving();
        assert_eq!((s.count, s.min_calls, s.warmup_calls), (9, 1, 1));
        let f = Windows::fine();
        assert_eq!((f.count, f.min_calls, f.warmup_calls), (5, 1, 0));
        let i = Windows::inference();
        assert_eq!((i.count, i.min_calls, i.warmup_calls), (5, 10, 3));
    }
}
