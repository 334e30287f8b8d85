//! Open-loop traffic generation: request arrival processes replayed
//! against a server ([`drive_open_loop`]) without ever waiting for
//! responses — the discipline that makes tail-latency measurements honest
//! (a closed loop would self-throttle exactly when the server falls
//! behind).
//!
//! Two arrival shapes mirror the paper's two local scenarios:
//!
//! * **ABR replay** — one decision per video chunk, so inter-arrival
//!   times are successive chunk download times over a bandwidth trace
//!   ([`ArrivalProcess::from_abr_trace`]), bursty exactly where the trace
//!   is.
//! * **Poisson** — memoryless flow arrivals like the AuTO workload
//!   generator ([`ArrivalProcess::poisson`], or
//!   [`ArrivalProcess::from_flow_arrivals`] to replay a generated
//!   [`metis_flowsched::FlowRequest`] schedule exactly).

use crate::clock::Clock;
use metis_abr::NetworkTrace;
use metis_flowsched::FlowRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A finite schedule of request inter-arrival gaps (seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalProcess {
    name: String,
    gaps_s: Vec<f64>,
}

impl ArrivalProcess {
    /// Replay an explicit gap sequence.
    pub fn replay(name: impl Into<String>, gaps_s: Vec<f64>) -> Self {
        assert!(
            gaps_s.iter().all(|g| g.is_finite() && *g >= 0.0),
            "inter-arrival gaps must be finite and non-negative"
        );
        ArrivalProcess {
            name: name.into(),
            gaps_s,
        }
    }

    /// ABR decision cadence over a bandwidth trace: request `k`'s gap is
    /// the time the trace needs to download the `k`-th chunk of
    /// `chunk_bytes`, starting where the previous download ended.
    pub fn from_abr_trace(trace: &NetworkTrace, chunk_bytes: f64, requests: usize) -> Self {
        let mut t = 0.0;
        let gaps: Vec<f64> = (0..requests)
            .map(|_| {
                let dt = trace.download_time(t, chunk_bytes);
                t += dt;
                dt
            })
            .collect();
        ArrivalProcess::replay(format!("abr:{}", trace.name), gaps)
    }

    /// Memoryless arrivals at `rate_per_s`, via the same inverse-transform
    /// exponential draw the AuTO workload generator uses.
    pub fn poisson(rate_per_s: f64, requests: usize, seed: u64) -> Self {
        assert!(rate_per_s > 0.0, "arrival rate must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let gaps: Vec<f64> = (0..requests)
            .map(|_| {
                let u: f64 = rng.gen_range(1e-12..1.0);
                -u.ln() / rate_per_s
            })
            .collect();
        ArrivalProcess::replay(format!("poisson:{rate_per_s}"), gaps)
    }

    /// Replay the exact arrival instants of a generated flow schedule
    /// (gaps are successive `arrival_s` differences).
    pub fn from_flow_arrivals(flows: &[FlowRequest]) -> Self {
        let mut last = 0.0;
        let gaps: Vec<f64> = flows
            .iter()
            .map(|f| {
                let gap = (f.arrival_s - last).max(0.0);
                last = f.arrival_s;
                gap
            })
            .collect();
        ArrivalProcess::replay("flowsched", gaps)
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of requests this schedule issues.
    pub fn len(&self) -> usize {
        self.gaps_s.len()
    }

    pub fn is_empty(&self) -> bool {
        self.gaps_s.is_empty()
    }

    /// The raw gap sequence (seconds).
    pub fn gaps_s(&self) -> &[f64] {
        &self.gaps_s
    }

    /// Wall-clock span of the full schedule at scale 1.
    pub fn duration_s(&self) -> f64 {
        self.gaps_s.iter().sum()
    }

    /// Mean offered load in requests per second at scale 1.
    pub fn offered_rate_per_s(&self) -> f64 {
        let d = self.duration_s();
        if d > 0.0 {
            self.len() as f64 / d
        } else {
            0.0
        }
    }
}

/// Drive one arrival schedule open-loop: call `submit(k)` for request
/// `k` at its scheduled instant on `clock`, never waiting for an answer.
/// The caller collects afterwards, so the same driver feeds a
/// [`crate::ServerHandle`] and a fabric handle alike. `time_scale`
/// stretches the gaps (request `k` goes out `time_scale` × the sum of
/// gaps `0..=k` after the start), and `0.0` removes them.
///
/// A real clock sleeps each gap out, busy-spinning its last `spin_trim`
/// (clamped to [`crate::clock::MAX_SPIN_TRIM`]):
/// [`crate::clock::DEFAULT_SPIN_TRIM`] keeps sub-millisecond schedules
/// in shape, and [`Duration::ZERO`] never spins, for a driver that
/// shares its core. A virtual clock advances through the gaps at no
/// cost.
pub fn drive_open_loop(
    clock: &Clock,
    arrivals: &ArrivalProcess,
    time_scale: f64,
    spin_trim: Duration,
    mut submit: impl FnMut(u64),
) {
    assert!(
        time_scale.is_finite() && time_scale >= 0.0,
        "time_scale must be finite and non-negative"
    );
    let start_s = clock.now_s();
    let mut elapsed_s = 0.0;
    for (k, gap) in arrivals.gaps_s().iter().enumerate() {
        if time_scale > 0.0 {
            elapsed_s += gap;
            clock.sleep_until(start_s + time_scale * elapsed_s, spin_trim);
        }
        submit(k as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ServeConfig, TreeServer};
    use crate::registry::ModelRegistry;
    use metis_abr::{generate_trace, TraceGenConfig};
    use metis_dt::{fit, Dataset, TreeConfig};
    use metis_flowsched::{generate_flows, SizeDistribution};
    use std::sync::Arc;

    #[test]
    fn abr_replay_matches_trace_download_times() {
        let trace = generate_trace(&TraceGenConfig::hsdpa_like(), "t", 3);
        let proc = ArrivalProcess::from_abr_trace(&trace, 500_000.0, 40);
        assert_eq!(proc.len(), 40);
        assert!(proc.gaps_s().iter().all(|&g| g > 0.0));
        // Replaying is deterministic and the gaps chain: gap k starts where
        // gap k-1 ended.
        let again = ArrivalProcess::from_abr_trace(&trace, 500_000.0, 40);
        assert_eq!(proc, again);
        let mut t = 0.0;
        for &g in proc.gaps_s() {
            assert_eq!(g, trace.download_time(t, 500_000.0));
            t += g;
        }
        // ~1.2 Mbps mean for 4 Mb chunks => gaps on the order of seconds.
        assert!(proc.duration_s() > 10.0, "{}", proc.duration_s());
    }

    #[test]
    fn poisson_rate_is_approximately_honoured() {
        let proc = ArrivalProcess::poisson(1000.0, 5000, 7);
        let rate = proc.offered_rate_per_s();
        assert!((800.0..1200.0).contains(&rate), "rate {rate}");
        assert_eq!(proc, ArrivalProcess::poisson(1000.0, 5000, 7));
        assert_ne!(
            proc.gaps_s(),
            ArrivalProcess::poisson(1000.0, 5000, 8).gaps_s()
        );
    }

    #[test]
    fn flow_arrivals_replay_exact_schedule() {
        let dist = SizeDistribution::web_search();
        let mut rng = StdRng::seed_from_u64(5);
        let flows = generate_flows(&dist, 8, 10e9, 0.4, 0.5, &mut rng);
        let proc = ArrivalProcess::from_flow_arrivals(&flows);
        assert_eq!(proc.len(), flows.len());
        let reconstructed: f64 = proc.gaps_s().iter().sum();
        assert!((reconstructed - flows.last().unwrap().arrival_s).abs() < 1e-9);
    }

    #[test]
    fn open_loop_drive_answers_every_request_in_id_order() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..60).map(|i| usize::from(i >= 30)).collect();
        let tree = fit(
            &Dataset::classification(x, y, 2).unwrap(),
            &TreeConfig::default(),
        )
        .unwrap();
        let server = TreeServer::start(
            Arc::new(ModelRegistry::new(tree.clone())),
            ServeConfig {
                max_batch: 16,
                ..Default::default()
            },
        );
        let mut handle = server.handle();
        let arrivals = ArrivalProcess::poisson(50_000.0, 120, 11);
        drive_open_loop(
            server.clock(),
            &arrivals,
            1.0,
            crate::clock::DEFAULT_SPIN_TRIM,
            |k| {
                handle.submit(vec![(k % 60) as f64]);
            },
        );
        let responses = handle.collect();
        assert_eq!(responses.len(), 120);
        for (k, resp) in responses.iter().enumerate() {
            assert_eq!(resp.id, k as u64);
            assert_eq!(resp.prediction, tree.predict(&[(k % 60) as f64]));
        }
        let report = server.shutdown();
        assert_eq!(report.served, 120);
        assert_eq!(report.delivery_failures, 0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_gaps() {
        let _ = ArrivalProcess::replay("bad", vec![0.1, -0.2]);
    }

    /// The Poisson generator is a pure function of (rate, n, seed): same
    /// seed ⇒ the identical schedule to the bit, across repeated calls
    /// and regardless of what else the process computed in between —
    /// the property the fabric determinism suites lean on.
    #[test]
    fn poisson_same_seed_identical_schedule_to_the_bit() {
        let a = ArrivalProcess::poisson(750.0, 300, 42);
        let _interleaved = ArrivalProcess::poisson(99.0, 10, 1); // unrelated draw
        let b = ArrivalProcess::poisson(750.0, 300, 42);
        assert_eq!(a.len(), 300);
        for (x, y) in a.gaps_s().iter().zip(b.gaps_s()) {
            assert_eq!(x.to_bits(), y.to_bits(), "schedule diverged bitwise");
        }
        // Different seeds must actually consume the seed.
        assert_ne!(a.gaps_s(), ArrivalProcess::poisson(750.0, 300, 43).gaps_s());
    }

    /// On a virtual clock the driver is pure schedule arithmetic: it
    /// submits every request once, in order, with the clock reading
    /// `time_scale` × the cumulative gap at each call and `time_scale` ×
    /// the schedule's duration at the end; at scale 0 time stands still.
    #[test]
    fn virtual_clock_reads_the_scaled_schedule_at_every_submit() {
        let arrivals = ArrivalProcess::poisson(1000.0, 50, 3);
        for time_scale in [0.0, 1.0, 0.37] {
            let clock = Clock::virtual_at(0.0);
            let mut seen = Vec::new();
            drive_open_loop(&clock, &arrivals, time_scale, Duration::ZERO, |k| {
                seen.push((k, clock.now_s()))
            });
            let mut cumulative = 0.0;
            let want: Vec<(u64, f64)> = arrivals
                .gaps_s()
                .iter()
                .enumerate()
                .map(|(k, gap)| {
                    cumulative += gap;
                    (k as u64, time_scale * cumulative)
                })
                .collect();
            assert_eq!(seen, want, "time_scale {time_scale}");
            assert_eq!(clock.now_s(), time_scale * arrivals.duration_s());
        }
    }
}
