//! Open-loop traffic generation: request arrival processes replayed
//! against a [`crate::TreeServer`] without ever waiting for responses —
//! the discipline that makes tail-latency measurements honest (a
//! closed loop would self-throttle exactly when the server falls behind).
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

use crate::clock;
use crate::engine::{Response, ServerHandle};
use metis_abr::NetworkTrace;
use metis_flowsched::FlowRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
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

/// Drive one arrival schedule open-loop against a server: request `k` is
/// submitted at its scheduled instant (`time_scale` stretches or, at
/// `0.0`, removes the gaps) with features `features(k)`, never waiting
/// for an answer; once everything is submitted, block for the responses
/// and return them **sorted by request id**.
///
/// Pacing follows the server's [`clock::Clock`]: on the real clock each gap is
/// slept (with the default [`clock::DEFAULT_SPIN_TRIM`] busy-spin tail —
/// see [`drive_open_loop_paced`] to bound or disable it), while on a
/// virtual clock the gaps advance virtual time and cost nothing.
pub fn drive_open_loop(
    handle: &mut ServerHandle,
    arrivals: &ArrivalProcess,
    features: impl FnMut(u64) -> Vec<f64>,
    time_scale: f64,
) -> Vec<Response> {
    drive_open_loop_paced(
        handle,
        arrivals,
        features,
        time_scale,
        clock::DEFAULT_SPIN_TRIM,
    )
}

/// [`drive_open_loop`] with an explicit busy-spin budget. The old pacer
/// spun the last 100µs of **every** gap unconditionally; here the spin
/// tail is the caller's choice — [`Duration::ZERO`] never spins (pure
/// `thread::sleep` pacing, cheapest but at OS-timer granularity), and
/// whatever is passed is clamped to [`clock::MAX_SPIN_TRIM`].
pub fn drive_open_loop_paced(
    handle: &mut ServerHandle,
    arrivals: &ArrivalProcess,
    mut features: impl FnMut(u64) -> Vec<f64>,
    time_scale: f64,
    spin_trim: Duration,
) -> Vec<Response> {
    assert!(
        time_scale.is_finite() && time_scale >= 0.0,
        "time_scale must be finite and non-negative"
    );
    let clock = Arc::clone(handle.clock());
    let start_s = clock.now_s();
    let mut t = 0.0;
    for (k, gap) in arrivals.gaps_s().iter().enumerate() {
        if time_scale > 0.0 {
            t += gap * time_scale;
            clock.sleep_until(start_s + t, spin_trim);
        }
        handle.submit(features(k as u64));
    }
    handle.collect()
}

/// [`drive_open_loop`] in **drain-segmented** mode: before submitting a
/// request whose scheduled gap is at least `drain_gap_s`, every
/// outstanding response is collected first, so the schedule's large gaps
/// split the stream into segments that can never share a micro-batch.
///
/// On a [`clock::Clock::virtual_at`] server (the mode the fabric determinism
/// suites run in CI) nothing sleeps — each gap advances virtual time, a
/// run takes compute time instead of schedule time, and every batch
/// closes on the collect's explicit flush, deterministically placed by
/// the schedule rather than by wall-clock raciness. On a real-clock
/// server the same drains quiesce the ingest queue and the wall deadline
/// closes each partial batch, as before this function grew a clock.
/// Responses return **sorted by request id** either way.
pub fn drive_open_loop_virtual(
    handle: &mut ServerHandle,
    arrivals: &ArrivalProcess,
    mut features: impl FnMut(u64) -> Vec<f64>,
    drain_gap_s: f64,
) -> Vec<Response> {
    assert!(
        drain_gap_s.is_finite() && drain_gap_s > 0.0,
        "drain_gap_s must be finite and positive"
    );
    let clock = Arc::clone(handle.clock());
    let start_s = clock.now_s();
    let mut t = 0.0;
    let mut responses = Vec::with_capacity(arrivals.len());
    for (k, gap) in arrivals.gaps_s().iter().enumerate() {
        t += gap;
        if clock.is_virtual() {
            clock.advance_to(start_s + t);
        }
        if *gap >= drain_gap_s && handle.outstanding() > 0 {
            responses.extend(handle.collect());
        }
        handle.submit(features(k as u64));
    }
    // Each collect returns its window in id order and the windows follow
    // each other, so the concatenation is already sorted.
    responses.extend(handle.collect());
    responses
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
        let responses = drive_open_loop(&mut handle, &arrivals, |k| vec![(k % 60) as f64], 1.0);
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

    /// Virtual-clock driving: the schedule's large gaps split the stream
    /// into segments whose requests can never share a micro-batch, and —
    /// with the server itself on a virtual [`Clock`] — *everything* is
    /// virtual-time bookkeeping: the clock ends at exactly the gap sum,
    /// each segment is one explicitly-flushed batch, and every latency is
    /// exactly zero (stamps within a segment are identical). No assertion
    /// reads the wall clock, so a loaded CI host cannot flake this.
    #[test]
    fn virtual_clock_preserves_segment_structure_and_answers_everything() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..60).map(|i| usize::from(i >= 30)).collect();
        let tree = fit(
            &Dataset::classification(x, y, 2).unwrap(),
            &TreeConfig::default(),
        )
        .unwrap();
        let clock = crate::clock::Clock::virtual_at(0.0);
        let server = TreeServer::start_clocked(
            Arc::new(ModelRegistry::new(tree.clone())),
            ServeConfig {
                max_batch: 64,                      // bigger than any segment: only drains flush
                max_delay: Duration::from_secs(10), // never consulted on a virtual clock
                ..Default::default()
            },
            Arc::clone(&clock),
        );
        // Segments of 4, 3, and 5 requests separated by 1-second gaps the
        // virtual clock never actually sleeps.
        let gaps = vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        let segment_len = |id: u64| match id {
            0..=3 => 4usize,
            4..=6 => 3,
            _ => 5,
        };
        let arrivals = ArrivalProcess::replay("segments", gaps);
        let mut handle = server.handle();
        let responses =
            drive_open_loop_virtual(&mut handle, &arrivals, |k| vec![(k % 60) as f64], 0.5);
        assert_eq!(
            clock.now_s(),
            2.0,
            "virtual time must advance by exactly the gap sum"
        );
        assert_eq!(responses.len(), 12);
        for (k, resp) in responses.iter().enumerate() {
            assert_eq!(resp.id, k as u64, "sorted by id");
            assert_eq!(resp.prediction, tree.predict(&[(k % 60) as f64]));
            assert_eq!(
                resp.batch_size,
                segment_len(resp.id),
                "request {} must batch with exactly its own segment",
                resp.id
            );
            assert_eq!(
                resp.latency_s, 0.0,
                "same-stamp segment members have zero virtual latency"
            );
        }
        let report = server.shutdown();
        assert_eq!(report.served, 12);
        assert_eq!(report.batches, 3, "one explicit flush per segment");
        assert_eq!(report.latency.max_s, 0.0);
    }
}
