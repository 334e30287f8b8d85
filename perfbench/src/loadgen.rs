//! Due-time open-loop load generation.
//!
//! Every request has a due time fixed before the phase starts. The
//! generator waits for it, stamps the actual send time and submits, so a
//! generator stall delays every later request *and that delay is charged
//! to them*: latency = (sent − due) + the engine's own latency. A generator
//! that stamps requests when it gets round to sending them would hide
//! the stall entirely.

use crate::stats::{median, quantile, windowed_p99};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::{Duration, Instant};

/// Above this much lead the generator sleeps instead of spinning, so it
/// never needs more than its own thread and leaves idle time to others.
const SLEEP_ABOVE_S: f64 = 300e-6;
/// Sleep this much short of the due time and spin the rest (sleep wakes
/// late by tens of microseconds).
const SLEEP_MARGIN_S: f64 = 150e-6;

/// Due offsets (seconds from phase start) of `n` Poisson arrivals at
/// `rate_per_s`.
pub fn poisson_schedule(rate_per_s: f64, n: usize, rng: &mut StdRng) -> Vec<f64> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(1e-12..1.0);
            t += -u.ln() / rate_per_s;
            t
        })
        .collect()
}

/// Run one open-loop phase: for request `i`, `prepare(i)` builds its
/// payload, the generator waits until `due_s[i]`, stamps the send time
/// and hands the payload to `submit`. Returns the send offsets.
pub fn drive<T>(
    due_s: &[f64],
    mut prepare: impl FnMut(usize) -> T,
    mut submit: impl FnMut(T),
) -> Vec<f64> {
    let start = Instant::now();
    let mut sent_s = Vec::with_capacity(due_s.len());
    for (i, &due) in due_s.iter().enumerate() {
        let payload = prepare(i);
        let mut now = start.elapsed().as_secs_f64();
        while now < due {
            let lead = due - now;
            if lead > SLEEP_ABOVE_S {
                std::thread::sleep(Duration::from_secs_f64(lead - SLEEP_MARGIN_S));
            } else {
                std::hint::spin_loop();
            }
            now = start.elapsed().as_secs_f64();
        }
        sent_s.push(now);
        submit(payload);
    }
    sent_s
}

/// Latency of each request measured from its due time.
pub fn due_latencies(due_s: &[f64], sent_s: &[f64], engine_latency_s: &[f64]) -> Vec<f64> {
    assert_eq!(due_s.len(), sent_s.len());
    assert_eq!(due_s.len(), engine_latency_s.len());
    due_s
        .iter()
        .zip(sent_s)
        .zip(engine_latency_s)
        .map(|((due, sent), engine)| (sent - due).max(0.0) + engine)
        .collect()
}

/// Summary of one open-loop phase.
#[derive(Debug, Clone)]
pub struct PhaseSummary {
    pub p50_s: f64,
    /// Median over windows of `window` requests of each window's p99.
    pub p99_s: f64,
    pub late_p99_s: f64,
    pub late_max_s: f64,
    /// Achieved rate over offered: the schedule's span over the span
    /// until the last answer. Below 1 when a backlog grew.
    pub achieved_frac: f64,
}

pub fn summarize(
    due_s: &[f64],
    sent_s: &[f64],
    engine_latency_s: &[f64],
    window: usize,
) -> PhaseSummary {
    let latency = due_latencies(due_s, sent_s, engine_latency_s);
    let late: Vec<f64> = due_s
        .iter()
        .zip(sent_s)
        .map(|(d, s)| (s - d).max(0.0))
        .collect();
    let span = due_s.last().copied().unwrap_or(0.0);
    let last_done = due_s
        .iter()
        .zip(&latency)
        .map(|(d, l)| d + l)
        .fold(0.0, f64::max);
    PhaseSummary {
        p50_s: median(&latency),
        p99_s: windowed_p99(&latency, window),
        late_p99_s: quantile(&late, 0.99),
        late_max_s: late.iter().copied().fold(0.0, f64::max),
        achieved_frac: span / last_done.max(f64::MIN_POSITIVE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        // Due every 1 ms; the generator stalls 5 ms before request 2, then
        // catches up as fast as it can.
        let due = [0.000, 0.001, 0.002, 0.003, 0.004, 0.010];
        let sent = [0.000, 0.001, 0.007, 0.0071, 0.0072, 0.010];
        let engine = [1e-4; 6];
        let lat = due_latencies(&due, &sent, &engine);
        let want = [1e-4, 1e-4, 5.1e-3, 4.2e-3, 3.3e-3, 1e-4];
        for (got, want) in lat.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{lat:?}");
        }
        let s = summarize(&due, &sent, &engine, 1000);
        assert!((s.late_max_s - 0.005).abs() < 1e-12);
        assert!((s.p50_s - (3.3e-3 + 1e-4) / 2.0).abs() < 1e-12);
        // Last answer at 10.1 ms for a 10 ms schedule.
        assert!((s.achieved_frac - 0.010 / 0.0101).abs() < 1e-12);
    }

    #[test]
    fn the_generator_charges_a_real_stall_to_later_requests() {
        let due: Vec<f64> = (0..20).map(|i| i as f64 * 200e-6).collect();
        let mut k = 0;
        let sent = drive(
            &due,
            |i| i,
            |i| {
                k += 1;
                if i == 5 {
                    std::thread::sleep(Duration::from_millis(3));
                }
            },
        );
        assert_eq!(k, 20);
        for i in 0..20 {
            assert!(sent[i] >= due[i], "sent before due");
        }
        // Requests 6.. were due 0.2 ms apart but could only go after the
        // 3 ms stall: their lateness carries it.
        assert!(sent[6] - due[6] > 2.5e-3);
        assert!(sent[8] - due[8] > 2.0e-3);
    }

    #[test]
    fn poisson_schedules_are_seeded_and_hit_the_rate() {
        let a = poisson_schedule(1000.0, 20_000, &mut StdRng::seed_from_u64(3));
        let b = poisson_schedule(1000.0, 20_000, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let rate = a.len() as f64 / a.last().unwrap();
        assert!((rate - 1000.0).abs() < 30.0, "rate {rate}");
    }
}
