//! The time substrate: one [`Clock`] type with a **real** (wall-clock)
//! and a **virtual** (discrete-event) implementation, shared by the
//! engine, the traffic drivers, the fabric's shards, and the `metis_sim`
//! co-simulation harness.
//!
//! * [`Clock::real`] anchors an `Instant` and reports elapsed wall time —
//!   every pre-existing serving path is this instantiation, bit-identical
//!   to the old direct `Instant` arithmetic.
//! * [`Clock::virtual_at`] holds virtual seconds in an atomic and only
//!   moves when a driver calls [`Clock::advance_to`] — time costs nothing,
//!   so a simulated day of traffic takes compute time, and every timestamp
//!   is a pure function of the event schedule rather than of the host.
//!
//! The virtual clock is a **monotone high-water mark**: `advance_to` is a
//! `fetch_max`, so concurrent advancement from racing drivers can never
//! move time backwards, and reading threads (clients stamping submits)
//! always see a time at least as late as every event already dispatched.
//! A virtual-clock flush reads no clock at all: it closes its batch at
//! the batch's latest submit stamp.
//! Monotonicity relies on virtual times being non-negative finite `f64`s,
//! whose IEEE-754 bit patterns order the same way the values do —
//! [`Clock::advance_to`] rejects anything else.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default busy-spin trim for [`Clock::sleep_until`]: sleep to within
/// this margin of the target, then spin the rest so sub-millisecond
/// schedules keep their shape despite coarse OS timer granularity.
pub const DEFAULT_SPIN_TRIM: Duration = Duration::from_micros(100);

/// Hard cap on the busy-spin trim: however a caller configures pacing,
/// a drive never burns more than this per gap in a spin loop.
pub const MAX_SPIN_TRIM: Duration = Duration::from_millis(2);

enum Inner {
    /// Wall time, measured from the anchoring `Instant`.
    Real(Instant),
    /// Virtual seconds, stored as `f64` bits (valid to `fetch_max`
    /// because non-negative finite doubles order bitwise).
    Virtual(AtomicU64),
}

/// A time source: real (wall-clock) or virtual (event-driven).
pub struct Clock {
    inner: Inner,
}

impl Clock {
    /// A wall clock anchored at "now". [`Clock::now_s`] reports seconds
    /// elapsed since this call.
    pub fn real() -> Arc<Clock> {
        Arc::new(Clock {
            inner: Inner::Real(Instant::now()),
        })
    }

    /// A virtual clock starting at `start_s` seconds. Time only moves via
    /// [`Clock::advance_to`] (or [`Clock::sleep_until`], which delegates
    /// to it) — never by itself.
    pub fn virtual_at(start_s: f64) -> Arc<Clock> {
        assert!(
            start_s.is_finite() && start_s >= 0.0,
            "virtual clock start must be finite and non-negative, got {start_s}"
        );
        Arc::new(Clock {
            inner: Inner::Virtual(AtomicU64::new(start_s.to_bits())),
        })
    }

    /// True for virtual clocks — the switch that turns off wall-clock
    /// deadlines (engine batching) and real sleeps (traffic pacing).
    pub fn is_virtual(&self) -> bool {
        matches!(self.inner, Inner::Virtual(_))
    }

    /// Current time in seconds: wall seconds since the anchor, or the
    /// virtual high-water mark.
    pub fn now_s(&self) -> f64 {
        match &self.inner {
            Inner::Real(anchor) => anchor.elapsed().as_secs_f64(),
            Inner::Virtual(bits) => f64::from_bits(bits.load(Ordering::Acquire)),
        }
    }

    /// Advance a virtual clock to at least `t_s` (monotone: a target in
    /// the past is a no-op). Panics on a real clock — wall time cannot be
    /// pushed.
    pub fn advance_to(&self, t_s: f64) {
        assert!(
            t_s.is_finite() && t_s >= 0.0,
            "advance_to needs a finite non-negative time, got {t_s}"
        );
        match &self.inner {
            Inner::Real(_) => panic!("advance_to on a real clock: wall time cannot be pushed"),
            Inner::Virtual(bits) => {
                // fetch_max on the bit pattern == fetch_max on the value
                // for non-negative finite doubles.
                bits.fetch_max(t_s.to_bits(), Ordering::AcqRel);
            }
        }
    }

    /// Wait until the clock reads at least `target_s`.
    ///
    /// * Real clock: sleep until `spin_trim` before the target, then
    ///   busy-spin the remainder — the bounded version of the old
    ///   `traffic::wait_until` (which spun an unconditional final 200µs).
    ///   `spin_trim` is clamped to [`MAX_SPIN_TRIM`]; pass
    ///   [`Duration::ZERO`] to never spin (pure `thread::sleep` pacing).
    /// * Virtual clock: no waiting at all — just [`Clock::advance_to`]
    ///   the target, which is what makes every clocked drive run the
    ///   whole schedule in compute time.
    pub fn sleep_until(&self, target_s: f64, spin_trim: Duration) {
        match &self.inner {
            Inner::Virtual(_) => self.advance_to(target_s.max(self.now_s())),
            Inner::Real(anchor) => {
                let trim = spin_trim.min(MAX_SPIN_TRIM);
                let target = *anchor + Duration::from_secs_f64(target_s.max(0.0));
                loop {
                    let now = Instant::now();
                    if now >= target {
                        return;
                    }
                    let left = target - now;
                    if left > trim {
                        std::thread::sleep(left - trim);
                    } else if trim.is_zero() {
                        // Spinning disabled: one coarse sleep and done.
                        std::thread::sleep(left);
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Inner::Real(_) => write!(f, "Clock::Real({:.6}s)", self.now_s()),
            Inner::Virtual(_) => write!(f, "Clock::Virtual({:.6}s)", self.now_s()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_tracks_wall_time() {
        let clock = Clock::real();
        assert!(!clock.is_virtual());
        let a = clock.now_s();
        std::thread::sleep(Duration::from_millis(2));
        let b = clock.now_s();
        assert!(b > a, "wall clock must move on its own: {a} -> {b}");
    }

    #[test]
    fn virtual_clock_only_moves_on_advance_and_is_monotone() {
        let clock = Clock::virtual_at(1.5);
        assert!(clock.is_virtual());
        assert_eq!(clock.now_s(), 1.5);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(clock.now_s(), 1.5, "virtual time must not move by itself");
        clock.advance_to(3.25);
        assert_eq!(clock.now_s(), 3.25);
        clock.advance_to(2.0); // past target: no-op, never backwards
        assert_eq!(clock.now_s(), 3.25);
    }

    #[test]
    fn virtual_advance_races_keep_the_high_water_mark() {
        let clock = Clock::virtual_at(0.0);
        std::thread::scope(|scope| {
            for t in 1..=8u32 {
                let clock = &clock;
                scope.spawn(move || {
                    for step in 0..100u32 {
                        clock.advance_to(f64::from(t) + f64::from(step) * 1e-3);
                    }
                });
            }
        });
        assert_eq!(clock.now_s(), 8.099, "max of every advance target");
    }

    #[test]
    fn sleep_until_on_virtual_clock_never_sleeps() {
        let clock = Clock::virtual_at(0.0);
        let start = Instant::now();
        clock.sleep_until(3600.0, DEFAULT_SPIN_TRIM);
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(clock.now_s(), 3600.0);
        // Target behind the high-water mark: keeps the mark.
        clock.sleep_until(100.0, DEFAULT_SPIN_TRIM);
        assert_eq!(clock.now_s(), 3600.0);
    }

    #[test]
    fn sleep_until_on_real_clock_reaches_the_target() {
        let clock = Clock::real();
        for trim in [Duration::ZERO, DEFAULT_SPIN_TRIM, Duration::from_secs(9)] {
            let target = clock.now_s() + 2e-3;
            clock.sleep_until(target, trim);
            assert!(
                clock.now_s() >= target,
                "sleep_until returned early (trim {trim:?})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "real clock")]
    fn advancing_a_real_clock_panics() {
        Clock::real().advance_to(1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn virtual_clock_rejects_negative_start() {
        let _ = Clock::virtual_at(-1.0);
    }
}
