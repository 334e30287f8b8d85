//! The simulation core: a virtual [`Clock`], the deterministic
//! [`EventQueue`], and a seeded RNG — the dslab-core shape
//! (`simulation.rs`) sized to what the co-simulation harness needs. The
//! harness pops and handles its own events.
//!
//! Determinism contract: given the same seed and the same schedule of
//! [`Simulation::schedule_at`] calls, the pop order, the clock trajectory,
//! and every RNG draw are bit-identical — on any host, for any thread
//! count of whatever the popped events drive.

use crate::events::{EventEntry, EventQueue};
use metis_serve::Clock;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A deterministic discrete-event simulation over events of type `E`.
pub struct Simulation<E> {
    clock: Arc<Clock>,
    queue: EventQueue<E>,
    rng: StdRng,
    processed: u64,
}

impl<E> Simulation<E> {
    /// An empty simulation at virtual time 0 with a seeded RNG.
    pub fn new(seed: u64) -> Self {
        Simulation {
            clock: Clock::virtual_at(0.0),
            queue: EventQueue::new(),
            rng: StdRng::seed_from_u64(seed),
            processed: 0,
        }
    }

    /// A simulation driving an **existing** virtual clock — typically the
    /// clock a serving fabric was built with
    /// ([`metis_fabric::FabricConfig::clock`]), so event pops and fabric
    /// latency stamps share one timeline. Panics unless the clock is
    /// virtual.
    pub fn with_clock(clock: Arc<Clock>, seed: u64) -> Self {
        assert!(
            clock.is_virtual(),
            "Simulation::with_clock needs a virtual clock"
        );
        Simulation {
            clock,
            queue: EventQueue::new(),
            rng: StdRng::seed_from_u64(seed),
            processed: 0,
        }
    }

    /// The simulation's virtual clock — share it (it is an `Arc`) with
    /// any component that stamps time, e.g. a serving fabric built with
    /// this clock in its `FabricConfig`.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// Current virtual time (the clock's high-water mark — see
    /// [`Simulation::pop`]).
    pub fn now_s(&self) -> f64 {
        self.clock.now_s()
    }

    /// The simulation's seeded RNG. All randomness must flow through
    /// here (or through other explicitly seeded generators) to keep runs
    /// reproducible.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Schedule `event` at absolute virtual time `time_s`; returns its
    /// sequence number. A time at or before [`Simulation::now_s`] is
    /// allowed — it fires as soon as the queue reaches it (the clock is a
    /// monotone high-water mark, so such an event pops "now" rather than
    /// rewinding anything); scheduling strictly in the future is the
    /// common case.
    pub fn schedule_at(&mut self, time_s: f64, event: E) -> u64 {
        self.queue.push(time_s, event)
    }

    /// Schedule `event` `delay_s` seconds after the current virtual time.
    pub fn schedule_in(&mut self, delay_s: f64, event: E) -> u64 {
        assert!(
            delay_s.is_finite() && delay_s >= 0.0,
            "delay must be finite and non-negative, got {delay_s}"
        );
        self.schedule_at(self.now_s() + delay_s, event)
    }

    /// The earliest pending event, without firing it.
    pub fn peek(&self) -> Option<&EventEntry<E>> {
        self.queue.peek()
    }

    /// Fire the earliest pending event: advances the clock to
    /// `max(now, event.time_s)` and returns the entry. The `max` is what
    /// makes the clock a high-water mark — an event scheduled "into the
    /// past" (a closed-loop reply that outran a later already-popped
    /// event) still pops in correct `(time, seq)` order, it just cannot
    /// pull time backwards.
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        let entry = self.queue.pop()?;
        self.clock.advance_to(entry.time_s.max(self.now_s()));
        self.processed += 1;
        Some(entry)
    }

    /// Events fired so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Events scheduled over the simulation's lifetime.
    pub fn scheduled(&self) -> u64 {
        self.queue.scheduled()
    }

    /// Events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn clock_follows_pop_order_and_rng_is_seeded() {
        let mut sim: Simulation<&str> = Simulation::new(7);
        assert_eq!(sim.now_s(), 0.0);
        sim.schedule_at(2.0, "b");
        sim.schedule_at(1.0, "a");
        sim.schedule_in(3.0, "c");
        let draw_a: f64 = sim.rng().gen_range(0.0..1.0);
        assert_eq!(sim.pop().unwrap().event, "a");
        assert_eq!(sim.now_s(), 1.0);
        assert_eq!(sim.pop().unwrap().event, "b");
        assert_eq!(sim.now_s(), 2.0);
        assert_eq!(sim.pop().unwrap().event, "c");
        assert_eq!(sim.now_s(), 3.0);
        assert!(sim.pop().is_none());
        assert_eq!(sim.processed(), 3);
        // Same seed ⇒ same draw, bitwise.
        let mut again: Simulation<&str> = Simulation::new(7);
        let draw_b: f64 = again.rng().gen_range(0.0..1.0);
        assert_eq!(draw_a.to_bits(), draw_b.to_bits());
    }

    #[test]
    fn past_schedules_pop_in_order_without_rewinding_the_clock() {
        let mut sim: Simulation<u32> = Simulation::new(0);
        sim.schedule_at(5.0, 50);
        sim.pop();
        assert_eq!(sim.now_s(), 5.0);
        // A reply "from" t=2 after the clock reached 5: fires next, clock
        // holds its high-water mark.
        sim.schedule_at(2.0, 20);
        sim.schedule_at(6.0, 60);
        let e = sim.pop().unwrap();
        assert_eq!((e.event, e.time_s), (20, 2.0));
        assert_eq!(sim.now_s(), 5.0, "high-water mark must not rewind");
        assert_eq!(sim.pop().unwrap().event, 60);
        assert_eq!(sim.now_s(), 6.0);
    }
}
