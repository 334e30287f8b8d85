//! Host-speed correction for wall-clock figures.
//!
//! The benchmark host is a small VM whose speed drifts by a quarter or
//! more over seconds to minutes as neighbours load the machine, which
//! would swamp any code change in a raw wall-clock figure. Each timed
//! repetition is therefore bracketed by a fixed reference job of the
//! benchmark's own, timed just before and just after it, and the
//! repetition's wall time is scaled by `NOMINAL_MS / reference`, where
//! the reference is the geometric mean of the two. The result is in
//! ordinary seconds at the host speed where the reference takes
//! [`NOMINAL_MS`]. The reference is benchmark code, so a change to the
//! program under test cannot move it.
//!
//! The reference mixes the kinds of work the workloads do, because the
//! neighbours slow them unevenly, in parts of about the same length:
//! random reads over a buffer larger than L2 (memory latency), a sort of
//! a vector that fits in L2, a data-dependent walk down a complete binary
//! tree (branches, like the served trees' kernel), a small dense
//! matrix-vector chain (floating point, like a policy network's forward
//! pass) and a burst of small allocations. Timed on both sides of each
//! conversion, this reference followed the conversion's per-repetition
//! time with a correlation of 0.83 in log space; the memory-read part
//! alone, timed before only, managed 0.3.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The reference job's wall time at nominal host speed.
pub const NOMINAL_MS: f64 = 9.0;

const WORDS: usize = 1 << 20;
/// Inner nodes of the reference tree walk (a complete binary tree).
const TREE_NODES: usize = 4096;
/// Side of the reference's square matrix.
const DIM: usize = 64;

/// Size of the reference job's buffer, which stays resident for the rest
/// of the run; peak-memory figures subtract it.
pub const BUFFER_MIB: f64 = (WORDS * 8) as f64 / (1024.0 * 1024.0);

/// Wall time of one reference job, in milliseconds.
pub fn reference_ms() -> f64 {
    static BUFFER: OnceLock<Vec<u64>> = OnceLock::new();
    let buf = BUFFER.get_or_init(|| {
        (0..WORDS as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    });
    let t = Instant::now();
    let mut h = 1u64;
    for i in 0..40_000usize {
        let slot = (h as usize ^ i.wrapping_mul(2_654_435_761)) & (WORDS - 1);
        h = h.wrapping_mul(31).wrapping_add(buf[slot]);
    }

    let mut v: Vec<u64> = (0..90_000u64)
        .map(|i| (i ^ h).wrapping_mul(0x2545_F491_4F6C_DD1D) >> 7)
        .collect();
    v.sort_unstable();

    let thresholds = &buf[..TREE_NODES];
    let mut x = h | 1;
    let mut leaves = 0usize;
    for _ in 0..110_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut node = 1usize;
        while node < TREE_NODES {
            node = 2 * node + usize::from(x > thresholds[node]);
        }
        leaves += node;
    }

    let m: Vec<f64> = (0..DIM * DIM)
        .map(|i| ((i * 37) % 101) as f64 * 0.01 - 0.5)
        .collect();
    let mut a: Vec<f64> = (0..DIM).map(|i| i as f64 * 0.01).collect();
    let mut b = vec![0.0f64; DIM];
    for _ in 0..400 {
        for (row, out) in m.chunks_exact(DIM).zip(b.iter_mut()) {
            *out = row.iter().zip(&a).map(|(w, x)| w * x).sum::<f64>().tanh();
        }
        std::mem::swap(&mut a, &mut b);
    }

    let small: Vec<Vec<u64>> = (0..4_000u64)
        .map(|i| vec![h ^ i; 8 + (i % 32) as usize])
        .collect();
    black_box((h, v, leaves, a, small));
    t.elapsed().as_secs_f64() * 1e3
}

/// `wall_s` corrected to nominal host speed, given the reference job's
/// time measured next to it.
fn correct(wall_s: f64, reference_ms: f64) -> f64 {
    wall_s * NOMINAL_MS / reference_ms
}

/// A reference job timed before a repetition; [`Bracket::close`] times
/// another after it and corrects the repetition by both.
pub struct Bracket {
    before_ms: f64,
}

impl Bracket {
    pub fn open() -> Bracket {
        Bracket {
            before_ms: reference_ms(),
        }
    }

    /// `wall_s`, measured since [`Bracket::open`], at nominal host speed.
    pub fn close(self, wall_s: f64) -> f64 {
        correct(wall_s, geometric_mean(self.before_ms, reference_ms()))
    }
}

fn geometric_mean(a: f64, b: f64) -> f64 {
    (a * b).sqrt()
}

/// Run `f` between two reference jobs; returns its host-corrected wall
/// seconds and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let bracket = Bracket::open();
    let t = Instant::now();
    let out = f();
    let wall = t.elapsed().as_secs_f64();
    (bracket.close(wall), out)
}

/// Run `setup` `reps` times, each timed by [`timed`]; returns the median
/// host-corrected seconds and the last result.
pub fn median_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    assert!(reps > 0, "at least one setup");
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (s, out) = timed(&mut setup);
        secs.push(s);
        last = Some(out);
    }
    (crate::stats::median(&secs), last.expect("reps > 0"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_scales_by_the_reference() {
        assert_eq!(correct(1.0, NOMINAL_MS), 1.0);
        // A host running the reference at half speed halves the figure.
        assert_eq!(correct(1.0, 2.0 * NOMINAL_MS), 0.5);
        let (s, v) = timed(|| 7);
        assert_eq!(v, 7);
        assert!(s >= 0.0);
        let mut calls = 0;
        let (s, v) = median_setup(3, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, v), (3, 3));
        assert!(s >= 0.0);
        assert!(reference_ms() > 0.0);
    }

    #[test]
    fn a_bracket_corrects_by_both_references() {
        // Reference at 24 ms before and 6 ms after: the repetition is
        // charged the mean host speed, 12 ms.
        assert_eq!(geometric_mean(24.0, 6.0), 12.0);
        assert!(Bracket::open().close(1.0) > 0.0);
    }
}
