//! `tanh` as an eight-lane kernel, bit-identical to glibc's.
//!
//! Hidden layers spend most of their forward pass in `tanh`, and libm
//! computes it one call at a time. This module ports the algorithm glibc
//! 2.36 runs on x86-64 — fdlibm's `s_tanh.c` over `expm1`, whose FMA build
//! the loader selects on any CPU with FMA and AVX2 — to fixed-width loops
//! over `[f64; 8]` that the compiler vectorises. Each lane computes every
//! branch of `expm1` and keeps the one glibc's control flow takes, so the
//! result equals that libm's `tanh` bit for bit.
//!
//! The fused multiply-adds are exactly the ones GCC contracted in that
//! build; every other step is a plain add, multiply or divide. (The one
//! surprise: the reduction's `k = trunc(x/ln2 ± ½)` is a separate
//! multiply and add there, not a fused one.) `f64::mul_add` rounds once
//! on every host — one instruction with the `fma` target feature, a
//! correctly rounded software `fma` without it — so results are the same
//! everywhere; only the speed depends on the CPU. `tanh` is therefore
//! defined by this crate, not by whichever libm the host links.

/// Lanes per kernel step: one 512-bit vector of `f64`.
const LANES: usize = 8;

// fdlibm's `expm1` constants, by bits.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
const Q1: f64 = f64::from_bits(0xbfa1_1111_1111_10f4);
const Q2: f64 = f64::from_bits(0x3f5a_01a0_19fe_5585);
const Q3: f64 = f64::from_bits(0xbf14_ce19_9eaa_dbb7);
const Q4: f64 = f64::from_bits(0x3ed0_cfca_86e6_5239);
const Q5: f64 = f64::from_bits(0xbe8a_fdb7_6e09_c32d);
/// `tanh(x) = x·(1 + x)` below 2^-55.
const TINY: f64 = f64::from_bits(0x3c80_0000_0000_0000);
/// `tanh(x) = ±1` from 22 up.
const SATURATED: f64 = 22.0;
/// `2^52 + 1023`: adding an integer-valued `k` leaves `k + 1023` in the
/// low mantissa bits, which a shift by 52 moves into the exponent of 2^k.
const EXP_BIAS: f64 = 4_503_599_627_371_519.0;

/// `tanh(x)`, bit-identical to glibc 2.36's on an FMA host: the kernel
/// run on one lane.
pub fn tanh(x: f64) -> f64 {
    let mut lane = [x];
    kernel(&mut lane);
    lane[0]
}

/// `tanh` of every element, in place: full chunks of eight run the lane
/// kernel directly, a short tail runs it zero-padded. Element `i` equals
/// [`tanh`] of element `i` for any slice length.
pub fn tanh_in_place(xs: &mut [f64]) {
    let mut chunks = xs.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        kernel::<LANES>(chunk.try_into().expect("chunked to LANES"));
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        let mut lanes = [0.0; LANES];
        lanes[..tail.len()].copy_from_slice(tail);
        kernel(&mut lanes);
        tail.copy_from_slice(&lanes[..tail.len()]);
    }
}

/// `N` lanes at once (eight, or one for [`tanh`]). Each stage is a
/// fixed-width loop over the lanes with a branch-free body, so the
/// compiler turns it into vector code: every lane computes every case,
/// and selects keep the one glibc's control flow takes.
#[inline(always)]
fn kernel<const N: usize>(xs: &mut [f64; N]) {
    // s_tanh.c calls expm1(2|x|) from 1 up and expm1(-2|x|) below, so
    // expm1 sees a ∈ (-2, -2^-54] ∪ [2, 44) and k ∈ {-3..=0} ∪ [3, 63].
    let mut a = [0.0; N];
    let mut k = [0.0; N];
    for i in 0..N {
        let ax = xs[i].abs();
        let big = ax >= 1.0;
        a[i] = if big { ax + ax } else { -2.0 * ax };
        let a_hi = (ax + ax).to_bits() >> 32;
        let k_general = (INV_LN2 * a[i] + if big { 0.5 } else { -0.5 }).trunc();
        let k_nonzero = if a_hi < 0x3ff0_a2b2 { -1.0 } else { k_general };
        k[i] = if a_hi <= 0x3fd6_2e42 { 0.0 } else { k_nonzero };
    }

    // Argument reduction a = k·ln2 + r + c, with c the rounding error of
    // r. At k = 0 this leaves r = a and c = 0; at k = -1 it is the
    // `a + ln2_hi` branch of s_expm1.c. Both are exact, so one formula
    // serves all three of its reductions. Then expm1(r) on the primary
    // range.
    let mut r = [0.0; N];
    let mut e = [0.0; N];
    let mut k_zero = [0.0; N];
    for i in 0..N {
        let hi = (-k[i]).mul_add(LN2_HI, a[i]);
        let lo = k[i] * LN2_LO;
        r[i] = hi - lo;
        let c = (hi - r[i]) - lo;
        let hfx = 0.5 * r[i];
        let hxs = r[i] * hfx;
        let h2 = hxs * hxs;
        let h4 = h2 * h2;
        let r1 = h4.mul_add(
            hxs.mul_add(Q5, Q4),
            h2.mul_add(hxs.mul_add(Q3, Q2), hxs.mul_add(Q1, 1.0)),
        );
        let t = (-r1).mul_add(hfx, 3.0);
        let e0 = (r1 - t) / (-r[i]).mul_add(t, 6.0) * hxs;
        k_zero[i] = r[i] - r[i].mul_add(e0, -hxs);
        e[i] = r[i].mul_add(e0 - c, -c) - hxs;
    }

    // Scale back by 2^k (s_expm1.c adds k to the exponent word; both are
    // exact for these k).
    let mut em1 = [0.0; N];
    for i in 0..N {
        let (k, r, e) = (k[i], r[i], e[i]);
        let two_k = f64::from_bits((k + EXP_BIAS).to_bits() << 52);
        let two_minus_k = f64::from_bits((EXP_BIAS - k).to_bits() << 52);
        let k_minus_one = 0.5f64.mul_add(r - e, -0.5);
        let k_far = (1.0 - (e - r)) * two_k - 1.0;
        let k_below_20 = ((1.0 - two_minus_k) - (e - r)) * two_k;
        let k_from_20 = ((r - (e + two_minus_k)) + 1.0) * two_k;
        let k_3_to_56 = if k < 20.0 { k_below_20 } else { k_from_20 };
        let k_other = if k <= -2.0 || k > 56.0 {
            k_far
        } else {
            k_3_to_56
        };
        let k_nonzero = if k == -1.0 { k_minus_one } else { k_other };
        em1[i] = if k == 0.0 { k_zero[i] } else { k_nonzero };
    }

    // tanh = 1 - 2/(expm1(2|x|) + 2), or -expm1(-2|x|)/(expm1(-2|x|) + 2);
    // one division serves both.
    for i in 0..N {
        let (x, em1) = (xs[i], em1[i]);
        let ax = x.abs();
        let big = ax >= 1.0;
        let q = if big { 2.0 } else { -em1 } / (em1 + 2.0);
        let z = if big { 1.0 - q } else { q };
        let z = if ax < SATURATED { z } else { 1.0 };
        let z = if x.is_sign_negative() { -z } else { z };
        let z = if ax < TINY { x * (1.0 + x) } else { z };
        xs[i] = if ax.is_nan() { x + x } else { z };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::mix_seed;
    use metis_telemetry::Fnv1a;

    /// Branch edges of glibc's `tanh`, as the bits of `|x|`, each with the
    /// FNV-1a digest of `f64::tanh`'s output bits at every input within 64
    /// ulps of the edge, both signs. Recorded from glibc 2.36 on an x86-64
    /// host with FMA, so the test never consults the host's libm.
    const EDGES: [(&str, u64, u64); 9] = [
        (
            "tiny inputs, 2^-55",
            0x3c80_0000_0000_0000,
            0x9718_d0eb_8272_6c25,
        ),
        ("k 0/-1", 0x3fc6_2e43_0000_0000, 0xc604_f09a_3b40_8a9d),
        (
            "k -1/-2 by high word",
            0x3fe0_a2b2_0000_0000,
            0x9d7a_3051_0b52_3b05,
        ),
        (
            "k -1/-2 by reduction",
            0x3fe0_a2b2_3f3b_ab74,
            0xce9a_f921_d874_4859,
        ),
        ("k -2/-3", 0x3feb_b9d3_beb8_c86b, 0xf8b2_f00c_db70_2e41),
        (
            "expm1 argument changes sign, 1",
            0x3ff0_0000_0000_0000,
            0xeb6b_2290_175f_8f11,
        ),
        ("k 19/20", 0x401b_0861_a6c0_f69b, 0xd821_f15a_b61b_d6c1),
        ("k 56/57", 0x4033_94d7_2518_e725, 0x5a46_b370_91e2_5e45),
        (
            "saturation, 22",
            0x4036_0000_0000_0000,
            0x5a46_b370_91e2_5e45,
        ),
    ];

    /// SplitMix64: a counter through the [`mix_seed`] finalizer.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix_seed(*state)
    }

    /// A quarter each: uniform in ±25, uniform in ±3, a random exponent
    /// in 2^-60..2^6, and arbitrary bit patterns.
    fn sweep_input(state: &mut u64) -> f64 {
        let r = splitmix(state);
        let s = splitmix(state);
        let u = (s >> 11) as f64 / (1u64 << 53) as f64;
        match r % 4 {
            0 => (2.0 * u - 1.0) * 25.0,
            1 => (2.0 * u - 1.0) * 3.0,
            2 => {
                let exp = 1023 - 60 + (r >> 2) % 67;
                f64::from_bits((r & (1 << 63)) | (exp << 52) | (s & ((1 << 52) - 1)))
            }
            _ => f64::from_bits(s),
        }
    }

    #[test]
    fn branch_edges_match_recorded_values() {
        for (edge, bits, want) in EDGES {
            let mut h = Fnv1a::new();
            for d in -64i64..=64 {
                for sign in [0, 1 << 63] {
                    let x = f64::from_bits(bits.wrapping_add_signed(d) | sign);
                    h.write_u64(tanh(x).to_bits());
                }
            }
            let got = h.finish();
            assert_eq!(got, want, "{edge}: got {got:#018x}, recorded {want:#018x}");
        }
    }

    #[test]
    fn zeros_infinities_subnormals_and_nan() {
        for (x, want) in [
            (0x0000_0000_0000_0000, 0x0000_0000_0000_0000),
            (0x8000_0000_0000_0000, 0x8000_0000_0000_0000),
            (0x7ff0_0000_0000_0000, 0x3ff0_0000_0000_0000),
            (0xfff0_0000_0000_0000, 0xbff0_0000_0000_0000),
            (0x0000_0000_0000_0001, 0x0000_0000_0000_0001),
            (0x000f_ffff_ffff_ffff, 0x000f_ffff_ffff_ffff),
            (0x8000_0000_0000_0001, 0x8000_0000_0000_0001),
            (0x0010_0000_0000_0000, 0x0010_0000_0000_0000),
        ] {
            let got = tanh(f64::from_bits(x)).to_bits();
            assert_eq!(
                got, want,
                "tanh({x:#018x}) = {got:#018x}, recorded {want:#018x}"
            );
        }
        for nan in [f64::NAN, -f64::NAN, f64::from_bits(0x7ff0_0000_0000_0001)] {
            assert!(tanh(nan).is_nan());
        }
    }

    /// A million SplitMix inputs through the eight-lane kernel, pinned to
    /// one digest of `f64::tanh`'s output bits recorded as above.
    #[test]
    fn splitmix_sweep_matches_recorded_digest() {
        let mut state = 0x7a4e;
        let mut xs: Vec<f64> = (0..1_000_000).map(|_| sweep_input(&mut state)).collect();
        tanh_in_place(&mut xs);
        let mut h = Fnv1a::new();
        xs.iter().for_each(|y| h.write_u64(y.to_bits()));
        assert_eq!(h.finish(), 0xa967_6e4a_cabb_bcb4);
    }

    /// Every slice length up to two full chunks plus one: the zero-padded
    /// tail gives what the one-lane `tanh` gives.
    #[test]
    fn slices_of_every_length_match_scalar() {
        let mut state = 3;
        for len in 0..=17 {
            let xs: Vec<f64> = (0..len).map(|_| sweep_input(&mut state)).collect();
            let mut ys = xs.clone();
            tanh_in_place(&mut ys);
            for (x, y) in xs.iter().zip(&ys) {
                let want = tanh(*x);
                assert!(
                    y.to_bits() == want.to_bits() || (y.is_nan() && want.is_nan()),
                    "len {len}: tanh_in_place({x:e}) = {y:e}, tanh = {want:e}"
                );
            }
        }
    }
}
