//! Lane-vectorized compiled-tree kernel and the forest evaluator built on
//! top of it — the raw-speed serving substrate behind
//! [`crate::CompiledTree::predict_batch_into`] and [`Forest`].
//!
//! # Quantized node layout
//!
//! `NodeTable` stores the flattened tree as parallel columns in
//! breadth-first order (hot top levels contiguous at the front):
//!
//! ```text
//! feat:    [u16]  feature id tested at the node   (leaves: 0)
//! left:    [u32]  child when x[feat] <  thr       (leaves: self)
//! right:   [u32]  child when x[feat] >= thr, NaN  (leaves: self)
//! pair:    [u64]  left | right << 32 — both children in one gather
//! thr:     [f64]  split threshold, own column     (leaves: +inf)
//! ```
//!
//! Leaves are **self-loops** (`left == right == own index`), so the walk
//! needs no leaf test on its hot path: a finished row simply steps in
//! place, and a level where *every* lane stepped in place terminates the
//! block. A walk's result is therefore the leaf's own BFS node id; the
//! table holds no answers. [`crate::CompiledTree`] maps a node id to its
//! [`Prediction`] through one answer table built beside the node table,
//! so classifiers and regressors share one path, and a walk can tell
//! apart leaves that give the same answer. Feature ids are `u16` (hence
//! [`DecisionTree::validate`]'s 65,536-feature cap) and child indices
//! `u32` for cache density; thresholds stay `f64` in their own contiguous
//! column because the bit-exactness contract (`x[f] < thr`, NaN routes
//! right — the same comparator as [`crate::DecisionTree::predict`]) does
//! not survive narrowing: CART midpoints are generally not representable
//! in `f32`, and a rounded threshold flips rows that land between the
//! two.
//!
//! # Lane walk
//!
//! `walk_leaves` advances [`LANES`] rows together, one level per
//! pass, with a branch-free select per lane (`if` on the comparison
//! compiles to a conditional move — no branch mispredicts on data-
//! dependent splits). All lanes issue independent loads, so the walk is
//! throughput-bound rather than latency-bound; compares and select masks
//! autovectorize, the per-lane feature gathers pipeline. A block exits as
//! soon as every lane is at a leaf (detected by the self-loop XOR trick),
//! so skewed trees do not pay `LANES × max_depth`.
//!
//! On x86-64 the block walk dispatches at runtime to hand-written
//! AVX-512 or AVX2 variants that use hardware gathers (`vgatherdps`
//! family) for the `feat`/row/`thr`/`pair` loads — LLVM refuses to emit
//! gathers for the portable loop and falls back to element-wise
//! insert/extract sequences, which cost roughly a third of the walk.
//! The comparator is `_CMP_LT_OQ`, which is *exactly* `x[f] < thr` with
//! NaN ordered false (routes right), so the SIMD paths stay inside the
//! bit-exactness contract; self-loop leaves survive the select unchanged
//! because a leaf's `thr = +inf` sends real values left and NaN right,
//! both of which are the leaf itself. The choice of walk depends only on
//! the CPU's features and the table's size; a unit test runs every walk
//! the host can execute against `walk_one` on the same rows.
//!
//! # In-register tables
//!
//! Trees with at most [`INREG_NODES`] nodes (CCP-pruned Metis trees are
//! routinely this small) additionally carry an `InRegTable`: the
//! `thr`/`pair`/`feat` columns padded to 64 entries. On AVX-512 hosts the
//! walk then loads the whole node table into zmm registers **once per
//! block** and replaces the per-level `thr`/`pair`/`feat` hardware
//! gathers with `vpermi2pd`/`vpermi2q`/`vpermi2d` register-resident
//! lookups (a two-deep blend cascade on index bits 4–5 covers all 64
//! entries); only the per-row feature load remains a real gather. The
//! same `_CMP_LT_OQ` comparator keeps the path inside the bit-exactness
//! contract.

use crate::tree::{
    diff_predictions, BatchDiff, CompiledTree, DecisionTree, Prediction, TreeError, TreeKind,
};
use serde::Serialize;

/// Rows walked together per block. 16 keeps a 143-feature block (the
/// repo's widest serving schema) inside L1 alongside the hot node
/// columns while giving the core enough independent loads to pipeline.
pub const LANES: usize = 16;

/// Widest feature schema the node layout can address: feature ids are
/// stored as `u16`. [`DecisionTree::validate`] rejects wider trees.
pub(crate) const MAX_FEATURES: usize = u16::MAX as usize + 1;

/// Largest node count that still fits the in-register table: 64 entries
/// per column fill eight zmm registers of `f64` thresholds, eight of
/// packed child pairs, and four of widened feature ids — twenty of the
/// thirty-two architectural zmm registers, leaving headroom for the
/// walk's working set.
pub const INREG_NODES: usize = 64;

/// The node columns of a small tree padded to [`INREG_NODES`] entries so
/// the AVX-512 walk can keep the whole table register-resident (see the
/// module docs). Entries past the real node count are self-loop leaves
/// with `thr = +inf`, so a stray lookup behaves like a settled lane.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct InRegTable {
    /// Split thresholds, `+inf` padded (64 × f64 — eight zmm).
    pub(crate) thr: Vec<f64>,
    /// Packed `left | right << 32` child pairs (64 × u64 — eight zmm).
    pub(crate) pair: Vec<u64>,
    /// Feature ids widened to `u32` (64 × u32 — four zmm).
    pub(crate) feat: Vec<u32>,
}

impl InRegTable {
    /// Pad the built columns of a table with at most [`INREG_NODES`]
    /// nodes. Returns `None` for larger trees.
    fn build(table: &NodeTable) -> Option<InRegTable> {
        let n = table.len();
        if n > INREG_NODES {
            return None;
        }
        let mut reg = InRegTable {
            thr: vec![f64::INFINITY; INREG_NODES],
            pair: (0..INREG_NODES as u64).map(|i| i | i << 32).collect(),
            feat: vec![0; INREG_NODES],
        };
        reg.thr[..n].copy_from_slice(&table.thr);
        reg.pair[..n].copy_from_slice(&table.pair);
        for (wide, &narrow) in reg.feat.iter_mut().zip(&table.feat) {
            *wide = narrow as u32;
        }
        Some(reg)
    }
}

/// The quantized structure-of-arrays node layout (see module docs).
#[derive(Debug, Clone, Serialize)]
pub(crate) struct NodeTable {
    /// Feature ids, padded with one trailing 0 so a 32-bit gather at the
    /// last node id stays in bounds (the gather lanes read 4 bytes each).
    pub(crate) feat: Vec<u16>,
    pub(crate) left: Vec<u32>,
    pub(crate) right: Vec<u32>,
    /// Both u32 child indices of each node packed `left | right << 32`,
    /// so the SIMD walk fetches a node's children with one 64-bit gather.
    pub(crate) pair: Vec<u64>,
    pub(crate) thr: Vec<f64>,
    /// Maximum root→leaf edge count — the walk's iteration bound.
    pub(crate) depth: usize,
    /// Register-resident copy of the columns for trees with at most
    /// [`INREG_NODES`] nodes; `None` for larger trees.
    pub(crate) inreg: Option<InRegTable>,
}

impl NodeTable {
    /// Flatten a (compacted) [`DecisionTree`] breadth-first. Leaves become
    /// self-loops with `thr = +inf`. Also returns the answer table: entry
    /// `i` is node `i`'s [`Prediction`], so a walk's node id is its
    /// answer's index.
    pub(crate) fn build(tree: &DecisionTree) -> (NodeTable, Vec<Prediction>) {
        assert!(
            tree.n_features() <= MAX_FEATURES,
            "kernel node layout stores feature ids as u16; tree has {} features",
            tree.n_features()
        );
        let n = tree.node_count();
        assert!(n <= u32::MAX as usize, "tree too large for u32 node ids");
        let mut table = NodeTable {
            feat: vec![0; n],
            left: vec![0; n],
            right: vec![0; n],
            pair: Vec::new(),
            thr: vec![f64::INFINITY; n],
            depth: 0,
            inreg: None,
        };
        let mut answers = vec![Prediction::Class(0); n];
        // BFS over the arena: `order[new] = old`, `remap[old] = new`.
        let mut remap = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back((0usize, 0usize));
        let mut next_id = 0u32;
        remap[0] = 0;
        next_id += 1;
        while let Some((old, level)) = queue.pop_front() {
            let new = remap[old] as usize;
            table.depth = table.depth.max(level);
            let node = tree.node(old);
            answers[new] = node.stats.prediction();
            match &node.split {
                Some(s) => {
                    table.feat[new] = s.feature as u16;
                    table.thr[new] = s.threshold;
                    remap[s.left] = next_id;
                    table.left[new] = next_id;
                    next_id += 1;
                    remap[s.right] = next_id;
                    table.right[new] = next_id;
                    next_id += 1;
                    queue.push_back((s.left, level + 1));
                    queue.push_back((s.right, level + 1));
                }
                None => {
                    table.left[new] = new as u32;
                    table.right[new] = new as u32;
                }
            }
        }
        debug_assert_eq!(next_id as usize, n);
        table.pair = table
            .left
            .iter()
            .zip(&table.right)
            .map(|(&l, &r)| l as u64 | (r as u64) << 32)
            .collect();
        table.feat.push(0); // gather over-read pad (see field doc)
        table.inreg = InRegTable::build(&table);
        (table, answers)
    }

    pub(crate) fn len(&self) -> usize {
        self.left.len()
    }

    /// True when node `i` is a leaf (self-loop).
    #[inline]
    pub(crate) fn is_leaf(&self, i: usize) -> bool {
        self.left[i] == i as u32
    }
}

/// Advance one block of `L` rows (`rows.len() == L * nf`) from the root
/// to their leaves, writing each row's leaf **node id** into `out`.
///
/// The inner loop is branch-free per lane: gather the tested feature,
/// compare against the threshold column (`<`, so NaN fails and routes
/// right — bit-identical to [`DecisionTree::predict`]), select the child.
/// `live` accumulates `next ^ current` across the lanes; it is zero
/// exactly when every lane was already sitting on a self-loop leaf, which
/// ends the block early on shallow or skewed trees. `depth` bounds the
/// loop as a defensive backstop (a well-formed table always exits via
/// `live == 0` first, at most one level later).
#[inline]
fn walk_block<const L: usize>(t: &NodeTable, rows: &[f64], nf: usize, out: &mut [u32]) {
    debug_assert_eq!(rows.len(), L * nf);
    debug_assert_eq!(out.len(), L);
    let mut idx = [0u32; L];
    for _ in 0..=t.depth {
        let mut live = 0u32;
        for (l, slot) in idx.iter_mut().enumerate() {
            let i = *slot as usize;
            // SAFETY: `i` is a node id produced by the table itself
            // (children and self-loops are in-bounds by construction),
            // `feat[i] < nf` for internal nodes and 0 for leaves, and
            // `walk_leaves` passes `rows.len() == L * nf` with `nf >= 1`.
            unsafe {
                let f = *t.feat.get_unchecked(i) as usize;
                let x = *rows.get_unchecked(l * nf + f);
                let go_left = x < *t.thr.get_unchecked(i);
                let next = if go_left {
                    *t.left.get_unchecked(i)
                } else {
                    *t.right.get_unchecked(i)
                };
                *slot = next;
                live |= next ^ i as u32;
            }
        }
        if live == 0 {
            break;
        }
    }
    debug_assert!(idx.iter().all(|&i| t.is_leaf(i as usize)));
    out.copy_from_slice(&idx);
}

/// Hardware-gather lane walk (x86-64 AVX2). The portable [`walk_block`]
/// leaves LLVM to synthesize the per-lane feature/threshold/child loads
/// as element-wise insert/extract sequences; with AVX2 each of those
/// becomes one real gather instruction per 4-lane group:
///
/// * `feat[i]` — 32-bit gather at byte scale 2 over the `u16` column
///   (masked to the low half; the column carries one pad element so the
///   widest lane read stays in bounds),
/// * `rows[lane_base + f]` and `thr[i]` — 4×f64 gathers,
/// * both children — **one** 64-bit gather over the packed `pair`
///   column, the comparison mask selecting the low (left) or high
///   (right) half per lane.
///
/// The comparator is `_CMP_LT_OQ` — exactly `x < thr` (quiet, NaN
/// compares false and routes right), so results stay bit-identical to
/// the portable walk; a unit test pins every walk to [`walk_one`].
#[cfg(target_arch = "x86_64")]
mod gather {
    use super::{InRegTable, NodeTable, LANES};
    use std::arch::x86_64::*;

    const GROUPS: usize = LANES / 4;
    const _: () = assert!(LANES.is_multiple_of(4));

    /// Which gather walk can serve this table and row shape. Preconditions
    /// shared by both widths: every gathered offset (node ids,
    /// lane-relative row offsets) fits the gathers' signed 32-bit indices.
    #[derive(Clone, Copy, PartialEq)]
    pub(super) enum Width {
        None,
        /// 4-lane (ymm) gathers.
        Avx2,
        /// 8-lane (zmm) gathers — half the gather instructions per level.
        Avx512,
        /// Register-resident node table (`vpermi2*` lookups): zmm lanes
        /// with zero table gathers per level.
        InReg512,
    }

    #[inline]
    pub(super) fn applicable(t: &NodeTable, nf: usize) -> Width {
        if t.len() > i32::MAX as usize || LANES * nf > i32::MAX as usize {
            return Width::None;
        }
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
            if t.inreg.is_some() {
                return Width::InReg512;
            }
            return Width::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return Width::Avx2;
        }
        Width::None
    }

    /// # Safety
    ///
    /// Caller must check [`applicable`] (AVX2 present, 32-bit-indexable
    /// table and block) and pass `rows.len() == LANES * nf`,
    /// `out.len() == LANES`, `nf >= 1`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn walk_block(t: &NodeTable, rows: &[f64], nf: usize, out: &mut [u32]) {
        debug_assert_eq!(rows.len(), LANES * nf);
        debug_assert_eq!(out.len(), LANES);
        let feat = t.feat.as_ptr() as *const i32;
        let thr = t.thr.as_ptr();
        let pair = t.pair.as_ptr() as *const i64;
        let rp = rows.as_ptr();
        let low16 = _mm_set1_epi32(0xFFFF);
        // Lane order 0,2,4,6 picks the low 32 bits of each 64-bit lane.
        let pick_low = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
        let base: [__m128i; GROUPS] = std::array::from_fn(|g| {
            _mm_setr_epi32(
                ((4 * g) * nf) as i32,
                ((4 * g + 1) * nf) as i32,
                ((4 * g + 2) * nf) as i32,
                ((4 * g + 3) * nf) as i32,
            )
        });
        let mut idx = [_mm_setzero_si128(); GROUPS];
        for _ in 0..=t.depth {
            let mut settled = true;
            for g in 0..GROUPS {
                let i = idx[g];
                let f = _mm_and_si128(_mm_i32gather_epi32::<2>(feat, i), low16);
                let x = _mm256_i32gather_pd::<8>(rp, _mm_add_epi32(base[g], f));
                let th = _mm256_i32gather_pd::<8>(thr, i);
                let go_left = _mm256_cmp_pd::<_CMP_LT_OQ>(x, th);
                let pr = _mm256_i32gather_epi64::<8>(pair, i);
                let sel = _mm256_blendv_epi8(
                    _mm256_srli_epi64::<32>(pr),
                    pr,
                    _mm256_castpd_si256(go_left),
                );
                let next = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(sel, pick_low));
                settled &= _mm_movemask_epi8(_mm_cmpeq_epi32(next, i)) == 0xFFFF;
                idx[g] = next;
            }
            if settled {
                break;
            }
        }
        for (g, &v) in idx.iter().enumerate() {
            _mm_storeu_si128(out.as_mut_ptr().add(4 * g) as *mut __m128i, v);
        }
        debug_assert!(out.iter().all(|&i| t.is_leaf(i as usize)));
    }

    /// The same walk with 8-lane zmm gathers: one gather per column per
    /// 8 rows, the compare producing a k-mask that selects the packed
    /// child halves via a masked shift. Same `_CMP_LT_OQ` comparator,
    /// same results.
    ///
    /// # Safety
    ///
    /// As [`walk_block`], but requires AVX-512 F + VL.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) unsafe fn walk_block_512(t: &NodeTable, rows: &[f64], nf: usize, out: &mut [u32]) {
        const G: usize = LANES / 8;
        const _: () = assert!(LANES.is_multiple_of(8));
        debug_assert_eq!(rows.len(), LANES * nf);
        debug_assert_eq!(out.len(), LANES);
        let feat = t.feat.as_ptr() as *const i32;
        let thr = t.thr.as_ptr();
        let pair = t.pair.as_ptr() as *const i64;
        let rp = rows.as_ptr();
        let low16 = _mm256_set1_epi32(0xFFFF);
        let base: [__m256i; G] = std::array::from_fn(|g| {
            let mut b = [0i32; 8];
            for (j, slot) in b.iter_mut().enumerate() {
                *slot = ((8 * g + j) * nf) as i32;
            }
            _mm256_loadu_si256(b.as_ptr() as *const __m256i)
        });
        let mut idx = [_mm256_setzero_si256(); G];
        for _ in 0..=t.depth {
            let mut settled = true;
            for g in 0..G {
                let i = idx[g];
                let f = _mm256_and_si256(_mm256_i32gather_epi32::<2>(feat, i), low16);
                let x = _mm512_i32gather_pd::<8>(_mm256_add_epi32(base[g], f), rp);
                let th = _mm512_i32gather_pd::<8>(i, thr);
                let go_left = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(x, th);
                let pr = _mm512_i32gather_epi64::<8>(i, pair);
                // Lanes going right take the pair's high half.
                let sel = _mm512_mask_srli_epi64::<32>(pr, !go_left, pr);
                let next = _mm512_cvtepi64_epi32(sel);
                settled &= _mm256_cmpeq_epi32_mask(next, i) == 0xFF;
                idx[g] = next;
            }
            if settled {
                break;
            }
        }
        for (g, &v) in idx.iter().enumerate() {
            _mm256_storeu_si256(out.as_mut_ptr().add(8 * g) as *mut __m256i, v);
        }
        debug_assert!(out.iter().all(|&i| t.is_leaf(i as usize)));
    }

    /// The register-resident walk for tables that fit [`InRegTable`]:
    /// the `thr`/`pair`/`feat` columns are loaded into twenty zmm
    /// registers **once per block**, and each level resolves them with
    /// `vpermi2pd`/`vpermi2q`/`vpermi2d` two-table permutes — a blend
    /// cascade on node-index bits 4–5 extends the 16-entry (f64/u64) and
    /// 32-entry (u32) permute reach to all 64 padded entries. The only
    /// remaining hardware gather per level is the per-row feature load,
    /// which is data-dependent on the request batch and cannot live in
    /// registers. Same `_CMP_LT_OQ` comparator, same results as the
    /// portable walk.
    ///
    /// # Safety
    ///
    /// As [`walk_block`], but requires AVX-512 F + VL, and `reg` must be
    /// the [`InRegTable`] built from `t`.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) unsafe fn walk_block_inreg(
        t: &NodeTable,
        reg: &InRegTable,
        rows: &[f64],
        nf: usize,
        out: &mut [u32],
    ) {
        const G: usize = LANES / 8;
        const _: () = assert!(LANES.is_multiple_of(8));
        debug_assert_eq!(rows.len(), LANES * nf);
        debug_assert_eq!(out.len(), LANES);
        let rp = rows.as_ptr();
        // The whole node table, register-resident for the block.
        let th_tab: [__m512d; 8] = std::array::from_fn(|j| _mm512_loadu_pd(&reg.thr[8 * j]));
        let pr_tab: [__m512i; 8] =
            std::array::from_fn(|j| _mm512_loadu_epi64(reg.pair.as_ptr().add(8 * j) as *const i64));
        let ft_tab: [__m512i; 4] =
            std::array::from_fn(
                |j| _mm512_loadu_epi32(reg.feat.as_ptr().add(16 * j) as *const i32),
            );
        let bit4_64 = _mm512_set1_epi64(16);
        let bit5_64 = _mm512_set1_epi64(32);
        let bit5_32 = _mm512_set1_epi32(32);
        let base: [__m256i; G] = std::array::from_fn(|g| {
            let mut b = [0i32; 8];
            for (j, slot) in b.iter_mut().enumerate() {
                *slot = ((8 * g + j) * nf) as i32;
            }
            _mm256_loadu_si256(b.as_ptr() as *const __m256i)
        });
        let mut idx = [_mm256_setzero_si256(); G];
        for _ in 0..=t.depth {
            let mut settled = true;
            for g in 0..G {
                let i = idx[g];
                // feat[i]: two 32-entry vpermi2d halves, bit 5 selects.
                let idz = _mm512_zextsi256_si512(i);
                let f_lo = _mm512_permutex2var_epi32(ft_tab[0], idz, ft_tab[1]);
                let f_hi = _mm512_permutex2var_epi32(ft_tab[2], idz, ft_tab[3]);
                let b5_32 = _mm512_test_epi32_mask(idz, bit5_32);
                let f = _mm512_castsi512_si256(_mm512_mask_blend_epi32(b5_32, f_lo, f_hi));
                let x = _mm512_i32gather_pd::<8>(_mm256_add_epi32(base[g], f), rp);
                // thr[i] / pair[i]: four 16-entry vpermi2 quarters each,
                // bits 4 then 5 select through the cascade.
                let i64s = _mm512_cvtepu32_epi64(i);
                let b4 = _mm512_test_epi64_mask(i64s, bit4_64);
                let b5 = _mm512_test_epi64_mask(i64s, bit5_64);
                let th = _mm512_mask_blend_pd(
                    b5,
                    _mm512_mask_blend_pd(
                        b4,
                        _mm512_permutex2var_pd(th_tab[0], i64s, th_tab[1]),
                        _mm512_permutex2var_pd(th_tab[2], i64s, th_tab[3]),
                    ),
                    _mm512_mask_blend_pd(
                        b4,
                        _mm512_permutex2var_pd(th_tab[4], i64s, th_tab[5]),
                        _mm512_permutex2var_pd(th_tab[6], i64s, th_tab[7]),
                    ),
                );
                let pr = _mm512_mask_blend_epi64(
                    b5,
                    _mm512_mask_blend_epi64(
                        b4,
                        _mm512_permutex2var_epi64(pr_tab[0], i64s, pr_tab[1]),
                        _mm512_permutex2var_epi64(pr_tab[2], i64s, pr_tab[3]),
                    ),
                    _mm512_mask_blend_epi64(
                        b4,
                        _mm512_permutex2var_epi64(pr_tab[4], i64s, pr_tab[5]),
                        _mm512_permutex2var_epi64(pr_tab[6], i64s, pr_tab[7]),
                    ),
                );
                let go_left = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(x, th);
                // Lanes going right take the pair's high half.
                let sel = _mm512_mask_srli_epi64::<32>(pr, !go_left, pr);
                let next = _mm512_cvtepi64_epi32(sel);
                settled &= _mm256_cmpeq_epi32_mask(next, i) == 0xFF;
                idx[g] = next;
            }
            if settled {
                break;
            }
        }
        for (g, &v) in idx.iter().enumerate() {
            _mm256_storeu_si256(out.as_mut_ptr().add(8 * g) as *mut __m256i, v);
        }
        debug_assert!(out.iter().all(|&i| t.is_leaf(i as usize)));
    }
}

/// Walk one row to its leaf's node id — the scalar path for block tails
/// and single-request serving. Same comparator, same NaN routing.
#[inline]
pub(crate) fn walk_one(t: &NodeTable, x: &[f64]) -> u32 {
    let mut idx = 0u32;
    loop {
        let i = idx as usize;
        if t.left[i] == idx {
            return idx;
        }
        idx = if x[t.feat[i] as usize] < t.thr[i] {
            t.left[i]
        } else {
            t.right[i]
        };
    }
}

/// Walk a row-major block (`rows.len() == out.len() * nf`) to leaf node
/// ids: full [`LANES`]-row blocks through the lane walk, the tail through
/// the scalar walk. Per row the node id is identical to [`walk_one`]'s,
/// and its answer to [`DecisionTree::predict`].
pub(crate) fn walk_leaves(t: &NodeTable, rows: &[f64], nf: usize, out: &mut [u32]) {
    let n = out.len();
    debug_assert_eq!(rows.len(), n * nf);
    let blocks = n / LANES;
    #[cfg(target_arch = "x86_64")]
    let width = gather::applicable(t, nf);
    for b in 0..blocks {
        let block_in = &rows[b * LANES * nf..(b + 1) * LANES * nf];
        let block_out = &mut out[b * LANES..(b + 1) * LANES];
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: applicable() verified the ISA features and 32-bit
            // indexability; the slices are exactly one LANES-row block, and
            // `nf >= 1` because every table comes from a tree that passed
            // `DecisionTree::validate`, which rejects zero-feature trees.
            match width {
                gather::Width::InReg512 => {
                    let reg = t.inreg.as_ref().expect("InReg512 dispatch without table");
                    unsafe { gather::walk_block_inreg(t, reg, block_in, nf, block_out) };
                    continue;
                }
                gather::Width::Avx512 => {
                    unsafe { gather::walk_block_512(t, block_in, nf, block_out) };
                    continue;
                }
                gather::Width::Avx2 => {
                    unsafe { gather::walk_block(t, block_in, nf, block_out) };
                    continue;
                }
                gather::Width::None => {}
            }
        }
        walk_block::<LANES>(t, block_in, nf, block_out);
    }
    for r in blocks * LANES..n {
        out[r] = walk_one(t, &rows[r * nf..(r + 1) * nf]);
    }
}

/// Errors raised when assembling a [`Forest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForestError {
    /// A forest needs at least one tree.
    Empty,
    /// All member trees must share one [`TreeKind`] (same class count for
    /// classifiers, or all regressors).
    MixedKind,
    /// All member trees must take the same feature width.
    MixedFeatures,
    /// Member `tree` failed [`DecisionTree::validate`].
    Invalid { tree: usize, error: TreeError },
}

impl std::fmt::Display for ForestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForestError::Empty => write!(f, "forest needs at least one tree"),
            ForestError::MixedKind => write!(f, "forest trees disagree on kind"),
            ForestError::MixedFeatures => write!(f, "forest trees disagree on feature width"),
            ForestError::Invalid { tree, error } => write!(f, "forest tree {tree}: {error}"),
        }
    }
}

impl std::error::Error for ForestError {}

/// An ensemble evaluator over compiled trees sharing one schema — and the
/// one model shape the serving stack serves: a single tree is served as
/// a one-tree forest (`From<DecisionTree>`).
///
/// Evaluation is **block-major**: for each [`LANES`]-row block, every
/// member tree walks the block before the evaluator advances to the next
/// rows — the feature block is loaded into cache once and amortized
/// across all trees, instead of streaming the whole batch through memory
/// once per tree. [`Forest::predict`] and [`Forest::predict_batch_into`]
/// reduce a row's member answers, in member order, through one reduction,
/// so the two are bit-identical to each other and to evaluating the
/// member trees one by one:
///
/// * **Classification** — majority vote over the member trees' predicted
///   classes; ties break toward the lowest class index.
/// * **Regression** — the mean `(v_0 + v_1 + … + v_{k-1}) / k`, summed in
///   member order from −0.0 (as `Iterator::sum` does), one division at
///   the end — so a 1-tree forest answers its tree's value to the bit.
///
/// Like [`CompiledTree`] it is not `Deserialize`: rebuild it from source
/// trees with [`Forest::from_trees`].
#[derive(Debug, Clone, Serialize)]
pub struct Forest {
    trees: Vec<CompiledTree>,
    kind: TreeKind,
    n_features: usize,
}

/// Serve one tree as a one-tree forest. Panics, in the caller, when the
/// tree fails [`DecisionTree::validate`], with the message of
/// [`CompiledTree::compile`].
impl From<DecisionTree> for Forest {
    fn from(tree: DecisionTree) -> Forest {
        Forest::from_compiled(vec![CompiledTree::compile(&tree)])
            .expect("one tree is a coherent forest")
    }
}

impl Forest {
    /// Compile a forest from source trees. Fails unless every tree passes
    /// [`DecisionTree::validate`] and all agree on kind and feature width.
    pub fn from_trees(trees: &[DecisionTree]) -> Result<Forest, ForestError> {
        for (i, tree) in trees.iter().enumerate() {
            tree.validate()
                .map_err(|error| ForestError::Invalid { tree: i, error })?;
        }
        Forest::from_compiled(trees.iter().map(CompiledTree::compile).collect())
    }

    /// Assemble a forest from already-compiled trees.
    pub fn from_compiled(trees: Vec<CompiledTree>) -> Result<Forest, ForestError> {
        let first = trees.first().ok_or(ForestError::Empty)?;
        let (kind, n_features) = (first.kind(), first.n_features());
        for t in &trees {
            if t.kind() != kind {
                return Err(ForestError::MixedKind);
            }
            if t.n_features() != n_features {
                return Err(ForestError::MixedFeatures);
            }
        }
        Ok(Forest {
            trees,
            kind,
            n_features,
        })
    }

    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    pub fn n_features(&self) -> usize {
        self.n_features
    }

    pub fn kind(&self) -> TreeKind {
        self.kind
    }

    /// Ensemble prediction for one feature vector (see the type docs for
    /// the exact reduction contract).
    pub fn predict(&self, x: &[f64]) -> Prediction {
        let answers: Vec<Prediction> = self.trees.iter().map(|t| t.predict(x)).collect();
        self.reduce(&answers)
    }

    /// Batched ensemble prediction over a row-major block
    /// (`rows.len() == out.len() * n_features`), block-major across the
    /// member trees. Per row the result is bit-identical to
    /// [`Forest::predict`].
    pub fn predict_batch_into(&self, rows: &[f64], out: &mut [Prediction]) {
        let nf = self.n_features;
        assert_eq!(
            rows.len(),
            out.len() * nf,
            "predict_batch_into: {} values is not {} rows of {} features",
            rows.len(),
            out.len(),
            nf
        );
        let k = self.trees.len();
        let mut leaves = [0u32; LANES];
        // Row `l`'s member answers at `l * k .. (l + 1) * k`, in member order.
        let mut answers = vec![Prediction::Class(0); LANES * k];
        for (block, out) in rows.chunks(LANES * nf).zip(out.chunks_mut(LANES)) {
            let leaves = &mut leaves[..out.len()];
            for (m, tree) in self.trees.iter().enumerate() {
                walk_leaves(tree.table(), block, nf, leaves);
                for (l, &leaf) in leaves.iter().enumerate() {
                    answers[l * k + m] = tree.answers()[leaf as usize];
                }
            }
            for (slot, row) in out.iter_mut().zip(answers.chunks_exact(k)) {
                *slot = self.reduce(row);
            }
        }
    }

    /// [`Forest::predict_batch_into`] into a fresh vector.
    pub fn predict_batch(&self, rows: &[f64]) -> Vec<Prediction> {
        assert!(
            rows.len().is_multiple_of(self.n_features),
            "predict_batch: {} values do not divide into {}-feature rows",
            rows.len(),
            self.n_features
        );
        let mut out = vec![Prediction::Class(0); rows.len() / self.n_features];
        self.predict_batch_into(rows, &mut out);
        out
    }

    /// Bit-exact response diff against another forest over a row-major
    /// block: for every row, both forests' predictions are compared the
    /// way the serving path compares answers — class indices by equality,
    /// values by `to_bits` (so `0.0` vs `-0.0` or a NaN payload swap
    /// counts as a mismatch). This is the shadow-serving audit primitive:
    /// a staged candidate is promoted only after mirrored traffic diffs
    /// clean against the live model. Forests of different kinds mismatch
    /// on every row; a different feature width panics (rows can't be
    /// valid for both).
    pub fn diff_batch(&self, other: &Forest, rows: &[f64]) -> BatchDiff {
        assert_eq!(
            self.n_features, other.n_features,
            "diff_batch: models take {} vs {} features",
            self.n_features, other.n_features
        );
        diff_predictions(&self.predict_batch(rows), &other.predict_batch(rows))
    }

    /// The ensemble answer for one row from its `k` member answers, in
    /// member order. The vote counts each answer's class among the `k`
    /// answers, so it needs no class-wide buffer.
    #[inline]
    fn reduce(&self, answers: &[Prediction]) -> Prediction {
        match self.kind {
            TreeKind::Classifier { .. } => {
                let mut best = (0usize, usize::MAX); // (votes, class)
                for answer in answers {
                    let class = answer.class();
                    let votes = answers.iter().filter(|a| a.class() == class).count();
                    if votes > best.0 || (votes == best.0 && class < best.1) {
                        best = (votes, class);
                    }
                }
                Prediction::Class(best.1)
            }
            TreeKind::Regressor => {
                // −0.0 is the additive identity (+0.0 would turn a lone
                // −0.0 member answer into +0.0).
                let sum = answers.iter().fold(-0.0, |sum, a| sum + a.value());
                Prediction::Value(sum / answers.len() as f64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{fit, Criterion, TreeConfig};
    use crate::dataset::Dataset;

    /// One [`LANES`]-row block of `nf`-feature rows in, one leaf node id
    /// per row out.
    type BlockWalk = fn(&NodeTable, &[f64], usize, &mut [u32]);

    /// Every block walk this host can execute on `t`, whichever one
    /// [`walk_leaves`] would pick for it.
    fn block_walks(t: &NodeTable) -> Vec<(&'static str, BlockWalk)> {
        let mut walks: Vec<(&'static str, BlockWalk)> = vec![("portable", walk_block::<LANES>)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 is present, the test tables and blocks are
                // far inside the gathers' i32 index range, and every call
                // passes one LANES-row block with `nf >= 1`.
                walks.push(("avx2", |t, rows, nf, out| unsafe {
                    gather::walk_block(t, rows, nf, out)
                }));
            }
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
                // SAFETY: as above, with AVX-512 F + VL present.
                walks.push(("avx512", |t, rows, nf, out| unsafe {
                    gather::walk_block_512(t, rows, nf, out)
                }));
                if t.inreg.is_some() {
                    // SAFETY: as above, and `reg` is the table built from `t`.
                    walks.push(("inreg", |t, rows, nf, out| {
                        let reg = t.inreg.as_ref().expect("listed only with a table");
                        unsafe { gather::walk_block_inreg(t, reg, rows, nf, out) }
                    }));
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = t;
        walks
    }

    /// Deterministic 64-bit LCG stream (this crate has no `rand`).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Uniform in `[-1, 1)`.
        fn signed_unit(&mut self) -> f64 {
            self.next() as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    /// Row values whose routing the comparator must get exactly right:
    /// NaN (right at every split), infinities, both zeros and subnormals.
    /// All but NaN also appear in training data, so fitted thresholds
    /// land between and on them.
    const SPECIALS: [f64; 8] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 2.0,
    ];

    /// A tree fitted to at most `leaves` leaves over `nf` features and
    /// random labels; a quarter of the training values are specials.
    fn fitted(nf: usize, regress: bool, leaves: usize, rng: &mut Lcg) -> DecisionTree {
        let x: Vec<Vec<f64>> = (0..400)
            .map(|_| {
                (0..nf)
                    .map(|_| match rng.below(4) {
                        0 => SPECIALS[1 + rng.below(SPECIALS.len() - 1)],
                        _ => rng.signed_unit(),
                    })
                    .collect()
            })
            .collect();
        let (ds, criterion) = if regress {
            let y = (0..400).map(|_| rng.signed_unit()).collect();
            (Dataset::regression(x, y), Criterion::Mse)
        } else {
            let y = (0..400).map(|_| rng.below(5)).collect();
            (Dataset::classification(x, y, 5), Criterion::Gini)
        };
        let config = TreeConfig {
            max_leaf_nodes: leaves,
            criterion,
            ..Default::default()
        };
        fit(&ds.unwrap(), &config).unwrap()
    }

    /// `n` row-major rows for `t`: uniform values salted with specials
    /// and with the exact thresholds `t` tests on each feature; every
    /// 11th row is all NaN.
    fn probe_rows(t: &NodeTable, nf: usize, n: usize, rng: &mut Lcg) -> Vec<f64> {
        let mut thresholds = vec![Vec::new(); nf];
        for i in (0..t.len()).filter(|&i| !t.is_leaf(i)) {
            thresholds[t.feat[i] as usize].push(t.thr[i]);
        }
        (0..n * nf)
            .map(|k| {
                let (row, f) = (k / nf, k % nf);
                match rng.below(4) {
                    _ if row % 11 == 0 => f64::NAN,
                    0 => SPECIALS[rng.below(SPECIALS.len())],
                    1 if !thresholds[f].is_empty() => thresholds[f][rng.below(thresholds[f].len())],
                    _ => rng.signed_unit(),
                }
            })
            .collect()
    }

    /// Every block walk the host can execute — portable always; AVX2,
    /// AVX-512 and the in-register walk where the CPU has them — ends at
    /// the same leaf node id as [`walk_one`] on every row, and the answer
    /// of [`walk_one`]'s leaf is what [`DecisionTree::predict`] answers. Trees
    /// run from a single leaf and a stump through both sides of
    /// [`INREG_NODES`] to well past it, as classifiers and regressors at
    /// 1, 6 and 143 features.
    #[test]
    fn every_block_walk_matches_walk_one() {
        let mut rng = Lcg(0x5EED);
        for nf in [1usize, 6, 143] {
            for regress in [false, true] {
                for leaves in [1usize, 2, 9, 20, 32, 33, 100] {
                    let label = format!("nf={nf} regress={regress} leaves={leaves}");
                    let tree = fitted(nf, regress, leaves, &mut rng);
                    let compiled = CompiledTree::compile(&tree);
                    let t = compiled.table();
                    assert_eq!(t.len(), 2 * leaves - 1, "{label}: leaf budget missed");
                    let small = t.len() <= INREG_NODES;
                    assert_eq!(t.inreg.is_some(), small, "{label}: in-register table");
                    assert!(compiled.without_inreg().table().inreg.is_none());

                    let rows = probe_rows(t, nf, 8 * LANES, &mut rng);
                    let want: Vec<u32> = rows.chunks(nf).map(|row| walk_one(t, row)).collect();
                    assert!(want.iter().all(|&id| t.is_leaf(id as usize)), "{label}");
                    let ours: Vec<Prediction> = want
                        .iter()
                        .map(|&id| compiled.answers()[id as usize])
                        .collect();
                    let theirs: Vec<Prediction> =
                        rows.chunks(nf).map(|r| tree.predict(r)).collect();
                    let diff = diff_predictions(&ours, &theirs);
                    assert!(diff.is_clean(), "{label}: walk_one vs tree: {diff:?}");
                    for (walk_name, walk) in block_walks(t) {
                        let mut got = [0u32; LANES];
                        for (b, block) in rows.chunks(LANES * nf).enumerate() {
                            walk(t, block, nf, &mut got);
                            let want_block = &want[b * LANES..(b + 1) * LANES];
                            assert_eq!(got, want_block, "{label}: {walk_name} walk, block {b}");
                        }
                    }
                }
            }
        }
    }
}
