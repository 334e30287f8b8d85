//! Dense row-major `f64` matrix used throughout the neural-network substrate.
//!
//! This is intentionally a small, predictable type (in the spirit of the
//! smoltcp design notes: simplicity over cleverness). All shapes are checked
//! at runtime and violations panic with a descriptive message — shape bugs
//! are programming errors, not recoverable conditions.

use serde::{Deserialize, Serialize};
use std::ops::{Index, IndexMut};

/// The kernels' one multiply-accumulate step. With the `fma` target
/// feature this is a fused multiply-add (one rounding); otherwise a plain
/// mul + add (`mul_add` without hardware FMA falls back to a soft-float
/// libm call, which would be ruinously slow). Every matmul code path —
/// register tile, edge loop, and the transpose-fused kernels — funnels
/// through this helper, so per-element results are identical across paths
/// within any one build, which is what the batched-vs-per-obs bit-parity
/// contract requires.
#[inline(always)]
fn fmadd(acc: f64, a: f64, b: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        acc + a * b
    }
}

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        assert!(r > 0, "Matrix::from_rows: need at least one row");
        let c = rows[0].len();
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Create a matrix by evaluating `f(row, col)` at each position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Stack owned rows (e.g. collected observations) into a matrix.
    ///
    /// # Panics
    /// Panics on an empty slice or ragged rows.
    pub fn from_rows_vec(rows: &[Vec<f64>]) -> Self {
        assert!(
            !rows.is_empty(),
            "Matrix::from_rows_vec: need at least one row"
        );
        let c = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * c);
        for row in rows {
            assert_eq!(row.len(), c, "Matrix::from_rows_vec: ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols: c,
            data,
        }
    }

    /// Copy of rows `lo..hi` as a new matrix (contiguous in row-major
    /// storage, so this is one memcpy).
    pub fn row_block(&self, lo: usize, hi: usize) -> Matrix {
        assert!(lo < hi && hi <= self.rows, "row_block: range out of bounds");
        Matrix {
            rows: hi - lo,
            cols: self.cols,
            data: self.data[lo * self.cols..hi * self.cols].to_vec(),
        }
    }

    /// A 1 x n row vector.
    pub fn row_vector(v: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// A single row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A single row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Register-tile shape of the blocked matmul kernel: `IT × JT`
    /// accumulators live in registers across the whole `k` loop, so the
    /// inner loop is pure FMA/mul-add on registers (one RHS vector load
    /// and `IT` LHS broadcasts per `k`) instead of a load–modify–store per
    /// element. 4×16 gives 8 independent accumulator vectors on AVX-512
    /// (4 on AVX2) — enough to hide the FMA latency chain without
    /// spilling.
    const MATMUL_IT: usize = 4;
    const MATMUL_JT: usize = 16;

    /// Matrix product `self * other`.
    ///
    /// Cache/register-blocked kernel. Element `(i, j)` is always a single
    /// accumulator summed in increasing-`k` order, **independent of the
    /// LHS row count and of which code path (register tile or edge loop)
    /// computes it** — the invariant behind the batched-vs-per-obs
    /// bit-parity guarantees throughout the workspace: a batched forward's
    /// row `i` is bit-identical to the per-obs forward of row `i`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimensions mismatch ({}x{}) * ({}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        const IT: usize = Matrix::MATMUL_IT;
        const JT: usize = Matrix::MATMUL_JT;
        let (rows, cols, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(rows, n);
        let j_full = (n / JT) * JT;
        // Full-width register tiles.
        let mut i0 = 0;
        while i0 < rows {
            let it = IT.min(rows - i0);
            let mut j0 = 0;
            while j0 < j_full {
                let mut acc = [[0.0f64; JT]; IT];
                for k in 0..cols {
                    let b_vec = &other.data[k * n + j0..k * n + j0 + JT];
                    for (t, acc_row) in acc.iter_mut().enumerate().take(it) {
                        let a = self.data[(i0 + t) * cols + k];
                        for (c, &b) in acc_row.iter_mut().zip(b_vec.iter()) {
                            *c = fmadd(*c, a, b);
                        }
                    }
                }
                for (t, acc_row) in acc.iter().enumerate().take(it) {
                    out.data[(i0 + t) * n + j0..(i0 + t) * n + j0 + JT].copy_from_slice(acc_row);
                }
                j0 += JT;
            }
            i0 += it;
        }
        // Edge columns (width < JT): packed once into a zero-padded
        // fixed-width scratch so the inner loop stays the fully-unrolled
        // JT-wide tile (a variable-width slice would fall back to scalar
        // code — ruinous for narrow output layers like 6-wide policy
        // heads). Lanes beyond `jt` compute against zeros and are
        // discarded; per-element accumulation order is unchanged.
        if j_full < n {
            self.matmul_edge(other, j_full, &mut out);
        }
        out
    }

    /// The padded edge-column pass of [`Matrix::matmul`] (kept out of the
    /// main function so the hot tile loop stays small enough for clean
    /// register allocation).
    fn matmul_edge(&self, other: &Matrix, j0: usize, out: &mut Matrix) {
        const IT: usize = Matrix::MATMUL_IT;
        const JT: usize = Matrix::MATMUL_JT;
        let (rows, cols, n) = (self.rows, self.cols, other.cols);
        let jt = n - j0;
        let mut edge = vec![0.0; cols * JT];
        for k in 0..cols {
            edge[k * JT..k * JT + jt].copy_from_slice(&other.data[k * n + j0..k * n + j0 + jt]);
        }
        let mut i0 = 0;
        while i0 < rows {
            let it = IT.min(rows - i0);
            let mut acc = [[0.0f64; JT]; IT];
            for (k, b_vec) in edge.chunks_exact(JT).enumerate() {
                // Fixed-size view so the lane loop fully unrolls.
                let b_arr: &[f64; JT] = b_vec.try_into().expect("chunked to JT");
                for (t, acc_row) in acc.iter_mut().enumerate().take(it) {
                    let a = self.data[(i0 + t) * cols + k];
                    for (c, &b) in acc_row.iter_mut().zip(b_arr.iter()) {
                        *c = fmadd(*c, a, b);
                    }
                }
            }
            for (t, acc_row) in acc.iter().enumerate().take(it) {
                out.data[(i0 + t) * n + j0..(i0 + t) * n + j0 + jt].copy_from_slice(&acc_row[..jt]);
            }
            i0 += it;
        }
    }

    /// `act((self * other) + bias)`: the blocked product, one bias pass
    /// over its rows, then one [`Activation::apply_in_place`] pass over
    /// the whole output (so `tanh` runs eight lanes at a time). Arithmetic
    /// per element is exactly `act(Σ_k a·b + bias_j)`, bit-identical to
    /// the unfused sequence.
    ///
    /// [`Activation::apply_in_place`]: crate::layer::Activation::apply_in_place
    pub fn matmul_bias_act(
        &self,
        other: &Matrix,
        bias: &[f64],
        act: crate::layer::Activation,
    ) -> Matrix {
        assert_eq!(
            other.cols,
            bias.len(),
            "matmul_bias_act: bias width mismatch"
        );
        let mut out = self.matmul(other);
        out.add_row_broadcast(bias);
        act.apply_in_place(&mut out.data);
        out
    }

    /// The pre-refactor `ikj` kernel, kept verbatim as the parity oracle
    /// for the blocked kernel — and as the per-obs baseline the
    /// `BENCH_inference` report measures the batched engine against.
    #[doc(hidden)]
    pub fn matmul_reference(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimensions mismatch ({}x{}) * ({}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = other.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self * otherᵀ` without materializing the transpose: element
    /// `(i, j)` is the dot product of two contiguous rows (the natural
    /// "transpose-B micro-kernel" — the RHS is *already* stored
    /// transposed). Accumulation is a single accumulator in increasing-`k`
    /// order, matching [`Matrix::matmul`]'s per-element order.
    pub fn matmul_tb(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_tb: inner dimensions mismatch ({}x{}) * ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (o, j) in out_row.iter_mut().zip(0..other.rows) {
                let b_row = other.row(j);
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc = fmadd(acc, a, b);
                }
                *o = acc;
            }
        }
        out
    }

    /// `selfᵀ * other` without materializing the transpose (`k`-outer over
    /// the shared row index, contiguous in both operands and the output).
    /// Element `(i, j) = Σ_k self[k][i]·other[k][j]` accumulates in
    /// increasing-`k` order with a **separate multiply and add** (never
    /// fused): `k` here is the batch dimension, and a per-obs backward
    /// necessarily rounds each observation's product before adding it into
    /// the accumulated gradient — fusing would differ by one rounding and
    /// break the batched-vs-per-obs gradient bit-parity.
    pub fn matmul_ta(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_ta: inner dimensions mismatch ({}x{})ᵀ * ({}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = other.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place elementwise map.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// `self += other` elementwise.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Add a row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&mut self, bias: &[f64]) {
        assert_eq!(self.cols, bias.len(), "add_row_broadcast: width mismatch");
        for r in 0..self.rows {
            for (x, &b) in self.row_mut(r).iter_mut().zip(bias.iter()) {
                *x += b;
            }
        }
    }

    /// Sum over rows, producing one value per column.
    pub fn column_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (s, &x) in sums.iter_mut().zip(self.row(r).iter()) {
                *s += x;
            }
        }
        sums
    }

    /// Horizontally concatenate two matrices with the same number of rows.
    pub fn hconcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hconcat: row count mismatch");
        let cols = self.cols + other.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Split off the last `right_cols` columns; returns `(left, right)`.
    pub fn hsplit(&self, right_cols: usize) -> (Matrix, Matrix) {
        assert!(
            right_cols <= self.cols,
            "hsplit: too many columns requested"
        );
        let left_cols = self.cols - right_cols;
        let mut left = Matrix::zeros(self.rows, left_cols);
        let mut right = Matrix::zeros(self.rows, right_cols);
        for r in 0..self.rows {
            left.row_mut(r).copy_from_slice(&self.row(r)[..left_cols]);
            right.row_mut(r).copy_from_slice(&self.row(r)[left_cols..]);
        }
        (left, right)
    }

    /// Fill with zeros (used to reset gradient accumulators).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Maximum absolute element (0.0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// True if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    #[should_panic(expected = "inner dimensions mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// The tiled kernel must agree bitwise with a plain per-element dot —
    /// and each batch row must equal the same row multiplied on its own
    /// (the parity invariant the batched inference engine relies on).
    #[test]
    fn matmul_tile_boundaries_and_row_parity() {
        let mut seed = 42u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for rows in [1usize, 7, 8, 9, 17] {
            let a = Matrix::from_fn(rows, 13, |_, _| next());
            let b = Matrix::from_fn(13, 11, |_, _| next());
            let c = a.matmul(&b);
            // Reference: single-accumulator dot in increasing-k order.
            for i in 0..rows {
                for j in 0..11 {
                    let mut acc = 0.0;
                    for k in 0..13 {
                        acc = fmadd(acc, a[(i, k)], b[(k, j)]);
                    }
                    assert_eq!(c[(i, j)], acc, "tiled kernel diverges at ({i},{j})");
                }
                // Row-parity: multiplying row i alone gives bitwise the same row.
                let solo = Matrix::row_vector(a.row(i)).matmul(&b);
                assert_eq!(solo.row(0), c.row(i), "row {i} not batch-invariant");
            }
        }
    }

    /// The blocked kernel against the retained pre-refactor `ikj` oracle.
    /// Without hardware FMA the two are bit-identical (same per-element
    /// order); with FMA contraction they differ by at most one rounding
    /// per accumulation step.
    #[test]
    fn matmul_matches_reference_kernel() {
        let a = Matrix::from_fn(9, 13, |r, c| ((r * 13 + c) as f64 * 0.11).sin());
        let b = Matrix::from_fn(13, 21, |r, c| ((r * 21 + c) as f64 * 0.07).cos());
        let fast = a.matmul(&b);
        let oracle = a.matmul_reference(&b);
        for (x, y) in fast.data().iter().zip(oracle.data().iter()) {
            if cfg!(target_feature = "fma") {
                assert!((x - y).abs() <= 1e-12 * y.abs().max(1.0), "{x} vs {y}");
            } else {
                assert_eq!(x, y);
            }
        }
    }

    /// Output widths 1 (a critic head), 6 (a teacher head), 19 and 33 (a
    /// ragged lane tail): the slice activation pass equals the scalar
    /// `apply` on every element.
    #[test]
    fn matmul_bias_act_matches_unfused_bitwise() {
        use crate::layer::Activation;
        let a = Matrix::from_fn(11, 7, |r, c| ((r * 7 + c) as f64 * 0.19).sin());
        for n in [1, 6, 19, 33] {
            let w = Matrix::from_fn(7, n, |r, c| ((r * n + c) as f64 * 0.03).cos());
            let bias: Vec<f64> = (0..n).map(|j| (j as f64 * 0.5).sin()).collect();
            for act in [Activation::Tanh, Activation::Relu, Activation::Linear] {
                let fused = a.matmul_bias_act(&w, &bias, act);
                let mut unfused = a.matmul(&w);
                unfused.add_row_broadcast(&bias);
                unfused.map_inplace(|x| act.apply(x));
                assert_eq!(
                    fused, unfused,
                    "fused epilogue diverges for {act:?} at width {n}"
                );
            }
        }
    }

    #[test]
    fn matmul_tb_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, -1.0], &[2.0, -0.5, 0.25]]);
        assert_eq!(a.matmul_tb(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_ta_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, -1.0, 2.0], &[0.5, 0.25, -2.0], &[3.0, 1.0, 0.0]]);
        assert_eq!(a.matmul_ta(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn from_rows_vec_matches_from_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert_eq!(
            Matrix::from_rows_vec(&rows),
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])
        );
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn hconcat_hsplit_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
        let cat = a.hconcat(&b);
        assert_eq!(cat.shape(), (2, 3));
        let (left, right) = cat.hsplit(1);
        assert_eq!(left, a);
        assert_eq!(right, b);
    }

    #[test]
    fn broadcast_and_sums() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(m.column_sums(), vec![3.0, 6.0]);
    }

    #[test]
    fn map_is_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        let b = a.map(f64::abs);
        assert_eq!(b, Matrix::from_rows(&[&[1.0, 2.0]]));
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, -4.0]]);
        assert_eq!(a.max_abs(), 4.0);
        assert!(a.is_finite());
        let b = Matrix::from_rows(&[&[f64::NAN]]);
        assert!(!b.is_finite());
    }

    #[test]
    fn serde_roundtrip() {
        let a = Matrix::from_rows(&[&[1.5, 2.5], &[3.5, 4.5]]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
