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
/// libm call, which would be ruinously slow). [`Matrix::matmul`]'s tile
/// and [`Matrix::matmul_tb`] both funnel through this helper, so
/// per-element results are identical across panel widths, row blocks and
/// kernels within any one build, which is what the batched-vs-per-obs
/// bit-parity contract requires.
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

    /// Width of the kernel's full column panels: 16 lanes are four 256-bit
    /// vectors, so a 4-row block keeps 16 independent accumulator vectors
    /// in registers, enough to hide the FMA latency chain.
    const PANEL: usize = 16;

    /// Matrix product `self * other`.
    ///
    /// Register-blocked panel kernel. The columns of `other` are cut into
    /// 16-wide panels, read in place, and one edge panel for the last
    /// `n mod 16` columns, packed into the narrowest zero-padded panel of
    /// width 1, 2, 4, 8 or 16 that holds it, so a 1-wide critic head runs
    /// one lane and a 6-wide policy head eight. Each panel is swept by
    /// 4-row blocks, then one row at a time, and a block's accumulators
    /// stay in registers across the whole `k` loop.
    ///
    /// Element `(i, j)` is always a single accumulator summed in
    /// increasing-`k` order, **independent of the LHS row count, of the
    /// block that computes its row and of its panel's width**: the
    /// invariant behind the batched-vs-per-obs bit-parity guarantees
    /// throughout the workspace. A batched forward's row `i` is
    /// bit-identical to the per-obs forward of row `i`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimensions mismatch ({}x{}) * ({}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        const W: usize = Matrix::PANEL;
        let n = other.cols;
        let mut out = Matrix::zeros(self.rows, n);
        let j_edge = n - n % W;
        for j0 in (0..j_edge).step_by(W) {
            self.panel::<W>(&other.data[j0..], n, j0, W, &mut out);
        }
        match n - j_edge {
            0 => {}
            1 => self.edge_panel::<1>(other, j_edge, &mut out),
            2 => self.edge_panel::<2>(other, j_edge, &mut out),
            3..=4 => self.edge_panel::<4>(other, j_edge, &mut out),
            5..=8 => self.edge_panel::<8>(other, j_edge, &mut out),
            _ => self.edge_panel::<W>(other, j_edge, &mut out),
        }
        out
    }

    /// Columns `j0..` of `other` (at most `W`) packed into a zero-padded
    /// `W`-wide panel, then run through [`Matrix::panel`]. The copy is a
    /// lane loop: a `copy_from_slice` per `k` would be a `memcpy` call per
    /// panel row on every one-row query.
    fn edge_panel<const W: usize>(&self, other: &Matrix, j0: usize, out: &mut Matrix) {
        let (n, w) = (other.cols, other.cols - j0);
        let mut packed = vec![0.0; self.cols * W];
        for (k, dst) in packed.chunks_exact_mut(W).enumerate() {
            let src = &other.data[k * n + j0..(k + 1) * n];
            for (c, d) in dst.iter_mut().enumerate() {
                if c < w {
                    *d = src[c];
                }
            }
        }
        self.panel::<W>(&packed, W, j0, w, out);
    }

    /// Columns `j0..j0 + w` of `self * other`, where row `k` of the
    /// `W`-wide panel of `other` is `b[k * ldb..][..W]`: 4-row blocks, then
    /// the remaining rows one at a time. Lanes past `w` are computed and
    /// dropped. Inlined so that a full panel's `w` is the constant `W`:
    /// behind a run-time width the write-back keeps the accumulators in
    /// memory, and full panels ran about 1.2× slower.
    #[inline(always)]
    fn panel<const W: usize>(&self, b: &[f64], ldb: usize, j0: usize, w: usize, out: &mut Matrix) {
        let mut i0 = 0;
        while i0 + 4 <= self.rows {
            self.block::<4, W>(i0, b, ldb, j0, w, out);
            i0 += 4;
        }
        for i in i0..self.rows {
            self.block::<1, W>(i, b, ldb, j0, w, out);
        }
    }

    /// The kernel's one tile: rows `i0..i0 + R` against a `W`-wide panel,
    /// `R × W` accumulators each updated once per `k` by [`fmadd`].
    #[inline(always)]
    fn block<const R: usize, const W: usize>(
        &self,
        i0: usize,
        b: &[f64],
        ldb: usize,
        j0: usize,
        w: usize,
        out: &mut Matrix,
    ) {
        let cols = self.cols;
        let a = &self.data[i0 * cols..(i0 + R) * cols];
        let mut acc = [[0.0f64; W]; R];
        for k in 0..cols {
            let b_row: &[f64; W] = b[k * ldb..][..W].try_into().expect("a panel row is W wide");
            for (t, acc_row) in acc.iter_mut().enumerate() {
                let x = a[t * cols + k];
                for (c, &y) in acc_row.iter_mut().zip(b_row) {
                    *c = fmadd(*c, x, y);
                }
            }
        }
        let n = out.cols;
        for (t, acc_row) in acc.iter().enumerate() {
            out.data[(i0 + t) * n + j0..][..w].copy_from_slice(&acc_row[..w]);
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

    /// The panel kernel must agree bitwise with a plain per-element dot,
    /// and each batch row must equal the same row multiplied on its own
    /// (the parity invariant the batched inference engine relies on), at
    /// every edge-panel width (1, 2, 4, 8 and 16 lanes, full and padded),
    /// with and without full panels beside the edge, and for row counts
    /// that end on a 4-row block and on each length of one-row tail.
    #[test]
    fn matmul_tile_boundaries_and_row_parity() {
        let mut seed = 42u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for n in [1usize, 2, 3, 4, 5, 6, 8, 9, 15, 16, 17, 22, 32, 33] {
            let b = Matrix::from_fn(13, n, |_, _| next());
            for rows in (1usize..=9).chain([17]) {
                let a = Matrix::from_fn(rows, 13, |_, _| next());
                let c = a.matmul(&b);
                for i in 0..rows {
                    for j in 0..n {
                        // Reference: single-accumulator dot in increasing-k order.
                        let mut acc = 0.0;
                        for k in 0..13 {
                            acc = fmadd(acc, a[(i, k)], b[(k, j)]);
                        }
                        assert_eq!(
                            c[(i, j)].to_bits(),
                            acc.to_bits(),
                            "{rows}x13 * 13x{n} diverges at ({i},{j})"
                        );
                    }
                    let solo = Matrix::row_vector(a.row(i)).matmul(&b);
                    assert_eq!(
                        solo.row(0),
                        c.row(i),
                        "{rows}x13 * 13x{n}: row {i} not batch-invariant"
                    );
                }
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
