//! Column-major multivector (tall-skinny dense matrix) and GEMV kernels.
//!
//! GMRES stores its Krylov basis `V = [v_1 .. v_m]` as n-long columns of a
//! single allocation (the paper stores them in `Kokkos::View`s behind a
//! Belos `MultiVector`). CGS2 orthogonalization needs exactly two GEMV
//! shapes per pass:
//!
//! - **Transpose** `h = V_j^T w` — inner products of `w` against the first
//!   `j` basis vectors (a reduction per column).
//! - **No-transpose** `w -= V_j h` — subtract the projection.
//!
//! These are the `GEMV (Trans)` / `GEMV (No Trans)` kernels of the paper's
//! Table I and Figures 4, 5, 7, 8.

use mpgmres_scalar::Scalar;

use crate::fma;
use crate::vec_ops::{tree_sum, ReductionOrder};

/// Columns a GEMV-T group reads `w` for at once, one accumulator each.
const GEMV_T_GROUP: usize = 8;

/// Rows of `w` a GEMV-N tile spans (4 KiB of fp64): every column
/// updates the tile while it stays in L1.
const GEMV_N_TILE: usize = 512;

/// Column-major `n x max_cols` storage for Krylov basis vectors.
#[derive(Clone, Debug)]
pub struct MultiVector<S> {
    n: usize,
    max_cols: usize,
    data: Vec<S>,
}

impl<S: Scalar> MultiVector<S> {
    /// Allocate an `n x max_cols` multivector initialized to zero.
    pub fn zeros(n: usize, max_cols: usize) -> Self {
        MultiVector {
            n,
            max_cols,
            data: vec![S::zero(); n * max_cols],
        }
    }

    /// Vector length (rows).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of allocated columns.
    #[inline]
    pub fn max_cols(&self) -> usize {
        self.max_cols
    }

    crate::colmajor::colmajor_views!(S, max_cols);

    /// Borrow two distinct columns, the second mutably.
    ///
    /// # Panics
    /// Panics if `src == dst` or either index is out of range.
    pub fn col_pair_mut(&mut self, src: usize, dst: usize) -> (&[S], &mut [S]) {
        assert!(src != dst, "col_pair_mut: aliasing columns");
        assert!(src < self.max_cols && dst < self.max_cols);
        let n = self.n;
        if src < dst {
            let (a, b) = self.data.split_at_mut(dst * n);
            (&a[src * n..src * n + n], &mut b[..n])
        } else {
            let (a, b) = self.data.split_at_mut(src * n);
            (&b[..n], &mut a[dst * n..dst * n + n])
        }
    }

    /// `h[i] = col_i . w` for `i in 0..ncols` (GEMV Trans).
    ///
    /// The reduction order applies within each column dot product: every
    /// `h[i]` is bit-identical to
    /// [`dot_ordered`](crate::vec_ops::dot_ordered)`(col_i, w, order)`.
    pub fn gemv_t(&self, ncols: usize, w: &[S], h: &mut [S], order: ReductionOrder) {
        assert!(ncols <= self.max_cols, "gemv_t: too many columns");
        assert_eq!(w.len(), self.n, "gemv_t: vector length mismatch");
        assert!(h.len() >= ncols, "gemv_t: output too short");
        fma::run(|| self.gemv_t_range(0, w, &mut h[..ncols], order));
    }

    /// GEMV-T over the column range `first..first + h.len()` — the body
    /// shared with the column-partitioned parallel kernel.
    #[inline(always)]
    pub(crate) fn gemv_t_range(&self, first: usize, w: &[S], h: &mut [S], order: ReductionOrder) {
        gemv_t_cols(&self.data, first, w, h, order, |x| x);
    }

    /// `w -= V[:, ..ncols] * h` (GEMV No-Trans with alpha = -1).
    ///
    /// Every row accumulates the columns in order, one `mul_add` each,
    /// which the parallel backend reproduces per row chunk so results
    /// stay bit-identical across backends.
    pub fn gemv_n_sub(&self, ncols: usize, h: &[S], w: &mut [S]) {
        assert!(ncols <= self.max_cols, "gemv_n_sub: too many columns");
        assert_eq!(w.len(), self.n, "gemv_n_sub: vector length mismatch");
        assert!(h.len() >= ncols, "gemv_n_sub: coefficient vector too short");
        fma::run(|| self.gemv_n_rows(ncols, h, 0, w, false));
    }

    /// `y += V[:, ..ncols] * h` (GEMV No-Trans with alpha = +1), used to
    /// assemble the GMRES update `x += V_m y`.
    pub fn gemv_n_add(&self, ncols: usize, h: &[S], y: &mut [S]) {
        assert!(ncols <= self.max_cols);
        assert_eq!(y.len(), self.n);
        assert!(h.len() >= ncols);
        fma::run(|| self.gemv_n_rows(ncols, h, 0, y, true));
    }

    /// GEMV No-Trans over rows `[start, start + out.len())` — the body
    /// shared with the native basis store and the row-partitioned
    /// parallel kernels.
    #[inline(always)]
    pub(crate) fn gemv_n_rows(
        &self,
        ncols: usize,
        h: &[S],
        start: usize,
        out: &mut [S],
        add: bool,
    ) {
        gemv_n_cols(&self.data, self.n, &h[..ncols], start, out, add, |x| x);
    }

    /// Overwrite column `j` from a slice.
    pub fn set_col(&mut self, j: usize, v: &[S]) {
        assert_eq!(v.len(), self.n);
        self.col_mut(j).copy_from_slice(v);
    }
}

/// `h[i] = widen(col(first + i)) . w` for every `i < h.len()`, where
/// `data` holds `w.len()`-long columns back to back — the GEMV-T body of
/// the native and the compressed basis.
///
/// Runs [`GEMV_T_GROUP`] columns at a time, so `w` streams once per
/// group. Each column keeps its own accumulator and the exact
/// left-to-right `mul_add` chain of `vec_ops::dot_seq` over each
/// reduction block, and its block partials feed the same `tree_sum`, so
/// every `h[i]` is bit-identical to a per-column `dot_ordered`. One
/// partials buffer serves the whole call.
#[inline(always)]
pub(crate) fn gemv_t_cols<L: Copy, S: Scalar>(
    data: &[L],
    first: usize,
    w: &[S],
    h: &mut [S],
    order: ReductionOrder,
    widen: impl Fn(L) -> S + Copy,
) {
    let n = w.len();
    // Sequential order is one block spanning the column: its single
    // partial passes through `tree_sum` unchanged.
    let block = match order {
        ReductionOrder::Sequential => n.max(1),
        ReductionOrder::BlockedTree { block } => block.max(1),
    };
    let nblocks = n.div_ceil(block);
    let mut parts = vec![S::zero(); GEMV_T_GROUP * nblocks];
    let col = |j: usize| &data[j * n..(j + 1) * n];
    for (g, hg) in h.chunks_mut(GEMV_T_GROUP).enumerate() {
        let c = first + g * GEMV_T_GROUP;
        macro_rules! group {
            ($($k:literal)+) => {
                group_partials([$(col(c + $k)),+], w, block, &mut parts, widen)
            };
        }
        match hg.len() {
            1 => group!(0),
            2 => group!(0 1),
            3 => group!(0 1 2),
            4 => group!(0 1 2 3),
            5 => group!(0 1 2 3 4),
            6 => group!(0 1 2 3 4 5),
            7 => group!(0 1 2 3 4 5 6),
            _ => group!(0 1 2 3 4 5 6 7),
        }
        for (k, hk) in hg.iter_mut().enumerate() {
            *hk = tree_sum(&mut parts[k * nblocks..(k + 1) * nblocks]);
        }
    }
}

/// `out[i] ±= sum_j h[j] * widen(col(j)[start + i])`, where `data` holds
/// `n`-long columns back to back — the GEMV No-Trans body of the native
/// and the compressed basis (`+` when `add`).
///
/// Walks [`GEMV_N_TILE`]-row tiles of `out` and applies every column to
/// a tile before moving on, so the tile stays in L1 while the columns
/// stream past; within a tile the columns go four to a pass, so each
/// row is loaded and stored once per four columns. Each row still takes
/// the columns in order, one `mul_add` each, so the result is
/// bit-identical to applying the columns one full pass at a time.
#[inline(always)]
pub(crate) fn gemv_n_cols<L: Copy, S: Scalar>(
    data: &[L],
    n: usize,
    h: &[S],
    start: usize,
    out: &mut [S],
    add: bool,
    widen: impl Fn(L) -> S,
) {
    debug_assert!(start + out.len() <= n);
    let sign = |hj: S| if add { hj } else { -hj };
    for (t, tile) in out.chunks_mut(GEMV_N_TILE).enumerate() {
        let (lo, len) = (start + t * GEMV_N_TILE, tile.len());
        let col = |j: usize| &data[j * n + lo..][..len];
        let quads = h.len() / 4 * 4;
        for (q, hq) in h[..quads].chunks_exact(4).enumerate() {
            let j = 4 * q;
            let (h0, h1, h2, h3) = (sign(hq[0]), sign(hq[1]), sign(hq[2]), sign(hq[3]));
            let (c0, c1, c2, c3) = (col(j), col(j + 1), col(j + 2), col(j + 3));
            for i in 0..len {
                let mut acc = tile[i];
                acc = h0.mul_add(widen(c0[i]), acc);
                acc = h1.mul_add(widen(c1[i]), acc);
                acc = h2.mul_add(widen(c2[i]), acc);
                tile[i] = h3.mul_add(widen(c3[i]), acc);
            }
        }
        for (j, &hj) in h.iter().enumerate().skip(quads) {
            let hj = sign(hj);
            for (wr, &cr) in tile.iter_mut().zip(col(j)) {
                *wr = hj.mul_add(widen(cr), *wr);
            }
        }
    }
}

/// Block partials of `G` columns against `w`: `parts[k * nblocks + b]`
/// is column `k`'s left-to-right `mul_add` chain over block `b`.
#[inline(always)]
fn group_partials<L: Copy, S: Scalar, const G: usize>(
    cols: [&[L]; G],
    w: &[S],
    block: usize,
    parts: &mut [S],
    widen: impl Fn(L) -> S,
) {
    let nblocks = parts.len() / GEMV_T_GROUP;
    for (b, wb) in w.chunks(block).enumerate() {
        let (lo, len) = (b * block, wb.len());
        // Re-cut in place rather than with `cols.map`: the compiler then
        // sees every column slice is `len` long and drops the
        // per-element bounds checks of the loop below.
        let mut cb = cols;
        for c in cb.iter_mut() {
            *c = &c[lo..lo + len];
        }
        let mut acc = [S::zero(); G];
        for i in 0..len {
            let wi = wb[i];
            for k in 0..G {
                acc[k] = widen(cb[k][i]).mul_add(wi, acc[k]);
            }
        }
        for k in 0..G {
            parts[k * nblocks + b] = acc[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec_ops::norm2;

    fn filled(n: usize, cols: usize) -> MultiVector<f64> {
        let mut mv = MultiVector::zeros(n, cols);
        for j in 0..cols {
            for r in 0..n {
                mv.col_mut(j)[r] = (j + 1) as f64 + 0.1 * r as f64;
            }
        }
        mv
    }

    #[test]
    fn col_access_is_disjoint() {
        let mut mv = MultiVector::<f64>::zeros(4, 3);
        mv.col_mut(1)[2] = 5.0;
        assert_eq!(mv.col(0), &[0.0; 4]);
        assert_eq!(mv.col(1)[2], 5.0);
    }

    #[test]
    fn gemv_t_computes_inner_products() {
        let mv = filled(5, 3);
        let w = vec![1.0f64; 5];
        let mut h = vec![0.0f64; 3];
        mv.gemv_t(3, &w, &mut h, ReductionOrder::Sequential);
        for j in 0..3 {
            let expect: f64 = (0..5).map(|r| (j + 1) as f64 + 0.1 * r as f64).sum();
            assert!((h[j] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn gemv_n_sub_then_add_roundtrips() {
        let mv = filled(6, 2);
        let h = [0.5f64, -1.25];
        let orig: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let mut w = orig.clone();
        mv.gemv_n_sub(2, &h, &mut w);
        mv.gemv_n_add(2, &h, &mut w);
        for (a, b) in w.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn projection_removes_component() {
        // One normalized basis vector; after w -= V (V^T w), w . v == 0.
        let n = 8;
        let mut mv = MultiVector::<f64>::zeros(n, 1);
        let inv = 1.0 / (n as f64).sqrt();
        for r in 0..n {
            mv.col_mut(0)[r] = inv;
        }
        let mut w: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 2.0).collect();
        let mut h = vec![0.0f64; 1];
        mv.gemv_t(1, &w, &mut h, ReductionOrder::Sequential);
        mv.gemv_n_sub(1, &h, &mut w);
        let mut h2 = vec![0.0f64; 1];
        mv.gemv_t(1, &w, &mut h2, ReductionOrder::Sequential);
        assert!(h2[0].abs() < 1e-12 * norm2(&w).max(1.0));
    }

    #[test]
    fn col_pair_mut_both_orders() {
        let mut mv = filled(4, 3);
        {
            let (src, dst) = mv.col_pair_mut(0, 2);
            dst.copy_from_slice(src);
        }
        assert_eq!(mv.col(0), mv.col(2));
        {
            let (src, dst) = mv.col_pair_mut(2, 1);
            dst.copy_from_slice(src);
        }
        assert_eq!(mv.col(1), mv.col(2));
    }

    #[test]
    #[should_panic(expected = "aliasing")]
    fn col_pair_mut_rejects_aliasing() {
        let mut mv = MultiVector::<f64>::zeros(4, 3);
        let _ = mv.col_pair_mut(1, 1);
    }

    #[test]
    fn gemv_matches_reference_on_parallel_path() {
        // Large vector: compare the column-major kernel against a naive
        // row-major loop (same check the parallel backend is held to).
        let n = crate::vec_ops::PAR_THRESHOLD + 17;
        let cols = 4;
        let mut mv = MultiVector::<f64>::zeros(n, cols);
        for j in 0..cols {
            for r in 0..n {
                mv.col_mut(j)[r] = ((r * 31 + j * 7) % 13) as f64 - 6.0;
            }
        }
        let w: Vec<f64> = (0..n).map(|r| ((r * 17) % 29) as f64 / 29.0).collect();
        let mut h = vec![0.0f64; cols];
        mv.gemv_t(cols, &w, &mut h, ReductionOrder::Sequential);
        for j in 0..cols {
            let expect: f64 = (0..n).map(|r| mv.col(j)[r] * w[r]).sum();
            assert!((h[j] - expect).abs() < 1e-9 * expect.abs().max(1.0));
        }
        let mut w2 = w.clone();
        mv.gemv_n_sub(cols, &h, &mut w2);
        let mut w_ref = w.clone();
        for j in 0..cols {
            for r in 0..n {
                w_ref[r] -= h[j] * mv.col(j)[r];
            }
        }
        let diff: f64 = w2
            .iter()
            .zip(&w_ref)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-9);
    }
}
