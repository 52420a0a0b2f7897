//! Compressed Sparse Row matrices and SpMV.
//!
//! Storage follows the paper's §V-D model exactly: values in the working
//! precision, column indices as 4-byte integers (`u32`), and a row-pointer
//! array — so the traffic the performance model charges is the traffic
//! this data structure actually generates.

use std::sync::atomic::{AtomicU64, Ordering};

use mpgmres_scalar::{cast, Scalar};

use crate::fma;

static NEXT_MATRIX_ID: AtomicU64 = AtomicU64::new(1);

/// Sparse matrix in CSR format.
#[derive(Debug)]
pub struct Csr<S> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<S>,
    /// Unique identity for memoizing per-matrix derived data (cache-model
    /// statistics). Cloning and precision conversion produce fresh ids.
    id: u64,
}

impl<S: Clone> Clone for Csr<S> {
    fn clone(&self) -> Self {
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            vals: self.vals.clone(),
            id: NEXT_MATRIX_ID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl<S: Scalar> Csr<S> {
    /// Build from raw CSR arrays, validating the invariants.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent (wrong lengths, unsorted row
    /// pointers, column indices out of range).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<S>,
    ) -> Self {
        assert_eq!(
            row_ptr.len(),
            nrows + 1,
            "row_ptr must have nrows+1 entries"
        );
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        assert_eq!(
            *row_ptr.last().unwrap(),
            col_idx.len(),
            "row_ptr must end at nnz"
        );
        assert_eq!(col_idx.len(), vals.len(), "col_idx and vals must match");
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr must be non-decreasing"
        );
        assert!(
            col_idx.iter().all(|&c| (c as usize) < ncols),
            "column index out of range"
        );
        Csr {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
            id: NEXT_MATRIX_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Csr::from_raw(
            n,
            n,
            (0..=n).collect(),
            (0..n as u32).collect(),
            vec![S::one(); n],
        )
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Unique matrix identity (changes on clone/convert).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Row pointer array.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Value array.
    #[inline]
    pub fn vals(&self) -> &[S] {
        &self.vals
    }

    /// The `(col, val)` pairs of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, S)> + '_ {
        let (vals, cols) = self.row_slices(r);
        cols.iter().map(|&c| c as usize).zip(vals.iter().copied())
    }

    /// Row `r`'s stored values and column indices, two slices of equal
    /// length. Every per-nonzero kernel loop walks them zipped, so the
    /// bounds are checked once per row instead of once per entry; only
    /// the `x[col]` read stays checked.
    #[inline(always)]
    pub(crate) fn row_slices(&self, r: usize) -> (&[S], &[u32]) {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.vals[lo..hi], &self.col_idx[lo..hi])
    }

    /// One row of `y = A x`: strict left-to-right fused multiply-add.
    ///
    /// This is THE per-row SpMV kernel — the sequential [`Csr::spmv`]
    /// and the row-partitioned parallel kernel (`crate::par::spmv`)
    /// both call it, which is what makes their results bit-identical by
    /// construction rather than merely by test.
    #[inline(always)]
    pub(crate) fn spmv_row(&self, r: usize, x: &[S]) -> S {
        let (vals, cols) = self.row_slices(r);
        let mut acc = S::zero();
        for (&v, &c) in vals.iter().zip(cols) {
            acc = v.mul_add(x[c as usize], acc);
        }
        acc
    }

    /// One row of `y = b - A x` (same sharing contract as
    /// [`Csr::spmv_row`]).
    #[inline(always)]
    pub(crate) fn residual_row(&self, r: usize, b_r: S, x: &[S]) -> S {
        let (vals, cols) = self.row_slices(r);
        let mut acc = b_r;
        for (&v, &c) in vals.iter().zip(cols) {
            acc = (-v).mul_add(x[c as usize], acc);
        }
        acc
    }

    /// Rows `[start, start + y.len())` of `y = A x`: the row loop of
    /// [`Csr::spmv`] and of each worker of the row-partitioned parallel
    /// kernels.
    #[inline(always)]
    pub(crate) fn spmv_rows(&self, start: usize, x: &[S], y: &mut [S]) {
        for (i, yr) in y.iter_mut().enumerate() {
            *yr = self.spmv_row(start + i, x);
        }
    }

    /// Rows `[start, start + y.len())` of `y = b - A x` (`b` is the
    /// whole right-hand side).
    #[inline(always)]
    pub(crate) fn residual_rows(&self, start: usize, b: &[S], x: &[S], y: &mut [S]) {
        for (i, yr) in y.iter_mut().enumerate() {
            let r = start + i;
            *yr = self.residual_row(r, b[r], x);
        }
    }

    /// `y = A x`.
    pub fn spmv(&self, x: &[S], y: &mut [S]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv: y length mismatch");
        fma::run(|| self.spmv_rows(0, x, y));
    }

    /// `y = b - A x` (fused residual kernel).
    pub fn residual(&self, b: &[S], x: &[S], y: &mut [S]) {
        assert_eq!(b.len(), self.nrows);
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        fma::run(|| self.residual_rows(0, b, x, y));
    }

    /// Convert every value to another precision (one rounding per entry).
    ///
    /// This is the fp64 -> fp32 matrix copy GMRES-IR keeps in memory
    /// (paper §III-B: "we maintain both double and single precision copies
    /// of the matrix A").
    pub fn convert<T: Scalar>(&self) -> Csr<T> {
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            vals: self.vals.iter().map(|&v| cast::<S, T>(v)).collect(),
            id: NEXT_MATRIX_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Transpose (exact, reorders entries).
    pub fn transpose(&self) -> Csr<S> {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut vals = vec![S::zero(); self.nnz()];
        let mut cursor = counts;
        for r in 0..self.nrows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                let dst = cursor[c];
                cursor[c] += 1;
                col_idx[dst] = r as u32;
                vals[dst] = self.vals[k];
            }
        }
        Csr::from_raw(self.ncols, self.nrows, row_ptr, col_idx, vals)
    }

    /// Extract the dense diagonal block `[start, start+size) x [start, start+size)`
    /// in column-major order (used by block Jacobi).
    pub fn diag_block(&self, start: usize, size: usize) -> Vec<S> {
        assert!(start + size <= self.nrows.min(self.ncols));
        let mut block = vec![S::zero(); size * size];
        for r in 0..size {
            for (c, v) in self.row(start + r) {
                if c >= start && c < start + size {
                    block[(c - start) * size + r] = v;
                }
            }
        }
        block
    }

    /// Symmetric permutation `PAP^T`: row and column `i` of the result are
    /// row and column `perm[i]` of `self` (used with RCM orderings).
    pub fn permute_sym(&self, perm: &[usize]) -> Csr<S> {
        assert_eq!(perm.len(), self.nrows);
        assert_eq!(
            self.nrows, self.ncols,
            "permute_sym requires a square matrix"
        );
        let n = self.nrows;
        let mut inv = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        let mut row_ptr = vec![0usize; n + 1];
        for new_r in 0..n {
            let old_r = perm[new_r];
            row_ptr[new_r + 1] = row_ptr[new_r] + (self.row_ptr[old_r + 1] - self.row_ptr[old_r]);
        }
        let nnz = self.nnz();
        let mut col_idx = vec![0u32; nnz];
        let mut vals = vec![S::zero(); nnz];
        for new_r in 0..n {
            let old_r = perm[new_r];
            let dst = row_ptr[new_r];
            let mut entries: Vec<(u32, S)> =
                self.row(old_r).map(|(c, v)| (inv[c] as u32, v)).collect();
            entries.sort_unstable_by_key(|&(c, _)| c);
            for (k, (c, v)) in entries.into_iter().enumerate() {
                col_idx[dst + k] = c;
                vals[dst + k] = v;
            }
        }
        Csr::from_raw(n, n, row_ptr, col_idx, vals)
    }

    /// `true` if the sparsity pattern and values are symmetric to within
    /// `tol` (absolute, on `f64`-widened values).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            return false;
        }
        self.vals
            .iter()
            .zip(&t.vals)
            .all(|(a, b)| (a.to_f64() - b.to_f64()).abs() <= tol)
    }

    /// Frobenius norm (accumulated in f64 regardless of `S`).
    pub fn frobenius_norm(&self) -> f64 {
        self.vals
            .iter()
            .map(|v| v.to_f64() * v.to_f64())
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3x3 example: [[2, -1, 0], [-1, 2, -1], [0, -1, 2]].
    fn tridiag3() -> Csr<f64> {
        Csr::from_raw(
            3,
            3,
            vec![0, 2, 5, 7],
            vec![0, 1, 0, 1, 2, 1, 2],
            vec![2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0],
        )
    }

    #[test]
    fn spmv_tridiagonal() {
        let a = tridiag3();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, [0.0, 0.0, 4.0]);
    }

    #[test]
    fn residual_matches_manual() {
        let a = tridiag3();
        let x = [1.0, 1.0, 1.0];
        let b = [1.0, 0.0, 1.0];
        let mut r = [0.0; 3];
        a.residual(&b, &x, &mut r);
        assert_eq!(r, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn identity_spmv_is_copy() {
        let a = Csr::<f32>::identity(5);
        let x = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        let mut y = [0.0f32; 5];
        a.spmv(&x, &mut y);
        assert_eq!(x, y);
        assert_eq!(a.nnz(), 5);
    }

    #[test]
    fn transpose_twice_is_identity_op() {
        let a = Csr::from_raw(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0f64, 2.0, 3.0]);
        let att = a.transpose().transpose();
        assert_eq!(att.row_ptr(), a.row_ptr());
        assert_eq!(att.col_idx(), a.col_idx());
        assert_eq!(att.vals(), a.vals());
        assert_eq!(a.transpose().nrows(), 3);
    }

    #[test]
    fn convert_rounds_each_value_once() {
        let a = Csr::from_raw(1, 1, vec![0, 1], vec![0], vec![0.1f64]);
        let b: Csr<f32> = a.convert();
        assert_eq!(b.vals()[0], 0.1f32);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn symmetric_detection() {
        assert!(tridiag3().is_symmetric(0.0));
        let asym = Csr::from_raw(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1.0f64, 5.0, 1.0]);
        assert!(!asym.is_symmetric(1e-12));
    }

    #[test]
    fn diag_block_extraction() {
        let a = tridiag3();
        let blk = a.diag_block(1, 2);
        // Column-major 2x2 of rows/cols {1,2}: [[2,-1],[-1,2]].
        assert_eq!(blk, vec![2.0, -1.0, -1.0, 2.0]);
    }

    #[test]
    fn permute_sym_reverse_order() {
        let a = tridiag3();
        let p = a.permute_sym(&[2, 1, 0]);
        // Reversing a symmetric tridiagonal keeps it identical.
        assert_eq!(p.vals(), a.vals());
        assert!(p.is_symmetric(0.0));
    }

    #[test]
    fn permute_preserves_spectral_action() {
        let a = tridiag3();
        let perm = [1usize, 2, 0];
        let p = a.permute_sym(&perm);
        // (PAP^T)(Px) = P(Ax): check via explicit vectors.
        let x = [0.3, -1.0, 2.0];
        let mut ax = [0.0; 3];
        a.spmv(&x, &mut ax);
        let px: Vec<f64> = perm.iter().map(|&i| x[i]).collect();
        let mut pax = [0.0; 3];
        p.spmv(&px, &mut pax);
        for (i, &pi) in perm.iter().enumerate() {
            assert!((pax[i] - ax[pi]).abs() < 1e-14);
        }
    }

    #[test]
    #[should_panic(expected = "row_ptr must end at nnz")]
    fn from_raw_validates() {
        let _ = Csr::from_raw(2, 2, vec![0, 1, 3], vec![0], vec![1.0f64]);
    }

    #[test]
    fn ids_are_unique() {
        let a = Csr::<f64>::identity(2);
        let b = Csr::<f64>::identity(2);
        let c = a.clone();
        assert_ne!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn frobenius_norm_tridiag() {
        let a = tridiag3();
        let expect = (3.0 * 4.0 + 4.0 * 1.0f64).sqrt();
        assert!((a.frobenius_norm() - expect).abs() < 1e-14);
    }
}
