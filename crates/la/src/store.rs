//! Low-precision matrix *storage* paths for a solver working in `S`.
//!
//! The paper's cost model is pure memory traffic, and for SpMV/SpMM the
//! matrix values dominate that traffic — so storing them in a narrower
//! precision than the working precision is the single biggest raw-speed
//! lever (Lindquist et al., arXiv:2011.01850, show the fp32-matrix /
//! fp64-everything-else variant captures most of the multiprecision
//! win). [`MatrixStore`] names the storage choices the stack supports:
//!
//! - [`MatrixStore::Plain`] — values in the working precision `S`
//!   (the baseline; kernels are bit-identical to [`Csr`]'s).
//! - [`MatrixStore::ShadowF32`] / [`MatrixStore::ShadowF16`] — a
//!   downcast shadow copy of the matrix (the cuSPARSE fp32-shadow
//!   pattern): values stream in fp32/fp16, every arithmetic operation
//!   happens in `S` after one exact widening per stored entry.
//! - [`MatrixStore::Split`] — two-bucket [`SplitCsr`] storage: large
//!   entries keep `S`, small ones ride in fp32.
//!
//! Kernel contract: each output row accumulates strictly left to right
//! with one `mul_add` per stored entry, values widened (never rounded —
//! `Lo -> S` is exact for every supported pair) into `S` before the
//! multiply. The per-row kernels here are shared by the sequential
//! methods and the row-partitioned parallel kernels in [`crate::par`],
//! so Reference/Parallel backends agree bit-for-bit by construction —
//! the same sharing contract as [`Csr::spmv`].

use mpgmres_scalar::{cast, Half, Precision, PrecisionTag, Scalar};

use crate::csr::Csr;
use crate::fma;
use crate::multivec::MultiVec;
use crate::split_csr::SplitCsr;

/// A sparse matrix stored for a solver working in precision `S`, with
/// the value storage precision chosen independently of `S`.
///
/// See the module docs for the variant semantics; [`MatrixStore::tag`]
/// reports the storage precision as a [`PrecisionTag`] (the stream
/// layer keys cached op graphs on it), and
/// [`MatrixStore::value_bytes`] is the matrix-value traffic the
/// bandwidth model charges per SpMV.
#[derive(Clone, Debug)]
pub enum MatrixStore<S> {
    /// Values in the working precision (baseline path).
    Plain(Csr<S>),
    /// fp32 shadow copy: stream fp32 values, compute in `S`.
    ShadowF32(Csr<f32>),
    /// fp16 shadow copy: stream fp16 values, compute in `S`.
    ShadowF16(Csr<Half>),
    /// Magnitude-split storage: big entries in `S`, small ones in fp32.
    Split(SplitCsr<S, f32>),
}

impl<S: Scalar> MatrixStore<S> {
    /// Baseline store: the matrix as-is, values in `S`.
    pub fn plain(a: Csr<S>) -> Self {
        MatrixStore::Plain(a)
    }

    /// Downcast shadow store at precision `p`.
    ///
    /// Demotes only: if `p` is not narrower than `S`'s own precision
    /// the result is a plain copy (there is no shadow to keep).
    pub fn shadow(a: &Csr<S>, p: Precision) -> Self {
        if p >= S::PRECISION {
            return MatrixStore::Plain(a.clone());
        }
        match p {
            Precision::Fp16 => MatrixStore::ShadowF16(a.convert()),
            Precision::Fp32 => MatrixStore::ShadowF32(a.convert()),
            Precision::Fp64 => unreachable!("fp64 is never narrower than S"),
        }
    }

    /// Magnitude-split store: entries with `|v| >= threshold` keep `S`,
    /// the rest round once into fp32.
    ///
    /// Degenerate thresholds collapse to a single-bucket store: all-hi
    /// becomes [`MatrixStore::Plain`], all-lo becomes
    /// [`MatrixStore::ShadowF32`] — so downstream tags and cost models
    /// see the storage that actually exists, not the split that was
    /// asked for.
    pub fn split_threshold(a: &Csr<S>, threshold: f64) -> Self {
        let s = SplitCsr::split(a, threshold);
        if s.lo().nnz() == 0 {
            let (hi, _, _) = s.into_parts();
            MatrixStore::Plain(hi)
        } else if s.hi().nnz() == 0 {
            let (_, lo, _) = s.into_parts();
            MatrixStore::ShadowF32(lo)
        } else {
            MatrixStore::Split(s)
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        match self {
            MatrixStore::Plain(a) => a.nrows(),
            MatrixStore::ShadowF32(a) => a.nrows(),
            MatrixStore::ShadowF16(a) => a.nrows(),
            MatrixStore::Split(s) => s.hi().nrows(),
        }
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        match self {
            MatrixStore::Plain(a) => a.ncols(),
            MatrixStore::ShadowF32(a) => a.ncols(),
            MatrixStore::ShadowF16(a) => a.ncols(),
            MatrixStore::Split(s) => s.hi().ncols(),
        }
    }

    /// Total stored entries (both buckets for a split store).
    #[inline]
    pub fn nnz(&self) -> usize {
        match self {
            MatrixStore::Plain(a) => a.nnz(),
            MatrixStore::ShadowF32(a) => a.nnz(),
            MatrixStore::ShadowF16(a) => a.nnz(),
            MatrixStore::Split(s) => s.hi().nnz() + s.lo().nnz(),
        }
    }

    /// Storage-precision tag.
    #[inline]
    pub fn tag(&self) -> PrecisionTag {
        match self {
            MatrixStore::Plain(_) => PrecisionTag::Uniform(S::PRECISION),
            MatrixStore::ShadowF32(_) => PrecisionTag::Uniform(Precision::Fp32),
            MatrixStore::ShadowF16(_) => PrecisionTag::Uniform(Precision::Fp16),
            MatrixStore::Split(_) => PrecisionTag::Split {
                hi: S::PRECISION,
                lo: Precision::Fp32,
            },
        }
    }

    /// Matrix-value bytes one SpMV streams (the traffic the §V-D
    /// bandwidth model charges for the value array).
    #[inline]
    pub fn value_bytes(&self) -> usize {
        match self {
            MatrixStore::Plain(a) => a.nnz() * S::BYTES,
            MatrixStore::ShadowF32(a) => a.nnz() * 4,
            MatrixStore::ShadowF16(a) => a.nnz() * 2,
            MatrixStore::Split(s) => s.value_bytes(),
        }
    }

    /// One row of `y = A x` (see the module-level kernel contract).
    #[inline(always)]
    pub(crate) fn spmv_row(&self, r: usize, x: &[S]) -> S {
        match self {
            // Delegates to THE per-row kernel: bit-identical to Csr::spmv.
            MatrixStore::Plain(a) => a.spmv_row(r, x),
            MatrixStore::ShadowF32(a) => acc_row_cast(a, r, x, S::zero()),
            MatrixStore::ShadowF16(a) => acc_row_cast(a, r, x, S::zero()),
            MatrixStore::Split(s) => {
                let acc = acc_row_cast(s.hi(), r, x, S::zero());
                acc_row_cast(s.lo(), r, x, acc)
            }
        }
    }

    /// One row of `y = b - A x` (same sharing contract as
    /// [`MatrixStore::spmv_row`]).
    #[inline(always)]
    pub(crate) fn residual_row(&self, r: usize, b_r: S, x: &[S]) -> S {
        match self {
            MatrixStore::Plain(a) => a.residual_row(r, b_r, x),
            MatrixStore::ShadowF32(a) => neg_acc_row_cast(a, r, x, b_r),
            MatrixStore::ShadowF16(a) => neg_acc_row_cast(a, r, x, b_r),
            MatrixStore::Split(s) => {
                let acc = neg_acc_row_cast(s.hi(), r, x, b_r);
                neg_acc_row_cast(s.lo(), r, x, acc)
            }
        }
    }

    /// Rows `[start, start + y.len())` of `y = A x` (the row loop shared
    /// with the row-partitioned parallel kernels).
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

    /// `y = A x`, computed in `S` over the stored values.
    pub fn spmv(&self, x: &[S], y: &mut [S]) {
        assert_eq!(x.len(), self.ncols(), "store spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows(), "store spmv: y length mismatch");
        fma::run(|| self.spmv_rows(0, x, y));
    }

    /// `y = b - A x` (fused residual), computed in `S`.
    pub fn residual(&self, b: &[S], x: &[S], y: &mut [S]) {
        assert_eq!(b.len(), self.nrows(), "store residual: b length mismatch");
        assert_eq!(x.len(), self.ncols(), "store residual: x length mismatch");
        assert_eq!(y.len(), self.nrows(), "store residual: y length mismatch");
        fma::run(|| self.residual_rows(0, b, x, y));
    }

    /// Fused SpMM `Y = A X` over the leading `k` columns: one pass over
    /// the stored rows serves all `k` right-hand sides. Per output
    /// column the accumulation order is exactly the single-RHS
    /// `spmv_row` order, so the result is bit-identical to `k`
    /// independent store SpMVs (the multi-RHS determinism contract).
    pub fn spmm(&self, x: &MultiVec<S>, k: usize, y: &mut MultiVec<S>) {
        assert_eq!(x.n(), self.ncols(), "store spmm: x row count mismatch");
        assert_eq!(y.n(), self.nrows(), "store spmm: y row count mismatch");
        assert!(k <= x.k() && k <= y.k(), "store spmm: too many columns");
        let xcols: Vec<&[S]> = (0..k).map(|j| x.col(j)).collect();
        let n = self.nrows();
        let mut slots = y.partition_rows_mut(k, &[(0, n)]);
        if let Some(cols) = slots.first_mut() {
            self.spmm_rows(&xcols, 0, n, cols);
        }
    }

    /// The per-worker SpMM loop over rows `[lo, hi)` — shared by the
    /// sequential [`MatrixStore::spmm`] and the row-partitioned
    /// parallel kernel (`crate::par::store_spmm_parts_on`). Each arm
    /// runs under [`fma::run`].
    pub(crate) fn spmm_rows(&self, xcols: &[&[S]], lo: usize, hi: usize, out: &mut [&mut [S]]) {
        match self {
            // Shares the plain SpMM row loop: bit-identical to par::spmm.
            MatrixStore::Plain(a) => crate::par::spmm_rows(a, xcols, lo, hi, out),
            MatrixStore::ShadowF32(a) => fma::run(|| spmm_rows_cast(a, xcols, lo, hi, out)),
            MatrixStore::ShadowF16(a) => fma::run(|| spmm_rows_cast(a, xcols, lo, hi, out)),
            MatrixStore::Split(s) => fma::run(|| spmm_rows_split(s, xcols, lo, hi, out)),
        }
    }
}

/// Continue a row accumulation over `a`'s row `r`: one exact widening
/// `L -> S` and one `mul_add` in `S` per stored entry, left to right.
#[inline(always)]
fn acc_row_cast<L: Scalar, S: Scalar>(a: &Csr<L>, r: usize, x: &[S], mut acc: S) -> S {
    let (vals, cols) = a.row_slices(r);
    for (&v, &c) in vals.iter().zip(cols) {
        acc = cast::<L, S>(v).mul_add(x[c as usize], acc);
    }
    acc
}

/// Residual flavor of [`acc_row_cast`]: `acc -= v * x` per entry.
#[inline(always)]
fn neg_acc_row_cast<L: Scalar, S: Scalar>(a: &Csr<L>, r: usize, x: &[S], mut acc: S) -> S {
    let (vals, cols) = a.row_slices(r);
    for (&v, &c) in vals.iter().zip(cols) {
        acc = (-cast::<L, S>(v)).mul_add(x[c as usize], acc);
    }
    acc
}

/// Mixed-precision SpMM row loop: stream rows of `a` once, widening
/// each stored value into `S` once and updating all `k` accumulators
/// with it — per column the exact order of [`acc_row_cast`].
#[inline(always)]
fn spmm_rows_cast<L: Scalar, S: Scalar>(
    a: &Csr<L>,
    xcols: &[&[S]],
    lo: usize,
    hi: usize,
    out: &mut [&mut [S]],
) {
    let mut acc = vec![S::zero(); xcols.len()];
    for r in lo..hi {
        acc.fill(S::zero());
        acc_row_cols(a, r, xcols, &mut acc);
        for (j, a_j) in acc.iter().enumerate() {
            out[j][r - lo] = *a_j;
        }
    }
}

/// Split-store SpMM row loop: per row, the hi bucket's entries
/// accumulate first, then the lo bucket's — per column the exact order
/// of the split [`MatrixStore::spmv_row`].
#[inline(always)]
fn spmm_rows_split<S: Scalar>(
    s: &SplitCsr<S, f32>,
    xcols: &[&[S]],
    lo: usize,
    hi: usize,
    out: &mut [&mut [S]],
) {
    let mut acc = vec![S::zero(); xcols.len()];
    for r in lo..hi {
        acc.fill(S::zero());
        acc_row_cols(s.hi(), r, xcols, &mut acc);
        acc_row_cols(s.lo(), r, xcols, &mut acc);
        for (j, a_j) in acc.iter().enumerate() {
            out[j][r - lo] = *a_j;
        }
    }
}

/// Continue `xcols.len()` row accumulations over `a`'s row `r`: each
/// stored value widens into `S` once and updates every column's
/// accumulator, per column the exact order of [`acc_row_cast`].
#[inline(always)]
fn acc_row_cols<L: Scalar, S: Scalar>(a: &Csr<L>, r: usize, xcols: &[&[S]], acc: &mut [S]) {
    let (vals, cols) = a.row_slices(r);
    for (&v, &c) in vals.iter().zip(cols) {
        let (v, c) = (cast::<L, S>(v), c as usize);
        for (a_j, xc) in acc.iter_mut().zip(xcols) {
            *a_j = v.mul_add(xc[c], *a_j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn laplace(n: usize) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0 + (i % 5) as f64 * 0.25);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        coo.into_csr()
    }

    fn pseudo(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let z = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(salt);
                (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn plain_store_kernels_bit_identical_to_csr() {
        let n = 64;
        let a = laplace(n);
        let store = MatrixStore::plain(a.clone());
        let x = pseudo(n, 1);
        let b = pseudo(n, 2);
        let (mut y_ref, mut y_store) = (vec![0.0; n], vec![0.0; n]);
        a.spmv(&x, &mut y_ref);
        store.spmv(&x, &mut y_store);
        assert_eq!(y_ref, y_store);
        a.residual(&b, &x, &mut y_ref);
        store.residual(&b, &x, &mut y_store);
        assert_eq!(y_ref, y_store);
        assert_eq!(store.tag(), PrecisionTag::Uniform(Precision::Fp64));
        assert_eq!(store.value_bytes(), a.nnz() * 8);
    }

    #[test]
    fn shadow_f32_matches_scalar_reference() {
        let n = 48;
        let a = laplace(n);
        let store = MatrixStore::shadow(&a, Precision::Fp32);
        assert_eq!(store.tag(), PrecisionTag::Uniform(Precision::Fp32));
        assert_eq!(store.value_bytes(), a.nnz() * 4);
        let x = pseudo(n, 3);
        let mut y = vec![0.0; n];
        store.spmv(&x, &mut y);
        // Scalar reference: widen each fp32-rounded value, accumulate
        // left-to-right in f64 with FMA — exactly what the kernel claims.
        for r in 0..n {
            let mut acc = 0.0f64;
            for (c, v) in a.row(r) {
                acc = f64::from(v as f32).mul_add(x[c], acc);
            }
            assert_eq!(acc.to_bits(), y[r].to_bits(), "row {r}");
        }
    }

    #[test]
    fn shadow_only_demotes() {
        let a = laplace(8);
        assert!(matches!(
            MatrixStore::shadow(&a, Precision::Fp64),
            MatrixStore::Plain(_)
        ));
        let a32: Csr<f32> = a.convert();
        assert!(matches!(
            MatrixStore::shadow(&a32, Precision::Fp32),
            MatrixStore::Plain(_)
        ));
        assert!(matches!(
            MatrixStore::shadow(&a32, Precision::Fp16),
            MatrixStore::ShadowF16(_)
        ));
    }

    #[test]
    fn split_threshold_collapses_one_sided_splits() {
        let a = laplace(16);
        assert!(matches!(
            MatrixStore::split_threshold(&a, 0.0),
            MatrixStore::Plain(_)
        ));
        assert!(matches!(
            MatrixStore::split_threshold(&a, 1e9),
            MatrixStore::ShadowF32(_)
        ));
        let two_sided = MatrixStore::split_threshold(&a, 2.0);
        assert!(matches!(two_sided, MatrixStore::Split(_)));
        assert_eq!(
            two_sided.tag(),
            PrecisionTag::Split {
                hi: Precision::Fp64,
                lo: Precision::Fp32
            }
        );
        assert_eq!(two_sided.nnz(), a.nnz());
    }

    #[test]
    fn split_store_row_order_is_hi_then_lo() {
        let n = 32;
        let a = laplace(n);
        let store = MatrixStore::split_threshold(&a, 2.0);
        let x = pseudo(n, 4);
        let mut y = vec![0.0; n];
        store.spmv(&x, &mut y);
        for r in 0..n {
            let mut acc = 0.0f64;
            for (c, v) in a.row(r) {
                if v.abs() >= 2.0 {
                    acc = v.mul_add(x[c], acc);
                }
            }
            for (c, v) in a.row(r) {
                if v.abs() < 2.0 {
                    acc = f64::from(v as f32).mul_add(x[c], acc);
                }
            }
            assert_eq!(acc.to_bits(), y[r].to_bits(), "row {r}");
        }
    }

    #[test]
    fn spmm_bit_identical_to_column_spmvs_every_variant() {
        let n = 40;
        let a = laplace(n);
        let stores = [
            MatrixStore::plain(a.clone()),
            MatrixStore::shadow(&a, Precision::Fp32),
            MatrixStore::shadow(&a, Precision::Fp16),
            MatrixStore::split_threshold(&a, 2.0),
        ];
        let k = 3;
        let mut x = MultiVec::<f64>::zeros(n, k);
        for j in 0..k {
            let c = pseudo(n, 10 + j as u64);
            x.col_mut(j).copy_from_slice(&c);
        }
        for store in &stores {
            let mut y = MultiVec::<f64>::zeros(n, k);
            store.spmm(&x, k, &mut y);
            for j in 0..k {
                let mut y_ref = vec![0.0; n];
                store.spmv(x.col(j), &mut y_ref);
                assert_eq!(y.col(j), &y_ref[..], "{} col {j}", store.tag());
            }
        }
    }

    #[test]
    fn residual_is_b_minus_ax_within_store_precision() {
        let n = 32;
        let a = laplace(n);
        let store = MatrixStore::<f64>::shadow(&a, Precision::Fp16);
        assert_eq!(store.value_bytes(), a.nnz() * 2);
        let x = pseudo(n, 5);
        let b = pseudo(n, 6);
        let (mut ax, mut r) = (vec![0.0; n], vec![0.0; n]);
        store.spmv(&x, &mut ax);
        store.residual(&b, &x, &mut r);
        for i in 0..n {
            // Same widened values, FMA vs separate ops: tiny difference.
            assert!((r[i] - (b[i] - ax[i])).abs() < 1e-12, "row {i}");
        }
    }
}
