//! Compressed Krylov-basis *storage* paths for a solver working in `S`.
//!
//! The paper's cost model is pure memory traffic, and after SpMV the
//! largest traffic consumer is reading the Krylov basis in every
//! orthogonalization and update pass. Aliaga et al. (arXiv:2009.12101)
//! show the basis can be *stored* in a narrower precision while every
//! arithmetic operation stays in the working precision: the GEMV
//! kernels stream the narrow array, widen each element once, and
//! accumulate in `S` — the same contract as [`crate::store::MatrixStore`]
//! for matrix values, applied to the basis.
//!
//! - [`BasisStore::Native`] — basis columns in the working precision
//!   `S` (the baseline; kernels and layout are bit-identical to
//!   [`MultiVector`]'s).
//! - [`BasisStore::F32`] / [`BasisStore::F16`] — columns demoted to
//!   fp32/fp16 on write ([`BasisStore::set_col`] /
//!   [`BasisStore::scal_copy_col`] round once per element), promoted on
//!   read (one exact widening per stored element).
//!
//! Kernel contract: the compressed GEMV kernels mirror the reference
//! kernels' operation order exactly — per-column dot products use the
//! same [`ReductionOrder`] chunking as [`crate::vec_ops::dot_ordered`]
//! (sequential FMA chains per block, pairwise tree over block partials),
//! and the no-transpose kernels accumulate column-major with one
//! `mul_add` per element — with a single widening `cast::<L, S>` per
//! stored element. The row-range kernels are shared with the
//! row-partitioned parallel dispatchers in [`crate::par`], so
//! Reference/Parallel backends agree bit-for-bit by construction.

use mpgmres_scalar::{cast, Half, Precision, Scalar};

use crate::fma;
use crate::multivector::{gemv_n_cols, gemv_t_block_partials, gemv_t_cols, MultiVector};
use crate::par::ColOperand;
use crate::vec_ops::{self, ReductionOrder};

/// Column-major `n x max_cols` basis storage at element precision `L`,
/// independent of the solver's working precision.
#[derive(Clone, Debug)]
pub struct CompressedBasis<L> {
    n: usize,
    max_cols: usize,
    data: Vec<L>,
}

impl<L: Scalar> CompressedBasis<L> {
    /// Allocate an `n x max_cols` compressed basis initialized to zero.
    pub fn zeros(n: usize, max_cols: usize) -> Self {
        CompressedBasis {
            n,
            max_cols,
            data: vec![L::zero(); n * max_cols],
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

    crate::colmajor::colmajor_views!(L, max_cols);

    /// `h[i] = widen(col_i) . w` for `i in 0..ncols` (GEMV Trans): the
    /// narrow column streams once, every product accumulates in `S`.
    pub fn gemv_t<S: Scalar>(&self, ncols: usize, w: &[S], h: &mut [S], order: ReductionOrder) {
        assert!(ncols <= self.max_cols, "basis gemv_t: too many columns");
        assert_eq!(w.len(), self.n, "basis gemv_t: vector length mismatch");
        assert!(h.len() >= ncols, "basis gemv_t: output too short");
        fma::run(|| self.gemv_t_range(0, w, &mut h[..ncols], order));
    }

    /// GEMV-T over the column range `first..first + h.len()` (see
    /// [`MultiVector::gemv_t`] for the operation order).
    #[inline(always)]
    pub(crate) fn gemv_t_range<S: Scalar>(
        &self,
        first: usize,
        w: &[S],
        h: &mut [S],
        order: ReductionOrder,
    ) {
        gemv_t_cols(&self.data, first, w, h, order, cast::<L, S>);
    }

    /// Block partials of columns `0..ncols` over reduction blocks
    /// starting at block `b0`, one widening per element (see
    /// [`MultiVector::gemv_t_blocks`]).
    #[inline(always)]
    pub(crate) fn gemv_t_blocks<S: Scalar>(
        &self,
        ncols: usize,
        w: &[S],
        block: usize,
        b0: usize,
        parts: &mut [S],
    ) {
        gemv_t_block_partials(&self.data, ncols, w, block, b0, parts, cast::<L, S>);
    }

    /// GEMV No-Trans over rows `[start, start + out.len())`, one
    /// widening per element (see [`MultiVector::gemv_n_sub`] for the
    /// operation order) — shared with the row-partitioned parallel
    /// dispatchers in [`crate::par`].
    #[inline(always)]
    pub(crate) fn gemv_n_rows<S: Scalar>(
        &self,
        ncols: usize,
        h: &[S],
        start: usize,
        out: &mut [S],
        add: bool,
    ) {
        gemv_n_cols(
            &self.data,
            self.n,
            &h[..ncols],
            start,
            out,
            add,
            cast::<L, S>,
        );
    }

    /// `w -= widen(V[:, ..ncols]) h` (GEMV No-Trans, alpha = -1).
    pub fn gemv_n_sub<S: Scalar>(&self, ncols: usize, h: &[S], w: &mut [S]) {
        assert!(ncols <= self.max_cols, "basis gemv_n_sub: too many columns");
        assert_eq!(w.len(), self.n, "basis gemv_n_sub: vector length mismatch");
        assert!(h.len() >= ncols, "basis gemv_n_sub: coefficients too short");
        fma::run(|| self.gemv_n_rows(ncols, h, 0, w, false));
    }

    /// `y += widen(V[:, ..ncols]) h` (GEMV No-Trans, alpha = +1).
    pub fn gemv_n_add<S: Scalar>(&self, ncols: usize, h: &[S], y: &mut [S]) {
        assert!(ncols <= self.max_cols, "basis gemv_n_add: too many columns");
        assert_eq!(y.len(), self.n, "basis gemv_n_add: vector length mismatch");
        assert!(h.len() >= ncols, "basis gemv_n_add: coefficients too short");
        fma::run(|| self.gemv_n_rows(ncols, h, 0, y, true));
    }

    /// Overwrite column `j`, rounding each element once into `L`.
    pub fn set_col<S: Scalar>(&mut self, j: usize, v: &[S]) {
        assert_eq!(v.len(), self.n, "basis set_col: length mismatch");
        for (d, &s) in self.col_mut(j).iter_mut().zip(v) {
            *d = cast::<S, L>(s);
        }
    }

    /// Fused normalize-and-demote `col_j = narrow(src * alpha)`: the
    /// multiply happens in `S` (the same `src[i] * alpha` the native
    /// lane kernels compute), then rounds once into `L`.
    pub fn scal_copy_col<S: Scalar>(&mut self, j: usize, alpha: S, src: &[S]) {
        assert_eq!(src.len(), self.n, "basis scal_copy_col: length mismatch");
        for (d, &s) in self.col_mut(j).iter_mut().zip(src) {
            *d = cast::<S, L>(s * alpha);
        }
    }

    /// Promote column `j` into a working-precision buffer (one exact
    /// widening per element).
    pub fn promote_col<S: Scalar>(&self, j: usize, out: &mut [S]) {
        assert_eq!(out.len(), self.n, "basis promote_col: length mismatch");
        for (o, &c) in out.iter_mut().zip(self.col(j)) {
            *o = cast::<L, S>(c);
        }
    }
}

/// Krylov basis stored for a solver working in precision `S`, with the
/// storage precision chosen independently of `S`.
///
/// [`BasisStore::code`] reports the storage choice as a dense `u8`
/// (`BlockGmres` compares it before it reuses a lane slot's basis for
/// a new request), and [`BasisStore::elem_bytes`] is the per-element
/// traffic the bandwidth model charges for basis reads.
#[derive(Clone, Debug)]
pub enum BasisStore<S> {
    /// Columns in the working precision (baseline; bit-identical layout
    /// and kernels to [`MultiVector`]).
    Native(MultiVector<S>),
    /// Columns demoted to fp32, promoted on read, arithmetic in `S`.
    F32(CompressedBasis<f32>),
    /// Columns demoted to fp16, promoted on read, arithmetic in `S`.
    F16(CompressedBasis<Half>),
}

impl<S: Scalar> BasisStore<S> {
    /// Baseline store: an `n x max_cols` native basis.
    pub fn native(n: usize, max_cols: usize) -> Self {
        BasisStore::Native(MultiVector::zeros(n, max_cols))
    }

    /// Compressed store at precision `p`.
    ///
    /// Demotes only: if `p` is not narrower than `S`'s own precision
    /// the result is a native basis (there is nothing to compress),
    /// mirroring [`crate::store::MatrixStore::shadow`].
    pub fn compressed(n: usize, max_cols: usize, p: Precision) -> Self {
        if p >= S::PRECISION {
            return BasisStore::native(n, max_cols);
        }
        match p {
            Precision::Fp16 => BasisStore::F16(CompressedBasis::zeros(n, max_cols)),
            Precision::Fp32 => BasisStore::F32(CompressedBasis::zeros(n, max_cols)),
            Precision::Fp64 => unreachable!("fp64 is never narrower than S"),
        }
    }

    /// Vector length (rows).
    #[inline]
    pub fn n(&self) -> usize {
        match self {
            BasisStore::Native(v) => v.n(),
            BasisStore::F32(v) => v.n(),
            BasisStore::F16(v) => v.n(),
        }
    }

    /// Number of allocated columns.
    #[inline]
    pub fn max_cols(&self) -> usize {
        match self {
            BasisStore::Native(v) => v.max_cols(),
            BasisStore::F32(v) => v.max_cols(),
            BasisStore::F16(v) => v.max_cols(),
        }
    }

    /// Whether this is the native (working-precision) path.
    #[inline]
    pub fn is_native(&self) -> bool {
        matches!(self, BasisStore::Native(_))
    }

    /// The storage precision of the basis elements.
    #[inline]
    pub fn storage_precision(&self) -> Precision {
        match self {
            BasisStore::Native(_) => S::PRECISION,
            BasisStore::F32(_) => Precision::Fp32,
            BasisStore::F16(_) => Precision::Fp16,
        }
    }

    /// Bytes per stored basis element (what one GEMV pass streams).
    #[inline]
    pub fn elem_bytes(&self) -> usize {
        self.storage_precision().bytes()
    }

    /// Dense `u8` storage code: 0 = native, 1 = fp16, 2 = fp32 —
    /// disjoint per storage precision. Its one caller is the lane-slot
    /// reuse check of `BlockGmres`: an admitted request takes over the
    /// previous occupant's basis only when the codes match.
    #[inline]
    pub fn code(&self) -> u8 {
        match self {
            BasisStore::Native(_) => 0,
            BasisStore::F16(_) => 1,
            BasisStore::F32(_) => 2,
        }
    }

    /// The native multivector, if this is the native path.
    #[inline]
    pub fn as_native(&self) -> Option<&MultiVector<S>> {
        match self {
            BasisStore::Native(v) => Some(v),
            _ => None,
        }
    }

    /// The native multivector, mutably, if this is the native path.
    #[inline]
    pub fn as_native_mut(&mut self) -> Option<&mut MultiVector<S>> {
        match self {
            BasisStore::Native(v) => Some(v),
            _ => None,
        }
    }

    /// The native multivector (panics on a compressed store — callers
    /// on native-only paths, e.g. MGS, assert intent).
    #[inline]
    pub fn expect_native(&self) -> &MultiVector<S> {
        self.as_native().expect("basis: native-only path")
    }

    /// Mutable native multivector (see [`BasisStore::expect_native`]).
    #[inline]
    pub fn expect_native_mut(&mut self) -> &mut MultiVector<S> {
        self.as_native_mut().expect("basis: native-only path")
    }

    /// `h[i] = widen(col_i) . w` over the first `ncols` columns. The
    /// native arm is THE reference kernel ([`MultiVector::gemv_t`]);
    /// compressed arms stream the narrow array.
    pub fn gemv_t(&self, ncols: usize, w: &[S], h: &mut [S], order: ReductionOrder) {
        match self {
            BasisStore::Native(v) => v.gemv_t(ncols, w, h, order),
            BasisStore::F32(v) => v.gemv_t(ncols, w, h, order),
            BasisStore::F16(v) => v.gemv_t(ncols, w, h, order),
        }
    }

    /// `w -= widen(V[:, ..ncols]) h`.
    pub fn gemv_n_sub(&self, ncols: usize, h: &[S], w: &mut [S]) {
        match self {
            BasisStore::Native(v) => v.gemv_n_sub(ncols, h, w),
            BasisStore::F32(v) => v.gemv_n_sub(ncols, h, w),
            BasisStore::F16(v) => v.gemv_n_sub(ncols, h, w),
        }
    }

    /// `y += widen(V[:, ..ncols]) h`.
    pub fn gemv_n_add(&self, ncols: usize, h: &[S], y: &mut [S]) {
        match self {
            BasisStore::Native(v) => v.gemv_n_add(ncols, h, y),
            BasisStore::F32(v) => v.gemv_n_add(ncols, h, y),
            BasisStore::F16(v) => v.gemv_n_add(ncols, h, y),
        }
    }

    /// Overwrite column `j` (demoting once per element on compressed
    /// paths).
    pub fn set_col(&mut self, j: usize, v: &[S]) {
        match self {
            BasisStore::Native(mv) => mv.set_col(j, v),
            BasisStore::F32(cb) => cb.set_col(j, v),
            BasisStore::F16(cb) => cb.set_col(j, v),
        }
    }

    /// Fused basis extension `col_j = src * alpha` — the native arm is
    /// the exact copy-then-scale multiply the drivers issued before the
    /// refactor; compressed arms round the product once into storage.
    pub fn scal_copy_col(&mut self, j: usize, alpha: S, src: &[S]) {
        match self {
            BasisStore::Native(mv) => {
                mv.set_col(j, src);
                vec_ops::scale(alpha, mv.col_mut(j));
            }
            BasisStore::F32(cb) => cb.scal_copy_col(j, alpha, src),
            BasisStore::F16(cb) => cb.scal_copy_col(j, alpha, src),
        }
    }

    /// Promote column `j` into a working-precision buffer (native:
    /// plain copy).
    pub fn promote_col(&self, j: usize, out: &mut [S]) {
        match self {
            BasisStore::Native(v) => out.copy_from_slice(v.col(j)),
            BasisStore::F32(v) => v.promote_col(j, out),
            BasisStore::F16(v) => v.promote_col(j, out),
        }
    }

    /// Raw `(object, element-data)` pointers, as a recorded stream's
    /// basis handle carries them. Only the native arm carries a data
    /// pointer (recorded ops address native bases column-wise, e.g. the
    /// basis extension); compressed arms are addressed whole-object
    /// only and return a null data pointer.
    pub fn raw_parts_mut(&mut self) -> (*mut Self, *mut S) {
        let obj: *mut Self = self;
        // SAFETY: `obj` was just derived from a live `&mut self`; the
        // inner data pointer is materialized through it, keeping the
        // derivation chain obj -> variant -> data intact.
        unsafe {
            match &mut *obj {
                BasisStore::Native(mv) => (obj, mv.raw_parts_mut().1),
                _ => (obj, std::ptr::null_mut()),
            }
        }
    }
}

/// The bodies of the store's own GEMVs, which the column-, block- and
/// row-partitioned parallel kernels distribute. Each arm runs under
/// [`fma::run`].
impl<S: Scalar> ColOperand<S> for BasisStore<S> {
    #[inline]
    fn n(&self) -> usize {
        BasisStore::n(self)
    }

    #[inline]
    fn max_cols(&self) -> usize {
        BasisStore::max_cols(self)
    }

    fn gemv_t_range(&self, first: usize, w: &[S], h: &mut [S], order: ReductionOrder) {
        match self {
            BasisStore::Native(v) => fma::run(|| v.gemv_t_range(first, w, h, order)),
            BasisStore::F32(v) => fma::run(|| v.gemv_t_range(first, w, h, order)),
            BasisStore::F16(v) => fma::run(|| v.gemv_t_range(first, w, h, order)),
        }
    }

    fn gemv_t_blocks(&self, ncols: usize, w: &[S], block: usize, b0: usize, parts: &mut [S]) {
        macro_rules! arm {
            ($v:expr) => {
                fma::run(
                    #[inline(always)]
                    || $v.gemv_t_blocks(ncols, w, block, b0, parts),
                )
            };
        }
        match self {
            BasisStore::Native(v) => arm!(v),
            BasisStore::F32(v) => arm!(v),
            BasisStore::F16(v) => arm!(v),
        }
    }

    fn gemv_n_rows(&self, ncols: usize, h: &[S], start: usize, out: &mut [S], add: bool) {
        match self {
            BasisStore::Native(v) => fma::run(|| v.gemv_n_rows(ncols, h, start, out, add)),
            BasisStore::F32(v) => fma::run(|| v.gemv_n_rows(ncols, h, start, out, add)),
            BasisStore::F16(v) => fma::run(|| v.gemv_n_rows(ncols, h, start, out, add)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpgmres_scalar::{ulp_diff_f32, ulp_diff_f64};

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

    fn native_filled(n: usize, cols: usize) -> BasisStore<f64> {
        let mut v = BasisStore::<f64>::native(n, cols);
        for j in 0..cols {
            v.set_col(j, &pseudo(n, 100 + j as u64));
        }
        v
    }

    #[test]
    fn native_kernels_bit_identical_to_multivector() {
        let (n, cols) = (64, 4);
        let v = native_filled(n, cols);
        let mut mv = MultiVector::<f64>::zeros(n, cols);
        for j in 0..cols {
            mv.set_col(j, v.expect_native().col(j));
        }
        let w = pseudo(n, 7);
        let (mut h_a, mut h_b) = (vec![0.0; cols], vec![0.0; cols]);
        for order in [ReductionOrder::Sequential, ReductionOrder::GPU_LIKE] {
            v.gemv_t(cols, &w, &mut h_a, order);
            mv.gemv_t(cols, &w, &mut h_b, order);
            assert_eq!(h_a, h_b);
        }
        let (mut wa, mut wb) = (w.clone(), w.clone());
        v.gemv_n_sub(cols, &h_a, &mut wa);
        mv.gemv_n_sub(cols, &h_a, &mut wb);
        assert_eq!(wa, wb);
        v.gemv_n_add(cols, &h_a, &mut wa);
        mv.gemv_n_add(cols, &h_a, &mut wb);
        assert_eq!(wa, wb);
        assert_eq!(v.code(), 0);
        assert_eq!(v.elem_bytes(), 8);
    }

    #[test]
    fn compressed_only_demotes() {
        assert!(BasisStore::<f64>::compressed(8, 2, Precision::Fp64).is_native());
        assert!(BasisStore::<f32>::compressed(8, 2, Precision::Fp32).is_native());
        assert!(!BasisStore::<f64>::compressed(8, 2, Precision::Fp32).is_native());
        assert!(!BasisStore::<f32>::compressed(8, 2, Precision::Fp16).is_native());
    }

    #[test]
    fn codes_and_bytes_are_per_precision() {
        let f32b = BasisStore::<f64>::compressed(4, 1, Precision::Fp32);
        let f16b = BasisStore::<f64>::compressed(4, 1, Precision::Fp16);
        assert_eq!((f32b.code(), f32b.elem_bytes()), (2, 4));
        assert_eq!((f16b.code(), f16b.elem_bytes()), (1, 2));
    }

    #[test]
    fn set_col_roundtrip_is_single_rounding_fp32() {
        let n = 256;
        let x = pseudo(n, 3);
        let mut v = BasisStore::<f64>::compressed(n, 2, Precision::Fp32);
        v.set_col(0, &x);
        let mut back = vec![0.0f64; n];
        v.promote_col(0, &mut back);
        for (b, &xi) in back.iter().zip(&x) {
            // Promotion of the correctly-rounded demotion: within half
            // an fp32 ULP of the original, and exactly the f32 cast.
            assert_eq!(*b, f64::from(xi as f32));
            assert_eq!(ulp_diff_f32(*b as f32, xi as f32), 0);
        }
    }

    #[test]
    fn compressed_gemv_t_matches_promoted_reference() {
        let (n, cols) = (100, 3);
        let mut v = BasisStore::<f64>::compressed(n, cols, Precision::Fp32);
        let mut promoted = MultiVector::<f64>::zeros(n, cols);
        for j in 0..cols {
            let c = pseudo(n, 40 + j as u64);
            v.set_col(j, &c);
            let wide: Vec<f64> = c.iter().map(|&x| f64::from(x as f32)).collect();
            promoted.set_col(j, &wide);
        }
        let w = pseudo(n, 9);
        let (mut h_c, mut h_p) = (vec![0.0; cols], vec![0.0; cols]);
        for order in [
            ReductionOrder::Sequential,
            ReductionOrder::BlockedTree { block: 7 },
        ] {
            v.gemv_t(cols, &w, &mut h_c, order);
            promoted.gemv_t(cols, &w, &mut h_p, order);
            // One widening per element then identical arithmetic: the
            // compressed kernel must equal the promoted native kernel
            // bit for bit.
            assert_eq!(h_c, h_p);
        }
        let (mut wc, mut wp) = (w.clone(), w.clone());
        v.gemv_n_sub(cols, &h_c, &mut wc);
        promoted.gemv_n_sub(cols, &h_c, &mut wp);
        assert_eq!(wc, wp);
        v.gemv_n_add(cols, &h_c, &mut wc);
        promoted.gemv_n_add(cols, &h_c, &mut wp);
        assert_eq!(wc, wp);
    }

    #[test]
    fn scal_copy_col_rounds_the_product_once() {
        let n = 64;
        let src = pseudo(n, 11);
        let alpha = 1.0 / 3.0f64;
        let mut v = BasisStore::<f64>::compressed(n, 1, Precision::Fp32);
        v.scal_copy_col(0, alpha, &src);
        let mut out = vec![0.0f64; n];
        v.promote_col(0, &mut out);
        for (o, &s) in out.iter().zip(&src) {
            assert_eq!(*o, f64::from((s * alpha) as f32));
        }
        // Native arm: identical to copy-then-scale.
        let mut nv = BasisStore::<f64>::native(n, 1);
        nv.scal_copy_col(0, alpha, &src);
        for (got, &s) in nv.expect_native().col(0).iter().zip(&src) {
            assert_eq!(ulp_diff_f64(*got, s * alpha), 0);
        }
    }

    #[test]
    fn fp16_path_converges_to_storage_eps() {
        let n = 128;
        let x = pseudo(n, 21);
        let mut v = BasisStore::<f64>::compressed(n, 1, Precision::Fp16);
        v.set_col(0, &x);
        let mut back = vec![0.0f64; n];
        v.promote_col(0, &mut back);
        for (b, &xi) in back.iter().zip(&x) {
            assert!((b - xi).abs() <= Precision::Fp16.eps() * xi.abs().max(1e-8));
        }
        assert_eq!(v.code(), 1);
        assert_eq!(v.elem_bytes(), 2);
    }

    #[test]
    #[should_panic(expected = "native-only")]
    fn native_accessor_rejects_compressed() {
        let v = BasisStore::<f64>::compressed(4, 1, Precision::Fp32);
        let _ = v.expect_native();
    }
}
