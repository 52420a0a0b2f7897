//! Kernel dimension contracts of the kernels `GpuContext` dispatches
//! directly.
//!
//! `GpuContext`'s direct kernel methods validate their call here before
//! charging the profiler and dispatching to the backend, so individual
//! backends can assume well-shaped inputs. Matrix and Krylov-basis ops
//! run through `mpgmres::Stream`, whose record calls own their own
//! shape checks. (The reference kernels in `mpgmres-la` keep their own
//! cheap asserts as defense in depth for direct users of that crate.)

use mpgmres_la::multivec::MultiVec;
use mpgmres_la::multivector::MultiVector;
use mpgmres_la::store::MatrixStore;
use mpgmres_scalar::Scalar;

/// GEMV over the first `ncols` basis columns: the column budget, the
/// vector length, and the coefficient slice must all agree.
#[inline]
pub fn gemv<S: Scalar>(v: &MultiVector<S>, ncols: usize, vec: &[S], coeff: &[S]) {
    assert!(
        ncols <= v.max_cols(),
        "backend gemv: {ncols} columns requested but only {} allocated",
        v.max_cols()
    );
    assert_eq!(
        vec.len(),
        v.n(),
        "backend gemv: vector has length {} but V has {} rows",
        vec.len(),
        v.n()
    );
    assert!(
        coeff.len() >= ncols,
        "backend gemv: coefficient slice has length {} but {ncols} columns requested",
        coeff.len()
    );
}

/// Storage-path `y = A x`: `x` must match the column count, `y` the
/// row count.
#[inline]
pub fn store_spmv<S: Scalar>(a: &MatrixStore<S>, x: &[S], y: &[S]) {
    assert_eq!(
        x.len(),
        a.ncols(),
        "backend store_spmv: x has length {} but A has {} columns",
        x.len(),
        a.ncols()
    );
    assert_eq!(
        y.len(),
        a.nrows(),
        "backend store_spmv: y has length {} but A has {} rows",
        y.len(),
        a.nrows()
    );
}

/// A block and a per-column scalar slice (block_norm2).
#[inline]
pub fn block_scalars<S: Scalar>(op: &'static str, x: &MultiVec<S>, k: usize, out: &[S]) {
    assert!(
        k <= x.k(),
        "backend {op}: {k} columns requested but the block has {}",
        x.k()
    );
    assert!(
        out.len() >= k,
        "backend {op}: scalar slice has length {} but {k} columns requested",
        out.len()
    );
}

/// Lane-set kernels: matching lane counts and per-lane equal lengths.
#[inline]
pub fn lanes<S: Scalar>(op: &'static str, srcs: &[&[S]], dsts: &[&mut [S]]) {
    assert_eq!(
        srcs.len(),
        dsts.len(),
        "backend {op}: {} sources but {} destinations",
        srcs.len(),
        dsts.len()
    );
    for (c, (s, d)) in srcs.iter().zip(dsts.iter()).enumerate() {
        assert_eq!(
            s.len(),
            d.len(),
            "backend {op}: lane {c} length mismatch ({} vs {})",
            s.len(),
            d.len()
        );
        // Lane sets are uniform-length by contract: the cost model and
        // the parallel threshold both key off lane 0's length.
        assert_eq!(
            s.len(),
            srcs[0].len(),
            "backend {op}: lane {c} length {} differs from lane 0's {}",
            s.len(),
            srcs[0].len()
        );
    }
}

/// Two equal-length vectors (dot, axpy).
#[inline]
pub fn same_len<S: Scalar>(op: &'static str, x: &[S], y: &[S]) {
    assert_eq!(
        x.len(),
        y.len(),
        "backend {op}: length mismatch ({} vs {})",
        x.len(),
        y.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_shapes_pass() {
        let v = [0.0; 3];
        let mv = MultiVector::<f64>::zeros(3, 2);
        gemv(&mv, 2, &v, &[0.0; 2]);
        same_len("dot", &v, &v);
        let block = MultiVec::<f64>::zeros(3, 2);
        block_scalars("block_norm2", &block, 2, &[0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "backend gemv: 5 columns requested")]
    fn gemv_column_overflow_panics() {
        let mv = MultiVector::<f64>::zeros(3, 2);
        gemv(&mv, 5, &[0.0; 3], &[0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "backend dot: length mismatch")]
    fn dot_length_mismatch_panics() {
        same_len::<f64>("dot", &[0.0; 2], &[0.0; 3]);
    }
}
