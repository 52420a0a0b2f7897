//! Split-precision sparse matrix storage (extension; the paper's §V-D
//! points to Ahmad, Sundar & Hall, "Data-Driven Mixed Precision Sparse
//! Matrix Vector Multiplication for GPUs" — ref. \[21\] — for this idea).
//!
//! Entries whose magnitude is below a threshold are stored in a lower
//! precision; the SpMV ([`crate::store::MatrixStore::Split`]) widens
//! every stored value into the working precision and accumulates each
//! row once, hi bucket first. For matrices whose values span many orders of magnitude, most entries
//! can ride in fp32 while the few large ones keep fp64, cutting memory
//! traffic (the only thing that matters for SpMV) without iterative
//! refinement.

use mpgmres_scalar::{cast, Scalar};

use crate::coo::Coo;
use crate::csr::Csr;

/// A matrix split into a high-precision part (large entries) and a
/// low-precision part (small entries) over the same row space. The
/// kernels that run it are [`crate::store::MatrixStore::Split`]'s: one
/// accumulation per row in the working precision, hi bucket first.
#[derive(Clone, Debug)]
pub struct SplitCsr<Hi, Lo> {
    hi: Csr<Hi>,
    lo: Csr<Lo>,
}

impl<Hi: Scalar, Lo: Scalar> SplitCsr<Hi, Lo> {
    /// Split `a`: entries with `|v| >= threshold` stay in `Hi`, the rest
    /// are rounded once into `Lo`. A threshold that sends every entry
    /// to one side leaves the other side an empty matrix;
    /// [`crate::store::MatrixStore::split_threshold`] never builds such
    /// a split (it collapses to a one-bucket store instead).
    pub fn split(a: &Csr<Hi>, threshold: f64) -> Self {
        assert!(threshold >= 0.0);
        let (nr, nc) = (a.nrows(), a.ncols());
        let mut hi = Coo::with_capacity(nr, nc, a.nnz());
        let mut lo = Coo::new(nr, nc);
        for r in 0..nr {
            for (c, v) in a.row(r) {
                if v.to_f64().abs() >= threshold {
                    hi.push(r, c, v);
                } else {
                    lo.push(r, c, cast::<Hi, Lo>(v));
                }
            }
        }
        SplitCsr {
            hi: hi.into_csr(),
            lo: lo.into_csr(),
        }
    }

    /// The high-precision part.
    pub fn hi(&self) -> &Csr<Hi> {
        &self.hi
    }

    /// The low-precision part.
    pub fn lo(&self) -> &Csr<Lo> {
        &self.lo
    }

    /// Value bytes of the split storage (what the §V-D traffic model
    /// charges for the matrix stream).
    pub fn value_bytes(&self) -> usize {
        self.hi.nnz() * Hi::BYTES + self.lo.nnz() * Lo::BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpgmres_scalar::Half;

    /// The low part holds each small entry rounded once into `Lo`, here
    /// fp16 (the store's split fixes fp32, so this width is checked on
    /// the split itself): every entry lands in exactly one bucket, in
    /// its own row and column, and the value bytes count 2 per demoted
    /// entry.
    #[test]
    fn half_low_part_rounds_each_small_entry_once() {
        let n = 32;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 10.0);
            if i + 1 < n {
                coo.push(i, i + 1, 1e-3 * (1.0 + i as f64 / n as f64));
            }
        }
        let a = coo.into_csr();
        let s: SplitCsr<f64, Half> = SplitCsr::split(&a, 1e-2);
        assert_eq!((s.hi().nnz(), s.lo().nnz()), (n, n - 1));
        assert_eq!(s.value_bytes(), n * 8 + (n - 1) * 2);
        for r in 0..n {
            for (c, v) in a.row(r) {
                if v.abs() >= 1e-2 {
                    assert!(s.hi().row(r).any(|e| e == (c, v)), "({r},{c}) in hi");
                } else {
                    let want = Half::from_f64(v);
                    assert!(s.lo().row(r).any(|e| e == (c, want)), "({r},{c}) in lo");
                }
            }
        }
    }
}
