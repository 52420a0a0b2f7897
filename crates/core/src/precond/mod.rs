//! Preconditioners (paper §III-D).
//!
//! The paper deliberately avoids LU-type preconditioning (fill, memory,
//! and non-parallelizable triangular solves make it a poor fit for GPUs)
//! and studies GPU-friendly alternatives instead: the GMRES polynomial
//! ([`poly`]) and block Jacobi ([`block_jacobi`]). Right preconditioning
//! `A M^{-1} (M x) = b` is used everywhere so preconditioned residuals
//! match unpreconditioned ones in exact arithmetic.
//!
//! [`mixed`] provides §III-D case (a): an fp32 preconditioner applied
//! inside an fp64 solve, casting on every application.

pub mod block_jacobi;
pub mod mixed;
pub mod poly;

use mpgmres_scalar::Scalar;

use crate::context::{GpuContext, GpuMatrix};

/// A right preconditioner `M^{-1}`.
///
/// `apply` computes `y = M^{-1} x` with kernels recorded on streams of
/// `ctx`. The crate's preconditioners open eager streams, so each op
/// charges at its record call and an apply is a serial chain on the
/// timeline. The operator `A` is passed in so that matrix-polynomial
/// preconditioners can record their SpMVs without owning the matrix.
/// It is `None` when the
/// solver holds the operator only as a packed [`crate::MatrixStore`]
/// (non-Native [`crate::StorePath`]s): preconditioners that report
/// `needs_matrix() == false` (block Jacobi, the identity, cast wrappers
/// that own their low-precision copy) must work in that case, applying in
/// working precision while the SpMVs stream narrow values.
pub trait Preconditioner<S: Scalar>: Send + Sync {
    /// `y = M^{-1} x`. Implementations with `needs_matrix() == true` may
    /// unwrap `a`; the solver boundary guarantees it is `Some` for them.
    fn apply(&self, ctx: &mut GpuContext, a: Option<&GpuMatrix<S>>, x: &[S], y: &mut [S]);

    /// Human-readable description for reports (e.g. `"poly(40)"`).
    fn describe(&self) -> String;

    /// `true` for the identity (lets the solver skip the apply and its
    /// buffer traffic entirely).
    fn is_identity(&self) -> bool {
        false
    }

    /// `true` when `apply` dereferences the `A` passed to it (polynomial
    /// preconditioners running their own SpMVs). Such preconditioners are
    /// rejected with [`crate::SolveError::UnsupportedCombination`] on
    /// non-Native storage paths, where no plain matrix exists.
    fn needs_matrix(&self) -> bool {
        true
    }

    /// SpMV applications of `A` per preconditioner application (drives
    /// the arithmetic-complexity discussion of §V-F).
    fn spmvs_per_apply(&self) -> usize {
        0
    }

    /// The vector length `apply` was built for, when it is fixed at
    /// build time (block Jacobi's factors, a cast wrapper's matrix
    /// copy); `None` when any length works. Solver entry points reject
    /// a mismatch with [`crate::SolveError::DimensionMismatch`] before
    /// anything runs.
    fn dim(&self) -> Option<usize> {
        None
    }
}

/// Reject a preconditioner built for another vector length than the
/// `n`-row operator it is paired with.
pub(crate) fn check_dim<S: Scalar>(
    precond: &dyn Preconditioner<S>,
    n: usize,
) -> Result<(), crate::SolveError> {
    match precond.dim() {
        Some(got) if got != n => Err(crate::SolveError::DimensionMismatch {
            what: "preconditioner dimension",
            expected: n,
            got,
        }),
        _ => Ok(()),
    }
}

/// No preconditioning.
#[derive(Clone, Copy, Debug, Default)]
pub struct Identity;

impl<S: Scalar> Preconditioner<S> for Identity {
    fn apply(&self, _ctx: &mut GpuContext, _a: Option<&GpuMatrix<S>>, x: &[S], y: &mut [S]) {
        y.copy_from_slice(x);
    }

    fn describe(&self) -> String {
        "none".to_string()
    }

    fn is_identity(&self) -> bool {
        true
    }

    fn needs_matrix(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpgmres_gpusim::DeviceModel;
    use mpgmres_la::csr::Csr;

    #[test]
    fn identity_copies_and_charges_nothing() {
        let a = GpuMatrix::new(Csr::<f64>::identity(4));
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = [0.0; 4];
        Preconditioner::apply(&Identity, &mut ctx, Some(&a), &x, &mut y);
        assert_eq!(x, y);
        assert_eq!(ctx.elapsed(), 0.0);
        assert!(Preconditioner::<f64>::is_identity(&Identity));
        assert!(!Preconditioner::<f64>::needs_matrix(&Identity));
        assert_eq!(Preconditioner::<f64>::spmvs_per_apply(&Identity), 0);
    }
}
