//! Chebyshev polynomial preconditioner.
//!
//! The classic fixed-polynomial alternative to the GMRES polynomial of
//! [`crate::precond::poly`] for SPD operators: given bounds
//! `[lambda_min, lambda_max]` on the spectrum, the degree-d Chebyshev
//! polynomial minimizes the max-norm of the residual polynomial over the
//! interval. Like the GMRES polynomial it is pure SpMV + AXPY — exactly
//! the kernel mix that profits most from fp32 on the simulated GPU — and
//! unlike it, no Arnoldi process or eigensolve is needed, only the two
//! bounds (estimated here with a short power iteration, Gershgorin for
//! the lower end).
//!
//! This is an extension beyond the paper (its follow-up work compares
//! GMRES vs Chebyshev polynomials); included for the ablation studies.

use mpgmres_backend::BackendScalar;

use crate::context::{GpuContext, GpuMatrix};
use crate::precond::Preconditioner;
use crate::Stream;

/// Error from Chebyshev construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChebyshevError {
    /// The spectral bound estimate collapsed (zero or non-finite).
    BadBounds {
        /// Estimated lower bound.
        lo: f64,
        /// Estimated upper bound.
        hi: f64,
    },
}

impl core::fmt::Display for ChebyshevError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChebyshevError::BadBounds { lo, hi } => {
                write!(f, "unusable spectral bounds [{lo}, {hi}]")
            }
        }
    }
}

impl std::error::Error for ChebyshevError {}

/// Chebyshev polynomial approximation of `A^{-1}` on `[lo, hi]`.
#[derive(Clone, Debug)]
pub struct ChebyshevPreconditioner {
    degree: usize,
    lo: f64,
    hi: f64,
}

impl ChebyshevPreconditioner {
    /// Build with explicit spectral bounds `0 < lo <= hi`.
    pub fn with_bounds(degree: usize, lo: f64, hi: f64) -> Result<Self, ChebyshevError> {
        if !(lo > 0.0 && hi >= lo && hi.is_finite()) {
            return Err(ChebyshevError::BadBounds { lo, hi });
        }
        assert!(degree >= 1);
        Ok(ChebyshevPreconditioner { degree, lo, hi })
    }

    /// Build by estimating the bounds: `hi` from a few power-iteration
    /// steps (inflated 5%), `lo` as `hi / kappa_guess` with the standard
    /// smoother convention `kappa_guess = 30` unless a tighter guess is
    /// supplied.
    pub fn build<S: BackendScalar>(
        ctx: &mut GpuContext,
        a: &GpuMatrix<S>,
        degree: usize,
        kappa_guess: Option<f64>,
    ) -> Result<Self, ChebyshevError> {
        let n = a.n();
        let mut v: Vec<S> = (0..n)
            .map(|i| S::from_f64(if i % 2 == 0 { 1.0 } else { -0.7 } / (n as f64).sqrt()))
            .collect();
        let mut w = vec![S::zero(); n];
        let mut hi_est = 0.0f64;
        for _ in 0..12 {
            let mut norm = S::zero();
            {
                let mut st = Stream::eager(ctx);
                let (ah, vh, wh) = (st.matrix(a), st.slice(&v), st.slice_mut(&mut w));
                let nh = st.val_mut(&mut norm);
                st.spmv(ah, vh, wh);
                st.norm2_into(wh.read(), nh);
            }
            let norm = norm.to_f64();
            if !(norm > 0.0) || !norm.is_finite() {
                return Err(ChebyshevError::BadBounds { lo: 0.0, hi: norm });
            }
            hi_est = norm;
            let inv = S::from_f64(1.0 / norm);
            for (vi, &wi) in v.iter_mut().zip(&w) {
                *vi = wi * inv;
            }
        }
        let hi = hi_est * 1.05;
        let lo = hi / kappa_guess.unwrap_or(30.0);
        Self::with_bounds(degree, lo, hi)
    }

    /// The interval the polynomial targets.
    pub fn bounds(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Polynomial degree.
    pub fn degree(&self) -> usize {
        self.degree
    }
}

impl<S: BackendScalar> Preconditioner<S> for ChebyshevPreconditioner {
    fn apply(&self, ctx: &mut GpuContext, a: Option<&GpuMatrix<S>>, x: &[S], y: &mut [S]) {
        let a = a.expect("chebyshev preconditioner needs the plain matrix");
        // Standard Chebyshev iteration applied to A y = x from y0 = 0;
        // after `degree` steps, y = p(A) x with the Chebyshev residual
        // polynomial on [lo, hi].
        let n = x.len();
        let theta = 0.5 * (self.hi + self.lo);
        let delta = 0.5 * (self.hi - self.lo);
        let mut r = x.to_vec(); // r0 = x - A*0 = x
        let mut d = vec![S::zero(); n];
        let mut t = vec![S::zero(); n];
        for yi in y.iter_mut() {
            *yi = S::zero();
        }

        let mut alpha = 1.0 / theta;
        // d0 = r0 / theta.
        for (di, &ri) in d.iter_mut().zip(&r) {
            *di = ri * S::from_f64(alpha);
        }
        let sigma = theta / delta.max(1e-300);
        let mut rho = 1.0 / sigma;
        for k in 0..self.degree {
            // y += d; r -= A d.
            {
                let mut st = Stream::eager(ctx);
                let (dh, yh) = (st.slice(&d), st.slice_mut(&mut *y));
                st.axpy(S::one(), dh, yh);
                if k + 1 < self.degree {
                    let (ah, th, rh) = (st.matrix(a), st.slice_mut(&mut t), st.slice_mut(&mut r));
                    st.spmv(ah, dh, th);
                    st.axpy(-S::one(), th.read(), rh);
                }
            }
            if k + 1 == self.degree {
                break;
            }
            let rho_next = 1.0 / (2.0 * sigma - rho);
            let beta = rho * rho_next;
            alpha = 2.0 * rho_next / delta;
            // d = alpha * r + beta * d.
            for (di, &ri) in d.iter_mut().zip(&r) {
                *di = S::from_f64(alpha) * ri + S::from_f64(beta) * *di;
            }
            ctx.charge_host_flops(2 * n);
            rho = rho_next;
        }
    }

    fn describe(&self) -> String {
        format!("chebyshev({})", self.degree)
    }

    fn spmvs_per_apply(&self) -> usize {
        self.degree.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GmresConfig;
    use crate::gmres::Gmres;
    use crate::precond::Identity;
    use crate::status::SolveStatus;
    use mpgmres_gpusim::DeviceModel;
    use mpgmres_la::coo::Coo;
    use mpgmres_la::vec_ops::ReductionOrder;

    fn ctx() -> GpuContext {
        GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::Sequential)
    }

    fn laplace1d(n: usize) -> GpuMatrix<f64> {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        GpuMatrix::new(coo.into_csr())
    }

    #[test]
    fn bounds_validation() {
        assert!(ChebyshevPreconditioner::with_bounds(5, 0.0, 1.0).is_err());
        assert!(ChebyshevPreconditioner::with_bounds(5, 2.0, 1.0).is_err());
        assert!(ChebyshevPreconditioner::with_bounds(5, 0.1, 4.0).is_ok());
    }

    #[test]
    fn power_iteration_finds_lambda_max() {
        // 1D Laplacian: lambda_max = 2 + 2 cos(pi/(n+1)) -> just under 4.
        let a = laplace1d(64);
        let mut c = ctx();
        let ch = ChebyshevPreconditioner::build(&mut c, &a, 8, None).unwrap();
        let (_, hi) = ch.bounds();
        assert!((3.5..=4.4).contains(&hi), "lambda_max estimate {hi}");
    }

    #[test]
    fn exact_interval_makes_strong_preconditioner() {
        // With true spectral bounds, Chebyshev(10) should cut GMRES
        // iterations by several-fold on the 1D Laplacian.
        let n = 128;
        let a = laplace1d(n);
        let b = vec![1.0f64; n];
        let lam_min = 2.0 - 2.0 * (std::f64::consts::PI / (n as f64 + 1.0)).cos();
        let ch = ChebyshevPreconditioner::with_bounds(10, lam_min, 4.0).unwrap();
        let cfg = GmresConfig::default().with_m(40).with_max_iters(10_000);
        let mut x = vec![0.0f64; n];
        let plain = Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        let mut xc = vec![0.0f64; n];
        let prec = Gmres::new(&a, &ch, cfg).solve(&mut ctx(), &b, &mut xc);
        assert_eq!(prec.status, SolveStatus::Converged);
        assert!(
            prec.iterations * 3 <= plain.iterations,
            "chebyshev too weak: {} vs {}",
            prec.iterations,
            plain.iterations
        );
        // Both solutions solve the same system.
        let mut r = vec![0.0; n];
        a.csr().residual(&b, &xc, &mut r);
        assert!(mpgmres_la::vec_ops::norm2(&r) <= 1e-9 * (n as f64).sqrt());
    }

    #[test]
    fn spmv_count_matches_contract() {
        let a = laplace1d(32);
        let ch = ChebyshevPreconditioner::with_bounds(6, 0.01, 4.0).unwrap();
        let mut c = ctx();
        let x = vec![1.0f64; 32];
        let mut y = vec![0.0f64; 32];
        Preconditioner::apply(&ch, &mut c, Some(&a), &x, &mut y);
        let spmvs = c
            .profiler()
            .class_stats(mpgmres_gpusim::KernelClass::SpMV)
            .calls;
        assert_eq!(
            spmvs as usize,
            <ChebyshevPreconditioner as Preconditioner<f64>>::spmvs_per_apply(&ch)
        );
    }

    #[test]
    fn works_in_fp32_under_ir() {
        use crate::config::IrConfig;
        use crate::ir::GmresIr;
        let n = 96;
        let a = laplace1d(n);
        let b = vec![1.0f64; n];
        let lam_min = 2.0 - 2.0 * (std::f64::consts::PI / (n as f64 + 1.0)).cos();
        let ch = ChebyshevPreconditioner::with_bounds(8, lam_min, 4.0).unwrap();
        let mut x = vec![0.0f64; n];
        let res = GmresIr::<f32, f64>::new(&a, &ch, IrConfig::default().with_m(20)).solve(
            &mut ctx(),
            &b,
            &mut x,
        );
        assert_eq!(res.status, SolveStatus::Converged);
    }
}
