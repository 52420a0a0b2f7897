//! Three-precision GMRES-IR — the paper's future work (§VI: "Since
//! Kokkos is enabling support for half precision, we will also study ways
//! to incorporate a third level of precision into the GMRES-IR solver
//! while maintaining high accuracy").
//!
//! Structure: a two-level refinement ladder.
//!
//! ```text
//! outer (fp64): r = b - A x            <- true residual
//!   middle (fp32): GMRES-IR solves A u = r to ~fp32 accuracy,
//!     inner (fp16): each middle refinement cycle runs GMRES(m)
//!                   entirely in half precision
//! ```
//!
//! Each level normalizes its residual before casting down (GMRES is scale
//! invariant), which keeps fp16's 5-bit exponent in range — without that,
//! residuals below 6.1e-5 underflow to zero and the ladder collapses.
//! The middle level is this crate's [`GmresIr`] with `Lo = Half`,
//! `Hi = f32`; the outer loop is the same Algorithm 2 shape in fp64.

use mpgmres_gpusim::KernelClass;
use mpgmres_scalar::Half;
use serde::Serialize;

use crate::config::{IrConfig, StorePath};
use crate::context::{GpuContext, GpuMatrix};
use crate::ir::GmresIr;
use crate::precond::{Identity, Preconditioner};
use crate::service::{
    Disposition, Operator, RequestId, SolveError, SolveOutcome, SolveRequest, Solver,
};
use crate::status::{HistoryKind, HistoryPoint, SolveResult, SolveStatus};
use crate::Stream;

/// Configuration for the three-precision ladder.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Ir3Config {
    /// Inner (fp16) restart length.
    pub m: usize,
    /// Relative tolerance each middle (fp32) solve aims for — should sit
    /// near fp32's attainable floor; the default 1e-5 matches the paper's
    /// observation that fp32 solvers reach ~1e-5..1e-6.
    pub mid_rtol: f64,
    /// Cap on inner iterations per middle solve.
    pub mid_max_iters: usize,
    /// Outer (fp64) relative residual tolerance.
    pub rtol: f64,
    /// Cap on total inner iterations across everything.
    pub max_iters: usize,
    /// Storage path of the innermost (fp16-working) matrix operand,
    /// forwarded to the middle [`GmresIr`]'s configuration.
    pub store: StorePath,
}

impl Default for Ir3Config {
    fn default() -> Self {
        Ir3Config {
            m: 50,
            mid_rtol: 1e-5,
            mid_max_iters: 2_000,
            rtol: 1e-10,
            max_iters: 200_000,
            store: StorePath::Native,
        }
    }
}

/// Three-precision iterative refinement: fp16 inner GMRES, fp32 middle
/// refinement, fp64 outer refinement.
pub struct GmresIr3<'a> {
    a_hi: &'a GpuMatrix<f64>,
    a_mid: GpuMatrix<f32>,
    precond_lo: &'a dyn Preconditioner<Half>,
    cfg: Ir3Config,
}

impl<'a> Solver<'a, f64> for GmresIr3<'a> {
    /// Serve one [`SolveRequest`] with the identity fp16
    /// preconditioner; see [`GmresIr3::serve_with`] for an explicit
    /// low-precision preconditioner.
    fn serve(
        ctx: &mut GpuContext,
        req: &SolveRequest<'a, '_, f64>,
    ) -> Result<SolveOutcome<f64>, SolveError> {
        Self::serve_with(ctx, req, &Identity)
    }
}

impl<'a> GmresIr3<'a> {
    /// Build the ladder; fp32 and fp16 matrix copies are made here (the
    /// fp16 copy lives inside the middle solver). Panics on an
    /// unsupported combination; see [`GmresIr3::try_new`].
    pub fn new(
        a_hi: &'a GpuMatrix<f64>,
        precond_lo: &'a dyn Preconditioner<Half>,
        cfg: Ir3Config,
    ) -> Self {
        Self::try_new(a_hi, precond_lo, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`GmresIr3::new`] with typed errors: a non-native innermost
    /// storage path supports exactly the matrix-free preconditioners
    /// ([`Preconditioner::needs_matrix`] is `false`), mirroring
    /// [`crate::GmresIr::try_new`].
    pub fn try_new(
        a_hi: &'a GpuMatrix<f64>,
        precond_lo: &'a dyn Preconditioner<Half>,
        cfg: Ir3Config,
    ) -> Result<Self, SolveError> {
        if !matches!(cfg.store, StorePath::Native) && precond_lo.needs_matrix() {
            return Err(SolveError::UnsupportedCombination(format!(
                "preconditioner '{}' needs the plain matrix at apply time, \
                 which the packed innermost operand of a non-native storage \
                 path does not carry",
                precond_lo.describe()
            )));
        }
        Ok(GmresIr3 {
            a_hi,
            a_mid: a_hi.convert::<f32>(),
            precond_lo,
            cfg,
        })
    }

    /// Serve one [`SolveRequest`] through the three-precision ladder
    /// with an explicit fp16 preconditioner. The request's own
    /// preconditioner field lives in fp64 and cannot run in fp16
    /// arithmetic, so it must be the identity.
    pub fn serve_with(
        ctx: &mut GpuContext,
        req: &SolveRequest<'a, '_, f64>,
        precond_lo: &'a dyn Preconditioner<Half>,
    ) -> Result<SolveOutcome<f64>, SolveError> {
        req.validate()?;
        if !req.precond.is_identity() {
            return Err(SolveError::UnsupportedCombination(
                "GMRES-IR3 applies its preconditioner in fp16; pass it as \
                 `precond_lo` and leave the request's own preconditioner at \
                 the identity"
                    .into(),
            ));
        }
        let a = match req.operator {
            Operator::Matrix(a) => a,
            Operator::Store(_) => {
                return Err(SolveError::UnsupportedCombination(
                    "GMRES-IR3 needs the plain fp64 matrix for its outer \
                     residual; select a storage path for the innermost \
                     operand via the request's `store` field instead"
                        .into(),
                ))
            }
        };
        let cfg = Ir3Config {
            m: req.config.m,
            rtol: req.config.rtol,
            max_iters: req.config.max_iters,
            store: req.store,
            ..Ir3Config::default()
        };
        let ladder = Self::try_new(a, precond_lo, cfg)?;
        let n = a.n();
        let mut x = req
            .x0
            .map(|x| x.to_vec())
            .unwrap_or_else(|| vec![0.0f64; n]);
        let start = ctx.elapsed();
        let result = ladder.solve(ctx, req.rhs, &mut x);
        Ok(SolveOutcome {
            id: RequestId(0),
            x,
            result: Some(result),
            disposition: Disposition::Completed,
            degraded: None,
            queued_seconds: 0.0,
            solve_seconds: ctx.elapsed() - start,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &Ir3Config {
        &self.cfg
    }

    /// Solve `A x = b`; `x` carries the initial guess in, solution out.
    pub fn solve(&self, ctx: &mut GpuContext, b: &[f64], x: &mut [f64]) -> SolveResult {
        let n = self.a_hi.n();
        // The request surface reports these as SolveError::DimensionMismatch;
        // callers reaching the raw driver keep the debug-build guard.
        debug_assert_eq!(b.len(), n);
        debug_assert_eq!(x.len(), n);

        let mid_cfg = IrConfig {
            m: self.cfg.m,
            rtol: self.cfg.mid_rtol,
            max_iters: self.cfg.mid_max_iters,
            inner_early_exit: None,
            record_history: false,
            store: self.cfg.store,
        };
        let middle = GmresIr::<Half, f32>::new(&self.a_mid, self.precond_lo, mid_cfg);
        // The fp64 refinement step records as its own region.
        let outer_residual = |ctx: &mut GpuContext, x: &[f64], r: &mut [f64], norm: &mut [f64]| {
            let mut st = ctx.stream();
            let ah = st.matrix(self.a_hi);
            let bh = st.slice(b);
            let xh = st.slice(x);
            let rh = st.slice_mut(r);
            let nh = st.slice_mut(norm);
            st.residual_as(KernelClass::ResidualHi, ah, bh, xh, rh);
            st.norm2_into_as(KernelClass::ResidualHi, rh.read(), nh.at(0));
            st.sync();
        };

        let mut history: Vec<HistoryPoint> = Vec::new();
        let mut r = vec![0.0f64; n];
        let mut r_mid = vec![0.0f32; n];
        let mut u_mid = vec![0.0f32; n];
        let mut u_hi = vec![0.0f64; n];
        let mut nbuf = vec![0.0f64; 1];

        outer_residual(ctx, x, &mut r, &mut nbuf);
        let mut rnorm = nbuf[0];
        let r0 = rnorm;
        if r0 == 0.0 {
            return SolveResult {
                status: SolveStatus::Converged,
                iterations: 0,
                restarts: 0,
                final_relative_residual: 0.0,
                history,
            };
        }
        if !r0.is_finite() {
            return SolveResult {
                status: SolveStatus::Breakdown,
                iterations: 0,
                restarts: 0,
                final_relative_residual: f64::NAN,
                history,
            };
        }

        let mut total = 0usize;
        let mut outer = 0usize;
        let status;
        loop {
            let rel = rnorm / r0;
            history.push(HistoryPoint {
                iteration: total,
                relative_residual: rel,
                kind: HistoryKind::Explicit,
            });
            if rel <= self.cfg.rtol {
                status = SolveStatus::Converged;
                break;
            }
            if total >= self.cfg.max_iters {
                status = SolveStatus::MaxIters;
                break;
            }

            // Normalize, cast fp64 -> fp32, run the middle IR solver.
            {
                let mut st = Stream::eager(ctx);
                let (rh, rmh) = (st.slice_mut(&mut r), st.slice_mut(&mut r_mid));
                st.scal(1.0 / rnorm, rh);
                st.cast(KernelClass::CastHost, rh.read(), rmh);
            }
            for u in u_mid.iter_mut() {
                *u = 0.0;
            }
            let mid_res = middle.solve(ctx, &r_mid, &mut u_mid);
            if mid_res.iterations == 0 {
                status = SolveStatus::Breakdown;
                break;
            }
            total += mid_res.iterations;
            outer += 1;

            {
                let mut st = Stream::eager(ctx);
                let (umh, uh) = (st.slice(&u_mid), st.slice_mut(&mut u_hi));
                let xh = st.slice_mut(&mut *x);
                st.cast(KernelClass::CastHost, umh, uh);
                st.axpy(rnorm, uh.read(), xh);
            }
            outer_residual(ctx, x, &mut r, &mut nbuf);
            let new_norm = nbuf[0];
            if !new_norm.is_finite() {
                status = SolveStatus::Breakdown;
                break;
            }
            if new_norm >= rnorm * 0.999 {
                // The middle+inner ladder can no longer reduce the true
                // residual (fp16 too weak for this operator): stop rather
                // than loop forever.
                rnorm = new_norm;
                status = SolveStatus::MaxIters;
                break;
            }
            rnorm = new_norm;
        }

        SolveResult {
            status,
            iterations: total,
            restarts: outer,
            final_relative_residual: rnorm / r0,
            history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::Identity;
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
    fn three_precision_ladder_reaches_fp64_accuracy() {
        let n = 32;
        let a = laplace1d(n);
        let b = vec![1.0f64; n];
        let mut x = vec![0.0f64; n];
        let cfg = Ir3Config {
            m: 32,
            ..Ir3Config::default()
        };
        let res = GmresIr3::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        assert_eq!(
            res.status,
            SolveStatus::Converged,
            "rel {}",
            res.final_relative_residual
        );
        let mut r = vec![0.0; n];
        a.csr().residual(&b, &x, &mut r);
        let rel = mpgmres_la::vec_ops::norm2(&r) / mpgmres_la::vec_ops::norm2(&b);
        assert!(rel <= 1.5e-10, "true residual {rel:e}");
    }

    #[test]
    fn ladder_uses_both_cast_levels() {
        let n = 24;
        let a = laplace1d(n);
        let b = vec![1.0f64; n];
        let mut x = vec![0.0f64; n];
        let mut c = ctx();
        let cfg = Ir3Config {
            m: 24,
            ..Ir3Config::default()
        };
        let res = GmresIr3::new(&a, &Identity, cfg).solve(&mut c, &b, &mut x);
        assert_eq!(res.status, SolveStatus::Converged);
        // Outer casts f64<->f32 and middle casts f32<->f16 both happen.
        let casts = c.profiler().class_stats(KernelClass::CastHost).calls;
        assert!(casts as usize >= 2 * res.restarts + 2, "casts {casts}");
        assert!(res.restarts >= 1);
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = laplace1d(8);
        let b = vec![0.0f64; 8];
        let mut x = vec![0.0f64; 8];
        let res = GmresIr3::new(&a, &Identity, Ir3Config::default()).solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.status, SolveStatus::Converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn stagnation_terminates_instead_of_spinning() {
        // An operator too hard for fp16 inner cycles: big dynamic range
        // swamps half precision. The ladder must stop with a non-converged
        // status, not loop forever.
        let n = 24;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            // widely varying diagonal, fp16-hostile
            coo.push(i, i, if i % 2 == 0 { 1.0 } else { 3000.0 });
            if i > 0 {
                coo.push(i, i - 1, -0.5);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -0.5);
            }
        }
        let a = GpuMatrix::new(coo.into_csr());
        let b = vec![1.0f64; n];
        let mut x = vec![0.0f64; n];
        let cfg = Ir3Config {
            m: 8,
            mid_max_iters: 64,
            max_iters: 4_000,
            ..Ir3Config::default()
        };
        let res = GmresIr3::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        // Either it manages (fp16 can be surprisingly scrappy) or it
        // terminates cleanly; both are acceptable, spinning is not.
        assert!(res.iterations <= 4_000 + cfg.mid_max_iters);
    }
}
