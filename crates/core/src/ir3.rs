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
//! The ladder is one [`GmresIr`] nested in another: an fp64/fp32
//! refinement whose inner solve is an fp32/fp16 refinement rung over the
//! outer rung's fp32 matrix copy. The outer rung also stops once a step
//! no longer cuts the fp64 residual, since fp16 inner cycles can stall on
//! hard operators.

use serde::Serialize;

use crate::ir::serve_refined;
use crate::prelude::*;

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
    /// forwarded to the middle rung's configuration.
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
    ir: GmresIr<'a, f32, f64>,
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
    /// Build the ladder. The fp32 and fp16 matrix copies (and any
    /// innermost store) are made here, once. Panics on an unsupported
    /// combination; see [`GmresIr3::try_new`].
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
        let mid = IrConfig {
            m: cfg.m,
            rtol: cfg.mid_rtol,
            max_iters: cfg.mid_max_iters,
            record_history: false,
            store: cfg.store,
            ..IrConfig::default()
        };
        let outer = IrConfig {
            rtol: cfg.rtol,
            max_iters: cfg.max_iters,
            ..IrConfig::default()
        };
        Ok(GmresIr3 {
            ir: GmresIr::try_nested(a_hi, precond_lo, mid, outer)?,
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
        serve_refined(ctx, req, |a| {
            let cfg = Ir3Config {
                m: req.config.m,
                rtol: req.config.rtol,
                max_iters: req.config.max_iters,
                store: req.store,
                ..Ir3Config::default()
            };
            Ok(Self::try_new(a, precond_lo, cfg)?.ir)
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &Ir3Config {
        &self.cfg
    }

    /// Solve `A x = b`; `x` carries the initial guess in, solution out.
    pub fn solve(&self, ctx: &mut GpuContext, b: &[f64], x: &mut [f64]) -> SolveResult {
        self.ir.solve(ctx, b, x)
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
