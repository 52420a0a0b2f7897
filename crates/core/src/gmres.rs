//! Restarted GMRES(m) with two-pass classical Gram-Schmidt (Algorithm 1).
//!
//! Matches the paper's solver protocol:
//! - CGS2 orthogonalization: two projection passes, each one GEMV-Trans
//!   and one GEMV-NoTrans (§III-A) — these four calls per iteration are
//!   the dominant bars of Figure 4.
//! - Right preconditioning `A M^{-1}`, so residuals match the
//!   unpreconditioned problem in exact arithmetic (§III-D).
//! - Implicit residual from the Givens recurrence monitored every
//!   iteration; explicit residual recomputed at each restart.
//! - Belos-style "loss of accuracy" detection when the two disagree
//!   (§V-F).
//!
//! [`Gmres`] is the single-RHS front of the one GMRES driver: every
//! solve runs as a one-lane [`BlockGmres`] solve, so the cycle, restart,
//! loss-of-accuracy and deflation policy lives only in `block_gmres.rs`.
//! Independent checking is the job of the test suites' textbook oracle
//! (`crates/core/tests/common/oracle.rs`), not of a second driver.

use crate::block_gmres::BlockGmres;
use crate::config::GmresConfig;
use crate::context::{GpuContext, GpuMatrix};
use crate::precond::Preconditioner;
use crate::service::{SolveError, SolveOutcome, SolveRequest, Solver};
use crate::status::SolveResult;
use mpgmres_backend::BackendScalar;

/// Restarted GMRES(m) in a single working precision `S`.
pub struct Gmres<'a, S: BackendScalar> {
    inner: BlockGmres<'a, S>,
}

impl<'a, S: BackendScalar> Solver<'a, S> for Gmres<'a, S> {
    /// Serve one [`SolveRequest`]: the one-lane block driver serves every
    /// operand and storage path.
    fn serve(
        ctx: &mut GpuContext,
        req: &SolveRequest<'a, '_, S>,
    ) -> Result<SolveOutcome<S>, SolveError> {
        BlockGmres::serve(ctx, req)
    }
}

impl<'a, S: BackendScalar> Gmres<'a, S> {
    /// Build a solver for `A x = b` with a right preconditioner.
    /// Panics on an invalid configuration; see [`Gmres::try_new`] for
    /// the typed-error variant.
    pub fn new(a: &'a GpuMatrix<S>, precond: &'a dyn Preconditioner<S>, cfg: GmresConfig) -> Self {
        Self::try_new(a, precond, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Gmres::new`] with the configuration checked into a typed
    /// [`SolveError`] instead of a panic.
    pub fn try_new(
        a: &'a GpuMatrix<S>,
        precond: &'a dyn Preconditioner<S>,
        cfg: GmresConfig,
    ) -> Result<Self, SolveError> {
        Ok(Gmres {
            inner: BlockGmres::try_new(a, precond, cfg)?,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &GmresConfig {
        self.inner.config()
    }

    /// Solve `A x = b` starting from the initial guess in `x`; the
    /// solution is written back into `x`.
    pub fn solve(&self, ctx: &mut GpuContext, b: &[S], x: &mut [S]) -> SolveResult {
        self.inner.solve_one(ctx, b, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OrthoMethod;
    use crate::precond::Identity;
    use crate::status::{HistoryKind, SolveStatus};
    use mpgmres_gpusim::DeviceModel;
    use mpgmres_la::coo::Coo;
    use mpgmres_la::csr::Csr;
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

    fn check_residual(a: &GpuMatrix<f64>, b: &[f64], x: &[f64], rtol: f64) {
        let mut r = vec![0.0; b.len()];
        a.csr().residual(b, x, &mut r);
        let rn = mpgmres_la::vec_ops::norm2(&r);
        let bn = mpgmres_la::vec_ops::norm2(b);
        assert!(
            rn <= rtol * bn * 1.01,
            "true residual {rn:e} vs {:e}",
            rtol * bn
        );
    }

    /// A preconditioner built for another size is a typed error at
    /// construction, not a panic inside the first apply.
    #[test]
    fn try_new_rejects_a_preconditioner_of_another_size() {
        let a = laplace1d(6);
        let bj = crate::precond::block_jacobi::BlockJacobi::build(&laplace1d(8), 2);
        let want = Some(SolveError::DimensionMismatch {
            what: "preconditioner dimension",
            expected: 6,
            got: 8,
        });
        let cfg = GmresConfig::default();
        assert_eq!(Gmres::try_new(&a, &bj, cfg).err(), want);
        assert_eq!(BlockGmres::try_new(&a, &bj, cfg).err(), want);
        let store = crate::GpuStore::shadow_of(&a, mpgmres_scalar::Precision::Fp32);
        let op = crate::Operator::Store(&store);
        assert_eq!(BlockGmres::try_on(op, &bj, cfg).err(), want);
    }

    #[test]
    fn identity_system_converges_immediately() {
        let a = GpuMatrix::new(Csr::<f64>::identity(10));
        let b = vec![1.0; 10];
        let mut x = vec![0.0; 10];
        let g = Gmres::new(&a, &Identity, GmresConfig::default());
        let res = g.solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.status, SolveStatus::Converged);
        assert!(res.iterations <= 1);
        check_residual(&a, &b, &x, 1e-10);
    }

    #[test]
    fn zero_rhs_trivially_converged() {
        let a = laplace1d(8);
        let b = vec![0.0; 8];
        let mut x = vec![0.0; 8];
        let res = Gmres::new(&a, &Identity, GmresConfig::default()).solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.status, SolveStatus::Converged);
        assert_eq!(res.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn tridiagonal_system_converges_without_restart() {
        let n = 32;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let cfg = GmresConfig::default().with_m(n + 2);
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.status, SolveStatus::Converged);
        assert!(res.iterations <= n + 1, "needed {}", res.iterations);
        check_residual(&a, &b, &x, 1e-10);
    }

    #[test]
    fn restarting_still_converges() {
        let n = 64;
        let a = laplace1d(n);
        let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mut x = vec![0.0; n];
        let cfg = GmresConfig::default().with_m(8).with_max_iters(10_000);
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.status, SolveStatus::Converged);
        assert!(res.restarts > 1, "restarts should occur with m = 8");
        check_residual(&a, &b, &x, 1e-10);
    }

    #[test]
    fn nonzero_initial_guess_is_used() {
        // Convergence is judged relative to ||r0|| (Alg. 1 of the paper),
        // so the check here is correctness: starting from a perturbed
        // guess must still land on the solution of the ORIGINAL system.
        let n = 16;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let cfg = GmresConfig::default().with_m(n + 2);
        let mut x_ref = vec![0.0; n];
        Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x_ref);
        let mut x: Vec<f64> = x_ref
            .iter()
            .enumerate()
            .map(|(i, v)| v + ((i % 3) as f64 - 1.0))
            .collect();
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.status, SolveStatus::Converged);
        check_residual(&a, &b, &x, 1e-9);
        for (xi, ri) in x.iter().zip(&x_ref) {
            assert!((xi - ri).abs() < 1e-6 * ri.abs().max(1.0));
        }
    }

    #[test]
    fn fp32_stalls_above_fp64_tolerance() {
        // The paper's Fig. 3: fp32 GMRES reaches ~5e-6 and stalls; it can
        // never certify 1e-10.
        let n = 64;
        let a64 = laplace1d(n);
        let a = a64.convert::<f32>();
        let b = vec![1.0f32; n];
        let mut x = vec![0.0f32; n];
        let cfg = GmresConfig::default().with_m(20).with_max_iters(2000);
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        assert_ne!(res.status, SolveStatus::Converged);
        // But it should get well below single-precision epsilon scale.
        assert!(res.best_residual() < 1e-4, "best {}", res.best_residual());
    }

    #[test]
    fn implicit_history_is_monotone_within_cycles() {
        let n = 48;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let cfg = GmresConfig::default().with_m(12);
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        let mut prev: Option<(usize, f64)> = None;
        for h in res
            .history
            .iter()
            .filter(|h| h.kind == HistoryKind::Implicit)
        {
            if let Some((pi, pr)) = prev {
                if h.iteration == pi + 1 {
                    assert!(
                        h.relative_residual <= pr * (1.0 + 1e-12),
                        "implicit residual rose within a cycle"
                    );
                }
            }
            prev = Some((h.iteration, h.relative_residual));
        }
    }

    #[test]
    fn max_iters_is_respected() {
        let n = 256;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let cfg = GmresConfig::default().with_m(10).with_max_iters(25);
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.status, SolveStatus::MaxIters);
        assert!(
            res.iterations <= 25 + 10,
            "cap overshoot: {}",
            res.iterations
        );
    }

    #[test]
    fn kernel_mix_matches_cgs2_shape() {
        // Per iteration: 2 GEMV-T, 2 GEMV-N (+1 per restart), 1 SpMV
        // (+1 residual per restart), 1 norm (+1 per restart).
        let n = 40;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut c = ctx();
        let cfg = GmresConfig::default().with_m(50);
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut c, &b, &mut x);
        let iters = res.iterations as u64;
        let restarts = res.restarts as u64;
        let rep = c.report();
        use mpgmres_gpusim::PaperCategory as P;
        assert_eq!(rep.categories[&P::GemvTrans].calls, 2 * iters);
        assert_eq!(rep.categories[&P::GemvNoTrans].calls, 2 * iters + restarts);
        assert_eq!(rep.categories[&P::SpMV].calls, iters + restarts + 1);
        assert_eq!(rep.categories[&P::Norm].calls, iters + restarts + 1);
    }

    #[test]
    fn all_ortho_methods_converge_in_fp64() {
        let n = 40;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        for ortho in [OrthoMethod::Cgs2, OrthoMethod::Cgs1, OrthoMethod::Mgs] {
            let mut x = vec![0.0; n];
            let cfg = GmresConfig::default()
                .with_m(12)
                .with_ortho(ortho)
                .with_max_iters(5_000);
            let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
            assert_eq!(res.status, SolveStatus::Converged, "{ortho:?}");
            check_residual(&a, &b, &x, 1e-10);
        }
    }

    #[test]
    fn mgs_charges_skinny_kernels_cgs_charges_wide() {
        // MGS issues 2j Dot/Axpy kernels per iteration; CGS2 issues 4
        // GEMVs. The simulated-launch-overhead difference is the GPU
        // argument for CGS2 (paper §III-A).
        let n = 40;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let count = |ortho: OrthoMethod| {
            let mut c = ctx();
            let mut x = vec![0.0; n];
            let cfg = GmresConfig::default()
                .with_m(10)
                .with_ortho(ortho)
                .with_max_iters(200);
            Gmres::new(&a, &Identity, cfg).solve(&mut c, &b, &mut x);
            let p = c.profiler();
            (
                p.class_stats(mpgmres_gpusim::KernelClass::GemvT).calls,
                p.class_stats(mpgmres_gpusim::KernelClass::Dot).calls,
            )
        };
        let (gemv_cgs, dot_cgs) = count(OrthoMethod::Cgs2);
        let (gemv_mgs, dot_mgs) = count(OrthoMethod::Mgs);
        assert!(gemv_cgs > 0 && dot_cgs == 0);
        assert!(gemv_mgs == 0 && dot_mgs > 0);
    }

    #[test]
    fn cgs1_is_no_more_accurate_than_cgs2_in_fp32() {
        // The reason the paper uses two passes: a single CGS pass loses
        // orthogonality in low precision. Compare the best residual both
        // reach within the same iteration budget.
        let n = 96;
        let a64 = laplace1d(n);
        let a = a64.convert::<f32>();
        let b = vec![1.0f32; n];
        let run = |ortho: OrthoMethod| {
            let mut x = vec![0.0f32; n];
            let cfg = GmresConfig::default()
                .with_m(24)
                .with_ortho(ortho)
                .with_max_iters(600);
            Gmres::new(&a, &Identity, cfg)
                .solve(&mut ctx(), &b, &mut x)
                .best_residual()
        };
        let cgs2 = run(OrthoMethod::Cgs2);
        let cgs1 = run(OrthoMethod::Cgs1);
        assert!(
            cgs1 >= cgs2 * 0.5,
            "single-pass CGS should not beat CGS2 materially: {cgs1:e} vs {cgs2:e}"
        );
    }

    #[test]
    fn singular_system_reports_breakdown_not_panic() {
        // Singular matrix (zero row): GMRES cannot converge; it must
        // terminate with a non-converged status and finite values.
        let mut coo = Coo::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(2, 2, 1.0);
        // row 3 is zero
        coo.push(3, 3, 0.0);
        let a = GpuMatrix::new(coo.into_csr());
        let b = vec![1.0; 4];
        let mut x = vec![0.0; 4];
        let cfg = GmresConfig::default().with_m(6).with_max_iters(50);
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        assert_ne!(res.status, SolveStatus::Converged);
    }

    #[test]
    fn fp64_and_fp32_convergence_curves_track_early() {
        // Paper Fig. 3: the fp32 curve follows fp64 until ~1e-5. Compare
        // explicit residuals at matching restarts.
        let n = 100;
        let a64 = laplace1d(n);
        let a32 = a64.convert::<f32>();
        let b64 = vec![1.0f64; n];
        let b32 = vec![1.0f32; n];
        let cfg = GmresConfig::default().with_m(10).with_max_iters(300);
        let mut x64 = vec![0.0f64; n];
        let mut x32 = vec![0.0f32; n];
        let r64 = Gmres::new(&a64, &Identity, cfg).solve(&mut ctx(), &b64, &mut x64);
        let r32 = Gmres::new(&a32, &Identity, cfg).solve(&mut ctx(), &b32, &mut x32);
        let e64: Vec<f64> = r64
            .explicit_history()
            .map(|h| h.relative_residual)
            .collect();
        let e32: Vec<f64> = r32
            .explicit_history()
            .map(|h| h.relative_residual)
            .collect();
        for (a, b) in e64.iter().zip(&e32) {
            if *a < 1e-4 {
                break;
            }
            let ratio = b / a;
            assert!(
                (0.2..5.0).contains(&ratio),
                "curves diverged early: fp64 {a:e} vs fp32 {b:e}"
            );
        }
    }
}
