//! GMRES-IR: GMRES with iterative refinement (Algorithm 2 of the paper,
//! after Turner & Walker).
//!
//! The inner GMRES(m) runs in the low precision `Lo`; at every restart
//! the residual is recomputed in the high precision `Hi` and fed back as
//! the next inner right-hand side:
//!
//! ```text
//! r0 = b - A x0                       [Hi]
//! loop:  solve A u = r  with GMRES(m) [Lo]
//!        x += u                       [Hi]
//!        r  = b - A x                 [Hi]
//! ```
//!
//! Convergence is only checked at refinement boundaries — the inner
//! fp32 implicit residual says nothing about the outer fp64 problem
//! (§III-B) — so the inner solver always runs its full `m` iterations and
//! GMRES-IR "may take at most m-1 extra iterations" versus fp64 GMRES.
//! The inner right-hand side is normalized before casting down, which is
//! an exact reformulation (GMRES is scale-invariant) and keeps the
//! residual representable when `Lo` is fp16 (the paper's future-work
//! third precision).

use mpgmres_backend::BackendScalar;
use mpgmres_gpusim::KernelClass;
use mpgmres_la::multivec::MultiVec;

use crate::block_gmres::BlockGmres;
use crate::config::{GmresConfig, IrConfig, StorePath};
use crate::context::{GpuContext, GpuMatrix, GpuStore};
use crate::precond::{Identity, Preconditioner};
use crate::service::{
    Disposition, Operator, RequestId, SolveError, SolveOutcome, SolveRequest, Solver,
};
use crate::status::{HistoryKind, HistoryPoint, SolveResult, SolveStatus};

/// GMRES-IR: inner precision `Lo`, outer (residual/solution) precision `Hi`.
pub struct GmresIr<'a, Lo: BackendScalar, Hi: BackendScalar> {
    a_hi: &'a GpuMatrix<Hi>,
    a_lo: GpuMatrix<Lo>,
    store_lo: Option<GpuStore<Lo>>,
    precond_lo: &'a dyn Preconditioner<Lo>,
    cfg: IrConfig,
}

impl<'a, Lo: BackendScalar, Hi: BackendScalar> Solver<'a, Hi> for GmresIr<'a, Lo, Hi> {
    /// Serve one [`SolveRequest`] with the identity inner
    /// preconditioner (the paper's baseline GMRES-IR); see
    /// [`GmresIr::serve_with`] for a low-precision preconditioner.
    fn serve(
        ctx: &mut GpuContext,
        req: &SolveRequest<'a, '_, Hi>,
    ) -> Result<SolveOutcome<Hi>, SolveError> {
        Self::serve_with(ctx, req, &Identity)
    }
}

impl<'a, Lo: BackendScalar, Hi: BackendScalar> GmresIr<'a, Lo, Hi> {
    /// Build the solver. The low-precision matrix copy is created here
    /// (its one-time conversion cost is excluded from solve times, as in
    /// the paper's protocol, §V). A non-[`StorePath::Native`] storage
    /// path additionally builds the low-precision value store the inner
    /// block solver streams. Panics on an unsupported combination; see
    /// [`GmresIr::try_new`] for the typed-error variant.
    pub fn new(
        a_hi: &'a GpuMatrix<Hi>,
        precond_lo: &'a dyn Preconditioner<Lo>,
        cfg: IrConfig,
    ) -> Self {
        Self::try_new(a_hi, precond_lo, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`GmresIr::new`] with typed errors. A non-native storage path
    /// packs the inner operand, so it supports exactly the
    /// preconditioners that never touch the matrix at apply time
    /// ([`Preconditioner::needs_matrix`] is `false`: identity, block
    /// Jacobi, cast wrappers — they apply in the working precision
    /// while the SpMM streams narrow values). A matrix-needing
    /// preconditioner degrades to
    /// [`SolveError::UnsupportedCombination`].
    pub fn try_new(
        a_hi: &'a GpuMatrix<Hi>,
        precond_lo: &'a dyn Preconditioner<Lo>,
        cfg: IrConfig,
    ) -> Result<Self, SolveError> {
        let a_lo = a_hi.convert::<Lo>();
        let store_lo = match cfg.store {
            StorePath::Native => None,
            StorePath::Shadow(p) => Some(GpuStore::shadow_of(&a_lo, p)),
            StorePath::Split(t) => Some(GpuStore::split_of(&a_lo, t)),
        };
        if store_lo.is_some() && precond_lo.needs_matrix() {
            return Err(SolveError::UnsupportedCombination(format!(
                "preconditioner '{}' needs the plain matrix at apply time, \
                 which the packed inner operand of a non-native storage path \
                 does not carry; use a matrix-free preconditioner (identity, \
                 block Jacobi, or a cast wrapper owning its own copy)",
                precond_lo.describe()
            )));
        }
        Ok(GmresIr {
            a_hi,
            a_lo,
            store_lo,
            precond_lo,
            cfg,
        })
    }

    /// Serve one [`SolveRequest`] through GMRES-IR with an explicit
    /// inner-precision preconditioner (the request's own preconditioner
    /// field lives in `Hi` and cannot run in `Lo` arithmetic; it must
    /// be the identity here).
    pub fn serve_with(
        ctx: &mut GpuContext,
        req: &SolveRequest<'a, '_, Hi>,
        precond_lo: &'a dyn Preconditioner<Lo>,
    ) -> Result<SolveOutcome<Hi>, SolveError> {
        req.validate()?;
        if !req.precond.is_identity() {
            return Err(SolveError::UnsupportedCombination(
                "GMRES-IR applies its preconditioner in the inner precision; \
                 pass it as `precond_lo` and leave the request's own \
                 preconditioner at the identity"
                    .into(),
            ));
        }
        let a = match req.operator {
            Operator::Matrix(a) => a,
            Operator::Store(_) => {
                return Err(SolveError::UnsupportedCombination(
                    "GMRES-IR needs the plain high-precision matrix for its \
                     outer residual; select a storage path for the *inner* \
                     operand via the request's `store` field instead"
                        .into(),
                ))
            }
        };
        let cfg = IrConfig::default()
            .with_m(req.config.m)
            .with_rtol(req.config.rtol)
            .with_max_iters(req.config.max_iters)
            .with_store(req.store);
        let cfg = IrConfig {
            record_history: req.config.record_history,
            ..cfg
        };
        let ir = Self::try_new(a, precond_lo, cfg)?;
        let n = a.n();
        let mut x = req
            .x0
            .map(|x| x.to_vec())
            .unwrap_or_else(|| vec![Hi::zero(); n]);
        let start = ctx.elapsed();
        let result = ir.solve(ctx, req.rhs, &mut x);
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

    /// The low-precision matrix copy (GMRES-IR keeps both in memory,
    /// §III-B).
    pub fn matrix_lo(&self) -> &GpuMatrix<Lo> {
        &self.a_lo
    }

    /// The inner low-precision value store, when a non-native
    /// [`StorePath`] is configured.
    pub fn store_lo(&self) -> Option<&GpuStore<Lo>> {
        self.store_lo.as_ref()
    }

    /// The configuration in use.
    pub fn config(&self) -> &IrConfig {
        &self.cfg
    }

    /// The fp64 refinement step `r = b - A x`, `||r||`, recorded as one
    /// stream region.
    fn outer_residual(
        &self,
        ctx: &mut GpuContext,
        b: &[Hi],
        x: &[Hi],
        r: &mut [Hi],
        norm: &mut [Hi],
    ) {
        let mut st = ctx.stream();
        let ah = st.matrix(self.a_hi);
        let bh = st.slice(b);
        let xh = st.slice(x);
        let rh = st.slice_mut(r);
        let nh = st.slice_mut(norm);
        st.residual_as(KernelClass::ResidualHi, ah, bh, xh, rh);
        st.norm2_into_as(KernelClass::ResidualHi, rh.read(), nh.at(0));
        st.sync();
    }

    /// Solve `A x = b` to the outer tolerance; `x` holds the initial
    /// guess on entry and the solution on exit.
    pub fn solve(&self, ctx: &mut GpuContext, b: &[Hi], x: &mut [Hi]) -> SolveResult {
        let n = self.a_hi.n();
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        let m = self.cfg.m;

        let mut history: Vec<HistoryPoint> = Vec::new();
        let mut r = vec![Hi::zero(); n];
        let mut r_lo = MultiVec::<Lo>::zeros(n, 1);
        let mut u_lo = MultiVec::<Lo>::zeros(n, 1);
        let mut u_hi = vec![Hi::zero(); n];
        let mut nbuf = vec![Hi::zero(); 1];

        // High-precision initial residual (Algorithm 2, line 1).
        self.outer_residual(ctx, b, x, &mut r, &mut nbuf);
        let mut rnorm = nbuf[0].to_f64();
        let r0_norm = rnorm;
        if !r0_norm.is_finite() {
            return SolveResult {
                status: SolveStatus::Breakdown,
                iterations: 0,
                restarts: 0,
                final_relative_residual: f64::NAN,
                history,
            };
        }
        if r0_norm == 0.0 {
            return SolveResult {
                status: SolveStatus::Converged,
                iterations: 0,
                restarts: 0,
                final_relative_residual: 0.0,
                history,
            };
        }

        let inner_cfg = match self.cfg.inner_early_exit {
            None => GmresConfig::inner_cycle(m),
            Some(tau) => GmresConfig {
                monitor_implicit: true,
                rtol: tau,
                record_history: self.cfg.record_history,
                ..GmresConfig::inner_cycle(m)
            },
        };
        let inner = match &self.store_lo {
            None => BlockGmres::new(&self.a_lo, self.precond_lo, inner_cfg),
            // The construction boundary already vetted the
            // preconditioner as matrix-free, so the packed path applies
            // it in the working precision while the SpMM streams the
            // store's narrow values.
            Some(s) => BlockGmres::try_over_store(s, self.precond_lo, inner_cfg)
                .expect("vetted at construction"),
        };

        let mut total_iters = 0usize;
        let mut restarts = 0usize;
        let status;
        if self.cfg.record_history {
            history.push(HistoryPoint {
                iteration: 0,
                relative_residual: 1.0,
                kind: HistoryKind::Explicit,
            });
        }

        loop {
            let rel = rnorm / r0_norm;
            if rel <= self.cfg.rtol {
                status = SolveStatus::Converged;
                break;
            }
            if total_iters >= self.cfg.max_iters {
                status = SolveStatus::MaxIters;
                break;
            }
            if !rel.is_finite() {
                status = SolveStatus::Breakdown;
                break;
            }

            // Normalize and cast the residual down through the host
            // interface (§IV: Belos-mediated conversions).
            ctx.scal(Hi::from_f64(1.0 / rnorm), &mut r);
            ctx.cast_host(&r, r_lo.col_mut(0));

            // Inner solve A_lo u = r_lo from a zero guess: one cycle of
            // the one-lane block driver — bit-identical to a single-RHS
            // inner GMRES, and the lane shares the block storage-path
            // (SpMM-over-store) kernels.
            for ui in u_lo.col_mut(0).iter_mut() {
                *ui = Lo::zero();
            }
            let inner_res = inner
                .solve(ctx, &r_lo, &mut u_lo)
                .pop()
                .expect("one inner lane");
            if inner_res.iterations == 0 {
                // Inner solver could make no progress (e.g. fp16 overflow).
                status = SolveStatus::Breakdown;
                break;
            }
            if self.cfg.record_history {
                for p in inner_res
                    .history
                    .iter()
                    .filter(|p| p.kind == HistoryKind::Implicit)
                {
                    history.push(HistoryPoint {
                        iteration: total_iters + p.iteration,
                        relative_residual: p.relative_residual * rel,
                        kind: HistoryKind::Implicit,
                    });
                }
            }
            total_iters += inner_res.iterations;
            restarts += 1;

            // x += rnorm * u  (undo the normalization), then refresh the
            // true residual in high precision (Algorithm 2, lines 4-5).
            ctx.cast_host(u_lo.col(0), &mut u_hi);
            ctx.axpy(Hi::from_f64(rnorm), &u_hi, x);
            self.outer_residual(ctx, b, x, &mut r, &mut nbuf);
            let new_norm = nbuf[0].to_f64();
            if self.cfg.record_history {
                history.push(HistoryPoint {
                    iteration: total_iters,
                    relative_residual: new_norm / r0_norm,
                    kind: HistoryKind::Explicit,
                });
            }
            if !new_norm.is_finite() {
                status = SolveStatus::Breakdown;
                break;
            }
            rnorm = new_norm;
        }

        SolveResult {
            status,
            iterations: total_iters,
            restarts,
            final_relative_residual: rnorm / r0_norm,
            history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres::Gmres;
    use crate::precond::Identity;
    use mpgmres_gpusim::{DeviceModel, PaperCategory};
    use mpgmres_la::coo::Coo;
    use mpgmres_la::vec_ops::ReductionOrder;
    use mpgmres_scalar::Half;

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

    fn true_rel_residual(a: &GpuMatrix<f64>, b: &[f64], x: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        a.csr().residual(b, x, &mut r);
        mpgmres_la::vec_ops::norm2(&r) / mpgmres_la::vec_ops::norm2(b)
    }

    #[test]
    fn reaches_double_precision_accuracy_with_fp32_inner() {
        // The paper's core claim: fp32 inner + fp64 refinement converges
        // to 1e-10, which fp32 alone cannot certify.
        let n = 96;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let cfg = IrConfig::default().with_m(20).with_max_iters(20_000);
        let ir = GmresIr::<f32, f64>::new(&a, &Identity, cfg);
        let res = ir.solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.status, SolveStatus::Converged);
        assert!(true_rel_residual(&a, &b, &x) <= 1.2e-10);
    }

    #[test]
    fn iterations_are_multiples_of_m() {
        // Inner cycles always run full m (paper: iteration counts in
        // Tables II/III are exact multiples of the restart length).
        let n = 64;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let m = 15;
        let cfg = IrConfig::default().with_m(m).with_max_iters(10_000);
        let res = GmresIr::<f32, f64>::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.status, SolveStatus::Converged);
        assert_eq!(
            res.iterations % m,
            0,
            "iterations {} not multiple of {m}",
            res.iterations
        );
        assert_eq!(res.iterations / m, res.restarts);
    }

    #[test]
    fn refinement_work_lands_in_other_category() {
        let n = 48;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut c = ctx();
        let cfg = IrConfig::default().with_m(10).with_max_iters(5_000);
        let res = GmresIr::<f32, f64>::new(&a, &Identity, cfg).solve(&mut c, &b, &mut x);
        assert_eq!(res.status, SolveStatus::Converged);
        let rep = c.report();
        // Other must contain the hi-precision residual recomputations and
        // host casts: at least 2 ResidualHi + 2 casts per restart.
        assert!(rep.seconds(PaperCategory::Other) > 0.0);
        let casts = c
            .profiler()
            .class_stats(mpgmres_gpusim::KernelClass::CastHost)
            .calls;
        assert_eq!(casts as usize, 2 * res.restarts);
        let hi_res = c
            .profiler()
            .class_stats(mpgmres_gpusim::KernelClass::ResidualHi)
            .calls;
        assert_eq!(hi_res as usize, 2 * (res.restarts + 1));
    }

    #[test]
    fn matches_fp64_gmres_solution() {
        let n = 80;
        let a = laplace1d(n);
        let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let mut x_ir = vec![0.0; n];
        let cfg = IrConfig::default().with_m(25).with_max_iters(20_000);
        let res = GmresIr::<f32, f64>::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x_ir);
        assert_eq!(res.status, SolveStatus::Converged);
        let mut x_64 = vec![0.0; n];
        let g = Gmres::new(&a, &Identity, GmresConfig::default().with_m(25));
        g.solve(&mut ctx(), &b, &mut x_64);
        // Both residuals meet 1e-10; solutions agree to solver accuracy.
        let dx: f64 = x_ir
            .iter()
            .zip(&x_64)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let xn = mpgmres_la::vec_ops::norm2(&x_64);
        assert!(dx <= 1e-6 * xn, "solutions differ: {dx} vs {xn}");
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = laplace1d(10);
        let b = vec![0.0; 10];
        let mut x = vec![0.0; 10];
        let res = GmresIr::<f32, f64>::new(&a, &Identity, IrConfig::default()).solve(
            &mut ctx(),
            &b,
            &mut x,
        );
        assert_eq!(res.status, SolveStatus::Converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn max_iters_respected() {
        let n = 128;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let cfg = IrConfig::default().with_m(10).with_max_iters(30);
        let res = GmresIr::<f32, f64>::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.status, SolveStatus::MaxIters);
        assert!(res.iterations <= 30);
    }

    #[test]
    fn fp16_inner_three_precision_future_work() {
        // The paper's future-work extension: fp16 inner, fp64 outer.
        // The normalized-residual refinement keeps fp16 in range; a small
        // well-conditioned system must still reach fp64 accuracy.
        let n = 24;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let cfg = IrConfig::default()
            .with_m(24)
            .with_rtol(1e-10)
            .with_max_iters(50_000);
        let ir = GmresIr::<Half, f64>::new(&a, &Identity, cfg);
        let res = ir.solve(&mut ctx(), &b, &mut x);
        assert_eq!(
            res.status,
            SolveStatus::Converged,
            "final rel {}",
            res.final_relative_residual
        );
        assert!(true_rel_residual(&a, &b, &x) <= 1.2e-10);
    }

    #[test]
    fn storage_paths_reach_fp64_accuracy() {
        // The cuSPARSE shadow pattern: accumulate in the working
        // precision, stream low-precision matrix values. The 1D
        // Laplacian's entries are exact in every precision, so every
        // storage path must hit the same fp64 target.
        let n = 96;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let paths = [
            StorePath::Shadow(mpgmres_scalar::Precision::Fp32),
            StorePath::Split(1.5),
        ];
        for store in paths {
            let mut x = vec![0.0; n];
            let cfg = IrConfig::default()
                .with_m(20)
                .with_max_iters(20_000)
                .with_store(store);
            let ir = GmresIr::<f64, f64>::new(&a, &Identity, cfg);
            assert!(ir.store_lo().is_some(), "{store:?} must build a store");
            let res = ir.solve(&mut ctx(), &b, &mut x);
            assert_eq!(res.status, SolveStatus::Converged, "{store:?}");
            assert!(true_rel_residual(&a, &b, &x) <= 1.2e-10, "{store:?}");
        }
        // fp16 value storage under an fp32 inner working precision.
        let mut x = vec![0.0; n];
        let cfg = IrConfig::default()
            .with_m(20)
            .with_max_iters(20_000)
            .with_store(StorePath::Shadow(mpgmres_scalar::Precision::Fp16));
        let res = GmresIr::<f32, f64>::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.status, SolveStatus::Converged);
        assert!(true_rel_residual(&a, &b, &x) <= 1.2e-10);
    }

    #[test]
    fn native_path_builds_no_store() {
        let a = laplace1d(16);
        let ir = GmresIr::<f32, f64>::new(&a, &Identity, IrConfig::default());
        assert!(ir.store_lo().is_none());
    }

    #[test]
    fn storage_path_accepts_matrix_free_preconditioners_only() {
        let a = laplace1d(16);
        let cfg =
            IrConfig::default().with_store(StorePath::Shadow(mpgmres_scalar::Precision::Fp32));
        // Block Jacobi extracts its factors at build time and never
        // touches A at apply time: allowed over packed storage.
        let jacobi = crate::precond::block_jacobi::BlockJacobi::build(&a, 1);
        assert!(GmresIr::<f64, f64>::try_new(&a, &jacobi, cfg).is_ok());
        // Chebyshev streams SpMVs against the plain matrix: degrades to
        // a typed error instead of the old panic.
        let cheb =
            crate::precond::chebyshev::ChebyshevPreconditioner::with_bounds(4, 0.1, 4.0).unwrap();
        let err = match GmresIr::<f64, f64>::try_new(&a, &cheb, cfg) {
            Ok(_) => panic!("chebyshev must be rejected over packed storage"),
            Err(e) => e,
        };
        assert!(matches!(err, SolveError::UnsupportedCombination(_)));
    }

    #[test]
    fn block_jacobi_over_shadow_path_matches_native_bitwise() {
        // The PR-6 restriction lift, end to end: block Jacobi applied in
        // the working precision while the SpMM streams fp32 shadow
        // values. Laplacian entries are fp32-exact, so the shadow path
        // must reproduce the native preconditioned solve bit for bit.
        let n = 64;
        let a = laplace1d(n);
        let jacobi = crate::precond::block_jacobi::BlockJacobi::build(&a.convert::<f32>(), 4);
        let b = vec![1.0f64; n];
        let cfg = IrConfig::default().with_m(15).with_max_iters(5_000);
        let mut x_native = vec![0.0f64; n];
        let res_native =
            GmresIr::<f32, f64>::new(&a, &jacobi, cfg).solve(&mut ctx(), &b, &mut x_native);
        let mut x_shadow = vec![0.0f64; n];
        let res_shadow = GmresIr::<f32, f64>::new(
            &a,
            &jacobi,
            IrConfig {
                store: StorePath::Shadow(mpgmres_scalar::Precision::Fp32),
                ..cfg
            },
        )
        .solve(&mut ctx(), &b, &mut x_shadow);
        assert_eq!(res_native.status, SolveStatus::Converged);
        assert_eq!(res_native.iterations, res_shadow.iterations);
        for (ns, ss) in x_native.iter().zip(&x_shadow) {
            assert_eq!(ns.to_bits(), ss.to_bits(), "shadow path diverged");
        }
    }

    #[test]
    fn early_exit_ablation_reduces_iterations_sometimes() {
        let n = 64;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let full = {
            let mut x = vec![0.0; n];
            let cfg = IrConfig::default().with_m(40).with_max_iters(20_000);
            GmresIr::<f32, f64>::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x)
        };
        let early = {
            let mut x = vec![0.0; n];
            let cfg = IrConfig {
                inner_early_exit: Some(1e-6),
                ..IrConfig::default().with_m(40).with_max_iters(20_000)
            };
            GmresIr::<f32, f64>::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x)
        };
        assert_eq!(full.status, SolveStatus::Converged);
        assert_eq!(early.status, SolveStatus::Converged);
        // Early exit stops inner cycles at fp32 stall instead of burning
        // the full m; it must never need more iterations.
        assert!(early.iterations <= full.iterations);
    }
}
