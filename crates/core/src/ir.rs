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
//!
//! A step that leaves the true residual no lower than the step before
//! stops the solve with `MaxIters`: the inner precision can no longer
//! help, and looping on would only burn the iteration budget.
//!
//! This is the crate's only refinement loop. Its inner solve is either
//! one GMRES(m) cycle or, for the three-precision ladder
//! ([`crate::GmresIr3`]), another refinement rung one precision lower
//! that takes this rung's low-precision matrix copy as its operator.

use crate::prelude::*;
use crate::Stream;

/// GMRES-IR: inner precision `Lo`, outer (residual/solution) precision `Hi`.
pub struct GmresIr<'a, Lo: BackendScalar, Hi: BackendScalar> {
    a_hi: &'a GpuMatrix<Hi>,
    rung: Refine<'a, Lo>,
}

/// The inner solve of a refinement step. An enum rather than a boxed
/// trait object: a `dyn` bound by `'a` would make dropping a `GmresIr`
/// require its preconditioner to still be alive.
enum Inner<'a, S: BackendScalar> {
    /// One GMRES(m) cycle of the one-lane block driver (bit-identical to
    /// a single-RHS GMRES).
    Cycle {
        precond: &'a dyn Preconditioner<S>,
        gmres: GmresConfig,
    },
    /// A nested rung in fp16 (the three-precision ladder's middle level).
    Nested(Box<Refine<'a, Half>>),
}

/// One refinement rung: Algorithm 2's loop around an inner solve in `Lo`,
/// over an operator handed in per solve. It owns its `Lo` matrix copy
/// (and the store a storage path packs from it), so a nested rung, whose
/// operator is its parent's copy, borrows nothing from its parent.
struct Refine<'a, Lo: BackendScalar> {
    a_lo: GpuMatrix<Lo>,
    store: Option<GpuStore<Lo>>,
    inner: Inner<'a, Lo>,
    cfg: IrConfig,
    /// Stop with `MaxIters` once a step leaves the true residual at or
    /// above this fraction of the previous one: 1.0 (no progress) for a
    /// cycle rung, 0.999 for the three-precision ladder.
    stall_ratio: f64,
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
    /// the paper's protocol, §V). A non-[`StorePath::Native`]
    /// storage path additionally builds the low-precision value store
    /// the inner block solver streams. Panics on an unsupported
    /// combination; see [`GmresIr::try_new`] for the typed-error
    /// variant.
    pub fn new(
        a_hi: &'a GpuMatrix<Hi>,
        precond_lo: &'a dyn Preconditioner<Lo>,
        cfg: IrConfig,
    ) -> Self {
        Self::try_new(a_hi, precond_lo, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`GmresIr::new`] with typed errors: an invalid inner cycle
    /// configuration or a preconditioner of another dimension is
    /// rejected here. A non-native storage path packs the inner operand,
    /// so it supports exactly the preconditioners that never touch the
    /// matrix at apply time ([`Preconditioner::needs_matrix`] is `false`:
    /// identity, block Jacobi, cast wrappers — they apply in the working
    /// precision while the SpMM streams narrow values). A matrix-needing
    /// preconditioner degrades to [`SolveError::UnsupportedCombination`].
    pub fn try_new(
        a_hi: &'a GpuMatrix<Hi>,
        precond_lo: &'a dyn Preconditioner<Lo>,
        cfg: IrConfig,
    ) -> Result<Self, SolveError> {
        Ok(GmresIr {
            a_hi,
            rung: Refine::over_cycle(a_hi.convert(), precond_lo, cfg)?,
        })
    }

    /// Refinement whose inner solve is an fp16 rung running `mid_cfg`
    /// over this rung's `Lo` copy; both copies are made here. It stops
    /// once a step cuts the residual by less than 0.1%.
    pub(crate) fn try_nested(
        a_hi: &'a GpuMatrix<Hi>,
        precond: &'a dyn Preconditioner<Half>,
        mid_cfg: IrConfig,
        cfg: IrConfig,
    ) -> Result<Self, SolveError> {
        let a_lo: GpuMatrix<Lo> = a_hi.convert();
        let mid = Refine::over_cycle(a_lo.convert(), precond, mid_cfg)?;
        let rung = Refine {
            a_lo,
            store: None,
            inner: Inner::Nested(Box::new(mid)),
            cfg,
            stall_ratio: 0.999,
        };
        Ok(GmresIr { a_hi, rung })
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
        serve_refined(ctx, req, |a| {
            let cfg = IrConfig {
                record_history: req.config.record_history,
                ..IrConfig::default()
                    .with_m(req.config.m)
                    .with_rtol(req.config.rtol)
                    .with_max_iters(req.config.max_iters)
                    .with_store(req.store)
            };
            Self::try_new(a, precond_lo, cfg)
        })
    }

    /// The inner low-precision value store, when a non-native
    /// [`StorePath`] is configured.
    pub fn store_lo(&self) -> Option<&GpuStore<Lo>> {
        self.rung.store.as_ref()
    }

    /// The configuration in use.
    pub fn config(&self) -> &IrConfig {
        &self.rung.cfg
    }

    /// Solve `A x = b` to the outer tolerance; `x` holds the initial
    /// guess on entry and the solution on exit.
    pub fn solve(&self, ctx: &mut GpuContext, b: &[Hi], x: &mut [Hi]) -> SolveResult {
        self.rung.refine(ctx, self.a_hi, b, x)
    }
}

/// The serve front of both refinement drivers: validate the request,
/// require a plain matrix operand (for the high-precision residual) and
/// the identity as its preconditioner (the driver's own runs in the inner
/// precision), then time a solve by the driver `build` makes.
pub(crate) fn serve_refined<'a, Lo: BackendScalar, Hi: BackendScalar>(
    ctx: &mut GpuContext,
    req: &SolveRequest<'a, '_, Hi>,
    build: impl FnOnce(&'a GpuMatrix<Hi>) -> Result<GmresIr<'a, Lo, Hi>, SolveError>,
) -> Result<SolveOutcome<Hi>, SolveError> {
    req.validate()?;
    let unsupported = |why: &str| Err(SolveError::UnsupportedCombination(why.into()));
    if !req.precond.is_identity() {
        return unsupported(
            "refinement applies its preconditioner in the inner precision; pass it as \
             `precond_lo` and leave the request's own preconditioner at the identity",
        );
    }
    let Operator::Matrix(a) = req.operator else {
        return unsupported(
            "refinement needs the plain high-precision matrix for its outer residual; \
             select the inner operand's storage path with the request's `store` field",
        );
    };
    let ir = build(a)?;
    Ok(req.run_once(ctx, |ctx, b, x| ir.solve(ctx, b, x)))
}

impl<'a, Lo: BackendScalar> Refine<'a, Lo> {
    /// A rung whose inner solve is one GMRES(m) cycle over `a_lo`, or
    /// over the store `cfg.store` selects.
    fn over_cycle(
        a_lo: GpuMatrix<Lo>,
        precond: &'a dyn Preconditioner<Lo>,
        cfg: IrConfig,
    ) -> Result<Self, SolveError> {
        let gmres = match cfg.inner_early_exit {
            None => GmresConfig::inner_cycle(cfg.m),
            Some(tau) => GmresConfig {
                monitor_implicit: true,
                rtol: tau,
                record_history: cfg.record_history,
                ..GmresConfig::inner_cycle(cfg.m)
            },
        };
        let rung = Refine {
            store: GpuStore::for_path(&a_lo, cfg.store),
            a_lo,
            inner: Inner::Cycle { precond, gmres },
            cfg,
            stall_ratio: 1.0,
        };
        // Vet the cycle's configuration, preconditioner dimension and (a
        // packed operand takes matrix-free preconditioners only) store.
        BlockGmres::try_on(rung.operator(), precond, gmres)?;
        Ok(rung)
    }

    /// The inner cycle's operator: the store a storage path packed, or
    /// the `Lo` matrix copy itself.
    fn operator(&self) -> Operator<'_, Lo> {
        self.store
            .as_ref()
            .map_or(Operator::Matrix(&self.a_lo), Operator::Store)
    }

    /// The inner solve of one step: `A_lo u = r` from `u = 0`.
    fn inner_solve(
        &self,
        ctx: &mut GpuContext,
        r: &MultiVec<Lo>,
        u: &mut MultiVec<Lo>,
    ) -> SolveResult {
        let gmres = match self.inner {
            Inner::Nested(ref mid) => return mid.refine(ctx, &self.a_lo, r.col(0), u.col_mut(0)),
            Inner::Cycle { precond, gmres } => {
                BlockGmres::try_on(self.operator(), precond, gmres).expect("vetted by over_cycle")
            }
        };
        gmres.solve(ctx, r, u).pop().expect("one inner lane")
    }

    /// The high-precision refinement step `r = b - A x`, recorded as one
    /// stream region with the norm it returns.
    fn outer_residual<Hi: BackendScalar>(
        ctx: &mut GpuContext,
        a_hi: &GpuMatrix<Hi>,
        b: &[Hi],
        x: &[Hi],
        r: &mut [Hi],
    ) -> f64 {
        let mut norm = Hi::zero();
        let mut st = ctx.stream();
        let (ah, bh, xh) = (st.matrix(a_hi), st.slice(b), st.slice(x));
        let (rh, nh) = (st.slice_mut(r), st.val_mut(&mut norm));
        st.residual_as(KernelClass::ResidualHi, ah, bh, xh, rh);
        st.norm2_into_as(KernelClass::ResidualHi, rh.read(), nh);
        st.sync();
        norm.to_f64()
    }

    /// Refine `x` towards the solution of `a_hi x = b`.
    fn refine<Hi: BackendScalar>(
        &self,
        ctx: &mut GpuContext,
        a_hi: &GpuMatrix<Hi>,
        b: &[Hi],
        x: &mut [Hi],
    ) -> SolveResult {
        let n = a_hi.n();
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);

        let mut history: Vec<HistoryPoint> = Vec::new();
        let mut r = vec![Hi::zero(); n];
        let mut r_lo = MultiVec::<Lo>::zeros(n, 1);
        let mut u_lo = MultiVec::<Lo>::zeros(n, 1);
        let mut u_hi = vec![Hi::zero(); n];

        // High-precision initial residual (Algorithm 2, line 1).
        let mut rnorm = Self::outer_residual(ctx, a_hi, b, x, &mut r);
        let r0_norm = rnorm;
        if let Some(res) = SolveResult::trivial(r0_norm) {
            return res;
        }

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
            {
                let mut st = Stream::eager(ctx);
                let (rh, rlh) = (st.slice_mut(&mut r), st.slice_mut(r_lo.col_mut(0)));
                st.scal(Hi::from_f64(1.0 / rnorm), rh);
                st.cast(KernelClass::CastHost, rh.read(), rlh);
            }

            // Inner solve A_lo u = r_lo from a zero guess.
            u_lo.col_mut(0).fill(Lo::zero());
            let inner_res = self.inner_solve(ctx, &r_lo, &mut u_lo);
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
            {
                let mut st = Stream::eager(ctx);
                let (ulh, uh) = (st.slice(u_lo.col(0)), st.slice_mut(&mut u_hi));
                let xh = st.slice_mut(&mut *x);
                st.cast(KernelClass::CastHost, ulh, uh);
                st.axpy(Hi::from_f64(rnorm), uh.read(), xh);
            }
            let new_norm = Self::outer_residual(ctx, a_hi, b, x, &mut r);
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
            let stalled = new_norm >= rnorm * self.stall_ratio;
            rnorm = new_norm;
            if stalled {
                // The inner rungs can no longer reduce the true residual:
                // stop rather than loop forever.
                status = SolveStatus::MaxIters;
                break;
            }
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

    /// A preconditioner that keeps the default `needs_matrix() == true`.
    struct NeedsMatrix;

    impl Preconditioner<f64> for NeedsMatrix {
        fn apply(&self, _: &mut GpuContext, _: Option<&GpuMatrix<f64>>, x: &[f64], y: &mut [f64]) {
            y.copy_from_slice(x);
        }

        fn describe(&self) -> String {
            "needs-matrix".into()
        }
    }

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
        // A preconditioner that needs the plain matrix degrades to a
        // typed error instead of the old panic.
        let err = match GmresIr::<f64, f64>::try_new(&a, &NeedsMatrix, cfg) {
            Ok(_) => panic!("a matrix-needing preconditioner must be rejected over packed storage"),
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
