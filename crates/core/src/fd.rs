//! GMRES-FD: the "float-double" precision-switching scheme (paper §III-C).
//!
//! Run restarted GMRES(m) entirely in low precision until a prescribed
//! global iteration count, then cast the current solution up and continue
//! in high precision using it as the initial guess. The paper evaluates
//! this as the "first inclination" alternative to GMRES-IR (Figures 1-2)
//! and finds it needs per-problem tuning of the switch point — and even
//! at the optimum it rarely beats untuned GMRES-IR.

use mpgmres_backend::BackendScalar;
use mpgmres_gpusim::KernelClass;
use serde::Serialize;

use crate::config::GmresConfig;
use crate::context::{GpuContext, GpuMatrix};
use crate::gmres::Gmres;
use crate::precond::Preconditioner;
use crate::status::{HistoryKind, HistoryPoint, SolveResult, SolveStatus};
use crate::Stream;

/// Configuration for GMRES-FD.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct FdConfig {
    /// Restart length for both phases (paper: 50).
    pub m: usize,
    /// Relative residual tolerance on the original system.
    pub rtol: f64,
    /// Global iteration at which to switch precisions. The paper switches
    /// at multiples of `m` (each restart boundary).
    pub switch_at: usize,
    /// Cap on total iterations across both phases.
    pub max_iters: usize,
    /// Record residual history.
    pub record_history: bool,
}

impl Default for FdConfig {
    fn default() -> Self {
        FdConfig {
            m: 50,
            rtol: 1e-10,
            switch_at: 500,
            max_iters: 200_000,
            record_history: true,
        }
    }
}

/// Result of a GMRES-FD solve, with the per-phase split.
#[derive(Clone, Debug, Serialize)]
pub struct FdResult {
    /// Combined result (status from the high-precision phase).
    pub result: SolveResult,
    /// Iterations spent in the low-precision phase.
    pub lo_iterations: usize,
    /// Iterations spent in the high-precision phase.
    pub hi_iterations: usize,
    /// Relative residual at the switch point.
    pub residual_at_switch: f64,
}

/// GMRES-FD with low precision `Lo` and high precision `Hi`.
pub struct GmresFd<'a, Lo: BackendScalar, Hi: BackendScalar> {
    a_hi: &'a GpuMatrix<Hi>,
    a_lo: GpuMatrix<Lo>,
    precond_lo: &'a dyn Preconditioner<Lo>,
    precond_hi: &'a dyn Preconditioner<Hi>,
    cfg: FdConfig,
}

impl<'a, Lo: BackendScalar, Hi: BackendScalar> GmresFd<'a, Lo, Hi> {
    /// Build the solver (the low-precision matrix copy is made here).
    pub fn new(
        a_hi: &'a GpuMatrix<Hi>,
        precond_lo: &'a dyn Preconditioner<Lo>,
        precond_hi: &'a dyn Preconditioner<Hi>,
        cfg: FdConfig,
    ) -> Self {
        GmresFd {
            a_hi,
            a_lo: a_hi.convert::<Lo>(),
            precond_lo,
            precond_hi,
            cfg,
        }
    }

    /// `||b - A x||` in high precision: the residual (charged as an
    /// SpMV) and its norm on one eager stream.
    fn residual_norm(&self, ctx: &mut GpuContext, b: &[Hi], x: &[Hi], r: &mut [Hi]) -> f64 {
        let mut norm = Hi::zero();
        {
            let mut st = Stream::eager(ctx);
            let (ah, bh, xh) = (st.matrix(self.a_hi), st.slice(b), st.slice(x));
            let (rh, nh) = (st.slice_mut(r), st.val_mut(&mut norm));
            st.residual_as(KernelClass::SpMV, ah, bh, xh, rh);
            st.norm2_into(rh.read(), nh);
        }
        norm.to_f64()
    }

    /// Solve `A x = b`; `x` carries the initial guess in and solution out.
    /// A non-finite initial residual (NaN or Inf in `b` or `x`) returns
    /// [`SolveStatus::Breakdown`] at once, before any cast or phase runs.
    pub fn solve(&self, ctx: &mut GpuContext, b: &[Hi], x: &mut [Hi]) -> FdResult {
        let n = self.a_hi.n();
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);

        // Reference norm for the global relative residual.
        let mut r = vec![Hi::zero(); n];
        let r0_norm = self.residual_norm(ctx, b, x, &mut r);
        // Nothing to solve (zero residual) or nothing solvable (NaN/Inf):
        // stop before either phase runs.
        if let Some(result) = SolveResult::trivial(r0_norm) {
            return FdResult {
                residual_at_switch: result.final_relative_residual,
                result,
                lo_iterations: 0,
                hi_iterations: 0,
            };
        }

        // ---- Phase 1: low precision up to the switch point. ----
        let mut b_lo = vec![Lo::zero(); n];
        let mut x_lo = vec![Lo::zero(); n];
        {
            let mut st = Stream::eager(ctx);
            let (bh, blh) = (st.slice(b), st.slice_mut(&mut b_lo));
            st.cast(KernelClass::CastHost, bh, blh);
            let (xh, xlh) = (st.slice(&*x), st.slice_mut(&mut x_lo));
            st.cast(KernelClass::CastHost, xh, xlh);
        }
        let lo_cfg = GmresConfig {
            m: self.cfg.m,
            rtol: self.cfg.rtol,
            max_iters: self.cfg.switch_at,
            ortho: crate::config::OrthoMethod::Cgs2,
            monitor_implicit: true,
            loa_factor: f64::INFINITY, // fp32 phase is best-effort
            record_history: self.cfg.record_history,
            basis: crate::config::BasisPolicy::Native,
        };
        let lo_res = if self.cfg.switch_at > 0 {
            Gmres::new(&self.a_lo, self.precond_lo, lo_cfg).solve(ctx, &b_lo, &mut x_lo)
        } else {
            SolveResult::unstarted(SolveStatus::MaxIters, 1.0, Vec::new())
        };
        {
            let mut st = Stream::eager(ctx);
            let (xlh, xh) = (st.slice(&x_lo), st.slice_mut(&mut *x));
            st.cast(KernelClass::CastHost, xlh, xh);
        }

        // Residual at the switch, relative to the original ||r0||.
        let residual_at_switch = self.residual_norm(ctx, b, x, &mut r) / r0_norm;

        let mut history: Vec<HistoryPoint> = Vec::new();
        if self.cfg.record_history {
            // Low-phase residuals are relative to ||b||_lo ~ ||r0||;
            // reuse them directly.
            history.extend(lo_res.history.iter().copied());
            history.push(HistoryPoint {
                iteration: lo_res.iterations,
                relative_residual: residual_at_switch,
                kind: HistoryKind::Explicit,
            });
        }

        if residual_at_switch <= self.cfg.rtol {
            return FdResult {
                result: SolveResult {
                    status: SolveStatus::Converged,
                    iterations: lo_res.iterations,
                    restarts: lo_res.restarts,
                    final_relative_residual: residual_at_switch,
                    history,
                },
                lo_iterations: lo_res.iterations,
                hi_iterations: 0,
                residual_at_switch,
            };
        }

        // ---- Phase 2: high precision from the cast solution. ----
        // The hi solver's relative residual is measured against its own
        // r0 (= switch residual); rescale its tolerance so convergence is
        // judged against the ORIGINAL right-hand side.
        let hi_rtol = (self.cfg.rtol / residual_at_switch).min(1.0);
        let hi_cfg = GmresConfig {
            m: self.cfg.m,
            rtol: hi_rtol,
            max_iters: self.cfg.max_iters.saturating_sub(lo_res.iterations),
            ortho: crate::config::OrthoMethod::Cgs2,
            monitor_implicit: true,
            loa_factor: 10.0,
            record_history: self.cfg.record_history,
            basis: crate::config::BasisPolicy::Native,
        };
        let hi_res = Gmres::new(self.a_hi, self.precond_hi, hi_cfg).solve(ctx, b, x);

        if self.cfg.record_history {
            for p in &hi_res.history {
                history.push(HistoryPoint {
                    iteration: lo_res.iterations + p.iteration,
                    relative_residual: p.relative_residual * residual_at_switch,
                    kind: p.kind,
                });
            }
        }

        FdResult {
            result: SolveResult {
                status: hi_res.status,
                iterations: lo_res.iterations + hi_res.iterations,
                restarts: lo_res.restarts + hi_res.restarts,
                final_relative_residual: hi_res.final_relative_residual * residual_at_switch,
                history,
            },
            lo_iterations: lo_res.iterations,
            hi_iterations: hi_res.iterations,
            residual_at_switch,
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

    fn true_rel(a: &GpuMatrix<f64>, b: &[f64], x: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        a.csr().residual(b, x, &mut r);
        mpgmres_la::vec_ops::norm2(&r) / mpgmres_la::vec_ops::norm2(b)
    }

    #[test]
    fn converges_to_double_accuracy() {
        let n = 96;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let cfg = FdConfig {
            m: 20,
            switch_at: 60,
            max_iters: 20_000,
            ..FdConfig::default()
        };
        let fd = GmresFd::<f32, f64>::new(&a, &Identity, &Identity, cfg);
        let res = fd.solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.result.status, SolveStatus::Converged);
        assert!(true_rel(&a, &b, &x) <= 1.2e-10);
        assert!(res.lo_iterations <= 60);
        assert!(res.hi_iterations > 0);
        assert!(res.residual_at_switch < 1.0);
    }

    #[test]
    fn switch_at_zero_is_pure_double() {
        let n = 48;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let cfg = FdConfig {
            m: 15,
            switch_at: 0,
            max_iters: 5_000,
            ..FdConfig::default()
        };
        let res =
            GmresFd::<f32, f64>::new(&a, &Identity, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.lo_iterations, 0);
        assert_eq!(res.result.status, SolveStatus::Converged);
        assert!(true_rel(&a, &b, &x) <= 1.2e-10);
    }

    #[test]
    fn late_switch_wastes_low_iterations() {
        // Once fp32 stalls, extra fp32 iterations add count but no
        // progress: the total iteration count grows with switch_at.
        let n = 64;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let run = |switch_at: usize| {
            let mut x = vec![0.0; n];
            let cfg = FdConfig {
                m: 16,
                switch_at,
                max_iters: 50_000,
                ..FdConfig::default()
            };
            GmresFd::<f32, f64>::new(&a, &Identity, &Identity, cfg).solve(&mut ctx(), &b, &mut x)
        };
        let early = run(64);
        let late = run(2_000);
        assert_eq!(early.result.status, SolveStatus::Converged);
        assert_eq!(late.result.status, SolveStatus::Converged);
        assert!(
            late.result.iterations > early.result.iterations,
            "late switch must cost more total iterations: {} vs {}",
            late.result.iterations,
            early.result.iterations
        );
    }

    #[test]
    fn history_is_globally_scaled() {
        let n = 48;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let cfg = FdConfig {
            m: 12,
            switch_at: 24,
            max_iters: 5_000,
            ..FdConfig::default()
        };
        let res =
            GmresFd::<f32, f64>::new(&a, &Identity, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        // Final explicit history point must match the final residual.
        let last = res
            .result
            .history
            .iter()
            .rev()
            .find(|p| p.kind == HistoryKind::Explicit)
            .unwrap();
        let rel = res.result.final_relative_residual;
        assert!(
            (last.relative_residual - rel).abs() <= 1e-12 + rel * 0.5,
            "history tail {} vs final {}",
            last.relative_residual,
            rel
        );
        // Iterations increase monotonically through the merged history.
        let mut prev = 0;
        for p in &res.result.history {
            assert!(p.iteration >= prev);
            prev = p.iteration;
        }
    }
    #[test]
    fn non_finite_rhs_breaks_down_before_any_cast() {
        let n = 32;
        let a = laplace1d(n);
        for bad in [f64::NAN, f64::INFINITY] {
            let mut b = vec![1.0; n];
            b[5] = bad;
            let mut x = vec![0.0; n];
            let mut c = ctx();
            let res = GmresFd::<f32, f64>::new(&a, &Identity, &Identity, FdConfig::default())
                .solve(&mut c, &b, &mut x);
            assert_eq!(res.result.status, SolveStatus::Breakdown, "{bad}");
            assert_eq!(res.result.iterations, 0);
            assert_eq!((res.lo_iterations, res.hi_iterations), (0, 0));
            let casts = c.profiler().class_stats(KernelClass::CastHost).calls;
            assert_eq!(casts, 0, "{bad}: no host cast may run");
        }
    }
}
