//! Test-only textbook restarted GMRES(m): the independent oracle the
//! parity suites hold the library's GMRES driver to.
//!
//! Plain slices and `mpgmres_la` kernels only — no context, stream,
//! backend, or lane machinery. The loop is the paper's Algorithm 1
//! written out once: right preconditioning, CGS2 (two GEMV-T/GEMV-N
//! passes), Givens least squares, an explicit residual at every
//! restart, and Belos's loss-of-accuracy check. It keeps the kernel
//! order the bitwise contracts pin, so on the reference backend (and
//! every backend bit-identical to it) the driver must reproduce its
//! solution, history and status exactly.

use mpgmres::{GmresConfig, HistoryKind, HistoryPoint, SolveResult, SolveStatus};
use mpgmres_la::csr::Csr;
use mpgmres_la::givens::GivensLsq;
use mpgmres_la::multivector::MultiVector;
use mpgmres_la::vec_ops::{axpy, copy, norm2_ordered, scale, ReductionOrder};

/// The identity preconditioner as an oracle closure.
pub fn identity(x: &[f64], y: &mut [f64]) {
    copy(x, y);
}

/// Solve `A x = b` from the initial guess in `x` with CGS2 GMRES(m),
/// applying the right preconditioner `precond(src, dst)`. Honours the
/// config's `m`, `rtol`, `max_iters`, `monitor_implicit`, `loa_factor`
/// and `record_history`.
pub fn gmres(
    a: &Csr<f64>,
    mut precond: impl FnMut(&[f64], &mut [f64]),
    b: &[f64],
    x: &mut [f64],
    cfg: &GmresConfig,
    order: ReductionOrder,
) -> SolveResult {
    let (n, m) = (b.len(), cfg.m);
    let mut v = MultiVector::zeros(n, m + 1);
    let (mut r, mut w, mut z, mut u) = (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let (mut h1, mut h2) = (vec![0.0; m], vec![0.0; m]);
    let mut history = Vec::new();
    let note = |history: &mut Vec<HistoryPoint>, iteration, relative_residual, kind| {
        if cfg.record_history {
            history.push(HistoryPoint {
                iteration,
                relative_residual,
                kind,
            });
        }
    };
    let done = |status, iterations, restarts, final_relative_residual, history| SolveResult {
        status,
        iterations,
        restarts,
        final_relative_residual,
        history,
    };

    a.residual(b, x, &mut r);
    let mut gamma = norm2_ordered(&r, order);
    let r0 = gamma;
    if !r0.is_finite() {
        return done(SolveStatus::Breakdown, 0, 0, f64::NAN, history);
    }
    if r0 == 0.0 {
        return done(SolveStatus::Converged, 0, 0, 0.0, history);
    }
    note(&mut history, 0, 1.0, HistoryKind::Explicit);
    if cfg.rtol >= 1.0 {
        return done(SolveStatus::Converged, 0, 0, 1.0, history);
    }
    let (mut iters, mut restarts, mut rel) = (0, 0, 1.0);
    while iters < cfg.max_iters {
        copy(&r, v.col_mut(0));
        scale(1.0 / gamma, v.col_mut(0));
        let mut lsq = GivensLsq::new(m, gamma);
        let (mut breakdown, mut claims_converged) = (false, false);
        for j in 0..m {
            if iters >= cfg.max_iters {
                break;
            }
            precond(v.col(j), &mut z);
            a.spmv(&z, &mut w);
            v.gemv_t(j + 1, &w, &mut h1, order);
            v.gemv_n_sub(j + 1, &h1, &mut w);
            v.gemv_t(j + 1, &w, &mut h2, order);
            v.gemv_n_sub(j + 1, &h2, &mut w);
            let hj1 = norm2_ordered(&w, order);
            iters += 1;
            if !hj1.is_finite() {
                breakdown = true;
                break;
            }
            let mut hcol: Vec<f64> = (0..=j).map(|i| h1[i] + h2[i]).collect();
            hcol.push(hj1);
            let implicit = lsq.push_column(&hcol) / r0;
            note(&mut history, iters, implicit, HistoryKind::Implicit);
            // Lucky breakdown: the Krylov space is invariant.
            if hj1 <= r0 * f64::from(f32::MIN_POSITIVE) * f64::EPSILON {
                claims_converged = true;
                break;
            }
            copy(&w, v.col_mut(j + 1));
            scale(1.0 / hj1, v.col_mut(j + 1));
            if cfg.monitor_implicit && implicit <= cfg.rtol {
                claims_converged = true;
                break;
            }
        }

        // x += M^{-1} V y, then the explicit residual.
        let k = lsq.ncols();
        if k > 0 && lsq.is_degenerate() {
            breakdown = true;
        } else if k > 0 {
            u.fill(0.0);
            v.gemv_n_add(k, &lsq.solve(k), &mut u);
            precond(&u, &mut z);
            axpy(1.0, &z, x);
        }
        restarts += 1;
        a.residual(b, x, &mut r);
        gamma = norm2_ordered(&r, order);
        rel = gamma / r0;
        note(&mut history, iters, rel, HistoryKind::Explicit);
        let status = if rel <= cfg.rtol {
            SolveStatus::Converged
        } else if breakdown || !rel.is_finite() {
            SolveStatus::Breakdown
        } else if claims_converged && rel > cfg.loa_factor * cfg.rtol {
            SolveStatus::LossOfAccuracy
        } else {
            continue;
        };
        return done(status, iters, restarts, rel, history);
    }
    done(SolveStatus::MaxIters, iters, restarts, rel, history)
}
