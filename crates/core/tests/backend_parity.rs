//! Full-solver backend parity: all four solvers must produce identical
//! results and identical simulated V100 timing reports on every backend.
//!
//! This is the acceptance test for the backend refactor: `GpuContext`
//! charges the profiler from operand shapes only, and the backends are
//! bit-compatible, so switching backends must change *nothing* about a
//! solve except wall-clock time.

use std::sync::Arc;

use mpgmres::precond::poly::PolyPreconditioner;
use mpgmres::precond::Identity;
use mpgmres::{
    Backend, BackendKind, FdConfig, Gmres, GmresConfig, GmresFd, GmresIr, GmresIr3, GpuContext,
    GpuMatrix, Ir3Config, IrConfig, ParallelBackend, ReferenceBackend, SolveResult,
};
use mpgmres_gpusim::{DeviceModel, PaperCategory, TimingReport};
use mpgmres_la::coo::Coo;
use mpgmres_la::par::{GEMV_PAR_THRESHOLD, SPMV_PAR_THRESHOLD};
use mpgmres_la::vec_ops::{ReductionOrder, PAR_THRESHOLD};
use mpgmres_scalar::Half;

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

fn ctx(kind: BackendKind, order: ReductionOrder) -> GpuContext {
    GpuContext::with_backend_kind(DeviceModel::v100_belos(), order, kind)
}

fn assert_same_result(a: &SolveResult, b: &SolveResult, what: &str) {
    assert_eq!(a.status, b.status, "{what}: status");
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.restarts, b.restarts, "{what}: restarts");
    assert_eq!(
        a.final_relative_residual.to_bits(),
        b.final_relative_residual.to_bits(),
        "{what}: final residual must be bit-identical"
    );
    assert_eq!(a.history.len(), b.history.len(), "{what}: history length");
    for (ha, hb) in a.history.iter().zip(&b.history) {
        assert_eq!(ha.iteration, hb.iteration, "{what}: history iteration");
        assert_eq!(
            ha.relative_residual.to_bits(),
            hb.relative_residual.to_bits(),
            "{what}: history residual must be bit-identical"
        );
    }
}

fn assert_same_report(a: &TimingReport, b: &TimingReport, what: &str) {
    assert_eq!(
        a.total_seconds.to_bits(),
        b.total_seconds.to_bits(),
        "{what}: total simulated seconds must be identical across backends"
    );
    for cat in PaperCategory::ALL {
        let (sa, sb) = (a.seconds(cat), b.seconds(cat));
        assert_eq!(sa.to_bits(), sb.to_bits(), "{what}: category {cat} seconds");
        let ca = a.categories.get(&cat).map(|s| s.calls).unwrap_or(0);
        let cb = b.categories.get(&cat).map(|s| s.calls).unwrap_or(0);
        assert_eq!(ca, cb, "{what}: category {cat} calls");
    }
}

/// Run one closure per backend and compare results + timing reports.
fn compare<F>(what: &str, order: ReductionOrder, run: F)
where
    F: Fn(&mut GpuContext) -> (SolveResult, Vec<f64>),
{
    let mut c_ref = ctx(BackendKind::Reference, order);
    let (r_ref, x_ref) = run(&mut c_ref);
    let mut c_par = ctx(BackendKind::Parallel, order);
    let (r_par, x_par) = run(&mut c_par);
    assert_same_result(&r_ref, &r_par, what);
    for (a, b) in x_ref.iter().zip(&x_par) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: solution must be bit-identical"
        );
    }
    assert_same_report(&c_ref.report(), &c_par.report(), what);
}

#[test]
fn gmres_identical_across_backends_both_orders() {
    let n = 160;
    let a = laplace1d(n);
    let b = vec![1.0f64; n];
    for order in [ReductionOrder::Sequential, ReductionOrder::GPU_LIKE] {
        compare(&format!("gmres/{order:?}"), order, |c| {
            let mut x = vec![0.0f64; n];
            let cfg = GmresConfig::default().with_m(20).with_max_iters(10_000);
            let r = Gmres::new(&a, &Identity, cfg).solve(c, &b, &mut x);
            (r, x)
        });
    }
}

#[test]
fn gmres_ir_identical_across_backends() {
    let n = 120;
    let a = laplace1d(n);
    let b = vec![1.0f64; n];
    for order in [ReductionOrder::Sequential, ReductionOrder::GPU_LIKE] {
        compare(&format!("gmres-ir/{order:?}"), order, |c| {
            let mut x = vec![0.0f64; n];
            let cfg = IrConfig::default().with_m(20).with_max_iters(20_000);
            let r = GmresIr::<f32, f64>::new(&a, &Identity, cfg).solve(c, &b, &mut x);
            (r, x)
        });
    }
}

#[test]
fn gmres_ir3_identical_across_backends() {
    let n = 32;
    let a = laplace1d(n);
    let b = vec![1.0f64; n];
    compare("gmres-ir3", ReductionOrder::Sequential, |c| {
        let mut x = vec![0.0f64; n];
        let cfg = Ir3Config {
            m: 32,
            ..Ir3Config::default()
        };
        let r = GmresIr3::new(&a, &Identity, cfg).solve(c, &b, &mut x);
        (r, x)
    });
}

#[test]
fn gmres_fd_identical_across_backends() {
    let n = 96;
    let a = laplace1d(n);
    let b = vec![1.0f64; n];
    let id32 = Identity;
    let id64 = Identity;
    compare("gmres-fd", ReductionOrder::Sequential, |c| {
        let cfg = FdConfig {
            m: 15,
            switch_at: 30,
            max_iters: 20_000,
            ..FdConfig::default()
        };
        let mut x = vec![0.0f64; n];
        let r = GmresFd::<f32, f64>::new(&a, &id32, &id64, cfg).solve(c, &b, &mut x);
        (r.result, x)
    });
}

#[test]
fn preconditioned_solve_identical_across_backends() {
    // Polynomial preconditioner: setup (Arnoldi + eigensolve) and apply
    // both go through the backend.
    let n = 96;
    let a = laplace1d(n);
    let b = vec![1.0f64; n];
    compare("gmres+poly", ReductionOrder::GPU_LIKE, |c| {
        let poly = PolyPreconditioner::build_auto_seed(c, &a, 8).expect("poly build");
        let mut x = vec![0.0f64; n];
        let cfg = GmresConfig::default().with_m(20).with_max_iters(5_000);
        let r = Gmres::new(&a, &poly, cfg).solve(c, &b, &mut x);
        (r, x)
    });
}

#[test]
fn half_precision_ir_identical_across_backends() {
    let n = 24;
    let a = laplace1d(n);
    let b = vec![1.0f64; n];
    compare("gmres-ir<half>", ReductionOrder::Sequential, |c| {
        let mut x = vec![0.0f64; n];
        let cfg = IrConfig::default().with_m(24).with_max_iters(50_000);
        let r = GmresIr::<Half, f64>::new(&a, &Identity, cfg).solve(c, &b, &mut x);
        (r, x)
    });
}

#[test]
fn gmres_parity_on_large_problem_exercises_parallel_kernels() {
    // n and nnz are above PAR_THRESHOLD, GEMV_PAR_THRESHOLD and
    // SPMV_PAR_THRESHOLD and the backend is forced to 4 participants,
    // so the row/column/block partitioned kernels in `mpgmres_la::par`
    // genuinely execute (the small-problem tests above all take the
    // sequential fallback).
    let n = PAR_THRESHOLD + 1_000;
    let a = laplace1d(n);
    const { assert!(GEMV_PAR_THRESHOLD <= PAR_THRESHOLD) };
    assert!(n >= PAR_THRESHOLD && a.nnz() >= SPMV_PAR_THRESHOLD);
    let b = vec![1.0f64; n];
    let cfg = GmresConfig::default().with_m(20).with_max_iters(100);
    let run = |backend: Arc<dyn Backend>| {
        let mut c =
            GpuContext::with_backend(DeviceModel::v100_belos(), ReductionOrder::GPU_LIKE, backend);
        let mut x = vec![0.0f64; n];
        let r = Gmres::new(&a, &Identity, cfg).solve(&mut c, &b, &mut x);
        (r, x, c.report())
    };
    let (r_ref, x_ref, rep_ref) = run(Arc::new(ReferenceBackend));
    let (r_par, x_par, rep_par) = run(Arc::new(ParallelBackend::with_threads(4)));
    assert_same_result(&r_ref, &r_par, "gmres/large");
    for (p, q) in x_ref.iter().zip(&x_par) {
        assert_eq!(p.to_bits(), q.to_bits(), "gmres/large: solution bits");
    }
    assert_same_report(&rep_ref, &rep_par, "gmres/large");
}
