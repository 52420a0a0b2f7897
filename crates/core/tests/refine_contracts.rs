//! Contracts of the refinement drivers' surface ([`GmresIr`] and the
//! three-precision [`GmresIr3`]):
//!
//! - the recorded history ends at the final residual, whatever the
//!   terminal status;
//! - a refinement step that does not lower the true residual stops the
//!   solve;
//! - the one-shot `serve` front rejects what refinement cannot run
//!   (a store operand, a working-precision preconditioner, a NaN) with
//!   a typed error, and a matrix request reproduces a direct `solve`
//!   bit for bit, timing included;
//! - a driver may be dropped after its preconditioner.

use mpgmres::precond::block_jacobi::BlockJacobi;
use mpgmres::precond::{Identity, Preconditioner};
use mpgmres::{
    GmresConfig, GmresIr, GmresIr3, GpuContext, GpuMatrix, GpuStore, HistoryKind, Ir3Config,
    IrConfig, Operator, Precision, SolveError, SolveOutcome, SolveRequest, SolveResult,
    SolveStatus, Solver,
};
use mpgmres_gpusim::DeviceModel;
use mpgmres_la::coo::Coo;
use mpgmres_la::vec_ops::ReductionOrder;

fn ctx() -> GpuContext {
    GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::Sequential)
}

/// Tridiagonal `[off, diag(i), off]`.
fn tridiag(n: usize, diag: impl Fn(usize) -> f64, off: f64) -> GpuMatrix<f64> {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, diag(i));
        if i > 0 {
            coo.push(i, i - 1, off);
        }
        if i + 1 < n {
            coo.push(i, i + 1, off);
        }
    }
    GpuMatrix::new(coo.into_csr())
}

fn laplace1d(n: usize) -> GpuMatrix<f64> {
    tridiag(n, |_| 2.0, -1.0)
}

fn assert_history_ends_at_final(what: &str, res: &SolveResult) {
    let last = res
        .history
        .iter()
        .rev()
        .find(|p| p.kind == HistoryKind::Explicit)
        .unwrap_or_else(|| panic!("{what}: no explicit history point"));
    assert_eq!(
        last.iteration, res.iterations,
        "{what}: last explicit point's iteration ({:?})",
        res.status
    );
    assert_eq!(
        last.relative_residual.to_bits(),
        res.final_relative_residual.to_bits(),
        "{what}: last explicit residual {} vs final {} ({:?})",
        last.relative_residual,
        res.final_relative_residual,
        res.status
    );
}

#[test]
fn history_ends_at_the_final_residual() {
    let a = laplace1d(96);
    let b = vec![1.0f64; 96];
    let mut x = vec![0.0f64; 96];
    let cfg = IrConfig::default().with_m(20).with_max_iters(20_000);
    let res = GmresIr::<f32, f64>::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
    assert_eq!(res.status, SolveStatus::Converged);
    assert_history_ends_at_final("ir converged", &res);

    let a = laplace1d(128);
    let b = vec![1.0f64; 128];
    let mut x = vec![0.0f64; 128];
    let cfg = IrConfig::default().with_m(10).with_max_iters(30);
    let res = GmresIr::<f32, f64>::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
    assert_eq!(res.status, SolveStatus::MaxIters);
    assert_history_ends_at_final("ir max-iters", &res);

    // An operator whose dynamic range swamps fp16: the three-precision
    // ladder stalls and stops.
    let a = tridiag(24, |i| if i % 2 == 0 { 1.0 } else { 3000.0 }, -0.5);
    let b = vec![1.0f64; 24];
    let mut x = vec![0.0f64; 24];
    let cfg = Ir3Config {
        m: 8,
        mid_max_iters: 64,
        max_iters: 4_000,
        ..Ir3Config::default()
    };
    let res = GmresIr3::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
    assert_history_ends_at_final("ir3 stall", &res);
}

/// A plain GMRES-IR whose inner solve cannot lower the true residual
/// stops at the first step that leaves it no lower, instead of running
/// to `max_iters`: the 1e-300 diagonal entry is 0 in fp32, so no fp32
/// inner solve can fix that component.
#[test]
fn ir_stops_when_a_step_does_not_lower_the_residual() {
    let diag = [1.0, 2.0, 3.0, 1e-300, 5.0, 6.0, 7.0, 8.0];
    let mut coo = Coo::new(8, 8);
    for (i, &d) in diag.iter().enumerate() {
        coo.push(i, i, d);
    }
    let a = GpuMatrix::new(coo.into_csr());
    let b = vec![1.0f64; 8];
    let mut x = vec![0.0f64; 8];
    let cfg = IrConfig::default().with_m(4);
    let res = GmresIr::<f32, f64>::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
    assert_eq!(res.status, SolveStatus::MaxIters);
    assert!(
        res.iterations <= 100,
        "ran {} inner iterations without lowering the residual",
        res.iterations
    );
    assert_history_ends_at_final("ir no progress", &res);
}

/// The two refinement drivers behind one serve front.
#[derive(Clone, Copy, Debug)]
enum Driver {
    Ir,
    Ir3,
}

impl Driver {
    fn serve(
        self,
        ctx: &mut GpuContext,
        req: &SolveRequest<'_, '_, f64>,
    ) -> Result<SolveOutcome<f64>, SolveError> {
        match self {
            Driver::Ir => GmresIr::<f32, f64>::serve(ctx, req),
            Driver::Ir3 => GmresIr3::serve(ctx, req),
        }
    }

    /// A direct solve configured the way `serve` maps `config`.
    fn solve(
        self,
        a: &GpuMatrix<f64>,
        config: &GmresConfig,
        ctx: &mut GpuContext,
        b: &[f64],
        x: &mut [f64],
    ) -> SolveResult {
        match self {
            Driver::Ir => {
                let cfg = IrConfig {
                    record_history: config.record_history,
                    ..IrConfig::default()
                        .with_m(config.m)
                        .with_rtol(config.rtol)
                        .with_max_iters(config.max_iters)
                };
                GmresIr::<f32, f64>::new(a, &Identity, cfg).solve(ctx, b, x)
            }
            Driver::Ir3 => {
                let cfg = Ir3Config {
                    m: config.m,
                    rtol: config.rtol,
                    max_iters: config.max_iters,
                    ..Ir3Config::default()
                };
                GmresIr3::new(a, &Identity, cfg).solve(ctx, b, x)
            }
        }
    }
}

/// The four front checks: a store operand, a working-precision
/// preconditioner and a NaN are typed errors, and a matrix request
/// reproduces a direct solve on a fresh context bit for bit.
fn check_serve_front(driver: Driver) {
    let n = 48;
    let a = laplace1d(n);
    let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
    let config = GmresConfig::default()
        .with_m(16)
        .with_max_iters(20_000)
        .with_rtol(1e-10);

    let store = GpuStore::shadow_of(&a, Precision::Fp32);
    let req = SolveRequest::new(Operator::Store(&store), &b).with_config(config);
    assert!(
        matches!(
            driver.serve(&mut ctx(), &req),
            Err(SolveError::UnsupportedCombination(_))
        ),
        "{driver:?}: a store operand must be rejected"
    );

    let bj = BlockJacobi::build(&a, 4);
    let req = SolveRequest::new(Operator::Matrix(&a), &b)
        .with_config(config)
        .with_precond(&bj);
    assert!(
        matches!(
            driver.serve(&mut ctx(), &req),
            Err(SolveError::UnsupportedCombination(_))
        ),
        "{driver:?}: a working-precision preconditioner must be rejected"
    );

    let mut poisoned = b.clone();
    poisoned[5] = f64::NAN;
    let req = SolveRequest::new(Operator::Matrix(&a), &poisoned).with_config(config);
    assert_eq!(
        driver.serve(&mut ctx(), &req).err(),
        Some(SolveError::NonFinite {
            what: "rhs",
            index: 5
        }),
        "{driver:?}: a NaN right-hand side must be rejected"
    );

    let req = SolveRequest::new(Operator::Matrix(&a), &b).with_config(config);
    let out = driver
        .serve(&mut ctx(), &req)
        .unwrap_or_else(|e| panic!("{driver:?}: {e}"));
    let mut direct_ctx = ctx();
    let mut x = vec![0.0f64; n];
    let res = driver.solve(&a, &config, &mut direct_ctx, &b, &mut x);
    let served = out.result.expect("completed outcome carries a result");
    assert!(
        served.status.is_converged(),
        "{driver:?}: {:?}",
        served.status
    );
    assert_eq!(served.iterations, res.iterations, "{driver:?}: iterations");
    for (i, (s, d)) in out.x.iter().zip(&x).enumerate() {
        assert_eq!(s.to_bits(), d.to_bits(), "{driver:?}: x[{i}]");
    }
    assert_eq!(
        out.solve_seconds.to_bits(),
        direct_ctx.elapsed().to_bits(),
        "{driver:?}: solve seconds"
    );
}

#[test]
fn ir_serve_front() {
    check_serve_front(Driver::Ir);
}

#[test]
fn ir3_serve_front() {
    check_serve_front(Driver::Ir3);
}

/// A driver built in a block's tail expression, over a preconditioner
/// local to that block, is dropped after the preconditioner. This must
/// compile: dropping a driver may not need its preconditioner alive.
#[test]
fn a_temporary_driver_may_outlive_its_preconditioner() {
    let a = laplace1d(16);
    let b = vec![1.0f64; 16];
    let mut x = vec![0.0f64; 16];
    let ir = {
        let p: Box<dyn Preconditioner<f32>> = Box::new(Identity);
        GmresIr::<f32, f64>::new(&a, &*p, IrConfig::default()).solve(&mut ctx(), &b, &mut x)
    };
    assert_eq!(ir.status, SolveStatus::Converged);
    let mut x = vec![0.0f64; 16];
    let ir3 = {
        let p: Box<dyn Preconditioner<mpgmres::prelude::Half>> = Box::new(Identity);
        GmresIr3::new(&a, &*p, Ir3Config::default()).solve(&mut ctx(), &b, &mut x)
    };
    assert_eq!(ir3.status, SolveStatus::Converged);
}

/// An invalid inner cycle or a preconditioner of another dimension is a
/// typed error at construction, not a panic inside the first solve.
#[test]
fn try_new_vets_the_inner_cycle() {
    let a = laplace1d(16);
    let m0 = IrConfig::default().with_m(0);
    assert!(matches!(
        GmresIr::<f32, f64>::try_new(&a, &Identity, m0).err(),
        Some(SolveError::InvalidConfig(_))
    ));
    let m0 = Ir3Config {
        m: 0,
        ..Ir3Config::default()
    };
    assert!(matches!(
        GmresIr3::try_new(&a, &Identity, m0).err(),
        Some(SolveError::InvalidConfig(_))
    ));
    let other = BlockJacobi::build(&laplace1d(8).convert::<f32>(), 2);
    assert!(matches!(
        GmresIr::<f32, f64>::try_new(&a, &other, IrConfig::default()).err(),
        Some(SolveError::DimensionMismatch { .. })
    ));
}
