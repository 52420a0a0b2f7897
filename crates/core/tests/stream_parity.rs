//! Recorded-stream vs eager execution parity.
//!
//! The contract under test (ISSUE 3 acceptance): with streaming on, the
//! solvers record kernel regions into a dependency DAG and submit them
//! in overlapping batches; with streaming off, the identical call
//! sequence executes eagerly in record order. For GMRES and `BlockGmres`
//! (preconditioned included), on both backends:
//!
//! - solutions, histories, and statuses are **bit-for-bit** identical
//!   across the two modes;
//! - the serial simulated timing (total + per-category) is bit-for-bit
//!   identical across the two modes;
//! - the critical path never exceeds the serial total, equals it when
//!   everything is a chain (single-RHS GMRES, and all eager runs), and
//!   drops strictly below it when independent per-lane work exists
//!   (`BlockGmres` with several lanes).
//!
//! Every region derives its own DAG, so a second solve on a used
//! context must equal a solve on a fresh one. One single-RHS solve per
//! preconditioner is also held to the independent textbook oracle
//! (`common/oracle.rs`) in both modes.

use std::sync::Arc;

use mpgmres::precond::block_jacobi::BlockJacobi;
use mpgmres::precond::{Identity, Preconditioner};
use mpgmres::{
    Backend, BasisPolicy, BlockGmres, Gmres, GmresConfig, GmresIr, GpuContext, GpuMatrix, IrConfig,
    MultiVec, OrthoMethod, ParallelBackend, Precision, ReferenceBackend, SolveResult, StorePath,
};
use mpgmres_gpusim::{DeviceModel, PaperCategory};
use mpgmres_la::coo::Coo;
use mpgmres_la::vec_ops::ReductionOrder;

#[path = "common/oracle.rs"]
mod oracle;

fn laplace2d_matrix(nx: usize) -> GpuMatrix<f64> {
    let n = nx * nx;
    let mut coo = Coo::new(n, n);
    let idx = |i: usize, j: usize| i * nx + j;
    for i in 0..nx {
        for j in 0..nx {
            let r = idx(i, j);
            coo.push(r, r, 4.0);
            if i > 0 {
                coo.push(r, idx(i - 1, j), -1.0);
            }
            if i + 1 < nx {
                coo.push(r, idx(i + 1, j), -1.0);
            }
            if j > 0 {
                coo.push(r, idx(i, j - 1), -1.0);
            }
            if j + 1 < nx {
                coo.push(r, idx(i, j + 1), -1.0);
            }
        }
    }
    GpuMatrix::new(coo.into_csr())
}

fn rhs(n: usize, salt: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let z = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

fn backends() -> Vec<(&'static str, Arc<dyn Backend>)> {
    vec![
        ("reference", Arc::new(ReferenceBackend) as Arc<dyn Backend>),
        (
            "parallel",
            Arc::new(ParallelBackend::with_threads(4)) as Arc<dyn Backend>,
        ),
    ]
}

fn ctx_on(backend: Arc<dyn Backend>, streaming: bool) -> GpuContext {
    let mut ctx =
        GpuContext::with_backend(DeviceModel::v100_belos(), ReductionOrder::GPU_LIKE, backend);
    ctx.set_streaming(streaming);
    ctx
}

fn assert_results_identical(a: &SolveResult, b: &SolveResult, what: &str) {
    assert_eq!(a.status, b.status, "{what}: status");
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.restarts, b.restarts, "{what}: restarts");
    assert_eq!(
        a.final_relative_residual.to_bits(),
        b.final_relative_residual.to_bits(),
        "{what}: final residual"
    );
    assert_eq!(a.history.len(), b.history.len(), "{what}: history length");
    for (i, (ha, hb)) in a.history.iter().zip(&b.history).enumerate() {
        assert_eq!(
            ha.relative_residual.to_bits(),
            hb.relative_residual.to_bits(),
            "{what}: history[{i}]"
        );
    }
}

/// Serial accounting (total, per-category seconds/calls/bytes) must be
/// bit-identical across modes; criticals are compared by the caller.
fn assert_serial_reports_identical(rec: &GpuContext, eager: &GpuContext, what: &str) {
    let (rr, re) = (rec.report(), eager.report());
    assert_eq!(
        rr.total_seconds.to_bits(),
        re.total_seconds.to_bits(),
        "{what}: serial total"
    );
    for cat in PaperCategory::ALL {
        let a = rr.categories.get(&cat).copied().unwrap_or_default();
        let b = re.categories.get(&cat).copied().unwrap_or_default();
        assert_eq!(a.calls, b.calls, "{what}: {cat} calls");
        assert_eq!(a.bytes, b.bytes, "{what}: {cat} bytes");
        assert_eq!(
            a.seconds.to_bits(),
            b.seconds.to_bits(),
            "{what}: {cat} seconds"
        );
    }
}

/// Single-RHS GMRES: recorded == eager bit-for-bit, and because every
/// recorded region is a chain, the critical path equals the serial
/// total bit-for-bit in both modes.
#[test]
fn gmres_recorded_matches_eager_and_is_a_chain() {
    let a = laplace2d_matrix(40);
    let n = a.n();
    let b = rhs(n, 1);
    let cfg = GmresConfig::default().with_m(25).with_max_iters(5_000);
    for (name, backend) in backends() {
        for ortho in [OrthoMethod::Cgs2, OrthoMethod::Cgs1] {
            let what = format!("{name}/{ortho:?}");
            let run = |streaming: bool| {
                let mut ctx = ctx_on(backend.clone(), streaming);
                let mut x = vec![0.0f64; n];
                let res =
                    Gmres::new(&a, &Identity, cfg.with_ortho(ortho)).solve(&mut ctx, &b, &mut x);
                (ctx, x, res)
            };
            let (ctx_r, x_r, res_r) = run(true);
            let (ctx_e, x_e, res_e) = run(false);
            assert!(res_e.status.is_converged(), "{what}: converged");
            assert_results_identical(&res_r, &res_e, &what);
            for (i, (xr, xe)) in x_r.iter().zip(&x_e).enumerate() {
                assert_eq!(xr.to_bits(), xe.to_bits(), "{what}: x[{i}]");
            }
            assert_serial_reports_identical(&ctx_r, &ctx_e, &what);
            // Chain case: critical == serial, bit-for-bit, in both modes.
            let rep_r = ctx_r.report();
            let rep_e = ctx_e.report();
            assert_eq!(
                rep_r.critical_path_seconds.to_bits(),
                rep_r.total_seconds.to_bits(),
                "{what}: recorded single-RHS GMRES is a chain"
            );
            assert_eq!(
                rep_e.critical_path_seconds.to_bits(),
                rep_e.total_seconds.to_bits(),
                "{what}: eager runs serialize"
            );
        }
    }
}

/// Recorded and eager single-RHS GMRES on the reference backend, with
/// identity and block-Jacobi preconditioning, both reproduce the
/// textbook oracle bit-for-bit: solution, history and status.
#[test]
fn recorded_and_eager_gmres_match_the_oracle() {
    let a = laplace2d_matrix(24);
    let n = a.n();
    let b = rhs(n, 13);
    let bj = BlockJacobi::build(&a, 8);
    let cfg = GmresConfig::default().with_m(15).with_max_iters(2_000);
    let order = ReductionOrder::GPU_LIKE;
    let mut scratch = ctx_on(Arc::new(ReferenceBackend), false);
    let cases: [(&str, &dyn Preconditioner<f64>); 2] = [("identity", &Identity), ("bj", &bj)];
    for (name, pc) in cases {
        let mut x_o = vec![0.0f64; n];
        let want = if pc.is_identity() {
            oracle::gmres(a.csr(), oracle::identity, &b, &mut x_o, &cfg, order)
        } else {
            let apply = |src: &[f64], dst: &mut [f64]| bj.apply(&mut scratch, None, src, dst);
            oracle::gmres(a.csr(), apply, &b, &mut x_o, &cfg, order)
        };
        assert!(want.status.is_converged(), "{name}: oracle converged");
        for streaming in [true, false] {
            let what = format!("{name}/streaming={streaming}");
            let mut ctx = ctx_on(Arc::new(ReferenceBackend), streaming);
            let mut x = vec![0.0f64; n];
            let got = Gmres::new(&a, pc, cfg).solve(&mut ctx, &b, &mut x);
            assert_eq!(got.status, want.status, "{what}: status");
            assert_eq!(got.iterations, want.iterations, "{what}: iterations");
            assert_eq!(got.history.len(), want.history.len(), "{what}: history");
            for (i, (g, w)) in got.history.iter().zip(&want.history).enumerate() {
                assert_eq!(g.iteration, w.iteration, "{what}: history[{i}] iteration");
                assert_eq!(g.kind, w.kind, "{what}: history[{i}] kind");
                assert_eq!(
                    g.relative_residual.to_bits(),
                    w.relative_residual.to_bits(),
                    "{what}: history[{i}] residual"
                );
            }
            for (i, (xg, xw)) in x.iter().zip(&x_o).enumerate() {
                assert_eq!(xg.to_bits(), xw.to_bits(), "{what}: x[{i}]");
            }
        }
    }
}

/// Preconditioned single-RHS GMRES (block Jacobi): recorded == eager.
#[test]
fn preconditioned_gmres_recorded_matches_eager() {
    let a = laplace2d_matrix(32);
    let n = a.n();
    let precond = BlockJacobi::build(&a, 8);
    assert!(!precond.is_identity());
    let b = rhs(n, 7);
    let cfg = GmresConfig::default().with_m(20).with_max_iters(3_000);
    for (name, backend) in backends() {
        let run = |streaming: bool| {
            let mut ctx = ctx_on(backend.clone(), streaming);
            let mut x = vec![0.0f64; n];
            let res = Gmres::new(&a, &precond, cfg).solve(&mut ctx, &b, &mut x);
            (ctx, x, res)
        };
        let (ctx_r, x_r, res_r) = run(true);
        let (ctx_e, x_e, res_e) = run(false);
        assert!(res_e.status.is_converged(), "{name}: converged");
        assert_results_identical(&res_r, &res_e, name);
        for (xr, xe) in x_r.iter().zip(&x_e) {
            assert_eq!(xr.to_bits(), xe.to_bits(), "{name}: solution");
        }
        assert_serial_reports_identical(&ctx_r, &ctx_e, name);
    }
}

/// BlockGmres with several heterogeneous lanes: recorded == eager
/// bit-for-bit per column, serial accounting identical, and the
/// recorded critical path drops strictly below the serial total (the
/// per-lane barrier chains and initial residuals overlap).
#[test]
fn block_gmres_recorded_matches_eager_and_overlaps() {
    let a = laplace2d_matrix(40);
    let n = a.n();
    let b0: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 / n as f64)).collect();
    let b1 = rhs(n, 2);
    let b2 = rhs(n, 3);
    let mut b3 = vec![0.0f64; n];
    b3[0] = 1.0;
    b3[n / 2] = -2.0;
    let cols: Vec<&[f64]> = vec![&b0, &b1, &b2, &b3];
    let k = cols.len();
    let cfg = GmresConfig::default().with_m(30).with_max_iters(5_000);
    for (name, backend) in backends() {
        let run = |streaming: bool| {
            let mut ctx = ctx_on(backend.clone(), streaming);
            let bb = MultiVec::from_columns(&cols);
            let mut x = MultiVec::<f64>::zeros(n, k);
            let res = BlockGmres::new(&a, &Identity, cfg).solve(&mut ctx, &bb, &mut x);
            (ctx, x, res)
        };
        let (ctx_r, x_r, res_r) = run(true);
        let (ctx_e, x_e, res_e) = run(false);
        for l in 0..k {
            let what = format!("{name}: col {l}");
            assert!(res_e[l].status.is_converged(), "{what}: converged");
            assert_results_identical(&res_r[l], &res_e[l], &what);
            for (xr, xe) in x_r.col(l).iter().zip(x_e.col(l)) {
                assert_eq!(xr.to_bits(), xe.to_bits(), "{what}: solution");
            }
        }
        assert_serial_reports_identical(&ctx_r, &ctx_e, name);
        let rep_r = ctx_r.report();
        let rep_e = ctx_e.report();
        assert_eq!(
            rep_e.critical_path_seconds.to_bits(),
            rep_e.total_seconds.to_bits(),
            "{name}: eager mode serializes"
        );
        assert!(
            rep_r.critical_path_seconds <= rep_r.total_seconds,
            "{name}: critical must never exceed serial"
        );
        assert!(
            rep_r.critical_path_seconds < rep_r.total_seconds,
            "{name}: k = {k} lanes must overlap ({} !< {})",
            rep_r.critical_path_seconds,
            rep_r.total_seconds
        );
        // The contract is only `critical < serial`; no lower bound — a
        // future change that overlaps more must not fail this suite.
        assert!(rep_r.overlap_ratio() < 1.0 && rep_r.overlap_ratio() > 0.0);
    }
}

/// Preconditioned BlockGmres: recorded == eager per column, and the
/// split barrier (recorded GEMV region, eager preconditioner, recorded
/// residual region) still overlaps the independent lanes.
#[test]
fn preconditioned_block_gmres_recorded_matches_eager() {
    let a = laplace2d_matrix(32);
    let n = a.n();
    let precond = BlockJacobi::build(&a, 8);
    let cols_data: Vec<Vec<f64>> = (0..3).map(|l| rhs(n, 10 + l)).collect();
    let cols: Vec<&[f64]> = cols_data.iter().map(|c| c.as_slice()).collect();
    let cfg = GmresConfig::default().with_m(20).with_max_iters(3_000);
    for (name, backend) in backends() {
        let run = |streaming: bool| {
            let mut ctx = ctx_on(backend.clone(), streaming);
            let bb = MultiVec::from_columns(&cols);
            let mut x = MultiVec::<f64>::zeros(n, 3);
            let res = BlockGmres::new(&a, &precond, cfg).solve(&mut ctx, &bb, &mut x);
            (ctx, x, res)
        };
        let (ctx_r, x_r, res_r) = run(true);
        let (ctx_e, x_e, res_e) = run(false);
        for l in 0..3 {
            let what = format!("{name}: precond col {l}");
            assert!(res_e[l].status.is_converged(), "{what}: converged");
            assert_results_identical(&res_r[l], &res_e[l], &what);
            for (xr, xe) in x_r.col(l).iter().zip(x_e.col(l)) {
                assert_eq!(xr.to_bits(), xe.to_bits(), "{what}: solution");
            }
        }
        assert_serial_reports_identical(&ctx_r, &ctx_e, name);
        let rep = ctx_r.report();
        assert!(
            rep.critical_path_seconds < rep.total_seconds,
            "{name}: preconditioned lanes still overlap"
        );
    }
}

/// A second solve on a used context is bit-identical to a solve on a
/// fresh context and to eager — solution, history, and the full
/// `TimingReport` (serial totals, categories, critical path) — on both
/// backends.
#[test]
fn second_solve_is_bit_identical_to_fresh_context_and_eager() {
    let a = laplace2d_matrix(32);
    let n = a.n();
    let b = rhs(n, 5);
    let cfg = GmresConfig::default().with_m(12).with_max_iters(3_000);
    for (name, backend) in backends() {
        let solve = |ctx: &mut GpuContext| {
            ctx.reset_profile();
            let mut x = vec![0.0f64; n];
            let res = Gmres::new(&a, &Identity, cfg).solve(ctx, &b, &mut x);
            (x, res)
        };
        let mut ctx_fresh = ctx_on(backend.clone(), true);
        let (x_f, res_f) = solve(&mut ctx_fresh);
        let fresh_report = ctx_fresh.report();

        let mut ctx_warm = ctx_on(backend.clone(), true);
        let _ = solve(&mut ctx_warm);
        let (x_w, res_w) = solve(&mut ctx_warm); // second solve, same context

        let mut ctx_eager = ctx_on(backend.clone(), false);
        let (x_e, res_e) = solve(&mut ctx_eager);

        let what = format!("{name}: second vs fresh");
        assert_results_identical(&res_w, &res_f, &what);
        assert_results_identical(&res_w, &res_e, &format!("{name}: second vs eager"));
        for (i, (xw, xf)) in x_w.iter().zip(&x_f).enumerate() {
            assert_eq!(xw.to_bits(), xf.to_bits(), "{what}: x[{i}]");
        }
        for (xw, xe) in x_w.iter().zip(&x_e) {
            assert_eq!(xw.to_bits(), xe.to_bits(), "{name}: second vs eager x");
        }
        let warm_report = ctx_warm.report();
        assert_eq!(
            warm_report.total_seconds.to_bits(),
            fresh_report.total_seconds.to_bits(),
            "{what}: serial total"
        );
        assert_eq!(
            warm_report.critical_path_seconds.to_bits(),
            fresh_report.critical_path_seconds.to_bits(),
            "{what}: critical path"
        );
        for cat in PaperCategory::ALL {
            let w = warm_report
                .categories
                .get(&cat)
                .copied()
                .unwrap_or_default();
            let f = fresh_report
                .categories
                .get(&cat)
                .copied()
                .unwrap_or_default();
            assert_eq!(w.calls, f.calls, "{what}: {cat} calls");
            assert_eq!(w.seconds.to_bits(), f.seconds.to_bits(), "{what}: {cat} s");
        }
        let (x2, _) = solve(&mut ctx_warm);
        assert_eq!(x2, x_w);
    }
}

/// `BlockGmres`, preconditioned included: a second block solve on the
/// same context is bit-identical (per-column results, serial AND
/// critical timing) to the first on both backends.
#[test]
fn second_block_solve_is_bit_identical() {
    let a = laplace2d_matrix(28);
    let n = a.n();
    let precond = BlockJacobi::build(&a, 8);
    let cols_data: Vec<Vec<f64>> = (0..3).map(|l| rhs(n, 30 + l)).collect();
    let cols: Vec<&[f64]> = cols_data.iter().map(|c| c.as_slice()).collect();
    let cfg = GmresConfig::default().with_m(15).with_max_iters(3_000);
    for (name, backend) in backends() {
        for (pname, pc) in [
            ("identity", &Identity as &dyn Preconditioner<f64>),
            ("block-jacobi", &precond),
        ] {
            let solve = |ctx: &mut GpuContext| {
                ctx.reset_profile();
                let bb = MultiVec::from_columns(&cols);
                let mut x = MultiVec::<f64>::zeros(n, 3);
                let res = BlockGmres::new(&a, pc, cfg).solve(ctx, &bb, &mut x);
                (x, res)
            };
            let mut ctx = ctx_on(backend.clone(), true);
            let (x_f, res_f) = solve(&mut ctx);
            let rep_f = ctx.report();
            let (x_w, res_w) = solve(&mut ctx);
            let rep_w = ctx.report();
            let what = format!("{name}/{pname}");
            for l in 0..3 {
                assert_results_identical(&res_w[l], &res_f[l], &format!("{what}: col {l}"));
                for (xw, xf) in x_w.col(l).iter().zip(x_f.col(l)) {
                    assert_eq!(xw.to_bits(), xf.to_bits(), "{what}: col {l} x");
                }
            }
            assert_eq!(
                rep_w.total_seconds.to_bits(),
                rep_f.total_seconds.to_bits(),
                "{what}: serial"
            );
            assert_eq!(
                rep_w.critical_path_seconds.to_bits(),
                rep_f.critical_path_seconds.to_bits(),
                "{what}: critical"
            );
        }
    }
}

/// ISSUE 5 acceptance: the software-pipelined `BlockGmres` driver
/// (`pipeline_depth = 1`) is bit-identical to the lockstep baseline —
/// per-lane solutions, histories, statuses AND the full serial
/// accounting — in both streaming and eager mode, on both backends,
/// with deflation happening mid-run (the heterogeneous columns
/// converge at different points). On the recorded timeline the
/// pipelined critical path drops strictly below lockstep's at k >= 2:
/// the deferred Givens/least-squares host steps hide behind device
/// work instead of serializing against it.
#[test]
fn pipelined_block_gmres_matches_lockstep_bitwise_and_overlaps_more() {
    let a = laplace2d_matrix(40);
    let n = a.n();
    let b0: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 / n as f64)).collect();
    let b1 = rhs(n, 2);
    let b2 = rhs(n, 3);
    let mut b3 = vec![0.0f64; n];
    b3[0] = 1.0;
    b3[n / 2] = -2.0;
    let cols: Vec<&[f64]> = vec![&b0, &b1, &b2, &b3];
    let k = cols.len();
    let base_cfg = GmresConfig::default().with_m(30).with_max_iters(5_000);
    for (name, backend) in backends() {
        let run = |depth: usize, streaming: bool| {
            let mut ctx = ctx_on(backend.clone(), streaming);
            let bb = MultiVec::from_columns(&cols);
            let mut x = MultiVec::<f64>::zeros(n, k);
            let cfg = base_cfg.with_pipeline_depth(depth);
            let res = BlockGmres::new(&a, &Identity, cfg).solve(&mut ctx, &bb, &mut x);
            (ctx, x, res)
        };
        let (ctx_l, x_l, res_l) = run(0, true); // lockstep, recorded
        let (ctx_p, x_p, res_p) = run(1, true); // pipelined, recorded
        let (ctx_le, x_le, _) = run(0, false); // lockstep, eager
        let (ctx_pe, x_pe, res_pe) = run(1, false); // pipelined, eager

        let mut mid_cycle_exit = false;
        for l in 0..k {
            let what = format!("{name}: pipelined col {l}");
            assert!(res_l[l].status.is_converged(), "{what}: converged");
            assert_results_identical(&res_p[l], &res_l[l], &what);
            assert_results_identical(&res_pe[l], &res_l[l], &format!("{what} (eager)"));
            for (xp, xl) in x_p.col(l).iter().zip(x_l.col(l)) {
                assert_eq!(xp.to_bits(), xl.to_bits(), "{what}: solution");
            }
            for (xp, xl) in x_pe.col(l).iter().zip(x_le.col(l)) {
                assert_eq!(xp.to_bits(), xl.to_bits(), "{what}: eager solution");
            }
            mid_cycle_exit |= res_l[l].iterations % base_cfg.m != 0;
        }
        assert!(
            mid_cycle_exit,
            "{name}: the case must exercise mid-cycle deflation"
        );
        // Identical charges in identical order: serial accounting is
        // bitwise equal across drivers and modes.
        assert_serial_reports_identical(&ctx_p, &ctx_l, &format!("{name}: pipelined/lockstep"));
        assert_serial_reports_identical(&ctx_pe, &ctx_le, &format!("{name}: eager pair"));
        assert_serial_reports_identical(&ctx_p, &ctx_pe, &format!("{name}: rec/eager"));
        // Eager mode serializes regardless of depth.
        let rep_pe = ctx_pe.report();
        assert_eq!(
            rep_pe.critical_path_seconds.to_bits(),
            rep_pe.total_seconds.to_bits(),
            "{name}: eager pipelined serializes"
        );
        // The pipelined timeline strictly beats lockstep at k >= 2.
        let rep_l = ctx_l.report();
        let rep_p = ctx_p.report();
        assert!(
            rep_p.critical_path_seconds < rep_l.critical_path_seconds,
            "{name}: pipelining must shorten the critical path ({} !< {})",
            rep_p.critical_path_seconds,
            rep_l.critical_path_seconds
        );
        assert!(
            rep_p.overlap_ratio() < rep_l.overlap_ratio(),
            "{name}: pipelined overlap ratio must beat lockstep ({} !< {})",
            rep_p.overlap_ratio(),
            rep_l.overlap_ratio()
        );
        // The hidden-latency accounting shows host time off the
        // critical path.
        let hidden = ctx_p
            .profiler()
            .class_stats(mpgmres_gpusim::KernelClass::HostDense)
            .hidden;
        assert!(
            hidden > 0.0,
            "{name}: deferred host steps must report hidden latency"
        );
    }
}

/// The pipelined contract holds under preconditioning too: bit-exact
/// per lane versus the lockstep baseline (split barrier, eager
/// preconditioner applies between recorded regions), with an overlap
/// ratio no worse than lockstep's.
#[test]
fn pipelined_preconditioned_block_gmres_matches_lockstep() {
    let a = laplace2d_matrix(32);
    let n = a.n();
    let precond = BlockJacobi::build(&a, 8);
    let cols_data: Vec<Vec<f64>> = (0..3).map(|l| rhs(n, 10 + l)).collect();
    let cols: Vec<&[f64]> = cols_data.iter().map(|c| c.as_slice()).collect();
    let base_cfg = GmresConfig::default().with_m(20).with_max_iters(3_000);
    for (name, backend) in backends() {
        let run = |depth: usize| {
            let mut ctx = ctx_on(backend.clone(), true);
            let bb = MultiVec::from_columns(&cols);
            let mut x = MultiVec::<f64>::zeros(n, 3);
            let cfg = base_cfg.with_pipeline_depth(depth);
            let res = BlockGmres::new(&a, &precond, cfg).solve(&mut ctx, &bb, &mut x);
            (ctx, x, res)
        };
        let (ctx_l, x_l, res_l) = run(0);
        let (ctx_p, x_p, res_p) = run(1);
        for l in 0..3 {
            let what = format!("{name}: precond pipelined col {l}");
            assert!(res_l[l].status.is_converged(), "{what}: converged");
            assert_results_identical(&res_p[l], &res_l[l], &what);
            for (xp, xl) in x_p.col(l).iter().zip(x_l.col(l)) {
                assert_eq!(xp.to_bits(), xl.to_bits(), "{what}: solution");
            }
        }
        assert_serial_reports_identical(&ctx_p, &ctx_l, name);
        let (rep_l, rep_p) = (ctx_l.report(), ctx_p.report());
        assert!(
            rep_p.critical_path_seconds < rep_l.critical_path_seconds,
            "{name}: preconditioned pipelining still shortens the critical path"
        );
    }
}

/// A second pipelined solve on the same context stays bit-identical to
/// the first, serial and critical timing included.
#[test]
fn second_pipelined_solve_is_bit_identical() {
    let a = laplace2d_matrix(28);
    let n = a.n();
    let cols_data: Vec<Vec<f64>> = (0..3).map(|l| rhs(n, 30 + l)).collect();
    let cols: Vec<&[f64]> = cols_data.iter().map(|c| c.as_slice()).collect();
    let cfg = GmresConfig::default()
        .with_m(15)
        .with_max_iters(3_000)
        .with_pipeline_depth(1);
    let mut ctx = ctx_on(Arc::new(ReferenceBackend), true);
    let solve = |ctx: &mut GpuContext| {
        ctx.reset_profile();
        let bb = MultiVec::from_columns(&cols);
        let mut x = MultiVec::<f64>::zeros(n, 3);
        let res = BlockGmres::new(&a, &Identity, cfg).solve(ctx, &bb, &mut x);
        (x, res)
    };
    let (x_f, res_f) = solve(&mut ctx);
    let rep_f = ctx.report();
    let (x_w, res_w) = solve(&mut ctx);
    let rep_w = ctx.report();
    for l in 0..3 {
        assert_results_identical(&res_w[l], &res_f[l], &format!("pipelined second col {l}"));
        for (xw, xf) in x_w.col(l).iter().zip(x_f.col(l)) {
            assert_eq!(xw.to_bits(), xf.to_bits(), "pipelined second col {l} x");
        }
    }
    assert_eq!(rep_w.total_seconds.to_bits(), rep_f.total_seconds.to_bits());
    assert_eq!(
        rep_w.critical_path_seconds.to_bits(),
        rep_f.critical_path_seconds.to_bits()
    );
}

/// A solver that switches storage paths on a used context: every solve
/// is bit-identical to the same solve on a fresh context, so nothing
/// one storage path recorded leaks into the other's.
#[test]
fn storage_path_switch_on_a_used_context_is_bit_identical() {
    let a = laplace2d_matrix(24);
    let n = a.n();
    let b = rhs(n, 41);
    let solve = |ctx: &mut GpuContext, store: StorePath| {
        let cfg = IrConfig::default()
            .with_m(10)
            .with_max_iters(2_000)
            .with_store(store);
        let mut x = vec![0.0f64; n];
        let res = GmresIr::<f64, f64>::new(&a, &Identity, cfg).solve(ctx, &b, &mut x);
        assert!(res.status.is_converged(), "{store:?}");
        (x, res)
    };
    let mut ctx = ctx_on(Arc::new(ReferenceBackend), true);
    for store in [
        StorePath::Native,
        StorePath::Native,
        StorePath::Shadow(Precision::Fp32),
        StorePath::Shadow(Precision::Fp32),
        StorePath::Native,
    ] {
        let (x_u, res_u) = solve(&mut ctx, store);
        let (x_f, res_f) = solve(&mut ctx_on(Arc::new(ReferenceBackend), true), store);
        assert_results_identical(&res_u, &res_f, &format!("{store:?}: used vs fresh"));
        for (xu, xf) in x_u.iter().zip(&x_f) {
            assert_eq!(xu.to_bits(), xf.to_bits(), "{store:?}: used vs fresh x");
        }
    }
}

/// Multiprecision acceptance: a second IR solve (outer fp64 residual
/// region plus the inner block regions) on the same context is
/// bit-identical to the first, serial and critical timing included.
#[test]
fn second_ir_solve_is_bit_identical() {
    let a = laplace2d_matrix(24);
    let n = a.n();
    let b = rhs(n, 43);
    for store in [
        StorePath::Native,
        StorePath::Shadow(Precision::Fp32),
        StorePath::Split(1.5),
    ] {
        let cfg = IrConfig::default()
            .with_m(10)
            .with_max_iters(2_000)
            .with_store(store);
        let mut ctx = ctx_on(Arc::new(ReferenceBackend), true);
        let solve = |ctx: &mut GpuContext| {
            ctx.reset_profile();
            let mut x = vec![0.0f64; n];
            let res = GmresIr::<f64, f64>::new(&a, &Identity, cfg).solve(ctx, &b, &mut x);
            (x, res)
        };
        let (x_f, res_f) = solve(&mut ctx);
        let rep_f = ctx.report();
        let (x_w, res_w) = solve(&mut ctx);
        let rep_w = ctx.report();
        assert_results_identical(&res_w, &res_f, &format!("{store:?}: warm IR"));
        for (xw, xf) in x_w.iter().zip(&x_f) {
            assert_eq!(xw.to_bits(), xf.to_bits(), "{store:?}: warm IR x");
        }
        assert_eq!(
            rep_w.total_seconds.to_bits(),
            rep_f.total_seconds.to_bits(),
            "{store:?}: warm IR serial total"
        );
        assert_eq!(
            rep_w.critical_path_seconds.to_bits(),
            rep_f.critical_path_seconds.to_bits(),
            "{store:?}: warm IR critical path"
        );
    }
}

/// GMRES-IR recorded vs eager, over every storage path, on both
/// backends: results, solutions, and the serial accounting are
/// bit-identical (the storage-path kernels price identically whether
/// charged eagerly or recorded).
#[test]
fn ir_recorded_matches_eager_for_all_storage_paths() {
    let a = laplace2d_matrix(24);
    let n = a.n();
    let b = rhs(n, 47);
    for store in [
        StorePath::Native,
        StorePath::Shadow(Precision::Fp32),
        StorePath::Split(1.5),
    ] {
        let cfg = IrConfig::default()
            .with_m(12)
            .with_max_iters(3_000)
            .with_store(store);
        for (name, backend) in backends() {
            let what = format!("{name}/{store:?}");
            let run = |streaming: bool| {
                let mut ctx = ctx_on(backend.clone(), streaming);
                let mut x = vec![0.0f64; n];
                let res = GmresIr::<f64, f64>::new(&a, &Identity, cfg).solve(&mut ctx, &b, &mut x);
                (ctx, x, res)
            };
            let (ctx_r, x_r, res_r) = run(true);
            let (ctx_e, x_e, res_e) = run(false);
            assert!(res_e.status.is_converged(), "{what}: converged");
            assert_results_identical(&res_r, &res_e, &what);
            for (xr, xe) in x_r.iter().zip(&x_e) {
                assert_eq!(xr.to_bits(), xe.to_bits(), "{what}: solution");
            }
            assert_serial_reports_identical(&ctx_r, &ctx_e, &what);
        }
    }
}

/// Compressed-basis acceptance: an explicit `BasisPolicy::Native` must
/// be indistinguishable from the default config — bit-identical
/// solutions, histories, and serial accounting on both backends, with
/// streaming on and off, for both `Gmres` and a pipelined `BlockGmres`.
/// This pins the `BasisStore` refactor as a no-op at native width.
#[test]
fn native_basis_policy_matches_default_bitwise() {
    let a = laplace2d_matrix(24);
    let n = a.n();
    let b = rhs(n, 53);
    let base = GmresConfig::default().with_m(12).with_max_iters(2_000);
    assert_eq!(base.basis, BasisPolicy::Native, "default basis is native");
    for (name, backend) in backends() {
        for streaming in [true, false] {
            let what = format!("{name}/streaming={streaming}");
            let run = |cfg: GmresConfig| {
                let mut ctx = ctx_on(backend.clone(), streaming);
                let mut x = vec![0.0f64; n];
                let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx, &b, &mut x);
                (ctx, x, res)
            };
            let (ctx_d, x_d, res_d) = run(base);
            let (ctx_n, x_n, res_n) = run(base.with_basis(BasisPolicy::Native));
            assert!(res_d.status.is_converged(), "{what}: converged");
            assert_results_identical(&res_n, &res_d, &what);
            for (xn, xd) in x_n.iter().zip(&x_d) {
                assert_eq!(xn.to_bits(), xd.to_bits(), "{what}: solution");
            }
            assert_serial_reports_identical(&ctx_n, &ctx_d, &what);
        }
    }
    // Pipelined block path: native basis must stay a no-op there too.
    let bcfg = base.with_pipeline_depth(1);
    let nrhs = 3;
    let mut bb = MultiVec::<f64>::zeros(n, nrhs);
    for l in 0..nrhs {
        bb.col_mut(l).copy_from_slice(&rhs(n, 60 + l as u64));
    }
    let run_block = |cfg: GmresConfig| {
        let mut ctx = ctx_on(Arc::new(ReferenceBackend), true);
        let mut x = MultiVec::<f64>::zeros(n, nrhs);
        let res = BlockGmres::new(&a, &Identity, cfg).solve(&mut ctx, &bb, &mut x);
        (x, res)
    };
    let (x_d, res_d) = run_block(bcfg);
    let (x_n, res_n) = run_block(bcfg.with_basis(BasisPolicy::Native));
    for l in 0..nrhs {
        assert_results_identical(&res_n[l], &res_d[l], &format!("pipelined lane {l}"));
        for (xn, xd) in x_n.col(l).iter().zip(x_d.col(l)) {
            assert_eq!(xn.to_bits(), xd.to_bits(), "pipelined lane {l} x");
        }
    }
}

/// Compressed-basis acceptance: switching the basis storage policy on a
/// used context leaks nothing between the paths — every native and
/// fp32-basis solve is bit-identical to the same solve on a fresh
/// context.
#[test]
fn basis_policy_switch_on_a_used_context_is_bit_identical() {
    let a = laplace2d_matrix(24);
    let n = a.n();
    let b = rhs(n, 59);
    let solve = |ctx: &mut GpuContext, basis: BasisPolicy| {
        // The compressed path holds the implicit/explicit gap at
        // storage-precision level; the raised LoA factor lets restarts
        // refine it away (Converged still means explicit <= rtol).
        let cfg = GmresConfig::default()
            .with_m(10)
            .with_max_iters(2_000)
            .with_loa_factor(1e8)
            .with_basis(basis);
        let mut x = vec![0.0f64; n];
        let res = Gmres::new(&a, &Identity, cfg).solve(ctx, &b, &mut x);
        assert!(res.status.is_converged(), "{basis:?}");
        (x, res)
    };
    let fp32 = BasisPolicy::Compressed(Precision::Fp32);
    let mut ctx = ctx_on(Arc::new(ReferenceBackend), true);
    for basis in [
        BasisPolicy::Native,
        BasisPolicy::Native,
        fp32,
        fp32,
        BasisPolicy::Native,
    ] {
        let (x_u, res_u) = solve(&mut ctx, basis);
        let (x_f, res_f) = solve(&mut ctx_on(Arc::new(ReferenceBackend), true), basis);
        assert_results_identical(&res_u, &res_f, &format!("{basis:?}: used vs fresh"));
        for (xu, xf) in x_u.iter().zip(&x_f) {
            assert_eq!(xu.to_bits(), xf.to_bits(), "{basis:?}: used vs fresh x");
        }
    }
}

/// Compressed-basis acceptance (the ULP-side of the gate): an fp32
/// basis is a storage-precision perturbation of the native solve, not a
/// different algorithm. Both paths must converge to the fp64 tolerance,
/// and over the first restart cycle — before roundoff has compounded
/// across restarts — the recorded convergence history must track the
/// native history at the storage precision's ULP scale.
#[test]
fn fp32_basis_history_tracks_native_at_storage_ulp_scale() {
    let a = laplace2d_matrix(24);
    let n = a.n();
    let b = rhs(n, 61);
    let m = 10;
    let solve = |basis: BasisPolicy| {
        let cfg = GmresConfig::default()
            .with_m(m)
            .with_max_iters(2_000)
            .with_loa_factor(1e8)
            .with_basis(basis);
        let mut ctx = ctx_on(Arc::new(ReferenceBackend), true);
        let mut x = vec![0.0f64; n];
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx, &b, &mut x);
        assert!(res.status.is_converged(), "{basis:?}");
        res
    };
    let native = solve(BasisPolicy::Native);
    let fp32 = solve(BasisPolicy::Compressed(Precision::Fp32));
    // Storage-ULP budget per entry: the first demotion rounds at
    // 2^-24; a cycle of CGS2 projections against the compressed basis
    // amplifies that by a modest factor, nowhere near sqrt(eps32).
    let ulp32 = (2f64).powi(-24);
    let budget = 64.0 * ulp32;
    let cycle = m.min(native.history.len()).min(fp32.history.len());
    assert!(cycle > 3, "first cycle must record history");
    for i in 0..cycle {
        let (rn, rc) = (
            native.history[i].relative_residual,
            fp32.history[i].relative_residual,
        );
        let rel = (rc - rn).abs() / rn.max(f64::MIN_POSITIVE);
        assert!(
            rel <= budget,
            "history[{i}]: fp32-basis residual {rc:e} deviates from native {rn:e} \
             by {rel:e} (> {budget:e})"
        );
    }
    // Across the whole solve the trajectories stay comparable: the
    // compressed path may spend extra iterations, but not multiples.
    assert!(
        fp32.iterations <= native.iterations * 2,
        "fp32 basis took {} iters vs native {}",
        fp32.iterations,
        native.iterations
    );
}

/// Sequential reduction order (the fully bit-deterministic mode): the
/// recorded path holds the same contract there.
#[test]
fn sequential_reduction_recorded_matches_eager() {
    let a = laplace2d_matrix(24);
    let n = a.n();
    let b = rhs(n, 21);
    let cfg = GmresConfig::default().with_m(15).with_max_iters(2_000);
    let run = |streaming: bool| {
        let mut ctx =
            GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::Sequential);
        ctx.set_streaming(streaming);
        let mut x = vec![0.0f64; n];
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx, &b, &mut x);
        (x, res, ctx.elapsed())
    };
    let (x_r, res_r, t_r) = run(true);
    let (x_e, res_e, t_e) = run(false);
    assert_results_identical(&res_r, &res_e, "sequential");
    assert_eq!(t_r.to_bits(), t_e.to_bits());
    for (xr, xe) in x_r.iter().zip(&x_e) {
        assert_eq!(xr.to_bits(), xe.to_bits());
    }
}
