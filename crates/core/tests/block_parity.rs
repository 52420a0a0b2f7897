//! Multi-RHS parity: `BlockGmres` vs the independent textbook oracle.
//!
//! The contract under test (see `block_gmres`'s module docs): each
//! column's solution, iteration history and terminal status are
//! **bit-for-bit** identical to an independent textbook GMRES(m) solve
//! of that column (`common/oracle.rs`), on both backends and both
//! reduction orders, with identity and block-Jacobi preconditioning:
//!
//! - `k = 1`, through both the block driver and the single-RHS `Gmres`
//!   front;
//! - `k = 4`, including columns that converge at different iterations
//!   (exercising deflation), lockstep and pipelined.
//!
//! Two pins hold simulated timing reports to fixed values: fixed
//! single-RHS solves (`single_rhs_report_is_pinned`), and a three-lane
//! block solve at both pipeline depths, serial and critical
//! (`block_reports_are_pinned_at_both_depths`).

use std::sync::Arc;

use mpgmres::precond::block_jacobi::BlockJacobi;
use mpgmres::precond::{Identity, Preconditioner};
use mpgmres::{
    Backend, BackendKind, BlockGmres, Gmres, GmresConfig, GpuContext, GpuMatrix, MultiVec,
    ParallelBackend, ReferenceBackend, SolveResult, SolveStatus,
};
use mpgmres_gpusim::{DeviceModel, KernelClass, PaperCategory};
use mpgmres_la::coo::Coo;
use mpgmres_la::vec_ops::ReductionOrder;

#[path = "common/oracle.rs"]
mod oracle;

const ORDERS: [ReductionOrder; 2] = [ReductionOrder::Sequential, ReductionOrder::GPU_LIKE];

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

fn ctx_on(backend: Arc<dyn Backend>, order: ReductionOrder) -> GpuContext {
    GpuContext::with_backend(DeviceModel::v100_belos(), order, backend)
}

fn assert_results_identical(single: &SolveResult, block: &SolveResult, what: &str) {
    assert_eq!(single.status, block.status, "{what}: status");
    assert_eq!(single.iterations, block.iterations, "{what}: iterations");
    assert_eq!(single.restarts, block.restarts, "{what}: restarts");
    assert_eq!(
        single.final_relative_residual.to_bits(),
        block.final_relative_residual.to_bits(),
        "{what}: final residual"
    );
    assert_eq!(
        single.history.len(),
        block.history.len(),
        "{what}: history length"
    );
    for (i, (hs, hb)) in single.history.iter().zip(&block.history).enumerate() {
        assert_eq!(hs.iteration, hb.iteration, "{what}: history[{i}] iteration");
        assert_eq!(hs.kind, hb.kind, "{what}: history[{i}] kind");
        assert_eq!(
            hs.relative_residual.to_bits(),
            hb.relative_residual.to_bits(),
            "{what}: history[{i}] residual"
        );
    }
}

/// Oracle solves of each column from a zero initial guess, with the
/// block-Jacobi factors (when given) applied through a scratch context.
fn oracle_solves(
    a: &GpuMatrix<f64>,
    precond: Option<&BlockJacobi<f64>>,
    cols: &[&[f64]],
    cfg: &GmresConfig,
    order: ReductionOrder,
) -> Vec<(SolveResult, Vec<f64>)> {
    let mut scratch = ctx_on(Arc::new(ReferenceBackend), order);
    cols.iter()
        .map(|b| {
            let mut x = vec![0.0f64; b.len()];
            let res = match precond {
                None => oracle::gmres(a.csr(), oracle::identity, b, &mut x, cfg, order),
                Some(bj) => oracle::gmres(
                    a.csr(),
                    |src: &[f64], dst: &mut [f64]| bj.apply(&mut scratch, None, src, dst),
                    b,
                    &mut x,
                    cfg,
                    order,
                ),
            };
            (res, x)
        })
        .collect()
}

/// Block-solve `cols` and hold every column to its oracle solve.
fn assert_block_matches_oracle(
    a: &GpuMatrix<f64>,
    precond: Option<&BlockJacobi<f64>>,
    cols: &[&[f64]],
    cfg: GmresConfig,
    expect: SolveStatus,
) {
    let pc: &dyn Preconditioner<f64> = match precond {
        Some(bj) => bj,
        None => &Identity,
    };
    for order in ORDERS {
        let want = oracle_solves(a, precond, cols, &cfg, order);
        for (name, backend) in backends() {
            let what = format!("k={} {name}/{order:?}", cols.len());
            let mut ctx = ctx_on(backend, order);
            let bb = MultiVec::from_columns(cols);
            let mut xb = MultiVec::<f64>::zeros(a.n(), cols.len());
            let got = BlockGmres::new(a, pc, cfg).solve(&mut ctx, &bb, &mut xb);
            assert_eq!(got.len(), cols.len());
            for (l, (res_o, x_o)) in want.iter().enumerate() {
                let what = format!("{what}: col {l}");
                assert_eq!(res_o.status, expect, "{what}: oracle status");
                assert_results_identical(res_o, &got[l], &what);
                for (i, (xo, xbv)) in x_o.iter().zip(xb.col(l)).enumerate() {
                    assert_eq!(xo.to_bits(), xbv.to_bits(), "{what}: x[{i}]");
                }
            }
        }
    }
}

/// k = 1 reproduces the textbook solve bit-for-bit on both backends and
/// both reduction orders — through the block driver and through the
/// single-RHS `Gmres` front's slice wrapper.
#[test]
fn width_one_block_solve_is_bit_identical_to_gmres() {
    let a = laplace2d_matrix(40);
    let n = a.n();
    let b = rhs(n, 1);
    let cfg = GmresConfig::default().with_m(25).with_max_iters(5_000);
    assert_block_matches_oracle(&a, None, &[&b], cfg, SolveStatus::Converged);
    for order in ORDERS {
        let mut x_o = vec![0.0f64; n];
        let res_o = oracle::gmres(a.csr(), oracle::identity, &b, &mut x_o, &cfg, order);
        for (name, backend) in backends() {
            let what = format!("Gmres front {name}/{order:?}");
            let mut x = vec![0.0f64; n];
            let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx_on(backend, order), &b, &mut x);
            assert_results_identical(&res_o, &res, &what);
            for (i, (xo, xs)) in x_o.iter().zip(&x).enumerate() {
                assert_eq!(xo.to_bits(), xs.to_bits(), "{what}: x[{i}]");
            }
        }
    }
}

/// k = 4 with heterogeneous right-hand sides: every column bit-identical
/// to its oracle solve, with columns converging at different iteration
/// counts (so the deflation path really runs).
#[test]
fn width_four_columns_match_independent_solves() {
    let a = laplace2d_matrix(40);
    let n = a.n();
    // Heterogeneous difficulty: a smooth RHS, two pseudo-random ones,
    // and a near-sparse one converge at different iteration counts.
    let b0: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 / n as f64)).collect();
    let b1 = rhs(n, 2);
    let b2 = rhs(n, 3);
    let mut b3 = vec![0.0f64; n];
    b3[0] = 1.0;
    b3[n / 2] = -2.0;
    let cols: Vec<&[f64]> = vec![&b0, &b1, &b2, &b3];
    let cfg = GmresConfig::default().with_m(30).with_max_iters(5_000);

    let iters: Vec<usize> = oracle_solves(&a, None, &cols, &cfg, ReductionOrder::GPU_LIKE)
        .iter()
        .map(|(r, _)| r.iterations)
        .collect();
    assert!(
        iters.iter().any(|&i| i != iters[0]),
        "columns should converge at different iterations, got {iters:?}"
    );
    assert_block_matches_oracle(&a, None, &cols, cfg, SolveStatus::Converged);
}

/// The software-pipelined driver keeps the same contract: every column
/// of a `pipeline_depth = 1` block solve is bit-identical to its oracle
/// solve (the pipelining only moves host charges on the timeline, never
/// the arithmetic).
#[test]
fn pipelined_columns_match_independent_solves() {
    let a = laplace2d_matrix(32);
    let n = a.n();
    let cols_data: Vec<Vec<f64>> = (0..3).map(|l| rhs(n, 40 + l)).collect();
    let cols: Vec<&[f64]> = cols_data.iter().map(|c| c.as_slice()).collect();
    let cfg = GmresConfig::default()
        .with_m(25)
        .with_max_iters(5_000)
        .with_pipeline_depth(1);
    assert_block_matches_oracle(&a, None, &cols, cfg, SolveStatus::Converged);
    assert_block_matches_oracle(&a, None, &cols[..1], cfg, SolveStatus::Converged);
}

/// Preconditioned parity (block Jacobi): the preconditioner is applied
/// per column inside the block path and through the oracle's closure;
/// results must still be bit-identical, k = 1 and k = 4.
#[test]
fn preconditioned_block_solve_matches_independent_solves() {
    let a = laplace2d_matrix(32);
    let n = a.n();
    let precond = BlockJacobi::build(&a, 8);
    assert!(!precond.is_identity());
    let cfg = GmresConfig::default().with_m(20).with_max_iters(3_000);
    let cols: Vec<Vec<f64>> = (0..4).map(|l| rhs(n, 10 + l)).collect();
    let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
    assert_block_matches_oracle(&a, Some(&precond), &col_refs, cfg, SolveStatus::Converged);
    assert_block_matches_oracle(
        &a,
        Some(&precond),
        &col_refs[..1],
        cfg,
        SolveStatus::Converged,
    );
}

/// An iteration cap that lands mid-cycle: every column stops at
/// `MaxIters` with the oracle's partial-cycle update, k = 1 and k = 3.
#[test]
fn capped_columns_match_independent_solves() {
    let a = laplace2d_matrix(24);
    let n = a.n();
    let cols_data: Vec<Vec<f64>> = (0..3).map(|l| rhs(n, 70 + l)).collect();
    let cols: Vec<&[f64]> = cols_data.iter().map(|c| c.as_slice()).collect();
    let cfg = GmresConfig::default().with_m(10).with_max_iters(37);
    assert_block_matches_oracle(&a, None, &cols, cfg, SolveStatus::MaxIters);
    assert_block_matches_oracle(&a, None, &cols[..1], cfg, SolveStatus::MaxIters);
}

/// One pinned single-RHS report: (calls, bytes, seconds bits) per paper
/// category, in `PaperCategory::ALL` order.
struct PinnedReport {
    iterations: usize,
    restarts: usize,
    serial_bits: u64,
    categories: [(u64, u64, u64); 5],
}

/// The simulated timing report of two fixed single-RHS `Gmres` solves
/// (laplace2d(24), GMRES(10), rtol 1e-10; identity and block Jacobi)
/// on the reference backend, recorded and eager, is pinned to the
/// values the classic single-RHS loop charged before it became a
/// one-lane front over `BlockGmres`. Any driver edit that moves a call,
/// a byte or a simulated second of the reports the paper's tables are
/// built from fails here. A single-RHS critical path equals its serial
/// time.
#[test]
fn single_rhs_report_is_pinned() {
    const IDENTITY: PinnedReport = PinnedReport {
        iterations: 265,
        restarts: 27,
        serial_bits: 0x3fcd_a8c0_452e_8fea,
        categories: [
            (530, 15_759_360, 0x3f9f_c621_e516_7b08),
            (293, 1_350_144, 0x3fa0_80ab_f726_292f),
            (557, 19_671_552, 0x3f70_1769_5051_c00c),
            (293, 18_469_652, 0x3f61_2407_18b4_4cde),
            (611, 3_064_320, 0x3fc4_ca85_a3dc_d7a3),
        ],
    };
    const BLOCK_JACOBI: PinnedReport = PinnedReport {
        iterations: 166,
        restarts: 17,
        serial_bits: 0x3fc2_ced9_b252_f2aa,
        categories: [
            (332, 9_833_472, 0x3f93_e753_eb89_7444),
            (184, 847_872, 0x3f94_ba12_85eb_c767),
            (349, 12_284_928, 0x3f64_2a14_1287_dcae),
            (367, 20_033_248, 0x3f65_69b2_b72b_0004),
            (383, 1_921_536, 0x3fba_28bb_91fa_ff78),
        ],
    };
    let a = laplace2d_matrix(24);
    let n = a.n();
    let b = rhs(n, 11);
    let bj = BlockJacobi::build(&a, 8);
    let cfg = GmresConfig::default()
        .with_m(10)
        .with_max_iters(2_000)
        .with_rtol(1e-10);
    let cases: [(&str, &dyn Preconditioner<f64>, &PinnedReport); 2] = [
        ("identity", &Identity, &IDENTITY),
        ("block-jacobi", &bj, &BLOCK_JACOBI),
    ];
    for (name, pc, pin) in cases {
        for streaming in [true, false] {
            let what = format!("{name} streaming={streaming}");
            let mut ctx = ctx_on(Arc::new(ReferenceBackend), ReductionOrder::Sequential);
            ctx.set_streaming(streaming);
            let mut x = vec![0.0f64; n];
            let res = Gmres::new(&a, pc, cfg).solve(&mut ctx, &b, &mut x);
            assert_eq!(res.iterations, pin.iterations, "{what}: iterations");
            assert_eq!(res.restarts, pin.restarts, "{what}: restarts");
            let rep = ctx.report();
            assert_eq!(
                rep.total_seconds.to_bits(),
                pin.serial_bits,
                "{what}: serial seconds {}",
                rep.total_seconds
            );
            assert_eq!(
                rep.critical_path_seconds.to_bits(),
                pin.serial_bits,
                "{what}: critical path"
            );
            for (cat, &(calls, bytes, secs)) in PaperCategory::ALL.iter().zip(&pin.categories) {
                let got = rep.categories.get(cat).copied().unwrap_or_default();
                assert_eq!(got.calls, calls, "{what}: {cat} calls");
                assert_eq!(got.bytes, bytes, "{what}: {cat} bytes");
                assert_eq!(got.seconds.to_bits(), secs, "{what}: {cat} seconds");
            }
        }
    }
}

/// Degenerate columns (zero RHS, trivially convergent RHS, a finite
/// RHS whose 2-norm overflows) deflate immediately without disturbing
/// the remaining columns.
#[test]
fn degenerate_columns_deflate_cleanly() {
    let a = laplace2d_matrix(16);
    let n = a.n();
    let zero = vec![0.0f64; n];
    let hard = rhs(n, 5);
    let cfg = GmresConfig::default().with_m(12).with_max_iters(2_000);
    let cols: Vec<&[f64]> = vec![&zero, &hard];
    let mut ctx = ctx_on(Arc::new(ReferenceBackend), ReductionOrder::Sequential);
    let bb = MultiVec::from_columns(&cols);
    let mut xb = MultiVec::<f64>::zeros(n, 2);
    let res = BlockGmres::new(&a, &Identity, cfg).solve(&mut ctx, &bb, &mut xb);
    assert!(res[0].status.is_converged());
    assert_eq!(res[0].iterations, 0);
    assert!(xb.col(0).iter().all(|&v| v == 0.0));
    assert!(res[1].status.is_converged());
    assert!(res[1].iterations > 0);

    // Entries of 1e200 are finite, but their 2-norm overflows to +Inf:
    // that lane breaks down before its first iteration and leaves its
    // initial guess as it was, and the hard lane beside it computes
    // exactly what it computes without it.
    let poisoned = vec![1e200f64; n];
    let cols_p: Vec<&[f64]> = vec![&zero, &hard, &poisoned];
    let mut ctx_p = ctx_on(Arc::new(ReferenceBackend), ReductionOrder::Sequential);
    let bp = MultiVec::from_columns(&cols_p);
    let mut xp = MultiVec::<f64>::zeros(n, 3);
    xp.col_mut(2).fill(0.5);
    let res_p = BlockGmres::new(&a, &Identity, cfg).solve(&mut ctx_p, &bp, &mut xp);
    assert_eq!(res_p[2].status, SolveStatus::Breakdown);
    assert_eq!(res_p[2].iterations, 0);
    assert!(xp.col(2).iter().all(|v| v.to_bits() == 0.5f64.to_bits()));
    assert_results_identical(&res[1], &res_p[1], "hard lane beside an overflowing one");
    for (p, q) in xb.col(1).iter().zip(xp.col(1)) {
        assert_eq!(p.to_bits(), q.to_bits(), "hard lane solution");
    }

    // And a single-column zero block terminates immediately too.
    let mut ctx2 = ctx_on(Arc::new(ReferenceBackend), ReductionOrder::Sequential);
    let zb = MultiVec::from_columns(&[&zero[..]]);
    let mut xz = MultiVec::<f64>::zeros(n, 1);
    let rz = BlockGmres::new(&a, &Identity, cfg).solve(&mut ctx2, &zb, &mut xz);
    assert_eq!(rz[0].iterations, 0);
    assert!(rz[0].status.is_converged());
}

/// One pinned block-solve report: the per-lane iteration counts, the
/// serial report (`PinnedReport`, whose `iterations`/`restarts` are the
/// lane sums), the overlap-aware critical path and the HostDense
/// seconds hidden under device work.
struct PinnedBlockReport {
    lane_iterations: [usize; 3],
    report: PinnedReport,
    critical_bits: u64,
    host_hidden_bits: u64,
}

/// The simulated report of one fixed three-lane block solve
/// (laplace2d(32), GMRES(20), rtol 1e-10, recorded streams), at
/// pipeline depths 0 and 1, with identity and block Jacobi on the
/// reference backend. The lanes stop at different iterations inside a
/// cycle, so the active set shrinks mid-cycle and the barrier drains a
/// partial one. Pins the serial *and* the critical timeline, and the
/// host time the pipelined charge placement hides, so moving any charge
/// between regions fails here.
#[test]
fn block_reports_are_pinned_at_both_depths() {
    const IDENTITY_0: PinnedBlockReport = PinnedBlockReport {
        lane_iterations: [301, 232, 287],
        report: PinnedReport {
            iterations: 820,
            restarts: 43,
            serial_bits: 0x3fd8_14d8_c540_b27c,
            categories: [
                (602, 152_813_568, 0x3fa2_26c9_6eca_f776),
                (345, 7_094_272, 0x3fa3_6f58_3669_50e2),
                (645, 173_670_400, 0x3f73_901f_be53_d504),
                (347, 47_789_932, 0x3f64_c67e_dbb8_3476),
                (1223, 15_196_160, 0x3fd2_ea47_13e9_69ba),
            ],
        },
        critical_bits: 0x3fd7_da67_c57e_1f9b,
        host_hidden_bits: 0,
    };
    const IDENTITY_1: PinnedBlockReport = PinnedBlockReport {
        lane_iterations: [301, 232, 287],
        report: PinnedReport {
            iterations: 820,
            restarts: 43,
            serial_bits: 0x3fd8_14d8_c540_b27c,
            categories: [
                (602, 152_813_568, 0x3fa2_26c9_6eca_f776),
                (345, 7_094_272, 0x3fa3_6f58_3669_50e2),
                (645, 173_670_400, 0x3f73_901f_be53_d504),
                (347, 47_789_932, 0x3f64_c67e_dbb8_3476),
                (1223, 15_196_160, 0x3fd2_ea47_13e9_69ba),
            ],
        },
        critical_bits: 0x3fc4_9f38_39be_0bf0,
        host_hidden_bits: 0x3fc7_9994_4c63_ecf7,
    };
    const BLOCK_JACOBI_0: PinnedBlockReport = PinnedBlockReport {
        lane_iterations: [175, 151, 190],
        report: PinnedReport {
            iterations: 516,
            restarts: 27,
            serial_bits: 0x3fce_cb08_4c04_f351,
            categories: [
                (380, 94_978_048, 0x3f96_e9c7_045b_f477),
                (218, 4_472_832, 0x3f98_8fad_b85c_ea9f),
                (407, 108_101_632, 0x3f68_aba5_38cf_57fd),
                (763, 74_738_544, 0x3f76_9000_9755_874a),
                (770, 9_560_064, 0x3fc7_c4ab_1acf_edbf),
            ],
        },
        critical_bits: 0x3fce_852e_0dd4_1cd9,
        host_hidden_bits: 0,
    };
    const BLOCK_JACOBI_1: PinnedBlockReport = PinnedBlockReport {
        lane_iterations: [175, 151, 190],
        report: PinnedReport {
            iterations: 516,
            restarts: 27,
            serial_bits: 0x3fce_cb08_4c04_f351,
            categories: [
                (380, 94_978_048, 0x3f96_e9c7_045b_f477),
                (218, 4_472_832, 0x3f98_8fad_b85c_ea9f),
                (407, 108_101_632, 0x3f68_aba5_38cf_57fd),
                (763, 74_738_544, 0x3f76_9000_9755_874a),
                (770, 9_560_064, 0x3fc7_c4ab_1acf_edbf),
            ],
        },
        critical_bits: 0x3fbe_ff76_8de6_ecfe,
        host_hidden_bits: 0x3fbc_6b5a_9f91_5ded,
    };
    let a = laplace2d_matrix(32);
    let n = a.n();
    let b0: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 / n as f64)).collect();
    let b1 = rhs(n, 40);
    let mut b2 = vec![0.0f64; n];
    b2[0] = 1.0;
    b2[n / 2] = -2.0;
    let cols: Vec<&[f64]> = vec![&b0, &b1, &b2];
    let bj = BlockJacobi::build(&a, 8);
    let m = 20;
    let base = GmresConfig::default().with_m(m).with_max_iters(5_000);
    let cases: [(
        &str,
        &dyn Preconditioner<f64>,
        BackendKind,
        usize,
        &PinnedBlockReport,
    ); 4] = [
        (
            "identity depth 0",
            &Identity,
            BackendKind::Reference,
            0,
            &IDENTITY_0,
        ),
        (
            "identity depth 1",
            &Identity,
            BackendKind::Reference,
            1,
            &IDENTITY_1,
        ),
        (
            "block-jacobi depth 0",
            &bj,
            BackendKind::Reference,
            0,
            &BLOCK_JACOBI_0,
        ),
        (
            "block-jacobi depth 1",
            &bj,
            BackendKind::Reference,
            1,
            &BLOCK_JACOBI_1,
        ),
    ];
    for (what, pc, kind, depth, pin) in cases {
        let mut ctx = GpuContext::with_backend_kind(
            DeviceModel::v100_belos(),
            ReductionOrder::Sequential,
            kind,
        );
        let bb = MultiVec::from_columns(&cols);
        let mut xb = MultiVec::<f64>::zeros(n, cols.len());
        let cfg = base.with_pipeline_depth(depth);
        let res = BlockGmres::new(&a, pc, cfg).solve(&mut ctx, &bb, &mut xb);
        let iters: Vec<usize> = res.iter().map(|r| r.iterations).collect();
        assert!(
            res.iter().all(|r| r.status == SolveStatus::Converged),
            "{what}"
        );
        // Lanes leave mid-cycle, at different iterations.
        assert!(iters.iter().all(|&i| i % m != 0), "{what}: {iters:?}");
        assert_eq!(iters, pin.lane_iterations, "{what}: lane iterations");
        let restarts: usize = res.iter().map(|r| r.restarts).sum();
        assert_eq!(iters.iter().sum::<usize>(), pin.report.iterations, "{what}");
        assert_eq!(restarts, pin.report.restarts, "{what}: restarts");
        let rep = ctx.report();
        assert_eq!(
            rep.total_seconds.to_bits(),
            pin.report.serial_bits,
            "{what}: serial seconds {}",
            rep.total_seconds
        );
        assert_eq!(
            rep.critical_path_seconds.to_bits(),
            pin.critical_bits,
            "{what}: critical path {}",
            rep.critical_path_seconds
        );
        let hidden = ctx.profiler().class_stats(KernelClass::HostDense).hidden;
        assert_eq!(
            hidden.to_bits(),
            pin.host_hidden_bits,
            "{what}: hidden host seconds {hidden}"
        );
        for (cat, &(calls, bytes, secs)) in PaperCategory::ALL.iter().zip(&pin.report.categories) {
            let got = rep.categories.get(cat).copied().unwrap_or_default();
            assert_eq!(got.calls, calls, "{what}: {cat} calls");
            assert_eq!(got.bytes, bytes, "{what}: {cat} bytes");
            assert_eq!(got.seconds.to_bits(), secs, "{what}: {cat} seconds");
        }
    }
}
