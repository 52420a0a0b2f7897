//! Pins of the refinement drivers' results and simulated reports.
//!
//! One fixed solve per driver — GMRES-IR with the identity, GMRES-IR
//! over an fp16 shadow store with an fp32 block-Jacobi preconditioner,
//! the three-precision ladder, and GMRES-FD with both phases running —
//! on the reference backend with sequential reductions, streaming on
//! and off. Each pin holds the iteration and restart counts, every
//! history point (iteration, kind, residual bits), a bit digest of the
//! solution, the serial and critical-path seconds and, per
//! [`PaperCategory`], the calls, bytes and seconds. A driver edit that
//! moves any bit of a result or any charge of a report fails here.

use std::sync::Arc;

use mpgmres::precond::block_jacobi::BlockJacobi;
use mpgmres::precond::Identity;
use mpgmres::{
    FdConfig, GmresFd, GmresIr, GmresIr3, GpuContext, GpuMatrix, HistoryKind, Ir3Config, IrConfig,
    Precision, ReferenceBackend, SolveResult, SolveStatus, StorePath,
};
use mpgmres_gpusim::{DeviceModel, PaperCategory};
use mpgmres_la::coo::Coo;
use mpgmres_la::vec_ops::ReductionOrder;

/// What one pinned solve must reproduce.
#[derive(Debug, PartialEq)]
struct Pin {
    status: SolveStatus,
    iterations: usize,
    restarts: usize,
    history_len: usize,
    /// FNV-1a over every point's iteration, kind and residual bits.
    history_digest: u64,
    x_digest: u64,
    serial_bits: u64,
    critical_bits: u64,
    /// `(calls, bytes, seconds bits)` per [`PaperCategory::ALL`] entry.
    categories: Vec<(u64, u64, u64)>,
}

fn laplace2d(nx: usize) -> GpuMatrix<f64> {
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

/// FNV-1a over a sequence of 64-bit words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &byte| {
            (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3)
        })
    })
}

fn observe(ctx: &GpuContext, res: &SolveResult, x: &[f64]) -> Pin {
    let rep = ctx.report();
    Pin {
        status: res.status,
        iterations: res.iterations,
        restarts: res.restarts,
        history_len: res.history.len(),
        history_digest: digest(res.history.iter().flat_map(|p| {
            [
                p.iteration as u64,
                (p.kind == HistoryKind::Explicit) as u64,
                p.relative_residual.to_bits(),
            ]
        })),
        x_digest: digest(x.iter().map(|v| v.to_bits())),
        serial_bits: rep.total_seconds.to_bits(),
        critical_bits: rep.critical_path_seconds.to_bits(),
        categories: PaperCategory::ALL
            .iter()
            .map(|cat| {
                let got = rep.categories.get(cat).copied().unwrap_or_default();
                (got.calls, got.bytes, got.seconds.to_bits())
            })
            .collect(),
    }
}

/// Run `solve` on a fresh reference context with streaming on and off;
/// both must reproduce `pin` exactly.
fn check(
    name: &str,
    n: usize,
    pin: Pin,
    solve: impl Fn(&mut GpuContext, &mut [f64]) -> SolveResult,
) {
    for streaming in [true, false] {
        let mut ctx = GpuContext::with_backend(
            DeviceModel::v100_belos(),
            ReductionOrder::Sequential,
            Arc::new(ReferenceBackend),
        );
        ctx.set_streaming(streaming);
        let mut x = vec![0.0f64; n];
        let res = solve(&mut ctx, &mut x);
        let got = observe(&ctx, &res, &x);
        assert_eq!(got, pin, "{name} streaming={streaming}");
    }
}

#[test]
fn ir_identity_is_pinned() {
    let a = laplace2d(16);
    let b = rhs(a.n(), 5);
    let cfg = IrConfig::default().with_m(10).with_max_iters(2_000);
    let pin = Pin {
        status: SolveStatus::Converged,
        iterations: 150,
        restarts: 15,
        history_len: 16,
        history_digest: 0x0841_b136_b1bc_8de1,
        x_digest: 0x29f2_6624_e85e_aca8,
        serial_bits: 0x3fc1_df24_e383_8141,
        critical_bits: 0x3fc1_df24_e383_8141,
        categories: vec![
            (300, 1_996_800, 0x3f91_f9d8_0d9b_b7af),
            (180, 184_320, 0x3f94_4682_f797_20a3),
            (315, 2_488_320, 0x3f62_1a2a_665f_5689),
            (180, 3_026_640, 0x3f54_bc54_e6e0_3929),
            (437, 1_133_632, 0x3fb9_4a70_5eeb_d0af),
        ],
    };
    check("ir identity", a.n(), pin, |ctx, x| {
        GmresIr::<f32, f64>::new(&a, &Identity, cfg).solve(ctx, &b, x)
    });
}

#[test]
fn ir_over_fp16_shadow_with_block_jacobi_is_pinned() {
    let a = laplace2d(16);
    let b = rhs(a.n(), 5);
    let bj = BlockJacobi::build(&a.convert::<f32>(), 8);
    let cfg = IrConfig::default()
        .with_m(10)
        .with_max_iters(2_000)
        .with_store(StorePath::Shadow(Precision::Fp16));
    let pin = Pin {
        status: SolveStatus::Converged,
        iterations: 80,
        restarts: 8,
        history_len: 9,
        history_digest: 0x3d22_9ca6_7c99_10d7,
        x_digest: 0x4066_a194_7de1_4ac5,
        serial_bits: 0x3fb3_3c2f_6db7_792c,
        critical_bits: 0x3fb3_3c2f_6db7_792c,
        categories: vec![
            (160, 1_064_960, 0x3f83_2ca2_30a6_1942),
            (96, 98_304, 0x3f85_a08b_b2c3_55fd),
            (168, 1_327_104, 0x3f53_4f1c_28ee_3a2a),
            (184, 2_281_856, 0x3f55_2bfc_bc84_3a61),
            (234, 619_300, 0x3fab_013a_9b69_02e3),
        ],
    };
    check("ir fp16-shadow block-jacobi", a.n(), pin, |ctx, x| {
        GmresIr::<f32, f64>::new(&a, &bj, cfg).solve(ctx, &b, x)
    });
}

#[test]
fn ir3_is_pinned() {
    let a = laplace2d(6);
    let b = rhs(a.n(), 9);
    let cfg = Ir3Config {
        m: 20,
        ..Ir3Config::default()
    };
    let pin = Pin {
        status: SolveStatus::Converged,
        iterations: 80,
        restarts: 2,
        history_len: 3,
        history_digest: 0x3419_9ac6_7280_99f2,
        x_digest: 0xeafa_78d5_6f22_f239,
        serial_bits: 0x3faa_f3c5_cc58_c148,
        critical_bits: 0x3faa_f3c5_cc58_c148,
        categories: vec![
            (160, 132_480, 0x3f83_2b7f_4432_df69),
            (88, 6_336, 0x3f83_d31c_ab7f_52be),
            (164, 150_336, 0x3f52_d043_42a4_86d9),
            (88, 129_760, 0x3f44_3165_f5a4_1580),
            (214, 49_284, 0x3fa0_4cd7_1e80_8013),
        ],
    };
    check("ir3", a.n(), pin, |ctx, x| {
        GmresIr3::new(&a, &Identity, cfg).solve(ctx, &b, x)
    });
}

#[test]
fn fd_both_phases_is_pinned() {
    let a = laplace2d(16);
    let b = rhs(a.n(), 5);
    let cfg = FdConfig {
        m: 10,
        switch_at: 30,
        max_iters: 2_000,
        ..FdConfig::default()
    };
    let pin = Pin {
        status: SolveStatus::Converged,
        iterations: 143,
        restarts: 15,
        history_len: 161,
        history_digest: 0x1fa5_ae15_f8a2_37ed,
        x_digest: 0xe807_9c97_a1b9_1751,
        serial_bits: 0x3fc0_6a22_88b2_f885,
        critical_bits: 0x3fc0_6a22_88b2_f885,
        categories: vec![
            (286, 3_364_864, 0x3f91_235e_f7ae_c5ae),
            (162, 296_960, 0x3f92_3f80_dd3a_b1bb),
            (301, 4_206_592, 0x3f61_5062_1409_e0d2),
            (162, 4_107_400, 0x3f52_ba01_4298_fa4a),
            (334, 671_744, 0x3fb7_2622_0680_e030),
        ],
    };
    check("fd", a.n(), pin, |ctx, x| {
        let res = GmresFd::<f32, f64>::new(&a, &Identity, &Identity, cfg).solve(ctx, &b, x);
        assert_eq!(
            (res.lo_iterations, res.hi_iterations),
            (30, 113),
            "fd phases"
        );
        res.result
    });
}
