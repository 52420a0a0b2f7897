//! Basis-storage bench: what the compressed Krylov basis buys on the
//! simulated V100, archived as `results/basis.json` for the CI perf
//! gate.
//!
//! Three properties are measured and pinned by the gate fields:
//!
//! - **byte model**: the simulator's charged basis GEMV bytes must
//!   match the machine-independent analytic form
//!   `ncols x n x elem_bytes + vec_streams x n x work_bytes` exactly —
//!   a driven sequence of recorded `gemv_t` / `gemv_n_sub` stream ops
//!   (the path the solvers use) over native, fp32, and fp16 stores is
//!   summed against the model,
//!   ratio 1.0 (hard-gated: pure accounting, no wall clock in sight);
//! - **byte ratio**: the fp32/fp64 basis GEMV-T byte ratio at the
//!   pinned projection width (`ncols = 26`) is exactly `112/216` —
//!   the column streams halve, the working-precision vector stream
//!   does not. The gate pins this against the committed baseline;
//! - **end-to-end**: the same fp64 `Gmres` solve run with native,
//!   fp32, and fp16 basis storage. Every path must converge to the
//!   fp64 tolerance (the compressed paths may take extra iterations —
//!   the ULP-bounded history equivalence lives in `stream_parity`),
//!   and the native path must be bit-identical to a plain solve.

use criterion::{criterion_group, criterion_main, Criterion};
use mpgmres::precond::Identity;
use mpgmres::{BasisPolicy, Gmres, GmresConfig, GpuContext, GpuMatrix, Precision};
use mpgmres_bench::output;
use mpgmres_gpusim::{analytic, DeviceModel, KernelClass, PaperCategory};
use mpgmres_la::basis::BasisStore;
use mpgmres_la::vec_ops::ReductionOrder;
use mpgmres_matgen::galeri;
use serde::Serialize;

/// One basis-storage variant's driven-kernel measurements.
#[derive(Serialize)]
struct ModelPoint {
    basis: String,
    elem_bytes: usize,
    /// GEMV-class bytes the profiler charged over the driven sweep.
    charged_bytes: u64,
    /// What the analytic model predicts for the same call sequence.
    model_bytes: usize,
}

/// One basis-storage variant's end-to-end solve.
#[derive(Serialize)]
struct SolvePoint {
    basis: String,
    iterations: usize,
    converged: bool,
    sim_seconds: f64,
    gemv_trans_seconds: f64,
}

/// Flat, uniquely-named gate fields for the CI perf gate.
#[derive(Serialize)]
struct GateRecord {
    /// Worst-case |charged/model - 1| across storage widths
    /// (hard-gated at ~0: the basis traffic model is
    /// machine-independent accounting).
    basis_model_error: f64,
    /// Analytic fp32/fp64 basis GEMV-T byte ratio at the pinned
    /// projection width (exactly 112/216; gated against the committed
    /// baseline).
    basis_fp32_fp64_byte_ratio: f64,
    /// Every basis path converged to the fp64 tolerance end to end.
    basis_paths_converged: bool,
    /// Native-basis solve bit-identical to the plain solve.
    basis_native_bit_identical: bool,
}

#[derive(Serialize)]
struct BasisArtifact {
    model_n: usize,
    model_max_cols: usize,
    model_points: Vec<ModelPoint>,
    solve_problem: String,
    solve_m: usize,
    solves: Vec<SolvePoint>,
    gate: GateRecord,
}

/// Record one `gemv_t` + `gemv_n_sub` region per projection width up
/// to `m` and return (charged GEMV bytes, model bytes).
fn driven_gemv_bytes(store: &BasisStore<f64>, m: usize) -> (u64, usize) {
    let n = store.n();
    let e = store.elem_bytes();
    let mut ctx = GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::GPU_LIKE);
    let w = vec![1.0f64; n];
    let mut wd = vec![1.0f64; n];
    let mut model = 0usize;
    for ncols in 1..=m {
        let mut h = vec![0.0f64; ncols];
        let mut st = ctx.stream();
        let vh = st.basis(store);
        let wh = st.slice(&w);
        let hh = st.slice_mut(&mut h);
        let wdh = st.slice_mut(&mut wd);
        st.gemv_t(vh, ncols, wh, hh);
        st.gemv_n_sub(vh, ncols, hh.read(), wdh);
        st.sync();
        model += analytic::basis_gemv_traffic_bytes(n, ncols, e, 1, Precision::Fp64);
        model += analytic::basis_gemv_traffic_bytes(n, ncols, e, 2, Precision::Fp64);
    }
    let charged = ctx.profiler().class_stats(KernelClass::GemvT).bytes
        + ctx.profiler().class_stats(KernelClass::GemvN).bytes;
    (charged, model)
}

fn summary(_c: &mut Criterion) {
    // --- driven byte model: charged == analytic, exactly ------------
    let (n, m) = (10_000usize, 25usize);
    let variants = [
        ("native", BasisStore::<f64>::native(n, m + 1)),
        (
            "fp32",
            BasisStore::<f64>::compressed(n, m + 1, Precision::Fp32),
        ),
        (
            "fp16",
            BasisStore::<f64>::compressed(n, m + 1, Precision::Fp16),
        ),
    ];
    println!("\n[basis summary] driven GEMV sweep n={n}, widths 1..={m}");
    let mut model_points = Vec::new();
    let mut worst_model_error = 0.0f64;
    for (label, store) in &variants {
        let (charged, model) = driven_gemv_bytes(store, m);
        let err = (charged as f64 / model as f64 - 1.0).abs();
        worst_model_error = worst_model_error.max(err);
        println!(
            "  {label} ({} B/elem): charged {charged} B, model {model} B, err {err:.2e}",
            store.elem_bytes()
        );
        model_points.push(ModelPoint {
            basis: label.to_string(),
            elem_bytes: store.elem_bytes(),
            charged_bytes: charged,
            model_bytes: model,
        });
    }
    assert_eq!(
        worst_model_error, 0.0,
        "charged basis GEMV bytes must match the analytic model exactly"
    );

    // --- pinned byte ratio: fp32/fp64 at the projection width -------
    let (rn, rcols) = (250_000usize, 26usize);
    let full = analytic::basis_gemv_traffic_bytes(rn, rcols, 8, 1, Precision::Fp64);
    let compressed = analytic::basis_gemv_traffic_bytes(rn, rcols, 4, 1, Precision::Fp64);
    let byte_ratio = compressed as f64 / full as f64;
    println!(
        "  pinned fp32/fp64 GEMV-T byte ratio at ncols={rcols}: {byte_ratio:.6} \
         (exact 112/216 = {:.6})",
        112.0 / 216.0
    );
    assert!(
        (byte_ratio - 112.0 / 216.0).abs() < 1e-12,
        "pinned basis byte ratio drifted: {byte_ratio}"
    );

    // --- end-to-end: the same solve over every basis path -----------
    let side = 48;
    let a = GpuMatrix::new(galeri::laplace2d(side, side));
    let nn = a.n();
    let sm = 30;
    let b: Vec<f64> = (0..nn)
        .map(|i| 1.0 + ((i * 7) % 23) as f64 / 23.0)
        .collect();
    let solve = |cfg: GmresConfig| {
        let mut ctx =
            GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::GPU_LIKE);
        let mut x = vec![0.0f64; nn];
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx, &b, &mut x);
        (res, ctx, x)
    };
    // Raised loss-of-accuracy factor: the compressed paths hold the
    // implicit/explicit gap at storage-precision level and refine it
    // away across restarts; `Converged` still requires the explicit
    // residual to clear the fp64 rtol.
    let base_cfg = GmresConfig::default()
        .with_m(sm)
        .with_max_iters(8_000)
        .with_loa_factor(1e8);
    let (_, _, x_plain) = solve(base_cfg);
    let mut solves = Vec::new();
    let mut converged = true;
    let mut native_bit_identical = true;
    for policy in [
        BasisPolicy::Native,
        BasisPolicy::Compressed(Precision::Fp32),
        BasisPolicy::Compressed(Precision::Fp16),
    ] {
        let (res, ctx, x) = solve(base_cfg.with_basis(policy));
        if policy == BasisPolicy::Native {
            native_bit_identical = x
                .iter()
                .zip(&x_plain)
                .all(|(p, q)| p.to_bits() == q.to_bits());
        }
        converged &= res.status.is_converged();
        let gemv_t = ctx.report().seconds(PaperCategory::GemvTrans);
        println!(
            "  Gmres laplace2d({side}) m={sm} basis={}: {} iters, sim {:.4} s \
             (GEMV-T {:.4} s), converged {}",
            policy.label(),
            res.iterations,
            ctx.elapsed(),
            gemv_t,
            res.status.is_converged()
        );
        solves.push(SolvePoint {
            basis: policy.label().to_string(),
            iterations: res.iterations,
            converged: res.status.is_converged(),
            sim_seconds: ctx.elapsed(),
            gemv_trans_seconds: gemv_t,
        });
    }
    assert!(converged, "every basis path must converge end to end");
    assert!(
        native_bit_identical,
        "the native basis path must be bit-identical to the plain solve"
    );

    let artifact = BasisArtifact {
        model_n: n,
        model_max_cols: m,
        model_points,
        solve_problem: format!("laplace2d({side}x{side})"),
        solve_m: sm,
        solves,
        gate: GateRecord {
            basis_model_error: worst_model_error,
            basis_fp32_fp64_byte_ratio: byte_ratio,
            basis_paths_converged: converged,
            basis_native_bit_identical: native_bit_identical,
        },
    };
    let dir = output::results_dir(None);
    match output::write_json(&dir, "basis", &artifact) {
        Ok(path) => println!("  wrote {}", path.display()),
        Err(e) => println!("  could not write results JSON: {e}"),
    }
}

criterion_group!(basis_group, summary);
criterion_main!(basis_group);
