//! Precision-storage bench: what a low-precision matrix value stream
//! buys on the simulated V100, measured at two levels and archived as
//! `results/precision.json` so CI can gate the perf trajectory:
//!
//! - **pinned-shape traffic**: on the banded 5-point Laplacian shape
//!   (`n = 250k`, bandwidth 500, `nnz = 5n`) the fp32 shadow store's
//!   k = 1 SpMM must move `< 0.55x` the bytes (and simulated time) of
//!   the full fp64 store — the same bar `gpusim`'s unit tests pin; the
//!   artifact ratio is what `perfgate` enforces against the committed
//!   baseline. Wider blocks amortize the matrix stream across shared
//!   fp64 vector traffic, so the k = 2 / k = 4 ratios are recorded as
//!   a documented trajectory, not gated.
//! - **end-to-end IR**: the same `GmresIr` solve (fp64 outer, fp64
//!   working inner) run over the native store and the fp32 shadow
//!   store. The Laplacian's entries are exact in fp32, so both paths
//!   are bit-identical numerically and every simulated second saved is
//!   pure value-stream traffic.
//!
//! A small criterion group also times the backend's host-side
//! `store_spmv` kernel (plain vs shadow), called directly through
//! `BackendScalar::view` with nothing charged — the shadow path demotes
//! on the fly, so this documents the CPU cost of the narrower stream,
//! not a win.

use criterion::{criterion_group, criterion_main, Criterion};
use mpgmres::precond::Identity;
use mpgmres::{
    BackendScalar, GmresIr, GpuContext, GpuMatrix, GpuStore, IrConfig, Precision, StorePath,
};
use mpgmres_bench::output;
use mpgmres_gpusim::cost::{self, MatrixOperand};
use mpgmres_gpusim::DeviceModel;
use mpgmres_la::vec_ops::ReductionOrder;
use mpgmres_matgen::galeri;
use serde::Serialize;

#[derive(Serialize)]
struct TrafficRecord {
    n: usize,
    nnz: usize,
    bandwidth_rows: usize,
    fp64_store_spmm_bytes_k1: usize,
    fp32_store_spmm_bytes_k1: usize,
    fp32_fp64_spmm_byte_ratio: f64,
    fp32_fp64_spmm_time_ratio_k1: f64,
    fp32_fp64_spmm_time_ratio_k2: f64,
    fp32_fp64_spmm_time_ratio_k4: f64,
    fp16_fp64_store_byte_ratio: f64,
}

#[derive(Serialize)]
struct IrStoreRecord {
    problem: String,
    n: usize,
    m: usize,
    native_sim_seconds: f64,
    fp32store_sim_seconds: f64,
    ir_store_sim_speedup: f64,
    native_iterations: usize,
    fp32store_iterations: usize,
    ir_paths_converged: bool,
}

#[derive(Serialize)]
struct PrecisionArtifact {
    traffic: TrafficRecord,
    ir: IrStoreRecord,
}

fn bench_store_spmv(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_spmv");
    g.sample_size(20);
    let a = GpuMatrix::new(galeri::laplace2d(96, 96));
    let plain = GpuStore::plain_of(&a);
    let shadow = GpuStore::shadow_of(&a, Precision::Fp32);
    let n = a.n();
    let x = vec![1.0f64; n];
    let mut y = vec![0.0f64; n];
    let ctx = GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::GPU_LIKE);
    let backend = f64::view(ctx.backend());
    g.bench_function("plain_fp64", |b| {
        b.iter(|| backend.store_spmv(plain.store(), &x, &mut y))
    });
    g.bench_function("shadow_fp32", |b| {
        b.iter(|| backend.store_spmv(shadow.store(), &x, &mut y))
    });
    g.finish();
}

/// One IR solve over the given storage path: simulated seconds,
/// iterations, converged. The device's fixed latencies are scaled by
/// `n / paper_n` (the harness's projection) so byte traffic keeps its
/// paper-scale share of the solve time at this reduced size.
fn ir_run(a: &GpuMatrix<f64>, b: &[f64], m: usize, store: StorePath) -> (f64, usize, bool) {
    let dev = DeviceModel::v100_belos().scaled_latencies(a.n() as f64 / 2_250_000.0);
    let mut ctx = GpuContext::with_reduction(dev, ReductionOrder::GPU_LIKE);
    let mut x = vec![0.0f64; a.n()];
    let cfg = IrConfig::default()
        .with_m(m)
        .with_max_iters(20_000)
        .with_store(store);
    let res = GmresIr::<f64, f64>::new(a, &Identity, cfg).solve(&mut ctx, b, &mut x);
    (ctx.elapsed(), res.iterations, res.status.is_converged())
}

/// Direct acceptance measurement, printed and archived.
fn summary(_c: &mut Criterion) {
    // --- pinned-shape traffic: the gate's numbers come from the same
    // cost function the solver charges, at the shape `gpusim` pins. ---
    let dev = DeviceModel::v100_belos();
    let (n, bw) = (250_000usize, 500usize);
    let nnz = 5 * n;
    let store = |value_bytes: usize, value_p: Precision| MatrixOperand {
        value_bytes,
        value_p,
        ..MatrixOperand::uniform(n, nnz, bw, Precision::Fp64)
    };
    let (full_op, shadow_op) = (
        store(nnz * 8, Precision::Fp64),
        store(nnz * 4, Precision::Fp32),
    );
    let bytes = |a: &MatrixOperand| cost::matrix_op(&dev, a, 1, false).1;
    let (full, shadow) = (bytes(&full_op), bytes(&shadow_op));
    let half = bytes(&store(nnz * 2, Precision::Fp16));
    let byte_ratio = shadow as f64 / full as f64;
    let time_ratio_at = |k: usize| {
        cost::matrix_op(&dev, &shadow_op, k, false).0 / cost::matrix_op(&dev, &full_op, k, false).0
    };
    println!(
        "\n[precision summary] pinned shape n={n} nnz={nnz} bw={bw}: \
         fp32/fp64 SpMM bytes {byte_ratio:.3} (k=1), time ratios \
         k=1 {:.3}, k=2 {:.3}, k=4 {:.3}; fp16/fp64 bytes {:.3}",
        time_ratio_at(1),
        time_ratio_at(2),
        time_ratio_at(4),
        half as f64 / full as f64,
    );
    assert!(
        byte_ratio < 0.55,
        "fp32 store must stay under the 0.55 traffic bar: {byte_ratio:.3}"
    );

    // --- end-to-end IR over native vs fp32-shadow storage. Laplacian
    // entries are exact in fp32: identical numerics, cheaper stream. ---
    let a = GpuMatrix::new(galeri::laplace2d(48, 48));
    let nn = a.n();
    let b: Vec<f64> = (0..nn).map(|i| 1.0 + (i % 13) as f64 / 13.0).collect();
    let m = 30;
    let (t_native, it_native, ok_native) = ir_run(&a, &b, m, StorePath::Native);
    let (t_shadow, it_shadow, ok_shadow) = ir_run(&a, &b, m, StorePath::Shadow(Precision::Fp32));
    let speedup = t_native / t_shadow;
    println!(
        "  GmresIr laplace2d(48) m={m}: native {:.4} s / {it_native} iters, \
         fp32 store {:.4} s / {it_shadow} iters => {speedup:.2}x simulated",
        t_native, t_shadow,
    );
    assert!(ok_native && ok_shadow, "both storage paths must converge");
    assert_eq!(
        it_native, it_shadow,
        "exact-in-fp32 operator: iteration counts must match"
    );
    assert!(
        speedup > 1.05,
        "fp32 value stream must cut simulated time: {speedup:.3}x"
    );

    let artifact = PrecisionArtifact {
        traffic: TrafficRecord {
            n,
            nnz,
            bandwidth_rows: bw,
            fp64_store_spmm_bytes_k1: full,
            fp32_store_spmm_bytes_k1: shadow,
            fp32_fp64_spmm_byte_ratio: byte_ratio,
            fp32_fp64_spmm_time_ratio_k1: time_ratio_at(1),
            fp32_fp64_spmm_time_ratio_k2: time_ratio_at(2),
            fp32_fp64_spmm_time_ratio_k4: time_ratio_at(4),
            fp16_fp64_store_byte_ratio: half as f64 / full as f64,
        },
        ir: IrStoreRecord {
            problem: "Laplace2D48".into(),
            n: nn,
            m,
            native_sim_seconds: t_native,
            fp32store_sim_seconds: t_shadow,
            ir_store_sim_speedup: speedup,
            native_iterations: it_native,
            fp32store_iterations: it_shadow,
            ir_paths_converged: ok_native && ok_shadow,
        },
    };
    let dir = output::results_dir(None);
    match output::write_json(&dir, "precision", &artifact) {
        Ok(path) => println!("  wrote {}", path.display()),
        Err(e) => println!("  could not write results JSON: {e}"),
    }
}

criterion_group!(precision_group, bench_store_spmv, summary);
criterion_main!(precision_group);
