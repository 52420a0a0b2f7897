//! Stream/pool bench: the worker pool's dispatch cost, and the overlap
//! the recorded DAG buys on the simulated timeline.
//!
//! Two summary measurements are printed and archived as
//! `results/stream.json` so CI can track the perf trajectory:
//!
//! - **overlap ratio**: `critical_path / serial` simulated time of a
//!   recorded `BlockGmres` solve (k independent lanes) vs the chain
//!   baseline of the matching single-RHS solve (ratio 1.0).
//! - **pool**: `pool_dispatch_us`, the wall time of an empty two-job run
//!   on a two-participant pool (the caller plus one spinning worker),
//!   and `cgs2_par_speedup`, the reference backend's time over the
//!   parallel backend's for one CGS2 pass (GEMV-T, GEMV-N, GEMV-T,
//!   GEMV-N) at n = 9216 with 25 basis columns — the stretched-bj
//!   shape. Perfgate fails when that speedup drops below 1.0 on a
//!   runner with two or more cores.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

use mpgmres::precond::Identity;
use mpgmres::{
    Backend, BlockGmres, Gmres, GmresConfig, GpuContext, GpuMatrix, MultiVec, ParallelBackend,
    ReferenceBackend, ScalarBackend,
};
use mpgmres_bench::harness::best_of;
use mpgmres_bench::output;
use mpgmres_gpusim::DeviceModel;
use mpgmres_la::multivector::MultiVector;
use mpgmres_la::par;
use mpgmres_la::pool::WorkerPool;
use mpgmres_la::vec_ops::ReductionOrder;
use mpgmres_matgen::galeri;
use serde::Serialize;

#[derive(Serialize)]
struct OverlapRecord {
    k: usize,
    serial_seconds: f64,
    critical_path_seconds: f64,
    overlap_ratio: f64,
    single_rhs_overlap_ratio: f64,
}

#[derive(Serialize)]
struct PoolRecord {
    /// Participants of the parallel backend's pool (`par::default_threads`).
    pool_threads: usize,
    /// Empty two-job run on a two-participant pool, microseconds.
    pool_dispatch_us: f64,
    cgs2_n: usize,
    cgs2_ncols: usize,
    cgs2_serial_us: f64,
    cgs2_pooled_us: f64,
    /// `cgs2_serial_us / cgs2_pooled_us`.
    cgs2_par_speedup: f64,
}

#[derive(Serialize)]
struct StreamArtifact {
    overlap: OverlapRecord,
    pool: PoolRecord,
}

/// Microseconds per empty two-job run on a two-participant pool: best
/// of seven batches of back-to-back runs, so the worker is still
/// spinning when each run is published.
fn pool_dispatch_us() -> f64 {
    let pool = WorkerPool::new(2);
    let runs = 2_000;
    best_of(7, || {
        for _ in 0..runs {
            pool.run(2, |_| {});
        }
    }) / runs as f64
        * 1e6
}

/// One CGS2 pass (two rounds of GEMV-T then GEMV-N) at the stretched-bj
/// shape through `backend`.
fn cgs2_pass(backend: &dyn Backend, v: &MultiVector<f64>, w: &mut [f64], h: &mut [f64]) {
    let b: &dyn ScalarBackend<f64> = backend;
    let ncols = h.len();
    for _ in 0..2 {
        b.gemv_t(v, ncols, w, h, ReductionOrder::GPU_LIKE);
        b.gemv_n_sub(v, ncols, h, w);
    }
}

/// Reference-backend over parallel-backend wall time of one CGS2 pass
/// at n = 9216 with 25 columns: per-pass microseconds of batches of
/// about a millisecond, alternating between the two backends, best of
/// fifteen each.
fn cgs2_speedup(n: usize, ncols: usize) -> (f64, f64) {
    let mut v = MultiVector::<f64>::zeros(n, ncols);
    for j in 0..ncols {
        for (r, e) in v.col_mut(j).iter_mut().enumerate() {
            *e = (((r * 31 + j * 17) % 101) as f64 - 50.0) / 500.0;
        }
    }
    let w0: Vec<f64> = (0..n).map(|i| ((i % 29) as f64 - 14.0) / 29.0).collect();
    let (mut w, mut h) = (w0.clone(), vec![0.0f64; ncols]);
    let parallel = ParallelBackend::new();
    let reps = 20;
    let mut batch = |backend: &dyn Backend| {
        let t0 = Instant::now();
        for _ in 0..reps {
            w.copy_from_slice(&w0);
            cgs2_pass(backend, &v, &mut w, &mut h);
        }
        t0.elapsed().as_secs_f64() / reps as f64 * 1e6
    };
    let (mut serial, mut pooled) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..15 {
        serial = serial.min(batch(&ReferenceBackend));
        pooled = pooled.min(batch(&parallel));
    }
    (serial, pooled)
}

/// Direct acceptance measurement, printed and archived.
fn summary(_c: &mut Criterion) {
    // --- overlap ratio: recorded BlockGmres vs single-RHS chain. ---
    let am = GpuMatrix::new(galeri::laplace2d(48, 48));
    let nn = am.n();
    let k = 4;
    let mut cols: Vec<Vec<f64>> = Vec::new();
    for j in 0..k {
        cols.push(
            (0..nn)
                .map(|i| 1.0 + ((i * (j + 2)) % 17) as f64 / 17.0)
                .collect(),
        );
    }
    let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
    let cfg = GmresConfig::default().with_m(30).with_max_iters(4_000);

    let mut ctx = GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::GPU_LIKE);
    let b = MultiVec::from_columns(&col_refs);
    let mut x = MultiVec::<f64>::zeros(nn, k);
    BlockGmres::new(&am, &Identity, cfg).solve(&mut ctx, &b, &mut x);
    let rep = ctx.report();

    let mut ctx1 = GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::GPU_LIKE);
    let mut x1 = vec![0.0f64; nn];
    Gmres::new(&am, &Identity, cfg).solve(&mut ctx1, col_refs[0], &mut x1);
    let rep1 = ctx1.report();

    println!(
        "\n[stream summary] overlap (k={k} recorded lanes): serial {:.4} s, critical {:.4} s, ratio {:.3} \
         (single-RHS chain baseline: {:.3})",
        rep.total_seconds,
        rep.critical_path_seconds,
        rep.overlap_ratio(),
        rep1.overlap_ratio()
    );
    assert!(
        rep.critical_path_seconds <= rep.total_seconds,
        "critical path must never exceed serial"
    );
    assert!(
        rep.overlap_ratio() < 1.0,
        "k = {k} lanes must overlap on the recorded timeline"
    );

    // --- pool: empty dispatch and the CGS2 pass at stretched-bj. ---
    let dispatch_us = pool_dispatch_us();
    let (cgs2_n, cgs2_ncols) = (9216, 25);
    let (serial_us, pooled_us) = cgs2_speedup(cgs2_n, cgs2_ncols);
    let pool_threads = par::default_threads();
    println!(
        "  pool ({pool_threads} participants): empty two-job run {dispatch_us:.2} us; \
         CGS2 pass n={cgs2_n} ncols={cgs2_ncols}: reference {serial_us:.1} us, \
         parallel {pooled_us:.1} us, speedup {:.2}x",
        serial_us / pooled_us
    );

    let artifact = StreamArtifact {
        overlap: OverlapRecord {
            k,
            serial_seconds: rep.total_seconds,
            critical_path_seconds: rep.critical_path_seconds,
            overlap_ratio: rep.overlap_ratio(),
            single_rhs_overlap_ratio: rep1.overlap_ratio(),
        },
        pool: PoolRecord {
            pool_threads,
            pool_dispatch_us: dispatch_us,
            cgs2_n,
            cgs2_ncols,
            cgs2_serial_us: serial_us,
            cgs2_pooled_us: pooled_us,
            cgs2_par_speedup: serial_us / pooled_us,
        },
    };
    let dir = output::results_dir(None);
    match output::write_json(&dir, "stream", &artifact) {
        Ok(path) => println!("  wrote {}", path.display()),
        Err(e) => println!("  could not write results JSON: {e}"),
    }
}

criterion_group!(stream_group, summary);
criterion_main!(stream_group);
