//! Stream/pool bench: persistent-pool vs scoped-spawn kernel dispatch,
//! and the overlap the recorded DAG buys on the simulated timeline.
//!
//! Two summary measurements are printed and archived as
//! `results/stream.json` so CI can track the perf trajectory:
//!
//! - **spawn overhead**: wall time of a mid-size partitioned kernel
//!   dispatched through per-call `std::thread::scope` spawns vs the
//!   backend's persistent pinned worker pool (same partition, same
//!   arithmetic — the delta is pure dispatch cost).
//! - **overlap ratio**: `critical_path / serial` simulated time of a
//!   recorded `BlockGmres` solve (k independent lanes) vs the chain
//!   baseline of the matching single-RHS solve (ratio 1.0).
//!
//! On a single core the pool-vs-spawn delta is the headline number; on
//! a multicore runner the overlap ratios tighten further.

use criterion::{criterion_group, criterion_main, Criterion};
use mpgmres::precond::Identity;
use mpgmres::{BlockGmres, Gmres, GmresConfig, GpuContext, GpuMatrix, MultiVec};
use mpgmres_bench::harness::best_of;
use mpgmres_bench::output;
use mpgmres_gpusim::DeviceModel;
use mpgmres_la::pool::{ScopedSpawn, WorkerPool};
use mpgmres_la::vec_ops::ReductionOrder;
use mpgmres_la::{par, Csr};
use mpgmres_matgen::galeri;
use serde::Serialize;

const THREADS: usize = 4;

fn bench_pool_vs_spawn(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_dispatch");
    g.sample_size(20);
    let n = 1 << 16;
    let x = vec![1.0f64; n];
    let pool = WorkerPool::new(THREADS);
    let scoped = ScopedSpawn(THREADS);
    let mut y = vec![0.5f64; n];
    g.bench_function("axpy_scoped_spawn", |b| {
        b.iter(|| par::axpy_on(&scoped, 1.0e-9, &x, &mut y))
    });
    g.bench_function("axpy_worker_pool", |b| {
        b.iter(|| par::axpy_on(&pool, 1.0e-9, &x, &mut y))
    });
    g.finish();
}

#[derive(Serialize)]
struct SpawnRecord {
    threads: usize,
    n: usize,
    kernel_calls: usize,
    scoped_spawn_ms: f64,
    worker_pool_ms: f64,
    spawn_overhead_us_per_call: f64,
    pool_speedup: f64,
}

#[derive(Serialize)]
struct OverlapRecord {
    k: usize,
    serial_seconds: f64,
    critical_path_seconds: f64,
    overlap_ratio: f64,
    single_rhs_overlap_ratio: f64,
}

#[derive(Serialize)]
struct StreamArtifact {
    spawn: SpawnRecord,
    overlap: OverlapRecord,
}

/// Best-of-5 wall time of `calls` partitioned SpMVs dispatched through
/// the given executor (scoped spawns vs the persistent pool).
fn spmv_calls(
    a: &Csr<f64>,
    parts: &[(usize, usize)],
    exec: &dyn mpgmres_la::pool::Executor,
    calls: usize,
) -> f64 {
    let n = a.nrows();
    let x = vec![1.0f64; n];
    let mut y = vec![0.0f64; n];
    best_of(5, || {
        for _ in 0..calls {
            par::spmv_parts_on(exec, parts, a, &x, &mut y);
        }
    })
}

/// Direct acceptance measurement, printed and archived.
fn summary(_c: &mut Criterion) {
    // --- spawn overhead: same cached partition, scoped vs pooled. ---
    let a = galeri::laplace2d(192, 192); // mid-size: dispatch cost visible
    let n = a.nrows();
    let parts = par::row_partition(n, THREADS);
    let pool = WorkerPool::new(THREADS);
    let calls = 50;
    let t_scoped = spmv_calls(&a, &parts, &ScopedSpawn(THREADS), calls);
    let t_pool = spmv_calls(&a, &parts, &pool, calls);
    let overhead_us = (t_scoped - t_pool) / calls as f64 * 1e6;
    println!(
        "\n[stream summary] spmv x{calls} (n={n}, {THREADS} workers): \
         scoped {:.3} ms, pool {:.3} ms, spawn overhead {:.2} us/call, speedup {:.2}x",
        t_scoped * 1e3,
        t_pool * 1e3,
        overhead_us,
        t_scoped / t_pool
    );

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
        "  overlap (k={k} recorded lanes): serial {:.4} s, critical {:.4} s, ratio {:.3} \
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

    let artifact = StreamArtifact {
        spawn: SpawnRecord {
            threads: THREADS,
            n,
            kernel_calls: calls,
            scoped_spawn_ms: t_scoped * 1e3,
            worker_pool_ms: t_pool * 1e3,
            spawn_overhead_us_per_call: overhead_us,
            pool_speedup: t_scoped / t_pool,
        },
        overlap: OverlapRecord {
            k,
            serial_seconds: rep.total_seconds,
            critical_path_seconds: rep.critical_path_seconds,
            overlap_ratio: rep.overlap_ratio(),
            single_rhs_overlap_ratio: rep1.overlap_ratio(),
        },
    };
    let dir = output::results_dir(None);
    match output::write_json(&dir, "stream", &artifact) {
        Ok(path) => println!("  wrote {}", path.display()),
        Err(e) => println!("  could not write results JSON: {e}"),
    }
}

criterion_group!(stream_group, bench_pool_vs_spawn, summary);
criterion_main!(stream_group);
