//! Backend comparison bench: wall-clock of SpMV / GEMV / reductions on
//! the reference (sequential) vs parallel (std-thread) backends across
//! matrix sizes, plus a full-solve comparison.
//!
//! The acceptance bar for the parallel backend is >= 2x SpMV speedup on
//! a >= 512x512 Laplace2D problem on a multicore runner; the summary
//! line printed at the end reports the measured ratio.
//!
//! The `spmv_crossover` group sweeps laplace2d sizes with the parallel
//! side forced onto the worker pool at every size, and prints the
//! reference/parallel ratio per size: the sweep
//! `mpgmres_la::par::SPMV_PAR_THRESHOLD` is set from.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpgmres::{Backend, BackendKind, ScalarBackend};
use mpgmres_la::multivector::MultiVector;
use mpgmres_la::par;
use mpgmres_la::pool::WorkerPool;
use mpgmres_la::vec_ops::ReductionOrder;
use mpgmres_matgen::galeri;

fn backends() -> Vec<(&'static str, std::sync::Arc<dyn Backend>)> {
    BackendKind::ALL
        .iter()
        .map(|k| (k.name(), k.create()))
        .collect()
}

fn bench_spmv_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("backend_spmv");
    g.sample_size(20);
    for nx in [128usize, 256, 512] {
        let a = galeri::laplace2d(nx, nx);
        let n = a.nrows();
        let x = vec![1.0f64; n];
        g.throughput(Throughput::Elements(a.nnz() as u64));
        for (name, backend) in backends() {
            let mut y = vec![0.0f64; n];
            g.bench_with_input(BenchmarkId::new(name, nx), &nx, |b, _| {
                let view: &dyn ScalarBackend<f64> = &*backend;
                b.iter(|| view.spmv(&a, &x, &mut y))
            });
        }
    }
    g.finish();
}

fn bench_gemv_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("backend_gemv");
    g.sample_size(20);
    let n = 1 << 18;
    let cols = 25;
    let mut v = MultiVector::<f64>::zeros(n, cols);
    for j in 0..cols {
        for r in 0..n {
            v.col_mut(j)[r] = ((r * 7 + j) % 13) as f64 / 13.0;
        }
    }
    let w = vec![1.0f64; n];
    for (name, backend) in backends() {
        let view: &dyn ScalarBackend<f64> = &*backend;
        let mut h = vec![0.0f64; cols];
        g.bench_function(format!("gemv_t/{name}"), |b| {
            b.iter(|| view.gemv_t(&v, cols, &w, &mut h, ReductionOrder::GPU_LIKE))
        });
        let mut wm = w.clone();
        g.bench_function(format!("gemv_n_sub/{name}"), |b| {
            b.iter(|| view.gemv_n_sub(&v, cols, &h, &mut wm))
        });
        g.bench_function(format!("dot_gpu_like/{name}"), |b| {
            b.iter(|| view.dot(&w, &w, ReductionOrder::GPU_LIKE))
        });
    }
    g.finish();
}

fn bench_full_solve_backends(c: &mut Criterion) {
    use mpgmres::precond::Identity;
    use mpgmres::{Gmres, GmresConfig, GpuContext, GpuMatrix};
    use mpgmres_gpusim::DeviceModel;

    let mut g = c.benchmark_group("backend_solve_laplace2d_96");
    g.sample_size(10);
    let a = GpuMatrix::new(galeri::laplace2d(96, 96));
    let n = a.n();
    let b = vec![1.0f64; n];
    for kind in BackendKind::ALL {
        g.bench_function(kind.name(), |bch| {
            bch.iter(|| {
                let mut ctx = GpuContext::with_backend_kind(
                    DeviceModel::v100_belos(),
                    ReductionOrder::GPU_LIKE,
                    kind,
                );
                let mut x = vec![0.0f64; n];
                let cfg = GmresConfig::default().with_m(30).with_max_iters(4_000);
                Gmres::new(&a, &Identity, cfg).solve(&mut ctx, &b, &mut x)
            })
        });
    }
    g.finish();
}

/// Best of ten timed calls after one warm-up (best-of filters
/// scheduler noise), in seconds.
fn best_of(mut f: impl FnMut()) -> f64 {
    f();
    (0..10)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Per-call seconds of `f` and `g`: batches of about a millisecond,
/// alternating between the two so both see the same machine state,
/// best batch mean of 15 each.
fn interleaved(mut f: impl FnMut(), mut g: impl FnMut()) -> (f64, f64) {
    let reps = (1e-3 / best_of(&mut f)).clamp(1.0, 1e4) as usize;
    let batch = |h: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..reps {
            h();
        }
        t0.elapsed().as_secs_f64() / reps as f64
    };
    let (mut tf, mut tg) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..15 {
        tf = tf.min(batch(&mut f));
        tg = tg.min(batch(&mut g));
    }
    (tf, tg)
}

/// Reference (serial) SpMV against the pool's row-partitioned SpMV on
/// laplace2d grids from 4k to 1M rows. The parallel side calls
/// `par::spmv_parts_on` directly, so it runs on the pool even below
/// `SPMV_PAR_THRESHOLD`; the summary table is the crossover sweep.
fn bench_spmv_crossover(c: &mut Criterion) {
    let pool = WorkerPool::new(par::default_threads());
    let mut g = c.benchmark_group("spmv_crossover");
    g.sample_size(20);
    let mut rows = Vec::new();
    for nx in [
        64usize, 96, 128, 160, 192, 224, 256, 288, 320, 362, 512, 1024,
    ] {
        let a = galeri::laplace2d(nx, nx);
        let n = a.nrows();
        let parts = par::row_partition(n, pool.threads());
        let x = vec![1.0f64; n];
        let mut y = vec![0.0f64; n];
        g.throughput(Throughput::Elements(a.nnz() as u64));
        g.bench_with_input(BenchmarkId::new("reference", a.nnz()), &nx, |b, _| {
            b.iter(|| a.spmv(&x, &mut y))
        });
        g.bench_with_input(BenchmarkId::new("parallel", a.nnz()), &nx, |b, _| {
            b.iter(|| par::spmv_parts_on(&pool, &parts, &a, &x, &mut y))
        });
        let mut y_par = vec![0.0f64; n];
        let (t_ref, t_par) = interleaved(
            || a.spmv(&x, &mut y),
            || par::spmv_parts_on(&pool, &parts, &a, &x, &mut y_par),
        );
        rows.push((a.nnz(), t_ref, t_par));
    }
    g.finish();
    println!(
        "\n[spmv crossover] {} workers; SPMV_PAR_THRESHOLD = {} nnz",
        pool.threads(),
        par::SPMV_PAR_THRESHOLD
    );
    println!(
        "{:>10} {:>12} {:>12} {:>9}",
        "nnz", "ref_us", "par_us", "ref/par"
    );
    for (nnz, t_ref, t_par) in rows {
        println!(
            "{nnz:>10} {:>12.1} {:>12.1} {:>9.2}",
            t_ref * 1e6,
            t_par * 1e6,
            t_ref / t_par
        );
    }
}

/// Direct acceptance measurement: parallel-vs-reference SpMV ratio on
/// 512x512 Laplace2D, printed as a summary line.
fn spmv_speedup_summary(_c: &mut Criterion) {
    let a = galeri::laplace2d(512, 512);
    let n = a.nrows();
    let x = vec![1.0f64; n];
    let mut y = vec![0.0f64; n];
    let mut time_backend = |kind: BackendKind| -> f64 {
        let backend = kind.create();
        let view: &dyn ScalarBackend<f64> = &*backend;
        best_of(|| view.spmv(&a, &x, &mut y))
    };
    let t_ref = time_backend(BackendKind::Reference);
    let t_par = time_backend(BackendKind::Parallel);
    println!(
        "\n[backend summary] 512x512 Laplace2D SpMV (n={n}, nnz={}): \
         reference {:.3} ms, parallel {:.3} ms, speedup {:.2}x \
         (acceptance bar: >= 2x on a multicore runner)",
        a.nnz(),
        t_ref * 1e3,
        t_par * 1e3,
        t_ref / t_par
    );
}

criterion_group!(
    backends_group,
    bench_spmv_backends,
    bench_gemv_backends,
    bench_full_solve_backends,
    bench_spmv_crossover,
    spmv_speedup_summary
);
criterion_main!(backends_group);
