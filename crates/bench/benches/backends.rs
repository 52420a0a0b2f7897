//! Backend comparison bench: wall-clock of SpMV / GEMV / reductions on
//! the reference (sequential) vs parallel (std-thread) backends across
//! matrix sizes, plus a full-solve comparison.
//!
//! The acceptance bar for the parallel backend is >= 2x SpMV speedup on
//! a >= 512x512 Laplace2D problem on a multicore runner; the summary
//! line printed at the end reports the measured ratio.
//!
//! The `spmv_crossover` group sweeps laplace2d grids from 16² to 128²
//! with the parallel side forced onto the worker pool at every size,
//! and prints the serial/pooled ratio of SpMV, GEMV-T, GEMV-N, the
//! block Jacobi apply, the norm and axpy per size: the sweep the
//! `ParallelBackend` thresholds are set from.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpgmres::{Backend, BackendKind, ScalarBackend};
use mpgmres_la::dense::{BlockLu, DenseMat};
use mpgmres_la::multivector::MultiVector;
use mpgmres_la::par;
use mpgmres_la::pool::WorkerPool;
use mpgmres_la::vec_ops::{self, ReductionOrder};
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

/// Kernel columns of the crossover sweep, in table order.
const CROSSOVER_KERNELS: [&str; 6] = ["spmv", "gemv_t", "gemv_n", "bj", "norm", "axpy"];

/// Serial against pooled time of every kernel the parallel backend
/// splits, on laplace2d grids from 16² to 128²: SpMV, 10-column GEMV-T
/// and GEMV-N, the block Jacobi apply (16-row blocks), and the GPU-like
/// norm and axpy. The pooled side calls the `mpgmres_la::par` kernels,
/// which never check a size (the thresholds live in `ParallelBackend`),
/// so it runs on the pool at every size; the summary table is the
/// crossover sweep those thresholds are set from.
fn bench_spmv_crossover(c: &mut Criterion) {
    const COLS: usize = 10;
    let order = ReductionOrder::GPU_LIKE;
    let pool = WorkerPool::new(par::default_threads());
    let mut g = c.benchmark_group("spmv_crossover");
    g.sample_size(20);
    let mut rows = Vec::new();
    for nx in [16usize, 24, 32, 40, 48, 64, 80, 96, 128] {
        let a = galeri::laplace2d(nx, nx);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 / 7.0).collect();
        let mut y = vec![0.0f64; n];
        g.throughput(Throughput::Elements(a.nnz() as u64));
        g.bench_with_input(BenchmarkId::new("reference", a.nnz()), &nx, |b, _| {
            b.iter(|| a.spmv(&x, &mut y))
        });
        g.bench_with_input(BenchmarkId::new("parallel", a.nnz()), &nx, |b, _| {
            b.iter(|| par::spmv_parts_on(&pool, &a, &x, &mut y))
        });

        let mut v = MultiVector::<f64>::zeros(n, COLS);
        for j in 0..COLS {
            for (r, e) in v.col_mut(j).iter_mut().enumerate() {
                *e = ((r * 7 + j) % 13) as f64 / 13.0;
            }
        }
        let hv: Vec<f64> = (0..COLS).map(|j| 1e-3 * (j + 1) as f64).collect();
        let lu = BlockLu::factor(n, 16, 1, |s, m| {
            DenseMat::from_col_major(m, m, a.diag_block(s, m))
        });
        let (mut y2, mut h, mut h2) = (vec![0.0f64; n], [0.0f64; COLS], [0.0f64; COLS]);
        let ratio = |(t_ref, t_par): (f64, f64)| t_ref / t_par;
        let r = [
            ratio(interleaved(
                || a.spmv(&x, &mut y),
                || par::spmv_parts_on(&pool, &a, &x, &mut y2),
            )),
            ratio(interleaved(
                || v.gemv_t(COLS, &x, &mut h, order),
                || par::gemv_t_on(&pool, &v, COLS, &x, &mut h2, order),
            )),
            ratio(interleaved(
                || v.gemv_n_sub(COLS, &hv, &mut y),
                || par::gemv_n_on(&pool, &v, COLS, &hv, &mut y2, false),
            )),
            ratio(interleaved(
                || lu.solve(&x, &mut y),
                || par::block_lu_solve_on(&pool, &lu, &x, &mut y2),
            )),
            ratio(interleaved(
                || {
                    std::hint::black_box(vec_ops::norm2_ordered(&x, order));
                },
                || {
                    std::hint::black_box(par::dot_on(&pool, &x, &x, order).sqrt());
                },
            )),
            ratio(interleaved(
                || vec_ops::axpy(1e-9, &x, &mut y),
                || par::axpy_on(&pool, 1e-9, &x, &mut y2),
            )),
        ];
        rows.push((nx, n, a.nnz(), r));
    }
    g.finish();
    println!(
        "\n[par crossover] {} participants; serial/pooled time (> 1: the pool pays). \
         Thresholds: SpMV {} nnz, GEMV {} rows, BJ {} rows, norm/axpy {} rows",
        pool.threads(),
        par::SPMV_PAR_THRESHOLD,
        par::GEMV_PAR_THRESHOLD,
        par::BLOCK_LU_PAR_THRESHOLD,
        vec_ops::PAR_THRESHOLD
    );
    print!("{:>5} {:>7} {:>7}", "nx", "n", "nnz");
    for k in CROSSOVER_KERNELS {
        print!(" {k:>7}");
    }
    println!();
    for (nx, n, nnz, r) in rows {
        print!("{nx:>5} {n:>7} {nnz:>7}");
        for v in r {
            print!(" {v:>7.2}");
        }
        println!();
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
