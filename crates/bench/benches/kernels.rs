//! Wall-clock criterion benches for the low-level kernels (the real-CPU
//! counterpart of the paper's kernel study — here fp32's advantage comes
//! from memory traffic on the host, the same mechanism §V-D describes for
//! the GPU).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpgmres_la::csr::Csr;
use mpgmres_la::dense::{BlockLu, DenseMat, LuFactors};
use mpgmres_la::multivector::MultiVector;
use mpgmres_la::vec_ops::{dot_ordered, norm2, norm2_ordered, ReductionOrder};
use mpgmres_matgen::galeri;
use mpgmres_scalar::Scalar;

fn bench_spmv(c: &mut Criterion) {
    let mut g = c.benchmark_group("spmv");
    for nx in [64usize, 128, 256] {
        let a64 = galeri::laplace2d(nx, nx);
        let a32 = a64.convert::<f32>();
        let n = a64.nrows();
        g.throughput(Throughput::Elements(a64.nnz() as u64));
        let x64 = vec![1.0f64; n];
        let mut y64 = vec![0.0f64; n];
        g.bench_with_input(BenchmarkId::new("fp64", nx), &nx, |b, _| {
            b.iter(|| a64.spmv(&x64, &mut y64))
        });
        let x32 = vec![1.0f32; n];
        let mut y32 = vec![0.0f32; n];
        g.bench_with_input(BenchmarkId::new("fp32", nx), &nx, |b, _| {
            b.iter(|| a32.spmv(&x32, &mut y32))
        });
    }
    g.finish();
}

/// CGS2's two GEMV shapes over 1, 7, 8, 9 and 25 basis columns: under,
/// at and past one 8-column GEMV-T group, and a typical mid-cycle width.
fn bench_gemv(c: &mut Criterion) {
    let mut g = c.benchmark_group("cgs2_gemv");
    let n = 1 << 16;
    let max_cols = 25;
    fn setup<S: Scalar>(n: usize, cols: usize) -> (MultiVector<S>, Vec<S>, Vec<S>) {
        let mut v = MultiVector::<S>::zeros(n, cols);
        for j in 0..cols {
            for r in 0..n {
                v.col_mut(j)[r] = S::from_f64(((r * 7 + j) % 13) as f64 / 13.0);
            }
        }
        (v, vec![S::from_f64(1.0); n], vec![S::from_f64(0.0); cols])
    }
    let (v64, w64, mut h64) = setup::<f64>(n, max_cols);
    let (v32, w32, mut h32) = setup::<f32>(n, max_cols);
    let (mut wm64, mut wm32) = (w64.clone(), w32.clone());
    for cols in [1usize, 7, 8, 9, 25] {
        g.bench_with_input(BenchmarkId::new("gemv_t/fp64", cols), &cols, |b, &k| {
            b.iter(|| v64.gemv_t(k, &w64, &mut h64, ReductionOrder::Sequential))
        });
        g.bench_with_input(BenchmarkId::new("gemv_t/fp32", cols), &cols, |b, &k| {
            b.iter(|| v32.gemv_t(k, &w32, &mut h32, ReductionOrder::Sequential))
        });
        g.bench_with_input(BenchmarkId::new("gemv_n_sub/fp64", cols), &cols, |b, &k| {
            b.iter(|| v64.gemv_n_sub(k, &h64, &mut wm64))
        });
        g.bench_with_input(BenchmarkId::new("gemv_n_sub/fp32", cols), &cols, |b, &k| {
            b.iter(|| v32.gemv_n_sub(k, &h32, &mut wm32))
        });
    }
    g.finish();
}

fn bench_reductions(c: &mut Criterion) {
    let mut g = c.benchmark_group("reductions");
    let n = 1 << 18;
    let x = vec![1.0f64; n];
    g.bench_function("dot/sequential", |b| {
        b.iter(|| dot_ordered(&x, &x, ReductionOrder::Sequential))
    });
    g.bench_function("dot/gpu_like_tree", |b| {
        b.iter(|| dot_ordered(&x, &x, ReductionOrder::GPU_LIKE))
    });
    g.bench_function("norm2", |b| b.iter(|| norm2(&x)));
    // The stretched-bj shape (n = 9216): the per-iteration norm of the
    // GPU-like solve, 36 reduction blocks.
    let small = vec![0.5f64; 9216];
    g.bench_function("dot/gpu_like_tree/9216", |b| {
        b.iter(|| dot_ordered(&small, &small, ReductionOrder::GPU_LIKE))
    });
    g.bench_function("norm2/gpu_like_tree/9216", |b| {
        b.iter(|| norm2_ordered(&small, ReductionOrder::GPU_LIKE))
    });
    g.finish();
}

/// Block Jacobi's apply at the stretched-bj shape (n = 9216, 576
/// diagonal blocks of 16): one batched solve over the packed factors,
/// next to the per-block LU solves it replaces.
fn bench_block_lu_solve(c: &mut Criterion) {
    fn run<S: Scalar>(c: &mut Criterion, a: &Csr<S>, bs: usize) {
        let n = a.nrows();
        let block = |s: usize, m: usize| DenseMat::from_col_major(m, m, a.diag_block(s, m));
        let packed = BlockLu::factor(n, bs, 1, block);
        let per_block: Vec<LuFactors<S>> = (0..n)
            .step_by(bs)
            .map(|s| LuFactors::factor(&block(s, bs.min(n - s))).expect("nonsingular"))
            .collect();
        let x: Vec<S> = (0..n).map(|i| S::from_f64((i % 11) as f64 - 5.0)).collect();
        let mut y = vec![S::zero(); n];
        let mut g = c.benchmark_group("block_lu_solve");
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("packed", S::NAME), &n, |b, _| {
            b.iter(|| packed.solve(&x, &mut y))
        });
        g.bench_with_input(BenchmarkId::new("per_block", S::NAME), &n, |b, _| {
            b.iter(|| {
                y.copy_from_slice(&x);
                for (lu, yb) in per_block.iter().zip(y.chunks_mut(bs)) {
                    lu.solve_in_place(yb);
                }
            })
        });
        g.finish();
    }
    let a64 = galeri::laplace2d(96, 96);
    run(c, &a64, 16);
    run(c, &a64.convert::<f32>(), 16);
}

fn bench_cache_sim(c: &mut Criterion) {
    // Throughput of the L2 simulator itself (it must stay cheap enough to
    // replay multi-million-nnz streams).
    let mut g = c.benchmark_group("cache_sim");
    let a = galeri::laplace2d(128, 128);
    let dev = mpgmres_gpusim::DeviceModel::v100_belos();
    g.throughput(Throughput::Elements(3 * a.nnz() as u64));
    g.bench_function("spmv_replay_64lanes", |b| {
        b.iter(|| {
            mpgmres_gpusim::cache::simulate_spmv_cache(
                &a,
                &dev,
                mpgmres_scalar::Precision::Fp64,
                64,
            )
        })
    });
    g.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_spmv, bench_gemv, bench_reductions, bench_block_lu_solve, bench_cache_sim
}
criterion_main!(kernels);
