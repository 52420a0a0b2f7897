//! Multi-RHS bench: per-RHS SpMM throughput vs block width k, plus a
//! batched block-solve comparison.
//!
//! The acceptance bar for the batched backend is per-RHS SpMM time at
//! k = 4 below 0.6x the k = 1 SpMV time on a multicore runner (the
//! fused kernel reads the matrix once per block); the summary at the end
//! prints the measured ratios and writes them to `results/multirhs.json`
//! so CI can archive the perf trajectory. On a 1-CPU container the
//! printed ratio is informational — matrix-read amortization usually
//! still clears the bar, thread-level speedup does not.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpgmres::precond::Identity;
use mpgmres::{
    Backend, BackendKind, BlockGmres, Gmres, GmresConfig, GpuContext, GpuMatrix, MultiVec,
    ScalarBackend,
};
use mpgmres_bench::harness::best_of;
use mpgmres_bench::output;
use mpgmres_gpusim::DeviceModel;
use mpgmres_la::vec_ops::ReductionOrder;
use mpgmres_matgen::galeri;
use serde::Serialize;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn backends() -> Vec<(&'static str, std::sync::Arc<dyn Backend>)> {
    BackendKind::ALL
        .iter()
        .map(|k| (k.name(), k.create()))
        .collect()
}

fn pseudo_block(n: usize, k: usize) -> MultiVec<f64> {
    let mut x = MultiVec::<f64>::zeros(n, k);
    for j in 0..k {
        for (i, v) in x.col_mut(j).iter_mut().enumerate() {
            *v = ((i * 31 + j * 7) % 13) as f64 / 13.0 - 0.5;
        }
    }
    x
}

fn bench_spmm_widths(c: &mut Criterion) {
    let mut g = c.benchmark_group("multirhs_spmm");
    g.sample_size(15);
    let a = galeri::laplace2d(512, 512);
    let n = a.nrows();
    for &k in &WIDTHS {
        let x = pseudo_block(n, k);
        g.throughput(Throughput::Elements((a.nnz() * k) as u64));
        for (name, backend) in backends() {
            let mut y = MultiVec::<f64>::zeros(n, k);
            g.bench_with_input(BenchmarkId::new(name, k), &k, |b, &k| {
                let view: &dyn ScalarBackend<f64> = &*backend;
                b.iter(|| view.spmm(&a, &x, k, &mut y))
            });
        }
    }
    g.finish();
}

fn bench_block_solve(c: &mut Criterion) {
    let mut g = c.benchmark_group("multirhs_block_solve_laplace2d_64");
    g.sample_size(10);
    let a = GpuMatrix::new(galeri::laplace2d(64, 64));
    let n = a.n();
    let k = 4;
    let mut cols: Vec<Vec<f64>> = Vec::new();
    for j in 0..k {
        cols.push(
            (0..n)
                .map(|i| 1.0 + ((i * (j + 2)) % 17) as f64 / 17.0)
                .collect(),
        );
    }
    let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
    let b = MultiVec::from_columns(&col_refs);
    let cfg = GmresConfig::default().with_m(30).with_max_iters(4_000);
    for kind in BackendKind::ALL {
        g.bench_function(format!("block_k4/{}", kind.name()), |bch| {
            bch.iter(|| {
                let mut ctx = GpuContext::with_backend_kind(
                    DeviceModel::v100_belos(),
                    ReductionOrder::GPU_LIKE,
                    kind,
                );
                let mut x = MultiVec::<f64>::zeros(n, k);
                BlockGmres::new(&a, &Identity, cfg).solve(&mut ctx, &b, &mut x)
            })
        });
        g.bench_function(format!("four_singles/{}", kind.name()), |bch| {
            bch.iter(|| {
                let mut last = None;
                for col in &cols {
                    let mut ctx = GpuContext::with_backend_kind(
                        DeviceModel::v100_belos(),
                        ReductionOrder::GPU_LIKE,
                        kind,
                    );
                    let mut x = vec![0.0f64; n];
                    last = Some(Gmres::new(&a, &Identity, cfg).solve(&mut ctx, col, &mut x));
                }
                last
            })
        });
    }
    g.finish();
}

#[derive(Serialize)]
struct WidthRecord {
    backend: String,
    k: usize,
    per_rhs_ms: f64,
    ratio_vs_spmv: f64,
}

/// The archived artifact: the per-width SpMM ratios the summary
/// prints.
#[derive(Serialize)]
struct MultirhsArtifact {
    widths: Vec<WidthRecord>,
}

/// Direct acceptance measurement: per-RHS SpMM time vs k on a 512x512
/// Laplace2D, printed and archived as `results/multirhs.json`.
fn per_rhs_summary(_c: &mut Criterion) {
    let a = galeri::laplace2d(512, 512);
    let n = a.nrows();
    let mut records: Vec<WidthRecord> = Vec::new();
    println!(
        "\n[multirhs summary] 512x512 Laplace2D (n={n}, nnz={})",
        a.nnz()
    );
    for (name, backend) in backends() {
        let view: &dyn ScalarBackend<f64> = &*backend;
        let x1 = pseudo_block(n, 1);
        let mut y1 = vec![0.0f64; n];
        let t_spmv = best_of(10, || view.spmv(&a, x1.col(0), &mut y1));
        for &k in &WIDTHS {
            let x = pseudo_block(n, k);
            let mut y = MultiVec::<f64>::zeros(n, k);
            let t = best_of(10, || view.spmm(&a, &x, k, &mut y));
            let per_rhs = t / k as f64;
            let ratio = per_rhs / t_spmv;
            println!(
                "  {name:<10} k={k}: spmm {:.3} ms, per-RHS {:.3} ms, ratio vs spmv {:.2} \
                 (bar: < 0.60 at k=4 on a multicore runner)",
                t * 1e3,
                per_rhs * 1e3,
                ratio
            );
            records.push(WidthRecord {
                backend: name.to_string(),
                k,
                per_rhs_ms: per_rhs * 1e3,
                ratio_vs_spmv: ratio,
            });
        }
    }
    let artifact = MultirhsArtifact { widths: records };
    let dir = output::results_dir(None);
    match output::write_json(&dir, "multirhs", &artifact) {
        Ok(path) => println!("  wrote {}", path.display()),
        Err(e) => println!("  could not write results JSON: {e}"),
    }
}

criterion_group!(
    multirhs_group,
    bench_spmm_widths,
    bench_block_solve,
    per_rhs_summary
);
criterion_main!(multirhs_group);
