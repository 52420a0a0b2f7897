//! Ablation benches for three of the paper's design choices,
//! measured in *simulated V100 seconds* (printed) and wall time
//! (criterion's measurement):
//!
//! - CGS2 (paper) vs a single CGS pass: cheaper per iteration, weaker
//!   orthogonality.
//! - Inner full-m refinement (paper) vs early-exit inner cycles.
//! - Host-mediated refinement casts (Belos limitation) vs device casts.

use criterion::{criterion_group, criterion_main, Criterion};
use mpgmres::precond::Identity;
use mpgmres::{GmresIr, GpuContext, GpuMatrix, IrConfig};
use mpgmres_gpusim::DeviceModel;
use mpgmres_matgen::galeri;

fn bench_inner_exit_policy(c: &mut Criterion) {
    let a = GpuMatrix::new(galeri::uniflow2d(48, 0.9));
    let n = a.n();
    let b = vec![1.0f64; n];
    let mut g = c.benchmark_group("ir_inner_policy");
    g.sample_size(10);

    let mut printed = false;
    g.bench_function("full_m_paper", |bch| {
        bch.iter(|| {
            let mut ctx = GpuContext::new(DeviceModel::v100_belos());
            let mut x = vec![0.0f64; n];
            let cfg = IrConfig::default().with_m(50).with_max_iters(60_000);
            let res = GmresIr::<f32, f64>::new(&a, &Identity, cfg).solve(&mut ctx, &b, &mut x);
            assert!(res.status.is_converged());
            if !printed {
                println!(
                    "\n[ablation] full-m: {} iters, {:.4} simulated s",
                    res.iterations,
                    ctx.elapsed()
                );
                printed = true;
            }
        })
    });

    let mut printed2 = false;
    g.bench_function("early_exit_1e6", |bch| {
        bch.iter(|| {
            let mut ctx = GpuContext::new(DeviceModel::v100_belos());
            let mut x = vec![0.0f64; n];
            let cfg = IrConfig {
                inner_early_exit: Some(1e-6),
                ..IrConfig::default().with_m(50).with_max_iters(60_000)
            };
            let res = GmresIr::<f32, f64>::new(&a, &Identity, cfg).solve(&mut ctx, &b, &mut x);
            assert!(res.status.is_converged());
            if !printed2 {
                println!(
                    "[ablation] early-exit: {} iters, {:.4} simulated s",
                    res.iterations,
                    ctx.elapsed()
                );
                printed2 = true;
            }
        })
    });
    g.finish();
}

fn bench_reduction_order_effect(c: &mut Criterion) {
    // The paper notes GPU reductions perturb convergence run-to-run; this
    // measures the cost/effect of the two orders on the same solve.
    use mpgmres_la::vec_ops::ReductionOrder;
    let a = GpuMatrix::new(galeri::laplace2d(40, 40));
    let n = a.n();
    let b = vec![1.0f64; n];
    let mut g = c.benchmark_group("reduction_order");
    g.sample_size(10);
    for (name, ord) in [
        ("sequential", ReductionOrder::Sequential),
        ("gpu_tree", ReductionOrder::GPU_LIKE),
    ] {
        g.bench_function(name, |bch| {
            bch.iter(|| {
                let mut ctx = GpuContext::with_reduction(DeviceModel::v100_belos(), ord);
                let mut x = vec![0.0f64; n];
                let res = GmresIr::<f32, f64>::new(&a, &Identity, IrConfig::default().with_m(30))
                    .solve(&mut ctx, &b, &mut x);
                assert!(res.status.is_converged());
            })
        });
    }
    g.finish();
}

fn bench_ortho_methods(c: &mut Criterion) {
    // CGS2 (paper) vs CGS1 vs MGS: on the simulated GPU, MGS's 2j skinny
    // kernels per iteration pay launch overhead j times over; CGS1 is
    // cheapest but weaker in fp32. Simulated seconds printed once.
    use mpgmres::{Gmres, GmresConfig, OrthoMethod};
    let a = GpuMatrix::new(galeri::laplace2d(40, 40));
    let n = a.n();
    let b = vec![1.0f64; n];
    let mut g = c.benchmark_group("ortho_method");
    g.sample_size(10);
    for (name, ortho) in [
        ("cgs2_paper", OrthoMethod::Cgs2),
        ("cgs1", OrthoMethod::Cgs1),
        ("mgs", OrthoMethod::Mgs),
    ] {
        let mut printed = false;
        g.bench_function(name, |bch| {
            bch.iter(|| {
                let mut ctx = GpuContext::new(DeviceModel::v100_belos());
                let mut x = vec![0.0f64; n];
                let cfg = GmresConfig::default().with_m(30).with_ortho(ortho);
                let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx, &b, &mut x);
                assert!(res.status.is_converged());
                if !printed {
                    println!(
                        "\n[ablation] {name}: {} iters, {:.4} simulated s",
                        res.iterations,
                        ctx.elapsed()
                    );
                    printed = true;
                }
            })
        });
    }
    g.finish();
}

criterion_group!(
    ablations,
    bench_inner_exit_policy,
    bench_reduction_order_effect,
    bench_ortho_methods
);
criterion_main!(ablations);
