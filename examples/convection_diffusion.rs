//! The paper's motivating workload: a strongly convection-dominated 2D
//! flow problem (BentPipe2D, §V-B) where fp64 GMRES needs thousands of
//! iterations — the regime where GMRES-IR shines.
//!
//! ```text
//! cargo run --release --example convection_diffusion [nx]
//! ```
//!
//! Prints the convergence story of Figure 3 (fp32 stalls, fp64 converges,
//! IR tracks fp64) and the kernel-level speedup table of Table I.

use multiprec_gmres::matgen::{galeri, registry};
use multiprec_gmres::prelude::*;

fn main() {
    let nx: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(96);
    let a = GpuMatrix::new(galeri::bentpipe2d(nx, registry::BENTPIPE_PECLET));
    let n = a.n();
    // Scale the device's fixed latencies with problem size so time ratios
    // match the paper-scale experiment (see `DeviceModel::scaled_latencies`).
    let device = DeviceModel::v100_belos().scaled_latencies(n as f64 / 2_250_000.0);
    let b = vec![1.0f64; n];
    println!(
        "BentPipe2D {nx}x{nx}: n = {n}, nnz = {}, recirculating wind",
        a.nnz()
    );

    // fp64 baseline.
    let mut ctx64 = GpuContext::new(device.clone());
    let mut x64 = vec![0.0f64; n];
    let r64 = Gmres::new(&a, &Identity, GmresConfig::default().with_max_iters(60_000))
        .solve(&mut ctx64, &b, &mut x64);
    println!(
        "fp64 GMRES(50): {:?}, {} iterations, {:.4} s simulated",
        r64.status,
        r64.iterations,
        ctx64.elapsed()
    );

    // fp32: let it run as long as fp64 took; watch it stall.
    let a32 = a.convert::<f32>();
    let b32 = vec![1.0f32; n];
    let mut ctx32 = GpuContext::new(device.clone());
    let mut x32 = vec![0.0f32; n];
    let r32 = Gmres::new(
        &a32,
        &Identity,
        GmresConfig::default().with_max_iters(r64.iterations),
    )
    .solve(&mut ctx32, &b32, &mut x32);
    println!(
        "fp32 GMRES(50): {:?} — stalled at residual {:.2e} (paper: ~4.7e-6 at paper scale)",
        r32.status,
        r32.best_residual()
    );

    // GMRES-IR.
    let mut ctx_ir = GpuContext::new(device);
    let mut x_ir = vec![0.0f64; n];
    let rir = GmresIr::<f32, f64>::new(&a, &Identity, IrConfig::default().with_max_iters(60_000))
        .solve(&mut ctx_ir, &b, &mut x_ir);
    println!(
        "GMRES-IR(50):   {:?}, {} iterations, {:.4} s simulated",
        rir.status,
        rir.iterations,
        ctx_ir.elapsed()
    );

    // Table-I-style kernel comparison.
    let rep64 = ctx64.report();
    let rep_ir = ctx_ir.report();
    println!(
        "\nkernel speedups fp64 -> IR (paper Table I: 1.28 / 1.15 / 1.57 / 2.48 / total 1.32):"
    );
    for cat in PaperCategory::ALL {
        let t64 = rep64.seconds(cat);
        let tir = rep_ir.seconds(cat);
        if tir > 0.0 && t64 > 0.0 {
            println!("  {:<16} {:>6.2}x", cat.label(), t64 / tir);
        }
    }
    println!(
        "  {:<16} {:>6.2}x",
        "Total",
        ctx64.elapsed() / ctx_ir.elapsed()
    );
}
