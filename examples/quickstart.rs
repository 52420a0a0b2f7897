//! Quickstart: solve a 2D Poisson problem three ways and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Demonstrates the core API through the unified request surface: build
//! a matrix, pick a device model, serve fp64 GMRES(m) and GMRES-IR via
//! [`SolveRequest`] + the [`Solver`] trait, run fp32 GMRES(m), push a
//! burst of prioritized, deadline-tagged right-hand sides through
//! [`SolverService`], and read iterations + simulated V100 time + the
//! per-kernel breakdown.

use multiprec_gmres::matgen::galeri;
use multiprec_gmres::prelude::*;

fn main() {
    let nx = 96;
    let a = GpuMatrix::new(galeri::laplace2d(nx, nx));
    let n = a.n();
    let b = vec![1.0f64; n];
    println!("Laplace2D {nx}x{nx}: n = {n}, nnz = {}", a.nnz());

    // Device model with fixed latencies scaled to this problem size, so
    // time ratios match a paper-scale (n ~ millions) run; see
    // `DeviceModel::scaled_latencies`.
    let device = DeviceModel::v100_belos().scaled_latencies(n as f64 / 2_250_000.0);

    // fp64 GMRES(50) — the baseline the paper measures everything
    // against, through the unified request surface: a `SolveRequest`
    // in, a `SolveOutcome` (solution + result + timings) out.
    let mut ctx = GpuContext::new(device.clone());
    let out64 = Gmres::serve(&mut ctx, &SolveRequest::new(Operator::Matrix(&a), &b))
        .expect("well-formed request");
    let r64 = out64.result.expect("completed outcome");
    let t64 = ctx.elapsed();
    println!(
        "fp64 GMRES(50):  {:?} in {} iterations, simulated {:.3} ms",
        r64.status,
        r64.iterations,
        t64 * 1e3
    );

    // fp32 GMRES(50) — stalls near single-precision accuracy.
    let a32 = a.convert::<f32>();
    let b32 = vec![1.0f32; n];
    let mut ctx32 = GpuContext::new(device.clone());
    let mut x32 = vec![0.0f32; n];
    let g32 = Gmres::new(
        &a32,
        &Identity,
        GmresConfig::default().with_max_iters(r64.iterations),
    );
    let r32 = g32.solve(&mut ctx32, &b32, &mut x32);
    println!(
        "fp32 GMRES(50):  {:?} after {} iterations, best residual {:.2e} (cannot certify 1e-10)",
        r32.status,
        r32.iterations,
        r32.best_residual()
    );

    // GMRES-IR — fp32 inner iterations, fp64 refinement at each restart,
    // served through the same `Solver` trait as the fp64 baseline.
    let mut ctx_ir = GpuContext::new(device);
    let out_ir =
        GmresIr::<f32, f64>::serve(&mut ctx_ir, &SolveRequest::new(Operator::Matrix(&a), &b))
            .expect("well-formed request");
    let rir = out_ir.result.expect("completed outcome");
    let tir = ctx_ir.elapsed();
    println!(
        "GMRES-IR(50):    {:?} in {} iterations, simulated {:.3} ms  ->  {:.2}x speedup over fp64",
        rir.status,
        rir.iterations,
        tir * 1e3,
        t64 / tir
    );
    println!(
        "final residuals: fp64 {:.2e}, IR {:.2e} (both certified at 1e-10)",
        r64.final_relative_residual, rir.final_relative_residual
    );

    // Solve-as-a-service: queue a burst of right-hand sides and let the
    // continuous-admission lane engine schedule them into 4 lanes,
    // admitting queued work at cycle barriers as lanes deflate. QoS
    // rides along on each request — here a priority scheduler with a
    // generous per-request deadline — yet each completed outcome stays
    // bit-identical to its independent solve.
    let mut svc_ctx = GpuContext::new(DeviceModel::v100_belos());
    let mut service = SolverService::new(
        ServiceConfig::default()
            .with_lanes(4)
            .with_scheduler(SchedulerPolicy::Priority),
    );
    let burst: Vec<Vec<f64>> = (0..6)
        .map(|j| {
            (0..n)
                .map(|i| 1.0 + ((i * (j + 2)) % 7) as f64 / 7.0)
                .collect()
        })
        .collect();
    for (j, rhs) in burst.iter().enumerate() {
        service
            .submit(
                &svc_ctx,
                &SolveRequest::new(Operator::Matrix(&a), rhs)
                    .with_priority(j as i32 % 3)
                    .with_deadline(60.0),
            )
            .expect("well-formed request");
    }
    service.run_until_idle(&mut svc_ctx);
    let outcomes = service.drain_outcomes();
    let stats = service.stats();
    println!(
        "\nSolverService:   {} requests over {} lanes: {} cycles, occupancy {:.2}, deadline misses {}",
        outcomes.len(),
        4,
        stats.cycles,
        stats.occupancy(),
        stats.deadline_misses
    );
    for o in &outcomes {
        let r = o.result.as_ref().expect("completed");
        println!(
            "  {}: {:?} in {} iterations (queued {:.3} ms, solved {:.3} ms)",
            o.id,
            r.status,
            r.iterations,
            o.queued_seconds * 1e3,
            o.solve_seconds * 1e3
        );
    }

    println!("\nper-kernel simulated time, fp64 solve (the paper's Fig. 4 categories):");
    print!("{}", ctx.report().table());
}
