//! Scratch calibration probe: convergence behaviour of the default-scale
//! problems (used to pick experiment defaults; not part of the paper's
//! artifact set).
//!
//! `--rhs-block K` (K > 1) switches the default problem sweep to the
//! batched multi-RHS path: each problem is solved for a block of K
//! heterogeneous right-hand sides with `BlockGmres` and the per-RHS
//! simulated cost is compared against a single-RHS solve.
//!
//! `--precision native|fp32|fp16|split:T` selects the matrix
//! value-storage path of the GMRES-IR inner operand in the default
//! sweep (the IR inner works in fp32, so `fp16` and `split:T` are the
//! narrowing options there).
//!
//! `--basis native|fp32|fp16` selects the Krylov-basis storage policy
//! of the fp64 GMRES runs (`native` keeps the working-precision
//! layout; `fp32`/`fp16` stream a demoted basis).

use mpgmres::precond::{poly::PolyPreconditioner, Identity};
use mpgmres::{
    BackendKind, BasisPolicy, BlockGmres, Gmres, GmresConfig, IrConfig, MultiVec, Operator,
    SolveRequest, Solver, StorePath,
};
use mpgmres_bench::harness::{parse_basis, parse_store_path, Bench};
use mpgmres_matgen::registry::PaperProblem;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Extract `--backend NAME` / `--rhs-block K` anywhere on the line;
    // positional args keep their existing meaning.
    let mut backend = BackendKind::default();
    if let Some(pos) = args.iter().position(|a| a == "--backend") {
        let Some(name) = args.get(pos + 1) else {
            eprintln!("probe: --backend requires a value (reference|parallel)");
            std::process::exit(2);
        };
        backend = name.parse().unwrap_or_else(|e| {
            eprintln!("probe: {e}");
            std::process::exit(2);
        });
        args.drain(pos..pos + 2);
    }
    let mut store = StorePath::Native;
    if let Some(pos) = args.iter().position(|a| a == "--precision") {
        let Some(p) = args.get(pos + 1) else {
            eprintln!("probe: --precision requires a path (native|fp32|fp16|split:T)");
            std::process::exit(2);
        };
        store = parse_store_path(p).unwrap_or_else(|e| {
            eprintln!("probe: {e}");
            std::process::exit(2);
        });
        args.drain(pos..pos + 2);
    }
    let mut basis = BasisPolicy::Native;
    if let Some(pos) = args.iter().position(|a| a == "--basis") {
        let Some(p) = args.get(pos + 1) else {
            eprintln!("probe: --basis requires a policy (native|fp32|fp16)");
            std::process::exit(2);
        };
        basis = parse_basis(p).unwrap_or_else(|e| {
            eprintln!("probe: {e}");
            std::process::exit(2);
        });
        args.drain(pos..pos + 2);
    }
    let mut rhs_block = 1usize;
    if let Some(pos) = args.iter().position(|a| a == "--rhs-block") {
        let Some(kstr) = args.get(pos + 1) else {
            eprintln!("probe: --rhs-block requires a width");
            std::process::exit(2);
        };
        rhs_block = kstr.parse::<usize>().unwrap_or_else(|e| {
            eprintln!("probe: bad --rhs-block value: {e}");
            std::process::exit(2);
        });
        args.drain(pos..pos + 2);
    }
    let bench_for = move |name: String, csr, paper_n| -> Bench {
        Bench::new(name, csr, paper_n).with_backend(backend)
    };
    let which = args.first().map(|s| s.as_str()).unwrap_or("all");

    if which == "poly" {
        // probe poly <nx> <stretch> <degree> [m]
        let nx: usize = args[1].parse().unwrap();
        let stretch: f64 = args[2].parse().unwrap();
        let degree: usize = args[3].parse().unwrap();
        let m: usize = args.get(4).map(|s| s.parse().unwrap()).unwrap_or(50);
        let csr = mpgmres_matgen::galeri::stretched2d(nx, stretch);
        let bench = bench_for(format!("stretched{nx}@{stretch}"), csr, 2_250_000);
        let cfg = GmresConfig::default()
            .with_m(m)
            .with_max_iters(8_000)
            .with_basis(basis);
        if degree == 0 {
            let (r, _) = bench.run_fp64(&Identity, cfg);
            println!(
                "stretched nx={nx} s={stretch} unprec: {} iters {} rel {:.2e} sim {:.4}",
                r.iterations, r.status, r.final_rel, r.sim_seconds
            );
            return;
        }
        let mut ctx = bench.ctx();
        let poly = match PolyPreconditioner::build_auto_seed(&mut ctx, &bench.a, degree) {
            Ok(p) => p,
            Err(e) => {
                println!("stretched nx={nx} s={stretch} poly{degree}: BUILD FAILED {e}");
                return;
            }
        };
        let minmag = poly
            .roots()
            .iter()
            .map(|r| r.abs())
            .fold(f64::INFINITY, f64::min);
        let maxmag = poly.roots().iter().map(|r| r.abs()).fold(0.0f64, f64::max);
        let (r, _) = bench.run_fp64(&poly, cfg);
        println!(
            "stretched nx={nx} s={stretch} poly{degree}: {} iters {} rel {:.2e} sim {:.4} seedres {:.1e} roots [{:.2e},{:.2e}]",
            r.iterations, r.status, r.final_rel, r.sim_seconds, poly.seed_residual_rel(), minmag, maxmag
        );
        return;
    }

    if which == "sweep" {
        // probe sweep <bentpipe|uniflow> <nx> <pe> [m]
        let gen = args[1].as_str();
        let nx: usize = args[2].parse().unwrap();
        let pe: f64 = args[3].parse().unwrap();
        let m: usize = args.get(4).map(|s| s.parse().unwrap()).unwrap_or(50);
        let csr = match gen {
            "bentpipe" => mpgmres_matgen::galeri::bentpipe2d(nx, pe),
            "uniflow" => mpgmres_matgen::galeri::uniflow2d(nx, pe),
            other => panic!("unknown generator {other}"),
        };
        let bench = bench_for(format!("{gen}{nx}@pe{pe}"), csr, 2_250_000);
        let cfg = GmresConfig::default()
            .with_m(m)
            .with_max_iters(20_000)
            .with_basis(basis);
        let t0 = std::time::Instant::now();
        let (r64, _) = bench.run_fp64(&Identity, cfg);
        println!(
            "{gen} nx={nx} pe={pe} m={m}: fp64 {} iters {} rel {:.2e} sim {:.4}s wall {:.1?}",
            r64.iterations,
            r64.status,
            r64.final_rel,
            r64.sim_seconds,
            t0.elapsed()
        );
        let (rir, _) = bench.run_ir(
            &Identity,
            IrConfig::default()
                .with_m(m)
                .with_max_iters(20_000)
                .with_store(store),
        );
        println!(
            "   ir {} iters {} rel {:.2e} sim {:.4}s speedup {:.2}",
            rir.iterations,
            rir.status,
            rir.final_rel,
            rir.sim_seconds,
            r64.sim_seconds / rir.sim_seconds
        );
        return;
    }
    for p in PaperProblem::ALL {
        if which != "all" && !p.name().to_lowercase().contains(which) {
            continue;
        }
        let nx = p.default_nx();
        let t0 = std::time::Instant::now();
        let csr = p.generate_at(nx);
        let bench = bench_for(p.name().to_string(), csr, p.paper_n());
        println!(
            "{} nx={} n={} nnz={} bw={} gen={:?}",
            p.name(),
            nx,
            bench.a.n(),
            bench.a.nnz(),
            bench.a.bandwidth(),
            t0.elapsed()
        );
        let cfg = GmresConfig::default()
            .with_m(50)
            .with_max_iters(30_000)
            .with_basis(basis);
        if rhs_block > 1 {
            if p.name().starts_with("Stretched") {
                println!("  (skipped in --rhs-block mode: needs polynomial preconditioning)");
                continue;
            }
            probe_multirhs(&bench, cfg, rhs_block);
            continue;
        }
        if p.name().starts_with("Stretched") {
            // Needs polynomial preconditioning per the paper.
            let (r_plain, _) = bench.run_fp64(&Identity, cfg.with_max_iters(3_000));
            println!(
                "  fp64 unprec: {} iters status {} rel {:.2e} wall {:.2}s",
                r_plain.iterations, r_plain.status, r_plain.final_rel, r_plain.wall_seconds
            );
            let mut ctx = bench.ctx();
            let _b64 = bench.b.clone();
            let poly = PolyPreconditioner::build_auto_seed(&mut ctx, &bench.a, 40).unwrap();
            let (r_poly, _) = bench.run_fp64(&poly, cfg);
            println!(
                "  fp64 poly40: {} iters status {} rel {:.2e} sim {:.4}s wall {:.2}s",
                r_poly.iterations,
                r_poly.status,
                r_poly.final_rel,
                r_poly.sim_seconds,
                r_poly.wall_seconds
            );
            continue;
        }
        let (r64, _) = bench.run_fp64(&Identity, cfg);
        println!(
            "  fp64: {} iters status {} rel {:.2e} sim {:.4}s wall {:.2}s",
            r64.iterations, r64.status, r64.final_rel, r64.sim_seconds, r64.wall_seconds
        );
        let (rir, _) = bench.run_ir(
            &Identity,
            IrConfig::default()
                .with_m(50)
                .with_max_iters(30_000)
                .with_store(store),
        );
        println!(
            "  ir [{}]: {} iters status {} rel {:.2e} sim {:.4}s wall {:.2}s speedup {:.2}",
            store.label(),
            rir.iterations,
            rir.status,
            rir.final_rel,
            rir.sim_seconds,
            rir.wall_seconds,
            r64.sim_seconds / rir.sim_seconds
        );
    }
}

/// Batched multi-RHS probe: K heterogeneous right-hand sides solved as
/// one block, compared against a single-RHS reference solve.
fn probe_multirhs(bench: &Bench, cfg: GmresConfig, k: usize) {
    let n = bench.a.n();
    let cols = mpgmres_bench::experiments::multirhs::rhs_columns(n, k);
    // Reference: one single-RHS solve of column 0, through the unified
    // request surface every driver now serves.
    let mut ctx1 = bench.ctx();
    let t0 = std::time::Instant::now();
    let out1 = Gmres::serve(
        &mut ctx1,
        &SolveRequest::new(Operator::Matrix(&bench.a), &cols[0]).with_config(cfg),
    )
    .expect("well-formed probe request");
    let r1 = out1.result.expect("completed probe solve");
    let single_sim = ctx1.elapsed();
    let single_wall = t0.elapsed().as_secs_f64();
    // The block solve.
    let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
    let b = MultiVec::from_columns(&col_refs);
    let mut x = MultiVec::<f64>::zeros(n, k);
    let mut ctx = bench.ctx();
    let t0 = std::time::Instant::now();
    let results = BlockGmres::new(&bench.a, &Identity, cfg).solve(&mut ctx, &b, &mut x);
    let block_sim = ctx.elapsed();
    let block_wall = t0.elapsed().as_secs_f64();
    println!(
        "  single: {} iters {:?} sim {single_sim:.4}s wall {single_wall:.2}s",
        r1.iterations, r1.status
    );
    for (l, r) in results.iter().enumerate() {
        println!(
            "  rhs {l}: {} iters {:?} rel {:.2e}",
            r.iterations, r.status, r.final_relative_residual
        );
    }
    println!(
        "  block k={k}: sim {block_sim:.4}s ({:.4}s per RHS, {:.2}x vs single) wall {block_wall:.2}s",
        block_sim / k as f64,
        single_sim / (block_sim / k as f64),
    );
}
