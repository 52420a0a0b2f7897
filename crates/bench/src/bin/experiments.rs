//! Experiment driver: regenerates every figure and table of the paper.
//!
//! ```text
//! experiments <id>... [--scale F] [--paper-scale] [--quick] [--out DIR]
//!                     [--backend reference|parallel|parallel-nnz] [--rhs-block K]
//!                     [--precision native|fp32|fp16|split:T] [--basis native|fp32|fp16]
//!
//! ids: fig1 fig2 fig3 fig4_table1 fig5 fig6 fig7 vd_model table2 fig8
//!      vf_degrees table3 multirhs multiprec serving compbasis all
//! ```
//!
//! `--backend` selects the kernel execution backend (wall-clock only;
//! simulated V100 results are identical across backends). `--rhs-block`
//! sets the block width of the `multirhs` batched-solve experiment
//! (default 4). `--precision` picks the matrix value-storage path added
//! to the `multiprec` storage sweep. `--basis` picks the Krylov-basis
//! storage policy applied to solver configs built from these options
//! (the `compbasis` experiment always sweeps native/fp32/fp16).
//! `multirhs`, `multiprec`, `serving` (offered-load sweep through
//! `SolverService`), and `compbasis` are ROADMAP extensions, not paper
//! artifacts, and are not part of `all`.
//!
//! Aliases: `fig5` runs with `fig4_table1`; `fig7` with `fig6`.

use std::process::ExitCode;

use mpgmres::{BackendKind, BasisPolicy, StorePath};
use mpgmres_bench::experiments::{
    self, compbasis, convergence, fd_sweep, kernel_breakdown, multiprec, multirhs, poly_degrees,
    precond_stretched, restart_sweep, serving, spmv_model, suitesparse,
};
use mpgmres_bench::harness::{parse_basis, parse_store_path, Scale};
use mpgmres_bench::output;

const ALL_IDS: [&str; 10] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4_table1",
    "fig6",
    "vd_model",
    "table2",
    "fig8",
    "vf_degrees",
    "table3",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments <id>... [--scale F] [--paper-scale] [--quick] [--out DIR] \
         [--backend reference|parallel|parallel-nnz] [--rhs-block K] \
         [--precision native|fp32|fp16|split:T] [--basis native|fp32|fp16]\n\
         ids: {} multirhs multiprec serving compbasis all",
        ALL_IDS.join(" ")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::Default;
    let mut out_dir: Option<String> = None;
    let mut backend = BackendKind::default();
    let mut rhs_block = 4usize;
    let mut store = StorePath::Native;
    let mut basis = BasisPolicy::Native;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--basis" => {
                i += 1;
                let Some(p) = args.get(i) else { return usage() };
                basis = match parse_basis(p) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("experiments: {e}");
                        return usage();
                    }
                };
            }
            "--precision" => {
                i += 1;
                let Some(p) = args.get(i) else { return usage() };
                store = match parse_store_path(p) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("experiments: {e}");
                        return usage();
                    }
                };
            }
            "--backend" => {
                i += 1;
                let Some(b) = args.get(i).and_then(|s| s.parse::<BackendKind>().ok()) else {
                    return usage();
                };
                backend = b;
            }
            "--rhs-block" => {
                i += 1;
                let Some(k) = args.get(i).and_then(|s| s.parse::<usize>().ok()) else {
                    return usage();
                };
                rhs_block = k.max(1);
            }
            "--scale" => {
                i += 1;
                let Some(f) = args.get(i).and_then(|s| s.parse::<f64>().ok()) else {
                    return usage();
                };
                scale = Scale::Factor(f);
            }
            "--paper-scale" => scale = Scale::Paper,
            "--quick" => scale = Scale::Quick,
            "--out" => {
                i += 1;
                let Some(d) = args.get(i) else { return usage() };
                out_dir = Some(d.clone());
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            id => ids.push(id.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        return usage();
    }
    if ids.iter().any(|s| s == "all") {
        ids = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }

    let out = output::results_dir(out_dir.as_deref());
    let opts = experiments::ExpOpts::new(scale, out)
        .with_backend(backend)
        .with_rhs_block(rhs_block)
        .with_store(store)
        .with_basis(basis);
    println!("kernel backend: {backend}");

    let t0 = std::time::Instant::now();
    for id in &ids {
        println!("\n==================== {id} ====================");
        match normalize(id) {
            Some("fig1") => {
                fd_sweep::fig1(&opts);
            }
            Some("fig2") => {
                fd_sweep::fig2(&opts);
            }
            Some("fig3") => {
                convergence::fig3(&opts);
            }
            Some("fig4_table1") => {
                kernel_breakdown::run(&opts);
            }
            Some("fig6") => {
                precond_stretched::run(&opts);
            }
            Some("vd_model") => {
                spmv_model::run(&opts);
            }
            Some("table2") => {
                restart_sweep::table2(&opts);
            }
            Some("fig8") => {
                restart_sweep::fig8(&opts);
            }
            Some("vf_degrees") => {
                poly_degrees::run(&opts);
            }
            Some("table3") => {
                suitesparse::run(&opts);
            }
            Some("multirhs") => {
                multirhs::run(&opts);
            }
            Some("multiprec") => {
                multiprec::run(&opts);
            }
            Some("serving") => {
                serving::run(&opts);
            }
            Some("compbasis") => {
                compbasis::run(&opts);
            }
            _ => {
                eprintln!("unknown experiment id: {id}");
                return usage();
            }
        }
    }
    println!(
        "\nall done in {:.1} s wall; artifacts in {}",
        t0.elapsed().as_secs_f64(),
        opts.out.display()
    );
    ExitCode::SUCCESS
}

fn normalize(id: &str) -> Option<&'static str> {
    match id {
        "fig1" => Some("fig1"),
        "fig2" => Some("fig2"),
        "fig3" => Some("fig3"),
        "fig4" | "fig5" | "table1" | "fig4_table1" => Some("fig4_table1"),
        "fig6" | "fig7" | "fig6_fig7" => Some("fig6"),
        "vd_model" | "vd" => Some("vd_model"),
        "table2" => Some("table2"),
        "fig8" => Some("fig8"),
        "vf_degrees" | "vf" => Some("vf_degrees"),
        "table3" => Some("table3"),
        "multirhs" | "multi-rhs" => Some("multirhs"),
        "multiprec" | "multi-prec" | "precision" => Some("multiprec"),
        "serving" | "serve" => Some("serving"),
        "compbasis" | "comp-basis" | "basis" => Some("compbasis"),
        _ => None,
    }
}
