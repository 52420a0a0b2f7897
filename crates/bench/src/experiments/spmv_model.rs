//! §V-D: the SpMV cache-reuse model.
//!
//! Three layers, compared side by side:
//! 1. The paper's closed-form bound `5w/(2w+1)` (perfect fp32 x-reuse,
//!    none for fp64).
//! 2. Our priced traffic model (adds row pointers and y stores).
//! 3. The mechanistic LRU cache simulator replaying the real CSR access
//!    stream under concurrent-lane streaming pressure, showing the x hit
//!    rate asymmetry emerge and collapse as pressure grows.

use mpgmres_gpusim::analytic;
use mpgmres_gpusim::cache::simulate_spmv_cache;
use mpgmres_gpusim::cost::{matrix_op, MatrixOperand};
use mpgmres_gpusim::DeviceModel;
use mpgmres_la::stats::MatrixStats;
use mpgmres_matgen::registry::PaperProblem;
use mpgmres_scalar::Precision;
use serde::Serialize;

use crate::experiments::ExpOpts;
use crate::harness::Scale;
use crate::output;

/// One row of the w-sweep.
#[derive(Serialize)]
pub struct ModelRow {
    /// Nonzeros per row.
    pub w: usize,
    /// The paper's `5w/(2w+1)`.
    pub paper_bound: f64,
    /// Priced model speedup (banded matrix, paper-scale n).
    pub model_speedup: f64,
}

/// One row of the cache-simulation study.
#[derive(Serialize)]
pub struct CacheRow {
    /// Problem name.
    pub problem: String,
    /// Concurrent lanes.
    pub lanes: usize,
    /// fp64 x-vector hit rate.
    pub x_hit_fp64: f64,
    /// fp32 x-vector hit rate.
    pub x_hit_fp32: f64,
}

/// Artifact for the §V-D experiment.
#[derive(Serialize)]
pub struct SpmvModelResult {
    /// w sweep.
    pub sweep: Vec<ModelRow>,
    /// Per-problem modeled speedups at experiment scale.
    pub problems: Vec<(String, f64, f64)>, // (name, model speedup, paper bound)
    /// Cache-simulator hit rates under varying pressure.
    pub cache: Vec<CacheRow>,
}

/// Priced time of one uniform SpMV.
fn spmv_seconds(dev: &DeviceModel, n: usize, nnz: usize, bandwidth: usize, p: Precision) -> f64 {
    matrix_op(dev, &MatrixOperand::uniform(n, nnz, bandwidth, p), 1, false).0
}

/// Run the §V-D model study.
pub fn run(opts: &ExpOpts) -> SpmvModelResult {
    let dev = DeviceModel::v100_belos();
    let mut text = String::new();

    // --- Part 1: w sweep at paper-like scale. ---
    let n = 2_000_000usize;
    let mut sweep = Vec::new();
    let mut t1 = output::TextTable::new(&["w", "paper 5w/(2w+1)", "priced model"]);
    for w in [2usize, 3, 5, 7, 9, 15, 27] {
        let nnz = n * w;
        let s64 = spmv_seconds(&dev, n, nnz, 2000, Precision::Fp64);
        let s32 = spmv_seconds(&dev, n, nnz, 2000, Precision::Fp32);
        let row = ModelRow {
            w,
            paper_bound: analytic::paper_speedup_bound(w as f64),
            model_speedup: s64 / s32,
        };
        t1.row(vec![
            w.to_string(),
            format!("{:.3}", row.paper_bound),
            format!("{:.3}", row.model_speedup),
        ]);
        sweep.push(row);
    }
    text.push_str(&format!(
        "vd_model part 1: SpMV fp64->fp32 speedup vs nonzeros/row (banded)\n{}\n",
        t1.render()
    ));

    // --- Part 2: the three PDE problems at experiment scale. ---
    let mut problems = Vec::new();
    let mut t2 = output::TextTable::new(&["matrix", "w", "model", "paper bound", "paper measured"]);
    let measured = [
        ("BentPipe2D1500", 2.48),
        ("Laplace3D150", 2.6),
        ("UniFlow2D2500", 2.4),
    ];
    for (problem, paper_meas) in [
        (PaperProblem::BentPipe2D1500, measured[0].1),
        (PaperProblem::Laplace3D150, measured[1].1),
        (PaperProblem::UniFlow2D2500, measured[2].1),
    ] {
        let nx = opts.scale.nx(problem.default_nx(), problem.paper_nx());
        let a = problem.generate_at(nx);
        let st = MatrixStats::of(&a);
        // Latency-scaled device so the ratio matches the paper-scale run
        // (fixed launch overheads would otherwise swamp small instances).
        let dev = dev.scaled_latencies((st.nrows as f64 / problem.paper_n() as f64).min(1.0));
        let s64 = spmv_seconds(&dev, st.nrows, st.nnz, st.bandwidth, Precision::Fp64);
        let s32 = spmv_seconds(&dev, st.nrows, st.nnz, st.bandwidth, Precision::Fp32);
        let bound = analytic::paper_speedup_bound(st.avg_nnz_per_row);
        t2.row(vec![
            problem.name().to_string(),
            format!("{:.2}", st.avg_nnz_per_row),
            format!("{:.2}", s64 / s32),
            format!("{bound:.2}"),
            format!("{paper_meas:.2}"),
        ]);
        problems.push((problem.name().to_string(), s64 / s32, bound));
    }
    text.push_str(&format!(
        "vd_model part 2: per-problem SpMV speedups\n{}\n",
        t2.render()
    ));

    // --- Part 3: mechanism probe with the LRU cache simulator. ---
    // A banded stencil at modest size; sweep streaming pressure (lanes).
    let mut cache = Vec::new();
    let mut t3 = output::TextTable::new(&["problem", "lanes", "x-hit fp64", "x-hit fp32"]);
    let sim_nx = match opts.scale {
        Scale::Quick => 24,
        _ => 64,
    };
    let a64 = mpgmres_matgen::galeri::laplace2d(sim_nx, sim_nx);
    let a32 = a64.convert::<f32>();
    let mut sim_dev = dev.clone();
    // Size the cache so the pressure sweep crosses the eviction boundary
    // at this reduced problem size.
    sim_dev.l2_capacity = 96 << 10;
    sim_dev.l2_effective_fraction = 1.0;
    for lanes in [1usize, 8, 32, 128, 512] {
        let h64 = simulate_spmv_cache(&a64, &sim_dev, Precision::Fp64, lanes);
        let h32 = simulate_spmv_cache(&a32, &sim_dev, Precision::Fp32, lanes);
        t3.row(vec![
            format!("Laplace2D{sim_nx}"),
            lanes.to_string(),
            format!("{:.3}", h64.x_hit_rate),
            format!("{:.3}", h32.x_hit_rate),
        ]);
        cache.push(CacheRow {
            problem: format!("Laplace2D{sim_nx}"),
            lanes,
            x_hit_fp64: h64.x_hit_rate,
            x_hit_fp32: h32.x_hit_rate,
        });
    }
    text.push_str(&format!(
        "vd_model part 3: LRU cache simulation, x-vector hit rate vs streaming pressure\n\
         (fp32's halved working set keeps reuse alive under pressure where fp64 loses it)\n{}",
        t3.render()
    ));
    println!("{text}");

    let result = SpmvModelResult {
        sweep,
        problems,
        cache,
    };
    output::write_json(&opts.out, "vd_model", &result).expect("write json");
    output::write_text(&opts.out, "vd_model", &text).expect("write text");
    result
}
