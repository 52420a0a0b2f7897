//! Software-pipelining bench: lockstep vs pipelined `BlockGmres` on the
//! simulated overlap timeline.
//!
//! For k ∈ {1, 2, 4} right-hand sides the same block solve runs once
//! at `pipeline_depth = 0` (lockstep) and once at `pipeline_depth = 1`
//! (software-pipelined), through the one cycle loop. The two are
//! bit-identical per lane (asserted here and CI-pinned in
//! `stream_parity.rs`); the measurement is the simulated timeline:
//! serial totals are bitwise equal, and the pipelined critical path
//! drops strictly below lockstep's at k >= 2 because the deferred
//! Givens/least-squares host steps hide behind in-flight device work
//! (the launch-latency hiding of the source paper). The per-class
//! `hidden` accounting shows exactly how much host latency vanished.
//!
//! Archived as `results/pipeline.json`; the `gate` object carries the
//! flat uniquely-named fields the CI perf gate (`perfgate`) checks, so
//! the schema is load-bearing — extend it, don't rename it.

use criterion::{criterion_group, criterion_main, Criterion};
use mpgmres::precond::Identity;
use mpgmres::{BlockGmres, GmresConfig, GpuContext, GpuMatrix, MultiVec, SolveResult};
use mpgmres_bench::output;
use mpgmres_gpusim::{DeviceModel, KernelClass, TimingReport};
use mpgmres_la::vec_ops::ReductionOrder;
use mpgmres_matgen::galeri;
use serde::Serialize;

#[derive(Serialize)]
struct DriverRecord {
    serial_seconds: f64,
    critical_path_seconds: f64,
    overlap_ratio: f64,
    hidden_host_seconds: f64,
}

#[derive(Serialize)]
struct PipelineRecord {
    k: usize,
    lockstep: DriverRecord,
    pipelined: DriverRecord,
    /// Lockstep ratio minus pipelined ratio (positive = pipelining won).
    ratio_improvement: f64,
    bit_identical: bool,
}

/// Flat, uniquely-named gate fields for the CI perf gate.
#[derive(Serialize)]
struct GateRecord {
    gate_k: usize,
    lockstep_overlap_ratio: f64,
    pipelined_overlap_ratio: f64,
    hidden_host_seconds: f64,
    gate_bit_identical: bool,
}

#[derive(Serialize)]
struct PipelineArtifact {
    records: Vec<PipelineRecord>,
    gate: GateRecord,
}

fn rhs_cols(n: usize, k: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|j| {
            (0..n)
                .map(|i| 1.0 + ((i * (j + 2)) % 17) as f64 / 17.0)
                .collect()
        })
        .collect()
}

fn solve(
    a: &GpuMatrix<f64>,
    cols: &[Vec<f64>],
    depth: usize,
) -> (TimingReport, f64, Vec<SolveResult>, MultiVec<f64>) {
    let cfg = GmresConfig::default()
        .with_m(30)
        .with_max_iters(4_000)
        .with_pipeline_depth(depth);
    let mut ctx = GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::GPU_LIKE);
    let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
    let b = MultiVec::from_columns(&col_refs);
    let mut x = MultiVec::<f64>::zeros(a.n(), cols.len());
    let res = BlockGmres::new(a, &Identity, cfg).solve(&mut ctx, &b, &mut x);
    let hidden = ctx.profiler().class_stats(KernelClass::HostDense).hidden;
    (ctx.report(), hidden, res, x)
}

fn record(rep: &TimingReport, hidden: f64) -> DriverRecord {
    DriverRecord {
        serial_seconds: rep.total_seconds,
        critical_path_seconds: rep.critical_path_seconds,
        overlap_ratio: rep.overlap_ratio(),
        hidden_host_seconds: hidden,
    }
}

fn summary(_c: &mut Criterion) {
    let a = GpuMatrix::new(galeri::laplace2d(48, 48));
    let n = a.n();
    let mut records = Vec::new();
    println!("\n[pipeline summary] lockstep vs software-pipelined BlockGmres (n={n}, m=30)");
    for k in [1usize, 2, 4] {
        let cols = rhs_cols(n, k);
        let (rep_l, hid_l, res_l, x_l) = solve(&a, &cols, 0);
        let (rep_p, hid_p, res_p, x_p) = solve(&a, &cols, 1);

        let mut bit_identical = x_l.data().len() == x_p.data().len()
            && x_l
                .data()
                .iter()
                .zip(x_p.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        for (rl, rp) in res_l.iter().zip(&res_p) {
            bit_identical &= rl.status == rp.status
                && rl.iterations == rp.iterations
                && rl.final_relative_residual.to_bits() == rp.final_relative_residual.to_bits();
        }
        assert!(bit_identical, "pipelined must be bit-identical (k={k})");
        assert_eq!(
            rep_l.total_seconds.to_bits(),
            rep_p.total_seconds.to_bits(),
            "serial accounting must not change (k={k})"
        );
        if k >= 2 {
            assert!(
                rep_p.overlap_ratio() < rep_l.overlap_ratio(),
                "pipelined overlap must beat lockstep at k={k}: {} !< {}",
                rep_p.overlap_ratio(),
                rep_l.overlap_ratio()
            );
        }
        println!(
            "  k={k}: lockstep ratio {:.4}, pipelined ratio {:.4} \
             (critical {:.4}s -> {:.4}s, hidden host {:.6}s)",
            rep_l.overlap_ratio(),
            rep_p.overlap_ratio(),
            rep_l.critical_path_seconds,
            rep_p.critical_path_seconds,
            hid_p,
        );
        records.push(PipelineRecord {
            k,
            ratio_improvement: rep_l.overlap_ratio() - rep_p.overlap_ratio(),
            lockstep: record(&rep_l, hid_l),
            pipelined: record(&rep_p, hid_p),
            bit_identical,
        });
    }

    let last = records.last().expect("k=4 record");
    let gate = GateRecord {
        gate_k: last.k,
        lockstep_overlap_ratio: last.lockstep.overlap_ratio,
        pipelined_overlap_ratio: last.pipelined.overlap_ratio,
        hidden_host_seconds: last.pipelined.hidden_host_seconds,
        gate_bit_identical: last.bit_identical,
    };
    let artifact = PipelineArtifact { records, gate };
    let dir = output::results_dir(None);
    match output::write_json(&dir, "pipeline", &artifact) {
        Ok(path) => println!("  wrote {}", path.display()),
        Err(e) => println!("  could not write results JSON: {e}"),
    }
}

criterion_group!(pipeline_group, summary);
criterion_main!(pipeline_group);
