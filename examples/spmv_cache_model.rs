//! The §V-D story, hands-on: why does fp32 SpMV run ~2.5x faster than
//! fp64 on a V100 when the naive expectation is 1.5x?
//!
//! ```text
//! cargo run --release --example spmv_cache_model
//! ```
//!
//! Walks the three layers of the model: the paper's closed-form bound,
//! our priced traffic model, and an LRU cache simulation of the actual
//! CSR access stream under concurrent streaming pressure.

use multiprec_gmres::gpusim::analytic;
use multiprec_gmres::gpusim::cache::simulate_spmv_cache;
use multiprec_gmres::gpusim::cost::{matrix_op, MatrixOperand};
use multiprec_gmres::matgen::galeri;
use multiprec_gmres::prelude::*;

/// Priced time of one uniform SpMV.
fn spmv_seconds(dev: &DeviceModel, n: usize, nnz: usize, bw: usize, p: Precision) -> f64 {
    matrix_op(dev, &MatrixOperand::uniform(n, nnz, bw, p), 1, false).0
}

fn main() {
    let dev = DeviceModel::v100_belos();

    println!("paper bound 5w/(2w+1) by nonzeros-per-row:");
    for w in [2, 5, 7, 9, 27] {
        println!(
            "  w = {w:>2}: {:.3}x",
            analytic::paper_speedup_bound(w as f64)
        );
    }

    println!("\npriced model on the paper's matrices (banded -> fp32 x-reuse):");
    for (name, n, nnz, bw) in [
        ("BentPipe2D1500", 2_250_000usize, 11_244_000usize, 1500usize),
        ("Laplace3D150", 3_375_000, 23_490_000, 22_500),
        ("UniFlow2D2500", 6_250_000, 31_240_000, 2_500),
    ] {
        let t64 = spmv_seconds(&dev, n, nnz, bw, Precision::Fp64);
        let t32 = spmv_seconds(&dev, n, nnz, bw, Precision::Fp32);
        println!(
            "  {name:<16} fp64 {:>7.1} us  fp32 {:>7.1} us  speedup {:.2}x",
            t64 * 1e6,
            t32 * 1e6,
            t64 / t32
        );
    }

    // A scattered matrix loses the reuse and the advantage shrinks.
    let (n, nnz) = (2_250_000usize, 11_244_000usize);
    let t64 = spmv_seconds(&dev, n, nnz, n - 1, Precision::Fp64);
    let t32 = spmv_seconds(&dev, n, nnz, n - 1, Precision::Fp32);
    println!(
        "  {:<16} fp64 {:>7.1} us  fp32 {:>7.1} us  speedup {:.2}x  <- paper's caveat",
        "scattered",
        t64 * 1e6,
        t32 * 1e6,
        t64 / t32
    );

    println!("\nmechanism probe: LRU cache sim, x-vector hit rates vs streaming pressure");
    println!("(each 'lane' is a concurrently sweeping warp sharing the same L2)");
    let a64 = galeri::laplace2d(64, 64);
    let a32 = a64.convert::<f32>();
    let mut sim_dev = dev.clone();
    sim_dev.l2_capacity = 96 << 10; // sized to the reduced matrix
    sim_dev.l2_effective_fraction = 1.0;
    println!("  {:>6} {:>12} {:>12}", "lanes", "x-hit fp64", "x-hit fp32");
    for lanes in [1usize, 8, 32, 128, 512] {
        let h64 = simulate_spmv_cache(&a64, &sim_dev, Precision::Fp64, lanes);
        let h32 = simulate_spmv_cache(&a32, &sim_dev, Precision::Fp32, lanes);
        println!(
            "  {:>6} {:>12.3} {:>12.3}",
            lanes, h64.x_hit_rate, h32.x_hit_rate
        );
    }
    println!(
        "\nfp32 halves every stream, so under the same pressure its x lines\n\
         survive where fp64's are evicted — the origin of the >2x SpMV win."
    );
}
