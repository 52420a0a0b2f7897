//! Per-kernel cost functions: simulated seconds for each operation.
//!
//! All device kernels follow `launch + bytes / (dram_bw * efficiency)`
//! with class- and precision-specific efficiencies; Norm/Dot/GEMV-T add
//! the Belos host synchronization. Calibration targets (paper Table I,
//! BentPipe2D1500, m = 50) are asserted in this module's tests.

use mpgmres_scalar::Precision;

use crate::analytic;
use crate::device::DeviceModel;

/// Time for `y = A x` (CSR SpMV) in precision `p`.
///
/// `bandwidth_rows` is the matrix's structural bandwidth (from
/// `mpgmres_la::stats::MatrixStats`), which drives the x-reuse rule.
pub fn spmv_time(
    dev: &DeviceModel,
    n: usize,
    nnz: usize,
    bandwidth_rows: usize,
    p: Precision,
) -> f64 {
    let bytes = analytic::spmv_traffic_bytes(dev, n, nnz, bandwidth_rows, p) as f64;
    dev.launch_overhead + bytes / (dev.dram_bw * dev.eff_spmv.get(p))
}

/// Time for the batched SpMM `Y = A X` over `k` right-hand sides: the
/// matrix (values, indices, row pointers, and the bandwidth-dependent
/// share of the first input vector) is streamed **once** per block, and
/// each of the `k - 1` additional columns only adds its own input read
/// and output write. This is the multi-RHS amortization the batched
/// backend exists for.
///
/// At `k = 1` the byte count — and therefore the simulated time — is
/// bit-identical to [`spmv_time`], which is what lets a width-1 block
/// solve reproduce a single-RHS solve's timing report exactly.
pub fn spmm_time(
    dev: &DeviceModel,
    n: usize,
    nnz: usize,
    bandwidth_rows: usize,
    k: usize,
    p: Precision,
) -> f64 {
    assert!(k >= 1, "spmm_time: block width must be >= 1");
    let bytes = (analytic::spmv_traffic_bytes(dev, n, nnz, bandwidth_rows, p)
        + (k - 1) * 2 * n * p.bytes()) as f64;
    dev.launch_overhead + bytes / (dev.dram_bw * dev.eff_spmv.get(p))
}

/// Time for the fused residual `r = b - A x` (one SpMV plus streaming b).
pub fn residual_time(
    dev: &DeviceModel,
    n: usize,
    nnz: usize,
    bandwidth_rows: usize,
    p: Precision,
) -> f64 {
    let bytes =
        (analytic::spmv_traffic_bytes(dev, n, nnz, bandwidth_rows, p) + n * p.bytes()) as f64;
    dev.launch_overhead + bytes / (dev.dram_bw * dev.eff_spmv.get(p))
}

/// Time for a storage-path `y = A x` where matrix values live in a
/// (possibly mixed) low-precision store while vectors stay in `work_p`.
///
/// `value_bytes` is the store's actual value-stream width
/// (`MatrixStore::value_bytes()`) and `value_p` its dominant value
/// precision ([`mpgmres_scalar::PrecisionTag::dominant`]), which selects
/// the SpMV efficiency row — the kernel's achievable bandwidth tracks
/// the precision it reads values in. When the store is uniform at
/// `work_p` this is bit-identical to [`spmv_time`].
pub fn store_spmv_time(
    dev: &DeviceModel,
    n: usize,
    nnz: usize,
    value_bytes: usize,
    bandwidth_rows: usize,
    value_p: Precision,
    work_p: Precision,
) -> f64 {
    let bytes =
        analytic::store_spmv_traffic_bytes(dev, n, nnz, value_bytes, bandwidth_rows, work_p) as f64;
    dev.launch_overhead + bytes / (dev.dram_bw * dev.eff_spmv.get(value_p))
}

/// Storage-path SpMM `Y = A X` over `k` right-hand sides: the store's
/// value stream is read once per block; each extra column adds one input
/// read and one output write in the working precision. Bit-identical to
/// [`store_spmv_time`] at `k = 1` and to [`spmm_time`] for a uniform
/// store at `work_p`.
#[allow(clippy::too_many_arguments)]
pub fn store_spmm_time(
    dev: &DeviceModel,
    n: usize,
    nnz: usize,
    value_bytes: usize,
    bandwidth_rows: usize,
    k: usize,
    value_p: Precision,
    work_p: Precision,
) -> f64 {
    assert!(k >= 1, "store_spmm_time: block width must be >= 1");
    let bytes =
        (analytic::store_spmv_traffic_bytes(dev, n, nnz, value_bytes, bandwidth_rows, work_p)
            + (k - 1) * 2 * n * work_p.bytes()) as f64;
    dev.launch_overhead + bytes / (dev.dram_bw * dev.eff_spmv.get(value_p))
}

/// Storage-path fused residual `r = b - A x` (one store-SpMV plus
/// streaming `b` in the working precision). Bit-identical to
/// [`residual_time`] for a uniform store at `work_p`.
pub fn store_residual_time(
    dev: &DeviceModel,
    n: usize,
    nnz: usize,
    value_bytes: usize,
    bandwidth_rows: usize,
    value_p: Precision,
    work_p: Precision,
) -> f64 {
    let bytes =
        (analytic::store_spmv_traffic_bytes(dev, n, nnz, value_bytes, bandwidth_rows, work_p)
            + n * work_p.bytes()) as f64;
    dev.launch_overhead + bytes / (dev.dram_bw * dev.eff_spmv.get(value_p))
}

/// Time for `h = V_j^T w`: reads `ncols` basis columns plus `w`, returns
/// `ncols` scalars to the host (Belos keeps the projection coefficients in
/// a host-side dense matrix, §IV).
pub fn gemv_t_time(dev: &DeviceModel, n: usize, ncols: usize, p: Precision) -> f64 {
    let bytes = ((ncols + 1) * n * p.bytes()) as f64;
    dev.launch_overhead + dev.host_sync / 2.0 + bytes / (dev.dram_bw * dev.eff_gemv_t.get(p))
}

/// Time for `w -= V_j h` (or `x += V_j y`): reads `ncols` columns and `w`,
/// writes `w`.
pub fn gemv_n_time(dev: &DeviceModel, n: usize, ncols: usize, p: Precision) -> f64 {
    let bytes = ((ncols + 2) * n * p.bytes()) as f64;
    dev.launch_overhead + bytes / (dev.dram_bw * dev.eff_gemv_n.get(p))
}

/// Time for `h = V_j^T w` over a basis stored at `elem_bytes` per
/// element: the narrow columns stream once, `w` streams in the working
/// precision, arithmetic (and the efficiency point) stays at `work_p`.
/// Bit-identical to [`gemv_t_time`] when `elem_bytes ==
/// work_p.bytes()` (pinned by a test below).
pub fn basis_gemv_t_time(
    dev: &DeviceModel,
    n: usize,
    ncols: usize,
    elem_bytes: usize,
    work_p: Precision,
) -> f64 {
    let bytes = analytic::basis_gemv_traffic_bytes(n, ncols, elem_bytes, 1, work_p) as f64;
    dev.launch_overhead + dev.host_sync / 2.0 + bytes / (dev.dram_bw * dev.eff_gemv_t.get(work_p))
}

/// Time for `w -= V_j h` (or `x += V_j y`) over a stored basis (read
/// narrow columns, read + write `w`). Bit-identical to [`gemv_n_time`]
/// at native width.
pub fn basis_gemv_n_time(
    dev: &DeviceModel,
    n: usize,
    ncols: usize,
    elem_bytes: usize,
    work_p: Precision,
) -> f64 {
    let bytes = analytic::basis_gemv_traffic_bytes(n, ncols, elem_bytes, 2, work_p) as f64;
    dev.launch_overhead + bytes / (dev.dram_bw * dev.eff_gemv_n.get(work_p))
}

/// Batched GEMV-Trans over `k` stored bases (one per right-hand side):
/// `k` times the single-basis traffic, one launch + sync. Bit-identical
/// to [`gemm_t_time`] at native width.
pub fn basis_gemm_t_time(
    dev: &DeviceModel,
    n: usize,
    ncols: usize,
    k: usize,
    elem_bytes: usize,
    work_p: Precision,
) -> f64 {
    let bytes = (k * analytic::basis_gemv_traffic_bytes(n, ncols, elem_bytes, 1, work_p)) as f64;
    dev.launch_overhead + dev.host_sync / 2.0 + bytes / (dev.dram_bw * dev.eff_gemv_t.get(work_p))
}

/// Batched GEMV-NoTrans over `k` stored bases. Bit-identical to
/// [`gemm_n_time`] at native width.
pub fn basis_gemm_n_time(
    dev: &DeviceModel,
    n: usize,
    ncols: usize,
    k: usize,
    elem_bytes: usize,
    work_p: Precision,
) -> f64 {
    let bytes = (k * analytic::basis_gemv_traffic_bytes(n, ncols, elem_bytes, 2, work_p)) as f64;
    dev.launch_overhead + bytes / (dev.dram_bw * dev.eff_gemv_n.get(work_p))
}

/// Time for `k` fused basis extensions `col = alpha * src`: read the
/// working-precision sources, write the stored columns at `elem_bytes`
/// per element (the demotion is fused into the store). Bit-identical to
/// [`block_scal_time`] at native width.
pub fn basis_scal_copy_time(
    dev: &DeviceModel,
    n: usize,
    k: usize,
    elem_bytes: usize,
    work_p: Precision,
) -> f64 {
    let bytes = (k * n * (work_p.bytes() + elem_bytes)) as f64;
    dev.launch_overhead + bytes / (dev.dram_bw * dev.eff_vec.get(work_p))
}

/// Time for the batched GEMV-Trans (a tall-skinny GEMM): `k` independent
/// `h_c = V_c^T w_c` projections fused into one launch with one host
/// synchronization. Each right-hand side keeps its own Krylov basis, so
/// the byte traffic is `k` times the single-vector projection; the
/// amortization is in the launch and sync overheads. Bit-identical to
/// [`gemv_t_time`] at `k = 1`.
pub fn gemm_t_time(dev: &DeviceModel, n: usize, ncols: usize, k: usize, p: Precision) -> f64 {
    let bytes = (k * (ncols + 1) * n * p.bytes()) as f64;
    dev.launch_overhead + dev.host_sync / 2.0 + bytes / (dev.dram_bw * dev.eff_gemv_t.get(p))
}

/// Time for the batched GEMV-NoTrans (GEMM shape): `k` fused
/// `w_c -= V_c h_c` updates in one launch. Bit-identical to
/// [`gemv_n_time`] at `k = 1`.
pub fn gemm_n_time(dev: &DeviceModel, n: usize, ncols: usize, k: usize, p: Precision) -> f64 {
    let bytes = (k * (ncols + 2) * n * p.bytes()) as f64;
    dev.launch_overhead + bytes / (dev.dram_bw * dev.eff_gemv_n.get(p))
}

/// Time for `k` fused column norms: one launch, one host sync, `k`
/// vector streams. Bit-identical to [`norm_time`] at `k = 1`.
pub fn block_norm_time(dev: &DeviceModel, n: usize, k: usize, p: Precision) -> f64 {
    let bytes = (k * n * p.bytes()) as f64;
    dev.launch_overhead + dev.host_sync + bytes / (dev.dram_bw * dev.eff_vec.get(p))
}

/// Time for `k` fused column dot products (see [`block_norm_time`]).
pub fn block_dot_time(dev: &DeviceModel, n: usize, k: usize, p: Precision) -> f64 {
    let bytes = (2 * k * n * p.bytes()) as f64;
    dev.launch_overhead + dev.host_sync + bytes / (dev.dram_bw * dev.eff_vec.get(p))
}

/// Time for `k` fused column axpys. Bit-identical to [`axpy_time`] at
/// `k = 1`.
pub fn block_axpy_time(dev: &DeviceModel, n: usize, k: usize, p: Precision) -> f64 {
    let bytes = (3 * k * n * p.bytes()) as f64;
    dev.launch_overhead + bytes / (dev.dram_bw * dev.eff_vec.get(p))
}

/// Time for `k` fused column scalings. Bit-identical to [`scal_time`]
/// at `k = 1`.
pub fn block_scal_time(dev: &DeviceModel, n: usize, k: usize, p: Precision) -> f64 {
    let bytes = (2 * k * n * p.bytes()) as f64;
    dev.launch_overhead + bytes / (dev.dram_bw * dev.eff_vec.get(p))
}

/// Time for a 2-norm: streams the vector, then synchronizes the scalar
/// result back to the host.
pub fn norm_time(dev: &DeviceModel, n: usize, p: Precision) -> f64 {
    let bytes = (n * p.bytes()) as f64;
    dev.launch_overhead + dev.host_sync + bytes / (dev.dram_bw * dev.eff_vec.get(p))
}

/// Time for a dot product (two streams + host sync).
pub fn dot_time(dev: &DeviceModel, n: usize, p: Precision) -> f64 {
    let bytes = (2 * n * p.bytes()) as f64;
    dev.launch_overhead + dev.host_sync + bytes / (dev.dram_bw * dev.eff_vec.get(p))
}

/// Time for `y += alpha x` (read x, read+write y).
pub fn axpy_time(dev: &DeviceModel, n: usize, p: Precision) -> f64 {
    let bytes = (3 * n * p.bytes()) as f64;
    dev.launch_overhead + bytes / (dev.dram_bw * dev.eff_vec.get(p))
}

/// Time for `x *= alpha` (read + write).
pub fn scal_time(dev: &DeviceModel, n: usize, p: Precision) -> f64 {
    let bytes = (2 * n * p.bytes()) as f64;
    dev.launch_overhead + bytes / (dev.dram_bw * dev.eff_vec.get(p))
}

/// Device-resident precision conversion: read `from`, write `to`.
pub fn cast_device_time(dev: &DeviceModel, n: usize, from: Precision, to: Precision) -> f64 {
    let bytes = (n * (from.bytes() + to.bytes())) as f64;
    dev.launch_overhead + bytes / (dev.dram_bw * dev.eff_vec.get(to))
}

/// Host-mediated conversion (GMRES-IR refinement stage, §IV): the vector
/// crosses PCIe down and back up plus a sync each way.
pub fn cast_host_time(dev: &DeviceModel, n: usize, from: Precision, to: Precision) -> f64 {
    let bytes = (n * (from.bytes() + to.bytes())) as f64;
    2.0 * dev.host_sync + bytes / dev.pcie_bw
}

/// Host-side dense flops (least-squares solve, Givens updates).
pub fn host_dense_time(dev: &DeviceModel, flops: usize) -> f64 {
    dev.host_flop * flops as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BentPipe2D1500 at paper scale.
    const N: usize = 2_250_000;
    const NNZ: usize = 11_244_000;
    const BW: usize = 1500;

    fn v100() -> DeviceModel {
        DeviceModel::v100_belos()
    }

    /// Table I implies these per-call times; assert the model matches
    /// within 10%:
    ///   SpMV fp64 ~ 565 us   (7.33 s / 12967 calls)
    ///   SpMV fp32 ~ 224 us   (2.95 s / 13150 calls)
    ///   GEMV-T fp64 ~ 779 us (20.20 s / 25934 calls), fp32 ~ 600 us
    ///   GEMV-N fp64 ~ 733 us (19.01 s / 25934), fp32 ~ 460 us
    ///   Norm fp64 ~ 133 us   (1.72 s / 12967), fp32 ~ 113 us
    #[test]
    fn per_call_times_match_table1() {
        let d = v100();
        let close = |model: f64, target_us: f64, tol: f64| {
            let t = target_us * 1e-6;
            assert!(
                (model - t).abs() <= tol * t,
                "model {:.1} us vs Table I {:.1} us",
                model * 1e6,
                target_us
            );
        };
        close(spmv_time(&d, N, NNZ, BW, Precision::Fp64), 565.0, 0.10);
        close(spmv_time(&d, N, NNZ, BW, Precision::Fp32), 224.0, 0.10);
        // Average CGS2 projection width for m=50 is ~25.5 columns.
        close(gemv_t_time(&d, N, 26, Precision::Fp64), 779.0, 0.10);
        close(gemv_t_time(&d, N, 26, Precision::Fp32), 600.0, 0.10);
        close(gemv_n_time(&d, N, 26, Precision::Fp64), 733.0, 0.10);
        close(gemv_n_time(&d, N, 26, Precision::Fp32), 460.0, 0.10);
        close(norm_time(&d, N, Precision::Fp64), 133.0, 0.10);
        close(norm_time(&d, N, Precision::Fp32), 113.0, 0.10);
    }

    /// The kernel speedups of Table I, as bands.
    #[test]
    fn kernel_speedups_match_table1_bands() {
        let d = v100();
        let ratio = |f: &dyn Fn(Precision) -> f64| f(Precision::Fp64) / f(Precision::Fp32);

        let spmv = ratio(&|p| spmv_time(&d, N, NNZ, BW, p));
        assert!(
            (2.3..=2.7).contains(&spmv),
            "SpMV speedup {spmv} vs paper 2.48"
        );

        let gt = ratio(&|p| gemv_t_time(&d, N, 26, p));
        assert!(
            (1.18..=1.40).contains(&gt),
            "GEMV-T speedup {gt} vs paper 1.28"
        );

        let gn = ratio(&|p| gemv_n_time(&d, N, 26, p));
        assert!(
            (1.45..=1.70).contains(&gn),
            "GEMV-N speedup {gn} vs paper 1.57"
        );

        let nm = ratio(&|p| norm_time(&d, N, p));
        assert!(
            (1.08..=1.25).contains(&nm),
            "Norm speedup {nm} vs paper 1.15"
        );
    }

    #[test]
    fn no_reuse_kills_spmv_speedup() {
        // A scattered matrix (bandwidth ~ n) gets fp32/fp64 ~ traffic ratio
        // only (~1.5x), the paper's caveat for non-banded matrices.
        let d = v100();
        let s64 = spmv_time(&d, N, NNZ, N - 1, Precision::Fp64);
        let s32 = spmv_time(&d, N, NNZ, N - 1, Precision::Fp32);
        let r = s64 / s32;
        assert!((1.5..=2.1).contains(&r), "scattered speedup {r}");
        let banded =
            spmv_time(&d, N, NNZ, BW, Precision::Fp64) / spmv_time(&d, N, NNZ, BW, Precision::Fp32);
        assert!(
            r < banded - 0.3,
            "reuse must contribute materially: {r} vs {banded}"
        );
    }

    #[test]
    fn overheads_dominate_tiny_kernels() {
        let d = v100();
        // A 100-element norm is pure latency: ~launch + sync.
        let t = norm_time(&d, 100, Precision::Fp64);
        assert!(t > 100.0e-6 && t < 125.0e-6);
        // So fp32 buys nothing at tiny sizes.
        let r = norm_time(&d, 100, Precision::Fp64) / norm_time(&d, 100, Precision::Fp32);
        assert!(r < 1.01);
    }

    #[test]
    fn ideal_device_is_pure_traffic() {
        let d = DeviceModel::ideal();
        let t = axpy_time(&d, 1_000_000, Precision::Fp64);
        assert!((t - 3.0 * 8.0e6 / 900.0e9).abs() < 1e-12);
        let c = cast_host_time(&d, 1_000_000, Precision::Fp64, Precision::Fp32);
        assert_eq!(c, 0.0); // infinite PCIe, no sync
    }

    #[test]
    fn cast_host_much_slower_than_device() {
        let d = v100();
        let n = 2_250_000;
        let dev = cast_device_time(&d, n, Precision::Fp64, Precision::Fp32);
        let host = cast_host_time(&d, n, Precision::Fp64, Precision::Fp32);
        assert!(host > 10.0 * dev, "host {host} vs device {dev}");
    }

    /// The multi-RHS contract: every block cost at k = 1 is bit-for-bit
    /// the single-vector cost (this is what makes a width-1 block solve
    /// reproduce the single-RHS timing report exactly).
    #[test]
    fn block_costs_bit_identical_at_k1() {
        let d = v100();
        for p in [Precision::Fp64, Precision::Fp32, Precision::Fp16] {
            assert_eq!(
                spmm_time(&d, N, NNZ, BW, 1, p).to_bits(),
                spmv_time(&d, N, NNZ, BW, p).to_bits()
            );
            assert_eq!(
                gemm_t_time(&d, N, 26, 1, p).to_bits(),
                gemv_t_time(&d, N, 26, p).to_bits()
            );
            assert_eq!(
                gemm_n_time(&d, N, 26, 1, p).to_bits(),
                gemv_n_time(&d, N, 26, p).to_bits()
            );
            assert_eq!(
                block_norm_time(&d, N, 1, p).to_bits(),
                norm_time(&d, N, p).to_bits()
            );
            assert_eq!(
                block_dot_time(&d, N, 1, p).to_bits(),
                dot_time(&d, N, p).to_bits()
            );
            assert_eq!(
                block_axpy_time(&d, N, 1, p).to_bits(),
                axpy_time(&d, N, p).to_bits()
            );
            assert_eq!(
                block_scal_time(&d, N, 1, p).to_bits(),
                scal_time(&d, N, p).to_bits()
            );
        }
    }

    /// A native-width basis must cost bit-for-bit what the plain GEMV
    /// kernels cost — the basis storage path is free when nothing is
    /// demoted (the twin of `store_costs_reduce_to_uniform_exactly`).
    #[test]
    fn basis_costs_reduce_to_native_exactly() {
        let d = v100();
        for p in [Precision::Fp16, Precision::Fp32, Precision::Fp64] {
            let e = p.bytes();
            assert_eq!(
                basis_gemv_t_time(&d, N, 26, e, p).to_bits(),
                gemv_t_time(&d, N, 26, p).to_bits()
            );
            assert_eq!(
                basis_gemv_n_time(&d, N, 26, e, p).to_bits(),
                gemv_n_time(&d, N, 26, p).to_bits()
            );
            for k in [1usize, 2, 4] {
                assert_eq!(
                    basis_gemm_t_time(&d, N, 26, k, e, p).to_bits(),
                    gemm_t_time(&d, N, 26, k, p).to_bits()
                );
                assert_eq!(
                    basis_gemm_n_time(&d, N, 26, k, e, p).to_bits(),
                    gemm_n_time(&d, N, 26, k, p).to_bits()
                );
                assert_eq!(
                    basis_scal_copy_time(&d, N, k, e, p).to_bits(),
                    block_scal_time(&d, N, k, p).to_bits()
                );
            }
        }
        // And the compressed path is strictly cheaper, monotone in width.
        let full = basis_gemv_t_time(&d, N, 26, 8, Precision::Fp64);
        let f32t = basis_gemv_t_time(&d, N, 26, 4, Precision::Fp64);
        let f16t = basis_gemv_t_time(&d, N, 26, 2, Precision::Fp64);
        assert!(f16t < f32t && f32t < full);
    }

    /// SpMM amortizes the matrix read: per-RHS time at k = 4 must be
    /// well under the k = 1 SpMV time on the paper's BentPipe shape
    /// (matrix traffic dominates, extra columns only stream vectors).
    #[test]
    fn spmm_amortizes_matrix_traffic() {
        let d = v100();
        for p in [Precision::Fp64, Precision::Fp32] {
            let single = spmv_time(&d, N, NNZ, BW, p);
            let per_rhs4 = spmm_time(&d, N, NNZ, BW, 4, p) / 4.0;
            assert!(
                per_rhs4 < 0.6 * single,
                "{p:?}: per-RHS SpMM {per_rhs4:.3e} vs SpMV {single:.3e}"
            );
            // More RHS amortize more, monotonically.
            let per_rhs8 = spmm_time(&d, N, NNZ, BW, 8, p) / 8.0;
            assert!(per_rhs8 < per_rhs4);
        }
        // Batched GEMM/norms amortize launch+sync only (each RHS has its
        // own basis), so per-RHS time still drops, slightly.
        let g1 = gemm_t_time(&d, N, 26, 1, Precision::Fp64);
        let g4 = gemm_t_time(&d, N, 26, 4, Precision::Fp64) / 4.0;
        assert!(g4 < g1);
        let n1 = block_norm_time(&d, N, 1, Precision::Fp64);
        let n4 = block_norm_time(&d, N, 4, Precision::Fp64) / 4.0;
        assert!(n4 < n1);
    }

    /// A uniform store must cost bit-for-bit what the plain kernels
    /// cost — the storage path is free when nothing is demoted.
    #[test]
    fn store_costs_reduce_to_uniform_exactly() {
        let d = v100();
        for p in [Precision::Fp16, Precision::Fp32, Precision::Fp64] {
            let vb = NNZ * p.bytes();
            assert_eq!(
                store_spmv_time(&d, N, NNZ, vb, BW, p, p).to_bits(),
                spmv_time(&d, N, NNZ, BW, p).to_bits()
            );
            for k in [1usize, 2, 4] {
                assert_eq!(
                    store_spmm_time(&d, N, NNZ, vb, BW, k, p, p).to_bits(),
                    spmm_time(&d, N, NNZ, BW, k, p).to_bits()
                );
            }
            assert_eq!(
                store_residual_time(&d, N, NNZ, vb, BW, p, p).to_bits(),
                residual_time(&d, N, NNZ, BW, p).to_bits()
            );
        }
        // And k = 1 SpMM is the SpMV, as for the plain block costs.
        let vb32 = NNZ * 4;
        assert_eq!(
            store_spmm_time(&d, N, NNZ, vb32, BW, 1, Precision::Fp32, Precision::Fp64).to_bits(),
            store_spmv_time(&d, N, NNZ, vb32, BW, Precision::Fp32, Precision::Fp64).to_bits()
        );
    }

    /// The tentpole bandwidth gate: on the 5-point Laplacian shape, an
    /// fp32 value store under fp64 working vectors must report < 0.55x
    /// the bytes (and, at equal efficiency, the time) of the full fp64
    /// SpMM at k = 1. This is the ratio `perfgate` pins from the bench
    /// artifact; keep the two in sync.
    #[test]
    fn fp32_store_spmm_bytes_under_055_of_fp64_at_k1() {
        let d = v100();
        let (n, bw) = (250_000usize, 500usize);
        let nnz = 5 * n;
        let full = analytic::store_spmv_traffic_bytes(&d, n, nnz, nnz * 8, bw, Precision::Fp64);
        let shadow = analytic::store_spmv_traffic_bytes(&d, n, nnz, nnz * 4, bw, Precision::Fp64);
        let ratio = shadow as f64 / full as f64;
        assert!(ratio < 0.55, "k=1 byte ratio {ratio:.3}");
        // The fp32 efficiency row is >= the fp64 one on the V100 model,
        // so the simulated-time ratio is at least as good.
        let t_ratio = store_spmm_time(&d, n, nnz, nnz * 4, bw, 1, Precision::Fp32, Precision::Fp64)
            / store_spmm_time(&d, n, nnz, nnz * 8, bw, 1, Precision::Fp64, Precision::Fp64);
        assert!(t_ratio < 0.55, "k=1 time ratio {t_ratio:.3}");
        // Wider blocks amortize the matrix stream, so the *advantage*
        // narrows with k (the fp64 working-precision vector traffic is
        // shared); document the trajectory rather than gating it.
        let ratio_at = |k: usize| {
            store_spmm_time(&d, n, nnz, nnz * 4, bw, k, Precision::Fp32, Precision::Fp64)
                / store_spmm_time(&d, n, nnz, nnz * 8, bw, k, Precision::Fp64, Precision::Fp64)
        };
        assert!(ratio_at(2) > ratio_at(1) && ratio_at(4) > ratio_at(2));
        assert!(ratio_at(4) < 0.75, "even k=4 keeps a material win");
    }

    #[test]
    fn times_scale_linearly_in_n() {
        let d = DeviceModel::ideal();
        let t1 = norm_time(&d, 1 << 20, Precision::Fp32);
        let t2 = norm_time(&d, 1 << 21, Precision::Fp32);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}
