//! The cost model: one function per kernel shape, each returning the
//! simulated seconds **and** the modeled DRAM bytes of one call.
//!
//! Every device kernel is priced as `launch + bytes / (dram_bw * eff)`
//! with class- and precision-specific efficiencies; Norm/Dot pay the
//! Belos host synchronization and GEMV-T half of it. Each function
//! counts its bytes once and prices exactly those bytes, so the charged
//! time and the reported traffic cannot drift apart. Block shapes take
//! their width `k` (one launch over `k` columns), and the storage-width
//! parameters take the working width for a native operand, so a single
//! right-hand side, a lane block, a demoted matrix store and a
//! compressed basis all price through the same function. Calibration
//! targets (paper Table I, BentPipe2D1500, m = 50) are asserted in this
//! module's tests.

use mpgmres_scalar::Precision;

use crate::analytic;
use crate::device::DeviceModel;
use crate::kernel::KernelClass;

/// Bytes of a CSR column index or row pointer (the paper keeps the
/// integer type at 4 bytes in every precision).
const IDX_BYTES: usize = 4;

/// A sparse operator as the matrix kernels stream it: a CSR structure
/// whose value stream is `value_bytes` wide, applied to vectors in the
/// working precision `work_p`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatrixOperand {
    /// Rows (square systems).
    pub n: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// Bytes of the value stream as stored: `nnz * p.bytes()` for a
    /// uniform matrix, less for a demoted (fp32/fp16) or split store.
    pub value_bytes: usize,
    /// Structural bandwidth in rows (drives the x-reuse rule).
    pub bandwidth: usize,
    /// Dominant value precision: selects the SpMV efficiency row (the
    /// kernel's achievable bandwidth tracks the width it reads values
    /// in).
    pub value_p: Precision,
    /// Precision of the vectors and the arithmetic.
    pub work_p: Precision,
}

impl MatrixOperand {
    /// A matrix stored uniformly in its working precision `p`.
    pub fn uniform(n: usize, nnz: usize, bandwidth: usize, p: Precision) -> Self {
        MatrixOperand {
            n,
            nnz,
            value_bytes: nnz * p.bytes(),
            bandwidth,
            value_p: p,
            work_p: p,
        }
    }
}

/// Direction of a basis GEMV.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gemv {
    /// `h = V^T w`: one working-precision vector stream; the
    /// coefficients return to the host (Belos keeps them in a host-side
    /// dense matrix, §IV), which costs half a host sync.
    T,
    /// `w -= V h` (or `x += V y`): read and write `w`.
    N,
}

/// Host-side work of the solver loop (the paper's `Other` category).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostWork {
    /// Arbitrary dense flops (polynomial setup eigensolve).
    Flops(usize),
    /// One iteration's bookkeeping at Krylov column `j` (Givens
    /// rotations, status tests through the Belos interface).
    Iteration(usize),
    /// One restart's bookkeeping over `m` columns (least-squares
    /// back-solve, allocations, solver-manager overhead).
    Restart(usize),
}

/// `fixed + bytes / (dram_bw * eff)` seconds, with the bytes.
fn priced(dev: &DeviceModel, fixed: f64, bytes: usize, eff: f64) -> (f64, usize) {
    (fixed + bytes as f64 / (dev.dram_bw * eff), bytes)
}

/// One matrix op over `a` at block width `k`: the SpMV `y = A x`
/// (`k = 1`), the batched SpMM `Y = A X` (`k > 1`), and with `reads_b`
/// the fused residual `r = b - A x`.
///
/// The matrix (values, indices, row pointers, and `x`'s first-column
/// share) streams once per block; each of the `k - 1` further columns
/// adds one input read and one output write in the working precision,
/// which is the multi-RHS amortization, and `reads_b` adds one stream
/// of `b`. Per the paper's §V-D reuse observation, `x` is fetched from
/// DRAM once when the matrix is banded and the value stream is no wider
/// than the index stream (values at <= 4 bytes each on average), and
/// once per nonzero otherwise: shrinking the matrix stream leaves L2
/// room for `x`.
///
/// On a uniform matrix with a nonzero this is the paper's rule (fp32
/// and fp16 reuse `x`, fp64 does not). An all-zero banded matrix has
/// `value_bytes == 0` and so reuses `x` in every precision: a uniform
/// fp64 one is charged `n x 8` more bytes than "fp64 never reuses"
/// would give.
pub fn matrix_op(dev: &DeviceModel, a: &MatrixOperand, k: usize, reads_b: bool) -> (f64, usize) {
    assert!(k >= 1, "cost::matrix_op: block width must be >= 1");
    let w = a.work_p.bytes();
    let x_reads = if dev.is_banded(a.bandwidth, a.n) && a.value_bytes <= a.nnz * IDX_BYTES {
        a.n
    } else {
        a.nnz
    };
    let bytes = a.value_bytes
        + a.nnz * IDX_BYTES
        + (a.n + 1) * IDX_BYTES
        + a.n * w
        + x_reads * w
        + (k - 1) * 2 * a.n * w
        + usize::from(reads_b) * a.n * w;
    priced(dev, dev.launch_overhead, bytes, dev.eff_spmv.get(a.value_p))
}

/// `k` fused GEMVs over `ncols` columns of `k` bases (one per
/// right-hand side) stored at `elem_bytes` per element: `k` times the
/// single-basis traffic of [`analytic::basis_gemv_traffic_bytes`], one
/// launch (and for [`Gemv::T`] one half-sync). Arithmetic and the
/// efficiency point stay at `work_p`; pass `work_p.bytes()` for a
/// native basis.
pub fn basis_gemv(
    dev: &DeviceModel,
    n: usize,
    ncols: usize,
    k: usize,
    elem_bytes: usize,
    work_p: Precision,
    dir: Gemv,
) -> (f64, usize) {
    let (vec_streams, sync, eff) = match dir {
        Gemv::T => (1, dev.host_sync / 2.0, dev.eff_gemv_t.get(work_p)),
        Gemv::N => (2, 0.0, dev.eff_gemv_n.get(work_p)),
    };
    let bytes = k * analytic::basis_gemv_traffic_bytes(n, ncols, elem_bytes, vec_streams, work_p);
    priced(dev, dev.launch_overhead + sync, bytes, eff)
}

/// `k` fused 2-norms of length-`n` columns: one launch, one host sync
/// for the results, `k` vector streams.
pub fn norm(dev: &DeviceModel, n: usize, k: usize, p: Precision) -> (f64, usize) {
    let fixed = dev.launch_overhead + dev.host_sync;
    priced(dev, fixed, k * n * p.bytes(), dev.eff_vec.get(p))
}

/// `k` fused dot products (two streams each, one host sync).
pub fn dot(dev: &DeviceModel, n: usize, k: usize, p: Precision) -> (f64, usize) {
    let fixed = dev.launch_overhead + dev.host_sync;
    priced(dev, fixed, 2 * k * n * p.bytes(), dev.eff_vec.get(p))
}

/// `k` fused `y += alpha x` (read `x`, read and write `y`).
pub fn axpy(dev: &DeviceModel, n: usize, k: usize, p: Precision) -> (f64, usize) {
    priced(
        dev,
        dev.launch_overhead,
        3 * k * n * p.bytes(),
        dev.eff_vec.get(p),
    )
}

/// `k` fused scalings `dst = alpha * src`: read the working-precision
/// sources, write `elem_bytes` per element (`p.bytes()` for an in-place
/// `x *= alpha`, the storage width when the result lands in a
/// compressed basis column, the demotion fused into the store).
pub fn scal(
    dev: &DeviceModel,
    n: usize,
    k: usize,
    elem_bytes: usize,
    p: Precision,
) -> (f64, usize) {
    let bytes = k * n * (p.bytes() + elem_bytes);
    priced(dev, dev.launch_overhead, bytes, dev.eff_vec.get(p))
}

/// Block Jacobi's batched triangular solves: `n / bs` diagonal blocks
/// of `bs^2` factor entries (`n * bs` in all), plus reading `x` and
/// writing `y`, at the SpMV efficiency.
pub fn block_lu_solve(dev: &DeviceModel, n: usize, bs: usize, p: Precision) -> (f64, usize) {
    let bytes = n * bs * p.bytes() + 2 * n * p.bytes();
    priced(dev, dev.launch_overhead, bytes, dev.eff_spmv.get(p))
}

/// Precision conversion of `n` elements (read `from`, write `to`):
/// device-resident under [`KernelClass::CastDevice`]; host-mediated
/// under [`KernelClass::CastHost`] (the GMRES-IR refinement stage, §IV:
/// the vector crosses PCIe down and back up, plus a sync each way).
///
/// # Panics
/// On any other class.
pub fn cast(
    dev: &DeviceModel,
    class: KernelClass,
    n: usize,
    from: Precision,
    to: Precision,
) -> (f64, usize) {
    let bytes = n * (from.bytes() + to.bytes());
    match class {
        KernelClass::CastDevice => priced(dev, dev.launch_overhead, bytes, dev.eff_vec.get(to)),
        KernelClass::CastHost => (2.0 * dev.host_sync + bytes as f64 / dev.pcie_bw, bytes),
        other => panic!("cost::cast: {other:?} is not a cast class"),
    }
}

/// Simulated seconds of host-side work (it moves no device bytes):
/// dense flops at `host_flop` each, plus the fixed per-iteration or
/// per-restart overhead of the Belos stack.
pub fn host(dev: &DeviceModel, work: HostWork) -> f64 {
    let flops = |f: usize| dev.host_flop * f as f64;
    match work {
        HostWork::Flops(f) => flops(f),
        HostWork::Iteration(j) => dev.iter_overhead + flops(12 * (j + 1)),
        HostWork::Restart(m) => dev.restart_overhead + flops(m * m / 2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Precision::{Fp16, Fp32, Fp64};

    /// BentPipe2D1500 at paper scale.
    const N: usize = 2_250_000;
    const NNZ: usize = 11_244_000;
    const BW: usize = 1500;

    fn v100() -> DeviceModel {
        DeviceModel::v100_belos()
    }

    fn spmv(d: &DeviceModel, bw: usize, p: Precision) -> (f64, usize) {
        matrix_op(d, &MatrixOperand::uniform(N, NNZ, bw, p), 1, false)
    }

    fn gemv(d: &DeviceModel, dir: Gemv, p: Precision) -> f64 {
        basis_gemv(d, N, 26, 1, p.bytes(), p, dir).0
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
        close(spmv(&d, BW, Fp64).0, 565.0, 0.10);
        close(spmv(&d, BW, Fp32).0, 224.0, 0.10);
        // Average CGS2 projection width for m=50 is ~25.5 columns.
        close(gemv(&d, Gemv::T, Fp64), 779.0, 0.10);
        close(gemv(&d, Gemv::T, Fp32), 600.0, 0.10);
        close(gemv(&d, Gemv::N, Fp64), 733.0, 0.10);
        close(gemv(&d, Gemv::N, Fp32), 460.0, 0.10);
        close(norm(&d, N, 1, Fp64).0, 133.0, 0.10);
        close(norm(&d, N, 1, Fp32).0, 113.0, 0.10);
    }

    /// The kernel speedups of Table I, as bands.
    #[test]
    fn kernel_speedups_match_table1_bands() {
        let d = v100();
        let ratio = |f: &dyn Fn(Precision) -> f64| f(Fp64) / f(Fp32);

        let spmv = ratio(&|p| spmv(&d, BW, p).0);
        assert!(
            (2.3..=2.7).contains(&spmv),
            "SpMV speedup {spmv} vs paper 2.48"
        );

        let gt = ratio(&|p| gemv(&d, Gemv::T, p));
        assert!(
            (1.18..=1.40).contains(&gt),
            "GEMV-T speedup {gt} vs paper 1.28"
        );

        let gn = ratio(&|p| gemv(&d, Gemv::N, p));
        assert!(
            (1.45..=1.70).contains(&gn),
            "GEMV-N speedup {gn} vs paper 1.57"
        );

        let nm = ratio(&|p| norm(&d, N, 1, p).0);
        assert!(
            (1.08..=1.25).contains(&nm),
            "Norm speedup {nm} vs paper 1.15"
        );
    }

    /// The §V-D reuse rule on a uniform matrix: fp32 and fp16 fetch `x`
    /// once on a banded matrix, fp64 once per nonzero, and nothing
    /// reuses it on a scattered matrix.
    #[test]
    fn reuse_rule_splits_precisions_on_banded_matrices() {
        let d = v100();
        let x_bytes = |bw: usize, p: Precision| {
            let stream = NNZ * (p.bytes() + IDX_BYTES) + (N + 1) * IDX_BYTES + N * p.bytes();
            spmv(&d, bw, p).1 - stream
        };
        assert_eq!(x_bytes(BW, Fp32), N * 4);
        assert_eq!(x_bytes(BW, Fp16), N * 2);
        assert_eq!(x_bytes(BW, Fp64), NNZ * 8);
        assert_eq!(x_bytes(N - 1, Fp32), NNZ * 4);
    }

    #[test]
    fn no_reuse_kills_spmv_speedup() {
        // A scattered matrix (bandwidth ~ n) gets fp32/fp64 ~ traffic ratio
        // only (~1.5x), the paper's caveat for non-banded matrices.
        let d = v100();
        let r = spmv(&d, N - 1, Fp64).0 / spmv(&d, N - 1, Fp32).0;
        assert!((1.5..=2.1).contains(&r), "scattered speedup {r}");
        let banded = spmv(&d, BW, Fp64).0 / spmv(&d, BW, Fp32).0;
        assert!(
            r < banded - 0.3,
            "reuse must contribute materially: {r} vs {banded}"
        );
    }

    #[test]
    fn full_traffic_close_to_paper_form() {
        let d = v100();
        let t64 = spmv(&d, BW, Fp64).1;
        let t32 = spmv(&d, BW, Fp32).1;
        // Within 15% of the closed forms (rowptr + y stores add a little).
        let w = NNZ as f64 / N as f64;
        assert!((t64 as f64 / analytic::paper_fp64_traffic(N, w) - 1.0).abs() < 0.15);
        assert!((t32 as f64 / analytic::paper_fp32_traffic(N, w) - 1.0).abs() < 0.35);
        // Traffic ratio lands between 2.0 and 2.5.
        let ratio = t64 as f64 / t32 as f64;
        assert!(ratio > 2.0 && ratio < 2.5, "traffic ratio {ratio}");
    }

    #[test]
    fn overheads_dominate_tiny_kernels() {
        let d = v100();
        // A 100-element norm is pure latency: ~launch + sync.
        let t = norm(&d, 100, 1, Fp64).0;
        assert!(t > 100.0e-6 && t < 125.0e-6);
        // So fp32 buys nothing at tiny sizes.
        let r = norm(&d, 100, 1, Fp64).0 / norm(&d, 100, 1, Fp32).0;
        assert!(r < 1.01);
    }

    #[test]
    fn ideal_device_is_pure_traffic() {
        let d = DeviceModel::ideal();
        let t = axpy(&d, 1_000_000, 1, Fp64).0;
        assert!((t - 3.0 * 8.0e6 / 900.0e9).abs() < 1e-12);
        let c = cast(&d, KernelClass::CastHost, 1_000_000, Fp64, Fp32).0;
        assert_eq!(c, 0.0); // infinite PCIe, no sync
    }

    #[test]
    fn cast_host_much_slower_than_device() {
        let d = v100();
        let (dev, db) = cast(&d, KernelClass::CastDevice, N, Fp64, Fp32);
        let (host, hb) = cast(&d, KernelClass::CastHost, N, Fp64, Fp32);
        assert_eq!((db, hb), (N * 12, N * 12));
        assert!(host > 10.0 * dev, "host {host} vs device {dev}");
    }

    /// A compressed basis is strictly cheaper than the native one and
    /// monotone in its element width, in both directions.
    #[test]
    fn compressed_basis_cheaper_and_monotone_in_width() {
        let d = v100();
        for dir in [Gemv::T, Gemv::N] {
            let at = |e: usize| basis_gemv(&d, N, 26, 1, e, Fp64, dir);
            let (full, f32b, f16b) = (at(8), at(4), at(2));
            assert!(f16b.0 < f32b.0 && f32b.0 < full.0, "{dir:?}");
            assert!(f16b.1 < f32b.1 && f32b.1 < full.1, "{dir:?}");
        }
    }

    /// SpMM amortizes the matrix read: per-RHS time at k = 4 must be
    /// well under the k = 1 SpMV time on the paper's BentPipe shape
    /// (matrix traffic dominates, extra columns only stream vectors).
    #[test]
    fn spmm_amortizes_matrix_traffic() {
        let d = v100();
        for p in [Fp64, Fp32] {
            let a = MatrixOperand::uniform(N, NNZ, BW, p);
            let single = matrix_op(&d, &a, 1, false).0;
            let per_rhs4 = matrix_op(&d, &a, 4, false).0 / 4.0;
            assert!(
                per_rhs4 < 0.6 * single,
                "{p:?}: per-RHS SpMM {per_rhs4:.3e} vs SpMV {single:.3e}"
            );
            // More RHS amortize more, monotonically.
            let per_rhs8 = matrix_op(&d, &a, 8, false).0 / 8.0;
            assert!(per_rhs8 < per_rhs4);
        }
        // Batched GEMM/norms amortize launch+sync only (each RHS has its
        // own basis), so per-RHS time still drops, slightly.
        let g1 = basis_gemv(&d, N, 26, 1, 8, Fp64, Gemv::T).0;
        let g4 = basis_gemv(&d, N, 26, 4, 8, Fp64, Gemv::T).0 / 4.0;
        assert!(g4 < g1);
        let n1 = norm(&d, N, 1, Fp64).0;
        let n4 = norm(&d, N, 4, Fp64).0 / 4.0;
        assert!(n4 < n1);
    }

    /// The tentpole bandwidth gate: on the 5-point Laplacian shape, an
    /// fp32 value store under fp64 working vectors must report < 0.55x
    /// the bytes (and, at equal efficiency, the time) of the full fp64
    /// SpMM at k = 1, because the value stream halves and x-reuse kicks
    /// in. This is the ratio `perfgate` pins from the bench artifact;
    /// keep the two in sync.
    #[test]
    fn fp32_store_spmm_bytes_under_055_of_fp64_at_k1() {
        let d = v100();
        let (n, bw) = (250_000usize, 500usize);
        let nnz = 5 * n;
        let store = |value_bytes: usize, value_p: Precision| MatrixOperand {
            value_bytes,
            value_p,
            ..MatrixOperand::uniform(n, nnz, bw, Fp64)
        };
        let (full, shadow) = (store(nnz * 8, Fp64), store(nnz * 4, Fp32));
        let (tf, bf) = matrix_op(&d, &full, 1, false);
        let (ts, bs) = matrix_op(&d, &shadow, 1, false);
        let ratio = bs as f64 / bf as f64;
        assert!(ratio < 0.55, "k=1 byte ratio {ratio:.3}");
        // The fp32 efficiency row is >= the fp64 one on the V100 model,
        // so the simulated-time ratio is at least as good.
        assert!(ts / tf < 0.55, "k=1 time ratio {:.3}", ts / tf);
        // fp16 shaves the value stream further; a mixed split (10% hi /
        // 90% lo) sits between the uniform extremes.
        let half = matrix_op(&d, &store(nnz * 2, Fp16), 1, false).1;
        assert!(half < bs);
        let split_bytes = nnz / 10 * 8 + (nnz - nnz / 10) * 4;
        let split = matrix_op(&d, &store(split_bytes, Fp32), 1, false).1;
        assert!(split > bs && split < bf);
        // Wider blocks amortize the matrix stream, so the *advantage*
        // narrows with k (the fp64 working-precision vector traffic is
        // shared); document the trajectory rather than gating it.
        let ratio_at =
            |k: usize| matrix_op(&d, &shadow, k, false).0 / matrix_op(&d, &full, k, false).0;
        assert!(ratio_at(2) > ratio_at(1) && ratio_at(4) > ratio_at(2));
        assert!(ratio_at(4) < 0.75, "even k=4 keeps a material win");
    }

    #[test]
    fn times_scale_linearly_in_n() {
        let d = DeviceModel::ideal();
        let t1 = norm(&d, 1 << 20, 1, Fp32).0;
        let t2 = norm(&d, 1 << 21, 1, Fp32).0;
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}
