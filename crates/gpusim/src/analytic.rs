//! The paper's §V-D analytic SpMV traffic model.
//!
//! CSR SpMV reads, per nonzero: one matrix value, one 4-byte column index,
//! and one element of `x`. The paper observes on the V100 that for banded
//! stencil matrices the fp32 kernel achieves near-perfect L2 reuse of `x`
//! (each element fetched from DRAM once) while the fp64 kernel re-reads
//! `x` per nonzero. That yields the famous bound
//!
//! ```text
//! speedup = 20 w n / ((8w + 4) n) = 5w / (2w + 1)  ->  2.5 as w grows.
//! ```
//!
//! This module encodes that empirical reuse rule (the default pricing path
//! for [`crate::cost::spmv_time`]) plus the closed-form expressions the
//! paper prints, so the `vd_model` experiment can compare: paper bound vs
//! priced model vs the mechanistic LRU cache simulation in [`crate::cache`].

use mpgmres_scalar::Precision;

use crate::device::DeviceModel;

/// Bytes of a CSR column index (the paper assumes the integer type stays
/// 4 bytes in all precisions).
pub const IDX_BYTES: usize = 4;

/// Does the x-vector achieve (near-)perfect L2 reuse for this matrix
/// structure and precision on this device?
///
/// Encodes the paper's empirical finding: narrow precisions (<= 4 bytes)
/// cache `x` nearly perfectly on banded stencil matrices; fp64 does not;
/// nothing does once the matrix bandwidth is a large fraction of `n`.
pub fn x_reuse_is_perfect(
    dev: &DeviceModel,
    n: usize,
    bandwidth_rows: usize,
    p: Precision,
) -> bool {
    dev.is_banded(bandwidth_rows, n) && p.bytes() <= 4
}

/// Total DRAM traffic in bytes for one `y = A x` in precision `p`,
/// using the empirical reuse rule. Includes the row-pointer stream and
/// the store of `y` (the paper's closed form drops those; they are small).
pub fn spmv_traffic_bytes(
    dev: &DeviceModel,
    n: usize,
    nnz: usize,
    bandwidth_rows: usize,
    p: Precision,
) -> usize {
    let stream = nnz * (p.bytes() + IDX_BYTES) + (n + 1) * IDX_BYTES + n * p.bytes();
    let x = if x_reuse_is_perfect(dev, n, bandwidth_rows, p) {
        n * p.bytes()
    } else {
        nnz * p.bytes()
    };
    stream + x
}

/// Total DRAM traffic in bytes for one storage-path `y = A x` where the
/// matrix values live in a (possibly mixed) low-precision store while the
/// vectors stay in the working precision `work_p`.
///
/// `value_bytes` is the byte count of the value stream as the store
/// actually lays it out (`MatrixStore::value_bytes()`): `nnz * 4` for an
/// fp32 shadow, `nnz * 2` for fp16, or the mixed sum for a split store.
/// Index traffic is unchanged (the paper keeps 4-byte indices in every
/// precision), and `y` is written once in the working precision.
///
/// The x-reuse rule generalizes [`x_reuse_is_perfect`]: what the paper
/// observed is that *shrinking the matrix stream* leaves L2 room for `x`,
/// so reuse kicks in when the value stream is no wider than the index
/// stream (`value_bytes <= nnz * IDX_BYTES`, i.e. values at <= 4 bytes
/// each on average) on a banded matrix — exactly reproducing the uniform
/// rule when the store is uniform.
///
/// When `value_bytes == nnz * p.bytes()` and `work_p == p` this reduces
/// bit-for-bit to [`spmv_traffic_bytes`] — a plain store prices exactly
/// like the uniform kernel (pinned by a test below).
pub fn store_spmv_traffic_bytes(
    dev: &DeviceModel,
    n: usize,
    nnz: usize,
    value_bytes: usize,
    bandwidth_rows: usize,
    work_p: Precision,
) -> usize {
    let stream = value_bytes + nnz * IDX_BYTES + (n + 1) * IDX_BYTES + n * work_p.bytes();
    let x = if dev.is_banded(bandwidth_rows, n) && value_bytes <= nnz * IDX_BYTES {
        n * work_p.bytes()
    } else {
        nnz * work_p.bytes()
    };
    stream + x
}

/// DRAM traffic in bytes for one GEMV pass over a Krylov basis stored
/// at `elem_bytes` per element under working precision `work_p`: the
/// `ncols` narrow basis columns stream once (`ncols * n * elem_bytes`),
/// plus `vec_streams` working-precision vector streams (1 for
/// GEMV-Trans — read `w`, coefficients return via host sync; 2 for
/// GEMV-NoTrans — read + write `w`). This is the compressed-basis
/// traffic model of Aliaga et al. (arXiv:2009.12101): arithmetic stays
/// in `work_p`, only the basis *stream* shrinks.
///
/// Machine-independent (no device parameter): the basis perf gate
/// checks the simulator's charged GEMV bytes against this form exactly,
/// on any host. When `elem_bytes == work_p.bytes()` it reduces
/// bit-for-bit to the native `(ncols + vec_streams) * n * bytes` GEMV
/// model (pinned by a test below).
pub fn basis_gemv_traffic_bytes(
    n: usize,
    ncols: usize,
    elem_bytes: usize,
    vec_streams: usize,
    work_p: Precision,
) -> usize {
    ncols * n * elem_bytes + vec_streams * n * work_p.bytes()
}

/// The paper's idealized fp64 traffic: `20 w n` bytes (no x reuse, row
/// pointers and y stores ignored).
pub fn paper_fp64_traffic(n: usize, w: f64) -> f64 {
    20.0 * w * n as f64
}

/// The paper's idealized fp32 traffic: `(8w + 4) n` bytes (perfect x
/// reuse).
pub fn paper_fp32_traffic(n: usize, w: f64) -> f64 {
    (8.0 * w + 4.0) * n as f64
}

/// The paper's closed-form speedup bound `5w / (2w + 1)`.
pub fn paper_speedup_bound(w: f64) -> f64 {
    5.0 * w / (2.0 * w + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_bound_matches_paper_examples() {
        // Paper: w = 5 (BentPipe/UniFlow) -> 2.27x; w = 7 (Laplace3D) -> 2.33x.
        assert!((paper_speedup_bound(5.0) - 25.0 / 11.0).abs() < 1e-12);
        assert!((paper_speedup_bound(5.0) - 2.2727).abs() < 1e-3);
        assert!((paper_speedup_bound(7.0) - 2.3333).abs() < 1e-3);
        // Limit is 2.5.
        assert!(paper_speedup_bound(1e9) > 2.4999);
    }

    #[test]
    fn traffic_formulas_are_the_paper_expressions() {
        let (n, w) = (1000usize, 5.0f64);
        assert_eq!(paper_fp64_traffic(n, w), 100_000.0);
        assert_eq!(paper_fp32_traffic(n, w), 44_000.0);
        assert!(
            (paper_fp64_traffic(n, w) / paper_fp32_traffic(n, w) - paper_speedup_bound(w)).abs()
                < 1e-12
        );
    }

    #[test]
    fn reuse_rule_splits_precisions_on_banded_matrices() {
        let dev = DeviceModel::v100_belos();
        let (n, bw) = (2_250_000, 1500); // BentPipe2D1500
        assert!(x_reuse_is_perfect(&dev, n, bw, Precision::Fp32));
        assert!(x_reuse_is_perfect(&dev, n, bw, Precision::Fp16));
        assert!(!x_reuse_is_perfect(&dev, n, bw, Precision::Fp64));
        // Scattered matrix: no reuse in any precision.
        assert!(!x_reuse_is_perfect(&dev, n, n - 1, Precision::Fp32));
    }

    /// A uniform store must price exactly like the plain kernel: same
    /// value bytes, same working precision, bit-identical traffic.
    #[test]
    fn store_traffic_reduces_to_uniform_exactly() {
        let dev = DeviceModel::v100_belos();
        for (n, nnz, bw) in [
            (2_250_000usize, 11_244_000usize, 1500usize),
            (10_000, 49_600, 100),
            (10_000, 49_600, 9_999), // scattered: no reuse in any precision
        ] {
            for p in [Precision::Fp16, Precision::Fp32, Precision::Fp64] {
                assert_eq!(
                    store_spmv_traffic_bytes(&dev, n, nnz, nnz * p.bytes(), bw, p),
                    spmv_traffic_bytes(&dev, n, nnz, bw, p),
                    "uniform {p:?} store must reduce to the plain model"
                );
            }
        }
    }

    /// A native-width basis must price exactly like the plain GEMV
    /// model, and the fp32/fp64 byte ratio on a wide basis must land
    /// near the ~2x compressed-basis saving.
    #[test]
    fn basis_traffic_reduces_to_native_exactly() {
        let (n, ncols) = (250_000usize, 26usize);
        for p in [Precision::Fp16, Precision::Fp32, Precision::Fp64] {
            assert_eq!(
                basis_gemv_traffic_bytes(n, ncols, p.bytes(), 1, p),
                (ncols + 1) * n * p.bytes(),
                "native {p:?} basis must reduce to the plain GEMV-T model"
            );
            assert_eq!(
                basis_gemv_traffic_bytes(n, ncols, p.bytes(), 2, p),
                (ncols + 2) * n * p.bytes(),
                "native {p:?} basis must reduce to the plain GEMV-N model"
            );
        }
        let full = basis_gemv_traffic_bytes(n, ncols, 8, 1, Precision::Fp64);
        let compressed = basis_gemv_traffic_bytes(n, ncols, 4, 1, Precision::Fp64);
        let ratio = compressed as f64 / full as f64;
        // (26*4 + 8) / (27*8) = 112/216: the column streams halve, the
        // working-precision vector stream does not.
        assert!((ratio - 112.0 / 216.0).abs() < 1e-12, "ratio {ratio}");
        let half = basis_gemv_traffic_bytes(n, ncols, 2, 1, Precision::Fp64);
        assert!(half < compressed);
    }

    /// The tentpole ratio: an fp32 value stream under an fp64 working
    /// precision (the shadow-store SpMV) must cut traffic roughly in
    /// half on the banded 5-point stencil, because both the value
    /// stream shrinks 2x and x-reuse kicks in.
    #[test]
    fn fp32_shadow_store_halves_banded_traffic() {
        let dev = DeviceModel::v100_belos();
        let (n, bw) = (250_000usize, 500usize);
        let nnz = 5 * n; // 5-point Laplacian nnz density
        let full = store_spmv_traffic_bytes(&dev, n, nnz, nnz * 8, bw, Precision::Fp64);
        let shadow = store_spmv_traffic_bytes(&dev, n, nnz, nnz * 4, bw, Precision::Fp64);
        let ratio = shadow as f64 / full as f64;
        assert!(
            ratio < 0.55,
            "fp32 shadow must beat the 0.55 traffic bar: {ratio:.3}"
        );
        // fp16 shaves the value stream further.
        let half = store_spmv_traffic_bytes(&dev, n, nnz, nnz * 2, bw, Precision::Fp64);
        assert!(half < shadow);
        // A mixed split (10% hi / 90% lo) sits between uniform extremes.
        let split_bytes = nnz / 10 * 8 + (nnz - nnz / 10) * 4;
        let split = store_spmv_traffic_bytes(&dev, n, nnz, split_bytes, bw, Precision::Fp64);
        assert!(split > shadow && split < full);
    }

    #[test]
    fn full_traffic_close_to_paper_form() {
        let dev = DeviceModel::v100_belos();
        let n = 2_250_000usize;
        let nnz = 11_244_000usize;
        let t64 = spmv_traffic_bytes(&dev, n, nnz, 1500, Precision::Fp64);
        let t32 = spmv_traffic_bytes(&dev, n, nnz, 1500, Precision::Fp32);
        // Within 15% of the closed forms (rowptr + y stores add a little).
        let w = nnz as f64 / n as f64;
        assert!((t64 as f64 / paper_fp64_traffic(n, w) - 1.0).abs() < 0.15);
        assert!((t32 as f64 / paper_fp32_traffic(n, w) - 1.0).abs() < 0.35);
        // Traffic ratio lands between 2.0 and 2.5.
        let ratio = t64 as f64 / t32 as f64;
        assert!(ratio > 2.0 && ratio < 2.5, "traffic ratio {ratio}");
    }
}
