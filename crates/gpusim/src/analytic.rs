//! The paper's §V-D closed-form SpMV traffic model, and the
//! compressed-basis GEMV byte count.
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
//! This module holds the closed-form expressions the paper prints, so
//! the `vd_model` experiment can compare the paper bound with the priced
//! model ([`crate::cost::matrix_op`], which encodes the empirical reuse
//! rule) and the mechanistic LRU cache simulation in [`crate::cache`],
//! plus the compressed-basis GEMV byte count the cost model and the
//! basis perf gate share.

use mpgmres_scalar::Precision;

/// DRAM traffic in bytes for one GEMV pass over a Krylov basis stored
/// at `elem_bytes` per element under working precision `work_p`: the
/// `ncols` narrow basis columns stream once (`ncols * n * elem_bytes`),
/// plus `vec_streams` working-precision vector streams (1 for
/// GEMV-Trans — read `w`, coefficients return via host sync; 2 for
/// GEMV-NoTrans — read + write `w`). This is the compressed-basis
/// traffic model of Aliaga et al. (arXiv:2009.12101): arithmetic stays
/// in `work_p`, only the basis *stream* shrinks.
///
/// Machine-independent (no device parameter): [`crate::cost::basis_gemv`]
/// charges exactly these bytes, and the basis perf gate checks the
/// charged GEMV bytes against this form on any host. At `elem_bytes ==
/// work_p.bytes()` it is the native `(ncols + vec_streams) * n * bytes`.
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

    /// The fp32/fp64 byte ratio on a wide basis lands near the ~2x
    /// compressed-basis saving.
    #[test]
    fn compressed_basis_traffic_ratio() {
        let (n, ncols) = (250_000usize, 26usize);
        let full = basis_gemv_traffic_bytes(n, ncols, 8, 1, Precision::Fp64);
        let compressed = basis_gemv_traffic_bytes(n, ncols, 4, 1, Precision::Fp64);
        let ratio = compressed as f64 / full as f64;
        // (26*4 + 8) / (27*8) = 112/216: the column streams halve, the
        // working-precision vector stream does not.
        assert!((ratio - 112.0 / 216.0).abs() < 1e-12, "ratio {ratio}");
        let half = basis_gemv_traffic_bytes(n, ncols, 2, 1, Precision::Fp64);
        assert!(half < compressed);
    }
}
