//! Structural matrix statistics.
//!
//! The cache-reuse analysis of paper §V-D is parameterized by the average
//! number of nonzeros per row `w` and by how far apart a row's column
//! indices are (spatial locality of accesses into `x`). These statistics
//! feed the analytic SpMV model and the experiment reports.

use mpgmres_scalar::Scalar;

use crate::csr::Csr;

/// Summary statistics of a sparse matrix's structure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatrixStats {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Stored entries.
    pub nnz: usize,
    /// Mean nonzeros per row (`w` in the paper's model).
    pub avg_nnz_per_row: f64,
    /// Maximum nonzeros in any row.
    pub max_nnz_per_row: usize,
    /// Minimum nonzeros in any row.
    pub min_nnz_per_row: usize,
    /// Pattern bandwidth `max |i-j|`.
    pub bandwidth: usize,
    /// Mean over rows of `max_col - min_col` (row spread; drives x-vector
    /// locality in the cache model).
    pub avg_row_spread: f64,
}

impl MatrixStats {
    /// Compute statistics for a matrix.
    pub fn of<S: Scalar>(a: &Csr<S>) -> MatrixStats {
        let nrows = a.nrows();
        let mut max_r = 0usize;
        let mut min_r = usize::MAX;
        let mut bw = 0usize;
        let mut spread_sum = 0.0f64;
        for (r, cols) in a
            .row_ptr()
            .windows(2)
            .map(|w| &a.col_idx()[w[0]..w[1]])
            .enumerate()
        {
            let cnt = cols.len();
            max_r = max_r.max(cnt);
            min_r = min_r.min(cnt);
            // One pass per row: no assumption that columns are sorted.
            let (lo, hi) = cols
                .iter()
                .fold((u32::MAX, 0u32), |(lo, hi), &c| (lo.min(c), hi.max(c)));
            if cnt > 0 {
                let (lo, hi) = (lo as usize, hi as usize);
                spread_sum += (hi - lo) as f64;
                bw = bw.max(r.abs_diff(lo)).max(r.abs_diff(hi));
            }
        }
        if nrows == 0 {
            min_r = 0;
        }
        MatrixStats {
            nrows,
            ncols: a.ncols(),
            nnz: a.nnz(),
            avg_nnz_per_row: if nrows == 0 {
                0.0
            } else {
                a.nnz() as f64 / nrows as f64
            },
            max_nnz_per_row: max_r,
            min_nnz_per_row: min_r,
            bandwidth: bw,
            avg_row_spread: if nrows == 0 {
                0.0
            } else {
                spread_sum / nrows as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    #[test]
    fn tridiagonal_stats() {
        let n = 10;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0f64);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        let s = MatrixStats::of(&coo.into_csr());
        assert_eq!(s.nnz, 3 * n - 2);
        assert_eq!(s.max_nnz_per_row, 3);
        assert_eq!(s.min_nnz_per_row, 2);
        assert_eq!(s.bandwidth, 1);
        assert!((s.avg_nnz_per_row - (3.0 - 2.0 / n as f64)).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_stats() {
        let a = Csr::<f64>::identity(0);
        let s = MatrixStats::of(&a);
        assert_eq!(s.nnz, 0);
        assert_eq!(s.avg_nnz_per_row, 0.0);
    }

    #[test]
    fn spread_reflects_far_coupling() {
        let mut coo = Coo::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 1.0f64);
        }
        coo.push(0, 3, 0.5);
        let s = MatrixStats::of(&coo.into_csr());
        assert_eq!(s.bandwidth, 3);
        assert!((s.avg_row_spread - 3.0 / 4.0).abs() < 1e-12);
    }
}
