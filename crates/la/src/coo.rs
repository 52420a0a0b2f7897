//! Coordinate-format builder for assembling sparse matrices.
//!
//! Generators and the MatrixMarket reader push `(row, col, value)` triplets
//! in any order (with duplicates summed, as in FEM assembly), then convert
//! to [`Csr`] once.

use mpgmres_scalar::Scalar;

use crate::csr::Csr;

/// A coordinate-format matrix under assembly.
#[derive(Clone, Debug)]
pub struct Coo<S> {
    nrows: usize,
    ncols: usize,
    entries: Vec<(u32, u32, S)>,
}

impl<S: Scalar> Coo<S> {
    /// Start assembling an `nrows x ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        assert!(nrows <= u32::MAX as usize && ncols <= u32::MAX as usize);
        Coo {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Pre-allocate for an expected entry count.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        let mut c = Coo::new(nrows, ncols);
        c.entries.reserve(cap);
        c
    }

    /// Add `value` at `(row, col)`; duplicates accumulate.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, value: S) {
        debug_assert!(row < self.nrows && col < self.ncols, "entry out of range");
        self.entries.push((row as u32, col as u32, value));
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Finish assembly: sort, sum duplicates, drop exact zeros that arose
    /// from cancellation only if `drop_zeros` is set, and build CSR.
    pub fn into_csr_dropping(mut self, drop_zeros: bool) -> Csr<S> {
        self.entries
            .sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);
        let mut row_ptr = vec![0usize; self.nrows + 1];
        let mut col_idx: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut vals: Vec<S> = Vec::with_capacity(self.entries.len());
        let mut it = self.entries.iter().copied().peekable();
        while let Some((r, c, mut v)) = it.next() {
            while let Some(&(r2, c2, v2)) = it.peek() {
                if r2 == r && c2 == c {
                    v += v2;
                    it.next();
                } else {
                    break;
                }
            }
            if drop_zeros && v == S::zero() {
                continue;
            }
            row_ptr[r as usize + 1] += 1;
            col_idx.push(c);
            vals.push(v);
        }
        for i in 0..self.nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Csr::from_raw(self.nrows, self.ncols, row_ptr, col_idx, vals)
    }

    /// Finish assembly keeping explicitly stored zeros.
    pub fn into_csr(self) -> Csr<S> {
        self.into_csr_dropping(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_csr_from_shuffled_input() {
        let mut coo = Coo::new(3, 3);
        coo.push(2, 2, 9.0f64);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 3.0);
        coo.push(0, 0, 1.0);
        let a = coo.into_csr();
        assert_eq!(a.row_ptr(), &[0, 2, 3, 4]);
        assert_eq!(a.col_idx(), &[0, 1, 0, 2]);
        assert_eq!(a.vals(), &[1.0, 2.0, 3.0, 9.0]);
    }

    #[test]
    fn duplicates_accumulate() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.5f64);
        coo.push(0, 0, 2.5);
        coo.push(1, 1, -1.0);
        coo.push(1, 1, 1.0);
        let a = coo.clone().into_csr();
        assert_eq!(a.vals(), &[4.0, 0.0]);
        let b = coo.into_csr_dropping(true);
        assert_eq!(b.nnz(), 1);
        assert_eq!(b.vals(), &[4.0]);
    }

    #[test]
    fn empty_rows_are_fine() {
        let mut coo = Coo::new(4, 4);
        coo.push(3, 0, 7.0f32);
        let a = coo.into_csr();
        assert_eq!(a.row_ptr(), &[0, 0, 0, 0, 1]);
        let mut y = [0.0f32; 4];
        a.spmv(&[1.0, 0.0, 0.0, 0.0], &mut y);
        assert_eq!(y, [0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn empty_matrix() {
        let coo = Coo::<f64>::new(2, 2);
        let a = coo.into_csr();
        assert_eq!(a.nnz(), 0);
        let mut y = [5.0f64; 2];
        a.spmv(&[1.0, 1.0], &mut y);
        assert_eq!(y, [0.0, 0.0]);
    }
}
