//! Coordinate-format builder for assembling sparse matrices.
//!
//! Generators and the MatrixMarket reader push `(row, col, value)` triplets
//! in any order (with duplicates summed, as in FEM assembly), then convert
//! to [`Csr`] once.
//!
//! **Push-order contract.** [`Coo::into_csr`] buckets the triplets by row
//! and sums each `(row, col)` key's contributions left to right in the
//! order they were pushed. That order is part of the result: a key with
//! three or more differing contributions can round differently in
//! another order, so the order a generator pushes in fixes its bits. A
//! key with at most two contributions, or with contributions that are
//! all the same bits, sums to the same bits in any order.

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

    /// Add `value` at `(row, col)`; duplicates accumulate in push order.
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

    /// Finish assembly: group the triplets by row, sum duplicates, drop
    /// exact zeros that arose from cancellation only if `drop_zeros` is
    /// set, and build CSR.
    ///
    /// Linear in the entry count apart from the per-row column sort: a
    /// stable counting sort buckets the triplets by row, each row is
    /// sorted stably by column (insertion sort for short rows, a merge
    /// sort above 32 entries, so a dense row stays `O(k log k)`), and
    /// each key's contributions are summed in push order.
    ///
    /// **Bits.** Each key's contributions are summed left to right in
    /// push order, whatever order the keys themselves were pushed in;
    /// the sum does not depend on the sort used or on the toolchain.
    pub fn into_csr_dropping(self, drop_zeros: bool) -> Csr<S> {
        let (nrows, ncols) = (self.nrows, self.ncols);
        // Counting sort by row, stable. `row_ptr[r + 1]` first counts row
        // `r`, then holds its next free slot, and ends as its end.
        let mut row_ptr = vec![0usize; nrows + 1];
        for &(r, _, _) in &self.entries {
            row_ptr[r as usize + 1] += 1;
        }
        let mut sum = 0;
        for p in &mut row_ptr[1..] {
            (*p, sum) = (sum, sum + *p);
        }
        let mut col_idx = vec![0u32; self.entries.len()];
        let mut vals = vec![S::zero(); self.entries.len()];
        for &(r, c, v) in &self.entries {
            let p = &mut row_ptr[r as usize + 1];
            (col_idx[*p], vals[*p]) = (c, v);
            *p += 1;
        }
        drop(self.entries);
        // Sort each row and sum its keys in place: the write position `w`
        // never passes the row being read, so the buckets become the CSR
        // arrays without a second copy.
        let (mut start, mut w) = (0, 0);
        let mut pairs = Vec::new();
        for r in 0..nrows {
            let end = row_ptr[r + 1];
            sort_row(&mut col_idx[start..end], &mut vals[start..end], &mut pairs);
            let mut k = start;
            while k < end {
                let c = col_idx[k];
                let run = col_idx[k..end].iter().take_while(|&&x| x == c).count();
                let mut v = vals[k];
                for &d in &vals[k + 1..k + run] {
                    v += d;
                }
                k += run;
                if drop_zeros && v == S::zero() {
                    continue;
                }
                (col_idx[w], vals[w]) = (c, v);
                w += 1;
            }
            start = end;
            row_ptr[r + 1] = w;
        }
        col_idx.truncate(w);
        col_idx.shrink_to_fit();
        vals.truncate(w);
        vals.shrink_to_fit();
        Csr::from_raw(nrows, ncols, row_ptr, col_idx, vals)
    }

    /// Finish assembly keeping explicitly stored zeros. Duplicates sum
    /// in push order; see [`Coo::into_csr_dropping`].
    pub fn into_csr(self) -> Csr<S> {
        self.into_csr_dropping(false)
    }
}

/// Longest row sorted by insertion sort; longer rows use the standard
/// library's stable merge sort.
const INSERTION_MAX: usize = 32;

/// Sort one row's entries (`cols[i]` with `vals[i]`) by column, stably:
/// equal columns keep their push order. A row longer than
/// [`INSERTION_MAX`] is sorted as `(col, value)` pairs in `pairs`.
#[inline]
fn sort_row<S: Copy>(cols: &mut [u32], vals: &mut [S], pairs: &mut Vec<(u32, S)>) {
    if cols.len() > INSERTION_MAX {
        pairs.clear();
        pairs.extend(cols.iter().copied().zip(vals.iter().copied()));
        pairs.sort_by_key(|e| e.0);
        for ((c, v), &(sc, sv)) in cols.iter_mut().zip(vals.iter_mut()).zip(pairs.iter()) {
            (*c, *v) = (sc, sv);
        }
        return;
    }
    for i in 1..cols.len() {
        let (c, v) = (cols[i], vals[i]);
        let mut j = i;
        while j > 0 && cols[j - 1] > c {
            (cols[j], vals[j]) = (cols[j - 1], vals[j - 1]);
            j -= 1;
        }
        (cols[j], vals[j]) = (c, v);
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
