//! Small column-major dense matrices, LU factorization, triangular solves.
//!
//! These are the "small dense (non-GPU) operations" of the paper's timing
//! breakdown (the `Other` bar): the projected Hessenberg least-squares
//! problem, block Jacobi factors, and the polynomial preconditioner's
//! harmonic-Ritz eigenproblem setup. Belos keeps them on the host in a
//! `Teuchos::SerialDenseMatrix`; we mirror that placement in the
//! performance model.

use core::fmt;

use mpgmres_scalar::Scalar;

use crate::fma;

/// Column-major dense matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMat<S> {
    nrows: usize,
    ncols: usize,
    data: Vec<S>,
}

impl<S: Scalar> DenseMat<S> {
    /// Zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMat {
            nrows,
            ncols,
            data: vec![S::zero(); nrows * ncols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = S::one();
        }
        m
    }

    /// Build from a generator function over `(row, col)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut m = DenseMat::zeros(nrows, ncols);
        for c in 0..ncols {
            for r in 0..nrows {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Wrap an existing column-major buffer.
    ///
    /// # Panics
    /// Panics unless `data.len() == nrows * ncols`.
    pub fn from_col_major(nrows: usize, ncols: usize, data: Vec<S>) -> Self {
        assert_eq!(
            data.len(),
            nrows * ncols,
            "from_col_major: bad buffer length"
        );
        DenseMat { nrows, ncols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Underlying column-major buffer.
    #[inline]
    pub fn data(&self) -> &[S] {
        &self.data
    }

    /// Column `c` as a slice.
    #[inline]
    pub fn col(&self, c: usize) -> &[S] {
        &self.data[c * self.nrows..(c + 1) * self.nrows]
    }

    /// Mutable column `c`.
    #[inline]
    pub fn col_mut(&mut self, c: usize) -> &mut [S] {
        &mut self.data[c * self.nrows..(c + 1) * self.nrows]
    }

    /// `y = self * x`.
    pub fn matvec(&self, x: &[S], y: &mut [S]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        for yi in y.iter_mut() {
            *yi = S::zero();
        }
        fma::run(|| {
            for c in 0..self.ncols {
                let xc = x[c];
                for (yi, &m) in y.iter_mut().zip(self.col(c)) {
                    *yi = m.mul_add(xc, *yi);
                }
            }
        });
    }

    /// Matrix product `self * rhs` (test/setup utility; O(n^3)).
    pub fn matmul(&self, rhs: &DenseMat<S>) -> DenseMat<S> {
        assert_eq!(self.ncols, rhs.nrows);
        let mut out = DenseMat::zeros(self.nrows, rhs.ncols);
        fma::run(|| {
            for j in 0..rhs.ncols {
                for k in 0..self.ncols {
                    let b = rhs[(k, j)];
                    for i in 0..self.nrows {
                        out[(i, j)] = self[(i, k)].mul_add(b, out[(i, j)]);
                    }
                }
            }
        });
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMat<S> {
        DenseMat::from_fn(self.ncols, self.nrows, |r, c| self[(c, r)])
    }

    /// Convert every entry to another precision.
    pub fn convert<T: Scalar>(&self) -> DenseMat<T> {
        DenseMat {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self
                .data
                .iter()
                .map(|&v| mpgmres_scalar::cast::<S, T>(v))
                .collect(),
        }
    }
}

impl<S: Scalar> core::ops::Index<(usize, usize)> for DenseMat<S> {
    type Output = S;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &S {
        debug_assert!(r < self.nrows && c < self.ncols);
        &self.data[c * self.nrows + r]
    }
}

impl<S: Scalar> core::ops::IndexMut<(usize, usize)> for DenseMat<S> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut S {
        debug_assert!(r < self.nrows && c < self.ncols);
        &mut self.data[c * self.nrows + r]
    }
}

/// Error returned when LU factorization meets a (numerically) singular pivot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SingularMatrix {
    /// The elimination step at which no acceptable pivot existed.
    pub step: usize,
}

impl fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix is singular to working precision at elimination step {}",
            self.step
        )
    }
}

impl std::error::Error for SingularMatrix {}

/// LU factorization with partial pivoting, `P A = L U`.
#[derive(Clone, Debug)]
pub struct LuFactors<S> {
    lu: DenseMat<S>,
    piv: Vec<usize>,
}

impl<S: Scalar> LuFactors<S> {
    /// Factor a square matrix. Returns an error on a zero pivot column.
    pub fn factor(a: &DenseMat<S>) -> Result<Self, SingularMatrix> {
        Self::factor_owned(a.clone())
    }

    /// [`LuFactors::factor`], overwriting `lu` instead of a copy.
    ///
    /// Column-oriented: step `k` scales column `k` below the pivot into
    /// the multipliers, then updates each later column as one
    /// contiguous slice. Every entry still gets exactly one
    /// `(-m).mul_add(v, x)` per pivot step, in pivot order, so the bits
    /// are those of the textbook row-by-row loop.
    fn factor_owned(mut lu: DenseMat<S>) -> Result<Self, SingularMatrix> {
        assert_eq!(lu.nrows(), lu.ncols(), "LU requires a square matrix");
        let n = lu.nrows();
        let mut piv: Vec<usize> = (0..n).collect();
        fma::run(|| {
            for k in 0..n {
                // Partial pivoting: largest magnitude in column k at/below k.
                let col = &lu.data[k * n..(k + 1) * n];
                let mut p = k;
                let mut pmax = col[k].abs();
                for (r, v) in col.iter().enumerate().skip(k + 1) {
                    let v = v.abs();
                    if v > pmax {
                        pmax = v;
                        p = r;
                    }
                }
                if !(pmax > S::zero()) || !pmax.is_finite() {
                    return Err(SingularMatrix { step: k });
                }
                if p != k {
                    piv.swap(k, p);
                    for c in lu.data.chunks_exact_mut(n) {
                        c.swap(k, p);
                    }
                }
                let (head, rest) = lu.data.split_at_mut((k + 1) * n);
                let col = &mut head[k * n..];
                let pivot = col[k];
                for m in &mut col[k + 1..] {
                    *m /= pivot;
                }
                let mults = &col[k + 1..];
                for c in rest.chunks_exact_mut(n) {
                    let v = c[k];
                    for (x, &m) in c[k + 1..].iter_mut().zip(mults) {
                        *x = (-m).mul_add(v, *x);
                    }
                }
            }
            Ok(())
        })?;
        Ok(LuFactors { lu, piv })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.lu.nrows()
    }

    /// Solve `A x = b` in place (`b` becomes `x`).
    pub fn solve_in_place(&self, b: &mut [S]) {
        let n = self.n();
        assert_eq!(b.len(), n);
        // Apply the row permutation.
        let permuted: Vec<S> = self.piv.iter().map(|&p| b[p]).collect();
        b.copy_from_slice(&permuted);
        fma::run(|| {
            // Forward substitution with unit lower triangle.
            for r in 1..n {
                let mut acc = b[r];
                for c in 0..r {
                    acc = (-self.lu[(r, c)]).mul_add(b[c], acc);
                }
                b[r] = acc;
            }
            // Back substitution with upper triangle.
            for r in (0..n).rev() {
                let mut acc = b[r];
                for c in r + 1..n {
                    acc = (-self.lu[(r, c)]).mul_add(b[c], acc);
                }
                b[r] = acc / self.lu[(r, r)];
            }
        });
    }

    /// Solve into a fresh vector.
    pub fn solve(&self, b: &[S]) -> Vec<S> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Infinity-norm condition estimate via `||A||_inf * ||A^-1 e||_inf`
    /// for a few probe vectors (cheap heuristic, used to warn about
    /// ill-conditioned Jacobi blocks).
    pub fn cond_estimate(&self, a: &DenseMat<S>) -> f64 {
        let n = self.n();
        let mut anorm = 0.0f64;
        for r in 0..n {
            let row: f64 = (0..n).map(|c| a[(r, c)].to_f64().abs()).sum();
            anorm = anorm.max(row);
        }
        let mut inv_norm = 0.0f64;
        for probe in 0..2.min(n) {
            let mut e = vec![S::zero(); n];
            e[if probe == 0 { 0 } else { n - 1 }] = S::one();
            self.solve_in_place(&mut e);
            let m = e.iter().map(|v| v.to_f64().abs()).fold(0.0, f64::max);
            inv_norm = inv_norm.max(m);
        }
        anorm * inv_norm
    }
}

/// Blocks per packed group of [`BlockLu`]: a group's blocks are solved
/// side by side, one dependent FMA chain per block.
const LU_LANES: usize = 16;

/// The LU factors of every diagonal block of a block-diagonal matrix,
/// packed for one batched solve (block Jacobi's apply).
///
/// **Layout.** Blocks have `bs` rows except a smaller last one. The
/// full blocks are stored in groups of `LU_LANES` (16) consecutive
/// blocks, interleaved as `[group][row][col][lane]`, so one row step
/// of a group reads one contiguous `[S; 16]` per column. The leftover
/// full blocks and the ragged last block (the *tail*) are stored one
/// after another, each `[row][col]`. Within a block:
///
/// - off-diagonal entries (the unit-lower `L` below the diagonal, `U`
///   above it) are stored negated;
/// - the diagonal holds `U`'s diagonal as is;
/// - the row pivots are folded into one absolute `u32` gather index
///   per row of the whole vector.
///
/// **Bits.** Every block's chain performs exactly the operations of
/// [`LuFactors::solve_in_place`], in the same order: negation is exact,
/// so `l.mul_add(t, acc)` on a stored `l = -lu` rounds like
/// `(-lu).mul_add(t, acc)`, and each row is divided by its diagonal,
/// never multiplied by a reciprocal. Lanes never mix, so the packed
/// solve is bit-identical to a per-block `solve_in_place`.
#[derive(Clone, Debug)]
pub struct BlockLu<S> {
    n: usize,
    bs: usize,
    /// Full groups, `bs * bs` lane vectors each.
    groups: Vec<[S; LU_LANES]>,
    /// The tail blocks, `m * m` entries each for a block of `m` rows.
    tail: Vec<[S; 1]>,
    /// `perm[s + r] = s + piv[r]` for the block starting at row `s`.
    perm: Vec<u32>,
    singular: usize,
}

/// One work item of [`BlockLu::factor`]: a group or one tail block.
enum Slot<'a, S> {
    Group(&'a mut [[S; LU_LANES]], &'a mut [u32]),
    Tail(&'a mut [[S; 1]], &'a mut [u32]),
}

impl<S: Scalar> BlockLu<S> {
    /// Factor the diagonal blocks of an `n`-row matrix, `bs` rows per
    /// block (the last block may be smaller), and pack them.
    /// `block(start, size)` returns the `size x size` diagonal block at
    /// row `start`. Groups factor independently on a `threads`-wide
    /// [`WorkerPool`](crate::pool::WorkerPool) built for the call; the
    /// result does not depend on `threads`. A singular
    /// block is packed as the identity and counted in
    /// [`BlockLu::singular_blocks`].
    ///
    /// # Panics
    /// Panics if `bs == 0` or `n` does not fit in `u32`.
    pub fn factor(
        n: usize,
        bs: usize,
        threads: usize,
        block: impl Fn(usize, usize) -> DenseMat<S> + Sync,
    ) -> Self {
        assert!(bs >= 1, "block size must be >= 1");
        assert!(u32::try_from(n).is_ok(), "BlockLu: n must fit in u32");
        let ngroups = n / bs / LU_LANES;
        let wide_rows = ngroups * LU_LANES * bs;
        let tail_len: usize = Self::tail_sizes(n, bs, wide_rows).map(|m| m * m).sum();
        let mut groups = vec![[S::zero(); LU_LANES]; ngroups * bs * bs];
        let mut tail = vec![[S::zero(); 1]; tail_len];
        let mut perm = vec![0u32; n];
        let (perm_wide, mut perm_tail) = perm.split_at_mut(wide_rows);
        let mut slots: Vec<(usize, Slot<'_, S>, usize)> = Vec::new();
        for (g, (f, p)) in groups
            .chunks_exact_mut(bs * bs)
            .zip(perm_wide.chunks_exact_mut(LU_LANES * bs))
            .enumerate()
        {
            slots.push((g * LU_LANES * bs, Slot::Group(f, p), 0));
        }
        let mut rest = tail.as_mut_slice();
        let mut start = wide_rows;
        for m in Self::tail_sizes(n, bs, wide_rows) {
            let (f, r) = rest.split_at_mut(m * m);
            let (p, pr) = perm_tail.split_at_mut(m);
            slots.push((start, Slot::Tail(f, p), 0));
            (rest, perm_tail) = (r, pr);
            start += m;
        }
        crate::par::for_each_slot_mut(threads, &mut slots, |_, (start, slot, singular)| {
            *singular = match slot {
                Slot::Group(f, p) => pack(f, p, *start, bs, &block),
                Slot::Tail(f, p) => pack(f, p, *start, p.len(), &block),
            };
        });
        let singular = slots.iter().map(|(_, _, s)| s).sum();
        BlockLu {
            n,
            bs,
            groups,
            tail,
            perm,
            singular,
        }
    }

    /// Row counts of the tail blocks, in order.
    fn tail_sizes(n: usize, bs: usize, wide_rows: usize) -> impl Iterator<Item = usize> {
        (wide_rows..n).step_by(bs).map(move |s| bs.min(n - s))
    }

    /// Rows of the whole matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rows per block (the last block may be smaller).
    pub fn block_size(&self) -> usize {
        self.bs
    }

    /// Number of diagonal blocks.
    pub fn nblocks(&self) -> usize {
        self.n.div_ceil(self.bs)
    }

    /// Blocks that were singular and packed as the identity.
    pub fn singular_blocks(&self) -> usize {
        self.singular
    }

    /// `y = M^{-1} x`, every block solved by its own LU factors, in
    /// one FMA frame and without allocating per block.
    ///
    /// # Panics
    /// Panics unless `x.len() == y.len() == self.n()`.
    pub fn solve(&self, x: &[S], y: &mut [S]) {
        assert_eq!(x.len(), self.n, "BlockLu::solve: x length");
        assert_eq!(y.len(), self.n, "BlockLu::solve: y length");
        self.solve_rows(0, x, y);
    }

    /// Rows per packed group.
    pub(crate) fn group_rows(&self) -> usize {
        LU_LANES * self.bs
    }

    /// Rows the packed groups cover; the tail blocks start here.
    pub(crate) fn wide_rows(&self) -> usize {
        self.groups.len() / (self.bs * self.bs) * self.group_rows()
    }

    /// Solve the blocks whose rows `y` holds, the first at row `start`,
    /// in one FMA frame: whole groups first, then the tail blocks one at
    /// a time. `start` is a group boundary or [`Self::wide_rows`], and
    /// `y` ends on a group boundary or at `n` — the body each job of the
    /// pooled apply runs over its run of groups (or the tail).
    pub(crate) fn solve_rows(&self, start: usize, x: &[S], y: &mut [S]) {
        let (bs, gr, wide) = (self.bs, self.group_rows(), self.wide_rows());
        debug_assert!(start.is_multiple_of(gr) || start == wide);
        let (y_wide, y_tail) = y.split_at_mut(wide.saturating_sub(start).min(y.len()));
        let (perm_wide, perm_tail) = self.perm[start..].split_at(y_wide.len());
        let groups = &self.groups[start.min(wide) / gr * bs * bs..];
        fma::run(
            #[inline(always)]
            || {
                let mut t = vec![[S::zero(); LU_LANES]; bs];
                for ((f, p), yg) in groups
                    .chunks_exact(bs * bs)
                    .zip(perm_wide.chunks_exact(gr))
                    .zip(y_wide.chunks_exact_mut(gr))
                {
                    solve_lanes(f, p, x, yg, &mut t);
                }
                let mut t = vec![[S::zero(); 1]; bs];
                let (mut f, mut p, mut yt) = (self.tail.as_slice(), perm_tail, y_tail);
                while !yt.is_empty() {
                    let m = bs.min(p.len());
                    let (fb, fr) = f.split_at(m * m);
                    let (pb, pr) = p.split_at(m);
                    let (yb, yr) = yt.split_at_mut(m);
                    solve_lanes(fb, pb, x, yb, &mut t[..m]);
                    (f, p, yt) = (fr, pr, yr);
                }
            },
        );
    }
}

/// Factor the `L` consecutive `m`-row blocks starting at row `start`
/// into `f`/`perm` (the [`BlockLu`] layout with `L` lanes); returns how
/// many were singular.
fn pack<S: Scalar, const L: usize>(
    f: &mut [[S; L]],
    perm: &mut [u32],
    start: usize,
    m: usize,
    block: &impl Fn(usize, usize) -> DenseMat<S>,
) -> usize {
    let mut singular = 0;
    for l in 0..L {
        let s = start + l * m;
        let lu = LuFactors::factor_owned(block(s, m)).unwrap_or_else(|_| {
            singular += 1;
            LuFactors::factor(&DenseMat::identity(m)).expect("identity always factors")
        });
        for r in 0..m {
            perm[l * m + r] = (s + lu.piv[r]) as u32;
            for c in 0..m {
                let v = lu.lu[(r, c)];
                f[r * m + c][l] = if r == c { v } else { -v };
            }
        }
    }
    singular
}

/// Solve the `L` blocks of one packed group in lockstep: gather `x`
/// through `perm`, forward then back substitution with one chain per
/// lane, scatter into `y` (the group's `L * m` rows). `t` holds `m`
/// rows of lane values. Inlines into [`BlockLu::solve`]'s FMA frame.
#[inline(always)]
fn solve_lanes<S: Scalar, const L: usize>(
    f: &[[S; L]],
    perm: &[u32],
    x: &[S],
    y: &mut [S],
    t: &mut [[S; L]],
) {
    let m = t.len();
    for (l, p) in perm.chunks_exact(m).enumerate() {
        for (tr, &pr) in t.iter_mut().zip(p) {
            tr[l] = x[pr as usize];
        }
    }
    // Forward substitution with the unit lower triangle.
    for r in 1..m {
        let (done, rest) = t.split_at_mut(r);
        let mut acc = rest[0];
        for (lc, tc) in f[r * m..r * m + r].iter().zip(done.iter()) {
            for l in 0..L {
                acc[l] = lc[l].mul_add(tc[l], acc[l]);
            }
        }
        rest[0] = acc;
    }
    // Back substitution with the upper triangle.
    for r in (0..m).rev() {
        let (head, done) = t.split_at_mut(r + 1);
        let mut acc = head[r];
        for (uc, tc) in f[r * m + r + 1..(r + 1) * m].iter().zip(done.iter()) {
            for l in 0..L {
                acc[l] = uc[l].mul_add(tc[l], acc[l]);
            }
        }
        let d = f[r * m + r];
        for l in 0..L {
            acc[l] /= d[l];
        }
        head[r] = acc;
    }
    for (l, yl) in y.chunks_exact_mut(m).enumerate() {
        for (yr, tr) in yl.iter_mut().zip(t.iter()) {
            *yr = tr[l];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solves_trivially() {
        let a = DenseMat::<f64>::identity(4);
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn solves_known_system() {
        // [[2,1],[1,3]] x = [3,5] -> x = [4/5, 7/5].
        let a = DenseMat::from_col_major(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-14);
        assert!((x[1] - 1.4).abs() < 1e-14);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // [[0,1],[1,0]] is perfectly conditioned but needs a row swap.
        let a = DenseMat::from_col_major(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&[7.0, -2.0]);
        assert_eq!(x, vec![-2.0, 7.0]);
    }

    #[test]
    fn singular_matrix_reports_error() {
        let a = DenseMat::from_col_major(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        let err = LuFactors::<f64>::factor(&a).unwrap_err();
        assert_eq!(err.step, 1);
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn random_spd_roundtrip() {
        // A = M^T M + I is SPD; check A x ~= b after solving.
        let n = 8;
        let m = DenseMat::from_fn(n, n, |r, c| (((r * 13 + c * 7) % 11) as f64 - 5.0) / 5.0);
        let mut a = m.transpose().matmul(&m);
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        let lu = LuFactors::factor(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let x = lu.solve(&b);
        let mut ax = vec![0.0; n];
        a.matvec(&x, &mut ax);
        for (ai, bi) in ax.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn matvec_and_matmul_agree() {
        let a = DenseMat::from_fn(3, 4, |r, c| (r + 2 * c) as f64);
        let x = vec![1.0, -1.0, 2.0, 0.5];
        let xm = DenseMat::from_col_major(4, 1, x.clone());
        let prod = a.matmul(&xm);
        let mut y = vec![0.0; 3];
        a.matvec(&x, &mut y);
        for i in 0..3 {
            assert!((prod[(i, 0)] - y[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn works_in_f32() {
        let a = DenseMat::from_col_major(2, 2, vec![4.0f32, 1.0, 2.0, 3.0]);
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&[10.0, 5.0]);
        // exact solution [2, 1]
        assert!((x[0] - 2.0).abs() < 1e-5);
        assert!((x[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn cond_estimate_flags_bad_blocks() {
        let good = DenseMat::<f64>::identity(3);
        let lu = LuFactors::factor(&good).unwrap();
        assert!(lu.cond_estimate(&good) < 10.0);
        let mut bad = DenseMat::<f64>::identity(3);
        bad[(2, 2)] = 1e-12;
        let lub = LuFactors::factor(&bad).unwrap();
        assert!(lub.cond_estimate(&bad) > 1e10);
    }

    /// Entry `(r, c)` of a test block matrix: seeded values in [-1, 1)
    /// with ±0 and ± `tiny` (a subnormal) mixed in. Even blocks get a
    /// dominant diagonal; odd blocks do not, so they pivot.
    fn entry<S: Scalar>(r: usize, c: usize, bs: usize, tiny: S) -> S {
        let h = ((r * 7919 + c * 104_729) as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17);
        let v = match h % 23 {
            3 => S::zero(),
            5 => -S::zero(),
            7 => tiny,
            11 => -tiny,
            _ => S::from_f64((h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0),
        };
        if r == c && (r / bs).is_multiple_of(2) {
            v + S::from_f64(4.0)
        } else {
            v
        }
    }

    /// `n` seeded inputs; with `specials`, ±0, ± `tiny`, ±Inf and NaN
    /// at fixed positions.
    fn inputs<S: Scalar>(n: usize, tiny: S, specials: bool) -> Vec<S> {
        (0..n)
            .map(|i| match i % 13 {
                1 if specials => S::zero(),
                2 if specials => -S::zero(),
                4 if specials => tiny,
                6 if specials => -tiny,
                8 if specials => S::from_f64(f64::INFINITY),
                10 if specials => S::from_f64(f64::NEG_INFINITY),
                12 if specials => S::from_f64(f64::NAN),
                _ => S::from_f64(((i * 37) % 17) as f64 / 8.0 - 1.0),
            })
            .collect()
    }

    /// Bit patterns (exact widening to f64), every NaN folded to one —
    /// the rule of the FMA dispatch tests.
    fn bits<S: Scalar>(xs: &[S]) -> Vec<u64> {
        xs.iter()
            .map(|x| x.to_f64())
            .map(|v| if v.is_nan() { f64::NAN } else { v }.to_bits())
            .collect()
    }

    /// `BlockLu::solve` against the independent per-block path:
    /// `LuFactors::factor` (identity on failure) and `solve_in_place`
    /// on each block's slice of `x`, bit for bit.
    fn block_lu_matches_per_block<S: Scalar>(tiny: S) {
        let k = LU_LANES;
        let shapes = [
            (2 * k * 4 + 3 * 4, 4), // two groups + 3 leftover blocks
            (2 * k * 3 + 2, 3),     // two groups + a ragged block
            (k * 5 + 7, 5),         // one group + 1 leftover + ragged
            (k * 4 * 2, 4),         // whole groups only
            (2 * k + 5, 1),         // bs = 1
            (9, 9),                 // bs = n
            (9, 16),                // bs > n
            (0, 3),                 // empty
        ];
        for (n, bs) in shapes {
            // Every fifth block is all zeros: singular at step 0.
            let zero_block = |s: usize| (s / bs) % 5 == 2;
            let block = |s: usize, m: usize| {
                if zero_block(s) {
                    DenseMat::zeros(m, m)
                } else {
                    DenseMat::from_fn(m, m, |r, c| entry(s + r, s + c, bs, tiny))
                }
            };
            for threads in [1, 3] {
                let packed = BlockLu::factor(n, bs, threads, block);
                assert_eq!(packed.n(), n);
                assert_eq!(packed.nblocks(), n.div_ceil(bs));
                for specials in [false, true] {
                    let x = inputs::<S>(n, tiny, specials);
                    let mut y = vec![S::from_f64(99.0); n];
                    packed.solve(&x, &mut y);
                    let mut want = x.clone();
                    let mut singular = 0;
                    for s in (0..n).step_by(bs) {
                        let m = bs.min(n - s);
                        let lu = LuFactors::factor(&block(s, m)).unwrap_or_else(|_| {
                            singular += 1;
                            LuFactors::factor(&DenseMat::identity(m)).unwrap()
                        });
                        lu.solve_in_place(&mut want[s..s + m]);
                    }
                    assert_eq!(
                        bits(&y),
                        bits(&want),
                        "{} n={n} bs={bs} threads={threads} specials={specials}",
                        S::NAME
                    );
                    assert_eq!(packed.singular_blocks(), singular);
                    if n.div_ceil(bs) > 2 {
                        assert!(singular > 0, "the identity fallback must be exercised");
                    }
                }
            }
        }
    }

    #[test]
    fn block_lu_is_bitwise_per_block_lu() {
        block_lu_matches_per_block::<f64>(f64::from_bits(0x000a_bcde_f012_3456));
        block_lu_matches_per_block::<f32>(f32::from_bits(0x0012_3456));
        block_lu_matches_per_block::<mpgmres_scalar::Half>(mpgmres_scalar::Half::from_bits(0x0123));
    }

    #[test]
    fn transpose_convert() {
        let a = DenseMat::from_fn(2, 3, |r, c| (r * 3 + c) as f64 + 0.1);
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t[(2, 1)], a[(1, 2)]);
        let f: DenseMat<f32> = a.convert();
        assert_eq!(f[(1, 2)], a[(1, 2)] as f32);
    }
}
