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
        assert_eq!(a.nrows(), a.ncols(), "LU requires a square matrix");
        let n = a.nrows();
        let mut lu = a.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        fma::run(|| {
            for k in 0..n {
                // Partial pivoting: largest magnitude in column k at/below k.
                let mut p = k;
                let mut pmax = lu[(k, k)].abs();
                for r in k + 1..n {
                    let v = lu[(r, k)].abs();
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
                    for c in 0..n {
                        let tmp = lu[(k, c)];
                        lu[(k, c)] = lu[(p, c)];
                        lu[(p, c)] = tmp;
                    }
                }
                let pivot = lu[(k, k)];
                for r in k + 1..n {
                    let m = lu[(r, k)] / pivot;
                    lu[(r, k)] = m;
                    for c in k + 1..n {
                        let v = lu[(k, c)];
                        lu[(r, c)] = (-m).mul_add(v, lu[(r, c)]);
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
