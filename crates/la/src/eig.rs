//! Eigenvalues of real upper Hessenberg matrices via the Francis
//! double-shift QR iteration.
//!
//! The GMRES polynomial preconditioner (Loe–Thornquist–Boman, paper
//! ref. \[16\]) needs the **harmonic Ritz values** of `A`, which are the
//! eigenvalues of a (rank-one-modified, still upper Hessenberg) projected
//! matrix built from the Arnoldi recurrence. This module provides the
//! classic shifted-QR eigenvalue sweep (the `hqr` algorithm of
//! EISPACK/Numerical Recipes lineage) for exactly that purpose.
//!
//! Computation always happens in `f64`: the projected matrix is tiny
//! (degree x degree), so the cost is irrelevant, and the roots feed a
//! Leja ordering where accuracy matters more than precision-faithfulness.

use crate::dense::DenseMat;

/// A complex eigenvalue `re + i*im`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude.
    pub fn abs2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

/// Error from the QR iteration failing to converge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QrNoConvergence {
    /// Index of the eigenvalue block that failed to deflate.
    pub block: usize,
}

impl core::fmt::Display for QrNoConvergence {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "QR iteration failed to converge while deflating block {}",
            self.block
        )
    }
}

impl std::error::Error for QrNoConvergence {}

/// Eigenvalues of a real upper Hessenberg matrix.
///
/// Entries below the first subdiagonal are ignored. Returns eigenvalues in
/// deflation order (complex pairs adjacent, conjugates of each other).
pub fn hessenberg_eigenvalues(h: &DenseMat<f64>) -> Result<Vec<Complex>, QrNoConvergence> {
    assert_eq!(h.nrows(), h.ncols(), "eigenvalues need a square matrix");
    let n = h.nrows();
    if n == 0 {
        return Ok(Vec::new());
    }
    // 1-based working copy, following the classical hqr formulation to
    // keep the transcription auditable against the reference algorithm.
    let mut a = vec![vec![0.0f64; n + 1]; n + 1];
    for r in 0..n {
        for c in 0..n {
            if c + 1 >= r {
                a[r + 1][c + 1] = h[(r, c)];
            }
        }
    }
    let mut wr = vec![0.0f64; n + 1];
    let mut wi = vec![0.0f64; n + 1];

    let mut anorm = 0.0f64;
    for i in 1..=n {
        for j in i.saturating_sub(1).max(1)..=n {
            anorm += a[i][j].abs();
        }
    }
    if anorm == 0.0 {
        return Ok(vec![Complex { re: 0.0, im: 0.0 }; n]);
    }

    let mut nn = n;
    let mut t = 0.0f64;
    let (mut p, mut q, mut r, mut z, mut w, mut x, mut y, mut s): (
        f64,
        f64,
        f64,
        f64,
        f64,
        f64,
        f64,
        f64,
    );
    while nn >= 1 {
        let mut its = 0;
        loop {
            // Look for a small subdiagonal element to split at.
            let mut l = 1;
            for ll in (2..=nn).rev() {
                s = a[ll - 1][ll - 1].abs() + a[ll][ll].abs();
                if s == 0.0 {
                    s = anorm;
                }
                if a[ll][ll - 1].abs() + s == s {
                    a[ll][ll - 1] = 0.0;
                    l = ll;
                    break;
                }
            }
            x = a[nn][nn];
            if l == nn {
                // One real eigenvalue deflates.
                wr[nn] = x + t;
                wi[nn] = 0.0;
                nn -= 1;
                break;
            }
            y = a[nn - 1][nn - 1];
            w = a[nn][nn - 1] * a[nn - 1][nn];
            if l == nn - 1 {
                // A 2x2 block deflates: real pair or complex conjugates.
                p = 0.5 * (y - x);
                q = p * p + w;
                z = q.abs().sqrt();
                x += t;
                if q >= 0.0 {
                    z = p + z.copysign(p);
                    wr[nn - 1] = x + z;
                    wr[nn] = wr[nn - 1];
                    if z != 0.0 {
                        wr[nn] = x - w / z;
                    }
                    wi[nn - 1] = 0.0;
                    wi[nn] = 0.0;
                } else {
                    wr[nn - 1] = x + p;
                    wr[nn] = x + p;
                    wi[nn] = z;
                    wi[nn - 1] = -z;
                }
                nn -= 2;
                break;
            }
            // No deflation yet: one double-shift QR sweep.
            if its == 60 {
                return Err(QrNoConvergence { block: nn });
            }
            if its == 10 || its == 20 || its == 30 || its == 40 || its == 50 {
                // Exceptional shift to break symmetry-induced cycles.
                t += x;
                for i in 1..=nn {
                    a[i][i] -= x;
                }
                s = a[nn][nn - 1].abs() + a[nn - 1][nn - 2].abs();
                x = 0.75 * s;
                y = x;
                w = -0.4375 * s * s;
            }
            its += 1;
            // Find two consecutive small subdiagonals.
            let mut m = nn - 2;
            p = 0.0;
            q = 0.0;
            r = 0.0;
            while m >= l {
                z = a[m][m];
                let rr = x - z;
                let ss = y - z;
                p = (rr * ss - w) / a[m + 1][m] + a[m][m + 1];
                q = a[m + 1][m + 1] - z - rr - ss;
                r = a[m + 2][m + 1];
                let scale = p.abs() + q.abs() + r.abs();
                p /= scale;
                q /= scale;
                r /= scale;
                if m == l {
                    break;
                }
                let u = a[m][m - 1].abs() * (q.abs() + r.abs());
                let v = p.abs() * (a[m - 1][m - 1].abs() + z.abs() + a[m + 1][m + 1].abs());
                if u + v == v {
                    break;
                }
                m -= 1;
            }
            for i in m + 2..=nn {
                a[i][i - 2] = 0.0;
                if i != m + 2 {
                    a[i][i - 3] = 0.0;
                }
            }
            // The bulge-chasing sweep.
            for k in m..=nn - 1 {
                if k != m {
                    p = a[k][k - 1];
                    q = a[k + 1][k - 1];
                    r = 0.0;
                    if k != nn - 1 {
                        r = a[k + 2][k - 1];
                    }
                    x = p.abs() + q.abs() + r.abs();
                    if x != 0.0 {
                        p /= x;
                        q /= x;
                        r /= x;
                    }
                }
                s = (p * p + q * q + r * r).sqrt().copysign(p);
                if s != 0.0 {
                    if k == m {
                        if l != m {
                            a[k][k - 1] = -a[k][k - 1];
                        }
                    } else {
                        a[k][k - 1] = -s * x;
                    }
                    p += s;
                    x = p / s;
                    y = q / s;
                    z = r / s;
                    q /= p;
                    r /= p;
                    for j in k..=nn {
                        p = a[k][j] + q * a[k + 1][j];
                        if k != nn - 1 {
                            p += r * a[k + 2][j];
                            a[k + 2][j] -= p * z;
                        }
                        a[k + 1][j] -= p * y;
                        a[k][j] -= p * x;
                    }
                    let mmin = if nn < k + 3 { nn } else { k + 3 };
                    for i in l..=mmin {
                        p = x * a[i][k] + y * a[i][k + 1];
                        if k != nn - 1 {
                            p += z * a[i][k + 2];
                            a[i][k + 2] -= p * r;
                        }
                        a[i][k + 1] -= p * q;
                        a[i][k] -= p;
                    }
                }
            }
        }
    }

    Ok((1..=n)
        .map(|i| Complex {
            re: wr[i],
            im: wi[i],
        })
        .collect())
}

/// Sort eigenvalues by (real part, imaginary part) — stable order for tests
/// and reporting.
pub fn sort_eigenvalues(eigs: &mut [Complex]) {
    eigs.sort_by(|a, b| {
        a.re.partial_cmp(&b.re)
            .unwrap()
            .then(a.im.partial_cmp(&b.im).unwrap())
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_spectrum(h: &DenseMat<f64>, expected: &mut [Complex], tol: f64) {
        let mut eigs = hessenberg_eigenvalues(h).expect("QR must converge");
        sort_eigenvalues(&mut eigs);
        sort_eigenvalues(expected);
        assert_eq!(eigs.len(), expected.len());
        for (e, x) in eigs.iter().zip(expected.iter()) {
            assert!(
                (e.re - x.re).abs() < tol && (e.im - x.im).abs() < tol,
                "eig {e:?} vs expected {x:?}"
            );
        }
    }

    #[test]
    fn upper_triangular_diagonal_is_spectrum() {
        let h = DenseMat::from_fn(4, 4, |r, c| {
            if r == c {
                (r + 1) as f64
            } else if c > r {
                0.5
            } else {
                0.0
            }
        });
        let mut expect: Vec<Complex> = (1..=4)
            .map(|k| Complex {
                re: k as f64,
                im: 0.0,
            })
            .collect();
        assert_spectrum(&h, &mut expect, 1e-10);
    }

    #[test]
    fn rotation_block_gives_complex_pair() {
        // [[a, b], [-b, a]] has eigenvalues a +- bi.
        let (a, b) = (1.5f64, 2.0f64);
        let h = DenseMat::from_col_major(2, 2, vec![a, -b, b, a]);
        let mut expect = vec![Complex { re: a, im: b }, Complex { re: a, im: -b }];
        assert_spectrum(&h, &mut expect, 1e-12);
    }

    #[test]
    fn companion_matrix_recovers_roots() {
        // p(x) = (x-1)(x-2)(x-3)(x-4) = x^4 - 10x^3 + 35x^2 - 50x + 24.
        // Companion matrix (upper Hessenberg).
        let coeffs = [24.0, -50.0, 35.0, -10.0]; // c0..c3 of monic poly
        let n = 4;
        let mut h = DenseMat::<f64>::zeros(n, n);
        for i in 0..n {
            h[(i, n - 1)] = -coeffs[i];
        }
        for i in 1..n {
            h[(i, i - 1)] = 1.0;
        }
        let mut expect: Vec<Complex> = (1..=4)
            .map(|k| Complex {
                re: k as f64,
                im: 0.0,
            })
            .collect();
        assert_spectrum(&h, &mut expect, 1e-8);
    }

    #[test]
    fn symmetric_tridiagonal_laplacian_spectrum() {
        // tridiag(-1, 2, -1) of size n has eigenvalues 2 - 2 cos(k pi/(n+1)).
        let n = 12;
        let h = DenseMat::from_fn(n, n, |r, c| {
            if r == c {
                2.0
            } else if r.abs_diff(c) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let mut expect: Vec<Complex> = (1..=n)
            .map(|k| Complex {
                re: 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos(),
                im: 0.0,
            })
            .collect();
        assert_spectrum(&h, &mut expect, 1e-9);
    }

    #[test]
    fn complex_pairs_are_conjugates() {
        // Random-ish Hessenberg; whatever the spectrum is, complex values
        // must come in conjugate pairs and the trace must match.
        let n = 7;
        let h = DenseMat::from_fn(n, n, |r, c| {
            if c + 1 >= r {
                (((r * 31 + c * 17) % 13) as f64 - 6.0) / 3.0
            } else {
                0.0
            }
        });
        let eigs = hessenberg_eigenvalues(&h).unwrap();
        let trace: f64 = (0..n).map(|i| h[(i, i)]).sum();
        let eig_sum: f64 = eigs.iter().map(|e| e.re).sum();
        assert!((trace - eig_sum).abs() < 1e-8, "trace {trace} vs {eig_sum}");
        let im_sum: f64 = eigs.iter().map(|e| e.im).sum();
        assert!(im_sum.abs() < 1e-8);
    }

    #[test]
    fn empty_and_single() {
        assert!(hessenberg_eigenvalues(&DenseMat::<f64>::zeros(0, 0))
            .unwrap()
            .is_empty());
        let one = DenseMat::from_col_major(1, 1, vec![42.0]);
        let e = hessenberg_eigenvalues(&one).unwrap();
        assert_eq!(e[0], Complex { re: 42.0, im: 0.0 });
    }

    #[test]
    fn zero_matrix() {
        let z = DenseMat::<f64>::zeros(5, 5);
        let eigs = hessenberg_eigenvalues(&z).unwrap();
        assert!(eigs.iter().all(|e| e.re == 0.0 && e.im == 0.0));
    }
}
