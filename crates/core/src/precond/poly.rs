//! GMRES polynomial preconditioner (paper §III-D, ref. \[16\]).
//!
//! Builds `M = p(A) ~ A^{-1}` from a `d`-step Arnoldi process:
//!
//! 1. Run `d` Arnoldi steps on `(A, b)` to get the rectangular Hessenberg
//!    matrix `Hbar`.
//! 2. The roots of the degree-`d` GMRES *residual* polynomial are the
//!    **harmonic Ritz values** — eigenvalues of
//!    `H + h_{d+1,d}^2 (H^-T e_d) e_d^T`, still upper Hessenberg, solved
//!    with the Francis QR sweep from `mpgmres_la::eig`.
//! 3. Order the roots by **modified Leja ordering** (max-product spacing,
//!    conjugate pairs kept adjacent) for numerically stable application.
//! 4. Apply via the product form: with `R(z) = prod_i (1 - z/theta_i)`
//!    and `p(z) = (1 - R(z))/z`, accumulate
//!    `y += prod / theta_i ; prod -= (A prod)/theta_i`, fusing complex
//!    conjugate pairs into real quadratic updates.
//!
//! The polynomial costs `d - 1` SpMVs per application (plus the outer
//! solver's own SpMV), which is why polynomial preconditioning shifts the
//! timing profile toward SpMV (Fig. 7) — exactly where fp32 wins biggest.

use crate::context::{GpuContext, GpuMatrix};
use crate::precond::Preconditioner;
use crate::Stream;
use mpgmres_backend::BackendScalar;
use mpgmres_la::basis::BasisStore;
use mpgmres_la::dense::{DenseMat, LuFactors};
use mpgmres_la::eig::{hessenberg_eigenvalues, Complex};
use mpgmres_la::givens::GivensLsq;

/// Errors from polynomial construction.
#[derive(Clone, Debug, PartialEq)]
pub enum PolyError {
    /// Arnoldi broke down before reaching the requested degree with too
    /// few roots to build a useful polynomial.
    EarlyBreakdown {
        /// Steps completed before breakdown.
        steps: usize,
    },
    /// The projected eigenproblem failed (QR non-convergence) or produced
    /// a root at the origin (singular polynomial).
    BadSpectrum(String),
}

impl core::fmt::Display for PolyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PolyError::EarlyBreakdown { steps } => {
                write!(f, "Arnoldi broke down after {steps} steps")
            }
            PolyError::BadSpectrum(msg) => write!(f, "harmonic Ritz computation failed: {msg}"),
        }
    }
}

impl std::error::Error for PolyError {}

/// The GMRES polynomial preconditioner.
#[derive(Clone, Debug)]
pub struct PolyPreconditioner {
    /// Leja-ordered harmonic Ritz values; conjugate pairs adjacent with
    /// the positive-imaginary member first.
    roots: Vec<Complex>,
    /// Requested degree (== Arnoldi steps run).
    degree: usize,
    /// Simulated seconds spent in construction (reported separately; the
    /// paper excludes polynomial creation from solve times, §V-C).
    setup_seconds: f64,
    /// The Arnoldi least-squares residual `||b - A p(A) b|| / ||b||` the
    /// polynomial achieves on its own seed (in exact arithmetic the
    /// product form reproduces it; tests verify).
    seed_residual_rel: f64,
}

impl PolyPreconditioner {
    /// Build a degree-`degree` GMRES polynomial for `A`, seeding the
    /// Arnoldi process with a deterministic pseudo-random vector.
    ///
    /// A random seed is the practice of the Trilinos implementation the
    /// paper builds on (ref. \[16\]): a structured seed such as the
    /// right-hand side of a PDE problem is nearly deficient in
    /// high-frequency eigencomponents, which leaves the GMRES residual
    /// polynomial unconstrained on part of the spectrum — `A p(A)` then
    /// has wild or negative eigenvalues and the preconditioned solver
    /// stagnates. A random seed touches every eigendirection.
    pub fn build_auto_seed<S: BackendScalar>(
        ctx: &mut GpuContext,
        a: &GpuMatrix<S>,
        degree: usize,
    ) -> Result<Self, PolyError> {
        // Deterministic full-spectrum seed (splitmix64 stream).
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let seed: Vec<S> = (0..a.n())
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                S::from_f64((z >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
            })
            .collect();
        Self::build(ctx, a, degree, &seed)
    }

    /// Build a degree-`degree` GMRES polynomial for `A` with an explicit
    /// Arnoldi seed vector (see [`PolyPreconditioner::build_auto_seed`]
    /// for why the seed should have full spectral support).
    ///
    /// All vector work runs in precision `S` through the instrumented
    /// context (so an fp32 polynomial is "computed in fp32", §V-C), while
    /// the tiny projected eigenproblem is solved in f64.
    pub fn build<S: BackendScalar>(
        ctx: &mut GpuContext,
        a: &GpuMatrix<S>,
        degree: usize,
        b: &[S],
    ) -> Result<Self, PolyError> {
        assert!(degree >= 1, "polynomial degree must be >= 1");
        assert_eq!(b.len(), a.n(), "seed length mismatch");
        let t0 = ctx.elapsed();
        let n = a.n();
        let m = degree;

        // Arnoldi with CGS2 (same kernels as the solver), each step one
        // eager stream ending in the norm the host branches on.
        let mut v = BasisStore::<S>::native(n, m + 1);
        let mut w = vec![S::zero(); n];
        let mut h1 = vec![S::zero(); m];
        let mut h2 = vec![S::zero(); m];
        let mut hbar = DenseMat::<f64>::zeros(m + 1, m);

        let mut beta = S::zero();
        {
            let mut st = Stream::eager(ctx);
            let (bh, nh) = (st.slice(b), st.val_mut(&mut beta));
            st.norm2_into(bh, nh);
        }
        if !(beta.to_f64() > 0.0) {
            return Err(PolyError::EarlyBreakdown { steps: 0 });
        }
        scaled_col(ctx, &mut v, 0, b, S::from_f64(1.0 / beta.to_f64()));
        // The Givens recurrence is not needed for the roots, but running it
        // keeps a cheap sanity check on the LS residual.
        let mut lsq = GivensLsq::new(m, beta);

        let mut steps = 0usize;
        for j in 0..m {
            let ncols = j + 1;
            let mut hj1 = S::zero();
            {
                let mut st = Stream::eager(ctx);
                let (ah, vh) = (st.matrix(a), st.basis(&v));
                let vj = st.slice(v.expect_native().col(j));
                let wh = st.slice_mut(&mut w);
                let (h1h, h2h) = (st.slice_mut(&mut h1), st.slice_mut(&mut h2));
                let nh = st.val_mut(&mut hj1);
                st.spmv(ah, vj, wh);
                st.gemv_t(vh, ncols, wh.read(), h1h);
                st.gemv_n_sub(vh, ncols, h1h.read(), wh);
                st.gemv_t(vh, ncols, wh.read(), h2h);
                st.gemv_n_sub(vh, ncols, h2h.read(), wh);
                st.norm2_into(wh.read(), nh);
            }
            let mut hcol = vec![S::zero(); ncols + 1];
            for i in 0..ncols {
                hcol[i] = h1[i] + h2[i];
                hbar[(i, j)] = hcol[i].to_f64();
            }
            hcol[ncols] = hj1;
            hbar[(ncols, j)] = hj1.to_f64();
            lsq.push_column(&hcol);
            steps = j + 1;
            if hj1.to_f64() <= 0.0 || !hj1.is_finite() {
                break;
            }
            scaled_col(ctx, &mut v, j + 1, &w, S::from_f64(1.0 / hj1.to_f64()));
        }
        if steps < 1 {
            return Err(PolyError::EarlyBreakdown { steps });
        }
        let d = steps;

        // Harmonic Ritz values: eig(H + h^2 * (H^-T e_d) e_d^T).
        let hd = DenseMat::from_fn(d, d, |r, c| hbar[(r, c)]);
        let ht = hd.transpose();
        let lu = LuFactors::factor(&ht)
            .map_err(|e| PolyError::BadSpectrum(format!("H^T singular: {e}")))?;
        let mut g = vec![0.0f64; d];
        g[d - 1] = 1.0;
        lu.solve_in_place(&mut g);
        let h2_corner = hbar[(d, d - 1)] * hbar[(d, d - 1)];
        let mut modified = hd.clone();
        for r in 0..d {
            modified[(r, d - 1)] += h2_corner * g[r];
        }
        ctx.charge_host_flops(2 * d * d * d / 3 + 10 * d * d);
        let mut roots =
            hessenberg_eigenvalues(&modified).map_err(|e| PolyError::BadSpectrum(e.to_string()))?;
        if roots
            .iter()
            .any(|r| r.abs() == 0.0 || !r.re.is_finite() || !r.im.is_finite())
        {
            return Err(PolyError::BadSpectrum(
                "root at origin or non-finite".into(),
            ));
        }
        normalize_conjugates(&mut roots);
        let roots = modified_leja_order(&roots);

        Ok(PolyPreconditioner {
            roots,
            degree,
            setup_seconds: ctx.elapsed() - t0,
            seed_residual_rel: lsq.implicit_residual().to_f64() / beta.to_f64(),
        })
    }

    /// The Leja-ordered harmonic Ritz values.
    pub fn roots(&self) -> &[Complex] {
        &self.roots
    }

    /// Requested polynomial degree.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Simulated seconds the construction took (the paper reports ~0.5 s
    /// for its degree-40 cases and excludes it from solve time).
    pub fn setup_seconds(&self) -> f64 {
        self.setup_seconds
    }

    /// The GMRES least-squares residual the degree-`d` polynomial attains
    /// on its Arnoldi seed, `||b - A p(A) b|| / ||b||`.
    pub fn seed_residual_rel(&self) -> f64 {
        self.seed_residual_rel
    }
}

/// `v[:, j] = src`, then `v[:, j] *= alpha` on an eager stream (the
/// copy is host-side and uncharged, the scaling a charged `scal`).
fn scaled_col<S: BackendScalar>(
    ctx: &mut GpuContext,
    v: &mut BasisStore<S>,
    j: usize,
    src: &[S],
    alpha: S,
) {
    let col = v.expect_native_mut().col_mut(j);
    col.copy_from_slice(src);
    let mut st = Stream::eager(ctx);
    let ch = st.slice_mut(col);
    st.scal(alpha, ch);
}

/// Force exact conjugate pairing (QR output can differ in the last ulp)
/// and put the positive-imaginary member first.
fn normalize_conjugates(roots: &mut [Complex]) {
    let mut i = 0;
    while i < roots.len() {
        if roots[i].im != 0.0 && i + 1 < roots.len() {
            let (a, b) = (roots[i], roots[i + 1]);
            let re = 0.5 * (a.re + b.re);
            let im = 0.5 * (a.im.abs() + b.im.abs());
            roots[i] = Complex { re, im };
            roots[i + 1] = Complex { re, im: -im };
            i += 2;
        } else {
            i += 1;
        }
    }
}

/// Modified Leja ordering: greedily maximize the product of distances to
/// already-chosen points (in log space), keeping conjugate pairs adjacent.
fn modified_leja_order(roots: &[Complex]) -> Vec<Complex> {
    // Work on unique representatives: reals alone, complex pairs as the
    // positive-imaginary member.
    let mut items: Vec<Complex> = Vec::new();
    let mut i = 0;
    while i < roots.len() {
        let r = roots[i];
        if r.im != 0.0 {
            items.push(Complex {
                re: r.re,
                im: r.im.abs(),
            });
            i += 2;
        } else {
            items.push(r);
            i += 1;
        }
    }
    let mut chosen: Vec<Complex> = Vec::with_capacity(roots.len());
    let mut used = vec![false; items.len()];

    // Start from the largest magnitude.
    let first = (0..items.len())
        .max_by(|&a, &b| items[a].abs().partial_cmp(&items[b].abs()).unwrap())
        .unwrap();
    push_with_conjugate(&mut chosen, items[first]);
    used[first] = true;

    while used.iter().any(|&u| !u) {
        let mut best: Option<(usize, f64)> = None;
        for (idx, item) in items.iter().enumerate() {
            if used[idx] {
                continue;
            }
            // Sum of log-distances to every already-chosen point.
            let mut score = 0.0f64;
            for c in &chosen {
                let d = ((item.re - c.re).powi(2) + (item.im - c.im).powi(2)).sqrt();
                score += d.max(1e-300).ln();
            }
            if best.map(|(_, s)| score > s).unwrap_or(true) {
                best = Some((idx, score));
            }
        }
        let (idx, _) = best.expect("unused item must exist");
        push_with_conjugate(&mut chosen, items[idx]);
        used[idx] = true;
    }
    chosen
}

fn push_with_conjugate(chosen: &mut Vec<Complex>, z: Complex) {
    chosen.push(z);
    if z.im != 0.0 {
        chosen.push(Complex {
            re: z.re,
            im: -z.im,
        });
    }
}

impl<S: BackendScalar> Preconditioner<S> for PolyPreconditioner {
    fn apply(&self, ctx: &mut GpuContext, a: Option<&GpuMatrix<S>>, x: &[S], y: &mut [S]) {
        let a = a.expect("polynomial preconditioner needs the plain matrix");
        let n = x.len();
        debug_assert_eq!(y.len(), n);
        let mut prod = x.to_vec();
        let mut t = vec![S::zero(); n];
        let mut t2 = vec![S::zero(); n];
        for yi in y.iter_mut() {
            *yi = S::zero();
        }
        // One eager stream: every op runs and charges at its record call.
        let mut st = Stream::eager(ctx);
        let ah = st.matrix(a);
        let (yh, ph) = (st.slice_mut(y), st.slice_mut(&mut prod));
        let (th, t2h) = (st.slice_mut(&mut t), st.slice_mut(&mut t2));
        let d = self.roots.len();
        let mut i = 0;
        while i < d {
            let theta = self.roots[i];
            let last_real = i + 1 >= d;
            let last_pair = i + 2 >= d;
            if theta.im == 0.0 {
                let inv = S::from_f64(1.0 / theta.re);
                // y += prod / theta.
                st.axpy(inv, ph.read(), yh);
                if !last_real {
                    // prod -= (A prod) / theta.
                    st.spmv(ah, ph.read(), th);
                    st.axpy(S::from_f64(-1.0 / theta.re), th.read(), ph);
                }
                i += 1;
            } else {
                // Conjugate pair: combine into real arithmetic.
                let two_a = 2.0 * theta.re;
                let mag2 = theta.abs2();
                st.spmv(ah, ph.read(), th);
                // y += (2a * prod - A prod) / |theta|^2.
                st.axpy(S::from_f64(two_a / mag2), ph.read(), yh);
                st.axpy(S::from_f64(-1.0 / mag2), th.read(), yh);
                if !last_pair {
                    // prod -= (2a * (A prod) - A^2 prod) / |theta|^2.
                    st.spmv(ah, th.read(), t2h);
                    st.axpy(S::from_f64(-two_a / mag2), th.read(), ph);
                    st.axpy(S::from_f64(1.0 / mag2), t2h.read(), ph);
                }
                i += 2;
            }
        }
    }

    fn describe(&self) -> String {
        format!("poly({})", self.degree)
    }

    fn spmvs_per_apply(&self) -> usize {
        // Real roots cost one SpMV each except the last; a conjugate pair
        // costs two except the trailing pair which costs one.
        self.degree.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpgmres_gpusim::DeviceModel;
    use mpgmres_la::coo::Coo;
    use mpgmres_la::vec_ops::{norm2, ReductionOrder};

    fn ctx() -> GpuContext {
        GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::Sequential)
    }

    fn spd_tridiag(n: usize) -> GpuMatrix<f64> {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        GpuMatrix::new(coo.into_csr())
    }

    fn nonsym(n: usize) -> GpuMatrix<f64> {
        // Tridiagonal Toeplitz with opposite-sign off-diagonals: its
        // spectrum is genuinely complex (4 + 2 sqrt(ac) cos(..) with
        // ac < 0).
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i > 0 {
                coo.push(i, i - 1, -1.8);
            }
            if i + 1 < n {
                coo.push(i, i + 1, 0.4);
            }
        }
        GpuMatrix::new(coo.into_csr())
    }

    /// Diagonally dominant SPD tridiagonal: GMRES converges fast, so a
    /// modest-degree polynomial is already a strong approximate inverse.
    fn dd_tridiag(n: usize) -> GpuMatrix<f64> {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        GpuMatrix::new(coo.into_csr())
    }

    #[test]
    fn full_degree_polynomial_is_exact_inverse() {
        // With degree = n, the harmonic Ritz values are the eigenvalues,
        // R(A) annihilates the Krylov space of b, so A p(A) b = b.
        let n = 10;
        let a = spd_tridiag(n);
        let b = vec![1.0f64; n];
        let mut c = ctx();
        let p = PolyPreconditioner::build(&mut c, &a, n, &b).unwrap();
        let mut pb = vec![0.0; n];
        Preconditioner::apply(&p, &mut c, Some(&a), &b, &mut pb);
        let mut apb = vec![0.0; n];
        a.csr().spmv(&pb, &mut apb);
        let err: f64 = apb
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-7 * norm2(&b), "A p(A) b != b: err {err:e}");
    }

    #[test]
    fn nonsymmetric_matrix_gets_complex_roots_and_still_works() {
        let n = 12;
        let a = nonsym(n);
        let b = vec![1.0f64; n];
        let mut c = ctx();
        let p = PolyPreconditioner::build(&mut c, &a, n, &b).unwrap();
        // Conjugate pairs must be adjacent and exact conjugates.
        let roots = p.roots();
        let mut i = 0;
        let mut saw_complex = false;
        while i < roots.len() {
            if roots[i].im != 0.0 {
                saw_complex = true;
                assert!(i + 1 < roots.len(), "dangling complex root");
                assert_eq!(roots[i].re, roots[i + 1].re);
                assert_eq!(roots[i].im, -roots[i + 1].im);
                i += 2;
            } else {
                i += 1;
            }
        }
        // This lopsided operator genuinely has complex harmonic Ritz values.
        assert!(saw_complex, "expected complex roots for nonsymmetric A");
        let mut pb = vec![0.0; n];
        Preconditioner::apply(&p, &mut c, Some(&a), &b, &mut pb);
        let mut apb = vec![0.0; n];
        a.csr().spmv(&pb, &mut apb);
        let err: f64 = apb
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(
            err < 1e-6 * norm2(&b),
            "complex-pair application broken: {err:e}"
        );
    }

    #[test]
    fn low_degree_polynomial_reduces_condition() {
        // On a well-conditioned system, a modest-degree polynomial is a
        // strong approximate inverse: ||b - A p(A) b|| << ||b||.
        let n = 64;
        let a = dd_tridiag(n);
        let b = vec![1.0f64; n];
        let mut c = ctx();
        let p = PolyPreconditioner::build(&mut c, &a, 12, &b).unwrap();
        let mut pb = vec![0.0; n];
        Preconditioner::apply(&p, &mut c, Some(&a), &b, &mut pb);
        let mut apb = vec![0.0; n];
        a.csr().spmv(&pb, &mut apb);
        let err: f64 = apb
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(
            err < 1e-4 * norm2(&b),
            "degree-12 polynomial too weak: {err:e}"
        );
    }

    #[test]
    fn product_form_reproduces_arnoldi_ls_residual() {
        // In exact arithmetic the GMRES residual polynomial has its roots
        // at the harmonic Ritz values, so applying the product form to the
        // seed must reproduce the Arnoldi least-squares residual:
        // ||b - A p(A) b|| == lsq residual. This validates the whole
        // harmonic-Ritz -> Leja -> conjugate-pair-application chain.
        for (name, a) in [
            ("spd", spd_tridiag(40)),
            ("nonsym", nonsym(40)),
            ("dd", dd_tridiag(40)),
        ] {
            let n = a.n();
            let b = vec![1.0f64; n];
            let mut c = ctx();
            let p = PolyPreconditioner::build(&mut c, &a, 9, &b).unwrap();
            let mut pb = vec![0.0; n];
            Preconditioner::apply(&p, &mut c, Some(&a), &b, &mut pb);
            let mut apb = vec![0.0; n];
            a.csr().spmv(&pb, &mut apb);
            let err: f64 = apb
                .iter()
                .zip(&b)
                .map(|(x, y)| (x - y).powi(2))
                .sum::<f64>()
                .sqrt()
                / norm2(&b);
            let expect = p.seed_residual_rel();
            assert!(
                (err - expect).abs() <= 1e-8 + 0.02 * expect,
                "{name}: product form {err:e} vs LS residual {expect:e}"
            );
        }
    }

    #[test]
    fn leja_order_starts_at_max_magnitude() {
        let roots = vec![
            Complex { re: 1.0, im: 0.0 },
            Complex { re: 5.0, im: 0.0 },
            Complex { re: 2.0, im: 0.0 },
            Complex { re: 3.0, im: 0.0 },
        ];
        let ordered = modified_leja_order(&roots);
        assert_eq!(ordered[0].re, 5.0);
        // Second pick maximizes distance from 5 -> 1.
        assert_eq!(ordered[1].re, 1.0);
        assert_eq!(ordered.len(), 4);
    }

    #[test]
    fn leja_keeps_pairs_adjacent() {
        let roots = vec![
            Complex { re: 1.0, im: 2.0 },
            Complex { re: 1.0, im: -2.0 },
            Complex { re: 4.0, im: 0.0 },
            Complex { re: 0.5, im: 1.0 },
            Complex { re: 0.5, im: -1.0 },
        ];
        let ordered = modified_leja_order(&roots);
        assert_eq!(ordered.len(), 5);
        let mut i = 0;
        while i < ordered.len() {
            if ordered[i].im != 0.0 {
                assert_eq!(ordered[i].im, -ordered[i + 1].im);
                i += 2;
            } else {
                i += 1;
            }
        }
    }

    #[test]
    fn spmv_count_per_apply() {
        let n = 24;
        let a = spd_tridiag(n);
        let b = vec![1.0f64; n];
        let mut c = ctx();
        let p = PolyPreconditioner::build(&mut c, &a, 8, &b).unwrap();
        c.reset_profile();
        let mut y = vec![0.0; n];
        Preconditioner::apply(&p, &mut c, Some(&a), &b, &mut y);
        let spmvs = c
            .profiler()
            .class_stats(mpgmres_gpusim::KernelClass::SpMV)
            .calls;
        // degree-8 with real spectrum: 7 SpMVs (last root skips the update).
        assert_eq!(spmvs, 7);
        assert_eq!(
            <PolyPreconditioner as Preconditioner<f64>>::spmvs_per_apply(&p),
            7
        );
    }

    #[test]
    fn setup_time_recorded_separately() {
        let n = 16;
        let a = spd_tridiag(n);
        let b = vec![1.0f64; n];
        let mut c = ctx();
        let p = PolyPreconditioner::build(&mut c, &a, 6, &b).unwrap();
        assert!(p.setup_seconds() > 0.0);
    }

    #[test]
    fn zero_seed_errors() {
        let n = 8;
        let a = spd_tridiag(n);
        let b = vec![0.0f64; n];
        let mut c = ctx();
        let err = PolyPreconditioner::build(&mut c, &a, 4, &b).unwrap_err();
        assert!(matches!(err, PolyError::EarlyBreakdown { .. }));
    }

    #[test]
    fn fp32_polynomial_builds() {
        let n = 32;
        let a = spd_tridiag(n).convert::<f32>();
        let b = vec![1.0f32; n];
        let mut c = ctx();
        let p = PolyPreconditioner::build(&mut c, &a, 10, &b).unwrap();
        let mut y = vec![0.0f32; n];
        Preconditioner::apply(&p, &mut c, Some(&a), &b, &mut y);
        assert!(y.iter().all(|v| v.is_finite()));
    }
}
