//! Property-based tests for the linear algebra substrate.

use mpgmres_la::{
    coo::Coo,
    csr::Csr,
    dense::{DenseMat, LuFactors},
    givens::GivensLsq,
    multivector::MultiVector,
    rcm::{bandwidth, rcm},
    vec_ops::{dot_ordered, norm2, ReductionOrder},
};
use proptest::prelude::*;

/// Strategy: a random sparse square matrix as a triplet list.
fn sparse_matrix(n: usize, max_entries: usize) -> impl Strategy<Value = Csr<f64>> {
    proptest::collection::vec((0..n, 0..n, -2.0f64..2.0), 1..max_entries).prop_map(move |trips| {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0); // keep it nonsingular-ish and every row nonempty
        }
        for (r, c, v) in trips {
            coo.push(r, c, v);
        }
        coo.into_csr()
    })
}

proptest! {
    /// Reduction order changes the result by at most a tiny relative error.
    #[test]
    fn dot_reduction_orders_agree_within_bound(
        xs in proptest::collection::vec(-1.0f64..1.0, 1..400),
        block in 1usize..64,
    ) {
        let ys: Vec<f64> = xs.iter().map(|v| 1.0 - v * 0.5).collect();
        let seq = dot_ordered(&xs, &ys, ReductionOrder::Sequential);
        let tree = dot_ordered(&xs, &ys, ReductionOrder::BlockedTree { block });
        let scale: f64 = xs.iter().zip(&ys).map(|(a, b)| (a * b).abs()).sum::<f64>().max(1e-300);
        prop_assert!((seq - tree).abs() <= 1e-13 * scale,
            "orders disagree: {seq} vs {tree}");
    }

    /// SpMV linearity: A(ax + by) == a Ax + b Ay.
    #[test]
    fn spmv_is_linear(a in sparse_matrix(12, 40), alpha in -2.0f64..2.0, beta in -2.0f64..2.0) {
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) % 5) as f64 - 2.0).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 3 + 2) % 7) as f64 - 3.0).collect();
        let mut ax = vec![0.0; n];
        let mut ay = vec![0.0; n];
        a.spmv(&x, &mut ax);
        a.spmv(&y, &mut ay);
        let combo: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| alpha * xi + beta * yi).collect();
        let mut acombo = vec![0.0; n];
        a.spmv(&combo, &mut acombo);
        for i in 0..n {
            let expect = alpha * ax[i] + beta * ay[i];
            prop_assert!((acombo[i] - expect).abs() < 1e-10 * expect.abs().max(1.0));
        }
    }

    /// Transpose is an involution and preserves the Frobenius norm.
    #[test]
    fn transpose_involution(a in sparse_matrix(10, 30)) {
        let att = a.transpose().transpose();
        prop_assert_eq!(att.row_ptr(), a.row_ptr());
        prop_assert_eq!(att.col_idx(), a.col_idx());
        prop_assert!((att.frobenius_norm() - a.frobenius_norm()).abs() < 1e-12);
    }

    /// x^T (A y) == (A^T x)^T y for all x, y.
    #[test]
    fn transpose_adjoint_identity(a in sparse_matrix(9, 25)) {
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos()).collect();
        let mut ay = vec![0.0; n];
        a.spmv(&y, &mut ay);
        let lhs: f64 = x.iter().zip(&ay).map(|(a, b)| a * b).sum();
        let at = a.transpose();
        let mut atx = vec![0.0; n];
        at.spmv(&x, &mut atx);
        let rhs: f64 = atx.iter().zip(&y).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }

    /// LU solve actually solves: ||Ax - b|| small for diagonally dominant A.
    #[test]
    fn lu_solves_dd_systems(seed in 0u64..1000) {
        let n = 6;
        let mut a = DenseMat::<f64>::zeros(n, n);
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut rnd = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for c in 0..n {
            for r in 0..n {
                a[(r, c)] = rnd();
            }
        }
        for i in 0..n {
            a[(i, i)] += n as f64; // diagonal dominance
        }
        let b: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&b);
        let mut ax = vec![0.0; n];
        a.matvec(&x, &mut ax);
        for i in 0..n {
            prop_assert!((ax[i] - b[i]).abs() < 1e-9);
        }
    }

    /// Givens least squares: perturbing the solution never reduces the
    /// residual (optimality of the minimizer).
    #[test]
    fn givens_solution_is_minimizer(
        cols in proptest::collection::vec(proptest::collection::vec(-1.0f64..1.0, 6), 3),
        delta in -0.1f64..0.1,
        comp in 0usize..3,
    ) {
        // Build a 4x3 Hessenberg-shaped LS problem with subdiagonals forced
        // nonzero to avoid degenerate pivots.
        let m = 3;
        let gamma = 1.0;
        let mut lsq = GivensLsq::new(m, gamma);
        let mut dense = DenseMat::<f64>::zeros(m + 1, m);
        for (j, col) in cols.iter().enumerate() {
            let mut h: Vec<f64> = col[..j + 2].to_vec();
            h[j + 1] = h[j + 1].abs() + 0.5; // safe subdiagonal
            for (i, &v) in h.iter().enumerate() {
                dense[(i, j)] = v;
            }
            lsq.push_column(&h);
        }
        prop_assume!(!lsq.is_degenerate());
        let y = lsq.solve(m);
        let resid = |yv: &[f64]| -> f64 {
            let mut hy = vec![0.0; m + 1];
            dense.matvec(yv, &mut hy);
            hy[0] -= gamma;
            norm2(&hy)
        };
        let base = resid(&y);
        let mut y2 = y.clone();
        y2[comp] += delta;
        prop_assert!(resid(&y2) + 1e-12 >= base,
            "perturbed residual beat the minimizer");
    }

    /// RCM output is always a permutation and never increases bandwidth
    /// for banded inputs scrambled by a random permutation.
    #[test]
    fn rcm_permutation_property(n in 2usize..40, mult in 1usize..20) {
        // Build a path graph scrambled by the permutation i -> (i*mult+3) mod n
        // (bijective when gcd(mult, n) == 1).
        prop_assume!(gcd(mult, n) == 1);
        let mut coo = Coo::new(n, n);
        let id = |i: usize| (i * mult + 3) % n;
        for i in 0..n {
            coo.push(id(i), id(i), 2.0f64);
            if i + 1 < n {
                coo.push(id(i), id(i + 1), -1.0);
                coo.push(id(i + 1), id(i), -1.0);
            }
        }
        let a = coo.into_csr();
        let p = rcm(&a);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        let permuted = a.permute_sym(&p);
        prop_assert!(bandwidth(&permuted) <= bandwidth(&a));
        prop_assert_eq!(bandwidth(&permuted), 1, "path graph must recover bandwidth 1");
    }

    /// The column-blocked GEMV-T equals a per-column `dot_ordered` bit
    /// for bit: ragged column groups (0..=9 columns), `n` below, equal
    /// to, a multiple of, and off a multiple of the reduction block, and
    /// both reduction orders.
    #[test]
    fn gemv_t_bitwise_equals_per_column_dots(
        ncols in 0usize..=9,
        block in 1usize..40,
        shape in 0usize..4,
        extra in 1usize..40,
        salt in 0u64..1000,
    ) {
        let n = match shape {
            0 => block - 1,
            1 => block,
            2 => 3 * block,
            _ => 3 * block + extra % block.max(2),
        };
        let mut s = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        let mut v = MultiVector::<f64>::zeros(n, 9);
        for j in 0..9 {
            let col: Vec<f64> = (0..n).map(|_| next()).collect();
            v.set_col(j, &col);
        }
        let w: Vec<f64> = (0..n).map(|_| next()).collect();
        for order in [ReductionOrder::Sequential, ReductionOrder::BlockedTree { block }] {
            let mut h = vec![f64::NAN; ncols];
            v.gemv_t(ncols, &w, &mut h, order);
            for (j, hj) in h.iter().enumerate() {
                let want = dot_ordered(v.col(j), &w, order);
                prop_assert_eq!(hj.to_bits(), want.to_bits(), "col {} of {} at n={} {:?}", j, ncols, n, order);
            }
        }
    }

    /// COO assembly sums duplicates exactly like a dense accumulation.
    #[test]
    fn coo_assembly_matches_dense(trips in proptest::collection::vec((0usize..5, 0usize..5, -3.0f64..3.0), 0..60)) {
        let mut dense = [[0.0f64; 5]; 5];
        let mut coo = Coo::new(5, 5);
        for &(r, c, v) in &trips {
            dense[r][c] += v;
            coo.push(r, c, v);
        }
        let a = coo.into_csr();
        let x = [1.0, -1.0, 0.5, 2.0, -0.25];
        let mut y = [0.0f64; 5];
        a.spmv(&x, &mut y);
        for r in 0..5 {
            let expect: f64 = (0..5).map(|c| dense[r][c] * x[c]).sum();
            prop_assert!((y[r] - expect).abs() < 1e-10);
        }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
