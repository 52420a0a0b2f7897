//! Backend-parity property tests.
//!
//! Contract under test (see the crate docs): for every kernel,
//! `ParallelBackend` is **bit-identical** to `ReferenceBackend` under
//! `ReductionOrder::Sequential`, and agrees within a tight ULP bound
//! under `GPU_LIKE` (the implementation is in fact bit-identical there
//! too — block partials are order-independent — so the ULP bound is
//! asserted at zero ULPs via bit equality, with the documented bound
//! checked as the outer tolerance).

use mpgmres_backend::{BackendKind, ParallelBackend, ReferenceBackend, ScalarBackend};
use mpgmres_la::basis::BasisStore;
use mpgmres_la::coo::Coo;
use mpgmres_la::csr::Csr;
use mpgmres_la::multivec::MultiVec;
use mpgmres_la::multivector::MultiVector;
use mpgmres_la::par::{GEMV_PAR_THRESHOLD, SPMV_PAR_THRESHOLD};
use mpgmres_la::store::MatrixStore;
use mpgmres_la::vec_ops::{dot_ordered, ReductionOrder, PAR_THRESHOLD};
use mpgmres_scalar::{ulp_diff_f64, Half, Precision};
use proptest::prelude::*;

/// Rows at which [`banded_matrix`] (7 entries per interior row) clears
/// every parallel threshold — `PAR_THRESHOLD` elements,
/// `GEMV_PAR_THRESHOLD` rows and `SPMV_PAR_THRESHOLD` nonzeros — so the
/// parallel backend runs every kernel on the pool
/// ([`large_sizes_clear_the_parallel_thresholds`]).
const LARGE_N: usize = PAR_THRESHOLD + 64;

/// Sizes straddling the parallel thresholds: below all of them, above
/// the GEMV/SpMV ones but below the level-1 one, and above all.
const SIZES: [usize; 3] = [37, GEMV_PAR_THRESHOLD + 37, LARGE_N + 123];

#[test]
fn large_sizes_clear_the_parallel_thresholds() {
    const {
        assert!(SIZES[0] < GEMV_PAR_THRESHOLD);
        assert!(SIZES[1] >= GEMV_PAR_THRESHOLD && SIZES[1] < PAR_THRESHOLD);
        assert!(LARGE_N >= PAR_THRESHOLD && LARGE_N >= GEMV_PAR_THRESHOLD);
    };
    for n in [SIZES[1], LARGE_N] {
        let nnz = banded_matrix(n, 0).nnz();
        assert!(nnz >= SPMV_PAR_THRESHOLD, "n = {n}: {nnz} nnz");
    }
}

fn pseudo_vec(n: usize, salt: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let z = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

fn banded_matrix(n: usize, salt: u64) -> Csr<f64> {
    let mut coo = Coo::new(n, n);
    let off = [1usize, 2, 7];
    for i in 0..n {
        coo.push(
            i,
            i,
            4.0 + ((i.wrapping_mul(31).wrapping_add(salt as usize)) % 13) as f64 * 0.1,
        );
        for &d in &off {
            if i >= d {
                coo.push(i, i - d, -0.5);
            }
            if i + d < n {
                coo.push(i, i + d, -0.25);
            }
        }
    }
    coo.into_csr()
}

fn orders() -> [ReductionOrder; 3] {
    [
        ReductionOrder::Sequential,
        ReductionOrder::GPU_LIKE,
        ReductionOrder::BlockedTree { block: 37 },
    ]
}

/// Max ULP distance allowed under non-sequential orders (the documented
/// bound; the implementation achieves 0).
const GPU_LIKE_ULP_BOUND: u64 = 4;

#[test]
fn spmv_and_residual_bit_identical_at_all_sizes() {
    let reference = ReferenceBackend;
    let parallel = ParallelBackend::with_threads(2);
    for &n in &SIZES {
        let a = banded_matrix(n, 1);
        let x = pseudo_vec(n, 2);
        let b = pseudo_vec(n, 3);
        let (mut y_ref, mut y_par) = (vec![0.0; n], vec![0.0; n]);
        ScalarBackend::<f64>::spmv(&reference, &a, &x, &mut y_ref);
        ScalarBackend::<f64>::spmv(&parallel, &a, &x, &mut y_par);
        assert_eq!(y_ref, y_par, "spmv n={n}");
        ScalarBackend::<f64>::residual(&reference, &a, &b, &x, &mut y_ref);
        ScalarBackend::<f64>::residual(&parallel, &a, &b, &x, &mut y_par);
        assert_eq!(y_ref, y_par, "residual n={n}");
    }
}

#[test]
fn reductions_sequential_bit_identical_gpu_like_ulp_bounded() {
    let reference = ReferenceBackend;
    let parallel = ParallelBackend::new();
    for &n in &SIZES {
        let x = pseudo_vec(n, 4);
        let y = pseudo_vec(n, 5);
        for order in orders() {
            let d_ref = ScalarBackend::<f64>::dot(&reference, &x, &y, order);
            let d_par = ScalarBackend::<f64>::dot(&parallel, &x, &y, order);
            match order {
                ReductionOrder::Sequential => {
                    assert_eq!(d_ref.to_bits(), d_par.to_bits(), "dot n={n} sequential")
                }
                _ => assert!(
                    ulp_diff_f64(d_ref, d_par) <= GPU_LIKE_ULP_BOUND,
                    "dot n={n} {order:?}: {d_ref} vs {d_par}"
                ),
            }
            let n_ref = ScalarBackend::<f64>::norm2(&reference, &x, order);
            let n_par = ScalarBackend::<f64>::norm2(&parallel, &x, order);
            assert!(
                ulp_diff_f64(n_ref, n_par) <= GPU_LIKE_ULP_BOUND,
                "norm2 n={n} {order:?}"
            );
        }
    }
}

#[test]
fn gemv_and_level1_bit_identical_at_all_sizes() {
    let reference = ReferenceBackend;
    let parallel = ParallelBackend::with_threads(2);
    for &n in &SIZES {
        let cols = 6;
        let mut v = MultiVector::<f64>::zeros(n, cols);
        for j in 0..cols {
            let c = pseudo_vec(n, 20 + j as u64);
            v.col_mut(j).copy_from_slice(&c);
        }
        let w = pseudo_vec(n, 30);
        for order in orders() {
            let (mut h_ref, mut h_par) = (vec![0.0; cols], vec![0.0; cols]);
            ScalarBackend::<f64>::gemv_t(&reference, &v, cols, &w, &mut h_ref, order);
            ScalarBackend::<f64>::gemv_t(&parallel, &v, cols, &w, &mut h_par, order);
            assert_eq!(h_ref, h_par, "gemv_t n={n} {order:?}");

            let (mut w_ref, mut w_par) = (w.clone(), w.clone());
            ScalarBackend::<f64>::gemv_n_sub(&reference, &v, cols, &h_ref, &mut w_ref);
            ScalarBackend::<f64>::gemv_n_sub(&parallel, &v, cols, &h_par, &mut w_par);
            assert_eq!(w_ref, w_par, "gemv_n_sub n={n}");

            ScalarBackend::<f64>::gemv_n_add(&reference, &v, cols, &h_ref, &mut w_ref);
            ScalarBackend::<f64>::gemv_n_add(&parallel, &v, cols, &h_par, &mut w_par);
            assert_eq!(w_ref, w_par, "gemv_n_add n={n}");
        }
        // The same columns stored in fp32 and fp16: the compressed
        // GEMVs run serially below `GEMV_PAR_THRESHOLD` and on the pool
        // from it on.
        for p in [Precision::Fp32, Precision::Fp16] {
            let mut s = BasisStore::<f64>::compressed(n, cols, p);
            for j in 0..cols {
                s.set_col(j, v.col(j));
            }
            for order in orders() {
                let (mut h_ref, mut h_par) = (vec![0.0; cols], vec![0.0; cols]);
                ScalarBackend::<f64>::basis_gemv_t(&reference, &s, cols, &w, &mut h_ref, order);
                ScalarBackend::<f64>::basis_gemv_t(&parallel, &s, cols, &w, &mut h_par, order);
                assert_eq!(h_ref, h_par, "basis_gemv_t {p:?} n={n} {order:?}");

                let (mut w_ref, mut w_par) = (w.clone(), w.clone());
                ScalarBackend::<f64>::basis_gemv_n_sub(&reference, &s, cols, &h_ref, &mut w_ref);
                ScalarBackend::<f64>::basis_gemv_n_sub(&parallel, &s, cols, &h_par, &mut w_par);
                assert_eq!(w_ref, w_par, "basis_gemv_n_sub {p:?} n={n}");

                ScalarBackend::<f64>::basis_gemv_n_add(&reference, &s, cols, &h_ref, &mut w_ref);
                ScalarBackend::<f64>::basis_gemv_n_add(&parallel, &s, cols, &h_par, &mut w_par);
                assert_eq!(w_ref, w_par, "basis_gemv_n_add {p:?} n={n}");
            }
        }
        let x = pseudo_vec(n, 40);
        let (mut y_ref, mut y_par) = (pseudo_vec(n, 41), pseudo_vec(n, 41));
        ScalarBackend::<f64>::axpy(&reference, 1.37, &x, &mut y_ref);
        ScalarBackend::<f64>::axpy(&parallel, 1.37, &x, &mut y_par);
        assert_eq!(y_ref, y_par, "axpy n={n}");
        ScalarBackend::<f64>::scal(&reference, 0.93, &mut y_ref);
        ScalarBackend::<f64>::scal(&parallel, 0.93, &mut y_par);
        assert_eq!(y_ref, y_par, "scal n={n}");
        let (mut c_ref, mut c_par) = (vec![0.0; n], vec![0.0; n]);
        ScalarBackend::<f64>::copy(&reference, &y_ref, &mut c_ref);
        ScalarBackend::<f64>::copy(&parallel, &y_par, &mut c_par);
        assert_eq!(c_ref, c_par, "copy n={n}");
    }
}

#[test]
fn fp32_and_half_kernels_agree_across_backends() {
    let reference = ReferenceBackend;
    let parallel = ParallelBackend::with_threads(2);
    let n = LARGE_N + 7;
    let a64 = banded_matrix(n, 9);
    let a32 = a64.convert::<f32>();
    let x32: Vec<f32> = pseudo_vec(n, 10).iter().map(|&v| v as f32).collect();
    let (mut y_ref, mut y_par) = (vec![0.0f32; n], vec![0.0f32; n]);
    ScalarBackend::<f32>::spmv(&reference, &a32, &x32, &mut y_ref);
    ScalarBackend::<f32>::spmv(&parallel, &a32, &x32, &mut y_par);
    assert_eq!(y_ref, y_par, "fp32 spmv");

    use mpgmres_scalar::Half;
    let ah = a64.convert::<Half>();
    let xh: Vec<Half> = pseudo_vec(n, 11)
        .iter()
        .map(|&v| Half::from_f64(v))
        .collect();
    let (mut yh_ref, mut yh_par) = (vec![Half::from_f32(0.0); n], vec![Half::from_f32(0.0); n]);
    ScalarBackend::<Half>::spmv(&reference, &ah, &xh, &mut yh_ref);
    ScalarBackend::<Half>::spmv(&parallel, &ah, &xh, &mut yh_par);
    for (a, b) in yh_ref.iter().zip(&yh_par) {
        assert_eq!(a.to_bits(), b.to_bits(), "fp16 spmv");
    }
}

fn pseudo_block(n: usize, k: usize, salt: u64) -> MultiVec<f64> {
    let mut mv = MultiVec::<f64>::zeros(n, k);
    for j in 0..k {
        let c = pseudo_vec(n, salt + 17 * j as u64);
        mv.col_mut(j).copy_from_slice(&c);
    }
    mv
}

/// Multi-RHS contract, deterministic large case: fused SpMM and the
/// column-wise block reductions are bit-identical to k independent
/// single-vector calls on both backends, at a size that forces the
/// parallel backend onto multiple workers (nnz and n both above the
/// parallel thresholds).
#[test]
fn block_kernels_bit_identical_at_multi_worker_sizes() {
    let n = LARGE_N + 61;
    let k = 4;
    let a = banded_matrix(n, 3);
    assert!(n >= PAR_THRESHOLD && a.nnz() >= SPMV_PAR_THRESHOLD);
    let x = pseudo_block(n, k, 50);
    let y = pseudo_block(n, k, 90);
    let reference = ReferenceBackend;
    let parallel = ParallelBackend::with_threads(4);

    for backend in [&reference as &dyn ScalarBackend<f64>, &parallel] {
        let mut ym = MultiVec::<f64>::zeros(n, k);
        backend.spmm(&a, &x, k, &mut ym);
        for j in 0..k {
            let mut y_single = vec![0.0; n];
            backend.spmv(&a, x.col(j), &mut y_single);
            assert_eq!(ym.col(j), &y_single[..], "spmm col {j}");
        }
        for order in orders() {
            let mut dots = vec![0.0; k];
            backend.block_dot(&x, &y, k, &mut dots, order);
            let mut nrms = vec![0.0; k];
            backend.block_norm2(&x, k, &mut nrms, order);
            for j in 0..k {
                assert_eq!(
                    dots[j].to_bits(),
                    backend.dot(x.col(j), y.col(j), order).to_bits(),
                    "block_dot col {j} {order:?}"
                );
                assert_eq!(
                    nrms[j].to_bits(),
                    backend.norm2(x.col(j), order).to_bits(),
                    "block_norm2 col {j} {order:?}"
                );
            }
        }
    }
    // Cross-backend: the fused parallel SpMM equals the reference loop.
    let (mut y_ref, mut y_par) = (MultiVec::<f64>::zeros(n, k), MultiVec::<f64>::zeros(n, k));
    ScalarBackend::<f64>::spmm(&reference, &a, &x, k, &mut y_ref);
    ScalarBackend::<f64>::spmm(&parallel, &a, &x, k, &mut y_par);
    assert_eq!(y_ref.data(), y_par.data(), "cross-backend spmm");
}

/// Batched GEMV (one basis per column) is bit-identical to the
/// single-vector GEMVs it fuses, on both backends.
#[test]
fn block_gemv_bit_identical_to_column_gemvs() {
    let n = (1 << 14) + 11;
    let k = 3;
    let ncols = 5;
    let vs_owned: Vec<MultiVector<f64>> = (0..k)
        .map(|c| {
            let mut v = MultiVector::<f64>::zeros(n, ncols);
            for j in 0..ncols {
                let col = pseudo_vec(n, (c * 31 + j) as u64);
                v.col_mut(j).copy_from_slice(&col);
            }
            v
        })
        .collect();
    let vs: Vec<&MultiVector<f64>> = vs_owned.iter().collect();
    let w0 = pseudo_block(n, k, 7);
    let reference = ReferenceBackend;
    let parallel = ParallelBackend::with_threads(4);
    for backend in [&reference as &dyn ScalarBackend<f64>, &parallel] {
        for order in orders() {
            let mut h = vec![0.0; k * ncols];
            backend.block_gemv_t(&vs, ncols, &w0, &mut h, order);
            let mut w = w0.clone();
            backend.block_gemv_n_sub(&vs, ncols, &h, &mut w);
            backend.block_gemv_n_add(&vs, ncols, &h, &mut w);
            for c in 0..k {
                let mut h_single = vec![0.0; ncols];
                backend.gemv_t(vs[c], ncols, w0.col(c), &mut h_single, order);
                assert_eq!(
                    &h[c * ncols..(c + 1) * ncols],
                    &h_single[..],
                    "block_gemv_t col {c} {order:?}"
                );
                let mut w_single = w0.col(c).to_vec();
                backend.gemv_n_sub(vs[c], ncols, &h_single, &mut w_single);
                backend.gemv_n_add(vs[c], ncols, &h_single, &mut w_single);
                assert_eq!(w.col(c), &w_single[..], "block_gemv_n col {c} {order:?}");
            }
        }
    }
}

/// Lane-set kernels (the fused per-lane copy / normalize-and-store of
/// the lockstep multi-RHS driver): the parallel backend's fused override
/// is bit-identical to the reference default (copy then scal, per lane)
/// at sizes straddling the parallel threshold.
#[test]
fn lane_kernels_bit_identical_across_backends() {
    let reference = ReferenceBackend;
    let parallel = ParallelBackend::with_threads(4);
    for &n in &SIZES {
        let k = 3;
        let srcs_data: Vec<Vec<f64>> = (0..k).map(|j| pseudo_vec(n, 60 + j as u64)).collect();
        let srcs: Vec<&[f64]> = srcs_data.iter().map(|s| s.as_slice()).collect();
        let alpha = [0.5f64, -1.25, 3.5];

        let run = |backend: &dyn ScalarBackend<f64>| {
            let mut scaled: Vec<Vec<f64>> = (0..k).map(|_| vec![0.0; n]).collect();
            {
                let mut dsts: Vec<&mut [f64]> =
                    scaled.iter_mut().map(|d| d.as_mut_slice()).collect();
                backend.lane_scal_copy(&alpha, &srcs, &mut dsts);
            }
            let mut copied: Vec<Vec<f64>> = (0..k).map(|_| vec![0.0; n]).collect();
            {
                let mut dsts: Vec<&mut [f64]> =
                    copied.iter_mut().map(|d| d.as_mut_slice()).collect();
                backend.lane_copy(&srcs, &mut dsts);
            }
            (scaled, copied)
        };
        let (s_ref, c_ref) = run(&reference);
        let (s_par, c_par) = run(&parallel);
        assert_eq!(s_ref, s_par, "lane_scal_copy n={n}");
        assert_eq!(c_ref, c_par, "lane_copy n={n}");
        for j in 0..k {
            assert_eq!(c_ref[j], srcs_data[j], "lane_copy content n={n} lane {j}");
        }
    }
}

/// Every storage-path variant over one structure: plain (the working
/// precision), the two downcast shadows, and the magnitude split.
fn store_variants(a: &Csr<f64>) -> Vec<(&'static str, MatrixStore<f64>)> {
    vec![
        ("plain", MatrixStore::plain(a.clone())),
        ("shadow-fp32", MatrixStore::shadow(a, Precision::Fp32)),
        ("shadow-fp16", MatrixStore::shadow(a, Precision::Fp16)),
        ("split", MatrixStore::split_threshold(a, 1.0)),
    ]
}

/// Storage-path kernels (low-precision values, working-precision
/// accumulation): the backend `store_spmv`/`store_residual`/`store_spmm`
/// are bit-identical to the per-row scalar reference (the la-layer
/// store kernels) on BOTH backends, at sizes straddling the parallel
/// thresholds, for every storage variant.
#[test]
fn store_kernels_bit_identical_across_backends() {
    let reference = ReferenceBackend;
    let parallel = ParallelBackend::with_threads(4);
    for &n in &SIZES {
        let a = banded_matrix(n, 13);
        let x = pseudo_vec(n, 14);
        let b = pseudo_vec(n, 15);
        let k = 3;
        let xm = pseudo_block(n, k, 16);
        for (name, store) in store_variants(&a) {
            let mut y_la = vec![0.0; n];
            store.spmv(&x, &mut y_la);
            let mut r_la = vec![0.0; n];
            store.residual(&b, &x, &mut r_la);
            for (bname, backend) in [
                ("reference", &reference as &dyn ScalarBackend<f64>),
                ("parallel", &parallel),
            ] {
                let what = format!("{name}/{bname} n={n}");
                let mut y = vec![0.0; n];
                backend.store_spmv(&store, &x, &mut y);
                assert_eq!(y, y_la, "{what}: store_spmv");
                let mut r = vec![0.0; n];
                backend.store_residual(&store, &b, &x, &mut r);
                assert_eq!(r, r_la, "{what}: store_residual");
                let mut ym = MultiVec::<f64>::zeros(n, k);
                backend.store_spmm(&store, &xm, k, &mut ym);
                for j in 0..k {
                    let mut yj = vec![0.0; n];
                    backend.store_spmv(&store, xm.col(j), &mut yj);
                    assert_eq!(ym.col(j), &yj[..], "{what}: store_spmm col {j}");
                }
            }
        }
        // The plain store is bit-identical to the matrix path.
        let mut y_csr = vec![0.0; n];
        a.spmv(&x, &mut y_csr);
        let mut y_plain = vec![0.0; n];
        reference.store_spmv(&MatrixStore::plain(a.clone()), &x, &mut y_plain);
        assert_eq!(y_plain, y_csr, "plain store vs csr n={n}");
    }
}

/// Arrow matrix: a dense first row and first column over a diagonal,
/// so the first row holds about a third of the nonzeros. Sized just
/// above `SPMV_PAR_THRESHOLD`, so the parallel backend cuts its rows at
/// nnz quantiles rather than running them serially.
fn arrow_matrix(salt: u64) -> Csr<f64> {
    let n = SPMV_PAR_THRESHOLD / 3 + 1_000;
    let off = pseudo_vec(2 * n, salt);
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0 + off[i]);
        if i > 0 {
            coo.push(0, i, off[i]);
            coo.push(i, 0, off[n + i]);
        }
    }
    let a = coo.into_csr();
    assert!(a.nnz() >= SPMV_PAR_THRESHOLD, "{} nnz", a.nnz());
    a
}

/// On a skewed matrix every matrix kernel (plain and over all four
/// storage variants, the split store's two buckets included) runs on
/// nnz-cut row ranges at two and four participants, and stays
/// bit-identical to `ReferenceBackend`.
#[test]
fn arrow_matrix_kernels_bit_identical_on_nnz_cuts() {
    let reference = ReferenceBackend;
    let a = arrow_matrix(21);
    let n = a.nrows();
    let (x, b) = (pseudo_vec(n, 22), pseudo_vec(n, 23));
    let k = 4;
    let xm = pseudo_block(n, k, 24);
    let stores = store_variants(&a);
    let MatrixStore::Split(split) = &stores[3].1 else {
        panic!("the fourth variant is the split store");
    };
    assert!(
        split.hi().nnz() > 0 && split.lo().nnz() > 0,
        "both buckets used"
    );
    let spmv = |be: &dyn ScalarBackend<f64>| {
        let mut y = vec![0.0; n];
        be.spmv(&a, &x, &mut y);
        y
    };
    let residual = |be: &dyn ScalarBackend<f64>| {
        let mut r = vec![0.0; n];
        be.residual(&a, &b, &x, &mut r);
        r
    };
    let spmm = |be: &dyn ScalarBackend<f64>| {
        let mut y = MultiVec::<f64>::zeros(n, k);
        be.spmm(&a, &xm, k, &mut y);
        y.data().to_vec()
    };
    for threads in [2, 4] {
        let parallel = ParallelBackend::with_threads(threads);
        assert_eq!(spmv(&parallel), spmv(&reference), "spmv t={threads}");
        assert_eq!(
            residual(&parallel),
            residual(&reference),
            "residual t={threads}"
        );
        assert_eq!(spmm(&parallel), spmm(&reference), "spmm t={threads}");
        for (name, store) in &stores {
            let what = format!("{name} t={threads}");
            let store_spmv = |be: &dyn ScalarBackend<f64>| {
                let mut y = vec![0.0; n];
                be.store_spmv(store, &x, &mut y);
                y
            };
            let store_residual = |be: &dyn ScalarBackend<f64>| {
                let mut r = vec![0.0; n];
                be.store_residual(store, &b, &x, &mut r);
                r
            };
            let store_spmm = |be: &dyn ScalarBackend<f64>| {
                let mut y = MultiVec::<f64>::zeros(n, k);
                be.store_spmm(store, &xm, k, &mut y);
                y.data().to_vec()
            };
            assert_eq!(
                store_spmv(&parallel),
                store_spmv(&reference),
                "{what}: store_spmv"
            );
            assert_eq!(
                store_residual(&parallel),
                store_residual(&reference),
                "{what}: store_residual"
            );
            assert_eq!(
                store_spmm(&parallel),
                store_spmm(&reference),
                "{what}: store_spmm"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// half16 round-trip: casting down to software fp16 and back stays
    /// within half's machine epsilon (relative), plus the subnormal
    /// floor 2^-24 for values near zero.
    #[test]
    fn half_round_trip_within_documented_bound(v in -6.0e4f64..6.0e4) {
        let back = Half::from_f64(v).to_f64();
        let tol = Precision::Fp16.eps() * v.abs() + 6.0e-8;
        prop_assert!((v - back).abs() <= tol, "{} -> {}", v, back);
    }

    /// Store SpMV/SpMM vs the scalar reference, random shapes: the
    /// backend kernels are bit-identical to the la-layer per-row
    /// reference on both backends (0 ULPs — shared per-row kernel), and
    /// the low-precision result sits within the documented per-row
    /// error bound of the full-precision SpMV:
    /// `eps(dominant) * sum_j |a_ij x_j|` plus a subnormal-floor slack.
    #[test]
    fn random_store_spmv_spmm_within_ulp_bound(
        small_n in 1usize..400,
        k in 1usize..6,
        salt in 0u64..1_000,
        threads in 2usize..9,
        big in 0usize..2,
    ) {
        let n = if big == 1 { LARGE_N + small_n } else { small_n };
        let a = banded_matrix(n, salt);
        let x = pseudo_vec(n, salt + 1);
        let xm = pseudo_block(n, k, salt + 2);
        let reference = ReferenceBackend;
        let parallel = ParallelBackend::with_threads(threads);
        let mut y64 = vec![0.0; n];
        a.spmv(&x, &mut y64);
        for (name, store) in store_variants(&a) {
            let mut y_la = vec![0.0; n];
            store.spmv(&x, &mut y_la);
            for backend in [&reference as &dyn ScalarBackend<f64>, &parallel] {
                let mut y = vec![0.0; n];
                backend.store_spmv(&store, &x, &mut y);
                for (ya, yb) in y.iter().zip(&y_la) {
                    prop_assert_eq!(ya.to_bits(), yb.to_bits(), "{} store_spmv", name);
                }
                let mut ym = MultiVec::<f64>::zeros(n, k);
                backend.store_spmm(&store, &xm, k, &mut ym);
                for j in 0..k {
                    let mut yj = vec![0.0; n];
                    backend.store_spmv(&store, xm.col(j), &mut yj);
                    for (ya, yb) in ym.col(j).iter().zip(&yj) {
                        prop_assert_eq!(ya.to_bits(), yb.to_bits(), "{} store_spmm", name);
                    }
                }
            }
            // Error bound vs the full-precision kernel, row by row.
            let eps = store.tag().dominant().eps();
            for r in 0..n {
                let (mut mag, mut cnt) = (0.0f64, 0usize);
                for (c, v) in a.row(r) {
                    mag += (v * x[c]).abs();
                    cnt += 1;
                }
                let tol = 1.0001 * eps * mag + cnt as f64 * 6.0e-8 + 1e-300;
                prop_assert!(
                    (y_la[r] - y64[r]).abs() <= tol,
                    "{} row {}: |{} - {}| > {}",
                    name, r, y_la[r], y64[r], tol
                );
            }
        }
    }

    /// Random shapes and data: every kernel bit-identical across
    /// backends under Sequential, ULP-bounded (here: bit-equal) under
    /// GPU_LIKE.
    #[test]
    fn random_kernel_parity(
        n in 1usize..600,
        cols in 1usize..8,
        block in 1usize..300,
        salt in 0u64..1_000,
        threads in 1usize..9,
    ) {
        let reference = ReferenceBackend;
        let parallel = ParallelBackend::with_threads(threads);
        let a = banded_matrix(n, salt);
        let x = pseudo_vec(n, salt + 1);
        let y0 = pseudo_vec(n, salt + 2);
        for order in [ReductionOrder::Sequential, ReductionOrder::BlockedTree { block }] {
            let (mut ya, mut yb) = (vec![0.0; n], vec![0.0; n]);
            ScalarBackend::<f64>::spmv(&reference, &a, &x, &mut ya);
            ScalarBackend::<f64>::spmv(&parallel, &a, &x, &mut yb);
            prop_assert_eq!(&ya, &yb);

            let d_ref = ScalarBackend::<f64>::dot(&reference, &x, &y0, order);
            let d_par = ScalarBackend::<f64>::dot(&parallel, &x, &y0, order);
            match order {
                ReductionOrder::Sequential =>
                    prop_assert_eq!(d_ref.to_bits(), d_par.to_bits()),
                _ => prop_assert!(ulp_diff_f64(d_ref, d_par) <= GPU_LIKE_ULP_BOUND),
            }

            let mut v = MultiVector::<f64>::zeros(n, cols);
            for j in 0..cols {
                let c = pseudo_vec(n, salt + 10 + j as u64);
                v.col_mut(j).copy_from_slice(&c);
            }
            let (mut ha, mut hb) = (vec![0.0; cols], vec![0.0; cols]);
            ScalarBackend::<f64>::gemv_t(&reference, &v, cols, &x, &mut ha, order);
            ScalarBackend::<f64>::gemv_t(&parallel, &v, cols, &x, &mut hb, order);
            prop_assert_eq!(&ha, &hb);
        }
    }

    /// The column-blocked GEMV-T on both backends equals a per-column
    /// `dot_ordered` bit for bit at n >= PAR_THRESHOLD with >= 2
    /// workers: ragged column groups (0..=9 columns), n below, equal
    /// to, a multiple of, and off a multiple of the reduction block, and
    /// both reduction orders.
    #[test]
    fn blocked_gemv_t_equals_per_column_dots(
        ncols in 0usize..=9,
        shape in 0usize..4,
        extra in 1usize..256,
        threads in 2usize..5,
        salt in 0u64..1_000,
    ) {
        let (n, block) = match shape {
            0 => (PAR_THRESHOLD + extra, PAR_THRESHOLD + 256),
            1 => (PAR_THRESHOLD + extra, PAR_THRESHOLD + extra),
            2 => (PAR_THRESHOLD, 256),
            _ => (PAR_THRESHOLD + extra, 256),
        };
        let reference = ReferenceBackend;
        let parallel = ParallelBackend::with_threads(threads);
        let mut v = MultiVector::<f64>::zeros(n, 9);
        for j in 0..9 {
            v.col_mut(j).copy_from_slice(&pseudo_vec(n, salt + 10 + j as u64));
        }
        let w = pseudo_vec(n, salt);
        for order in [ReductionOrder::Sequential, ReductionOrder::BlockedTree { block }] {
            let want: Vec<u64> = (0..ncols)
                .map(|j| dot_ordered(v.col(j), &w, order).to_bits())
                .collect();
            let (mut ha, mut hb) = (vec![f64::NAN; ncols], vec![f64::NAN; ncols]);
            ScalarBackend::<f64>::gemv_t(&reference, &v, ncols, &w, &mut ha, order);
            ScalarBackend::<f64>::gemv_t(&parallel, &v, ncols, &w, &mut hb, order);
            let bits = |h: &[f64]| h.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(&bits(&ha), &want, "reference n={} {:?}", n, order);
            prop_assert_eq!(&bits(&hb), &want, "parallel n={} {:?}", n, order);
        }
    }

    /// Multi-RHS proptest: `spmm` and `block_dot` on a k-column block
    /// are bit-identical to k independent single-vector calls, on both
    /// backends. `big` flips the size above the parallel thresholds so
    /// the multi-worker fused kernel is exercised, not just the
    /// sequential fallback.
    #[test]
    fn random_block_kernel_parity(
        small_n in 1usize..400,
        k in 1usize..8,
        salt in 0u64..1_000,
        threads in 2usize..9,
        big in 0usize..2,
        block in 1usize..300,
    ) {
        let n = if big == 1 { LARGE_N + small_n } else { small_n };
        let a = banded_matrix(n, salt);
        let x = pseudo_block(n, k, salt + 40);
        let y = pseudo_block(n, k, salt + 80);
        let reference = ReferenceBackend;
        let parallel = ParallelBackend::with_threads(threads);
        for backend in [&reference as &dyn ScalarBackend<f64>, &parallel] {
            let mut ym = MultiVec::<f64>::zeros(n, k);
            backend.spmm(&a, &x, k, &mut ym);
            for j in 0..k {
                let mut y_single = vec![0.0; n];
                backend.spmv(&a, x.col(j), &mut y_single);
                prop_assert_eq!(ym.col(j), &y_single[..]);
            }
            for order in [ReductionOrder::Sequential, ReductionOrder::BlockedTree { block }] {
                let mut dots = vec![0.0; k];
                backend.block_dot(&x, &y, k, &mut dots, order);
                for j in 0..k {
                    prop_assert_eq!(
                        dots[j].to_bits(),
                        backend.dot(x.col(j), y.col(j), order).to_bits()
                    );
                }
            }
        }
        // And across backends the fused kernel agrees with the loop.
        let (mut y_ref, mut y_par) = (MultiVec::<f64>::zeros(n, k), MultiVec::<f64>::zeros(n, k));
        ScalarBackend::<f64>::spmm(&reference, &a, &x, k, &mut y_ref);
        ScalarBackend::<f64>::spmm(&parallel, &a, &x, k, &mut y_par);
        prop_assert_eq!(y_ref.data(), y_par.data());
    }

    /// Backend kinds produced by the selector behave identically to the
    /// concrete types (guards the trait-object dispatch path).
    #[test]
    fn kind_created_backends_match_concrete(n in 1usize..400, salt in 0u64..500) {
        let a = banded_matrix(n, salt);
        let x = pseudo_vec(n, salt);
        let mut expect = vec![0.0; n];
        a.spmv(&x, &mut expect);
        for kind in BackendKind::ALL {
            let b = kind.create();
            let mut y = vec![0.0; n];
            let view: &dyn ScalarBackend<f64> = &*b;
            view.spmv(&a, &x, &mut y);
            prop_assert_eq!(&y, &expect, "kind {}", b.name());
        }
    }
}

/// Reference single-rounding demotion for the compressed-basis round
/// trip: the product is formed in f64, rounded once into the storage
/// precision, and widened back exactly.
fn round_trip_expect(p: Precision, x: f64) -> f64 {
    match p {
        Precision::Fp64 => x,
        Precision::Fp32 => (x as f32) as f64,
        Precision::Fp16 => mpgmres_scalar::cast::<Half, f64>(mpgmres_scalar::cast::<f64, Half>(x)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Compress/promote round trip through the backend basis kernels:
    /// writing a scaled column into a `BasisStore` and promoting it
    /// back must round exactly once per element (`widen(narrow(alpha *
    /// src))`), stay within the storage precision's relative-error
    /// bound for normal-range values, be idempotent (re-compressing
    /// the promoted column changes nothing), and agree bit-for-bit
    /// between the reference and parallel backends.
    #[test]
    fn basis_compress_promote_round_trip(
        n in 1usize..400,
        salt in 0u64..1000,
        alpha in 0.25f64..4.0,
    ) {
        let reference = ReferenceBackend;
        let parallel = ParallelBackend::with_threads(2);
        let src = pseudo_vec(n, salt);
        for p in [Precision::Fp64, Precision::Fp32, Precision::Fp16] {
            let mut store = if p == Precision::Fp64 {
                BasisStore::<f64>::native(n, 2)
            } else {
                BasisStore::<f64>::compressed(n, 2, p)
            };
            let mut store_par = store.clone();
            ScalarBackend::<f64>::basis_scal_copy(&reference, &mut store, 0, alpha, &src);
            ScalarBackend::<f64>::basis_scal_copy(&parallel, &mut store_par, 0, alpha, &src);
            let (mut out, mut out_par) = (vec![0.0; n], vec![0.0; n]);
            ScalarBackend::<f64>::basis_promote_col(&reference, &store, 0, &mut out);
            ScalarBackend::<f64>::basis_promote_col(&parallel, &store_par, 0, &mut out_par);
            // The relative-error bound of one rounding into the storage
            // precision (fp32: 2^-24, fp16: 2^-11), checked away from
            // the subnormal range where relative error degrades.
            let rel_bound = match p {
                Precision::Fp64 => 0.0,
                Precision::Fp32 => 2.0f64.powi(-24),
                Precision::Fp16 => 2.0f64.powi(-11),
            };
            for (i, (&got, &got_par)) in out.iter().zip(&out_par).enumerate() {
                let exact = src[i] * alpha;
                let expect = round_trip_expect(p, exact);
                prop_assert_eq!(
                    got.to_bits(), expect.to_bits(),
                    "{:?} round trip must round exactly once (elem {})", p, i
                );
                prop_assert_eq!(
                    got.to_bits(), got_par.to_bits(),
                    "{:?} backends must agree bit-for-bit (elem {})", p, i
                );
                if exact.abs() > 1e-3 {
                    prop_assert!(
                        ((got - exact) / exact).abs() <= rel_bound,
                        "{:?} relative error {} exceeds {}", p, ((got - exact) / exact).abs(), rel_bound
                    );
                }
            }
            // Idempotence: compressing the promoted column again must
            // reproduce the stored bits (the rounding is stable).
            let mut twice = store.clone();
            ScalarBackend::<f64>::basis_append(&reference, &mut twice, 1, &out);
            let mut out2 = vec![0.0; n];
            ScalarBackend::<f64>::basis_promote_col(&reference, &twice, 1, &mut out2);
            for (a, b) in out.iter().zip(&out2) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?} round trip must be idempotent", p);
            }
        }
    }

    /// The compressed GEMV kernels must agree with an explicit
    /// promote-then-reference-GEMV evaluation bit-for-bit: widening is
    /// exact, so streaming the narrow array and widening inline is the
    /// same arithmetic as promoting every column first.
    #[test]
    fn basis_gemv_matches_promoted_reference(
        n in 1usize..300,
        ncols in 1usize..12,
        salt in 0u64..500,
    ) {
        let reference = ReferenceBackend;
        for p in [Precision::Fp32, Precision::Fp16] {
            let mut store = BasisStore::<f64>::compressed(n, ncols, p);
            let mut promoted = MultiVector::<f64>::zeros(n, ncols);
            for j in 0..ncols {
                let col = pseudo_vec(n, salt.wrapping_add(j as u64));
                ScalarBackend::<f64>::basis_append(&reference, &mut store, j, &col);
                let mut wide = vec![0.0; n];
                ScalarBackend::<f64>::basis_promote_col(&reference, &store, j, &mut wide);
                promoted.set_col(j, &wide);
            }
            let w = pseudo_vec(n, salt.wrapping_add(77));
            for order in orders() {
                let (mut h_c, mut h_p) = (vec![0.0; ncols], vec![0.0; ncols]);
                ScalarBackend::<f64>::basis_gemv_t(&reference, &store, ncols, &w, &mut h_c, order);
                reference.gemv_t(&promoted, ncols, &w, &mut h_p, order);
                for (a, b) in h_c.iter().zip(&h_p) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?} gemv_t vs promoted", p);
                }
                let (mut w_c, mut w_p) = (w.clone(), w.clone());
                ScalarBackend::<f64>::basis_gemv_n_sub(&reference, &store, ncols, &h_c, &mut w_c);
                reference.gemv_n_sub(&promoted, ncols, &h_p, &mut w_p);
                for (a, b) in w_c.iter().zip(&w_p) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?} gemv_n_sub vs promoted", p);
                }
            }
        }
    }
}
