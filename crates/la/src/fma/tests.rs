//! Dispatched == portable, bitwise, for every kernel wrapped in
//! [`super::run`], in f64, f32 and `Half`.
//!
//! [`portable`] sends every `fma::run` on every thread down the
//! as-written path while its body runs, and the tests here hold
//! [`SERIAL`] so no portable window overlaps a dispatched run. Off
//! x86_64, or on a CPU without FMA, both sides take the same path.
//!
//! Inputs include ±0, subnormals, ±Inf and NaN. Results compare bit for
//! bit, except that every NaN counts as one value: where NaNs of
//! different sign or payload meet (residual kernels negate stored
//! values, so both signs occur), IEEE 754 leaves the result's sign and
//! payload to the implementation, and for `vfmadd` they follow the
//! operand order the compiler picks.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mpgmres_scalar::{Half, Precision, Scalar};

use crate::basis::BasisStore;
use crate::csr::Csr;
use crate::dense::{BlockLu, DenseMat, LuFactors};
use crate::multivec::MultiVec;
use crate::multivector::MultiVector;
use crate::par;
use crate::pool::ScopedSpawn;
use crate::pool::WorkerPool;
use crate::store::MatrixStore;
use crate::vec_ops::{self, ReductionOrder};

/// Open [`portable`] windows, across all threads.
static FORCED: AtomicUsize = AtomicUsize::new(0);
/// Open [`scalar_lanes`] windows, across all threads.
static SCALAR_LANES: AtomicUsize = AtomicUsize::new(0);
/// Held by every test here, so no portable window overlaps another
/// test's dispatched run.
static SERIAL: Mutex<()> = Mutex::new(());

pub(super) fn portable_forced() -> bool {
    FORCED.load(Ordering::SeqCst) > 0
}

/// Whether `simd::block_partials` leaves every chain to the scalar
/// body: inside a [`portable`] window (no hardware instruction at all)
/// or a [`scalar_lanes`] one.
#[cfg_attr(any(miri, not(target_arch = "x86_64")), allow(dead_code))]
pub(crate) fn lanes_forced_off() -> bool {
    portable_forced() || SCALAR_LANES.load(Ordering::SeqCst) > 0
}

/// Run `body` with `count` raised, on every thread.
fn window<R>(count: &'static AtomicUsize, body: impl FnOnce() -> R) -> R {
    struct Close(&'static AtomicUsize);
    impl Drop for Close {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }
    count.fetch_add(1, Ordering::SeqCst);
    let _close = Close(count);
    body()
}

/// Run `body` with every [`super::run`], on every thread, taking the
/// portable path.
fn portable<R>(body: impl FnOnce() -> R) -> R {
    window(&FORCED, body)
}

/// Run `body` with every blocked-tree partial, on every thread, taking
/// the scalar body (still on hardware FMA).
fn scalar_lanes<R>(body: impl FnOnce() -> R) -> R {
    window(&SCALAR_LANES, body)
}

fn serial() -> std::sync::MutexGuard<'static, ()> {
    // The guarded value is `()`, so a panic elsewhere leaves nothing
    // half-updated.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Element types under test.
trait Elem: Scalar {
    /// A subnormal of this precision.
    fn subnormal() -> Self;
}

impl Elem for f64 {
    fn subnormal() -> Self {
        f64::from_bits(0x000a_bcde_f012_3456)
    }
}

impl Elem for f32 {
    fn subnormal() -> Self {
        f32::from_bits(0x0012_3456)
    }
}

impl Elem for Half {
    fn subnormal() -> Self {
        Half::from_bits(0x0123)
    }
}

/// `n` seeded values in [-1, 1), with ±0 and ± a subnormal at fixed
/// positions and, when `specials`, ±Inf and NaN too.
fn values<S: Elem>(n: usize, salt: u64, specials: bool) -> Vec<S> {
    let mut s = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|i| {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            match i % 97 {
                3 => S::zero(),
                5 => -S::zero(),
                7 => S::subnormal(),
                11 => -S::subnormal(),
                13 if specials => S::from_f64(f64::INFINITY),
                17 if specials => S::from_f64(f64::NEG_INFINITY),
                19 if specials => S::from_f64(f64::NAN),
                _ => S::from_f64((s >> 11) as f64 / (1u64 << 52) as f64 - 1.0),
            }
        })
        .collect()
}

/// Banded `n x n` CSR (offsets 0, ±1, ±3) with values from [`values`].
fn banded<S: Elem>(n: usize, specials: bool) -> Csr<S> {
    let mut row_ptr = vec![0];
    let mut col_idx = Vec::new();
    for r in 0..n {
        for d in [-3isize, -1, 0, 1, 3] {
            let c = r as isize + d;
            if (0..n as isize).contains(&c) {
                col_idx.push(c as u32);
            }
        }
        row_ptr.push(col_idx.len());
    }
    let vals = values(col_idx.len(), 1, specials);
    Csr::from_raw(n, n, row_ptr, col_idx, vals)
}

/// Bit patterns (exact widening to f64), with every NaN folded to one.
fn bits<S: Scalar>(xs: &[S]) -> Vec<u64> {
    xs.iter()
        .map(|x| x.to_f64())
        .map(|v| if v.is_nan() { f64::NAN } else { v }.to_bits())
        .collect()
}

/// Assert `kernel` returns the same bits dispatched and portable.
fn check<S: Scalar>(what: &str, kernel: impl Fn() -> Vec<S>) {
    let _serial = serial();
    let dispatched = kernel();
    let reference = portable(&kernel);
    assert_eq!(bits(&dispatched), bits(&reference), "{what} ({})", S::NAME);
}

const ORDERS: [ReductionOrder; 3] = [
    ReductionOrder::Sequential,
    ReductionOrder::BlockedTree { block: 7 },
    ReductionOrder::GPU_LIKE,
];

/// Small with specials, then above `PAR_THRESHOLD` (so the chunked
/// kernels split across two workers) with and without.
#[cfg(not(miri))]
const SHAPES: [(usize, bool); 3] = [
    (61, true),
    (vec_ops::PAR_THRESHOLD + 37, false),
    (vec_ops::PAR_THRESHOLD + 37, true),
];
/// Miri interprets every flop, so it runs the small shape only.
#[cfg(miri)]
const SHAPES: [(usize, bool); 1] = [(61, true)];

fn level1<S: Elem>() {
    let exec = ScopedSpawn(2);
    let (alpha, beta) = (S::from_f64(0.7), S::from_f64(-1.3));
    for (n, specials) in SHAPES {
        let x = values::<S>(n, 2, specials);
        let y = values::<S>(n, 3, specials);
        let updated = |f: &dyn Fn(&mut [S])| {
            let mut z = y.clone();
            f(&mut z);
            z
        };
        check("axpy", || updated(&|z| vec_ops::axpy(alpha, &x, z)));
        check("axpby", || updated(&|z| vec_ops::axpby(alpha, &x, beta, z)));
        check("par::axpy_on", || {
            updated(&|z| par::axpy_on(&exec, alpha, &x, z))
        });
        for order in ORDERS {
            check("dot_ordered", || vec![vec_ops::dot_ordered(&x, &y, order)]);
            check("par::dot_on", || vec![par::dot_on(&exec, &x, &y, order)]);
        }
    }
}

fn sparse<S: Elem>() {
    let exec = ScopedSpawn(2);
    for (n, specials) in SHAPES {
        let a = banded::<S>(n, specials);
        let x = values::<S>(n, 4, specials);
        let b = values::<S>(n, 5, specials);
        let parts = par::row_partition(n, 2);
        let out = |f: &dyn Fn(&mut [S])| {
            let mut y = vec![S::zero(); n];
            f(&mut y);
            y
        };
        check("Csr::spmv", || out(&|y| a.spmv(&x, y)));
        check("Csr::residual", || out(&|y| a.residual(&b, &x, y)));
        check("par::spmv_parts_on", || {
            out(&|y| par::spmv_parts_on(&exec, &parts, &a, &x, y))
        });
        check("par::residual_parts_on", || {
            out(&|y| par::residual_parts_on(&exec, &parts, &a, &b, &x, y))
        });
        let stores = [
            MatrixStore::plain(a.clone()),
            MatrixStore::shadow(&a, Precision::Fp32),
            MatrixStore::shadow(&a, Precision::Fp16),
            MatrixStore::split_threshold(&a, 0.5),
        ];
        for store in &stores {
            let tag = store.tag();
            check(&format!("MatrixStore::spmv {tag}"), || {
                out(&|y| store.spmv(&x, y))
            });
            check(&format!("MatrixStore::residual {tag}"), || {
                out(&|y| store.residual(&b, &x, y))
            });
            check(&format!("par::store_spmv_parts_on {tag}"), || {
                out(&|y| par::store_spmv_parts_on(&exec, &parts, store, &x, y))
            });
            check(&format!("par::store_residual_parts_on {tag}"), || {
                out(&|y| par::store_residual_parts_on(&exec, &parts, store, &b, &x, y))
            });
        }
        // Widths 3 (a const-generic body) and 9 (the dynamic one).
        for k in [3, 9] {
            let cols: Vec<Vec<S>> = (0..k).map(|j| values(n, 20 + j as u64, specials)).collect();
            let refs: Vec<&[S]> = cols.iter().map(|c| c.as_slice()).collect();
            let xs = MultiVec::from_columns(&refs);
            let spmm = |f: &dyn Fn(&mut MultiVec<S>)| {
                let mut ys = MultiVec::zeros(n, k);
                f(&mut ys);
                ys.data().to_vec()
            };
            check(&format!("par::spmm_parts_on k={k}"), || {
                spmm(&|ys| par::spmm_parts_on(&exec, &parts, &a, &xs, k, ys))
            });
            for store in &stores {
                let tag = store.tag();
                check(&format!("MatrixStore::spmm {tag} k={k}"), || {
                    spmm(&|ys| store.spmm(&xs, k, ys))
                });
                check(&format!("par::store_spmm_parts_on {tag} k={k}"), || {
                    spmm(&|ys| par::store_spmm_parts_on(&exec, &parts, store, &xs, k, ys))
                });
            }
        }
    }
}

/// Basis widths for the GEMV checks: 0 through 17 reaches every
/// remainder of an 8-column GEMV-T group.
#[cfg(not(miri))]
const NCOLS: std::ops::RangeInclusive<usize> = 0..=17;
/// Miri interprets every flop, so it checks one width past a group.
#[cfg(miri)]
const NCOLS: std::ops::RangeInclusive<usize> = 9..=9;

/// `par::spmv_parts_on`/`par::residual_parts_on` on a two-way row split
/// of a matrix above `SPMV_PAR_THRESHOLD` nonzeros (the shape the
/// parallel backend splits).
#[cfg(not(miri))]
fn thresholded_sparse<S: Elem>() {
    let n = par::SPMV_PAR_THRESHOLD / 5 + 37;
    let a = banded::<S>(n, true);
    assert!(a.nnz() >= par::SPMV_PAR_THRESHOLD);
    let x = values::<S>(n, 4, true);
    let b = values::<S>(n, 5, true);
    let out = |f: &dyn Fn(&mut [S])| {
        let mut y = vec![S::zero(); n];
        f(&mut y);
        y
    };
    let parts = par::row_partition(n, 2);
    let exec = ScopedSpawn(2);
    check("par::spmv_parts_on", || {
        out(&|y| par::spmv_parts_on(&exec, &parts, &a, &x, y))
    });
    check("par::residual_parts_on", || {
        out(&|y| par::residual_parts_on(&exec, &parts, &a, &b, &x, y))
    });
}

fn gemv<S: Elem>() {
    for cols in NCOLS {
        gemv_cols::<S>(cols);
    }
}

fn gemv_cols<S: Elem>(cols: usize) {
    let exec = ScopedSpawn(2);
    for (n, specials) in SHAPES {
        let w = values::<S>(n, 8, specials);
        let h = values::<S>(cols, 9, false);
        let mut mv = MultiVector::<S>::zeros(n, cols);
        for j in 0..cols {
            mv.set_col(j, &values(n, 30 + j as u64, specials));
        }
        let stores = [Precision::Fp64, Precision::Fp32, Precision::Fp16].map(|p| {
            let mut s = BasisStore::<S>::compressed(n, cols, p);
            for j in 0..cols {
                s.set_col(j, mv.col(j));
            }
            s
        });
        let dots = |f: &dyn Fn(&mut [S])| {
            let mut o = vec![S::zero(); cols];
            f(&mut o);
            o
        };
        let update = |f: &dyn Fn(&mut [S])| {
            let mut o = w.clone();
            f(&mut o);
            o
        };
        for order in ORDERS {
            check("MultiVector::gemv_t", || {
                dots(&|o| mv.gemv_t(cols, &w, o, order))
            });
            check("par::gemv_t_on", || {
                dots(&|o| par::gemv_t_on(&exec, &mv, cols, &w, o, order))
            });
            for s in &stores {
                let p = s.storage_precision();
                check(&format!("BasisStore::gemv_t {p:?}"), || {
                    dots(&|o| s.gemv_t(cols, &w, o, order))
                });
                check(&format!("par::basis_gemv_t_on {p:?}"), || {
                    dots(&|o| par::basis_gemv_t_on(&exec, s, cols, &w, o, order))
                });
            }
        }
        check("MultiVector::gemv_n_sub", || {
            update(&|o| mv.gemv_n_sub(cols, &h, o))
        });
        check("MultiVector::gemv_n_add", || {
            update(&|o| mv.gemv_n_add(cols, &h, o))
        });
        check("par::gemv_n_sub_on", || {
            update(&|o| par::gemv_n_sub_on(&exec, &mv, cols, &h, o))
        });
        check("par::gemv_n_add_on", || {
            update(&|o| par::gemv_n_add_on(&exec, &mv, cols, &h, o))
        });
        for s in &stores {
            let p = s.storage_precision();
            check(&format!("BasisStore::gemv_n_sub {p:?}"), || {
                update(&|o| s.gemv_n_sub(cols, &h, o))
            });
            check(&format!("BasisStore::gemv_n_add {p:?}"), || {
                update(&|o| s.gemv_n_add(cols, &h, o))
            });
            check(&format!("par::basis_gemv_n_sub_on {p:?}"), || {
                update(&|o| par::basis_gemv_n_sub_on(&exec, s, cols, &h, o))
            });
            check(&format!("par::basis_gemv_n_add_on {p:?}"), || {
                update(&|o| par::basis_gemv_n_add_on(&exec, s, cols, &h, o))
            });
        }
    }
}

fn dense<S: Elem>() {
    let n = 16;
    for specials in [false, true] {
        let mut a = DenseMat::from_col_major(n, n, values::<S>(n * n, 6, specials));
        for i in 0..n {
            a[(i, i)] += S::from_f64(4.0);
        }
        let x = values::<S>(n, 7, specials);
        check("DenseMat::matvec", || {
            let mut y = vec![S::zero(); n];
            a.matvec(&x, &mut y);
            y
        });
        check("DenseMat::matmul", || a.matmul(&a).data().to_vec());
        // Solving every unit vector on one fixed path reads every factor
        // entry, so this compares the factorizations themselves.
        check("LuFactors::factor", || match LuFactors::factor(&a) {
            Ok(lu) => portable(|| {
                (0..n)
                    .flat_map(|j| {
                        let mut e = vec![S::zero(); n];
                        e[j] = S::one();
                        lu.solve(&e)
                    })
                    .collect()
            }),
            Err(e) => vec![S::from_usize(e.step)],
        });
        if let Ok(lu) = LuFactors::factor(&a) {
            check("LuFactors::solve_in_place", || lu.solve(&x));
        }
    }
    // 37 full blocks of 4 (whole lane groups plus leftovers) and a
    // ragged block of 3; even blocks pivot-free, odd ones pivoting.
    let (n, bs) = (4 * 37 + 3, 4);
    for specials in [false, true] {
        let vals = values::<S>(n * bs, 8, specials);
        let block = |s: usize, m: usize| {
            DenseMat::from_fn(m, m, |r, c| {
                let v = vals[(s + r) * bs + c];
                if r == c && (s / bs).is_multiple_of(2) {
                    v + S::from_f64(4.0)
                } else {
                    v
                }
            })
        };
        // As for `LuFactors::factor`: solving unit vectors on one fixed
        // path reads every packed entry.
        check("BlockLu::factor", || {
            let lu = BlockLu::factor(n, bs, 1, block);
            portable(|| {
                (0..bs)
                    .flat_map(|j| {
                        let e: Vec<S> = (0..n)
                            .map(|i| if i % bs == j { S::one() } else { S::zero() })
                            .collect();
                        let mut y = vec![S::zero(); n];
                        lu.solve(&e, &mut y);
                        y
                    })
                    .chain([S::from_usize(lu.singular_blocks())])
                    .collect()
            })
        });
        let lu = BlockLu::factor(n, bs, 1, block);
        let x = values::<S>(n, 9, specials);
        check("BlockLu::solve", || {
            let mut y = vec![S::zero(); n];
            lu.solve(&x, &mut y);
            y
        });
    }
}

#[test]
fn level1_kernels_match_portable() {
    level1::<f64>();
    level1::<f32>();
    level1::<Half>();
}

#[test]
fn sparse_kernels_match_portable() {
    sparse::<f64>();
    sparse::<f32>();
    sparse::<Half>();
}

#[cfg(not(miri))]
#[test]
fn thresholded_sparse_kernels_match_portable() {
    thresholded_sparse::<f64>();
    thresholded_sparse::<f32>();
    thresholded_sparse::<Half>();
}

#[test]
fn gemv_kernels_match_portable() {
    gemv::<f64>();
    gemv::<f32>();
    gemv::<Half>();
}

#[test]
fn dense_kernels_match_portable() {
    dense::<f64>();
    dense::<f32>();
    dense::<Half>();
}

/// Sizes for the lane checks: four quads of 256, seven blocks of 256
/// plus a ragged 100, and the stretched-bj size.
#[cfg(not(miri))]
const LANE_NS: [usize; 3] = [1024, 7 * 256 + 100, 9216];
#[cfg(miri)]
const LANE_NS: [usize; 1] = [61];
/// Block sizes: below one lane row (1), every `block % 4` tail (5, 37),
/// whole lane rows (8, 64, 256).
const LANE_BLOCKS: [usize; 6] = [1, 5, 8, 37, 64, 256];
#[cfg(not(miri))]
const LANE_NCOLS: [usize; 20] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 50, 51,
];
#[cfg(miri)]
const LANE_NCOLS: [usize; 2] = [1, 9];

/// Assert `kernel` returns the same bits with the lane kernel and with
/// the scalar body (NaN folded, as in [`check`]).
fn check_lanes(what: &str, kernel: impl Fn() -> Vec<f64>) {
    let _serial = serial();
    let lanes = kernel();
    let scalar = scalar_lanes(&kernel);
    assert_eq!(bits(&lanes), bits(&scalar), "{what}");
}

/// Every entry point over blocked-tree partials, f64 lane kernel ==
/// scalar body: dots, norms, and GEMV-T (plain,
/// native basis, serial, column- and block-split, and pooled runs that
/// start at an odd block).
#[test]
fn lanes_match_scalar_body() {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        // The lane kernel must actually run where the CPU has it.
        if is_x86_feature_detected!("avx") && is_x86_feature_detected!("fma") {
            let (x, mut parts) = (vec![1.0f64; 1024], vec![0.0f64; 4]);
            let _serial = serial();
            let done = crate::simd::block_partials(&x, 1024, 1, &x, 256, &mut parts);
            assert_eq!(done, 4);
            assert_eq!(parts, [256.0; 4]);
        }
    }
    let exec = ScopedSpawn(2);
    let pool = WorkerPool::new(3);
    for n in LANE_NS {
        let x = values::<f64>(n, 40, true);
        let y = values::<f64>(n, 41, true);
        let maxc = LANE_NCOLS[LANE_NCOLS.len() - 1];
        let mut mv = MultiVector::<f64>::zeros(n, maxc);
        for j in 0..maxc {
            mv.set_col(j, &values(n, 50 + j as u64, j % 3 == 1));
        }
        let native = BasisStore::<f64>::compressed(n, maxc, Precision::Fp64);
        let native = {
            let mut s = native;
            for j in 0..maxc {
                s.set_col(j, mv.col(j));
            }
            s
        };
        for block in LANE_BLOCKS {
            let order = ReductionOrder::BlockedTree { block };
            let tag = format!("n={n} block={block}");
            check_lanes(&format!("dot_ordered {tag}"), || {
                vec![vec_ops::dot_ordered(&x, &y, order)]
            });
            check_lanes(&format!("norm2_ordered {tag}"), || {
                vec![vec_ops::norm2_ordered(&x, order)]
            });
            check_lanes(&format!("par::dot_on {tag}"), || {
                vec![par::dot_split_on(&exec, &x, &y, order)]
            });
            for ncols in LANE_NCOLS {
                let tag = format!("{tag} ncols={ncols}");
                let dots = |f: &dyn Fn(&mut [f64])| {
                    let mut o = vec![0.0; ncols];
                    f(&mut o);
                    o
                };
                check_lanes(&format!("MultiVector::gemv_t {tag}"), || {
                    dots(&|o| mv.gemv_t(ncols, &y, o, order))
                });
                check_lanes(&format!("BasisStore::gemv_t {tag}"), || {
                    dots(&|o| native.gemv_t(ncols, &y, o, order))
                });
                check_lanes(&format!("par::gemv_t_split_on {tag}"), || {
                    dots(&|o| par::gemv_t_split_on(&exec, &mv, ncols, &y, o, order))
                });
                // Three participants over an odd block count: runs start
                // at odd blocks.
                check_lanes(&format!("par::gemv_t_split_on pooled {tag}"), || {
                    dots(&|o| par::gemv_t_split_on(&pool, &mv, ncols, &y, o, order))
                });
                check_lanes(&format!("par::basis_gemv_t_on pooled {tag}"), || {
                    dots(&|o| par::basis_gemv_t_on(&pool, &native, ncols, &y, o, order))
                });
            }
        }
    }
}

/// `x * x - 1` at `x = 1 + 2^-p` is `2^(1-p) + 2^-2p`, which survives one
/// rounding but not two, so a `mul_add` that rounds the product first
/// (`a * b + c`) fails here on either path.
fn rounds_once<S: Scalar>(p: i32) {
    let x = black_box(S::from_f64(1.0 + 2f64.powi(-p)));
    let exact = 2f64.powi(1 - p) + 2f64.powi(-2 * p);
    let fused = || x.mul_add(x, -S::one()).to_f64();
    let _serial = serial();
    assert_eq!(super::run(fused), exact, "{} dispatched", S::NAME);
    assert_eq!(portable(fused), exact, "{} portable", S::NAME);
    let unfused = (x * x - S::one()).to_f64();
    assert_ne!(
        unfused,
        exact,
        "{}: the case must tell fused from unfused",
        S::NAME
    );
}

#[test]
fn mul_add_rounds_once_on_both_paths() {
    rounds_once::<f64>(27);
    rounds_once::<f32>(12);
    rounds_once::<Half>(6);
}
