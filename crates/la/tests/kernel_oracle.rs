//! The row, block and column kernels against naive oracles, bit for bit.
//!
//! Each oracle below is the plainest index loop for its kernel: one
//! `mul_add` per stored entry or element, in the documented order, and
//! no code shared with the library. The kernels under test walk row
//! slices, run reduction blocks and GEMV-T columns in lockstep, tile
//! GEMV-N by rows, and factor LU blocks column by column; none of that
//! may move a bit. Every public entry point is covered (plain and store
//! variants, serial and row-partitioned), in f64, f32 and `Half`.
//!
//! Shapes: `n` below one reduction block and not a multiple of 256;
//! block sizes 1, 5, 37 and 256; 0 to 17 basis columns (every remainder
//! of an 8-column GEMV-T group); for the f64 lane kernel, n = 1024,
//! 7 * 256 + 100 and 9216, blocks 8 and 64 too, and 50 and 51 columns; a ragged last 512-row GEMV-N tile;
//! empty matrix rows; LU blocks of 1 to 17 rows, singular ones among
//! them. Inputs include ±0, subnormals, ±Inf and NaN.
//! Results compare bit for bit, except that every NaN counts as one
//! value: IEEE 754 leaves a NaN result's sign and payload to the
//! implementation.

use mpgmres_la::basis::BasisStore;
use mpgmres_la::csr::Csr;
use mpgmres_la::dense::{BlockLu, DenseMat, LuFactors};
use mpgmres_la::multivec::MultiVec;
use mpgmres_la::par;
use mpgmres_la::pool::{ScopedSpawn, WorkerPool};
use mpgmres_la::store::MatrixStore;
use mpgmres_la::vec_ops::{self, ReductionOrder, PAR_THRESHOLD};
use mpgmres_scalar::{cast, Half, Precision, Scalar};

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
            match i % 89 {
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

/// Square CSR with offsets 0, ±1, ±3 and ±(n/2), where every seventh
/// row is empty.
fn matrix<S: Elem>(n: usize, specials: bool) -> Csr<S> {
    let mut row_ptr = vec![0];
    let mut col_idx = Vec::new();
    for r in 0..n {
        if r % 7 != 4 {
            let mut cols: Vec<isize> = [-3, -1, 0, 1, 3, -(n as isize / 2), n as isize / 2]
                .iter()
                .map(|d| r as isize + d)
                .filter(|c| (0..n as isize).contains(c))
                .collect();
            cols.sort_unstable();
            cols.dedup();
            col_idx.extend(cols.into_iter().map(|c| c as u32));
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

fn same<S: Scalar>(what: &str, got: &[S], want: &[S]) {
    assert_eq!(bits(got), bits(want), "{what} ({})", S::NAME);
}

// ---- oracles ---------------------------------------------------------

/// Continue `acc` over row `r` of `a`: `acc ± widen(v) * x[c]` per stored
/// entry, left to right.
fn oracle_row<L: Scalar, S: Scalar>(a: &Csr<L>, r: usize, x: &[S], mut acc: S, neg: bool) -> S {
    for k in a.row_ptr()[r]..a.row_ptr()[r + 1] {
        let v = cast::<L, S>(a.vals()[k]);
        let v = if neg { -v } else { v };
        acc = v.mul_add(x[a.col_idx()[k] as usize], acc);
    }
    acc
}

/// Row `r` of `b - A x` (`b_r` given) or of `A x` (`b_r` absent) over a
/// store: one chain through the stored buckets in storage order.
fn oracle_store_row<S: Scalar>(a: &MatrixStore<S>, r: usize, x: &[S], b_r: Option<S>) -> S {
    let (acc, neg) = (b_r.unwrap_or(S::zero()), b_r.is_some());
    match a {
        MatrixStore::Plain(c) => oracle_row(c, r, x, acc, neg),
        MatrixStore::ShadowF32(c) => oracle_row(c, r, x, acc, neg),
        MatrixStore::ShadowF16(c) => oracle_row(c, r, x, acc, neg),
        MatrixStore::Split(s) => {
            let acc = oracle_row(s.hi(), r, x, acc, neg);
            oracle_row(s.lo(), r, x, acc, neg)
        }
    }
}

fn oracle_spmv<S: Scalar>(a: &MatrixStore<S>, x: &[S]) -> Vec<S> {
    (0..a.nrows())
        .map(|r| oracle_store_row(a, r, x, None))
        .collect()
}

fn oracle_residual<S: Scalar>(a: &MatrixStore<S>, b: &[S], x: &[S]) -> Vec<S> {
    (0..a.nrows())
        .map(|r| oracle_store_row(a, r, x, Some(b[r])))
        .collect()
}

/// Per-block left-to-right chains of `x . y`.
fn oracle_partials<S: Scalar>(x: &[S], y: &[S], block: usize) -> Vec<S> {
    let mut parts = Vec::new();
    let mut lo = 0;
    while lo < x.len() {
        let hi = (lo + block).min(x.len());
        let mut acc = S::zero();
        for i in lo..hi {
            acc = x[i].mul_add(y[i], acc);
        }
        parts.push(acc);
        lo = hi;
    }
    parts
}

/// Pairwise tree: neighbours pair up level by level, an odd last
/// partial rides up unchanged.
fn oracle_tree<S: Scalar>(mut parts: Vec<S>) -> S {
    if parts.is_empty() {
        return S::zero();
    }
    while parts.len() > 1 {
        parts = parts
            .chunks(2)
            .map(|p| if p.len() == 2 { p[0] + p[1] } else { p[0] })
            .collect();
    }
    parts[0]
}

fn oracle_dot<S: Scalar>(x: &[S], y: &[S], order: ReductionOrder) -> S {
    match order {
        ReductionOrder::Sequential => oracle_tree(oracle_partials(x, y, x.len().max(1))),
        ReductionOrder::BlockedTree { block } => oracle_tree(oracle_partials(x, y, block.max(1))),
    }
}

/// Column `j` of a basis store, widened into `S`.
fn basis_col<S: Scalar>(v: &BasisStore<S>, j: usize) -> Vec<S> {
    match v {
        BasisStore::Native(m) => m.col(j).to_vec(),
        BasisStore::F32(c) => c.col(j).iter().map(|&e| cast::<f32, S>(e)).collect(),
        BasisStore::F16(c) => c.col(j).iter().map(|&e| cast::<Half, S>(e)).collect(),
    }
}

/// `w ± V[:, ..h.len()] h`, one column at a time over every row.
fn oracle_gemv_n<S: Scalar>(v: &BasisStore<S>, h: &[S], w: &[S], add: bool) -> Vec<S> {
    let mut out = w.to_vec();
    for (j, &hj) in h.iter().enumerate() {
        let hj = if add { hj } else { -hj };
        let col = basis_col(v, j);
        for r in 0..out.len() {
            out[r] = hj.mul_add(col[r], out[r]);
        }
    }
    out
}

/// Textbook LU with partial pivoting, row by row: first largest
/// magnitude wins, rows swapped whole, `l = a / pivot`, then
/// `a -= l * u` along the row as one `mul_add` per entry. Returns the
/// factors (`L` below the diagonal, `U` on and above it) and the row
/// pivots, or the step whose pivot column is zero or not finite.
fn oracle_lu<S: Scalar>(mut a: Vec<Vec<S>>) -> Result<(Vec<Vec<S>>, Vec<usize>), usize> {
    let m = a.len();
    let mut piv: Vec<usize> = (0..m).collect();
    for k in 0..m {
        let mut p = k;
        for r in k + 1..m {
            if a[r][k].abs() > a[p][k].abs() {
                p = r;
            }
        }
        let pmax = a[p][k].abs();
        if !(pmax > S::zero()) || !pmax.is_finite() {
            return Err(k);
        }
        a.swap(k, p);
        piv.swap(k, p);
        for r in k + 1..m {
            let l = a[r][k] / a[k][k];
            a[r][k] = l;
            for c in k + 1..m {
                a[r][c] = (-l).mul_add(a[k][c], a[r][c]);
            }
        }
    }
    Ok((a, piv))
}

/// Forward and back substitution of the permuted `x` with the factors
/// of [`oracle_lu`].
fn oracle_lu_solve<S: Scalar>(a: &[Vec<S>], piv: &[usize], x: &[S]) -> Vec<S> {
    let m = a.len();
    let mut t: Vec<S> = piv.iter().map(|&p| x[p]).collect();
    for r in 1..m {
        for c in 0..r {
            t[r] = (-a[r][c]).mul_add(t[c], t[r]);
        }
    }
    for r in (0..m).rev() {
        for c in r + 1..m {
            t[r] = (-a[r][c]).mul_add(t[c], t[r]);
        }
        t[r] /= a[r][r];
    }
    t
}

/// One block of a block Jacobi solve: [`oracle_lu`], or the identity
/// when the block is singular (and still substituted: `-0 * Inf` is
/// NaN). Returns the block's solution and whether it was singular.
fn oracle_block_solve<S: Scalar>(a: Vec<Vec<S>>, x: &[S]) -> (Vec<S>, bool) {
    let m = a.len();
    match oracle_lu(a) {
        Ok((f, piv)) => (oracle_lu_solve(&f, &piv, x), false),
        Err(_) => {
            let eye: Vec<Vec<S>> = (0..m)
                .map(|r| (0..m).map(|c| S::from_usize(usize::from(r == c))).collect())
                .collect();
            (oracle_lu_solve(&eye, &(0..m).collect::<Vec<_>>(), x), true)
        }
    }
}

// ---- checks ----------------------------------------------------------

const BLOCKS: [usize; 4] = [1, 5, 37, 256];

fn orders() -> impl Iterator<Item = ReductionOrder> {
    std::iter::once(ReductionOrder::Sequential)
        .chain(BLOCKS.map(|block| ReductionOrder::BlockedTree { block }))
}

fn stores<S: Elem>(a: &Csr<S>) -> [MatrixStore<S>; 4] {
    [
        MatrixStore::plain(a.clone()),
        MatrixStore::shadow(a, Precision::Fp32),
        MatrixStore::shadow(a, Precision::Fp16),
        MatrixStore::split_threshold(a, 0.5),
    ]
}

fn sparse<S: Elem>() {
    let exec = ScopedSpawn(3);
    for n in [1usize, 6, 37, 300] {
        for specials in [false, true] {
            let a = matrix::<S>(n, specials);
            let x = values::<S>(n, 2, specials);
            let b = values::<S>(n, 3, specials);
            let parts = par::row_partition(n, 3);
            let out = |f: &dyn Fn(&mut [S])| {
                let mut y = vec![S::zero(); n];
                f(&mut y);
                y
            };
            let plain = MatrixStore::plain(a.clone());
            let (want_spmv, want_res) = (oracle_spmv(&plain, &x), oracle_residual(&plain, &b, &x));
            same("Csr::spmv", &out(&|y| a.spmv(&x, y)), &want_spmv);
            same("Csr::residual", &out(&|y| a.residual(&b, &x, y)), &want_res);
            same(
                "par::spmv_parts_on",
                &out(&|y| par::spmv_parts_on(&exec, &parts, &a, &x, y)),
                &want_spmv,
            );
            same(
                "par::residual_parts_on",
                &out(&|y| par::residual_parts_on(&exec, &parts, &a, &b, &x, y)),
                &want_res,
            );
            for store in &stores(&a) {
                let tag = store.tag();
                let want_spmv = oracle_spmv(store, &x);
                let want_res = oracle_residual(store, &b, &x);
                same(
                    &format!("MatrixStore::spmv {tag}"),
                    &out(&|y| store.spmv(&x, y)),
                    &want_spmv,
                );
                same(
                    &format!("MatrixStore::residual {tag}"),
                    &out(&|y| store.residual(&b, &x, y)),
                    &want_res,
                );
                same(
                    &format!("par::store_spmv_parts_on {tag}"),
                    &out(&|y| par::store_spmv_parts_on(&exec, &parts, store, &x, y)),
                    &want_spmv,
                );
                same(
                    &format!("par::store_residual_parts_on {tag}"),
                    &out(&|y| par::store_residual_parts_on(&exec, &parts, store, &b, &x, y)),
                    &want_res,
                );
            }
            spmm(&a, n, specials, &exec, &parts);
        }
    }
}

/// SpMM at every width through 9 (the const-generic bodies and the
/// dynamic one): each column equals the oracle SpMV of that column.
fn spmm<S: Elem>(
    a: &Csr<S>,
    n: usize,
    specials: bool,
    exec: &ScopedSpawn,
    parts: &[(usize, usize)],
) {
    let all = [(0, n)];
    for k in 1..=9 {
        let cols: Vec<Vec<S>> = (0..k).map(|j| values(n, 20 + j as u64, specials)).collect();
        let refs: Vec<&[S]> = cols.iter().map(|c| c.as_slice()).collect();
        let xs = MultiVec::from_columns(&refs);
        let run = |f: &dyn Fn(&mut MultiVec<S>)| {
            let mut ys = MultiVec::zeros(n, k);
            f(&mut ys);
            ys
        };
        let check = |what: &str, ys: &MultiVec<S>, store: &MatrixStore<S>| {
            for (j, xj) in refs.iter().enumerate() {
                same(
                    &format!("{what} k={k} col {j}"),
                    ys.col(j),
                    &oracle_spmv(store, xj),
                );
            }
        };
        let plain = MatrixStore::plain(a.clone());
        check(
            "par::spmm_parts",
            &run(&|ys| par::spmm_parts(&all, a, &xs, k, ys)),
            &plain,
        );
        check(
            "par::spmm_parts_on",
            &run(&|ys| par::spmm_parts_on(exec, parts, a, &xs, k, ys)),
            &plain,
        );
        for store in &stores(a) {
            let tag = store.tag();
            check(
                &format!("MatrixStore::spmm {tag}"),
                &run(&|ys| store.spmm(&xs, k, ys)),
                store,
            );
            check(
                &format!("par::store_spmm_parts_on {tag}"),
                &run(&|ys| par::store_spmm_parts_on(exec, parts, store, &xs, k, ys)),
                store,
            );
        }
    }
}

fn reductions<S: Elem>() {
    let exec = ScopedSpawn(3);
    let big = PAR_THRESHOLD + 37;
    for n in [0usize, 1, 5, 36, 37, 255, 256, 257, 1100, big] {
        for specials in [false, true] {
            let x = values::<S>(n, 4, specials);
            let y = values::<S>(n, 5, specials);
            for order in orders() {
                let want = oracle_dot(&x, &y, order);
                let tag = format!("n={n} {order:?}");
                same(
                    &format!("dot_ordered {tag}"),
                    &[vec_ops::dot_ordered(&x, &y, order)],
                    &[want],
                );
                same(
                    &format!("norm2_ordered {tag}"),
                    &[vec_ops::norm2_ordered(&x, order)],
                    &[oracle_dot(&x, &x, order).sqrt()],
                );
                same(
                    &format!("par::dot_on {tag}"),
                    &[par::dot_on(&exec, &x, &y, order)],
                    &[want],
                );
            }
        }
    }
}

fn gemv<S: Elem>() {
    let exec = ScopedSpawn(3);
    // Below one block, 300 rows, a ragged third 512-row tile, and one
    // size the row- and column-partitioned kernels split.
    for n in [5usize, 300, 1100, PAR_THRESHOLD + 37] {
        let max_cols = 17;
        let w = values::<S>(n, 8, true);
        let h = values::<S>(max_cols, 9, false);
        let columns: Vec<Vec<S>> = (0..max_cols)
            .map(|j| values(n, 30 + j as u64, j % 5 == 2))
            .collect();
        let bases = [Precision::Fp64, Precision::Fp32, Precision::Fp16].map(|p| {
            let mut s = BasisStore::<S>::compressed(n, max_cols, p);
            for (j, c) in columns.iter().enumerate() {
                s.set_col(j, c);
            }
            s
        });
        for ncols in 0..=max_cols {
            for v in &bases {
                let p = v.storage_precision();
                let tag = format!("{p:?} n={n} ncols={ncols}");
                for order in orders() {
                    let want: Vec<S> = (0..ncols)
                        .map(|j| oracle_dot(&basis_col(v, j), &w, order))
                        .collect();
                    let dots = |f: &dyn Fn(&mut [S])| {
                        let mut o = vec![S::zero(); ncols];
                        f(&mut o);
                        o
                    };
                    same(
                        &format!("BasisStore::gemv_t {tag} {order:?}"),
                        &dots(&|o| v.gemv_t(ncols, &w, o, order)),
                        &want,
                    );
                    same(
                        &format!("par::basis_gemv_t_on {tag} {order:?}"),
                        &dots(&|o| par::basis_gemv_t_on(&exec, v, ncols, &w, o, order)),
                        &want,
                    );
                    if let Some(mv) = v.as_native() {
                        same(
                            &format!("MultiVector::gemv_t {tag} {order:?}"),
                            &dots(&|o| mv.gemv_t(ncols, &w, o, order)),
                            &want,
                        );
                        same(
                            &format!("par::gemv_t_on {tag} {order:?}"),
                            &dots(&|o| par::gemv_t_on(&exec, mv, ncols, &w, o, order)),
                            &want,
                        );
                    }
                }
                gemv_n(v, &h[..ncols], &w, &exec, &tag);
            }
        }
    }
}

/// Every GEMV No-Trans entry point on one basis and coefficient set.
fn gemv_n<S: Elem>(v: &BasisStore<S>, h: &[S], w: &[S], exec: &ScopedSpawn, tag: &str) {
    let ncols = h.len();
    let update = |f: &dyn Fn(&mut [S])| {
        let mut o = w.to_vec();
        f(&mut o);
        o
    };
    let (sub, add) = (oracle_gemv_n(v, h, w, false), oracle_gemv_n(v, h, w, true));
    same(
        &format!("BasisStore::gemv_n_sub {tag}"),
        &update(&|o| v.gemv_n_sub(ncols, h, o)),
        &sub,
    );
    same(
        &format!("BasisStore::gemv_n_add {tag}"),
        &update(&|o| v.gemv_n_add(ncols, h, o)),
        &add,
    );
    same(
        &format!("par::basis_gemv_n_sub_on {tag}"),
        &update(&|o| par::basis_gemv_n_sub_on(exec, v, ncols, h, o)),
        &sub,
    );
    same(
        &format!("par::basis_gemv_n_add_on {tag}"),
        &update(&|o| par::basis_gemv_n_add_on(exec, v, ncols, h, o)),
        &add,
    );
    if let Some(mv) = v.as_native() {
        same(
            &format!("MultiVector::gemv_n_sub {tag}"),
            &update(&|o| mv.gemv_n_sub(ncols, h, o)),
            &sub,
        );
        same(
            &format!("MultiVector::gemv_n_add {tag}"),
            &update(&|o| mv.gemv_n_add(ncols, h, o)),
            &add,
        );
        same(
            &format!("par::gemv_n_sub_on {tag}"),
            &update(&|o| par::gemv_n_sub_on(exec, mv, ncols, h, o)),
            &sub,
        );
        same(
            &format!("par::gemv_n_add_on {tag}"),
            &update(&|o| par::gemv_n_add_on(exec, mv, ncols, h, o)),
            &add,
        );
    }
}

/// Sizes above `GEMV_PAR_THRESHOLD`, not multiples of 256, whose
/// 256-row reduction blocks (9 and 11) split unevenly over both 2 and 4
/// participants.
const SPLIT_NS: [usize; 2] = [par::GEMV_PAR_THRESHOLD + 37, 10 * 256 + 100];

/// The pooled GEMV-T (block split under a blocked tree, column split
/// under the sequential order) on 2- and 4-participant pools, 0 to 17
/// columns, every basis storage path.
fn pooled_gemv_t<S: Elem>() {
    let pools = [WorkerPool::new(2), WorkerPool::new(4)];
    for n in SPLIT_NS {
        assert!(n >= par::GEMV_PAR_THRESHOLD && n % 256 != 0, "n = {n}");
        let max_cols = 17;
        let w = values::<S>(n, 18, true);
        let columns: Vec<Vec<S>> = (0..max_cols)
            .map(|j| values(n, 60 + j as u64, j % 4 == 1))
            .collect();
        let bases = [Precision::Fp64, Precision::Fp32, Precision::Fp16].map(|p| {
            let mut s = BasisStore::<S>::compressed(n, max_cols, p);
            for (j, c) in columns.iter().enumerate() {
                s.set_col(j, c);
            }
            s
        });
        for v in &bases {
            for order in orders() {
                let want: Vec<S> = (0..max_cols)
                    .map(|j| oracle_dot(&basis_col(v, j), &w, order))
                    .collect();
                for pool in &pools {
                    for ncols in 0..=max_cols {
                        let p = v.storage_precision();
                        let tag = format!(
                            "{p:?} n={n} ncols={ncols} {order:?} threads={}",
                            pool.threads()
                        );
                        let mut h = vec![S::zero(); ncols];
                        par::basis_gemv_t_on(pool, v, ncols, &w, &mut h, order);
                        same(&format!("par::basis_gemv_t_on {tag}"), &h, &want[..ncols]);
                        if let Some(mv) = v.as_native() {
                            par::gemv_t_on(pool, mv, ncols, &w, &mut h, order);
                            same(&format!("par::gemv_t_on {tag}"), &h, &want[..ncols]);
                        }
                    }
                }
            }
        }
    }
}

/// The pooled block Jacobi apply, against a per-block textbook LU solve:
/// group runs that split unevenly over 2 and 4 participants, and a tail
/// of whole blocks plus a ragged one that is not a full 16-block group.
fn pooled_block_lu<S: Elem>() {
    let pools = [WorkerPool::new(2), WorkerPool::new(4)];
    let n = par::BLOCK_LU_PAR_THRESHOLD + 87;
    // 16-row blocks: 8 groups and a tail of 5 blocks plus 7 rows;
    // 5-row blocks: 26 groups and a tail of 11 blocks.
    for bs in [16usize, 5] {
        assert!(
            !n.is_multiple_of(16 * bs),
            "bs = {bs}: the tail must not be a full group"
        );
        for specials in [false, true] {
            let vals = values::<S>(n * bs, 21 + bs as u64, specials);
            let entry = |s: usize, r: usize, c: usize| {
                let v = vals[(s + r) * bs + c];
                if r == c && (s / bs) % 3 != 1 {
                    v + S::from_f64(4.0)
                } else {
                    v
                }
            };
            let lu = BlockLu::factor(n, bs, 1, |s, m| {
                DenseMat::from_fn(m, m, |r, c| entry(s, r, c))
            });
            let x = values::<S>(n, 22, specials);
            let mut want = Vec::with_capacity(n);
            for s in (0..n).step_by(bs) {
                let m = bs.min(n - s);
                let a = (0..m)
                    .map(|r| (0..m).map(|c| entry(s, r, c)).collect())
                    .collect();
                want.extend(oracle_block_solve(a, &x[s..s + m]).0);
            }
            let tag = format!("n={n} bs={bs} specials={specials}");
            let mut y = vec![S::zero(); n];
            lu.solve(&x, &mut y);
            same(&format!("BlockLu::solve {tag}"), &y, &want);
            for pool in &pools {
                let mut y = vec![S::zero(); n];
                par::block_lu_solve_on(pool, &lu, &x, &mut y);
                same(
                    &format!("par::block_lu_solve_on {tag} threads={}", pool.threads()),
                    &y,
                    &want,
                );
            }
        }
    }
}

/// `LuFactors::factor` and its solve against the row-oriented oracle at
/// sizes 1 to 17: general matrices (which pivot), diagonally dominant
/// ones, and ones with a zero column, a NaN or an infinite entry. A
/// factorization that fails must fail at the oracle's step; one that
/// succeeds must solve bit for bit like the oracle's factors.
fn lu_factors<S: Elem>() {
    let (mut factored, mut singular) = (0, 0);
    for m in 1..=17usize {
        for (salt, case) in ["general", "dominant", "zero column", "nan", "inf"]
            .into_iter()
            .enumerate()
        {
            let vals = values::<S>(m * m, 31 + 7 * salt as u64 + 101 * m as u64, false);
            let entry = |r: usize, c: usize| match case {
                "dominant" if r == c => vals[r * m + c] + S::from_f64(4.0),
                "zero column" if c == m / 2 => S::zero(),
                "nan" if (r, c) == (m - 1, m / 3) => S::from_f64(f64::NAN),
                "inf" if (r, c) == (m / 2, m - 1) => S::from_f64(f64::INFINITY),
                _ => vals[r * m + c],
            };
            let rows = (0..m).map(|r| (0..m).map(|c| entry(r, c)).collect());
            let tag = format!("LuFactors {case} m={m}");
            match (
                LuFactors::factor(&DenseMat::from_fn(m, m, entry)),
                oracle_lu(rows.collect()),
            ) {
                (Ok(lu), Ok((f, piv))) => {
                    factored += 1;
                    for specials in [false, true] {
                        let x = values::<S>(m, 41 + m as u64, specials);
                        let mut y = x.clone();
                        lu.solve_in_place(&mut y);
                        same(
                            &format!("{tag} specials={specials}"),
                            &y,
                            &oracle_lu_solve(&f, &piv, &x),
                        );
                    }
                }
                (Err(e), Err(step)) => {
                    singular += 1;
                    assert_eq!(e.step, step, "{tag} ({})", S::NAME);
                }
                (got, want) => panic!(
                    "{tag} ({}): library factored {}, oracle factored {}",
                    S::NAME,
                    got.is_ok(),
                    want.is_ok()
                ),
            }
        }
    }
    assert!(
        factored > 0 && singular > 0,
        "both outcomes must be exercised"
    );
}

/// Blocks per packed `BlockLu` group.
const LU_GROUP: usize = 16;

/// `BlockLu::factor` against the oracle at block sizes 1 to 17, on 1
/// and 2 threads: two full groups, leftover blocks and a ragged last
/// block, where every seventh block is zero and others hold a NaN or a
/// zero column. Every block solves like the oracle's factors, a
/// singular block like the identity, and `singular_blocks()` counts
/// the oracle's failures.
fn block_lu_factor<S: Elem>() {
    for bs in 1..=17usize {
        let n = 2 * LU_GROUP * bs + 3 * bs + bs / 2 + 1;
        let vals = values::<S>(n * bs, 51 + bs as u64, false);
        let entry = |s: usize, r: usize, c: usize| {
            let (m, v) = (bs.min(n - s), vals[(s + r) * bs + c]);
            match (s / bs) % 7 {
                0 if r == c => v + S::from_f64(4.0),
                1 => S::zero(),
                3 if (r, c) == (m - 1, 0) => S::from_f64(f64::NAN),
                5 if c == m / 2 => S::zero(),
                _ => v,
            }
        };
        let block = |s: usize, m: usize| DenseMat::from_fn(m, m, |r, c| entry(s, r, c));
        for specials in [false, true] {
            let x = values::<S>(n, 61 + bs as u64, specials);
            let (mut want, mut singular) = (Vec::with_capacity(n), 0);
            for s in (0..n).step_by(bs) {
                let m = bs.min(n - s);
                let a = (0..m).map(|r| (0..m).map(|c| entry(s, r, c)).collect());
                let (y, failed) = oracle_block_solve(a.collect(), &x[s..s + m]);
                want.extend(y);
                singular += usize::from(failed);
            }
            assert!(
                singular > 0,
                "bs = {bs}: the identity fallback must be exercised"
            );
            for threads in [1, 2] {
                let packed = BlockLu::factor(n, bs, threads, block);
                let mut y = vec![S::zero(); n];
                packed.solve(&x, &mut y);
                let tag = format!("BlockLu::factor bs={bs} threads={threads} specials={specials}");
                same(&tag, &y, &want);
                assert_eq!(packed.singular_blocks(), singular, "{tag} ({})", S::NAME);
            }
        }
    }
}

/// Sizes for the f64 lane kernel (four reduction blocks to an AVX
/// register): four quads of 256, seven blocks of 256 plus a ragged 100
/// (one full quad, then scalar blocks), and the stretched-bj size.
const LANE_NS: [usize; 3] = [1024, 7 * 256 + 100, 9216];

/// Block sizes for the lane kernel: the existing ones plus whole lane
/// rows (8, 64).
const LANE_BLOCKS: [usize; 6] = [1, 5, 8, 37, 64, 256];

/// Basis widths: every remainder of a four-column lane pass and of an
/// eight-column scalar group, and a full GMRES(50) basis and one past.
const LANE_NCOLS: [usize; 20] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 50, 51,
];

/// Every blocked-tree entry point at the lane kernel's shapes, in f64
/// (the only precision it covers), against the oracles: dot, norm,
/// pooled partials, and GEMV-T over every basis store,
/// serial, column- and block-split, on pools whose block runs start at
/// odd blocks.
fn lane_shapes() {
    let exec = ScopedSpawn(3);
    let pool = WorkerPool::new(3);
    let maxc = LANE_NCOLS[LANE_NCOLS.len() - 1];
    let mut odd_start = false;
    for n in LANE_NS {
        for specials in [false, true] {
            let x = values::<f64>(n, 70, specials);
            let y = values::<f64>(n, 71, specials);
            let columns: Vec<Vec<f64>> = (0..maxc)
                .map(|j| values(n, 80 + j as u64, j % 4 == 1))
                .collect();
            let bases = [Precision::Fp64, Precision::Fp32, Precision::Fp16].map(|p| {
                let mut v = BasisStore::<f64>::compressed(n, maxc, p);
                for (j, c) in columns.iter().enumerate() {
                    v.set_col(j, c);
                }
                v
            });
            for block in LANE_BLOCKS {
                let order = ReductionOrder::BlockedTree { block };
                let tag = format!("n={n} block={block} specials={specials}");
                let nblocks = n.div_ceil(block);
                odd_start |= par::row_partition(nblocks, pool.threads())
                    .iter()
                    .any(|&(b0, b1)| b0 % 2 == 1 && b1 - b0 >= 4);
                let want = oracle_dot(&x, &y, order);
                same(
                    &format!("dot_ordered {tag}"),
                    &[vec_ops::dot_ordered(&x, &y, order)],
                    &[want],
                );
                same(
                    &format!("norm2_ordered {tag}"),
                    &[vec_ops::norm2_ordered(&x, order)],
                    &[oracle_dot(&x, &x, order).sqrt()],
                );
                for (what, got) in [
                    ("par::dot_split_on", par::dot_split_on(&exec, &x, &y, order)),
                    (
                        "par::dot_split_on pooled",
                        par::dot_split_on(&pool, &x, &y, order),
                    ),
                ] {
                    same(&format!("{what} {tag}"), &[got], &[want]);
                }
                for v in &bases {
                    let p = v.storage_precision();
                    let want: Vec<f64> = (0..maxc)
                        .map(|j| oracle_dot(&basis_col(v, j), &y, order))
                        .collect();
                    for ncols in LANE_NCOLS {
                        let tag = format!("{p:?} {tag} ncols={ncols}");
                        let want = &want[..ncols];
                        let dots = |f: &dyn Fn(&mut [f64])| {
                            let mut o = vec![0.0; ncols];
                            f(&mut o);
                            o
                        };
                        same(
                            &format!("BasisStore::gemv_t {tag}"),
                            &dots(&|o| v.gemv_t(ncols, &y, o, order)),
                            want,
                        );
                        same(
                            &format!("par::basis_gemv_t_on pooled {tag}"),
                            &dots(&|o| par::basis_gemv_t_on(&pool, v, ncols, &y, o, order)),
                            want,
                        );
                        if let Some(mv) = v.as_native() {
                            same(
                                &format!("MultiVector::gemv_t {tag}"),
                                &dots(&|o| mv.gemv_t(ncols, &y, o, order)),
                                want,
                            );
                            same(
                                &format!("par::gemv_t_split_on {tag}"),
                                &dots(&|o| par::gemv_t_split_on(&exec, mv, ncols, &y, o, order)),
                                want,
                            );
                            same(
                                &format!("par::gemv_t_split_on pooled {tag}"),
                                &dots(&|o| par::gemv_t_split_on(&pool, mv, ncols, &y, o, order)),
                                want,
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(odd_start, "no pooled block run starts at an odd block");
}

#[test]
fn lane_kernel_shapes_match_oracle() {
    lane_shapes();
}

#[test]
fn lu_factors_match_row_oriented_oracle() {
    lu_factors::<f64>();
    lu_factors::<f32>();
    lu_factors::<Half>();
}

#[test]
fn block_lu_factor_matches_oracle() {
    block_lu_factor::<f64>();
    block_lu_factor::<f32>();
    block_lu_factor::<Half>();
}

#[test]
fn pooled_gemv_t_matches_oracle() {
    pooled_gemv_t::<f64>();
    pooled_gemv_t::<f32>();
    pooled_gemv_t::<Half>();
}

#[test]
fn pooled_block_lu_solve_matches_oracle() {
    pooled_block_lu::<f64>();
    pooled_block_lu::<f32>();
    pooled_block_lu::<Half>();
}

#[test]
fn sparse_kernels_match_oracle() {
    sparse::<f64>();
    sparse::<f32>();
    sparse::<Half>();
}

#[test]
fn reductions_match_oracle() {
    reductions::<f64>();
    reductions::<f32>();
    reductions::<Half>();
}

#[test]
fn gemv_kernels_match_oracle() {
    gemv::<f64>();
    gemv::<f32>();
    gemv::<Half>();
}
