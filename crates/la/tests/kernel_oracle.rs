//! The row, block and column kernels against naive oracles, bit for bit.
//!
//! Each oracle below is the plainest index loop for its kernel: one
//! `mul_add` per stored entry or element, in the documented order, and
//! no code shared with the library. The kernels under test walk row
//! slices, run reduction blocks and GEMV-T columns in lockstep, and tile
//! GEMV-N by rows; none of that may move a bit. Every public entry point
//! is covered (plain, store and shard variants, serial and
//! row-partitioned), in f64, f32 and `Half`.
//!
//! Shapes: `n` below one reduction block and not a multiple of 256;
//! block sizes 1, 5, 37 and 256; 0 to 17 basis columns (every remainder
//! of an 8-column GEMV-T group); a ragged last 512-row GEMV-N tile;
//! empty matrix rows. Inputs include ±0, subnormals, ±Inf and NaN.
//! Results compare bit for bit, except that every NaN counts as one
//! value: IEEE 754 leaves a NaN result's sign and payload to the
//! implementation.

use mpgmres_la::basis::BasisStore;
use mpgmres_la::csr::Csr;
use mpgmres_la::multivec::MultiVec;
use mpgmres_la::par;
use mpgmres_la::pool::ScopedSpawn;
use mpgmres_la::shard::{self, ShardPlan};
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
            let plan = ShardPlan::build(&a, 3);
            same(
                "ShardPlan::spmv",
                &out(&|y| plan.spmv(&a, &x, y, &mut Vec::new())),
                &want_spmv,
            );
            same(
                "ShardPlan::residual",
                &out(&|y| plan.residual(&a, &b, &x, y, &mut Vec::new())),
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
                let (r0, r1) = (n / 3, n);
                let mut y = vec![S::zero(); r1 - r0];
                shard::store_spmv_rows(store, r0, r1, &x, &mut y);
                same(
                    &format!("shard::store_spmv_rows {tag}"),
                    &y,
                    &want_spmv[r0..r1],
                );
                shard::store_residual_rows(store, r0, r1, &b[r0..r1], &x, &mut y);
                same(
                    &format!("shard::store_residual_rows {tag}"),
                    &y,
                    &want_res[r0..r1],
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
            let (r0, r1) = (n / 3, n);
            let mut ys: Vec<Vec<S>> = vec![vec![S::zero(); r1 - r0]; k];
            let mut outs: Vec<&mut [S]> = ys.iter_mut().map(|y| y.as_mut_slice()).collect();
            shard::store_spmm_rows(store, &refs, r0, r1, &mut outs);
            for (j, xj) in refs.iter().enumerate() {
                same(
                    &format!("shard::store_spmm_rows {tag} k={k} col {j}"),
                    &ys[j],
                    &oracle_spmv(store, xj)[r0..r1],
                );
            }
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
                same(
                    &format!("shard::dot_sharded {tag}"),
                    &[shard::dot_sharded(&x, &y, order, shard::even_ranges(n, 3))],
                    &[want],
                );
            }
            for block in BLOCKS {
                // A cut inside a block and one on a block boundary.
                for (c0, c1) in [(n / 3, n), (0, n / block * block)] {
                    let mut got = Vec::new();
                    shard::dot_partials(&x, &y, block, c0, c1, &mut got);
                    let first = c0.div_ceil(block);
                    let want = oracle_partials(&x, &y, block);
                    let upto = c1.div_ceil(block).max(first);
                    same(
                        &format!("shard::dot_partials n={n} block={block} [{c0}, {c1})"),
                        &got,
                        &want[first..upto],
                    );
                }
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
