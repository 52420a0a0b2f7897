//! Std-thread parallel kernels: the compute engine behind
//! `mpgmres-backend`'s `ParallelBackend`.
//!
//! Design rule: **parallelism never changes a floating-point result.**
//! Every kernel partitions *independent outputs* (rows of `y` in
//! SpMV/GEMV-NoTrans, columns in GEMV-Trans, blocks in a blocked-tree
//! reduction, lanes in the batched lane-set kernels) across workers and
//! evaluates each output with exactly the same operation order as the
//! sequential reference in [`crate::vec_ops`], [`crate::csr`], and
//! [`crate::multivector`]. Consequences:
//!
//! - SpMV, residual, GEMV (both shapes), axpy, scal, copy, and the
//!   lane-set kernels are bit-identical to the reference for *any*
//!   [`ReductionOrder`].
//! - `dot`/`norm2` under [`ReductionOrder::BlockedTree`] are
//!   bit-identical too: block partial sums are independent and the
//!   pairwise combine tree is shared with the reference
//!   (`vec_ops::tree_sum`).
//! - `dot`/`norm2` under [`ReductionOrder::Sequential`] are inherently
//!   serial (a single left-to-right chain) and therefore run
//!   sequentially here as well — bit-determinism is the contract, and a
//!   parallel sum would break it.
//!
//! Every kernel comes in two flavors: the classic `threads: usize`
//! entry points spawn scoped threads per call (`std::thread::scope`),
//! and the `_on` variants take any [`Executor`] — in particular the
//! persistent pinned [`WorkerPool`](crate::pool::WorkerPool), which
//! skips the per-call spawn. Execution style never affects results;
//! below [`crate::vec_ops::PAR_THRESHOLD`] elements (or
//! [`SPMV_PAR_THRESHOLD`] nonzeros for matrix kernels) the kernels fall
//! back to the sequential path so small problems never pay dispatch
//! overhead.
//!
//! Every chunk closure that runs a `mul_add` chain wraps its body in
//! [`fma::run`], so it executes on hardware FMA when the CPU has it.

use mpgmres_scalar::Scalar;

use crate::basis::BasisStore;
use crate::csr::Csr;
use crate::fma;
use crate::multivec::MultiVec;
use crate::multivector::MultiVector;
use crate::pool::{Executor, ScopedSpawn};
use crate::raw::{RawSlice, RawSliceMut};
use crate::store::MatrixStore;
use crate::vec_ops::{self, ReductionOrder, PAR_THRESHOLD};

/// Minimum stored nonzeros before SpMV/residual go parallel.
pub const SPMV_PAR_THRESHOLD: usize = 1 << 15;

/// Split `[0, len)` into at most `threads` contiguous `(start, end)`
/// ranges — the row partition every row-parallel kernel uses. Exposed so
/// backends can compute it once per `(len, threads)` pair and reuse it
/// across kernel calls (the partition never affects results, only which
/// worker computes which rows).
pub fn row_partition(len: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = threads.clamp(1, len.max(1));
    let chunk = len.div_ceil(threads.max(1)).max(1);
    let mut parts = Vec::with_capacity(threads);
    let mut start = 0usize;
    while start < len {
        let end = (start + chunk).min(len);
        parts.push((start, end));
        start = end;
    }
    if parts.is_empty() {
        parts.push((0, 0));
    }
    parts
}

/// Split `[0, a.nrows())` into at most `threads` contiguous row ranges
/// of approximately equal *stored-nonzero* counts (the work-stealing
/// alternative to [`row_partition`]'s equal-row split). On strongly
/// non-uniform matrices — arrow heads, SuiteSparse surrogates with a few
/// dense rows — an equal-row split can leave one worker with most of
/// the nonzeros; cutting at nnz quantiles balances per-worker SpMV work
/// instead. Like every partition, this only decides which worker
/// computes which rows; results are unaffected.
pub fn nnz_partition<S: Scalar>(a: &Csr<S>, threads: usize) -> Vec<(usize, usize)> {
    let n = a.nrows();
    let nnz = a.nnz();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n == 0 || nnz == 0 {
        return vec![(0, n)];
    }
    let row_ptr = a.row_ptr();
    let mut parts = Vec::with_capacity(threads);
    let mut start = 0usize;
    for p in 0..threads {
        if start >= n {
            break;
        }
        let end = if p + 1 == threads {
            n
        } else {
            // First row boundary whose nnz prefix reaches the (p+1)-th
            // share, but always at least one row per part.
            let target = nnz * (p + 1) / threads;
            row_ptr.partition_point(|&x| x < target).clamp(start + 1, n)
        };
        parts.push((start, end));
        start = end;
    }
    if let Some(last) = parts.last_mut() {
        last.1 = n;
    }
    parts
}

/// Number of worker threads to use: `MPGMRES_THREADS` if set, else the
/// machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("MPGMRES_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Split `[0, len)` into at most `exec.width()` contiguous chunks and
/// run `f(start, chunk)` for each chunk of `data` as one executor job.
fn for_each_chunk_mut_on<S: Send, F>(exec: &dyn Executor, data: &mut [S], f: F)
where
    F: Fn(usize, &mut [S]) + Sync,
{
    let len = data.len();
    let width = exec.width().clamp(1, len.max(1));
    let chunk = len.div_ceil(width);
    if width <= 1 || chunk == 0 {
        f(0, data);
        return;
    }
    let mut jobs: Vec<(usize, RawSliceMut<S>)> = Vec::with_capacity(width);
    let mut rest = data;
    let mut start = 0usize;
    while !rest.is_empty() {
        let take = chunk.min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        jobs.push((start, RawSliceMut::new(head)));
        start += take;
        rest = tail;
    }
    exec.run_jobs(jobs.len(), &|i| {
        let (s, p) = &jobs[i];
        // SAFETY: the chunks are disjoint and each job index runs
        // exactly once; `run_jobs` blocks until every job finishes, so
        // the borrow of `data` outlives every dereference.
        f(*s, unsafe { p.get() })
    });
}

/// Scoped-spawn convenience wrapper around [`for_each_chunk_mut_on`].
fn for_each_chunk_mut<S: Send, F>(threads: usize, data: &mut [S], f: F)
where
    F: Fn(usize, &mut [S]) + Sync,
{
    for_each_chunk_mut_on(&ScopedSpawn(threads), data, f);
}

/// Run `f(i, &mut data[i])` for every element, elements partitioned in
/// contiguous runs across scoped threads. For batches of independent
/// work items (e.g. factoring block Jacobi's groups of diagonal blocks);
/// results are position-deterministic, so parallelism never changes an
/// outcome.
pub fn for_each_slot_mut<T: Send, F>(threads: usize, data: &mut [T], f: F)
where
    F: Fn(usize, &mut T) + Sync,
{
    if threads <= 1 || data.len() <= 1 {
        for (i, slot) in data.iter_mut().enumerate() {
            f(i, slot);
        }
        return;
    }
    for_each_chunk_mut(threads, data, |start, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            f(start + i, slot);
        }
    });
}

/// Run `f(start, chunk)` for each precomputed contiguous `(start, end)`
/// range of `data`, one executor job per range. The ranges must tile
/// `0..data.len()` in order (as produced by [`row_partition`] or
/// [`nnz_partition`]); callers that cache partitions (see
/// `mpgmres-backend`'s `ParallelBackend`) use this instead of
/// recomputing the split on every kernel call.
fn for_each_part_mut_on<S: Send, F>(
    exec: &dyn Executor,
    parts: &[(usize, usize)],
    data: &mut [S],
    f: F,
) where
    F: Fn(usize, &mut [S]) + Sync,
{
    if parts.len() <= 1 {
        f(0, data);
        return;
    }
    let len = data.len();
    let mut jobs: Vec<(usize, RawSliceMut<S>)> = Vec::with_capacity(parts.len());
    let mut rest = data;
    let mut prev = 0usize;
    for &(lo, hi) in parts {
        assert_eq!(lo, prev, "parts must be contiguous");
        let (head, tail) = rest.split_at_mut(hi - lo);
        jobs.push((lo, RawSliceMut::new(head)));
        rest = tail;
        prev = hi;
    }
    assert_eq!(prev, len, "parts must cover the data");
    exec.run_jobs(jobs.len(), &|i| {
        let (s, p) = &jobs[i];
        // SAFETY: disjoint ranges, one job per index, barrier in
        // `run_jobs` (see for_each_chunk_mut_on).
        f(*s, unsafe { p.get() })
    });
}

/// `y = A x`, rows partitioned across threads.
///
/// Bit-identical to [`Csr::spmv`] (same per-row accumulation order).
pub fn spmv<S: Scalar>(threads: usize, a: &Csr<S>, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), a.ncols(), "spmv: x length mismatch");
    assert_eq!(y.len(), a.nrows(), "spmv: y length mismatch");
    if a.nnz() < SPMV_PAR_THRESHOLD || threads <= 1 {
        a.spmv(x, y);
        return;
    }
    for_each_chunk_mut(threads, y, |start, chunk| {
        fma::run(|| a.spmv_rows(start, x, chunk))
    });
}

/// `y = A x` over a precomputed row partition (no threshold check; the
/// caller decides when going parallel pays). Bit-identical to
/// [`Csr::spmv`].
pub fn spmv_parts<S: Scalar>(parts: &[(usize, usize)], a: &Csr<S>, x: &[S], y: &mut [S]) {
    spmv_parts_on(&ScopedSpawn(parts.len()), parts, a, x, y);
}

/// [`spmv_parts`] on an explicit executor (e.g. a persistent pool).
pub fn spmv_parts_on<S: Scalar>(
    exec: &dyn Executor,
    parts: &[(usize, usize)],
    a: &Csr<S>,
    x: &[S],
    y: &mut [S],
) {
    assert_eq!(x.len(), a.ncols(), "spmv: x length mismatch");
    assert_eq!(y.len(), a.nrows(), "spmv: y length mismatch");
    for_each_part_mut_on(exec, parts, y, |start, chunk| {
        fma::run(|| a.spmv_rows(start, x, chunk))
    });
}

/// `r = b - A x` over a precomputed row partition. Bit-identical to
/// [`Csr::residual`].
pub fn residual_parts<S: Scalar>(
    parts: &[(usize, usize)],
    a: &Csr<S>,
    b: &[S],
    x: &[S],
    r: &mut [S],
) {
    residual_parts_on(&ScopedSpawn(parts.len()), parts, a, b, x, r);
}

/// [`residual_parts`] on an explicit executor.
pub fn residual_parts_on<S: Scalar>(
    exec: &dyn Executor,
    parts: &[(usize, usize)],
    a: &Csr<S>,
    b: &[S],
    x: &[S],
    r: &mut [S],
) {
    assert_eq!(b.len(), a.nrows(), "residual: b length mismatch");
    assert_eq!(x.len(), a.ncols(), "residual: x length mismatch");
    assert_eq!(r.len(), a.nrows(), "residual: r length mismatch");
    for_each_part_mut_on(exec, parts, r, |start, chunk| {
        fma::run(|| a.residual_rows(start, b, x, chunk))
    });
}

/// Fused SpMM `Y = A X` over the leading `k` columns: one pass over the
/// CSR rows serves all `k` right-hand sides (the matrix values and
/// indices are read once per block instead of once per column).
///
/// Per output column this accumulates in exactly the order of
/// [`Csr::spmv`]'s per-row kernel, so the result is bit-identical to `k`
/// independent SpMV calls — the multi-RHS determinism contract.
pub fn spmm<S: Scalar>(threads: usize, a: &Csr<S>, x: &MultiVec<S>, k: usize, y: &mut MultiVec<S>) {
    if a.nnz() < SPMV_PAR_THRESHOLD || threads <= 1 {
        spmm_parts(&[(0, a.nrows())], a, x, k, y);
        return;
    }
    spmm_parts(&row_partition(a.nrows(), threads), a, x, k, y);
}

/// Fused SpMM over a precomputed row partition (see [`spmm`]).
pub fn spmm_parts<S: Scalar>(
    parts: &[(usize, usize)],
    a: &Csr<S>,
    x: &MultiVec<S>,
    k: usize,
    y: &mut MultiVec<S>,
) {
    spmm_parts_on(&ScopedSpawn(parts.len()), parts, a, x, k, y);
}

/// [`spmm_parts`] on an explicit executor.
pub fn spmm_parts_on<S: Scalar>(
    exec: &dyn Executor,
    parts: &[(usize, usize)],
    a: &Csr<S>,
    x: &MultiVec<S>,
    k: usize,
    y: &mut MultiVec<S>,
) {
    assert_eq!(x.n(), a.ncols(), "spmm: x row count mismatch");
    assert_eq!(y.n(), a.nrows(), "spmm: y row count mismatch");
    assert!(k <= x.k() && k <= y.k(), "spmm: too many columns");
    let xcols: Vec<&[S]> = (0..k).map(|j| x.col(j)).collect();
    let mut slots = y.partition_rows_mut(k, parts);
    if parts.len() <= 1 {
        if let (Some(&(lo, hi)), Some(cols)) = (parts.first(), slots.first_mut()) {
            spmm_rows(a, &xcols, lo, hi, cols);
        }
        return;
    }
    /// One SpMM job: a row range plus raw views of its per-column
    /// output slices.
    type SpmmJob<S> = (usize, usize, Vec<RawSliceMut<S>>);
    let jobs: Vec<SpmmJob<S>> = parts
        .iter()
        .zip(slots.iter_mut())
        .map(|(&(lo, hi), cols)| {
            let raw = cols.iter_mut().map(|c| RawSliceMut::new(c)).collect();
            (lo, hi, raw)
        })
        .collect();
    let xcols = &xcols;
    exec.run_jobs(jobs.len(), &|i| {
        let (lo, hi, cols) = &jobs[i];
        // SAFETY: `partition_rows_mut` produced disjoint row slices of
        // every column; each job owns one row range (see
        // for_each_chunk_mut_on for the barrier argument).
        let mut slices: Vec<&mut [S]> = cols.iter().map(|p| unsafe { p.get() }).collect();
        spmm_rows(a, xcols, *lo, *hi, &mut slices);
    });
}

/// The per-worker SpMM loop: stream rows `[lo, hi)` once, updating all
/// `k` accumulators per stored entry; each accumulator follows the exact
/// left-to-right `mul_add` order of [`Csr::spmv`]. Common small widths
/// dispatch to a const-generic body so the accumulators live in
/// registers instead of a heap buffer; each body runs under
/// [`fma::run`].
pub(crate) fn spmm_rows<S: Scalar>(
    a: &Csr<S>,
    xcols: &[&[S]],
    lo: usize,
    hi: usize,
    out: &mut [&mut [S]],
) {
    match xcols.len() {
        1 => fma::run(|| spmm_rows_fixed::<S, 1>(a, xcols, lo, hi, out)),
        2 => fma::run(|| spmm_rows_fixed::<S, 2>(a, xcols, lo, hi, out)),
        3 => fma::run(|| spmm_rows_fixed::<S, 3>(a, xcols, lo, hi, out)),
        4 => fma::run(|| spmm_rows_fixed::<S, 4>(a, xcols, lo, hi, out)),
        5 => fma::run(|| spmm_rows_fixed::<S, 5>(a, xcols, lo, hi, out)),
        6 => fma::run(|| spmm_rows_fixed::<S, 6>(a, xcols, lo, hi, out)),
        7 => fma::run(|| spmm_rows_fixed::<S, 7>(a, xcols, lo, hi, out)),
        8 => fma::run(|| spmm_rows_fixed::<S, 8>(a, xcols, lo, hi, out)),
        _ => fma::run(|| spmm_rows_dyn(a, xcols, lo, hi, out)),
    }
}

#[inline(always)]
fn spmm_rows_fixed<S: Scalar, const K: usize>(
    a: &Csr<S>,
    xcols: &[&[S]],
    lo: usize,
    hi: usize,
    out: &mut [&mut [S]],
) {
    debug_assert_eq!(xcols.len(), K);
    let xc: &[&[S]; K] = xcols.try_into().expect("width checked by dispatch");
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    let vals = a.vals();
    for r in lo..hi {
        let mut acc = [S::zero(); K];
        for idx in row_ptr[r]..row_ptr[r + 1] {
            let c = col_idx[idx] as usize;
            let v = vals[idx];
            for j in 0..K {
                acc[j] = v.mul_add(xc[j][c], acc[j]);
            }
        }
        for j in 0..K {
            out[j][r - lo] = acc[j];
        }
    }
}

#[inline(always)]
fn spmm_rows_dyn<S: Scalar>(
    a: &Csr<S>,
    xcols: &[&[S]],
    lo: usize,
    hi: usize,
    out: &mut [&mut [S]],
) {
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    let vals = a.vals();
    let mut acc = vec![S::zero(); xcols.len()];
    for r in lo..hi {
        for a_j in acc.iter_mut() {
            *a_j = S::zero();
        }
        for idx in row_ptr[r]..row_ptr[r + 1] {
            let c = col_idx[idx] as usize;
            let v = vals[idx];
            for (j, xc) in xcols.iter().enumerate() {
                acc[j] = v.mul_add(xc[c], acc[j]);
            }
        }
        for (j, a_j) in acc.iter().enumerate() {
            out[j][r - lo] = *a_j;
        }
    }
}

/// `y = A x` for a [`MatrixStore`] over a precomputed row partition.
///
/// Bit-identical to [`MatrixStore::spmv`]: both paths evaluate each
/// output row with the store's shared per-row kernel.
pub fn store_spmv_parts_on<S: Scalar>(
    exec: &dyn Executor,
    parts: &[(usize, usize)],
    a: &MatrixStore<S>,
    x: &[S],
    y: &mut [S],
) {
    assert_eq!(x.len(), a.ncols(), "store spmv: x length mismatch");
    assert_eq!(y.len(), a.nrows(), "store spmv: y length mismatch");
    for_each_part_mut_on(exec, parts, y, |start, chunk| {
        fma::run(|| a.spmv_rows(start, x, chunk))
    });
}

/// `r = b - A x` for a [`MatrixStore`] over a precomputed row
/// partition. Bit-identical to [`MatrixStore::residual`].
pub fn store_residual_parts_on<S: Scalar>(
    exec: &dyn Executor,
    parts: &[(usize, usize)],
    a: &MatrixStore<S>,
    b: &[S],
    x: &[S],
    r: &mut [S],
) {
    assert_eq!(b.len(), a.nrows(), "store residual: b length mismatch");
    assert_eq!(x.len(), a.ncols(), "store residual: x length mismatch");
    assert_eq!(r.len(), a.nrows(), "store residual: r length mismatch");
    for_each_part_mut_on(exec, parts, r, |start, chunk| {
        fma::run(|| a.residual_rows(start, b, x, chunk))
    });
}

/// Fused SpMM `Y = A X` for a [`MatrixStore`] over a precomputed row
/// partition. Per output column the accumulation order is exactly the
/// store's per-row kernel, so the result is bit-identical to
/// [`MatrixStore::spmm`] and to `k` independent store SpMVs.
pub fn store_spmm_parts_on<S: Scalar>(
    exec: &dyn Executor,
    parts: &[(usize, usize)],
    a: &MatrixStore<S>,
    x: &MultiVec<S>,
    k: usize,
    y: &mut MultiVec<S>,
) {
    assert_eq!(x.n(), a.ncols(), "store spmm: x row count mismatch");
    assert_eq!(y.n(), a.nrows(), "store spmm: y row count mismatch");
    assert!(k <= x.k() && k <= y.k(), "store spmm: too many columns");
    let xcols: Vec<&[S]> = (0..k).map(|j| x.col(j)).collect();
    let mut slots = y.partition_rows_mut(k, parts);
    if parts.len() <= 1 {
        if let (Some(&(lo, hi)), Some(cols)) = (parts.first(), slots.first_mut()) {
            a.spmm_rows(&xcols, lo, hi, cols);
        }
        return;
    }
    type SpmmJob<S> = (usize, usize, Vec<RawSliceMut<S>>);
    let jobs: Vec<SpmmJob<S>> = parts
        .iter()
        .zip(slots.iter_mut())
        .map(|(&(lo, hi), cols)| {
            let raw = cols.iter_mut().map(|c| RawSliceMut::new(c)).collect();
            (lo, hi, raw)
        })
        .collect();
    let xcols = &xcols;
    exec.run_jobs(jobs.len(), &|i| {
        let (lo, hi, cols) = &jobs[i];
        // SAFETY: `partition_rows_mut` produced disjoint row slices of
        // every column; each job owns one row range (see
        // for_each_chunk_mut_on for the barrier argument).
        let mut slices: Vec<&mut [S]> = cols.iter().map(|p| unsafe { p.get() }).collect();
        a.spmm_rows(xcols, *lo, *hi, &mut slices);
    });
}

/// `r = b - A x` (fused residual), rows partitioned across threads.
///
/// Bit-identical to [`Csr::residual`].
pub fn residual<S: Scalar>(threads: usize, a: &Csr<S>, b: &[S], x: &[S], r: &mut [S]) {
    assert_eq!(b.len(), a.nrows(), "residual: b length mismatch");
    assert_eq!(x.len(), a.ncols(), "residual: x length mismatch");
    assert_eq!(r.len(), a.nrows(), "residual: r length mismatch");
    if a.nnz() < SPMV_PAR_THRESHOLD || threads <= 1 {
        a.residual(b, x, r);
        return;
    }
    for_each_chunk_mut(threads, r, |start, chunk| {
        fma::run(|| a.residual_rows(start, b, x, chunk))
    });
}

/// `h[i] = col_i . w` for `i in 0..ncols` (GEMV Trans), columns
/// partitioned across threads.
///
/// Each chunk runs the reference column-blocked body, so per-column
/// results are bit-identical to [`MultiVector::gemv_t`].
pub fn gemv_t<S: Scalar>(
    threads: usize,
    v: &MultiVector<S>,
    ncols: usize,
    w: &[S],
    h: &mut [S],
    order: ReductionOrder,
) {
    gemv_t_on(&ScopedSpawn(threads), v, ncols, w, h, order);
}

/// [`gemv_t`] on an explicit executor.
pub fn gemv_t_on<S: Scalar>(
    exec: &dyn Executor,
    v: &MultiVector<S>,
    ncols: usize,
    w: &[S],
    h: &mut [S],
    order: ReductionOrder,
) {
    assert!(ncols <= v.max_cols(), "gemv_t: too many columns");
    assert_eq!(w.len(), v.n(), "gemv_t: vector length mismatch");
    assert!(h.len() >= ncols, "gemv_t: output too short");
    if v.n() < PAR_THRESHOLD || ncols <= 1 || exec.width() <= 1 {
        v.gemv_t(ncols, w, h, order);
        return;
    }
    for_each_chunk_mut_on(exec, &mut h[..ncols], |start, chunk| {
        fma::run(|| v.gemv_t_range(start, w, chunk, order))
    });
}

/// `w -= V[:, ..ncols] h` (GEMV No-Trans, alpha = -1), rows partitioned
/// across threads.
///
/// Within each row, columns accumulate in the same order as
/// [`MultiVector::gemv_n_sub`], so results are bit-identical.
pub fn gemv_n_sub<S: Scalar>(
    threads: usize,
    v: &MultiVector<S>,
    ncols: usize,
    h: &[S],
    w: &mut [S],
) {
    gemv_n_sub_on(&ScopedSpawn(threads), v, ncols, h, w);
}

/// [`gemv_n_sub`] on an explicit executor.
pub fn gemv_n_sub_on<S: Scalar>(
    exec: &dyn Executor,
    v: &MultiVector<S>,
    ncols: usize,
    h: &[S],
    w: &mut [S],
) {
    assert!(ncols <= v.max_cols(), "gemv_n_sub: too many columns");
    assert_eq!(w.len(), v.n(), "gemv_n_sub: vector length mismatch");
    assert!(h.len() >= ncols, "gemv_n_sub: coefficient vector too short");
    if v.n() < PAR_THRESHOLD || exec.width() <= 1 {
        v.gemv_n_sub(ncols, h, w);
        return;
    }
    for_each_chunk_mut_on(exec, w, |start, chunk| {
        fma::run(|| v.gemv_n_rows(ncols, h, start, chunk, false))
    });
}

/// `y += V[:, ..ncols] h` (GEMV No-Trans, alpha = +1), rows partitioned
/// across threads. Bit-identical to [`MultiVector::gemv_n_add`].
pub fn gemv_n_add<S: Scalar>(
    threads: usize,
    v: &MultiVector<S>,
    ncols: usize,
    h: &[S],
    y: &mut [S],
) {
    gemv_n_add_on(&ScopedSpawn(threads), v, ncols, h, y);
}

/// [`gemv_n_add`] on an explicit executor.
pub fn gemv_n_add_on<S: Scalar>(
    exec: &dyn Executor,
    v: &MultiVector<S>,
    ncols: usize,
    h: &[S],
    y: &mut [S],
) {
    assert!(ncols <= v.max_cols(), "gemv_n_add: too many columns");
    assert_eq!(y.len(), v.n(), "gemv_n_add: vector length mismatch");
    assert!(h.len() >= ncols, "gemv_n_add: coefficient vector too short");
    if v.n() < PAR_THRESHOLD || exec.width() <= 1 {
        v.gemv_n_add(ncols, h, y);
        return;
    }
    for_each_chunk_mut_on(exec, y, |start, chunk| {
        fma::run(|| v.gemv_n_rows(ncols, h, start, chunk, true))
    });
}

/// `h[i] = widen(col_i) . w` over the first `ncols` columns of a
/// [`BasisStore`], columns partitioned across threads — [`gemv_t_on`]
/// generalized to the basis storage policy.
///
/// Each chunk runs the column-range body the sequential
/// [`BasisStore::gemv_t`] runs, so results are bit-identical to the
/// reference on every storage path (on [`BasisStore::Native`] this *is*
/// [`gemv_t_on`]'s computation).
pub fn basis_gemv_t_on<S: Scalar>(
    exec: &dyn Executor,
    v: &BasisStore<S>,
    ncols: usize,
    w: &[S],
    h: &mut [S],
    order: ReductionOrder,
) {
    assert!(ncols <= v.max_cols(), "basis_gemv_t: too many columns");
    assert_eq!(w.len(), v.n(), "basis_gemv_t: vector length mismatch");
    assert!(h.len() >= ncols, "basis_gemv_t: output too short");
    if v.n() < PAR_THRESHOLD || ncols <= 1 || exec.width() <= 1 {
        v.gemv_t(ncols, w, h, order);
        return;
    }
    for_each_chunk_mut_on(exec, &mut h[..ncols], |start, chunk| {
        v.gemv_t_range(start, w, chunk, order);
    });
}

/// `w -= widen(V[:, ..ncols]) h` over a [`BasisStore`], rows partitioned
/// across threads. Each row range accumulates columns in the reference
/// order via the shared row-range kernel, so results are bit-identical
/// to [`BasisStore::gemv_n_sub`] on every storage path.
pub fn basis_gemv_n_sub_on<S: Scalar>(
    exec: &dyn Executor,
    v: &BasisStore<S>,
    ncols: usize,
    h: &[S],
    w: &mut [S],
) {
    assert!(ncols <= v.max_cols(), "basis_gemv_n_sub: too many columns");
    assert_eq!(w.len(), v.n(), "basis_gemv_n_sub: vector length mismatch");
    assert!(h.len() >= ncols, "basis_gemv_n_sub: coefficients too short");
    if v.n() < PAR_THRESHOLD || exec.width() <= 1 {
        v.gemv_n_sub(ncols, h, w);
        return;
    }
    for_each_chunk_mut_on(exec, w, |start, chunk| {
        v.gemv_n_rows(ncols, h, start, chunk, false);
    });
}

/// `y += widen(V[:, ..ncols]) h` over a [`BasisStore`], rows partitioned
/// across threads. Bit-identical to [`BasisStore::gemv_n_add`] on every
/// storage path.
pub fn basis_gemv_n_add_on<S: Scalar>(
    exec: &dyn Executor,
    v: &BasisStore<S>,
    ncols: usize,
    h: &[S],
    y: &mut [S],
) {
    assert!(ncols <= v.max_cols(), "basis_gemv_n_add: too many columns");
    assert_eq!(y.len(), v.n(), "basis_gemv_n_add: vector length mismatch");
    assert!(h.len() >= ncols, "basis_gemv_n_add: coefficients too short");
    if v.n() < PAR_THRESHOLD || exec.width() <= 1 {
        v.gemv_n_add(ncols, h, y);
        return;
    }
    for_each_chunk_mut_on(exec, y, |start, chunk| {
        v.gemv_n_rows(ncols, h, start, chunk, true);
    });
}

/// Inner product under the given reduction order.
///
/// [`ReductionOrder::Sequential`] runs serially (a single dependency
/// chain — see module docs); [`ReductionOrder::BlockedTree`] computes
/// block partials in parallel and combines them with the shared
/// pairwise tree, bit-identical to the reference.
pub fn dot<S: Scalar>(threads: usize, x: &[S], y: &[S], order: ReductionOrder) -> S {
    dot_on(&ScopedSpawn(threads), x, y, order)
}

/// [`dot`] on an explicit executor.
pub fn dot_on<S: Scalar>(exec: &dyn Executor, x: &[S], y: &[S], order: ReductionOrder) -> S {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    match order {
        ReductionOrder::Sequential => vec_ops::dot_ordered(x, y, order),
        ReductionOrder::BlockedTree { block } => {
            let block = block.max(1);
            let nblocks = x.len().div_ceil(block);
            if x.len() < PAR_THRESHOLD || exec.width() <= 1 || nblocks <= 1 {
                return vec_ops::dot_ordered(x, y, order);
            }
            let mut parts = vec![S::zero(); nblocks];
            for_each_chunk_mut_on(exec, &mut parts, |start, chunk| {
                fma::run(|| {
                    for (i, p) in chunk.iter_mut().enumerate() {
                        let b = start + i;
                        let lo = b * block;
                        let hi = ((b + 1) * block).min(x.len());
                        *p = vec_ops::dot_seq(&x[lo..hi], &y[lo..hi]);
                    }
                })
            });
            vec_ops::tree_sum(&mut parts)
        }
    }
}

/// Euclidean norm under the given reduction order (see [`dot`]).
pub fn norm2<S: Scalar>(threads: usize, x: &[S], order: ReductionOrder) -> S {
    dot(threads, x, x, order).sqrt()
}

/// [`norm2`] on an explicit executor.
pub fn norm2_on<S: Scalar>(exec: &dyn Executor, x: &[S], order: ReductionOrder) -> S {
    dot_on(exec, x, x, order).sqrt()
}

/// `y += alpha x`, elementwise partitioned. Bit-identical to
/// [`vec_ops::axpy`].
pub fn axpy<S: Scalar>(threads: usize, alpha: S, x: &[S], y: &mut [S]) {
    axpy_on(&ScopedSpawn(threads), alpha, x, y);
}

/// [`axpy`] on an explicit executor.
pub fn axpy_on<S: Scalar>(exec: &dyn Executor, alpha: S, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    if x.len() < PAR_THRESHOLD || exec.width() <= 1 {
        vec_ops::axpy(alpha, x, y);
        return;
    }
    for_each_chunk_mut_on(exec, y, |start, chunk| {
        fma::run(|| {
            for (i, yi) in chunk.iter_mut().enumerate() {
                *yi = alpha.mul_add(x[start + i], *yi);
            }
        })
    });
}

/// `x *= alpha`, elementwise partitioned. Bit-identical to
/// [`vec_ops::scale`].
pub fn scal<S: Scalar>(threads: usize, alpha: S, x: &mut [S]) {
    scal_on(&ScopedSpawn(threads), alpha, x);
}

/// [`scal`] on an explicit executor.
pub fn scal_on<S: Scalar>(exec: &dyn Executor, alpha: S, x: &mut [S]) {
    if x.len() < PAR_THRESHOLD || exec.width() <= 1 {
        vec_ops::scale(alpha, x);
        return;
    }
    for_each_chunk_mut_on(exec, x, |_, chunk| {
        for xi in chunk {
            *xi *= alpha;
        }
    });
}

/// Copy `src` into `dst`, partitioned.
pub fn copy<S: Scalar>(threads: usize, src: &[S], dst: &mut [S]) {
    copy_on(&ScopedSpawn(threads), src, dst);
}

/// [`copy`] on an explicit executor.
pub fn copy_on<S: Scalar>(exec: &dyn Executor, src: &[S], dst: &mut [S]) {
    assert_eq!(src.len(), dst.len(), "copy: length mismatch");
    if src.len() < PAR_THRESHOLD || exec.width() <= 1 {
        dst.copy_from_slice(src);
        return;
    }
    for_each_chunk_mut_on(exec, dst, |start, chunk| {
        chunk.copy_from_slice(&src[start..start + chunk.len()]);
    });
}

// ----- batched lane-set kernels ---------------------------------------
//
// `BlockGmres` runs k independent GMRES state machines in lockstep, and
// its per-lane normalize/copy steps touch one vector *per lane* (each
// lane's own Krylov basis column). These kernels fuse that lane set into
// one launch; lanes are independent outputs, so they parallelize across
// workers without affecting any result.

/// Shape checks shared by the lane-set kernels.
fn lane_shapes<S>(op: &str, srcs: &[&[S]], dsts: &[&mut [S]]) {
    assert_eq!(srcs.len(), dsts.len(), "{op}: lane count mismatch");
    for (c, (s, d)) in srcs.iter().zip(dsts.iter()).enumerate() {
        assert_eq!(s.len(), d.len(), "{op}: lane {c} length mismatch");
    }
}

/// Batched per-lane copy: `dsts[c] = srcs[c]` for every lane.
/// Bit-identical to `k` independent copies by construction.
pub fn lane_copy_on<S: Scalar>(exec: &dyn Executor, srcs: &[&[S]], dsts: &mut [&mut [S]]) {
    lane_shapes("lane_copy", srcs, dsts);
    let k = srcs.len();
    let n = srcs.first().map(|s| s.len()).unwrap_or(0);
    if exec.width() <= 1 || k <= 1 || n < PAR_THRESHOLD {
        for (s, d) in srcs.iter().zip(dsts.iter_mut()) {
            d.copy_from_slice(s);
        }
        return;
    }
    let jobs: Vec<(RawSlice<S>, RawSliceMut<S>)> = srcs
        .iter()
        .zip(dsts.iter_mut())
        .map(|(s, d)| (RawSlice::new(s), RawSliceMut::new(d)))
        .collect();
    exec.run_jobs(k, &|c| {
        let (s, d) = &jobs[c];
        // SAFETY: lanes write disjoint destination slices; one job per
        // lane; `run_jobs` barriers before the borrows end.
        unsafe { d.get().copy_from_slice(s.get()) };
    });
}

/// Batched per-lane normalize-and-store: `dsts[c][i] = srcs[c][i] *
/// alpha[c]`. This is the fused form of the copy-then-scal pair the
/// lockstep driver used to issue per lane; `s * alpha` is the exact
/// multiply `vec_ops::scale` performs after a copy, so the fusion is
/// bit-identical to the two-kernel sequence.
pub fn lane_scal_copy_on<S: Scalar>(
    exec: &dyn Executor,
    alpha: &[S],
    srcs: &[&[S]],
    dsts: &mut [&mut [S]],
) {
    lane_shapes("lane_scal_copy", srcs, dsts);
    assert_eq!(alpha.len(), srcs.len(), "lane_scal_copy: alpha count");
    let k = srcs.len();
    let n = srcs.first().map(|s| s.len()).unwrap_or(0);
    if exec.width() <= 1 || k <= 1 || n < PAR_THRESHOLD {
        for ((&a, s), d) in alpha.iter().zip(srcs).zip(dsts.iter_mut()) {
            for (di, &si) in d.iter_mut().zip(s.iter()) {
                *di = si * a;
            }
        }
        return;
    }
    let jobs: Vec<(S, RawSlice<S>, RawSliceMut<S>)> = alpha
        .iter()
        .zip(srcs.iter())
        .zip(dsts.iter_mut())
        .map(|((&a, s), d)| (a, RawSlice::new(s), RawSliceMut::new(d)))
        .collect();
    exec.run_jobs(k, &|c| {
        let (a, s, d) = &jobs[c];
        // SAFETY: see lane_copy_on.
        let (src, dst) = unsafe { (s.get(), d.get()) };
        for (di, &si) in dst.iter_mut().zip(src.iter()) {
            *di = si * *a;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::pool::WorkerPool;

    fn big_laplace(n: usize) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0 + (i % 7) as f64 * 0.125);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        coo.into_csr()
    }

    /// Arrow matrix: a dense first row plus a tridiagonal body — the
    /// skewed nnz profile an equal-row split handles badly.
    fn arrow(n: usize) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for j in 0..n {
            coo.push(0, j, 1.0 / (j + 1) as f64);
        }
        for i in 1..n {
            coo.push(i, i, 3.0);
            coo.push(i, i - 1, -1.0);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        coo.into_csr()
    }

    fn pseudo(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let z = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(salt);
                (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn spmv_bit_identical_to_reference() {
        let n = 50_000; // nnz ~ 150k > threshold
        let a = big_laplace(n);
        let x = pseudo(n, 1);
        let mut y_seq = vec![0.0; n];
        let mut y_par = vec![0.0; n];
        a.spmv(&x, &mut y_seq);
        spmv(8, &a, &x, &mut y_par);
        assert_eq!(y_seq, y_par);
    }

    #[test]
    fn pooled_kernels_bit_identical_to_scoped() {
        let n = 50_000;
        let a = big_laplace(n);
        let x = pseudo(n, 11);
        let pool = WorkerPool::new(4);
        let parts = row_partition(n, 4);
        let (mut y_scoped, mut y_pool) = (vec![0.0; n], vec![0.0; n]);
        spmv_parts(&parts, &a, &x, &mut y_scoped);
        spmv_parts_on(&pool, &parts, &a, &x, &mut y_pool);
        assert_eq!(y_scoped, y_pool);

        let b = pseudo(n, 12);
        let (mut r_scoped, mut r_pool) = (vec![0.0; n], vec![0.0; n]);
        residual_parts(&parts, &a, &b, &x, &mut r_scoped);
        residual_parts_on(&pool, &parts, &a, &b, &x, &mut r_pool);
        assert_eq!(r_scoped, r_pool);

        let order = ReductionOrder::GPU_LIKE;
        let d_scoped = dot(4, &x, &b, order);
        let d_pool = dot_on(&pool, &x, &b, order);
        assert_eq!(d_scoped.to_bits(), d_pool.to_bits());

        let (mut ys, mut yp) = (b.clone(), b.clone());
        axpy(4, 1.5, &x, &mut ys);
        axpy_on(&pool, 1.5, &x, &mut yp);
        assert_eq!(ys, yp);
        scal(4, 0.75, &mut ys);
        scal_on(&pool, 0.75, &mut yp);
        assert_eq!(ys, yp);
        let (mut cs, mut cp) = (vec![0.0; n], vec![0.0; n]);
        copy(4, &ys, &mut cs);
        copy_on(&pool, &yp, &mut cp);
        assert_eq!(cs, cp);
    }

    #[test]
    fn residual_bit_identical_to_reference() {
        let n = 50_000;
        let a = big_laplace(n);
        let x = pseudo(n, 2);
        let b = pseudo(n, 3);
        let mut r_seq = vec![0.0; n];
        let mut r_par = vec![0.0; n];
        a.residual(&b, &x, &mut r_seq);
        residual(8, &a, &b, &x, &mut r_par);
        assert_eq!(r_seq, r_par);
    }

    #[test]
    fn blocked_tree_dot_bit_identical() {
        let n = PAR_THRESHOLD * 3 + 41;
        let x = pseudo(n, 4);
        let y = pseudo(n, 5);
        for block in [1usize, 7, 256, 1024] {
            let order = ReductionOrder::BlockedTree { block };
            let seq = vec_ops::dot_ordered(&x, &y, order);
            let par = dot(8, &x, &y, order);
            assert_eq!(seq.to_bits(), par.to_bits(), "block {block}");
        }
    }

    #[test]
    fn gemv_kernels_bit_identical() {
        let n = PAR_THRESHOLD + 31;
        let cols = 5;
        let mut v = MultiVector::<f64>::zeros(n, cols);
        for j in 0..cols {
            let c = pseudo(n, 10 + j as u64);
            v.col_mut(j).copy_from_slice(&c);
        }
        let w = pseudo(n, 99);
        let mut h_seq = vec![0.0; cols];
        let mut h_par = vec![0.0; cols];
        v.gemv_t(cols, &w, &mut h_seq, ReductionOrder::GPU_LIKE);
        gemv_t(8, &v, cols, &w, &mut h_par, ReductionOrder::GPU_LIKE);
        assert_eq!(h_seq, h_par);

        let mut w_seq = w.clone();
        let mut w_par = w.clone();
        v.gemv_n_sub(cols, &h_seq, &mut w_seq);
        gemv_n_sub(8, &v, cols, &h_par, &mut w_par);
        assert_eq!(w_seq, w_par);

        v.gemv_n_add(cols, &h_seq, &mut w_seq);
        gemv_n_add(8, &v, cols, &h_par, &mut w_par);
        assert_eq!(w_seq, w_par);
    }

    #[test]
    fn elementwise_kernels_bit_identical() {
        let n = PAR_THRESHOLD * 2 + 13;
        let x = pseudo(n, 6);
        let mut y_seq = pseudo(n, 7);
        let mut y_par = y_seq.clone();
        vec_ops::axpy(1.25, &x, &mut y_seq);
        axpy(8, 1.25, &x, &mut y_par);
        assert_eq!(y_seq, y_par);
        vec_ops::scale(0.75, &mut y_seq);
        scal(8, 0.75, &mut y_par);
        assert_eq!(y_seq, y_par);
        let mut dst = vec![0.0; n];
        copy(8, &y_par, &mut dst);
        assert_eq!(dst, y_par);
    }

    #[test]
    fn spmm_bit_identical_to_column_spmvs() {
        for n in [64usize, 50_000] {
            let a = big_laplace(n);
            let k = 5;
            let mut x = MultiVec::<f64>::zeros(n, k);
            for j in 0..k {
                let c = pseudo(n, 100 + j as u64);
                x.col_mut(j).copy_from_slice(&c);
            }
            let mut y = MultiVec::<f64>::zeros(n, k);
            spmm(8, &a, &x, k, &mut y);
            for j in 0..k {
                let mut y_ref = vec![0.0; n];
                a.spmv(x.col(j), &mut y_ref);
                assert_eq!(y.col(j), &y_ref[..], "n={n} col {j}");
            }
        }
    }

    #[test]
    fn spmm_parts_with_cached_partition_matches() {
        let n = 10_000;
        let a = big_laplace(n);
        let k = 3;
        let mut x = MultiVec::<f64>::zeros(n, k);
        for j in 0..k {
            let c = pseudo(n, 7 + j as u64);
            x.col_mut(j).copy_from_slice(&c);
        }
        let parts = row_partition(n, 4);
        assert!(parts.len() > 1 && parts.last().unwrap().1 == n);
        let mut y = MultiVec::<f64>::zeros(n, k);
        spmm_parts(&parts, &a, &x, k, &mut y);
        let mut y1 = vec![0.0; n];
        spmv_parts(&parts, &a, x.col(1), &mut y1);
        assert_eq!(y.col(1), &y1[..]);
        let mut y_ref = vec![0.0; n];
        a.spmv(x.col(1), &mut y_ref);
        assert_eq!(y1, y_ref);
        // residual over the same cached partition.
        let b = pseudo(n, 21);
        let (mut r_seq, mut r_par) = (vec![0.0; n], vec![0.0; n]);
        a.residual(&b, x.col(0), &mut r_seq);
        residual_parts(&parts, &a, &b, x.col(0), &mut r_par);
        assert_eq!(r_seq, r_par);
        // and the pooled SpMM path.
        let pool = WorkerPool::new(4);
        let mut y_pool = MultiVec::<f64>::zeros(n, k);
        spmm_parts_on(&pool, &parts, &a, &x, k, &mut y_pool);
        for j in 0..k {
            assert_eq!(y_pool.col(j), y.col(j), "pooled spmm col {j}");
        }
    }

    #[test]
    fn row_partition_tiles_and_matches_chunking() {
        for (len, threads) in [(10usize, 3usize), (16, 4), (7, 16), (1, 1), (100, 7)] {
            let parts = row_partition(len, threads);
            assert_eq!(parts[0].0, 0);
            assert_eq!(parts.last().unwrap().1, len);
            for w in parts.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
            assert!(parts.len() <= threads.max(1));
        }
    }

    #[test]
    fn nnz_partition_balances_skewed_matrices() {
        let n = 4_000;
        let a = arrow(n);
        let threads = 4;
        let per_part_nnz = |parts: &[(usize, usize)]| -> Vec<usize> {
            parts
                .iter()
                .map(|&(lo, hi)| a.row_ptr()[hi] - a.row_ptr()[lo])
                .collect()
        };
        let even = per_part_nnz(&row_partition(n, threads));
        let balanced_parts = nnz_partition(&a, threads);
        // Valid tiling.
        assert_eq!(balanced_parts[0].0, 0);
        assert_eq!(balanced_parts.last().unwrap().1, n);
        for w in balanced_parts.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        let balanced = per_part_nnz(&balanced_parts);
        let mean = a.nnz() as f64 / threads as f64;
        let spread = |v: &[usize]| {
            let max = *v.iter().max().unwrap() as f64;
            max / mean
        };
        // Row 0 holds ~25% of the nonzeros: the even split's first part
        // is far above the mean, the nnz split stays close to it.
        assert!(
            spread(&even) > 1.6,
            "arrow matrix should skew the even split: {even:?}"
        );
        assert!(
            spread(&balanced) < 1.35,
            "nnz split should balance within 35%: {balanced:?}"
        );
        // And the partition is still just a partition: results identical.
        let x = pseudo(n, 9);
        let (mut y_ref, mut y_bal) = (vec![0.0; n], vec![0.0; n]);
        a.spmv(&x, &mut y_ref);
        spmv_parts(&balanced_parts, &a, &x, &mut y_bal);
        assert_eq!(y_ref, y_bal);
    }

    #[test]
    fn nnz_partition_handles_degenerate_shapes() {
        let a = big_laplace(5);
        assert_eq!(nnz_partition(&a, 1), vec![(0, 5)]);
        let parts = nnz_partition(&a, 16);
        assert_eq!(parts.last().unwrap().1, 5);
        assert!(parts.len() <= 5);
        let empty = Coo::<f64>::new(0, 0).into_csr();
        assert_eq!(nnz_partition(&empty, 4), vec![(0, 0)]);
    }

    #[test]
    fn lane_kernels_bit_identical_to_per_lane_ops() {
        let n = PAR_THRESHOLD + 17;
        let k = 3;
        let srcs_data: Vec<Vec<f64>> = (0..k).map(|j| pseudo(n, 40 + j as u64)).collect();
        let srcs: Vec<&[f64]> = srcs_data.iter().map(|s| s.as_slice()).collect();
        let alpha = [1.5f64, -0.25, 3.0];
        let pool = WorkerPool::new(4);

        // Reference: copy then scale, per lane.
        let mut expect: Vec<Vec<f64>> = srcs_data.clone();
        for (e, &a) in expect.iter_mut().zip(&alpha) {
            vec_ops::scale(a, e);
        }

        let mut got: Vec<Vec<f64>> = (0..k).map(|_| vec![0.0; n]).collect();
        {
            let mut dsts: Vec<&mut [f64]> = got.iter_mut().map(|g| g.as_mut_slice()).collect();
            lane_scal_copy_on(&pool, &alpha, &srcs, &mut dsts);
        }
        for (j, (e, g)) in expect.iter().zip(&got).enumerate() {
            assert_eq!(e, g, "lane_scal_copy lane {j}");
        }

        let mut copies: Vec<Vec<f64>> = (0..k).map(|_| vec![0.0; n]).collect();
        {
            let mut dsts: Vec<&mut [f64]> = copies.iter_mut().map(|g| g.as_mut_slice()).collect();
            lane_copy_on(&pool, &srcs, &mut dsts);
        }
        for (j, (s, c)) in srcs_data.iter().zip(&copies).enumerate() {
            assert_eq!(s, c, "lane_copy lane {j}");
        }

        // Sequential path (below threshold) agrees too.
        let small: Vec<Vec<f64>> = (0..k).map(|j| pseudo(8, 70 + j as u64)).collect();
        let small_refs: Vec<&[f64]> = small.iter().map(|s| s.as_slice()).collect();
        let mut small_out: Vec<Vec<f64>> = (0..k).map(|_| vec![0.0; 8]).collect();
        {
            let mut dsts: Vec<&mut [f64]> =
                small_out.iter_mut().map(|g| g.as_mut_slice()).collect();
            lane_scal_copy_on(&pool, &alpha, &small_refs, &mut dsts);
        }
        for ((s, o), &a) in small.iter().zip(&small_out).zip(&alpha) {
            for (si, oi) in s.iter().zip(o) {
                assert_eq!((si * a).to_bits(), oi.to_bits());
            }
        }
    }

    #[test]
    fn small_inputs_take_sequential_path() {
        let a = big_laplace(16);
        let x = pseudo(16, 8);
        let mut y = vec![0.0; 16];
        spmv(8, &a, &x, &mut y); // must not panic, must match
        let mut y_ref = vec![0.0; 16];
        a.spmv(&x, &mut y_ref);
        assert_eq!(y, y_ref);
        assert!(default_threads() >= 1);
    }
}
