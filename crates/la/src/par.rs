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
//! - SpMV, residual, GEMV (both shapes), axpy, scal, copy, the block
//!   Jacobi apply and the lane-set kernels are bit-identical to the
//!   reference for *any* [`ReductionOrder`].
//! - GEMV-T under [`ReductionOrder::BlockedTree`] splits by reduction
//!   block: each job computes every column's block partials over its
//!   rows, and the caller combines each column's partials with the
//!   shared tree — so a job reads the same rows of the basis as in
//!   GEMV-N and SpMV. Under [`ReductionOrder::Sequential`] each column
//!   is one chain and GEMV-T splits by column instead.
//! - `dot`/`norm2` under [`ReductionOrder::BlockedTree`] are
//!   bit-identical too: block partial sums are independent and the
//!   pairwise combine tree is shared with the reference
//!   (`vec_ops::tree_sum`).
//! - `dot`/`norm2` under [`ReductionOrder::Sequential`] are inherently
//!   serial (a single left-to-right chain) and therefore run
//!   sequentially here as well — bit-determinism is the contract, and a
//!   parallel sum would break it.
//!
//! The `_on` kernels run on the persistent pinned [`WorkerPool`] the
//! parallel backend owns, one job per participant. Below each kernel's
//! threshold (next paragraph but one) they run the sequential body on
//! the calling thread, so small problems never pay dispatch overhead;
//! the `_parts_on` and `_split_on` entry points skip the threshold.
//! The matrix kernels (`*_parts_on`) cut their rows where the matrix's
//! stored-nonzero prefix crosses each participant's equal share, so a
//! skewed matrix (an arrow head, a few dense rows) does not leave one
//! participant with most of the work; the cut is a binary search over
//! the row pointers per participant, done at every call. Each job takes
//! its `split_at_mut` chunk of the output out of its own uncontended
//! `Mutex`, so the handoff is safe code.
//!
//! Every chunk closure that runs a `mul_add` chain wraps its body in
//! [`fma::run`], so it executes on hardware FMA when the CPU has it.
//!
//! **Where the thresholds sit.** An empty two-job run on the pool costs
//! about a microsecond while the worker is still spinning from the
//! previous kernel (see [`crate::pool`]), so a kernel goes parallel once
//! half of it is worth more than that. The `spmv_crossover` group of
//! `crates/bench/benches/backends.rs` times each kernel serially and
//! forced onto the pool (the `_parts_on`/`_split_on` entry points) on
//! laplace2d grids from 16² to 128², and prints serial over pooled time
//! per size. Three runs on a 2-vCPU x86-64 host (4 MiB L2 per core,
//! noisy shared host) read:
//!
//! - SpMV paid from about 7.8k nonzeros (1.2–1.6x there; mixed from
//!   2.8k to 5k), so [`SPMV_PAR_THRESHOLD`] sits at 2^13 nonzeros, for
//!   the plain and store SpMV, SpMM and residual alike;
//! - a 10-column GEMV-T paid from about 1.6k rows (1.03–1.14x there,
//!   1.1–1.7x from 6k) and the block Jacobi apply from about 1.6k rows
//!   (1.2x, up to 2.1x at 16k), so [`GEMV_PAR_THRESHOLD`] and
//!   [`BLOCK_LU_PAR_THRESHOLD`] sit at 2^11 rows. GEMV-N shares the GEMV
//!   constant although it paid only from about 4k rows (0.6–0.8x at
//!   2.3k): neither gated workload has n between 2^11 and 2^12;
//! - the norm paid only from about 9k–16k rows (at most 1.35x) and axpy
//!   never did (at most 0.45x), so the level-1 kernels (dot, norm, axpy,
//!   scal, copy) and the lane kernels keep [`vec_ops::PAR_THRESHOLD`]
//!   (2^14).
//!
//! These are constants, not tuned knobs: which path runs must not
//! depend on the machine's load, or traced counts would stop
//! reproducing. Compare Ioannidis et al. (arXiv:1906.04051): below cache
//! size, dispatch and synchronisation decide whether a parallel GMRES
//! kernel pays, which is why the pool's dispatch cost sets the bar.
//!
//! **Threads or SIMD.** The pool already runs every kernel above its
//! threshold on both vCPUs, so a third participant has no core to run
//! on. How much the second one adds depends on what the host gives it.
//! Register-only timing loops (no memory traffic), one thread against
//! two on 2-vCPU x86-64 hosts, read:
//!
//! - in one period, FMA-throughput-bound loops (many independent
//!   chains) scaled 0.7–1.0x and latency-bound ones (one chain)
//!   1.5–2.3x: the two vCPUs shared one core's FMA ports;
//! - in another, the same kinds of loop scaled 0.96–2.15x and
//!   1.09–2.27x, mostly 1.5–2.0x: two cores, busy with other tenants.
//!
//! A second thread pays most for latency-bound work, whose chains
//! leave FMA ports idle, and least for throughput-bound work when the
//! ports are shared. SIMD raises each thread's rate whatever the host
//! does: a four-lane AVX loop ran 21–23 GFMA/s on one thread, against
//! 4.2–5.9 GFMA/s for the scalar loop. That is why the blocked-tree
//! partials under GEMV-T and the blocked dot run four reduction blocks
//! per AVX register (`crate::simd`) inside each pool job rather than
//! on more threads.

use std::sync::Mutex;

use mpgmres_scalar::Scalar;

use crate::basis::BasisStore;
use crate::csr::Csr;
use crate::dense::BlockLu;
use crate::fma;
use crate::multivec::MultiVec;
use crate::multivector::MultiVector;
use crate::pool::WorkerPool;
use crate::store::MatrixStore;
use crate::vec_ops::{self, ReductionOrder, PAR_THRESHOLD};

/// Minimum stored nonzeros before SpMV/residual/SpMM (plain and store)
/// go parallel: the serial/pooled crossover of the `spmv_crossover`
/// sweep (see the module docs).
pub const SPMV_PAR_THRESHOLD: usize = 1 << 13;

/// Minimum rows before GEMV-T and GEMV-N (plain and basis) go parallel:
/// the crossover of the 10-column GEMV rows of the `spmv_crossover`
/// sweep (see the module docs).
pub const GEMV_PAR_THRESHOLD: usize = 1 << 11;

/// Minimum rows before the block Jacobi apply ([`block_lu_solve_on`])
/// splits its groups over the pool: the crossover of the BJ rows of the
/// `spmv_crossover` sweep (see the module docs).
pub const BLOCK_LU_PAR_THRESHOLD: usize = 1 << 11;

/// Split `[0, len)` into at most `threads` contiguous `(start, end)`
/// ranges of equal length (the last may be shorter): the split of the
/// block-run and block-group kernels. The partition never affects
/// results, only which participant computes which outputs.
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

/// Cut rows `0..n`, which hold `nnz` stored entries, into at most
/// `parts` contiguous ranges of about equal nonzero counts. Range `p`
/// ends at the first row whose prefix `nnz_before(row)` (the entries in
/// the rows before it) reaches `nnz * (p + 1) / parts`, and holds at
/// least one row; the last range ends at `n`. Like every partition,
/// this only decides which participant computes which rows.
fn nnz_cut(
    n: usize,
    nnz: usize,
    parts: usize,
    nnz_before: impl Fn(usize) -> usize,
) -> impl Iterator<Item = (usize, usize)> {
    let parts = if nnz == 0 {
        1
    } else {
        parts.clamp(1, n.max(1))
    };
    let mut start = 0usize;
    (0..parts).map_while(move |p| {
        if p > 0 && start >= n {
            return None;
        }
        let end = if p + 1 == parts {
            n
        } else {
            // Binary search for the first row in `start + 1..n` whose
            // prefix reaches the share (`n` if none does).
            let target = nnz * (p + 1) / parts;
            let (mut lo, mut hi) = (start + 1, n);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if nnz_before(mid) < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        let range = (start, end);
        start = end;
        Some(range)
    })
}

/// The nnz cut of a CSR matrix over `parts` participants.
fn csr_cut<S: Scalar>(a: &Csr<S>, parts: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    nnz_cut(a.nrows(), a.nnz(), parts, |r| a.row_ptr()[r])
}

/// The nnz cut of a [`MatrixStore`] over `parts` participants. A split
/// store's two buckets share its rows, so their row prefixes add.
fn store_cut<S: Scalar>(
    a: &MatrixStore<S>,
    parts: usize,
) -> impl Iterator<Item = (usize, usize)> + '_ {
    nnz_cut(a.nrows(), a.nnz(), parts, move |r| match a {
        MatrixStore::Plain(c) => c.row_ptr()[r],
        MatrixStore::ShadowF32(c) => c.row_ptr()[r],
        MatrixStore::ShadowF16(c) => c.row_ptr()[r],
        MatrixStore::Split(s) => s.hi().row_ptr()[r] + s.lo().row_ptr()[r],
    })
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

/// Run `f(start, chunk)` for each `(start, end)` range of `ranges` as
/// one pool job (job `i` on participant `i % threads`); the ranges must
/// tile `data` in order. Each job takes its `split_at_mut` chunk out of
/// its own `Mutex`, which only that job ever locks.
fn for_each_range_mut_on<S: Send, F>(
    pool: &WorkerPool,
    ranges: impl IntoIterator<Item = (usize, usize)>,
    data: &mut [S],
    f: F,
) where
    F: Fn(usize, &mut [S]) + Sync,
{
    let mut rest = data;
    let mut prev = 0usize;
    // Every caller cuts at most one range per participant, plus block
    // Jacobi's tail: one allocation per call.
    let mut jobs: Vec<(usize, Mutex<&mut [S]>)> = Vec::with_capacity(pool.threads() + 1);
    jobs.extend(ranges.into_iter().map(|(lo, hi)| {
        assert_eq!(lo, prev, "ranges must be contiguous");
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
        (rest, prev) = (tail, hi);
        (lo, Mutex::new(head))
    }));
    assert!(rest.is_empty(), "ranges must cover the data");
    pool.run(jobs.len(), |i| {
        let (start, chunk) = &jobs[i];
        f(
            *start,
            &mut chunk.lock().expect("only this job locks its chunk"),
        )
    });
}

/// Split `data` into at most `pool.threads()` equal contiguous chunks
/// and run `f(start, chunk)` for each chunk as one pool job; with one
/// participant, `f(0, data)` on the calling thread.
pub(crate) fn for_each_chunk_mut_on<S: Send, F>(pool: &WorkerPool, data: &mut [S], f: F)
where
    F: Fn(usize, &mut [S]) + Sync,
{
    let len = data.len();
    let width = pool.threads().clamp(1, len.max(1));
    if width <= 1 {
        return f(0, data);
    }
    let chunk = len.div_ceil(width);
    let ranges = (0..len)
        .step_by(chunk)
        .map(|lo| (lo, (lo + chunk).min(len)));
    for_each_range_mut_on(pool, ranges, data, f);
}

/// [`for_each_chunk_mut_on`] when `len` (the kernel's row or element
/// count) reaches `threshold`, `f(0, data)` on the calling thread below
/// it.
fn for_each_chunk_mut_above<S: Send, F>(
    pool: &WorkerPool,
    len: usize,
    threshold: usize,
    data: &mut [S],
    f: F,
) where
    F: Fn(usize, &mut [S]) + Sync,
{
    if len < threshold {
        f(0, data);
    } else {
        for_each_chunk_mut_on(pool, data, f);
    }
}

/// Run `f(i, &mut data[i])` for every element, elements partitioned in
/// contiguous runs over a [`WorkerPool`] of `threads` participants built
/// for the call. For batches of independent work items (e.g. factoring
/// block Jacobi's groups of diagonal blocks); results are
/// position-deterministic, so parallelism never changes an outcome.
pub fn for_each_slot_mut<T: Send, F>(threads: usize, data: &mut [T], f: F)
where
    F: Fn(usize, &mut T) + Sync,
{
    let each = |start: usize, chunk: &mut [T]| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            f(start + i, slot);
        }
    };
    if threads <= 1 || data.len() <= 1 {
        return each(0, data);
    }
    for_each_chunk_mut_on(&WorkerPool::new(threads), data, each);
}

/// Run `f(lo, hi, cols)` for each `(lo, hi)` row range of `ranges` as
/// one pool job, `cols` holding rows `lo..hi` of each of the leading `k`
/// columns of `y`; the ranges must tile `0..y.n()` in order. The
/// handoff is [`for_each_range_mut_on`]'s, one `Mutex` per job.
fn for_each_row_block_on<S: Scalar, F>(
    pool: &WorkerPool,
    ranges: impl IntoIterator<Item = (usize, usize)>,
    y: &mut MultiVec<S>,
    k: usize,
    f: F,
) where
    F: Fn(usize, usize, &mut [&mut [S]]) + Sync,
{
    let mut rest = y.cols_mut(k);
    let mut jobs = Vec::with_capacity(pool.threads());
    jobs.extend(ranges.into_iter().map(|(lo, hi)| {
        let cols: Vec<&mut [S]> = rest
            .iter_mut()
            .map(|c| {
                let (head, tail) = std::mem::take(c).split_at_mut(hi - lo);
                *c = tail;
                head
            })
            .collect();
        (lo, hi, Mutex::new(cols))
    }));
    assert!(
        rest.iter().all(|c| c.is_empty()),
        "ranges must cover the rows"
    );
    pool.run(jobs.len(), |i| {
        let (lo, hi, cols) = &jobs[i];
        f(
            *lo,
            *hi,
            &mut cols.lock().expect("only this job locks its chunk"),
        )
    });
}

/// `y = A x` over the pool, rows cut at nnz quantiles of `a`, one range
/// per participant (no threshold check; the caller decides when going
/// parallel pays). Bit-identical to [`Csr::spmv`].
pub fn spmv_parts_on<S: Scalar>(pool: &WorkerPool, a: &Csr<S>, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), a.ncols(), "spmv: x length mismatch");
    assert_eq!(y.len(), a.nrows(), "spmv: y length mismatch");
    for_each_range_mut_on(pool, csr_cut(a, pool.threads()), y, |start, chunk| {
        fma::run(|| a.spmv_rows(start, x, chunk))
    });
}

/// `r = b - A x` over the pool, rows cut at nnz quantiles of `a` (no
/// threshold check). Bit-identical to [`Csr::residual`].
pub fn residual_parts_on<S: Scalar>(pool: &WorkerPool, a: &Csr<S>, b: &[S], x: &[S], r: &mut [S]) {
    assert_eq!(b.len(), a.nrows(), "residual: b length mismatch");
    assert_eq!(x.len(), a.ncols(), "residual: x length mismatch");
    assert_eq!(r.len(), a.nrows(), "residual: r length mismatch");
    for_each_range_mut_on(pool, csr_cut(a, pool.threads()), r, |start, chunk| {
        fma::run(|| a.residual_rows(start, b, x, chunk))
    });
}

/// Fused SpMM `Y = A X` over the leading `k` columns, one range of the
/// precomputed row partition `parts` after another on the calling
/// thread: one pass over the CSR rows serves all `k` right-hand sides.
/// Per output column this accumulates in exactly the order of
/// [`Csr::spmv`]'s per-row kernel, so the result is bit-identical to `k`
/// independent SpMV calls — the multi-RHS determinism contract.
pub fn spmm_parts<S: Scalar>(
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
    for (cols, &(lo, hi)) in slots.iter_mut().zip(parts) {
        spmm_rows(a, &xcols, lo, hi, cols);
    }
}

/// [`spmm_parts`] over the pool, rows cut at nnz quantiles of `a`, one
/// range per participant (no threshold check).
pub fn spmm_parts_on<S: Scalar>(
    pool: &WorkerPool,
    a: &Csr<S>,
    x: &MultiVec<S>,
    k: usize,
    y: &mut MultiVec<S>,
) {
    assert_eq!(x.n(), a.ncols(), "spmm: x row count mismatch");
    assert_eq!(y.n(), a.nrows(), "spmm: y row count mismatch");
    assert!(k <= x.k() && k <= y.k(), "spmm: too many columns");
    let xcols: Vec<&[S]> = (0..k).map(|j| x.col(j)).collect();
    for_each_row_block_on(pool, csr_cut(a, pool.threads()), y, k, |lo, hi, cols| {
        spmm_rows(a, &xcols, lo, hi, cols)
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
        // One column is an SpMV: the same chain, row for row.
        1 => fma::run(|| a.spmv_rows(lo, xcols[0], &mut out[0][..hi - lo])),
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
    let xc: [&[S]; K] = xcols.try_into().expect("width checked by dispatch");
    for r in lo..hi {
        let (vals, cols) = a.row_slices(r);
        let mut acc = [S::zero(); K];
        for (&v, &c) in vals.iter().zip(cols) {
            let c = c as usize;
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
    let mut acc = vec![S::zero(); xcols.len()];
    for r in lo..hi {
        acc.fill(S::zero());
        let (vals, cols) = a.row_slices(r);
        for (&v, &c) in vals.iter().zip(cols) {
            let c = c as usize;
            for (a_j, xc) in acc.iter_mut().zip(xcols) {
                *a_j = v.mul_add(xc[c], *a_j);
            }
        }
        for (j, a_j) in acc.iter().enumerate() {
            out[j][r - lo] = *a_j;
        }
    }
}

/// `y = A x` for a [`MatrixStore`] over the pool, rows cut at nnz
/// quantiles of the store (both buckets of a split store), one range per
/// participant (no threshold check).
///
/// Bit-identical to [`MatrixStore::spmv`]: both paths evaluate each
/// output row with the store's shared per-row kernel.
pub fn store_spmv_parts_on<S: Scalar>(pool: &WorkerPool, a: &MatrixStore<S>, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), a.ncols(), "store spmv: x length mismatch");
    assert_eq!(y.len(), a.nrows(), "store spmv: y length mismatch");
    for_each_range_mut_on(pool, store_cut(a, pool.threads()), y, |start, chunk| {
        fma::run(|| a.spmv_rows(start, x, chunk))
    });
}

/// `r = b - A x` for a [`MatrixStore`] over the pool, cut as
/// [`store_spmv_parts_on`]. Bit-identical to [`MatrixStore::residual`].
pub fn store_residual_parts_on<S: Scalar>(
    pool: &WorkerPool,
    a: &MatrixStore<S>,
    b: &[S],
    x: &[S],
    r: &mut [S],
) {
    assert_eq!(b.len(), a.nrows(), "store residual: b length mismatch");
    assert_eq!(x.len(), a.ncols(), "store residual: x length mismatch");
    assert_eq!(r.len(), a.nrows(), "store residual: r length mismatch");
    for_each_range_mut_on(pool, store_cut(a, pool.threads()), r, |start, chunk| {
        fma::run(|| a.residual_rows(start, b, x, chunk))
    });
}

/// Fused SpMM `Y = A X` for a [`MatrixStore`] over the pool, cut as
/// [`store_spmv_parts_on`]. Per output column the accumulation order is
/// exactly the store's per-row kernel, so the result is bit-identical to
/// [`MatrixStore::spmm`] and to `k` independent store SpMVs.
pub fn store_spmm_parts_on<S: Scalar>(
    pool: &WorkerPool,
    a: &MatrixStore<S>,
    x: &MultiVec<S>,
    k: usize,
    y: &mut MultiVec<S>,
) {
    assert_eq!(x.n(), a.ncols(), "store spmm: x row count mismatch");
    assert_eq!(y.n(), a.nrows(), "store spmm: y row count mismatch");
    assert!(k <= x.k() && k <= y.k(), "store spmm: too many columns");
    let xcols: Vec<&[S]> = (0..k).map(|j| x.col(j)).collect();
    for_each_row_block_on(pool, store_cut(a, pool.threads()), y, k, |lo, hi, cols| {
        a.spmm_rows(&xcols, lo, hi, cols)
    });
}

/// `h[i] = col_i . w` for `i in 0..ncols` (GEMV Trans), split over the
/// pool from [`GEMV_PAR_THRESHOLD`] rows: by reduction block under
/// [`ReductionOrder::BlockedTree`], by column under
/// [`ReductionOrder::Sequential`].
///
/// Every column's partials and combine tree are those of the reference,
/// so per-column results are bit-identical to [`MultiVector::gemv_t`].
pub fn gemv_t_on<S: Scalar>(
    pool: &WorkerPool,
    v: &MultiVector<S>,
    ncols: usize,
    w: &[S],
    h: &mut [S],
    order: ReductionOrder,
) {
    if v.n() < GEMV_PAR_THRESHOLD {
        v.gemv_t(ncols, w, h, order);
    } else {
        gemv_t_split_on(pool, v, ncols, w, h, order);
    }
}

/// [`gemv_t_on`] without the size threshold: splits whenever the pool
/// has two or more participants (the pooled side of the crossover
/// sweep).
pub fn gemv_t_split_on<S: Scalar>(
    pool: &WorkerPool,
    v: &MultiVector<S>,
    ncols: usize,
    w: &[S],
    h: &mut [S],
    order: ReductionOrder,
) {
    assert!(ncols <= v.max_cols(), "gemv_t: too many columns");
    assert_eq!(w.len(), v.n(), "gemv_t: vector length mismatch");
    assert!(h.len() >= ncols, "gemv_t: output too short");
    if ncols == 0 || pool.threads() <= 1 {
        v.gemv_t(ncols, w, h, order);
        return;
    }
    if let Some(block) = split_blocks(v.n(), order) {
        gemv_t_blocks_on(pool, v.n(), block, &mut h[..ncols], |b0, parts| {
            fma::run(
                #[inline(always)]
                || v.gemv_t_blocks(ncols, w, block, b0, parts),
            )
        });
        return;
    }
    if ncols == 1 {
        v.gemv_t(ncols, w, h, order);
        return;
    }
    for_each_chunk_mut_on(pool, &mut h[..ncols], |start, chunk| {
        fma::run(|| v.gemv_t_range(start, w, chunk, order))
    });
}

/// The reduction block a GEMV-T of `n` rows splits by: `Some` under a
/// blocked tree with at least two blocks, `None` when it splits by
/// column.
fn split_blocks(n: usize, order: ReductionOrder) -> Option<usize> {
    match order {
        ReductionOrder::BlockedTree { block } if n > block.max(1) => Some(block.max(1)),
        _ => None,
    }
}

/// The block-split GEMV-T: jobs take contiguous runs of the `n`-row
/// vector's reduction blocks, and `partials(b0, parts)` fills every
/// column's partials over the run starting at block `b0`
/// (`parts[k * nbl + b]`, the layout of
/// `multivector::gemv_t_block_partials`). The caller then sums each
/// column's partials in block order with the reference tree into `h`.
fn gemv_t_blocks_on<S: Scalar>(
    pool: &WorkerPool,
    n: usize,
    block: usize,
    h: &mut [S],
    partials: impl Fn(usize, &mut [S]) + Sync,
) {
    let ncols = h.len();
    let nblocks = n.div_ceil(block);
    let runs = row_partition(nblocks, pool.threads());
    let slices = runs.iter().map(|&(b0, b1)| (b0 * ncols, b1 * ncols));
    let mut parts = vec![S::zero(); nblocks * ncols];
    for_each_range_mut_on(pool, slices, &mut parts, |start, chunk| {
        partials(start / ncols, chunk)
    });
    let mut col = vec![S::zero(); nblocks];
    for (k, hk) in h.iter_mut().enumerate() {
        for &(b0, b1) in &runs {
            let nbl = b1 - b0;
            let run = &parts[b0 * ncols + k * nbl..][..nbl];
            col[b0..b1].copy_from_slice(run);
        }
        *hk = vec_ops::tree_sum(&mut col);
    }
}

/// `w -= V[:, ..ncols] h` (GEMV No-Trans, alpha = -1), rows split over
/// the pool from [`GEMV_PAR_THRESHOLD`] rows. Within each row, columns
/// accumulate in the order of [`MultiVector::gemv_n_sub`], so results
/// are bit-identical.
pub fn gemv_n_sub_on<S: Scalar>(
    pool: &WorkerPool,
    v: &MultiVector<S>,
    ncols: usize,
    h: &[S],
    w: &mut [S],
) {
    if v.n() < GEMV_PAR_THRESHOLD {
        v.gemv_n_sub(ncols, h, w);
    } else {
        gemv_n_split_on(pool, v, ncols, h, w, false);
    }
}

/// `w ±= V[:, ..ncols] h` (`+` when `add`) without the size threshold:
/// rows split whenever the pool has two or more participants (the
/// pooled side of the crossover sweep). Bit-identical to
/// [`MultiVector::gemv_n_sub`] / [`MultiVector::gemv_n_add`].
pub fn gemv_n_split_on<S: Scalar>(
    pool: &WorkerPool,
    v: &MultiVector<S>,
    ncols: usize,
    h: &[S],
    w: &mut [S],
    add: bool,
) {
    assert!(ncols <= v.max_cols(), "gemv_n: too many columns");
    assert_eq!(w.len(), v.n(), "gemv_n: vector length mismatch");
    assert!(h.len() >= ncols, "gemv_n: coefficient vector too short");
    for_each_chunk_mut_on(pool, w, |start, chunk| {
        fma::run(|| v.gemv_n_rows(ncols, h, start, chunk, add))
    });
}

/// `y += V[:, ..ncols] h` (GEMV No-Trans, alpha = +1), rows split over
/// the pool from [`GEMV_PAR_THRESHOLD`] rows. Bit-identical to
/// [`MultiVector::gemv_n_add`].
pub fn gemv_n_add_on<S: Scalar>(
    pool: &WorkerPool,
    v: &MultiVector<S>,
    ncols: usize,
    h: &[S],
    y: &mut [S],
) {
    if v.n() < GEMV_PAR_THRESHOLD {
        v.gemv_n_add(ncols, h, y);
    } else {
        gemv_n_split_on(pool, v, ncols, h, y, true);
    }
}

/// `h[i] = widen(col_i) . w` over the first `ncols` columns of a
/// [`BasisStore`] — [`gemv_t_on`] generalized to the basis storage
/// policy, with the same block and column splits.
///
/// Each job runs the body the sequential [`BasisStore::gemv_t`] runs
/// over its blocks or columns, so results are bit-identical to the
/// reference on every storage path (on [`BasisStore::Native`] this *is*
/// [`gemv_t_on`]'s computation).
pub fn basis_gemv_t_on<S: Scalar>(
    pool: &WorkerPool,
    v: &BasisStore<S>,
    ncols: usize,
    w: &[S],
    h: &mut [S],
    order: ReductionOrder,
) {
    assert!(ncols <= v.max_cols(), "basis_gemv_t: too many columns");
    assert_eq!(w.len(), v.n(), "basis_gemv_t: vector length mismatch");
    assert!(h.len() >= ncols, "basis_gemv_t: output too short");
    if v.n() < GEMV_PAR_THRESHOLD || ncols == 0 || pool.threads() <= 1 {
        v.gemv_t(ncols, w, h, order);
        return;
    }
    if let Some(block) = split_blocks(v.n(), order) {
        gemv_t_blocks_on(pool, v.n(), block, &mut h[..ncols], |b0, parts| {
            v.gemv_t_blocks(ncols, w, block, b0, parts)
        });
        return;
    }
    if ncols == 1 {
        v.gemv_t(ncols, w, h, order);
        return;
    }
    for_each_chunk_mut_on(pool, &mut h[..ncols], |start, chunk| {
        v.gemv_t_range(start, w, chunk, order);
    });
}

/// `w -= widen(V[:, ..ncols]) h` over a [`BasisStore`], rows partitioned
/// across the pool. Each row range accumulates columns in the reference
/// order via the shared row-range kernel, so results are bit-identical
/// to [`BasisStore::gemv_n_sub`] on every storage path.
pub fn basis_gemv_n_sub_on<S: Scalar>(
    pool: &WorkerPool,
    v: &BasisStore<S>,
    ncols: usize,
    h: &[S],
    w: &mut [S],
) {
    assert!(ncols <= v.max_cols(), "basis_gemv_n_sub: too many columns");
    assert_eq!(w.len(), v.n(), "basis_gemv_n_sub: vector length mismatch");
    assert!(h.len() >= ncols, "basis_gemv_n_sub: coefficients too short");
    if v.n() < GEMV_PAR_THRESHOLD || pool.threads() <= 1 {
        v.gemv_n_sub(ncols, h, w);
        return;
    }
    for_each_chunk_mut_on(pool, w, |start, chunk| {
        v.gemv_n_rows(ncols, h, start, chunk, false);
    });
}

/// `y += widen(V[:, ..ncols]) h` over a [`BasisStore`], rows partitioned
/// across the pool. Bit-identical to [`BasisStore::gemv_n_add`] on every
/// storage path.
pub fn basis_gemv_n_add_on<S: Scalar>(
    pool: &WorkerPool,
    v: &BasisStore<S>,
    ncols: usize,
    h: &[S],
    y: &mut [S],
) {
    assert!(ncols <= v.max_cols(), "basis_gemv_n_add: too many columns");
    assert_eq!(y.len(), v.n(), "basis_gemv_n_add: vector length mismatch");
    assert!(h.len() >= ncols, "basis_gemv_n_add: coefficients too short");
    if v.n() < GEMV_PAR_THRESHOLD || pool.threads() <= 1 {
        v.gemv_n_add(ncols, h, y);
        return;
    }
    for_each_chunk_mut_on(pool, y, |start, chunk| {
        v.gemv_n_rows(ncols, h, start, chunk, true);
    });
}

/// `y = M^{-1} x` for packed block-diagonal LU factors (block Jacobi's
/// apply), the 16-block groups split over the pool.
///
/// Jobs take contiguous runs of groups, one run per participant; the
/// tail blocks after the last full group are one more job, which lands
/// on the caller when every participant has a run. Every block is
/// solved by the body [`BlockLu::solve`] runs, so the result is
/// bit-identical to it.
pub fn block_lu_solve_on<S: Scalar>(pool: &WorkerPool, f: &BlockLu<S>, x: &[S], y: &mut [S]) {
    if f.n() < BLOCK_LU_PAR_THRESHOLD {
        f.solve(x, y);
    } else {
        block_lu_solve_split_on(pool, f, x, y);
    }
}

/// [`block_lu_solve_on`] without the size threshold: splits whenever
/// the pool has two or more participants and there are two or more
/// groups (the pooled side of the crossover sweep).
pub fn block_lu_solve_split_on<S: Scalar>(pool: &WorkerPool, f: &BlockLu<S>, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), f.n(), "block_lu_solve: x length");
    assert_eq!(y.len(), f.n(), "block_lu_solve: y length");
    let (gr, wide) = (f.group_rows(), f.wide_rows());
    let ngroups = wide / gr;
    if pool.threads() <= 1 || ngroups < 2 {
        f.solve(x, y);
        return;
    }
    let runs = row_partition(ngroups, pool.threads())
        .into_iter()
        .map(|(g0, g1)| (g0 * gr, g1 * gr));
    let tail = (wide < f.n()).then_some((wide, f.n()));
    for_each_range_mut_on(pool, runs.chain(tail), y, |start, chunk| {
        f.solve_rows(start, x, chunk)
    });
}

/// Inner product under the given reduction order.
///
/// [`ReductionOrder::Sequential`] runs serially (a single dependency
/// chain — see module docs); [`ReductionOrder::BlockedTree`] computes
/// block partials on the pool from [`PAR_THRESHOLD`] elements and
/// combines them with the shared pairwise tree, bit-identical to the
/// reference.
pub fn dot_on<S: Scalar>(pool: &WorkerPool, x: &[S], y: &[S], order: ReductionOrder) -> S {
    if x.len() < PAR_THRESHOLD {
        vec_ops::dot_ordered(x, y, order)
    } else {
        dot_split_on(pool, x, y, order)
    }
}

/// [`dot_on`] without the size threshold: the blocked tree's partials
/// split whenever the pool has two or more participants (the pooled
/// side of the crossover sweep).
pub fn dot_split_on<S: Scalar>(pool: &WorkerPool, x: &[S], y: &[S], order: ReductionOrder) -> S {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    match order {
        ReductionOrder::Sequential => vec_ops::dot_ordered(x, y, order),
        ReductionOrder::BlockedTree { block } => {
            let block = block.max(1);
            let nblocks = x.len().div_ceil(block);
            if pool.threads() <= 1 || nblocks <= 1 {
                return vec_ops::dot_ordered(x, y, order);
            }
            let mut parts = vec![S::zero(); nblocks];
            for_each_chunk_mut_on(pool, &mut parts, |start, chunk| {
                let lo = start * block;
                let hi = ((start + chunk.len()) * block).min(x.len());
                fma::run(
                    #[inline(always)]
                    || vec_ops::block_partials(&x[lo..hi], &y[lo..hi], block, chunk),
                )
            });
            vec_ops::tree_sum(&mut parts)
        }
    }
}

/// Euclidean norm under the given reduction order (see [`dot_on`]).
pub fn norm2_on<S: Scalar>(pool: &WorkerPool, x: &[S], order: ReductionOrder) -> S {
    dot_on(pool, x, x, order).sqrt()
}

/// `y += alpha x`, elementwise split from [`PAR_THRESHOLD`] elements.
/// Bit-identical to [`vec_ops::axpy`].
pub fn axpy_on<S: Scalar>(pool: &WorkerPool, alpha: S, x: &[S], y: &mut [S]) {
    if x.len() < PAR_THRESHOLD {
        vec_ops::axpy(alpha, x, y);
    } else {
        axpy_split_on(pool, alpha, x, y);
    }
}

/// [`axpy_on`] without the size threshold: splits whenever the pool has
/// two or more participants (the pooled side of the crossover sweep).
pub fn axpy_split_on<S: Scalar>(pool: &WorkerPool, alpha: S, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    if pool.threads() <= 1 {
        vec_ops::axpy(alpha, x, y);
        return;
    }
    for_each_chunk_mut_on(pool, y, |start, chunk| {
        fma::run(|| {
            for (i, yi) in chunk.iter_mut().enumerate() {
                *yi = alpha.mul_add(x[start + i], *yi);
            }
        })
    });
}

/// `x *= alpha`, elementwise split from [`PAR_THRESHOLD`] elements.
/// Bit-identical to [`vec_ops::scale`].
pub fn scal_on<S: Scalar>(pool: &WorkerPool, alpha: S, x: &mut [S]) {
    for_each_chunk_mut_above(pool, x.len(), PAR_THRESHOLD, x, |_, chunk| {
        vec_ops::scale(alpha, chunk)
    });
}

/// Copy `src` into `dst`, split from [`PAR_THRESHOLD`] elements.
pub fn copy_on<S: Scalar>(pool: &WorkerPool, src: &[S], dst: &mut [S]) {
    assert_eq!(src.len(), dst.len(), "copy: length mismatch");
    for_each_chunk_mut_above(pool, src.len(), PAR_THRESHOLD, dst, |start, chunk| {
        chunk.copy_from_slice(&src[start..start + chunk.len()])
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
pub fn lane_copy_on<S: Scalar>(pool: &WorkerPool, srcs: &[&[S]], dsts: &mut [&mut [S]]) {
    lane_shapes("lane_copy", srcs, dsts);
    let n = srcs.first().map_or(0, |s| s.len());
    for_each_chunk_mut_above(pool, n, PAR_THRESHOLD, dsts, |first, chunk| {
        for (d, s) in chunk.iter_mut().zip(&srcs[first..]) {
            d.copy_from_slice(s);
        }
    });
}

/// Batched per-lane normalize-and-store: `dsts[c][i] = srcs[c][i] *
/// alpha[c]`. This is the fused form of the copy-then-scal pair the
/// lockstep driver used to issue per lane; `s * alpha` is the exact
/// multiply `vec_ops::scale` performs after a copy, so the fusion is
/// bit-identical to the two-kernel sequence.
pub fn lane_scal_copy_on<S: Scalar>(
    pool: &WorkerPool,
    alpha: &[S],
    srcs: &[&[S]],
    dsts: &mut [&mut [S]],
) {
    lane_shapes("lane_scal_copy", srcs, dsts);
    assert_eq!(alpha.len(), srcs.len(), "lane_scal_copy: alpha count");
    let n = srcs.first().map_or(0, |s| s.len());
    for_each_chunk_mut_above(pool, n, PAR_THRESHOLD, dsts, |first, chunk| {
        for ((d, s), &a) in chunk.iter_mut().zip(&srcs[first..]).zip(&alpha[first..]) {
            for (di, &si) in d.iter_mut().zip(s.iter()) {
                *di = si * a;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use mpgmres_scalar::Precision;

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

    /// Rows of a [`big_laplace`] (3 entries per interior row) whose
    /// nonzeros clear [`SPMV_PAR_THRESHOLD`], so the thresholded matrix
    /// kernels split the rows (asserted in [`par_laplace`]).
    const PAR_N: usize = SPMV_PAR_THRESHOLD / 3 + 1_000;

    /// [`big_laplace`] at [`PAR_N`] rows, checked to clear the threshold.
    fn par_laplace() -> Csr<f64> {
        let a = big_laplace(PAR_N);
        assert!(a.nnz() >= SPMV_PAR_THRESHOLD, "{} nnz", a.nnz());
        a
    }

    /// Stored entries per range of a cut.
    fn range_nnz(a: &Csr<f64>, parts: &[(usize, usize)]) -> Vec<usize> {
        parts
            .iter()
            .map(|&(lo, hi)| a.row_ptr()[hi] - a.row_ptr()[lo])
            .collect()
    }

    /// Checks that `parts` tiles `0..n` in order.
    fn assert_tiles(parts: &[(usize, usize)], n: usize) {
        assert_eq!(parts[0].0, 0);
        assert_eq!(parts.last().unwrap().1, n);
        for w in parts.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn spmv_bit_identical_to_reference() {
        let n = PAR_N;
        let a = par_laplace();
        let x = pseudo(n, 1);
        let mut y_seq = vec![0.0; n];
        let mut y_par = vec![0.0; n];
        a.spmv(&x, &mut y_seq);
        spmv_parts_on(&WorkerPool::new(8), &a, &x, &mut y_par);
        assert_eq!(y_seq, y_par);
    }

    #[test]
    fn residual_bit_identical_to_reference() {
        let n = PAR_N;
        let a = par_laplace();
        let x = pseudo(n, 2);
        let b = pseudo(n, 3);
        let mut r_seq = vec![0.0; n];
        let mut r_par = vec![0.0; n];
        a.residual(&b, &x, &mut r_seq);
        residual_parts_on(&WorkerPool::new(8), &a, &b, &x, &mut r_par);
        assert_eq!(r_seq, r_par);
    }

    #[test]
    fn blocked_tree_dot_bit_identical() {
        let n = PAR_THRESHOLD * 3 + 41;
        let x = pseudo(n, 4);
        let y = pseudo(n, 5);
        let pool = WorkerPool::new(8);
        for block in [1usize, 7, 256, 1024] {
            let order = ReductionOrder::BlockedTree { block };
            let seq = vec_ops::dot_ordered(&x, &y, order);
            let par = dot_on(&pool, &x, &y, order);
            assert_eq!(seq.to_bits(), par.to_bits(), "block {block}");
        }
    }

    #[test]
    fn gemv_kernels_bit_identical() {
        let n = GEMV_PAR_THRESHOLD + 31;
        const { assert!(GEMV_PAR_THRESHOLD + 31 < PAR_THRESHOLD) };
        let cols = 5;
        let mut v = MultiVector::<f64>::zeros(n, cols);
        for j in 0..cols {
            let c = pseudo(n, 10 + j as u64);
            v.col_mut(j).copy_from_slice(&c);
        }
        let w = pseudo(n, 99);
        let pool = WorkerPool::new(8);
        let mut h_seq = vec![0.0; cols];
        let mut h_par = vec![0.0; cols];
        // The column split, then the block split.
        for order in [ReductionOrder::Sequential, ReductionOrder::GPU_LIKE] {
            v.gemv_t(cols, &w, &mut h_seq, order);
            gemv_t_on(&pool, &v, cols, &w, &mut h_par, order);
            assert_eq!(h_seq, h_par, "{order:?}");
        }

        let mut w_seq = w.clone();
        let mut w_par = w.clone();
        v.gemv_n_sub(cols, &h_seq, &mut w_seq);
        gemv_n_sub_on(&pool, &v, cols, &h_par, &mut w_par);
        assert_eq!(w_seq, w_par);

        v.gemv_n_add(cols, &h_seq, &mut w_seq);
        gemv_n_add_on(&pool, &v, cols, &h_par, &mut w_par);
        assert_eq!(w_seq, w_par);
    }

    #[test]
    fn elementwise_kernels_bit_identical() {
        let n = PAR_THRESHOLD * 2 + 13;
        let x = pseudo(n, 6);
        let mut y_seq = pseudo(n, 7);
        let mut y_par = y_seq.clone();
        let pool = WorkerPool::new(8);
        vec_ops::axpy(1.25, &x, &mut y_seq);
        axpy_on(&pool, 1.25, &x, &mut y_par);
        assert_eq!(y_seq, y_par);
        vec_ops::scale(0.75, &mut y_seq);
        scal_on(&pool, 0.75, &mut y_par);
        assert_eq!(y_seq, y_par);
        let mut dst = vec![0.0; n];
        copy_on(&pool, &y_par, &mut dst);
        assert_eq!(dst, y_par);
    }

    #[test]
    fn spmm_bit_identical_to_column_spmvs() {
        let pool = WorkerPool::new(4);
        for n in [64usize, PAR_N] {
            let a = big_laplace(n);
            let k = 5;
            let mut x = MultiVec::<f64>::zeros(n, k);
            for j in 0..k {
                let c = pseudo(n, 100 + j as u64);
                x.col_mut(j).copy_from_slice(&c);
            }
            let mut y = MultiVec::<f64>::zeros(n, k);
            spmm_parts(&row_partition(n, 8), &a, &x, k, &mut y);
            let mut y_pool = MultiVec::<f64>::zeros(n, k);
            spmm_parts_on(&pool, &a, &x, k, &mut y_pool);
            for j in 0..k {
                let mut y_ref = vec![0.0; n];
                a.spmv(x.col(j), &mut y_ref);
                assert_eq!(y.col(j), &y_ref[..], "n={n} col {j}");
                assert_eq!(y_pool.col(j), &y_ref[..], "pooled n={n} col {j}");
            }
        }
    }

    #[test]
    fn row_partition_tiles_and_matches_chunking() {
        for (len, threads) in [(10usize, 3usize), (16, 4), (7, 16), (1, 1), (100, 7)] {
            let parts = row_partition(len, threads);
            assert_tiles(&parts, len);
            assert!(parts.len() <= threads.max(1));
        }
    }

    #[test]
    fn nnz_cut_balances_skewed_matrices() {
        let n = 4_000;
        let a = arrow(n);
        let threads = 4;
        let even = range_nnz(&a, &row_partition(n, threads));
        let balanced_parts: Vec<_> = csr_cut(&a, threads).collect();
        assert_tiles(&balanced_parts, n);
        let balanced = range_nnz(&a, &balanced_parts);
        let mean = a.nnz() as f64 / threads as f64;
        let spread = |v: &[usize]| *v.iter().max().unwrap() as f64 / mean;
        // Row 0 holds ~25% of the nonzeros: the even split's first part
        // is far above the mean, the nnz cut stays close to it.
        assert!(
            spread(&even) > 1.6,
            "arrow matrix should skew the even split: {even:?}"
        );
        assert!(
            spread(&balanced) < 1.35,
            "nnz cut should balance within 35%: {balanced:?}"
        );
    }

    /// At the two participants the gated workloads run on, the busiest
    /// participant of the cut the matrix kernels take holds under 1.1x
    /// the mean nnz, for a plain CSR and for a split store (whose two
    /// buckets' prefixes add), where an even row split gives the
    /// arrow's head 1.25x.
    #[test]
    fn nnz_cut_keeps_the_busiest_participant_near_the_mean() {
        let a = arrow(SPMV_PAR_THRESHOLD / 3 + 1_000);
        let split = MatrixStore::split_threshold(&a, 0.5);
        let MatrixStore::Split(s) = &split else {
            panic!("split_threshold builds a split store");
        };
        assert!(s.hi().nnz() > 0 && s.lo().nnz() > 0, "both buckets used");
        let mean = a.nnz() as f64 / 2.0;
        let busiest = |parts: &[(usize, usize)]| {
            assert_tiles(parts, a.nrows());
            *range_nnz(&a, parts).iter().max().unwrap() as f64
        };
        let plain: Vec<_> = csr_cut(&a, 2).collect();
        let stored: Vec<_> = store_cut(&split, 2).collect();
        assert_eq!(plain.len(), 2);
        assert!(busiest(&plain) < 1.1 * mean, "plain cut {plain:?}");
        assert!(busiest(&stored) < 1.1 * mean, "split cut {stored:?}");
        let even = busiest(&row_partition(a.nrows(), 2));
        assert!(even > 1.2 * mean, "arrow not skewed enough: {even}");
    }

    #[test]
    fn nnz_cut_handles_degenerate_shapes() {
        let a = big_laplace(5);
        assert_eq!(csr_cut(&a, 1).collect::<Vec<_>>(), vec![(0, 5)]);
        let parts: Vec<_> = csr_cut(&a, 16).collect();
        assert_tiles(&parts, 5);
        assert!(parts.len() <= 5);
        let empty = Coo::<f64>::new(0, 0).into_csr();
        assert_eq!(csr_cut(&empty, 4).collect::<Vec<_>>(), vec![(0, 0)]);
        let hollow = Coo::<f64>::new(3, 3).into_csr();
        assert_eq!(csr_cut(&hollow, 4).collect::<Vec<_>>(), vec![(0, 3)]);
        let shadow = MatrixStore::shadow(&a, Precision::Fp32);
        assert_eq!(
            store_cut(&shadow, 3).collect::<Vec<_>>(),
            csr_cut(&a, 3).collect::<Vec<_>>()
        );
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
        // Below every threshold the `_on` kernels run the reference body
        // on the calling thread; results must match it.
        let pool = WorkerPool::new(8);
        let x = pseudo(16, 8);
        let mut y = pseudo(16, 9);
        let mut y_ref = y.clone();
        axpy_on(&pool, 0.5, &x, &mut y);
        vec_ops::axpy(0.5, &x, &mut y_ref);
        assert_eq!(y, y_ref);
        let order = ReductionOrder::GPU_LIKE;
        let d = dot_on(&pool, &x, &y, order);
        assert_eq!(d.to_bits(), vec_ops::dot_ordered(&x, &y, order).to_bits());
        assert!(default_threads() >= 1);
    }
}
