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
//! The `_on` kernels take any [`Executor`]: the persistent pinned
//! [`WorkerPool`](crate::pool::WorkerPool) the parallel backend runs
//! on, or per-call scoped spawns ([`ScopedSpawn`]). Execution style
//! never affects results. Below each kernel's threshold (next paragraph
//! but one) the kernels run the sequential path so small problems
//! never pay dispatch overhead; the `_parts_on` and `_split_on` entry
//! points skip the threshold.
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

use mpgmres_scalar::Scalar;

use crate::basis::BasisStore;
use crate::csr::Csr;
use crate::dense::BlockLu;
use crate::fma;
use crate::multivec::MultiVec;
use crate::multivector::MultiVector;
use crate::pool::{Executor, ScopedSpawn};
use crate::raw::RawSliceMut;
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

/// The executor a kernel over `len` rows runs on: `exec` from
/// `threshold` rows up, the calling thread alone below it.
fn above(exec: &dyn Executor, len: usize, threshold: usize) -> &dyn Executor {
    if len < threshold {
        &ScopedSpawn(1)
    } else {
        exec
    }
}

/// Split `[0, len)` into at most `exec.width()` contiguous chunks and
/// run `f(start, chunk)` for each chunk of `data` as one executor job.
pub(crate) fn for_each_chunk_mut_on<S: Send, F>(exec: &dyn Executor, data: &mut [S], f: F)
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
    for_each_chunk_mut_on(&ScopedSpawn(threads), data, |start, chunk| {
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

/// `y = A x` over a precomputed row partition, one executor job per
/// range (no threshold check; the caller decides when going parallel
/// pays). Bit-identical to [`Csr::spmv`].
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

/// `r = b - A x` over a precomputed row partition (no threshold check).
/// Bit-identical to [`Csr::residual`].
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

/// Fused SpMM `Y = A X` over the leading `k` columns and a precomputed
/// row partition, one scoped thread per range: one pass over the CSR
/// rows serves all `k` right-hand sides. Per output column this
/// accumulates in exactly the order of [`Csr::spmv`]'s per-row kernel,
/// so the result is bit-identical to `k` independent SpMV calls — the
/// multi-RHS determinism contract.
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
    for_each_chunk_mut_on(exec, &mut slots, |first, chunk| {
        for (cols, &(lo, hi)) in chunk.iter_mut().zip(&parts[first..]) {
            spmm_rows(a, &xcols, lo, hi, cols);
        }
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
    for_each_chunk_mut_on(exec, &mut slots, |first, chunk| {
        for (cols, &(lo, hi)) in chunk.iter_mut().zip(&parts[first..]) {
            a.spmm_rows(&xcols, lo, hi, cols);
        }
    });
}

/// `h[i] = col_i . w` for `i in 0..ncols` (GEMV Trans), split over the
/// executor from [`GEMV_PAR_THRESHOLD`] rows: by reduction block under
/// [`ReductionOrder::BlockedTree`], by column under
/// [`ReductionOrder::Sequential`].
///
/// Every column's partials and combine tree are those of the reference,
/// so per-column results are bit-identical to [`MultiVector::gemv_t`].
pub fn gemv_t_on<S: Scalar>(
    exec: &dyn Executor,
    v: &MultiVector<S>,
    ncols: usize,
    w: &[S],
    h: &mut [S],
    order: ReductionOrder,
) {
    gemv_t_split_on(
        above(exec, v.n(), GEMV_PAR_THRESHOLD),
        v,
        ncols,
        w,
        h,
        order,
    );
}

/// [`gemv_t_on`] without the size threshold: splits whenever the
/// executor has two or more participants (the pooled side of the
/// crossover sweep).
pub fn gemv_t_split_on<S: Scalar>(
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
    if ncols == 0 || exec.width() <= 1 {
        v.gemv_t(ncols, w, h, order);
        return;
    }
    if let Some(block) = split_blocks(v.n(), order) {
        gemv_t_blocks_on(exec, v.n(), block, &mut h[..ncols], |b0, parts| {
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
    for_each_chunk_mut_on(exec, &mut h[..ncols], |start, chunk| {
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
    exec: &dyn Executor,
    n: usize,
    block: usize,
    h: &mut [S],
    partials: impl Fn(usize, &mut [S]) + Sync,
) {
    let ncols = h.len();
    let nblocks = n.div_ceil(block);
    let runs = row_partition(nblocks, exec.width());
    let slices: Vec<(usize, usize)> = runs
        .iter()
        .map(|&(b0, b1)| (b0 * ncols, b1 * ncols))
        .collect();
    let mut parts = vec![S::zero(); nblocks * ncols];
    for_each_part_mut_on(exec, &slices, &mut parts, |start, chunk| {
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
/// the executor from [`GEMV_PAR_THRESHOLD`] rows. Within each row,
/// columns accumulate in the order of [`MultiVector::gemv_n_sub`], so
/// results are bit-identical.
pub fn gemv_n_sub_on<S: Scalar>(
    exec: &dyn Executor,
    v: &MultiVector<S>,
    ncols: usize,
    h: &[S],
    w: &mut [S],
) {
    gemv_n_split_on(
        above(exec, v.n(), GEMV_PAR_THRESHOLD),
        v,
        ncols,
        h,
        w,
        false,
    );
}

/// `w ±= V[:, ..ncols] h` (`+` when `add`) without the size threshold:
/// rows split whenever the executor has two or more participants (the
/// pooled side of the crossover sweep). Bit-identical to
/// [`MultiVector::gemv_n_sub`] / [`MultiVector::gemv_n_add`].
pub fn gemv_n_split_on<S: Scalar>(
    exec: &dyn Executor,
    v: &MultiVector<S>,
    ncols: usize,
    h: &[S],
    w: &mut [S],
    add: bool,
) {
    assert!(ncols <= v.max_cols(), "gemv_n: too many columns");
    assert_eq!(w.len(), v.n(), "gemv_n: vector length mismatch");
    assert!(h.len() >= ncols, "gemv_n: coefficient vector too short");
    for_each_chunk_mut_on(exec, w, |start, chunk| {
        fma::run(|| v.gemv_n_rows(ncols, h, start, chunk, add))
    });
}

/// `y += V[:, ..ncols] h` (GEMV No-Trans, alpha = +1), rows split over
/// the executor from [`GEMV_PAR_THRESHOLD`] rows. Bit-identical to
/// [`MultiVector::gemv_n_add`].
pub fn gemv_n_add_on<S: Scalar>(
    exec: &dyn Executor,
    v: &MultiVector<S>,
    ncols: usize,
    h: &[S],
    y: &mut [S],
) {
    gemv_n_split_on(above(exec, v.n(), GEMV_PAR_THRESHOLD), v, ncols, h, y, true);
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
    if v.n() < GEMV_PAR_THRESHOLD || ncols == 0 || exec.width() <= 1 {
        v.gemv_t(ncols, w, h, order);
        return;
    }
    if let Some(block) = split_blocks(v.n(), order) {
        gemv_t_blocks_on(exec, v.n(), block, &mut h[..ncols], |b0, parts| {
            v.gemv_t_blocks(ncols, w, block, b0, parts)
        });
        return;
    }
    if ncols == 1 {
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
    if v.n() < GEMV_PAR_THRESHOLD || exec.width() <= 1 {
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
    if v.n() < GEMV_PAR_THRESHOLD || exec.width() <= 1 {
        v.gemv_n_add(ncols, h, y);
        return;
    }
    for_each_chunk_mut_on(exec, y, |start, chunk| {
        v.gemv_n_rows(ncols, h, start, chunk, true);
    });
}

/// `y = M^{-1} x` for packed block-diagonal LU factors (block Jacobi's
/// apply), the 16-block groups split over the executor.
///
/// Jobs take contiguous runs of groups, one run per participant; the
/// tail blocks after the last full group are one more job, which lands
/// on the caller when every participant has a run. Every block is
/// solved by the body [`BlockLu::solve`] runs, so the result is
/// bit-identical to it.
pub fn block_lu_solve_on<S: Scalar>(exec: &dyn Executor, f: &BlockLu<S>, x: &[S], y: &mut [S]) {
    block_lu_solve_split_on(above(exec, f.n(), BLOCK_LU_PAR_THRESHOLD), f, x, y);
}

/// [`block_lu_solve_on`] without the size threshold: splits whenever
/// the executor has two or more participants and there are two or more
/// groups (the pooled side of the crossover sweep).
pub fn block_lu_solve_split_on<S: Scalar>(
    exec: &dyn Executor,
    f: &BlockLu<S>,
    x: &[S],
    y: &mut [S],
) {
    assert_eq!(x.len(), f.n(), "block_lu_solve: x length");
    assert_eq!(y.len(), f.n(), "block_lu_solve: y length");
    let (gr, wide) = (f.group_rows(), f.wide_rows());
    let ngroups = wide / gr;
    if exec.width() <= 1 || ngroups < 2 {
        f.solve(x, y);
        return;
    }
    let mut parts: Vec<(usize, usize)> = row_partition(ngroups, exec.width())
        .into_iter()
        .map(|(g0, g1)| (g0 * gr, g1 * gr))
        .collect();
    if wide < f.n() {
        parts.push((wide, f.n()));
    }
    for_each_part_mut_on(exec, &parts, y, |start, chunk| {
        f.solve_rows(start, x, chunk)
    });
}

/// Inner product under the given reduction order.
///
/// [`ReductionOrder::Sequential`] runs serially (a single dependency
/// chain — see module docs); [`ReductionOrder::BlockedTree`] computes
/// block partials on the executor from
/// [`PAR_THRESHOLD`] elements and
/// combines them with the shared pairwise tree, bit-identical to the
/// reference.
pub fn dot_on<S: Scalar>(exec: &dyn Executor, x: &[S], y: &[S], order: ReductionOrder) -> S {
    dot_split_on(above(exec, x.len(), PAR_THRESHOLD), x, y, order)
}

/// [`dot_on`] without the size threshold: the blocked tree's partials
/// split whenever the executor has two or more participants (the pooled
/// side of the crossover sweep).
pub fn dot_split_on<S: Scalar>(exec: &dyn Executor, x: &[S], y: &[S], order: ReductionOrder) -> S {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    match order {
        ReductionOrder::Sequential => vec_ops::dot_ordered(x, y, order),
        ReductionOrder::BlockedTree { block } => {
            let block = block.max(1);
            let nblocks = x.len().div_ceil(block);
            if exec.width() <= 1 || nblocks <= 1 {
                return vec_ops::dot_ordered(x, y, order);
            }
            let mut parts = vec![S::zero(); nblocks];
            for_each_chunk_mut_on(exec, &mut parts, |start, chunk| {
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
pub fn norm2_on<S: Scalar>(exec: &dyn Executor, x: &[S], order: ReductionOrder) -> S {
    dot_on(exec, x, x, order).sqrt()
}

/// `y += alpha x`, elementwise split from
/// [`PAR_THRESHOLD`] elements.
/// Bit-identical to [`vec_ops::axpy`].
pub fn axpy_on<S: Scalar>(exec: &dyn Executor, alpha: S, x: &[S], y: &mut [S]) {
    axpy_split_on(above(exec, x.len(), PAR_THRESHOLD), alpha, x, y);
}

/// [`axpy_on`] without the size threshold: splits whenever the executor
/// has two or more participants (the pooled side of the crossover
/// sweep).
pub fn axpy_split_on<S: Scalar>(exec: &dyn Executor, alpha: S, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    if exec.width() <= 1 {
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

/// `x *= alpha`, elementwise split from [`PAR_THRESHOLD`] elements.
/// Bit-identical to [`vec_ops::scale`].
pub fn scal_on<S: Scalar>(exec: &dyn Executor, alpha: S, x: &mut [S]) {
    for_each_chunk_mut_on(above(exec, x.len(), PAR_THRESHOLD), x, |_, chunk| {
        vec_ops::scale(alpha, chunk)
    });
}

/// Copy `src` into `dst`, split from [`PAR_THRESHOLD`] elements.
pub fn copy_on<S: Scalar>(exec: &dyn Executor, src: &[S], dst: &mut [S]) {
    assert_eq!(src.len(), dst.len(), "copy: length mismatch");
    for_each_chunk_mut_on(
        above(exec, src.len(), PAR_THRESHOLD),
        dst,
        |start, chunk| chunk.copy_from_slice(&src[start..start + chunk.len()]),
    );
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
    let n = srcs.first().map_or(0, |s| s.len());
    for_each_chunk_mut_on(above(exec, n, PAR_THRESHOLD), dsts, |first, chunk| {
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
    exec: &dyn Executor,
    alpha: &[S],
    srcs: &[&[S]],
    dsts: &mut [&mut [S]],
) {
    lane_shapes("lane_scal_copy", srcs, dsts);
    assert_eq!(alpha.len(), srcs.len(), "lane_scal_copy: alpha count");
    let n = srcs.first().map_or(0, |s| s.len());
    for_each_chunk_mut_on(above(exec, n, PAR_THRESHOLD), dsts, |first, chunk| {
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

    #[test]
    fn spmv_bit_identical_to_reference() {
        let n = PAR_N;
        let a = par_laplace();
        let x = pseudo(n, 1);
        let mut y_seq = vec![0.0; n];
        let mut y_par = vec![0.0; n];
        a.spmv(&x, &mut y_seq);
        spmv_parts_on(&ScopedSpawn(8), &row_partition(n, 8), &a, &x, &mut y_par);
        assert_eq!(y_seq, y_par);
    }

    #[test]
    fn pooled_kernels_bit_identical_to_scoped() {
        let n = PAR_N;
        let a = par_laplace();
        let x = pseudo(n, 11);
        let pool = WorkerPool::new(4);
        let parts = row_partition(n, 4);
        let (mut y_scoped, mut y_pool) = (vec![0.0; n], vec![0.0; n]);
        spmv_parts_on(&ScopedSpawn(4), &parts, &a, &x, &mut y_scoped);
        spmv_parts_on(&pool, &parts, &a, &x, &mut y_pool);
        assert_eq!(y_scoped, y_pool);

        let b = pseudo(n, 12);
        let (mut r_scoped, mut r_pool) = (vec![0.0; n], vec![0.0; n]);
        residual_parts_on(&ScopedSpawn(4), &parts, &a, &b, &x, &mut r_scoped);
        residual_parts_on(&pool, &parts, &a, &b, &x, &mut r_pool);
        assert_eq!(r_scoped, r_pool);

        let order = ReductionOrder::GPU_LIKE;
        let d_scoped = dot_on(&ScopedSpawn(4), &x, &b, order);
        let d_pool = dot_on(&pool, &x, &b, order);
        assert_eq!(d_scoped.to_bits(), d_pool.to_bits());

        let (mut ys, mut yp) = (b.clone(), b.clone());
        axpy_on(&ScopedSpawn(4), 1.5, &x, &mut ys);
        axpy_on(&pool, 1.5, &x, &mut yp);
        assert_eq!(ys, yp);
        scal_on(&ScopedSpawn(4), 0.75, &mut ys);
        scal_on(&pool, 0.75, &mut yp);
        assert_eq!(ys, yp);
        let (mut cs, mut cp) = (vec![0.0; n], vec![0.0; n]);
        copy_on(&ScopedSpawn(4), &ys, &mut cs);
        copy_on(&pool, &yp, &mut cp);
        assert_eq!(cs, cp);
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
        residual_parts_on(
            &ScopedSpawn(8),
            &row_partition(n, 8),
            &a,
            &b,
            &x,
            &mut r_par,
        );
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
            let par = dot_on(&ScopedSpawn(8), &x, &y, order);
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
        let mut h_seq = vec![0.0; cols];
        let mut h_par = vec![0.0; cols];
        // The column split, then the block split.
        for order in [ReductionOrder::Sequential, ReductionOrder::GPU_LIKE] {
            v.gemv_t(cols, &w, &mut h_seq, order);
            gemv_t_on(&ScopedSpawn(8), &v, cols, &w, &mut h_par, order);
            assert_eq!(h_seq, h_par, "{order:?}");
        }

        let mut w_seq = w.clone();
        let mut w_par = w.clone();
        v.gemv_n_sub(cols, &h_seq, &mut w_seq);
        gemv_n_sub_on(&ScopedSpawn(8), &v, cols, &h_par, &mut w_par);
        assert_eq!(w_seq, w_par);

        v.gemv_n_add(cols, &h_seq, &mut w_seq);
        gemv_n_add_on(&ScopedSpawn(8), &v, cols, &h_par, &mut w_par);
        assert_eq!(w_seq, w_par);
    }

    #[test]
    fn elementwise_kernels_bit_identical() {
        let n = PAR_THRESHOLD * 2 + 13;
        let x = pseudo(n, 6);
        let mut y_seq = pseudo(n, 7);
        let mut y_par = y_seq.clone();
        vec_ops::axpy(1.25, &x, &mut y_seq);
        axpy_on(&ScopedSpawn(8), 1.25, &x, &mut y_par);
        assert_eq!(y_seq, y_par);
        vec_ops::scale(0.75, &mut y_seq);
        scal_on(&ScopedSpawn(8), 0.75, &mut y_par);
        assert_eq!(y_seq, y_par);
        let mut dst = vec![0.0; n];
        copy_on(&ScopedSpawn(8), &y_par, &mut dst);
        assert_eq!(dst, y_par);
    }

    #[test]
    fn spmm_bit_identical_to_column_spmvs() {
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
        spmv_parts_on(&ScopedSpawn(4), &parts, &a, x.col(1), &mut y1);
        assert_eq!(y.col(1), &y1[..]);
        let mut y_ref = vec![0.0; n];
        a.spmv(x.col(1), &mut y_ref);
        assert_eq!(y1, y_ref);
        // residual over the same cached partition.
        let b = pseudo(n, 21);
        let (mut r_seq, mut r_par) = (vec![0.0; n], vec![0.0; n]);
        a.residual(&b, x.col(0), &mut r_seq);
        residual_parts_on(&ScopedSpawn(4), &parts, &a, &b, x.col(0), &mut r_par);
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
        spmv_parts_on(&ScopedSpawn(4), &balanced_parts, &a, &x, &mut y_bal);
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
        // Below every threshold the `_on` kernels run the reference body
        // on the calling thread; results must match it.
        let exec = ScopedSpawn(8);
        let x = pseudo(16, 8);
        let mut y = pseudo(16, 9);
        let mut y_ref = y.clone();
        axpy_on(&exec, 0.5, &x, &mut y);
        vec_ops::axpy(0.5, &x, &mut y_ref);
        assert_eq!(y, y_ref);
        let order = ReductionOrder::GPU_LIKE;
        let d = dot_on(&exec, &x, &y, order);
        assert_eq!(d.to_bits(), vec_ops::dot_ordered(&x, &y, order).to_bits());
        assert!(default_threads() >= 1);
    }
}
