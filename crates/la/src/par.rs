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
//! - `dot` under [`ReductionOrder::BlockedTree`] is bit-identical too:
//!   block partial sums are independent and the pairwise combine tree
//!   is shared with the reference (`vec_ops::tree_sum`).
//! - `dot` under [`ReductionOrder::Sequential`] is inherently serial (a
//!   single left-to-right chain) and therefore runs sequentially here as
//!   well — bit-determinism is the contract, and a parallel sum would
//!   break it.
//!
//! Every `_on` kernel runs on the persistent pinned [`WorkerPool`] the
//! parallel backend owns, one job per participant, at any size: whether
//! a kernel is worth the pool is the backend's decision (the size
//! thresholds below are its constants), and below them it calls the
//! sequential kernels itself. There is one pooled kernel per shape,
//! generic over how its operand is stored: the matrix kernels take a
//! [`RowOperand`] (a [`Csr`] or a [`MatrixStore`]), the GEMVs a
//! [`ColOperand`] (a [`MultiVector`] or a [`BasisStore`]). The matrix
//! kernels cut their rows where the operand's stored-nonzero prefix
//! crosses each participant's equal share, so a skewed matrix (an arrow
//! head, a few dense rows) does not leave one participant with most of
//! the work; the cut is a binary search over the row pointers per
//! participant, done at every call. Each job takes its `split_at_mut`
//! chunk of the output out of its own uncontended `Mutex`, so the
//! handoff is safe code.
//!
//! Every chunk closure that runs a `mul_add` chain wraps its body in
//! [`fma::run`], so it executes on hardware FMA when the CPU has it.
//!
//! **Threads or SIMD.** The pool runs every kernel the backend hands it
//! on both vCPUs, so a third participant has no core to run on. How
//! much the second one adds depends on what the host gives it.
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

use crate::dense::BlockLu;
use crate::fma;
use crate::multivec::MultiVec;
use crate::pool::WorkerPool;
use crate::vec_ops::{self, ReductionOrder};
#[cfg(doc)]
use crate::{basis::BasisStore, csr::Csr, multivector::MultiVector, store::MatrixStore};

/// Minimum stored nonzeros before the parallel backend runs SpMV,
/// residual and SpMM (plain and store) on the pool; the backend's docs
/// say where the thresholds sit.
pub const SPMV_PAR_THRESHOLD: usize = 1 << 13;

/// Minimum rows before the parallel backend runs GEMV-T and GEMV-N
/// (plain and basis) on the pool.
pub const GEMV_PAR_THRESHOLD: usize = 1 << 11;

/// Minimum rows before the parallel backend splits the block Jacobi
/// apply ([`block_lu_solve_on`]) over the pool.
pub const BLOCK_LU_PAR_THRESHOLD: usize = 1 << 11;

/// A sparse matrix operand of the pooled row kernels, however its
/// values are stored: a plain [`Csr`] or a [`MatrixStore`] (fp32/fp16
/// shadow or split). The row bodies are the ones the type's own
/// sequential kernels run, so a pooled kernel over either operand is
/// bit-identical to them.
pub trait RowOperand<S: Scalar>: Sync {
    /// Row count.
    fn nrows(&self) -> usize;
    /// Column count.
    fn ncols(&self) -> usize;
    /// Stored entries in the rows before row `r` (`r <= nrows()`).
    fn nnz_before(&self, r: usize) -> usize;
    /// Rows `[start, start + y.len())` of `y = A x`.
    fn spmv_rows(&self, start: usize, x: &[S], y: &mut [S]);
    /// Rows `[start, start + r.len())` of `r = b - A x` (`b` is the
    /// whole right-hand side).
    fn residual_rows(&self, start: usize, b: &[S], x: &[S], r: &mut [S]);
    /// Rows `[lo, hi)` of the fused SpMM `out = A X` over the columns
    /// `xcols`, each column in the order of [`Self::spmv_rows`], under
    /// the body's own [`fma::run`] frame.
    fn spmm_rows(&self, xcols: &[&[S]], lo: usize, hi: usize, out: &mut [&mut [S]]);
}

/// A dense column operand of the pooled GEMV kernels, however its
/// columns are stored: a [`MultiVector`] or a [`BasisStore`] (native,
/// fp32 or fp16 columns). The bodies are the ones the type's own
/// sequential GEMVs run, each under its [`fma::run`] frame, so a pooled
/// GEMV over either operand is bit-identical to them.
pub trait ColOperand<S: Scalar>: Sync {
    /// Vector length (rows).
    fn n(&self) -> usize;
    /// Number of allocated columns.
    fn max_cols(&self) -> usize;
    /// GEMV-T over the columns `first..first + h.len()`.
    fn gemv_t_range(&self, first: usize, w: &[S], h: &mut [S], order: ReductionOrder);
    /// Block partials of columns `0..ncols` over the reduction blocks
    /// starting at block `b0` (`parts[k * nbl + b]`, the layout of
    /// `multivector::gemv_t_block_partials`).
    fn gemv_t_blocks(&self, ncols: usize, w: &[S], block: usize, b0: usize, parts: &mut [S]);
    /// GEMV-N over rows `[start, start + out.len())`: `out -= V h`, or
    /// `out += V h` when `add`.
    fn gemv_n_rows(&self, ncols: usize, h: &[S], start: usize, out: &mut [S], add: bool);
}

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

/// Cut the rows of `a` into at most `parts` contiguous ranges of about
/// equal nonzero counts. Range `p` ends at the first row whose prefix
/// [`RowOperand::nnz_before`] reaches `nnz * (p + 1) / parts`, and
/// holds at least one row; the last range ends at `nrows`. Like every
/// partition, this only decides which participant computes which rows.
fn nnz_cut<S: Scalar, A: RowOperand<S>>(
    a: &A,
    parts: usize,
) -> impl Iterator<Item = (usize, usize)> + '_ {
    let n = a.nrows();
    let nnz = a.nnz_before(n);
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
                if a.nnz_before(mid) < target {
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
/// participant or one element, `f(0, data)` on the calling thread.
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
/// per participant. Bit-identical to [`Csr::spmv`] and
/// [`MatrixStore::spmv`].
pub fn spmv_parts_on<S: Scalar, A: RowOperand<S>>(pool: &WorkerPool, a: &A, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), a.ncols(), "spmv: x length mismatch");
    assert_eq!(y.len(), a.nrows(), "spmv: y length mismatch");
    for_each_range_mut_on(pool, nnz_cut(a, pool.threads()), y, |start, chunk| {
        fma::run(|| a.spmv_rows(start, x, chunk))
    });
}

/// `r = b - A x` over the pool, rows cut as [`spmv_parts_on`].
/// Bit-identical to [`Csr::residual`] and [`MatrixStore::residual`].
pub fn residual_parts_on<S: Scalar, A: RowOperand<S>>(
    pool: &WorkerPool,
    a: &A,
    b: &[S],
    x: &[S],
    r: &mut [S],
) {
    assert_eq!(b.len(), a.nrows(), "residual: b length mismatch");
    assert_eq!(x.len(), a.ncols(), "residual: x length mismatch");
    assert_eq!(r.len(), a.nrows(), "residual: r length mismatch");
    for_each_range_mut_on(pool, nnz_cut(a, pool.threads()), r, |start, chunk| {
        fma::run(|| a.residual_rows(start, b, x, chunk))
    });
}

/// The leading `k` columns of `x`, after checking the shapes of the
/// SpMM `Y = A X`.
fn spmm_cols<'x, S: Scalar>(
    a: &impl RowOperand<S>,
    x: &'x MultiVec<S>,
    k: usize,
    y: &MultiVec<S>,
) -> Vec<&'x [S]> {
    assert_eq!(x.n(), a.ncols(), "spmm: x row count mismatch");
    assert_eq!(y.n(), a.nrows(), "spmm: y row count mismatch");
    assert!(k <= x.k() && k <= y.k(), "spmm: too many columns");
    (0..k).map(|j| x.col(j)).collect()
}

/// Fused SpMM `Y = A X` over the leading `k` columns, one range of the
/// precomputed row partition `parts` after another on the calling
/// thread: one pass over the stored rows serves all `k` right-hand
/// sides. Per output column this accumulates in exactly the order of
/// the operand's SpMV, so the result is bit-identical to `k`
/// independent SpMV calls — the multi-RHS determinism contract.
pub fn spmm_parts<S: Scalar, A: RowOperand<S>>(
    parts: &[(usize, usize)],
    a: &A,
    x: &MultiVec<S>,
    k: usize,
    y: &mut MultiVec<S>,
) {
    let xcols = spmm_cols(a, x, k, y);
    let mut slots = y.partition_rows_mut(k, parts);
    for (cols, &(lo, hi)) in slots.iter_mut().zip(parts) {
        a.spmm_rows(&xcols, lo, hi, cols);
    }
}

/// [`spmm_parts`] over the pool, rows cut as [`spmv_parts_on`], one
/// range per participant.
pub fn spmm_parts_on<S: Scalar, A: RowOperand<S>>(
    pool: &WorkerPool,
    a: &A,
    x: &MultiVec<S>,
    k: usize,
    y: &mut MultiVec<S>,
) {
    let xcols = spmm_cols(a, x, k, y);
    for_each_row_block_on(pool, nnz_cut(a, pool.threads()), y, k, |lo, hi, cols| {
        a.spmm_rows(&xcols, lo, hi, cols)
    });
}

/// `h[i] = col_i . w` for `i in 0..ncols` (GEMV Trans) over the pool:
/// split by reduction block under [`ReductionOrder::BlockedTree`], by
/// column under [`ReductionOrder::Sequential`].
///
/// Every column's partials and combine tree are those of the operand's
/// own GEMV-T, so per-column results are bit-identical to
/// [`MultiVector::gemv_t`] and [`BasisStore::gemv_t`].
pub fn gemv_t_on<S: Scalar, V: ColOperand<S>>(
    pool: &WorkerPool,
    v: &V,
    ncols: usize,
    w: &[S],
    h: &mut [S],
    order: ReductionOrder,
) {
    assert!(ncols <= v.max_cols(), "gemv_t: too many columns");
    assert_eq!(w.len(), v.n(), "gemv_t: vector length mismatch");
    assert!(h.len() >= ncols, "gemv_t: output too short");
    let h = &mut h[..ncols];
    match split_blocks(v.n(), order) {
        Some(block) if ncols > 0 => gemv_t_blocks_on(pool, v.n(), block, h, |b0, parts| {
            v.gemv_t_blocks(ncols, w, block, b0, parts)
        }),
        _ => for_each_chunk_mut_on(pool, h, |start, chunk| {
            v.gemv_t_range(start, w, chunk, order)
        }),
    }
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

/// `w -= V[:, ..ncols] h` (GEMV No-Trans, alpha = -1), or `w += V[:,
/// ..ncols] h` when `add`, rows split over the pool. Within each row,
/// columns accumulate in the order of the operand's own GEMV-N, so
/// results are bit-identical to [`MultiVector::gemv_n_sub`] /
/// [`MultiVector::gemv_n_add`] and their [`BasisStore`] twins.
pub fn gemv_n_on<S: Scalar, V: ColOperand<S>>(
    pool: &WorkerPool,
    v: &V,
    ncols: usize,
    h: &[S],
    w: &mut [S],
    add: bool,
) {
    assert!(ncols <= v.max_cols(), "gemv_n: too many columns");
    assert_eq!(w.len(), v.n(), "gemv_n: vector length mismatch");
    assert!(h.len() >= ncols, "gemv_n: coefficient vector too short");
    for_each_chunk_mut_on(pool, w, |start, chunk| {
        v.gemv_n_rows(ncols, h, start, chunk, add)
    });
}

/// `y = M^{-1} x` for packed block-diagonal LU factors (block Jacobi's
/// apply), the 16-block groups split over the pool.
///
/// Jobs take contiguous runs of groups, one run per participant; the
/// tail blocks after the last full group are one more job, which lands
/// on the caller when every participant has a run. Fewer than two
/// groups leave nothing to split, and the solve runs on the calling
/// thread. Every block is solved by the body [`BlockLu::solve`] runs,
/// so the result is bit-identical to it.
pub fn block_lu_solve_on<S: Scalar>(pool: &WorkerPool, f: &BlockLu<S>, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), f.n(), "block_lu_solve: x length");
    assert_eq!(y.len(), f.n(), "block_lu_solve: y length");
    let (gr, wide) = (f.group_rows(), f.wide_rows());
    let ngroups = wide / gr;
    if ngroups < 2 {
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
/// block partials on the pool and combines them with the shared
/// pairwise tree, bit-identical to [`vec_ops::dot_ordered`].
pub fn dot_on<S: Scalar>(pool: &WorkerPool, x: &[S], y: &[S], order: ReductionOrder) -> S {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let ReductionOrder::BlockedTree { block } = order else {
        return vec_ops::dot_ordered(x, y, order);
    };
    let block = block.max(1);
    let mut parts = vec![S::zero(); x.len().div_ceil(block)];
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

/// `y += alpha x`, elementwise split over the pool. Bit-identical to
/// [`vec_ops::axpy`], which each chunk runs.
pub fn axpy_on<S: Scalar>(pool: &WorkerPool, alpha: S, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for_each_chunk_mut_on(pool, y, |start, chunk| {
        vec_ops::axpy(alpha, &x[start..start + chunk.len()], chunk)
    });
}

/// `x *= alpha`, elementwise split over the pool. Bit-identical to
/// [`vec_ops::scale`], which each chunk runs.
pub fn scal_on<S: Scalar>(pool: &WorkerPool, alpha: S, x: &mut [S]) {
    for_each_chunk_mut_on(pool, x, |_, chunk| vec_ops::scale(alpha, chunk));
}

/// Copy `src` into `dst`, split over the pool.
pub fn copy_on<S: Scalar>(pool: &WorkerPool, src: &[S], dst: &mut [S]) {
    assert_eq!(src.len(), dst.len(), "copy: length mismatch");
    for_each_chunk_mut_on(pool, dst, |start, chunk| {
        chunk.copy_from_slice(&src[start..start + chunk.len()])
    });
}

/// [`vec_ops::lane_copy`] with the lanes split over the pool.
pub fn lane_copy_on<S: Scalar>(pool: &WorkerPool, srcs: &[&[S]], dsts: &mut [&mut [S]]) {
    assert_eq!(srcs.len(), dsts.len(), "lane_copy: lane count mismatch");
    for_each_chunk_mut_on(pool, dsts, |first, chunk| {
        vec_ops::lane_copy(&srcs[first..first + chunk.len()], chunk)
    });
}

/// [`vec_ops::lane_scal_copy`] with the lanes split over the pool.
pub fn lane_scal_copy_on<S: Scalar>(
    pool: &WorkerPool,
    alpha: &[S],
    srcs: &[&[S]],
    dsts: &mut [&mut [S]],
) {
    assert_eq!(
        srcs.len(),
        dsts.len(),
        "lane_scal_copy: lane count mismatch"
    );
    assert_eq!(alpha.len(), srcs.len(), "lane_scal_copy: alpha count");
    for_each_chunk_mut_on(pool, dsts, |first, chunk| {
        let lanes = first..first + chunk.len();
        vec_ops::lane_scal_copy(&alpha[lanes.clone()], &srcs[lanes], chunk)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::csr::Csr;
    use crate::multivector::MultiVector;
    use crate::store::MatrixStore;
    use crate::vec_ops::PAR_THRESHOLD;
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
    /// nonzeros clear [`SPMV_PAR_THRESHOLD`], the size from which the
    /// parallel backend splits the matrix kernels (asserted in
    /// [`par_laplace`]).
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
        gemv_n_on(&pool, &v, cols, &h_par, &mut w_par, false);
        assert_eq!(w_seq, w_par);

        v.gemv_n_add(cols, &h_seq, &mut w_seq);
        gemv_n_on(&pool, &v, cols, &h_par, &mut w_par, true);
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
        let balanced_parts: Vec<_> = nnz_cut(&a, threads).collect();
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
        let plain: Vec<_> = nnz_cut(&a, 2).collect();
        let stored: Vec<_> = nnz_cut(&split, 2).collect();
        assert_eq!(plain.len(), 2);
        assert!(busiest(&plain) < 1.1 * mean, "plain cut {plain:?}");
        assert!(busiest(&stored) < 1.1 * mean, "split cut {stored:?}");
        let even = busiest(&row_partition(a.nrows(), 2));
        assert!(even > 1.2 * mean, "arrow not skewed enough: {even}");
    }

    #[test]
    fn nnz_cut_handles_degenerate_shapes() {
        let a = big_laplace(5);
        assert_eq!(nnz_cut(&a, 1).collect::<Vec<_>>(), vec![(0, 5)]);
        let parts: Vec<_> = nnz_cut(&a, 16).collect();
        assert_tiles(&parts, 5);
        assert!(parts.len() <= 5);
        let empty = Coo::<f64>::new(0, 0).into_csr();
        assert_eq!(nnz_cut(&empty, 4).collect::<Vec<_>>(), vec![(0, 0)]);
        let hollow = Coo::<f64>::new(3, 3).into_csr();
        assert_eq!(nnz_cut(&hollow, 4).collect::<Vec<_>>(), vec![(0, 3)]);
        let shadow = MatrixStore::shadow(&a, Precision::Fp32);
        assert_eq!(
            nnz_cut(&shadow, 3).collect::<Vec<_>>(),
            nnz_cut(&a, 3).collect::<Vec<_>>()
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

        // A short vector (far below the lane threshold) agrees too.
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
    fn small_inputs_match_the_reference() {
        // Inputs far below every threshold split over the pool too (the
        // backend, not the kernel, decides); results must match the
        // reference body.
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
