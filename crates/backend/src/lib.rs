//! Pluggable kernel execution backends.
//!
//! The paper's core finding is that GMRES performance is decided by the
//! kernel implementations executing SpMV/GEMV/dot — not by the solver
//! logic. This crate makes the kernel layer swappable: solvers record
//! every kernel on a stream of an instrumented context
//! (`mpgmres::GpuContext`), which charges the simulated-device profiler
//! and then delegates *computation* to a [`Backend`] trait object. Swapping backends changes wall-clock
//! execution only; simulated V100 timings and (under the determinism
//! contract below) every floating-point result stay identical.
//!
//! # Architecture
//!
//! ```text
//! Gmres / BlockGmres / GmresIr (GmresIr3 nests it) / GmresFd / preconditioners
//!         |            (solver layer: mpgmres)
//!         v
//! GpuContext ── charges ──> gpusim::Profiler (simulated V100 time,
//!         |                  serial + critical-path timelines)
//!         |── Stream::record ── charge ──> stream::OpGraph (ready time)
//!         |                 └── run at once
//!         v  ScalarBackend<S> dispatch (BackendScalar)
//! Backend trait object
//!    ├── ReferenceBackend   sequential, bit-deterministic (mpgmres-la)
//!    └── ParallelBackend    persistent pinned worker pool joined by the
//!         calling thread, cached row/nnz partitions, fused SpMM
//! ```
//!
//! Every kernel runs through a *stream* (`GpuContext::stream`), which
//! registers buffers into an arena (`mpgmres_la::raw::BufferArena`) and
//! runs each op at its record call, in record order. A recording
//! stream also pushes one [`stream::OpShape`] per op (handle + byte-span
//! read/write sets) onto a dependency graph and charges the op at the
//! latest finish time of the earlier ops its spans conflict with; an
//! eager stream (streaming off) charges each op at the current critical
//! time instead. Both modes run the same kernels in the same order, so
//! they compute the same bits; the graph only prices the overlap of
//! independent ops on the simulated timeline (see [`stream`]).
//!
//! # Determinism contract
//!
//! [`ParallelBackend`] only partitions *independent outputs* across
//! threads and evaluates each output in the reference operation order
//! (see `mpgmres_la::par`). Every kernel is therefore bit-identical to
//! [`ReferenceBackend`] — including reductions under
//! [`ReductionOrder::BlockedTree`], whose block partials are
//! order-independent. The one serial holdout is `dot`/`norm2` under
//! [`ReductionOrder::Sequential`], which is a single dependency chain
//! and runs sequentially on every backend.
//!
//! The batched multi-RHS surface (`spmm`, `block_gemv_*`, `block_dot`,
//! `block_norm2`, `block_axpy`/`block_scal`/`block_copy`) extends the
//! contract across block widths: default implementations loop the
//! single-vector kernels, and every fused override (the parallel
//! row-streaming SpMM) preserves the per-column operation order, so a
//! k-column block call is bit-identical to k independent single-vector
//! calls on every backend.
//!
//! # Dimension contracts
//!
//! Every kernel reaches a backend through a `mpgmres::Stream` record
//! call, which asserts the argument shapes before anything is charged
//! or executed; implementations may assume validated inputs. (The
//! reference kernels in `mpgmres-la` keep their own cheap asserts as
//! defense in depth for direct users of that crate.)

use core::fmt;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mpgmres_la::basis::BasisStore;
use mpgmres_la::csr::Csr;
use mpgmres_la::dense::BlockLu;
use mpgmres_la::multivec::MultiVec;
use mpgmres_la::multivector::MultiVector;
use mpgmres_la::par;
use mpgmres_la::pool::WorkerPool;
use mpgmres_la::store::MatrixStore;
use mpgmres_la::vec_ops::{self, ReductionOrder};
use mpgmres_scalar::{Half, Scalar};

pub mod stream;

use stream::Batch;

/// The kernel call surface for one working precision `S`.
///
/// These are the operations the solvers and preconditioners record on
/// `GpuContext` streams: SpMV and the fused residual, the two
/// CGS2 GEMV shapes, reductions, and the level-1 vector updates.
///
/// Shape contracts (asserted by the caller — `mpgmres::Stream`'s record
/// calls — listed here as documentation):
///
/// - `spmv`: `x.len() == a.ncols()`, `y.len() == a.nrows()`
/// - `residual`: additionally `b.len() == a.nrows()`
/// - `gemv_t`: `ncols <= v.max_cols()`, `w.len() == v.n()`,
///   `h.len() >= ncols`
/// - `gemv_n_sub`/`gemv_n_add`: `ncols <= v.max_cols()`,
///   `w.len() == v.n()`, `h.len() >= ncols`
/// - `dot`/`axpy`/`copy`: equal slice lengths
/// - `block_lu_solve`: `x.len() == y.len() == f.n()`
pub trait ScalarBackend<S: Scalar> {
    /// `y = A x`.
    fn spmv(&self, a: &Csr<S>, x: &[S], y: &mut [S]);
    /// `r = b - A x` (fused residual).
    fn residual(&self, a: &Csr<S>, b: &[S], x: &[S], r: &mut [S]);
    /// `h[i] = col_i . w` over the first `ncols` columns (GEMV Trans).
    fn gemv_t(&self, v: &MultiVector<S>, ncols: usize, w: &[S], h: &mut [S], order: ReductionOrder);
    /// `w -= V[:, ..ncols] h` (GEMV No-Trans, alpha = -1).
    fn gemv_n_sub(&self, v: &MultiVector<S>, ncols: usize, h: &[S], w: &mut [S]);
    /// `y += V[:, ..ncols] h` (GEMV No-Trans, alpha = +1).
    fn gemv_n_add(&self, v: &MultiVector<S>, ncols: usize, h: &[S], y: &mut [S]);
    /// Inner product under the given reduction order.
    fn dot(&self, x: &[S], y: &[S], order: ReductionOrder) -> S;
    /// Euclidean norm under the given reduction order.
    fn norm2(&self, x: &[S], order: ReductionOrder) -> S;
    /// `y += alpha x`.
    fn axpy(&self, alpha: S, x: &[S], y: &mut [S]);
    /// `x *= alpha`.
    fn scal(&self, alpha: S, x: &mut [S]);
    /// Copy `src` into `dst`.
    fn copy(&self, src: &[S], dst: &mut [S]);

    // ----- batched multi-RHS (block) kernels --------------------------
    //
    // Multivector variants over the leading `k` columns of an `n x k`
    // block. Every default implementation loops the corresponding
    // single-vector kernel, so the per-column results of ANY backend are
    // bit-identical to `k` independent single-vector calls by
    // construction; fused overrides (e.g. [`ParallelBackend::spmm`])
    // must preserve that per-column operation order. This is the
    // multi-RHS determinism contract the parity test-suite pins.

    /// SpMM `Y[:, ..k] = A X[:, ..k]` (one column per right-hand side).
    fn spmm(&self, a: &Csr<S>, x: &MultiVec<S>, k: usize, y: &mut MultiVec<S>) {
        for j in 0..k {
            self.spmv(a, x.col(j), y.col_mut(j));
        }
    }

    /// Batched GEMV-Trans: for each column `c`, `h[c*ncols + i] =
    /// vs[c].col(i) . w.col(c)` over the first `ncols` basis columns.
    /// One basis multivector per right-hand side (`vs.len()` columns are
    /// processed; coefficients are packed contiguously with stride
    /// `ncols`).
    fn block_gemv_t(
        &self,
        vs: &[&MultiVector<S>],
        ncols: usize,
        w: &MultiVec<S>,
        h: &mut [S],
        order: ReductionOrder,
    ) {
        for (c, v) in vs.iter().enumerate() {
            self.gemv_t(
                v,
                ncols,
                w.col(c),
                &mut h[c * ncols..(c + 1) * ncols],
                order,
            );
        }
    }

    /// Batched GEMV-NoTrans: `w.col(c) -= vs[c][:, ..ncols] h_c`.
    fn block_gemv_n_sub(&self, vs: &[&MultiVector<S>], ncols: usize, h: &[S], w: &mut MultiVec<S>) {
        for (c, v) in vs.iter().enumerate() {
            self.gemv_n_sub(v, ncols, &h[c * ncols..(c + 1) * ncols], w.col_mut(c));
        }
    }

    /// Batched GEMV-NoTrans: `y.col(c) += vs[c][:, ..ncols] h_c`.
    fn block_gemv_n_add(&self, vs: &[&MultiVector<S>], ncols: usize, h: &[S], y: &mut MultiVec<S>) {
        for (c, v) in vs.iter().enumerate() {
            self.gemv_n_add(v, ncols, &h[c * ncols..(c + 1) * ncols], y.col_mut(c));
        }
    }

    /// Column-wise inner products `out[j] = x.col(j) . y.col(j)`.
    fn block_dot(
        &self,
        x: &MultiVec<S>,
        y: &MultiVec<S>,
        k: usize,
        out: &mut [S],
        order: ReductionOrder,
    ) {
        for j in 0..k {
            out[j] = self.dot(x.col(j), y.col(j), order);
        }
    }

    /// Column-wise Euclidean norms `out[j] = ||x.col(j)||`.
    fn block_norm2(&self, x: &MultiVec<S>, k: usize, out: &mut [S], order: ReductionOrder) {
        for j in 0..k {
            out[j] = self.norm2(x.col(j), order);
        }
    }

    /// Column-wise `y.col(j) += alpha[j] x.col(j)`.
    fn block_axpy(&self, alpha: &[S], x: &MultiVec<S>, k: usize, y: &mut MultiVec<S>) {
        for j in 0..k {
            self.axpy(alpha[j], x.col(j), y.col_mut(j));
        }
    }

    /// Column-wise `x.col(j) *= alpha[j]`.
    fn block_scal(&self, alpha: &[S], x: &mut MultiVec<S>, k: usize) {
        for j in 0..k {
            self.scal(alpha[j], x.col_mut(j));
        }
    }

    /// Column-wise copy of the leading `k` columns.
    fn block_copy(&self, src: &MultiVec<S>, k: usize, dst: &mut MultiVec<S>) {
        for j in 0..k {
            self.copy(src.col(j), dst.col_mut(j));
        }
    }

    // ----- low-precision storage-path kernels -------------------------
    //
    // SpMV/SpMM/residual over a [`MatrixStore`]: matrix values stream
    // in the store's precision, every arithmetic operation happens in
    // `S` after one exact widening per stored entry. Defaults run the
    // store's sequential kernels; the parallel overrides row-partition
    // the same shared per-row kernels, so every backend is bit-identical
    // on every storage path by construction (the same contract as the
    // plain matrix kernels).

    /// `y = M^{-1} x` for packed block-diagonal LU factors (block
    /// Jacobi's batched triangular solves).
    fn block_lu_solve(&self, f: &BlockLu<S>, x: &[S], y: &mut [S]) {
        f.solve(x, y);
    }

    /// `y = A x` over a low-precision matrix store.
    fn store_spmv(&self, a: &MatrixStore<S>, x: &[S], y: &mut [S]) {
        a.spmv(x, y);
    }

    /// `r = b - A x` (fused residual) over a matrix store.
    fn store_residual(&self, a: &MatrixStore<S>, b: &[S], x: &[S], r: &mut [S]) {
        a.residual(b, x, r);
    }

    /// SpMM `Y[:, ..k] = A X[:, ..k]` over a matrix store.
    fn store_spmm(&self, a: &MatrixStore<S>, x: &MultiVec<S>, k: usize, y: &mut MultiVec<S>) {
        a.spmm(x, k, y);
    }

    // ----- batched lane-set kernels -----------------------------------
    //
    // `BlockGmres` keeps one Krylov basis per right-hand side, so its
    // per-lane normalize/copy steps touch one standalone vector per
    // lane. These kernels fuse the whole lane set into a single call;
    // defaults loop the scalar kernels (exactly the sequence the driver
    // used to issue one lane at a time), so any fused override must be —
    // and the parallel one is — bit-identical per lane.

    /// Per-lane copy: `dsts[c] = srcs[c]`.
    fn lane_copy(&self, srcs: &[&[S]], dsts: &mut [&mut [S]]) {
        for (s, d) in srcs.iter().zip(dsts.iter_mut()) {
            self.copy(s, d);
        }
    }

    /// Per-lane normalize-and-store: `dsts[c] = alpha[c] * srcs[c]`
    /// (the fused copy-then-scal of a Krylov basis extension).
    fn lane_scal_copy(&self, alpha: &[S], srcs: &[&[S]], dsts: &mut [&mut [S]]) {
        for ((&a, s), d) in alpha.iter().zip(srcs).zip(dsts.iter_mut()) {
            self.copy(s, d);
            self.scal(a, d);
        }
    }

    // ----- compressed-basis storage-path kernels ----------------------
    //
    // GEMV/extension kernels over a [`BasisStore`]: basis columns
    // stream in the store's precision, every arithmetic operation
    // happens in `S` after one exact widening per stored element (the
    // basis-side twin of the `store_*` matrix kernels). The native arms
    // delegate to the plain kernels through `self`, so a backend that
    // overrides `gemv_t` (etc.) keeps its override on the native path
    // and native results are bit-identical to the pre-`BasisStore`
    // drivers; compressed arms run the store's shared kernels, which
    // the parallel overrides row/column-partition without reordering.

    /// GEMV-Trans over a basis store: `h[i] = widen(col_i) . w`.
    fn basis_gemv_t(
        &self,
        v: &BasisStore<S>,
        ncols: usize,
        w: &[S],
        h: &mut [S],
        order: ReductionOrder,
    ) {
        match v {
            BasisStore::Native(mv) => self.gemv_t(mv, ncols, w, h, order),
            _ => v.gemv_t(ncols, w, h, order),
        }
    }

    /// GEMV-NoTrans over a basis store: `w -= widen(V[:, ..ncols]) h`.
    fn basis_gemv_n_sub(&self, v: &BasisStore<S>, ncols: usize, h: &[S], w: &mut [S]) {
        match v {
            BasisStore::Native(mv) => self.gemv_n_sub(mv, ncols, h, w),
            _ => v.gemv_n_sub(ncols, h, w),
        }
    }

    /// GEMV-NoTrans over a basis store: `y += widen(V[:, ..ncols]) h`.
    fn basis_gemv_n_add(&self, v: &BasisStore<S>, ncols: usize, h: &[S], y: &mut [S]) {
        match v {
            BasisStore::Native(mv) => self.gemv_n_add(mv, ncols, h, y),
            _ => v.gemv_n_add(ncols, h, y),
        }
    }

    /// Basis extension `col_j = src` (append without scaling; demotes
    /// once per element on compressed paths).
    fn basis_append(&self, v: &mut BasisStore<S>, j: usize, src: &[S]) {
        match v {
            BasisStore::Native(mv) => self.copy(src, mv.col_mut(j)),
            _ => v.set_col(j, src),
        }
    }

    /// Fused basis extension `col_j = alpha * src`. The native arm is
    /// the exact copy-then-scal sequence the drivers issued before the
    /// refactor; compressed arms round the product once into storage.
    fn basis_scal_copy(&self, v: &mut BasisStore<S>, j: usize, alpha: S, src: &[S]) {
        match v {
            BasisStore::Native(mv) => {
                self.copy(src, mv.col_mut(j));
                self.scal(alpha, mv.col_mut(j));
            }
            _ => v.scal_copy_col(j, alpha, src),
        }
    }

    /// Promote basis column `j` into a working-precision buffer
    /// (native: plain copy).
    fn basis_promote_col(&self, v: &BasisStore<S>, j: usize, out: &mut [S]) {
        match v {
            BasisStore::Native(mv) => self.copy(mv.col(j), out),
            _ => v.promote_col(j, out),
        }
    }

    /// Batched GEMV-Trans over one basis store per right-hand side
    /// (coefficients packed with stride `ncols`, as [`Self::block_gemv_t`]).
    fn basis_block_gemv_t(
        &self,
        vs: &[&BasisStore<S>],
        ncols: usize,
        w: &MultiVec<S>,
        h: &mut [S],
        order: ReductionOrder,
    ) {
        for (c, v) in vs.iter().enumerate() {
            self.basis_gemv_t(
                v,
                ncols,
                w.col(c),
                &mut h[c * ncols..(c + 1) * ncols],
                order,
            );
        }
    }

    /// Batched GEMV-NoTrans: `w.col(c) -= widen(vs[c][:, ..ncols]) h_c`.
    fn basis_block_gemv_n_sub(
        &self,
        vs: &[&BasisStore<S>],
        ncols: usize,
        h: &[S],
        w: &mut MultiVec<S>,
    ) {
        for (c, v) in vs.iter().enumerate() {
            self.basis_gemv_n_sub(v, ncols, &h[c * ncols..(c + 1) * ncols], w.col_mut(c));
        }
    }

    /// Batched GEMV-NoTrans: `y.col(c) += widen(vs[c][:, ..ncols]) h_c`.
    fn basis_block_gemv_n_add(
        &self,
        vs: &[&BasisStore<S>],
        ncols: usize,
        h: &[S],
        y: &mut MultiVec<S>,
    ) {
        for (c, v) in vs.iter().enumerate() {
            self.basis_gemv_n_add(v, ncols, &h[c * ncols..(c + 1) * ncols], y.col_mut(c));
        }
    }

    /// Per-lane basis append: `vs[c].col(j) = srcs[c]`. An all-native
    /// lane set routes through the fused [`Self::lane_copy`] (exactly
    /// the pre-refactor execution, including parallel overrides).
    fn basis_lane_copy(&self, vs: &mut [&mut BasisStore<S>], j: usize, srcs: &[&[S]]) {
        if vs.iter().all(|v| v.is_native()) {
            let mut dsts: Vec<&mut [S]> = vs
                .iter_mut()
                .map(|v| v.as_native_mut().expect("checked native").col_mut(j))
                .collect();
            self.lane_copy(srcs, &mut dsts);
        } else {
            for (v, s) in vs.iter_mut().zip(srcs) {
                v.set_col(j, s);
            }
        }
    }

    /// Per-lane fused basis extension: `vs[c].col(j) = alpha[c] *
    /// srcs[c]`. All-native lane sets route through the fused
    /// [`Self::lane_scal_copy`]; compressed lanes round the product
    /// once into storage.
    fn basis_lane_scal_copy(
        &self,
        vs: &mut [&mut BasisStore<S>],
        j: usize,
        alpha: &[S],
        srcs: &[&[S]],
    ) {
        if vs.iter().all(|v| v.is_native()) {
            let mut dsts: Vec<&mut [S]> = vs
                .iter_mut()
                .map(|v| v.as_native_mut().expect("checked native").col_mut(j))
                .collect();
            self.lane_scal_copy(alpha, srcs, &mut dsts);
        } else {
            for ((v, &a), s) in vs.iter_mut().zip(alpha).zip(srcs) {
                v.scal_copy_col(j, a, s);
            }
        }
    }
}

/// A complete kernel backend: [`ScalarBackend`] for every working
/// precision the workspace supports, usable as a trait object.
pub trait Backend:
    ScalarBackend<f64> + ScalarBackend<f32> + ScalarBackend<Half> + fmt::Debug + Send + Sync
{
    /// Short name for reports and CLI selection.
    fn name(&self) -> &'static str;

    /// Worker count callers may use for their own independent-output
    /// loops: 1 for sequential backends, the thread count for parallel
    /// ones.
    fn parallelism(&self) -> usize {
        1
    }

    /// Kept only for the standalone `perfbench/` benchmark, whose
    /// tracing backend forwards it. Nothing calls it.
    fn shard_count(&self) -> usize {
        1
    }

    /// Kept only for the standalone `perfbench/` benchmark, whose
    /// tracing backend forwards it. Nothing calls it: every recorded op
    /// runs at its record call.
    fn execute_batch(&self, _batch: Batch<'_>) {}
}

/// Routes a generic `S: Scalar` call site to the matching
/// [`ScalarBackend`] view of a [`Backend`] trait object.
///
/// Implemented for every supported precision via trait upcasting; this
/// is what lets `mpgmres::Stream` keep fully generic kernel launches
/// while the context holds a single `Arc<dyn Backend>`.
pub trait BackendScalar: Scalar {
    /// The `ScalarBackend<Self>` view of `backend`.
    fn view(backend: &dyn Backend) -> &dyn ScalarBackend<Self>;
}

macro_rules! impl_backend_scalar {
    ($($t:ty),*) => {$(
        impl BackendScalar for $t {
            #[inline]
            fn view(backend: &dyn Backend) -> &dyn ScalarBackend<$t> {
                backend
            }
        }
    )*};
}
impl_backend_scalar!(f64, f32, Half);

/// The sequential, bit-deterministic backend: today's `mpgmres-la`
/// reference kernels, unchanged. This is the default and the ground
/// truth for every parity test.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReferenceBackend;

impl<S: Scalar> ScalarBackend<S> for ReferenceBackend {
    fn spmv(&self, a: &Csr<S>, x: &[S], y: &mut [S]) {
        a.spmv(x, y);
    }
    fn residual(&self, a: &Csr<S>, b: &[S], x: &[S], r: &mut [S]) {
        a.residual(b, x, r);
    }
    fn gemv_t(
        &self,
        v: &MultiVector<S>,
        ncols: usize,
        w: &[S],
        h: &mut [S],
        order: ReductionOrder,
    ) {
        v.gemv_t(ncols, w, h, order);
    }
    fn gemv_n_sub(&self, v: &MultiVector<S>, ncols: usize, h: &[S], w: &mut [S]) {
        v.gemv_n_sub(ncols, h, w);
    }
    fn gemv_n_add(&self, v: &MultiVector<S>, ncols: usize, h: &[S], y: &mut [S]) {
        v.gemv_n_add(ncols, h, y);
    }
    fn dot(&self, x: &[S], y: &[S], order: ReductionOrder) -> S {
        vec_ops::dot_ordered(x, y, order)
    }
    fn norm2(&self, x: &[S], order: ReductionOrder) -> S {
        vec_ops::norm2_ordered(x, order)
    }
    fn axpy(&self, alpha: S, x: &[S], y: &mut [S]) {
        vec_ops::axpy(alpha, x, y);
    }
    fn scal(&self, alpha: S, x: &mut [S]) {
        vec_ops::scale(alpha, x);
    }
    fn copy(&self, src: &[S], dst: &mut [S]) {
        vec_ops::copy(src, dst);
    }
}

impl Backend for ReferenceBackend {
    fn name(&self) -> &'static str {
        "reference"
    }
}

/// Row-partitioning policy for the matrix kernels (SpMV/SpMM/residual).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Equal row counts per worker (default; right for uniform stencils).
    #[default]
    EvenRows,
    /// Equal stored-nonzero counts per worker
    /// ([`mpgmres_la::par::nnz_partition`]) — the work-balancing split
    /// for skewed matrices (arrow heads, SuiteSparse surrogates).
    NnzBalanced,
}

/// Memoized row partitions, keyed by `(rows, workers, nnz-salt)`.
///
/// `ParallelBackend` used to recompute the contiguous row split inside
/// every kernel call; matrix dimensions are stable across the thousands
/// of SpMV/SpMM calls of a solve, so the split is computed once per
/// shape here and shared by all clones of the backend. The persistent
/// worker pool pins job `i` of a cached partition to worker
/// `i % threads`, so the same worker sees the same rows on every call.
/// Even splits are keyed by shape alone; nnz-balanced splits add the
/// matrix's nnz count to the key (two different matrices with identical
/// `(rows, nnz)` would share a split, which can only cost balance, never
/// correctness — partitioning only decides which worker computes which
/// rows).
#[derive(Debug, Default)]
struct PartitionCache {
    map: Mutex<HashMap<(usize, usize, u64), SharedPartition>>,
}

/// A cached `(start, end)` row split, shared across kernel calls.
type SharedPartition = Arc<Vec<(usize, usize)>>;

impl PartitionCache {
    fn get_with<F: FnOnce() -> Vec<(usize, usize)>>(
        &self,
        key: (usize, usize, u64),
        compute: F,
    ) -> SharedPartition {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(key)
            .or_insert_with(|| Arc::new(compute()))
            .clone()
    }

    /// Whether a split is cached under `key` (test observability for
    /// the inner-backend strategy plumbing).
    #[cfg(test)]
    fn contains(&self, key: (usize, usize, u64)) -> bool {
        self.map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(&key)
    }
}

/// The cached row partition for a matrix under the given strategy and
/// participant count.
fn strategy_parts<S: Scalar>(
    cache: &PartitionCache,
    strategy: PartitionStrategy,
    workers: usize,
    a: &Csr<S>,
) -> SharedPartition {
    match strategy {
        PartitionStrategy::EvenRows => cache.get_with((a.nrows(), workers, 0), || {
            par::row_partition(a.nrows(), workers)
        }),
        PartitionStrategy::NnzBalanced => cache
            .get_with((a.nrows(), workers, a.nnz() as u64), || {
                par::nnz_partition(a, workers)
            }),
    }
}

/// The cached row partition for a [`MatrixStore`]. Single-bucket stores
/// partition their one CSR under the configured strategy (nnz-balanced
/// included — the shadow shares the original's sparsity, so its nnz
/// profile is the same); a split store spans two CSR structures, so it
/// falls back to the even-rows split (keyed like any even split — a
/// plain matrix of the same shape shares it harmlessly).
fn store_strategy_parts<S: Scalar>(
    cache: &PartitionCache,
    strategy: PartitionStrategy,
    workers: usize,
    a: &MatrixStore<S>,
) -> SharedPartition {
    match a {
        MatrixStore::Plain(c) => strategy_parts(cache, strategy, workers, c),
        MatrixStore::ShadowF32(c) => strategy_parts(cache, strategy, workers, c),
        MatrixStore::ShadowF16(c) => strategy_parts(cache, strategy, workers, c),
        MatrixStore::Split(_) => cache.get_with((a.nrows(), workers, 0), || {
            par::row_partition(a.nrows(), workers)
        }),
    }
}

/// The std-thread parallel backend: row-partitioned SpMV/SpMM/residual,
/// GEMV-Trans split by reduction block (by column under a sequential
/// order), row-partitioned GEMV-NoTrans, group-partitioned block Jacobi
/// solves, and block-parallel tree reductions — all bit-identical to
/// [`ReferenceBackend`] (see the crate docs for the contract).
///
/// Kernels execute on a persistent pinned [`WorkerPool`] whose calling
/// thread takes the first share of every kernel (no per-call thread
/// spawn); row partitions are computed once per matrix shape — evenly
/// by rows or balanced by nonzeros, per [`PartitionStrategy`] — and
/// memoized in a shared cache whose ranges are pinned to pool
/// participants. Stream ops run one at a time, in record order, each
/// with the whole pool. Each kernel goes parallel only above its
/// `mpgmres_la::par` threshold.
#[derive(Clone, Debug)]
pub struct ParallelBackend {
    threads: usize,
    strategy: PartitionStrategy,
    partitions: Arc<PartitionCache>,
    pool: Arc<WorkerPool>,
}

impl ParallelBackend {
    /// Backend using [`mpgmres_la::par::default_threads`] participants.
    pub fn new() -> Self {
        Self::with_threads(par::default_threads())
    }

    /// Backend with an explicit participant count (clamped to >= 1): the
    /// calling thread plus `threads - 1` pool workers.
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        ParallelBackend {
            threads,
            strategy: PartitionStrategy::default(),
            partitions: Arc::new(PartitionCache::default()),
            pool: Arc::new(WorkerPool::new(threads)),
        }
    }

    /// Select the matrix partitioning strategy (builder style).
    pub fn with_strategy(mut self, strategy: PartitionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Configured participant count, the calling thread included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The partitioning strategy in use.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// The cached row partition for the matrix kernels: even rows or
    /// nnz-balanced per [`PartitionStrategy`], computed on first use per
    /// matrix shape and shared across clones.
    fn matrix_parts<S: Scalar>(&self, a: &Csr<S>) -> SharedPartition {
        strategy_parts(&self.partitions, self.strategy, self.threads, a)
    }
}

impl Default for ParallelBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Scalar> ScalarBackend<S> for ParallelBackend {
    fn spmv(&self, a: &Csr<S>, x: &[S], y: &mut [S]) {
        if a.nnz() < par::SPMV_PAR_THRESHOLD || self.threads <= 1 {
            a.spmv(x, y);
            return;
        }
        par::spmv_parts_on(&*self.pool, &self.matrix_parts(a), a, x, y);
    }
    fn residual(&self, a: &Csr<S>, b: &[S], x: &[S], r: &mut [S]) {
        if a.nnz() < par::SPMV_PAR_THRESHOLD || self.threads <= 1 {
            a.residual(b, x, r);
            return;
        }
        par::residual_parts_on(&*self.pool, &self.matrix_parts(a), a, b, x, r);
    }
    fn spmm(&self, a: &Csr<S>, x: &MultiVec<S>, k: usize, y: &mut MultiVec<S>) {
        // Fused: one pass over the matrix serves all k columns. Below
        // the parallel threshold the fused kernel still runs (single
        // part, no dispatch) — the matrix-read amortization is the point.
        if a.nnz() < par::SPMV_PAR_THRESHOLD || self.threads <= 1 {
            par::spmm_parts(&[(0, a.nrows())], a, x, k, y);
            return;
        }
        par::spmm_parts_on(&*self.pool, &self.matrix_parts(a), a, x, k, y);
    }
    fn gemv_t(
        &self,
        v: &MultiVector<S>,
        ncols: usize,
        w: &[S],
        h: &mut [S],
        order: ReductionOrder,
    ) {
        par::gemv_t_on(&*self.pool, v, ncols, w, h, order);
    }
    fn gemv_n_sub(&self, v: &MultiVector<S>, ncols: usize, h: &[S], w: &mut [S]) {
        par::gemv_n_sub_on(&*self.pool, v, ncols, h, w);
    }
    fn gemv_n_add(&self, v: &MultiVector<S>, ncols: usize, h: &[S], y: &mut [S]) {
        par::gemv_n_add_on(&*self.pool, v, ncols, h, y);
    }
    fn basis_gemv_t(
        &self,
        v: &BasisStore<S>,
        ncols: usize,
        w: &[S],
        h: &mut [S],
        order: ReductionOrder,
    ) {
        par::basis_gemv_t_on(&*self.pool, v, ncols, w, h, order);
    }
    fn basis_gemv_n_sub(&self, v: &BasisStore<S>, ncols: usize, h: &[S], w: &mut [S]) {
        par::basis_gemv_n_sub_on(&*self.pool, v, ncols, h, w);
    }
    fn basis_gemv_n_add(&self, v: &BasisStore<S>, ncols: usize, h: &[S], y: &mut [S]) {
        par::basis_gemv_n_add_on(&*self.pool, v, ncols, h, y);
    }
    fn dot(&self, x: &[S], y: &[S], order: ReductionOrder) -> S {
        par::dot_on(&*self.pool, x, y, order)
    }
    fn norm2(&self, x: &[S], order: ReductionOrder) -> S {
        par::norm2_on(&*self.pool, x, order)
    }
    fn axpy(&self, alpha: S, x: &[S], y: &mut [S]) {
        par::axpy_on(&*self.pool, alpha, x, y);
    }
    fn scal(&self, alpha: S, x: &mut [S]) {
        par::scal_on(&*self.pool, alpha, x);
    }
    fn copy(&self, src: &[S], dst: &mut [S]) {
        par::copy_on(&*self.pool, src, dst);
    }
    fn lane_copy(&self, srcs: &[&[S]], dsts: &mut [&mut [S]]) {
        par::lane_copy_on(&*self.pool, srcs, dsts);
    }
    fn lane_scal_copy(&self, alpha: &[S], srcs: &[&[S]], dsts: &mut [&mut [S]]) {
        par::lane_scal_copy_on(&*self.pool, alpha, srcs, dsts);
    }
    fn block_lu_solve(&self, f: &BlockLu<S>, x: &[S], y: &mut [S]) {
        par::block_lu_solve_on(&*self.pool, f, x, y);
    }
    fn store_spmv(&self, a: &MatrixStore<S>, x: &[S], y: &mut [S]) {
        if a.nnz() < par::SPMV_PAR_THRESHOLD || self.threads <= 1 {
            a.spmv(x, y);
            return;
        }
        let parts = store_strategy_parts(&self.partitions, self.strategy, self.threads, a);
        par::store_spmv_parts_on(&*self.pool, &parts, a, x, y);
    }
    fn store_residual(&self, a: &MatrixStore<S>, b: &[S], x: &[S], r: &mut [S]) {
        if a.nnz() < par::SPMV_PAR_THRESHOLD || self.threads <= 1 {
            a.residual(b, x, r);
            return;
        }
        let parts = store_strategy_parts(&self.partitions, self.strategy, self.threads, a);
        par::store_residual_parts_on(&*self.pool, &parts, a, b, x, r);
    }
    fn store_spmm(&self, a: &MatrixStore<S>, x: &MultiVec<S>, k: usize, y: &mut MultiVec<S>) {
        if a.nnz() < par::SPMV_PAR_THRESHOLD || self.threads <= 1 {
            a.spmm(x, k, y);
            return;
        }
        let parts = store_strategy_parts(&self.partitions, self.strategy, self.threads, a);
        par::store_spmm_parts_on(&*self.pool, &parts, a, x, k, y);
    }
}

impl Backend for ParallelBackend {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn parallelism(&self) -> usize {
        self.threads
    }
}

/// CLI-friendly backend selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Sequential reference kernels (default).
    #[default]
    Reference,
    /// Std-thread parallel kernels (even row split).
    Parallel,
    /// Std-thread parallel kernels with nnz-balanced matrix partitions
    /// (for skewed matrices).
    ParallelNnz,
}

impl BackendKind {
    /// All selectable kinds.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Reference,
        BackendKind::Parallel,
        BackendKind::ParallelNnz,
    ];

    /// Instantiate the backend.
    pub fn create(self) -> Arc<dyn Backend> {
        match self {
            BackendKind::Reference => Arc::new(ReferenceBackend),
            BackendKind::Parallel => Arc::new(ParallelBackend::new()),
            BackendKind::ParallelNnz => {
                Arc::new(ParallelBackend::new().with_strategy(PartitionStrategy::NnzBalanced))
            }
        }
    }

    /// The selector's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Reference => "reference",
            BackendKind::Parallel => "parallel",
            BackendKind::ParallelNnz => "parallel-nnz",
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reference" | "ref" | "seq" | "sequential" => Ok(BackendKind::Reference),
            "parallel" | "par" | "threads" => Ok(BackendKind::Parallel),
            "parallel-nnz" | "nnz" => Ok(BackendKind::ParallelNnz),
            other => Err(format!(
                "unknown backend `{other}` (expected reference|parallel|parallel-nnz)"
            )),
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upcast_dispatch_reaches_every_precision() {
        let b: Arc<dyn Backend> = Arc::new(ReferenceBackend);
        let x64 = [3.0f64, 4.0];
        assert_eq!(
            <f64 as BackendScalar>::view(&*b).norm2(&x64, ReductionOrder::Sequential),
            5.0
        );
        let x32 = [3.0f32, 4.0];
        assert_eq!(
            <f32 as BackendScalar>::view(&*b).norm2(&x32, ReductionOrder::Sequential),
            5.0
        );
        let xh = [Half::from_f32(3.0), Half::from_f32(4.0)];
        let nh: Half = <Half as BackendScalar>::view(&*b).norm2(&xh, ReductionOrder::Sequential);
        assert_eq!(nh.to_f32(), 5.0);
    }

    #[test]
    fn backend_kind_parses_and_creates() {
        assert_eq!(
            "parallel".parse::<BackendKind>().unwrap(),
            BackendKind::Parallel
        );
        assert_eq!(
            "ref".parse::<BackendKind>().unwrap(),
            BackendKind::Reference
        );
        assert!("cuda".parse::<BackendKind>().is_err());
        for retired in ["sharded", "sharded:2", "shard:4"] {
            let err = retired.parse::<BackendKind>().unwrap_err();
            assert_eq!(
                err,
                format!("unknown backend `{retired}` (expected reference|parallel|parallel-nnz)")
            );
        }
        assert_eq!(BackendKind::Reference.create().name(), "reference");
        assert_eq!(BackendKind::Parallel.create().name(), "parallel");
        assert_eq!(BackendKind::default(), BackendKind::Reference);
    }

    #[test]
    fn parallel_backend_thread_config() {
        assert_eq!(ParallelBackend::with_threads(0).threads(), 1);
        assert!(ParallelBackend::new().threads() >= 1);
    }

    #[test]
    fn generic_call_site_compiles_through_backend_scalar() {
        fn norm_via<S: BackendScalar>(b: &dyn Backend, x: &[S]) -> S {
            S::view(b).norm2(x, ReductionOrder::Sequential)
        }
        let b = BackendKind::Parallel.create();
        assert_eq!(norm_via(&*b, &[3.0f64, 4.0]), 5.0);
    }

    /// Arrow matrix (dense first row + column over a diagonal): the
    /// skew that makes even row splits pathological.
    fn arrow_matrix(n: usize) -> Csr<f64> {
        let mut coo = mpgmres_la::coo::Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i > 0 {
                coo.push(0, i, 1.0);
                coo.push(i, 0, 1.0);
            }
        }
        coo.into_csr()
    }

    /// An [`arrow_matrix`] (3 entries per row but the first) sized just
    /// above `SPMV_PAR_THRESHOLD`, so its SpMVs take the partitioned
    /// path.
    fn par_arrow() -> Csr<f64> {
        let a = arrow_matrix(par::SPMV_PAR_THRESHOLD / 3 + 1_000);
        assert!(a.nnz() >= par::SPMV_PAR_THRESHOLD, "{} nnz", a.nnz());
        a
    }

    fn worker_nnz(a: &Csr<f64>, parts: &[(usize, usize)]) -> Vec<usize> {
        parts
            .iter()
            .map(|&(lo, hi)| a.row_ptr()[hi] - a.row_ptr()[lo])
            .collect()
    }

    /// Under `NnzBalanced` the parallel backend's matrix kernels run on
    /// the nnz-balanced split, cached at the pool's width, instead of
    /// an even one.
    #[test]
    fn parallel_backend_uses_the_nnz_strategy() {
        let a = par_arrow();
        let backend =
            ParallelBackend::with_threads(2).with_strategy(PartitionStrategy::NnzBalanced);
        let parts = backend.matrix_parts(&a);
        assert_eq!(&*parts, &par::nnz_partition(&a, 2));
        assert_ne!(&*parts, &par::row_partition(a.nrows(), 2));
        // Balanced: no participant holds more than ~1.1x the mean nnz;
        // the even split leaves the arrow head's with ~1.33x.
        let mean = a.nnz() as f64 / 2.0;
        let max_nnz = *worker_nnz(&a, &parts).iter().max().unwrap() as f64;
        assert!(
            max_nnz < 1.1 * mean,
            "nnz split unbalanced: {max_nnz} vs mean {mean}"
        );
        let even_max = *worker_nnz(&a, &par::row_partition(a.nrows(), 2))
            .iter()
            .max()
            .unwrap() as f64;
        assert!(
            even_max > 1.25 * mean,
            "arrow not skewed enough: {even_max}"
        );
    }

    /// Two SpMVs on a skewed matrix under `parallel-nnz` must produce
    /// reference-identical results AND leave the nnz-balanced split (at
    /// the pool's full width) in the shared partition cache — proof the
    /// kernels did not silently fall back to even rows.
    #[test]
    fn spmv_uses_nnz_partitions_at_full_width() {
        let a = par_arrow();
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 / 7.0).collect();
        let mut y1 = vec![0.0f64; n];
        let mut y2 = vec![0.0f64; n];
        let backend =
            ParallelBackend::with_threads(4).with_strategy(PartitionStrategy::NnzBalanced);
        ScalarBackend::<f64>::spmv(&backend, &a, &x, &mut y1);
        ScalarBackend::<f64>::spmv(&backend, &a, &x, &mut y2);

        let mut want = vec![0.0f64; n];
        a.spmv(&x, &mut want);
        assert_eq!(y1, want);
        assert_eq!(y2, want);
        // Each call runs on the whole 4-participant pool; the nnz-salted
        // split must have been cached at that width, and no even split
        // beside it.
        assert!(
            backend.partitions.contains((n, 4, a.nnz() as u64)),
            "spmv did not use the nnz-balanced partition"
        );
        assert!(
            !backend.partitions.contains((n, 4, 0)),
            "spmv recomputed an even split"
        );
    }
}
