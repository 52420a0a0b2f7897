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
//!    └── ParallelBackend    size threshold per kernel shape: below it the
//!         sequential kernel, from it on the pooled one
//!         (mpgmres_la::par) on a persistent pinned worker pool joined
//!         by the calling thread; matrix rows cut at nnz quantiles per
//!         call, fused SpMM
//! ```
//!
//! [`ParallelBackend`] holds every size threshold (see its docs for
//! where they sit): `mpgmres_la::par` has one pooled kernel per shape,
//! generic over how the operand is stored, and none of them checks a
//! size.
//!
//! Every kernel runs through a *stream* (`GpuContext::stream`), which
//! registers buffers as handles that carry their own pointers and runs
//! each op at its record call, in record order. A recording
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
use std::sync::Arc;

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

    /// `y = M^{-1} x` for packed block-diagonal LU factors (block
    /// Jacobi's batched triangular solves).
    fn block_lu_solve(&self, f: &BlockLu<S>, x: &[S], y: &mut [S]) {
        f.solve(x, y);
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

/// The std-thread parallel backend: SpMV/SpMM/residual with rows cut at
/// nnz quantiles, GEMV-Trans split by reduction block (by column under a
/// sequential order), row-partitioned GEMV-NoTrans, group-partitioned
/// block Jacobi solves, and block-parallel tree reductions — all
/// bit-identical to [`ReferenceBackend`] (see the crate docs for the
/// contract).
///
/// Kernels execute on a persistent pinned [`WorkerPool`] whose calling
/// thread takes the first share of every kernel (no per-call thread
/// spawn), through the pooled kernels of `mpgmres_la::par`, one per
/// shape whatever the operand's storage. The matrix kernels (plain and
/// store) cut their rows where the matrix's nonzero prefix crosses each
/// participant's equal share, recomputed on every call (a binary search
/// over the row pointers per participant), so a skewed matrix spreads
/// evenly. Stream ops run one at a time, in record order, each with the
/// whole pool.
///
/// # Where the thresholds sit
///
/// This backend alone decides when a kernel goes to the pool: from its
/// shape's size threshold on, with two or more participants. Below it,
/// or with one participant, it runs the sequential kernel on the
/// calling thread (for SpMM the fused serial kernel, for the lane
/// kernels the fused serial lane loops), so small problems never pay
/// dispatch overhead.
///
/// An empty two-job run on the pool costs about a microsecond while the
/// worker is still spinning from the previous kernel (see
/// `mpgmres_la::pool`), so a kernel goes parallel once half of it is
/// worth more than that. The `spmv_crossover` group of
/// `crates/bench/benches/backends.rs` times each kernel serially and on
/// the pool (the `mpgmres_la::par` kernels, which never check a size)
/// on laplace2d grids from 16² to 128², and prints serial over pooled
/// time per size. Three runs on a 2-vCPU x86-64 host (4 MiB L2 per
/// core, noisy shared host) read:
///
/// - SpMV paid from about 7.8k nonzeros (1.2–1.6x there; mixed from
///   2.8k to 5k), so `SPMV_PAR_THRESHOLD` sits at 2^13 nonzeros, for
///   the plain and store SpMV, SpMM and residual alike;
/// - a 10-column GEMV-T paid from about 1.6k rows (1.03–1.14x there,
///   1.1–1.7x from 6k) and the block Jacobi apply from about 1.6k rows
///   (1.2x, up to 2.1x at 16k), so `GEMV_PAR_THRESHOLD` and
///   `BLOCK_LU_PAR_THRESHOLD` sit at 2^11 rows. GEMV-N shares the GEMV
///   constant although it paid only from about 4k rows (0.6–0.8x at
///   2.3k): neither gated workload has n between 2^11 and 2^12;
/// - the norm paid only from about 9k–16k rows (at most 1.35x) and axpy
///   never did (at most 0.45x), so the level-1 kernels (dot, norm, axpy,
///   scal, copy) and the lane kernels keep `vec_ops::PAR_THRESHOLD`
///   (2^14 elements per vector).
///
/// These are constants, not tuned knobs: which path runs must not
/// depend on the machine's load, or traced counts would stop
/// reproducing. Compare Ioannidis et al. (arXiv:1906.04051): below cache
/// size, dispatch and synchronisation decide whether a parallel GMRES
/// kernel pays, which is why the pool's dispatch cost sets the bar.
#[derive(Clone, Debug)]
pub struct ParallelBackend {
    pool: Arc<WorkerPool>,
}

/// The kernel shapes [`ParallelBackend`] decides on, each with the size
/// it measures and the threshold it compares that size against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// SpMV, residual and SpMM, plain and store: stored nonzeros.
    Matrix,
    /// GEMV-T and GEMV-N, plain and basis: rows.
    Gemv,
    /// The block Jacobi apply: rows.
    BlockLu,
    /// dot, norm, axpy, scal, copy and the lane kernels: elements per
    /// vector.
    Level1,
}

impl Shape {
    /// The size from which a kernel of this shape goes to the pool.
    fn threshold(self) -> usize {
        match self {
            Shape::Matrix => par::SPMV_PAR_THRESHOLD,
            Shape::Gemv => par::GEMV_PAR_THRESHOLD,
            Shape::BlockLu => par::BLOCK_LU_PAR_THRESHOLD,
            Shape::Level1 => vec_ops::PAR_THRESHOLD,
        }
    }
}

impl ParallelBackend {
    /// Backend using [`mpgmres_la::par::default_threads`] participants.
    pub fn new() -> Self {
        Self::with_threads(par::default_threads())
    }

    /// Backend with an explicit participant count (clamped to >= 1): the
    /// calling thread plus `threads - 1` pool workers.
    pub fn with_threads(threads: usize) -> Self {
        ParallelBackend {
            pool: Arc::new(WorkerPool::new(threads)),
        }
    }

    /// Configured participant count, the calling thread included.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The pool, when a `shape` kernel of `size` goes parallel: from the
    /// shape's threshold on, with two or more participants. `None` means
    /// the sequential kernel runs on the calling thread.
    fn pool_for(&self, shape: Shape, size: usize) -> Option<&WorkerPool> {
        (size >= shape.threshold() && self.threads() > 1).then_some(&*self.pool)
    }
}

impl Default for ParallelBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Scalar> ScalarBackend<S> for ParallelBackend {
    fn spmv(&self, a: &Csr<S>, x: &[S], y: &mut [S]) {
        match self.pool_for(Shape::Matrix, a.nnz()) {
            Some(pool) => par::spmv_parts_on(pool, a, x, y),
            None => a.spmv(x, y),
        }
    }
    fn residual(&self, a: &Csr<S>, b: &[S], x: &[S], r: &mut [S]) {
        match self.pool_for(Shape::Matrix, a.nnz()) {
            Some(pool) => par::residual_parts_on(pool, a, b, x, r),
            None => a.residual(b, x, r),
        }
    }
    fn spmm(&self, a: &Csr<S>, x: &MultiVec<S>, k: usize, y: &mut MultiVec<S>) {
        // Fused: one pass over the matrix serves all k columns, on the
        // calling thread below the threshold too — the matrix-read
        // amortization is the point.
        match self.pool_for(Shape::Matrix, a.nnz()) {
            Some(pool) => par::spmm_parts_on(pool, a, x, k, y),
            None => par::spmm_parts(&[(0, a.nrows())], a, x, k, y),
        }
    }
    fn gemv_t(
        &self,
        v: &MultiVector<S>,
        ncols: usize,
        w: &[S],
        h: &mut [S],
        order: ReductionOrder,
    ) {
        match self.pool_for(Shape::Gemv, v.n()) {
            Some(pool) => par::gemv_t_on(pool, v, ncols, w, h, order),
            None => v.gemv_t(ncols, w, h, order),
        }
    }
    fn gemv_n_sub(&self, v: &MultiVector<S>, ncols: usize, h: &[S], w: &mut [S]) {
        match self.pool_for(Shape::Gemv, v.n()) {
            Some(pool) => par::gemv_n_on(pool, v, ncols, h, w, false),
            None => v.gemv_n_sub(ncols, h, w),
        }
    }
    fn gemv_n_add(&self, v: &MultiVector<S>, ncols: usize, h: &[S], y: &mut [S]) {
        match self.pool_for(Shape::Gemv, v.n()) {
            Some(pool) => par::gemv_n_on(pool, v, ncols, h, y, true),
            None => v.gemv_n_add(ncols, h, y),
        }
    }
    fn basis_gemv_t(
        &self,
        v: &BasisStore<S>,
        ncols: usize,
        w: &[S],
        h: &mut [S],
        order: ReductionOrder,
    ) {
        match self.pool_for(Shape::Gemv, v.n()) {
            Some(pool) => par::gemv_t_on(pool, v, ncols, w, h, order),
            None => v.gemv_t(ncols, w, h, order),
        }
    }
    fn basis_gemv_n_sub(&self, v: &BasisStore<S>, ncols: usize, h: &[S], w: &mut [S]) {
        match self.pool_for(Shape::Gemv, v.n()) {
            Some(pool) => par::gemv_n_on(pool, v, ncols, h, w, false),
            None => v.gemv_n_sub(ncols, h, w),
        }
    }
    fn basis_gemv_n_add(&self, v: &BasisStore<S>, ncols: usize, h: &[S], y: &mut [S]) {
        match self.pool_for(Shape::Gemv, v.n()) {
            Some(pool) => par::gemv_n_on(pool, v, ncols, h, y, true),
            None => v.gemv_n_add(ncols, h, y),
        }
    }
    fn dot(&self, x: &[S], y: &[S], order: ReductionOrder) -> S {
        match self.pool_for(Shape::Level1, x.len()) {
            Some(pool) => par::dot_on(pool, x, y, order),
            None => vec_ops::dot_ordered(x, y, order),
        }
    }
    fn norm2(&self, x: &[S], order: ReductionOrder) -> S {
        match self.pool_for(Shape::Level1, x.len()) {
            Some(pool) => par::dot_on(pool, x, x, order).sqrt(),
            None => vec_ops::norm2_ordered(x, order),
        }
    }
    fn axpy(&self, alpha: S, x: &[S], y: &mut [S]) {
        match self.pool_for(Shape::Level1, x.len()) {
            Some(pool) => par::axpy_on(pool, alpha, x, y),
            None => vec_ops::axpy(alpha, x, y),
        }
    }
    fn scal(&self, alpha: S, x: &mut [S]) {
        match self.pool_for(Shape::Level1, x.len()) {
            Some(pool) => par::scal_on(pool, alpha, x),
            None => vec_ops::scale(alpha, x),
        }
    }
    fn copy(&self, src: &[S], dst: &mut [S]) {
        match self.pool_for(Shape::Level1, src.len()) {
            Some(pool) => par::copy_on(pool, src, dst),
            None => vec_ops::copy(src, dst),
        }
    }
    fn lane_copy(&self, srcs: &[&[S]], dsts: &mut [&mut [S]]) {
        match self.pool_for(Shape::Level1, srcs.first().map_or(0, |s| s.len())) {
            Some(pool) => par::lane_copy_on(pool, srcs, dsts),
            None => vec_ops::lane_copy(srcs, dsts),
        }
    }
    fn lane_scal_copy(&self, alpha: &[S], srcs: &[&[S]], dsts: &mut [&mut [S]]) {
        match self.pool_for(Shape::Level1, srcs.first().map_or(0, |s| s.len())) {
            Some(pool) => par::lane_scal_copy_on(pool, alpha, srcs, dsts),
            None => vec_ops::lane_scal_copy(alpha, srcs, dsts),
        }
    }
    fn block_lu_solve(&self, f: &BlockLu<S>, x: &[S], y: &mut [S]) {
        match self.pool_for(Shape::BlockLu, f.n()) {
            Some(pool) => par::block_lu_solve_on(pool, f, x, y),
            None => f.solve(x, y),
        }
    }
    fn store_spmv(&self, a: &MatrixStore<S>, x: &[S], y: &mut [S]) {
        match self.pool_for(Shape::Matrix, a.nnz()) {
            Some(pool) => par::spmv_parts_on(pool, a, x, y),
            None => a.spmv(x, y),
        }
    }
    fn store_residual(&self, a: &MatrixStore<S>, b: &[S], x: &[S], r: &mut [S]) {
        match self.pool_for(Shape::Matrix, a.nnz()) {
            Some(pool) => par::residual_parts_on(pool, a, b, x, r),
            None => a.residual(b, x, r),
        }
    }
    fn store_spmm(&self, a: &MatrixStore<S>, x: &MultiVec<S>, k: usize, y: &mut MultiVec<S>) {
        match self.pool_for(Shape::Matrix, a.nnz()) {
            Some(pool) => par::spmm_parts_on(pool, a, x, k, y),
            None => a.spmm(x, k, y),
        }
    }
}

impl Backend for ParallelBackend {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn parallelism(&self) -> usize {
        self.threads()
    }
}

/// CLI-friendly backend selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Sequential reference kernels (default).
    #[default]
    Reference,
    /// Std-thread parallel kernels on a worker pool.
    Parallel,
}

impl BackendKind {
    /// All selectable kinds.
    pub const ALL: [BackendKind; 2] = [BackendKind::Reference, BackendKind::Parallel];

    /// Instantiate the backend.
    pub fn create(self) -> Arc<dyn Backend> {
        match self {
            BackendKind::Reference => Arc::new(ReferenceBackend),
            BackendKind::Parallel => Arc::new(ParallelBackend::new()),
        }
    }

    /// The selector's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Reference => "reference",
            BackendKind::Parallel => "parallel",
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reference" | "ref" | "seq" | "sequential" => Ok(BackendKind::Reference),
            "parallel" | "par" | "threads" => Ok(BackendKind::Parallel),
            other => Err(format!(
                "unknown backend `{other}` (expected reference|parallel)"
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
        for retired in ["sharded", "sharded:2", "shard:4", "nnz"] {
            let err = retired.parse::<BackendKind>().unwrap_err();
            assert_eq!(
                err,
                format!("unknown backend `{retired}` (expected reference|parallel)")
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

    /// Every shape pools from its own constant on, with two
    /// participants, and never with one.
    #[test]
    fn each_shape_pools_from_its_threshold() {
        let (one, two) = (
            ParallelBackend::with_threads(1),
            ParallelBackend::with_threads(2),
        );
        for (shape, t) in [
            (Shape::Matrix, par::SPMV_PAR_THRESHOLD),
            (Shape::Gemv, par::GEMV_PAR_THRESHOLD),
            (Shape::BlockLu, par::BLOCK_LU_PAR_THRESHOLD),
            (Shape::Level1, vec_ops::PAR_THRESHOLD),
        ] {
            assert!(two.pool_for(shape, t - 1).is_none(), "{shape:?} at T-1");
            assert!(two.pool_for(shape, t).is_some(), "{shape:?} at T");
            for size in [0, 1, t - 1, t, 4 * t] {
                assert!(
                    one.pool_for(shape, size).is_none(),
                    "{shape:?} {size} on one"
                );
            }
        }
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

    /// The bit patterns of `v`, so a mismatch reports the element.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A matrix with exactly `nnz` stored entries over `nnz / 2` rows:
    /// row `r` holds columns `r`, `r + 1` and `r + 2` (mod the size),
    /// row after row until `nnz` entries are placed.
    fn matrix_with_nnz(nnz: usize) -> Csr<f64> {
        let n = nnz / 2;
        let mut coo = mpgmres_la::coo::Coo::new(n, n);
        for i in 0..nnz {
            let (r, d) = (i / 3, i % 3);
            coo.push(r, (r + d) % n, 1.0 + pseudo(1, i as u64)[0]);
        }
        let a = coo.into_csr();
        assert_eq!(a.nnz(), nnz);
        a
    }

    /// On both sides of each threshold (T - 1 and T) the parallel
    /// backend, serial below and pooled from T on, matches the
    /// reference bit for bit in every kernel of that shape.
    #[test]
    fn kernels_match_reference_on_both_sides_of_each_threshold() {
        let (r, p) = (ReferenceBackend, ParallelBackend::with_threads(2));
        let order = ReductionOrder::GPU_LIKE;
        for nnz in [par::SPMV_PAR_THRESHOLD - 1, par::SPMV_PAR_THRESHOLD] {
            let a = matrix_with_nnz(nnz);
            let n = a.nrows();
            let (x, b) = (pseudo(n, 1), pseudo(n, 2));
            let run = |be: &dyn ScalarBackend<f64>, store: Option<&MatrixStore<f64>>| {
                let (mut y, mut res) = (vec![0.0; n], vec![0.0; n]);
                let xs = MultiVec::from_columns(&[&x, &b, &x]);
                let mut ys = MultiVec::zeros(n, 3);
                match store {
                    None => {
                        be.spmv(&a, &x, &mut y);
                        be.residual(&a, &b, &x, &mut res);
                        be.spmm(&a, &xs, 3, &mut ys);
                    }
                    Some(s) => {
                        be.store_spmv(s, &x, &mut y);
                        be.store_residual(s, &b, &x, &mut res);
                        be.store_spmm(s, &xs, 3, &mut ys);
                    }
                }
                [y, res, ys.data().to_vec()].map(|v| bits(&v))
            };
            assert_eq!(run(&r, None), run(&p, None), "csr nnz {nnz}");
            let store = MatrixStore::shadow(&a, mpgmres_scalar::Precision::Fp32);
            let got = (run(&r, Some(&store)), run(&p, Some(&store)));
            assert_eq!(got.0, got.1, "fp32 store nnz {nnz}");
        }
        for n in [par::GEMV_PAR_THRESHOLD - 1, par::GEMV_PAR_THRESHOLD] {
            let cols = 5;
            let mut v = MultiVector::<f64>::zeros(n, cols);
            for j in 0..cols {
                v.col_mut(j).copy_from_slice(&pseudo(n, 10 + j as u64));
            }
            let mut half = BasisStore::compressed(n, cols, mpgmres_scalar::Precision::Fp16);
            for j in 0..cols {
                half.set_col(j, v.col(j));
            }
            let (w, h) = (pseudo(n, 3), pseudo(cols, 4));
            let run = |be: &dyn ScalarBackend<f64>, order: ReductionOrder| {
                let (mut ht, mut wn) = (vec![0.0; cols], w.clone());
                be.gemv_t(&v, cols, &w, &mut ht, order);
                be.gemv_n_sub(&v, cols, &h, &mut wn);
                be.gemv_n_add(&v, cols, &ht, &mut wn);
                let (mut bt, mut bn) = (vec![0.0; cols], w.clone());
                be.basis_gemv_t(&half, cols, &w, &mut bt, order);
                be.basis_gemv_n_sub(&half, cols, &h, &mut bn);
                be.basis_gemv_n_add(&half, cols, &bt, &mut bn);
                [ht, wn, bt, bn].map(|v| bits(&v))
            };
            for order in [ReductionOrder::Sequential, order] {
                assert_eq!(run(&r, order), run(&p, order), "gemv n {n} {order:?}");
            }
        }
        for n in [par::BLOCK_LU_PAR_THRESHOLD - 1, par::BLOCK_LU_PAR_THRESHOLD] {
            let a = matrix_with_nnz(2 * n);
            let lu = BlockLu::factor(n, 16, 1, |s, m| {
                let mut d = mpgmres_la::dense::DenseMat::from_col_major(m, m, a.diag_block(s, m));
                for i in 0..m {
                    d[(i, i)] += 4.0;
                }
                d
            });
            let x = pseudo(n, 5);
            let run = |be: &dyn ScalarBackend<f64>| {
                let mut y = vec![0.0; n];
                be.block_lu_solve(&lu, &x, &mut y);
                bits(&y)
            };
            assert_eq!(run(&r), run(&p), "block_lu_solve n {n}");
        }
        for n in [vec_ops::PAR_THRESHOLD - 1, vec_ops::PAR_THRESHOLD] {
            let (x, y0) = (pseudo(n, 6), pseudo(n, 7));
            let run = |be: &dyn ScalarBackend<f64>| {
                let d = be.dot(&x, &y0, order);
                let nrm = be.norm2(&x, order);
                let mut y = y0.clone();
                be.axpy(0.5, &x, &mut y);
                be.scal(-1.25, &mut y);
                let mut c = vec![0.0; n];
                be.copy(&y, &mut c);
                let (mut c0, mut c1) = (vec![0.0; n], vec![0.0; n]);
                be.lane_copy(&[&x, &y0], &mut [&mut c0[..], &mut c1[..]]);
                let (mut s0, mut s1) = (vec![0.0; n], vec![0.0; n]);
                let alpha = [0.75, -2.0];
                be.lane_scal_copy(&alpha, &[&y, &c], &mut [&mut s0[..], &mut s1[..]]);
                [vec![d, nrm], y, c, c0, c1, s0, s1].map(|v| bits(&v))
            };
            assert_eq!(run(&r), run(&p), "level-1 n {n}");
        }
    }

    #[test]
    fn generic_call_site_compiles_through_backend_scalar() {
        fn norm_via<S: BackendScalar>(b: &dyn Backend, x: &[S]) -> S {
            S::view(b).norm2(x, ReductionOrder::Sequential)
        }
        let b = BackendKind::Parallel.create();
        assert_eq!(norm_via(&*b, &[3.0f64, 4.0]), 5.0);
    }
}
