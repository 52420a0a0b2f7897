//! The instrumented execution context: pluggable kernels + simulated time.
//!
//! [`GpuContext`] is the workspace's Belos/Kokkos-Kernels layer, reduced
//! to an instrumentation shim over the backend abstraction: every linear
//! algebra operation a solver performs goes through it, the *cost* is
//! charged to a [`mpgmres_gpusim::Profiler`] using the V100 device
//! model, and the *computation* is delegated to an
//! [`mpgmres_backend::Backend`] trait object (sequential reference or
//! std-thread parallel; future GPU/batched backends slot in the same
//! way). Charging depends only on operand shapes and the device model,
//! so the simulated V100 timing of a solve is identical for every
//! backend; and because the backends are bit-compatible (see
//! `mpgmres-backend`'s determinism contract), so is the convergence
//! behaviour.

use std::sync::Arc;

use mpgmres_backend::stream::{BoundOp, OpGraph};
use mpgmres_backend::{contracts, Backend, BackendKind, BackendScalar};
use mpgmres_gpusim::{analytic, cost, DeviceModel, KernelClass, Profiler, TimingReport};
use mpgmres_la::basis::BasisStore;
use mpgmres_la::csr::Csr;
use mpgmres_la::multivec::MultiVec;
use mpgmres_la::multivector::MultiVector;
use mpgmres_la::raw::BufferArena;
use mpgmres_la::shard::{ShardPlan, ShardPlanCache};

/// Which matrix-op shape a sharded compute piece prices as (see
/// [`GpuContext::sharded_piece_spec`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ShardedMatOp {
    Spmv,
    Residual,
    Spmm,
}
use mpgmres_la::stats::MatrixStats;
use mpgmres_la::store::MatrixStore;
use mpgmres_la::vec_ops::ReductionOrder;
use mpgmres_scalar::{Precision, PrecisionTag, Scalar};

use crate::stream::{RegionKey, StreamStats};

/// A sparse matrix prepared for the simulated device: the CSR data plus
/// the structural statistics the cost model needs (bandwidth drives the
/// §V-D x-reuse rule).
#[derive(Clone, Debug)]
pub struct GpuMatrix<S> {
    csr: Csr<S>,
    stats: MatrixStats,
}

impl<S: Scalar> GpuMatrix<S> {
    /// Wrap a CSR matrix, computing its structural statistics once.
    pub fn new(csr: Csr<S>) -> Self {
        let stats = MatrixStats::of(&csr);
        GpuMatrix { csr, stats }
    }

    /// Dimension (square systems).
    pub fn n(&self) -> usize {
        self.csr.nrows()
    }

    /// Stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.csr.nnz()
    }

    /// Structural bandwidth in rows.
    pub fn bandwidth(&self) -> usize {
        self.stats.bandwidth
    }

    /// The underlying CSR matrix.
    pub fn csr(&self) -> &Csr<S> {
        &self.csr
    }

    /// Structural statistics.
    pub fn stats(&self) -> &MatrixStats {
        &self.stats
    }

    /// Precision-converted copy (the fp32 matrix GMRES-IR keeps alongside
    /// the fp64 one, §III-B). Not charged to the profiler: the paper's
    /// solve times exclude this one-time copy.
    pub fn convert<T: Scalar>(&self) -> GpuMatrix<T> {
        GpuMatrix {
            csr: self.csr.convert::<T>(),
            stats: self.stats,
        }
    }
}

/// A matrix in a (possibly low-precision) storage path, prepared for
/// the simulated device: the [`MatrixStore`] values plus the structural
/// statistics of the operator. The structure (and therefore the
/// bandwidth that drives the x-reuse rule) is shared with the matrix
/// the store was derived from, so the stats are copied, never
/// recomputed.
#[derive(Clone, Debug)]
pub struct GpuStore<S> {
    store: MatrixStore<S>,
    stats: MatrixStats,
}

impl<S: Scalar> GpuStore<S> {
    /// Working-precision store over `a`'s values (prices and computes
    /// bit-identically to `a` itself).
    pub fn plain_of(a: &GpuMatrix<S>) -> Self {
        GpuStore {
            store: MatrixStore::plain(a.csr().clone()),
            stats: a.stats,
        }
    }

    /// Downcast shadow store of `a` at value precision `p` (a plain
    /// clone when `p` is not narrower than `S`). Not charged to the
    /// profiler: like [`GpuMatrix::convert`], the one-time demotion is
    /// setup the paper's solve times exclude.
    pub fn shadow_of(a: &GpuMatrix<S>, p: Precision) -> Self {
        GpuStore {
            store: MatrixStore::shadow(a.csr(), p),
            stats: a.stats,
        }
    }

    /// Magnitude-split store of `a`: entries below `threshold` demote
    /// to fp32, the rest stay in `S`.
    pub fn split_of(a: &GpuMatrix<S>, threshold: f64) -> Self {
        GpuStore {
            store: MatrixStore::split_threshold(a.csr(), threshold),
            stats: a.stats,
        }
    }

    /// Dimension (square systems).
    pub fn n(&self) -> usize {
        self.store.nrows()
    }

    /// Stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.store.nnz()
    }

    /// Structural bandwidth in rows.
    pub fn bandwidth(&self) -> usize {
        self.stats.bandwidth
    }

    /// The storage-precision tag.
    pub fn tag(&self) -> PrecisionTag {
        self.store.tag()
    }

    /// Bytes of the value stream as stored.
    pub fn value_bytes(&self) -> usize {
        self.store.value_bytes()
    }

    /// The underlying store.
    pub fn store(&self) -> &MatrixStore<S> {
        &self.store
    }

    /// Structural statistics.
    pub fn stats(&self) -> &MatrixStats {
        &self.stats
    }
}

/// Reused per-region recording state: the buffer arena, the region's
/// op graph, the payload bindings, and the per-op finish times of the
/// overlap timeline. Lives on the context (not the stream) so the
/// buffers keep their capacity across regions; everything is cleared
/// when the next region opens.
#[derive(Debug, Default)]
pub(crate) struct StreamScratch {
    pub(crate) arena: BufferArena,
    pub(crate) graph: OpGraph,
    pub(crate) bindings: Vec<BoundOp>,
    pub(crate) finish: Vec<f64>,
}

/// Instrumented kernel executor: charges the profiler, delegates
/// computation to the configured [`Backend`].
///
/// Kernels run in one of two modes:
///
/// - **eager** (each method below): validate, charge the profiler,
///   execute — semantically "record one op and sync immediately".
/// - **recorded**: [`GpuContext::stream`] opens a
///   [`Stream`](crate::Stream) that registers buffers into an arena and
///   enqueues ops carrying read/write handle spans; the dependency DAG
///   executes in ready batches at sync. Recorded execution is
///   bit-identical to eager (the DAG only relaxes ordering between ops
///   that cannot observe each other) and lets the simulated timeline
///   overlap independent ops (the critical-path figure of
///   [`TimingReport`]).
///
/// [`GpuContext::set_streaming`] turns recording off globally (every
/// stream then degenerates to eager per-op execution) — the switch the
/// recorded-vs-eager parity suite flips.
#[derive(Debug)]
pub struct GpuContext {
    device: DeviceModel,
    profiler: Profiler,
    reduction: ReductionOrder,
    backend: Arc<dyn Backend>,
    streaming: bool,
    scratch: StreamScratch,
    stream_stats: StreamStats,
    /// Shard plans of matrices run under a sharded backend (structure
    /// keyed, never evicted — recorded ops hold raw plan pointers for a
    /// region's lifetime).
    shard_plans: ShardPlanCache,
    /// Reusable halo-exchange scratch buffers (u64-aligned so one pool
    /// serves every precision). Boxes never move once handed out, and
    /// `halo_used` rewinds at every region start, so warm sharded
    /// regions allocate nothing.
    halo_pool: Vec<Box<[u64]>>,
    halo_used: usize,
}

impl GpuContext {
    /// New context on the given device, GPU-like reduction order, and
    /// the default (sequential reference) backend.
    pub fn new(device: DeviceModel) -> Self {
        Self::with_backend(
            device,
            ReductionOrder::GPU_LIKE,
            BackendKind::default().create(),
        )
    }

    /// New context with an explicit reduction order (tests use
    /// [`ReductionOrder::Sequential`] for bit-determinism; the paper notes
    /// GPU reductions make convergence slightly nondeterministic).
    pub fn with_reduction(device: DeviceModel, reduction: ReductionOrder) -> Self {
        Self::with_backend(device, reduction, BackendKind::default().create())
    }

    /// New context with an explicit kernel backend.
    pub fn with_backend(
        device: DeviceModel,
        reduction: ReductionOrder,
        backend: Arc<dyn Backend>,
    ) -> Self {
        GpuContext {
            device,
            profiler: Profiler::new(),
            reduction,
            backend,
            streaming: true,
            scratch: StreamScratch::default(),
            stream_stats: StreamStats::default(),
            shard_plans: ShardPlanCache::new(),
            halo_pool: Vec::new(),
            halo_used: 0,
        }
    }

    /// New context selecting the backend by kind.
    pub fn with_backend_kind(
        device: DeviceModel,
        reduction: ReductionOrder,
        kind: BackendKind,
    ) -> Self {
        Self::with_backend(device, reduction, kind.create())
    }

    /// The device model in use.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// The kernel backend executing the computation.
    pub fn backend(&self) -> &dyn Backend {
        &*self.backend
    }

    /// Accumulated profile.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Rolled-up report in the paper's categories.
    pub fn report(&self) -> TimingReport {
        self.profiler.report()
    }

    /// Total simulated seconds so far.
    pub fn elapsed(&self) -> f64 {
        self.profiler.total_seconds()
    }

    /// Overlap-aware simulated makespan so far (`<=` [`GpuContext::elapsed`];
    /// the clock the serving latency percentiles are quoted on).
    pub fn critical_elapsed(&self) -> f64 {
        self.profiler.critical_seconds()
    }

    /// Mark an admission-epoch boundary on the profiler timeline (see
    /// [`mpgmres_gpusim::EpochMark`]); the serving engine calls this at
    /// every admission barrier so per-epoch cost attribution stays
    /// exact across epochs that share cycles.
    pub fn mark_epoch(&mut self) {
        self.profiler.mark_epoch();
    }

    /// Reset the profile (e.g. to exclude preconditioner setup, as the
    /// paper's solve times do).
    pub fn reset_profile(&mut self) {
        self.profiler.reset();
    }

    /// Whether streams record (default) or degenerate to eager per-op
    /// execution.
    pub fn streaming(&self) -> bool {
        self.streaming
    }

    /// Enable/disable stream recording. With recording off, every
    /// [`GpuContext::stream`] region executes its ops eagerly in record
    /// order — the reference behavior the parity suite compares against.
    pub fn set_streaming(&mut self, on: bool) {
        self.streaming = on;
    }

    /// Open a command recorder on this context; the region derives its
    /// own DAG at sync. See [`Stream`](crate::Stream) for the recording
    /// model.
    pub fn stream(&mut self) -> crate::Stream<'_> {
        crate::Stream::begin(self)
    }

    /// Kept only for the standalone `perfbench/` benchmark: the same as
    /// [`GpuContext::stream`].
    pub fn stream_for(&mut self, _key: RegionKey) -> crate::Stream<'_> {
        self.stream()
    }

    /// Kept only for the standalone `perfbench/` benchmark: recorded
    /// region and op counts (see [`StreamStats`]).
    pub fn stream_stats(&self) -> StreamStats {
        self.stream_stats
    }

    pub(crate) fn profiler_mut(&mut self) -> &mut Profiler {
        &mut self.profiler
    }

    pub(crate) fn reduction(&self) -> ReductionOrder {
        self.reduction
    }

    // ----- recorded-stream plumbing ----------------------------------

    pub(crate) fn scratch(&self) -> &StreamScratch {
        &self.scratch
    }

    pub(crate) fn scratch_mut(&mut self) -> &mut StreamScratch {
        &mut self.scratch
    }

    pub(crate) fn arena_mut(&mut self) -> &mut BufferArena {
        &mut self.scratch.arena
    }

    /// Reset the per-region recording state (keeps allocations).
    pub(crate) fn scratch_reset(&mut self) {
        self.scratch.arena.clear();
        self.scratch.graph.clear();
        self.scratch.bindings.clear();
        self.scratch.finish.clear();
        self.halo_used = 0;
    }

    /// Finalize the recorded graph and submit it against the current
    /// scratch bindings and arena.
    pub(crate) fn submit_recorded(&mut self) {
        let scratch = &mut self.scratch;
        scratch.graph.finalize();
        mpgmres_backend::stream::submit(
            &scratch.graph,
            &scratch.bindings,
            &scratch.arena,
            &*self.backend,
        );
        self.stream_stats.misses += 1;
        self.stream_stats.nodes_allocated += scratch.graph.len() as u64;
    }

    // ----- cost specs -------------------------------------------------
    //
    // One function per kernel shape computing (simulated seconds, modeled
    // bytes). Both the eager methods below and the recorded Stream path
    // go through these, so the two modes charge bit-identical costs by
    // construction.

    pub(crate) fn spmv_spec<S: Scalar>(&self, a: &GpuMatrix<S>) -> (f64, usize) {
        let t = cost::spmv_time(&self.device, a.n(), a.nnz(), a.bandwidth(), S::PRECISION);
        let bytes = mpgmres_gpusim::analytic::spmv_traffic_bytes(
            &self.device,
            a.n(),
            a.nnz(),
            a.bandwidth(),
            S::PRECISION,
        );
        (t, bytes)
    }

    pub(crate) fn residual_spec<S: Scalar>(&self, a: &GpuMatrix<S>) -> (f64, usize) {
        let t = cost::residual_time(&self.device, a.n(), a.nnz(), a.bandwidth(), S::PRECISION);
        let bytes = mpgmres_gpusim::analytic::spmv_traffic_bytes(
            &self.device,
            a.n(),
            a.nnz(),
            a.bandwidth(),
            S::PRECISION,
        ) + a.n() * S::BYTES;
        (t, bytes)
    }

    pub(crate) fn spmm_spec<S: Scalar>(&self, a: &GpuMatrix<S>, k: usize) -> (f64, usize) {
        let t = cost::spmm_time(&self.device, a.n(), a.nnz(), a.bandwidth(), k, S::PRECISION);
        let bytes = mpgmres_gpusim::analytic::spmv_traffic_bytes(
            &self.device,
            a.n(),
            a.nnz(),
            a.bandwidth(),
            S::PRECISION,
        ) + (k - 1) * 2 * a.n() * S::BYTES;
        (t, bytes)
    }

    pub(crate) fn store_spmv_spec<S: Scalar>(&self, a: &GpuStore<S>) -> (f64, usize) {
        let t = cost::store_spmv_time(
            &self.device,
            a.n(),
            a.nnz(),
            a.value_bytes(),
            a.bandwidth(),
            a.tag().dominant(),
            S::PRECISION,
        );
        let bytes = mpgmres_gpusim::analytic::store_spmv_traffic_bytes(
            &self.device,
            a.n(),
            a.nnz(),
            a.value_bytes(),
            a.bandwidth(),
            S::PRECISION,
        );
        (t, bytes)
    }

    pub(crate) fn store_residual_spec<S: Scalar>(&self, a: &GpuStore<S>) -> (f64, usize) {
        let t = cost::store_residual_time(
            &self.device,
            a.n(),
            a.nnz(),
            a.value_bytes(),
            a.bandwidth(),
            a.tag().dominant(),
            S::PRECISION,
        );
        let bytes = mpgmres_gpusim::analytic::store_spmv_traffic_bytes(
            &self.device,
            a.n(),
            a.nnz(),
            a.value_bytes(),
            a.bandwidth(),
            S::PRECISION,
        ) + a.n() * S::BYTES;
        (t, bytes)
    }

    pub(crate) fn store_spmm_spec<S: Scalar>(&self, a: &GpuStore<S>, k: usize) -> (f64, usize) {
        let t = cost::store_spmm_time(
            &self.device,
            a.n(),
            a.nnz(),
            a.value_bytes(),
            a.bandwidth(),
            k,
            a.tag().dominant(),
            S::PRECISION,
        );
        let bytes = mpgmres_gpusim::analytic::store_spmv_traffic_bytes(
            &self.device,
            a.n(),
            a.nnz(),
            a.value_bytes(),
            a.bandwidth(),
            S::PRECISION,
        ) + (k - 1) * 2 * a.n() * S::BYTES;
        (t, bytes)
    }

    // ----- sharded matrix-op plumbing --------------------------------
    //
    // Under a sharded backend every matrix op decomposes into per-shard
    // pieces: a halo exchange (remote x-entries the shard's boundary
    // rows read), an interior kernel over rows touching only owned
    // columns, and a boundary kernel gated on the exchange. Eager and
    // recorded modes both walk the SAME piece sequence through the SAME
    // spec functions, preserving the bitwise charge-parity invariant.

    /// The shard plan for `a` under the current backend, or `None` when
    /// the backend is unsharded (every op then takes the plain path).
    pub(crate) fn shard_plan_for<S: Scalar>(&self, a: &GpuMatrix<S>) -> Option<Arc<ShardPlan>> {
        let shards = self.backend.shard_count();
        if shards <= 1 {
            return None;
        }
        Some(self.shard_plans.get(a.csr(), shards))
    }

    /// Register a halo scratch buffer of `elems` elements of `S` in the
    /// recording arena, backed by the context's reusable pool (warm
    /// regions allocate nothing; `scratch_reset` rewinds the cursor).
    pub(crate) fn register_halo<S: Scalar>(&mut self, elems: usize) -> u32 {
        let words = (elems * core::mem::size_of::<S>()).div_ceil(8).max(1);
        if self.halo_used == self.halo_pool.len() {
            self.halo_pool.push(vec![0u64; words].into_boxed_slice());
        } else if self.halo_pool[self.halo_used].len() < words {
            self.halo_pool[self.halo_used] = vec![0u64; words].into_boxed_slice();
        }
        let ptr = self.halo_pool[self.halo_used].as_mut_ptr().cast::<S>();
        self.halo_used += 1;
        // SAFETY: the pool box outlives the region (boxes are only
        // replaced when too small, before registration), is u64-aligned
        // (covers every scalar), and holds >= `elems` elements of `S`.
        unsafe { self.scratch.arena.register_slice_mut(ptr, elems) }
    }

    /// Halo exchange piece: `(time, bytes)` for shipping `halo_elems`
    /// owned x-entries times `k` right-hand-side columns.
    pub(crate) fn halo_spec<S: Scalar>(&self, halo_elems: usize, k: usize) -> (f64, usize) {
        let bytes = mpgmres_gpusim::analytic::halo_bytes(halo_elems, k, S::BYTES);
        (cost::halo_time(&self.device, bytes), bytes)
    }

    /// Compute piece of a sharded matrix op: a row-range of `a` with
    /// `rows` rows and `nnz` nonzeros, priced with the same model as the
    /// whole-matrix specs (full-matrix bandwidth; the row block inherits
    /// the parent's banded/scattered classification per-piece).
    pub(crate) fn sharded_piece_spec<S: Scalar>(
        &self,
        a: &GpuMatrix<S>,
        rows: usize,
        nnz: usize,
        k: usize,
        op: ShardedMatOp,
    ) -> (f64, usize) {
        let bw = a.bandwidth();
        let base =
            mpgmres_gpusim::analytic::spmv_traffic_bytes(&self.device, rows, nnz, bw, S::PRECISION);
        match op {
            ShardedMatOp::Spmv => (
                cost::spmv_time(&self.device, rows, nnz, bw, S::PRECISION),
                base,
            ),
            ShardedMatOp::Residual => (
                cost::residual_time(&self.device, rows, nnz, bw, S::PRECISION),
                base + rows * S::BYTES,
            ),
            ShardedMatOp::Spmm => (
                cost::spmm_time(&self.device, rows, nnz, bw, k, S::PRECISION),
                base + (k - 1) * 2 * rows * S::BYTES,
            ),
        }
    }

    /// Eager-mode decomposed charging for a sharded matrix op: walks the
    /// identical piece sequence (halo, interior, boundary per shard,
    /// same skip rules) the recorded path emits as stream nodes, so
    /// eager and recorded totals stay bit-identical.
    pub(crate) fn charge_sharded<S: Scalar>(
        &mut self,
        class: KernelClass,
        a: &GpuMatrix<S>,
        plan: &ShardPlan,
        k: usize,
        op: ShardedMatOp,
    ) {
        let row_ptr = a.csr().row_ptr();
        for region in &plan.regions {
            if region.rows() == 0 {
                continue;
            }
            if region.halo_len() > 0 {
                let (t, bytes) = self.halo_spec::<S>(region.halo_len(), k);
                self.profiler.charge(KernelClass::Halo, t, bytes);
            }
            if region.ihi > region.ilo {
                let nnz = row_ptr[region.ihi] - row_ptr[region.ilo];
                let (t, bytes) =
                    self.sharded_piece_spec::<S>(a, region.ihi - region.ilo, nnz, k, op);
                self.profiler.charge(class, t, bytes);
            }
            let brows = (region.ilo - region.lo) + (region.hi - region.ihi);
            if brows > 0 {
                let bnnz = (row_ptr[region.ilo] - row_ptr[region.lo])
                    + (row_ptr[region.hi] - row_ptr[region.ihi]);
                let (t, bytes) = self.sharded_piece_spec::<S>(a, brows, bnnz, k, op);
                self.profiler.charge(class, t, bytes);
            }
        }
    }

    pub(crate) fn gemv_t_spec<S: Scalar>(&self, n: usize, ncols: usize) -> (f64, usize) {
        let t = cost::gemv_t_time(&self.device, n, ncols, S::PRECISION);
        (t, (ncols + 1) * n * S::BYTES)
    }

    pub(crate) fn gemv_n_spec<S: Scalar>(&self, n: usize, ncols: usize) -> (f64, usize) {
        let t = cost::gemv_n_time(&self.device, n, ncols, S::PRECISION);
        (t, (ncols + 2) * n * S::BYTES)
    }

    pub(crate) fn gemm_t_spec<S: Scalar>(&self, n: usize, ncols: usize, k: usize) -> (f64, usize) {
        let t = cost::gemm_t_time(&self.device, n, ncols, k, S::PRECISION);
        (t, k * (ncols + 1) * n * S::BYTES)
    }

    pub(crate) fn gemm_n_spec<S: Scalar>(&self, n: usize, ncols: usize, k: usize) -> (f64, usize) {
        let t = cost::gemm_n_time(&self.device, n, ncols, k, S::PRECISION);
        (t, k * (ncols + 2) * n * S::BYTES)
    }

    pub(crate) fn norm_spec<S: Scalar>(&self, n: usize) -> (f64, usize) {
        (cost::norm_time(&self.device, n, S::PRECISION), n * S::BYTES)
    }

    pub(crate) fn dot_spec<S: Scalar>(&self, n: usize) -> (f64, usize) {
        (
            cost::dot_time(&self.device, n, S::PRECISION),
            2 * n * S::BYTES,
        )
    }

    pub(crate) fn axpy_spec<S: Scalar>(&self, n: usize) -> (f64, usize) {
        (
            cost::axpy_time(&self.device, n, S::PRECISION),
            3 * n * S::BYTES,
        )
    }

    pub(crate) fn scal_spec<S: Scalar>(&self, n: usize) -> (f64, usize) {
        (
            cost::scal_time(&self.device, n, S::PRECISION),
            2 * n * S::BYTES,
        )
    }

    pub(crate) fn block_norm_spec<S: Scalar>(&self, n: usize, k: usize) -> (f64, usize) {
        (
            cost::block_norm_time(&self.device, n, k, S::PRECISION),
            k * n * S::BYTES,
        )
    }

    pub(crate) fn block_scal_spec<S: Scalar>(&self, n: usize, k: usize) -> (f64, usize) {
        (
            cost::block_scal_time(&self.device, n, k, S::PRECISION),
            2 * k * n * S::BYTES,
        )
    }

    // Basis-store specs: priced with the store's own element width `e`
    // (bytes per stored basis element). Every one reduces bit-for-bit
    // to its uniform counterpart at `e == S::BYTES`, so the native
    // `BasisStore` path charges exactly what the pre-refactor
    // `MultiVector` path did.

    pub(crate) fn basis_gemv_t_spec<S: Scalar>(
        &self,
        n: usize,
        ncols: usize,
        e: usize,
    ) -> (f64, usize) {
        (
            cost::basis_gemv_t_time(&self.device, n, ncols, e, S::PRECISION),
            analytic::basis_gemv_traffic_bytes(n, ncols, e, 1, S::PRECISION),
        )
    }

    pub(crate) fn basis_gemv_n_spec<S: Scalar>(
        &self,
        n: usize,
        ncols: usize,
        e: usize,
    ) -> (f64, usize) {
        (
            cost::basis_gemv_n_time(&self.device, n, ncols, e, S::PRECISION),
            analytic::basis_gemv_traffic_bytes(n, ncols, e, 2, S::PRECISION),
        )
    }

    pub(crate) fn basis_gemm_t_spec<S: Scalar>(
        &self,
        n: usize,
        ncols: usize,
        k: usize,
        e: usize,
    ) -> (f64, usize) {
        (
            cost::basis_gemm_t_time(&self.device, n, ncols, k, e, S::PRECISION),
            k * analytic::basis_gemv_traffic_bytes(n, ncols, e, 1, S::PRECISION),
        )
    }

    pub(crate) fn basis_gemm_n_spec<S: Scalar>(
        &self,
        n: usize,
        ncols: usize,
        k: usize,
        e: usize,
    ) -> (f64, usize) {
        (
            cost::basis_gemm_n_time(&self.device, n, ncols, k, e, S::PRECISION),
            k * analytic::basis_gemv_traffic_bytes(n, ncols, e, 2, S::PRECISION),
        )
    }

    pub(crate) fn basis_scal_copy_spec<S: Scalar>(
        &self,
        n: usize,
        k: usize,
        e: usize,
    ) -> (f64, usize) {
        (
            cost::basis_scal_copy_time(&self.device, n, k, e, S::PRECISION),
            k * n * (S::BYTES + e),
        )
    }

    // ----- instrumented kernels --------------------------------------

    /// `y = A x`, charged to the given class (solvers use
    /// [`KernelClass::SpMV`]; GMRES-IR's refinement residual uses
    /// [`KernelClass::ResidualHi`] so it lands in the paper's "Other").
    pub fn spmv_as<S: BackendScalar>(
        &mut self,
        class: KernelClass,
        a: &GpuMatrix<S>,
        x: &[S],
        y: &mut [S],
    ) {
        contracts::spmv(a.csr(), x, y);
        if let Some(plan) = self.shard_plan_for(a) {
            self.charge_sharded::<S>(class, a, &plan, 1, ShardedMatOp::Spmv);
        } else {
            let (t, bytes) = self.spmv_spec::<S>(a);
            self.profiler.charge(class, t, bytes);
        }
        S::view(&*self.backend).spmv(a.csr(), x, y);
    }

    /// `y = A x` charged as a solver SpMV.
    pub fn spmv<S: BackendScalar>(&mut self, a: &GpuMatrix<S>, x: &[S], y: &mut [S]) {
        self.spmv_as(KernelClass::SpMV, a, x, y);
    }

    /// Fused residual `r = b - A x`.
    pub fn residual_as<S: BackendScalar>(
        &mut self,
        class: KernelClass,
        a: &GpuMatrix<S>,
        b: &[S],
        x: &[S],
        r: &mut [S],
    ) {
        contracts::residual(a.csr(), b, x, r);
        if let Some(plan) = self.shard_plan_for(a) {
            self.charge_sharded::<S>(class, a, &plan, 1, ShardedMatOp::Residual);
        } else {
            let (t, bytes) = self.residual_spec::<S>(a);
            self.profiler.charge(class, t, bytes);
        }
        S::view(&*self.backend).residual(a.csr(), b, x, r);
    }

    // ----- storage-path (multiprecision) kernels ----------------------
    //
    // The matrix values live in a `MatrixStore` (fp32/fp16 shadow or
    // magnitude split) while the vectors stay in `S`; accumulation is in
    // `S` per the store's per-row kernels. Charged under the same
    // classes as the uniform kernels, priced with the store's own value
    // stream and the generalized x-reuse rule — a `Plain` store charges
    // and computes bit-identically to the `GpuMatrix` calls.

    /// Storage-path `y = A x`, charged to `class`.
    pub fn store_spmv_as<S: BackendScalar>(
        &mut self,
        class: KernelClass,
        a: &GpuStore<S>,
        x: &[S],
        y: &mut [S],
    ) {
        contracts::store_spmv(a.store(), x, y);
        let (t, bytes) = self.store_spmv_spec::<S>(a);
        self.profiler.charge(class, t, bytes);
        S::view(&*self.backend).store_spmv(a.store(), x, y);
    }

    /// Storage-path `y = A x` charged as a solver SpMV.
    pub fn store_spmv<S: BackendScalar>(&mut self, a: &GpuStore<S>, x: &[S], y: &mut [S]) {
        self.store_spmv_as(KernelClass::SpMV, a, x, y);
    }

    /// Storage-path fused residual `r = b - A x`, charged to `class`.
    pub fn store_residual_as<S: BackendScalar>(
        &mut self,
        class: KernelClass,
        a: &GpuStore<S>,
        b: &[S],
        x: &[S],
        r: &mut [S],
    ) {
        contracts::store_residual(a.store(), b, x, r);
        let (t, bytes) = self.store_residual_spec::<S>(a);
        self.profiler.charge(class, t, bytes);
        S::view(&*self.backend).store_residual(a.store(), b, x, r);
    }

    /// Storage-path batched SpMM `Y[:, ..k] = A X[:, ..k]`.
    pub fn store_spmm<S: BackendScalar>(
        &mut self,
        a: &GpuStore<S>,
        x: &MultiVec<S>,
        k: usize,
        y: &mut MultiVec<S>,
    ) {
        contracts::store_spmm(a.store(), x, k, y);
        let (t, bytes) = self.store_spmm_spec::<S>(a, k);
        self.profiler.charge(KernelClass::SpMV, t, bytes);
        S::view(&*self.backend).store_spmm(a.store(), x, k, y);
    }

    /// `h = V^T w` over the first `ncols` basis columns (GEMV Trans).
    pub fn gemv_t<S: BackendScalar>(
        &mut self,
        v: &MultiVector<S>,
        ncols: usize,
        w: &[S],
        h: &mut [S],
    ) {
        contracts::gemv(v, ncols, w, h);
        let (t, bytes) = self.gemv_t_spec::<S>(v.n(), ncols);
        self.profiler.charge(KernelClass::GemvT, t, bytes);
        S::view(&*self.backend).gemv_t(v, ncols, w, h, self.reduction);
    }

    /// `w -= V h` (GEMV No-Trans).
    pub fn gemv_n_sub<S: BackendScalar>(
        &mut self,
        v: &MultiVector<S>,
        ncols: usize,
        h: &[S],
        w: &mut [S],
    ) {
        contracts::gemv(v, ncols, w, h);
        let (t, bytes) = self.gemv_n_spec::<S>(v.n(), ncols);
        self.profiler.charge(KernelClass::GemvN, t, bytes);
        S::view(&*self.backend).gemv_n_sub(v, ncols, h, w);
    }

    /// `y += V h` (GEMV No-Trans; the solution update `x += V y`).
    pub fn gemv_n_add<S: BackendScalar>(
        &mut self,
        v: &MultiVector<S>,
        ncols: usize,
        h: &[S],
        y: &mut [S],
    ) {
        contracts::gemv(v, ncols, y, h);
        let (t, bytes) = self.gemv_n_spec::<S>(v.n(), ncols);
        self.profiler.charge(KernelClass::GemvN, t, bytes);
        S::view(&*self.backend).gemv_n_add(v, ncols, h, y);
    }

    /// Euclidean norm with device-to-host result transfer.
    pub fn norm2<S: BackendScalar>(&mut self, x: &[S]) -> S {
        self.norm2_as(KernelClass::Norm, x)
    }

    /// Euclidean norm charged to an explicit class (GMRES-IR charges its
    /// refinement-residual norms to [`KernelClass::ResidualHi`] so they
    /// land in the paper's "Other" bar, per the Fig. 4 caption).
    pub fn norm2_as<S: BackendScalar>(&mut self, class: KernelClass, x: &[S]) -> S {
        let (t, bytes) = self.norm_spec::<S>(x.len());
        self.profiler.charge(class, t, bytes);
        S::view(&*self.backend).norm2(x, self.reduction)
    }

    /// Inner product with device-to-host result transfer.
    pub fn dot<S: BackendScalar>(&mut self, x: &[S], y: &[S]) -> S {
        contracts::same_len("dot", x, y);
        let (t, bytes) = self.dot_spec::<S>(x.len());
        self.profiler.charge(KernelClass::Dot, t, bytes);
        S::view(&*self.backend).dot(x, y, self.reduction)
    }

    /// `y += alpha x`.
    pub fn axpy<S: BackendScalar>(&mut self, alpha: S, x: &[S], y: &mut [S]) {
        contracts::same_len("axpy", x, y);
        let (t, bytes) = self.axpy_spec::<S>(x.len());
        self.profiler.charge(KernelClass::Axpy, t, bytes);
        S::view(&*self.backend).axpy(alpha, x, y);
    }

    /// `x *= alpha`.
    pub fn scal<S: BackendScalar>(&mut self, alpha: S, x: &mut [S]) {
        let (t, bytes) = self.scal_spec::<S>(x.len());
        self.profiler.charge(KernelClass::Scal, t, bytes);
        S::view(&*self.backend).scal(alpha, x);
    }

    /// Device-resident vector copy (no profiler charge is attached to
    /// plain copies in the paper's accounting; provided for backends).
    pub fn copy<S: BackendScalar>(&mut self, src: &[S], dst: &mut [S]) {
        contracts::same_len("copy", src, dst);
        S::view(&*self.backend).copy(src, dst);
    }

    // ----- batched multi-RHS (block) kernels --------------------------
    //
    // The profiler is charged with SpMM/GEMM-shaped costs
    // (`mpgmres_gpusim::cost::{spmm_time, gemm_t_time, ...}`) under the
    // SAME kernel classes as the single-vector calls: at k = 1 every
    // block charge is bit-identical to its single-vector counterpart, so
    // a width-1 block solve reproduces a single-RHS solve's timing
    // report exactly, and the category rollup stays comparable across
    // block widths.

    /// Batched SpMM `Y[:, ..k] = A X[:, ..k]` — one matrix read serves
    /// all `k` right-hand sides.
    pub fn spmm<S: BackendScalar>(
        &mut self,
        a: &GpuMatrix<S>,
        x: &MultiVec<S>,
        k: usize,
        y: &mut MultiVec<S>,
    ) {
        contracts::spmm(a.csr(), x, k, y);
        if let Some(plan) = self.shard_plan_for(a) {
            self.charge_sharded::<S>(KernelClass::SpMV, a, &plan, k, ShardedMatOp::Spmm);
        } else {
            let (t, bytes) = self.spmm_spec::<S>(a, k);
            self.profiler.charge(KernelClass::SpMV, t, bytes);
        }
        S::view(&*self.backend).spmm(a.csr(), x, k, y);
    }

    /// Batched GEMV-Trans (GEMM shape): `h_c = V_c^T w_c` for each of
    /// the block's columns, one basis per column, coefficients packed
    /// with stride `ncols`.
    pub fn block_gemv_t<S: BackendScalar>(
        &mut self,
        vs: &[&MultiVector<S>],
        ncols: usize,
        w: &MultiVec<S>,
        h: &mut [S],
    ) {
        contracts::block_gemv(vs, ncols, w, h);
        let (t, bytes) = self.gemm_t_spec::<S>(w.n(), ncols, vs.len());
        self.profiler.charge(KernelClass::GemvT, t, bytes);
        S::view(&*self.backend).block_gemv_t(vs, ncols, w, h, self.reduction);
    }

    /// Batched GEMV-NoTrans (GEMM shape): `w_c -= V_c h_c`.
    pub fn block_gemv_n_sub<S: BackendScalar>(
        &mut self,
        vs: &[&MultiVector<S>],
        ncols: usize,
        h: &[S],
        w: &mut MultiVec<S>,
    ) {
        contracts::block_gemv(vs, ncols, w, h);
        let (t, bytes) = self.gemm_n_spec::<S>(w.n(), ncols, vs.len());
        self.profiler.charge(KernelClass::GemvN, t, bytes);
        S::view(&*self.backend).block_gemv_n_sub(vs, ncols, h, w);
    }

    /// Batched GEMV-NoTrans (GEMM shape): `y_c += V_c h_c`.
    pub fn block_gemv_n_add<S: BackendScalar>(
        &mut self,
        vs: &[&MultiVector<S>],
        ncols: usize,
        h: &[S],
        y: &mut MultiVec<S>,
    ) {
        contracts::block_gemv(vs, ncols, y, h);
        let (t, bytes) = self.gemm_n_spec::<S>(y.n(), ncols, vs.len());
        self.profiler.charge(KernelClass::GemvN, t, bytes);
        S::view(&*self.backend).block_gemv_n_add(vs, ncols, h, y);
    }

    /// Fused column norms with one device-to-host result transfer.
    pub fn block_norm2<S: BackendScalar>(&mut self, x: &MultiVec<S>, k: usize, out: &mut [S]) {
        contracts::block_scalars("block_norm2", x, k, out);
        let (t, bytes) = self.block_norm_spec::<S>(x.n(), k);
        self.profiler.charge(KernelClass::Norm, t, bytes);
        S::view(&*self.backend).block_norm2(x, k, out, self.reduction);
    }

    /// Fused column inner products with one result transfer.
    pub fn block_dot<S: BackendScalar>(
        &mut self,
        x: &MultiVec<S>,
        y: &MultiVec<S>,
        k: usize,
        out: &mut [S],
    ) {
        contracts::block_pair("block_dot", x, y, k);
        contracts::block_scalars("block_dot", x, k, out);
        let t = cost::block_dot_time(&self.device, x.n(), k, S::PRECISION);
        self.profiler
            .charge(KernelClass::Dot, t, 2 * k * x.n() * S::BYTES);
        S::view(&*self.backend).block_dot(x, y, k, out, self.reduction);
    }

    /// Fused column updates `y_c += alpha_c x_c`.
    pub fn block_axpy<S: BackendScalar>(
        &mut self,
        alpha: &[S],
        x: &MultiVec<S>,
        k: usize,
        y: &mut MultiVec<S>,
    ) {
        contracts::block_pair("block_axpy", x, y, k);
        contracts::block_scalars("block_axpy", x, k, alpha);
        let t = cost::block_axpy_time(&self.device, x.n(), k, S::PRECISION);
        self.profiler
            .charge(KernelClass::Axpy, t, 3 * k * x.n() * S::BYTES);
        S::view(&*self.backend).block_axpy(alpha, x, k, y);
    }

    /// Fused column scalings `x_c *= alpha_c`.
    pub fn block_scal<S: BackendScalar>(&mut self, alpha: &[S], x: &mut MultiVec<S>, k: usize) {
        contracts::block_scalars("block_scal", x, k, alpha);
        let (t, bytes) = self.block_scal_spec::<S>(x.n(), k);
        self.profiler.charge(KernelClass::Scal, t, bytes);
        S::view(&*self.backend).block_scal(alpha, x, k);
    }

    /// Block copy (uncharged, like [`GpuContext::copy`]).
    pub fn block_copy<S: BackendScalar>(
        &mut self,
        src: &MultiVec<S>,
        k: usize,
        dst: &mut MultiVec<S>,
    ) {
        contracts::block_pair("block_copy", src, dst, k);
        S::view(&*self.backend).block_copy(src, k, dst);
    }

    /// Fused per-lane copy `dsts[c] = srcs[c]` over a lane set (the
    /// batched form of `BlockGmres`'s per-lane direction gathers).
    /// Uncharged, like [`GpuContext::copy`].
    pub fn lane_copy<S: BackendScalar>(&mut self, srcs: &[&[S]], dsts: &mut [&mut [S]]) {
        contracts::lanes("lane_copy", None, srcs, dsts);
        S::view(&*self.backend).lane_copy(srcs, dsts);
    }

    /// Fused per-lane normalize-and-store `dsts[c] = alpha[c] * srcs[c]`
    /// (the batched form of the copy-then-scal pair that extends each
    /// lane's Krylov basis). Charged like a width-`k` block scaling —
    /// bit-identical to a single [`GpuContext::scal`] at `k = 1`.
    pub fn lane_scal_copy<S: BackendScalar>(
        &mut self,
        alpha: &[S],
        srcs: &[&[S]],
        dsts: &mut [&mut [S]],
    ) {
        contracts::lanes("lane_scal_copy", Some(alpha), srcs, dsts);
        if srcs.is_empty() {
            return;
        }
        let (t, bytes) = self.block_scal_spec::<S>(srcs[0].len(), srcs.len());
        self.profiler.charge(KernelClass::Scal, t, bytes);
        S::view(&*self.backend).lane_scal_copy(alpha, srcs, dsts);
    }

    // ----- basis-store kernels ----------------------------------------
    //
    // The Krylov basis lives in a `BasisStore` (native working-precision
    // columns or fp32/fp16-demoted ones) while every operand vector and
    // all accumulation stay in `S`. Charged under the same classes as
    // the uniform GEMV/scal kernels, priced with the store's element
    // width: a `Native` store charges and computes bit-identically to
    // the `MultiVector` calls above.

    /// `h = V^T w` over the first `ncols` stored basis columns.
    pub fn basis_gemv_t<S: BackendScalar>(
        &mut self,
        v: &BasisStore<S>,
        ncols: usize,
        w: &[S],
        h: &mut [S],
    ) {
        contracts::basis_gemv(v, ncols, w, h);
        let (t, bytes) = self.basis_gemv_t_spec::<S>(v.n(), ncols, v.elem_bytes());
        self.profiler.charge(KernelClass::GemvT, t, bytes);
        S::view(&*self.backend).basis_gemv_t(v, ncols, w, h, self.reduction);
    }

    /// `w -= widen(V[:, ..ncols]) h` over a stored basis.
    pub fn basis_gemv_n_sub<S: BackendScalar>(
        &mut self,
        v: &BasisStore<S>,
        ncols: usize,
        h: &[S],
        w: &mut [S],
    ) {
        contracts::basis_gemv(v, ncols, w, h);
        let (t, bytes) = self.basis_gemv_n_spec::<S>(v.n(), ncols, v.elem_bytes());
        self.profiler.charge(KernelClass::GemvN, t, bytes);
        S::view(&*self.backend).basis_gemv_n_sub(v, ncols, h, w);
    }

    /// `y += widen(V[:, ..ncols]) h` over a stored basis (the solution
    /// update `x += V y`).
    pub fn basis_gemv_n_add<S: BackendScalar>(
        &mut self,
        v: &BasisStore<S>,
        ncols: usize,
        h: &[S],
        y: &mut [S],
    ) {
        contracts::basis_gemv(v, ncols, y, h);
        let (t, bytes) = self.basis_gemv_n_spec::<S>(v.n(), ncols, v.elem_bytes());
        self.profiler.charge(KernelClass::GemvN, t, bytes);
        S::view(&*self.backend).basis_gemv_n_add(v, ncols, h, y);
    }

    /// Fused per-lane basis extension `vs[c][:, j] = alpha[c] * srcs[c]`
    /// (read the source, write the stored column, demotion fused into
    /// the store) over a lane set with one storage precision. Charged
    /// once under [`KernelClass::Scal`]; bit-identical in charge and
    /// result to [`GpuContext::lane_scal_copy`] when every lane is
    /// native.
    pub fn basis_lane_scal_copy<S: BackendScalar>(
        &mut self,
        alpha: &[S],
        srcs: &[&[S]],
        vs: &mut [&mut BasisStore<S>],
        j: usize,
    ) {
        assert_eq!(
            srcs.len(),
            vs.len(),
            "basis_lane_scal_copy: {} sources for {} bases",
            srcs.len(),
            vs.len()
        );
        assert_eq!(
            alpha.len(),
            srcs.len(),
            "basis_lane_scal_copy: {} scalars for {} lanes",
            alpha.len(),
            srcs.len()
        );
        if vs.is_empty() {
            return;
        }
        for (c, (v, s)) in vs.iter().zip(srcs).enumerate() {
            assert_eq!(
                s.len(),
                v.n(),
                "basis_lane_scal_copy: lane {c} length mismatch"
            );
            assert_eq!(
                v.elem_bytes(),
                vs[0].elem_bytes(),
                "basis_lane_scal_copy: lane {c} storage width differs from lane 0"
            );
        }
        let (t, bytes) = self.basis_scal_copy_spec::<S>(vs[0].n(), vs.len(), vs[0].elem_bytes());
        self.profiler.charge(KernelClass::Scal, t, bytes);
        S::view(&*self.backend).basis_lane_scal_copy(vs, j, alpha, srcs);
    }

    /// Promote stored basis column `j` into a working-precision buffer.
    /// Native: a plain device copy, uncharged like [`GpuContext::copy`]
    /// (the pre-refactor direction gathers copied columns uncharged);
    /// compressed: a device-resident widening cast, charged like
    /// [`GpuContext::cast_device`] from the storage precision.
    pub fn basis_promote_col<S: BackendScalar>(
        &mut self,
        v: &BasisStore<S>,
        j: usize,
        out: &mut [S],
    ) {
        assert_eq!(out.len(), v.n(), "basis_promote_col: length mismatch");
        if !v.is_native() {
            let p = v.storage_precision();
            let t = cost::cast_device_time(&self.device, v.n(), p, S::PRECISION);
            self.profiler
                .charge(KernelClass::CastDevice, t, v.n() * (p.bytes() + S::BYTES));
        }
        S::view(&*self.backend).basis_promote_col(v, j, out);
    }

    /// Batched GEMV-Trans over one stored basis per block column.
    pub fn basis_block_gemv_t<S: BackendScalar>(
        &mut self,
        vs: &[&BasisStore<S>],
        ncols: usize,
        w: &MultiVec<S>,
        h: &mut [S],
    ) {
        contracts::basis_block_gemv(vs, ncols, w, h);
        let e = vs.first().map_or(S::BYTES, |v| v.elem_bytes());
        let (t, bytes) = self.basis_gemm_t_spec::<S>(w.n(), ncols, vs.len(), e);
        self.profiler.charge(KernelClass::GemvT, t, bytes);
        S::view(&*self.backend).basis_block_gemv_t(vs, ncols, w, h, self.reduction);
    }

    /// Batched GEMV-NoTrans over stored bases: `w_c -= V_c h_c`.
    pub fn basis_block_gemv_n_sub<S: BackendScalar>(
        &mut self,
        vs: &[&BasisStore<S>],
        ncols: usize,
        h: &[S],
        w: &mut MultiVec<S>,
    ) {
        contracts::basis_block_gemv(vs, ncols, w, h);
        let e = vs.first().map_or(S::BYTES, |v| v.elem_bytes());
        let (t, bytes) = self.basis_gemm_n_spec::<S>(w.n(), ncols, vs.len(), e);
        self.profiler.charge(KernelClass::GemvN, t, bytes);
        S::view(&*self.backend).basis_block_gemv_n_sub(vs, ncols, h, w);
    }

    /// Batched GEMV-NoTrans over stored bases: `y_c += V_c h_c`.
    pub fn basis_block_gemv_n_add<S: BackendScalar>(
        &mut self,
        vs: &[&BasisStore<S>],
        ncols: usize,
        h: &[S],
        y: &mut MultiVec<S>,
    ) {
        contracts::basis_block_gemv(vs, ncols, y, h);
        let e = vs.first().map_or(S::BYTES, |v| v.elem_bytes());
        let (t, bytes) = self.basis_gemm_n_spec::<S>(y.n(), ncols, vs.len(), e);
        self.profiler.charge(KernelClass::GemvN, t, bytes);
        S::view(&*self.backend).basis_block_gemv_n_add(vs, ncols, h, y);
    }

    /// Device-resident precision cast (fp32 preconditioner under an fp64
    /// solve, §III-D case a).
    pub fn cast_device<S: Scalar, T: Scalar>(&mut self, src: &[S], dst: &mut [T]) {
        let t = cost::cast_device_time(&self.device, src.len(), S::PRECISION, T::PRECISION);
        self.profiler.charge(
            KernelClass::CastDevice,
            t,
            src.len() * (S::BYTES + T::BYTES),
        );
        mpgmres_scalar::cast_into(src, dst);
    }

    /// Host-mediated precision cast (GMRES-IR refinement residuals cross
    /// the Belos interface on the host, §IV).
    pub fn cast_host<S: Scalar, T: Scalar>(&mut self, src: &[S], dst: &mut [T]) {
        let t = cost::cast_host_time(&self.device, src.len(), S::PRECISION, T::PRECISION);
        self.profiler
            .charge(KernelClass::CastHost, t, src.len() * (S::BYTES + T::BYTES));
        mpgmres_scalar::cast_into(src, dst);
    }

    /// Batched dense triangular solves of block Jacobi: `nblocks` blocks
    /// of size `bs`, streaming the factors and the vector.
    pub fn block_solve_charge<S: Scalar>(&mut self, n: usize, bs: usize) {
        let factor_bytes = n * bs * S::BYTES; // ~ n/bs blocks x bs^2 entries
        let bytes = factor_bytes + 2 * n * S::BYTES;
        let t = self.device.launch_overhead
            + bytes as f64 / (self.device.dram_bw * self.device.eff_spmv.get(S::PRECISION));
        self.profiler.charge(KernelClass::SpMV, t, bytes);
    }

    /// Simulated seconds of one iteration's host bookkeeping (Givens
    /// rotations, status tests). Shared by the eager charge below and
    /// the pipelined drivers' deferred host nodes, so the two modes
    /// charge bit-identical costs.
    pub(crate) fn host_iter_spec(&self, j: usize) -> f64 {
        self.device.iter_overhead + cost::host_dense_time(&self.device, 12 * (j + 1))
    }

    /// Simulated seconds of one restart's host bookkeeping
    /// (least-squares back-solve, allocations, manager overhead).
    pub(crate) fn host_restart_spec(&self, m: usize) -> f64 {
        self.device.restart_overhead + cost::host_dense_time(&self.device, m * m / 2)
    }

    /// Host-side per-iteration bookkeeping (Givens rotations, status
    /// tests through the Belos interface).
    pub fn charge_iteration_host(&mut self, j: usize) {
        let t = self.host_iter_spec(j);
        self.profiler.charge(KernelClass::HostDense, t, 0);
    }

    /// Host-side per-restart bookkeeping (least-squares back-solve,
    /// allocations, solver-manager overhead).
    pub fn charge_restart_host(&mut self, m: usize) {
        let t = self.host_restart_spec(m);
        self.profiler.charge(KernelClass::HostDense, t, 0);
    }

    /// Charge arbitrary host dense flops (polynomial setup eigensolve).
    pub fn charge_host_flops(&mut self, flops: usize) {
        let t = cost::host_dense_time(&self.device, flops);
        self.profiler.charge(KernelClass::HostDense, t, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpgmres_gpusim::PaperCategory;

    fn small_matrix() -> GpuMatrix<f64> {
        GpuMatrix::new(Csr::from_raw(
            3,
            3,
            vec![0, 2, 5, 7],
            vec![0, 1, 0, 1, 2, 1, 2],
            vec![2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0],
        ))
    }

    #[test]
    fn spmv_computes_and_charges() {
        let a = small_matrix();
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        ctx.spmv(&a, &x, &mut y);
        assert_eq!(y, [0.0, 0.0, 4.0]);
        assert!(ctx.elapsed() > 0.0);
        assert_eq!(ctx.report().categories[&PaperCategory::SpMV].calls, 1);
    }

    #[test]
    fn residual_hi_lands_in_other() {
        let a = small_matrix();
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let b = [1.0, 1.0, 1.0];
        let x = [0.0; 3];
        let mut r = [0.0; 3];
        ctx.residual_as(KernelClass::ResidualHi, &a, &b, &x, &mut r);
        assert_eq!(r, b);
        let rep = ctx.report();
        assert_eq!(rep.seconds(PaperCategory::SpMV), 0.0);
        assert!(rep.seconds(PaperCategory::Other) > 0.0);
    }

    #[test]
    fn norm_matches_sequential_for_small_vectors() {
        let mut ctx = GpuContext::with_reduction(DeviceModel::ideal(), ReductionOrder::Sequential);
        let x = vec![3.0f64, 4.0];
        assert_eq!(ctx.norm2(&x), 5.0);
    }

    #[test]
    fn casts_roundtrip_values() {
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let x = vec![0.1f64, -2.5, 7.0];
        let mut lo = vec![0.0f32; 3];
        ctx.cast_host(&x, &mut lo);
        assert_eq!(lo[1], -2.5f32);
        let mut back = vec![0.0f64; 3];
        ctx.cast_device(&lo, &mut back);
        assert_eq!(back[2], 7.0);
        // Host cast must be far more expensive than device cast.
        let rep = ctx.profiler();
        let host = rep.class_stats(KernelClass::CastHost).seconds;
        let dev = rep.class_stats(KernelClass::CastDevice).seconds;
        assert!(host > dev);
    }

    #[test]
    fn matrix_convert_keeps_stats() {
        let a = small_matrix();
        let a32 = a.convert::<f32>();
        assert_eq!(a32.bandwidth(), a.bandwidth());
        assert_eq!(a32.nnz(), a.nnz());
    }

    #[test]
    fn plain_store_prices_and_computes_like_the_matrix() {
        let a = small_matrix();
        let s = GpuStore::plain_of(&a);
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        assert_eq!(ctx.store_spmv_spec::<f64>(&s), ctx.spmv_spec::<f64>(&a));
        assert_eq!(
            ctx.store_residual_spec::<f64>(&s),
            ctx.residual_spec::<f64>(&a)
        );
        assert_eq!(
            ctx.store_spmm_spec::<f64>(&s, 3),
            ctx.spmm_spec::<f64>(&a, 3)
        );
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        ctx.store_spmv(&s, &x, &mut y);
        assert_eq!(y, [0.0, 0.0, 4.0]);
        // A shadow store shrinks the value stream and changes the key tag.
        let sh = GpuStore::shadow_of(&a, Precision::Fp32);
        assert!(sh.value_bytes() < s.value_bytes());
        assert_ne!(sh.tag().code(), s.tag().code());
        assert!(ctx.store_spmv_spec::<f64>(&sh).0 < ctx.store_spmv_spec::<f64>(&s).0);
    }

    #[test]
    fn gemv_kernels_charge_the_right_categories() {
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let mut v = MultiVector::<f64>::zeros(4, 2);
        v.col_mut(0).copy_from_slice(&[1.0, 0.0, 0.0, 0.0]);
        v.col_mut(1).copy_from_slice(&[0.0, 1.0, 0.0, 0.0]);
        let w = [1.0, 2.0, 3.0, 4.0];
        let mut h = [0.0; 2];
        ctx.gemv_t(&v, 2, &w, &mut h);
        assert_eq!(h, [1.0, 2.0]);
        let mut w2 = w;
        ctx.gemv_n_sub(&v, 2, &h, &mut w2);
        assert_eq!(w2, [0.0, 0.0, 3.0, 4.0]);
        let rep = ctx.report();
        assert!(rep.seconds(PaperCategory::GemvTrans) > 0.0);
        assert!(rep.seconds(PaperCategory::GemvNoTrans) > 0.0);
    }
}
