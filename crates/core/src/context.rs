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

use mpgmres_backend::stream::OpGraph;
use mpgmres_backend::{Backend, BackendKind};
use mpgmres_gpusim::{analytic, cost, DeviceModel, KernelClass, Profiler, TimingReport};
use mpgmres_la::csr::Csr;
use mpgmres_la::raw::BufferArena;
use mpgmres_la::stats::MatrixStats;
use mpgmres_la::store::MatrixStore;
use mpgmres_la::vec_ops::ReductionOrder;
use mpgmres_scalar::{Precision, PrecisionTag, Scalar};

use crate::config::StorePath;
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

    /// The store a storage path selects over `a`: `None` for
    /// [`StorePath::Native`] (solve on `a` itself), a shadow or split
    /// store otherwise.
    pub fn for_path(a: &GpuMatrix<S>, path: StorePath) -> Option<Self> {
        match path {
            StorePath::Native => None,
            StorePath::Shadow(p) => Some(Self::shadow_of(a, p)),
            StorePath::Split(t) => Some(Self::split_of(a, t)),
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

/// Reused per-region recording state: the buffer arena and the
/// region's op graph (spans and finish times of the overlap timeline).
/// Lives on the context (not the stream) so the buffers keep their
/// capacity across regions; both are cleared when the next region
/// opens. `stats` counts recorded regions and ops across regions.
#[derive(Debug, Default)]
pub(crate) struct StreamScratch {
    pub(crate) arena: BufferArena,
    pub(crate) graph: OpGraph,
    pub(crate) stats: StreamStats,
}

/// Instrumented kernel executor: charges the profiler, delegates
/// computation to the configured [`Backend`].
///
/// Every kernel runs through a [`Stream`](crate::Stream) opened by
/// [`GpuContext::stream`]: it registers buffers into an arena and runs
/// each op at its record call, in record order. A recording stream
/// also tracks every op's read/write handle spans, so the simulated
/// timeline overlaps independent ops (the critical-path figure of
/// [`TimingReport`]); the computed bits are the same either way.
///
/// [`GpuContext::set_streaming`] turns recording off globally: every
/// op is then charged at the current critical time, as a serial chain —
/// the switch the recorded-vs-eager parity suite flips.
/// Preconditioner applies and the solvers' host-decided steps (casts,
/// MGS projections, refinement updates) run on streams that are always
/// eager. The context itself runs no kernel: it only prices them (the
/// cost specs) and charges the host-side bookkeeping.
#[derive(Debug)]
pub struct GpuContext {
    device: DeviceModel,
    profiler: Profiler,
    reduction: ReductionOrder,
    backend: Arc<dyn Backend>,
    streaming: bool,
    scratch: StreamScratch,
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

    /// Whether streams record (default) or run eager.
    pub fn streaming(&self) -> bool {
        self.streaming
    }

    /// Enable/disable stream recording. With recording off, every
    /// [`GpuContext::stream`] region charges each op at the current
    /// critical time, as a serial chain — the reference behavior the
    /// parity suite compares against.
    pub fn set_streaming(&mut self, on: bool) {
        self.streaming = on;
    }

    /// Open a command recorder on this context; the region derives its
    /// own DAG as it records. See [`Stream`](crate::Stream) for the
    /// recording model.
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
        self.scratch.stats
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
    }

    // ----- cost specs -------------------------------------------------
    //
    // One function per kernel shape computing (simulated seconds, modeled
    // bytes). Every `Stream` op prices through these.

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

    /// Batched dense triangular solves of block Jacobi: `n / bs` blocks
    /// of size `bs`, streaming the factors and the vector.
    pub(crate) fn block_solve_spec<S: Scalar>(&self, n: usize, bs: usize) -> (f64, usize) {
        let factor_bytes = n * bs * S::BYTES; // ~ n/bs blocks x bs^2 entries
        let bytes = factor_bytes + 2 * n * S::BYTES;
        let t = self.device.launch_overhead
            + bytes as f64 / (self.device.dram_bw * self.device.eff_spmv.get(S::PRECISION));
        (t, bytes)
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

    /// Precision cast of `n` elements (read `from`, write `to`):
    /// device-resident under [`KernelClass::CastDevice`], host-mediated
    /// (down and back over PCIe) under [`KernelClass::CastHost`].
    pub(crate) fn cast_spec(
        &self,
        class: KernelClass,
        n: usize,
        from: Precision,
        to: Precision,
    ) -> (f64, usize) {
        let t = match class {
            KernelClass::CastDevice => cost::cast_device_time(&self.device, n, from, to),
            KernelClass::CastHost => cost::cast_host_time(&self.device, n, from, to),
            other => panic!("stream cast: {other:?} is not a cast class"),
        };
        (t, n * (from.bytes() + to.bytes()))
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

    /// Simulated seconds of one iteration's host bookkeeping (Givens
    /// rotations, status tests through the Belos interface), charged by
    /// [`Stream::host_givens`](crate::Stream::host_givens) at every
    /// pipeline depth.
    pub(crate) fn host_iter_spec(&self, j: usize) -> f64 {
        self.device.iter_overhead + cost::host_dense_time(&self.device, 12 * (j + 1))
    }

    /// Simulated seconds of one restart's host bookkeeping
    /// (least-squares back-solve, allocations, solver-manager
    /// overhead), charged by
    /// [`Stream::host_lsq`](crate::Stream::host_lsq).
    pub(crate) fn host_restart_spec(&self, m: usize) -> f64 {
        self.device.restart_overhead + cost::host_dense_time(&self.device, m * m / 2)
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
    use mpgmres_la::basis::BasisStore;
    use mpgmres_la::multivec::MultiVec;

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
        {
            let mut st = crate::Stream::eager(&mut ctx);
            let (ah, xh, yh) = (st.matrix(&a), st.slice(&x), st.slice_mut(&mut y));
            st.spmv(ah, xh, yh);
        }
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
        {
            let mut st = crate::Stream::eager(&mut ctx);
            let (ah, bh, xh) = (st.matrix(&a), st.slice(&b), st.slice(&x));
            let rh = st.slice_mut(&mut r);
            st.residual_as(KernelClass::ResidualHi, ah, bh, xh, rh);
        }
        assert_eq!(r, b);
        let rep = ctx.report();
        assert_eq!(rep.seconds(PaperCategory::SpMV), 0.0);
        assert!(rep.seconds(PaperCategory::Other) > 0.0);
    }

    #[test]
    fn norm_matches_sequential_for_small_vectors() {
        let mut ctx = GpuContext::with_reduction(DeviceModel::ideal(), ReductionOrder::Sequential);
        let x = vec![3.0f64, 4.0];
        let mut nrm = 0.0f64;
        {
            let mut st = crate::Stream::eager(&mut ctx);
            let (xh, nh) = (st.slice(&x), st.val_mut(&mut nrm));
            st.norm2_into(xh, nh);
        }
        assert_eq!(nrm, 5.0);
    }

    #[test]
    fn casts_roundtrip_values() {
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let x = vec![0.1f64, -2.5, 7.0];
        let mut lo = vec![0.0f32; 3];
        {
            let mut st = crate::Stream::eager(&mut ctx);
            let (xh, loh) = (st.slice(&x), st.slice_mut(&mut lo));
            st.cast(KernelClass::CastHost, xh, loh);
        }
        assert_eq!(lo[1], -2.5f32);
        let mut back = vec![0.0f64; 3];
        {
            let mut st = crate::Stream::eager(&mut ctx);
            let (loh, bh) = (st.slice(&lo), st.slice_mut(&mut back));
            st.cast(KernelClass::CastDevice, loh, bh);
        }
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
        assert_eq!(
            ctx.store_residual_spec::<f64>(&s),
            ctx.residual_spec::<f64>(&a)
        );
        assert_eq!(
            ctx.store_spmm_spec::<f64>(&s, 3),
            ctx.spmm_spec::<f64>(&a, 3)
        );
        let x = MultiVec::from_columns(&[&[1.0, 2.0, 3.0][..]]);
        let mut y = MultiVec::<f64>::zeros(3, 1);
        {
            let mut st = crate::Stream::eager(&mut ctx);
            let (sh, xh, yh) = (st.store(&s), st.block(&x), st.block_mut(&mut y));
            st.store_spmm(sh, xh, 1, yh);
        }
        assert_eq!(y.col(0), [0.0, 0.0, 4.0]);
        // A shadow store shrinks the value stream and changes the key tag.
        let sh = GpuStore::shadow_of(&a, Precision::Fp32);
        assert!(sh.value_bytes() < s.value_bytes());
        assert_ne!(sh.tag().code(), s.tag().code());
        assert!(ctx.store_residual_spec::<f64>(&sh).0 < ctx.store_residual_spec::<f64>(&s).0);
    }

    #[test]
    fn gemv_kernels_charge_the_right_categories() {
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let mut v = BasisStore::<f64>::native(4, 2);
        v.set_col(0, &[1.0, 0.0, 0.0, 0.0]);
        v.set_col(1, &[0.0, 1.0, 0.0, 0.0]);
        let w = [1.0, 2.0, 3.0, 4.0];
        let mut h = [0.0; 2];
        let mut w2 = w;
        {
            let mut st = crate::Stream::eager(&mut ctx);
            let (vh, wh, hh) = (st.basis(&v), st.slice(&w), st.slice_mut(&mut h));
            let w2h = st.slice_mut(&mut w2);
            st.gemv_t(vh, 2, wh, hh);
            st.gemv_n_sub(vh, 2, hh.read(), w2h);
        }
        assert_eq!(h, [1.0, 2.0]);
        assert_eq!(w2, [0.0, 0.0, 3.0, 4.0]);
        let rep = ctx.report();
        assert!(rep.seconds(PaperCategory::GemvTrans) > 0.0);
        assert!(rep.seconds(PaperCategory::GemvNoTrans) > 0.0);
    }
}
