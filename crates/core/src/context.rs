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
use mpgmres_gpusim::cost::{self, HostWork, MatrixOperand};
use mpgmres_gpusim::{DeviceModel, KernelClass, Profiler, TimingReport};
use mpgmres_la::csr::Csr;
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

/// The system operator of a solve: the plain matrix in the working
/// precision, or a (possibly low-precision) storage path prepared with
/// [`GpuStore`]. Copy-cheap — both variants borrow. The solvers and
/// the stream's matrix ops all take this one type, and
/// [`Operator::operand`] describes either kind to the cost model.
#[derive(Clone, Copy, Debug)]
pub enum Operator<'a, S> {
    /// Plain CSR matrix in the working precision.
    Matrix(&'a GpuMatrix<S>),
    /// A (possibly low-precision) packed storage path.
    Store(&'a GpuStore<S>),
}

impl<'a, S: Scalar> Operator<'a, S> {
    /// Dimension (square systems).
    pub fn n(&self) -> usize {
        match self {
            Operator::Matrix(a) => a.n(),
            Operator::Store(a) => a.n(),
        }
    }

    /// Column count (equals [`Operator::n`] for square systems).
    pub(crate) fn ncols(&self) -> usize {
        match self {
            Operator::Matrix(a) => a.csr().ncols(),
            Operator::Store(a) => a.store().ncols(),
        }
    }

    /// Stored nonzeros.
    pub fn nnz(&self) -> usize {
        match self {
            Operator::Matrix(a) => a.nnz(),
            Operator::Store(a) => a.nnz(),
        }
    }

    /// The operator as the cost model prices it: a plain matrix is a
    /// uniform store at `S`.
    pub fn operand(&self) -> MatrixOperand {
        let (value_bytes, bandwidth) = match self {
            Operator::Matrix(a) => (a.nnz() * S::BYTES, a.bandwidth()),
            Operator::Store(a) => (a.value_bytes(), a.bandwidth()),
        };
        MatrixOperand {
            n: self.n(),
            nnz: self.nnz(),
            value_bytes,
            bandwidth,
            value_p: self.tag().dominant(),
            work_p: S::PRECISION,
        }
    }

    /// The storage-precision tag (uniform at `S` for the plain matrix).
    pub fn tag(&self) -> PrecisionTag {
        match self {
            Operator::Matrix(_) => PrecisionTag::Uniform(S::PRECISION),
            Operator::Store(a) => a.tag(),
        }
    }

    /// The plain matrix, for the preconditioner interface: `None` on a
    /// storage path, which does not carry it.
    pub fn matrix(&self) -> Option<&'a GpuMatrix<S>> {
        match *self {
            Operator::Matrix(a) => Some(a),
            Operator::Store(_) => None,
        }
    }

    /// Stable identity of the borrowed operand (groups service requests
    /// that share a matrix).
    pub(crate) fn addr(&self) -> usize {
        match *self {
            Operator::Matrix(a) => a as *const GpuMatrix<S> as usize,
            Operator::Store(a) => a as *const GpuStore<S> as usize,
        }
    }
}

/// Reused per-region recording state: the region's op graph (spans
/// and finish times of the overlap timeline). Lives on the context (not
/// the stream) so it keeps its capacity across regions; it is cleared
/// when the next region opens. `stats` counts recorded regions and ops
/// across regions.
#[derive(Debug, Default)]
pub(crate) struct StreamScratch {
    pub(crate) graph: OpGraph,
    pub(crate) stats: StreamStats,
}

/// Instrumented kernel executor: charges the profiler, delegates
/// computation to the configured [`Backend`].
///
/// Every kernel runs through a [`Stream`](crate::Stream) opened by
/// [`GpuContext::stream`]: it registers buffers as handles that carry
/// their own pointers and runs each op at its record call, in record
/// order. A recording stream
/// also tracks every op's read/write handle spans, so the simulated
/// timeline overlaps independent ops (the critical-path figure of
/// [`TimingReport`]); the computed bits are the same either way.
///
/// [`GpuContext::set_streaming`] turns recording off globally: every
/// op is then charged at the current critical time, as a serial chain —
/// the switch the recorded-vs-eager parity suite flips.
/// Preconditioner applies and the solvers' host-decided steps (casts,
/// MGS projections, refinement updates) run on streams that are always
/// eager. The context itself runs no kernel and prices none: each
/// stream op prices itself with `mpgmres_gpusim::cost` on the context's
/// device and charges the context's profiler.
#[derive(Debug)]
pub struct GpuContext {
    device: DeviceModel,
    profiler: Profiler,
    reduction: ReductionOrder,
    backend: Arc<dyn Backend>,
    streaming: bool,
    scratch: StreamScratch,
}

// A context may move to, or be shared with, another thread (a serving
// group driven from a worker). Every field is `Send + Sync` on its own:
// the context keeps no pointers between regions.
const _: () = {
    fn send_sync<T: Send + Sync>() {}
    let _ = send_sync::<GpuContext>;
};

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

    /// Reset the per-region recording state (keeps allocations).
    pub(crate) fn scratch_reset(&mut self) {
        self.scratch.graph.clear();
    }

    /// Charge arbitrary host dense flops (polynomial setup eigensolve).
    pub fn charge_host_flops(&mut self, flops: usize) {
        self.charge_host(HostWork::Flops(flops));
    }

    /// Charge one piece of host work as HostDense at the makespan: it
    /// serializes against the device stream.
    pub(crate) fn charge_host(&mut self, work: HostWork) {
        let t = cost::host(&self.device, work);
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

    /// A 5x5 operator whose values no narrower precision holds exactly,
    /// spanning the split threshold used below.
    fn inexact_matrix() -> GpuMatrix<f64> {
        let mut coo = mpgmres_la::coo::Coo::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 4.0 + 1.0 / (3.0 + i as f64));
            if i > 0 {
                coo.push(i, i - 1, -0.1 * (i as f64) - 1e-3 / 7.0);
            }
            if i + 2 < 5 {
                coo.push(i, i + 2, 0.7 / 9.0);
            }
        }
        GpuMatrix::new(coo.into_csr())
    }

    /// The matrix ops a stream records over an operator.
    #[derive(Clone, Copy, Debug)]
    enum MatOp {
        Spmv,
        Residual,
        Spmm(usize),
    }

    const MAT_OPS: [MatOp; 4] = [MatOp::Spmv, MatOp::Residual, MatOp::Spmm(1), MatOp::Spmm(3)];

    /// Three input columns of length `n`: `x` is column 0 (the SpMM
    /// reads its leading `k`), `b` is column 2.
    fn op_inputs(n: usize) -> MultiVec<f64> {
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|c| (0..n).map(|i| 0.3 + (i * (c + 2)) as f64 / 11.0).collect())
            .collect();
        MultiVec::from_columns(&[&cols[0][..], &cols[1][..], &cols[2][..]])
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|e| e.to_bits()).collect()
    }

    /// Record `op` over `a` in one region of a fresh context: the
    /// output bits (column-major for SpMM) and the op's charge as
    /// (seconds bits, bytes, calls).
    fn record_op(a: Operator<'_, f64>, op: MatOp) -> (Vec<u64>, (u64, u64, u64)) {
        let n = a.n();
        let x = op_inputs(n);
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let mut y = MultiVec::<f64>::zeros(n, 3);
        {
            let mut st = ctx.stream();
            let (ah, xh, yh) = (st.operator(a), st.block(&x), st.block_mut(&mut y));
            match op {
                MatOp::Spmv => st.spmv(ah, xh.col(0), yh.col_mut(0)),
                MatOp::Residual => {
                    st.residual_as(KernelClass::SpMV, ah, xh.col(2), xh.col(0), yh.col_mut(0))
                }
                MatOp::Spmm(k) => st.spmm(ah, xh, k, yh),
            }
            st.sync();
        }
        let c = ctx.profiler().class_stats(KernelClass::SpMV);
        (bits(y.data()), (c.seconds.to_bits(), c.bytes, c.calls))
    }

    /// `op` called directly on the store's own kernel, laid out like
    /// [`record_op`]'s output.
    fn direct_op(m: &MatrixStore<f64>, op: MatOp) -> Vec<u64> {
        let x = op_inputs(m.nrows());
        let mut y = MultiVec::<f64>::zeros(m.nrows(), 3);
        match op {
            MatOp::Spmv => m.spmv(x.col(0), y.col_mut(0)),
            MatOp::Residual => m.residual(x.col(2), x.col(0), y.col_mut(0)),
            MatOp::Spmm(k) => m.spmm(&x, k, &mut y),
        }
        bits(y.data())
    }

    /// Both operator kinds run through the same recorded stream ops: a
    /// plain matrix and its plain store charge the same seconds, bytes
    /// and calls and compute the same bits, and every narrow storage
    /// path computes exactly what its `MatrixStore` kernel does.
    #[test]
    fn both_operator_kinds_record_through_the_same_ops() {
        let a = inexact_matrix();
        let plain = GpuStore::plain_of(&a);
        for op in MAT_OPS {
            let (ya, ca) = record_op(Operator::Matrix(&a), op);
            let (ys, cs) = record_op(Operator::Store(&plain), op);
            assert_eq!(ya, ys, "{op:?}: plain store computes like the matrix");
            assert_eq!(ca, cs, "{op:?}: plain store charges like the matrix");
            assert_eq!(ca.2, 1, "{op:?}: one call");
        }
        let paths = [
            GpuStore::shadow_of(&a, Precision::Fp32),
            GpuStore::shadow_of(&a, Precision::Fp16),
            GpuStore::split_of(&a, 0.5),
        ];
        assert!(matches!(paths[2].store(), MatrixStore::Split(_)));
        for s in &paths {
            for op in MAT_OPS {
                let (y, c) = record_op(Operator::Store(s), op);
                assert_eq!(y, direct_op(s.store(), op), "{} {op:?}: bits", s.tag());
                // A narrow value stream is cheaper than the plain one.
                let (_, cp) = record_op(Operator::Store(&plain), op);
                assert!(c.1 < cp.1, "{} {op:?}: bytes {} !< {}", s.tag(), c.1, cp.1);
                assert!(f64::from_bits(c.0) < f64::from_bits(cp.0));
            }
            assert!(s.value_bytes() < plain.value_bytes());
            assert_ne!(s.tag().code(), plain.tag().code());
        }
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
