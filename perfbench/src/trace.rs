//! The traced run's instrumentation: an in-memory span recorder and a
//! forwarding [`Backend`] that records one span per kernel call.
//!
//! The library itself stays untouched. [`TracingBackend`] wraps the
//! backend `BackendKind::create()` returns and is handed to
//! `GpuContext::with_backend`, so every call the context, the stream
//! layer and the drivers make into the kernel layer passes through it.
//! The benchmark opens its own spans (a solve, a service step, a
//! preconditioner build) with [`Recorder::scope`]; kernel spans name
//! the innermost open benchmark span as their parent. Spans stay in
//! memory and are written once, as Chrome trace-event JSON, when the
//! run ends.

use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mpgmres::{Backend, BackendScalar, MatrixStore, MultiVec, ScalarBackend};
use mpgmres_backend::stream::Batch;
use mpgmres_la::basis::BasisStore;
use mpgmres_la::csr::Csr;
use mpgmres_la::multivector::MultiVector;
use mpgmres_la::vec_ops::ReductionOrder;

/// One recorded interval. `parent` is the id of the enclosing
/// benchmark span (0 at top level); kernel spans carry `id == 0`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Ops in the call: the batch length of `execute_batch`, 1 otherwise.
    pub width: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn is_kernel(&self) -> bool {
        self.id == 0
    }
}

/// Span store shared by the benchmark thread and the tracing backend.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Id of the innermost open benchmark span. Only the benchmark
    /// thread opens spans and issues kernel calls (pool workers run
    /// inside the wrapped backend, below the trace), so this is a plain
    /// statistic with no data published through it.
    parent: AtomicU32,
    next_id: AtomicU32,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
    }
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            parent: AtomicU32::new(0),
            next_id: AtomicU32::new(1),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking kernel")
            .push(span);
    }

    /// Run `f` inside a benchmark span named `name`; kernel calls made
    /// meanwhile become its children.
    pub fn scope<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let outer = self.parent.swap(id, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.parent.store(outer, Ordering::Relaxed);
        self.push(Span {
            name,
            id,
            parent: outer,
            start_ns,
            end_ns,
            width: 1,
        });
        r
    }

    /// Time one kernel-layer call as a child of the open benchmark span.
    fn call<R>(&self, name: &'static str, width: usize, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            id: 0,
            parent: self.parent.load(Ordering::Relaxed),
            start_ns,
            end_ns,
            width: width as u32,
        });
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking kernel")
            .clone()
    }

    /// Write every span as Chrome trace-event JSON (Perfetto opens it).
    pub fn write_chrome_json(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans().iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            write!(
                out,
                "{sep}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"width\":{}}}}}",
                s.name,
                if s.is_kernel() { "backend" } else { "bench" },
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                s.parent,
                s.width,
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// Forwarding backend: every method delegates to the wrapped backend
/// and records its wall time as one span.
#[derive(Debug)]
pub struct TracingBackend {
    inner: Arc<dyn Backend>,
    rec: Arc<Recorder>,
}

impl TracingBackend {
    pub fn wrap(inner: Arc<dyn Backend>, rec: Arc<Recorder>) -> Arc<dyn Backend> {
        Arc::new(TracingBackend { inner, rec })
    }
}

/// Forward each listed `ScalarBackend` method through the recorder.
macro_rules! forward {
    ($(fn $name:ident(&self $(, $arg:ident: $ty:ty)*) $(-> $ret:ty)?;)*) => {$(
        fn $name(&self $(, $arg: $ty)*) $(-> $ret)? {
            self.rec.call(stringify!($name), 1, || S::view(&*self.inner).$name($($arg),*))
        }
    )*};
}

impl<S: BackendScalar> ScalarBackend<S> for TracingBackend {
    forward! {
        fn spmv(&self, a: &Csr<S>, x: &[S], y: &mut [S]);
        fn residual(&self, a: &Csr<S>, b: &[S], x: &[S], r: &mut [S]);
        fn gemv_t(&self, v: &MultiVector<S>, ncols: usize, w: &[S], h: &mut [S], order: ReductionOrder);
        fn gemv_n_sub(&self, v: &MultiVector<S>, ncols: usize, h: &[S], w: &mut [S]);
        fn gemv_n_add(&self, v: &MultiVector<S>, ncols: usize, h: &[S], y: &mut [S]);
        fn dot(&self, x: &[S], y: &[S], order: ReductionOrder) -> S;
        fn norm2(&self, x: &[S], order: ReductionOrder) -> S;
        fn axpy(&self, alpha: S, x: &[S], y: &mut [S]);
        fn scal(&self, alpha: S, x: &mut [S]);
        fn copy(&self, src: &[S], dst: &mut [S]);
        fn spmm(&self, a: &Csr<S>, x: &MultiVec<S>, k: usize, y: &mut MultiVec<S>);
        fn block_gemv_t(&self, vs: &[&MultiVector<S>], ncols: usize, w: &MultiVec<S>, h: &mut [S], order: ReductionOrder);
        fn block_gemv_n_sub(&self, vs: &[&MultiVector<S>], ncols: usize, h: &[S], w: &mut MultiVec<S>);
        fn block_gemv_n_add(&self, vs: &[&MultiVector<S>], ncols: usize, h: &[S], y: &mut MultiVec<S>);
        fn block_dot(&self, x: &MultiVec<S>, y: &MultiVec<S>, k: usize, out: &mut [S], order: ReductionOrder);
        fn block_norm2(&self, x: &MultiVec<S>, k: usize, out: &mut [S], order: ReductionOrder);
        fn block_axpy(&self, alpha: &[S], x: &MultiVec<S>, k: usize, y: &mut MultiVec<S>);
        fn block_scal(&self, alpha: &[S], x: &mut MultiVec<S>, k: usize);
        fn block_copy(&self, src: &MultiVec<S>, k: usize, dst: &mut MultiVec<S>);
        fn store_spmv(&self, a: &MatrixStore<S>, x: &[S], y: &mut [S]);
        fn store_residual(&self, a: &MatrixStore<S>, b: &[S], x: &[S], r: &mut [S]);
        fn store_spmm(&self, a: &MatrixStore<S>, x: &MultiVec<S>, k: usize, y: &mut MultiVec<S>);
        fn lane_copy(&self, srcs: &[&[S]], dsts: &mut [&mut [S]]);
        fn lane_scal_copy(&self, alpha: &[S], srcs: &[&[S]], dsts: &mut [&mut [S]]);
        fn basis_gemv_t(&self, v: &BasisStore<S>, ncols: usize, w: &[S], h: &mut [S], order: ReductionOrder);
        fn basis_gemv_n_sub(&self, v: &BasisStore<S>, ncols: usize, h: &[S], w: &mut [S]);
        fn basis_gemv_n_add(&self, v: &BasisStore<S>, ncols: usize, h: &[S], y: &mut [S]);
        fn basis_append(&self, v: &mut BasisStore<S>, j: usize, src: &[S]);
        fn basis_scal_copy(&self, v: &mut BasisStore<S>, j: usize, alpha: S, src: &[S]);
        fn basis_promote_col(&self, v: &BasisStore<S>, j: usize, out: &mut [S]);
        fn basis_block_gemv_t(&self, vs: &[&BasisStore<S>], ncols: usize, w: &MultiVec<S>, h: &mut [S], order: ReductionOrder);
        fn basis_block_gemv_n_sub(&self, vs: &[&BasisStore<S>], ncols: usize, h: &[S], w: &mut MultiVec<S>);
        fn basis_block_gemv_n_add(&self, vs: &[&BasisStore<S>], ncols: usize, h: &[S], y: &mut MultiVec<S>);
        fn basis_lane_copy(&self, vs: &mut [&mut BasisStore<S>], j: usize, srcs: &[&[S]]);
        fn basis_lane_scal_copy(&self, vs: &mut [&mut BasisStore<S>], j: usize, alpha: &[S], srcs: &[&[S]]);
    }
}

impl Backend for TracingBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn parallelism(&self) -> usize {
        self.inner.parallelism()
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    /// The wrapped backend runs the batch's ops on itself, so one span
    /// covers the whole wavefront and spans never nest.
    fn execute_batch(&self, batch: Batch<'_>) {
        self.rec.call("execute_batch", batch.len(), || {
            self.inner.execute_batch(batch)
        })
    }
}

/// Per-layer figures derived from the spans of the traced phase.
pub struct TraceSummary {
    /// Share of the operation spans not covered by kernel-layer spans.
    pub core_self_share: f64,
    /// Share of the operation spans covered by kernel-layer spans.
    pub backend_busy_share: f64,
    /// Kernel-layer calls made inside operation spans.
    pub backend_calls: usize,
    /// Mean ops per `execute_batch` call.
    pub batch_width_mean: f64,
    pub spans: usize,
}

/// Summarise the kernel spans whose parent is a benchmark span named
/// `op` (a solve or a service step).
pub fn summarize(spans: &[Span], op: &str) -> TraceSummary {
    let ops: std::collections::HashMap<u32, u64> = spans
        .iter()
        .filter(|s| !s.is_kernel() && s.name == op)
        .map(|s| (s.id, s.dur_ns()))
        .collect();
    let op_ns: u64 = ops.values().sum();
    let mut busy_ns = 0u64;
    let mut calls = 0usize;
    let (mut batches, mut batch_ops) = (0usize, 0usize);
    for s in spans
        .iter()
        .filter(|s| s.is_kernel() && ops.contains_key(&s.parent))
    {
        busy_ns += s.dur_ns();
        calls += 1;
        if s.name == "execute_batch" {
            batches += 1;
            batch_ops += s.width as usize;
        }
    }
    let busy = busy_ns as f64 / op_ns.max(1) as f64;
    TraceSummary {
        core_self_share: 1.0 - busy,
        backend_busy_share: busy,
        backend_calls: calls,
        batch_width_mean: batch_ops as f64 / batches.max(1) as f64,
        spans: spans.len(),
    }
}
