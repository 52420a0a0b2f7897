//! Isolated, same-run calls into each layer's public functions at the
//! workload's shape: raw `la` kernels, the same kernels through the
//! backend's `ScalarBackend` view, one CGS2-shaped region timed five
//! ways (raw, backend, eager context, recorded stream, replayed
//! stream), the preconditioners, and the machine's streaming bandwidth.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mpgmres::precond::block_jacobi::BlockJacobi;
use mpgmres::precond::poly::PolyPreconditioner;
use mpgmres::precond::Preconditioner;
use mpgmres::stream::region;
use mpgmres::{
    Backend, BackendScalar, GpuContext, GpuMatrix, MatrixStore, MultiVec, Precision,
    ReferenceBackend, RegionKey,
};
use mpgmres_la::basis::BasisStore;
use mpgmres_la::csr::Csr;
use mpgmres_la::par;
use mpgmres_la::vec_ops::{self, ReductionOrder};

use crate::metrics::Metrics;
use crate::problem::{self, Workload, BJ_BLOCK, POLY_DEGREE};
use crate::stats::{median, per_call_us, Rng};

const ORDER: ReductionOrder = ReductionOrder::GPU_LIKE;

/// Last-level cache of the sizing machine (105 MiB L3). The triad's
/// three arrays together span four times this.
const LLC_BYTES: usize = 105 << 20;

fn random_vec<S: BackendScalar>(rng: &mut Rng, n: usize) -> Vec<S> {
    (0..n).map(|_| S::from_f64(rng.unit() - 0.5)).collect()
}

/// A native Krylov basis of `cols` random columns.
fn random_basis<S: BackendScalar>(rng: &mut Rng, n: usize, cols: usize) -> BasisStore<S> {
    let mut v = BasisStore::<S>::native(n, cols);
    for j in 0..cols {
        v.set_col(j, &random_vec::<S>(rng, n));
    }
    v
}

/// Raw kernels and their backend-view twins, fp64 unless named.
pub fn kernels(w: Workload, a: &GpuMatrix<f64>, backend: &dyn Backend, m: &mut Metrics) {
    let mut rng = Rng::new(0x1a7e5, 1);
    let csr = a.csr();
    let n = a.n();
    let ncols = w.m() / 2;
    let x: Vec<f64> = random_vec(&mut rng, n);
    let mut y = vec![0.0f64; n];
    let basis = random_basis::<f64>(&mut rng, n, w.m() + 1);
    let v = basis.expect_native();
    let mut wv: Vec<f64> = random_vec(&mut rng, n);
    let mut h = vec![1e-6f64; ncols];
    let xs = MultiVec::from_columns(&[&x, &wv, &x, &wv]);
    let mut ys = MultiVec::<f64>::zeros(n, 4);
    let a32: Csr<f32> = csr.convert();
    let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
    let mut y32 = vec![0.0f32; n];
    let store32 = MatrixStore::shadow(csr, Precision::Fp32);

    let spmv = per_call_us(|| csr.spmv(&x, &mut y));
    let gemv_t = per_call_us(|| v.gemv_t(ncols, &wv, &mut h, ORDER));
    h.fill(1e-6);
    m.put("la.spmv_us", spmv, "us");
    m.put(
        "la.spmv32_us",
        per_call_us(|| a32.spmv(&x32, &mut y32)),
        "us",
    );
    m.put("la.gemv_t_us", gemv_t, "us");
    m.put(
        "la.gemv_n_us",
        per_call_us(|| v.gemv_n_sub(ncols, &h, &mut wv)),
        "us",
    );
    m.put(
        "la.dot_us",
        per_call_us(|| vec_ops::dot_ordered(&x, &y, ORDER)),
        "us",
    );
    m.put(
        "la.axpy_us",
        per_call_us(|| vec_ops::axpy(1e-9, &x, &mut y)),
        "us",
    );
    m.put(
        "la.spmm4_us",
        per_call_us(|| par::spmm_parts(&[(0, n)], csr, &xs, 4, &mut ys)),
        "us",
    );
    m.put(
        "la.store32_spmv_us",
        per_call_us(|| store32.spmv(&x, &mut y)),
        "us",
    );
    // Computed bytes: every stored value and index once, the row
    // pointers, x once and y once (perfect reuse of x assumed).
    let spmv_bytes = csr.nnz() * (8 + 4) + (n + 1) * 8 + 2 * n * 8;
    let gemv_t_bytes = (ncols + 1) * n * 8;
    m.put("la.spmv_gbs", spmv_bytes as f64 / (spmv * 1e3), "GB/s");
    m.put(
        "la.gemv_t_gbs",
        gemv_t_bytes as f64 / (gemv_t * 1e3),
        "GB/s",
    );

    let view = <f64 as BackendScalar>::view(backend);
    m.put(
        "backend.spmv_us",
        per_call_us(|| view.spmv(csr, &x, &mut y)),
        "us",
    );
    m.put(
        "backend.gemv_t_us",
        per_call_us(|| view.gemv_t(v, ncols, &wv, &mut h, ORDER)),
        "us",
    );
    h.fill(1e-6);
    m.put(
        "backend.gemv_n_us",
        per_call_us(|| view.gemv_n_sub(v, ncols, &h, &mut wv)),
        "us",
    );
    m.put(
        "backend.spmm4_us",
        per_call_us(|| view.spmm(csr, &xs, 4, &mut ys)),
        "us",
    );
}

/// Operands of one CGS2-shaped region: SpMV, two rounds of GEMV-T and
/// GEMV-N against `ncols` basis columns, and a norm.
struct Region<S: BackendScalar> {
    a: GpuMatrix<S>,
    v: BasisStore<S>,
    x: Vec<S>,
    w: Vec<S>,
    h1: Vec<S>,
    h2: Vec<S>,
    nrm: S,
    ncols: usize,
}

impl<S: BackendScalar> Region<S> {
    fn new(a: &GpuMatrix<f64>, m: usize) -> Self {
        let mut rng = Rng::new(0xc652, 2);
        let n = a.n();
        let ncols = m / 2;
        Region {
            a: a.convert::<S>(),
            v: random_basis(&mut rng, n, m + 1),
            x: random_vec(&mut rng, n),
            w: vec![S::zero(); n],
            h1: vec![S::zero(); ncols],
            h2: vec![S::zero(); ncols],
            nrm: S::zero(),
            ncols,
        }
    }

    fn raw(&mut self) -> S {
        let v = self.v.expect_native();
        let k = self.ncols;
        self.a.csr().spmv(&self.x, &mut self.w);
        v.gemv_t(k, &self.w, &mut self.h1, ORDER);
        v.gemv_n_sub(k, &self.h1, &mut self.w);
        v.gemv_t(k, &self.w, &mut self.h2, ORDER);
        v.gemv_n_sub(k, &self.h2, &mut self.w);
        vec_ops::norm2_ordered(&self.w, ORDER)
    }

    fn via(&mut self, backend: &dyn Backend) -> S {
        let b = S::view(backend);
        let v = self.v.expect_native();
        let k = self.ncols;
        b.spmv(self.a.csr(), &self.x, &mut self.w);
        b.gemv_t(v, k, &self.w, &mut self.h1, ORDER);
        b.gemv_n_sub(v, k, &self.h1, &mut self.w);
        b.gemv_t(v, k, &self.w, &mut self.h2, ORDER);
        b.gemv_n_sub(v, k, &self.h2, &mut self.w);
        b.norm2(&self.w, ORDER)
    }

    /// The region through the context: eager when the context's
    /// streaming is off, recorded otherwise, replayed when keyed.
    fn ctx(&mut self, ctx: &mut GpuContext, key: Option<RegionKey>) -> S {
        let mut st = match key {
            Some(key) => ctx.stream_for(key),
            None => ctx.stream(),
        };
        let k = self.ncols;
        let ah = st.matrix(&self.a);
        let xh = st.slice(&self.x);
        let vh = st.basis(&self.v);
        let wh = st.slice_mut(&mut self.w);
        let h1 = st.slice_mut(&mut self.h1);
        let h2 = st.slice_mut(&mut self.h2);
        let nh = st.val_mut(&mut self.nrm);
        st.spmv(ah, xh, wh);
        st.gemv_t(vh, k, wh.read(), h1);
        st.gemv_n_sub(vh, k, h1.read(), wh);
        st.gemv_t(vh, k, wh.read(), h2);
        st.gemv_n_sub(vh, k, h2.read(), wh);
        st.norm2_into(wh.read(), nh);
        st.sync();
        self.nrm
    }
}

/// The five-rung CGS2 ladder in the workload's working precision.
fn ladder_in<S: BackendScalar>(
    w: Workload,
    a: &GpuMatrix<f64>,
    backend: &Arc<dyn Backend>,
    m: &mut Metrics,
) {
    let mut r = Region::<S>::new(a, w.m());
    let mut ctx = problem::context(&w.device(a.n()), backend.clone());
    let key = RegionKey::new(region::GMRES_CGS, a.n())
        .with_ncols(r.ncols)
        .with_k(2);
    let raw = per_call_us(|| r.raw());
    let via = per_call_us(|| r.via(&**backend));
    let reference = per_call_us(|| r.via(&ReferenceBackend));
    ctx.set_streaming(false);
    let eager = per_call_us(|| r.ctx(&mut ctx, None));
    ctx.set_streaming(true);
    let record = per_call_us(|| r.ctx(&mut ctx, None));
    let replay = per_call_us(|| r.ctx(&mut ctx, Some(key)));
    m.put("la.cgs2_us", raw, "us");
    m.put("backend.cgs2_us", via, "us");
    m.put("ctx.cgs2_eager_us", eager, "us");
    m.put("stream.cgs2_record_us", record, "us");
    m.put("stream.cgs2_replay_us", replay, "us");
    m.put("backend.over_la", via / raw, "ratio");
    m.put("backend.par_speedup", reference / via, "ratio");
    m.put("ctx.over_backend", eager / via, "ratio");
    m.put("stream.over_eager", replay / eager, "ratio");
}

pub fn ladder(w: Workload, a: &GpuMatrix<f64>, backend: &Arc<dyn Backend>, m: &mut Metrics) {
    if w.works_in_f32() {
        ladder_in::<f32>(w, a, backend, m)
    } else {
        ladder_in::<f64>(w, a, backend, m)
    }
}

/// Build and apply costs of the fp32 polynomial and of fp64 block
/// Jacobi at the workload's shape (medians of three builds).
pub fn preconditioners(
    w: Workload,
    a: &GpuMatrix<f64>,
    backend: &Arc<dyn Backend>,
    m: &mut Metrics,
) {
    let mut ctx = problem::context(&w.device(a.n()), backend.clone());
    let a32 = a.convert::<f32>();
    let mut rng = Rng::new(0x9e3, 3);
    let x: Vec<f64> = random_vec(&mut rng, a.n());
    let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
    let (mut y, mut y32) = (vec![0.0f64; a.n()], vec![0.0f32; a.n()]);

    let mut builds = Vec::new();
    let mut poly = None;
    for _ in 0..3 {
        let t = Instant::now();
        poly = Some(
            PolyPreconditioner::build_auto_seed(&mut ctx, &a32, POLY_DEGREE)
                .expect("the fp32 polynomial builds on every workload matrix"),
        );
        builds.push(t.elapsed().as_secs_f64());
    }
    m.put("precond.poly_build_s", median(&builds), "s");
    let poly = poly.expect("built above");
    m.put(
        "precond.poly_apply_us",
        per_call_us(|| poly.apply(&mut ctx, Some(&a32), &x32, &mut y32)),
        "us",
    );

    builds.clear();
    let mut bj = None;
    for _ in 0..3 {
        let t = Instant::now();
        bj = Some(black_box(BlockJacobi::build(a, BJ_BLOCK)));
        builds.push(t.elapsed().as_secs_f64());
    }
    m.put("precond.bj_build_s", median(&builds), "s");
    let bj = bj.expect("built above");
    m.put(
        "precond.bj_apply_us",
        per_call_us(|| bj.apply(&mut ctx, Some(a), &x, &mut y)),
        "us",
    );
}

/// Single-thread STREAM-style triad `a = b + s c` over three arrays
/// spanning four times the last-level cache; bytes computed as three
/// streams of 8-byte words (write-allocate traffic not counted).
pub fn triad_gbs() -> (f64, usize) {
    let len = 4 * LLC_BYTES / (3 * 8) + 1;
    let mut a = vec![0.0f64; len];
    let b: Vec<f64> = (0..len).map(|i| (i % 7) as f64).collect();
    let c: Vec<f64> = (0..len).map(|i| (i % 5) as f64).collect();
    let mut rates = Vec::new();
    for pass in 0..5 {
        let s = 1.0 + pass as f64 * 1e-3;
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        rates.push((3 * 8 * len) as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    (median(&rates), 3 * 8 * len)
}
