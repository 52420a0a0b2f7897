//! The row-sharded composite backend: N inner backends, each owning a
//! contiguous row block, stitched together with explicit halo exchange
//! and cut-independent reduction trees.
//!
//! [`ShardedBackend`] is the dress rehearsal for a multi-GPU backend:
//! the matrix is cut at the nnz-balanced quantiles of
//! [`mpgmres_la::shard::ShardPlan`], each shard computes its own rows
//! reading only its owned vector slice plus an explicitly exchanged
//! halo buffer, and reductions are assembled from per-shard blocked
//! partials through the fixed-shape pairwise tree. Every kernel is
//! bit-identical to [`crate::ReferenceBackend`] by
//! construction (the determinism contract of [`mpgmres_la::shard`]),
//! which the cross-shard-count proptests in `tests/parity.rs` pin.
//!
//! Division of labor:
//!
//! - **Matrix kernels** (`spmv`/`residual` and, via the default
//!   column loop, `spmm`) run the shard plan's halo exchange plus
//!   interior/boundary ghost kernels. The storage-path kernels
//!   (`store_*`) row-partition the shared store row kernels (halo
//!   traffic is modeled on the plain-CSR path only).
//! - **Reductions** (`dot`/`norm2`, and `gemv_t` = one dot per basis
//!   column) concatenate per-shard blocked partials; the partial list
//!   is independent of the cuts, so the tree is too.
//! - **Elementwise kernels** (`axpy`/`scal`/`copy`) split the vectors
//!   at the shard cuts and dispatch each slice to that shard's inner
//!   backend — the composition seam where a real deployment would
//!   launch on shard-local devices.
//! - Everything else (`gemv_n_*`, lane and block kernels) delegates to
//!   shard 0's inner backend; by the determinism contract the result
//!   is the same bit pattern wherever it runs.
//!
//! In recorded streams (`mpgmres::GpuContext::stream`) the sharded
//! SpMV/SpMM/residual are expanded *by the stream itself* into
//! per-shard exchange + interior + boundary ops with real byte spans,
//! so the span-overlap graph prices communication/compute overlap on
//! the simulated timeline. The stream runs those pieces itself, in
//! record order, through the `mpgmres_la::shard` row kernels.

use std::sync::Arc;

use mpgmres_la::csr::Csr;
use mpgmres_la::multivec::MultiVec;
use mpgmres_la::multivector::MultiVector;
use mpgmres_la::shard::{self, ShardPlanCache};
use mpgmres_la::store::MatrixStore;
use mpgmres_la::vec_ops::ReductionOrder;
use mpgmres_scalar::Scalar;

use crate::{Backend, BackendScalar, ReferenceBackend, ScalarBackend};

/// A composite backend of `N` row shards (see the module docs).
#[derive(Debug)]
pub struct ShardedBackend {
    inners: Vec<Arc<dyn Backend>>,
    plans: ShardPlanCache,
}

impl ShardedBackend {
    /// `shards` reference-kernel shards (clamped to >= 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Self::from_backends(
            (0..shards)
                .map(|_| Arc::new(ReferenceBackend) as Arc<dyn Backend>)
                .collect(),
        )
    }

    /// Compose explicit inner backends, one per shard (each executes
    /// its shard's slice of the elementwise kernels).
    pub fn from_backends(inners: Vec<Arc<dyn Backend>>) -> Self {
        assert!(!inners.is_empty(), "sharded backend needs >= 1 shard");
        ShardedBackend {
            inners,
            plans: ShardPlanCache::new(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inners.len()
    }

    /// The cached shard plan for `a` (built on first use).
    pub fn plan_for<S: Scalar>(&self, a: &Csr<S>) -> Arc<shard::ShardPlan> {
        self.plans.get(a, self.shards())
    }

    fn ranges(&self, n: usize) -> impl Iterator<Item = (usize, usize)> {
        shard::even_ranges(n, self.shards())
    }
}

impl<S: BackendScalar> ScalarBackend<S> for ShardedBackend {
    fn spmv(&self, a: &Csr<S>, x: &[S], y: &mut [S]) {
        let plan = self.plan_for(a);
        let mut halo = Vec::new();
        plan.spmv(a, x, y, &mut halo);
    }

    fn residual(&self, a: &Csr<S>, b: &[S], x: &[S], r: &mut [S]) {
        let plan = self.plan_for(a);
        let mut halo = Vec::new();
        plan.residual(a, b, x, r, &mut halo);
    }

    fn gemv_t(
        &self,
        v: &MultiVector<S>,
        ncols: usize,
        w: &[S],
        h: &mut [S],
        order: ReductionOrder,
    ) {
        // One sharded dot per basis column: identical partial list and
        // tree as the reference `dot_ordered`, per column.
        for (j, hj) in h.iter_mut().enumerate().take(ncols) {
            *hj = shard::dot_sharded(v.col(j), w, order, self.ranges(w.len()));
        }
    }

    fn gemv_n_sub(&self, v: &MultiVector<S>, ncols: usize, h: &[S], w: &mut [S]) {
        S::view(&*self.inners[0]).gemv_n_sub(v, ncols, h, w);
    }

    fn gemv_n_add(&self, v: &MultiVector<S>, ncols: usize, h: &[S], y: &mut [S]) {
        S::view(&*self.inners[0]).gemv_n_add(v, ncols, h, y);
    }

    fn dot(&self, x: &[S], y: &[S], order: ReductionOrder) -> S {
        shard::dot_sharded(x, y, order, self.ranges(x.len()))
    }

    fn norm2(&self, x: &[S], order: ReductionOrder) -> S {
        shard::norm2_sharded(x, order, self.ranges(x.len()))
    }

    fn axpy(&self, alpha: S, x: &[S], y: &mut [S]) {
        for (s, (lo, hi)) in self.ranges(x.len()).enumerate() {
            S::view(&*self.inners[s]).axpy(alpha, &x[lo..hi], &mut y[lo..hi]);
        }
    }

    fn scal(&self, alpha: S, x: &mut [S]) {
        for (s, (lo, hi)) in self.ranges(x.len()).enumerate() {
            S::view(&*self.inners[s]).scal(alpha, &mut x[lo..hi]);
        }
    }

    fn copy(&self, src: &[S], dst: &mut [S]) {
        for (s, (lo, hi)) in self.ranges(src.len()).enumerate() {
            S::view(&*self.inners[s]).copy(&src[lo..hi], &mut dst[lo..hi]);
        }
    }

    fn store_spmv(&self, a: &MatrixStore<S>, x: &[S], y: &mut [S]) {
        for (lo, hi) in self.ranges(a.nrows()) {
            shard::store_spmv_rows(a, lo, hi, x, &mut y[lo..hi]);
        }
    }

    fn store_residual(&self, a: &MatrixStore<S>, b: &[S], x: &[S], r: &mut [S]) {
        for (lo, hi) in self.ranges(a.nrows()) {
            shard::store_residual_rows(a, lo, hi, &b[lo..hi], x, &mut r[lo..hi]);
        }
    }

    fn store_spmm(&self, a: &MatrixStore<S>, x: &MultiVec<S>, k: usize, y: &mut MultiVec<S>) {
        let xcols: Vec<&[S]> = (0..k).map(|j| x.col(j)).collect();
        let parts: Vec<(usize, usize)> = self.ranges(a.nrows()).collect();
        let mut slots = y.partition_rows_mut(k, &parts);
        for (&(lo, hi), cols) in parts.iter().zip(slots.iter_mut()) {
            shard::store_spmm_rows(a, &xcols, lo, hi, cols);
        }
    }
}

impl Backend for ShardedBackend {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn parallelism(&self) -> usize {
        self.inners.len()
    }

    fn shard_count(&self) -> usize {
        self.inners.len()
    }
}
