//! The command recorder: solver regions register buffers into an
//! arena, record kernel ops against stable handles, and `sync` derives
//! the region's dependency DAG and submits it.
//!
//! [`Stream`] is the recorded counterpart of [`GpuContext`]'s eager
//! kernel methods. A region opens a stream, **registers** each buffer
//! it will touch exactly once (obtaining a `Copy` handle), then records
//! kernel calls against the handles. Each record call validates shapes
//! and charges the profiler exactly like its eager twin (the two share
//! the same cost specs, so the per-class accounting of a recorded run
//! is bit-identical to an eager run of the same call sequence); the op
//! itself is a [`Span`]-shaped node in a payload-free graph plus a
//! plain-data payload binding. At [`Stream::sync`] (or drop) the
//! graph's wavefronts of mutually independent ready ops go to
//! [`Backend::execute_batch`](mpgmres_backend::Backend), which may run
//! them concurrently. The graph, arena and bindings live in the
//! context's reused scratch and are cleared when the next region opens,
//! so every region derives its own DAG.
//!
//! # Safety story (why the record methods are safe functions)
//!
//! Every registration method ties the buffer's borrow to the stream's
//! lifetime: `slice_mut(&'c mut [S])` keeps the buffer exclusively
//! borrowed until the stream syncs, so the host *cannot* touch it
//! mid-region, and the arena pointer derived once at registration stays
//! valid under Stacked Borrows (nothing ever reborrows the owner while
//! the stream lives). Ops hold handles, not pointers, so there are no
//! per-op raw views for a later reborrow to invalidate, no `unsafe fn`
//! record surface, and no per-region `// SAFETY` comments in the
//! solvers. The borrow checker proves the stream contract: buffers
//! outlive sync, and the host neither reads nor writes them in between.
//!
//! Two things distinguish a recorded region from eager execution, and
//! bit-identical results are *not* one of them (see the determinism
//! notes in [`mpgmres_backend::stream`]):
//!
//! - independent ops may execute concurrently on a parallel backend;
//! - the profiler charges each op on the overlap-aware timeline at the
//!   finish time of its dependencies, so the report's critical path can
//!   drop below the serial sum. For a chain-shaped region the two
//!   timelines agree bit-for-bit.
//!
//! With [`GpuContext::set_streaming`] turned off, every record call
//! executes eagerly in place (record + immediate sync), which is the
//! reference behavior the parity suite compares against. Reading a
//! result slot (e.g. a [`Stream::norm2_into`] target) is only possible
//! after `sync` releases the registration borrows, at which point the
//! value is defined — the type system enforces the old "don't read
//! before sync" rule too.

use std::marker::PhantomData;
use std::sync::Arc;

use mpgmres_backend::stream::{BoundOp, ExecFn, OpArgs, OpKind, Span};
use mpgmres_backend::{Backend, BackendScalar};
use mpgmres_gpusim::KernelClass;
use mpgmres_la::basis::BasisStore;
use mpgmres_la::multivec::MultiVec;
use mpgmres_la::raw::BufferArena;
use mpgmres_la::shard::{self, ShardPlan};
use mpgmres_scalar::Scalar;

use crate::context::{GpuContext, GpuMatrix, GpuStore, ShardedMatOp};

/// Region ids. Kept only for the standalone `perfbench/` benchmark,
/// which still names its region through [`RegionKey`].
pub mod region {
    /// Single-RHS CGS1/CGS2 SpMV + orthogonalization region. Kept only
    /// for the standalone `perfbench/` benchmark.
    pub const GMRES_CGS: u32 = 1;
}

/// A field-less region name. Kept only for the standalone `perfbench/`
/// benchmark: every region derives its own graph, so the builder
/// arguments are ignored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RegionKey;

impl RegionKey {
    /// Kept only for the standalone `perfbench/` benchmark; ignores its
    /// arguments.
    pub fn new(_region: u32, _n: usize) -> Self {
        RegionKey
    }

    /// Kept only for the standalone `perfbench/` benchmark; ignores
    /// `ncols`.
    pub fn with_ncols(self, _ncols: usize) -> Self {
        self
    }

    /// Kept only for the standalone `perfbench/` benchmark; ignores `k`.
    pub fn with_k(self, _k: usize) -> Self {
        self
    }
}

/// Recorded-region counters. Kept only for the standalone `perfbench/`
/// benchmark: `hits` is always 0, `misses` counts submitted recorded
/// regions and `nodes_allocated` counts recorded ops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Always 0 (no region reuses another region's graph).
    pub hits: u64,
    /// Recorded regions submitted (empty regions excluded).
    pub misses: u64,
    /// Ops recorded into graphs.
    pub nodes_allocated: u64,
}

// ----- typed buffer handles -------------------------------------------

/// Handle of a registered [`GpuMatrix`].
#[derive(Clone, Copy, Debug)]
pub struct MatRef<S> {
    id: u32,
    _s: PhantomData<fn() -> S>,
}

/// Handle of a registered [`GpuStore`] (a matrix in a possibly
/// low-precision storage path).
#[derive(Clone, Copy, Debug)]
pub struct StoreRef<S> {
    id: u32,
    _s: PhantomData<fn() -> S>,
}

/// Handle of a registered Krylov basis ([`BasisStore`]): native
/// working-precision columns or a compressed (fp32/fp16) column array.
/// The handle carries the store's element width so recorded reads
/// declare the exact narrow byte span a kernel streams, and charges are
/// priced with the store's own traffic.
#[derive(Clone, Copy, Debug)]
pub struct BasisRef<S> {
    id: u32,
    n: u32,
    ncap: u32,
    ebytes: u32,
    _s: PhantomData<fn() -> S>,
}

impl<S: Scalar> BasisRef<S> {
    fn is_native(self) -> bool {
        self.ebytes as usize == std::mem::size_of::<S>()
    }

    /// Read span of the first `ncols` stored columns: native bases
    /// declare the whole object, so a native read waits for every
    /// recorded column write to the same basis (the edges the pinned
    /// native timelines are charged from); compressed bases declare the
    /// exact narrow element prefix one GEMV pass streams.
    fn read_span(self, ncols: u32) -> Span {
        if self.is_native() {
            Span::whole(self.id)
        } else {
            Span::elems(self.id, 0, ncols * self.n, self.ebytes as usize)
        }
    }

    /// Read view of basis column `j` (native-only: column views are
    /// working-precision slices, which a compressed store does not
    /// expose — the native-only pipelined drivers are the only users).
    pub fn col(self, j: usize) -> ArgSlice<S> {
        assert!(self.is_native(), "basis column views are native-only");
        let j = u32::try_from(j).expect("basis column");
        assert!(j < self.ncap, "basis column out of range");
        ArgSlice {
            buf: self.id,
            off: j * self.n,
            len: self.n,
            _s: PhantomData,
        }
    }
}

/// Handle of a *mutably* registered Krylov basis: the pipelined
/// `BlockGmres` regions read the basis whole (batched CGS kernels)
/// while the recorded basis extension writes one column — the mixed
/// access pattern that needs a single exclusive registration with
/// column-granular spans.
#[derive(Clone, Copy, Debug)]
pub struct BasisMut<S> {
    id: u32,
    n: u32,
    ncap: u32,
    _s: PhantomData<fn() -> S>,
}

impl<S: Scalar> BasisMut<S> {
    /// Read view of the whole basis (batched CGS kernels). Mutable
    /// registrations are native-only (see [`Stream::basis_mut`]), so
    /// the element width is the working precision's.
    pub fn read(self) -> BasisRef<S> {
        BasisRef {
            id: self.id,
            n: self.n,
            ncap: self.ncap,
            ebytes: std::mem::size_of::<S>() as u32,
            _s: PhantomData,
        }
    }

    /// Read view of basis column `j`.
    pub fn col(self, j: usize) -> ArgSlice<S> {
        self.read().col(j)
    }

    /// Write view of basis column `j` (the recorded basis extension).
    pub fn col_mut(self, j: usize) -> ArgSliceMut<S> {
        let c = self.col(j);
        ArgSliceMut {
            buf: c.buf,
            off: c.off,
            len: c.len,
            _s: PhantomData,
        }
    }
}

/// Handle list of a per-lane basis set (the batched kernels' `vs`),
/// uniform in shape and storage width across the lanes.
#[derive(Clone, Copy, Debug)]
pub struct BasisList<S> {
    start: u32,
    len: u32,
    n: u32,
    ncap: u32,
    ebytes: u32,
    _s: PhantomData<fn() -> S>,
}

impl<S> BasisList<S> {
    /// Number of bases in the list.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Read view of (part of) a registered slice or block column.
#[derive(Clone, Copy, Debug)]
pub struct ArgSlice<S> {
    buf: u32,
    off: u32,
    len: u32,
    _s: PhantomData<fn() -> S>,
}

/// Write view of (part of) a mutably registered slice or block column.
#[derive(Clone, Copy, Debug)]
pub struct ArgSliceMut<S> {
    buf: u32,
    off: u32,
    len: u32,
    _s: PhantomData<fn() -> S>,
}

/// Write view of a single scalar result slot.
#[derive(Clone, Copy, Debug)]
pub struct ArgValMut<S> {
    buf: u32,
    off: u32,
    _s: PhantomData<fn() -> S>,
}

impl<S: Scalar> ArgSlice<S> {
    /// Read view of `len` elements starting at element `off` within
    /// this view (the pipelined driver's lagged per-lane sub-spans).
    pub fn sub(self, off: usize, len: usize) -> ArgSlice<S> {
        let off = u32::try_from(off).expect("arg offset");
        let len = u32::try_from(len).expect("arg length");
        assert!(off + len <= self.len, "arg sub-view out of range");
        ArgSlice {
            buf: self.buf,
            off: self.off + off,
            len,
            _s: PhantomData,
        }
    }

    fn span(&self) -> Span {
        Span::elems(self.buf, self.off, self.len, std::mem::size_of::<S>())
    }
}

impl<S: Scalar> ArgSliceMut<S> {
    /// Read view of the same elements.
    pub fn read(self) -> ArgSlice<S> {
        ArgSlice {
            buf: self.buf,
            off: self.off,
            len: self.len,
            _s: PhantomData,
        }
    }

    /// Write view of the single element at `i` (per-lane result slots).
    pub fn at(self, i: usize) -> ArgValMut<S> {
        let i = u32::try_from(i).expect("arg index");
        assert!(i < self.len, "arg slot out of range");
        ArgValMut {
            buf: self.buf,
            off: self.off + i,
            _s: PhantomData,
        }
    }

    fn span(&self) -> Span {
        Span::elems(self.buf, self.off, self.len, std::mem::size_of::<S>())
    }

    fn prefix_span(&self, len: u32) -> Span {
        debug_assert!(len <= self.len);
        Span::elems(self.buf, self.off, len, std::mem::size_of::<S>())
    }
}

impl<S: Scalar> ArgValMut<S> {
    fn span(&self) -> Span {
        Span::elems(self.buf, self.off, 1, std::mem::size_of::<S>())
    }
}

/// Handle of a read-registered right-hand-side block ([`MultiVec`]):
/// addressable as a whole (batched kernels) or per column.
#[derive(Clone, Copy, Debug)]
pub struct BlockRef<S> {
    id: u32,
    n: u32,
    k: u32,
    _s: PhantomData<fn() -> S>,
}

/// Handle of a mutably registered block.
#[derive(Clone, Copy, Debug)]
pub struct BlockMut<S> {
    id: u32,
    n: u32,
    k: u32,
    _s: PhantomData<fn() -> S>,
}

impl<S: Scalar> BlockRef<S> {
    /// Read view of column `j`.
    pub fn col(self, j: usize) -> ArgSlice<S> {
        let j = u32::try_from(j).expect("block column");
        assert!(j < self.k, "block column out of range");
        ArgSlice {
            buf: self.id,
            off: j * self.n,
            len: self.n,
            _s: PhantomData,
        }
    }
}

impl<S: Scalar> BlockMut<S> {
    /// Read view of the whole block (batched kernels).
    pub fn read(self) -> BlockRef<S> {
        BlockRef {
            id: self.id,
            n: self.n,
            k: self.k,
            _s: PhantomData,
        }
    }

    /// Read view of column `j`.
    pub fn col(self, j: usize) -> ArgSlice<S> {
        self.read().col(j)
    }

    /// Write view of column `j`.
    pub fn col_mut(self, j: usize) -> ArgSliceMut<S> {
        let c = self.col(j);
        ArgSliceMut {
            buf: c.buf,
            off: c.off,
            len: c.len,
            _s: PhantomData,
        }
    }
}

// ----- the recorder ----------------------------------------------------

/// A recording session on a [`GpuContext`]. See the module docs; obtain
/// one with [`GpuContext::stream`].
pub struct Stream<'c> {
    ctx: &'c mut GpuContext,
    /// Streaming disabled: every record call executes in place.
    eager: bool,
    base: f64,
}

impl<'c> Stream<'c> {
    pub(crate) fn begin(ctx: &'c mut GpuContext) -> Self {
        let base = ctx.profiler().critical_seconds();
        ctx.scratch_reset();
        let eager = !ctx.streaming();
        Stream { ctx, eager, base }
    }

    /// Ops recorded so far (0 in eager mode — everything already ran).
    pub fn recorded(&self) -> usize {
        self.ctx.scratch().bindings.len()
    }

    fn arena(&self) -> &BufferArena {
        &self.ctx.scratch().arena
    }

    // ----- buffer registration ---------------------------------------
    //
    // Each method derives the buffer's arena pointer exactly once from
    // a borrow held for the stream's whole lifetime — the Miri-clean
    // discipline the arena documents. The borrow checker guarantees
    // mutable registrations are disjoint from every other registration.

    /// Register the system matrix (read-only).
    pub fn matrix<S: Scalar>(&mut self, a: &'c GpuMatrix<S>) -> MatRef<S> {
        // SAFETY: `a` stays borrowed until the stream's sync/drop.
        let id = unsafe { self.ctx.arena_mut().register_obj(a as *const GpuMatrix<S>) };
        MatRef {
            id,
            _s: PhantomData,
        }
    }

    /// Register a storage-path system matrix (read-only).
    pub fn store<S: Scalar>(&mut self, a: &'c GpuStore<S>) -> StoreRef<S> {
        // SAFETY: `a` stays borrowed until the stream's sync/drop.
        let id = unsafe { self.ctx.arena_mut().register_obj(a as *const GpuStore<S>) };
        StoreRef {
            id,
            _s: PhantomData,
        }
    }

    /// Register a Krylov basis store (read-only). Native stores are
    /// registered whole-object (recorded reads keep the pre-refactor
    /// whole-buffer spans); compressed stores also register their
    /// narrow element array so reads can declare the exact byte span a
    /// kernel streams.
    pub fn basis<S: Scalar>(&mut self, v: &'c BasisStore<S>) -> BasisRef<S> {
        let (n, ncap) = (v.n(), v.max_cols());
        // SAFETY: `v` stays borrowed until the stream's sync/drop; the
        // compressed data pointer is derived from the same shared
        // borrow, keeping one provenance chain.
        let id = unsafe {
            let obj = v as *const BasisStore<S>;
            match v {
                BasisStore::Native(_) => self.ctx.arena_mut().register_obj(obj),
                BasisStore::F32(cb) => {
                    let d = cb.data();
                    self.ctx
                        .arena_mut()
                        .register_obj_with_data(obj, d.as_ptr(), d.len())
                }
                BasisStore::F16(cb) => {
                    let d = cb.data();
                    self.ctx
                        .arena_mut()
                        .register_obj_with_data(obj, d.as_ptr(), d.len())
                }
            }
        };
        BasisRef {
            id,
            n: u32::try_from(n).expect("basis rows"),
            ncap: u32::try_from(ncap).expect("basis cols"),
            ebytes: u32::try_from(v.elem_bytes()).expect("basis elem bytes"),
            _s: PhantomData,
        }
    }

    /// Register an exclusively borrowed Krylov basis. Within one region
    /// the recorder addresses it column-wise for writes (the recorded
    /// basis extension) and whole-value for the batched CGS reads — the
    /// RAW span overlap is exactly the edge that orders the extension
    /// before the projections. Native-only: recorded basis *writes*
    /// exist only in the pipelined drivers, which reject compressed
    /// storage up front (column write views are working-precision).
    pub fn basis_mut<S: Scalar>(&mut self, v: &'c mut BasisStore<S>) -> BasisMut<S> {
        let (n, ncap) = (v.n(), v.max_cols());
        let (obj, data, len) = v.arena_parts();
        assert!(
            !data.is_null(),
            "stream basis_mut: recorded basis writes are native-only"
        );
        // SAFETY: `v` stays exclusively borrowed until sync/drop; the
        // data pointer is derived through the object pointer (see
        // `BasisStore::arena_parts`), keeping one provenance chain.
        let id = unsafe { self.ctx.arena_mut().register_obj_mut(obj, data, len) };
        BasisMut {
            id,
            n: u32::try_from(n).expect("basis rows"),
            ncap: u32::try_from(ncap).expect("basis cols"),
            _s: PhantomData,
        }
    }

    /// Register a per-lane basis set mutably (all the same shape),
    /// returning one [`BasisMut`] per lane in order.
    pub fn bases_mut<S: Scalar>(&mut self, vs: Vec<&'c mut BasisStore<S>>) -> Vec<BasisMut<S>> {
        assert!(!vs.is_empty(), "stream bases_mut: empty lane set");
        let (n, ncap) = (vs[0].n(), vs[0].max_cols());
        vs.into_iter()
            .map(|v| {
                assert_eq!(v.n(), n, "stream bases_mut: ragged lane set");
                assert_eq!(v.max_cols(), ncap, "stream bases_mut: ragged lane set");
                self.basis_mut(v)
            })
            .collect()
    }

    /// Build a [`BasisList`] (the batched kernels' per-column basis
    /// argument) from already-registered basis handles — the pipelined
    /// regions register their lane bases mutably once, then hand a
    /// subset to the CGS kernels by reference.
    pub fn basis_list<S: Scalar>(&mut self, refs: &[BasisRef<S>]) -> BasisList<S> {
        assert!(!refs.is_empty(), "stream basis_list: empty lane set");
        let (n, ncap, ebytes) = (refs[0].n, refs[0].ncap, refs[0].ebytes);
        for r in refs {
            assert_eq!(r.n, n, "stream basis_list: ragged lane set");
            assert_eq!(r.ncap, ncap, "stream basis_list: ragged lane set");
            assert_eq!(r.ebytes, ebytes, "stream basis_list: mixed storage widths");
        }
        let (start, len) = self.ctx.arena_mut().push_list(refs.iter().map(|r| r.id));
        BasisList {
            start,
            len,
            n,
            ncap,
            ebytes,
            _s: PhantomData,
        }
    }

    /// Register a per-lane basis set (read-only, all the same shape and
    /// storage width).
    pub fn bases<S: Scalar>(&mut self, vs: &[&'c BasisStore<S>]) -> BasisList<S> {
        assert!(!vs.is_empty(), "stream bases: empty lane set");
        let refs: Vec<BasisRef<S>> = vs.iter().map(|v| self.basis(v)).collect();
        self.basis_list(&refs)
    }

    /// Register a read-only vector.
    pub fn slice<S: Scalar>(&mut self, x: &'c [S]) -> ArgSlice<S> {
        // SAFETY: `x` stays borrowed until the stream's sync/drop.
        let buf = unsafe { self.ctx.arena_mut().register_slice(x.as_ptr(), x.len()) };
        ArgSlice {
            buf,
            off: 0,
            len: u32::try_from(x.len()).expect("slice length"),
            _s: PhantomData,
        }
    }

    /// Register an exclusively borrowed vector.
    pub fn slice_mut<S: Scalar>(&mut self, x: &'c mut [S]) -> ArgSliceMut<S> {
        let (ptr, len) = (x.as_mut_ptr(), x.len());
        // SAFETY: `x` stays exclusively borrowed until sync/drop, and
        // the pointer is derived exactly once here.
        let buf = unsafe { self.ctx.arena_mut().register_slice_mut(ptr, len) };
        ArgSliceMut {
            buf,
            off: 0,
            len: u32::try_from(len).expect("slice length"),
            _s: PhantomData,
        }
    }

    /// Register an exclusively borrowed scalar result slot.
    pub fn val_mut<S: Scalar>(&mut self, x: &'c mut S) -> ArgValMut<S> {
        let ptr: *mut S = x;
        // SAFETY: as [`Stream::slice_mut`], for one element.
        let buf = unsafe { self.ctx.arena_mut().register_slice_mut(ptr, 1) };
        ArgValMut {
            buf,
            off: 0,
            _s: PhantomData,
        }
    }

    /// Register a read-only right-hand-side block.
    pub fn block<S: Scalar>(&mut self, x: &'c MultiVec<S>) -> BlockRef<S> {
        let (n, k) = (x.n(), x.k());
        let data = x.data();
        // SAFETY: `x` stays borrowed until sync/drop; both pointers are
        // derived from the same shared borrow.
        let id = unsafe {
            self.ctx.arena_mut().register_obj_with_data(
                x as *const MultiVec<S>,
                data.as_ptr(),
                data.len(),
            )
        };
        BlockRef {
            id,
            n: u32::try_from(n).expect("block rows"),
            k: u32::try_from(k).expect("block cols"),
            _s: PhantomData,
        }
    }

    /// Register an exclusively borrowed block. Within one region the
    /// recorder addresses it either as a whole value (chained batched
    /// kernels) or column-wise (independent per-lane ops) — the
    /// discipline the arena contract requires.
    pub fn block_mut<S: Scalar>(&mut self, x: &'c mut MultiVec<S>) -> BlockMut<S> {
        let (n, k) = (x.n(), x.k());
        let (obj, data, len) = x.arena_parts();
        // SAFETY: `x` stays exclusively borrowed until sync/drop; the
        // data pointer is derived through the object pointer (see
        // `MultiVec::arena_parts`), keeping one provenance chain.
        let id = unsafe { self.ctx.arena_mut().register_obj_mut(obj, data, len) };
        BlockMut {
            id,
            n: u32::try_from(n).expect("block rows"),
            k: u32::try_from(k).expect("block cols"),
            _s: PhantomData,
        }
    }

    // ----- recording core --------------------------------------------

    /// One kernel call must not read and write overlapping memory (its
    /// launch would materialize aliasing `&`/`&mut` views). The borrow
    /// checker proved this for the old reference-taking API; with
    /// `Copy` handles it is checked here, in both eager and recorded
    /// mode, before anything executes.
    fn assert_noalias(label: &str, reads: &[Span], writes: &[Span]) {
        for w in writes {
            assert!(
                !reads.iter().any(|r| r.overlaps(w)),
                "stream {label}: an operand is both read and written"
            );
            assert!(
                writes.iter().filter(|x| x.overlaps(w)).count() == 1,
                "stream {label}: overlapping write operands"
            );
        }
    }

    /// Append one op: derive its graph node, charge the profiler at the
    /// op's DAG-ready time, and bind its payload.
    fn record(
        &mut self,
        label: &'static str,
        reads: &[Span],
        writes: &[Span],
        charge: Option<(KernelClass, f64, usize)>,
        exec: ExecFn,
        args: OpArgs,
    ) {
        self.record_kind(label, OpKind::Device, reads, writes, charge, exec, args);
    }

    /// As [`Stream::record`], for an explicit [`OpKind`] (deferred host
    /// steps record as [`OpKind::Host`] nodes).
    #[allow(clippy::too_many_arguments)]
    fn record_kind(
        &mut self,
        label: &'static str,
        kind: OpKind,
        reads: &[Span],
        writes: &[Span],
        charge: Option<(KernelClass, f64, usize)>,
        exec: ExecFn,
        args: OpArgs,
    ) {
        debug_assert!(!self.eager, "record in eager mode");
        let mut ready = self.base;
        {
            let scratch = self.ctx.scratch_mut();
            let idx = scratch.graph.push_kind(label, kind, reads, writes);
            for &p in scratch.graph.preds(idx) {
                if scratch.finish[p] > ready {
                    ready = scratch.finish[p];
                }
            }
        }
        let fin = match charge {
            Some((class, t, bytes)) => self.ctx.profiler_mut().charge_ready(class, t, bytes, ready),
            None => ready,
        };
        let scratch = self.ctx.scratch_mut();
        scratch.finish.push(fin);
        scratch.bindings.push(BoundOp { exec, args });
    }

    /// Submit the recorded graph. An empty region sets up, submits and
    /// charges nothing.
    fn finish(&mut self) {
        if !self.eager && !self.ctx.scratch().graph.is_empty() {
            self.ctx.submit_recorded();
        }
    }

    /// Submit everything recorded and wait for completion. Dropping the
    /// stream does the same; `sync` just makes the barrier explicit at
    /// the point where the registration borrows end and the host may
    /// read results.
    pub fn sync(self) {}

    // ----- recordable kernels ----------------------------------------

    /// Record `y = A x` (charged as a solver SpMV).
    pub fn spmv<S: BackendScalar>(&mut self, a: MatRef<S>, x: ArgSlice<S>, y: ArgSliceMut<S>) {
        // SAFETY: registered borrows are live for the stream's lifetime.
        let am: &GpuMatrix<S> = unsafe { self.arena().obj(a.id) };
        assert_eq!(x.len as usize, am.n(), "stream spmv: x length");
        assert_eq!(y.len as usize, am.n(), "stream spmv: y length");
        Self::assert_noalias("spmv", &[x.span()], &[y.span()]);
        if self.eager {
            // SAFETY: as above; no other view of y exists during the call.
            let (xs, ys) = unsafe {
                (
                    self.arena().slice::<S>(x.buf, x.off, x.len),
                    self.arena().slice_mut::<S>(y.buf, y.off, y.len),
                )
            };
            self.ctx.spmv(am, xs, ys);
            return;
        }
        if let Some(plan) = self.ctx.shard_plan_for(am) {
            self.record_sharded_matvec::<S>(
                KernelClass::SpMV,
                ShardedMatOp::Spmv,
                &plan,
                am,
                a.id,
                None,
                (x.buf, x.off, 0),
                (y.buf, y.off, 0),
                1,
            );
            return;
        }
        let (t, bytes) = self.ctx.spmv_spec::<S>(am);
        self.record(
            "spmv",
            &[x.span()],
            &[y.span()],
            Some((KernelClass::SpMV, t, bytes)),
            exec_spmv::<S>,
            OpArgs {
                bufs: [a.id, x.buf, y.buf, 0],
                offs: [0, x.off, y.off, 0],
                lens: [0, x.len, y.len, 0],
                ..OpArgs::default()
            },
        );
    }

    /// Expand one matrix op over a sharded backend into per-shard op
    /// chains: an optional halo exchange (the remote x-entries the
    /// shard's boundary rows read, copied into pooled scratch and
    /// charged as [`KernelClass::Halo`] interconnect traffic), an
    /// interior kernel over rows reading only owned columns (no edge to
    /// the exchange — it overlaps the comm on the timeline), and a
    /// boundary kernel gated on the halo buffer by a real RAW span
    /// dependency. The piece sequence and its skip rules mirror the
    /// eager `GpuContext::charge_sharded` walk exactly, so eager and
    /// recorded charge sequences stay bit-identical; execution order
    /// within and across shards is free to overlap because every node
    /// declares exact element spans.
    ///
    /// `x`/`y` are `(buffer, base element offset, column stride)` —
    /// stride 0 for single vectors, the block's row count for
    /// multi-RHS ops addressed column-wise. `b` is the residual
    /// right-hand side (single-vector ops only).
    #[allow(clippy::too_many_arguments)]
    fn record_sharded_matvec<S: BackendScalar>(
        &mut self,
        class: KernelClass,
        op: ShardedMatOp,
        plan: &Arc<ShardPlan>,
        am: &GpuMatrix<S>,
        a_id: u32,
        b: Option<(u32, u32)>,
        x: (u32, u32, u32),
        y: (u32, u32, u32),
        k: usize,
    ) {
        // SAFETY: the plan Arc is held alive by the context's plan
        // cache (entries are never evicted), outliving the region.
        let plan_id = unsafe { self.ctx.arena_mut().register_obj(Arc::as_ptr(plan)) };
        let row_ptr = am.csr().row_ptr();
        let kk = u32::try_from(k).expect("sharded: block width");
        let (xb, xo, xs) = x;
        let (yb, yo, ys) = y;
        let (bb, bo) = b.unwrap_or((0, 0));
        let (interior_exec, boundary_exec): (ExecFn, ExecFn) = match op {
            ShardedMatOp::Residual => (
                exec_shard_residual_interior::<S>,
                exec_shard_residual_boundary::<S>,
            ),
            _ => (exec_shard_mat_interior::<S>, exec_shard_mat_boundary::<S>),
        };
        let span32 = |v: usize| u32::try_from(v).expect("sharded: span bound");
        for (s, region) in plan.regions.iter().enumerate() {
            if region.rows() == 0 {
                continue;
            }
            let (lo, hi, ilo, ihi) = (region.lo, region.hi, region.ilo, region.ihi);
            let halo_len = region.halo_len();
            let halo_id = if halo_len > 0 {
                self.ctx.register_halo::<S>(halo_len * k)
            } else {
                0
            };
            let (ls, ll) = self.ctx.arena_mut().push_list([plan_id, halo_id]);
            let args = OpArgs {
                bufs: [a_id, xb, yb, bb],
                offs: [0, xo, yo, bo],
                lens: [kk, xs, ys, 0],
                n0: u32::try_from(s).expect("sharded: shard index"),
                list: [ls, ll],
                ..OpArgs::default()
            };
            if halo_len > 0 {
                let (t, bytes) = self.ctx.halo_spec::<S>(halo_len, k);
                let mut reads = Vec::with_capacity(k * region.halo_spans.len());
                for j in 0..kk {
                    for sp in &region.halo_spans {
                        reads.push(Span::elems(
                            xb,
                            xo + j * xs + span32(sp.col),
                            span32(sp.len),
                            S::BYTES,
                        ));
                    }
                }
                self.record(
                    "shard_halo",
                    &reads,
                    &[Span::elems(halo_id, 0, span32(halo_len * k), S::BYTES)],
                    Some((KernelClass::Halo, t, bytes)),
                    exec_shard_halo::<S>,
                    args,
                );
            }
            // Per-column owned-x read spans, shared by both kernels.
            let x_reads: Vec<Span> = (0..kk)
                .map(|j| Span::elems(xb, xo + j * xs + span32(lo), span32(hi - lo), S::BYTES))
                .collect();
            if ihi > ilo {
                let nnz = row_ptr[ihi] - row_ptr[ilo];
                let (t, bytes) = self.ctx.sharded_piece_spec::<S>(am, ihi - ilo, nnz, k, op);
                let mut reads = x_reads.clone();
                if op == ShardedMatOp::Residual {
                    reads.push(Span::elems(
                        bb,
                        bo + span32(ilo),
                        span32(ihi - ilo),
                        S::BYTES,
                    ));
                }
                let writes: Vec<Span> = (0..kk)
                    .map(|j| {
                        Span::elems(yb, yo + j * ys + span32(ilo), span32(ihi - ilo), S::BYTES)
                    })
                    .collect();
                self.record(
                    "shard_interior",
                    &reads,
                    &writes,
                    Some((class, t, bytes)),
                    interior_exec,
                    args,
                );
            }
            let brows = (ilo - lo) + (hi - ihi);
            if brows > 0 {
                let bnnz = (row_ptr[ilo] - row_ptr[lo]) + (row_ptr[hi] - row_ptr[ihi]);
                let (t, bytes) = self.ctx.sharded_piece_spec::<S>(am, brows, bnnz, k, op);
                let mut reads = x_reads;
                if halo_len > 0 {
                    reads.push(Span::elems(halo_id, 0, span32(halo_len * k), S::BYTES));
                }
                if op == ShardedMatOp::Residual {
                    if ilo > lo {
                        reads.push(Span::elems(bb, bo + span32(lo), span32(ilo - lo), S::BYTES));
                    }
                    if hi > ihi {
                        reads.push(Span::elems(
                            bb,
                            bo + span32(ihi),
                            span32(hi - ihi),
                            S::BYTES,
                        ));
                    }
                }
                let mut writes = Vec::with_capacity(2 * k);
                for j in 0..kk {
                    if ilo > lo {
                        writes.push(Span::elems(
                            yb,
                            yo + j * ys + span32(lo),
                            span32(ilo - lo),
                            S::BYTES,
                        ));
                    }
                    if hi > ihi {
                        writes.push(Span::elems(
                            yb,
                            yo + j * ys + span32(ihi),
                            span32(hi - ihi),
                            S::BYTES,
                        ));
                    }
                }
                self.record(
                    "shard_boundary",
                    &reads,
                    &writes,
                    Some((class, t, bytes)),
                    boundary_exec,
                    args,
                );
            }
        }
    }

    /// Record the fused residual `r = b - A x`, charged to `class`.
    pub fn residual_as<S: BackendScalar>(
        &mut self,
        class: KernelClass,
        a: MatRef<S>,
        b: ArgSlice<S>,
        x: ArgSlice<S>,
        r: ArgSliceMut<S>,
    ) {
        // SAFETY: registered borrows are live for the stream's lifetime.
        let am: &GpuMatrix<S> = unsafe { self.arena().obj(a.id) };
        assert_eq!(b.len as usize, am.n(), "stream residual: b length");
        assert_eq!(x.len as usize, am.n(), "stream residual: x length");
        assert_eq!(r.len as usize, am.n(), "stream residual: r length");
        Self::assert_noalias("residual", &[b.span(), x.span()], &[r.span()]);
        if self.eager {
            // SAFETY: as above.
            let (bs, xs, rs) = unsafe {
                (
                    self.arena().slice::<S>(b.buf, b.off, b.len),
                    self.arena().slice::<S>(x.buf, x.off, x.len),
                    self.arena().slice_mut::<S>(r.buf, r.off, r.len),
                )
            };
            self.ctx.residual_as(class, am, bs, xs, rs);
            return;
        }
        if let Some(plan) = self.ctx.shard_plan_for(am) {
            self.record_sharded_matvec::<S>(
                class,
                ShardedMatOp::Residual,
                &plan,
                am,
                a.id,
                Some((b.buf, b.off)),
                (x.buf, x.off, 0),
                (r.buf, r.off, 0),
                1,
            );
            return;
        }
        let (t, bytes) = self.ctx.residual_spec::<S>(am);
        self.record(
            "residual",
            &[b.span(), x.span()],
            &[r.span()],
            Some((class, t, bytes)),
            exec_residual::<S>,
            OpArgs {
                bufs: [a.id, b.buf, x.buf, r.buf],
                offs: [0, b.off, x.off, r.off],
                lens: [0, b.len, x.len, r.len],
                ..OpArgs::default()
            },
        );
    }

    /// Record the storage-path fused residual `r = b - A x`, charged to
    /// `class` with the store's own traffic model (low-precision value
    /// stream, working-precision vectors).
    pub fn store_residual_as<S: BackendScalar>(
        &mut self,
        class: KernelClass,
        a: StoreRef<S>,
        b: ArgSlice<S>,
        x: ArgSlice<S>,
        r: ArgSliceMut<S>,
    ) {
        // SAFETY: registered borrows are live for the stream's lifetime.
        let am: &GpuStore<S> = unsafe { self.arena().obj(a.id) };
        assert_eq!(b.len as usize, am.n(), "stream store_residual: b length");
        assert_eq!(x.len as usize, am.n(), "stream store_residual: x length");
        assert_eq!(r.len as usize, am.n(), "stream store_residual: r length");
        Self::assert_noalias("store_residual", &[b.span(), x.span()], &[r.span()]);
        if self.eager {
            // SAFETY: as above.
            let (bs, xs, rs) = unsafe {
                (
                    self.arena().slice::<S>(b.buf, b.off, b.len),
                    self.arena().slice::<S>(x.buf, x.off, x.len),
                    self.arena().slice_mut::<S>(r.buf, r.off, r.len),
                )
            };
            self.ctx.store_residual_as(class, am, bs, xs, rs);
            return;
        }
        let (t, bytes) = self.ctx.store_residual_spec::<S>(am);
        self.record(
            "store_residual",
            &[b.span(), x.span()],
            &[r.span()],
            Some((class, t, bytes)),
            exec_store_residual::<S>,
            OpArgs {
                bufs: [a.id, b.buf, x.buf, r.buf],
                offs: [0, b.off, x.off, r.off],
                lens: [0, b.len, x.len, r.len],
                ..OpArgs::default()
            },
        );
    }

    /// Record `h = V^T w` over the first `ncols` basis columns.
    pub fn gemv_t<S: BackendScalar>(
        &mut self,
        v: BasisRef<S>,
        ncols: usize,
        w: ArgSlice<S>,
        h: ArgSliceMut<S>,
    ) {
        let nc = u32::try_from(ncols).expect("ncols");
        assert!(nc <= v.ncap, "stream gemv_t: ncols over basis capacity");
        assert_eq!(w.len, v.n, "stream gemv_t: w length");
        assert!(h.len >= nc, "stream gemv_t: h too short");
        Self::assert_noalias("gemv_t", &[w.span()], &[h.prefix_span(nc)]);
        if self.eager {
            // SAFETY: registered borrows are live for the stream's lifetime.
            let (vm, ws, hs) = unsafe {
                (
                    self.arena().obj::<BasisStore<S>>(v.id),
                    self.arena().slice::<S>(w.buf, w.off, w.len),
                    self.arena().slice_mut::<S>(h.buf, h.off, h.len),
                )
            };
            self.ctx.basis_gemv_t(vm, ncols, ws, hs);
            return;
        }
        let (t, bytes) = self
            .ctx
            .basis_gemv_t_spec::<S>(v.n as usize, ncols, v.ebytes as usize);
        self.record(
            "gemv_t",
            &[v.read_span(nc), w.span()],
            &[h.prefix_span(nc)],
            Some((KernelClass::GemvT, t, bytes)),
            exec_gemv_t::<S>,
            OpArgs {
                bufs: [v.id, w.buf, h.buf, 0],
                offs: [0, w.off, h.off, 0],
                lens: [0, w.len, nc, 0],
                n0: nc,
                order: self.ctx.reduction(),
                ..OpArgs::default()
            },
        );
    }

    /// Record `w -= V h` (GEMV No-Trans).
    pub fn gemv_n_sub<S: BackendScalar>(
        &mut self,
        v: BasisRef<S>,
        ncols: usize,
        h: ArgSlice<S>,
        w: ArgSliceMut<S>,
    ) {
        self.gemv_n(v, ncols, h, w, false);
    }

    /// Record `y += V h` (GEMV No-Trans; the solution update).
    pub fn gemv_n_add<S: BackendScalar>(
        &mut self,
        v: BasisRef<S>,
        ncols: usize,
        h: ArgSlice<S>,
        y: ArgSliceMut<S>,
    ) {
        self.gemv_n(v, ncols, h, y, true);
    }

    fn gemv_n<S: BackendScalar>(
        &mut self,
        v: BasisRef<S>,
        ncols: usize,
        h: ArgSlice<S>,
        w: ArgSliceMut<S>,
        add: bool,
    ) {
        let nc = u32::try_from(ncols).expect("ncols");
        assert!(nc <= v.ncap, "stream gemv_n: ncols over basis capacity");
        assert_eq!(w.len, v.n, "stream gemv_n: vector length");
        assert!(h.len >= nc, "stream gemv_n: h too short");
        {
            let h_read = ArgSlice::<S> {
                buf: h.buf,
                off: h.off,
                len: nc,
                _s: PhantomData,
            };
            Self::assert_noalias("gemv_n", &[h_read.span()], &[w.span()]);
        }
        if self.eager {
            // SAFETY: registered borrows are live for the stream's lifetime.
            let (vm, hs, ws) = unsafe {
                (
                    self.arena().obj::<BasisStore<S>>(v.id),
                    self.arena().slice::<S>(h.buf, h.off, h.len),
                    self.arena().slice_mut::<S>(w.buf, w.off, w.len),
                )
            };
            if add {
                self.ctx.basis_gemv_n_add(vm, ncols, hs, ws);
            } else {
                self.ctx.basis_gemv_n_sub(vm, ncols, hs, ws);
            }
            return;
        }
        let (t, bytes) = self
            .ctx
            .basis_gemv_n_spec::<S>(v.n as usize, ncols, v.ebytes as usize);
        let h_read = ArgSlice::<S> {
            buf: h.buf,
            off: h.off,
            len: nc,
            _s: PhantomData,
        };
        self.record(
            if add { "gemv_n_add" } else { "gemv_n_sub" },
            &[v.read_span(nc), h_read.span()],
            &[w.span()],
            Some((KernelClass::GemvN, t, bytes)),
            if add {
                exec_gemv_n_add::<S>
            } else {
                exec_gemv_n_sub::<S>
            },
            OpArgs {
                bufs: [v.id, h.buf, w.buf, 0],
                offs: [0, h.off, w.off, 0],
                lens: [0, nc, w.len, 0],
                n0: nc,
                ..OpArgs::default()
            },
        );
    }

    /// Record `y += alpha x`.
    pub fn axpy<S: BackendScalar>(&mut self, alpha: S, x: ArgSlice<S>, y: ArgSliceMut<S>) {
        assert_eq!(x.len, y.len, "stream axpy: length mismatch");
        Self::assert_noalias("axpy", &[x.span()], &[y.span()]);
        if self.eager {
            // SAFETY: registered borrows are live for the stream's lifetime.
            let (xs, ys) = unsafe {
                (
                    self.arena().slice::<S>(x.buf, x.off, x.len),
                    self.arena().slice_mut::<S>(y.buf, y.off, y.len),
                )
            };
            self.ctx.axpy(alpha, xs, ys);
            return;
        }
        let (t, bytes) = self.ctx.axpy_spec::<S>(x.len as usize);
        self.record(
            "axpy",
            &[x.span()],
            &[y.span()],
            Some((KernelClass::Axpy, t, bytes)),
            exec_axpy::<S>,
            OpArgs {
                bufs: [x.buf, y.buf, 0, 0],
                offs: [x.off, y.off, 0, 0],
                lens: [x.len, y.len, 0, 0],
                alpha: alpha.to_f64(),
                ..OpArgs::default()
            },
        );
    }

    /// Record `x *= alpha`.
    pub fn scal<S: BackendScalar>(&mut self, alpha: S, x: ArgSliceMut<S>) {
        if self.eager {
            // SAFETY: registered borrows are live for the stream's lifetime.
            let xs = unsafe { self.arena().slice_mut::<S>(x.buf, x.off, x.len) };
            self.ctx.scal(alpha, xs);
            return;
        }
        let (t, bytes) = self.ctx.scal_spec::<S>(x.len as usize);
        self.record(
            "scal",
            &[],
            &[x.span()],
            Some((KernelClass::Scal, t, bytes)),
            exec_scal::<S>,
            OpArgs {
                bufs: [x.buf, 0, 0, 0],
                offs: [x.off, 0, 0, 0],
                lens: [x.len, 0, 0, 0],
                alpha: alpha.to_f64(),
                ..OpArgs::default()
            },
        );
    }

    /// Record a device-resident copy (uncharged, like
    /// [`GpuContext::copy`]; still a DAG node so dependent ops order).
    pub fn copy<S: BackendScalar>(&mut self, src: ArgSlice<S>, dst: ArgSliceMut<S>) {
        assert_eq!(src.len, dst.len, "stream copy: length mismatch");
        Self::assert_noalias("copy", &[src.span()], &[dst.span()]);
        if self.eager {
            // SAFETY: registered borrows are live for the stream's lifetime.
            let (ss, ds) = unsafe {
                (
                    self.arena().slice::<S>(src.buf, src.off, src.len),
                    self.arena().slice_mut::<S>(dst.buf, dst.off, dst.len),
                )
            };
            self.ctx.copy(ss, ds);
            return;
        }
        self.record(
            "copy",
            &[src.span()],
            &[dst.span()],
            None,
            exec_copy::<S>,
            OpArgs {
                bufs: [src.buf, dst.buf, 0, 0],
                offs: [src.off, dst.off, 0, 0],
                lens: [src.len, dst.len, 0, 0],
                ..OpArgs::default()
            },
        );
    }

    /// Record a Euclidean norm whose result lands in `out` after sync
    /// (the recordable form of [`GpuContext::norm2`]).
    pub fn norm2_into<S: BackendScalar>(&mut self, x: ArgSlice<S>, out: ArgValMut<S>) {
        self.norm2_into_as(KernelClass::Norm, x, out);
    }

    /// As [`Stream::norm2_into`], charged to `class` (the IR outer loop
    /// books its convergence-check norms under
    /// [`KernelClass::ResidualHi`], matching the eager
    /// [`GpuContext::norm2_as`]).
    pub fn norm2_into_as<S: BackendScalar>(
        &mut self,
        class: KernelClass,
        x: ArgSlice<S>,
        out: ArgValMut<S>,
    ) {
        Self::assert_noalias("norm2", &[x.span()], &[out.span()]);
        if self.eager {
            // SAFETY: registered borrows are live for the stream's lifetime.
            let (xs, os) = unsafe {
                (
                    self.arena().slice::<S>(x.buf, x.off, x.len),
                    self.arena().value_mut::<S>(out.buf, out.off),
                )
            };
            *os = self.ctx.norm2_as(class, xs);
            return;
        }
        let (t, bytes) = self.ctx.norm_spec::<S>(x.len as usize);
        self.record(
            "norm2",
            &[x.span()],
            &[out.span()],
            Some((class, t, bytes)),
            exec_norm2::<S>,
            OpArgs {
                bufs: [x.buf, out.buf, 0, 0],
                offs: [x.off, out.off, 0, 0],
                lens: [x.len, 1, 0, 0],
                order: self.ctx.reduction(),
                ..OpArgs::default()
            },
        );
    }

    // ----- deferred host steps (software pipelining) -----------------

    /// Record one lane's deferred Givens/update bookkeeping for a PAST
    /// iteration `j` (the software-pipelined `BlockGmres` host step).
    /// The arithmetic already ran on the host when it consumed the
    /// synced results, so the node executes nothing; it carries the
    /// host-dense charge at its DAG-ready time instead — which is how
    /// the timeline shows the host latency hidden behind the *current*
    /// iteration's device kernels. `lagged` are the previous-parity
    /// norm/coefficient spans the step consumed (they conflict with
    /// nothing the current iteration writes — the DAG proves the
    /// one-iteration lag safe), and `token` is the lane's host-state
    /// slot: consecutive host steps of one lane chain through it (WAW),
    /// keeping the Givens recurrence ordered per lane while distinct
    /// lanes overlap freely.
    pub fn host_givens<S: BackendScalar>(
        &mut self,
        j: usize,
        lagged: &[ArgSlice<S>],
        token: ArgValMut<S>,
    ) {
        let t = self.ctx.host_iter_spec(j);
        self.host_node("host_givens", t, lagged, &[token.span()]);
    }

    /// Record one lane's deferred least-squares solve at the cycle
    /// barrier: charged as the per-restart host cost for `kc` columns,
    /// writing the lane's update-coefficient column and
    /// its host-state token. The write on `y` is what orders the lane's
    /// device update chain (GEMV-N reading `y`) after this host step,
    /// and the token WAW orders it after the lane's drained Givens
    /// steps — per-lane host→device chains that overlap across lanes.
    pub fn host_lsq<S: BackendScalar>(
        &mut self,
        kc: usize,
        token: ArgValMut<S>,
        y: ArgSliceMut<S>,
    ) {
        let t = self.ctx.host_restart_spec(kc);
        self.host_node::<S>("host_lsq", t, &[], &[token.span(), y.span()]);
    }

    fn host_node<S: BackendScalar>(
        &mut self,
        label: &'static str,
        seconds: f64,
        reads: &[ArgSlice<S>],
        writes: &[Span],
    ) {
        let read_spans: Vec<Span> = reads.iter().map(|r| r.span()).collect();
        Self::assert_noalias(label, &read_spans, writes);
        if self.eager {
            // The arithmetic already happened on the host; only the
            // charge remains, serialized like every eager charge.
            self.ctx
                .profiler_mut()
                .charge(KernelClass::HostDense, seconds, 0);
            return;
        }
        self.record_kind(
            label,
            OpKind::Host,
            &read_spans,
            writes,
            Some((KernelClass::HostDense, seconds, 0)),
            exec_host_step,
            OpArgs::default(),
        );
    }

    // ----- fused lane-set kernels (recorded forms) -------------------

    /// Record the fused per-lane normalize-and-store
    /// `dsts[c] = alphas[c] * srcs[c]` (the recorded twin of
    /// [`GpuContext::lane_scal_copy`], charged identically as a
    /// width-`k` block scaling). `alphas` must be a registered view
    /// holding one coefficient per lane; sources and destinations are
    /// arbitrary registered column views of one shared length.
    pub fn lane_scal_copy<S: BackendScalar>(
        &mut self,
        alphas: ArgSlice<S>,
        srcs: &[ArgSlice<S>],
        dsts: &[ArgSliceMut<S>],
    ) {
        let k = srcs.len();
        assert_eq!(k, dsts.len(), "stream lane_scal_copy: lane count");
        assert!(k >= 1, "stream lane_scal_copy: empty lane set");
        assert!(alphas.len as usize >= k, "stream lane_scal_copy: alphas");
        let n = srcs[0].len;
        let (t, bytes) = self.ctx.block_scal_spec::<S>(n as usize, k);
        self.lane_op(
            "lane_scal_copy",
            Some((alphas, (KernelClass::Scal, t, bytes))),
            srcs,
            dsts,
            exec_lane_scal_copy::<S>,
        );
    }

    /// Record the fused per-lane copy `dsts[c] = srcs[c]` (the recorded
    /// twin of [`GpuContext::lane_copy`]; uncharged, like every copy).
    pub fn lane_copy<S: BackendScalar>(&mut self, srcs: &[ArgSlice<S>], dsts: &[ArgSliceMut<S>]) {
        assert_eq!(srcs.len(), dsts.len(), "stream lane_copy: lane count");
        assert!(!srcs.is_empty(), "stream lane_copy: empty lane set");
        self.lane_op("lane_copy", None, srcs, dsts, exec_lane_copy::<S>);
    }

    fn lane_op<S: BackendScalar>(
        &mut self,
        label: &'static str,
        alphas: Option<(ArgSlice<S>, (KernelClass, f64, usize))>,
        srcs: &[ArgSlice<S>],
        dsts: &[ArgSliceMut<S>],
        exec: ExecFn,
    ) {
        let k = srcs.len();
        let n = srcs[0].len;
        let mut reads: Vec<Span> = Vec::with_capacity(k + 1);
        if let Some((a, _)) = &alphas {
            reads.push(a.sub(0, k).span());
        }
        let mut writes: Vec<Span> = Vec::with_capacity(k);
        for (s, d) in srcs.iter().zip(dsts) {
            assert_eq!(s.len, n, "stream {label}: ragged source lanes");
            assert_eq!(d.len, n, "stream {label}: ragged destination lanes");
            reads.push(s.span());
            writes.push(d.span());
        }
        Self::assert_noalias(label, &reads, &writes);
        if self.eager {
            // SAFETY: registered borrows are live for the stream's
            // lifetime; each dst is the sole live view of its span.
            unsafe {
                let ss: Vec<&[S]> = srcs
                    .iter()
                    .map(|s| self.arena().slice::<S>(s.buf, s.off, s.len))
                    .collect();
                let mut ds: Vec<&mut [S]> = dsts
                    .iter()
                    .map(|d| self.arena().slice_mut::<S>(d.buf, d.off, d.len))
                    .collect();
                match alphas {
                    Some((a, _)) => {
                        let al = self.arena().slice::<S>(a.buf, a.off, a.len);
                        self.ctx.lane_scal_copy(&al[..k], &ss, &mut ds);
                    }
                    None => self.ctx.lane_copy(&ss, &mut ds),
                }
            }
            return;
        }
        let quads: Vec<u32> = srcs
            .iter()
            .zip(dsts)
            .flat_map(|(s, d)| [s.buf, s.off, d.buf, d.off])
            .collect();
        let (start, len) = self.ctx.arena_mut().push_list(quads);
        let (abuf, aoff, charge) = match alphas {
            Some((a, charge)) => (a.buf, a.off, Some(charge)),
            None => (0, 0, None),
        };
        self.record(
            label,
            &reads,
            &writes,
            charge,
            exec,
            OpArgs {
                bufs: [abuf, 0, 0, 0],
                offs: [aoff, 0, 0, 0],
                lens: [u32::try_from(k).expect("lane count"), n, 0, 0],
                n0: u32::try_from(k).expect("lane count"),
                list: [start, len],
                ..OpArgs::default()
            },
        );
    }

    // ----- batched multi-RHS kernels ---------------------------------

    /// Record the batched SpMM `Y[:, ..k] = A X[:, ..k]`.
    pub fn spmm<S: BackendScalar>(
        &mut self,
        a: MatRef<S>,
        x: BlockRef<S>,
        k: usize,
        y: BlockMut<S>,
    ) {
        // SAFETY: registered borrows are live for the stream's lifetime.
        let am: &GpuMatrix<S> = unsafe { self.arena().obj(a.id) };
        let kk = u32::try_from(k).expect("block width");
        assert!(kk >= 1 && kk <= x.k && kk <= y.k, "stream spmm: width");
        assert_eq!(x.n as usize, am.n(), "stream spmm: X rows");
        assert_eq!(y.n as usize, am.n(), "stream spmm: Y rows");
        Self::assert_noalias("spmm", &[Span::whole(x.id)], &[Span::whole(y.id)]);
        if self.eager {
            // SAFETY: as above; y's sole view during the call.
            let (xm, ym) = unsafe {
                (
                    self.arena().obj::<MultiVec<S>>(x.id),
                    self.arena().obj_mut::<MultiVec<S>>(y.id),
                )
            };
            self.ctx.spmm(am, xm, k, ym);
            return;
        }
        if let Some(plan) = self.ctx.shard_plan_for(am) {
            // Column stride of a MultiVec is its row count; per-column
            // element spans keep the per-shard hazard tracking exact.
            self.record_sharded_matvec::<S>(
                KernelClass::SpMV,
                ShardedMatOp::Spmm,
                &plan,
                am,
                a.id,
                None,
                (x.id, 0, x.n),
                (y.id, 0, y.n),
                k,
            );
            return;
        }
        let (t, bytes) = self.ctx.spmm_spec::<S>(am, k);
        self.record(
            "spmm",
            &[Span::whole(x.id)],
            &[Span::whole(y.id)],
            Some((KernelClass::SpMV, t, bytes)),
            exec_spmm::<S>,
            OpArgs {
                bufs: [a.id, x.id, y.id, 0],
                n0: kk,
                ..OpArgs::default()
            },
        );
    }

    /// Record the storage-path batched SpMM `Y[:, ..k] = A X[:, ..k]`,
    /// charged with the store's traffic model.
    pub fn store_spmm<S: BackendScalar>(
        &mut self,
        a: StoreRef<S>,
        x: BlockRef<S>,
        k: usize,
        y: BlockMut<S>,
    ) {
        // SAFETY: registered borrows are live for the stream's lifetime.
        let am: &GpuStore<S> = unsafe { self.arena().obj(a.id) };
        let kk = u32::try_from(k).expect("block width");
        assert!(
            kk >= 1 && kk <= x.k && kk <= y.k,
            "stream store_spmm: width"
        );
        assert_eq!(x.n as usize, am.n(), "stream store_spmm: X rows");
        assert_eq!(y.n as usize, am.n(), "stream store_spmm: Y rows");
        Self::assert_noalias("store_spmm", &[Span::whole(x.id)], &[Span::whole(y.id)]);
        if self.eager {
            // SAFETY: as above; y's sole view during the call.
            let (xm, ym) = unsafe {
                (
                    self.arena().obj::<MultiVec<S>>(x.id),
                    self.arena().obj_mut::<MultiVec<S>>(y.id),
                )
            };
            self.ctx.store_spmm(am, xm, k, ym);
            return;
        }
        let (t, bytes) = self.ctx.store_spmm_spec::<S>(am, k);
        self.record(
            "store_spmm",
            &[Span::whole(x.id)],
            &[Span::whole(y.id)],
            Some((KernelClass::SpMV, t, bytes)),
            exec_store_spmm::<S>,
            OpArgs {
                bufs: [a.id, x.id, y.id, 0],
                n0: kk,
                ..OpArgs::default()
            },
        );
    }

    /// Record the batched GEMV-Trans over one basis per block column.
    pub fn block_gemv_t<S: BackendScalar>(
        &mut self,
        vs: BasisList<S>,
        ncols: usize,
        w: BlockRef<S>,
        h: ArgSliceMut<S>,
    ) {
        let nc = u32::try_from(ncols).expect("ncols");
        let k = vs.len;
        assert!(nc <= vs.ncap, "stream block_gemv_t: ncols over capacity");
        assert_eq!(vs.n, w.n, "stream block_gemv_t: basis/block rows");
        assert!(k <= w.k, "stream block_gemv_t: more bases than columns");
        assert!(h.len >= k * nc, "stream block_gemv_t: h too short");
        Self::assert_noalias(
            "block_gemv_t",
            &[Span::whole(w.id)],
            &[h.prefix_span(k * nc)],
        );
        if self.eager {
            self.eager_block_gemv(vs, ncols, h, w.id, BlockGemvKind::T);
            return;
        }
        let (t, bytes) =
            self.ctx
                .basis_gemm_t_spec::<S>(w.n as usize, ncols, k as usize, vs.ebytes as usize);
        let mut reads: Vec<Span> = self.basis_spans(vs, nc);
        reads.push(Span::whole(w.id));
        self.record(
            "block_gemv_t",
            &reads,
            &[h.prefix_span(k * nc)],
            Some((KernelClass::GemvT, t, bytes)),
            exec_block_gemv_t::<S>,
            OpArgs {
                bufs: [w.id, h.buf, 0, 0],
                offs: [0, h.off, 0, 0],
                lens: [0, k * nc, 0, 0],
                n0: nc,
                list: [vs.start, vs.len],
                order: self.ctx.reduction(),
                ..OpArgs::default()
            },
        );
    }

    /// Record the batched GEMV-NoTrans `w_c -= V_c h_c`.
    pub fn block_gemv_n_sub<S: BackendScalar>(
        &mut self,
        vs: BasisList<S>,
        ncols: usize,
        h: ArgSlice<S>,
        w: BlockMut<S>,
    ) {
        let nc = u32::try_from(ncols).expect("ncols");
        let k = vs.len;
        assert!(nc <= vs.ncap, "stream block_gemv_n: ncols over capacity");
        assert_eq!(vs.n, w.n, "stream block_gemv_n: basis/block rows");
        assert!(k <= w.k, "stream block_gemv_n: more bases than columns");
        assert!(h.len >= k * nc, "stream block_gemv_n: h too short");
        {
            let h_read = ArgSlice::<S> {
                buf: h.buf,
                off: h.off,
                len: k * nc,
                _s: PhantomData,
            };
            Self::assert_noalias("block_gemv_n", &[h_read.span()], &[Span::whole(w.id)]);
        }
        if self.eager {
            let hm = ArgSliceMut::<S> {
                buf: h.buf,
                off: h.off,
                len: h.len,
                _s: PhantomData,
            };
            self.eager_block_gemv(vs, ncols, hm, w.id, BlockGemvKind::NSub);
            return;
        }
        let (t, bytes) =
            self.ctx
                .basis_gemm_n_spec::<S>(w.n as usize, ncols, k as usize, vs.ebytes as usize);
        let h_read = ArgSlice::<S> {
            buf: h.buf,
            off: h.off,
            len: k * nc,
            _s: PhantomData,
        };
        let mut reads: Vec<Span> = self.basis_spans(vs, nc);
        reads.push(h_read.span());
        self.record(
            "block_gemv_n_sub",
            &reads,
            &[Span::whole(w.id)],
            Some((KernelClass::GemvN, t, bytes)),
            exec_block_gemv_n_sub::<S>,
            OpArgs {
                bufs: [w.id, h.buf, 0, 0],
                offs: [0, h.off, 0, 0],
                lens: [0, k * nc, 0, 0],
                n0: nc,
                list: [vs.start, vs.len],
                ..OpArgs::default()
            },
        );
    }

    /// Record fused column norms whose results land in `out[..k]` after
    /// sync.
    pub fn block_norm2_into<S: BackendScalar>(
        &mut self,
        x: BlockRef<S>,
        k: usize,
        out: ArgSliceMut<S>,
    ) {
        let kk = u32::try_from(k).expect("block width");
        assert!(kk >= 1 && kk <= x.k, "stream block_norm2: width");
        assert!(out.len >= kk, "stream block_norm2: out too short");
        Self::assert_noalias("block_norm2", &[Span::whole(x.id)], &[out.prefix_span(kk)]);
        if self.eager {
            // SAFETY: registered borrows are live for the stream's lifetime.
            let (xm, os) = unsafe {
                (
                    self.arena().obj::<MultiVec<S>>(x.id),
                    self.arena().slice_mut::<S>(out.buf, out.off, out.len),
                )
            };
            self.ctx.block_norm2(xm, k, os);
            return;
        }
        let (t, bytes) = self.ctx.block_norm_spec::<S>(x.n as usize, k);
        self.record(
            "block_norm2",
            &[Span::whole(x.id)],
            &[out.prefix_span(kk)],
            Some((KernelClass::Norm, t, bytes)),
            exec_block_norm2::<S>,
            OpArgs {
                bufs: [x.id, out.buf, 0, 0],
                offs: [0, out.off, 0, 0],
                lens: [0, kk, 0, 0],
                n0: kk,
                order: self.ctx.reduction(),
                ..OpArgs::default()
            },
        );
    }

    /// Per-lane read spans of a basis list: whole-object for native
    /// lanes (pre-refactor DAG shape), exact narrow element prefixes
    /// for compressed ones (see [`BasisRef::read_span`]).
    fn basis_spans<S: Scalar>(&self, vs: BasisList<S>, nc: u32) -> Vec<Span> {
        let native = vs.ebytes as usize == std::mem::size_of::<S>();
        self.arena()
            .list(vs.start, vs.len)
            .iter()
            .map(|&id| {
                if native {
                    Span::whole(id)
                } else {
                    Span::elems(id, 0, nc * vs.n, vs.ebytes as usize)
                }
            })
            .collect()
    }

    fn eager_block_gemv<S: BackendScalar>(
        &mut self,
        vs: BasisList<S>,
        ncols: usize,
        h: ArgSliceMut<S>,
        w_id: u32,
        kind: BlockGemvKind,
    ) {
        // SAFETY: registered borrows are live for the stream's lifetime.
        unsafe {
            let bases: Vec<&BasisStore<S>> = self
                .arena()
                .list(vs.start, vs.len)
                .iter()
                .map(|&id| self.arena().obj::<BasisStore<S>>(id))
                .collect();
            match kind {
                BlockGemvKind::T => {
                    let wm = self.arena().obj::<MultiVec<S>>(w_id);
                    let hs = self.arena().slice_mut::<S>(h.buf, h.off, h.len);
                    self.ctx.basis_block_gemv_t(&bases, ncols, wm, hs);
                }
                BlockGemvKind::NSub => {
                    let hs = self.arena().slice::<S>(h.buf, h.off, h.len);
                    let wm = self.arena().obj_mut::<MultiVec<S>>(w_id);
                    self.ctx.basis_block_gemv_n_sub(&bases, ncols, hs, wm);
                }
            }
        }
    }
}

enum BlockGemvKind {
    T,
    NSub,
}

impl Drop for Stream<'_> {
    fn drop(&mut self) {
        // A record call's contract assert can fire mid-region; running
        // the half-recorded graph while unwinding would risk a
        // double-panic abort that masks the original message. Pending
        // ops are simply abandoned in that case.
        if std::thread::panicking() {
            return;
        }
        self.finish();
    }
}

// ----- monomorphized kernel launches -----------------------------------
//
// One function per kernel shape, resolving operands from the arena via
// the plain-data args. Discipline (the arena contract): materialize a
// `&mut` only for memory the op declared a write span on, a `&` only
// for declared reads; the DAG guarantees no conflicting op runs
// concurrently, and the recorder keeps every registration borrowed
// until after submit.

fn exec_spmv<S: BackendScalar>(b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract (above).
    unsafe {
        let m: &GpuMatrix<S> = arena.obj(a.bufs[0]);
        let x = arena.slice::<S>(a.bufs[1], a.offs[1], a.lens[1]);
        let y = arena.slice_mut::<S>(a.bufs[2], a.offs[2], a.lens[2]);
        S::view(b).spmv(m.csr(), x, y);
    }
}

fn exec_residual<S: BackendScalar>(b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract.
    unsafe {
        let m: &GpuMatrix<S> = arena.obj(a.bufs[0]);
        let bb = arena.slice::<S>(a.bufs[1], a.offs[1], a.lens[1]);
        let x = arena.slice::<S>(a.bufs[2], a.offs[2], a.lens[2]);
        let r = arena.slice_mut::<S>(a.bufs[3], a.offs[3], a.lens[3]);
        S::view(b).residual(m.csr(), bb, x, r);
    }
}

fn exec_store_residual<S: BackendScalar>(b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract.
    unsafe {
        let m: &GpuStore<S> = arena.obj(a.bufs[0]);
        let bb = arena.slice::<S>(a.bufs[1], a.offs[1], a.lens[1]);
        let x = arena.slice::<S>(a.bufs[2], a.offs[2], a.lens[2]);
        let r = arena.slice_mut::<S>(a.bufs[3], a.offs[3], a.lens[3]);
        S::view(b).store_residual(m.store(), bb, x, r);
    }
}

fn exec_gemv_t<S: BackendScalar>(b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract.
    unsafe {
        let v: &BasisStore<S> = arena.obj(a.bufs[0]);
        let w = arena.slice::<S>(a.bufs[1], a.offs[1], a.lens[1]);
        let h = arena.slice_mut::<S>(a.bufs[2], a.offs[2], a.lens[2]);
        S::view(b).basis_gemv_t(v, a.n0 as usize, w, h, a.order);
    }
}

fn exec_gemv_n_sub<S: BackendScalar>(b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract.
    unsafe {
        let v: &BasisStore<S> = arena.obj(a.bufs[0]);
        let h = arena.slice::<S>(a.bufs[1], a.offs[1], a.lens[1]);
        let w = arena.slice_mut::<S>(a.bufs[2], a.offs[2], a.lens[2]);
        S::view(b).basis_gemv_n_sub(v, a.n0 as usize, h, w);
    }
}

fn exec_gemv_n_add<S: BackendScalar>(b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract.
    unsafe {
        let v: &BasisStore<S> = arena.obj(a.bufs[0]);
        let h = arena.slice::<S>(a.bufs[1], a.offs[1], a.lens[1]);
        let y = arena.slice_mut::<S>(a.bufs[2], a.offs[2], a.lens[2]);
        S::view(b).basis_gemv_n_add(v, a.n0 as usize, h, y);
    }
}

fn exec_axpy<S: BackendScalar>(b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract.
    unsafe {
        let x = arena.slice::<S>(a.bufs[0], a.offs[0], a.lens[0]);
        let y = arena.slice_mut::<S>(a.bufs[1], a.offs[1], a.lens[1]);
        S::view(b).axpy(S::from_f64(a.alpha), x, y);
    }
}

fn exec_scal<S: BackendScalar>(b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract.
    unsafe {
        let x = arena.slice_mut::<S>(a.bufs[0], a.offs[0], a.lens[0]);
        S::view(b).scal(S::from_f64(a.alpha), x);
    }
}

fn exec_copy<S: BackendScalar>(b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract.
    unsafe {
        let src = arena.slice::<S>(a.bufs[0], a.offs[0], a.lens[0]);
        let dst = arena.slice_mut::<S>(a.bufs[1], a.offs[1], a.lens[1]);
        S::view(b).copy(src, dst);
    }
}

fn exec_norm2<S: BackendScalar>(b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract.
    unsafe {
        let x = arena.slice::<S>(a.bufs[0], a.offs[0], a.lens[0]);
        *arena.value_mut::<S>(a.bufs[1], a.offs[1]) = S::view(b).norm2(x, a.order);
    }
}

/// Deferred host step: the arithmetic already ran on the host when it
/// consumed the synced results; the node exists for its DAG edges and
/// its ready-time charge, so its launch is a no-op.
fn exec_host_step(_b: &dyn Backend, _arena: &BufferArena, _a: &OpArgs) {}

fn exec_lane_scal_copy<S: BackendScalar>(b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract; each destination quad names a distinct
    // declared write span.
    unsafe {
        let k = a.n0 as usize;
        let n = a.lens[1];
        let alphas = arena.slice::<S>(a.bufs[0], a.offs[0], a.lens[0]);
        let quads = arena.list(a.list[0], a.list[1]);
        let srcs: Vec<&[S]> = (0..k)
            .map(|c| arena.slice::<S>(quads[4 * c], quads[4 * c + 1], n))
            .collect();
        let mut dsts: Vec<&mut [S]> = (0..k)
            .map(|c| arena.slice_mut::<S>(quads[4 * c + 2], quads[4 * c + 3], n))
            .collect();
        S::view(b).lane_scal_copy(alphas, &srcs, &mut dsts);
    }
}

fn exec_lane_copy<S: BackendScalar>(b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract; as `exec_lane_scal_copy`.
    unsafe {
        let k = a.n0 as usize;
        let n = a.lens[1];
        let quads = arena.list(a.list[0], a.list[1]);
        let srcs: Vec<&[S]> = (0..k)
            .map(|c| arena.slice::<S>(quads[4 * c], quads[4 * c + 1], n))
            .collect();
        let mut dsts: Vec<&mut [S]> = (0..k)
            .map(|c| arena.slice_mut::<S>(quads[4 * c + 2], quads[4 * c + 3], n))
            .collect();
        S::view(b).lane_copy(&srcs, &mut dsts);
    }
}

fn exec_spmm<S: BackendScalar>(b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract; the write span covers all of y, so the
    // whole-object `&mut` aliases nothing.
    unsafe {
        let m: &GpuMatrix<S> = arena.obj(a.bufs[0]);
        let x: &MultiVec<S> = arena.obj(a.bufs[1]);
        let y: &mut MultiVec<S> = arena.obj_mut(a.bufs[2]);
        S::view(b).spmm(m.csr(), x, a.n0 as usize, y);
    }
}

// Sharded matrix-op launches. Args layout (see
// `Stream::record_sharded_matvec`): bufs = [matrix, x, y, b],
// offs = [0, x base, y base, b base], lens = [k, x stride, y stride, 0],
// n0 = shard index, list = [plan handle, halo handle].

fn exec_shard_halo<S: BackendScalar>(_b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract; the copies materialize exactly the
    // declared per-span x reads and the halo write span.
    unsafe {
        let ids = arena.list(a.list[0], a.list[1]);
        let plan: &ShardPlan = arena.obj(ids[0]);
        let region = &plan.regions[a.n0 as usize];
        let hl = region.halo_len();
        let k = a.lens[0] as usize;
        let stride = a.lens[1] as usize;
        let halo = arena.slice_mut::<S>(ids[1], 0, (hl * k) as u32);
        for j in 0..k {
            let base = a.offs[1] + (j * stride) as u32;
            let hj = &mut halo[j * hl..(j + 1) * hl];
            for sp in &region.halo_spans {
                let src = arena.slice::<S>(a.bufs[1], base + sp.col as u32, sp.len as u32);
                hj[sp.dst..sp.dst + sp.len].copy_from_slice(src);
            }
        }
    }
}

fn exec_shard_mat_interior<S: BackendScalar>(_b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract; per-column views match the declared
    // owned-x read spans and interior-row write spans.
    unsafe {
        let ids = arena.list(a.list[0], a.list[1]);
        let plan: &ShardPlan = arena.obj(ids[0]);
        let m: &GpuMatrix<S> = arena.obj(a.bufs[0]);
        let region = &plan.regions[a.n0 as usize];
        let (lo, hi, ilo, ihi) = (region.lo, region.hi, region.ilo, region.ihi);
        let k = a.lens[0] as usize;
        let (xs, ys) = (a.lens[1] as usize, a.lens[2] as usize);
        for j in 0..k {
            let x_owned = arena.slice::<S>(
                a.bufs[1],
                a.offs[1] + (j * xs + lo) as u32,
                (hi - lo) as u32,
            );
            let yj = arena.slice_mut::<S>(
                a.bufs[2],
                a.offs[2] + (j * ys + ilo) as u32,
                (ihi - ilo) as u32,
            );
            shard::spmv_rows_local(m.csr(), ilo, ihi, lo, x_owned, yj);
        }
    }
}

fn exec_shard_mat_boundary<S: BackendScalar>(_b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract; per-column views match the declared
    // owned-x/halo read spans and lead/trail write spans.
    unsafe {
        let ids = arena.list(a.list[0], a.list[1]);
        let plan: &ShardPlan = arena.obj(ids[0]);
        let m: &GpuMatrix<S> = arena.obj(a.bufs[0]);
        let region = &plan.regions[a.n0 as usize];
        let (lo, hi, ilo, ihi) = (region.lo, region.hi, region.ilo, region.ihi);
        let hl = region.halo_len();
        let k = a.lens[0] as usize;
        let (xs, ys) = (a.lens[1] as usize, a.lens[2] as usize);
        let halo_all: &[S] = if hl > 0 {
            arena.slice::<S>(ids[1], 0, (hl * k) as u32)
        } else {
            &[]
        };
        for j in 0..k {
            let x_owned = arena.slice::<S>(
                a.bufs[1],
                a.offs[1] + (j * xs + lo) as u32,
                (hi - lo) as u32,
            );
            let halo = if hl > 0 {
                &halo_all[j * hl..(j + 1) * hl]
            } else {
                halo_all
            };
            if ilo > lo {
                let yj = arena.slice_mut::<S>(
                    a.bufs[2],
                    a.offs[2] + (j * ys + lo) as u32,
                    (ilo - lo) as u32,
                );
                shard::spmv_rows_ghost(m.csr(), lo, ilo, &region.ghost_lead, x_owned, halo, yj);
            }
            if hi > ihi {
                let yj = arena.slice_mut::<S>(
                    a.bufs[2],
                    a.offs[2] + (j * ys + ihi) as u32,
                    (hi - ihi) as u32,
                );
                shard::spmv_rows_ghost(m.csr(), ihi, hi, &region.ghost_trail, x_owned, halo, yj);
            }
        }
    }
}

fn exec_shard_residual_interior<S: BackendScalar>(
    _b: &dyn Backend,
    arena: &BufferArena,
    a: &OpArgs,
) {
    // SAFETY: arena contract; views match the declared spans.
    unsafe {
        let ids = arena.list(a.list[0], a.list[1]);
        let plan: &ShardPlan = arena.obj(ids[0]);
        let m: &GpuMatrix<S> = arena.obj(a.bufs[0]);
        let region = &plan.regions[a.n0 as usize];
        let (lo, hi, ilo, ihi) = (region.lo, region.hi, region.ilo, region.ihi);
        let x_owned = arena.slice::<S>(a.bufs[1], a.offs[1] + lo as u32, (hi - lo) as u32);
        let b_rows = arena.slice::<S>(a.bufs[3], a.offs[3] + ilo as u32, (ihi - ilo) as u32);
        let r = arena.slice_mut::<S>(a.bufs[2], a.offs[2] + ilo as u32, (ihi - ilo) as u32);
        shard::residual_rows_local(m.csr(), ilo, ihi, lo, b_rows, x_owned, r);
    }
}

fn exec_shard_residual_boundary<S: BackendScalar>(
    _b: &dyn Backend,
    arena: &BufferArena,
    a: &OpArgs,
) {
    // SAFETY: arena contract; views match the declared spans.
    unsafe {
        let ids = arena.list(a.list[0], a.list[1]);
        let plan: &ShardPlan = arena.obj(ids[0]);
        let m: &GpuMatrix<S> = arena.obj(a.bufs[0]);
        let region = &plan.regions[a.n0 as usize];
        let (lo, hi, ilo, ihi) = (region.lo, region.hi, region.ilo, region.ihi);
        let hl = region.halo_len();
        let x_owned = arena.slice::<S>(a.bufs[1], a.offs[1] + lo as u32, (hi - lo) as u32);
        let halo: &[S] = if hl > 0 {
            arena.slice::<S>(ids[1], 0, hl as u32)
        } else {
            &[]
        };
        if ilo > lo {
            let b_rows = arena.slice::<S>(a.bufs[3], a.offs[3] + lo as u32, (ilo - lo) as u32);
            let r = arena.slice_mut::<S>(a.bufs[2], a.offs[2] + lo as u32, (ilo - lo) as u32);
            shard::residual_rows_ghost(
                m.csr(),
                lo,
                ilo,
                &region.ghost_lead,
                b_rows,
                x_owned,
                halo,
                r,
            );
        }
        if hi > ihi {
            let b_rows = arena.slice::<S>(a.bufs[3], a.offs[3] + ihi as u32, (hi - ihi) as u32);
            let r = arena.slice_mut::<S>(a.bufs[2], a.offs[2] + ihi as u32, (hi - ihi) as u32);
            shard::residual_rows_ghost(
                m.csr(),
                ihi,
                hi,
                &region.ghost_trail,
                b_rows,
                x_owned,
                halo,
                r,
            );
        }
    }
}

fn exec_store_spmm<S: BackendScalar>(b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract; the write span covers all of y, so the
    // whole-object `&mut` aliases nothing.
    unsafe {
        let m: &GpuStore<S> = arena.obj(a.bufs[0]);
        let x: &MultiVec<S> = arena.obj(a.bufs[1]);
        let y: &mut MultiVec<S> = arena.obj_mut(a.bufs[2]);
        S::view(b).store_spmm(m.store(), x, a.n0 as usize, y);
    }
}

fn exec_block_gemv_t<S: BackendScalar>(b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract.
    unsafe {
        let vs: Vec<&BasisStore<S>> = arena
            .list(a.list[0], a.list[1])
            .iter()
            .map(|&id| arena.obj::<BasisStore<S>>(id))
            .collect();
        let w: &MultiVec<S> = arena.obj(a.bufs[0]);
        let h = arena.slice_mut::<S>(a.bufs[1], a.offs[1], a.lens[1]);
        S::view(b).basis_block_gemv_t(&vs, a.n0 as usize, w, h, a.order);
    }
}

fn exec_block_gemv_n_sub<S: BackendScalar>(b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract; the write span covers all of w.
    unsafe {
        let vs: Vec<&BasisStore<S>> = arena
            .list(a.list[0], a.list[1])
            .iter()
            .map(|&id| arena.obj::<BasisStore<S>>(id))
            .collect();
        let h = arena.slice::<S>(a.bufs[1], a.offs[1], a.lens[1]);
        let w: &mut MultiVec<S> = arena.obj_mut(a.bufs[0]);
        S::view(b).basis_block_gemv_n_sub(&vs, a.n0 as usize, h, w);
    }
}

fn exec_block_norm2<S: BackendScalar>(b: &dyn Backend, arena: &BufferArena, a: &OpArgs) {
    // SAFETY: arena contract.
    unsafe {
        let x: &MultiVec<S> = arena.obj(a.bufs[0]);
        let out = arena.slice_mut::<S>(a.bufs[1], a.offs[1], a.lens[1]);
        S::view(b).block_norm2(x, a.n0 as usize, out, a.order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpgmres_gpusim::DeviceModel;
    use mpgmres_la::coo::Coo;
    use mpgmres_la::vec_ops::ReductionOrder;

    fn small_matrix() -> GpuMatrix<f64> {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 2.0);
        coo.push(0, 1, -1.0);
        coo.push(1, 0, -1.0);
        coo.push(1, 1, 2.0);
        coo.push(1, 2, -1.0);
        coo.push(2, 1, -1.0);
        coo.push(2, 2, 2.0);
        GpuMatrix::new(coo.into_csr())
    }

    #[test]
    fn recorded_chain_matches_eager_bitwise() {
        let a = small_matrix();
        let run = |streaming: bool| {
            let mut ctx =
                GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::Sequential);
            ctx.set_streaming(streaming);
            let x = [1.0, 2.0, 3.0];
            let mut y = [0.0f64; 3];
            let mut nrm = 0.0f64;
            {
                let mut st = ctx.stream();
                let ah = st.matrix(&a);
                let xh = st.slice(&x);
                let yh = st.slice_mut(&mut y);
                let nh = st.val_mut(&mut nrm);
                st.spmv(ah, xh, yh);
                st.norm2_into(yh.read(), nh);
                st.sync();
            }
            (y, nrm, ctx.elapsed(), ctx.profiler().critical_seconds())
        };
        let (y_r, n_r, t_r, c_r) = run(true);
        let (y_e, n_e, t_e, c_e) = run(false);
        assert_eq!(y_r, y_e);
        assert_eq!(n_r.to_bits(), n_e.to_bits());
        assert_eq!(t_r.to_bits(), t_e.to_bits());
        // A pure chain has critical == serial in both modes.
        assert_eq!(c_r.to_bits(), t_r.to_bits());
        assert_eq!(c_e.to_bits(), t_e.to_bits());
    }

    #[test]
    fn independent_recorded_ops_overlap_on_the_timeline() {
        let run_streaming = |streaming: bool| {
            let mut ctx =
                GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::Sequential);
            ctx.set_streaming(streaming);
            let x = vec![1.0f64; 64];
            let mut y1 = vec![2.0f64; 64];
            let mut y2 = vec![3.0f64; 64];
            {
                let mut st = ctx.stream();
                let xh = st.slice(&x);
                let y1h = st.slice_mut(&mut y1);
                let y2h = st.slice_mut(&mut y2);
                st.axpy(1.5, xh, y1h);
                st.axpy(-0.5, xh, y2h); // independent of the first
                st.sync();
            }
            (y1, y2, ctx.elapsed(), ctx.profiler().critical_seconds())
        };
        let (y1, y2, serial, critical) = run_streaming(true);
        let (e1, e2, serial_e, critical_e) = run_streaming(false);
        assert_eq!(y1, e1);
        assert_eq!(y2, e2);
        assert_eq!(serial.to_bits(), serial_e.to_bits());
        // Eager mode serializes; recorded mode overlaps the two axpys.
        assert_eq!(critical_e.to_bits(), serial_e.to_bits());
        assert!(critical < serial, "{critical} !< {serial}");
    }

    #[test]
    fn war_hazard_orders_recorded_ops() {
        // op1 reads w, op2 overwrites w: the DAG must execute op1 first
        // even though op2 carries no data from it (write-after-read).
        let mut ctx =
            GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::Sequential);
        let mut w = vec![3.0f64, 4.0];
        let mut h = vec![0.0f64; 2];
        {
            let mut st = ctx.stream();
            let wh = st.slice_mut(&mut w);
            let hh = st.slice_mut(&mut h);
            st.axpy(2.0, wh.read(), hh); // reads the original w
            st.scal(0.5, wh); // then clobbers it
            st.sync();
        }
        assert_eq!(h, vec![6.0, 8.0], "axpy must see w before the scal");
        assert_eq!(w, vec![1.5, 2.0]);
    }

    #[test]
    fn raw_and_waw_hazards_order_recorded_ops() {
        let a = small_matrix();
        let mut ctx =
            GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::Sequential);
        let x = [1.0f64, 1.0, 1.0];
        let mut y = [0.0f64; 3];
        let mut nrm = 0.0f64;
        {
            let mut st = ctx.stream();
            let ah = st.matrix(&a);
            let xh = st.slice(&x);
            let yh = st.slice_mut(&mut y);
            let nh = st.val_mut(&mut nrm);
            st.spmv(ah, xh, yh); // writes y
            st.scal(2.0, yh); // WAW + RAW on y
            st.norm2_into(yh.read(), nh); // RAW on y
            st.sync();
        }
        // A 1D Laplacian row sums: y = [1, 0, 1] then doubled.
        assert_eq!(y, [2.0, 0.0, 2.0]);
        assert_eq!(nrm, (8.0f64).sqrt());
    }

    /// Syncing an empty recorded region must be free — no graph setup,
    /// no submission, no profiler charge.
    #[test]
    fn empty_region_sync_is_free() {
        let mut ctx =
            GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::Sequential);
        // Charge something first so "unchanged" is a bitwise statement
        // about non-zero totals.
        let x = vec![1.0f64; 8];
        let mut y = vec![0.0f64; 8];
        ctx.axpy(1.0, &x, &mut y);
        let (total, critical) = (ctx.elapsed(), ctx.profiler().critical_seconds());
        {
            let st = ctx.stream();
            assert_eq!(st.recorded(), 0);
            st.sync();
        }
        assert_eq!(ctx.elapsed().to_bits(), total.to_bits());
        assert_eq!(
            ctx.profiler().critical_seconds().to_bits(),
            critical.to_bits()
        );
    }

    /// The pipelined building blocks — a deferred host node, a recorded
    /// fused lane normalize-and-store, and a recorded lane copy — are
    /// bit-identical eager vs recorded (values AND charges), and the
    /// host node's latency hides under the independent device work on
    /// the overlap timeline.
    #[test]
    fn host_nodes_and_lane_ops_record_and_overlap() {
        let run = |streaming: bool| {
            let mut ctx =
                GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::Sequential);
            ctx.set_streaming(streaming);
            let alphas = [2.0f64, -1.0];
            let xs = [1.0f64, 2.0, 3.0, 4.0]; // two source lanes of length 2
            let mut ys = [0.0f64; 4];
            let mut zs = [0.0f64; 2];
            let mut token = 0.0f64;
            let mut criticals = Vec::new();
            for _ in 0..2 {
                let (y0, y1) = ys.split_at_mut(2);
                let mut st = ctx.stream();
                let ah = st.slice(&alphas);
                let xh = st.slice(&xs);
                let y0h = st.slice_mut(y0);
                let y1h = st.slice_mut(y1);
                let zh = st.slice_mut(&mut zs);
                let th = st.val_mut(&mut token);
                // Deferred host step reading a lagged span the device
                // ops below never touch: independent, so it overlaps.
                st.host_givens(3, &[xh.sub(0, 2)], th);
                st.lane_scal_copy(ah, &[xh.sub(0, 2), xh.sub(2, 2)], &[y0h, y1h]);
                st.lane_copy(&[y0h.read()], &[zh]);
                st.sync();
                criticals.push(ctx.profiler().critical_seconds());
            }
            (ys, zs, ctx.elapsed(), criticals)
        };
        let (ys_r, zs_r, t_r, crit_r) = run(true);
        let (ys_e, zs_e, t_e, _) = run(false);
        assert_eq!(ys_r, [2.0, 4.0, -3.0, -4.0]);
        assert_eq!(zs_r, [2.0, 4.0]);
        assert_eq!(ys_r, ys_e);
        assert_eq!(zs_r, zs_e);
        assert_eq!(t_r.to_bits(), t_e.to_bits(), "charges identical");
        // The host node overlapped the lane kernels on the recorded
        // timeline: critical < serial after the first region (the two
        // regions charge identical sums, so serial-after-first is
        // exactly half the final total).
        assert!(
            crit_r[0] < t_r / 2.0,
            "host node must hide: {} !< {}",
            crit_r[0],
            t_r / 2.0
        );
    }

    /// The initial-residual shape of `BlockGmres`: independent
    /// per-column writes through a block's data pointer followed by a
    /// whole-block fused norm through its object pointer — the mixed
    /// access pattern the arena's dual-pointer registration exists for.
    #[test]
    fn block_columns_and_fused_norm_share_one_registration() {
        let a = small_matrix();
        let n = a.n();
        let k = 2;
        let run = |streaming: bool| {
            let mut ctx =
                GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::Sequential);
            ctx.set_streaming(streaming);
            let b = MultiVec::from_columns(&[&[1.0f64, 0.0, 1.0][..], &[0.0f64, 2.0, 0.0][..]]);
            let x = MultiVec::<f64>::zeros(n, k);
            let mut r = MultiVec::<f64>::zeros(n, k);
            let mut norms = vec![0.0f64; k];
            {
                let mut st = ctx.stream();
                let ah = st.matrix(&a);
                let bh = st.block(&b);
                let xh = st.block(&x);
                let rh = st.block_mut(&mut r);
                let nh = st.slice_mut(&mut norms);
                for l in 0..k {
                    st.residual_as(KernelClass::SpMV, ah, bh.col(l), xh.col(l), rh.col_mut(l));
                }
                st.block_norm2_into(rh.read(), k, nh);
                st.sync();
            }
            (r, norms, ctx.elapsed(), ctx.profiler().critical_seconds())
        };
        let (r_r, n_r, t_r, c_r) = run(true);
        let (r_e, n_e, t_e, _) = run(false);
        assert_eq!(r_r.data(), r_e.data());
        for (a, b) in n_r.iter().zip(&n_e) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(t_r.to_bits(), t_e.to_bits());
        // The two residual columns overlap on the recorded timeline.
        assert!(c_r < t_r, "independent columns must overlap: {c_r} {t_r}");
    }

    // ----- sharded-backend recording ---------------------------------

    fn laplacian(n: usize) -> GpuMatrix<f64> {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        GpuMatrix::new(coo.into_csr())
    }

    /// One spmv + residual region under every shard count must be
    /// bit-identical to the reference backend; at >= 2 shards the
    /// per-shard pieces (and the halo exchange behind the interior
    /// kernels) must overlap on the timeline, and the Halo class must
    /// carry the interconnect traffic.
    #[test]
    fn sharded_region_matches_reference_and_overlaps() {
        use mpgmres_backend::BackendKind;
        let n = 64;
        let a = laplacian(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let run = |kind: BackendKind, streaming: bool| {
            let mut ctx = GpuContext::with_backend_kind(
                DeviceModel::v100_belos(),
                ReductionOrder::Sequential,
                kind,
            );
            ctx.set_streaming(streaming);
            let mut y = vec![0.0f64; n];
            let mut r = vec![0.0f64; n];
            {
                let mut st = ctx.stream();
                let ah = st.matrix(&a);
                let xh = st.slice(&x);
                let bh = st.slice(&b);
                let yh = st.slice_mut(&mut y);
                let rh = st.slice_mut(&mut r);
                st.spmv(ah, xh, yh);
                st.residual_as(KernelClass::ResidualHi, ah, bh, yh.read(), rh);
                st.sync();
            }
            let halo = ctx.profiler().class_stats(KernelClass::Halo);
            (y, r, ctx.elapsed(), ctx.profiler().critical_seconds(), halo)
        };
        let (y_ref, r_ref, _, _, halo_ref) = run(BackendKind::Reference, true);
        assert_eq!(halo_ref.bytes, 0, "reference backend must not touch Halo");
        for shards in [1usize, 2, 3, 4] {
            let (y_s, r_s, serial, critical, halo) = run(BackendKind::Sharded { shards }, true);
            for (p, q) in y_s.iter().zip(&y_ref) {
                assert_eq!(p.to_bits(), q.to_bits(), "spmv parity at {shards} shards");
            }
            for (p, q) in r_s.iter().zip(&r_ref) {
                assert_eq!(
                    p.to_bits(),
                    q.to_bits(),
                    "residual parity at {shards} shards"
                );
            }
            if shards >= 2 {
                assert!(
                    critical < serial,
                    "{shards} shards must overlap: {critical} !< {serial}"
                );
                assert!(halo.bytes > 0, "halo traffic must be charged");
            }
        }
        // Eager and recorded sharded runs charge the same decomposed
        // piece sequence — serial totals agree bit-for-bit.
        let (y_rec, _, t_rec, _, halo_rec) = run(BackendKind::Sharded { shards: 3 }, true);
        let (y_eag, _, t_eag, _, halo_eag) = run(BackendKind::Sharded { shards: 3 }, false);
        assert_eq!(y_rec, y_eag);
        assert_eq!(t_rec.to_bits(), t_eag.to_bits());
        assert_eq!(halo_rec.bytes, halo_eag.bytes);
    }

    /// Repeated sharded regions on one context (the halo scratch comes
    /// from the context's pool after the first) charge and compute
    /// bit-identically every pass.
    #[test]
    fn repeated_sharded_regions_are_bit_identical() {
        use mpgmres_backend::BackendKind;
        let n = 48;
        let a = laplacian(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).cos()).collect();
        let mut ctx = GpuContext::with_backend_kind(
            DeviceModel::v100_belos(),
            ReductionOrder::Sequential,
            BackendKind::Sharded { shards: 3 },
        );
        let mut passes = Vec::new();
        for _ in 0..3 {
            ctx.reset_profile();
            let mut y = vec![0.0f64; n];
            {
                let mut st = ctx.stream();
                let ah = st.matrix(&a);
                let xh = st.slice(&x);
                let yh = st.slice_mut(&mut y);
                st.spmv(ah, xh, yh);
                st.sync();
            }
            passes.push((y, ctx.elapsed(), ctx.profiler().critical_seconds()));
        }
        for (y, serial, critical) in &passes[1..] {
            assert_eq!(y, &passes[0].0);
            assert_eq!(serial.to_bits(), passes[0].1.to_bits());
            assert_eq!(critical.to_bits(), passes[0].2.to_bits());
        }
    }

    /// Sharded SpMM: per-column per-shard spans, bit-identical to the
    /// reference whole-block op, with halo traffic scaled by the block
    /// width.
    #[test]
    fn sharded_spmm_matches_reference_bitwise() {
        use mpgmres_backend::BackendKind;
        let n = 40;
        let k = 3;
        let a = laplacian(n);
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|c| (0..n).map(|i| ((i + c) as f64 * 0.21).cos()).collect())
            .collect();
        let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let run = |kind: BackendKind| {
            let mut ctx = GpuContext::with_backend_kind(
                DeviceModel::v100_belos(),
                ReductionOrder::Sequential,
                kind,
            );
            let x = MultiVec::from_columns(&col_refs);
            let mut y = MultiVec::<f64>::zeros(n, k);
            {
                let mut st = ctx.stream();
                let ah = st.matrix(&a);
                let xh = st.block(&x);
                let yh = st.block_mut(&mut y);
                st.spmm(ah, xh, k, yh);
                st.sync();
            }
            let halo = ctx.profiler().class_stats(KernelClass::Halo);
            (y, halo)
        };
        let (y_ref, _) = run(BackendKind::Reference);
        let (y_one, halo_one) = run(BackendKind::Sharded { shards: 2 });
        assert_eq!(y_ref.data(), y_one.data());
        let (y_more, halo_more) = run(BackendKind::Sharded { shards: 4 });
        assert_eq!(y_ref.data(), y_more.data());
        // Block width multiplies the exchanged bytes; more shards cut
        // more boundaries.
        assert!(halo_one.bytes > 0);
        assert!(halo_more.bytes > halo_one.bytes);
    }
}
