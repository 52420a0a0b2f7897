//! The command recorder: solver regions register buffers into an
//! arena and record kernel ops against stable handles; each op runs at
//! its record call.
//!
//! [`Stream`] is the one kernel execution path of [`GpuContext`]: every
//! kernel a solver or preconditioner runs — matrix, Krylov-basis,
//! level-1, reduction and precision-cast ops — is a record call on a
//! stream. A region opens a stream, **registers** each buffer it will
//! touch exactly once (obtaining a `Copy` handle), then records kernel
//! calls against the handles. Each record call validates shapes, prices
//! the op through the context's cost specs, charges it, and runs its
//! launch on the context's [`Backend`] before returning. The arena and
//! the region's span graph live in the context's reused scratch and are
//! cleared when the next region opens.
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
//! # Recorded and eager streams
//!
//! Both kinds run the same kernels in the same order (record order), so
//! they compute the same bits. They differ only in where the profiler
//! charges each op. A recording stream pushes the op's spans onto the
//! region's graph and charges it at its DAG-ready time: the latest
//! finish among earlier ops whose spans conflict with it (see
//! [`mpgmres_backend::stream`]). Independent ops therefore overlap on
//! the simulated timeline, and the report's critical path can drop
//! below the serial sum. For a chain-shaped region the two timelines
//! agree bit-for-bit.
//!
//! With [`GpuContext::set_streaming`] turned off, every stream is eager:
//! each op is charged at the profiler's current critical time, exactly
//! like `Profiler::charge`, and adds no graph node. An eager region is
//! therefore a chain (critical == serial), and it is the reference the
//! parity suite compares recorded regions against. Work that cannot
//! join a recorded region runs on streams that are eager whatever the
//! switch says: the preconditioner applies (block Jacobi's
//! [`Stream::block_lu_solve`], the polynomial and Chebyshev
//! recurrences, the casts of mixed-precision wrappers), the refinement
//! loops' casts and updates, the MGS dot/axpy sequence, and, at
//! pipeline depth 0, `BlockGmres`'s deferred host groups (each lane's
//! Givens and least-squares charges, the basis extensions and the
//! direction gathers). Reading a
//! result slot (e.g. a [`Stream::norm2_into`] target) is only possible
//! after `sync` releases the registration borrows — the type system
//! enforces "don't read before sync".

use std::marker::PhantomData;

use mpgmres_backend::stream::Span;
use mpgmres_backend::{Backend, BackendScalar};
use mpgmres_gpusim::KernelClass;
use mpgmres_la::basis::BasisStore;
use mpgmres_la::dense::BlockLu;
use mpgmres_la::multivec::MultiVec;
use mpgmres_la::raw::BufferArena;
use mpgmres_scalar::{Precision, Scalar};

use crate::context::{GpuContext, GpuMatrix, GpuStore};

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
/// benchmark: `hits` is always 0, `misses` counts recorded regions that
/// recorded at least one op and `nodes_allocated` counts recorded ops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Always 0 (no region reuses another region's graph).
    pub hits: u64,
    /// Recorded regions with at least one op.
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

/// Handle of registered block-diagonal LU factors ([`BlockLu`], block
/// Jacobi's packed factors).
#[derive(Clone, Copy, Debug)]
pub struct LuRef<S> {
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

    /// The precision the basis stores its elements in.
    fn storage(self) -> Precision {
        match self.ebytes {
            2 => Precision::Fp16,
            4 => Precision::Fp32,
            8 => Precision::Fp64,
            e => unreachable!("basis element width {e}"),
        }
    }

    /// Read view of basis column `j` (native-only: column views are
    /// working-precision slices, which a compressed store does not
    /// expose; `BlockGmres`'s fused direction gather reads them).
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

/// Handle of a *mutably* registered Krylov basis: one `BlockGmres`
/// region reads the basis whole (batched CGS kernels) while the
/// recorded basis extension writes one column — the mixed access
/// pattern that needs a single exclusive registration with
/// column-granular spans. Compressed bases register too, for
/// [`Stream::basis_lane_scal_copy`]; their column views panic.
#[derive(Clone, Copy, Debug)]
pub struct BasisMut<S> {
    id: u32,
    n: u32,
    ncap: u32,
    ebytes: u32,
    _s: PhantomData<fn() -> S>,
}

impl<S: Scalar> BasisMut<S> {
    /// Read view of the whole basis (batched CGS kernels).
    pub fn read(self) -> BasisRef<S> {
        BasisRef {
            id: self.id,
            n: self.n,
            ncap: self.ncap,
            ebytes: self.ebytes,
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
    /// this view (e.g. `BlockGmres`'s lagged per-lane host-step spans).
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
    /// Charge each op at the current critical time, with no graph node.
    eager: bool,
    /// The critical time at which the region opened: no recorded op is
    /// ready before it.
    base: f64,
}

impl<'c> Stream<'c> {
    pub(crate) fn begin(ctx: &'c mut GpuContext) -> Self {
        let eager = !ctx.streaming();
        Self::open(ctx, eager)
    }

    /// A stream that is eager whatever the context's streaming switch
    /// says, so its charges stay a serial chain: the work between host
    /// decisions (preconditioner applies, refinement casts and updates,
    /// MGS steps) runs through it.
    pub(crate) fn eager(ctx: &'c mut GpuContext) -> Self {
        Self::open(ctx, true)
    }

    fn open(ctx: &'c mut GpuContext, eager: bool) -> Self {
        let base = ctx.profiler().critical_seconds();
        ctx.scratch_reset();
        Stream { ctx, eager, base }
    }

    /// Ops recorded on the region's graph so far (always 0 in eager
    /// mode, which adds no graph nodes).
    pub fn recorded(&self) -> usize {
        self.ctx.scratch().graph.len()
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

    /// Register packed block LU factors (read-only).
    pub fn block_lu<S: Scalar>(&mut self, f: &'c BlockLu<S>) -> LuRef<S> {
        // SAFETY: `f` stays borrowed until the stream's sync/drop.
        let id = unsafe { self.ctx.arena_mut().register_obj(f as *const BlockLu<S>) };
        LuRef {
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
    /// before the projections. Column views are working-precision
    /// slices, so only native bases have them; a compressed basis is
    /// written whole-object by [`Stream::basis_lane_scal_copy`].
    pub fn basis_mut<S: Scalar>(&mut self, v: &'c mut BasisStore<S>) -> BasisMut<S> {
        let (n, ncap, ebytes) = (v.n(), v.max_cols(), v.elem_bytes());
        // Compressed stores return a null data pointer (no column views).
        let (obj, data, len) = v.arena_parts();
        // SAFETY: `v` stays exclusively borrowed until sync/drop; the
        // data pointer is derived through the object pointer (see
        // `BasisStore::arena_parts`), keeping one provenance chain.
        let id = unsafe { self.ctx.arena_mut().register_obj_mut(obj, data, len) };
        BasisMut {
            id,
            n: u32::try_from(n).expect("basis rows"),
            ncap: u32::try_from(ncap).expect("basis cols"),
            ebytes: u32::try_from(ebytes).expect("basis elem bytes"),
            _s: PhantomData,
        }
    }

    /// Register a per-lane basis set mutably (all the same shape, possibly
    /// empty), returning one [`BasisMut`] per lane in order.
    pub fn bases_mut<S: Scalar>(&mut self, vs: Vec<&'c mut BasisStore<S>>) -> Vec<BasisMut<S>> {
        let shape = vs.first().map(|v| (v.n(), v.max_cols()));
        vs.into_iter()
            .map(|v| {
                let got = Some((v.n(), v.max_cols()));
                assert_eq!(got, shape, "stream bases_mut: ragged lane set");
                self.basis_mut(v)
            })
            .collect()
    }

    /// Build a [`BasisList`] (the batched kernels' per-column basis
    /// argument) from already-registered basis handles — `BlockGmres`
    /// registers its lane bases mutably once per region, then hands a
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

    /// Shape check of a matrix-vector op on a `(rows, cols)` operator:
    /// `x` runs over the columns, the output over the rows.
    fn assert_matvec(label: &str, (rows, cols): (usize, usize), x: u32, y: u32) {
        assert_eq!(
            x as usize, cols,
            "stream {label}: x has length {x} but A has {cols} columns"
        );
        assert_eq!(
            y as usize, rows,
            "stream {label}: output has length {y} but A has {rows} rows"
        );
    }

    /// Shape check of a batched matrix op over the leading `k` columns
    /// of `x` (rows = operator columns) and `y` (rows = operator rows).
    /// Width-0 launches are a driver bug, and the SpMM cost model's
    /// `k - 1` extra-column term needs `k >= 1`.
    fn assert_matmat<S>(
        label: &str,
        (rows, cols): (usize, usize),
        x: BlockRef<S>,
        k: u32,
        y: BlockMut<S>,
    ) {
        assert!(k >= 1, "stream {label}: empty block (k = 0)");
        assert!(
            k <= x.k && k <= y.k,
            "stream {label}: {k} columns requested but X has {} and Y has {}",
            x.k,
            y.k
        );
        assert_eq!(
            x.n as usize, cols,
            "stream {label}: X has {} rows but A has {cols} columns",
            x.n
        );
        assert_eq!(
            y.n as usize, rows,
            "stream {label}: Y has {} rows but A has {rows} rows",
            y.n
        );
    }

    /// Charge one op and run it: the one place every kernel runs. A
    /// recording stream charges the op at its DAG-ready time (the
    /// latest finish among earlier ops whose spans conflict with it,
    /// never before the region opened) and adds it to the region's
    /// graph; an eager stream charges it at the profiler's current
    /// critical time (exactly `Profiler::charge`). Either way `launch`
    /// then runs at once, against the arena.
    ///
    /// A launch obeys the arena contract: it materializes a `&mut` only
    /// for memory the op declared a write span on and a `&` only for
    /// declared reads. Ops run one at a time, in record order, and the
    /// stream keeps every registration borrowed until sync, so no two
    /// live views alias.
    fn record(
        &mut self,
        label: &'static str,
        reads: &[Span],
        writes: &[Span],
        charge: Option<(KernelClass, f64, usize)>,
        launch: impl FnOnce(&dyn Backend, &BufferArena),
    ) {
        if self.eager {
            if let Some((class, t, bytes)) = charge {
                self.ctx.profiler_mut().charge(class, t, bytes);
            }
        } else {
            let ready = self.ctx.scratch().graph.ready(self.base, reads, writes);
            let fin = match charge {
                Some((class, t, bytes)) => {
                    self.ctx.profiler_mut().charge_ready(class, t, bytes, ready)
                }
                None => ready,
            };
            let scratch = self.ctx.scratch_mut();
            scratch.stats.misses += u64::from(scratch.graph.is_empty());
            scratch.stats.nodes_allocated += 1;
            scratch.graph.push(label, reads, writes, fin);
        }
        launch(self.ctx.backend(), self.arena());
    }

    /// End the region: the registration borrows end here, and the host
    /// may read results. Every op already ran at its record call, so
    /// dropping the stream does the same.
    pub fn sync(self) {}

    // ----- recordable kernels ----------------------------------------

    /// Record `y = A x` (charged as a solver SpMV).
    pub fn spmv<S: BackendScalar>(&mut self, a: MatRef<S>, x: ArgSlice<S>, y: ArgSliceMut<S>) {
        // SAFETY: registered borrows are live for the stream's lifetime.
        let am: &GpuMatrix<S> = unsafe { self.arena().obj(a.id) };
        Self::assert_matvec("spmv", (am.n(), am.csr().ncols()), x.len, y.len);
        Self::assert_noalias("spmv", &[x.span()], &[y.span()]);
        let (t, bytes) = self.ctx.spmv_spec::<S>(am);
        let charge = Some((KernelClass::SpMV, t, bytes));
        self.record("spmv", &[x.span()], &[y.span()], charge, |b, arena| {
            // SAFETY: arena contract (see `Stream::record`).
            unsafe {
                let x = arena.slice::<S>(x.buf, x.off, x.len);
                let y = arena.slice_mut::<S>(y.buf, y.off, y.len);
                S::view(b).spmv(am.csr(), x, y);
            }
        });
    }

    /// Record `y = M^{-1} x` for packed block LU factors: every
    /// diagonal block's triangular solves as one batched kernel (block
    /// Jacobi's apply, charged as a solver SpMV).
    pub fn block_lu_solve<S: BackendScalar>(
        &mut self,
        f: LuRef<S>,
        x: ArgSlice<S>,
        y: ArgSliceMut<S>,
    ) {
        // SAFETY: registered borrows are live for the stream's lifetime.
        let lu: &BlockLu<S> = unsafe { self.arena().obj(f.id) };
        Self::assert_matvec("block_lu_solve", (lu.n(), lu.n()), x.len, y.len);
        Self::assert_noalias("block_lu_solve", &[x.span()], &[y.span()]);
        let (t, bytes) = self.ctx.block_solve_spec::<S>(lu.n(), lu.block_size());
        let charge = Some((KernelClass::SpMV, t, bytes));
        self.record(
            "block_lu_solve",
            &[x.span()],
            &[y.span()],
            charge,
            |b, arena| {
                // SAFETY: arena contract (see `Stream::record`).
                unsafe {
                    let x = arena.slice::<S>(x.buf, x.off, x.len);
                    let y = arena.slice_mut::<S>(y.buf, y.off, y.len);
                    S::view(b).block_lu_solve(lu, x, y);
                }
            },
        );
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
        Self::assert_matvec("residual", (am.n(), am.csr().ncols()), x.len, r.len);
        assert_eq!(b.len as usize, am.n(), "stream residual: b length");
        Self::assert_noalias("residual", &[b.span(), x.span()], &[r.span()]);
        let (t, bytes) = self.ctx.residual_spec::<S>(am);
        let charge = Some((class, t, bytes));
        self.record(
            "residual",
            &[b.span(), x.span()],
            &[r.span()],
            charge,
            |be, arena| {
                // SAFETY: arena contract (see `Stream::record`).
                unsafe {
                    let bb = arena.slice::<S>(b.buf, b.off, b.len);
                    let x = arena.slice::<S>(x.buf, x.off, x.len);
                    let r = arena.slice_mut::<S>(r.buf, r.off, r.len);
                    S::view(be).residual(am.csr(), bb, x, r);
                }
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
        let shape = (am.n(), am.store().ncols());
        Self::assert_matvec("store_residual", shape, x.len, r.len);
        assert_eq!(b.len as usize, am.n(), "stream store_residual: b length");
        Self::assert_noalias("store_residual", &[b.span(), x.span()], &[r.span()]);
        let (t, bytes) = self.ctx.store_residual_spec::<S>(am);
        let reads = [b.span(), x.span()];
        let charge = Some((class, t, bytes));
        self.record(
            "store_residual",
            &reads,
            &[r.span()],
            charge,
            |be, arena| {
                // SAFETY: arena contract (see `Stream::record`).
                unsafe {
                    let bb = arena.slice::<S>(b.buf, b.off, b.len);
                    let x = arena.slice::<S>(x.buf, x.off, x.len);
                    let r = arena.slice_mut::<S>(r.buf, r.off, r.len);
                    S::view(be).store_residual(am.store(), bb, x, r);
                }
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
        let (t, bytes) = self
            .ctx
            .basis_gemv_t_spec::<S>(v.n as usize, ncols, v.ebytes as usize);
        let order = self.ctx.reduction();
        self.record(
            "gemv_t",
            &[v.read_span(nc), w.span()],
            &[h.prefix_span(nc)],
            Some((KernelClass::GemvT, t, bytes)),
            |b, arena| {
                // SAFETY: arena contract (see `Stream::record`).
                unsafe {
                    let vs: &BasisStore<S> = arena.obj(v.id);
                    let w = arena.slice::<S>(w.buf, w.off, w.len);
                    let h = arena.slice_mut::<S>(h.buf, h.off, nc);
                    S::view(b).basis_gemv_t(vs, ncols, w, h, order);
                }
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
        let h_read = h.sub(0, ncols);
        Self::assert_noalias("gemv_n", &[h_read.span()], &[w.span()]);
        let (t, bytes) = self
            .ctx
            .basis_gemv_n_spec::<S>(v.n as usize, ncols, v.ebytes as usize);
        self.record(
            if add { "gemv_n_add" } else { "gemv_n_sub" },
            &[v.read_span(nc), h_read.span()],
            &[w.span()],
            Some((KernelClass::GemvN, t, bytes)),
            |b, arena| {
                // SAFETY: arena contract (see `Stream::record`).
                unsafe {
                    let vs: &BasisStore<S> = arena.obj(v.id);
                    let h = arena.slice::<S>(h.buf, h.off, nc);
                    let w = arena.slice_mut::<S>(w.buf, w.off, w.len);
                    if add {
                        S::view(b).basis_gemv_n_add(vs, ncols, h, w);
                    } else {
                        S::view(b).basis_gemv_n_sub(vs, ncols, h, w);
                    }
                }
            },
        );
    }

    /// Record `y += alpha x`.
    pub fn axpy<S: BackendScalar>(&mut self, alpha: S, x: ArgSlice<S>, y: ArgSliceMut<S>) {
        assert_eq!(x.len, y.len, "stream axpy: length mismatch");
        Self::assert_noalias("axpy", &[x.span()], &[y.span()]);
        let (t, bytes) = self.ctx.axpy_spec::<S>(x.len as usize);
        let charge = Some((KernelClass::Axpy, t, bytes));
        self.record("axpy", &[x.span()], &[y.span()], charge, |b, arena| {
            // SAFETY: arena contract (see `Stream::record`).
            unsafe {
                let x = arena.slice::<S>(x.buf, x.off, x.len);
                let y = arena.slice_mut::<S>(y.buf, y.off, y.len);
                S::view(b).axpy(alpha, x, y);
            }
        });
    }

    /// Record `x *= alpha`.
    pub fn scal<S: BackendScalar>(&mut self, alpha: S, x: ArgSliceMut<S>) {
        let (t, bytes) = self.ctx.scal_spec::<S>(x.len as usize);
        let charge = Some((KernelClass::Scal, t, bytes));
        self.record("scal", &[], &[x.span()], charge, |b, arena| {
            // SAFETY: arena contract (see `Stream::record`).
            unsafe { S::view(b).scal(alpha, arena.slice_mut::<S>(x.buf, x.off, x.len)) }
        });
    }

    /// Record a device-resident copy (uncharged: the paper's accounting
    /// attaches no cost to plain copies; still a DAG node so dependent
    /// ops order).
    pub fn copy<S: BackendScalar>(&mut self, src: ArgSlice<S>, dst: ArgSliceMut<S>) {
        assert_eq!(src.len, dst.len, "stream copy: length mismatch");
        Self::assert_noalias("copy", &[src.span()], &[dst.span()]);
        self.record("copy", &[src.span()], &[dst.span()], None, |b, arena| {
            // SAFETY: arena contract (see `Stream::record`).
            unsafe {
                let src = arena.slice::<S>(src.buf, src.off, src.len);
                let dst = arena.slice_mut::<S>(dst.buf, dst.off, dst.len);
                S::view(b).copy(src, dst);
            }
        });
    }

    /// Record a Euclidean norm whose result lands in `out` after sync.
    pub fn norm2_into<S: BackendScalar>(&mut self, x: ArgSlice<S>, out: ArgValMut<S>) {
        self.norm2_into_as(KernelClass::Norm, x, out);
    }

    /// As [`Stream::norm2_into`], charged to `class` (the IR outer loop
    /// books its convergence-check norms under
    /// [`KernelClass::ResidualHi`]).
    pub fn norm2_into_as<S: BackendScalar>(
        &mut self,
        class: KernelClass,
        x: ArgSlice<S>,
        out: ArgValMut<S>,
    ) {
        Self::assert_noalias("norm2", &[x.span()], &[out.span()]);
        let (t, bytes) = self.ctx.norm_spec::<S>(x.len as usize);
        let order = self.ctx.reduction();
        self.record(
            "norm2",
            &[x.span()],
            &[out.span()],
            Some((class, t, bytes)),
            |b, arena| {
                // SAFETY: arena contract (see `Stream::record`).
                unsafe {
                    let x = arena.slice::<S>(x.buf, x.off, x.len);
                    *arena.value_mut::<S>(out.buf, out.off) = S::view(b).norm2(x, order);
                }
            },
        );
    }

    /// Record an inner product whose result lands in `out` after sync
    /// (modified Gram-Schmidt's per-column projections).
    pub fn dot_into<S: BackendScalar>(
        &mut self,
        x: ArgSlice<S>,
        y: ArgSlice<S>,
        out: ArgValMut<S>,
    ) {
        assert_eq!(x.len, y.len, "stream dot: length mismatch");
        Self::assert_noalias("dot", &[x.span(), y.span()], &[out.span()]);
        let (t, bytes) = self.ctx.dot_spec::<S>(x.len as usize);
        let order = self.ctx.reduction();
        let charge = Some((KernelClass::Dot, t, bytes));
        self.record(
            "dot",
            &[x.span(), y.span()],
            &[out.span()],
            charge,
            |b, arena| {
                // SAFETY: arena contract (see `Stream::record`).
                unsafe {
                    let x = arena.slice::<S>(x.buf, x.off, x.len);
                    let y = arena.slice::<S>(y.buf, y.off, y.len);
                    *arena.value_mut::<S>(out.buf, out.off) = S::view(b).dot(x, y, order);
                }
            },
        );
    }

    /// Record a precision cast `dst = src`, charged to `class`: either
    /// [`KernelClass::CastDevice`] (device-resident, e.g. an fp32
    /// preconditioner under an fp64 solve, §III-D case a) or
    /// [`KernelClass::CastHost`] (GMRES-IR refinement residuals cross
    /// the Belos interface on the host, §IV).
    pub fn cast<S: Scalar, T: Scalar>(
        &mut self,
        class: KernelClass,
        src: ArgSlice<S>,
        dst: ArgSliceMut<T>,
    ) {
        assert_eq!(src.len, dst.len, "stream cast: length mismatch");
        Self::assert_noalias("cast", &[src.span()], &[dst.span()]);
        let (t, bytes) = self
            .ctx
            .cast_spec(class, src.len as usize, S::PRECISION, T::PRECISION);
        // Casts run on the host in every backend (no backend kernel
        // converts between precisions).
        let charge = Some((class, t, bytes));
        self.record("cast", &[src.span()], &[dst.span()], charge, |_, arena| {
            // SAFETY: arena contract (see `Stream::record`).
            unsafe {
                let src = arena.slice::<S>(src.buf, src.off, src.len);
                let dst = arena.slice_mut::<T>(dst.buf, dst.off, dst.len);
                mpgmres_scalar::cast_into(src, dst);
            }
        });
    }

    // ----- deferred host steps ---------------------------------------

    /// Record one lane's Givens/update bookkeeping for a PAST iteration
    /// `j` (the `BlockGmres` host step). The arithmetic already ran on
    /// the host when it consumed the synced results, so the op has no
    /// launch; it only carries the host-dense charge. On an eager stream
    /// (pipeline depth 0) that charge lands at the makespan, serialized
    /// against the device work. In a recorded region (depth 1) it lands
    /// at its DAG-ready time, which is how the timeline shows the host
    /// latency hidden behind the *current* iteration's device kernels.
    /// `lagged` (at most three) are the previous-parity
    /// norm/coefficient spans the step consumed (they conflict with nothing the current iteration
    /// writes, so the DAG proves the one-iteration lag safe), and
    /// `token` is the lane's host-state slot: consecutive host steps of
    /// one lane chain through it (WAW), keeping the Givens recurrence
    /// ordered per lane while distinct lanes overlap freely.
    pub fn host_givens<S: BackendScalar>(
        &mut self,
        j: usize,
        lagged: &[ArgSlice<S>],
        token: ArgValMut<S>,
    ) {
        let t = self.ctx.host_iter_spec(j);
        let mut reads = [Span::whole(0); 3];
        assert!(lagged.len() <= reads.len(), "host_givens: too many spans");
        if self.eager {
            // No launch, so nothing for the spans to guard: the charge
            // is the whole op (every lane, every iteration at depth 0).
            self.ctx.profiler_mut().charge(KernelClass::HostDense, t, 0);
            return;
        }
        for (r, s) in reads.iter_mut().zip(lagged) {
            *r = s.span();
        }
        self.host_node("host_givens", t, &reads[..lagged.len()], &[token.span()]);
    }

    /// Record one lane's least-squares solve at the cycle barrier
    /// (like [`Stream::host_givens`], a charge without a launch):
    /// charged as the per-restart host cost for `kc` columns,
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
        self.host_node("host_lsq", t, &[], &[token.span(), y.span()]);
    }

    fn host_node(&mut self, label: &'static str, seconds: f64, reads: &[Span], writes: &[Span]) {
        Self::assert_noalias(label, reads, writes);
        let charge = Some((KernelClass::HostDense, seconds, 0));
        self.record(label, reads, writes, charge, |_, _| {});
    }

    // ----- fused lane-set kernels (recorded forms) -------------------

    /// Record the fused per-lane copy `dsts[c] = srcs[c]` (the batched
    /// form of `BlockGmres`'s per-lane direction gathers; uncharged,
    /// like every copy). Sources and destinations are arbitrary
    /// registered views of one shared length.
    pub fn lane_copy<S: BackendScalar>(&mut self, srcs: &[ArgSlice<S>], dsts: &[ArgSliceMut<S>]) {
        let k = srcs.len();
        assert_eq!(k, dsts.len(), "stream lane_copy: lane count");
        assert!(k >= 1, "stream lane_copy: empty lane set");
        let n = srcs[0].len;
        let mut reads: Vec<Span> = Vec::with_capacity(k);
        let mut writes: Vec<Span> = Vec::with_capacity(k);
        for (s, d) in srcs.iter().zip(dsts) {
            assert_eq!(s.len, n, "stream lane_copy: ragged source lanes");
            assert_eq!(d.len, n, "stream lane_copy: ragged destination lanes");
            reads.push(s.span());
            writes.push(d.span());
        }
        Self::assert_noalias("lane_copy", &reads, &writes);
        self.record("lane_copy", &reads, &writes, None, |b, arena| {
            // SAFETY: arena contract (see `Stream::record`); each
            // destination is a distinct declared write span.
            unsafe {
                let srcs: Vec<&[S]> = srcs
                    .iter()
                    .map(|s| arena.slice::<S>(s.buf, s.off, n))
                    .collect();
                let mut dsts: Vec<&mut [S]> = dsts
                    .iter()
                    .map(|d| arena.slice_mut::<S>(d.buf, d.off, n))
                    .collect();
                S::view(b).lane_copy(&srcs, &mut dsts);
            }
        });
    }

    /// Record the fused per-lane basis extension (normalize-and-store)
    /// `vs[c][:, j] = alphas[c] * srcs[c]` over a lane set with one
    /// storage width, the demotion fused into compressed stores.
    /// `alphas` must be a registered view holding one coefficient per
    /// lane. Charged once under [`KernelClass::Scal`] at the store's
    /// element width (a width-`k` block scaling on native lanes, a
    /// single scal at `k = 1`). Native lanes write just column `j`, so
    /// recorded regions keep column-granular edges; compressed lanes
    /// are written whole-object.
    pub fn basis_lane_scal_copy<S: BackendScalar>(
        &mut self,
        alphas: ArgSlice<S>,
        srcs: &[ArgSlice<S>],
        vs: &[BasisMut<S>],
        j: usize,
    ) {
        let k = srcs.len();
        assert_eq!(k, vs.len(), "stream basis_lane_scal_copy: lane count");
        assert!(k >= 1, "stream basis_lane_scal_copy: empty lane set");
        assert!(
            alphas.len as usize >= k,
            "stream basis_lane_scal_copy: alphas"
        );
        let jj = u32::try_from(j).expect("basis column");
        let (n, ebytes) = (vs[0].n, vs[0].ebytes);
        let native = vs[0].read().is_native();
        let mut reads = vec![alphas.sub(0, k).span()];
        let mut writes = Vec::with_capacity(k);
        for (c, (s, v)) in srcs.iter().zip(vs).enumerate() {
            assert!(
                jj < v.ncap,
                "stream basis_lane_scal_copy: column out of range"
            );
            assert_eq!(
                (s.len, v.n),
                (n, n),
                "stream basis_lane_scal_copy: lane {c} length mismatch"
            );
            assert_eq!(
                v.ebytes, ebytes,
                "stream basis_lane_scal_copy: lane {c} storage width differs from lane 0"
            );
            reads.push(s.span());
            writes.push(if native {
                v.col_mut(j).span()
            } else {
                Span::whole(v.id)
            });
        }
        Self::assert_noalias("basis_lane_scal_copy", &reads, &writes);
        let (t, bytes) = self
            .ctx
            .basis_scal_copy_spec::<S>(n as usize, k, ebytes as usize);
        let charge = Some((KernelClass::Scal, t, bytes));
        self.record(
            "basis_lane_scal_copy",
            &reads,
            &writes,
            charge,
            |b, arena| {
                // SAFETY: arena contract (see `Stream::record`); native lanes
                // materialize only their declared column write spans,
                // compressed lanes carry whole-object write spans, and the
                // lanes are distinct registrations.
                unsafe {
                    let alphas = arena.slice::<S>(alphas.buf, alphas.off, k as u32);
                    let srcs: Vec<&[S]> = srcs
                        .iter()
                        .map(|s| arena.slice::<S>(s.buf, s.off, n))
                        .collect();
                    if native {
                        let mut dsts: Vec<&mut [S]> = vs
                            .iter()
                            .map(|v| arena.slice_mut::<S>(v.id, jj * n, n))
                            .collect();
                        S::view(b).lane_scal_copy(alphas, &srcs, &mut dsts);
                    } else {
                        let mut vs: Vec<&mut BasisStore<S>> = vs
                            .iter()
                            .map(|v| arena.obj_mut::<BasisStore<S>>(v.id))
                            .collect();
                        S::view(b).basis_lane_scal_copy(&mut vs, j, alphas, &srcs);
                    }
                }
            },
        );
    }

    /// Record the promotion of stored basis column `j` into a
    /// working-precision buffer. Native: a plain device copy,
    /// uncharged like every copy; compressed: a device-resident
    /// widening cast, charged like [`Stream::cast`] from the storage
    /// precision.
    pub fn basis_promote_col<S: BackendScalar>(
        &mut self,
        v: BasisRef<S>,
        j: usize,
        out: ArgSliceMut<S>,
    ) {
        let jj = u32::try_from(j).expect("basis column");
        assert!(jj < v.ncap, "stream basis_promote_col: column out of range");
        assert_eq!(out.len, v.n, "stream basis_promote_col: length mismatch");
        let col = Span::elems(v.id, jj * v.n, v.n, v.ebytes as usize);
        Self::assert_noalias("basis_promote_col", &[col], &[out.span()]);
        let charge = (!v.is_native()).then(|| {
            let (t, bytes) = self.ctx.cast_spec(
                KernelClass::CastDevice,
                v.n as usize,
                v.storage(),
                S::PRECISION,
            );
            (KernelClass::CastDevice, t, bytes)
        });
        self.record(
            "basis_promote_col",
            &[col],
            &[out.span()],
            charge,
            |b, arena| {
                // SAFETY: arena contract (see `Stream::record`).
                unsafe {
                    let vs: &BasisStore<S> = arena.obj(v.id);
                    let out = arena.slice_mut::<S>(out.buf, out.off, out.len);
                    S::view(b).basis_promote_col(vs, j, out);
                }
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
        Self::assert_matmat("spmm", (am.n(), am.csr().ncols()), x, kk, y);
        Self::assert_noalias("spmm", &[Span::whole(x.id)], &[Span::whole(y.id)]);
        let (t, bytes) = self.ctx.spmm_spec::<S>(am, k);
        let charge = Some((KernelClass::SpMV, t, bytes));
        let reads = [Span::whole(x.id)];
        let writes = [Span::whole(y.id)];
        self.record("spmm", &reads, &writes, charge, |b, arena| {
            // SAFETY: arena contract (see `Stream::record`); the write
            // span covers all of y, so the whole-object `&mut` aliases
            // nothing.
            unsafe {
                let (x, y) = (
                    arena.obj::<MultiVec<S>>(x.id),
                    arena.obj_mut::<MultiVec<S>>(y.id),
                );
                S::view(b).spmm(am.csr(), x, k, y);
            }
        });
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
        let shape = (am.n(), am.store().ncols());
        Self::assert_matmat("store_spmm", shape, x, kk, y);
        Self::assert_noalias("store_spmm", &[Span::whole(x.id)], &[Span::whole(y.id)]);
        let (t, bytes) = self.ctx.store_spmm_spec::<S>(am, k);
        let charge = Some((KernelClass::SpMV, t, bytes));
        let reads = [Span::whole(x.id)];
        let writes = [Span::whole(y.id)];
        self.record("store_spmm", &reads, &writes, charge, |b, arena| {
            // SAFETY: as in `Stream::spmm`.
            unsafe {
                let (x, y) = (
                    arena.obj::<MultiVec<S>>(x.id),
                    arena.obj_mut::<MultiVec<S>>(y.id),
                );
                S::view(b).store_spmm(am.store(), x, k, y);
            }
        });
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
        let (t, bytes) =
            self.ctx
                .basis_gemm_t_spec::<S>(w.n as usize, ncols, k as usize, vs.ebytes as usize);
        let mut reads: Vec<Span> = self.basis_spans(vs, nc);
        reads.push(Span::whole(w.id));
        let order = self.ctx.reduction();
        let charge = Some((KernelClass::GemvT, t, bytes));
        self.record(
            "block_gemv_t",
            &reads,
            &[h.prefix_span(k * nc)],
            charge,
            |b, arena| {
                // SAFETY: arena contract (see `Stream::record`).
                unsafe {
                    let vs = Self::resolve_bases(arena, vs);
                    let w: &MultiVec<S> = arena.obj(w.id);
                    let h = arena.slice_mut::<S>(h.buf, h.off, k * nc);
                    S::view(b).basis_block_gemv_t(&vs, ncols, w, h, order);
                }
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
        let h_read = h.sub(0, (k * nc) as usize);
        Self::assert_noalias("block_gemv_n", &[h_read.span()], &[Span::whole(w.id)]);
        let (t, bytes) =
            self.ctx
                .basis_gemm_n_spec::<S>(w.n as usize, ncols, k as usize, vs.ebytes as usize);
        let mut reads: Vec<Span> = self.basis_spans(vs, nc);
        reads.push(h_read.span());
        let charge = Some((KernelClass::GemvN, t, bytes));
        self.record(
            "block_gemv_n_sub",
            &reads,
            &[Span::whole(w.id)],
            charge,
            |b, arena| {
                // SAFETY: arena contract (see `Stream::record`); the write
                // span covers all of w.
                unsafe {
                    let vs = Self::resolve_bases(arena, vs);
                    let h = arena.slice::<S>(h.buf, h.off, k * nc);
                    let w: &mut MultiVec<S> = arena.obj_mut(w.id);
                    S::view(b).basis_block_gemv_n_sub(&vs, ncols, h, w);
                }
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
        let (t, bytes) = self.ctx.block_norm_spec::<S>(x.n as usize, k);
        let order = self.ctx.reduction();
        let charge = Some((KernelClass::Norm, t, bytes));
        self.record(
            "block_norm2",
            &[Span::whole(x.id)],
            &[out.prefix_span(kk)],
            charge,
            |b, arena| {
                // SAFETY: arena contract (see `Stream::record`).
                unsafe {
                    let x: &MultiVec<S> = arena.obj(x.id);
                    let out = arena.slice_mut::<S>(out.buf, out.off, kk);
                    S::view(b).block_norm2(x, k, out, order);
                }
            },
        );
    }

    /// The basis stores a [`BasisList`] names.
    ///
    /// # Safety
    /// Arena contract (see [`Stream::record`]).
    unsafe fn resolve_bases<'a, S: Scalar>(
        arena: &BufferArena,
        vs: BasisList<S>,
    ) -> Vec<&'a BasisStore<S>> {
        let ids = arena.list(vs.start, vs.len);
        ids.iter()
            .map(|&id| arena.obj::<BasisStore<S>>(id))
            .collect()
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
        {
            let mut st = Stream::eager(&mut ctx);
            let (xh, yh) = (st.slice(&x), st.slice_mut(&mut y));
            st.axpy(1.0, xh, yh);
        }
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

    /// The deferred-host building blocks — a host node, a recorded
    /// fused basis extension, and a recorded lane copy — are
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
            let mut v0 = BasisStore::<f64>::native(2, 1);
            let mut v1 = BasisStore::<f64>::native(2, 1);
            let mut zs = [0.0f64; 2];
            let mut token = 0.0f64;
            let mut criticals = Vec::new();
            for _ in 0..2 {
                let mut st = ctx.stream();
                let ah = st.slice(&alphas);
                let xh = st.slice(&xs);
                let vs = st.bases_mut(vec![&mut v0, &mut v1]);
                let zh = st.slice_mut(&mut zs);
                let th = st.val_mut(&mut token);
                // Deferred host step reading a lagged span the device
                // ops below never touch: independent, so it overlaps.
                st.host_givens(3, &[xh.sub(0, 2)], th);
                st.basis_lane_scal_copy(ah, &[xh.sub(0, 2), xh.sub(2, 2)], &vs, 0);
                st.lane_copy(&[vs[0].col(0)], &[zh]);
                st.sync();
                criticals.push(ctx.profiler().critical_seconds());
            }
            let ys = [v0.expect_native().col(0), v1.expect_native().col(0)].concat();
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

    // ----- shape checks ------------------------------------------------

    /// A 3x2 operator: as many rows as a length-3 vector, so only a
    /// column check can reject `x`.
    fn tall_matrix() -> GpuMatrix<f64> {
        let mut coo = Coo::new(3, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(2, 0, 1.0);
        GpuMatrix::new(coo.into_csr())
    }

    #[test]
    #[should_panic(expected = "stream spmv: x has length 3 but A has 2 columns")]
    fn spmv_shape_mismatch_panics() {
        let a = tall_matrix();
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let x = [1.0f64; 3];
        let mut y = [0.0f64; 3];
        let mut st = Stream::eager(&mut ctx);
        let (ah, xh, yh) = (st.matrix(&a), st.slice(&x), st.slice_mut(&mut y));
        st.spmv(ah, xh, yh);
    }

    #[test]
    #[should_panic(expected = "stream residual: x has length 3 but A has 2 columns")]
    fn residual_shape_mismatch_panics() {
        let a = tall_matrix();
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let (b, x) = ([1.0f64; 3], [1.0f64; 3]);
        let mut r = [0.0f64; 3];
        let mut st = Stream::eager(&mut ctx);
        let (ah, bh, xh) = (st.matrix(&a), st.slice(&b), st.slice(&x));
        let rh = st.slice_mut(&mut r);
        st.residual_as(KernelClass::SpMV, ah, bh, xh, rh);
    }

    #[test]
    #[should_panic(expected = "stream store_residual: x has length 3 but A has 2 columns")]
    fn store_residual_shape_mismatch_panics() {
        let a = GpuStore::plain_of(&tall_matrix());
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let (b, x) = ([1.0f64; 3], [1.0f64; 3]);
        let mut r = [0.0f64; 3];
        let mut st = ctx.stream();
        let (ah, bh, xh) = (st.store(&a), st.slice(&b), st.slice(&x));
        let rh = st.slice_mut(&mut r);
        st.store_residual_as(KernelClass::SpMV, ah, bh, xh, rh);
    }

    fn spmm_with_width(a: &GpuMatrix<f64>, xn: usize, k: usize) {
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let x = MultiVec::<f64>::zeros(xn, 2);
        let mut y = MultiVec::<f64>::zeros(a.n(), 2);
        let mut st = ctx.stream();
        let ah = st.matrix(a);
        let xh = st.block(&x);
        let yh = st.block_mut(&mut y);
        st.spmm(ah, xh, k, yh);
    }

    #[test]
    #[should_panic(expected = "stream spmm: empty block (k = 0)")]
    fn spmm_zero_width_panics() {
        spmm_with_width(&small_matrix(), 3, 0);
    }

    #[test]
    #[should_panic(expected = "stream spmm: 3 columns requested but X has 2 and Y has 2")]
    fn spmm_column_overflow_panics() {
        spmm_with_width(&small_matrix(), 3, 3);
    }

    #[test]
    #[should_panic(expected = "stream spmm: X has 3 rows but A has 2 columns")]
    fn spmm_row_mismatch_panics() {
        spmm_with_width(&tall_matrix(), 3, 1);
    }

    #[test]
    #[should_panic(expected = "stream store_spmm: X has 3 rows but A has 2 columns")]
    fn store_spmm_row_mismatch_panics() {
        let a = GpuStore::plain_of(&tall_matrix());
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let x = MultiVec::<f64>::zeros(3, 1);
        let mut y = MultiVec::<f64>::zeros(3, 1);
        let mut st = ctx.stream();
        let ah = st.store(&a);
        let xh = st.block(&x);
        let yh = st.block_mut(&mut y);
        st.store_spmm(ah, xh, 1, yh);
    }

    #[test]
    #[should_panic(expected = "stream block_gemv_t: basis/block rows")]
    fn block_gemv_row_mismatch_panics() {
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let v = BasisStore::<f64>::native(4, 2);
        let w = MultiVec::<f64>::zeros(3, 1);
        let mut h = [0.0f64; 2];
        let mut st = ctx.stream();
        let vh = st.basis(&v);
        let vs = st.basis_list(&[vh]);
        let wh = st.block(&w);
        let hh = st.slice_mut(&mut h);
        st.block_gemv_t(vs, 2, wh, hh);
    }
    #[test]
    #[should_panic(expected = "stream gemv_t: ncols over basis capacity")]
    fn gemv_t_column_overflow_panics() {
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let v = BasisStore::<f64>::native(3, 2);
        let w = [0.0f64; 3];
        let mut h = [0.0f64; 5];
        let mut st = ctx.stream();
        let (vh, wh, hh) = (st.basis(&v), st.slice(&w), st.slice_mut(&mut h));
        st.gemv_t(vh, 5, wh, hh);
    }

    #[test]
    #[should_panic(expected = "stream axpy: length mismatch")]
    fn axpy_length_mismatch_panics() {
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let x = [0.0f64; 2];
        let mut y = [0.0f64; 3];
        let mut st = ctx.stream();
        let (xh, yh) = (st.slice(&x), st.slice_mut(&mut y));
        st.axpy(1.0, xh, yh);
    }

    #[test]
    #[should_panic(expected = "stream dot: length mismatch")]
    fn dot_length_mismatch_panics() {
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let (x, y) = ([0.0f64; 2], [0.0f64; 3]);
        let mut out = 0.0f64;
        let mut st = ctx.stream();
        let (xh, yh, oh) = (st.slice(&x), st.slice(&y), st.val_mut(&mut out));
        st.dot_into(xh, yh, oh);
    }

    #[test]
    #[should_panic(expected = "stream cast: length mismatch")]
    fn cast_length_mismatch_panics() {
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let x = [0.0f64; 3];
        let mut lo = [0.0f32; 2];
        let mut st = ctx.stream();
        let (xh, loh) = (st.slice(&x), st.slice_mut(&mut lo));
        st.cast(KernelClass::CastDevice, xh, loh);
    }

    /// The compressed-basis column ops are priced like the kernels they
    /// fuse: promotion as a `CastDevice` from the storage precision
    /// (nothing on a native basis), the lane-set extension as one `Scal`
    /// at `basis_scal_copy_spec` with the store's element width.
    #[test]
    fn compressed_basis_ops_charge_cast_and_scal_specs() {
        use mpgmres_scalar::Precision;
        let n = 8;
        let dev = DeviceModel::v100_belos();
        let mut ctx = GpuContext::with_reduction(dev.clone(), ReductionOrder::Sequential);
        let src: Vec<f64> = (0..n).map(|i| 0.25 * i as f64 - 1.0).collect();
        let alphas = [2.0f64, 0.5];
        let mut v32 = BasisStore::<f64>::compressed(n, 3, Precision::Fp32);
        let mut v32b = BasisStore::<f64>::compressed(n, 3, Precision::Fp32);
        {
            let mut st = Stream::eager(&mut ctx);
            let (ah, sh) = (st.slice(&alphas), st.slice(&src));
            let vs = st.bases_mut(vec![&mut v32, &mut v32b]);
            st.basis_lane_scal_copy(ah, &[sh, sh], &vs, 1);
        }
        let scal = ctx.profiler().class_stats(KernelClass::Scal);
        let (t, bytes) = ctx.basis_scal_copy_spec::<f64>(n, 2, 4);
        assert_eq!((scal.calls, scal.bytes), (1, bytes as u64));
        assert_eq!(scal.seconds.to_bits(), t.to_bits());

        let mut out = vec![0.0f64; n];
        {
            let mut st = Stream::eager(&mut ctx);
            let (vh, oh) = (st.basis(&v32b), st.slice_mut(&mut out));
            st.basis_promote_col(vh, 1, oh);
        }
        for (o, s) in out.iter().zip(&src) {
            assert_eq!(*o, ((0.5 * s) as f32) as f64);
        }
        let cast = ctx.profiler().class_stats(KernelClass::CastDevice);
        let t = mpgmres_gpusim::cost::cast_device_time(&dev, n, Precision::Fp32, Precision::Fp64);
        assert_eq!((cast.calls, cast.bytes), (1, (n * (4 + 8)) as u64));
        assert_eq!(cast.seconds.to_bits(), t.to_bits());

        // A native basis promotes as an uncharged copy.
        let before = ctx.elapsed();
        let mut v64 = BasisStore::<f64>::native(n, 2);
        v64.set_col(0, &src);
        {
            let mut st = Stream::eager(&mut ctx);
            let (vh, oh) = (st.basis(&v64), st.slice_mut(&mut out));
            st.basis_promote_col(vh, 0, oh);
        }
        assert_eq!(out, src);
        assert_eq!(ctx.elapsed().to_bits(), before.to_bits());
    }
}
