//! The command recorder: solver regions register buffers as typed
//! handles and record kernel ops against them; each op runs at its
//! record call.
//!
//! [`Stream`] is the one kernel execution path of [`GpuContext`]: every
//! kernel a solver or preconditioner runs — matrix, Krylov-basis,
//! level-1, reduction and precision-cast ops — is a record call on a
//! stream. A region opens a stream, **registers** each buffer it will
//! touch exactly once (obtaining a `Copy` handle), then records kernel
//! calls against the handles. Each record call validates shapes, prices
//! the op with `mpgmres_gpusim::cost` on the context's device, charges
//! it, and runs its launch on the context's [`Backend`] before
//! returning. The region's span graph lives in the context's reused
//! scratch and is cleared when the next region opens.
//!
//! # Handles and the stream contract
//!
//! A handle is its registration: the buffer's id in the region plus
//! the pointer(s) and length its registration took. Ids count
//! registrations from 0 when the region opens; they name buffers in the
//! op spans of [`mpgmres_backend::stream`] and nothing else. The system
//! operator and block LU factors are read-only for the whole region, so
//! their handles hold plain `&'c` references. The operator is one
//! [`Operator`]: a plain matrix or a storage-path matrix register
//! through [`Stream::operator`] into the same [`MatRef`], and each
//! matrix op ([`Stream::spmv`], [`Stream::residual_as`],
//! [`Stream::spmm`]) prices either kind from its [`Operator::operand`].
//! Every other handle holds raw pointers, taken once at registration
//! from a borrow the stream keeps for its lifetime `'c`, and only the
//! launch closures of the record methods turn them into references. The
//! launches rely on three rules:
//!
//! - **Liveness** — every referent outlives its handles: a handle
//!   carries the registration borrow's lifetime `'c`, which lasts until
//!   the stream syncs or drops.
//! - **Exclusivity** — mutable registrations are pairwise disjoint and
//!   disjoint from every shared registration, since they are coexisting
//!   Rust borrows. Views of one registration (a block column, a slot of
//!   a slice) keep its id, and every record call checks that no operand
//!   is both read and written and that no two write operands overlap.
//! - **One op at a time** — a launch makes a `&mut` only for memory its
//!   op declared a write span on and a `&` only for declared reads. Ops
//!   run one at a time, at their record calls, so no two live references
//!   alias, even while an op's kernel spreads over worker threads.
//!
//! A pointer is taken once per registration and never from a later
//! reborrow of the owner, so no registration invalidates another
//! handle's pointer under Stacked Borrows. A block's (or native
//! basis's) data pointer is derived through its object pointer, so its
//! whole-object and per-column views share one provenance chain; a
//! region addresses such a buffer either whole or column-wise in any one
//! op, never both at once. Registration is safe code (taking a raw
//! pointer is), so the record surface has no `unsafe fn` and the solvers
//! no `// SAFETY` comments. Reading a result slot (e.g. a
//! [`Stream::norm2_into`] target) is only possible after `sync` releases
//! the registration borrows — the type system enforces "don't read
//! before sync".
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
//! [`Stream::block_lu_solve`], the polynomial recurrence, the casts of
//! mixed-precision wrappers), the refinement loops' casts and updates,
//! the MGS dot/axpy sequence, and `BlockGmres`'s basis extensions and
//! direction gathers, which sit between its host steps. The host steps
//! themselves (each lane's Givens and least-squares work) are no stream
//! op: they are HostDense charges at the makespan, so they serialize
//! against the device stream.

use std::marker::PhantomData;

use mpgmres_backend::stream::Span;
use mpgmres_backend::{Backend, BackendScalar};
use mpgmres_gpusim::cost::{self, Gemv};
use mpgmres_gpusim::{DeviceModel, KernelClass};
use mpgmres_la::basis::BasisStore;
use mpgmres_la::csr::Csr;
use mpgmres_la::dense::BlockLu;
use mpgmres_la::multivec::MultiVec;
use mpgmres_la::store::MatrixStore;
use mpgmres_scalar::{Precision, Scalar};

use crate::context::{GpuContext, GpuMatrix, Operator};

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
//
// Raw-pointer handles hold the pointer of the whole registered buffer
// and address their view by element offset, so every view of one
// registration shares its provenance. Their `unsafe` accessors are
// called only from launch closures (see the module docs).

/// Handle of a registered system [`Operator`]: a plain [`GpuMatrix`]
/// or a [`GpuStore`](crate::GpuStore) (a matrix in a possibly
/// low-precision storage path). The matrix ops price either kind from
/// its [`Operator::operand`]; the launch runs the plain matrix's CSR
/// kernel or the store's kernel.
#[derive(Clone, Copy, Debug)]
pub struct MatRef<'c, S> {
    a: Operator<'c, S>,
}

impl<'c, S: BackendScalar> MatRef<'c, S> {
    /// `(rows, cols)` of the operator, for the shape checks.
    fn shape(self) -> (usize, usize) {
        (self.a.n(), self.a.ncols())
    }

    /// Run the backend call of this operator's kind: `plain` on the
    /// matrix's CSR, `store` on the store's values.
    fn launch(self, plain: impl FnOnce(&Csr<S>), store: impl FnOnce(&MatrixStore<S>)) {
        match self.a {
            Operator::Matrix(a) => plain(a.csr()),
            Operator::Store(a) => store(a.store()),
        }
    }
}

/// Handle of registered block-diagonal LU factors ([`BlockLu`], block
/// Jacobi's packed factors).
#[derive(Clone, Copy, Debug)]
pub struct LuRef<'c, S> {
    f: &'c BlockLu<S>,
}

/// Handle of a registered Krylov basis ([`BasisStore`]): native
/// working-precision columns or a compressed (fp32/fp16) column array.
/// The handle carries the store's element width so recorded reads
/// declare the exact narrow byte span a kernel streams, and charges are
/// priced with the store's own traffic.
#[derive(Clone, Copy, Debug)]
pub struct BasisRef<'c, S> {
    id: u32,
    n: u32,
    ncap: u32,
    ebytes: u32,
    obj: *const BasisStore<S>,
    _c: PhantomData<&'c ()>,
}

impl<'c, S: Scalar> BasisRef<'c, S> {
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

    /// Cost of `k` fused GEMVs over the first `ncols` columns of `k`
    /// bases shaped like this one, at the store's element width.
    fn gemv_cost(self, dev: &DeviceModel, ncols: usize, k: usize, dir: Gemv) -> (f64, usize) {
        let (n, e) = (self.n as usize, self.ebytes as usize);
        cost::basis_gemv(dev, n, ncols, k, e, S::PRECISION, dir)
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

    /// The store.
    ///
    /// # Safety
    /// Stream contract (module docs): the op declared a read of it.
    unsafe fn get(self) -> &'c BasisStore<S> {
        &*self.obj
    }
}

/// Handle of a *mutably* registered Krylov basis: one `BlockGmres`
/// region reads the basis whole (batched CGS kernels) while the
/// recorded basis extension writes one column — the mixed access
/// pattern that needs a single exclusive registration with
/// column-granular spans. Compressed bases register too, for
/// [`Stream::basis_lane_scal_copy`]; their column views panic.
#[derive(Clone, Copy, Debug)]
pub struct BasisMut<'c, S> {
    id: u32,
    n: u32,
    ncap: u32,
    ebytes: u32,
    obj: *mut BasisStore<S>,
    /// Native element data, derived through `obj` (null when
    /// compressed).
    data: *mut S,
    _c: PhantomData<&'c ()>,
}

impl<'c, S: Scalar> BasisMut<'c, S> {
    /// Read view of the whole basis (batched CGS kernels).
    pub fn read(self) -> BasisRef<'c, S> {
        BasisRef {
            id: self.id,
            n: self.n,
            ncap: self.ncap,
            ebytes: self.ebytes,
            obj: self.obj,
            _c: PhantomData,
        }
    }

    /// Read view of basis column `j` (native-only: column views are
    /// working-precision slices, which a compressed store does not
    /// expose; `BlockGmres`'s fused direction gather reads them).
    pub fn col(self, j: usize) -> ArgSlice<'c, S> {
        self.col_mut(j).read()
    }

    /// Write view of basis column `j` (the recorded basis extension).
    pub fn col_mut(self, j: usize) -> ArgSliceMut<'c, S> {
        assert!(
            self.read().is_native(),
            "basis column views are native-only"
        );
        let j = u32::try_from(j).expect("basis column");
        assert!(j < self.ncap, "basis column out of range");
        ArgSliceMut {
            buf: self.id,
            off: j * self.n,
            len: self.n,
            ptr: self.data,
            _c: PhantomData,
        }
    }

    /// The store, exclusively.
    ///
    /// # Safety
    /// Stream contract (module docs): the op declared a whole-object
    /// write of it.
    unsafe fn get_mut(self) -> &'c mut BasisStore<S> {
        &mut *self.obj
    }
}

/// Read view of (part of) a registered slice or block column.
#[derive(Clone, Copy, Debug)]
pub struct ArgSlice<'c, S> {
    buf: u32,
    off: u32,
    len: u32,
    /// Start of the registered buffer (not of this view).
    ptr: *const S,
    _c: PhantomData<&'c ()>,
}

/// Write view of (part of) a mutably registered slice or block column.
#[derive(Clone, Copy, Debug)]
pub struct ArgSliceMut<'c, S> {
    buf: u32,
    off: u32,
    len: u32,
    /// Start of the registered buffer (not of this view).
    ptr: *mut S,
    _c: PhantomData<&'c ()>,
}

/// Write view of a single scalar result slot.
#[derive(Clone, Copy, Debug)]
pub struct ArgValMut<'c, S> {
    buf: u32,
    off: u32,
    /// Start of the registered buffer (not of this slot).
    ptr: *mut S,
    _c: PhantomData<&'c ()>,
}

impl<'c, S: Scalar> ArgSlice<'c, S> {
    /// Read view of `len` elements starting at element `off` within
    /// this view (e.g. the leading `k` coefficients of a lane-set op).
    pub fn sub(self, off: usize, len: usize) -> ArgSlice<'c, S> {
        let off = u32::try_from(off).expect("arg offset");
        let len = u32::try_from(len).expect("arg length");
        assert!(off + len <= self.len, "arg sub-view out of range");
        ArgSlice {
            off: self.off + off,
            len,
            ..self
        }
    }

    fn span(&self) -> Span {
        Span::elems(self.buf, self.off, self.len, std::mem::size_of::<S>())
    }

    /// The viewed elements.
    ///
    /// # Safety
    /// Stream contract (module docs): the op declared a read of them.
    unsafe fn get(self) -> &'c [S] {
        std::slice::from_raw_parts(self.ptr.add(self.off as usize), self.len as usize)
    }
}

impl<'c, S: Scalar> ArgSliceMut<'c, S> {
    /// Read view of the same elements.
    pub fn read(self) -> ArgSlice<'c, S> {
        ArgSlice {
            buf: self.buf,
            off: self.off,
            len: self.len,
            ptr: self.ptr,
            _c: PhantomData,
        }
    }

    /// Write view of the single element at `i` (per-lane result slots).
    pub fn at(self, i: usize) -> ArgValMut<'c, S> {
        let i = u32::try_from(i).expect("arg index");
        assert!(i < self.len, "arg slot out of range");
        ArgValMut {
            buf: self.buf,
            off: self.off + i,
            ptr: self.ptr,
            _c: PhantomData,
        }
    }

    /// The first `len` elements of this view.
    fn prefix(self, len: u32) -> Self {
        assert!(len <= self.len, "arg prefix out of range");
        ArgSliceMut { len, ..self }
    }

    fn span(&self) -> Span {
        Span::elems(self.buf, self.off, self.len, std::mem::size_of::<S>())
    }

    /// The viewed elements, exclusively.
    ///
    /// # Safety
    /// Stream contract (module docs): the op declared a write of them.
    unsafe fn get_mut(self) -> &'c mut [S] {
        std::slice::from_raw_parts_mut(self.ptr.add(self.off as usize), self.len as usize)
    }
}

impl<'c, S: Scalar> ArgValMut<'c, S> {
    fn span(&self) -> Span {
        Span::elems(self.buf, self.off, 1, std::mem::size_of::<S>())
    }

    /// The slot, exclusively.
    ///
    /// # Safety
    /// Stream contract (module docs): the op declared a write of it.
    unsafe fn get_mut(self) -> &'c mut S {
        &mut *self.ptr.add(self.off as usize)
    }
}

/// Handle of a read-registered right-hand-side block ([`MultiVec`]):
/// addressable as a whole (batched kernels) or per column.
#[derive(Clone, Copy, Debug)]
pub struct BlockRef<'c, S> {
    id: u32,
    n: u32,
    k: u32,
    obj: *const MultiVec<S>,
    /// Element data, derived from the same borrow as `obj`.
    data: *const S,
    _c: PhantomData<&'c ()>,
}

/// Handle of a mutably registered block.
#[derive(Clone, Copy, Debug)]
pub struct BlockMut<'c, S> {
    id: u32,
    n: u32,
    k: u32,
    obj: *mut MultiVec<S>,
    /// Element data, derived through `obj`.
    data: *mut S,
    _c: PhantomData<&'c ()>,
}

impl<'c, S: Scalar> BlockRef<'c, S> {
    /// Read view of column `j`.
    pub fn col(self, j: usize) -> ArgSlice<'c, S> {
        let j = u32::try_from(j).expect("block column");
        assert!(j < self.k, "block column out of range");
        ArgSlice {
            buf: self.id,
            off: j * self.n,
            len: self.n,
            ptr: self.data,
            _c: PhantomData,
        }
    }

    /// The block.
    ///
    /// # Safety
    /// Stream contract (module docs): the op declared a whole-block read.
    unsafe fn get(self) -> &'c MultiVec<S> {
        &*self.obj
    }
}

impl<'c, S: Scalar> BlockMut<'c, S> {
    /// Read view of the whole block (batched kernels).
    pub fn read(self) -> BlockRef<'c, S> {
        BlockRef {
            id: self.id,
            n: self.n,
            k: self.k,
            obj: self.obj,
            data: self.data,
            _c: PhantomData,
        }
    }

    /// Read view of column `j`.
    pub fn col(self, j: usize) -> ArgSlice<'c, S> {
        self.read().col(j)
    }

    /// Write view of column `j`.
    pub fn col_mut(self, j: usize) -> ArgSliceMut<'c, S> {
        let c = self.col(j);
        ArgSliceMut {
            buf: c.buf,
            off: c.off,
            len: c.len,
            ptr: self.data,
            _c: PhantomData,
        }
    }

    /// The block, exclusively.
    ///
    /// # Safety
    /// Stream contract (module docs): the op declared a whole-block
    /// write.
    unsafe fn get_mut(self) -> &'c mut MultiVec<S> {
        &mut *self.obj
    }
}

/// Shape of a batched kernel's per-lane basis set: the bases must agree
/// in rows, capacity and storage width. Returns `(n, ncap)`.
fn lane_set_shape<S>(label: &str, vs: &[BasisRef<'_, S>]) -> (u32, u32) {
    assert!(!vs.is_empty(), "stream {label}: empty lane set");
    let (n, ncap, ebytes) = (vs[0].n, vs[0].ncap, vs[0].ebytes);
    for v in vs {
        assert_eq!(v.n, n, "stream {label}: ragged lane set");
        assert_eq!(v.ncap, ncap, "stream {label}: ragged lane set");
        assert_eq!(v.ebytes, ebytes, "stream {label}: mixed storage widths");
    }
    (n, ncap)
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
    /// Registrations so far: the id the next one gets.
    next_id: u32,
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
        Stream {
            ctx,
            eager,
            base,
            next_id: 0,
        }
    }

    /// Ops recorded on the region's graph so far (always 0 in eager
    /// mode, which adds no graph nodes).
    pub fn recorded(&self) -> usize {
        self.ctx.scratch().graph.len()
    }

    // ----- buffer registration ---------------------------------------
    //
    // Each method takes the buffer's pointers exactly once, from a
    // borrow held for the stream's whole lifetime, and numbers the
    // registration. The borrow checker guarantees mutable registrations
    // are disjoint from every other registration.

    fn next_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = id.checked_add(1).expect("stream: too many buffers");
        id
    }

    /// Register the system matrix (read-only).
    pub fn matrix<S: Scalar>(&mut self, a: &'c GpuMatrix<S>) -> MatRef<'c, S> {
        self.operator(Operator::Matrix(a))
    }

    /// Register a system operator of either kind (read-only).
    pub fn operator<S: Scalar>(&mut self, a: Operator<'c, S>) -> MatRef<'c, S> {
        self.next_id();
        MatRef { a }
    }

    /// Register packed block LU factors (read-only).
    pub fn block_lu<S: Scalar>(&mut self, f: &'c BlockLu<S>) -> LuRef<'c, S> {
        self.next_id();
        LuRef { f }
    }

    /// Register a Krylov basis store (read-only). Native stores are read
    /// whole-object (recorded reads keep the whole-buffer spans);
    /// compressed stores' reads declare the exact narrow byte span a
    /// kernel streams.
    pub fn basis<S: Scalar>(&mut self, v: &'c BasisStore<S>) -> BasisRef<'c, S> {
        BasisRef {
            id: self.next_id(),
            n: u32::try_from(v.n()).expect("basis rows"),
            ncap: u32::try_from(v.max_cols()).expect("basis cols"),
            ebytes: u32::try_from(v.elem_bytes()).expect("basis elem bytes"),
            obj: v,
            _c: PhantomData,
        }
    }

    /// Register an exclusively borrowed Krylov basis. Within one region
    /// the recorder addresses it column-wise for writes (a basis
    /// extension) and whole-value for the batched CGS reads — the
    /// RAW span overlap is exactly the edge that orders the extension
    /// before the projections. Column views are working-precision
    /// slices, so only native bases have them; a compressed basis is
    /// written whole-object by [`Stream::basis_lane_scal_copy`].
    pub fn basis_mut<S: Scalar>(&mut self, v: &'c mut BasisStore<S>) -> BasisMut<'c, S> {
        let (n, ncap, ebytes) = (v.n(), v.max_cols(), v.elem_bytes());
        // Compressed stores return a null data pointer (no column views).
        let (obj, data) = v.raw_parts_mut();
        BasisMut {
            id: self.next_id(),
            n: u32::try_from(n).expect("basis rows"),
            ncap: u32::try_from(ncap).expect("basis cols"),
            ebytes: u32::try_from(ebytes).expect("basis elem bytes"),
            obj,
            data,
            _c: PhantomData,
        }
    }

    /// Register a per-lane basis set mutably (all the same shape, possibly
    /// empty), returning one [`BasisMut`] per lane in order.
    pub fn bases_mut<S: Scalar>(
        &mut self,
        vs: impl IntoIterator<Item = &'c mut BasisStore<S>>,
    ) -> Vec<BasisMut<'c, S>> {
        let mut shape = None;
        vs.into_iter()
            .map(|v| {
                let got = (v.n(), v.max_cols());
                assert_eq!(
                    *shape.get_or_insert(got),
                    got,
                    "stream bases_mut: ragged lane set"
                );
                self.basis_mut(v)
            })
            .collect()
    }

    /// Register a read-only vector.
    pub fn slice<S: Scalar>(&mut self, x: &'c [S]) -> ArgSlice<'c, S> {
        ArgSlice {
            buf: self.next_id(),
            off: 0,
            len: u32::try_from(x.len()).expect("slice length"),
            ptr: x.as_ptr(),
            _c: PhantomData,
        }
    }

    /// Register an exclusively borrowed vector.
    pub fn slice_mut<S: Scalar>(&mut self, x: &'c mut [S]) -> ArgSliceMut<'c, S> {
        ArgSliceMut {
            buf: self.next_id(),
            off: 0,
            len: u32::try_from(x.len()).expect("slice length"),
            ptr: x.as_mut_ptr(),
            _c: PhantomData,
        }
    }

    /// Register an exclusively borrowed scalar result slot.
    pub fn val_mut<S: Scalar>(&mut self, x: &'c mut S) -> ArgValMut<'c, S> {
        ArgValMut {
            buf: self.next_id(),
            off: 0,
            ptr: x,
            _c: PhantomData,
        }
    }

    /// Register a read-only right-hand-side block.
    pub fn block<S: Scalar>(&mut self, x: &'c MultiVec<S>) -> BlockRef<'c, S> {
        BlockRef {
            id: self.next_id(),
            n: u32::try_from(x.n()).expect("block rows"),
            k: u32::try_from(x.k()).expect("block cols"),
            obj: x,
            data: x.data().as_ptr(),
            _c: PhantomData,
        }
    }

    /// Register an exclusively borrowed block. Within one op the
    /// recorder addresses it either as a whole value (batched kernels)
    /// or column-wise (per-lane ops), never both.
    pub fn block_mut<S: Scalar>(&mut self, x: &'c mut MultiVec<S>) -> BlockMut<'c, S> {
        let (n, k) = (x.n(), x.k());
        let (obj, data) = x.raw_parts_mut();
        BlockMut {
            id: self.next_id(),
            n: u32::try_from(n).expect("block rows"),
            k: u32::try_from(k).expect("block cols"),
            obj,
            data,
            _c: PhantomData,
        }
    }

    // ----- recording core --------------------------------------------

    /// One kernel call must not read and write overlapping memory (its
    /// launch would make aliasing `&`/`&mut` views), and no two of its
    /// write operands may overlap. The borrow checker proved this for
    /// the old reference-taking API; with `Copy` handles it is checked
    /// here, in both eager and recorded mode, before anything executes.
    /// A write operand conflicts only with *other* operands, so an empty
    /// span (which overlaps nothing) passes.
    fn assert_noalias(label: &str, reads: &[Span], writes: &[Span]) {
        for (i, w) in writes.iter().enumerate() {
            assert!(
                !reads.iter().any(|r| r.overlaps(w)),
                "stream {label}: an operand is both read and written"
            );
            assert!(
                !writes[i + 1..].iter().any(|x| x.overlaps(w)),
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
        x: BlockRef<'_, S>,
        k: u32,
        y: BlockMut<'_, S>,
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
    /// then runs at once.
    ///
    /// A launch obeys the stream contract (module docs): it makes a
    /// `&mut` only for memory the op declared a write span on and a `&`
    /// only for declared reads. Ops run one at a time, in record order,
    /// and the stream keeps every registration borrowed until sync, so
    /// no two live views alias.
    fn record(
        &mut self,
        label: &'static str,
        reads: &[Span],
        writes: &[Span],
        charge: Option<(KernelClass, f64, usize)>,
        launch: impl FnOnce(&dyn Backend),
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
        launch(self.ctx.backend());
    }

    /// End the region: the registration borrows end here, and the host
    /// may read results. Every op already ran at its record call, so
    /// dropping the stream does the same.
    pub fn sync(self) {}

    // ----- recordable kernels ----------------------------------------
    //
    // Every launch below dereferences only handles whose spans the op
    // declared: reads through `get`, writes through `get_mut`.

    /// Record `y = A x` (charged as a solver SpMV).
    pub fn spmv<S: BackendScalar>(
        &mut self,
        a: MatRef<'c, S>,
        x: ArgSlice<'c, S>,
        y: ArgSliceMut<'c, S>,
    ) {
        Self::assert_matvec("spmv", a.shape(), x.len, y.len);
        Self::assert_noalias("spmv", &[x.span()], &[y.span()]);
        let (t, bytes) = cost::matrix_op(self.ctx.device(), &a.a.operand(), 1, false);
        let charge = Some((KernelClass::SpMV, t, bytes));
        self.record("spmv", &[x.span()], &[y.span()], charge, |b| {
            let be = S::view(b);
            // SAFETY: stream contract (module docs).
            unsafe {
                a.launch(
                    |m| be.spmv(m, x.get(), y.get_mut()),
                    |m| be.store_spmv(m, x.get(), y.get_mut()),
                )
            }
        });
    }

    /// Record `y = M^{-1} x` for packed block LU factors: every
    /// diagonal block's triangular solves as one batched kernel (block
    /// Jacobi's apply, charged as a solver SpMV).
    pub fn block_lu_solve<S: BackendScalar>(
        &mut self,
        f: LuRef<'c, S>,
        x: ArgSlice<'c, S>,
        y: ArgSliceMut<'c, S>,
    ) {
        let lu = f.f;
        Self::assert_matvec("block_lu_solve", (lu.n(), lu.n()), x.len, y.len);
        Self::assert_noalias("block_lu_solve", &[x.span()], &[y.span()]);
        let (t, bytes) =
            cost::block_lu_solve(self.ctx.device(), lu.n(), lu.block_size(), S::PRECISION);
        let charge = Some((KernelClass::SpMV, t, bytes));
        self.record("block_lu_solve", &[x.span()], &[y.span()], charge, |b| {
            // SAFETY: stream contract (module docs).
            unsafe { S::view(b).block_lu_solve(lu, x.get(), y.get_mut()) }
        });
    }

    /// Record the fused residual `r = b - A x`, charged to `class`.
    pub fn residual_as<S: BackendScalar>(
        &mut self,
        class: KernelClass,
        a: MatRef<'c, S>,
        b: ArgSlice<'c, S>,
        x: ArgSlice<'c, S>,
        r: ArgSliceMut<'c, S>,
    ) {
        let shape = a.shape();
        Self::assert_matvec("residual", shape, x.len, r.len);
        assert_eq!(b.len as usize, shape.0, "stream residual: b length");
        let reads = [b.span(), x.span()];
        Self::assert_noalias("residual", &reads, &[r.span()]);
        let (t, bytes) = cost::matrix_op(self.ctx.device(), &a.a.operand(), 1, true);
        let charge = Some((class, t, bytes));
        self.record("residual", &reads, &[r.span()], charge, |be| {
            let be = S::view(be);
            // SAFETY: stream contract (module docs).
            unsafe {
                a.launch(
                    |m| be.residual(m, b.get(), x.get(), r.get_mut()),
                    |m| be.store_residual(m, b.get(), x.get(), r.get_mut()),
                )
            }
        });
    }

    /// Record `h = V^T w` over the first `ncols` basis columns.
    pub fn gemv_t<S: BackendScalar>(
        &mut self,
        v: BasisRef<'c, S>,
        ncols: usize,
        w: ArgSlice<'c, S>,
        h: ArgSliceMut<'c, S>,
    ) {
        let nc = u32::try_from(ncols).expect("ncols");
        assert!(nc <= v.ncap, "stream gemv_t: ncols over basis capacity");
        assert_eq!(w.len, v.n, "stream gemv_t: w length");
        assert!(h.len >= nc, "stream gemv_t: h too short");
        let h = h.prefix(nc);
        Self::assert_noalias("gemv_t", &[w.span()], &[h.span()]);
        let (t, bytes) = v.gemv_cost(self.ctx.device(), ncols, 1, Gemv::T);
        let order = self.ctx.reduction();
        self.record(
            "gemv_t",
            &[v.read_span(nc), w.span()],
            &[h.span()],
            Some((KernelClass::GemvT, t, bytes)),
            |b| {
                // SAFETY: stream contract (module docs).
                unsafe { S::view(b).basis_gemv_t(v.get(), ncols, w.get(), h.get_mut(), order) }
            },
        );
    }

    /// Record `w -= V h` (GEMV No-Trans).
    pub fn gemv_n_sub<S: BackendScalar>(
        &mut self,
        v: BasisRef<'c, S>,
        ncols: usize,
        h: ArgSlice<'c, S>,
        w: ArgSliceMut<'c, S>,
    ) {
        self.gemv_n(v, ncols, h, w, false);
    }

    /// Record `y += V h` (GEMV No-Trans; the solution update).
    pub fn gemv_n_add<S: BackendScalar>(
        &mut self,
        v: BasisRef<'c, S>,
        ncols: usize,
        h: ArgSlice<'c, S>,
        y: ArgSliceMut<'c, S>,
    ) {
        self.gemv_n(v, ncols, h, y, true);
    }

    fn gemv_n<S: BackendScalar>(
        &mut self,
        v: BasisRef<'c, S>,
        ncols: usize,
        h: ArgSlice<'c, S>,
        w: ArgSliceMut<'c, S>,
        add: bool,
    ) {
        let nc = u32::try_from(ncols).expect("ncols");
        assert!(nc <= v.ncap, "stream gemv_n: ncols over basis capacity");
        assert_eq!(w.len, v.n, "stream gemv_n: vector length");
        assert!(h.len >= nc, "stream gemv_n: h too short");
        let h = h.sub(0, ncols);
        Self::assert_noalias("gemv_n", &[h.span()], &[w.span()]);
        let (t, bytes) = v.gemv_cost(self.ctx.device(), ncols, 1, Gemv::N);
        self.record(
            if add { "gemv_n_add" } else { "gemv_n_sub" },
            &[v.read_span(nc), h.span()],
            &[w.span()],
            Some((KernelClass::GemvN, t, bytes)),
            |b| {
                // SAFETY: stream contract (module docs).
                let (vs, h, w) = unsafe { (v.get(), h.get(), w.get_mut()) };
                if add {
                    S::view(b).basis_gemv_n_add(vs, ncols, h, w);
                } else {
                    S::view(b).basis_gemv_n_sub(vs, ncols, h, w);
                }
            },
        );
    }

    /// Record `y += alpha x`.
    pub fn axpy<S: BackendScalar>(&mut self, alpha: S, x: ArgSlice<'c, S>, y: ArgSliceMut<'c, S>) {
        assert_eq!(x.len, y.len, "stream axpy: length mismatch");
        Self::assert_noalias("axpy", &[x.span()], &[y.span()]);
        let (t, bytes) = cost::axpy(self.ctx.device(), x.len as usize, 1, S::PRECISION);
        let charge = Some((KernelClass::Axpy, t, bytes));
        self.record("axpy", &[x.span()], &[y.span()], charge, |b| {
            // SAFETY: stream contract (module docs).
            unsafe { S::view(b).axpy(alpha, x.get(), y.get_mut()) }
        });
    }

    /// Record `x *= alpha`.
    pub fn scal<S: BackendScalar>(&mut self, alpha: S, x: ArgSliceMut<'c, S>) {
        let (t, bytes) = cost::scal(self.ctx.device(), x.len as usize, 1, S::BYTES, S::PRECISION);
        let charge = Some((KernelClass::Scal, t, bytes));
        self.record("scal", &[], &[x.span()], charge, |b| {
            // SAFETY: stream contract (module docs).
            unsafe { S::view(b).scal(alpha, x.get_mut()) }
        });
    }

    /// Record a device-resident copy (uncharged: the paper's accounting
    /// attaches no cost to plain copies; still a DAG node so dependent
    /// ops order).
    pub fn copy<S: BackendScalar>(&mut self, src: ArgSlice<'c, S>, dst: ArgSliceMut<'c, S>) {
        assert_eq!(src.len, dst.len, "stream copy: length mismatch");
        Self::assert_noalias("copy", &[src.span()], &[dst.span()]);
        self.record("copy", &[src.span()], &[dst.span()], None, |b| {
            // SAFETY: stream contract (module docs).
            unsafe { S::view(b).copy(src.get(), dst.get_mut()) }
        });
    }

    /// Record a Euclidean norm whose result lands in `out` after sync.
    pub fn norm2_into<S: BackendScalar>(&mut self, x: ArgSlice<'c, S>, out: ArgValMut<'c, S>) {
        self.norm2_into_as(KernelClass::Norm, x, out);
    }

    /// As [`Stream::norm2_into`], charged to `class` (the IR outer loop
    /// books its convergence-check norms under
    /// [`KernelClass::ResidualHi`]).
    pub fn norm2_into_as<S: BackendScalar>(
        &mut self,
        class: KernelClass,
        x: ArgSlice<'c, S>,
        out: ArgValMut<'c, S>,
    ) {
        Self::assert_noalias("norm2", &[x.span()], &[out.span()]);
        let (t, bytes) = cost::norm(self.ctx.device(), x.len as usize, 1, S::PRECISION);
        let order = self.ctx.reduction();
        let charge = Some((class, t, bytes));
        self.record("norm2", &[x.span()], &[out.span()], charge, |b| {
            // SAFETY: stream contract (module docs).
            unsafe { *out.get_mut() = S::view(b).norm2(x.get(), order) }
        });
    }

    /// Record an inner product whose result lands in `out` after sync
    /// (modified Gram-Schmidt's per-column projections).
    pub fn dot_into<S: BackendScalar>(
        &mut self,
        x: ArgSlice<'c, S>,
        y: ArgSlice<'c, S>,
        out: ArgValMut<'c, S>,
    ) {
        assert_eq!(x.len, y.len, "stream dot: length mismatch");
        let reads = [x.span(), y.span()];
        Self::assert_noalias("dot", &reads, &[out.span()]);
        let (t, bytes) = cost::dot(self.ctx.device(), x.len as usize, 1, S::PRECISION);
        let order = self.ctx.reduction();
        let charge = Some((KernelClass::Dot, t, bytes));
        self.record("dot", &reads, &[out.span()], charge, |b| {
            // SAFETY: stream contract (module docs).
            unsafe { *out.get_mut() = S::view(b).dot(x.get(), y.get(), order) }
        });
    }

    /// Record a precision cast `dst = src`, charged to `class`: either
    /// [`KernelClass::CastDevice`] (device-resident, e.g. an fp32
    /// preconditioner under an fp64 solve, §III-D case a) or
    /// [`KernelClass::CastHost`] (GMRES-IR refinement residuals cross
    /// the Belos interface on the host, §IV).
    pub fn cast<S: Scalar, T: Scalar>(
        &mut self,
        class: KernelClass,
        src: ArgSlice<'c, S>,
        dst: ArgSliceMut<'c, T>,
    ) {
        assert_eq!(src.len, dst.len, "stream cast: length mismatch");
        Self::assert_noalias("cast", &[src.span()], &[dst.span()]);
        let n = src.len as usize;
        let (t, bytes) = cost::cast(self.ctx.device(), class, n, S::PRECISION, T::PRECISION);
        // Casts run on the host in every backend (no backend kernel
        // converts between precisions).
        let charge = Some((class, t, bytes));
        self.record("cast", &[src.span()], &[dst.span()], charge, |_| {
            // SAFETY: stream contract (module docs).
            unsafe { mpgmres_scalar::cast_into(src.get(), dst.get_mut()) }
        });
    }

    // ----- fused lane-set kernels (recorded forms) -------------------

    /// Record the fused per-lane copy `dsts[c] = srcs[c]` (the batched
    /// form of `BlockGmres`'s per-lane direction gathers; uncharged,
    /// like every copy). Sources and destinations are arbitrary
    /// registered views of one shared length.
    pub fn lane_copy<S: BackendScalar>(
        &mut self,
        srcs: &[ArgSlice<'c, S>],
        dsts: &[ArgSliceMut<'c, S>],
    ) {
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
        self.record("lane_copy", &reads, &writes, None, |b| {
            // SAFETY: stream contract (module docs); each destination
            // is a distinct declared write span.
            let (srcs, mut dsts): (Vec<&[S]>, Vec<&mut [S]>) = unsafe {
                (
                    srcs.iter().map(|s| s.get()).collect(),
                    dsts.iter().map(|d| d.get_mut()).collect(),
                )
            };
            S::view(b).lane_copy(&srcs, &mut dsts);
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
        alphas: ArgSlice<'c, S>,
        srcs: &[ArgSlice<'c, S>],
        vs: &[BasisMut<'c, S>],
        j: usize,
    ) {
        let k = srcs.len();
        assert_eq!(k, vs.len(), "stream basis_lane_scal_copy: lane count");
        assert!(k >= 1, "stream basis_lane_scal_copy: empty lane set");
        assert!(
            alphas.len as usize >= k,
            "stream basis_lane_scal_copy: alphas"
        );
        let alphas = alphas.sub(0, k);
        let jj = u32::try_from(j).expect("basis column");
        let (n, ebytes) = (vs[0].n, vs[0].ebytes);
        let native = vs[0].read().is_native();
        let mut reads = vec![alphas.span()];
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
        let (t, bytes) = cost::scal(
            self.ctx.device(),
            n as usize,
            k,
            ebytes as usize,
            S::PRECISION,
        );
        let charge = Some((KernelClass::Scal, t, bytes));
        self.record("basis_lane_scal_copy", &reads, &writes, charge, |b| {
            // SAFETY: stream contract (module docs); native lanes make
            // only their declared column write spans, compressed lanes
            // carry whole-object write spans, and the lanes are
            // distinct registrations.
            unsafe {
                let alphas = alphas.get();
                let srcs: Vec<&[S]> = srcs.iter().map(|s| s.get()).collect();
                if native {
                    let mut dsts: Vec<&mut [S]> =
                        vs.iter().map(|v| v.col_mut(j).get_mut()).collect();
                    S::view(b).lane_scal_copy(alphas, &srcs, &mut dsts);
                } else {
                    let mut vs: Vec<&mut BasisStore<S>> = vs.iter().map(|v| v.get_mut()).collect();
                    S::view(b).basis_lane_scal_copy(&mut vs, j, alphas, &srcs);
                }
            }
        });
    }

    /// Record the promotion of stored basis column `j` into a
    /// working-precision buffer. Native: a plain device copy,
    /// uncharged like every copy; compressed: a device-resident
    /// widening cast, charged like [`Stream::cast`] from the storage
    /// precision.
    pub fn basis_promote_col<S: BackendScalar>(
        &mut self,
        v: BasisRef<'c, S>,
        j: usize,
        out: ArgSliceMut<'c, S>,
    ) {
        let jj = u32::try_from(j).expect("basis column");
        assert!(jj < v.ncap, "stream basis_promote_col: column out of range");
        assert_eq!(out.len, v.n, "stream basis_promote_col: length mismatch");
        let col = Span::elems(v.id, jj * v.n, v.n, v.ebytes as usize);
        Self::assert_noalias("basis_promote_col", &[col], &[out.span()]);
        let charge = (!v.is_native()).then(|| {
            let (t, bytes) = cost::cast(
                self.ctx.device(),
                KernelClass::CastDevice,
                v.n as usize,
                v.storage(),
                S::PRECISION,
            );
            (KernelClass::CastDevice, t, bytes)
        });
        self.record("basis_promote_col", &[col], &[out.span()], charge, |b| {
            // SAFETY: stream contract (module docs).
            unsafe { S::view(b).basis_promote_col(v.get(), j, out.get_mut()) }
        });
    }

    // ----- batched multi-RHS kernels ---------------------------------

    /// Record the batched SpMM `Y[:, ..k] = A X[:, ..k]`.
    pub fn spmm<S: BackendScalar>(
        &mut self,
        a: MatRef<'c, S>,
        x: BlockRef<'c, S>,
        k: usize,
        y: BlockMut<'c, S>,
    ) {
        let kk = u32::try_from(k).expect("block width");
        Self::assert_matmat("spmm", a.shape(), x, kk, y);
        let (reads, writes) = ([Span::whole(x.id)], [Span::whole(y.id)]);
        Self::assert_noalias("spmm", &reads, &writes);
        let (t, bytes) = cost::matrix_op(self.ctx.device(), &a.a.operand(), k, false);
        let charge = Some((KernelClass::SpMV, t, bytes));
        self.record("spmm", &reads, &writes, charge, |b| {
            let be = S::view(b);
            // SAFETY: stream contract (module docs); the write span
            // covers all of y.
            unsafe {
                a.launch(
                    |m| be.spmm(m, x.get(), k, y.get_mut()),
                    |m| be.store_spmm(m, x.get(), k, y.get_mut()),
                )
            }
        });
    }

    /// Record the batched GEMV-Trans over one basis per block column.
    pub fn block_gemv_t<S: BackendScalar>(
        &mut self,
        vs: &[BasisRef<'c, S>],
        ncols: usize,
        w: BlockRef<'c, S>,
        h: ArgSliceMut<'c, S>,
    ) {
        let (n, ncap) = lane_set_shape("block_gemv_t", vs);
        let nc = u32::try_from(ncols).expect("ncols");
        let k = u32::try_from(vs.len()).expect("lane count");
        assert!(nc <= ncap, "stream block_gemv_t: ncols over capacity");
        assert_eq!(n, w.n, "stream block_gemv_t: basis/block rows");
        assert!(k <= w.k, "stream block_gemv_t: more bases than columns");
        assert!(h.len >= k * nc, "stream block_gemv_t: h too short");
        let h = h.prefix(k * nc);
        Self::assert_noalias("block_gemv_t", &[Span::whole(w.id)], &[h.span()]);
        let (t, bytes) = vs[0].gemv_cost(self.ctx.device(), ncols, k as usize, Gemv::T);
        let mut reads: Vec<Span> = vs.iter().map(|v| v.read_span(nc)).collect();
        reads.push(Span::whole(w.id));
        let order = self.ctx.reduction();
        let charge = Some((KernelClass::GemvT, t, bytes));
        self.record("block_gemv_t", &reads, &[h.span()], charge, |b| {
            // SAFETY: stream contract (module docs).
            unsafe {
                let vs: Vec<&BasisStore<S>> = vs.iter().map(|v| v.get()).collect();
                S::view(b).basis_block_gemv_t(&vs, ncols, w.get(), h.get_mut(), order);
            }
        });
    }

    /// Record the batched GEMV-NoTrans `w_c -= V_c h_c`.
    pub fn block_gemv_n_sub<S: BackendScalar>(
        &mut self,
        vs: &[BasisRef<'c, S>],
        ncols: usize,
        h: ArgSlice<'c, S>,
        w: BlockMut<'c, S>,
    ) {
        let (n, ncap) = lane_set_shape("block_gemv_n", vs);
        let nc = u32::try_from(ncols).expect("ncols");
        let k = u32::try_from(vs.len()).expect("lane count");
        assert!(nc <= ncap, "stream block_gemv_n: ncols over capacity");
        assert_eq!(n, w.n, "stream block_gemv_n: basis/block rows");
        assert!(k <= w.k, "stream block_gemv_n: more bases than columns");
        assert!(h.len >= k * nc, "stream block_gemv_n: h too short");
        let h = h.sub(0, (k * nc) as usize);
        Self::assert_noalias("block_gemv_n", &[h.span()], &[Span::whole(w.id)]);
        let (t, bytes) = vs[0].gemv_cost(self.ctx.device(), ncols, k as usize, Gemv::N);
        let mut reads: Vec<Span> = vs.iter().map(|v| v.read_span(nc)).collect();
        reads.push(h.span());
        let charge = Some((KernelClass::GemvN, t, bytes));
        self.record(
            "block_gemv_n_sub",
            &reads,
            &[Span::whole(w.id)],
            charge,
            |b| {
                // SAFETY: stream contract (module docs); the write span
                // covers all of w.
                unsafe {
                    let vs: Vec<&BasisStore<S>> = vs.iter().map(|v| v.get()).collect();
                    S::view(b).basis_block_gemv_n_sub(&vs, ncols, h.get(), w.get_mut());
                }
            },
        );
    }

    /// Record fused column norms whose results land in `out[..k]` after
    /// sync.
    pub fn block_norm2_into<S: BackendScalar>(
        &mut self,
        x: BlockRef<'c, S>,
        k: usize,
        out: ArgSliceMut<'c, S>,
    ) {
        let kk = u32::try_from(k).expect("block width");
        assert!(kk >= 1 && kk <= x.k, "stream block_norm2: width");
        assert!(out.len >= kk, "stream block_norm2: out too short");
        let out = out.prefix(kk);
        Self::assert_noalias("block_norm2", &[Span::whole(x.id)], &[out.span()]);
        let (t, bytes) = cost::norm(self.ctx.device(), x.n as usize, k, S::PRECISION);
        let order = self.ctx.reduction();
        let charge = Some((KernelClass::Norm, t, bytes));
        self.record(
            "block_norm2",
            &[Span::whole(x.id)],
            &[out.span()],
            charge,
            |b| {
                // SAFETY: stream contract (module docs).
                unsafe { S::view(b).block_norm2(x.get(), k, out.get_mut(), order) }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The fused lane-set kernels of `BlockGmres` — a basis extension
    /// and a lane copy — are bit-identical eager vs recorded (values
    /// AND charges).
    #[test]
    fn lane_ops_record_like_eager() {
        let run = |streaming: bool| {
            let mut ctx =
                GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::Sequential);
            ctx.set_streaming(streaming);
            let alphas = [2.0f64, -1.0];
            let xs = [1.0f64, 2.0, 3.0, 4.0]; // two source lanes of length 2
            let mut v0 = BasisStore::<f64>::native(2, 1);
            let mut v1 = BasisStore::<f64>::native(2, 1);
            let mut zs = [0.0f64; 2];
            for _ in 0..2 {
                let mut st = ctx.stream();
                let ah = st.slice(&alphas);
                let xh = st.slice(&xs);
                let vs = st.bases_mut(vec![&mut v0, &mut v1]);
                let zh = st.slice_mut(&mut zs);
                st.basis_lane_scal_copy(ah, &[xh.sub(0, 2), xh.sub(2, 2)], &vs, 0);
                st.lane_copy(&[vs[0].col(0)], &[zh]);
                st.sync();
            }
            let ys = [v0.expect_native().col(0), v1.expect_native().col(0)].concat();
            (ys, zs, ctx.elapsed())
        };
        let (ys_r, zs_r, t_r) = run(true);
        let (ys_e, zs_e, t_e) = run(false);
        assert_eq!(ys_r, [2.0, 4.0, -3.0, -4.0]);
        assert_eq!(zs_r, [2.0, 4.0]);
        assert_eq!(ys_r, ys_e);
        assert_eq!(zs_r, zs_e);
        assert_eq!(t_r.to_bits(), t_e.to_bits(), "charges identical");
    }

    /// The initial-residual shape of `BlockGmres`: independent
    /// per-column writes through a block's data pointer followed by a
    /// whole-block fused norm through its object pointer — the mixed
    /// access pattern a block handle's two pointers exist for.
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

    // ----- alias checks ------------------------------------------------

    /// An empty write span overlaps nothing, itself included, so a
    /// zero-length copy passes the alias check in both modes (a
    /// recorded one still adds its graph node).
    #[test]
    fn empty_copy_passes_the_alias_check() {
        for streaming in [false, true] {
            let mut ctx =
                GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::Sequential);
            ctx.set_streaming(streaming);
            let x: [f64; 0] = [];
            let mut y: [f64; 0] = [];
            let mut st = ctx.stream();
            let (xh, yh) = (st.slice(&x), st.slice_mut(&mut y));
            st.copy(xh, yh);
            assert_eq!(st.recorded(), usize::from(streaming));
        }
    }

    #[test]
    #[should_panic(expected = "stream lane_copy: overlapping write operands")]
    fn lane_copy_into_one_column_twice_panics() {
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let x = [1.0f64; 4];
        let mut y = MultiVec::<f64>::zeros(2, 2);
        let mut st = ctx.stream();
        let (xh, yh) = (st.slice(&x), st.block_mut(&mut y));
        st.lane_copy(
            &[xh.sub(0, 2), xh.sub(2, 2)],
            &[yh.col_mut(1), yh.col_mut(1)],
        );
    }

    #[test]
    #[should_panic(expected = "stream axpy: an operand is both read and written")]
    fn axpy_in_place_panics() {
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let mut y = [1.0f64; 3];
        let mut st = ctx.stream();
        let yh = st.slice_mut(&mut y);
        st.axpy(2.0, yh.read(), yh);
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

    /// The message `f` panics with (it must panic).
    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the op must panic");
        (err.downcast_ref::<String>().cloned())
            .or_else(|| err.downcast_ref::<&str>().map(|m| m.to_string()))
            .unwrap_or_default()
    }

    /// Both operator kinds over `a`: the plain matrix and its plain store.
    fn both_kinds(a: &GpuMatrix<f64>, check: impl Fn(Operator<'_, f64>)) {
        let s = crate::GpuStore::plain_of(a);
        check(Operator::Matrix(a));
        check(Operator::Store(&s));
    }

    #[test]
    fn residual_shape_mismatch_panics() {
        both_kinds(&tall_matrix(), |op| {
            let msg = panic_message(|| {
                let mut ctx = GpuContext::new(DeviceModel::v100_belos());
                let (b, x) = ([1.0f64; 3], [1.0f64; 3]);
                let mut r = [0.0f64; 3];
                let mut st = Stream::eager(&mut ctx);
                let (ah, bh, xh) = (st.operator(op), st.slice(&b), st.slice(&x));
                let rh = st.slice_mut(&mut r);
                st.residual_as(KernelClass::SpMV, ah, bh, xh, rh);
            });
            assert!(
                msg.contains("stream residual: x has length 3 but A has 2 columns"),
                "{msg}"
            );
        });
    }

    fn spmm_with_width(a: Operator<'_, f64>, xn: usize, k: usize) {
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let x = MultiVec::<f64>::zeros(xn, 2);
        let mut y = MultiVec::<f64>::zeros(a.n(), 2);
        let mut st = ctx.stream();
        let ah = st.operator(a);
        let xh = st.block(&x);
        let yh = st.block_mut(&mut y);
        st.spmm(ah, xh, k, yh);
    }

    #[test]
    #[should_panic(expected = "stream spmm: empty block (k = 0)")]
    fn spmm_zero_width_panics() {
        spmm_with_width(Operator::Matrix(&small_matrix()), 3, 0);
    }

    #[test]
    #[should_panic(expected = "stream spmm: 3 columns requested but X has 2 and Y has 2")]
    fn spmm_column_overflow_panics() {
        spmm_with_width(Operator::Matrix(&small_matrix()), 3, 3);
    }

    #[test]
    fn spmm_row_mismatch_panics() {
        both_kinds(&tall_matrix(), |op| {
            let msg = panic_message(|| spmm_with_width(op, 3, 1));
            assert!(
                msg.contains("stream spmm: X has 3 rows but A has 2 columns"),
                "{msg}"
            );
        });
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
        let wh = st.block(&w);
        let hh = st.slice_mut(&mut h);
        st.block_gemv_t(&[vh], 2, wh, hh);
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
    #[should_panic(expected = "Axpy is not a cast class")]
    fn cast_with_a_non_cast_class_panics() {
        let mut ctx = GpuContext::new(DeviceModel::v100_belos());
        let x = [0.0f64; 3];
        let mut lo = [0.0f32; 3];
        let mut st = ctx.stream();
        let (xh, loh) = (st.slice(&x), st.slice_mut(&mut lo));
        st.cast(KernelClass::Axpy, xh, loh);
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
    /// (nothing on a native basis), the lane-set extension as one
    /// width-2 `Scal` writing the store's element width.
    #[test]
    fn compressed_basis_ops_charge_cast_and_scal() {
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
        let (t, bytes) = cost::scal(&dev, n, 2, 4, Precision::Fp64);
        assert_eq!(bytes, 2 * n * (8 + 4));
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
        let (t, _) = cost::cast(
            &dev,
            KernelClass::CastDevice,
            n,
            Precision::Fp32,
            Precision::Fp64,
        );
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
