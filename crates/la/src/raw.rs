//! The recorded-stream buffer arena, Miri-clean by construction.
//!
//! [`BufferArena`] is the buffer-handle table behind
//! `mpgmres-backend`'s recorded streams. A recording region registers
//! each buffer **once**, deriving its raw pointer a single time from the
//! registration borrow; every recorded op then refers to the buffer by a
//! stable handle (`u32` index) plus a byte span. No op ever holds a
//! pointer *derived from* a `&mut` that a later record call would
//! reborrow — which is exactly the Stacked-Borrows soundness hole the
//! arena replaced (ops used to capture fresh raw views per call, and the
//! next record call's safe reborrow of the same buffer invalidated
//! them).
//!
//! # Arena contract
//!
//! The arena itself is a plain pointer table; all of its methods that
//! mint or dereference pointers are `unsafe` and the *caller* (the
//! `mpgmres::Stream` recorder, whose registration methods are safe
//! because they tie every registered borrow to the stream's lifetime)
//! upholds:
//!
//! - **Liveness** — a registered referent outlives every accessor call
//!   (the stream holds the registration borrows until its sync/drop).
//! - **Exclusivity** — mutable registrations are pairwise disjoint and
//!   disjoint from every shared registration (guaranteed for free by
//!   the borrow checker at the safe registration surface: they all
//!   originate from coexisting Rust borrows).
//! - **Scheduling** — an accessor materializes a `&mut` only for memory
//!   the executing op declared a *write* span on, and ops run one at a
//!   time, at their record calls; so no two live references alias,
//!   even while an op's kernel spreads over worker threads.
//!
//! Registration order matters once per buffer, not per op: handles are
//! dense indices in registration order, so recorded ops name their
//! buffers by small integers instead of pointers.

use mpgmres_scalar::Scalar;

/// One registered buffer: an optional object pointer (whole-value
/// kernel arguments like `&Csr` / `&MultiVec`), an optional element
/// data pointer (slice views), the element length of the data, and the
/// mutability of the registration.
#[derive(Clone, Copy, Debug)]
struct Entry {
    obj: *const (),
    data: *const (),
    len: usize,
    mutable: bool,
}

/// The buffer-handle table of one recording region. See the module docs
/// for the contract; handles are dense `u32` indices in registration
/// order. The arena is reused across regions (`clear` keeps the
/// allocations), so steady-state recording allocates nothing.
#[derive(Default)]
pub struct BufferArena {
    entries: Vec<Entry>,
    lists: Vec<u32>,
}

impl std::fmt::Debug for BufferArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferArena")
            .field("buffers", &self.entries.len())
            .finish()
    }
}

// SAFETY: the arena is a passive pointer table. Dereferences only
// happen through the unsafe accessors, whose callers uphold the
// liveness/exclusivity/scheduling contract in the module docs; under
// that contract no two threads ever materialize aliasing references,
// so moving or sharing the table itself across threads (a context
// handed to another thread) is sound.
unsafe impl Send for BufferArena {}
unsafe impl Sync for BufferArena {}

impl BufferArena {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registered buffer count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop all registrations, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.lists.clear();
    }

    fn push(&mut self, e: Entry) -> u32 {
        let id = u32::try_from(self.entries.len()).expect("arena: too many buffers");
        self.entries.push(e);
        id
    }

    /// Register a read-only slice.
    ///
    /// # Safety
    /// The referent must outlive every accessor call for this handle
    /// and must not be written (by anyone) while the handle is in use.
    pub unsafe fn register_slice<S: Scalar>(&mut self, ptr: *const S, len: usize) -> u32 {
        self.push(Entry {
            obj: std::ptr::null(),
            data: ptr as *const (),
            len,
            mutable: false,
        })
    }

    /// Register an exclusively-borrowed slice.
    ///
    /// # Safety
    /// The referent must outlive every accessor call for this handle
    /// and must not alias any other registration or be touched by the
    /// host while the handle is in use.
    pub unsafe fn register_slice_mut<S: Scalar>(&mut self, ptr: *mut S, len: usize) -> u32 {
        self.push(Entry {
            obj: std::ptr::null(),
            data: ptr as *const (),
            len,
            mutable: true,
        })
    }

    /// Register a shared object (matrix, Krylov basis, ...).
    ///
    /// # Safety
    /// As [`BufferArena::register_slice`], for the whole object.
    pub unsafe fn register_obj<T>(&mut self, obj: *const T) -> u32 {
        self.push(Entry {
            obj: obj as *const (),
            data: std::ptr::null(),
            len: 0,
            mutable: false,
        })
    }

    /// Register a shared object together with its element storage (a
    /// read-only multi-vector whose ops address it both as a whole
    /// value and as per-column slices).
    ///
    /// # Safety
    /// As [`BufferArena::register_slice`], for the object and its
    /// storage.
    pub unsafe fn register_obj_with_data<T, S: Scalar>(
        &mut self,
        obj: *const T,
        data: *const S,
        len: usize,
    ) -> u32 {
        self.push(Entry {
            obj: obj as *const (),
            data: data as *const (),
            len,
            mutable: false,
        })
    }

    /// Register an exclusively-borrowed object together with its
    /// element storage (a multi-vector whose ops address it both as a
    /// whole value and as per-column slices). `data` must be derived
    /// *through* `obj` (not through a second reborrow of the owner) so
    /// the two pointers share one provenance chain.
    ///
    /// # Safety
    /// As [`BufferArena::register_slice_mut`], for the object and its
    /// storage. Additionally, within one region the caller must not mix
    /// whole-object `&mut` materializations with concurrent per-column
    /// access (the recorded regions address a block either chain-wise
    /// as a whole or column-wise, never both at once).
    pub unsafe fn register_obj_mut<T, S: Scalar>(
        &mut self,
        obj: *mut T,
        data: *mut S,
        len: usize,
    ) -> u32 {
        self.push(Entry {
            obj: obj as *const (),
            data: data as *const (),
            len,
            mutable: true,
        })
    }

    /// Append a handle list (the per-op basis lists of the batched
    /// kernels), returning `(start, len)` into the shared list store.
    pub fn push_list<I: IntoIterator<Item = u32>>(&mut self, ids: I) -> (u32, u32) {
        let start = self.lists.len();
        self.lists.extend(ids);
        (
            u32::try_from(start).expect("arena: list store overflow"),
            u32::try_from(self.lists.len() - start).expect("arena: list too long"),
        )
    }

    /// A handle list previously pushed with [`BufferArena::push_list`].
    pub fn list(&self, start: u32, len: u32) -> &[u32] {
        &self.lists[start as usize..(start + len) as usize]
    }

    /// Element length of a slice registration.
    pub fn slice_len(&self, buf: u32) -> usize {
        self.entries[buf as usize].len
    }

    /// Materialize a shared view of `len` elements at element offset
    /// `off` of a slice-bearing registration.
    ///
    /// # Safety
    /// Arena contract (module docs): the registration is live, and no
    /// `&mut` covering these elements is live concurrently.
    pub unsafe fn slice<'a, S: Scalar>(&self, buf: u32, off: u32, len: u32) -> &'a [S] {
        let e = &self.entries[buf as usize];
        debug_assert!((off as usize) + (len as usize) <= e.len, "arena: slice oob");
        std::slice::from_raw_parts((e.data as *const S).add(off as usize), len as usize)
    }

    /// Materialize an exclusive view of `len` elements at element
    /// offset `off` of a mutably-registered buffer.
    ///
    /// # Safety
    /// Arena contract (module docs): the registration is live, the op
    /// declared a write span covering these elements, and the DAG
    /// guarantees no concurrent op touches them.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut<'a, S: Scalar>(&self, buf: u32, off: u32, len: u32) -> &'a mut [S] {
        let e = &self.entries[buf as usize];
        debug_assert!(e.mutable, "arena: mutable view of a shared registration");
        debug_assert!((off as usize) + (len as usize) <= e.len, "arena: slice oob");
        std::slice::from_raw_parts_mut(
            (e.data as *const S as *mut S).add(off as usize),
            len as usize,
        )
    }

    /// Materialize an exclusive view of the single element at `off`.
    ///
    /// # Safety
    /// As [`BufferArena::slice_mut`].
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn value_mut<'a, S: Scalar>(&self, buf: u32, off: u32) -> &'a mut S {
        &mut self.slice_mut::<S>(buf, off, 1)[0]
    }

    /// Materialize a shared view of a registered object.
    ///
    /// # Safety
    /// Arena contract (module docs); `T` must be the registration type.
    pub unsafe fn obj<'a, T>(&self, buf: u32) -> &'a T {
        let e = &self.entries[buf as usize];
        debug_assert!(!e.obj.is_null(), "arena: not an object registration");
        &*(e.obj as *const T)
    }

    /// Materialize an exclusive view of a mutably-registered object.
    ///
    /// # Safety
    /// As [`BufferArena::slice_mut`], for the whole object; the op's
    /// write span must cover the entire registration.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn obj_mut<'a, T>(&self, buf: u32) -> &'a mut T {
        let e = &self.entries[buf as usize];
        debug_assert!(e.mutable, "arena: mutable view of a shared registration");
        debug_assert!(!e.obj.is_null(), "arena: not an object registration");
        &mut *(e.obj as *const T as *mut T)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_round_trips_slices_and_objects() {
        let xs = [1.0f64, 2.0, 3.0, 4.0];
        let mut ys = [0.0f64; 4];
        let mut arena = BufferArena::new();
        // SAFETY: xs/ys outlive the arena uses below; ys is only
        // accessed through its (sole) mutable registration.
        let (hx, hy) = unsafe {
            (
                arena.register_slice(xs.as_ptr(), xs.len()),
                arena.register_slice_mut(ys.as_mut_ptr(), ys.len()),
            )
        };
        unsafe {
            let x = arena.slice::<f64>(hx, 1, 2);
            assert_eq!(x, &[2.0, 3.0]);
            arena.slice_mut::<f64>(hy, 2, 2).copy_from_slice(x);
            *arena.value_mut::<f64>(hy, 0) = 9.0;
        }
        assert_eq!(ys, [9.0, 0.0, 2.0, 3.0]);
        assert_eq!(arena.slice_len(hy), 4);

        let v = 42usize;
        // SAFETY: v outlives the access below.
        let hv = unsafe { arena.register_obj(&v as *const usize) };
        assert_eq!(*unsafe { arena.obj::<usize>(hv) }, 42);
    }

    #[test]
    fn arena_reuses_allocations_across_clears() {
        let xs = [0.0f64; 8];
        let mut arena = BufferArena::new();
        // SAFETY: xs outlives every use; read-only registrations.
        unsafe { arena.register_slice(xs.as_ptr(), xs.len()) };
        let (s, l) = arena.push_list([0, 0, 0]);
        assert_eq!(arena.list(s, l), &[0, 0, 0]);
        assert_eq!(arena.len(), 1);
        arena.clear();
        assert!(arena.is_empty());
        // Re-register after clear: handles start from 0 again.
        let h = unsafe { arena.register_slice(xs.as_ptr(), xs.len()) };
        assert_eq!(h, 0);
    }

    #[test]
    fn arena_handles_are_registration_ordered() {
        let a = [1.0f32; 2];
        let b = [2.0f32; 2];
        let mut arena = BufferArena::new();
        // SAFETY: a/b outlive the uses; read-only.
        let (ha, hb) = unsafe {
            (
                arena.register_slice(a.as_ptr(), 2),
                arena.register_slice(b.as_ptr(), 2),
            )
        };
        assert_eq!((ha, hb), (0, 1));
        assert_eq!(unsafe { arena.slice::<f32>(hb, 0, 2) }, &[2.0, 2.0]);
    }
}
