//! Shared column-major storage helpers.
//!
//! Three containers in this crate keep an `n x cols` column-major
//! element array and hand out per-column views:
//!
//! - [`crate::multivector::MultiVector`] — one solve's **growable
//!   Krylov basis**: columns fill left to right as Arnoldi extends the
//!   basis, `ncols` grows per iteration, and the allocation is sized
//!   once at `m + 1` columns per restart cycle.
//! - [`crate::multivec::MultiVec`] — a **fixed-k block** of right-hand
//!   side / solution vectors: one column per RHS, all `k` columns live
//!   for the whole solve, and kernels take an explicit leading-column
//!   count so drivers can deflate converged columns.
//! - [`crate::basis::CompressedBasis`] — the growable Krylov basis
//!   again, but with the element type decoupled from the working
//!   precision (the compressed-basis storage path).
//!
//! The distinction is semantic, not structural — the column views and
//! the raw pointers a recorded stream registers are identical — so the
//! accessors live in
//! one macro here instead of three drifting copies. Each container
//! invokes [`colmajor_views!`] inside its `impl` block with its element
//! type and column-count field name.

/// Implements `col`, `col_mut`, and `raw_parts_mut` for a column-major
/// container with fields `n` (rows), `$cols` (allocated columns), and
/// `data` (the `n * $cols` element array).
macro_rules! colmajor_views {
    ($elem:ident, $cols:ident) => {
        /// Borrow column `j`.
        #[inline]
        pub fn col(&self, j: usize) -> &[$elem] {
            debug_assert!(j < self.$cols);
            &self.data[j * self.n..(j + 1) * self.n]
        }

        /// Mutably borrow column `j`.
        #[inline]
        pub fn col_mut(&mut self, j: usize) -> &mut [$elem] {
            debug_assert!(j < self.$cols);
            &mut self.data[j * self.n..(j + 1) * self.n]
        }

        /// Raw `(object, element-data)` pointers, as a recorded
        /// stream's block handle carries them. The data pointer is
        /// derived *through* the object pointer — not by a second
        /// reborrow of `self` — so both share one provenance chain and
        /// taking them never invalidates either pointer (the handle
        /// keeps them for the lifetime of the recording region's
        /// borrow).
        pub fn raw_parts_mut(&mut self) -> (*mut Self, *mut $elem) {
            let obj: *mut Self = self;
            // SAFETY: `obj` was just derived from a live `&mut self`;
            // materializing the interior data pointer through it keeps
            // the derivation chain obj -> data intact.
            unsafe { (obj, (*obj).data.as_mut_ptr()) }
        }
    };
}

pub(crate) use colmajor_views;
