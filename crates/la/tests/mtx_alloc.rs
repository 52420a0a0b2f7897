//! `read_matrix_market` on a size line whose row count the allocator
//! refuses: a `Parse` error, not an abort.
//!
//! This binary's global allocator refuses any single allocation above
//! 1 GiB, as a process under a memory limit would. A row count near
//! `u32::MAX` needs 32 GiB of CSR row pointers, so the reader must see
//! the refusal through a fallible reservation; an infallible one would
//! abort the test binary.

use std::alloc::{GlobalAlloc, Layout, System};

use mpgmres_la::csr::Csr;
use mpgmres_la::mtx::{read_matrix_market, MtxError};

/// Largest single allocation this binary grants.
const CAP: usize = 1 << 30;

struct Capped;

unsafe impl GlobalAlloc for Capped {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > CAP {
            return std::ptr::null_mut();
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Capped = Capped;

#[test]
fn huge_row_count_with_one_entry_is_a_parse_error() {
    for size in ["4294967295 1 1", "200000000 1 1"] {
        let src = format!("%%MatrixMarket matrix coordinate real general\n{size}\n1 1 1.0\n");
        match read_matrix_market::<f64, _>(src.as_bytes()) {
            Err(MtxError::Parse(msg)) => assert!(msg.contains("row pointers"), "{size}: {msg}"),
            other => panic!("{size}: expected a parse error, got {other:?}"),
        }
    }
}

#[test]
fn row_counts_the_allocator_grants_still_read() {
    let src = "%%MatrixMarket matrix coordinate real general\n1000000 1 1\n1000000 1 2.5\n";
    let a: Csr<f64> = read_matrix_market(src.as_bytes()).unwrap();
    assert_eq!((a.nrows(), a.ncols(), a.nnz()), (1_000_000, 1, 1));
    assert_eq!(a.row_ptr()[1_000_000], 1);
    assert_eq!(a.vals(), &[2.5]);
}
