//! Allocation checks for the WAL codec's tuple decoder: a logged change's
//! tuple is decoded straight into its block, one allocation per tuple, on
//! the capture and recovery paths alike, and a corrupt encoding frees
//! whatever it allocated.
//!
//! A counting global allocator keeps per-thread tallies, so tests running
//! on parallel threads do not see each other's allocations.

use rolljoin_common::{Tuple, Value};
use rolljoin_storage::codec::{decode_tuple, decode_tuple_at, encode_tuple};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Allocations made on this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// only touches const-initialised thread-locals without destructors, none
// of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees on `layout` are passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            let _ = LIVE.try_with(|c| c.set(c.get() + layout.size() as isize));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|c| c.set(c.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `f`, returning its result with the allocations and bytes it made.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, isize) {
    let (a0, l0) = (ALLOCS.with(Cell::get), LIVE.with(Cell::get));
    let out = f();
    (out, ALLOCS.with(Cell::get) - a0, LIVE.with(Cell::get) - l0)
}

/// A 4-column row with no string column (a string owns a block of its own).
fn row() -> Tuple {
    Tuple::new([
        Value::Int(-7),
        Value::Int(1 << 40),
        Value::Float(2.5),
        Value::Null,
    ])
}

#[test]
fn a_decoded_four_column_tuple_is_one_allocation() {
    let buf = encode_tuple(&row());
    let (t, allocs, _) = measure(|| decode_tuple(&buf).unwrap());
    assert_eq!(t, row());
    assert_eq!(allocs, 1, "decode_tuple");

    // Back to back in one record, as a logged update's old and new rows are.
    let mut two = buf.clone();
    two.extend_from_slice(&buf);
    let ((a, b), allocs, _) = measure(|| {
        let mut pos = 0;
        let a = decode_tuple_at(&two, &mut pos).unwrap();
        let b = decode_tuple_at(&two, &mut pos).unwrap();
        assert_eq!(pos, two.len());
        (a, b)
    });
    assert_eq!((a, b), (row(), row()));
    assert_eq!(allocs, 2, "decode_tuple_at, twice");
}

#[test]
fn a_truncated_tuple_frees_what_it_allocated() {
    let buf = encode_tuple(&row());
    for cut in 1..buf.len() {
        let (failed, _, live) = measure(|| decode_tuple(&buf[..cut]).is_err());
        assert!(failed, "cut at {cut} must fail");
        assert_eq!(live, 0, "cut at {cut} leaked {live} bytes");
    }
}
