//! Allocation checks for `Tuple`'s hand-written block: each tuple is one
//! allocation, every block and value is freed exactly once, and neither a
//! wrong size hint nor a panicking iterator leaks.
//!
//! A counting global allocator keeps per-thread tallies, so tests running
//! on parallel threads do not see each other's allocations. Frees that
//! happen on other threads are checked by watching one block's address.

use rolljoin_common::{tup, Tuple, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

struct Counting;

thread_local! {
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Allocations made on this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// An address inside the block under watch (0: none), and how many times a
/// block holding it was freed, on any thread.
static WATCH: AtomicUsize = AtomicUsize::new(0);
static WATCH_FREES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// only touches const-initialised thread-locals without destructors and
// atomics, none of which allocates.
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
        let watch = WATCH.load(Ordering::SeqCst);
        let start = ptr as usize;
        if watch != 0 && (start..start + layout.size()).contains(&watch) {
            WATCH_FREES.fetch_add(1, Ordering::SeqCst);
        }
        let _ = LIVE.try_with(|c| c.set(c.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

/// Run `f`, returning its result with the allocations and bytes it made.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, isize) {
    let (a0, l0) = (allocs(), live());
    let out = f();
    (out, allocs() - a0, live() - l0)
}

/// An iterator over `values` that reports `hint` as its exact size.
struct Lying {
    values: std::vec::IntoIter<Value>,
    hint: usize,
}

impl Iterator for Lying {
    type Item = Value;
    fn next(&mut self) -> Option<Value> {
        self.values.next()
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.hint, Some(self.hint))
    }
}

#[test]
fn a_tuple_is_one_allocation() {
    let (t, n, bytes) = measure(|| Tuple::new((0..4).map(Value::Int)));
    assert_eq!(n, 1, "exact-hint iterator");
    assert_eq!(bytes, 8 + 4 * 16, "header plus four 16-byte values");
    assert_eq!(t, tup![0, 1, 2, 3]);

    let values: Vec<Value> = (0..4).map(Value::Int).collect();
    let (u, n, bytes) = measure(|| Tuple::from(values));
    assert_eq!(n, 1, "From<Vec<Value>>");
    // The vector's buffer is freed as its values move into the block.
    assert_eq!(bytes, 72 - 4 * 16);
    assert_eq!(u, t);

    let (_, n, _) = measure(|| t.project(&[3, 1]));
    assert_eq!(n, 1, "projection");
    let (_, n, _) = measure(|| t.clone());
    assert_eq!(n, 0, "clone shares the block");
}

#[test]
fn build_clone_project_drop_returns_every_byte() {
    let start = live();
    {
        let mut held = Vec::with_capacity(100_000);
        for i in 0..100_000i64 {
            let t = match i % 4 {
                0 => Tuple::empty(),
                1 => Tuple::new([Value::Int(i)]),
                2 => tup![i, "s", 2.5],
                _ => Tuple::from(vec![Value::Int(i), Value::Null, Value::Bool(true)]),
            };
            let p = t.project(&(0..t.arity()).rev().collect::<Vec<_>>());
            let e = t.project(&[]);
            held.push(t.clone());
            held.push(p);
            held.push(e);
            held.push(t);
        }
        assert_eq!(held.len(), 400_000);
    }
    assert_eq!(live(), start);
}

#[test]
fn a_shared_tuple_is_freed_exactly_once() {
    let t = tup![1, 2, 3];
    WATCH.store(t.values().as_ptr() as usize, Ordering::SeqCst);
    let barrier = Barrier::new(4);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                barrier.wait();
                for _ in 0..1_000_000 / 4 {
                    let c = t.clone();
                    assert_eq!(c.arity(), 3);
                    drop(c);
                }
            });
        }
    });
    assert_eq!(
        WATCH_FREES.load(Ordering::SeqCst),
        0,
        "a handle is still live"
    );
    drop(t);
    assert_eq!(WATCH_FREES.load(Ordering::SeqCst), 1);
    WATCH.store(0, Ordering::SeqCst);
}

#[test]
fn string_values_are_released() {
    let s = Arc::new(String::from("shared"));
    {
        let v = Value::Str(s.clone());
        let t = Tuple::new([v.clone(), Value::Int(1), v]);
        let u = t.clone();
        let p = u.project(&[2, 0]);
        assert_eq!(Arc::strong_count(&s), 5);
        assert_eq!(p.get(0).as_str(), Some("shared"));
    }
    assert_eq!(Arc::strong_count(&s), 1);
}

#[test]
fn a_wrong_size_hint_still_builds_the_right_tuple() {
    let start = live();
    for len in 0..6usize {
        let values: Vec<Value> = (0..len).map(|i| Value::str(format!("v{i}"))).collect();
        let want = Tuple::from(values.clone());
        for hint in [0, len.saturating_sub(1), len, len + 1, len + 7] {
            let got = Tuple::new(Lying {
                values: values.clone().into_iter(),
                hint,
            });
            assert_eq!(got, want, "len {len}, hint {hint}");
            assert_eq!(got.arity(), len);
        }
    }
    assert_eq!(live(), start);
}

#[test]
fn a_panicking_iterator_leaks_nothing() {
    let start = live();
    for at in 0..5 {
        let iter = (0..8).map(|i| {
            if i == at {
                // No panic hook runs, so no message is buffered.
                panic::resume_unwind(Box::new("boom"));
            }
            Value::str(format!("value {i}"))
        });
        assert_eq!(iter.size_hint(), (8, Some(8)));
        let result = panic::catch_unwind(AssertUnwindSafe(|| Tuple::new(iter)));
        assert!(result.is_err());
    }
    assert_eq!(live(), start);
}
