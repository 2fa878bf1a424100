//! Tuples: immutable, cheaply-cloneable rows.
//!
//! A [`Tuple`] is one thin pointer to a single heap block: a `u32`
//! reference count, a `u32` arity, then the values. Every layer holds rows
//! several times over (base tables and their indexes, delta stores, the
//! view delta, the MV), so the handle and the block are kept as small as
//! the values allow. No stable standard type gives a thin, shared slice
//! (`Arc<[Value]>` is a fat pointer over a 16-byte header, `Arc<Vec<_>>`
//! costs two blocks), so this module holds the library crates' only
//! `unsafe` code: everything that touches the block's layout or its count
//! is here.

use crate::Value;
use std::alloc::{self, Layout};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::mem;
use std::ptr::{self, NonNull};
use std::sync::atomic::{self, AtomicU32, Ordering};

/// The start of a tuple's block; `arity` values follow it directly.
#[repr(C)]
struct Header {
    /// Live handles to the block.
    strong: AtomicU32,
    /// Number of values after the header.
    arity: u32,
}

// The values start right after the header, with no padding between.
const _: () = assert!(mem::size_of::<Header>().is_multiple_of(mem::align_of::<Value>()));

/// `clone` aborts once this many handles exist, as `Arc` does, so the count
/// cannot wrap while a handle is alive.
const MAX_REFCOUNT: u32 = i32::MAX as u32;

/// Layout of a block holding `arity` values, or `None` if it overflows.
fn layout(arity: usize) -> Option<Layout> {
    let values = Layout::array::<Value>(arity).ok()?;
    let (block, _) = Layout::new::<Header>().extend(values).ok()?;
    Some(block.pad_to_align())
}

/// The first value slot of the block that starts at `header`.
fn values_ptr(header: NonNull<Header>) -> *mut Value {
    // One past the header is still inside (or one past the end of) the
    // block, and by the assert above it is aligned for `Value`.
    header.as_ptr().wrapping_add(1).cast::<Value>()
}

/// An immutable row of [`Value`]s.
///
/// Cloning a `Tuple` increments the block's reference count and copies an
/// 8-byte pointer, which matters because propagation queries fan the same
/// tuple into many join results and delta records.
pub struct Tuple {
    ptr: NonNull<Header>,
    /// The handle shares ownership of the values in the block.
    _owns: PhantomData<Value>,
}

// SAFETY: a `Tuple` is a shared handle to an immutable block of `Value`s
// whose count is atomic, exactly as `Arc<[Value]>` is, and that is `Send`
// and `Sync` because `Value` is both (asserted below). Another thread may
// drop the last handle, and so the values, or read them through `&Tuple`.
unsafe impl Send for Tuple {}
// SAFETY: as for `Send`: through `&Tuple` other threads only read the
// values and atomically change the count.
unsafe impl Sync for Tuple {}

const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Value>();
};

/// A block whose values are being written. Dropping it drops the first
/// `written` values and frees the block: that cleans up after a panic in
/// the caller's iterator, after the values are moved out, and after the
/// last handle of a finished tuple goes.
struct Block {
    ptr: NonNull<Header>,
    /// The arity the block was allocated for.
    arity: usize,
    /// The leading slots that hold initialised values.
    written: usize,
}

impl Block {
    /// A fresh block for `arity` values with a count of one, or `None` if
    /// `arity` does not fit the header or the layout overflows.
    fn alloc(arity: usize) -> Option<Block> {
        let arity32 = u32::try_from(arity).ok()?;
        let layout = layout(arity)?;
        // SAFETY: the layout is not zero-sized: it holds the header.
        let raw = unsafe { alloc::alloc(layout) }.cast::<Header>();
        let Some(ptr) = NonNull::new(raw) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: `ptr` is a fresh allocation of `layout`, so it is valid
        // for writes and aligned for the header at its start.
        unsafe {
            ptr.as_ptr().write(Header {
                strong: AtomicU32::new(1),
                arity: arity32,
            })
        };
        Some(Block {
            ptr,
            arity,
            written: 0,
        })
    }

    /// Fill the free slots from `iter`. Returns the value it yields past
    /// the last slot (its size hint was too low), or `None` once it runs
    /// dry (the block is then short if the hint was too high).
    fn fill(&mut self, iter: &mut impl Iterator<Item = Value>) -> Option<Value> {
        while self.written < self.arity {
            let v = iter.next()?;
            // SAFETY: slot `written` < `arity` is inside the block and not
            // yet initialised. `written` counts it only once it is written,
            // so if `next` panics the drop guard drops initialised slots
            // only.
            unsafe { values_ptr(self.ptr).add(self.written).write(v) };
            self.written += 1;
        }
        iter.next()
    }

    /// Move the written values out into a `Vec` and free the block.
    fn into_vec(mut self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.written);
        // SAFETY: the first `written` slots hold initialised values and
        // `out` has room for them; copying them moves them, and zeroing
        // `written` straight after keeps the drop below from dropping
        // them a second time.
        unsafe {
            ptr::copy_nonoverlapping(values_ptr(self.ptr), out.as_mut_ptr(), self.written);
            out.set_len(self.written);
        }
        self.written = 0;
        out
    }

    /// Hand the filled block to a tuple, which takes over its one count.
    fn finish(self) -> Tuple {
        debug_assert_eq!(self.written, self.arity);
        let tuple = Tuple {
            ptr: self.ptr,
            _owns: PhantomData,
        };
        mem::forget(self);
        tuple
    }
}

impl Drop for Block {
    fn drop(&mut self) {
        let layout = layout(self.arity).expect("checked when the block was allocated");
        // SAFETY: nothing else refers to the block (it is unfinished, or
        // its last handle is going); its first `written` slots hold values
        // that nothing else owns, and it was allocated with `layout`.
        unsafe {
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(
                values_ptr(self.ptr),
                self.written,
            ));
            alloc::dealloc(self.ptr.as_ptr().cast(), layout);
        }
    }
}

impl Tuple {
    /// Build a tuple from any iterable of values.
    ///
    /// An iterator with an exact size hint (lower bound equal to upper) is
    /// written straight into the tuple's block: one allocation, no copy.
    /// Any other, or one whose exact hint proves wrong, goes through a
    /// `Vec` first.
    pub fn new(values: impl IntoIterator<Item = Value>) -> Self {
        let mut iter = values.into_iter();
        let block = match iter.size_hint() {
            (lo, Some(hi)) if lo == hi => Block::alloc(lo),
            _ => None,
        };
        let Some(mut block) = block else {
            return Tuple::from(iter.collect::<Vec<_>>());
        };
        match block.fill(&mut iter) {
            None if block.written == block.arity => block.finish(),
            // The hint was too high: keep the values that came.
            None => Tuple::from(block.into_vec()),
            // Too low: append the rest.
            Some(extra) => {
                let mut values = block.into_vec();
                values.push(extra);
                values.extend(iter);
                Tuple::from(values)
            }
        }
    }

    /// The empty tuple (projection onto zero columns).
    pub fn empty() -> Self {
        Tuple::new([])
    }

    fn header(&self) -> &Header {
        // SAFETY: the block outlives every handle to it, and the header is
        // only changed through its atomic count.
        unsafe { self.ptr.as_ref() }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.header().arity as usize
    }

    /// Borrow the values.
    pub fn values(&self) -> &[Value] {
        // SAFETY: the block holds `arity` initialised values right after
        // the header, never changed while a handle is alive.
        unsafe { std::slice::from_raw_parts(values_ptr(self.ptr), self.arity()) }
    }

    /// Column accessor. Panics on out-of-range (schema mismatch is a bug).
    pub fn get(&self, idx: usize) -> &Value {
        &self.values()[idx]
    }

    /// Project onto the given column indexes (in order, duplicates allowed).
    pub fn project(&self, cols: &[usize]) -> Tuple {
        Tuple::new(cols.iter().map(|&c| self.get(c).clone()))
    }

    /// Heap bytes held by this tuple's block: the header, 16 bytes per
    /// column, and each string's own block. A block shared by several
    /// holders is counted in full by each call: this feeds estimates (the
    /// storage layer's reclaimed-bytes counter), not an allocator.
    pub fn heap_bytes(&self) -> usize {
        mem::size_of::<Header>()
            + self
                .values()
                .iter()
                .map(|v| mem::size_of::<Value>() + v.heap_bytes())
                .sum::<usize>()
    }
}

impl Clone for Tuple {
    fn clone(&self) -> Self {
        // Relaxed is enough, as for `Arc`: the new handle is made from a
        // live one, which already keeps the block alive, and publishes
        // nothing.
        let old = self.header().strong.fetch_add(1, Ordering::Relaxed);
        if old > MAX_REFCOUNT {
            std::process::abort();
        }
        Tuple {
            ptr: self.ptr,
            _owns: PhantomData,
        }
    }
}

impl Drop for Tuple {
    fn drop(&mut self) {
        // Release orders this handle's reads of the block before its
        // decrement; the Acquire fence in the last handle's drop pairs with
        // every such decrement, so all reads finish before the free.
        if self.header().strong.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        atomic::fence(Ordering::Acquire);
        let arity = self.arity();
        drop(Block {
            ptr: self.ptr,
            arity,
            written: arity,
        });
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        // `Value` equality is reflexive (NaN equals itself), so one block
        // is always equal to itself.
        self.ptr == other.ptr || self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.values().cmp(other.values())
    }
}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state)
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Tuple").field(&self.values()).finish()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    fn from(values: [Value; N]) -> Self {
        Tuple::new(values)
    }
}

impl From<Vec<Value>> for Tuple {
    /// Moves the values into the tuple's block: one allocation, one copy.
    fn from(mut values: Vec<Value>) -> Self {
        let n = values.len();
        let mut block = Block::alloc(n).expect("a tuple has at most u32::MAX columns");
        // SAFETY: the block has room for `n` values and `values` holds `n`
        // initialised ones; copying moves them, and emptying `values`
        // straight after keeps it from dropping them too.
        unsafe {
            ptr::copy_nonoverlapping(values.as_ptr(), values_ptr(block.ptr), n);
            values.set_len(0);
        }
        block.written = n;
        block.finish()
    }
}

impl std::ops::Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        self.get(idx)
    }
}

/// Convenience for tests and examples: `tup![1, "a", Value::Null]`.
#[macro_export]
macro_rules! tup {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = tup![1, "a", 2.5];
        assert_eq!(t.arity(), 3);
        assert_eq!(t[0], Value::Int(1));
        assert_eq!(t[1], Value::str("a"));
        assert_eq!(t[2], Value::Float(2.5));
    }

    #[test]
    fn project_reorders_and_duplicates() {
        let t = tup![10, 20, 30];
        assert_eq!(t.project(&[2, 0, 0]), tup![30, 10, 10]);
        assert_eq!(t.project(&[]), Tuple::empty());
    }

    #[test]
    fn clone_is_shallow() {
        let t = tup![1, "abc"];
        let u = t.clone();
        assert_eq!(t, u);
        assert_eq!(t.values().as_ptr(), u.values().as_ptr());
    }

    #[test]
    fn display_is_parenthesized() {
        assert_eq!(tup![1, "a"].to_string(), "(1, 'a')");
    }
}
