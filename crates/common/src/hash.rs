//! The one hasher behind every hash map and set in the library crates.
//!
//! Every propagation round hashes whole tuples many times over: the view
//! delta is netted into a tuple → count map, the net counts are installed
//! into the MV's tuple → count map, and joins, history grouping and the
//! delta postings all key maps by tuple or value. [`Map`] and [`Set`] use
//! [`Seeded`], a folded-multiply hasher, instead of the standard library's
//! SipHash:
//!
//! * **Folded multiply.** Input words are packed into a 128-bit buffer;
//!   a full buffer is absorbed as `fold(lo ^ acc, hi ^ key)`, where
//!   `fold(a, b)` multiplies into 128 bits and xors the high half into the
//!   low half. The xor carries the well-mixed high product bits down into
//!   the low bits the table uses to pick a bucket, so keys that differ only
//!   in high bits (multiples of `2^k`) still spread — a plain
//!   multiply-and-rotate (Fx) finish leaves their low bits equal. An
//!   `Int` column is one tag byte plus one 64-bit payload, so a tuple of
//!   `n` int columns costs about `n + 1` multiplies, the last one the
//!   finishing fold.
//! * **Seeded per map.** Each [`Seeded::default`] draws its two keys from
//!   a process-random key (taken once from the standard library's
//!   OS-seeded [`RandomState`](std::collections::hash_map::RandomState))
//!   and a per-map counter. Bucket layouts are not predictable from
//!   outside the process, and two maps never share one: draining one map
//!   into a fresh one does not feed the second its keys in bucket order
//!   under the same hash, the pattern that clusters a table built with a
//!   fixed-key hasher.
//!
//! What this gives up against SipHash is a keyed PRF's guarantee: an
//! adversary who can observe many hashes might recover a map's keys. No
//! map here hashes input an outside party chooses and then observes.
//!
//! Iteration order differs from map to map and from run to run, so no
//! output — a log record order, a report, a golden — may depend on it;
//! code that needs an order sorts or keeps first-occurrence order.

use std::cell::Cell;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A hash map under the workspace hasher.
pub type Map<K, V> = std::collections::HashMap<K, V, Seeded>;

/// A hash set under the workspace hasher.
pub type Set<K> = std::collections::HashSet<K, Seeded>;

/// An empty [`Map`] with room for `n` entries before it rehashes.
pub fn map_with_capacity<K, V>(n: usize) -> Map<K, V> {
    Map::with_capacity_and_hasher(n, Seeded::default())
}

/// `2^64 / φ`: an odd constant with well-spread bits, used to mix seeds.
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply into 128 bits and xor the high half into the low half.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let p = (a as u128).wrapping_mul(b as u128);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The process-random key, drawn once.
fn process_key() -> (u64, u64) {
    static KEY: OnceLock<(u64, u64)> = OnceLock::new();
    *KEY.get_or_init(|| {
        let os = std::collections::hash_map::RandomState::new();
        (os.hash_one(0u64), os.hash_one(1u64))
    })
}

/// The next per-map counter value. Each thread counts in its own range
/// (the thread's ordinal in the top half), so map creation shares no
/// cache line across threads.
fn next_counter() -> u64 {
    static THREADS: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static NEXT: Cell<u64> = Cell::new(THREADS.fetch_add(1, Ordering::Relaxed) << 32);
    }
    NEXT.with(|c| {
        let n = c.get();
        c.set(n.wrapping_add(1));
        n
    })
}

/// The [`BuildHasher`] of [`Map`] and [`Set`]: a map's two hashing keys.
/// `Default` seeds a fresh pair (see the module docs); `Clone` keeps them,
/// so a cloned map hashes as its original does.
#[derive(Clone, Copy, Debug)]
pub struct Seeded {
    acc: u64,
    key: u64,
}

impl Default for Seeded {
    fn default() -> Self {
        let (k0, k1) = process_key();
        let n = next_counter();
        Seeded {
            acc: fold(k0 ^ n, MIX),
            key: fold(k1 ^ n, MIX.rotate_left(32)),
        }
    }
}

impl BuildHasher for Seeded {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            acc: self.acc,
            key: self.key,
            buf: 0,
            bits: 0,
        }
    }
}

/// The hasher [`Seeded`] builds. Integer writes are packed into a 128-bit
/// buffer; each full buffer and each 16 bytes of a byte string fold into
/// the accumulator with one 128-bit multiply. `finish` folds what is left
/// in the buffer, then folds the result once more by a fixed odd constant:
/// one fold of a word whose bits vary only in a narrow band (keys
/// `k << 12`) reaches the low bits through a few product bits only, and
/// for some keys those collapse to a handful of values.
pub struct FoldHasher {
    acc: u64,
    key: u64,
    buf: u128,
    bits: u32,
}

impl FoldHasher {
    #[inline(always)]
    fn absorb(&mut self, lo: u64, hi: u64) {
        self.acc = fold(lo ^ self.acc, hi ^ self.key);
    }

    #[inline(always)]
    fn flush(&mut self) {
        if self.bits > 0 {
            self.absorb(self.buf as u64, (self.buf >> 64) as u64);
            self.buf = 0;
            self.bits = 0;
        }
    }

    #[inline(always)]
    fn push(&mut self, x: u64, bits: u32) {
        if self.bits + bits > 128 {
            self.flush();
        }
        self.buf |= (x as u128) << self.bits;
        self.bits += bits;
    }
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.flush();
        for chunk in bytes.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            let word = u128::from_le_bytes(block);
            self.absorb(word as u64, (word >> 64) as u64);
        }
        // The length tells zero padding from trailing zero bytes.
        self.push(bytes.len() as u64, 64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.push(i as u64, 8);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.push(i as u64, 16);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.push(i as u64, 32);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.push(i, 64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.push(i as u64, 64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let h = if self.bits > 0 {
            fold(
                self.buf as u64 ^ self.acc,
                (self.buf >> 64) as u64 ^ self.key,
            )
        } else {
            self.acc
        };
        fold(h, MIX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tup, Tuple, Value};

    #[test]
    fn equal_values_and_tuples_hash_equal() {
        let s = Seeded::default();
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let pairs = [
            (Value::Null, Value::Null),
            (Value::Bool(true), Value::from(true)),
            (Value::Bool(false), Value::from(false)),
            (Value::Int(-7), Value::from(-7i64)),
            (Value::str("abc"), Value::from(String::from("abc"))),
            (Value::str(""), Value::from("")),
            (
                Value::Float(nan),
                Value::Float(f64::from_bits(nan.to_bits())),
            ),
            (Value::Float(0.0), Value::Float(0.0)),
        ];
        for (a, b) in &pairs {
            assert_eq!(a, b);
            assert_eq!(s.hash_one(a), s.hash_one(b), "{a} vs {b}");
        }
        let t: Tuple = tup![1, "x", Value::Null, 2.5];
        assert_eq!(s.hash_one(&t), s.hash_one(t.clone()));
        assert_eq!(s.hash_one(&t), s.hash_one(tup![1, "x", Value::Null, 2.5]));
        // `Eq` compares float bits, so the two zeros are distinct keys.
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
        assert_ne!(
            s.hash_one(Value::Float(0.0)),
            s.hash_one(Value::Float(-0.0))
        );
    }

    #[test]
    fn distinct_values_hash_apart() {
        let s = Seeded::default();
        let vals = [
            tup![Value::Null],
            tup![false],
            tup![0],
            tup![""],
            tup!["a"],
            tup!["a\0"],
            tup!["ab"],
            tup!["0123456789abcdef"],
            tup!["0123456789abcdef0"],
            tup![0, 0],
            tup![],
        ];
        let hashes: Set<u64> = vals.iter().map(|v| s.hash_one(v)).collect();
        assert_eq!(hashes.len(), vals.len());
    }

    #[test]
    fn each_map_is_seeded_apart() {
        let v = Value::Int(42);
        let (a, b) = (Seeded::default(), Seeded::default());
        assert_ne!(a.hash_one(&v), b.hash_one(&v));
        // A clone keeps its original's seed.
        assert_eq!(a.hash_one(&v), a.hash_one(&v));
        assert_eq!(a.hash_one(&v), a.clone().hash_one(&v));
    }

    #[test]
    fn low_bits_spread_for_keys_differing_in_high_bits() {
        // 1024 keys into 4096 buckets: a random hash fills ~900. A finish
        // that does not fold the high product bits down fills 4 (Fx), and
        // one fold of a word varying only in bits 20..30 can fill as few
        // as 8 for some seeds; so check several seeds.
        for _ in 0..16 {
            let s = Seeded::default();
            let low: Set<u64> = (0..1024i64)
                .map(|k| s.hash_one(Value::Int(k << 12)) & 0xfff)
                .collect();
            assert!(low.len() >= 512, "{} distinct low-12-bit values", low.len());
        }
    }

    #[test]
    fn maps_work_as_maps() {
        let mut m: Map<Tuple, i64> = map_with_capacity(4);
        for i in 0..1000 {
            *m.entry(tup![i % 100, "k"]).or_default() += 1;
        }
        assert_eq!(m.len(), 100);
        assert!(m.values().all(|&c| c == 10));
        assert_eq!(m[&tup![7, "k"]], 10);
    }
}
