//! Hierarchical strict two-phase locking: tables and key stripes.
//!
//! The paper assumes "the transaction history is serializable, and the
//! order of transaction commits is consistent with the serialization order
//! … the case, for example, in any system that used strict two-phase
//! locking" (§2). The seed implemented exactly that at **table**
//! granularity, which makes every `BaseKeyed` index probe — a read of a
//! handful of rows — serialize against every updater write to the table.
//!
//! This module generalizes the manager to a two-level hierarchy
//! (multi-granularity locking, Gray et al.):
//!
//! ```text
//!            table            IS / IX / S / SIX / X
//!           /  |  \
//!      stripe stripe stripe   S / X,  stripe = hash((col, key)) % N
//! ```
//!
//! A transaction that reads or writes *whole tables* locks at table
//! granularity exactly as before (`S`/`X` cover every stripe). A
//! transaction that touches *individual keys* — an updater writing one
//! tuple, or a propagation probe reading a delta's key set — takes an
//! intention lock (`IX`/`IS`) at the table and `X`/`S` on only the stripes
//! its keys hash to. Two key-granular transactions conflict only when
//! their key sets collide in a stripe; a full-table lock still conflicts
//! with everything, because `S`/`X` at the table are incompatible with the
//! intention modes.
//!
//! Stripes are identified by [`LockKey`] `{table, Some(stripe)}` and the
//! table level by `{table, None}`; the derived `Ord` gives the
//! `(TableId, stripe)` lexicographic acquisition order (table intention
//! first, then stripes ascending) that maintenance transactions follow to
//! stay deadlock-free among themselves. Fairness is FIFO with batched
//! grants per key (consecutive compatible waiters are granted together),
//! upgrades go to the front, and deadlocks involving updaters are resolved
//! by timeout exactly as at table granularity: a waiter that cannot be
//! granted within the deadline receives [`Error::LockTimeout`] and its
//! transaction is expected to abort and retry.

use parking_lot::{Condvar, Mutex, RwLock};
use rolljoin_common::hash::Map;
use rolljoin_common::{Error, Result, TableId, TxnId, Value};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default stripe count for [`LockGranularity::striped`].
pub const DEFAULT_STRIPES: u32 = 64;

/// Lock granularity an engine runs its base-table reads and writes at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LockGranularity {
    /// Table-granularity S/X locks (the seed behavior, and the default).
    #[default]
    Table,
    /// Hierarchical: IS/IX at the table plus S/X on `n` key stripes.
    /// Writers lock the stripes of their tuple's indexed-column values;
    /// keyed probes lock the stripes of their key set; full scans fall
    /// back to a table-granularity S lock (which covers every stripe).
    Striped(u32),
}

impl LockGranularity {
    /// `Striped` with the default stripe count.
    pub fn striped() -> Self {
        LockGranularity::Striped(DEFAULT_STRIPES)
    }

    /// Stripe count, if striped.
    pub fn stripes(&self) -> Option<u32> {
        match self {
            LockGranularity::Table => None,
            LockGranularity::Striped(n) => Some((*n).max(1)),
        }
    }
}

impl std::fmt::Display for LockGranularity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockGranularity::Table => write!(f, "table"),
            LockGranularity::Striped(n) => write!(f, "striped({n})"),
        }
    }
}

/// The stripe a `(column, key value)` pair hashes to. Deterministic and
/// process-wide stable, so readers and writers agree on the mapping: a
/// writer locks the stripes of its tuple's indexed-column values, and any
/// probe for one of those `(col, value)` pairs lands on the same stripe.
pub fn stripe_of(col: usize, key: &Value, stripes: u32) -> u32 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    col.hash(&mut h);
    key.hash(&mut h);
    (h.finish() % u64::from(stripes.max(1))) as u32
}

/// The sorted, deduplicated stripe set of a key set on one column — the
/// acquisition order for a keyed probe's stripe locks. Base-table probes
/// and keyed delta probes share this, so their `(col, key)` footprints are
/// identical and a writer's stripe X conflicts with both the same way.
pub fn stripes_for<'a>(
    col: usize,
    keys: impl IntoIterator<Item = &'a Value>,
    stripes: u32,
) -> Vec<u32> {
    let mut out: Vec<u32> = keys
        .into_iter()
        .map(|k| stripe_of(col, k, stripes))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// A lockable resource: a table (`stripe: None`) or one of its key
/// stripes. The derived `Ord` is the global acquisition order —
/// `(TableId, stripe)` lexicographic with the table level before its
/// stripes — that keeps ordered acquirers deadlock-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockKey {
    pub table: TableId,
    pub stripe: Option<u32>,
}

impl LockKey {
    /// The table-granularity resource.
    pub fn table(table: TableId) -> Self {
        LockKey {
            table,
            stripe: None,
        }
    }

    /// One stripe of a table.
    pub fn stripe(table: TableId, stripe: u32) -> Self {
        LockKey {
            table,
            stripe: Some(stripe),
        }
    }
}

impl std::fmt::Display for LockKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.stripe {
            None => write!(f, "{}", self.table),
            Some(s) => write!(f, "{}#{s}", self.table),
        }
    }
}

/// Requested/held lock strength (the standard multi-granularity lattice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Intent to take `Shared` at a finer granularity below this resource.
    IntentShared,
    /// Intent to take `Exclusive` at a finer granularity.
    IntentExclusive,
    Shared,
    /// `Shared` + `IntentExclusive`: read the whole resource while writing
    /// parts of it.
    SharedIntentExclusive,
    Exclusive,
}

impl LockMode {
    /// The standard compatibility matrix:
    ///
    /// ```text
    ///       IS  IX   S  SIX   X
    /// IS     ✓   ✓   ✓   ✓
    /// IX     ✓   ✓
    /// S      ✓       ✓
    /// SIX    ✓
    /// X
    /// ```
    pub fn compatible_with(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (IntentShared, Exclusive) | (Exclusive, IntentShared) => false,
            (IntentShared, _) | (_, IntentShared) => true,
            (IntentExclusive, IntentExclusive) | (Shared, Shared) => true,
            _ => false,
        }
    }

    /// Least upper bound in the strength lattice
    /// (`IS < {IX, S} < SIX < X`, `sup(IX, S) = SIX`). A holder of `a`
    /// requesting `b` must end up holding `a.sup(b)`.
    pub fn sup(self, other: LockMode) -> LockMode {
        use LockMode::*;
        match (self, other) {
            (a, b) if a == b => a,
            (Exclusive, _) | (_, Exclusive) => Exclusive,
            (SharedIntentExclusive, _) | (_, SharedIntentExclusive) => SharedIntentExclusive,
            (Shared, IntentExclusive) | (IntentExclusive, Shared) => SharedIntentExclusive,
            (IntentShared, b) => b,
            (a, _) => a,
        }
    }

    /// Does holding `self` subsume a request for `want`?
    pub fn covers(self, want: LockMode) -> bool {
        self.sup(want) == self
    }
}

impl std::fmt::Display for LockMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LockMode::IntentShared => "IS",
            LockMode::IntentExclusive => "IX",
            LockMode::Shared => "S",
            LockMode::SharedIntentExclusive => "SIX",
            LockMode::Exclusive => "X",
        };
        write!(f, "{s}")
    }
}

#[derive(Debug)]
struct Waiter {
    txn: TxnId,
    mode: LockMode,
}

#[derive(Default)]
struct LockState {
    granted: Map<TxnId, LockMode>,
    queue: VecDeque<Waiter>,
}

impl LockState {
    /// Can `txn` be granted `mode` given current holders (ignoring queue)?
    /// For a holder this is an upgrade check: the *combined* mode
    /// (`held.sup(mode)`) must be compatible with every other holder — so
    /// a sole S-holder upgrades to X immediately, while IS holders upgrade
    /// to IX past each other freely.
    fn compatible(&self, txn: TxnId, mode: LockMode) -> bool {
        let want = match self.granted.get(&txn) {
            Some(held) => held.sup(mode),
            None => mode,
        };
        self.granted
            .iter()
            .all(|(t, m)| *t == txn || m.compatible_with(want))
    }

    fn grant(&mut self, txn: TxnId, mode: LockMode) {
        let entry = self.granted.entry(txn).or_insert(mode);
        *entry = entry.sup(mode);
    }

    /// Grant queued waiters from the front while compatible.
    fn pump(&mut self) -> bool {
        let mut any = false;
        while let Some(front) = self.queue.front() {
            if self.compatible(front.txn, front.mode) {
                let w = self.queue.pop_front().expect("front exists");
                self.grant(w.txn, w.mode);
                any = true;
            } else {
                break;
            }
        }
        any
    }

    fn holds(&self, txn: TxnId, mode: LockMode) -> bool {
        self.granted.get(&txn).is_some_and(|m| m.covers(mode))
    }
}

struct LockEntry {
    state: Mutex<LockState>,
    cond: Condvar,
}

/// Counters for one lock granularity (table level or stripe level).
#[derive(Default)]
pub struct GranStats {
    /// Total nanoseconds spent blocked in `lock`.
    pub wait_nanos: AtomicU64,
    /// Number of `lock` calls that had to block.
    pub waits: AtomicU64,
    /// Number of lock acquisitions (blocked or not).
    pub acquisitions: AtomicU64,
    /// Number of lock timeouts (deadlock resolutions).
    pub timeouts: AtomicU64,
    /// Wait-time histogram: bucket `i` counts waits in `[2^i, 2^{i+1})`
    /// microseconds (bucket 0 also holds sub-microsecond waits; the last
    /// bucket is open-ended).
    pub wait_hist: [AtomicU64; WAIT_HIST_BUCKETS],
}

/// Number of power-of-two wait-time histogram buckets (µs scale: the last
/// bucket starts at `2^15` µs ≈ 33 ms).
pub const WAIT_HIST_BUCKETS: usize = 16;

fn hist_bucket(waited: Duration) -> usize {
    let us = waited.as_micros() as u64;
    if us == 0 {
        0
    } else {
        (63 - us.leading_zeros() as usize).min(WAIT_HIST_BUCKETS - 1)
    }
}

impl GranStats {
    fn record_wait(&self, waited: Duration) {
        self.wait_nanos
            .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
        self.wait_hist[hist_bucket(waited)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the counters.
    pub fn snapshot(&self) -> GranStatsSnapshot {
        let mut hist = [0u64; WAIT_HIST_BUCKETS];
        for (o, b) in hist.iter_mut().zip(&self.wait_hist) {
            *o = b.load(Ordering::Relaxed);
        }
        GranStatsSnapshot {
            wait_nanos: self.wait_nanos.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            wait_hist_us: hist,
        }
    }
}

/// Point-in-time copy of [`GranStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GranStatsSnapshot {
    pub wait_nanos: u64,
    pub waits: u64,
    pub acquisitions: u64,
    pub timeouts: u64,
    pub wait_hist_us: [u64; WAIT_HIST_BUCKETS],
}

impl GranStatsSnapshot {
    /// Mean wait among blocking acquisitions, zero when none blocked.
    pub fn mean_wait(&self) -> Duration {
        self.wait_nanos
            .checked_div(self.waits)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Difference of two snapshots (self − earlier). Saturating: the
    /// counters keep moving while a snapshot's fields are loaded one by
    /// one, so an `earlier` taken concurrently with lock traffic can read
    /// ahead of `self` on individual fields — clamp at zero instead of
    /// wrapping.
    pub fn since(&self, earlier: &GranStatsSnapshot) -> GranStatsSnapshot {
        let mut hist = [0u64; WAIT_HIST_BUCKETS];
        for (i, o) in hist.iter_mut().enumerate() {
            *o = self.wait_hist_us[i].saturating_sub(earlier.wait_hist_us[i]);
        }
        GranStatsSnapshot {
            wait_nanos: self.wait_nanos.saturating_sub(earlier.wait_nanos),
            waits: self.waits.saturating_sub(earlier.waits),
            acquisitions: self.acquisitions.saturating_sub(earlier.acquisitions),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            wait_hist_us: hist,
        }
    }
}

/// Aggregate lock statistics, split by granularity so the contention
/// experiments (E9, E17) can attribute waits to table locks vs stripe
/// locks.
#[derive(Default)]
pub struct LockStats {
    /// Table-granularity resources (including intention locks).
    pub table: GranStats,
    /// Stripe-granularity resources.
    pub stripe: GranStats,
}

impl LockStats {
    fn of(&self, key: &LockKey) -> &GranStats {
        if key.stripe.is_some() {
            &self.stripe
        } else {
            &self.table
        }
    }

    /// Combined snapshot `(wait_nanos, waits, acquisitions, timeouts)`
    /// summed over both granularities (the seed's reporting shape).
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        let s = self.snapshot_full();
        (
            s.table.wait_nanos + s.stripe.wait_nanos,
            s.table.waits + s.stripe.waits,
            s.table.acquisitions + s.stripe.acquisitions,
            s.table.timeouts + s.stripe.timeouts,
        )
    }

    /// Per-granularity snapshot with wait-time histograms.
    pub fn snapshot_full(&self) -> LockStatsSnapshot {
        LockStatsSnapshot {
            table: self.table.snapshot(),
            stripe: self.stripe.snapshot(),
        }
    }
}

/// Point-in-time copy of [`LockStats`], per granularity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStatsSnapshot {
    pub table: GranStatsSnapshot,
    pub stripe: GranStatsSnapshot,
}

impl LockStatsSnapshot {
    /// Difference of two snapshots (self − earlier).
    pub fn since(&self, earlier: &LockStatsSnapshot) -> LockStatsSnapshot {
        LockStatsSnapshot {
            table: self.table.since(&earlier.table),
            stripe: self.stripe.since(&earlier.stripe),
        }
    }
}

/// The lock manager: one FIFO queue per [`LockKey`].
pub struct LockManager {
    entries: RwLock<Map<LockKey, Arc<LockEntry>>>,
    timeout: Duration,
    stats: LockStats,
}

impl LockManager {
    /// Create a manager with the given deadlock-resolution timeout.
    pub fn new(timeout: Duration) -> Self {
        LockManager {
            entries: RwLock::new(Map::default()),
            timeout,
            stats: LockStats::default(),
        }
    }

    /// Lock statistics.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    fn entry(&self, key: LockKey) -> Arc<LockEntry> {
        if let Some(e) = self.entries.read().get(&key) {
            return e.clone();
        }
        self.entries
            .write()
            .entry(key)
            .or_insert_with(|| {
                Arc::new(LockEntry {
                    state: Mutex::new(LockState::default()),
                    cond: Condvar::new(),
                })
            })
            .clone()
    }

    /// Acquire `mode` on `table` (table granularity), blocking up to the
    /// timeout. Returns the time spent blocked.
    pub fn lock(&self, txn: TxnId, table: TableId, mode: LockMode) -> Result<Duration> {
        self.lock_key(txn, LockKey::table(table), mode)
    }

    /// Acquire `mode` on an arbitrary resource, blocking up to the
    /// timeout. Returns the time spent blocked.
    pub fn lock_key(&self, txn: TxnId, key: LockKey, mode: LockMode) -> Result<Duration> {
        let entry = self.entry(key);
        let gran = self.stats.of(&key);
        let mut state = entry.state.lock();
        gran.acquisitions.fetch_add(1, Ordering::Relaxed);

        if state.holds(txn, mode) {
            return Ok(Duration::ZERO);
        }
        if state.queue.is_empty() && state.compatible(txn, mode) {
            state.grant(txn, mode);
            return Ok(Duration::ZERO);
        }

        // Upgrades go to the front so a holder requesting a stronger mode
        // is not blocked behind unrelated waiters (which could never be
        // granted anyway while it holds its current mode). Competing
        // upgraders deadlock and are resolved by timeout.
        if state.granted.contains_key(&txn) {
            state.queue.push_front(Waiter { txn, mode });
        } else {
            state.queue.push_back(Waiter { txn, mode });
        }
        state.pump();
        if state.holds(txn, mode) {
            entry.cond.notify_all();
            return Ok(Duration::ZERO);
        }

        let started = Instant::now();
        gran.waits.fetch_add(1, Ordering::Relaxed);
        let deadline = started + self.timeout;
        loop {
            let timed_out = entry.cond.wait_until(&mut state, deadline).timed_out();
            if state.holds(txn, mode) {
                let waited = started.elapsed();
                gran.record_wait(waited);
                return Ok(waited);
            }
            if timed_out {
                // Withdraw the request.
                if let Some(pos) = state
                    .queue
                    .iter()
                    .position(|w| w.txn == txn && w.mode == mode)
                {
                    state.queue.remove(pos);
                }
                if state.pump() {
                    entry.cond.notify_all();
                }
                gran.record_wait(started.elapsed());
                gran.timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(Error::LockTimeout {
                    txn,
                    table: key.table,
                });
            }
        }
    }

    /// Release `txn`'s lock on `table` at table granularity (no-op if not
    /// held). Stripe locks are released via [`LockManager::release_key`].
    pub fn release(&self, txn: TxnId, table: TableId) {
        self.release_key(txn, LockKey::table(table));
    }

    /// Release `txn`'s lock on one resource (no-op if not held).
    pub fn release_key(&self, txn: TxnId, key: LockKey) {
        let entry = self.entry(key);
        let mut state = entry.state.lock();
        // Waiters wait to be granted, so wake them only when this
        // release granted one.
        if state.granted.remove(&txn).is_some() && state.pump() {
            entry.cond.notify_all();
        }
    }

    /// Does `txn` hold at least `mode` on `table` (table granularity)?
    pub fn holds(&self, txn: TxnId, table: TableId, mode: LockMode) -> bool {
        self.holds_key(txn, LockKey::table(table), mode)
    }

    /// Does `txn` hold at least `mode` on a resource?
    pub fn holds_key(&self, txn: TxnId, key: LockKey, mode: LockMode) -> bool {
        let entry = self.entry(key);
        let state = entry.state.lock();
        state.holds(txn, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    fn mgr() -> Arc<LockManager> {
        Arc::new(LockManager::new(Duration::from_millis(200)))
    }

    const T: TableId = TableId(1);

    #[test]
    fn shared_locks_coexist() {
        let m = mgr();
        m.lock(TxnId(1), T, LockMode::Shared).unwrap();
        m.lock(TxnId(2), T, LockMode::Shared).unwrap();
        assert!(m.holds(TxnId(1), T, LockMode::Shared));
        assert!(m.holds(TxnId(2), T, LockMode::Shared));
    }

    #[test]
    fn exclusive_blocks_shared_until_release() {
        let m = mgr();
        m.lock(TxnId(1), T, LockMode::Exclusive).unwrap();
        let m2 = m.clone();
        let blocked = Arc::new(AtomicBool::new(true));
        let b2 = blocked.clone();
        let h = thread::spawn(move || {
            m2.lock(TxnId(2), T, LockMode::Shared).unwrap();
            b2.store(false, Ordering::SeqCst);
        });
        thread::sleep(Duration::from_millis(30));
        assert!(blocked.load(Ordering::SeqCst));
        m.release(TxnId(1), T);
        h.join().unwrap();
        assert!(!blocked.load(Ordering::SeqCst));
    }

    #[test]
    fn reentrant_and_covering() {
        let m = mgr();
        m.lock(TxnId(1), T, LockMode::Exclusive).unwrap();
        // X covers S; repeat requests are free.
        assert_eq!(
            m.lock(TxnId(1), T, LockMode::Shared).unwrap(),
            Duration::ZERO
        );
        assert_eq!(
            m.lock(TxnId(1), T, LockMode::Exclusive).unwrap(),
            Duration::ZERO
        );
    }

    #[test]
    fn upgrade_when_sole_holder() {
        let m = mgr();
        m.lock(TxnId(1), T, LockMode::Shared).unwrap();
        m.lock(TxnId(1), T, LockMode::Exclusive).unwrap();
        assert!(m.holds(TxnId(1), T, LockMode::Exclusive));
    }

    #[test]
    fn upgrade_waits_for_other_readers() {
        let m = mgr();
        m.lock(TxnId(1), T, LockMode::Shared).unwrap();
        m.lock(TxnId(2), T, LockMode::Shared).unwrap();
        let m2 = m.clone();
        let h = thread::spawn(move || m2.lock(TxnId(1), T, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));
        m.release(TxnId(2), T);
        assert!(h.join().unwrap().is_ok());
        assert!(m.holds(TxnId(1), T, LockMode::Exclusive));
    }

    #[test]
    fn timeout_resolves_deadlock() {
        let m = mgr();
        let a = TableId(10);
        let b = TableId(11);
        m.lock(TxnId(1), a, LockMode::Exclusive).unwrap();
        m.lock(TxnId(2), b, LockMode::Exclusive).unwrap();
        let m2 = m.clone();
        let h = thread::spawn(move || m2.lock(TxnId(2), a, LockMode::Exclusive));
        let r1 = m.lock(TxnId(1), b, LockMode::Exclusive);
        let r2 = h.join().unwrap();
        assert!(
            r1.is_err() || r2.is_err(),
            "at least one side of the deadlock must time out"
        );
        let (_, _, _, timeouts) = m.stats().snapshot();
        assert!(timeouts >= 1);
    }

    #[test]
    fn fifo_prevents_writer_starvation() {
        let m = mgr();
        m.lock(TxnId(1), T, LockMode::Shared).unwrap();
        // Writer queues…
        let mw = m.clone();
        let writer = thread::spawn(move || mw.lock(TxnId(2), T, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));
        // …then a new reader must queue *behind* the writer.
        let mr = m.clone();
        let got_read = Arc::new(AtomicBool::new(false));
        let g2 = got_read.clone();
        let reader = thread::spawn(move || {
            mr.lock(TxnId(3), T, LockMode::Shared).unwrap();
            g2.store(true, Ordering::SeqCst);
        });
        thread::sleep(Duration::from_millis(30));
        assert!(
            !got_read.load(Ordering::SeqCst),
            "reader must wait behind queued writer"
        );
        m.release(TxnId(1), T);
        writer.join().unwrap().unwrap();
        m.release(TxnId(2), T);
        reader.join().unwrap();
        assert!(got_read.load(Ordering::SeqCst));
    }

    #[test]
    fn stats_track_waiting() {
        let m = mgr();
        m.lock(TxnId(1), T, LockMode::Exclusive).unwrap();
        let m2 = m.clone();
        let h = thread::spawn(move || m2.lock(TxnId(2), T, LockMode::Shared));
        thread::sleep(Duration::from_millis(50));
        m.release(TxnId(1), T);
        let waited = h.join().unwrap().unwrap();
        assert!(waited >= Duration::from_millis(30));
        let (nanos, waits, acqs, _) = m.stats().snapshot();
        assert!(nanos > 0);
        assert_eq!(waits, 1);
        assert!(acqs >= 2);
        // The wait landed in the table-granularity histogram, in a bucket
        // at or above ~32 ms (2^15 µs).
        let full = m.stats().snapshot_full();
        assert_eq!(full.table.waits, 1);
        assert_eq!(full.stripe.waits, 0);
        assert_eq!(full.table.wait_hist_us.iter().sum::<u64>(), 1);
        assert!(full.table.mean_wait() >= Duration::from_millis(30));
    }

    // ---- hierarchy / stripe tests ---------------------------------------

    #[test]
    fn mode_lattice_and_matrix() {
        use LockMode::*;
        // Compatibility matrix spot checks.
        assert!(IntentShared.compatible_with(IntentExclusive));
        assert!(IntentShared.compatible_with(SharedIntentExclusive));
        assert!(!IntentShared.compatible_with(Exclusive));
        assert!(IntentExclusive.compatible_with(IntentExclusive));
        assert!(!IntentExclusive.compatible_with(Shared));
        assert!(!SharedIntentExclusive.compatible_with(SharedIntentExclusive));
        assert!(!Exclusive.compatible_with(Shared));
        // Supremum lattice.
        assert_eq!(Shared.sup(IntentExclusive), SharedIntentExclusive);
        assert_eq!(IntentShared.sup(IntentExclusive), IntentExclusive);
        assert_eq!(SharedIntentExclusive.sup(Shared), SharedIntentExclusive);
        assert_eq!(Shared.sup(Exclusive), Exclusive);
        // Covering.
        assert!(Exclusive.covers(SharedIntentExclusive));
        assert!(SharedIntentExclusive.covers(Shared));
        assert!(SharedIntentExclusive.covers(IntentExclusive));
        assert!(Shared.covers(IntentShared));
        assert!(!Shared.covers(IntentExclusive));
        assert!(!IntentExclusive.covers(Shared));
    }

    #[test]
    fn stripe_hash_is_stable_and_in_range() {
        let v = Value::Int(42);
        let a = stripe_of(0, &v, 64);
        assert_eq!(a, stripe_of(0, &v, 64));
        assert!(a < 64);
        // Different columns map the same value independently.
        let b = stripe_of(1, &v, 64);
        assert!(b < 64);
        assert_eq!(stripe_of(7, &Value::Null, 1), 0);
    }

    #[test]
    fn stripes_for_sorts_and_dedups() {
        let keys = [Value::Int(1), Value::Int(2), Value::Int(1), Value::Int(3)];
        let got = stripes_for(0, &keys, 64);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        let mut want: Vec<u32> = keys.iter().map(|k| stripe_of(0, k, 64)).collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(got, want);
    }

    #[test]
    fn lock_key_order_puts_table_before_stripes() {
        let t = LockKey::table(T);
        let s0 = LockKey::stripe(T, 0);
        let s9 = LockKey::stripe(T, 9);
        let u = LockKey::table(TableId(2));
        let mut keys = vec![u, s9, t, s0];
        keys.sort();
        assert_eq!(keys, vec![t, s0, s9, u]);
    }

    #[test]
    fn disjoint_stripes_do_not_conflict() {
        let m = mgr();
        // Writer: IX on the table + X on stripe 3.
        m.lock(TxnId(1), T, LockMode::IntentExclusive).unwrap();
        m.lock_key(TxnId(1), LockKey::stripe(T, 3), LockMode::Exclusive)
            .unwrap();
        // Reader: IS + S on a different stripe — no blocking.
        assert_eq!(
            m.lock(TxnId(2), T, LockMode::IntentShared).unwrap(),
            Duration::ZERO
        );
        assert_eq!(
            m.lock_key(TxnId(2), LockKey::stripe(T, 5), LockMode::Shared)
                .unwrap(),
            Duration::ZERO
        );
        // Same stripe conflicts.
        let m2 = m.clone();
        let h =
            thread::spawn(move || m2.lock_key(TxnId(2), LockKey::stripe(T, 3), LockMode::Shared));
        thread::sleep(Duration::from_millis(30));
        m.release_key(TxnId(1), LockKey::stripe(T, 3));
        assert!(h.join().unwrap().unwrap() >= Duration::from_millis(20));
    }

    #[test]
    fn table_shared_blocks_intent_exclusive() {
        let m = mgr();
        // Full scan: table S. A key-granular writer's IX must wait — the
        // table lock covers every stripe.
        m.lock(TxnId(1), T, LockMode::Shared).unwrap();
        let m2 = m.clone();
        let h = thread::spawn(move || m2.lock(TxnId(2), T, LockMode::IntentExclusive));
        thread::sleep(Duration::from_millis(30));
        m.release(TxnId(1), T);
        assert!(h.join().unwrap().unwrap() >= Duration::from_millis(20));
    }

    #[test]
    fn stripe_upgrade_when_sole_holder_and_waits_otherwise() {
        let m = mgr();
        let k = LockKey::stripe(T, 7);
        m.lock_key(TxnId(1), k, LockMode::Shared).unwrap();
        // Sole holder: immediate upgrade.
        m.lock_key(TxnId(1), k, LockMode::Exclusive).unwrap();
        assert!(m.holds_key(TxnId(1), k, LockMode::Exclusive));
        m.release_key(TxnId(1), k);
        // With a second reader the upgrade must wait for its release.
        m.lock_key(TxnId(1), k, LockMode::Shared).unwrap();
        m.lock_key(TxnId(2), k, LockMode::Shared).unwrap();
        let m2 = m.clone();
        let h = thread::spawn(move || m2.lock_key(TxnId(1), k, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));
        assert!(!m.holds_key(TxnId(1), k, LockMode::Exclusive));
        m.release_key(TxnId(2), k);
        assert!(h.join().unwrap().is_ok());
        assert!(m.holds_key(TxnId(1), k, LockMode::Exclusive));
    }

    #[test]
    fn stripe_timeout_resolves_deadlock() {
        let m = mgr();
        let a = LockKey::stripe(T, 1);
        let b = LockKey::stripe(T, 2);
        m.lock_key(TxnId(1), a, LockMode::Exclusive).unwrap();
        m.lock_key(TxnId(2), b, LockMode::Exclusive).unwrap();
        let m2 = m.clone();
        let h = thread::spawn(move || m2.lock_key(TxnId(2), a, LockMode::Exclusive));
        let r1 = m.lock_key(TxnId(1), b, LockMode::Exclusive);
        let r2 = h.join().unwrap();
        assert!(
            r1.is_err() || r2.is_err(),
            "at least one side of the stripe deadlock must time out"
        );
        let full = m.stats().snapshot_full();
        assert!(full.stripe.timeouts >= 1);
        assert_eq!(full.table.timeouts, 0);
    }

    #[test]
    fn stripe_fifo_prevents_writer_starvation() {
        let m = mgr();
        let k = LockKey::stripe(T, 4);
        m.lock_key(TxnId(1), k, LockMode::Shared).unwrap();
        let mw = m.clone();
        let writer = thread::spawn(move || mw.lock_key(TxnId(2), k, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));
        let mr = m.clone();
        let got_read = Arc::new(AtomicBool::new(false));
        let g2 = got_read.clone();
        let reader = thread::spawn(move || {
            mr.lock_key(TxnId(3), k, LockMode::Shared).unwrap();
            g2.store(true, Ordering::SeqCst);
        });
        thread::sleep(Duration::from_millis(30));
        assert!(
            !got_read.load(Ordering::SeqCst),
            "stripe reader must wait behind the queued stripe writer"
        );
        m.release_key(TxnId(1), k);
        writer.join().unwrap().unwrap();
        m.release_key(TxnId(2), k);
        reader.join().unwrap();
        assert!(got_read.load(Ordering::SeqCst));
    }

    #[test]
    fn intent_holders_coexist_and_upgrade() {
        let m = mgr();
        m.lock(TxnId(1), T, LockMode::IntentShared).unwrap();
        m.lock(TxnId(2), T, LockMode::IntentExclusive).unwrap();
        m.lock(TxnId(3), T, LockMode::IntentShared).unwrap();
        // IS + IX coexist at the table; IS upgrades to IX past other IX.
        m.lock(TxnId(1), T, LockMode::IntentExclusive).unwrap();
        assert!(m.holds(TxnId(1), T, LockMode::IntentExclusive));
        // S + IX on the same txn combine to SIX, which excludes new IS+?
        // holders' stronger modes but admits plain IS.
        m.release(TxnId(2), T);
        m.release(TxnId(3), T);
        m.lock(TxnId(1), T, LockMode::Shared).unwrap();
        assert!(m.holds(TxnId(1), T, LockMode::SharedIntentExclusive));
        assert_eq!(
            m.lock(TxnId(4), T, LockMode::IntentShared).unwrap(),
            Duration::ZERO
        );
        let m2 = m.clone();
        let h = thread::spawn(move || m2.lock(TxnId(5), T, LockMode::IntentExclusive));
        thread::sleep(Duration::from_millis(30));
        m.release(TxnId(1), T);
        assert!(h.join().unwrap().is_ok());
    }

    #[test]
    fn granularity_knob_defaults_and_stripes() {
        assert_eq!(LockGranularity::default(), LockGranularity::Table);
        assert_eq!(LockGranularity::striped(), LockGranularity::Striped(64));
        assert_eq!(LockGranularity::Table.stripes(), None);
        assert_eq!(LockGranularity::Striped(8).stripes(), Some(8));
        assert_eq!(LockGranularity::Striped(0).stripes(), Some(1));
        assert_eq!(format!("{}", LockGranularity::Striped(64)), "striped(64)");
    }
}
