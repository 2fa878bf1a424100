//! Strict two-phase locking at table granularity.
//!
//! The paper assumes "the transaction history is serializable, and the
//! order of transaction commits is consistent with the serialization order
//! … the case, for example, in any system that used strict two-phase
//! locking" (§2). This manager implements exactly that with one lock per
//! table in two modes, `S` and `X`: readers of a table share it, a writer
//! excludes everyone else. Contention between updaters and propagation is
//! controlled by the size of each propagation transaction (§3.3), not by
//! lock footprint.
//!
//! Fairness is FIFO with batched grants per table (consecutive compatible
//! waiters are granted together), an `S → X` upgrade goes to the front of
//! the queue, and deadlocks involving updaters are resolved by timeout: a
//! waiter that cannot be granted within the deadline receives
//! [`Error::LockTimeout`] and its transaction is expected to abort and
//! retry. Maintenance transactions acquire in `TableId` order and so stay
//! deadlock-free among themselves.

use parking_lot::{Condvar, Mutex, RwLock};
use rolljoin_common::hash::Map;
use rolljoin_common::{Error, Result, TableId, TxnId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requested/held lock strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    Shared,
    Exclusive,
}

impl LockMode {
    /// Only two shared locks are compatible.
    pub fn compatible_with(self, other: LockMode) -> bool {
        self == LockMode::Shared && other == LockMode::Shared
    }

    /// The stronger of the two modes. A holder of `a` requesting `b` must
    /// end up holding `a.sup(b)`.
    pub fn sup(self, other: LockMode) -> LockMode {
        if self == LockMode::Exclusive || other == LockMode::Exclusive {
            LockMode::Exclusive
        } else {
            LockMode::Shared
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
            LockMode::Shared => "S",
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
    /// a sole S-holder upgrades to X immediately.
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

/// Lock counters.
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

/// Aggregate lock statistics.
#[derive(Default)]
pub struct LockStats {
    /// Table locks.
    pub table: GranStats,
}

impl LockStats {
    /// Snapshot with the wait-time histogram.
    pub fn snapshot_full(&self) -> LockStatsSnapshot {
        LockStatsSnapshot {
            table: self.table.snapshot(),
            stripe: GranStatsSnapshot::default(),
        }
    }
}

/// Point-in-time copy of [`LockStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStatsSnapshot {
    pub table: GranStatsSnapshot,
    /// Always zero: kept only because the live benchmark still reads it.
    pub stripe: GranStatsSnapshot,
}

impl LockStatsSnapshot {
    /// Difference of two snapshots (self − earlier).
    pub fn since(&self, earlier: &LockStatsSnapshot) -> LockStatsSnapshot {
        LockStatsSnapshot {
            table: self.table.since(&earlier.table),
            stripe: GranStatsSnapshot::default(),
        }
    }
}

/// The lock manager: one FIFO queue per table.
pub struct LockManager {
    entries: RwLock<Map<TableId, Arc<LockEntry>>>,
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

    fn entry(&self, table: TableId) -> Arc<LockEntry> {
        if let Some(e) = self.entries.read().get(&table) {
            return e.clone();
        }
        self.entries
            .write()
            .entry(table)
            .or_insert_with(|| {
                Arc::new(LockEntry {
                    state: Mutex::new(LockState::default()),
                    cond: Condvar::new(),
                })
            })
            .clone()
    }

    /// Acquire `mode` on `table`, blocking up to the timeout. Returns the
    /// time spent blocked.
    pub fn lock(&self, txn: TxnId, table: TableId, mode: LockMode) -> Result<Duration> {
        let entry = self.entry(table);
        let gran = &self.stats.table;
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
                return Err(Error::LockTimeout { txn, table });
            }
        }
    }

    /// Release `txn`'s lock on `table` (no-op if not held).
    pub fn release(&self, txn: TxnId, table: TableId) {
        let entry = self.entry(table);
        let mut state = entry.state.lock();
        // Waiters wait to be granted, so wake them only when this
        // release granted one.
        if state.granted.remove(&txn).is_some() && state.pump() {
            entry.cond.notify_all();
        }
    }

    /// Does `txn` hold at least `mode` on `table`?
    pub fn holds(&self, txn: TxnId, table: TableId, mode: LockMode) -> bool {
        let entry = self.entry(table);
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
        assert!(m.stats().snapshot_full().table.timeouts >= 1);
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
        let s = m.stats().snapshot_full().table;
        assert!(s.wait_nanos > 0);
        assert_eq!(s.waits, 1);
        assert!(s.acquisitions >= 2);
        // The wait landed in the wait-time histogram.
        assert_eq!(s.wait_hist_us.iter().sum::<u64>(), 1);
        assert!(s.mean_wait() >= Duration::from_millis(30));
    }

    #[test]
    fn mode_lattice_and_matrix() {
        use LockMode::*;
        assert!(Shared.compatible_with(Shared));
        assert!(!Shared.compatible_with(Exclusive));
        assert!(!Exclusive.compatible_with(Shared));
        assert!(!Exclusive.compatible_with(Exclusive));
        assert_eq!(Shared.sup(Exclusive), Exclusive);
        assert_eq!(Shared.sup(Shared), Shared);
        assert!(Exclusive.covers(Shared));
        assert!(!Shared.covers(Exclusive));
    }
}
