//! Progress signals: the "usual producer/consumer synchronization" that
//! joins the paper's otherwise independent capture, propagate and apply
//! processes (§1, Fig. 11).
//!
//! A [`Signal`] is a sequence number plus a condition variable. A producer
//! calls [`Signal::notify`] when it has made progress a consumer may act
//! on (propagation advanced the view-delta HWM, a driver was resumed or
//! stopped). A consumer snapshots [`Signal::seq`] *before* checking for work
//! and, finding none, calls [`Signal::wait_past`] with that snapshot —
//! progress made between the check and the wait is never missed.

use parking_lot::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A progress sequence number that consumers can block on.
#[derive(Default)]
pub struct Signal {
    seq: Mutex<u64>,
    cv: Condvar,
}

impl Signal {
    /// A signal at sequence 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current sequence number.
    pub fn seq(&self) -> u64 {
        *self.seq.lock()
    }

    /// Announce progress: advance the sequence and wake every waiter.
    pub fn notify(&self) {
        *self.seq.lock() += 1;
        self.cv.notify_all();
    }

    /// Block until the sequence moves past `seen` or `max_wait` elapses,
    /// whichever is first. Returns the sequence at wake-up. A `max_wait`
    /// too long to be a deadline (such as `Duration::MAX`) waits for
    /// progress alone.
    pub fn wait_past(&self, seen: u64, max_wait: Duration) -> u64 {
        let deadline = Instant::now().checked_add(max_wait);
        let mut seq = self.seq.lock();
        while *seq == seen {
            match deadline {
                Some(d) => {
                    if self.cv.wait_until(&mut seq, d).timed_out() {
                        break;
                    }
                }
                None => self.cv.wait(&mut seq),
            }
        }
        *seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wait_times_out_without_progress() {
        let s = Signal::new();
        let t = Instant::now();
        assert_eq!(s.wait_past(0, Duration::from_millis(20)), 0);
        assert!(t.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn progress_before_the_wait_is_not_missed() {
        let s = Signal::new();
        let seen = s.seq();
        s.notify();
        let t = Instant::now();
        assert_eq!(s.wait_past(seen, Duration::from_secs(10)), 1);
        assert!(t.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn notify_wakes_a_blocked_waiter() {
        let s = Arc::new(Signal::new());
        let s2 = s.clone();
        let waiter = std::thread::spawn(move || {
            let t = Instant::now();
            s2.wait_past(0, Duration::from_secs(10));
            t.elapsed()
        });
        std::thread::sleep(Duration::from_millis(20));
        s.notify();
        assert!(waiter.join().unwrap() < Duration::from_secs(5));
    }
}
