//! The queue an OS thread of the real runtime sleeps on.
//!
//! The paper ships one shared ready queue between its `worker_main` loops
//! (§4.4, Figure 14). [`WorkQueue`] is that queue, and also the
//! blocking-I/O pool's job queue and the event loop's inbox: an unbounded
//! FIFO whose `push` signals the condition variable only when a popper is
//! actually asleep, so a push from a running worker to busy workers costs
//! a lock and no syscall.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// Both counters are read and written only under the lock.
struct State<T> {
    items: VecDeque<T>,
    /// Poppers inside `cv.wait_for`: each counts itself before it releases
    /// the lock to wait and uncounts itself once it holds the lock again,
    /// so a push that finds no sleeper cannot have missed one.
    sleepers: usize,
    /// Signals sent that no woken popper has uncounted yet. Every popper
    /// that wakes (signal, timeout or spurious) takes one off, so this
    /// never exceeds the poppers that are awake but still counted in
    /// `sleepers`; `sleepers > signalled` therefore holds whenever a
    /// popper is still blocked, and a push that skips the signal because
    /// `sleepers <= signalled` leaves nobody asleep beside its item.
    signalled: usize,
}

/// An unbounded multi-producer multi-consumer FIFO with a blocking,
/// timed `pop`.
pub struct WorkQueue<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
}

impl<T> WorkQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        WorkQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                sleepers: 0,
                signalled: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Appends `item`, waking one sleeping popper if one is still asleep
    /// and unsignalled.
    pub fn push(&self, item: T) {
        let wake = {
            let mut state = self.state.lock();
            state.items.push_back(item);
            let wake = state.sleepers > state.signalled;
            state.signalled += usize::from(wake);
            wake
        };
        if wake {
            self.cv.notify_one();
        }
    }

    /// Removes the oldest item, sleeping up to `timeout` for one to
    /// arrive. Returns `None` on timeout (callers re-check shutdown).
    pub fn pop(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            state.sleepers += 1;
            self.cv.wait_for(&mut state, left);
            state.sleepers -= 1;
            state.signalled = state.signalled.saturating_sub(1);
        }
    }
}

impl<T> Default for WorkQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for WorkQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        write!(
            f,
            "WorkQueue(len={}, asleep={})",
            state.items.len(),
            state.sleepers - state.signalled
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU8, Ordering};

    const LONG: Duration = Duration::from_secs(30);

    /// Spins until `n` poppers are asleep on `q`.
    fn await_sleepers<T>(q: &WorkQueue<T>, n: usize) {
        while q.state.lock().sleepers < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn shared_queue_roundtrip() {
        let q = WorkQueue::new();
        for i in 0..100 {
            q.push(i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(LONG), Some(i));
        }
        assert_eq!(q.pop(Duration::from_millis(5)), None);
    }

    #[test]
    fn empty_pop_waits_out_its_timeout() {
        let q = WorkQueue::<u8>::new();
        let timeout = Duration::from_millis(20);
        let started = Instant::now();
        assert_eq!(q.pop(timeout), None);
        assert!(started.elapsed() >= timeout, "{:?}", started.elapsed());
        assert_eq!(q.state.lock().sleepers, 0);
    }

    #[test]
    fn push_wakes_a_sleeping_popper() {
        let q = WorkQueue::new();
        std::thread::scope(|s| {
            let popper = s.spawn(|| {
                let started = Instant::now();
                (q.pop(LONG), started.elapsed())
            });
            await_sleepers(&q, 1);
            q.push(7);
            let (got, waited) = popper.join().expect("popper panicked");
            assert_eq!(got, Some(7));
            assert!(waited < LONG / 2, "woken by timeout, not push: {waited:?}");
        });
    }

    #[test]
    fn unsignalled_push_is_seen_by_the_next_pop() {
        let q = WorkQueue::new();
        q.push(1);
        assert_eq!(q.state.lock().sleepers, 0);
        let started = Instant::now();
        assert_eq!(q.pop(LONG), Some(1));
        assert!(started.elapsed() < LONG / 2);
    }

    #[test]
    fn every_item_is_delivered_exactly_once() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: usize = 10_000;
        let q = WorkQueue::new();
        let seen: Vec<AtomicU8> = (0..PRODUCERS * PER_PRODUCER)
            .map(|_| AtomicU8::new(0))
            .collect();
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(Some(p * PER_PRODUCER + i));
                    }
                });
            }
            let consumers: Vec<_> = (0..CONSUMERS)
                .map(|_| {
                    s.spawn(|| {
                        while let Some(i) = q.pop(LONG).expect("starved") {
                            seen[i].fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            // Once every item has been seen, one end marker per consumer;
            // each consumer stops at the first it pops.
            while seen.iter().any(|n| n.load(Ordering::Relaxed) == 0) {
                std::thread::yield_now();
            }
            for _ in 0..CONSUMERS {
                q.push(None);
            }
            for c in consumers {
                c.join().expect("consumer panicked");
            }
        });
        assert!(seen.iter().all(|n| n.load(Ordering::Relaxed) == 1));
        assert_eq!(q.pop(Duration::ZERO), None);
    }

    #[test]
    fn ping_pong_loses_no_wakeup() {
        // Each side sleeps until the other pushes. A lost wakeup leaves the
        // item queued and its popper asleep for the whole timeout, so one
        // in 1 000 rounds is enough to fail the elapsed-time check.
        let (ping, pong) = (WorkQueue::new(), WorkQueue::new());
        let started = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..1_000 {
                    let n: u32 = ping.pop(LONG).expect("ping never arrived");
                    pong.push(n + 1);
                }
            });
            for round in 0..1_000 {
                ping.push(round);
                assert_eq!(pong.pop(LONG), Some(round + 1));
            }
        });
        assert!(started.elapsed() < LONG, "{:?}", started.elapsed());
    }
}
