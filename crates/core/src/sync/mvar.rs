//! `MVar` — Concurrent Haskell's one-place synchronized buffer, implemented
//! as a scheduler extension exactly as the paper suggests for "other
//! synchronization primitives such as MVars" (§4.7).
//!
//! An `MVar` is the one bounded buffer under every channel
//! (`sync::buffer`) with room for one item. Event-native:
//! [`MVar::take_evt`] / [`MVar::put_evt`] / [`MVar::read_evt`] compose
//! under [`choose`](crate::event::choose), and the blocking methods are
//! `sync(..._evt())`. Wakeups are Concurrent Haskell's single wakeup: a
//! put wakes one parked taker and a take wakes one parked putter, in FIFO
//! order; a read leaves the value and passes the wake on, so every parked
//! reader returns after one put.

use std::fmt;

use super::buffer::Buffer;
use crate::check::ResKind;
use crate::event::{sync, Event};
use crate::thread::ThreadM;

/// A one-place buffer: `take` blocks while empty, `put` blocks while full.
///
/// # Examples
///
/// ```
/// use eveth_core::{do_m, runtime::Runtime, sync::MVar, syscall::*, ThreadM};
///
/// let rt = Runtime::builder().workers(2).build();
/// let mv = MVar::new_empty();
/// let producer = mv.clone();
/// let got = rt.block_on(do_m! {
///     sys_fork(producer.put(99));
///     let v <- mv.take();
///     ThreadM::pure(v)
/// });
/// assert_eq!(got, 99);
/// rt.shutdown();
/// ```
pub struct MVar<T> {
    buf: Buffer<T>,
}

impl<T> Clone for MVar<T> {
    fn clone(&self) -> Self {
        MVar {
            buf: self.buf.clone(),
        }
    }
}

impl<T: Send + 'static> MVar<T> {
    /// Creates an empty MVar.
    pub fn new_empty() -> Self {
        MVar {
            buf: Buffer::new(1, ResKind::MVar, None),
        }
    }

    /// Creates a full MVar holding `v`.
    pub fn new(v: T) -> Self {
        MVar {
            buf: Buffer::new(1, ResKind::MVar, Some(v)),
        }
    }

    /// Non-blocking take (mainly for tests).
    pub fn try_take(&self) -> Option<T> {
        self.buf.try_take()
    }

    /// Non-blocking put; returns `Err(v)` if full.
    pub fn try_put(&self, v: T) -> Result<(), T> {
        self.buf.try_put(v)
    }

    /// True if the MVar currently holds a value.
    pub fn is_full(&self) -> bool {
        self.buf.len() == 1
    }

    /// Live registrations parked on this MVar, as `(takers, putters)` (for
    /// tests asserting loser cancellation leaves nothing behind).
    pub fn waiter_counts(&self) -> (usize, usize) {
        self.buf.waiter_counts()
    }

    /// The take event: ready while the MVar is full; commits by emptying
    /// it and waking one blocked putter.
    pub fn take_evt(&self) -> Event<T> {
        self.buf.take_evt()
    }

    /// The put event: ready while the MVar is empty; commits by filling it
    /// with `v` and waking one blocked taker.
    pub fn put_evt(&self, v: T) -> Event<()> {
        self.buf.put_evt(v)
    }

    /// Takes the value, parking the monadic thread while empty —
    /// `sync(self.take_evt())`.
    pub fn take(&self) -> ThreadM<T> {
        sync(self.take_evt())
    }

    /// Puts a value, parking the monadic thread while full —
    /// `sync(self.put_evt(v))`.
    pub fn put(&self, v: T) -> ThreadM<()> {
        sync(self.put_evt(v))
    }
}

impl<T: Clone + Send + 'static> MVar<T> {
    /// The read event: ready while the MVar is full; commits by cloning
    /// the value without removing it, and passes the wake on to the next
    /// parked taker or reader.
    pub fn read_evt(&self) -> Event<T> {
        self.buf.read_evt()
    }

    /// Reads the value without removing it, parking while empty —
    /// `sync(self.read_evt())`.
    pub fn read(&self) -> ThreadM<T> {
        sync(self.read_evt())
    }
}

impl<T> fmt::Debug for MVar<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.buf.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use crate::sync::Chan;
    use crate::syscall::sys_fork;

    #[test]
    fn try_take_and_put() {
        let mv = MVar::new(1);
        assert!(mv.is_full());
        assert_eq!(mv.try_take(), Some(1));
        assert_eq!(mv.try_take(), None);
        assert!(mv.try_put(2).is_ok());
        assert_eq!(mv.try_put(3).unwrap_err(), 3);
    }

    #[test]
    fn take_blocks_until_put() {
        let rt = Runtime::builder().workers(2).build();
        let mv: MVar<u32> = MVar::new_empty();
        let putter = mv.clone();
        let got = rt.block_on(crate::do_m! {
            sys_fork(crate::do_m! {
                crate::syscall::sys_sleep(10 * crate::time::MILLIS);
                putter.put(5)
            });
            mv.take()
        });
        assert_eq!(got, 5);
        rt.shutdown();
    }

    #[test]
    fn producer_consumer_preserves_all_items() {
        let rt = Runtime::builder().workers(4).build();
        let mv: MVar<u64> = MVar::new_empty();
        const N: u64 = 500;
        let producer = mv.clone();
        rt.spawn(crate::for_each_m(0..N, move |i| producer.put(i)));
        let sum = rt.block_on(crate::loop_m((0u64, 0u64), move |(count, sum)| {
            if count == N {
                return crate::ThreadM::pure(crate::Loop::Break(sum));
            }
            mv.take()
                .map(move |v| crate::Loop::Continue((count + 1, sum + v)))
        }));
        assert_eq!(sum, N * (N - 1) / 2);
        rt.shutdown();
    }

    #[test]
    fn read_does_not_consume() {
        let rt = Runtime::builder().workers(1).build();
        let mv = MVar::new(7u8);
        let taker = mv.clone();
        let (a, b) = rt.block_on(crate::do_m! {
            let a <- mv.read();
            let b <- taker.take();
            crate::ThreadM::pure((a, b))
        });
        assert_eq!((a, b), (7, 7));
        assert!(!mv.is_full());
        rt.shutdown();
    }

    #[test]
    fn debug_reports_occupancy() {
        let mv = MVar::new(1);
        assert!(format!("{mv:?}").contains("full=true"));
    }

    /// Polls `cond` from the host thread until it holds (or fails after 5 s).
    fn wait_for(cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "condition never held");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn a_put_wakes_one_parked_taker() {
        let rt = Runtime::builder().workers(1).build();
        let mv: MVar<u8> = MVar::new_empty();
        let got = Chan::new();
        for _ in 0..2 {
            let (mv, got) = (mv.clone(), got.clone());
            rt.spawn(mv.take().bind(move |v| got.write(v)));
        }
        wait_for(|| mv.waiter_counts() == (2, 0));
        let before = rt.stats().wakes;
        mv.try_put(1).unwrap();
        wait_for(|| got.len() == 1 && mv.waiter_counts() == (1, 0));
        assert_eq!(rt.stats().wakes - before, 1, "one put, one wake");
        mv.try_put(2).unwrap();
        wait_for(|| got.len() == 2);
        rt.shutdown();
    }

    #[test]
    fn a_put_releases_every_parked_reader_and_keeps_the_value() {
        let rt = Runtime::builder().workers(1).build();
        let mv: MVar<u8> = MVar::new_empty();
        let got = Chan::new();
        for _ in 0..3 {
            let (mv, got) = (mv.clone(), got.clone());
            rt.spawn(mv.read().bind(move |v| got.write(v)));
        }
        wait_for(|| mv.waiter_counts() == (3, 0));
        mv.try_put(7).unwrap();
        wait_for(|| got.len() == 3);
        assert_eq!(
            std::iter::from_fn(|| got.try_read_now()).collect::<Vec<_>>(),
            [7, 7, 7]
        );
        assert!(mv.is_full());
        assert_eq!(mv.waiter_counts(), (0, 0));
        rt.shutdown();
    }
}
