//! FIFO channels between monadic threads.
//!
//! [`Chan`] is the unbounded channel of Concurrent Haskell (the paper's task
//! queues between event loops are exactly this shape); [`SyncChan`] adds a
//! capacity bound with back-pressure on writers. Both are views of the one
//! bounded buffer under every channel (`sync::buffer`): a `Chan` is that
//! buffer with no bound, a `SyncChan` is it with `cap`.
//!
//! Both are *event-native*: the primitive operations are events
//! ([`Chan::read_evt`], [`SyncChan::write_evt`], …) that compose under
//! [`choose`](crate::event::choose), and the blocking methods are defined
//! as `sync(..._evt())` — the thread view and the event view of the same
//! synchronization. A losing `choose` branch withdraws its registration,
//! and a wakeup consumed by a thread that committed elsewhere is passed on
//! to the next waiter.

use std::fmt;

use super::buffer::{Buffer, UNBOUNDED};
use crate::check::ResKind;
use crate::event::{sync, Event};
use crate::thread::ThreadM;

/// An unbounded multi-producer multi-consumer FIFO channel; `read` blocks
/// the monadic thread while empty, `write` never blocks.
///
/// # Examples
///
/// ```
/// use eveth_core::{do_m, runtime::Runtime, sync::Chan, syscall::*, ThreadM};
///
/// let rt = Runtime::builder().workers(2).build();
/// let ch = Chan::new();
/// let tx = ch.clone();
/// let v = rt.block_on(do_m! {
///     sys_fork(tx.write("ping"));
///     ch.read()
/// });
/// assert_eq!(v, "ping");
/// rt.shutdown();
/// ```
pub struct Chan<T> {
    buf: Buffer<T>,
}

impl<T> Clone for Chan<T> {
    fn clone(&self) -> Self {
        Chan {
            buf: self.buf.clone(),
        }
    }
}

impl<T: Send + 'static> Chan<T> {
    /// Creates an empty channel.
    pub fn new() -> Self {
        Chan {
            buf: Buffer::new(UNBOUNDED, ResKind::Chan, None),
        }
    }

    /// Enqueues an item without blocking (callable from any context,
    /// including device drivers and plain OS threads).
    pub fn push_now(&self, v: T) {
        // An unbounded buffer always has room.
        let _ = self.buf.try_put(v);
    }

    /// Dequeues without blocking, if an item is available.
    pub fn try_read_now(&self) -> Option<T> {
        self.buf.try_take()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.buf.len() == 0
    }

    /// Live read registrations currently parked on this channel (for tests
    /// asserting that losing `choose` branches deregister).
    pub fn taker_count(&self) -> usize {
        self.buf.waiter_counts().0
    }

    /// The receive event: ready when an item can be dequeued; commits by
    /// dequeuing it.
    pub fn read_evt(&self) -> Event<T> {
        self.buf.take_evt()
    }

    /// The send event: always ready (the channel is unbounded); commits by
    /// enqueuing `v` and waking one reader.
    pub fn write_evt(&self, v: T) -> Event<()> {
        self.buf.push_evt(v)
    }

    /// Monadic read: parks while the channel is empty —
    /// `sync(self.read_evt())`.
    pub fn read(&self) -> ThreadM<T> {
        sync(self.read_evt())
    }

    /// Monadic write: enqueue and wake one reader —
    /// `sync(self.write_evt(v))`.
    pub fn write(&self, v: T) -> ThreadM<()> {
        sync(self.write_evt(v))
    }
}

impl<T: Send + 'static> Default for Chan<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for Chan<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.buf.fmt(f)
    }
}

/// A bounded FIFO channel: `write` parks while full, providing
/// back-pressure; `read` parks while empty.
pub struct SyncChan<T> {
    buf: Buffer<T>,
}

impl<T> Clone for SyncChan<T> {
    fn clone(&self) -> Self {
        SyncChan {
            buf: self.buf.clone(),
        }
    }
}

impl<T: Send + 'static> SyncChan<T> {
    /// Creates a channel holding at most `cap` items.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero (rendezvous channels are not supported).
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "SyncChan capacity must be non-zero");
        SyncChan {
            buf: Buffer::new(cap, ResKind::SyncChan, None),
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.buf.len() == 0
    }

    /// Live read/write registrations parked on this channel, as
    /// `(takers, putters)` (for tests asserting loser cancellation).
    pub fn waiter_counts(&self) -> (usize, usize) {
        self.buf.waiter_counts()
    }

    /// The send event: ready while the channel has a free slot; commits by
    /// enqueuing `v` and waking one reader.
    pub fn write_evt(&self, v: T) -> Event<()> {
        self.buf.put_evt(v)
    }

    /// The receive event: ready when an item can be dequeued; commits by
    /// dequeuing it and waking one writer.
    pub fn read_evt(&self) -> Event<T> {
        self.buf.take_evt()
    }

    /// Monadic write: parks while the channel is full —
    /// `sync(self.write_evt(v))`.
    pub fn write(&self, v: T) -> ThreadM<()> {
        sync(self.write_evt(v))
    }

    /// Monadic read: parks while the channel is empty —
    /// `sync(self.read_evt())`.
    pub fn read(&self) -> ThreadM<T> {
        sync(self.read_evt())
    }
}

impl<T> fmt::Debug for SyncChan<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.buf.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use crate::syscall::sys_fork;

    #[test]
    fn chan_fifo_order() {
        let rt = Runtime::builder().workers(1).build();
        let ch = Chan::new();
        let tx = ch.clone();
        let got = rt.block_on(crate::do_m! {
            tx.write(1);
            tx.write(2);
            tx.write(3);
            let a <- ch.read();
            let b <- ch.read();
            let c <- ch.read();
            crate::ThreadM::pure(vec![a, b, c])
        });
        assert_eq!(got, vec![1, 2, 3]);
        rt.shutdown();
    }

    #[test]
    fn chan_read_blocks_until_write() {
        let rt = Runtime::builder().workers(2).build();
        let ch: Chan<&str> = Chan::new();
        let tx = ch.clone();
        let got = rt.block_on(crate::do_m! {
            sys_fork(crate::do_m! {
                crate::syscall::sys_sleep(5 * crate::time::MILLIS);
                tx.write("late")
            });
            ch.read()
        });
        assert_eq!(got, "late");
        rt.shutdown();
    }

    #[test]
    fn chan_push_now_from_os_thread() {
        let rt = Runtime::builder().workers(1).build();
        let ch: Chan<u8> = Chan::new();
        let tx = ch.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            tx.push_now(42);
        });
        assert_eq!(rt.block_on(ch.read()), 42);
        h.join().unwrap();
        rt.shutdown();
    }

    #[test]
    fn sync_chan_backpressure() {
        let rt = Runtime::builder().workers(2).build();
        let ch: SyncChan<u32> = SyncChan::new(2);
        // Producer of 100 items through a 2-slot channel.
        let tx = ch.clone();
        rt.spawn(crate::for_each_m(0..100u32, move |i| tx.write(i)));
        let sum = rt.block_on(crate::loop_m((0u32, 0u64), move |(n, sum)| {
            if n == 100 {
                return crate::ThreadM::pure(crate::Loop::Break(sum));
            }
            ch.read()
                .map(move |v| crate::Loop::Continue((n + 1, sum + v as u64)))
        }));
        assert_eq!(sum, 99 * 100 / 2);
        rt.shutdown();
    }

    #[test]
    fn mpmc_all_items_delivered_once() {
        let rt = Runtime::builder().workers(4).build();
        let ch: Chan<u64> = Chan::new();
        let out: Chan<u64> = Chan::new();
        const ITEMS: u64 = 400;
        for p in 0..4u64 {
            let tx = ch.clone();
            rt.spawn(crate::for_each_m(0..ITEMS / 4, move |i| {
                tx.write(p * (ITEMS / 4) + i)
            }));
        }
        for _ in 0..4 {
            let rx = ch.clone();
            let out = out.clone();
            rt.spawn(crate::forever_m(move || {
                let out = out.clone();
                rx.read().bind(move |v| out.write(v))
            }));
        }
        let total = rt.block_on(crate::loop_m((0u64, 0u64), move |(n, sum)| {
            if n == ITEMS {
                return crate::ThreadM::pure(crate::Loop::Break(sum));
            }
            out.read()
                .map(move |v| crate::Loop::Continue((n + 1, sum + v)))
        }));
        assert_eq!(total, ITEMS * (ITEMS - 1) / 2);
        rt.shutdown();
    }

    #[test]
    fn debug_nonempty() {
        let ch: Chan<u8> = Chan::new();
        assert!(format!("{ch:?}").contains("Chan"));
        let sc: SyncChan<u8> = SyncChan::new(1);
        assert!(format!("{sc:?}").contains("SyncChan"));
    }
}
