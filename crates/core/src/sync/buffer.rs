//! The bounded FIFO that [`Chan`](super::Chan), [`SyncChan`](super::SyncChan)
//! and [`MVar`](super::MVar) are views of.
//!
//! One state struct behind one lock: the queued items, the bound, a
//! [`WaitTable`] per side under that lock (takers wait for an item,
//! putters for room) and the checker's resource id. Three commits change
//! it — *publish* (push and wake one taker), *consume* (pop and, if
//! bounded, wake one putter) and *peek* (clone the front item and pass the
//! wake on to the next taker) — and one function, [`Buffer::parked`],
//! states the §4.7 recipe once for both sides: poll with the commit under
//! the lock; on a miss, check and register under the same lock
//! ([`Pollable::register`]); withdraw a losing registration; and pass a
//! consumed wake on to the next waiter ([`Pollable::pass_on`]). Every wake
//! is wake-one, in FIFO order.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::check::{self, OpKind, ResKind};
use crate::engine::WaitKind;
use crate::event::{branch_waiter, Branch, Event, Registration};
use crate::reactor::{Interest, Pollable, WaitKey, WaitTable, Waiter};

/// The bound of an unbounded buffer: publish always finds room, and
/// consume never touches the putters' table.
pub(super) const UNBOUNDED: usize = usize::MAX;

/// A buffer's sides, as readiness: `Read` holds while an item is queued
/// (the takers' condition), `Write` while there is room (the putters').
struct State<T> {
    queue: VecDeque<T>,
    cap: usize,
    takers: WaitTable,
    putters: WaitTable,
    rid: u64,
    kind: ResKind,
}

impl<T> State<T> {
    /// Reports `op` with the availability snapshot `[items, room]`; an
    /// unbounded buffer reports no room side.
    fn op(&self, op: OpKind) {
        let len = self.queue.len();
        let room = if self.cap == UNBOUNDED {
            0
        } else {
            self.cap - len
        };
        check::op(self.rid, self.kind, op, [len as u64, room as u64]);
    }

    fn ready(&self, side: Interest) -> bool {
        match side {
            Interest::Read => !self.queue.is_empty(),
            Interest::Write => self.queue.len() < self.cap,
        }
    }

    fn waiters(&mut self, side: Interest) -> &mut WaitTable {
        match side {
            Interest::Read => &mut self.takers,
            Interest::Write => &mut self.putters,
        }
    }

    /// Wakes the oldest live waiter on `side`.
    fn wake(&mut self, side: Interest) {
        let _scope = check::wake_scope(self.rid);
        self.waiters(side).wake_one();
    }

    /// Queues the item in `slot` if there is room and wakes one taker.
    fn publish(&mut self, slot: &mut Option<T>) -> Option<()> {
        if !self.ready(Interest::Write) {
            return None;
        }
        self.queue.push_back(slot.take()?);
        self.op(OpKind::Publish);
        self.wake(Interest::Read);
        Some(())
    }

    /// Dequeues the front item and, if the buffer is bounded, wakes one
    /// putter.
    fn consume(&mut self) -> Option<T> {
        let v = self.queue.pop_front()?;
        self.op(OpKind::Consume);
        if self.cap != UNBOUNDED {
            self.wake(Interest::Write);
        }
        Some(v)
    }

    /// Clones the front item and passes the wake on: the item is still
    /// there for the next taker.
    fn peek(&mut self) -> Option<T>
    where
        T: Clone,
    {
        let v = self.queue.front()?.clone();
        self.op(OpKind::Baton);
        self.wake(Interest::Read);
        Some(v)
    }
}

impl<T: Send> Pollable for Mutex<State<T>> {
    fn register(&self, side: Interest, waiter: Waiter) -> Option<WaitKey> {
        let mut st = self.lock();
        if st.ready(side) {
            let rid = st.rid;
            drop(st);
            let _scope = check::wake_scope(rid);
            waiter.wake();
            return None;
        }
        st.op(match side {
            Interest::Read => OpKind::BlockTake,
            Interest::Write => OpKind::BlockPut,
        });
        Some(st.waiters(side).push(waiter))
    }

    fn deregister(&self, side: Interest, key: WaitKey) -> bool {
        self.lock().waiters(side).withdraw(key)
    }

    /// Our wake was consumed but we committed another branch: hand it on
    /// if the side is still ready.
    fn pass_on(&self, side: Interest) {
        let mut st = self.lock();
        if st.ready(side) {
            st.op(OpKind::Baton);
            st.wake(side);
        }
    }
}

/// A shared handle to one bounded FIFO and its two wait queues.
pub(super) struct Buffer<T> {
    st: Arc<Mutex<State<T>>>,
}

impl<T> Clone for Buffer<T> {
    fn clone(&self) -> Self {
        Buffer {
            st: Arc::clone(&self.st),
        }
    }
}

impl<T: Send + 'static> Buffer<T> {
    /// A buffer of at most `cap` items holding `init`, reported to the
    /// checker as `kind`.
    pub(super) fn new(cap: usize, kind: ResKind, init: Option<T>) -> Self {
        Buffer {
            st: Arc::new(Mutex::new(State {
                queue: init.into_iter().collect(),
                cap,
                takers: WaitTable::new(),
                putters: WaitTable::new(),
                rid: check::new_rid(),
                kind,
            })),
        }
    }

    /// Queues `v` without blocking; `Err(v)` if the buffer is full.
    pub(super) fn try_put(&self, v: T) -> Result<(), T> {
        let mut slot = Some(v);
        match self.st.lock().publish(&mut slot) {
            Some(()) => Ok(()),
            None => Err(slot.expect("a full buffer leaves the item")),
        }
    }

    /// Dequeues without blocking, if an item is queued.
    pub(super) fn try_take(&self) -> Option<T> {
        self.st.lock().consume()
    }

    /// Number of queued items.
    pub(super) fn len(&self) -> usize {
        self.st.lock().queue.len()
    }

    /// Registrations parked on the buffer, as `(takers, putters)`.
    pub(super) fn waiter_counts(&self) -> (usize, usize) {
        let st = self.st.lock();
        (st.takers.len(), st.putters.len())
    }

    /// The take event: ready while an item is queued; commits by
    /// dequeuing it.
    pub(super) fn take_evt(&self) -> Event<T> {
        self.parked(Interest::Read, State::consume)
    }

    /// The put event: ready while there is room; commits by queuing `v`.
    pub(super) fn put_evt(&self, v: T) -> Event<()> {
        let mut slot = Some(v);
        self.parked(Interest::Write, move |st| st.publish(&mut slot))
    }

    /// An unbounded buffer's put event: it commits on its first poll and
    /// never registers, so its register closure captures nothing and
    /// boxes without allocating.
    pub(super) fn push_evt(&self, v: T) -> Event<()> {
        let st = Arc::clone(&self.st);
        let mut slot = Some(v);
        Event::from_fn(move |_t0, out| {
            out.push(Branch::new(
                WaitKind::Lock,
                move |_now| st.lock().publish(&mut slot),
                |_u| Registration::none(),
            ));
        })
    }

    /// The parked side, for both sides: one branch whose poll runs
    /// `commit` under the lock and whose registration checks `side` and
    /// queues the waiter under that same lock.
    fn parked<A: Send + 'static>(
        &self,
        side: Interest,
        mut commit: impl FnMut(&mut State<T>) -> Option<A> + Send + 'static,
    ) -> Event<A> {
        let poll_st = Arc::clone(&self.st);
        let reg_st = Arc::clone(&self.st);
        Event::from_fn(move |_t0, out| {
            out.push(Branch::new(
                WaitKind::Lock,
                move |_now| commit(&mut poll_st.lock()),
                move |u| {
                    let dev = Arc::clone(&reg_st) as Arc<dyn Pollable>;
                    Registration::wait(dev, side, branch_waiter(u, WaitKind::Lock))
                },
            ));
        })
    }
}

impl<T: Clone + Send + 'static> Buffer<T> {
    /// The read event: ready while an item is queued; commits by cloning
    /// it, leaving it queued.
    pub(super) fn read_evt(&self) -> Event<T> {
        self.parked(Interest::Read, State::peek)
    }
}

impl<T> fmt::Debug for Buffer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.st.lock();
        write!(
            f,
            "{}(len={}, full={}, takers={}, putters={})",
            st.kind.name(),
            st.queue.len(),
            !st.ready(Interest::Write),
            st.takers.len(),
            st.putters.len()
        )
    }
}
