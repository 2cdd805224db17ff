//! The bounded FIFO that [`Chan`](super::Chan), [`SyncChan`](super::SyncChan)
//! and [`MVar`](super::MVar) are views of.
//!
//! One state struct behind one lock: the queued items, the bound, a
//! cancellable wait queue per side (takers wait for an item, putters for
//! room) and the checker's resource id. Three commits change it —
//! *publish* (push and wake one taker), *consume* (pop and, if bounded,
//! wake one putter) and *peek* (clone the front item and pass the wake on
//! to the next taker) — and one function, [`Buffer::parked`], states the
//! §4.7 recipe once for both sides: poll with the commit under the lock;
//! on a miss, check and register under the same lock; withdraw a losing
//! registration; and pass a consumed wake on to the next waiter (the
//! [`Registration`]'s baton). Every wake is wake-one, in FIFO order.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use crate::check::{self, OpKind, ResKind};
use crate::engine::WaitKind;
use crate::event::{branch_waiter, Branch, Event, Registration};
use crate::reactor::WaitQ;

/// The bound of an unbounded buffer: publish always finds room, and
/// consume never touches the putters' queue.
pub(super) const UNBOUNDED: usize = usize::MAX;

/// The side a parked waiter is on.
#[derive(Clone, Copy)]
enum Side {
    /// Waits for an item.
    Take,
    /// Waits for room.
    Put,
}

struct State<T> {
    queue: VecDeque<T>,
    cap: usize,
    takers: WaitQ,
    putters: WaitQ,
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

    fn ready(&self, side: Side) -> bool {
        match side {
            Side::Take => !self.queue.is_empty(),
            Side::Put => self.queue.len() < self.cap,
        }
    }

    fn waiters(&mut self, side: Side) -> &mut WaitQ {
        match side {
            Side::Take => &mut self.takers,
            Side::Put => &mut self.putters,
        }
    }

    /// Wakes the oldest live waiter on `side`.
    fn wake(&mut self, side: Side) {
        let _scope = check::wake_scope(self.rid);
        self.waiters(side).wake_one();
    }

    /// Queues the item in `slot` if there is room and wakes one taker.
    fn publish(&mut self, slot: &mut Option<T>) -> Option<()> {
        if !self.ready(Side::Put) {
            return None;
        }
        self.queue.push_back(slot.take()?);
        self.op(OpKind::Publish);
        self.wake(Side::Take);
        Some(())
    }

    /// Dequeues the front item and, if the buffer is bounded, wakes one
    /// putter.
    fn consume(&mut self) -> Option<T> {
        let v = self.queue.pop_front()?;
        self.op(OpKind::Consume);
        if self.cap != UNBOUNDED {
            self.wake(Side::Put);
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
        self.wake(Side::Take);
        Some(v)
    }
}

/// A shared handle to one bounded FIFO and its two wait queues.
pub(super) struct Buffer<T> {
    st: Arc<parking_lot::Mutex<State<T>>>,
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
            st: Arc::new(parking_lot::Mutex::new(State {
                queue: init.into_iter().collect(),
                cap,
                takers: WaitQ::new(),
                putters: WaitQ::new(),
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

    /// Live registrations parked on the buffer, as `(takers, putters)`.
    pub(super) fn waiter_counts(&self) -> (usize, usize) {
        let st = self.st.lock();
        (st.takers.len(), st.putters.len())
    }

    /// The take event: ready while an item is queued; commits by
    /// dequeuing it.
    pub(super) fn take_evt(&self) -> Event<T> {
        self.parked(Side::Take, State::consume)
    }

    /// The put event: ready while there is room; commits by queuing `v`.
    pub(super) fn put_evt(&self, v: T) -> Event<()> {
        let mut slot = Some(v);
        self.parked(Side::Put, move |st| st.publish(&mut slot))
    }

    /// The parked side, for both sides: one branch whose poll runs
    /// `commit` under the lock and whose registration checks `side` and
    /// queues the waiter under that same lock.
    fn parked<A: Send + 'static>(
        &self,
        side: Side,
        mut commit: impl FnMut(&mut State<T>) -> Option<A> + Send + 'static,
    ) -> Event<A> {
        let poll_st = Arc::clone(&self.st);
        let reg_st = Arc::clone(&self.st);
        Event::from_fn(move |_t0, out| {
            out.push(Branch::new(
                WaitKind::Lock,
                move |_now| commit(&mut poll_st.lock()),
                move |u| {
                    let waiter = branch_waiter(u, WaitKind::Lock);
                    let mut st = reg_st.lock();
                    if st.ready(side) {
                        let rid = st.rid;
                        drop(st);
                        let _scope = check::wake_scope(rid);
                        waiter.wake();
                        return Registration::none();
                    }
                    st.op(match side {
                        Side::Take => OpKind::BlockTake,
                        Side::Put => OpKind::BlockPut,
                    });
                    let slot = st.waiters(side).push(waiter);
                    drop(st);
                    let baton_st = Arc::clone(&reg_st);
                    Registration::new(
                        move || slot.take().is_some(),
                        move || {
                            // Our wake was consumed but we committed another
                            // branch: hand it on if the side is still ready.
                            let mut st = baton_st.lock();
                            if st.ready(side) {
                                st.op(OpKind::Baton);
                                st.wake(side);
                            }
                        },
                    )
                },
            ));
        })
    }
}

impl<T: Clone + Send + 'static> Buffer<T> {
    /// The read event: ready while an item is queued; commits by cloning
    /// it, leaving it queued.
    pub(super) fn read_evt(&self) -> Event<T> {
        self.parked(Side::Take, State::peek)
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
            !st.ready(Side::Put),
            st.takers.len(),
            st.putters.len()
        )
    }
}
