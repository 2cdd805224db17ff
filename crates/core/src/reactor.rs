//! Event abstractions: readiness interests, pollable devices, event ports
//! and one-shot unparkers.
//!
//! This module is the boundary between the thread world and the event world
//! (the centre box of the paper's Figure 2). Devices expose *readiness*
//! through [`Pollable::register`]; the scheduler parks a thread by storing a
//! one-shot [`Unparker`] with the device; when the device becomes ready it
//! routes the unparker through an [`EventPort`] — the paper's `worker_epoll`
//! event loop (Figure 16) is one such port.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::{RuntimeCtx, WaitKind};
use crate::task::Task;

/// The readiness condition a thread waits for — the paper's `EPOLL_READ` /
/// `EPOLL_WRITE` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interest {
    /// Ready to read without blocking (or end-of-stream reached).
    Read,
    /// Ready to write without blocking (or peer closed).
    Write,
}

static NEXT_FD: AtomicU64 = AtomicU64::new(1);

/// A handle naming a registered pollable device, as passed to
/// [`sys_epoll_wait`](crate::syscall::sys_epoll_wait).
///
/// Unlike a Unix fd this handle carries its device, so no global descriptor
/// table is needed; the numeric id exists for logging and ordering.
#[derive(Clone)]
pub struct Fd {
    id: u64,
    dev: Arc<dyn Pollable>,
}

impl Fd {
    /// Wraps a device in a fresh descriptor.
    pub fn new(dev: Arc<dyn Pollable>) -> Self {
        Fd {
            id: NEXT_FD.fetch_add(1, Ordering::Relaxed),
            dev,
        }
    }

    /// The numeric identifier (unique per process).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<dyn Pollable> {
        &self.dev
    }
}

impl fmt::Debug for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fd({})", self.id)
    }
}

/// A device whose readiness can be waited on, in the manner of an fd
/// registered with epoll.
pub trait Pollable: Send + Sync {
    /// Registers `waiter` to be woken when `interest` becomes ready, and
    /// returns the key of its [`WaitTable`] entry.
    ///
    /// Implementations must check the condition and store the waiter under
    /// the same lock, and must wake the waiter immediately if the condition
    /// already holds — otherwise wakeups may be lost. A waiter woken at
    /// once has no entry: `None`.
    fn register(&self, interest: Interest, waiter: Waiter) -> Option<WaitKey>;

    /// Withdraws the entry `key` from `interest`'s table. `false` means it
    /// was already woken (or withdrawn).
    fn deregister(&self, interest: Interest, key: WaitKey) -> bool;

    /// Hands on a wake that `interest`'s waiter consumed but whose `choose`
    /// committed another branch: wakes the next waiter if `interest` still
    /// holds. Devices that wake a whole interest at once lose nothing and
    /// keep this default, which does nothing.
    fn pass_on(&self, _interest: Interest) {}
}

/// Delivery route for readiness events: devices hand ready unparkers to a
/// port, which forwards them to the scheduler. AIO completions take the same
/// route. The real runtime's port is a queue drained by a dedicated
/// `worker_epoll` thread (paper Figure 16); the simulator's port delivers
/// inline at the current virtual time.
pub trait EventPort: Send + Sync {
    /// Forwards a woken thread towards the ready queue.
    fn notify(&self, unparker: Unparker);
}

/// An [`EventPort`] that unparks inline, bypassing any event-loop queue —
/// the route of STM `retry` waiters, and what unit tests hand to a
/// [`Waiter`] they wake by hand. (A `choose` branch waiter,
/// [`branch_waiter`](crate::event::branch_waiter), unparks inline too,
/// through a port shared by every branch of its wait class, which first
/// reclassifies the park episode.)
#[derive(Debug, Default, Clone, Copy)]
pub struct DirectPort;

impl DirectPort {
    /// One port shared by every caller, so a waiter that unparks inline
    /// allocates no route of its own.
    pub fn shared() -> Arc<dyn EventPort> {
        static PORT: std::sync::OnceLock<Arc<dyn EventPort>> = std::sync::OnceLock::new();
        Arc::clone(PORT.get_or_init(|| Arc::new(DirectPort)))
    }
}

impl EventPort for DirectPort {
    fn notify(&self, unparker: Unparker) {
        unparker.unpark();
    }
}

/// A parked thread registered with a device, plus the port that readiness
/// events for it must travel through.
pub struct Waiter {
    unparker: Unparker,
    port: Arc<dyn EventPort>,
}

impl Waiter {
    /// Pairs a parked thread with its event delivery route.
    pub fn new(unparker: Unparker, port: Arc<dyn EventPort>) -> Self {
        Waiter { unparker, port }
    }

    /// Wakes the thread by routing it through the event port.
    pub fn wake(self) {
        self.port.notify(self.unparker);
    }

    /// True if the thread was already woken through another route.
    pub fn is_spent(&self) -> bool {
        self.unparker.is_spent()
    }
}

impl fmt::Debug for Waiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Waiter")
            .field("spent", &self.is_spent())
            .finish()
    }
}

/// A one-shot handle that resumes a parked monadic thread.
///
/// Cloning is cheap; however many clones exist, the thread is resumed at
/// most once (later `unpark` calls return `false`). This is the primitive
/// from which every blocking abstraction in the system is built — see
/// [`sys_park`](crate::syscall::sys_park).
#[derive(Clone)]
pub struct Unparker {
    inner: Arc<UnparkerInner>,
}

struct UnparkerInner {
    task: Mutex<Option<Task>>,
    ctx: Arc<dyn RuntimeCtx>,
}

impl Unparker {
    /// Wraps a parked task. The scheduler constructs these; device code only
    /// consumes them.
    pub fn new(task: Task, ctx: Arc<dyn RuntimeCtx>) -> Self {
        Unparker {
            inner: Arc::new(UnparkerInner {
                task: Mutex::new(Some(task)),
                ctx,
            }),
        }
    }

    /// Resumes the parked thread by pushing it onto the scheduler's ready
    /// queue. Returns `false` if the thread was already resumed.
    pub fn unpark(&self) -> bool {
        let task = self.inner.task.lock().take();
        match task {
            Some(t) => {
                self.inner.ctx.charge(crate::engine::CostKind::Wake);
                self.inner.ctx.push_ready(t);
                true
            }
            None => false,
        }
    }

    /// True if the thread has already been resumed.
    pub fn is_spent(&self) -> bool {
        self.inner.task.lock().is_none()
    }

    /// The runtime context the parked thread belongs to. The event layer
    /// uses this to reach runtime services (timers, event ports, the
    /// clock) from inside a `sys_park` registration closure, which
    /// otherwise only sees the unparker.
    pub fn runtime_ctx(&self) -> Arc<dyn RuntimeCtx> {
        Arc::clone(&self.inner.ctx)
    }

    /// Names this park: equal for the clones of one unparker, different
    /// for any two alive at once.
    pub(crate) fn id(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// Reclassifies the in-flight wait episode of the still-parked thread
    /// (see [`RuntimeCtx::task_wait_reclass`]). A `choose` park is charged
    /// as [`WaitKind::Lock`] when it blocks; the branch that ends up waking
    /// the thread calls this so the episode is attributed to the *winning*
    /// wait source (I/O readiness, lock, or timer). Returns `false` — and
    /// does nothing — if the thread was already resumed.
    pub fn reclassify(&self, kind: WaitKind) -> bool {
        let guard = self.inner.task.lock();
        match guard.as_ref() {
            Some(task) => {
                self.inner.ctx.task_wait_reclass(task.tid(), kind);
                true
            }
            None => false,
        }
    }
}

impl fmt::Debug for Unparker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Unparker")
            .field("spent", &self.is_spent())
            .finish()
    }
}

/// Marks the end of a [`WaitTable`]'s FIFO and of its free chain.
const NIL: u32 = u32::MAX;

/// Names one entry of a [`WaitTable`]: its slot and the slot's generation,
/// so a stale key (the entry was woken or withdrawn, the slot perhaps
/// reused) withdraws nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitKey {
    idx: u32,
    gen: u32,
}

struct Entry {
    /// Bumped each time the slot is vacated, so old keys stop matching.
    gen: u32,
    /// FIFO neighbours while occupied; a free slot chains through `next`.
    prev: u32,
    next: u32,
    waiter: Option<Waiter>,
}

/// The parked waiters of one wait condition — every device's and every
/// event's wait queue (the §4.7 recipe's "register under the same lock").
///
/// A table has no lock of its own: it lives inside its owner's state,
/// under the owner's lock, so checking the condition and registering are
/// one critical section. Entries sit in a slab threaded by a doubly
/// linked FIFO: [`push`](WaitTable::push) and
/// [`withdraw`](WaitTable::withdraw) are O(1), every wake is FIFO, and a
/// withdrawn slot is recycled by the next push, so a `choose` loser
/// leaves nothing behind. Two-interest devices hold one table per
/// interest.
pub struct WaitTable {
    entries: Vec<Entry>,
    head: u32,
    tail: u32,
    free: u32,
    len: u32,
}

impl WaitTable {
    /// An empty table (no allocation until the first push).
    pub const fn new() -> Self {
        WaitTable {
            entries: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            len: 0,
        }
    }

    /// Queues `w` at the back; the key withdraws it.
    pub fn push(&mut self, w: Waiter) -> WaitKey {
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = self.entries[idx as usize].next;
            idx
        } else {
            // One slot first: an idle connection parks one reader, and
            // a larger first block would cost every connection bytes.
            if self.entries.capacity() == 0 {
                self.entries.reserve_exact(1);
            }
            self.entries.push(Entry {
                gen: 0,
                prev: NIL,
                next: NIL,
                waiter: None,
            });
            (self.entries.len() - 1) as u32
        };
        let tail = self.tail;
        let e = &mut self.entries[idx as usize];
        e.prev = tail;
        e.next = NIL;
        e.waiter = Some(w);
        let gen = e.gen;
        match tail {
            NIL => self.head = idx,
            t => self.entries[t as usize].next = idx,
        }
        self.tail = idx;
        self.len += 1;
        WaitKey { idx, gen }
    }

    /// Removes the entry `key` names. `false` means it is gone already:
    /// woken (its wake was delivered) or withdrawn before.
    pub fn withdraw(&mut self, key: WaitKey) -> bool {
        match self.entries.get(key.idx as usize) {
            Some(e) if e.gen == key.gen && e.waiter.is_some() => {
                self.unlink(key.idx);
                true
            }
            _ => false,
        }
    }

    /// Wakes the oldest waiter whose thread is still parked; entries
    /// already woken through another route are dropped on the way.
    /// Returns `true` if a thread was woken.
    pub fn wake_one(&mut self) -> bool {
        while self.head != NIL {
            let w = self.unlink(self.head);
            if !w.is_spent() {
                w.wake();
                return true;
            }
        }
        false
    }

    /// Wakes every queued waiter, oldest first, and empties the table.
    pub fn wake_all(&mut self) {
        while self.head != NIL {
            self.unlink(self.head).wake();
        }
    }

    /// Queued entries.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Takes the occupied slot `idx` out of the FIFO onto the free chain.
    fn unlink(&mut self, idx: u32) -> Waiter {
        let e = &mut self.entries[idx as usize];
        let (prev, next) = (e.prev, e.next);
        let w = e.waiter.take().expect("an occupied slot");
        e.gen = e.gen.wrapping_add(1);
        e.next = self.free;
        self.free = idx;
        match prev {
            NIL => self.head = next,
            p => self.entries[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entries[n as usize].prev = prev,
        }
        self.len -= 1;
        w
    }
}

impl Default for WaitTable {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for WaitTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WaitTable(len={})", self.len)
    }
}

/// A listener backlog with accept-readiness — the device behind both
/// socket stacks' listening sockets.
///
/// The stack's demux path [`push`es](AcceptQueue::push) established
/// connections, `accept` [`pop`s](AcceptQueue::pop) them, and blocked
/// acceptors register epoll-style waiters. Every transition — push,
/// close, register — happens under the one internal lock, so a
/// registration can lose its wakeup neither to a concurrent push nor to
/// a concurrent shutdown.
pub struct AcceptQueue<T> {
    st: Mutex<AcceptState<T>>,
}

struct AcceptState<T> {
    backlog: std::collections::VecDeque<T>,
    waiters: WaitTable,
    closed: bool,
}

impl<T> AcceptQueue<T> {
    /// An empty, open backlog.
    pub fn new() -> Self {
        AcceptQueue {
            st: Mutex::new(AcceptState {
                backlog: std::collections::VecDeque::new(),
                waiters: WaitTable::new(),
                closed: false,
            }),
        }
    }

    /// Enqueues a connection and wakes every accept waiter. Returns the
    /// connection back if the queue was already shut down — the caller
    /// decides whether to abort it or refuse the peer.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut st = self.st.lock();
        if st.closed {
            return Err(item);
        }
        st.backlog.push_back(item);
        st.waiters.wake_all();
        Ok(())
    }

    /// Dequeues the oldest pending connection, if any.
    pub fn pop(&self) -> Option<T> {
        self.st.lock().backlog.pop_front()
    }

    /// True once [`AcceptQueue::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.st.lock().closed
    }

    /// Shuts the backlog down and wakes every waiter (they will observe
    /// `is_closed` and fail their accept). Still-queued connections stay
    /// poppable.
    pub fn close(&self) {
        let mut st = self.st.lock();
        st.closed = true;
        st.waiters.wake_all();
    }

    /// Number of queued, unaccepted connections.
    pub fn len(&self) -> usize {
        self.st.lock().backlog.len()
    }

    /// Accept waiters currently registered (for tests asserting that
    /// losing `choose` branches withdraw their entries).
    pub fn waiter_count(&self) -> usize {
        self.st.lock().waiters.len()
    }

    /// True when no connection is queued.
    pub fn is_empty(&self) -> bool {
        self.st.lock().backlog.is_empty()
    }
}

/// Accept-readiness: every interest means "a connection is queued or the
/// backlog is shut down".
impl<T: Send> Pollable for AcceptQueue<T> {
    fn register(&self, _interest: Interest, waiter: Waiter) -> Option<WaitKey> {
        let mut st = self.st.lock();
        if !st.backlog.is_empty() || st.closed {
            drop(st);
            waiter.wake();
            None
        } else {
            Some(st.waiters.push(waiter))
        }
    }

    fn deregister(&self, _interest: Interest, key: WaitKey) -> bool {
        self.st.lock().waiters.withdraw(key)
    }
}

impl<T> Default for AcceptQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for AcceptQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.st.lock();
        f.debug_struct("AcceptQueue")
            .field("backlog", &st.backlog.len())
            .field("waiters", &st.waiters.len())
            .field("closed", &st.closed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testing::noop_ctx;
    use crate::task::{Task, TaskId};
    use crate::trace::Trace;

    fn dummy_task() -> Task {
        Task::from_thunk(TaskId(1), Box::new(|| Trace::Ret))
    }

    #[test]
    fn unparker_is_one_shot() {
        let ctx = noop_ctx();
        let u = Unparker::new(dummy_task(), ctx.clone());
        assert!(!u.is_spent());
        assert!(u.unpark());
        assert!(u.is_spent());
        assert!(!u.unpark());
        assert_eq!(ctx.ready_count(), 1);
    }

    #[test]
    fn unparker_clones_share_the_shot() {
        let ctx = noop_ctx();
        let u = Unparker::new(dummy_task(), ctx.clone());
        let v = u.clone();
        assert!(v.unpark());
        assert!(!u.unpark());
        assert_eq!(ctx.ready_count(), 1);
    }

    #[test]
    fn direct_port_unparks_inline() {
        let ctx = noop_ctx();
        let u = Unparker::new(dummy_task(), ctx.clone());
        DirectPort.notify(u);
        assert_eq!(ctx.ready_count(), 1);
    }

    fn waiter(ctx: &Arc<crate::engine::testing::CountingCtx>) -> (Unparker, Waiter) {
        let u = Unparker::new(dummy_task(), ctx.clone());
        (u.clone(), Waiter::new(u, DirectPort::shared()))
    }

    #[test]
    fn wait_list_wake_one_skips_spent() {
        let ctx = noop_ctx();
        let (u1, w1) = waiter(&ctx);
        let (_, w2) = waiter(&ctx);
        let mut t = WaitTable::new();
        t.push(w1);
        t.push(w2);
        u1.unpark(); // woken elsewhere; the queued waiter is now spent
        assert!(t.wake_one());
        assert!(t.is_empty());
        assert_eq!(ctx.ready_count(), 2);
        assert!(!t.wake_one(), "nothing left to wake");
    }

    #[test]
    fn wait_list_wake_all() {
        let ctx = noop_ctx();
        let mut t = WaitTable::new();
        let keys: Vec<_> = (0..3).map(|_| t.push(waiter(&ctx).1)).collect();
        assert_eq!(t.len(), 3);
        t.wake_all();
        assert_eq!(ctx.ready_count(), 3);
        assert!(t.is_empty());
        assert!(
            keys.iter().all(|k| !t.withdraw(*k)),
            "woken entries are gone"
        );
    }

    #[test]
    fn wait_table_wakes_in_fifo_order_around_a_withdrawn_entry() {
        let ctx = noop_ctx();
        let mut t = WaitTable::new();
        let us: Vec<_> = (0..4)
            .map(|_| {
                let (u, w) = waiter(&ctx);
                (u, t.push(w))
            })
            .collect();
        assert!(t.withdraw(us[1].1));
        assert!(t.wake_one());
        assert!(us[0].0.is_spent() && !us[2].0.is_spent());
        assert!(t.wake_one());
        assert!(us[2].0.is_spent() && !us[3].0.is_spent());
        // The withdrawn slot is reused, and its new tenant queues last.
        let (u4, _) = {
            let (u, w) = waiter(&ctx);
            (u, t.push(w))
        };
        assert!(t.wake_one());
        assert!(us[3].0.is_spent() && !u4.is_spent());
        assert!(t.wake_one());
        assert!(u4.is_spent());
        assert!(!us[1].0.is_spent(), "a withdrawn waiter is never woken");
    }

    #[test]
    fn wait_list_spent_churn_leaves_bounded_residue() {
        // A device registered against by threads that commit elsewhere
        // (losing choose branches): each loser withdraws its entry, so
        // 10k rounds leave nothing queued and one slot allocated.
        let ctx = noop_ctx();
        let mut t = WaitTable::new();
        for _ in 0..10_000 {
            let (u, w) = waiter(&ctx);
            let key = t.push(w);
            u.unpark(); // spent: committed elsewhere
            assert!(t.withdraw(key));
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.entries.capacity(), 1);
    }

    #[test]
    fn wait_q_cancellation_removes_entries_physically() {
        let ctx = noop_ctx();
        let mut t = WaitTable::new();
        // 10k register/withdraw cycles: nothing accumulates and nothing
        // remains to wake.
        for _ in 0..10_000 {
            let key = t.push(waiter(&ctx).1);
            assert!(t.withdraw(key));
            assert_eq!(t.len(), 0);
        }
        assert!(!t.wake_one(), "no residue to wake");
        assert_eq!(ctx.ready_count(), 0);

        // A batch armed together then withdrawn together — the shape of a
        // disconnect storm against a shutdown Signal.
        let keys: Vec<_> = (0..10_000).map(|_| t.push(waiter(&ctx).1)).collect();
        assert_eq!(t.len(), 10_000);
        for k in &keys {
            assert!(t.withdraw(*k));
        }
        assert_eq!(t.len(), 0, "mass withdrawal leaves zero entries");
        // The slots are reused, and a live push/wake still works.
        t.push(waiter(&ctx).1);
        assert!(t.wake_one());
        assert_eq!(ctx.ready_count(), 1);
        assert_eq!(t.entries.len(), 10_000);
    }

    #[test]
    fn wait_q_double_take_is_stale() {
        let ctx = noop_ctx();
        let mut t = WaitTable::new();
        let key = t.push(waiter(&ctx).1);
        assert!(t.withdraw(key));
        assert!(!t.withdraw(key), "second withdrawal sees a stale key");
        // The freed slot is recycled; the old key must not touch the new
        // tenant.
        let key2 = t.push(waiter(&ctx).1);
        assert!(!t.withdraw(key));
        assert_eq!(t.len(), 1);
        assert!(t.withdraw(key2));
    }

    #[test]
    fn accept_queue_wakes_on_push_and_close() {
        let ctx = noop_ctx();
        let q: AcceptQueue<u32> = AcceptQueue::new();
        // A parked waiter is woken by a push...
        assert!(q.register(Interest::Read, waiter(&ctx).1).is_some());
        assert_eq!(ctx.ready_count(), 0);
        assert!(q.push(7).is_ok());
        assert_eq!(ctx.ready_count(), 1);
        // ...a waiter registered while the backlog is non-empty wakes
        // immediately...
        assert!(q.register(Interest::Read, waiter(&ctx).1).is_none());
        assert_eq!(ctx.ready_count(), 2);
        assert_eq!(q.pop(), Some(7));
        // ...and close wakes parked waiters, refuses new pushes, and
        // wakes post-close registrations immediately (no lost wakeup
        // against shutdown).
        q.register(Interest::Read, waiter(&ctx).1);
        assert_eq!(ctx.ready_count(), 2);
        q.close();
        assert_eq!(ctx.ready_count(), 3);
        assert_eq!(q.push(8), Err(8));
        q.register(Interest::Read, waiter(&ctx).1);
        assert_eq!(ctx.ready_count(), 4);
        assert!(q.is_closed());
    }

    #[test]
    fn accept_queue_spent_churn_leaves_bounded_residue() {
        let ctx = noop_ctx();
        let q: AcceptQueue<u32> = AcceptQueue::new();
        for _ in 0..10_000 {
            let (u, w) = waiter(&ctx);
            let key = q.register(Interest::Read, w).expect("parked");
            u.unpark();
            assert!(q.deregister(Interest::Read, key));
        }
        assert_eq!(q.waiter_count(), 0);
    }

    #[test]
    fn fd_ids_are_unique() {
        struct Never;
        impl Pollable for Never {
            fn register(&self, _: Interest, _: Waiter) -> Option<WaitKey> {
                None
            }
            fn deregister(&self, _: Interest, _: WaitKey) -> bool {
                false
            }
        }
        let a = Fd::new(Arc::new(Never));
        let b = Fd::new(Arc::new(Never));
        assert_ne!(a.id(), b.id());
        assert!(format!("{a:?}").starts_with("Fd("));
    }
}
