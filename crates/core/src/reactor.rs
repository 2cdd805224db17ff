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
    /// Registers `waiter` to be woken when `interest` becomes ready.
    ///
    /// Implementations must check the condition and store the waiter under
    /// the same lock, and must wake the waiter immediately if the condition
    /// already holds — otherwise wakeups may be lost.
    fn register(&self, interest: Interest, waiter: Waiter);
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
/// what unit tests hand to a [`Waiter`] they wake by hand. (A `choose`
/// branch waiter, [`branch_waiter`](crate::event::branch_waiter), unparks
/// inline too, without a port of its own.)
#[derive(Debug, Default, Clone, Copy)]
pub struct DirectPort;

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

/// Physical size below which [`WaitList`] and [`WaitQ`] never bother
/// compacting — pruning a handful of entries buys nothing.
const PRUNE_FLOOR: usize = 16;

/// A list of parked waiters maintained by a device, with helpers for the
/// wake-one / wake-all patterns — the lists behind [`InterestWaiters`]
/// (pipes, fabric sockets) and [`AcceptQueue`] (listeners).
#[derive(Debug)]
pub struct WaitList {
    waiters: std::collections::VecDeque<Waiter>,
    /// Physical size at which the next `push` compacts. Doubling it after
    /// each sweep makes pruning amortized O(1) per push while bounding the
    /// physical list at ~2× the live count — the old prune-on-every-push
    /// was O(n) per registration, which a connect/disconnect storm turned
    /// into quadratic work on hot devices.
    prune_at: usize,
}

impl WaitList {
    /// Creates an empty list.
    pub fn new() -> Self {
        WaitList {
            waiters: std::collections::VecDeque::new(),
            prune_at: PRUNE_FLOOR,
        }
    }

    /// Adds a waiter. Entries whose threads were already woken through
    /// another route (e.g. the losing branches of a `choose`) are swept
    /// out whenever the list reaches its high-water mark, so abandoned
    /// registrations cannot accumulate in a device that keeps receiving
    /// traffic, and steady-state churn stays O(1) per push.
    pub fn push(&mut self, w: Waiter) {
        if self.waiters.len() >= self.prune_at {
            self.waiters.retain(|w| !w.is_spent());
            self.prune_at = (self.waiters.len() * 2 + 2).max(PRUNE_FLOOR);
        }
        self.waiters.push_back(w);
    }

    /// Wakes every waiter and clears the list.
    pub fn wake_all(&mut self) {
        for w in self.waiters.drain(..) {
            w.wake();
        }
        self.prune_at = PRUNE_FLOOR;
    }

    /// Wakes one waiter (skipping any already-spent entries). Returns `true`
    /// if a live waiter was woken.
    pub fn wake_one(&mut self) -> bool {
        while let Some(w) = self.waiters.pop_front() {
            if !w.is_spent() {
                w.wake();
                return true;
            }
        }
        false
    }

    /// Number of *live* queued waiters (spent entries not yet swept are
    /// not counted — they will never be woken).
    pub fn len(&self) -> usize {
        self.waiters.iter().filter(|w| !w.is_spent()).count()
    }

    /// Entries physically held, live or spent — bounded at ~2× the live
    /// count plus a small floor. For tests asserting churn leaves no
    /// residue.
    pub fn physical_len(&self) -> usize {
        self.waiters.len()
    }

    /// True if no live waiter is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for WaitList {
    fn default() -> Self {
        Self::new()
    }
}

/// A single cancellable registration in a [`WaitQ`].
///
/// The slot is shared between the queue (which consumes the waiter to wake
/// it) and the registering side (which may [`take`](WaitSlot::take) it back
/// when a `choose` commits a different branch). Whichever side gets there
/// first wins; the other observes an empty slot.
pub struct WaitSlot {
    inner: Arc<Mutex<WaitQInner>>,
    key: crate::slab::SlabKey,
}

impl WaitSlot {
    /// Removes the registration if it is still queued, returning the
    /// waiter. `None` means the queue already consumed it — the caller's
    /// wakeup was (or is being) delivered, and a `choose` loser must pass
    /// that wakeup on to the device's next waiter.
    ///
    /// Cancellation is *physical*: the arena slot is freed immediately,
    /// so a storm of registered-then-withdrawn waiters (every losing
    /// `choose` branch in a connect/disconnect churn) leaves nothing
    /// behind for a later wake path to skip over.
    pub fn take(&self) -> Option<Waiter> {
        self.inner.lock().slab.remove(self.key)
    }
}

impl fmt::Debug for WaitSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WaitSlot")
            .field("queued", &self.inner.lock().slab.contains(self.key))
            .finish()
    }
}

struct WaitQInner {
    /// The waiters themselves, arena-allocated so registration churn
    /// recycles slots instead of allocating one heap cell per park.
    slab: crate::slab::Slab<Waiter>,
    /// FIFO of keys; a key whose entry was cancelled is a tombstone the
    /// wake paths skip (and amortized sweeps drop).
    order: std::collections::VecDeque<crate::slab::SlabKey>,
}

impl WaitQInner {
    /// Drops order-queue tombstones once they outnumber live entries —
    /// amortized O(1) per operation, physical order length ≤ ~2× live.
    fn maybe_sweep(&mut self) {
        if self.order.len() > (self.slab.len() * 2).max(PRUNE_FLOOR) {
            let WaitQInner { slab, order } = self;
            order.retain(|k| slab.contains(*k));
        }
    }
}

/// A FIFO of parked waiters with *cancellable* entries — the two wait
/// queues of the one bounded buffer behind `Chan`, `SyncChan` and `MVar`
/// (`sync::buffer`, the only holder under `sync/`) and the
/// [`Signal`](crate::event::Signal) broadcast's queue.
///
/// Unlike [`WaitList`], every `push` hands back a [`WaitSlot`] through
/// which the registration can be withdrawn, which is what lets a losing
/// `choose` branch deregister instead of leaving a dead entry behind.
/// Entries live in a [`Slab`](crate::slab::Slab): cancellation removes
/// them physically and the slot is recycled by the next registration, so
/// steady-state churn neither allocates nor accumulates residue;
/// [`WaitQ::len`] counts only live registrations.
pub struct WaitQ {
    inner: Arc<Mutex<WaitQInner>>,
}

impl WaitQ {
    /// An empty queue.
    pub fn new() -> Self {
        WaitQ {
            inner: Arc::new(Mutex::new(WaitQInner {
                slab: crate::slab::Slab::new(),
                order: std::collections::VecDeque::new(),
            })),
        }
    }

    /// Appends a waiter; the returned slot cancels the registration.
    pub fn push(&mut self, w: Waiter) -> WaitSlot {
        let mut q = self.inner.lock();
        let key = q.slab.insert(w);
        q.order.push_back(key);
        q.maybe_sweep();
        WaitSlot {
            inner: Arc::clone(&self.inner),
            key,
        }
    }

    /// Wakes the oldest live waiter; tombstones and spent entries are
    /// dropped along the way. Returns `true` if a live waiter was woken.
    pub fn wake_one(&mut self) -> bool {
        let mut q = self.inner.lock();
        while let Some(key) = q.order.pop_front() {
            match q.slab.remove(key) {
                Some(w) if !w.is_spent() => {
                    drop(q);
                    w.wake();
                    return true;
                }
                _ => {} // cancelled or already woken elsewhere: skip
            }
        }
        false
    }

    /// Wakes every queued waiter and clears the queue.
    pub fn wake_all(&mut self) {
        let mut q = self.inner.lock();
        let mut woken = Vec::new();
        while let Some(key) = q.order.pop_front() {
            if let Some(w) = q.slab.remove(key) {
                woken.push(w);
            }
        }
        drop(q);
        for w in woken {
            w.wake();
        }
    }

    /// Number of live (neither cancelled nor spent) registrations.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .slab
            .iter()
            .filter(|w| !w.is_spent())
            .count()
    }

    /// Entries physically held in the arena, live or spent. Cancelled
    /// registrations are gone from here the moment [`WaitSlot::take`]
    /// runs — the residue metric for churn tests.
    pub fn physical_len(&self) -> usize {
        self.inner.lock().slab.len()
    }

    /// True when no live registration is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for WaitQ {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for WaitQ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WaitQ(live={})", self.len())
    }
}

/// Readiness wait lists keyed by [`Interest`] — the per-device half of an
/// epoll registration table.
///
/// A pollable device embeds one of these next to its state (under the same
/// lock, so the check-then-park of [`Pollable::register`] is race-free),
/// parks waiters per interest, and wakes exactly the interest class a
/// state change affects: new bytes wake `Read` waiters, freed buffer space
/// wakes `Write` waiters, fatal events wake both.
#[derive(Debug, Default)]
pub struct InterestWaiters {
    read: WaitList,
    write: WaitList,
}

impl InterestWaiters {
    /// Creates an empty registration table.
    pub fn new() -> Self {
        InterestWaiters::default()
    }

    /// Parks `waiter` until `interest` is next signalled ready.
    pub fn push(&mut self, interest: Interest, waiter: Waiter) {
        self.list_mut(interest).push(waiter);
    }

    /// Wakes every waiter registered for `interest`.
    pub fn wake(&mut self, interest: Interest) {
        self.list_mut(interest).wake_all();
    }

    /// Wakes every waiter of both interests (close, reset, error).
    pub fn wake_all(&mut self) {
        self.read.wake_all();
        self.write.wake_all();
    }

    /// Number of waiters currently registered for `interest`.
    pub fn len(&self, interest: Interest) -> usize {
        match interest {
            Interest::Read => self.read.len(),
            Interest::Write => self.write.len(),
        }
    }

    /// Entries physically held across both interests, spent or live.
    pub fn physical_len(&self) -> usize {
        self.read.physical_len() + self.write.physical_len()
    }

    /// True when no waiter is registered for either interest.
    pub fn is_empty(&self) -> bool {
        self.read.is_empty() && self.write.is_empty()
    }

    fn list_mut(&mut self, interest: Interest) -> &mut WaitList {
        match interest {
            Interest::Read => &mut self.read,
            Interest::Write => &mut self.write,
        }
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
    waiters: WaitList,
    closed: bool,
}

impl<T> AcceptQueue<T> {
    /// An empty, open backlog.
    pub fn new() -> Self {
        AcceptQueue {
            st: Mutex::new(AcceptState {
                backlog: std::collections::VecDeque::new(),
                waiters: WaitList::new(),
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

    /// Registers an accept waiter, waking it immediately if a connection
    /// is already queued or the backlog is shut down.
    pub fn register(&self, waiter: Waiter) {
        let mut st = self.st.lock();
        if !st.backlog.is_empty() || st.closed {
            drop(st);
            waiter.wake();
        } else {
            st.waiters.push(waiter);
        }
    }

    /// Number of queued, unaccepted connections.
    pub fn len(&self) -> usize {
        self.st.lock().backlog.len()
    }

    /// Live accept waiters currently registered (for tests asserting that
    /// losing `choose` branches leave no residue behind — entries whose
    /// threads committed elsewhere are spent and not counted).
    pub fn waiter_count(&self) -> usize {
        self.st.lock().waiters.len()
    }

    /// Accept-waiter entries physically held, spent or live — the residue
    /// metric a connect/disconnect storm must leave bounded.
    pub fn physical_waiters(&self) -> usize {
        self.st.lock().waiters.physical_len()
    }

    /// True when no connection is queued.
    pub fn is_empty(&self) -> bool {
        self.st.lock().backlog.is_empty()
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

    #[test]
    fn wait_list_wake_one_skips_spent() {
        let ctx = noop_ctx();
        let u1 = Unparker::new(dummy_task(), ctx.clone());
        let u2 = Unparker::new(dummy_task(), ctx.clone());
        let mut wl = WaitList::new();
        wl.push(Waiter::new(u1.clone(), Arc::new(DirectPort)));
        wl.push(Waiter::new(u2, Arc::new(DirectPort)));
        u1.unpark(); // woken elsewhere; the queued waiter is now spent
        assert!(wl.wake_one());
        assert!(wl.is_empty());
        assert_eq!(ctx.ready_count(), 2);
    }

    #[test]
    fn wait_list_wake_all() {
        let ctx = noop_ctx();
        let mut wl = WaitList::new();
        for _ in 0..3 {
            wl.push(Waiter::new(
                Unparker::new(dummy_task(), ctx.clone()),
                Arc::new(DirectPort),
            ));
        }
        assert_eq!(wl.len(), 3);
        wl.wake_all();
        assert_eq!(ctx.ready_count(), 3);
        assert!(wl.is_empty());
    }

    #[test]
    fn accept_queue_wakes_on_push_and_close() {
        let ctx = noop_ctx();
        let q: AcceptQueue<u32> = AcceptQueue::new();
        // A parked waiter is woken by a push...
        let u1 = Unparker::new(dummy_task(), ctx.clone());
        q.register(Waiter::new(u1, Arc::new(DirectPort)));
        assert_eq!(ctx.ready_count(), 0);
        assert!(q.push(7).is_ok());
        assert_eq!(ctx.ready_count(), 1);
        // ...a waiter registered while the backlog is non-empty wakes
        // immediately...
        let u2 = Unparker::new(dummy_task(), ctx.clone());
        q.register(Waiter::new(u2, Arc::new(DirectPort)));
        assert_eq!(ctx.ready_count(), 2);
        assert_eq!(q.pop(), Some(7));
        // ...and close wakes parked waiters, refuses new pushes, and
        // wakes post-close registrations immediately (no lost wakeup
        // against shutdown).
        let u3 = Unparker::new(dummy_task(), ctx.clone());
        q.register(Waiter::new(u3, Arc::new(DirectPort)));
        assert_eq!(ctx.ready_count(), 2);
        q.close();
        assert_eq!(ctx.ready_count(), 3);
        assert_eq!(q.push(8), Err(8));
        let u4 = Unparker::new(dummy_task(), ctx.clone());
        q.register(Waiter::new(u4, Arc::new(DirectPort)));
        assert_eq!(ctx.ready_count(), 4);
        assert!(q.is_closed());
    }

    #[test]
    fn wait_list_spent_churn_leaves_bounded_residue() {
        // A device that keeps being registered against by threads that are
        // woken through other routes (losing choose branches): the
        // watermark sweep must keep the physical list near zero live
        // entries, not let 10k spent registrations pile up.
        let ctx = noop_ctx();
        let mut wl = WaitList::new();
        for _ in 0..10_000 {
            let u = Unparker::new(dummy_task(), ctx.clone());
            wl.push(Waiter::new(u.clone(), Arc::new(DirectPort)));
            u.unpark(); // spent immediately: committed elsewhere
            assert!(wl.physical_len() <= 2 * PRUNE_FLOOR);
        }
        assert_eq!(wl.len(), 0);
        assert!(wl.physical_len() <= 2 * PRUNE_FLOOR);
    }

    #[test]
    fn wait_q_cancellation_removes_entries_physically() {
        let ctx = noop_ctx();
        let mut q = WaitQ::new();
        // 10k register/cancel cycles: cancellation frees the arena slot at
        // once, so nothing accumulates and nothing remains to wake.
        for _ in 0..10_000 {
            let slot = q.push(Waiter::new(
                Unparker::new(dummy_task(), ctx.clone()),
                Arc::new(DirectPort),
            ));
            assert!(slot.take().is_some());
            assert_eq!(q.physical_len(), 0);
        }
        assert!(!q.wake_one(), "no residue to wake");
        assert_eq!(ctx.ready_count(), 0);

        // A batch armed together then cancelled together — the shape of a
        // disconnect storm against a shutdown Signal.
        let slots: Vec<_> = (0..10_000)
            .map(|_| {
                q.push(Waiter::new(
                    Unparker::new(dummy_task(), ctx.clone()),
                    Arc::new(DirectPort),
                ))
            })
            .collect();
        assert_eq!(q.len(), 10_000);
        for s in &slots {
            assert!(s.take().is_some());
        }
        assert_eq!(q.physical_len(), 0, "mass cancel leaves zero entries");
        assert_eq!(q.len(), 0);
        // Order tombstones are swept by subsequent traffic, and a live
        // push/wake still works.
        let _slot = q.push(Waiter::new(
            Unparker::new(dummy_task(), ctx.clone()),
            Arc::new(DirectPort),
        ));
        assert!(q.wake_one());
        assert_eq!(ctx.ready_count(), 1);
    }

    #[test]
    fn wait_q_double_take_is_stale() {
        let ctx = noop_ctx();
        let mut q = WaitQ::new();
        let slot = q.push(Waiter::new(
            Unparker::new(dummy_task(), ctx.clone()),
            Arc::new(DirectPort),
        ));
        assert!(slot.take().is_some());
        assert!(slot.take().is_none(), "second take sees a stale key");
        // The freed slot is recycled; the old key must not touch the new
        // tenant.
        let slot2 = q.push(Waiter::new(
            Unparker::new(dummy_task(), ctx.clone()),
            Arc::new(DirectPort),
        ));
        assert!(slot.take().is_none());
        assert_eq!(q.physical_len(), 1);
        assert!(slot2.take().is_some());
    }

    #[test]
    fn accept_queue_spent_churn_leaves_bounded_residue() {
        let ctx = noop_ctx();
        let q: AcceptQueue<u32> = AcceptQueue::new();
        for _ in 0..10_000 {
            let u = Unparker::new(dummy_task(), ctx.clone());
            q.register(Waiter::new(u.clone(), Arc::new(DirectPort)));
            u.unpark();
        }
        assert_eq!(q.waiter_count(), 0);
        assert!(q.physical_waiters() <= 2 * PRUNE_FLOOR);
    }

    #[test]
    fn fd_ids_are_unique() {
        struct Never;
        impl Pollable for Never {
            fn register(&self, _: Interest, _: Waiter) {}
        }
        let a = Fd::new(Arc::new(Never));
        let b = Fd::new(Arc::new(Never));
        assert_ne!(a.id(), b.id());
        assert!(format!("{a:?}").starts_with("Fd("));
    }
}
