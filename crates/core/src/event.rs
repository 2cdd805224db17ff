//! First-class composable events: a Concurrent-ML-style `Event` layer over
//! the park protocol.
//!
//! The paper's thesis is that threads and events are two views of one
//! abstraction — but a *blocking call* commits a thread to exactly one wait
//! at a time, so "receive OR time out OR shut down" cannot be written
//! without helper threads. CML's answer (Reppy; Chaudhuri, *Event
//! Synchronization by Lightweight Message Passing*) is to reify the
//! blocking operation as a value:
//!
//! * an [`Event<A>`] *describes* a synchronization producing an `A`;
//! * [`choose`] composes alternatives, [`wrap`] maps the result,
//!   [`guard`] defers construction until synchronization time;
//! * [`sync`] converts the description back into the thread view:
//!   `sync(e) : ThreadM<A>` blocks until one alternative commits.
//!
//! The equation `blocking_op() == sync(blocking_op_evt())` is how the
//! retrofitted primitives ([`Chan`](crate::sync::Chan),
//! [`SyncChan`](crate::sync::SyncChan), [`MVar`](crate::sync::MVar)) define
//! their blocking methods.
//!
//! # Lowering onto `sys_park`
//!
//! Synchronization runs entirely as library code on the scheduler-extension
//! interface ([`sys_park`]), exactly as the paper
//! claims new primitives should (§4.7). `sync`:
//!
//! 1. in one [`sys_nbio`] step, forces the guards into a flat branch list
//!    and **polls** every branch in declaration order — the first ready
//!    branch commits (the stable tie-break that makes `choose`
//!    deterministic under the simulator). An event that is already ready
//!    costs this one step and no park;
//! 2. only if none is ready, **parks once**, handing each branch a clone
//!    of the thread's one-shot [`Unparker`] — the shared commit token.
//!    Branches register with their devices (wait queue, timer wheel,
//!    readiness table); whichever fires first wins the token, the rest
//!    find it spent;
//! 3. on wake, polls again and **withdraws the losing registrations** — a
//!    queued waiter leaves its device's [`WaitTable`] through
//!    [`Pollable::deregister`], an armed timer is disarmed (eagerly under
//!    simulation, so an abandoned timeout cannot extend virtual time), and
//!    a consumed wakeup that ended up committing elsewhere is passed on to
//!    the device's next waiter ([`Pollable::pass_on`]), so no wakeup is
//!    ever lost and no entry outlives its `sync`. If nothing is ready
//!    after all, it parks again (step 2).
//!
//! The park is provisionally charged as [`WaitKind::Lock`]; the winning
//! branch reclassifies the episode ([`Unparker::reclassify`]) so blocked
//! time lands in the taxonomy class of what actually ended the wait:
//! a [`timeout_evt`] win is timer wait, a [`readiness_evt`] win is I/O
//! wait, a channel win is lock wait.
//!
//! # Affine events
//!
//! An `Event<A>` is an affine value: it is consumed by [`sync`] (results
//! may be moved out of closures at commit time). A *reusable* event is a
//! function producing events — which is also what gives [`guard`] its
//! meaning: the guard thunk runs anew at each synchronization.
//!
//! # Example
//!
//! ```
//! use eveth_core::event::{choose, sync, timeout_evt};
//! use eveth_core::sync::Chan;
//! use eveth_core::time::MILLIS;
//!
//! let ch: Chan<u32> = Chan::new();
//! // Receive, but give up after 5 ms:
//! let recv_or_timeout = choose(vec![
//!     ch.read_evt().wrap(Some),
//!     timeout_evt(5 * MILLIS).wrap(|()| None),
//! ]);
//! let m = sync(recv_or_timeout); // : ThreadM<Option<u32>>
//! # let _ = m;
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex as PlMutex;

use crate::engine::{TimerHandle, WaitKind};
use crate::reactor::{EventPort, Fd, Interest, Pollable, Unparker, WaitKey, WaitTable, Waiter};
use crate::syscall::{sys_nbio, sys_park, sys_time};
use crate::thread::ThreadM;
use crate::time::Nanos;

// ---------------------------------------------------------------------------
// Branches: the primitive alternatives an event flattens into.
// ---------------------------------------------------------------------------

/// One primitive alternative of an event: how to try committing without
/// blocking, how to register for a wakeup, and which wait class a win
/// should be attributed to.
///
/// Primitive authors construct branches with [`Branch::new`]; combinators
/// ([`choose`], [`wrap`], [`guard`]) only rearrange and map them.
pub struct Branch<A> {
    kind: WaitKind,
    poll: Box<dyn FnMut(Nanos) -> Option<A> + Send>,
    register: Box<dyn FnMut(&Unparker) -> Registration + Send>,
    /// Commit observer: runs exactly once, when the synchronization
    /// commits a *different* branch. This is the hook [`with_nack`]
    /// builds negative acknowledgements from; plain branches carry
    /// `None`.
    abandon: Option<Box<dyn FnOnce() + Send>>,
}

impl<A: Send + 'static> Branch<A> {
    /// Builds a branch from its three ingredients.
    ///
    /// * `poll(now)` — attempt to commit atomically (take the item, observe
    ///   the deadline, …); called with the current time, in branch order,
    ///   possibly many times across park rounds.
    /// * `register(unparker)` — store a waiter keyed to the shared commit
    ///   token with the branch's device, *checking the condition under the
    ///   device lock* and waking immediately if it already holds (the
    ///   standard lost-wakeup discipline); returns how to withdraw it —
    ///   usually [`Registration::wait`]. Use [`branch_waiter`] to build the
    ///   waiter so a win reclassifies the park to `kind`.
    /// * `kind` — the wait-taxonomy class charged when this branch ends a
    ///   blocked episode.
    pub fn new(
        kind: WaitKind,
        poll: impl FnMut(Nanos) -> Option<A> + Send + 'static,
        register: impl FnMut(&Unparker) -> Registration + Send + 'static,
    ) -> Self {
        Branch {
            kind,
            poll: Box::new(poll),
            register: Box::new(register),
            abandon: None,
        }
    }

    fn map<B: Send + 'static>(self, f: Arc<dyn Fn(A) -> B + Send + Sync>) -> Branch<B> {
        let mut poll = self.poll;
        Branch {
            kind: self.kind,
            poll: Box::new(move |now| poll(now).map(|a| f(a))),
            register: self.register,
            abandon: self.abandon,
        }
    }
}

impl<A> fmt::Debug for Branch<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Branch(kind={:?})", self.kind)
    }
}

/// How to undo one branch's park-round registration: data, not a closure,
/// so withdrawing costs no allocation per round.
///
/// Constructed by the branch's `register` closure; consumed by `sync` once
/// the round is decided.
pub struct Registration(Undo);

enum Undo {
    /// Nothing was queued.
    Nothing,
    /// An entry in `dev`'s table for `interest`. `on_win` is false for a
    /// branch that can commit only through the entry's own wake, which
    /// already removed it.
    Entry {
        dev: Arc<dyn Pollable>,
        interest: Interest,
        key: WaitKey,
        on_win: bool,
    },
    /// An armed timeout.
    Timer(TimerHandle),
}

impl Registration {
    /// A registration with nothing to undo — for branches that woke the
    /// waiter immediately, or that never register at all.
    pub fn none() -> Self {
        Registration(Undo::Nothing)
    }

    /// Registers `waiter` with `dev` for `interest`. If the round commits
    /// another branch, the entry is withdrawn; if the device had already
    /// consumed it, the wake is passed on to its next waiter
    /// ([`Pollable::pass_on`]). A waiter woken at once leaves
    /// [`Registration::none`].
    pub fn wait(dev: Arc<dyn Pollable>, interest: Interest, waiter: Waiter) -> Self {
        Self::entry(dev, interest, waiter, true)
    }

    fn entry(dev: Arc<dyn Pollable>, interest: Interest, waiter: Waiter, on_win: bool) -> Self {
        match dev.register(interest, waiter) {
            Some(key) => Registration(Undo::Entry {
                dev,
                interest,
                key,
                on_win,
            }),
            None => Self::none(),
        }
    }

    fn cancel(self, lost: bool) {
        match self.0 {
            Undo::Nothing => {}
            Undo::Entry {
                dev,
                interest,
                key,
                on_win,
            } => {
                if !lost && !on_win {
                    return;
                }
                let queued = dev.deregister(interest, key);
                if lost && !queued {
                    dev.pass_on(interest);
                }
            }
            Undo::Timer(timer) => timer.cancel(),
        }
    }
}

impl fmt::Debug for Registration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.0 {
            Undo::Nothing => "Registration(none)",
            Undo::Entry { .. } => "Registration(entry)",
            Undo::Timer(_) => "Registration(timer)",
        })
    }
}

/// The port a branch's waiter wakes through: reclassifies the park
/// episode to the branch's wait class, then unparks inline. It holds
/// nothing but the class, so [`branch_waiter`] shares one port per
/// [`WaitKind`], the way [`DirectPort::shared`](crate::reactor::DirectPort::shared)
/// shares its one.
struct BranchPort(WaitKind);

impl EventPort for BranchPort {
    fn notify(&self, unparker: Unparker) {
        unparker.reclassify(self.0);
        unparker.unpark();
    }
}

/// Builds the waiter a branch hands to its device: a clone of the shared
/// commit token that, when woken, re-attributes the blocked episode to
/// `kind` and then unparks directly. Primitive authors use this inside
/// `register` closures.
pub fn branch_waiter(unparker: &Unparker, kind: WaitKind) -> Waiter {
    const KINDS: [WaitKind; 3] = [WaitKind::Io, WaitKind::Lock, WaitKind::Timer];
    static PORTS: OnceLock<[Arc<dyn EventPort>; 3]> = OnceLock::new();
    let ports = PORTS.get_or_init(|| KINDS.map(|k| Arc::new(BranchPort(k)) as _));
    let i = KINDS
        .iter()
        .position(|&k| k == kind)
        .expect("every kind has a port");
    Waiter::new(unparker.clone(), Arc::clone(&ports[i]))
}

/// The port of one [`readiness_evt`] sync, reused by every park round: it
/// latches the device's wake as the branch's commit signal (even when the
/// thread was already woken elsewhere), reclassifies the episode as I/O
/// wait and relays the unparker to the runtime's event port.
///
/// A latch names the round it is for: `round` holds the id of the
/// unparker of the round in flight (0 once that round is polled), `latch`
/// the id of the unparker whose wake latched, and the branch commits only
/// when the two agree. A wake that a device hands out late, after its
/// round's re-poll, therefore commits no later round.
struct ReadinessPort {
    round: AtomicUsize,
    latch: AtomicUsize,
}

impl ReadinessPort {
    /// Starts the round parked on `u`: clears the latch, then names the
    /// round.
    fn arm(&self, u: &Unparker) {
        self.latch.store(0, Ordering::SeqCst);
        self.round.store(u.id(), Ordering::SeqCst);
    }

    /// Did the round in flight's own wake latch? Polling ends the round:
    /// a wake after this belongs to no round.
    fn fired(&self) -> bool {
        let round = self.round.swap(0, Ordering::SeqCst);
        round != 0 && self.latch.load(Ordering::SeqCst) == round
    }
}

impl EventPort for ReadinessPort {
    fn notify(&self, unparker: Unparker) {
        let id = unparker.id();
        if id == self.round.load(Ordering::SeqCst) {
            self.latch.store(id, Ordering::SeqCst);
        }
        unparker.reclassify(WaitKind::Io);
        unparker.runtime_ctx().event_port().notify(unparker);
    }
}

// ---------------------------------------------------------------------------
// Events and combinators.
// ---------------------------------------------------------------------------

type BuildFn<A> = Box<dyn FnOnce(Nanos, &mut Vec<Branch<A>>) + Send>;

/// A first-class synchronization producing an `A` when [`sync`]ed.
///
/// See the [module docs](self) for the combinator algebra and the lowering
/// onto the park protocol.
pub struct Event<A> {
    build: BuildFn<A>,
}

impl<A: Send + 'static> Event<A> {
    /// Builds an event from a branch-collection function, called at
    /// synchronization time with the sync's start time. This is the
    /// primitive-author interface; [`Event::from_branch`] covers the
    /// single-branch case.
    pub fn from_fn(build: impl FnOnce(Nanos, &mut Vec<Branch<A>>) + Send + 'static) -> Self {
        Event {
            build: Box::new(build),
        }
    }

    /// An event with exactly one primitive branch.
    pub fn from_branch(branch: Branch<A>) -> Self {
        Event::from_fn(move |_t0, out| out.push(branch))
    }

    /// Post-composition: an event that commits when `self` commits and
    /// yields `f` of the result (CML's `wrap`). Also available as the free
    /// function [`wrap`].
    pub fn wrap<B: Send + 'static>(self, f: impl Fn(A) -> B + Send + Sync + 'static) -> Event<B> {
        let f: Arc<dyn Fn(A) -> B + Send + Sync> = Arc::new(f);
        Event::from_fn(move |t0, out| {
            let mut inner = Vec::new();
            (self.build)(t0, &mut inner);
            out.extend(inner.into_iter().map(|b| b.map(Arc::clone(&f))));
        })
    }

    /// Binary choice: `self` or `other`, whichever is ready first
    /// (`self` wins ties). Equivalent to `choose(vec![self, other])`.
    pub fn or(self, other: Event<A>) -> Event<A> {
        choose(vec![self, other])
    }
}

impl<A> fmt::Debug for Event<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Event(..)")
    }
}

/// An event that is always ready, committing immediately with `v` — CML's
/// `alwaysEvt`. Useful as a default arm of a [`choose`].
pub fn always<A: Send + 'static>(v: A) -> Event<A> {
    let mut slot = Some(v);
    Event::from_fn(move |_t0, out| {
        out.push(Branch::new(
            WaitKind::Lock,
            move |_now| slot.take(),
            |_u| Registration::none(),
        ));
    })
}

/// An event that never becomes ready — CML's `neverEvt`, the identity of
/// [`choose`]. Synchronizing on it alone blocks forever (the simulator
/// reports the deadlock).
pub fn never<A: Send + 'static>() -> Event<A> {
    Event::from_fn(|_t0, _out| {})
}

/// External choice over `events` (CML's `choose`): commits exactly one
/// alternative. When several are ready at the same instant, the earliest
/// in the list wins — a stable tie-break, so the resolution is
/// deterministic under the simulator. Nested `choose`s flatten.
pub fn choose<A: Send + 'static>(events: Vec<Event<A>>) -> Event<A> {
    Event::from_fn(move |t0, out| {
        for ev in events {
            (ev.build)(t0, out);
        }
    })
}

/// Maps an event's result through `f` — the free-function spelling of
/// [`Event::wrap`].
pub fn wrap<A: Send + 'static, B: Send + 'static>(
    ev: Event<A>,
    f: impl Fn(A) -> B + Send + Sync + 'static,
) -> Event<B> {
    ev.wrap(f)
}

/// Defers event construction to synchronization time (CML's `guard`): the
/// thunk runs anew every time an event built from it is synchronized, so
/// it can allocate fresh state, read the current configuration, or send a
/// request whose reply the returned event awaits.
pub fn guard<A: Send + 'static>(f: impl FnOnce() -> Event<A> + Send + 'static) -> Event<A> {
    Event::from_fn(move |t0, out| (f().build)(t0, out))
}

/// CML's negative acknowledgements: like [`guard`], but the thunk also
/// receives a *nack event* that fires if — and only if — the
/// synchronization commits a **different** alternative of the enclosing
/// [`choose`].
///
/// This is the cancellation primitive of request/reply protocols: the
/// guard sends a request carrying the nack event alongside the
/// reply-channel; if the client's `choose` commits elsewhere (a timeout,
/// a shutdown broadcast, a faster replica), the server syncs on the nack
/// and abandons the work instead of replying into the void.
///
/// Fires at commit time even when the winner was ready on the very first
/// poll (no park round), and never fires when one of the wrapped event's
/// own alternatives is the one that commits. The nack is a
/// [`Signal`]-backed event, so any number of threads may wait on it and
/// it stays fired forever once abandoned.
///
/// # Example
///
/// ```
/// use eveth_core::event::{choose, sync, timeout_evt, with_nack};
/// use eveth_core::sync::Chan;
/// use eveth_core::time::MILLIS;
///
/// let reply: Chan<u32> = Chan::new();
/// let ev = choose(vec![
///     with_nack({
///         let reply = reply.clone();
///         move |nack| {
///             // (send the request + nack to a server here)
///             let _cancelled = nack; // server syncs on this
///             reply.read_evt().wrap(Some)
///         }
///     }),
///     timeout_evt(5 * MILLIS).wrap(|()| None),
/// ]);
/// let m = sync(ev); // : ThreadM<Option<u32>> — timeout ⇒ nack fires
/// # let _ = m;
/// ```
pub fn with_nack<A: Send + 'static>(
    f: impl FnOnce(Event<()>) -> Event<A> + Send + 'static,
) -> Event<A> {
    Event::from_fn(move |t0, out| {
        let nack = Signal::new();
        let inner = f(nack.wait_evt());
        let mut group = Vec::new();
        (inner.build)(t0, &mut group);
        if group.is_empty() {
            // The wrapped event is `never`: it cannot win, so any commit
            // abandons it. A never-ready sentinel branch carries the hook.
            out.push(Branch {
                kind: WaitKind::Lock,
                poll: Box::new(|_now| None),
                register: Box::new(|_u| Registration::none()),
                abandon: Some(Box::new(move || nack.fire())),
            });
            return;
        }
        // One nack per with_nack, shared by every alternative the wrapped
        // event flattens into: it fires only if NONE of them committed.
        // `sync` polls in declaration order and the first `Some` commits,
        // so a poll yielding a value marks the whole group as the winner
        // before the abandon hooks of its sibling branches run.
        let committed = Arc::new(AtomicBool::new(false));
        for b in group {
            let sig = nack.clone();
            let won = Arc::clone(&committed);
            let flag = Arc::clone(&committed);
            let mut poll = b.poll;
            let nested = b.abandon; // a with_nack nested inside this one
            out.push(Branch {
                kind: b.kind,
                poll: Box::new(move |now| {
                    let r = poll(now);
                    if r.is_some() {
                        flag.store(true, Ordering::SeqCst);
                    }
                    r
                }),
                register: b.register,
                abandon: Some(Box::new(move || {
                    if let Some(hook) = nested {
                        hook();
                    }
                    if !won.load(Ordering::SeqCst) {
                        sig.fire();
                    }
                })),
            });
        }
    })
}

/// An event that becomes ready `dur` nanoseconds after the synchronization
/// starts (virtual time under simulation). The deadline is armed on the
/// runtime's timer wheel only while the thread is actually parked, and a
/// losing timeout is disarmed eagerly — no abandoned deadline lingers to
/// stretch a simulation's virtual makespan. A win is charged as
/// [`WaitKind::Timer`].
pub fn timeout_evt(dur: Nanos) -> Event<()> {
    Event::from_fn(move |t0, out| {
        let deadline = t0.saturating_add(dur);
        out.push(Branch::new(
            WaitKind::Timer,
            move |now| (now >= deadline).then_some(()),
            move |u| {
                let ctx = u.runtime_ctx();
                let remaining = deadline.saturating_sub(ctx.now());
                let waiter = branch_waiter(u, WaitKind::Timer);
                Registration(Undo::Timer(ctx.timer_wake(remaining, waiter)))
            },
        ));
    })
}

/// An event that becomes ready when `interest` is (or becomes) ready on
/// `fd` — the event-valued form of
/// [`sys_epoll_wait`](crate::syscall::sys_epoll_wait), so socket and pipe
/// readiness can race channels, timers and shutdown signals in one
/// [`choose`]. A win is charged as [`WaitKind::Io`]. Readiness is a
/// level-style hint: after committing, perform the actual non-blocking
/// I/O (which may still report would-block if another consumer drained
/// the device first).
pub fn readiness_evt(fd: &Fd, interest: Interest) -> Event<()> {
    let fd = fd.clone();
    Event::from_fn(move |_t0, out| {
        // Readiness has no synchronous probe; the port's latch turns the
        // device's wake (including the immediate wake `Pollable::register`
        // performs when the condition already holds) into a pollable
        // commit. One port per sync, re-armed by every park round.
        let port = Arc::new(ReadinessPort {
            round: AtomicUsize::new(0),
            latch: AtomicUsize::new(0),
        });
        let latch = Arc::clone(&port);
        out.push(Branch::new(
            WaitKind::Io,
            move |_now| latch.fired().then_some(()),
            move |u| {
                port.arm(u);
                let waiter = Waiter::new(u.clone(), Arc::clone(&port) as Arc<dyn EventPort>);
                // A loser withdraws its entry. A win came through the
                // entry's own wake, which removed it, so the winner takes
                // no device lock.
                Registration::entry(Arc::clone(fd.device()), interest, waiter, false)
            },
        ));
    })
}

/// Synchronizes on an event, converting the event view back into the
/// thread view: blocks the monadic thread until one alternative commits
/// and yields its (wrapped) result.
///
/// This is the only place events touch the scheduler, and it does so
/// purely through [`sys_time`], [`sys_nbio`] and [`sys_park`] — the
/// generalized multi-registration park described in the
/// [module docs](self). The `sys_nbio` that forces the guards also runs
/// the first poll, so an event that is already ready commits in that one
/// step; only a miss builds the shared state of the park rounds.
pub fn sync<A: Send + 'static>(ev: Event<A>) -> ThreadM<A> {
    sys_time().bind(move |t0| {
        sys_nbio(move || {
            // Force guards and collect the flat branch list: one list per
            // synchronization, so guard thunks run anew each time.
            let mut branches = Vec::new();
            (ev.build)(t0, &mut branches);
            match commit(&mut branches, t0) {
                Some((_, v)) => Ok(v),
                None => Err(branches),
            }
        })
        // A closure per poll site, not one helper shared with
        // `park_round`: the shared helper measured one more heap
        // allocation per connection.
        .bind(|first| match first {
            Ok(v) => ThreadM::pure(v),
            Err(branches) => park_round(Arc::new(PlMutex::new(Round {
                branches,
                regs: Vec::new(),
            }))),
        })
    })
}

/// Polls `branches` in declaration order — the deterministic tie-break:
/// the first ready branch commits. On a commit, every other branch's
/// abandon hook runs (the hook behind [`with_nack`]'s negative
/// acknowledgement), whether or not a park round ever happened.
fn commit<A>(branches: &mut [Branch<A>], now: Nanos) -> Option<(usize, A)> {
    let (wi, v) = branches
        .iter_mut()
        .enumerate()
        .find_map(|(i, b)| (b.poll)(now).map(|v| (i, v)))?;
    for (i, b) in branches.iter_mut().enumerate() {
        if i != wi {
            if let Some(hook) = b.abandon.take() {
                hook();
            }
        }
    }
    Some((wi, v))
}

/// A synchronization that missed its first poll: its branches, and the
/// registrations of the park round in flight (index `i` undoes branch
/// `i`; a round that woke early holds fewer). Shared behind a lock: the
/// registering `sys_park` closure and the re-poll after the wake may run
/// on different workers.
struct Round<A> {
    branches: Vec<Branch<A>>,
    regs: Vec<Registration>,
}

/// One park round and its re-poll, repeated until a branch commits.
///
/// Parks once, registering every branch with a clone of the one-shot
/// token. A registration may wake immediately (its condition held at
/// registration time); later branches then skip registering — the
/// re-poll decides the winner either way. The re-poll retires the round:
/// losing branches withdraw their waiters and timers, and a consumed
/// wakeup that committed elsewhere is batoned onward; the winner's
/// consumed wakeup is simply its own. While parked, the thread holds the
/// `Round` and one continuation frame that owns it.
fn park_round<A: Send + 'static>(round: Arc<PlMutex<Round<A>>>) -> ThreadM<A> {
    let fill = Arc::clone(&round);
    sys_park(move |u| {
        let Round { branches, regs } = &mut *fill.lock();
        for b in branches.iter_mut() {
            regs.push((b.register)(&u));
            if u.is_spent() {
                break;
            }
        }
    })
    .bind(move |()| {
        sys_time().bind(move |now| {
            sys_nbio(move || {
                let won = {
                    let Round { branches, regs } = &mut *round.lock();
                    let won = commit(branches, now);
                    let winner = won.as_ref().map(|(i, _)| *i);
                    for (i, reg) in regs.drain(..).enumerate() {
                        reg.cancel(Some(i) != winner);
                    }
                    won
                };
                match won {
                    Some((_, v)) => Ok(v),
                    None => Err(round),
                }
            })
            .bind(|polled| match polled {
                Ok(v) => ThreadM::pure(v),
                Err(round) => park_round(round),
            })
        })
    })
}

// ---------------------------------------------------------------------------
// Signal: a one-shot broadcast (shutdown flags).
// ---------------------------------------------------------------------------

struct SigState {
    fired: bool,
    waiters: WaitTable,
    rid: u64,
}

/// A signal's one wait condition is "fired"; `fire` wakes every waiter,
/// so a loser has no wake to pass on.
impl Pollable for PlMutex<SigState> {
    fn register(&self, _interest: Interest, waiter: Waiter) -> Option<WaitKey> {
        let mut s = self.lock();
        if s.fired {
            let rid = s.rid;
            drop(s);
            let _scope = crate::check::wake_scope(rid);
            waiter.wake();
            return None;
        }
        crate::check::op(
            s.rid,
            crate::check::ResKind::Signal,
            crate::check::OpKind::BlockTake,
            [0, 0],
        );
        Some(s.waiters.push(waiter))
    }

    fn deregister(&self, _interest: Interest, key: WaitKey) -> bool {
        self.lock().waiters.withdraw(key)
    }
}

/// A one-shot broadcast flag with an event view — the "graceful shutdown"
/// primitive: any number of threads [`choose`] over
/// [`wait_evt`](Signal::wait_evt) alongside their normal work, and one
/// [`fire`](Signal::fire) releases them all. Once fired, the event is
/// ready forever.
#[derive(Clone)]
pub struct Signal {
    st: Arc<PlMutex<SigState>>,
}

impl Signal {
    /// A new, unfired signal.
    pub fn new() -> Self {
        Signal {
            st: Arc::new(PlMutex::new(SigState {
                fired: false,
                waiters: WaitTable::new(),
                rid: crate::check::new_rid(),
            })),
        }
    }

    /// Fires the signal, waking every waiter (idempotent; callable from
    /// any context, including plain OS threads).
    pub fn fire(&self) {
        let mut st = self.st.lock();
        st.fired = true;
        crate::check::op(
            st.rid,
            crate::check::ResKind::Signal,
            crate::check::OpKind::Publish,
            [1, 0],
        );
        let _scope = crate::check::wake_scope(st.rid);
        st.waiters.wake_all();
    }

    /// True once [`Signal::fire`] has run.
    pub fn is_fired(&self) -> bool {
        self.st.lock().fired
    }

    /// An event ready once the signal has fired. A win is charged as
    /// [`WaitKind::Lock`] (it is a synchronization wait).
    pub fn wait_evt(&self) -> Event<()> {
        let st = Arc::clone(&self.st);
        Event::from_fn(move |_t0, out| {
            let poll_st = Arc::clone(&st);
            out.push(Branch::new(
                WaitKind::Lock,
                move |_now| poll_st.lock().fired.then_some(()),
                move |u| {
                    let dev = Arc::clone(&st) as Arc<dyn Pollable>;
                    Registration::wait(dev, Interest::Read, branch_waiter(u, WaitKind::Lock))
                },
            ));
        })
    }

    /// Blocks until the signal fires: `sync(self.wait_evt())`.
    pub fn wait(&self) -> ThreadM<()> {
        sync(self.wait_evt())
    }

    /// Registrations currently parked on this signal. A losing branch
    /// withdraws its entry, so churn against a never-firing signal (every
    /// session racing a shutdown broadcast it does not win) keeps this at
    /// the number of sessions parked now.
    pub fn waiter_count(&self) -> usize {
        self.st.lock().waiters.len()
    }
}

impl Default for Signal {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.st.lock();
        write!(
            f,
            "Signal(fired={}, waiters={})",
            st.fired,
            st.waiters.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use crate::sync::Chan;
    use crate::syscall::sys_fork;
    use crate::time::MILLIS;

    #[test]
    fn always_commits_immediately() {
        let rt = Runtime::builder().workers(1).build();
        assert_eq!(rt.block_on(sync(always(42))), 42);
        rt.shutdown();
    }

    /// Charged steps and parks of `block_on(m)` on `rt`.
    fn charged<T: Send + 'static>(rt: &Runtime, m: ThreadM<T>) -> (u64, u64) {
        let before = rt.stats();
        rt.block_on(m);
        let after = rt.stats();
        (after.steps - before.steps, after.parks - before.parks)
    }

    /// Charged steps and parks `m` costs beyond a bare
    /// `block_on(ThreadM::pure(()))`.
    fn cost_of<T: Send + 'static>(rt: &Runtime, m: ThreadM<T>) -> (u64, u64) {
        let (base_steps, base_parks) = charged(rt, ThreadM::pure(()));
        let (steps, parks) = charged(rt, m);
        (steps - base_steps, parks - base_parks)
    }

    #[test]
    fn a_ready_event_commits_in_one_step_without_parking() {
        let rt = Runtime::builder().workers(1).build();
        assert_eq!(cost_of(&rt, sync(always(1))), (1, 0), "always");
        let ch: Chan<u8> = Chan::new();
        ch.push_now(7);
        assert_eq!(cost_of(&rt, ch.read()), (1, 0), "read of a queued item");
        rt.shutdown();
    }

    #[test]
    fn a_read_on_an_empty_channel_parks_once() {
        let rt = Runtime::builder().workers(1).build();
        let ch: Chan<u8> = Chan::new();
        let tx = ch.clone();
        let m = crate::do_m! {
            sys_fork(crate::do_m! {
                crate::syscall::sys_sleep(MILLIS);
                tx.write(5)
            });
            ch.read()
        };
        assert_eq!(cost_of(&rt, m).1, 1);
        rt.shutdown();
    }

    #[test]
    fn wrap_maps_the_result() {
        let rt = Runtime::builder().workers(1).build();
        let v = rt.block_on(sync(always(6).wrap(|x| x * 7)));
        assert_eq!(v, 42);
        rt.shutdown();
    }

    #[test]
    fn choose_prefers_the_first_ready_branch() {
        let rt = Runtime::builder().workers(1).build();
        let v = rt.block_on(sync(choose(vec![always("a"), always("b")])));
        assert_eq!(v, "a");
        rt.shutdown();
    }

    #[test]
    fn choose_with_never_is_identity() {
        let rt = Runtime::builder().workers(1).build();
        let v = rt.block_on(sync(never::<u8>().or(always(9))));
        assert_eq!(v, 9);
        rt.shutdown();
    }

    #[test]
    fn timeout_vs_channel_channel_wins_when_written() {
        let rt = Runtime::builder().workers(2).build();
        let ch: Chan<&str> = Chan::new();
        let tx = ch.clone();
        let v = rt.block_on(crate::do_m! {
            sys_fork(tx.write("fast"));
            sync(choose(vec![
                ch.read_evt().wrap(Some),
                timeout_evt(200 * MILLIS).wrap(|()| None),
            ]))
        });
        assert_eq!(v, Some("fast"));
        rt.shutdown();
    }

    #[test]
    fn timeout_wins_on_a_silent_channel() {
        let rt = Runtime::builder().workers(2).build();
        let ch: Chan<u8> = Chan::new();
        let v = rt.block_on(sync(choose(vec![
            ch.read_evt().wrap(Some),
            timeout_evt(MILLIS).wrap(|()| None),
        ])));
        assert_eq!(v, None);
        rt.shutdown();
    }

    #[test]
    fn guard_runs_at_sync_time_not_construction() {
        use std::sync::atomic::AtomicU32;
        let runs = Arc::new(AtomicU32::new(0));
        let make = {
            let runs = Arc::clone(&runs);
            move || {
                let runs = Arc::clone(&runs);
                guard(move || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    always(1u8)
                })
            }
        };
        let ev = make();
        assert_eq!(runs.load(Ordering::SeqCst), 0, "guard is lazy");
        let rt = Runtime::builder().workers(1).build();
        rt.block_on(sync(ev));
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        rt.block_on(sync(make()));
        assert_eq!(runs.load(Ordering::SeqCst), 2, "re-evaluated per sync");
        rt.shutdown();
    }

    /// Runs one `choose([with_nack(...), timeout])` sync and reports
    /// (winner, nack_fired): the guard parks the nack event in a side slot
    /// and the test probes it afterwards by racing it against a short
    /// timeout.
    fn nack_probe(rt: &Runtime, prefill: Option<u8>) -> (Option<u8>, bool) {
        let ch: Chan<u8> = Chan::new();
        if let Some(v) = prefill {
            ch.push_now(v);
        }
        let parked: Arc<PlMutex<Option<Event<()>>>> = Arc::new(PlMutex::new(None));
        let slot = Arc::clone(&parked);
        let v = rt.block_on(sync(choose(vec![
            with_nack(move |nack| {
                *slot.lock() = Some(nack);
                ch.read_evt().wrap(Some)
            }),
            timeout_evt(MILLIS).wrap(|()| None),
        ])));
        let nack = parked.lock().take().expect("guard ran at sync time");
        let fired = rt.block_on(sync(choose(vec![
            nack.wrap(|()| true),
            timeout_evt(MILLIS).wrap(|()| false),
        ])));
        (v, fired)
    }

    #[test]
    fn with_nack_fires_only_on_abandonment() {
        let rt = Runtime::builder().workers(2).build();
        // Losing to the timeout fires the nack...
        let (v, fired) = nack_probe(&rt, None);
        assert_eq!(v, None);
        assert!(fired, "abandoned with_nack must fire its nack");
        // ...and winning does not.
        let (v, fired) = nack_probe(&rt, Some(7));
        assert_eq!(v, Some(7));
        assert!(!fired, "a committed with_nack must not be nacked");
        rt.shutdown();
    }

    /// A device that hands its first registration out as already taken,
    /// its wake still to come, and queues every later one.
    struct StaleWake {
        st: PlMutex<StaleSt>,
    }

    struct StaleSt {
        registrations: usize,
        handed_out: WaitTable,
        queued: WaitTable,
    }

    impl Pollable for StaleWake {
        fn register(&self, _interest: Interest, waiter: Waiter) -> Option<WaitKey> {
            let mut st = self.st.lock();
            st.registrations += 1;
            Some(if st.registrations == 1 {
                st.handed_out.push(waiter)
            } else {
                st.queued.push(waiter)
            })
        }

        fn deregister(&self, _interest: Interest, key: WaitKey) -> bool {
            let mut st = self.st.lock();
            st.registrations > 1 && st.queued.withdraw(key)
        }
    }

    #[test]
    fn a_stale_readiness_wake_commits_no_later_round() {
        let rt = Runtime::builder().workers(1).build();
        let dev = Arc::new(StaleWake {
            st: PlMutex::new(StaleSt {
                registrations: 0,
                handed_out: WaitTable::new(),
                queued: WaitTable::new(),
            }),
        });
        let fd = Fd::new(Arc::clone(&dev) as Arc<dyn Pollable>);
        let ch: Chan<u8> = Chan::new();
        let done: Chan<Option<u8>> = Chan::new();
        let (tx, stale, out) = (ch.clone(), Arc::clone(&dev), done.clone());
        let got = rt.block_on(crate::do_m! {
            sys_fork(sync(choose(vec![
                readiness_evt(&fd, Interest::Read).wrap(|()| None),
                ch.read_evt().wrap(Some),
            ]))
            .bind(move |v| out.write(v)));
            // One worker and a FIFO ready queue: each yield lets the sync
            // run until it parks again.
            crate::syscall::sys_yield();
            // Round 1: woken by a write whose item is taken back before
            // the re-poll, so nothing commits and round 2 registers.
            tx.write(1);
            tx.read();
            crate::syscall::sys_yield();
            // Round 1's entry is delivered late, during round 2.
            sys_nbio(move || stale.st.lock().handed_out.wake_all());
            tx.write(2);
            done.read()
        });
        let st = dev.st.lock();
        assert_eq!(st.registrations, 2);
        assert_eq!(
            (got, st.queued.len()),
            (Some(2), 0),
            "the channel write commits round 2, whose entry is withdrawn"
        );
        drop(st);
        rt.shutdown();
    }

    #[test]
    fn signal_broadcasts_to_all_waiters() {
        let rt = Runtime::builder().workers(2).build();
        let sig = Signal::new();
        let done: Chan<u8> = Chan::new();
        for i in 0..3u8 {
            let sig = sig.clone();
            let done = done.clone();
            rt.spawn(crate::do_m! {
                sig.wait();
                done.write(i)
            });
        }
        let sig2 = sig.clone();
        let got = rt.block_on(crate::do_m! {
            crate::syscall::sys_sleep(MILLIS);
            crate::syscall::sys_nbio(move || sig2.fire());
            let a <- done.read();
            let b <- done.read();
            let c <- done.read();
            ThreadM::pure((a, b, c))
        });
        let mut all = [got.0, got.1, got.2];
        all.sort_unstable();
        assert_eq!(all, [0, 1, 2]);
        assert!(sig.is_fired());
        assert_eq!(sig.waiter_count(), 0);
        rt.shutdown();
    }
}
