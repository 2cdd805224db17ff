//! The trace interpreter shared by every scheduler in the system.
//!
//! The paper's `worker_main` (Figure 11) is a loop that fetches a trace from
//! the ready queue, forces it, and performs the requested system call.
//! [`run_task`] is that loop's body, factored out so that the real SMP
//! runtime, the discrete-event simulator, and the kernel-thread cost model
//! can all interpret the *same* per-client programs — the Lauer–Needham
//! duality made executable. Mode-specific behaviour (queues, clocks, cost
//! accounting, event-loop plumbing) lives behind [`RuntimeCtx`].

use std::sync::Arc;

use crate::aio::AioCompletion;
use crate::exception::Exception;
use crate::reactor::{EventPort, Unparker, Waiter};
use crate::task::{Task, TaskId, TaskShell};
use crate::time::Nanos;
use crate::trace::{BlioJob, Trace};

/// The scheduler action categories that runtimes may meter.
///
/// The real runtime counts these in its statistics; the simulator
/// additionally charges virtual CPU time per kind according to its cost
/// model, which is how the NPTL-vs-monadic comparisons of Figures 17–19 are
/// produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostKind {
    /// One interpreted trace node (non-blocking work).
    Step,
    /// Thread creation (`SYS_FORK`).
    Fork,
    /// A scheduling switch between threads (yield, preemption).
    CtxSwitch,
    /// Registering interest with the epoll device.
    EpollRegister,
    /// Resuming a parked thread onto the ready queue.
    Wake,
    /// Submitting an asynchronous disk request.
    AioSubmit,
    /// Dispatching a job to the blocking-I/O pool.
    Blio,
    /// Parking on a scheduler-extension wait queue.
    Park,
    /// Arming a sleep timer.
    Sleep,
    /// Explicitly modelled CPU time (`sys_cpu`), in nanoseconds.
    Custom(Nanos),
}

/// Why a thread stopped running — the wait taxonomy behind the
/// simulator's blocked-time split.
///
/// Every blocking point in the system is one of these three: a readiness
/// wait on a pollable device (`sys_epoll_wait` — sockets, pipes), a
/// synchronization wait (`sys_park` — mutexes, channels, MVars, STM
/// `retry`), or an armed timer (`sys_sleep`). Keeping the classes apart is
/// what lets a report attribute latency: I/O wait is the network being
/// slow, lock wait is the application contending with itself, timer wait
/// is deliberate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitKind {
    /// Blocked on device readiness (`sys_epoll_wait`).
    Io,
    /// Blocked on a scheduler-extension wait queue (`sys_park`).
    Lock,
    /// Blocked on a timer (`sys_sleep`).
    Timer,
}

/// Cancellation handle for a timer armed with [`RuntimeCtx::timer_wake`].
///
/// Dropping the handle without calling [`cancel`](TimerHandle::cancel)
/// leaves the timer armed; firing a timer whose waiter was already woken
/// through another route is a no-op, so a leaked handle is safe — but the
/// event layer cancels losing timeout branches eagerly so abandoned
/// deadlines cannot keep a simulation's event heap alive (and its virtual
/// clock running) after the race is decided.
pub struct TimerHandle(Option<Box<dyn FnOnce() + Send>>);

impl TimerHandle {
    /// Wraps a runtime-specific cancellation action.
    pub fn new(cancel: impl FnOnce() + Send + 'static) -> Self {
        TimerHandle(Some(Box::new(cancel)))
    }

    /// A handle whose cancellation does nothing — for runtimes that
    /// discard expired registrations lazily (spent-waiter skip at expiry).
    pub fn noop() -> Self {
        TimerHandle(None)
    }

    /// Disarms the timer (best effort: the runtime may already have fired
    /// it, in which case the wake was delivered or fell on a spent waiter).
    pub fn cancel(mut self) {
        if let Some(f) = self.0.take() {
            f();
        }
    }
}

impl std::fmt::Debug for TimerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TimerHandle(cancellable={})", self.0.is_some())
    }
}

/// Services a scheduler needs from its runtime. One implementation exists
/// per execution mode (real, simulated, kernel-thread model).
pub trait RuntimeCtx: Send + Sync {
    /// Appends a runnable task to the ready queue.
    fn push_ready(&self, task: Task);
    /// Allocates a fresh thread id.
    fn next_tid(&self) -> TaskId;
    /// Records that a new thread `tid` exists (for liveness accounting and
    /// telemetry spans). `parent` is the forking thread when the spawn
    /// came from `SYS_FORK`, `None` for runtime-level spawns.
    fn task_spawned(&self, tid: TaskId, parent: Option<TaskId>);
    /// Records that a thread terminated normally.
    fn task_exited(&self, tid: TaskId);
    /// Records that a thread died with an uncaught exception.
    fn uncaught_exception(&self, tid: TaskId, e: Exception);
    /// Current time in nanoseconds since runtime start (virtual under
    /// simulation).
    fn now(&self) -> Nanos;
    /// Meters a scheduler action; see [`CostKind`].
    fn charge(&self, cost: CostKind);
    /// Delivery route for readiness and AIO completion events (paper
    /// Figure 16).
    fn event_port(&self) -> Arc<dyn EventPort>;
    /// Parks `task` until `dur` has elapsed.
    fn sleep(&self, dur: Nanos, task: Task);
    /// Hands a blocking job to the blocking-I/O pool (paper §4.6).
    fn submit_blio(&self, job: BlioJob, shell: TaskShell);
    /// Notes that the current task is blocking, and why: `WaitKind::Lock`
    /// for scheduler-extension parks (`sys_park` — mutexes, channels,
    /// MVars, STM `retry`), `WaitKind::Io` for readiness waits
    /// (`sys_epoll_wait`), `WaitKind::Timer` for sleeps. Paired with the
    /// `push_ready` that eventually resumes it, this lets a runtime
    /// account how long threads spend blocked — and attribute the wait to
    /// I/O, locking, or timers separately; the simulator uses it for the
    /// `io_wait_ns`/`lock_wait_ns` split in its report. Default: no-op.
    fn task_parked(&self, _tid: TaskId, _kind: WaitKind) {}
    /// Re-attributes the in-flight blocked episode of `tid` to `kind`.
    ///
    /// A multi-branch park (`event::choose`) blocks through one `sys_park`
    /// and is provisionally charged as [`WaitKind::Lock`]; when a branch
    /// wins the race it calls this (via
    /// [`Unparker::reclassify`](crate::reactor::Unparker::reclassify))
    /// just before the wake, so the episode lands in the winner's wait
    /// class — a timeout win is timer wait, a readiness win is I/O wait.
    /// Called only while `tid` is still parked. Default: no-op.
    fn task_wait_reclass(&self, _tid: TaskId, _kind: WaitKind) {}
    /// The thread named its telemetry span (`SYS_ANNOTATE`). Runtimes
    /// with an attached telemetry hub forward the name; the default
    /// drops it.
    fn task_annotate(&self, _tid: TaskId, _name: Arc<str>) {}
    /// Arms a one-shot timer that wakes `waiter` after `dur` — the
    /// unparker-based sibling of [`RuntimeCtx::sleep`], used by the event
    /// layer's `timeout_evt` so a deadline can *race* other wait sources
    /// instead of committing the whole thread to a sleep. Firing a spent
    /// waiter must be a no-op. The returned handle should cancel eagerly
    /// where the runtime's timer store supports it (the simulator must,
    /// so abandoned timeouts do not extend virtual time); a runtime that
    /// skips spent waiters at expiry may return [`TimerHandle::noop`].
    fn timer_wake(&self, dur: Nanos, waiter: Waiter) -> TimerHandle;
    /// The concurrency-check probe attached to this runtime, if any (see
    /// [`crate::check`]). [`run_task`] installs it as the current turn's
    /// observer so the synchronization primitives can report protocol
    /// events. Default: none — instrumentation stays fully inert.
    fn check_probe(&self) -> Option<Arc<dyn crate::check::Probe>> {
        None
    }
}

/// Interprets one scheduling turn of `task`: forces trace nodes and performs
/// the system calls they request, until the task blocks, terminates, yields,
/// or exhausts `slice` consecutive non-blocking steps (the paper runs each
/// thread "for a large number of steps before switching to another thread to
/// improve locality", §4.2).
pub fn run_task(ctx: &Arc<dyn RuntimeCtx>, mut task: Task, slice: usize) {
    // Observational only: the guard publishes (tid, probe) to the check
    // instrumentation for the duration of the turn and charges nothing,
    // so attaching a probe never perturbs schedules or virtual time.
    let _turn = crate::check::TurnGuard::enter(task.tid().0, ctx.check_probe());
    let mut node = task.force();
    let mut steps: usize = 0;
    loop {
        if steps >= slice {
            ctx.charge(CostKind::CtxSwitch);
            task.set_next(Box::new(move || node));
            ctx.push_ready(task);
            return;
        }
        match node {
            Trace::Ret => {
                ctx.task_exited(task.tid());
                return;
            }
            Trace::Nbio(f) => {
                ctx.charge(CostKind::Step);
                node = f();
                steps += 1;
            }
            Trace::Fork(child, parent) => {
                ctx.charge(CostKind::Fork);
                let tid = ctx.next_tid();
                ctx.task_spawned(tid, Some(task.tid()));
                ctx.push_ready(Task::from_thunk(tid, child));
                node = parent();
                steps += 1;
            }
            Trace::Yield(k) => {
                ctx.charge(CostKind::CtxSwitch);
                task.set_next(k);
                ctx.push_ready(task);
                return;
            }
            Trace::EpollWait(fd, interest, k) => {
                ctx.charge(CostKind::EpollRegister);
                ctx.task_parked(task.tid(), WaitKind::Io);
                task.set_next(k);
                let dev = Arc::clone(fd.device());
                let unparker = Unparker::new(task, Arc::clone(ctx));
                dev.register(interest, Waiter::new(unparker, ctx.event_port()));
                return;
            }
            Trace::AioRead(req, cont) => {
                ctx.charge(CostKind::AioSubmit);
                let (shell, _) = task.into_parts();
                let done = AioCompletion::new(shell, cont, Arc::clone(ctx), ctx.event_port());
                req.file.submit_read(req.offset, req.len, done);
                return;
            }
            Trace::AioWrite(req, cont) => {
                ctx.charge(CostKind::AioSubmit);
                let (shell, _) = task.into_parts();
                let done = AioCompletion::new(shell, cont, Arc::clone(ctx), ctx.event_port());
                req.file.submit_write(req.offset, req.data, done);
                return;
            }
            Trace::Blio(job) => {
                ctx.charge(CostKind::Blio);
                let (shell, _) = task.into_parts();
                ctx.submit_blio(job, shell);
                return;
            }
            Trace::Throw(e) => {
                ctx.charge(CostKind::Step);
                match task.shell_mut().pop_handler() {
                    Some(h) => {
                        node = h(e);
                        steps += 1;
                    }
                    None => {
                        ctx.uncaught_exception(task.tid(), e);
                        return;
                    }
                }
            }
            Trace::Catch { body, handler } => {
                ctx.charge(CostKind::Step);
                task.shell_mut().push_handler(handler);
                node = body();
                steps += 1;
            }
            Trace::CatchPop(k) => {
                task.shell_mut().pop_handler();
                node = k();
                steps += 1;
            }
            Trace::Sleep(dur, k) => {
                ctx.charge(CostKind::Sleep);
                ctx.task_parked(task.tid(), WaitKind::Timer);
                task.set_next(k);
                ctx.sleep(dur, task);
                return;
            }
            Trace::GetTime(f) => {
                node = f(ctx.now());
                steps += 1;
            }
            Trace::Cpu(dur, k) => {
                ctx.charge(CostKind::Custom(dur));
                node = k();
                steps += 1;
            }
            Trace::Park(register, k) => {
                ctx.charge(CostKind::Park);
                ctx.task_parked(task.tid(), WaitKind::Lock);
                task.set_next(k);
                let unparker = Unparker::new(task, Arc::clone(ctx));
                register(unparker);
                return;
            }
            Trace::Annotate(name, k) => {
                // Deliberately uncharged: naming a span must never move
                // the virtual clock (the recorder stays off the report
                // path). Still a step for slice accounting, so annotation
                // loops cannot wedge a scheduler turn.
                ctx.task_annotate(task.tid(), name);
                node = k();
                steps += 1;
            }
        }
    }
}

/// Spawns a monadic program as a new thread through a bare [`RuntimeCtx`] —
/// the hook device drivers (like the TCP stack's event loops) use to start
/// threads without holding a full runtime handle.
pub fn spawn_thread(ctx: &Arc<dyn RuntimeCtx>, m: crate::ThreadM<()>) -> TaskId {
    let tid = ctx.next_tid();
    ctx.task_spawned(tid, None);
    ctx.push_ready(Task::from_thread(tid, m));
    tid
}

/// Test-support runtime context: a single-threaded ready list with inline
/// timers and blocking jobs. Used by unit tests throughout the workspace
/// (and usable by downstream crates' tests); not a real scheduler.
pub mod testing {
    use super::*;
    use crate::reactor::DirectPort;
    use parking_lot::Mutex;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

    /// A [`RuntimeCtx`] that records everything and never blocks.
    #[derive(Debug)]
    pub struct CountingCtx {
        ready: Mutex<VecDeque<Task>>,
        next_tid: AtomicU64,
        live: AtomicI64,
        uncaught: Mutex<Vec<(TaskId, Exception)>>,
        exited: Mutex<Vec<TaskId>>,
        charges: Mutex<Vec<CostKind>>,
        clock: AtomicU64,
    }

    impl CountingCtx {
        /// Fresh empty context.
        pub fn new() -> Self {
            CountingCtx {
                ready: Mutex::new(VecDeque::new()),
                next_tid: AtomicU64::new(1),
                live: AtomicI64::new(0),
                uncaught: Mutex::new(Vec::new()),
                exited: Mutex::new(Vec::new()),
                charges: Mutex::new(Vec::new()),
                clock: AtomicU64::new(0),
            }
        }

        /// Number of tasks currently queued.
        pub fn ready_count(&self) -> usize {
            self.ready.lock().len()
        }

        /// Pops the next queued task, if any.
        pub fn pop_ready(&self) -> Option<Task> {
            self.ready.lock().pop_front()
        }

        /// Exceptions that escaped their threads.
        pub fn uncaught(&self) -> Vec<(TaskId, Exception)> {
            self.uncaught.lock().clone()
        }

        /// Threads that exited normally.
        pub fn exited(&self) -> Vec<TaskId> {
            self.exited.lock().clone()
        }

        /// All metered actions, in order.
        pub fn charges(&self) -> Vec<CostKind> {
            self.charges.lock().clone()
        }

        /// Currently live (spawned minus finished) threads.
        pub fn live(&self) -> i64 {
            self.live.load(Ordering::SeqCst)
        }

        /// Spawns a monadic program as a task on the ready list.
        pub fn spawn(self: &Arc<Self>, m: crate::ThreadM<()>) -> TaskId {
            let tid = self.next_tid();
            self.task_spawned(tid, None);
            self.ready.lock().push_back(Task::from_thread(tid, m));
            tid
        }

        /// Runs queued tasks round-robin until the ready list drains.
        /// Parked tasks woken by devices re-enter the list and keep running.
        pub fn run_all(self: &Arc<Self>, slice: usize) {
            let ctx: Arc<dyn RuntimeCtx> = Arc::clone(self) as Arc<dyn RuntimeCtx>;
            while let Some(t) = self.pop_ready() {
                run_task(&ctx, t, slice);
            }
        }
    }

    impl Default for CountingCtx {
        fn default() -> Self {
            Self::new()
        }
    }

    impl RuntimeCtx for CountingCtx {
        fn push_ready(&self, task: Task) {
            self.ready.lock().push_back(task);
        }
        fn next_tid(&self) -> TaskId {
            TaskId(self.next_tid.fetch_add(1, Ordering::Relaxed))
        }
        fn task_spawned(&self, _tid: TaskId, _parent: Option<TaskId>) {
            self.live.fetch_add(1, Ordering::SeqCst);
        }
        fn task_exited(&self, tid: TaskId) {
            self.live.fetch_sub(1, Ordering::SeqCst);
            self.exited.lock().push(tid);
        }
        fn uncaught_exception(&self, tid: TaskId, e: Exception) {
            self.live.fetch_sub(1, Ordering::SeqCst);
            self.uncaught.lock().push((tid, e));
        }
        fn now(&self) -> Nanos {
            self.clock.fetch_add(1, Ordering::Relaxed)
        }
        fn charge(&self, cost: CostKind) {
            self.charges.lock().push(cost);
        }
        fn event_port(&self) -> Arc<dyn EventPort> {
            Arc::new(DirectPort)
        }
        fn sleep(&self, _dur: Nanos, task: Task) {
            // Timers fire immediately in the test context.
            self.ready.lock().push_back(task);
        }
        fn timer_wake(&self, _dur: Nanos, waiter: Waiter) -> TimerHandle {
            // Like `sleep`, timers fire immediately in the test context.
            waiter.wake();
            TimerHandle::noop()
        }
        fn submit_blio(&self, job: BlioJob, shell: TaskShell) {
            let next = job();
            self.ready.lock().push_back(Task::from_parts(shell, next));
        }
    }

    /// Convenience constructor used across unit tests.
    pub fn noop_ctx() -> Arc<CountingCtx> {
        Arc::new(CountingCtx::new())
    }
}

#[cfg(test)]
mod tests {
    use super::testing::noop_ctx;
    use super::*;
    use crate::syscall::*;
    use crate::ThreadM;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn runs_to_completion_and_counts_exit() {
        let ctx = noop_ctx();
        let tid = ctx.spawn(ThreadM::pure(()));
        ctx.run_all(128);
        assert_eq!(ctx.exited(), vec![tid]);
        assert_eq!(ctx.live(), 0);
    }

    #[test]
    fn fork_runs_both_branches() {
        static N: AtomicU64 = AtomicU64::new(0);
        let ctx = noop_ctx();
        ctx.spawn(crate::do_m! {
            sys_fork(sys_nbio(|| { N.fetch_add(1, Ordering::SeqCst); }));
            sys_nbio(|| { N.fetch_add(10, Ordering::SeqCst); })
        });
        ctx.run_all(128);
        assert_eq!(N.load(Ordering::SeqCst), 11);
        assert_eq!(ctx.live(), 0);
    }

    #[test]
    fn slice_preempts_long_nbio_runs() {
        let ctx = noop_ctx();
        let counter = std::sync::Arc::new(AtomicU64::new(0));
        let c = counter.clone();
        ctx.spawn(crate::loop_m(0u32, move |i| {
            let c = c.clone();
            sys_nbio(move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .map(move |_| {
                if i < 9 {
                    crate::Loop::Continue(i + 1)
                } else {
                    crate::Loop::Break(())
                }
            })
        }));
        // Slice of 3 forces several requeues; work still completes.
        ctx.run_all(3);
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        let switches = ctx
            .charges()
            .iter()
            .filter(|c| matches!(c, CostKind::CtxSwitch))
            .count();
        assert!(switches >= 3, "expected preemptions, got {switches}");
    }

    #[test]
    fn throw_without_handler_is_uncaught() {
        let ctx = noop_ctx();
        let tid = ctx.spawn(sys_throw::<()>("boom"));
        ctx.run_all(128);
        let u = ctx.uncaught();
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].0, tid);
        assert_eq!(u[0].1.message(), "boom");
        assert_eq!(ctx.live(), 0);
    }

    #[test]
    fn catch_handles_and_continues() {
        static OK: AtomicU64 = AtomicU64::new(0);
        let ctx = noop_ctx();
        ctx.spawn(crate::do_m! {
            let v <- sys_catch(sys_throw::<u64>("x"), |_e| ThreadM::pure(7u64));
            sys_nbio(move || { OK.store(v, Ordering::SeqCst); })
        });
        ctx.run_all(128);
        assert!(ctx.uncaught().is_empty());
        assert_eq!(OK.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn yield_requeues_at_back() {
        let order = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let ctx = noop_ctx();
        for name in ["a", "b"] {
            let order = order.clone();
            ctx.spawn(crate::do_m! {
                sys_nbio({ let o = order.clone(); move || o.lock().push(format!("{name}1")) });
                sys_yield();
                sys_nbio(move || order.lock().push(format!("{name}2")))
            });
        }
        ctx.run_all(1);
        let log = order.lock().clone();
        // With slice=1 each thread runs one step then requeues: strict
        // round-robin interleaving.
        assert_eq!(log, vec!["a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn park_then_unpark_resumes() {
        static DONE: AtomicU64 = AtomicU64::new(0);
        let ctx = noop_ctx();
        let slot: std::sync::Arc<parking_lot::Mutex<Option<crate::reactor::Unparker>>> =
            std::sync::Arc::new(parking_lot::Mutex::new(None));
        let s2 = slot.clone();
        ctx.spawn(crate::do_m! {
            sys_park(move |u| { *s2.lock() = Some(u); });
            sys_nbio(|| { DONE.store(1, Ordering::SeqCst); })
        });
        ctx.run_all(128);
        assert_eq!(DONE.load(Ordering::SeqCst), 0, "must still be parked");
        slot.lock().take().unwrap().unpark();
        ctx.run_all(128);
        assert_eq!(DONE.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn blio_runs_job_then_continuation() {
        static V: AtomicU64 = AtomicU64::new(0);
        let ctx = noop_ctx();
        ctx.spawn(crate::do_m! {
            let x <- sys_blio(|| 21u64);
            sys_nbio(move || { V.store(x * 2, Ordering::SeqCst); })
        });
        ctx.run_all(128);
        assert_eq!(V.load(Ordering::SeqCst), 42);
    }

    #[test]
    fn sys_ret_terminates_early() {
        static AFTER: AtomicU64 = AtomicU64::new(0);
        let ctx = noop_ctx();
        ctx.spawn(crate::do_m! {
            sys_ret::<()>();
            sys_nbio(|| { AFTER.store(1, Ordering::SeqCst); })
        });
        ctx.run_all(128);
        assert_eq!(AFTER.load(Ordering::SeqCst), 0);
        assert_eq!(ctx.live(), 0);
    }
}
