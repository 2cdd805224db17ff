//! The real (wall-clock) runtime: the event-driven system of the paper's
//! Figure 14.
//!
//! Several `worker_main` event loops run in separate OS threads, repeatedly
//! fetching tasks from a shared ready queue and interpreting their traces
//! (true SMP parallelism, §4.4). Readiness events from pollable devices and
//! AIO completions are harvested by a dedicated `worker_epoll` loop
//! (Figure 16), blocking operations run on a blocking-I/O pool (§4.6), and
//! timers on a timer wheel. Every one of those OS threads sleeps on the
//! same kind of queue, [`WorkQueue`]. All of it is ordinary application
//! code — no OS thread per monadic thread anywhere.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::engine::{self, CostKind, RuntimeCtx, WaitKind};
use crate::exception::Exception;
use crate::reactor::{EventPort, Unparker, Waiter};
use crate::sched::WorkQueue;
use crate::syscall::sys_try;
use crate::task::{Task, TaskId, TaskShell};
use crate::thread::ThreadM;
use crate::time::Nanos;
use crate::timer::{TimerKey, TimerWheel};
use crate::trace::BlioJob;

/// Counters describing what a runtime has done. All counters are
/// monotonically increasing totals since runtime start.
#[derive(Debug, Default)]
pub struct Stats {
    /// Threads created (including forks).
    pub spawned: AtomicU64,
    /// Threads that ran to completion.
    pub exited: AtomicU64,
    /// Threads killed by uncaught exceptions.
    pub uncaught: AtomicU64,
    /// Non-blocking steps interpreted.
    pub steps: AtomicU64,
    /// Scheduling switches (yields + slice preemptions).
    pub ctx_switches: AtomicU64,
    /// epoll interest registrations.
    pub epoll_registrations: AtomicU64,
    /// Parked threads resumed.
    pub wakes: AtomicU64,
    /// AIO requests submitted.
    pub aio_submitted: AtomicU64,
    /// Jobs dispatched to the blocking-I/O pool.
    pub blio_jobs: AtomicU64,
    /// `sys_park` calls.
    pub parks: AtomicU64,
    /// Timers armed.
    pub sleeps: AtomicU64,
    /// Modelled CPU nanoseconds (`sys_cpu`).
    pub cpu_charged: AtomicU64,
}

/// A point-in-time copy of [`Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Threads created (including forks).
    pub spawned: u64,
    /// Threads that ran to completion.
    pub exited: u64,
    /// Threads killed by uncaught exceptions.
    pub uncaught: u64,
    /// Non-blocking steps interpreted.
    pub steps: u64,
    /// Scheduling switches (yields + slice preemptions).
    pub ctx_switches: u64,
    /// epoll interest registrations.
    pub epoll_registrations: u64,
    /// Parked threads resumed.
    pub wakes: u64,
    /// AIO requests submitted.
    pub aio_submitted: u64,
    /// Jobs dispatched to the blocking-I/O pool.
    pub blio_jobs: u64,
    /// `sys_park` calls.
    pub parks: u64,
    /// Timers armed.
    pub sleeps: u64,
    /// Modelled CPU nanoseconds (`sys_cpu`).
    pub cpu_charged: u64,
}

impl Stats {
    /// Records one metered action.
    pub fn charge(&self, cost: CostKind) {
        match cost {
            CostKind::Step => self.steps.fetch_add(1, Ordering::Relaxed),
            CostKind::Fork => 0, // counted via task_spawned
            CostKind::CtxSwitch => self.ctx_switches.fetch_add(1, Ordering::Relaxed),
            CostKind::EpollRegister => self.epoll_registrations.fetch_add(1, Ordering::Relaxed),
            CostKind::Wake => self.wakes.fetch_add(1, Ordering::Relaxed),
            CostKind::AioSubmit => self.aio_submitted.fetch_add(1, Ordering::Relaxed),
            CostKind::Blio => self.blio_jobs.fetch_add(1, Ordering::Relaxed),
            CostKind::Park => self.parks.fetch_add(1, Ordering::Relaxed),
            CostKind::Sleep => self.sleeps.fetch_add(1, Ordering::Relaxed),
            CostKind::Custom(ns) => self.cpu_charged.fetch_add(ns, Ordering::Relaxed),
        };
    }

    /// Copies the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            spawned: self.spawned.load(Ordering::Relaxed),
            exited: self.exited.load(Ordering::Relaxed),
            uncaught: self.uncaught.load(Ordering::Relaxed),
            steps: self.steps.load(Ordering::Relaxed),
            ctx_switches: self.ctx_switches.load(Ordering::Relaxed),
            epoll_registrations: self.epoll_registrations.load(Ordering::Relaxed),
            wakes: self.wakes.load(Ordering::Relaxed),
            aio_submitted: self.aio_submitted.load(Ordering::Relaxed),
            blio_jobs: self.blio_jobs.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            sleeps: self.sleeps.load(Ordering::Relaxed),
            cpu_charged: self.cpu_charged.load(Ordering::Relaxed),
        }
    }
}

/// Configuration for [`Runtime`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of `worker_main` scheduler threads (paper §4.4).
    pub workers: usize,
    /// Number of blocking-I/O pool threads (paper §4.6).
    pub blio_threads: usize,
    /// Non-blocking steps a thread may run before being preempted
    /// ("executed for a large number of steps before switching", §4.2).
    pub slice: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            workers: 2,
            blio_threads: 2,
            slice: 256,
        }
    }
}

/// Builder for [`Runtime`].
#[derive(Debug, Clone, Default)]
pub struct RuntimeBuilder {
    config: Config,
}

impl RuntimeBuilder {
    /// Sets the number of `worker_main` scheduler threads.
    pub fn workers(mut self, n: usize) -> Self {
        self.config.workers = n;
        self
    }

    /// Sets the number of blocking-I/O pool threads.
    pub fn blio_threads(mut self, n: usize) -> Self {
        self.config.blio_threads = n;
        self
    }

    /// Sets the preemption slice (non-blocking steps per scheduling turn).
    pub fn slice(mut self, steps: usize) -> Self {
        self.config.slice = steps;
        self
    }

    /// Starts the runtime's worker and event-loop threads.
    pub fn build(self) -> Runtime {
        Runtime::with_config(self.config)
    }
}

/// The real runtime's event port: the inbox of the `worker_epoll` thread
/// (paper Figure 16), which resumes each waiter it is handed. A waiter
/// already woken through another route is dropped here, not relayed.
impl EventPort for WorkQueue<Unparker> {
    fn notify(&self, unparker: Unparker) {
        if !unparker.is_spent() {
            self.push(unparker);
        }
    }
}

/// What an expired timer resumes: a whole parked task (`sys_sleep`) or a
/// racing waiter (`timer_wake`, the event layer's timeout branches).
enum TimerDue {
    /// Requeue the task (a committed `sys_sleep`).
    Task(Task),
    /// Wake the waiter unless already woken elsewhere. Losing timeout
    /// branches no longer carry a lazy-cancel flag: they disarm through
    /// [`RtTimer::cancel`], which removes the entry physically.
    Waiter(Waiter),
}

/// The armed-deadline store shared between arming threads and the
/// `worker_timer` loop: a hierarchical [`TimerWheel`] under the timer
/// thread's mutex/condvar. Cancellation is physical and O(1), so
/// armed-then-cancelled idle deadlines — one per completed or reaped
/// connection under churn — have zero residence time instead of
/// lingering in a heap until their far-future deadline.
///
/// Arming signals the timer thread only for a deadline earlier than the
/// instant it will wake anyway, so an arm costs a lock, not an OS-thread
/// hop.
struct RtTimer {
    armed: Mutex<Armed>,
    cv: Condvar,
}

/// What the timer's lock guards.
struct Armed {
    wheel: TimerWheel<TimerDue>,
    /// When `worker_timer`'s current wait ends. 0 while it is awake or
    /// being woken: it reads the wheel again before it sleeps.
    wakes_at: Nanos,
}

impl RtTimer {
    fn new() -> Self {
        RtTimer {
            armed: Mutex::new(Armed {
                wheel: TimerWheel::new(),
                wakes_at: 0,
            }),
            cv: Condvar::new(),
        }
    }

    fn insert(&self, deadline: Nanos, due: TimerDue) -> TimerKey {
        let mut armed = self.armed.lock();
        let key = armed.wheel.insert(deadline, due);
        if deadline < armed.wakes_at {
            armed.wakes_at = 0;
            self.cv.notify_one();
        }
        key
    }

    fn cancel(&self, key: TimerKey) {
        self.armed.lock().wheel.cancel(key);
    }
}

struct RtInner {
    ready: WorkQueue<Task>,
    blio: WorkQueue<(BlioJob, TaskShell)>,
    events: Arc<WorkQueue<Unparker>>,
    timer: Arc<RtTimer>,
    next_tid: AtomicU64,
    live: AtomicI64,
    stats: Stats,
    start: Instant,
    shutdown: AtomicBool,
    config: Config,
    uncaught_log: Mutex<Vec<(TaskId, Exception)>>,
    /// Attached telemetry hub, if any (first attach wins). Read on every
    /// scheduler hook, so it is a set-once cell rather than a lock.
    telemetry: std::sync::OnceLock<Arc<crate::telemetry::Telemetry>>,
}

impl RtInner {
    fn tel(&self) -> Option<&Arc<crate::telemetry::Telemetry>> {
        self.telemetry.get()
    }
}

impl RuntimeCtx for RtInner {
    fn push_ready(&self, task: Task) {
        if let Some(tel) = self.tel() {
            tel.on_wake(self.now(), task.tid().0);
        }
        self.ready.push(task);
    }
    fn next_tid(&self) -> TaskId {
        TaskId(self.next_tid.fetch_add(1, Ordering::Relaxed))
    }
    fn task_spawned(&self, tid: TaskId, parent: Option<TaskId>) {
        self.live.fetch_add(1, Ordering::SeqCst);
        self.stats.spawned.fetch_add(1, Ordering::Relaxed);
        if let Some(tel) = self.tel() {
            tel.on_spawn(self.now(), tid.0, parent.map(|p| p.0));
        }
    }
    fn task_exited(&self, tid: TaskId) {
        self.live.fetch_sub(1, Ordering::SeqCst);
        self.stats.exited.fetch_add(1, Ordering::Relaxed);
        if let Some(tel) = self.tel() {
            tel.on_exit(self.now(), tid.0, false);
        }
    }
    fn uncaught_exception(&self, tid: TaskId, e: Exception) {
        self.live.fetch_sub(1, Ordering::SeqCst);
        self.stats.uncaught.fetch_add(1, Ordering::Relaxed);
        self.uncaught_log.lock().push((tid, e));
        if let Some(tel) = self.tel() {
            tel.on_exit(self.now(), tid.0, true);
        }
    }
    fn task_parked(&self, tid: TaskId, kind: WaitKind) {
        if let Some(tel) = self.tel() {
            tel.on_park(self.now(), tid.0, kind);
        }
    }
    fn task_wait_reclass(&self, tid: TaskId, kind: WaitKind) {
        if let Some(tel) = self.tel() {
            tel.on_reclass(self.now(), tid.0, kind);
        }
    }
    fn task_annotate(&self, tid: TaskId, name: Arc<str>) {
        if let Some(tel) = self.tel() {
            tel.on_annotate(self.now(), tid.0, name);
        }
    }
    fn now(&self) -> Nanos {
        self.start.elapsed().as_nanos() as Nanos
    }
    fn charge(&self, cost: CostKind) {
        self.stats.charge(cost);
    }
    fn event_port(&self) -> Arc<dyn EventPort> {
        Arc::clone(&self.events) as Arc<dyn EventPort>
    }
    fn sleep(&self, dur: Nanos, task: Task) {
        self.timer
            .insert(self.now().saturating_add(dur), TimerDue::Task(task));
    }
    fn timer_wake(&self, dur: Nanos, waiter: Waiter) -> engine::TimerHandle {
        let key = self
            .timer
            .insert(self.now().saturating_add(dur), TimerDue::Waiter(waiter));
        // Physical cancellation: a losing timeout branch removes its wheel
        // entry immediately instead of leaving a flagged corpse behind
        // until the deadline.
        let timer = Arc::clone(&self.timer);
        engine::TimerHandle::new(move || timer.cancel(key))
    }
    fn submit_blio(&self, job: BlioJob, shell: TaskShell) {
        self.blio.push((job, shell));
    }
}

/// The multi-worker, wall-clock runtime (paper Figure 14).
///
/// # Examples
///
/// ```
/// use eveth_core::{runtime::Runtime, syscall::sys_nbio};
///
/// let rt = Runtime::builder().workers(2).build();
/// assert_eq!(rt.block_on(sys_nbio(|| 6 * 7)), 42);
/// rt.shutdown();
/// ```
pub struct Runtime {
    inner: Arc<RtInner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Runtime {
    /// Starts a runtime with default configuration.
    pub fn new() -> Self {
        Runtime::with_config(Config::default())
    }

    /// Returns a configuration builder.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Starts a runtime with an explicit configuration. Every field is
    /// raised to at least 1: no workers or no blocking-I/O threads would
    /// strand work forever, and a zero slice requeues a task before its
    /// first step.
    pub fn with_config(config: Config) -> Self {
        let config = Config {
            workers: config.workers.max(1),
            blio_threads: config.blio_threads.max(1),
            slice: config.slice.max(1),
        };
        let inner = Arc::new(RtInner {
            ready: WorkQueue::new(),
            blio: WorkQueue::new(),
            events: Arc::new(WorkQueue::new()),
            timer: Arc::new(RtTimer::new()),
            next_tid: AtomicU64::new(1),
            live: AtomicI64::new(0),
            stats: Stats::default(),
            start: Instant::now(),
            shutdown: AtomicBool::new(false),
            config: config.clone(),
            uncaught_log: Mutex::new(Vec::new()),
            telemetry: std::sync::OnceLock::new(),
        });

        let start = |name: String, body: fn(Arc<RtInner>)| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(name)
                .spawn(move || body(inner))
                .expect("failed to spawn a runtime thread")
        };
        // The worker_main event loops (Figures 11 and 14), the worker_epoll
        // loop that harvests readiness and AIO completion events (Figure
        // 16), the blocking-I/O pool (§4.6) and the timer wheel.
        let mut handles = Vec::new();
        handles.extend((0..config.workers).map(|i| start(format!("worker_main-{i}"), worker_main)));
        handles.push(start("worker_epoll".into(), worker_epoll));
        handles.extend(
            (0..config.blio_threads).map(|i| start(format!("worker_blio-{i}"), worker_blio)),
        );
        handles.push(start("worker_timer".into(), worker_timer));

        Runtime {
            inner,
            handles: Mutex::new(handles),
        }
    }

    /// Spawns a monadic thread; returns its id. The thread starts running
    /// as soon as a worker picks it up.
    pub fn spawn(&self, m: ThreadM<()>) -> TaskId {
        let tid = self.inner.next_tid();
        self.inner.task_spawned(tid, None);
        self.inner.push_ready(Task::from_thread(tid, m));
        tid
    }

    /// Attaches a telemetry hub: scheduler hooks (spawn / park / wake /
    /// annotate / exit) are forwarded to it from now on, stamped with
    /// wall-clock nanoseconds since runtime start. First attach wins;
    /// later calls return `false` and change nothing.
    pub fn set_telemetry(&self, telemetry: Arc<crate::telemetry::Telemetry>) -> bool {
        self.inner.telemetry.set(telemetry).is_ok()
    }

    /// The attached telemetry hub, if any.
    pub fn telemetry(&self) -> Option<Arc<crate::telemetry::Telemetry>> {
        self.inner.telemetry.get().cloned()
    }

    /// Runs `m` to completion, blocking the calling OS thread until it
    /// produces a value.
    ///
    /// # Panics
    ///
    /// Panics if `m` throws an exception it does not catch. Use
    /// [`Runtime::block_on_result`] to observe exceptions.
    pub fn block_on<T: Send + 'static>(&self, m: ThreadM<T>) -> T {
        match self.block_on_result(m) {
            Ok(v) => v,
            Err(e) => panic!("block_on thread failed with uncaught exception: {e}"),
        }
    }

    /// Like [`Runtime::block_on`], but returns thrown exceptions instead of
    /// panicking.
    pub fn block_on_result<T: Send + 'static>(&self, m: ThreadM<T>) -> Result<T, Exception> {
        type Slot<T> = Arc<(Mutex<Option<Result<T, Exception>>>, Condvar)>;
        let slot: Slot<T> = Arc::new((Mutex::new(None), Condvar::new()));
        let out = Arc::clone(&slot);
        self.spawn(sys_try(m).bind(move |res| {
            crate::syscall::sys_nbio(move || {
                *out.0.lock() = Some(res);
                out.1.notify_all();
            })
        }));
        let mut guard = slot.0.lock();
        while guard.is_none() {
            slot.1.wait(&mut guard);
        }
        guard.take().expect("result present")
    }

    /// Number of live (spawned, not yet finished) monadic threads.
    pub fn live_threads(&self) -> i64 {
        self.inner.live.load(Ordering::SeqCst)
    }

    /// A snapshot of runtime counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Exceptions that escaped their threads so far.
    pub fn uncaught_exceptions(&self) -> Vec<(TaskId, Exception)> {
        self.inner.uncaught_log.lock().clone()
    }

    /// Nanoseconds since the runtime started.
    pub fn now(&self) -> Nanos {
        self.inner.now()
    }

    /// Armed timer entries physically resident in the wheel. Cancelled
    /// entries are removed eagerly, so after a mass arm-and-cancel this
    /// returns to zero (regression guard for the old lazy-cancel leak,
    /// where entries lingered until their deadline).
    pub fn timer_entries(&self) -> usize {
        self.inner.timer.armed.lock().wheel.len()
    }

    /// A [`RuntimeCtx`] handle for device drivers and schedulers that need
    /// to resume threads directly (e.g. the TCP stack).
    pub fn ctx(&self) -> Arc<dyn RuntimeCtx> {
        Arc::clone(&self.inner) as Arc<dyn RuntimeCtx>
    }

    /// Stops all worker and event-loop threads and waits for them to exit.
    /// Parked and queued threads are discarded.
    pub fn shutdown(self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.timer.cv.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Signal loops to exit; do not join (shutdown() joins explicitly).
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.timer.cv.notify_all();
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.inner.config.workers)
            .field("live_threads", &self.live_threads())
            .finish()
    }
}

const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// The loop every queue-fed OS thread runs: handle items as they arrive,
/// and on each idle timeout leave if the runtime is shutting down.
fn serve<T>(inner: &RtInner, queue: &WorkQueue<T>, mut handle: impl FnMut(T)) {
    loop {
        match queue.pop(POLL_INTERVAL) {
            Some(item) => handle(item),
            None if inner.shutdown.load(Ordering::SeqCst) => return,
            None => {}
        }
    }
}

fn worker_main(inner: Arc<RtInner>) {
    let ctx: Arc<dyn RuntimeCtx> = Arc::clone(&inner) as Arc<dyn RuntimeCtx>;
    let slice = inner.config.slice;
    serve(&inner, &inner.ready, |task| {
        engine::run_task(&ctx, task, slice)
    });
}

fn worker_epoll(inner: Arc<RtInner>) {
    serve(&inner, &inner.events, |unparker| {
        unparker.unpark();
    });
}

fn worker_blio(inner: Arc<RtInner>) {
    // Run the blocking operation here; the continuation thunk it returns
    // is rescheduled onto a normal worker.
    serve(&inner, &inner.blio, |(job, shell)| {
        inner.push_ready(Task::from_parts(shell, job()))
    });
}

fn worker_timer(inner: Arc<RtInner>) {
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let due;
        {
            let mut armed = inner.timer.armed.lock();
            let now = inner.now();
            due = armed.wheel.expire(now);
            if due.is_empty() {
                let wait = armed
                    .wheel
                    .next_deadline_hint()
                    .map(|d| Duration::from_nanos(d.saturating_sub(now)))
                    .unwrap_or(POLL_INTERVAL)
                    .min(POLL_INTERVAL.max(Duration::from_millis(1)) * 10);
                armed.wakes_at = now.saturating_add(wait.as_nanos() as Nanos);
                inner.timer.cv.wait_for(&mut armed, wait);
                armed.wakes_at = 0;
            }
        }
        for (_, _, entry) in due {
            match entry {
                TimerDue::Task(task) => inner.push_ready(task),
                TimerDue::Waiter(w) => {
                    if !w.is_spent() {
                        w.wake();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syscall::*;
    use crate::time::MILLIS;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn block_on_returns_value() {
        let rt = Runtime::builder().workers(2).build();
        assert_eq!(rt.block_on(ThreadM::pure(11)), 11);
        rt.shutdown();
    }

    #[test]
    fn block_on_result_propagates_exceptions() {
        let rt = Runtime::builder().workers(1).build();
        let err = rt.block_on_result(sys_throw::<u8>("broken")).unwrap_err();
        assert_eq!(err.message(), "broken");
        rt.shutdown();
    }

    #[test]
    fn forked_threads_run_in_parallel_workers() {
        let rt = Runtime::builder().workers(4).build();
        let n = Arc::new(AtomicU64::new(0));
        let m = {
            let n = n.clone();
            crate::map_m(64, move |_| {
                let n = n.clone();
                sys_nbio(move || {
                    n.fetch_add(1, Ordering::SeqCst);
                })
            })
        };
        // Fork 64 workers from the main thread and wait for all of them by
        // spinning on the shared counter from the coordinating thread.
        let counter = n.clone();
        rt.block_on(crate::do_m! {
            m;
            ThreadM::pure(())
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        rt.shutdown();
    }

    #[test]
    fn sleep_delays_by_roughly_the_duration() {
        let rt = Runtime::builder().workers(1).build();
        let (t0, t1) = rt.block_on(crate::do_m! {
            let t0 <- sys_time();
            sys_sleep(20 * MILLIS);
            let t1 <- sys_time();
            ThreadM::pure((t0, t1))
        });
        assert!(t1 - t0 >= 15 * MILLIS, "slept only {}ns", t1 - t0);
        rt.shutdown();
    }

    #[test]
    fn blio_runs_off_the_workers() {
        let rt = Runtime::builder().workers(1).blio_threads(2).build();
        let name = rt.block_on(sys_blio(|| {
            std::thread::current().name().unwrap_or("?").to_string()
        }));
        assert!(name.starts_with("worker_blio"), "ran on {name}");
        rt.shutdown();
    }

    #[test]
    fn stats_count_activity() {
        let rt = Runtime::builder().workers(1).build();
        rt.block_on(crate::do_m! {
            sys_fork(sys_yield());
            sys_yield();
            sys_nbio(|| ())
        });
        let s = rt.stats();
        assert!(s.spawned >= 2);
        assert!(s.ctx_switches >= 1);
        assert!(s.steps >= 1);
        rt.shutdown();
    }

    #[test]
    fn uncaught_exceptions_are_logged() {
        let rt = Runtime::builder().workers(1).build();
        rt.block_on(crate::do_m! {
            sys_fork(sys_throw::<()>("background failure"));
            sys_sleep(5 * MILLIS)
        });
        let log = rt.uncaught_exceptions();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].1.message(), "background failure");
        assert_eq!(rt.stats().uncaught, 1);
        rt.shutdown();
    }

    #[test]
    fn tasks_spawned_from_outside_all_run_on_four_workers() {
        // All spawns come from one non-worker producer thread while four
        // workers sleep on and drain the one ready queue: every task must
        // run.
        let rt = Runtime::builder().workers(4).build();
        let n = Arc::new(AtomicU64::new(0));
        const TASKS: u64 = 5_000;
        for _ in 0..TASKS {
            let n = n.clone();
            rt.spawn(crate::do_m! {
                sys_yield();
                sys_nbio(move || { n.fetch_add(1, Ordering::SeqCst); })
            });
        }
        let watch = n.clone();
        rt.block_on(crate::poll_until(MILLIS, move || {
            watch.load(Ordering::SeqCst) == TASKS
        }));
        assert_eq!(n.load(Ordering::SeqCst), TASKS);
        rt.shutdown();
    }

    #[test]
    fn par_all_sums_on_three_workers() {
        let rt = Runtime::builder().workers(3).build();
        let sum = rt.block_on(crate::do_m! {
            let parts <- crate::ops::par_all((0..32u64).map(|i| ThreadM::pure(i * i)).collect());
            ThreadM::pure(parts.iter().sum::<u64>())
        });
        assert_eq!(sum, (0..32u64).map(|i| i * i).sum::<u64>());
        rt.shutdown();
    }

    #[test]
    fn zero_config_fields_are_clamped_to_one() {
        // Unclamped: no worker ever runs the task, a zero slice requeues
        // it before its first step, and no pool thread takes the job. Run
        // on a helper thread so that failure is a timeout, not a hang.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let rt = Runtime::with_config(Config {
                workers: 0,
                blio_threads: 0,
                slice: 0,
            });
            let _ = tx.send(rt.block_on(sys_blio(|| 42)));
            rt.shutdown();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(42));
    }

    #[test]
    fn aio_read_and_pipe_wait_share_the_one_event_port() {
        use crate::aio::AioFile;
        use crate::io::{pipe::pipe, ramdisk::RamFile};
        let rt = Runtime::builder().workers(1).build();
        let file: Arc<dyn AioFile> = Arc::new(RamFile::new(*b"hello aio"));
        let (w, r) = pipe(4); // tiny buffer forces readiness waits
        rt.spawn(crate::do_m! {
            let res <- w.write_all_m(bytes::Bytes::from(vec![7u8; 64]));
            sys_nbio(move || res.expect("write side failed"))
        });
        let (read, piped) = rt.block_on(crate::do_m! {
            let read <- sys_aio_read(&file, 6, 3);
            let piped <- r.read_exact_m(64);
            ThreadM::pure((read, piped))
        });
        assert_eq!(&read.expect("aio read failed")[..], b"aio");
        assert_eq!(piped.expect("pipe read failed"), vec![7u8; 64]);
        let stats = rt.stats();
        assert!(stats.aio_submitted >= 1 && stats.epoll_registrations >= 1);
        rt.shutdown();
    }

    #[test]
    fn cancelled_timers_leave_no_residue_in_the_wheel() {
        use crate::reactor::{DirectPort, Unparker, Waiter};
        use crate::time::SECS;
        use crate::trace::Trace;
        let rt = Runtime::builder().workers(1).build();
        let ctx = rt.ctx();
        // Arm 100k far-future idle deadlines — one per simulated
        // connection — then cancel them all, as a churn storm does.
        let handles: Vec<_> = (0..100_000u64)
            .map(|i| {
                let u = Unparker::new(
                    Task::from_thunk(TaskId(1_000_000 + i), Box::new(|| Trace::Ret)),
                    Arc::clone(&ctx),
                );
                ctx.timer_wake(3600 * SECS, Waiter::new(u, Arc::new(DirectPort)))
            })
            .collect();
        assert_eq!(rt.timer_entries(), 100_000);
        for h in handles {
            h.cancel();
        }
        assert_eq!(
            rt.timer_entries(),
            0,
            "cancellation must remove wheel entries physically"
        );
        rt.shutdown();
    }

    #[test]
    fn an_earlier_deadline_wakes_the_timer_thread_from_its_longest_sleep() {
        use crate::reactor::{DirectPort, Unparker, Waiter};
        use crate::time::SECS;
        use crate::trace::Trace;
        let rt = Runtime::builder().workers(1).build();
        let ctx = rt.ctx();
        // Older than the cap, so an instant compared with a duration shows.
        std::thread::sleep(Duration::from_millis(120));
        // A waiter 60 s out; once a 1 ms sleep has fired, the timer thread
        // sleeps to its 100 ms cap.
        let idle = Unparker::new(
            Task::from_thunk(TaskId(1_000_000), Box::new(|| Trace::Ret)),
            Arc::clone(&ctx),
        );
        let far = ctx.timer_wake(60 * SECS, Waiter::new(idle, Arc::new(DirectPort)));
        rt.block_on(sys_sleep(MILLIS));
        std::thread::sleep(Duration::from_millis(20));
        // A 5 ms sleep is due about 75 ms before that wakeup, so arming it
        // must signal the timer thread.
        let started = Instant::now();
        rt.block_on(sys_sleep(5 * MILLIS));
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(50),
            "a 5 ms sleep took {took:?}"
        );
        far.cancel();
        rt.shutdown();
    }

    #[test]
    fn ten_thousand_threads_complete() {
        let rt = Runtime::builder().workers(4).build();
        let n = Arc::new(AtomicU64::new(0));
        let n2 = n.clone();
        rt.block_on(crate::do_m! {
            crate::for_each_m(0..10_000u32, move |_| {
                let n = n2.clone();
                sys_fork(crate::do_m! {
                    sys_yield();
                    sys_nbio(move || { n.fetch_add(1, Ordering::SeqCst); })
                })
            });
            // Poll until every forked thread has bumped the counter.
            crate::loop_m((), {
                let n = n.clone();
                move |()| {
                    let n = n.clone();
                    crate::do_m! {
                        sys_yield();
                        let done <- sys_nbio(move || n.load(Ordering::SeqCst) == 10_000);
                        ThreadM::pure(if done { crate::Loop::Break(()) } else { crate::Loop::Continue(()) })
                    }
                }
            })
        });
        rt.shutdown();
    }
}
