//! The simulated runtime: the core scheduler engine driven by virtual time.
//!
//! [`SimRuntime`] implements [`RuntimeCtx`] so the *same* monadic programs
//! (and the same devices built on `Pollable`/`AioFile`) run unchanged under
//! simulation. Each scheduler action advances the virtual clock by its
//! [`CostModel`] price; when the ready queue drains, the clock jumps to the
//! next device event. Running one workload under
//! [`CostModel::monadic`] and again under [`CostModel::nptl`] produces the
//! paired lines of the paper's Figures 17–19 — the Lauer–Needham duality in
//! action: identical semantics, different cost structure.
//!
//! # Multi-CPU virtual time
//!
//! [`SimConfig::cpus`] selects how many virtual CPUs execute scheduler
//! turns. Each CPU keeps its own clock *frontier* — the virtual time up to
//! which it has executed — and every turn is charged to the CPU it ran on:
//!
//! * a turn starts at `max(cpu frontier, task ready time)` — a CPU never
//!   runs a task before the event that made it runnable, and a task never
//!   runs before the CPU that picks it up is free;
//! * every [`CostModel`] charge made during the turn advances that CPU's
//!   clock only, so turns on different CPUs overlap in virtual time;
//! * device events fire when the *earliest* CPU frontier reaches their
//!   deadline (the conservative discrete-event rule), and event-loop
//!   dispatch cost is charged to the CPU that harvests the events;
//! * time a thread spends blocked is classified by [`WaitKind`] at the
//!   `task_parked` boundary and split in the report: readiness waits
//!   (`sys_epoll_wait`: sockets, pipes) land in *I/O wait*
//!   ([`SimReport::io_wait_ns`]), synchronization waits (`sys_park`:
//!   mutexes, channels, MVars, STM `retry`) in *lock wait*
//!   ([`SimReport::lock_wait_ns`]), and sleeps in *timer wait* — a hot
//!   lock stretches every waiter's completion time while disjoint work
//!   overlaps, which is what makes sharding visible in virtual
//!   throughput, and the I/O split keeps slow links from masquerading as
//!   contention.
//!
//! The simulation itself stays single-OS-threaded and fully deterministic:
//! CPU selection is lowest-frontier with a stable index tie-break, the
//! ready queue is FIFO, so the same seed and config produce a
//! byte-identical [`SimReport`] for any `cpus`. With `cpus = 1` the model
//! reduces exactly to the original single-CPU schedule.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use eveth_core::engine::{self, CostKind, RuntimeCtx, WaitKind};
use eveth_core::hash::DetHashMap;
use eveth_core::reactor::{EventPort, Unparker};
use eveth_core::runtime::{Stats, StatsSnapshot};
use eveth_core::task::{Task, TaskId, TaskShell};
use eveth_core::time::Nanos;
use eveth_core::trace::BlioJob;
use eveth_core::{Exception, ThreadM};
use parking_lot::Mutex;

use crate::cost::CostModel;
use crate::des::SimClock;

/// How the ready queue chooses the next thread to run — the schedule
/// exploration axis of `eveth-check`.
///
/// Every policy is a pure function of `(policy, workload)`: the same
/// configuration replays the same schedule byte-for-byte, so any failure
/// an explored schedule uncovers reproduces exactly from its
/// `(seed, SimConfig)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// The historical earliest-startable FIFO pick. This is the default
    /// and keeps every golden `SimReport` and `BENCH_*.json` byte-
    /// identical: the pick path is exactly the pre-policy code.
    #[default]
    Fifo,
    /// PCT-style randomized priorities (Burckhardt et al.): each thread
    /// gets a random priority on first sight, the highest-priority
    /// startable thread runs, and at `change_points` pseudo-random
    /// scheduling decisions (per 1024-decision window, so perturbation
    /// recurs on long runs) the running thread is demoted below every
    /// initial priority. Seeded: the same `(seed, change_points)`
    /// replays the same schedule.
    Pct {
        /// Seed for priorities and change-point placement.
        seed: u64,
        /// Priority change points per 1024-decision window.
        change_points: u32,
    },
}

/// Configuration of a [`SimRuntime`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The cost model to charge scheduler actions against.
    pub cost: CostModel,
    /// Non-blocking steps per scheduling turn (see the slice ablation).
    pub slice: usize,
    /// Virtual CPUs executing scheduler turns (clamped to at least 1).
    /// `1` reproduces the original fully-serialized schedule; higher
    /// values let independent turns overlap in virtual time, making
    /// contention (hot locks, too few shards) visible in the clock.
    pub cpus: usize,
    /// Ready-queue scheduling policy (default [`SchedulePolicy::Fifo`]).
    pub policy: SchedulePolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cost: CostModel::monadic(),
            slice: 256,
            cpus: 1,
            policy: SchedulePolicy::Fifo,
        }
    }
}

/// `splitmix64` — the tiny, high-quality seeded generator behind the PCT
/// policy (and the per-schedule seed derivation in `eveth-check`).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Error returned when a thread cannot be created under the model's limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpawnError {
    /// The model's thread cap.
    pub max_threads: usize,
}

impl fmt::Display for SpawnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "thread limit reached ({} threads: address space exhausted)",
            self.max_threads
        )
    }
}

impl std::error::Error for SpawnError {}

/// A runnable task plus the virtual time it became runnable — a CPU may
/// not start it earlier.
struct ReadyEntry {
    task: Task,
    ready_at: Nanos,
    seq: u64,
}

/// The ready queue: FIFO order (a seq-keyed map) plus a `(ready_at, seq)`
/// index, so both pick cases are cheap:
///
/// * *something is startable* — the FIFO walk stops at the first entry
///   whose `ready_at` has passed (usually the head);
/// * *nothing is startable* — the old code scanned the whole queue for
///   the minimum ready time (the common case in contended sweeps, where
///   the min-frontier CPU lags every entry); the index answers it in
///   O(log n).
///
/// The pick is *exactly* the old linear scan's choice (pinned by the
/// `pick_matches_linear_scan` proptest), so schedules — and the
/// determinism goldens — are unchanged.
struct ReadyQueue {
    fifo: BTreeMap<u64, ReadyEntry>,
    by_ready: BTreeSet<(Nanos, u64)>,
    next_seq: u64,
    /// Randomized-priority state; `None` runs the plain FIFO pick.
    pct: Option<PctState>,
}

/// Priorities are `(band, value)` compared lexicographically, higher
/// wins. Fresh threads draw a random value in band 1; a change-point
/// demotion moves the running thread into band 0 (below every initial
/// priority), later demotions lower than earlier ones.
type Priority = (u8, u64);

/// Mutable state of [`SchedulePolicy::Pct`]. All randomness is consumed
/// in `push` (first sight of a thread) and `take` (decision counting) —
/// `pick` stays a pure read, like the FIFO path.
struct PctState {
    rng: u64,
    prio: DetHashMap<u64, Priority>,
    /// Decision indices (mod [`PCT_WINDOW`]) at which the thread being
    /// scheduled is demoted.
    change_at: Vec<u32>,
    decisions: u64,
    next_demoted: u64,
}

/// Change points recur with this period so long runs keep being
/// perturbed instead of settling into a static priority order.
const PCT_WINDOW: u64 = 1024;

impl PctState {
    fn new(seed: u64, change_points: u32) -> Self {
        let mut rng = seed;
        // Warm the stream so adjacent seeds diverge immediately.
        let _ = splitmix64(&mut rng);
        let mut change_at: Vec<u32> = (0..change_points)
            .map(|_| (splitmix64(&mut rng) % PCT_WINDOW) as u32)
            .collect();
        change_at.sort_unstable();
        change_at.dedup();
        PctState {
            rng,
            prio: DetHashMap::default(),
            change_at,
            decisions: 0,
            next_demoted: u64::MAX,
        }
    }

    fn priority_of(&mut self, tid: u64) -> Priority {
        if let Some(&p) = self.prio.get(&tid) {
            return p;
        }
        let p = (1u8, splitmix64(&mut self.rng));
        self.prio.insert(tid, p);
        p
    }

    /// One scheduling decision happened for `tid`; demote it if this
    /// decision index is a change point.
    fn on_decision(&mut self, tid: u64) {
        let idx = (self.decisions % PCT_WINDOW) as u32;
        self.decisions += 1;
        if self.change_at.binary_search(&idx).is_ok() {
            self.prio.insert(tid, (0u8, self.next_demoted));
            self.next_demoted = self.next_demoted.wrapping_sub(1);
        }
    }
}

impl ReadyQueue {
    fn new(policy: &SchedulePolicy) -> Self {
        ReadyQueue {
            fifo: BTreeMap::new(),
            by_ready: BTreeSet::new(),
            next_seq: 0,
            pct: match policy {
                SchedulePolicy::Fifo => None,
                SchedulePolicy::Pct {
                    seed,
                    change_points,
                } => Some(PctState::new(*seed, *change_points)),
            },
        }
    }

    fn push(&mut self, task: Task, ready_at: Nanos) {
        if let Some(pct) = &mut self.pct {
            // Assign (or look up) the thread's priority on first sight so
            // `pick` can stay a pure read of the queue.
            let _ = pct.priority_of(task.tid().0);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_ready.insert((ready_at, seq));
        self.fifo.insert(
            seq,
            ReadyEntry {
                task,
                ready_at,
                seq,
            },
        );
    }

    /// The entry a CPU sitting at `frontier` should run next. Under
    /// [`SchedulePolicy::Fifo`]: the oldest already-startable entry (FIFO
    /// among those), else the one with the smallest `(ready_at, seq)` —
    /// exactly the historical pick, so golden schedules are unchanged.
    /// Under [`SchedulePolicy::Pct`]: the highest-priority startable
    /// entry (stable tie-break: lowest seq); the nothing-startable
    /// fallback is identical to FIFO, so time semantics never change —
    /// only the order among simultaneously-runnable threads does.
    /// Returns `(seq, ready_at)` without removing — the caller may decide
    /// to service a device event first.
    fn pick(&self, frontier: Nanos) -> Option<(u64, Nanos)> {
        let &(min_ready, min_seq) = self.by_ready.first()?;
        if min_ready > frontier {
            // Nothing startable: earliest (ready_at, seq) via the index.
            return Some((min_seq, min_ready));
        }
        if let Some(pct) = &self.pct {
            let mut best: Option<(Priority, u64, Nanos)> = None;
            for e in self.fifo.values() {
                if e.ready_at > frontier {
                    continue;
                }
                let p = pct
                    .prio
                    .get(&e.task.tid().0)
                    .copied()
                    .unwrap_or((1u8, 0u64));
                // Strict `>` keeps the first (lowest-seq) entry on ties.
                if best.is_none_or(|(bp, _, _)| p > bp) {
                    best = Some((p, e.seq, e.ready_at));
                }
            }
            return best.map(|(_, seq, ready_at)| (seq, ready_at));
        }
        self.fifo
            .values()
            .find(|e| e.ready_at <= frontier)
            .map(|e| (e.seq, e.ready_at))
    }

    fn take(&mut self, seq: u64) -> Option<Task> {
        let e = self.fifo.remove(&seq)?;
        self.by_ready.remove(&(e.ready_at, e.seq));
        if let Some(pct) = &mut self.pct {
            pct.on_decision(e.task.tid().0);
        }
        Some(e.task)
    }
}

/// Per-CPU clock frontiers and busy-time accounting.
struct CpuState {
    /// Virtual time up to which each CPU has executed.
    frontier: Vec<Nanos>,
    /// Virtual nanoseconds each CPU spent executing turns (and harvesting
    /// events), as opposed to sitting idle.
    busy: Vec<Nanos>,
    /// Clock value at the end of the last scheduling step; any clock
    /// advance beyond it happened outside a turn (e.g. `spawn` charging
    /// `Fork` from the host) and is absorbed into the next turn's CPU.
    last_synced: Nanos,
}

impl CpuState {
    fn new(cpus: usize) -> Self {
        CpuState {
            frontier: vec![0; cpus],
            busy: vec![0; cpus],
            last_synced: 0,
        }
    }

    /// The CPU with the lowest frontier (stable tie-break: lowest index).
    fn min_cpu(&self) -> usize {
        let mut best = 0;
        for (i, &f) in self.frontier.iter().enumerate() {
            if f < self.frontier[best] {
                best = i;
            }
        }
        best
    }

    fn max_frontier(&self) -> Nanos {
        self.frontier.iter().copied().max().unwrap_or(0)
    }

    fn min_frontier(&self) -> Nanos {
        self.frontier.iter().copied().min().unwrap_or(0)
    }
}

struct SimInner {
    self_weak: std::sync::Weak<SimInner>,
    clock: SimClock,
    ready: Mutex<ReadyQueue>,
    cpus: Mutex<CpuState>,
    /// Per-task floor on resume time: the virtual instant the task's last
    /// turn ended. A wake event raised from a lagging CPU's clock context
    /// (its unlock may carry an *earlier* virtual timestamp than the
    /// waiter's own frontier) must never send the waiter's time backwards:
    /// its next turn starts at `max(wake time, floor)`.
    resume_floor: Mutex<DetHashMap<TaskId, Nanos>>,
    /// Tasks currently blocked → (block time, wait class).
    park_since: Mutex<DetHashMap<TaskId, (Nanos, WaitKind)>>,
    io_wait_ns: AtomicU64,
    io_waits: AtomicU64,
    lock_wait_ns: AtomicU64,
    lock_waits: AtomicU64,
    timer_wait_ns: AtomicU64,
    timer_waits: AtomicU64,
    /// Aggregate of every non-timer blocked episode, accumulated
    /// independently of the per-kind split so the
    /// `io_wait_ns + lock_wait_ns == park_wait_ns` invariant is a real
    /// cross-check (a future wait kind that falls through the match would
    /// break the sum, not silently vanish).
    park_wait_ns: AtomicU64,
    park_waits: AtomicU64,
    next_tid: AtomicU64,
    live: AtomicI64,
    peak_live: AtomicI64,
    stats: Stats,
    cost: CostModel,
    /// The one event port every readiness wait routes through.
    port: Arc<SimPort>,
    uncaught_log: Mutex<Vec<(TaskId, Exception)>>,
    /// Attached telemetry hub, if any (first attach wins). Every hook
    /// passes it the *same* virtual timestamps the wait accounting above
    /// uses, so span wait sums reconcile exactly with the report; no hook
    /// charges the cost model, so attaching telemetry never changes
    /// virtual time.
    telemetry: std::sync::OnceLock<Arc<eveth_core::telemetry::Telemetry>>,
    /// Attached concurrency-check probe, if any (first attach wins).
    /// Like telemetry: purely observational, charges nothing, and with
    /// the default [`SchedulePolicy::Fifo`] attaching it changes no
    /// schedule — the probe only *watches* the run.
    probe: std::sync::OnceLock<Arc<dyn eveth_core::check::Probe>>,
}

impl SimInner {
    fn bump_live(&self) {
        let live = self.live.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_live.fetch_max(live, Ordering::SeqCst);
    }

    fn tel(&self) -> Option<&Arc<eveth_core::telemetry::Telemetry>> {
        self.telemetry.get()
    }

    fn pr(&self) -> Option<&Arc<dyn eveth_core::check::Probe>> {
        self.probe.get()
    }
}

/// An [`EventPort`] that models the dispatch cost of the dedicated event
/// loop (`worker_epoll`) and then resumes the thread. A waiter already
/// woken through another route is dropped before it is charged: it
/// never reaches the event loop.
struct SimPort {
    clock: SimClock,
    dispatch_ns: Nanos,
}

impl EventPort for SimPort {
    fn notify(&self, unparker: Unparker) {
        if unparker.is_spent() {
            return;
        }
        self.clock.advance(self.dispatch_ns);
        unparker.unpark();
    }
}

impl RuntimeCtx for SimInner {
    fn push_ready(&self, task: Task) {
        let tid = task.tid();
        // The task cannot run before both the wake that readied it and
        // the end of its own last turn (per-task time is monotone even
        // when the waker's CPU clock lags this task's).
        let floor = self.resume_floor.lock().get(&tid).copied().unwrap_or(0);
        let ready_at = self.clock.now().max(floor);
        if let Some((parked_at, kind)) = self.park_since.lock().remove(&tid) {
            // Measured on the task's own timeline; a wake whose event
            // time predates the park charges zero wait.
            let wait = ready_at.saturating_sub(parked_at);
            let (ns, count) = match kind {
                WaitKind::Io => (&self.io_wait_ns, &self.io_waits),
                WaitKind::Lock => (&self.lock_wait_ns, &self.lock_waits),
                WaitKind::Timer => (&self.timer_wait_ns, &self.timer_waits),
            };
            ns.fetch_add(wait, Ordering::Relaxed);
            count.fetch_add(1, Ordering::Relaxed);
            if kind != WaitKind::Timer {
                self.park_wait_ns.fetch_add(wait, Ordering::Relaxed);
                self.park_waits.fetch_add(1, Ordering::Relaxed);
            }
            // Same `ready_at` as the accounting above, so the span's wait
            // sum matches the report's to the nanosecond.
            if let Some(tel) = self.tel() {
                tel.on_wake(ready_at, tid.0);
            }
            if let Some(p) = self.pr() {
                // Attribute the wake to the monadic thread (and the
                // instrumented resource) performing it, read from the
                // check instrumentation's thread-locals: `None` for
                // clock/device wakes raised outside any turn.
                let (waker, rid) = eveth_core::check::wake_attribution();
                p.on_wake(tid.0, waker, rid);
            }
        }
        self.ready.lock().push(task, ready_at);
    }
    fn next_tid(&self) -> TaskId {
        TaskId(self.next_tid.fetch_add(1, Ordering::Relaxed))
    }
    fn task_spawned(&self, tid: TaskId, parent: Option<TaskId>) {
        self.bump_live();
        self.stats.spawned.fetch_add(1, Ordering::Relaxed);
        if let Some(tel) = self.tel() {
            tel.on_spawn(self.clock.now(), tid.0, parent.map(|p| p.0));
        }
        if let Some(p) = self.pr() {
            p.on_spawn(tid.0, parent.map(|p| p.0));
        }
    }
    fn task_exited(&self, tid: TaskId) {
        self.live.fetch_sub(1, Ordering::SeqCst);
        self.stats.exited.fetch_add(1, Ordering::Relaxed);
        if let Some(tel) = self.tel() {
            tel.on_exit(self.clock.now(), tid.0, false);
        }
        if let Some(p) = self.pr() {
            p.on_exit(tid.0);
        }
    }
    fn uncaught_exception(&self, tid: TaskId, e: Exception) {
        self.live.fetch_sub(1, Ordering::SeqCst);
        self.stats.uncaught.fetch_add(1, Ordering::Relaxed);
        self.uncaught_log.lock().push((tid, e));
        if let Some(tel) = self.tel() {
            tel.on_exit(self.clock.now(), tid.0, true);
        }
        if let Some(p) = self.pr() {
            p.on_exit(tid.0);
        }
    }
    fn now(&self) -> Nanos {
        self.clock.now()
    }
    fn charge(&self, cost: CostKind) {
        self.stats.charge(cost);
        self.clock.advance(self.cost.of(cost));
    }
    fn event_port(&self) -> Arc<dyn EventPort> {
        Arc::clone(&self.port) as Arc<dyn EventPort>
    }
    fn sleep(&self, dur: Nanos, task: Task) {
        let weak = self.self_weak.clone();
        self.clock.schedule(dur, move || {
            if let Some(inner) = weak.upgrade() {
                inner.push_ready(task);
            }
        });
    }
    fn submit_blio(&self, job: BlioJob, shell: TaskShell) {
        // The blocking pool runs the job "elsewhere"; model only the
        // dispatch cost and deliver the continuation immediately.
        let next = job();
        self.push_ready(Task::from_parts(shell, next));
    }
    fn task_parked(&self, tid: TaskId, kind: WaitKind) {
        let now = self.clock.now();
        self.park_since.lock().insert(tid, (now, kind));
        if let Some(tel) = self.tel() {
            tel.on_park(now, tid.0, kind);
        }
        if let Some(p) = self.pr() {
            p.on_park(tid.0, kind);
        }
    }
    fn task_wait_reclass(&self, tid: TaskId, kind: WaitKind) {
        // The winning branch of a multi-registration park re-attributes
        // the episode before the wake lands; `push_ready` then accounts
        // it under the final kind (and keeps timer wins out of the
        // io + lock == park invariant, like any sleep).
        if let Some(entry) = self.park_since.lock().get_mut(&tid) {
            entry.1 = kind;
        }
        if let Some(tel) = self.tel() {
            tel.on_reclass(self.clock.now(), tid.0, kind);
        }
    }
    fn task_annotate(&self, tid: TaskId, name: Arc<str>) {
        if let Some(p) = self.pr() {
            p.on_annotate(tid.0, &name);
        }
        if let Some(tel) = self.tel() {
            tel.on_annotate(self.clock.now(), tid.0, name);
        }
    }
    fn check_probe(&self) -> Option<Arc<dyn eveth_core::check::Probe>> {
        self.probe.get().cloned()
    }
    fn timer_wake(&self, dur: Nanos, waiter: eveth_core::reactor::Waiter) -> engine::TimerHandle {
        // Eager cancellation matters here: a lingering losing timeout
        // would keep the event heap non-empty and stretch the virtual
        // makespan to its deadline.
        let timer = self.clock.schedule_cancellable(dur, move || waiter.wake());
        engine::TimerHandle::new(move || timer.cancel())
    }
}

/// Outcome summary of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Virtual time at which the run stopped (the makespan: the furthest
    /// CPU frontier).
    pub now: Nanos,
    /// Scheduler statistics.
    pub stats: StatsSnapshot,
    /// Peak simultaneously-live threads.
    pub peak_threads: i64,
    /// Peak address space attributed to thread stacks under the cost model.
    pub peak_stack_bytes: u64,
    /// Exceptions that escaped their threads.
    pub uncaught: Vec<(TaskId, Exception)>,
    /// Number of virtual CPUs the run executed on.
    pub cpus: usize,
    /// Virtual nanoseconds each CPU spent executing (turns + event
    /// dispatch); `busy / now` is that CPU's utilization.
    pub cpu_busy_ns: Vec<Nanos>,
    /// Total virtual nanoseconds threads spent blocked on device readiness
    /// (`sys_epoll_wait`: socket reads/writes/accepts/connects, pipes).
    pub io_wait_ns: Nanos,
    /// Number of readiness-wait episodes behind [`SimReport::io_wait_ns`].
    pub io_waits: u64,
    /// Total virtual nanoseconds threads spent parked on synchronization
    /// wait queues (`sys_park`: mutexes, channels, MVars, STM
    /// `retry`) — *pure* lock wait, with I/O readiness accounted
    /// separately in [`SimReport::io_wait_ns`].
    pub lock_wait_ns: Nanos,
    /// Number of park→resume wait episodes behind [`SimReport::lock_wait_ns`].
    pub lock_waits: u64,
    /// Total virtual nanoseconds threads spent blocked on timers
    /// (`sys_sleep`).
    pub timer_wait_ns: Nanos,
    /// Number of sleep episodes behind [`SimReport::timer_wait_ns`].
    pub timer_waits: u64,
    /// Total blocked time across *all* park-class waits (I/O + lock,
    /// timers excluded), accumulated independently of the split — the
    /// invariant `io_wait_ns + lock_wait_ns == park_wait_ns` holds by
    /// construction and is pinned by `tests/wait_split.rs`.
    pub park_wait_ns: Nanos,
    /// Number of episodes behind [`SimReport::park_wait_ns`].
    pub park_waits: u64,
}

impl SimReport {
    /// Per-CPU utilization over the whole run (`busy / makespan`), empty
    /// only if the run never started.
    pub fn cpu_utilization(&self) -> Vec<f64> {
        self.cpu_busy_ns
            .iter()
            .map(|&b| {
                if self.now == 0 {
                    0.0
                } else {
                    b as f64 / self.now as f64
                }
            })
            .collect()
    }

    /// Mean utilization across CPUs.
    pub fn avg_utilization(&self) -> f64 {
        if self.cpu_busy_ns.is_empty() {
            return 0.0;
        }
        self.cpu_utilization().iter().sum::<f64>() / self.cpu_busy_ns.len() as f64
    }
}

/// A virtual-time runtime for monadic threads, with `M` simulated CPUs
/// (see the module docs; `cpus = 1` is the paper's single-processor
/// testbed).
///
/// # Examples
///
/// ```
/// use eveth_core::syscall::{sys_sleep, sys_time};
/// use eveth_core::{do_m, ThreadM};
/// use eveth_simos::desrt::SimRuntime;
///
/// let sim = SimRuntime::new_default();
/// let t = sim
///     .block_on(do_m! {
///         sys_sleep(5_000_000);
///         sys_time()
///     })
///     .unwrap();
/// assert!(t >= 5_000_000, "virtual clock advanced by the sleep");
/// ```
pub struct SimRuntime {
    inner: Arc<SimInner>,
    config: SimConfig,
}

impl SimRuntime {
    /// Creates a runtime with the given clock and configuration. Devices
    /// that should share virtual time must be built from the same clock.
    pub fn new(clock: SimClock, config: SimConfig) -> Self {
        let cpus = config.cpus.max(1);
        let inner = Arc::new_cyclic(|weak| SimInner {
            self_weak: weak.clone(),
            clock: clock.clone(),
            ready: Mutex::new(ReadyQueue::new(&config.policy)),
            cpus: Mutex::new(CpuState::new(cpus)),
            resume_floor: Mutex::new(DetHashMap::default()),
            park_since: Mutex::new(DetHashMap::default()),
            io_wait_ns: AtomicU64::new(0),
            io_waits: AtomicU64::new(0),
            lock_wait_ns: AtomicU64::new(0),
            lock_waits: AtomicU64::new(0),
            timer_wait_ns: AtomicU64::new(0),
            timer_waits: AtomicU64::new(0),
            park_wait_ns: AtomicU64::new(0),
            park_waits: AtomicU64::new(0),
            next_tid: AtomicU64::new(1),
            live: AtomicI64::new(0),
            peak_live: AtomicI64::new(0),
            stats: Stats::default(),
            cost: config.cost.clone(),
            port: Arc::new(SimPort {
                clock: clock.clone(),
                dispatch_ns: config.cost.wake_ns / 2,
            }),
            uncaught_log: Mutex::new(Vec::new()),
            telemetry: std::sync::OnceLock::new(),
            probe: std::sync::OnceLock::new(),
        });
        SimRuntime { inner, config }
    }

    /// A fresh clock + default (monadic, single-CPU) configuration.
    pub fn new_default() -> Self {
        SimRuntime::new(SimClock::new(), SimConfig::default())
    }

    /// The runtime's virtual clock (share it with devices).
    pub fn clock(&self) -> SimClock {
        self.inner.clock.clone()
    }

    /// The [`RuntimeCtx`] handle for drivers needing direct scheduler
    /// access.
    pub fn ctx(&self) -> Arc<dyn RuntimeCtx> {
        Arc::clone(&self.inner) as Arc<dyn RuntimeCtx>
    }

    /// Spawns a monadic thread.
    pub fn spawn(&self, m: ThreadM<()>) -> TaskId {
        let tid = self.inner.next_tid();
        self.inner.task_spawned(tid, None);
        self.inner.charge(CostKind::Fork);
        self.inner.push_ready(Task::from_thread(tid, m));
        tid
    }

    /// Attaches a telemetry hub: every scheduler hook (spawn / annotate /
    /// park / reclass / wake / exit) is forwarded to it from now on,
    /// stamped with *virtual* time — the exact clock values the report's
    /// own wait accounting uses, so per-span wait sums reconcile with
    /// [`SimReport`] to the nanosecond. Telemetry charges nothing, so
    /// attaching it never changes virtual time or the report. First
    /// attach wins; later calls return `false` and change nothing.
    pub fn set_telemetry(&self, telemetry: Arc<eveth_core::telemetry::Telemetry>) -> bool {
        self.inner.telemetry.set(telemetry).is_ok()
    }

    /// The attached telemetry hub, if any.
    pub fn telemetry(&self) -> Option<Arc<eveth_core::telemetry::Telemetry>> {
        self.inner.telemetry.get().cloned()
    }

    /// Attaches a concurrency-check probe (see `eveth_core::check`):
    /// every scheduler event (turn starts, spawns, parks, wakes with
    /// waker/resource attribution, exits, span names) is forwarded to it,
    /// and the trace interpreter installs it as the turn observer so the
    /// synchronization primitives report their protocol ops. Purely
    /// observational — charges nothing, moves no clock, and under the
    /// default [`SchedulePolicy::Fifo`] changes no schedule. First attach
    /// wins; later calls return `false` and change nothing.
    pub fn set_check_probe(&self, probe: Arc<dyn eveth_core::check::Probe>) -> bool {
        self.inner.probe.set(probe).is_ok()
    }

    /// The configuration this runtime was built with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Count of armed (uncancelled, unfired) virtual timers — the
    /// leak-audit view of the event heap at end of run.
    pub fn armed_timers(&self) -> usize {
        self.inner.clock.pending()
    }

    /// Spawns, enforcing the cost model's thread cap — how the harnesses
    /// reproduce "NPTL only scales to 16K threads".
    pub fn spawn_checked(&self, m: ThreadM<()>) -> Result<TaskId, SpawnError> {
        if let Some(cap) = self.config.cost.max_threads {
            if self.live_threads() as usize >= cap {
                return Err(SpawnError { max_threads: cap });
            }
        }
        Ok(self.spawn(m))
    }

    /// Live (spawned, unfinished) threads.
    pub fn live_threads(&self) -> i64 {
        self.inner.live.load(Ordering::SeqCst)
    }

    /// Current virtual time: the furthest CPU frontier (the makespan so
    /// far), or the raw clock if external charges have pushed it past
    /// every frontier.
    pub fn now(&self) -> Nanos {
        self.inner
            .cpus
            .lock()
            .max_frontier()
            .max(self.inner.clock.now())
    }

    /// Runs one scheduling step: picks the CPU with the lowest frontier,
    /// fires device events due by that frontier (dispatch charged to that
    /// CPU — the event loops share the CPUs, as on the paper's testbed),
    /// then either executes one turn on it or jumps every idle CPU to the
    /// next device event. Returns `false` when the simulation is
    /// quiescent: nothing runnable, no pending events.
    fn step(&self) -> bool {
        let inner = &self.inner;
        let mut cpus = inner.cpus.lock();

        // Absorb clock time charged outside any turn (spawn's Fork from
        // the host thread) into the CPU about to run.
        let drift = inner.clock.now().saturating_sub(cpus.last_synced);
        let cpu = cpus.min_cpu();
        cpus.frontier[cpu] += drift;

        // Harvest events due by this CPU's frontier; their handlers may
        // advance the clock (event-loop dispatch) and push tasks ready.
        inner.clock.set_now(cpus.frontier[cpu]);
        while inner
            .clock
            .next_deadline()
            .is_some_and(|d| d <= inner.clock.now())
        {
            inner.clock.fire_next();
        }
        let dispatched = inner.clock.now().saturating_sub(cpus.frontier[cpu]);
        cpus.frontier[cpu] += dispatched;
        cpus.busy[cpu] += dispatched;
        let frontier = cpus.frontier[cpu];

        // Choose the entry that can start earliest on this CPU: the
        // oldest already-startable one (FIFO among those), else the one
        // with the smallest ready time — via the (ready_at, seq) index
        // (see [`ReadyQueue::pick`]). A plain FIFO pop would let a head
        // entry re-queued far in the future warp this CPU's frontier past
        // work that became ready long ago, serializing turns the model
        // says overlap.
        let picked = inner.ready.lock().pick(frontier);
        match picked {
            Some((seq, ready_at)) => {
                // If a device event is due before this turn could even
                // start, service it first: it may ready an earlier task.
                let start = frontier.max(ready_at);
                if let Some(d) = inner.clock.next_deadline() {
                    if d < start {
                        inner.clock.fire_next();
                        let now = inner.clock.now();
                        cpus.frontier[cpu] = now;
                        cpus.busy[cpu] += now.saturating_sub(d); // dispatch, not idle
                        cpus.last_synced = now;
                        return true;
                    }
                }
                let task = inner
                    .ready
                    .lock()
                    .take(seq)
                    .expect("picked seq is in the queue");
                let tid = task.tid();
                let exits_before = inner.stats.exited.load(Ordering::Relaxed)
                    + inner.stats.uncaught.load(Ordering::Relaxed);
                inner.clock.set_now(start);
                drop(cpus);
                let ctx: Arc<dyn RuntimeCtx> = Arc::clone(inner) as Arc<dyn RuntimeCtx>;
                engine::run_task(&ctx, task, self.config.slice);
                let end = inner.clock.now();
                // Only this task can have exited during its own turn;
                // record (or clear) its floor accordingly.
                let exited = inner.stats.exited.load(Ordering::Relaxed)
                    + inner.stats.uncaught.load(Ordering::Relaxed)
                    > exits_before;
                if exited {
                    inner.resume_floor.lock().remove(&tid);
                } else {
                    inner.resume_floor.lock().insert(tid, end);
                }
                let mut cpus = inner.cpus.lock();
                cpus.frontier[cpu] = end;
                cpus.busy[cpu] += end.saturating_sub(start);
                cpus.last_synced = end;
                true
            }
            None => {
                let deadline = inner.clock.next_deadline();
                if !inner.clock.fire_next() {
                    cpus.last_synced = inner.clock.now();
                    return false; // quiescent
                }
                // Nothing was runnable, so every CPU idles forward to the
                // event that just fired. The idle stretch up to the event
                // is not busy time, but the handler's dispatch work past
                // it is — charge it to the harvesting CPU, as the other
                // event paths do.
                let now = inner.clock.now();
                if let Some(d) = deadline {
                    cpus.busy[cpu] += now.saturating_sub(d.max(cpus.frontier[cpu]));
                }
                for f in cpus.frontier.iter_mut() {
                    *f = (*f).max(now);
                }
                cpus.last_synced = now;
                true
            }
        }
    }

    /// Runs until both the ready queue and the event heap are exhausted, or
    /// `deadline` (virtual) passes.
    pub fn run_until(&self, deadline: Option<Nanos>) -> SimReport {
        loop {
            if let Some(d) = deadline {
                let cpus = self.inner.cpus.lock();
                let drift = self.inner.clock.now().saturating_sub(cpus.last_synced);
                if cpus.min_frontier() + drift >= d {
                    break;
                }
            }
            if !self.step() {
                break;
            }
        }
        self.report()
    }

    /// Runs to quiescence.
    pub fn run(&self) -> SimReport {
        self.run_until(None)
    }

    /// Runs `m` to completion (driving the whole simulation as needed) and
    /// returns its value.
    ///
    /// # Errors
    ///
    /// The exception, if `m` throws without catching; or a synthesized
    /// exception if the simulation goes quiescent before `m` finishes
    /// (deadlock).
    pub fn block_on<T: Send + 'static>(&self, m: ThreadM<T>) -> Result<T, Exception> {
        let slot: Arc<Mutex<Option<Result<T, Exception>>>> = Arc::new(Mutex::new(None));
        let out = Arc::clone(&slot);
        self.spawn(eveth_core::syscall::sys_try(m).bind(move |res| {
            eveth_core::syscall::sys_nbio(move || {
                *out.lock() = Some(res);
            })
        }));
        loop {
            if let Some(res) = slot.lock().take() {
                return res;
            }
            if !self.step() {
                return Err(Exception::new(
                    "simulation went quiescent before the blocked computation finished",
                ));
            }
        }
    }

    /// A summary of the run so far.
    pub fn report(&self) -> SimReport {
        let (now, busy) = {
            let cpus = self.inner.cpus.lock();
            (
                cpus.max_frontier().max(self.inner.clock.now()),
                cpus.busy.clone(),
            )
        };
        SimReport {
            now,
            stats: self.inner.stats.snapshot(),
            peak_threads: self.inner.peak_live.load(Ordering::SeqCst),
            peak_stack_bytes: self.inner.peak_live.load(Ordering::SeqCst).max(0) as u64
                * self.config.cost.stack_bytes,
            uncaught: self.inner.uncaught_log.lock().clone(),
            cpus: busy.len(),
            cpu_busy_ns: busy,
            io_wait_ns: self.inner.io_wait_ns.load(Ordering::Relaxed),
            io_waits: self.inner.io_waits.load(Ordering::Relaxed),
            lock_wait_ns: self.inner.lock_wait_ns.load(Ordering::Relaxed),
            lock_waits: self.inner.lock_waits.load(Ordering::Relaxed),
            timer_wait_ns: self.inner.timer_wait_ns.load(Ordering::Relaxed),
            timer_waits: self.inner.timer_waits.load(Ordering::Relaxed),
            park_wait_ns: self.inner.park_wait_ns.load(Ordering::Relaxed),
            park_waits: self.inner.park_waits.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for SimRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SimRuntime(model={}, cpus={}, now={}, live={})",
            self.config.cost.name,
            self.config.cpus.max(1),
            self.now(),
            self.live_threads()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eveth_core::syscall::*;
    use eveth_core::time::MILLIS;

    fn sim_with_cpus(cpus: usize) -> SimRuntime {
        SimRuntime::new(
            SimClock::new(),
            SimConfig {
                cost: CostModel::monadic(),
                slice: 256,
                cpus,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn a_spent_unparker_notified_through_the_event_port_does_not_move_the_clock() {
        let sim = SimRuntime::new_default();
        let ctx = sim.ctx();
        let port = ctx.event_port();
        let task = || Task::from_thunk(TaskId(1 << 40), Box::new(|| eveth_core::Trace::Ret));
        let t0 = sim.now();
        port.notify(Unparker::new(task(), Arc::clone(&ctx)));
        assert!(sim.now() > t0, "a live wake is dispatched and charged");
        let spent = Unparker::new(task(), Arc::clone(&ctx));
        spent.unpark();
        let t1 = sim.now();
        port.notify(spent);
        assert_eq!(
            sim.now(),
            t1,
            "a spent wake is dropped before it is charged"
        );
    }

    #[test]
    fn virtual_sleep_advances_clock_exactly() {
        let sim = SimRuntime::new_default();
        let t = sim
            .block_on(eveth_core::do_m! {
                sys_sleep(7 * MILLIS);
                sys_time()
            })
            .unwrap();
        // Sleep plus small scheduler costs.
        assert!((7 * MILLIS..8 * MILLIS).contains(&t), "t = {t}");
    }

    #[test]
    fn costs_accumulate_per_model() {
        let free = SimRuntime::new(
            SimClock::new(),
            SimConfig {
                cost: CostModel::free(),
                slice: 64,
                cpus: 1,
                ..SimConfig::default()
            },
        );
        free.block_on(eveth_core::for_each_m(0..100u32, |_| sys_yield()))
            .unwrap();
        assert_eq!(free.now(), 0, "free model charges nothing");

        let paid = SimRuntime::new_default();
        paid.block_on(eveth_core::for_each_m(0..100u32, |_| sys_yield()))
            .unwrap();
        assert!(paid.now() > 0, "monadic model charges for switches");
    }

    #[test]
    fn nptl_charges_more_than_monadic_for_blocking() {
        let run = |cost: CostModel| {
            let sim = SimRuntime::new(
                SimClock::new(),
                SimConfig {
                    cost,
                    slice: 256,
                    cpus: 1,
                    ..SimConfig::default()
                },
            );
            sim.block_on(eveth_core::for_each_m(0..1000u32, |_| sys_yield()))
                .unwrap();
            sim.now()
        };
        let monadic = run(CostModel::monadic());
        let nptl = run(CostModel::nptl());
        assert!(
            nptl > 3 * monadic,
            "nptl {nptl}ns should dwarf monadic {monadic}ns"
        );
    }

    #[test]
    fn spawn_checked_enforces_cap() {
        let mut cost = CostModel::nptl();
        cost.max_threads = Some(4);
        let sim = SimRuntime::new(
            SimClock::new(),
            SimConfig {
                cost,
                slice: 16,
                cpus: 1,
                ..SimConfig::default()
            },
        );
        for _ in 0..4 {
            sim.spawn_checked(eveth_core::forever_m(sys_yield))
                .expect("under cap");
        }
        let err = sim
            .spawn_checked(ThreadM::pure(()))
            .expect_err("cap reached");
        assert_eq!(err.max_threads, 4);
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        let sim = SimRuntime::new_default();
        let err = sim
            .block_on(sys_park::<fn(eveth_core::reactor::Unparker)>(|_u| {
                // park and never unpark
            }))
            .unwrap_err();
        assert!(err.message().contains("quiescent"));
    }

    #[test]
    fn report_tracks_peak_threads_and_stack() {
        let sim = SimRuntime::new(
            SimClock::new(),
            SimConfig {
                cost: CostModel::nptl(),
                slice: 64,
                cpus: 1,
                ..SimConfig::default()
            },
        );
        for _ in 0..10 {
            sim.spawn(sys_sleep(MILLIS));
        }
        let report = sim.run();
        assert_eq!(report.peak_threads, 10);
        assert_eq!(report.peak_stack_bytes, 10 * 32 * 1024);
        assert!(report.uncaught.is_empty());
    }

    #[test]
    fn independent_cpu_work_overlaps_across_cpus() {
        // Four tasks each burning 1 ms of modelled CPU: serialized on one
        // CPU, overlapped on four.
        let run = |cpus: usize| {
            let sim = sim_with_cpus(cpus);
            for _ in 0..4 {
                sim.spawn(sys_cpu(MILLIS));
            }
            sim.run().now
        };
        let one = run(1);
        let four = run(4);
        assert!(one >= 4 * MILLIS, "serialized: {one}");
        assert!(
            four < 2 * MILLIS,
            "4 CPUs must overlap 4 independent tasks: {four} vs {one}"
        );
    }

    #[test]
    fn report_carries_per_cpu_busy_time() {
        let sim = sim_with_cpus(2);
        for _ in 0..2 {
            sim.spawn(sys_cpu(MILLIS));
        }
        let report = sim.run();
        assert_eq!(report.cpus, 2);
        assert_eq!(report.cpu_busy_ns.len(), 2);
        assert!(report.cpu_busy_ns.iter().all(|&b| b >= MILLIS));
        let util = report.avg_utilization();
        assert!(util > 0.5 && util <= 1.0, "utilization {util}");
    }

    #[test]
    fn contended_mutex_wait_is_accounted() {
        use eveth_core::sync::Mutex as MonadicMutex;
        let sim = sim_with_cpus(2);
        let m = MonadicMutex::new();
        // Holder takes the lock, burns CPU, releases; the contender must
        // park and its wait must land in the report.
        let m2 = m.clone();
        sim.spawn(eveth_core::do_m! {
            m2.lock();
            sys_yield();
            sys_cpu(MILLIS);
            m2.unlock()
        });
        let m3 = m.clone();
        sim.spawn(m3.with(ThreadM::pure(())));
        let report = sim.run();
        assert!(report.lock_waits >= 1, "waits: {}", report.lock_waits);
        assert!(
            report.lock_wait_ns >= MILLIS / 2,
            "wait ns: {}",
            report.lock_wait_ns
        );
    }

    /// The old earliest-startable pick, verbatim: first FIFO entry whose
    /// ready time has passed, else the first entry achieving the minimum
    /// ready time. The proptest below pins [`ReadyQueue::pick`] to it.
    fn linear_pick(model: &[(u64, Nanos)], frontier: Nanos) -> Option<u64> {
        let mut best: Option<(usize, Nanos)> = None;
        for (i, &(_, ready_at)) in model.iter().enumerate() {
            if ready_at <= frontier {
                best = Some((i, ready_at));
                break;
            }
            if best.is_none_or(|(_, b)| ready_at < b) {
                best = Some((i, ready_at));
            }
        }
        best.map(|(i, _)| model[i].0)
    }

    fn dummy_task(seq: u64) -> Task {
        Task::from_thunk(TaskId(seq + 1), Box::new(|| eveth_core::Trace::Ret))
    }

    use proptest::prelude::*;
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// [`ReadyQueue::pick`] (the `(ready_at, seq)` index) chooses the
        /// exact entry the old linear scan chose, across random
        /// interleavings of pushes and picks — the index is a speedup,
        /// never a schedule change.
        #[test]
        fn ready_queue_pick_matches_linear_scan(
            ops in proptest::collection::vec((0u8..3u8, 0u64..400u64), 1..150)
        ) {
            let mut q = ReadyQueue::new(&SchedulePolicy::Fifo);
            // FIFO-ordered mirror of the queue: (seq, ready_at).
            let mut model: Vec<(u64, Nanos)> = Vec::new();
            let mut next = 0u64;
            for (kind, v) in ops {
                if kind == 0 {
                    q.push(dummy_task(next), v);
                    model.push((next, v));
                    next += 1;
                } else {
                    // Two pick kinds so frontiers both above and below
                    // the queued ready times get exercised.
                    let frontier = if kind == 1 { v } else { v / 8 };
                    let got = q.pick(frontier).map(|(seq, _)| seq);
                    prop_assert_eq!(got, linear_pick(&model, frontier));
                    if let Some(seq) = got {
                        prop_assert!(q.take(seq).is_some());
                        model.retain(|&(s, _)| s != seq);
                    }
                }
            }
            // Drain what's left: equivalence must hold to the end.
            while let Some((seq, _)) = q.pick(0) {
                prop_assert_eq!(Some(seq), linear_pick(&model, 0));
                q.take(seq);
                model.retain(|&(s, _)| s != seq);
            }
            prop_assert!(model.is_empty());
        }
    }

    #[test]
    fn same_seedless_workload_is_deterministic_across_runs() {
        let run = || {
            let sim = sim_with_cpus(4);
            for i in 0..8u64 {
                sim.spawn(eveth_core::do_m! {
                    sys_sleep((i % 3) * MILLIS);
                    sys_cpu(100_000 * (i + 1));
                    sys_yield()
                });
            }
            format!("{:?}", sim.run())
        };
        assert_eq!(run(), run());
    }
}
