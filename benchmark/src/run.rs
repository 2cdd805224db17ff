//! Running one workload: set-up, warm-up, the measured window, tear-down
//! and the correctness gate — on the wall-clock `Runtime`, and on
//! `SimRuntime` for the prediction column.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eveth_core::engine::{spawn_thread, RuntimeCtx};
use eveth_core::runtime::{Runtime, StatsSnapshot};
use eveth_core::sync::Chan;
use eveth_core::syscall::sys_nbio;
use eveth_core::time::{Nanos, MILLIS, SECS};
use eveth_core::{map_m, ThreadM};
use eveth_simos::SimRuntime;

use crate::alloc::{self, AllocSnapshot};
use crate::loadgen::{churn_client, persistent_client, ClientConn, GenEnv, GenResult};
use crate::stats::{cut_windows, fastest, median, percentile, Window};
use crate::topology::{build, Instance, Loaded};
use crate::trace::Ledger;
use crate::workload::{Keyspace, Mode, Spec};

/// How long anything monadic may take before the run is declared hung.
const WATCHDOG: Duration = Duration::from_secs(20);
/// The sampler's period: the measured span is costed in windows this long.
const TICK: Nanos = 100 * MILLIS;
/// The share of a run's windows, fastest first, the client view is taken
/// over. See [`RunOutput::client_view`].
const CALM_SHARE: f64 = 0.25;

/// Window lengths of one run.
#[derive(Debug, Clone, Copy)]
pub struct Windows {
    pub warm_ns: Nanos,
    pub measure_ns: Nanos,
}

/// Every public counter the per-layer table reads, at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub rt: StatsSnapshot,
    pub alloc: AllocSnapshot,
    pub segs: u64,
    pub bytes_copied: u64,
    pub lock_wait_ns: u64,
    pub hits: u64,
    pub misses: u64,
    /// Commands the `KvServer`s executed (the backends', on the cluster).
    pub kv_commands: u64,
    pub replicated_writes: u64,
}

fn counters(rt: &Runtime, inst: &Instance) -> Counters {
    use std::sync::atomic::Ordering::Relaxed;
    let stores: Vec<_> = inst.kv.iter().map(|s| s.store_snapshot()).collect();
    Counters {
        rt: rt.stats(),
        alloc: alloc::snapshot(),
        segs: inst.net.stats().sent.load(Relaxed),
        bytes_copied: bytes::bytes_copied_total(),
        lock_wait_ns: inst.kv.iter().map(|s| s.store().lock_wait_ns()).sum(),
        hits: stores.iter().map(|s| s.hits).sum(),
        misses: stores.iter().map(|s| s.misses).sum(),
        kv_commands: inst.kv.iter().map(|s| s.stats().commands.get()).sum(),
        replicated_writes: inst
            .router
            .as_ref()
            .map_or(0, |r| r.stats().replicated_writes.get()),
    }
}

/// What the main thread's sampler reads every [`TICK`] of the measured
/// span.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    pub t: Nanos,
    pub cpu_ns: u64,
    pub allocs: u64,
}

fn tick(rt: &Runtime) -> Tick {
    Tick {
        t: rt.now(),
        cpu_ns: crate::sys::cpu_time_ns(),
        allocs: alloc::snapshot().allocs,
    }
}

/// One finished run on the wall-clock runtime.
pub struct RunOutput {
    pub t_record: Nanos,
    pub window: Nanos,
    /// Sampler readings: the first at `t_record`, then one per [`TICK`].
    pub ticks: Vec<Tick>,
    pub results: Vec<GenResult>,
    pub before: Counters,
    pub after: Counters,
    pub setup_s: f64,
    pub bytes_per_conn: f64,
    pub preloaded: u64,
    pub ledger: Option<Arc<Ledger>>,
    torn: TornDown,
}

/// `block_on` with a watchdog, so a hang becomes an error instead of a
/// stuck benchmark.
fn block_on_within<T: Send + 'static>(
    rt: &Runtime,
    what: &str,
    m: ThreadM<T>,
) -> Result<T, String> {
    let (tx, rx) = mpsc::channel();
    rt.spawn(m.bind(move |v| {
        sys_nbio(move || {
            let _ = tx.send(v);
        })
    }));
    rx.recv_timeout(WATCHDOG)
        .map_err(|_| format!("{what} did not finish within {WATCHDOG:?}"))
}

fn sleep_until(rt: &Runtime, t: Nanos) {
    let now = rt.now();
    if t > now {
        std::thread::sleep(Duration::from_nanos(t - now));
    }
}

/// Spawns the generator threads of `spec` on `ctx`; returns the channel
/// their results arrive on and the connections to close at tear-down.
fn spawn_generators(
    ctx: &Arc<dyn RuntimeCtx>,
    env: &Arc<GenEnv>,
    pool: Vec<ClientConn>,
) -> (Chan<GenResult>, Vec<ClientConn>) {
    let done: Chan<GenResult> = Chan::new();
    let report = |client: ThreadM<GenResult>| {
        let done = done.clone();
        spawn_thread(ctx, client.bind(move |r| done.write(r)));
    };
    match env.spec.mode {
        Mode::Persistent => {
            for (i, cc) in pool.into_iter().enumerate() {
                report(persistent_client(Arc::clone(env), i, cc));
            }
            (done, Vec::new())
        }
        Mode::Churn => {
            for i in 0..env.spec.clients {
                report(churn_client(Arc::clone(env), i));
            }
            (done, pool)
        }
    }
}

fn collect(done: Chan<GenResult>, n: usize) -> ThreadM<Vec<GenResult>> {
    map_m(n, move |_| done.read())
}

/// A wall-clock runtime with the workload's topology set up on it.
struct Live {
    rt: Runtime,
    baseline: i64,
    inst: Arc<Instance>,
    ledger: Option<Arc<Ledger>>,
    setup_s: f64,
}

/// What tear-down found.
struct TornDown {
    leaked_threads: i64,
    uncaught: Vec<String>,
    dropped_segs: u64,
}

impl Live {
    /// Runtime start through preload and connection pool: the span
    /// `setup_s` times.
    fn start(
        spec: &Spec,
        ks: &Arc<Keyspace>,
        workers: usize,
        traced: bool,
    ) -> Result<(Live, Loaded), String> {
        // The runtime's threads inherit the CPU set of the thread that
        // builds it.
        crate::sys::confine(workers == 1);
        let t_setup = Instant::now();
        let rt = Runtime::builder().workers(workers).build();
        let baseline = rt.live_threads();
        let ctx = rt.ctx();
        let ledger = traced.then(|| Ledger::new(Arc::clone(&ctx)));
        let inst = Arc::new(build(&ctx, spec, ledger.clone()));
        let loaded = block_on_within(&rt, "set-up", inst.load(spec, ks))??;
        let live = Live {
            rt,
            baseline,
            inst,
            ledger,
            setup_s: t_setup.elapsed().as_secs_f64(),
        };
        Ok((live, loaded))
    }

    /// Graceful tear-down, then the leak check: every monadic thread the
    /// servers, router and TCP hosts started must be gone.
    fn finish(self, open: Vec<ClientConn>) -> Result<TornDown, String> {
        block_on_within(&self.rt, "tear-down", self.inst.shutdown(open))?;
        // Session and TCP loop threads exit a tick or two after their
        // stop signals; give them a bounded moment, then count.
        let waited = Instant::now();
        while self.rt.live_threads() > self.baseline && waited.elapsed() < Duration::from_secs(3) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let torn = TornDown {
            leaked_threads: self.rt.live_threads() - self.baseline,
            uncaught: self
                .rt
                .uncaught_exceptions()
                .iter()
                .map(|(tid, e)| format!("{tid:?}: {e}"))
                .collect(),
            dropped_segs: self
                .inst
                .net
                .stats()
                .dropped
                .load(std::sync::atomic::Ordering::Relaxed),
        };
        drop(self.inst);
        self.rt.shutdown();
        Ok(torn)
    }
}

impl TornDown {
    fn defects(&self) -> Vec<String> {
        let mut out = Vec::new();
        if !self.uncaught.is_empty() {
            out.push(format!("uncaught exceptions: {:?}", self.uncaught));
        }
        if self.leaked_threads != 0 {
            out.push(format!(
                "{} monadic threads outlived tear-down",
                self.leaked_threads
            ));
        }
        if self.dropped_segs != 0 {
            out.push(format!("loopback dropped {} segments", self.dropped_segs));
        }
        out
    }
}

/// Sets the workload up and tears it down again without running it:
/// one more `setup_s` sample (and one more leak check).
pub fn setup_only(spec: &Spec, ks: &Arc<Keyspace>) -> Result<(f64, Vec<String>), String> {
    let (live, loaded) = Live::start(spec, ks, 1, false)?;
    let setup_s = live.setup_s;
    Ok((setup_s, live.finish(loaded.pool)?.defects()))
}

/// Runs `spec` once on a fresh wall-clock `Runtime` with `workers`
/// workers: set-up, warm-up, measured window, tear-down, leak check.
pub fn run_real(
    spec: &Spec,
    ks: &Arc<Keyspace>,
    seed: u64,
    workers: usize,
    traced: bool,
    windows: Windows,
) -> Result<RunOutput, String> {
    let (live, loaded) = Live::start(spec, ks, workers, traced)?;
    let rt = &live.rt;
    let t_record = rt.now() + windows.warm_ns;
    let t_end = t_record + windows.measure_ns;
    let env = Arc::new(GenEnv {
        spec: spec.clone(),
        keyspace: Arc::clone(ks),
        seed,
        stack: Arc::clone(&live.inst.client_stack),
        front: live.inst.front,
        t_record,
        t_end,
        ledger: live.ledger.clone(),
    });
    let (done, resident) = spawn_generators(&rt.ctx(), &env, loaded.pool);
    sleep_until(rt, t_record);
    let before = counters(rt, &live.inst);
    let mut ticks = vec![tick(rt)];
    while rt.now() < t_end {
        sleep_until(rt, (ticks[ticks.len() - 1].t + TICK).min(t_end));
        ticks.push(tick(rt));
    }
    let after = counters(rt, &live.inst);
    let results = block_on_within(rt, "the generators", collect(done, spec.clients))?;
    drop(env);
    let (setup_s, ledger) = (live.setup_s, live.ledger.clone());
    Ok(RunOutput {
        t_record,
        window: windows.measure_ns,
        ticks,
        results,
        before,
        after,
        setup_s,
        bytes_per_conn: loaded.bytes_per_conn,
        preloaded: loaded.preloaded,
        ledger,
        torn: live.finish(resident)?,
    })
}

/// The same topology and generators on `SimRuntime` under
/// `CostModel::monadic()` (its default): virtual ops/s over a virtual
/// window.
pub fn run_sim(
    spec: &Spec,
    ks: &Arc<Keyspace>,
    seed: u64,
    windows: Windows,
) -> Result<f64, String> {
    let sim = SimRuntime::new_default();
    let ctx = sim.ctx();
    let inst = Arc::new(build(&ctx, spec, None));
    let loaded = sim
        .block_on(inst.load(spec, ks))
        .map_err(|e| format!("sim set-up: {e}"))??;
    let t_record = sim.now() + windows.warm_ns;
    let env = Arc::new(GenEnv {
        spec: spec.clone(),
        keyspace: Arc::clone(ks),
        seed,
        stack: Arc::clone(&inst.client_stack),
        front: inst.front,
        t_record,
        t_end: t_record + windows.measure_ns,
        ledger: None,
    });
    let (done, _resident) = spawn_generators(&ctx, &env, loaded.pool);
    let results = sim
        .block_on(collect(done, spec.clients))
        .map_err(|e| format!("sim run: {e}"))?;
    if let Some(why) = results.iter().find_map(|r| r.error.clone()) {
        return Err(format!("sim run: {why}"));
    }
    let ops: u64 = results
        .iter()
        .flat_map(|r| &r.samples)
        .filter(|s| s.t_done < env.t_end)
        .map(|s| u64::from(s.ops))
        .sum();
    Ok(ops as f64 * SECS as f64 / windows.measure_ns as f64)
}

/// Client-side figures of one measured span.
#[derive(Debug, Clone)]
pub struct ClientView {
    /// Ops completed in the whole span (the base of the per-op counts).
    pub ops: u64,
    /// Completion rate of every window, in time order.
    pub per_window: Vec<f64>,
    /// Median completion rate of the calm windows.
    pub ops_per_s: f64,
    /// Latency of the ops completed in calm windows.
    pub lat_p50_us: f64,
    pub lat_p75_us: f64,
    pub lat_p99_us: f64,
    pub lat_samples: usize,
    /// Process CPU time and allocator calls per op, over calm windows.
    pub cpu_us_per_op: f64,
    pub allocs_per_op: f64,
    pub attempted: u64,
    pub failed: u64,
    pub bytes: u64,
}

impl RunOutput {
    /// The client's view, taken over the run's *calm* windows.
    ///
    /// The sandbox has other tenants: per-second completion rates of one
    /// run swing by ±15 %, whole seconds at a time, with the process
    /// alone on its CPU. Interference only ever slows a window down, so
    /// the span is cut at the sampler's ticks into 100 ms windows, the
    /// windows are ranked by completion rate, and rates, latencies and
    /// per-op costs are taken over the fastest quarter: the operating
    /// point the system holds when it is left alone. A real regression
    /// moves every window, calm ones included.
    pub fn client_view(&self) -> ClientView {
        let mut samples: Vec<_> = self.results.iter().flat_map(|r| &r.samples).collect();
        samples.sort_unstable_by_key(|s| s.t_done);
        let completions: Vec<(u64, u64)> = samples
            .iter()
            .map(|s| (s.t_done, u64::from(s.ops)))
            .collect();
        let tick_times: Vec<Nanos> = self.ticks.iter().map(|t| t.t).collect();
        let windows = cut_windows(&completions, &tick_times);
        let cost = |w: &Window, of: fn(&Tick) -> u64| {
            of(&self.ticks[w.tick + 1]) - of(&self.ticks[w.tick])
        };
        let calm = fastest(&windows, CALM_SHARE);
        let calm_ops: u64 = calm.iter().map(|&i| windows[i].ops).sum::<u64>().max(1);
        let mut lat: Vec<u64> = calm
            .iter()
            .flat_map(|&i| &samples[windows[i].from..windows[i].to])
            .map(|s| u64::from(s.lat_ns))
            .collect();
        lat.sort_unstable();
        ClientView {
            ops: windows.iter().map(|w| w.ops).sum(),
            per_window: windows.iter().map(|w| w.rate).collect(),
            ops_per_s: median(&calm.iter().map(|&i| windows[i].rate).collect::<Vec<_>>()),
            lat_p50_us: percentile(&lat, 50.0) as f64 / 1e3,
            lat_p75_us: percentile(&lat, 75.0) as f64 / 1e3,
            lat_p99_us: percentile(&lat, 99.0) as f64 / 1e3,
            lat_samples: lat.len(),
            cpu_us_per_op: calm
                .iter()
                .map(|&i| cost(&windows[i], |t| t.cpu_ns))
                .sum::<u64>() as f64
                / 1e3
                / calm_ops as f64,
            allocs_per_op: calm
                .iter()
                .map(|&i| cost(&windows[i], |t| t.allocs))
                .sum::<u64>() as f64
                / calm_ops as f64,
            attempted: self.preloaded + self.results.iter().map(|r| r.attempted).sum::<u64>(),
            failed: self.results.iter().map(|r| r.failed).sum(),
            bytes: self.results.iter().map(|r| r.bytes).sum(),
        }
    }

    /// Everything that makes a run incorrect, in words. Empty = correct.
    pub fn defects(&self, view: &ClientView) -> Vec<String> {
        let mut out: Vec<String> = self
            .results
            .iter()
            .filter_map(|r| r.error.clone())
            .map(|e| format!("generator: {e}"))
            .collect();
        if view.failed > 0 {
            out.push(format!("{} of {} ops failed", view.failed, view.attempted));
        }
        if view.ops == 0 {
            out.push("no op completed inside the window".into());
        }
        out.extend(self.torn.defects());
        out
    }
}
