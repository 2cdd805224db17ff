//! Metric definitions (mirrored by `BENCHMARK.json`) and the two kinds of
//! run that produce them: the timed run (end-to-end metrics, tracing off)
//! and the traced run (per-layer metrics).

use std::path::PathBuf;
use std::sync::Arc;

use eveth_core::time::{Nanos, MILLIS, SECS};

use crate::costtable::{self, Row};
use crate::procfs;
use crate::run::{run_real, run_sim, setup_only, ClientView, Counters, RunOutput, Windows};
use crate::stats::median;
use crate::trace;
use crate::workload::{Keyspace, Spec};

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// The traced run fails above this share of unattributed client time.
pub const MAX_RESIDUAL: f64 = 0.05;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// End-to-end metrics with the share of the parent's median by which
/// each may worsen: at least twice the widest ten-run spread observed on
/// any workload (README, "Calibration").
pub const END_TO_END: [(MetricDef, f64); 8] = [
    (def("ops_per_s", "1/s", "higher"), 0.2),
    (def("lat_p50_us", "us", "lower"), 0.12),
    (def("lat_p75_us", "us", "lower"), 0.2),
    (def("cpu_us_per_op", "us", "lower"), 0.2),
    (def("allocs_per_op", "count", "lower"), 0.02),
    (def("peak_rss_mb", "MB", "lower"), 0.15),
    (def("bytes_per_conn", "B", "lower"), 0.05),
    (def("setup_s", "s", "lower"), 0.25),
];

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

pub const PER_LAYER: [MetricDef; 57] = [
    // Counts per op, from public counters.
    def("engine.steps_per_op", "1/op", "lower"),
    def("sched.forks_per_op", "1/op", "lower"),
    def("sched.ctx_switches_per_op", "1/op", "lower"),
    def("reactor.epoll_regs_per_op", "1/op", "lower"),
    def("reactor.wakes_per_op", "1/op", "lower"),
    def("sync.parks_per_op", "1/op", "lower"),
    def("timer.sleeps_per_op", "1/op", "lower"),
    def("tcp.segs_per_op", "1/op", "lower"),
    def("tcp.goodput_mb_s", "MB/s", "higher"),
    def("bytes.copied_per_op", "B/op", "lower"),
    def("alloc.bytes_per_op", "B/op", "lower"),
    def("kv.store.lock_wait_us_per_op", "us/op", "lower"),
    def("kv.store.hit_ratio", "ratio", "higher"),
    def("cluster.router.backend_reqs_per_op", "1/op", "lower"),
    def("cluster.router.replicated_writes_per_op", "1/op", "lower"),
    // Stage ledger, from spans.
    def("net.c2s_transit_us", "us", "lower"),
    def("net.c2s_transit_p99_us", "us", "lower"),
    def("service.residence_us", "us", "lower"),
    def("service.residence_p99_us", "us", "lower"),
    def("net.s2c_transit_us", "us", "lower"),
    def("net.s2c_transit_p99_us", "us", "lower"),
    def("net.connect_us", "us", "lower"),
    def("net.accept_wait_us", "us", "lower"),
    def("cluster.router.residence_us", "us", "lower"),
    def("cluster.backend.residence_us", "us", "lower"),
    def("ledger.residual_ratio", "ratio", "lower"),
    def("trace.overhead_ratio", "ratio", "lower"),
    // Cost table.
    def("engine.loop_frame_ns", "ns", "lower"),
    def("engine.step_ns", "ns", "lower"),
    def("engine.fork_ns", "ns", "lower"),
    def("sched.yield_ns", "ns", "lower"),
    def("sync.mutex_handoff_ns", "ns", "lower"),
    def("sync.chan_pingpong_ns", "ns", "lower"),
    def("reactor.pipe_pingpong_ns", "ns", "lower"),
    def("event.choose2_ns", "ns", "lower"),
    def("timer.arm_cancel_ns", "ns", "lower"),
    def("timer.sleep_overshoot_us", "us", "lower"),
    def("bytes.acquire_freeze_ns", "ns", "lower"),
    def("stm.txn_ns", "ns", "lower"),
    def("kv.protocol.parse_ns_per_cmd", "ns", "lower"),
    def("kv.client.frame_ns_per_reply", "ns", "lower"),
    def("kv.store.get_ns", "ns", "lower"),
    def("kv.store.set_ns", "ns", "lower"),
    def("kv.store.get_ns_stm", "ns", "lower"),
    def("kv.store.set_ns_stm", "ns", "lower"),
    def("tcp.pingpong_us", "us", "lower"),
    def("tcp.connect_close_us", "us", "lower"),
    def("tcp.bulk_mb_s", "MB/s", "higher"),
    def("cluster.ring.lookup_ns", "ns", "lower"),
    def("http.parse_ns_per_req", "ns", "lower"),
    // Whole-system ratios.
    def("sched.smp2_ratio", "ratio", "higher"),
    def("simos.predicted_ops_ratio", "ratio", "lower"),
    def("trace.ops_per_s", "1/s", "higher"),
    def("trace.spans", "count", "higher"),
    // The reference window's client view and peak memory.
    def("client.ops_per_s", "1/s", "higher"),
    def("client.lat_p99_us", "us", "lower"),
    def("mem.peak_rss_mb", "MB", "lower"),
];

/// What one run of one workload hands to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Row>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is incorrect; empty = correct.
    pub defects: Vec<String>,
}

/// Run shape: the real thing, or the sub-second smoke (`--quick`).
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seconds: u64,
    pub quick: bool,
}

impl Plan {
    fn spec(&self, spec: &Spec) -> Spec {
        if self.quick {
            spec.quick()
        } else {
            spec.clone()
        }
    }

    /// `share` of the run's `--seconds` (or of 0.5 s when quick).
    fn part(&self, share: f64) -> Nanos {
        let total = if self.quick {
            SECS / 2
        } else {
            self.seconds * SECS
        };
        (total as f64 * share) as Nanos
    }
}

fn per_op(delta: u64, ops: u64) -> f64 {
    delta as f64 / ops.max(1) as f64
}

/// The timed run: `SETUP_REPS` set-ups (the last one is measured), one
/// second of warm-up, `--seconds` of measured window, tracing off.
pub fn timed(spec: &Spec, seed: u64, plan: Plan) -> Result<Outcome, String> {
    let spec = plan.spec(spec);
    let ks = Arc::new(Keyspace::new(spec.keys, spec.value_bytes));
    let mut defects = Vec::new();
    let mut setups = Vec::new();
    for _ in 1..(if plan.quick { 1 } else { SETUP_REPS }) {
        let (setup_s, found) = setup_only(&spec, &ks)?;
        setups.push(setup_s);
        defects.extend(found);
    }
    let windows = Windows {
        warm_ns: if plan.quick { 100 * MILLIS } else { SECS },
        measure_ns: plan.part(1.0),
    };
    let out = run_real(&spec, &ks, seed, 1, false, windows)?;
    setups.push(out.setup_s);
    let view = out.client_view();
    defects.extend(out.defects(&view));
    println!(
        "# {} latency samples in the calm windows; p99 there {:.1} us",
        view.lat_samples, view.lat_p99_us
    );
    println!("# set-ups (s): {setups:.4?}");
    println!("# ops/s per 100 ms window: {:.0?}", view.per_window);
    Ok(Outcome {
        metrics: vec![
            ("ops_per_s", view.ops_per_s, "1/s"),
            ("lat_p50_us", view.lat_p50_us, "us"),
            ("lat_p75_us", view.lat_p75_us, "us"),
            ("cpu_us_per_op", view.cpu_us_per_op, "us"),
            ("allocs_per_op", view.allocs_per_op, "count"),
            ("peak_rss_mb", procfs::peak_rss_mb(), "MB"),
            ("bytes_per_conn", out.bytes_per_conn, "B"),
            ("setup_s", median(&setups), "s"),
        ],
        attempted: view.attempted,
        failed: view.failed,
        defects,
    })
}

fn count_rows(out: &RunOutput, view: &ClientView, cluster: bool) -> Vec<Row> {
    let (a, b): (&Counters, &Counters) = (&out.before, &out.after);
    let ops = view.ops;
    let d = |f: fn(&Counters) -> u64| per_op(f(b) - f(a), ops);
    let lookups = (b.hits - a.hits) + (b.misses - a.misses);
    vec![
        ("engine.steps_per_op", d(|c| c.rt.steps), "1/op"),
        ("sched.forks_per_op", d(|c| c.rt.spawned), "1/op"),
        (
            "sched.ctx_switches_per_op",
            d(|c| c.rt.ctx_switches),
            "1/op",
        ),
        (
            "reactor.epoll_regs_per_op",
            d(|c| c.rt.epoll_registrations),
            "1/op",
        ),
        ("reactor.wakes_per_op", d(|c| c.rt.wakes), "1/op"),
        ("sync.parks_per_op", d(|c| c.rt.parks), "1/op"),
        ("timer.sleeps_per_op", d(|c| c.rt.sleeps), "1/op"),
        ("tcp.segs_per_op", d(|c| c.segs), "1/op"),
        (
            "tcp.goodput_mb_s",
            view.bytes as f64 / 1e6 / (out.window as f64 / SECS as f64),
            "MB/s",
        ),
        ("bytes.copied_per_op", d(|c| c.bytes_copied), "B/op"),
        ("alloc.bytes_per_op", d(|c| c.alloc.bytes), "B/op"),
        (
            "kv.store.lock_wait_us_per_op",
            d(|c| c.lock_wait_ns) / 1e3,
            "us/op",
        ),
        (
            "kv.store.hit_ratio",
            (b.hits - a.hits) as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        // Commands the backends executed per client command: 1 plus the
        // replicated share of the writes. No router, no figure.
        (
            "cluster.router.backend_reqs_per_op",
            if cluster { d(|c| c.kv_commands) } else { 0.0 },
            "1/op",
        ),
        (
            "cluster.router.replicated_writes_per_op",
            d(|c| c.replicated_writes),
            "1/op",
        ),
    ]
}

fn ledger_rows(out: &RunOutput, cluster: bool) -> Vec<Row> {
    let Some(ledger) = &out.ledger else {
        return Vec::new();
    };
    // Stage statistics cover the measured window; connects mostly happen
    // during set-up, so they are taken over the whole run.
    let stage = |name| ledger.summary(name, out.t_record);
    let (c2s, res, s2c) = (
        stage(trace::C2S),
        stage(trace::RESIDENCE),
        stage(trace::S2C),
    );
    let backend = stage(trace::BACKEND_RESIDENCE);
    vec![
        ("net.c2s_transit_us", c2s.p50_us, "us"),
        ("net.c2s_transit_p99_us", c2s.p99_us, "us"),
        ("service.residence_us", res.p50_us, "us"),
        ("service.residence_p99_us", res.p99_us, "us"),
        ("net.s2c_transit_us", s2c.p50_us, "us"),
        ("net.s2c_transit_p99_us", s2c.p99_us, "us"),
        (
            "net.connect_us",
            ledger.summary(trace::CONNECT, 0).p50_us,
            "us",
        ),
        (
            "net.accept_wait_us",
            ledger.summary(trace::ACCEPT_WAIT, 0).p50_us,
            "us",
        ),
        (
            "cluster.router.residence_us",
            if cluster { res.p50_us } else { 0.0 },
            "us",
        ),
        ("cluster.backend.residence_us", backend.p50_us, "us"),
        ("ledger.residual_ratio", ledger.residual_ratio(), "ratio"),
        (
            "trace.spans",
            (c2s.samples + res.samples + s2c.samples + backend.samples) as f64,
            "count",
        ),
    ]
}

/// Where trace files go: `$CARGO_TARGET_DIR/benchmark/`, or
/// `target/benchmark/` under the working directory.
fn trace_path(workload: &str) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target
        .join("benchmark")
        .join(format!("trace-{workload}.json"))
}

/// The traced run. `--seconds` is split between a reference window
/// (tracing off; the counts), the traced window (the ledger), the same
/// workload on two workers, the cost table and the simulator's
/// prediction.
pub fn traced(spec: &Spec, seed: u64, plan: Plan) -> Result<Outcome, String> {
    let name = spec.name;
    let spec = plan.spec(spec);
    let ks = Arc::new(Keyspace::new(spec.keys, spec.value_bytes));
    let cluster = spec.topology == crate::workload::Topology::Cluster;
    let warm_ns = plan.part(0.05);
    let windows = |share| Windows {
        warm_ns,
        measure_ns: plan.part(share),
    };
    let mut defects = Vec::new();
    let mut metrics = Vec::new();

    // A process's first second is slower than its tenth (cold caches and
    // allocator, a vCPU fresh from idle): spend it on a throw-away
    // set-up and a full warm-up before the window the ratios rest on.
    defects.extend(setup_only(&spec, &ks)?.1);
    let reference = run_real(
        &spec,
        &ks,
        seed,
        1,
        false,
        Windows {
            warm_ns: if plan.quick { warm_ns } else { SECS },
            measure_ns: plan.part(0.25),
        },
    )?;
    let ref_view = reference.client_view();
    defects.extend(reference.defects(&ref_view));
    metrics.push(("client.ops_per_s", ref_view.ops_per_s, "1/s"));
    metrics.push(("client.lat_p99_us", ref_view.lat_p99_us, "us"));
    // The reference run is the first thing this process does, so the
    // high-water mark is still its own.
    metrics.push(("mem.peak_rss_mb", procfs::peak_rss_mb(), "MB"));
    metrics.extend(count_rows(&reference, &ref_view, cluster));

    let with_trace = run_real(&spec, &ks, seed, 1, true, windows(0.3))?;
    let traced_view = with_trace.client_view();
    defects.extend(with_trace.defects(&traced_view));
    metrics.extend(ledger_rows(&with_trace, cluster));
    metrics.push(("trace.ops_per_s", traced_view.ops_per_s, "1/s"));
    metrics.push((
        "trace.overhead_ratio",
        ref_view.ops_per_s / traced_view.ops_per_s.max(1e-9),
        "ratio",
    ));
    if let Some(ledger) = &with_trace.ledger {
        let residual = ledger.residual_ratio();
        if residual > MAX_RESIDUAL {
            defects.push(format!(
                "ledger leaves {:.1} % of client time unattributed",
                residual * 100.0
            ));
        }
        let path = trace_path(name);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, ledger.chrome_trace_json()));
        match written {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(e) => defects.push(format!("trace file {}: {e}", path.display())),
        }
    }

    let smp2 = run_real(&spec, &ks, seed, 2, false, windows(0.15))?;
    let smp2_view = smp2.client_view();
    defects.extend(smp2.defects(&smp2_view));
    metrics.push((
        "sched.smp2_ratio",
        smp2_view.ops_per_s / ref_view.ops_per_s.max(1e-9),
        "ratio",
    ));

    // Virtual time is cheap to lengthen but slow to simulate: a fixed
    // small window, enough for thousands of ops on every workload.
    let sim_windows = Windows {
        warm_ns: if plan.quick { 5 * MILLIS } else { 20 * MILLIS },
        measure_ns: if plan.quick {
            20 * MILLIS
        } else {
            100 * MILLIS
        },
    };
    let predicted = run_sim(&spec, &ks, seed, sim_windows)?;
    metrics.push((
        "simos.predicted_ops_ratio",
        predicted / ref_view.ops_per_s.max(1e-9),
        "ratio",
    ));

    metrics.extend(costtable::measure(&spec, &ks, seed, plan.part(0.25)));

    Ok(Outcome {
        metrics,
        attempted: ref_view.attempted + traced_view.attempted,
        failed: ref_view.failed + traced_view.failed,
        defects,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn assert_covers(metrics: &[Row], names: impl Iterator<Item = (&'static str, &'static str)>) {
        for (name, unit) in names {
            let row = metrics
                .iter()
                .find(|r| r.0 == name)
                .unwrap_or_else(|| panic!("metric {name} missing"));
            assert_eq!(row.2, unit, "unit of {name}");
            assert!(row.1.is_finite(), "{name} = {}", row.1);
        }
    }

    /// Sub-second windows, cheap enough for a debug build: every
    /// workload completes with nothing failed and nothing leaked, and
    /// prints every end-to-end metric.
    #[test]
    fn quick_smoke_completes_every_workload_correctly() {
        let plan = Plan {
            seconds: 1,
            quick: true,
        };
        for spec in &WORKLOADS {
            let out = timed(spec, 1, plan).expect(spec.name);
            assert_eq!(out.defects, Vec::<String>::new(), "{}", spec.name);
            assert_eq!(out.failed, 0, "{}", spec.name);
            assert!(out.attempted > 0, "{}", spec.name);
            assert_eq!(out.metrics.len(), END_TO_END.len());
            assert_covers(
                &out.metrics,
                END_TO_END.iter().map(|(m, _)| (m.name, m.unit)),
            );
            // `bytes_per_conn` is a difference of the process-wide live
            // heap, which tests running beside this one also move; a
            // benchmark run is alone in its process.
            for row in out.metrics.iter().filter(|r| r.0 != "bytes_per_conn") {
                assert!(row.1 > 0.0, "{}: {} must never be 0", spec.name, row.0);
            }
        }
    }

    /// The traced run of the two workloads with the most different
    /// topologies prints every per-layer metric and a tight ledger.
    #[test]
    fn quick_traced_run_prints_every_per_layer_metric() {
        let plan = Plan {
            seconds: 1,
            quick: true,
        };
        for spec in [&WORKLOADS[3], &WORKLOADS[4]] {
            let out = traced(spec, 2, plan).expect(spec.name);
            assert_eq!(out.defects, Vec::<String>::new(), "{}", spec.name);
            assert_eq!(out.metrics.len(), PER_LAYER.len(), "{}", spec.name);
            assert_covers(&out.metrics, PER_LAYER.iter().map(|m| (m.name, m.unit)));
        }
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// binary prints, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for spec in &WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{}\", \"why\": ", spec.name)),
                "workload {} missing",
                spec.name
            );
        }
        for (m, bound) in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, bound
            );
            assert!(json.contains(&entry), "end_to_end entry missing: {entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "per_layer entry missing: {entry}");
        }
        assert_eq!(json.matches("\"why\"").count(), WORKLOADS.len());
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
