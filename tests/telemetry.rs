//! The telemetry fabric end to end: span identity mirrors the fork tree,
//! the flight recorder's bounded ring keeps the newest events and counts
//! what it dropped, per-span wait attribution reconciles *exactly* with
//! the runtime's own `SimReport` accounting (the hooks are handed the
//! same virtual timestamps), and the Chrome-trace export is
//! byte-identical across reruns — at one CPU and at four.

use std::sync::Arc;

use eveth::core::net::{recv_to_end, send_all, Endpoint, HostId, NetStack};
use eveth::core::syscall::{span, sys_fork, sys_nbio, sys_sleep};
use eveth::core::telemetry::{SpanState, Telemetry};
use eveth::core::time::MILLIS;
use eveth::kv::server::{KvConfig, KvServer};
use eveth::kv::store::StoreConfig;
use eveth::simos::cost::CostModel;
use eveth::simos::net::LinkParams;
use eveth::simos::sockets::SocketFabric;
use eveth::simos::{SimClock, SimConfig, SimRuntime};
use eveth::ThreadM;
use eveth_bench::workloads::{kv_trace_run, KvRunParams, KvTraceArtifacts};

fn sim_with_telemetry(tel: &Arc<Telemetry>) -> SimRuntime {
    let sim = SimRuntime::new(
        SimClock::new(),
        SimConfig {
            cost: CostModel::monadic(),
            slice: 256,
            cpus: 1,
            ..SimConfig::default()
        },
    );
    assert!(sim.set_telemetry(Arc::clone(tel)));
    assert!(
        !sim.set_telemetry(Arc::clone(tel)),
        "second attach loses (first wins)"
    );
    sim
}

/// A binary fork tree of depth `d`: every node sleeps briefly (so spans
/// have distinct timestamps) and forks two children.
fn fork_tree(d: u32) -> ThreadM<()> {
    eveth::do_m! {
        sys_sleep(MILLIS);
        if d == 0 {
            ThreadM::pure(())
        } else {
            eveth::do_m! {
                sys_fork(fork_tree(d - 1));
                sys_fork(fork_tree(d - 1));
                ThreadM::pure(())
            }
        }
    }
}

#[test]
fn span_tree_mirrors_fork_tree_exactly() {
    let tel = Telemetry::new();
    let sim = sim_with_telemetry(&tel);
    let root = sim.spawn(span("root", fork_tree(2)));
    sim.run();

    let spans = tel.spans();
    // Depth-2 binary tree: 1 + 2 + 4 = 7 threads, nothing else ran.
    assert_eq!(spans.len(), 7);
    let root_span = tel.span(root.0).expect("root tracked");
    assert_eq!(root_span.parent, None);
    assert_eq!(root_span.name.as_deref(), Some("root"));

    // Every node except the root has a parent; each interior node has
    // exactly two children — the span table IS the fork tree.
    let children_of = |tid: u64| {
        spans
            .iter()
            .filter(|s| s.parent == Some(tid))
            .map(|s| s.tid)
            .collect::<Vec<_>>()
    };
    let l1 = children_of(root.0);
    assert_eq!(l1.len(), 2, "root forked two children");
    for &c in &l1 {
        assert_eq!(children_of(c).len(), 2, "child {c} forked two");
    }
    let l2: Vec<u64> = l1.iter().flat_map(|&c| children_of(c)).collect();
    for &g in &l2 {
        assert_eq!(children_of(g).len(), 0, "leaf {g} forked none");
    }

    // Everything ran to completion and the lifecycle counters agree with
    // the runtime's own report.
    assert!(spans.iter().all(|s| matches!(
        s.state,
        SpanState::Exited {
            uncaught: false,
            ..
        }
    )));
    let report = sim.report();
    assert_eq!(report.stats.spawned, 7);
    assert_eq!(
        tel.registry()
            .counter_value("eveth_runtime_threads_spawned", &[]),
        Some(7)
    );
    assert_eq!(
        tel.registry()
            .counter_value("eveth_runtime_threads_exited", &[]),
        Some(7)
    );
    // Each span slept once: every parked nanosecond is timer wait.
    assert_eq!(tel.wait_totals(), (0, 0, report.timer_wait_ns));
}

#[test]
fn flight_recorder_overwrite_keeps_newest_and_counts_drops() {
    // One shard of four slots, then a workload that records far more
    // events than that: the snapshot must be exactly the four
    // highest-sequence events, and `dropped` must account for the rest.
    let tel = Telemetry::with_recorder(1, 4);
    let sim = sim_with_telemetry(&tel);
    sim.spawn(fork_tree(2));
    sim.run();

    let rec = tel.recorder();
    let total = rec.recorded();
    assert!(total > 4, "workload recorded {total} events");
    assert_eq!(rec.dropped(), total - 4);
    let snap = rec.snapshot();
    assert_eq!(snap.len(), 4);
    assert!(
        snap.iter().all(|e| e.seq >= total - 4),
        "ring keeps the newest events"
    );
    assert_eq!(rec.last(2).len(), 2);
}

fn trace_params(cpus: usize, seed: u64) -> KvRunParams {
    KvRunParams {
        cost: CostModel::monadic(),
        cpus,
        slice: 64,
        app_tcp: false,
        loopback: true,
        shards: 2,
        stm: false,
        clients: 4,
        batches_per_conn: 2,
        pipeline_depth: 4,
        set_percent: 30,
        keys: 32,
        value_bytes: 64,
        preload: false,
        seed,
    }
}

/// One line of the text exposition, e.g.
/// `eveth_kv_shard_hits_total{shard="0"} 12`.
fn metric_line(body: &str, name_and_labels: &str) -> Option<u64> {
    body.lines()
        .find(|l| {
            l.starts_with(name_and_labels) && l.as_bytes().get(name_and_labels.len()) == Some(&b' ')
        })
        .and_then(|l| l[name_and_labels.len() + 1..].trim().parse().ok())
}

#[test]
fn span_wait_sums_reconcile_exactly_with_the_report() {
    let art = kv_trace_run(&trace_params(1, 11));
    let report = &art.report;

    // The runtime's own invariant first.
    assert_eq!(report.io_wait_ns + report.lock_wait_ns, report.park_wait_ns);

    // The hub's global counters were fed the very same (now, ready_at)
    // pairs the report's accounting used — equality is exact, not
    // approximate.
    assert_eq!(
        art.telemetry.wait_totals(),
        (report.io_wait_ns, report.lock_wait_ns, report.timer_wait_ns)
    );

    // And they decompose per span: summing the attribution over every
    // tracked thread reproduces the totals to the nanosecond.
    let spans = art.telemetry.spans();
    let sum_io: u64 = spans.iter().map(|s| s.io_wait_ns).sum();
    let sum_lock: u64 = spans.iter().map(|s| s.lock_wait_ns).sum();
    let sum_timer: u64 = spans.iter().map(|s| s.timer_wait_ns).sum();
    assert_eq!(sum_io, report.io_wait_ns);
    assert_eq!(sum_lock, report.lock_wait_ns);
    assert_eq!(sum_timer, report.timer_wait_ns);

    // The registry exposes the same cells.
    let reg = art.telemetry.registry();
    assert_eq!(
        reg.counter_value("eveth_runtime_io_wait_ns", &[]),
        Some(report.io_wait_ns)
    );
    assert_eq!(
        reg.counter_value("eveth_runtime_lock_wait_ns", &[]),
        Some(report.lock_wait_ns)
    );
    assert_eq!(
        reg.counter_value("eveth_runtime_threads_spawned", &[]),
        Some(report.stats.spawned)
    );
}

#[test]
fn debug_service_metrics_reconcile_with_kv_shard_stats() {
    let p = trace_params(1, 11);
    let art = kv_trace_run(&p);
    let body = &art.metrics_body;

    // The wire body was rendered after the load drained, so the KV-side
    // counters it reports are final — they must equal the live handles.
    let reg = art.telemetry.registry();
    for name in ["eveth_kv_commands_total", "eveth_kv_bytes_in_total"] {
        let live = reg.counter_value(name, &[]).expect("registered");
        assert_eq!(metric_line(body, name), Some(live), "{name} reconciles");
        assert!(live > 0, "{name} saw traffic");
    }
    // Connections are the framework's count, the only one kept.
    let accepted = reg
        .counter_value("eveth_server_accepted_total", &[("service", "kv")])
        .expect("registered");
    assert_eq!(
        metric_line(body, "eveth_server_accepted_total{service=\"kv\"}"),
        Some(accepted),
        "accepts reconcile"
    );
    assert!(accepted > 0, "the kv server accepted connections");
    for shard in 0..p.shards {
        for kind in ["hits", "misses", "sets"] {
            let probe = format!("eveth_kv_shard_{kind}_total{{shard=\"{shard}\"}}");
            let labels_shard = shard.to_string();
            let live = reg
                .counter_value(
                    &format!("eveth_kv_shard_{kind}_total"),
                    &[("shard", labels_shard.as_str())],
                )
                .expect("shard counter registered");
            assert_eq!(metric_line(body, &probe), Some(live), "{probe} reconciles");
        }
    }

    // Session wait rollup: the kv sessions all exited before the fetch,
    // so the body carries their final I/O-wait attribution.
    let io_roll = metric_line(
        body,
        "eveth_server_session_io_wait_ns_total{service=\"kv\"}",
    )
    .expect("rollup exposed");
    assert!(io_roll > 0, "kv sessions parked on I/O");
    // The bounded-send path ran with a generous deadline: present, zero.
    assert_eq!(
        metric_line(body, "eveth_server_send_timeouts_total{service=\"kv\"}"),
        Some(0)
    );
    // STM counters are registered (zero under the mutex backend).
    assert_eq!(
        metric_line(body, "eveth_stm_retries_total{store=\"kv\"}"),
        Some(0)
    );

    // The live span table went over the wire too.
    assert!(art.threads_body.contains("name=kv"));
    assert!(art.threads_body.contains("state="));
}

/// What [`kv_with_every_store_counter_bumped`] observed.
struct Bumped {
    /// The `stats` reply.
    stats: String,
    /// The `/metrics` body.
    metrics: String,
    /// Every store counter's `stats` name and the value it was bumped to.
    expected: Vec<(&'static str, u64)>,
    /// The framework's accept count once the `stats` session ended.
    accepted: u64,
}

/// A two-shard KV server with telemetry attached and every store
/// counter of shard 1 bumped to a value of its own (1..=13, in
/// `ShardStats` field order, each under the name `stats` reports it by),
/// asked for `stats` over one connection.
fn kv_with_every_store_counter_bumped() -> Bumped {
    let tel = Telemetry::new();
    let sim = sim_with_telemetry(&tel);
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    let server = KvServer::new(
        fabric.stack(HostId(1)),
        KvConfig {
            store: StoreConfig {
                shards: 2,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    server.attach_telemetry(&tel);
    sim.spawn(server.run());

    let sh = &server.store().shard_stats()[1];
    let cells = [
        ("get_hits", &sh.hits),
        ("get_misses", &sh.misses),
        ("sets", &sh.sets),
        ("deletes", &sh.deletes),
        ("counter_ops", &sh.counter_ops),
        ("appends", &sh.appends),
        ("prepends", &sh.prepends),
        ("touches", &sh.touches),
        ("cas_hits", &sh.cas_hits),
        ("cas_badval", &sh.cas_badval),
        ("cas_misses", &sh.cas_misses),
        ("expired_lazy", &sh.expired_lazy),
        ("expired_purged", &sh.expired_purged),
    ];
    let mut expected = Vec::new();
    for (i, (name, cell)) in cells.iter().enumerate() {
        cell.add(i as u64 + 1);
        expected.push((*name, i as u64 + 1));
    }

    let client = fabric.stack(HostId(2));
    let reply = sim
        .block_on(eveth::do_m! {
            let conn <- client.connect(Endpoint::new(HostId(1), 11211));
            let conn = conn.unwrap();
            let sent <- send_all(&conn, bytes::Bytes::from_static(b"stats\r\nquit\r\n"));
            let _ = sent.unwrap();
            recv_to_end(&conn, 64 * 1024)
        })
        .unwrap()
        .unwrap();
    Bumped {
        stats: String::from_utf8(reply.to_vec()).unwrap(),
        metrics: tel.registry().expose(),
        expected,
        accepted: server.server().stats().accepted.get(),
    }
}

#[test]
fn stats_reports_every_store_counter() {
    let Bumped {
        stats,
        expected,
        accepted,
        ..
    } = kv_with_every_store_counter_bumped();
    // Connections are the framework's accept count, counted once.
    for (name, value) in expected.into_iter().chain([("connections", accepted)]) {
        let line = format!("STAT {name} {value}\r\n");
        assert!(stats.contains(&line), "`stats` lacks {line:?}:\n{stats}");
    }
}

#[test]
fn metrics_expose_every_store_counter_per_shard() {
    let Bumped {
        metrics: body,
        expected,
        ..
    } = kv_with_every_store_counter_bumped();
    for (name, value) in expected {
        // `get_hits`/`get_misses` are `stats` names; the metrics never
        // carried the prefix.
        let name = name.strip_prefix("get_").unwrap_or(name);
        for (shard, want) in [(0, 0), (1, value)] {
            let probe = format!("eveth_kv_shard_{name}_total{{shard=\"{shard}\"}}");
            assert_eq!(metric_line(&body, &probe), Some(want), "{probe}");
        }
    }
}

/// A second attach on the same hub subscribes the session-wait rollup no
/// second time: what the framework rolls up equals what the `kv` session
/// spans waited, not twice that.
#[test]
fn a_second_attach_does_not_double_the_session_wait_rollup() {
    let tel = Telemetry::new();
    let sim = sim_with_telemetry(&tel);
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    let server = KvServer::new(fabric.stack(HostId(1)), KvConfig::default());
    server.attach_telemetry(&tel);
    server.attach_telemetry(&tel);
    sim.spawn(server.run());

    let client = fabric.stack(HostId(2));
    sim.block_on(eveth::do_m! {
        let conn <- client.connect(Endpoint::new(HostId(1), 11211));
        let conn = conn.unwrap();
        let sent <- send_all(&conn, bytes::Bytes::from_static(b"set k 0 0 1\r\nv\r\n"));
        let _ = sent.unwrap();
        // The session parks on its socket meanwhile: I/O wait to roll up.
        sys_sleep(MILLIS);
        let sent <- send_all(&conn, bytes::Bytes::from_static(b"quit\r\n"));
        let _ = sent.unwrap();
        recv_to_end(&conn, 1024)
    })
    .unwrap()
    .unwrap();
    sim.run_until(Some(sim.now() + MILLIS));

    let waited: u64 = tel
        .spans()
        .iter()
        .filter(|s| s.name.as_deref() == Some("kv"))
        .map(|s| s.io_wait_ns)
        .sum();
    assert!(waited >= MILLIS, "the session parked on I/O: {waited}");
    assert_eq!(
        tel.registry().counter_value(
            "eveth_server_session_io_wait_ns_total",
            &[("service", "kv")]
        ),
        Some(waited)
    );
}

#[test]
fn the_trace_cell_honours_the_transport_and_preload_choices() {
    let p = trace_params(1, 11);
    let commands = |art: &KvTraceArtifacts| {
        metric_line(&art.metrics_body, "eveth_kv_commands_total").expect("kv commands exposed")
    };
    let sockets = kv_trace_run(&p);
    let app_tcp = kv_trace_run(&KvRunParams {
        app_tcp: true,
        ..p.clone()
    });
    assert_ne!(
        sockets.report.now, app_tcp.report.now,
        "the app-level TCP stack moves virtual time"
    );
    let load = (p.clients as usize * p.batches_per_conn * p.pipeline_depth) as u64;
    assert_eq!(commands(&sockets), load);
    assert_eq!(commands(&app_tcp), load);
    let preloaded = kv_trace_run(&KvRunParams {
        preload: true,
        ..p.clone()
    });
    assert_eq!(
        commands(&preloaded),
        load + p.keys as u64,
        "the fill ran first"
    );
}

#[test]
fn chrome_export_is_byte_identical_across_reruns_at_1_and_4_cpus() {
    for cpus in [1usize, 4] {
        let a: KvTraceArtifacts = kv_trace_run(&trace_params(cpus, 7));
        let b: KvTraceArtifacts = kv_trace_run(&trace_params(cpus, 7));
        assert_eq!(
            a.chrome_json, b.chrome_json,
            "chrome export differs across reruns at cpus={cpus}"
        );
        assert_eq!(
            a.metrics_body, b.metrics_body,
            "metrics body differs across reruns at cpus={cpus}"
        );
        assert!(a.chrome_json.starts_with("{\"traceEvents\":["));
        assert!(a.chrome_json.trim_end().ends_with('}'));
        assert!(
            a.chrome_json.contains("\"ph\":\"X\""),
            "wait slices present"
        );
        assert!(
            a.chrome_json.contains("\"name\":\"kv\""),
            "session spans named"
        );
    }
    // Different seeds must actually change the trace.
    let a = kv_trace_run(&trace_params(1, 7));
    let b = kv_trace_run(&trace_params(1, 8));
    assert_ne!(a.chrome_json, b.chrome_json);
}

#[test]
fn buffer_pool_metrics_expose_on_opt_in() {
    let tel = Telemetry::new();
    // Off by default: the sources are process-global, so hubs that diff
    // byte-exact artifacts across reruns must not inherit them.
    assert!(
        !tel.registry().expose().contains("eveth_buf_"),
        "buffer-pool metrics must be opt-in"
    );
    tel.register_buffer_pool_metrics();

    // Drive the fabric so the counters are demonstrably live.
    let mut b = bytes::BufferPool::global().acquire();
    b.extend_from_slice(b"counted payload");
    drop(b.freeze());

    let body = tel.registry().expose();
    assert!(body.contains("# TYPE eveth_buf_bytes_copied_total counter"));
    assert!(body.contains("# TYPE eveth_buf_pool_free_slabs gauge"));
    assert!(body.contains("eveth_buf_slabs_total"));
    assert!(body.contains("eveth_buf_buffers_allocated_total"));
    let copied = tel
        .registry()
        .counter_value("eveth_buf_bytes_copied_total", &[])
        .expect("registered");
    assert!(copied >= 15, "the staged payload was counted, got {copied}");
}

#[test]
fn annotation_is_uncharged_and_local_to_its_thread() {
    // Two identical runs, one with span names attached everywhere, one
    // without: virtual time and the report must not move — the recorder
    // stays off the report path.
    let run = |annotate: bool| {
        let tel = Telemetry::new();
        let sim = sim_with_telemetry(&tel);
        let body = eveth::do_m! {
            sys_sleep(MILLIS);
            sys_nbio(|| ())
        };
        sim.spawn(if annotate { span("worker", body) } else { body });
        sim.run();
        sim.report()
    };
    let named = run(true);
    let plain = run(false);
    assert_eq!(
        named.now, plain.now,
        "annotation must not move virtual time"
    );
    assert_eq!(named.timer_wait_ns, plain.timer_wait_ns);
}
