//! Semantics of the first-class event layer (`eveth_core::event`):
//!
//! * `choose` resolution is deterministic under `SimRuntime` — same seed +
//!   config ⇒ byte-identical `SimReport` at every CPU count, and ties at
//!   equal virtual time break by branch order;
//! * losing branches are *cancelled*: no waiter is left registered in a
//!   channel/MVar/signal wait queue after the race is decided, and a
//!   losing timeout neither fires nor extends the virtual makespan;
//! * nested `choose` flattens, `guard` re-evaluates per synchronization;
//! * the KV service's idle-connection deadline (a `timeout_evt` branch of
//!   the per-session `choose`) reaps a stalled connection while live
//!   pipelined connections are unaffected — and wins are classified as
//!   timer wait, readiness wins as I/O wait, in the report's taxonomy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use eveth::core::event::{always, choose, guard, never, sync, timeout_evt, Signal};
use eveth::core::net::{recv_to_end, send_all, Endpoint, HostId, NetStack};
use eveth::core::sync::{Chan, MVar};
use eveth::core::syscall::{sys_fork, sys_nbio, sys_sleep, sys_time};
use eveth::core::time::{Nanos, MILLIS};
use eveth::kv::loadgen::{client_thread, KvLoadConfig, KvLoadStats, Zipf};
use eveth::kv::server::{KvConfig, KvServer};
use eveth::kv::store::StoreConfig;
use eveth::simos::cost::CostModel;
use eveth::simos::net::LinkParams;
use eveth::simos::sockets::SocketFabric;
use eveth::simos::{SimClock, SimConfig, SimRuntime};
use eveth::{do_m, loop_m, Loop, ThreadM};

fn sim_with_cpus(cpus: usize) -> SimRuntime {
    SimRuntime::new(
        SimClock::new(),
        SimConfig {
            cost: CostModel::monadic(),
            slice: 32,
            cpus,
            ..SimConfig::default()
        },
    )
}

/// A mixed event workload: producers on their own cadences, consumers
/// racing two channels against a timeout and a shutdown broadcast.
/// Returns the winners' log plus the report fingerprint.
fn choose_workload(cpus: usize) -> (Vec<String>, String) {
    let sim = sim_with_cpus(cpus);
    let a: Chan<u64> = Chan::new();
    let b: Chan<u64> = Chan::new();
    let stop = Signal::new();
    let log: Arc<std::sync::Mutex<Vec<String>>> = Arc::new(std::sync::Mutex::new(Vec::new()));

    for (pace, ch, tag) in [(3u64, a.clone(), 100u64), (5u64, b.clone(), 200u64)] {
        sim.spawn(eveth::for_each_m(0..4u64, move |n| {
            let ch = ch.clone();
            do_m! {
                sys_sleep(pace * MILLIS);
                ch.write(tag + n)
            }
        }));
    }
    {
        let stop = stop.clone();
        sim.spawn(do_m! {
            sys_sleep(40 * MILLIS);
            sys_nbio(move || stop.fire())
        });
    }
    for c in 0..3u64 {
        let a = a.clone();
        let b = b.clone();
        let stop = stop.clone();
        let log = Arc::clone(&log);
        sim.spawn(loop_m((), move |()| {
            let ev = choose(vec![
                a.read_evt().wrap(Some),
                b.read_evt().wrap(Some),
                timeout_evt(4 * MILLIS).wrap(|()| Some(u64::MAX)),
                stop.wait_evt().wrap(|()| None),
            ]);
            let log = Arc::clone(&log);
            do_m! {
                let got <- sync(ev);
                let now <- sys_time();
                match got {
                    Some(v) => sys_nbio(move || {
                        log.lock().unwrap().push(format!("c{c}@{now}:{v}"));
                    })
                    .map(|_| Loop::Continue(())),
                    None => ThreadM::pure(Loop::Break(())),
                }
            }
        }));
    }
    let report = sim.run();
    let log = log.lock().unwrap().clone();
    (log, format!("{report:?}"))
}

#[test]
fn choose_is_deterministic_across_runs_and_cpu_counts() {
    for cpus in [1usize, 4] {
        let (log_a, rep_a) = choose_workload(cpus);
        let (log_b, rep_b) = choose_workload(cpus);
        assert_eq!(log_a, log_b, "winner log must be identical (cpus={cpus})");
        assert_eq!(
            rep_a, rep_b,
            "SimReport must be byte-identical (cpus={cpus})"
        );
        // Every produced message is consumed exactly once, whatever the
        // CPU count.
        let delivered: Vec<u64> = {
            let mut v: Vec<u64> = log_a
                .iter()
                .map(|s| s.rsplit(':').next().unwrap().parse().unwrap())
                .filter(|&v| v != u64::MAX)
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            delivered,
            vec![100, 101, 102, 103, 200, 201, 202, 203],
            "cpus={cpus}"
        );
    }
}

#[test]
fn ties_at_equal_virtual_time_break_by_branch_order() {
    // Both branches are ready at the instant of the sync: the listed-first
    // one must win — and swapping the list swaps the winner.
    for (first_is_chan, expect) in [(true, "chan"), (false, "always")] {
        let run = || {
            let sim = SimRuntime::new_default();
            let ch: Chan<&'static str> = Chan::new();
            ch.push_now("chan");
            let arms = if first_is_chan {
                vec![ch.read_evt(), always("always")]
            } else {
                vec![always("always"), ch.read_evt()]
            };
            sim.block_on(sync(choose(arms))).unwrap()
        };
        assert_eq!(run(), expect);
        assert_eq!(run(), expect, "and deterministically so");
    }
}

#[test]
fn losing_branches_leave_no_registered_waiters() {
    // Timeout beats two silent channels and an empty MVar: afterwards
    // every wait queue must be empty again.
    let sim = SimRuntime::new_default();
    let a: Chan<u8> = Chan::new();
    let b: Chan<u8> = Chan::new();
    let mv: MVar<u8> = MVar::new_empty();
    let stop = Signal::new();
    let winner = sim
        .block_on(sync(choose(vec![
            a.read_evt().wrap(|_| "a"),
            b.read_evt().wrap(|_| "b"),
            mv.take_evt().wrap(|_| "mv"),
            stop.wait_evt().wrap(|_| "stop"),
            timeout_evt(2 * MILLIS).wrap(|_| "timeout"),
        ])))
        .unwrap();
    assert_eq!(winner, "timeout");
    assert_eq!(a.taker_count(), 0, "losing chan registration withdrawn");
    assert_eq!(b.taker_count(), 0);
    assert_eq!(mv.waiter_counts(), (0, 0));
    assert_eq!(stop.waiter_count(), 0);

    // And the reverse: a channel win cancels the armed timeout *eagerly* —
    // the virtual clock must not run on to the abandoned deadline.
    let sim = SimRuntime::new_default();
    let ch: Chan<u8> = Chan::new();
    let tx = ch.clone();
    let rx = ch.clone();
    let winner = sim
        .block_on(do_m! {
            sys_fork(do_m! {
                sys_sleep(MILLIS);
                tx.write(9)
            });
            sync(choose(vec![
                rx.read_evt().wrap(|v| v),
                timeout_evt(10_000 * MILLIS).wrap(|()| 0),
            ]))
        })
        .unwrap();
    let report = sim.run();
    assert_eq!(winner, 9);
    assert_eq!(ch.taker_count(), 0);
    assert!(
        report.now < 100 * MILLIS,
        "cancelled 10s timeout must not extend the makespan: now = {}",
        report.now
    );
}

#[test]
fn nested_choose_flattens_and_guard_reevaluates() {
    let sim = SimRuntime::new_default();
    // Nested choice: the inner choose's first ready branch wins overall.
    let v = sim
        .block_on(sync(choose(vec![
            choose(vec![never::<u32>(), choose(vec![never(), always(7)])]),
            always(1),
        ])))
        .unwrap();
    assert_eq!(v, 7, "inner ready branch precedes later outer branches");

    // Guard: evaluated at sync time, once per synchronization.
    let runs = Arc::new(AtomicU64::new(0));
    let make = {
        let runs = Arc::clone(&runs);
        move || {
            let runs = Arc::clone(&runs);
            guard(move || {
                let n = runs.fetch_add(1, Ordering::SeqCst);
                always(n)
            })
        }
    };
    let ev1 = make();
    let ev2 = make();
    assert_eq!(runs.load(Ordering::SeqCst), 0, "construction runs nothing");
    assert_eq!(sim.block_on(sync(ev1)).unwrap(), 0);
    assert_eq!(sim.block_on(sync(ev2)).unwrap(), 1);
    assert_eq!(runs.load(Ordering::SeqCst), 2);

    // Guard under choose: still lazy, still flattened.
    let runs2 = Arc::new(AtomicU64::new(0));
    let g = {
        let runs2 = Arc::clone(&runs2);
        guard(move || {
            runs2.fetch_add(1, Ordering::SeqCst);
            never::<u64>()
        })
    };
    let v = sim
        .block_on(sync(choose(vec![g, timeout_evt(MILLIS).wrap(|()| 42)])))
        .unwrap();
    assert_eq!(v, 42);
    assert_eq!(runs2.load(Ordering::SeqCst), 1, "guard forced by the sync");
}

#[test]
fn timeout_win_is_timer_wait_channel_win_is_lock_wait() {
    // A choose lost to the timeout must account the blocked episode as
    // *timer* wait (the winning branch reclassifies the park), keeping the
    // io + lock == park invariant intact.
    let sim = SimRuntime::new_default();
    let ch: Chan<u8> = Chan::new();
    sim.block_on(sync(choose(vec![
        ch.read_evt().wrap(|_| ()),
        timeout_evt(5 * MILLIS).wrap(|()| ()),
    ])))
    .unwrap();
    let report = sim.report();
    assert_eq!(report.io_wait_ns + report.lock_wait_ns, report.park_wait_ns);
    assert!(
        report.timer_wait_ns >= 4 * MILLIS,
        "timeout win must land in timer wait: {}",
        report.timer_wait_ns
    );
    assert_eq!(report.lock_waits, 0, "no lock-classified episode");

    // And a channel win lands in lock wait.
    let sim = SimRuntime::new_default();
    let ch: Chan<u8> = Chan::new();
    let tx = ch.clone();
    sim.block_on(do_m! {
        sys_fork(do_m! {
            sys_sleep(5 * MILLIS);
            tx.write(1)
        });
        sync(choose(vec![
            ch.read_evt().wrap(|_| ()),
            timeout_evt(50 * MILLIS).wrap(|()| ()),
        ]))
    })
    .unwrap();
    let report = sim.report();
    assert_eq!(report.io_wait_ns + report.lock_wait_ns, report.park_wait_ns);
    assert!(
        report.lock_wait_ns >= 4 * MILLIS,
        "channel win must land in lock wait: {}",
        report.lock_wait_ns
    );
}

/// The service-layer proof: with `idle_timeout` set, a connection that
/// goes silent is reaped by the session's `choose` while a live pipelined
/// connection on the same server is answered in full.
#[test]
fn kv_idle_timeout_reaps_stalled_connection_only() {
    const IDLE: Nanos = 50 * MILLIS;
    let sim = SimRuntime::new_default();
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    let server = KvServer::new(
        fabric.stack(HostId(1)),
        KvConfig {
            port: 11211,
            store: StoreConfig {
                shards: 2,
                ..Default::default()
            },
            idle_timeout: IDLE,
            ..Default::default()
        },
    );
    sim.spawn(server.run());

    // The stalled client: one request, then silence. Its next recv must
    // observe EOF when the server reaps the session at the idle deadline.
    let stalled_eof_at: Arc<AtomicU64> = Arc::new(AtomicU64::new(0));
    {
        let stack = fabric.stack(HostId(2));
        let eof_at = Arc::clone(&stalled_eof_at);
        sim.spawn(do_m! {
            let conn <- stack.connect(Endpoint::new(HostId(1), 11211));
            let conn = conn.unwrap();
            let sent <- send_all(&conn, Bytes::from_static(b"set idle 0 0 1\r\nv\r\n"));
            let _ = sent.unwrap();
            let reply <- conn.recv(64);
            let _ = assert_eq!(&reply.unwrap()[..], b"STORED\r\n");
            // Go silent; the server must close this session at IDLE.
            let eof <- conn.recv(64);
            let now <- sys_time();
            sys_nbio(move || {
                assert!(eof.unwrap().is_empty(), "server close surfaces as EOF");
                eof_at.store(now, Ordering::SeqCst);
            })
        });
    }

    // The live client: ordinary pipelined load, slow enough to span the
    // idle deadline but never silent for IDLE at once.
    let stats = Arc::new(KvLoadStats::default());
    let cfg = Arc::new(KvLoadConfig {
        server: Endpoint::new(HostId(1), 11211),
        batches_per_conn: 20,
        pipeline_depth: 4,
        keys: 32,
        zipf_s: 0.8,
        set_percent: 30,
        value_bytes: 32,
        ttl_secs: 0,
        seed: 5,
    });
    let zipf = Arc::new(Zipf::new(cfg.keys, cfg.zipf_s));
    sim.spawn(client_thread(
        fabric.stack(HostId(3)) as Arc<dyn NetStack>,
        Arc::clone(&cfg),
        Arc::clone(&zipf),
        Arc::clone(&stats),
        0,
    ));

    sim.run_until(Some(400 * MILLIS));

    assert_eq!(
        stats.responses(),
        20 * 4,
        "the live pipelined connection is answered in full"
    );
    let reaped = server.server().stats().idle_reaped.get();
    assert_eq!(reaped, 1, "exactly the stalled session is reaped");
    // `stats` reports the framework's count: one reap, counted once.
    let stack = fabric.stack(HostId(4));
    let reply = sim
        .block_on(do_m! {
            let conn <- stack.connect(Endpoint::new(HostId(1), 11211));
            let conn = conn.unwrap();
            let sent <- send_all(&conn, Bytes::from_static(b"stats\r\nquit\r\n"));
            let _ = sent.unwrap();
            recv_to_end(&conn, 64 * 1024)
        })
        .unwrap()
        .unwrap();
    let text = String::from_utf8(reply.to_vec()).unwrap();
    let line = format!("STAT idle_reaped {reaped}\r\n");
    assert!(text.contains(&line), "`stats` lacks {line:?}:\n{text}");
    let eof_at = stalled_eof_at.load(Ordering::SeqCst);
    assert!(
        eof_at >= IDLE,
        "reap happens no earlier than the idle deadline: {eof_at}"
    );
    assert!(
        eof_at < 3 * IDLE,
        "and not much later than it either: {eof_at}"
    );
}

/// Graceful shutdown: firing the broadcast closes the listener and every
/// idle session; a fresh connect is refused afterwards.
#[test]
fn kv_shutdown_broadcast_closes_sessions_and_listener() {
    let sim = SimRuntime::new_default();
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    let server = KvServer::new(
        fabric.stack(HostId(1)),
        KvConfig {
            port: 11211,
            janitor_interval: 0,
            ..Default::default()
        },
    );
    sim.spawn(server.run());

    let stack = fabric.stack(HostId(2));
    let srv = Arc::clone(&server);
    let outcome = sim
        .block_on(do_m! {
            let conn <- stack.connect(Endpoint::new(HostId(1), 11211));
            let conn = conn.unwrap();
            let sent <- send_all(&conn, Bytes::from_static(b"version\r\n"));
            let _ = sent.unwrap();
            let reply <- conn.recv(128);
            let _ = assert!(reply.unwrap().starts_with(b"VERSION"));
            // Fire the broadcast mid-session: the parked session's choose
            // must wake on the Shutdown branch and close the connection.
            sys_nbio(move || srv.shutdown());
            let eof <- conn.recv(64);
            let _ = assert!(eof.unwrap().is_empty(), "session closed by shutdown");
            // The listener is gone too: connecting again is refused.
            let again <- stack.connect(Endpoint::new(HostId(1), 11211));
            ThreadM::pure(again.is_err())
        })
        .unwrap();
    assert!(outcome, "post-shutdown connect must fail");
}
