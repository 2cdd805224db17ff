//! Semantics of the event-native service framework
//! (`eveth_core::service`) and the event surface it rides on:
//!
//! * a custom [`Service`] hosted on the generic [`Server<S>`] serves
//!   clients, reaps idle sessions, and drains gracefully — the
//!   `drained_signal` barrier fires exactly when shutdown has been
//!   requested and the last session ends;
//! * `accept_evt` composes under `choose` and cancels cleanly: a lost
//!   accept leaves zero residual waiters in the listener backlog, and a
//!   later connection is still accepted;
//! * `send_all_within` races a write against a deadline and the shutdown
//!   broadcast over the lossy application-level TCP stack — a zero-window
//!   peer can no longer stall the sender forever;
//! * every bundled service replies through the framework's one
//!   `ReplyHandle`: with `send_timeout > 0`, a client that never reads
//!   its large reply costs exactly one `send_timeouts` and its session,
//!   on `KvServer`, `WebServer` and `Router` alike, and the drain barrier
//!   still fires;
//! * readiness is the only way to wait on a connection: a `Conn` without
//!   a readiness descriptor gets a transport error from `session_input`,
//!   `send_all_within` and the router's fan-in — never a hang,
//!   never a forked helper thread;
//! * a `Server<S>`-hosted service stays deterministic: same seed + config
//!   ⇒ byte-identical `SimReport` at every CPU count, with identical
//!   service-visible results across `cpus ∈ {1, 4}`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use eveth::cluster::{Router, RouterConfig};
use eveth::core::event::{choose, never, sync, timeout_evt, Signal};
use eveth::core::io::ramdisk::MemStore;
use eveth::core::net::{
    queue_accept_evt, recv_exact, send_all, send_all_within, session_input, Conn, Endpoint, HostId,
    Listener, NetError, NetStack, SendInput, SessionInput,
};
use eveth::core::reactor::{AcceptQueue, Fd};
use eveth::core::service::{Server, ServerConfig, ServerStats, Service, Step};
use eveth::core::syscall::{sys_fork, sys_nbio, sys_sleep, sys_time};
use eveth::core::time::{Nanos, MILLIS, SECS};
use eveth::glue;
use eveth::http::server::{ServerConfig as WebConfig, WebServer};
use eveth::kv::loadgen::{client_thread, KvLoadConfig, KvLoadStats, Zipf};
use eveth::kv::server::{KvConfig, KvServer};
use eveth::kv::store::StoreConfig;
use eveth::simos::cost::CostModel;
use eveth::simos::net::{LinkParams, SimNet};
use eveth::simos::sockets::SocketFabric;
use eveth::simos::{SimClock, SimConfig, SimRuntime};
use eveth::tcp::tcb::TcpConfig;
use eveth::{do_m, ThreadM};

// ---------------------------------------------------------------------------
// A Server<S>-hosted echo service.
// ---------------------------------------------------------------------------

/// The smallest useful [`Service`]: no session state, every chunk echoed.
struct Echo {
    chunks: AtomicU64,
}

impl Service for Echo {
    type Session = ();

    fn open(&self, _conn: &Arc<dyn Conn>) {}

    fn on_chunk(&self, conn: Arc<dyn Conn>, _session: (), chunk: Bytes) -> ThreadM<Step<()>> {
        self.chunks.fetch_add(1, Ordering::Relaxed);
        send_all(&conn, chunk).map(|sent| match sent {
            Ok(()) => Step::Continue(()),
            Err(_) => Step::Close,
        })
    }
}

#[test]
fn generic_server_hosts_a_custom_service_and_drains_gracefully() {
    let sim = SimRuntime::new_default();
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    let server = Server::new(
        fabric.stack(HostId(1)),
        Echo {
            chunks: AtomicU64::new(0),
        },
        ServerConfig {
            port: 7,
            ..Default::default()
        },
    );
    sim.spawn(server.run());

    let stack = fabric.stack(HostId(2));
    let srv = Arc::clone(&server);
    let drained_at: Arc<AtomicU64> = Arc::new(AtomicU64::new(u64::MAX));
    {
        // An observer thread parks on the drain barrier.
        let srv = Arc::clone(&server);
        let drained_at = Arc::clone(&drained_at);
        sim.spawn(do_m! {
            sync(srv.drained_signal().wait_evt());
            let now <- sys_time();
            sys_nbio(move || drained_at.store(now, Ordering::SeqCst))
        });
    }
    let echoed = sim
        .block_on(do_m! {
            let conn <- stack.connect(Endpoint::new(HostId(1), 7));
            let conn = conn.unwrap();
            let sent <- send_all(&conn, Bytes::from_static(b"ping"));
            let _ = sent.unwrap();
            let back <- recv_exact(&conn, 4);
            // Shutdown mid-session: the parked session's choose must wake
            // on the broadcast and close the connection, after which the
            // drain barrier fires.
            sys_nbio(move || srv.shutdown());
            let eof <- conn.recv(16);
            let _ = assert!(eof.unwrap().is_empty(), "session closed by shutdown");
            ThreadM::pure(back.unwrap())
        })
        .unwrap();
    assert_eq!(&echoed[..], b"ping");

    // Let the drain observer run to completion.
    sim.run();
    assert_eq!(server.service().chunks.load(Ordering::Relaxed), 1);
    assert_eq!(server.stats().accepted.get(), 1);
    assert_eq!(server.active(), 0);
    assert!(server.drained_signal().is_fired(), "drain barrier fired");
    assert_ne!(
        drained_at.load(Ordering::SeqCst),
        u64::MAX,
        "observer saw the drain barrier"
    );

    // And the degenerate drain: a server with zero sessions still reaches
    // the barrier — the acceptor's shutdown branch closes the listener and
    // fires it directly.
    let sim = SimRuntime::new_default();
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    let server = Server::new(
        fabric.stack(HostId(1)),
        Echo {
            chunks: AtomicU64::new(0),
        },
        ServerConfig::default(),
    );
    sim.spawn(server.run());
    let srv = Arc::clone(&server);
    sim.block_on(do_m! {
        sys_sleep(MILLIS);
        sys_nbio(move || srv.shutdown());
        sync(server.drained_signal().wait_evt())
    })
    .unwrap();
}

// ---------------------------------------------------------------------------
// accept_evt hygiene.
// ---------------------------------------------------------------------------

#[test]
fn losing_accept_evt_leaves_zero_backlog_waiters() {
    // Core-level: the shared accept event both stacks delegate to. A
    // timeout beats an empty backlog; afterwards no waiter may remain
    // registered, and a later push is still accepted.
    let sim = SimRuntime::new_default();
    let q: Arc<AcceptQueue<u32>> = Arc::new(AcceptQueue::new());
    let ev = queue_accept_evt(Arc::clone(&q), |v| v);
    let won = sim
        .block_on(sync(choose(vec![
            ev.wrap(|r| r.ok()),
            timeout_evt(2 * MILLIS).wrap(|()| None),
        ])))
        .unwrap();
    assert_eq!(won, None, "timeout beats the empty backlog");
    assert_eq!(
        q.waiter_count(),
        0,
        "losing accept branch leaves no residual backlog waiter"
    );
    assert!(q.push(42).is_ok());
    let got = sim
        .block_on(sync(queue_accept_evt(Arc::clone(&q), |v| v)))
        .unwrap();
    assert_eq!(got.unwrap(), 42);

    // End-to-end over the kernel-socket model: an acceptor that lost its
    // first round to a timeout still accepts the connection that arrives
    // later — the cancelled registration neither leaks nor eats a wakeup.
    let sim = SimRuntime::new_default();
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    let server_stack = fabric.stack(HostId(1));
    let client_stack = fabric.stack(HostId(2));
    let peer = sim
        .block_on(do_m! {
            let lst <- server_stack.listen(9);
            let lst = lst.unwrap();
            let first <- sync(choose(vec![
                lst.accept_evt().wrap(Some),
                timeout_evt(MILLIS).wrap(|()| None),
            ]));
            let _ = assert!(first.is_none(), "no connection yet: timeout wins");
            sys_fork(do_m! {
                let conn <- client_stack.connect(Endpoint::new(HostId(1), 9));
                let conn = conn.unwrap();
                conn.close()
            });
            let conn <- lst.accept();
            ThreadM::pure(conn.unwrap().peer())
        })
        .unwrap();
    assert_eq!(peer.host, HostId(2));
}

// ---------------------------------------------------------------------------
// Send-side events over lossy application-level TCP.
// ---------------------------------------------------------------------------

/// A zero-window peer: accepts, then sleeps forever without reading. The
/// composed send must give up at its deadline instead of blocking forever
/// on window space; a small send against the same server still completes.
#[test]
fn send_all_within_times_out_against_zero_window_peer_over_lossy_tcp() {
    const DEADLINE: Nanos = 300 * MILLIS;
    let sim = SimRuntime::new_default();
    let net = SimNet::new(
        sim.clock(),
        LinkParams::ethernet_100mbps().with_loss(0.03),
        7,
    );
    let server = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(1), TcpConfig::default());
    let client = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(2), TcpConfig::default());

    let srv = Arc::clone(&server);
    sim.spawn(do_m! {
        let lst <- srv.listen(80);
        let lst = lst.unwrap();
        let conn <- lst.accept();
        let _hold = conn.unwrap();
        sys_sleep(3_600 * SECS)
    });

    let (outcome, sent_small, elapsed) = sim
        .block_on(do_m! {
            let conn <- client.connect(Endpoint::new(HostId(1), 80));
            let conn = conn.unwrap();
            // A small write fits the send buffer and completes promptly.
            let quick = Signal::new();
            let hello = vec![Bytes::from_static(b"hello")];
            let sent_small <- send_all_within(&conn, hello, DEADLINE, &quick);
            let t0 <- sys_time();
            // 1 MB against a 64 KB send buffer + unread peer: the window
            // fills and write readiness never returns — the deadline
            // branch must win.
            let stop = Signal::new();
            let big = Bytes::from(vec![0u8; 1_000_000]);
            let outcome <- send_all_within(&conn, vec![big], DEADLINE, &stop);
            let t1 <- sys_time();
            ThreadM::pure((outcome, sent_small, t1 - t0))
        })
        .unwrap();
    assert!(
        matches!(sent_small, SendInput::Done(Ok(()))),
        "small send completes: {sent_small:?}"
    );
    assert!(
        matches!(outcome, SendInput::Timeout),
        "zero-window send must hit the deadline: {outcome:?}"
    );
    assert!(
        (DEADLINE..3 * DEADLINE).contains(&elapsed),
        "gave up at ≈ the deadline, not hours later: {elapsed}"
    );
}

#[test]
fn send_all_within_observes_the_shutdown_broadcast() {
    let sim = SimRuntime::new_default();
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    let server_stack = fabric.stack(HostId(1));
    let client_stack = fabric.stack(HostId(2));
    sim.spawn(do_m! {
        let lst <- server_stack.listen(81);
        let conn <- lst.unwrap().accept();
        let _hold = conn.unwrap(); // never reads: 64 KB window fills
        sys_sleep(3_600 * SECS)
    });
    let stop = Signal::new();
    {
        let stop = stop.clone();
        sim.spawn(do_m! {
            sys_sleep(50 * MILLIS);
            sys_nbio(move || stop.fire())
        });
    }
    let outcome = sim
        .block_on(do_m! {
            let conn <- client_stack.connect(Endpoint::new(HostId(1), 81));
            let conn = conn.unwrap();
            send_all_within(&conn, vec![Bytes::from(vec![1u8; 1_000_000])], 0, &stop)
        })
        .unwrap();
    assert!(
        matches!(outcome, SendInput::Shutdown),
        "broadcast interrupts the stalled send: {outcome:?}"
    );
}

// ---------------------------------------------------------------------------
// The framework's reply handle: one bounded-send policy for every service.
// ---------------------------------------------------------------------------

/// What the reply-handle case needs of a hosted service, whatever its
/// `Service` type.
struct Hosted {
    name: &'static str,
    port: u16,
    /// Asks for a reply far larger than the 64 KB socket window.
    request: Bytes,
    stats: Arc<ServerStats>,
    active: Box<dyn Fn() -> u64>,
    shutdown: Box<dyn Fn()>,
    drained: Signal,
}

fn hosted<S: Service>(
    name: &'static str,
    server: &Arc<Server<S>>,
    request: impl Into<Bytes>,
) -> Hosted {
    let (active, shutdown) = (Arc::clone(server), Arc::clone(server));
    Hosted {
        name,
        port: server.config().port,
        request: request.into(),
        stats: Arc::clone(server.stats()),
        active: Box::new(move || active.active()),
        shutdown: Box::new(move || shutdown.shutdown()),
        drained: server.drained_signal().clone(),
    }
}

/// Every bundled service replies through the framework's `ReplyHandle`: a
/// client that requests a large reply and never reads costs exactly one
/// `send_timeouts`, loses its session, and does not hold up the drain.
#[test]
fn stalled_reader_times_out_once_on_every_service_and_the_server_still_drains() {
    const SEND_TIMEOUT: Nanos = 50 * MILLIS;
    const BIG: usize = 300_000;
    let mut store_then_fetch = format!("set big 0 0 {BIG}\r\n").into_bytes();
    store_then_fetch.resize(store_then_fetch.len() + BIG, b'v');
    store_then_fetch.extend_from_slice(b"\r\nget big\r\n");

    type Build = fn(&SimRuntime, &Arc<SocketFabric>, Vec<u8>) -> Hosted;
    let cases: [Build; 3] = [
        |sim, fabric, kv_request| {
            let kv = KvServer::new(
                fabric.stack(HostId(1)),
                KvConfig {
                    send_timeout: SEND_TIMEOUT,
                    ..Default::default()
                },
            );
            sim.spawn(kv.run());
            hosted("kv", kv.server(), kv_request)
        },
        |sim, fabric, _| {
            let files = Arc::new(MemStore::new());
            files.insert_bytes("/big.bin", vec![b'v'; BIG]);
            let web = WebServer::new(
                fabric.stack(HostId(1)),
                files,
                WebConfig {
                    send_timeout: SEND_TIMEOUT,
                    ..Default::default()
                },
            );
            sim.spawn(web.run());
            hosted(
                "http",
                web.server(),
                &b"GET /big.bin HTTP/1.1\r\nHost: t\r\n\r\n"[..],
            )
        },
        |sim, fabric, kv_request| {
            // The backend's own peer (the router) reads, so only the
            // router's client-facing send can stall.
            let backend = KvServer::new(fabric.stack(HostId(3)), KvConfig::default());
            sim.spawn(backend.run());
            let router = Router::new(
                fabric.stack(HostId(1)),
                RouterConfig {
                    backends: vec![Endpoint::new(HostId(3), KvConfig::default().port)],
                    send_timeout: SEND_TIMEOUT,
                    ..Default::default()
                },
            );
            sim.spawn(router.run());
            hosted("router", router.server(), kv_request)
        },
    ];

    for build in cases {
        let sim = SimRuntime::new_default();
        let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
        let case = build(&sim, &fabric, store_then_fetch.clone());
        let name = case.name;
        let client = fabric.stack(HostId(2));
        let server_ep = Endpoint::new(HostId(1), case.port);
        let request = case.request.clone();
        let _held_open = sim
            .block_on(do_m! {
                let conn <- client.connect(server_ep);
                let conn = conn.expect("connect");
                let sent <- send_all(&conn, request);
                let _ = sent.expect("request sent");
                // Never read: the reply fills the window and stalls.
                sys_sleep(4 * SEND_TIMEOUT);
                ThreadM::pure(conn)
            })
            .expect(name);
        assert_eq!(
            case.stats.send_timeouts.get(),
            1,
            "{name}: one timed-out send"
        );
        assert_eq!((case.active)(), 0, "{name}: the stalled session was closed");
        (case.shutdown)();
        sim.block_on(sync(case.drained.wait_evt()))
            .unwrap_or_else(|e| panic!("{name}: drain barrier never fired: {e:?}"));
    }
}

// ---------------------------------------------------------------------------
// Readiness is the only way to wait on a connection.
// ---------------------------------------------------------------------------

/// A transport without a readiness descriptor: recv never completes and
/// send swallows everything, so a wait that falls back to calling them
/// directly — or forks a helper to — shows up as a hang, a silently
/// "successful" blocking send, or a leaked thread.
struct BlindConn;

impl Conn for BlindConn {
    fn recv(&self, _max: usize) -> ThreadM<Result<Bytes, NetError>> {
        sync(never())
    }

    fn readiness_fd(&self) -> Option<Fd> {
        None
    }

    fn sendv(&self, bufs: Vec<Bytes>) -> ThreadM<Result<usize, NetError>> {
        ThreadM::pure(Ok(bufs.iter().map(Bytes::len).sum()))
    }

    fn close(&self) -> ThreadM<()> {
        ThreadM::pure(())
    }

    fn peer(&self) -> Endpoint {
        Endpoint::new(HostId(99), 1)
    }

    fn local(&self) -> Endpoint {
        Endpoint::new(HostId(98), 1)
    }
}

/// Listens on the real stack, but every outbound connection is a
/// [`BlindConn`].
struct BlindDialStack(Arc<dyn NetStack>);

impl NetStack for BlindDialStack {
    fn listen(&self, port: u16) -> ThreadM<Result<Arc<dyn Listener>, NetError>> {
        self.0.listen(port)
    }

    fn connect(&self, _remote: Endpoint) -> ThreadM<Result<Arc<dyn Conn>, NetError>> {
        ThreadM::pure(Ok(Arc::new(BlindConn) as Arc<dyn Conn>))
    }

    fn host(&self) -> HostId {
        self.0.host()
    }
}

#[test]
fn conn_without_readiness_fd_gets_a_transport_error_not_a_helper_thread() {
    let sim = SimRuntime::new_default();
    let conn: Arc<dyn Conn> = Arc::new(BlindConn);
    let threads = sim.live_threads();

    // An idle deadline is configured, so a timer-only fallback would
    // answer IdleTimeout (and strand a forked recv) instead.
    let input = sim
        .block_on(session_input(&conn, 1024, 5 * MILLIS, &Signal::new()))
        .unwrap();
    assert!(
        matches!(input, SessionInput::Data(Err(NetError::Protocol(_)))),
        "session_input: {input:?}"
    );
    let sent = sim
        .block_on(send_all_within(
            &conn,
            vec![Bytes::from_static(b"reply")],
            0,
            &Signal::new(),
        ))
        .unwrap();
    assert!(
        matches!(sent, SendInput::Done(Err(NetError::Protocol(_)))),
        "send_all_within: {sent:?}"
    );
    assert_eq!(sim.live_threads(), threads, "no helper thread was forked");
    assert!(
        sim.clock().now() < MILLIS,
        "answered at once, not at the idle deadline"
    );

    // The router's fan-in, with no backend timeout to bail it out: the
    // descriptor-less lane is written off like a failed backend.
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    let router = Router::new(
        Arc::new(BlindDialStack(fabric.stack(HostId(10)))),
        RouterConfig {
            port: 11311,
            backends: vec![Endpoint::new(HostId(1), 11211)],
            backend_timeout: 0,
            ..Default::default()
        },
    );
    sim.spawn(router.run());
    let client = fabric.stack(HostId(20));
    let conn = sim
        .block_on(do_m! {
            let conn <- client.connect(Endpoint::new(HostId(10), 11311));
            // Let the router accept, so its session thread is counted.
            sys_sleep(MILLIS);
            ThreadM::pure(conn.unwrap())
        })
        .unwrap();
    let threads = sim.live_threads();
    let reply = sim
        .block_on(do_m! {
            let sent <- send_all(&conn, Bytes::from_static(b"get k\r\n"));
            let _ = sent.unwrap();
            conn.recv(1024)
        })
        .unwrap()
        .unwrap();
    assert_eq!(&reply[..], b"SERVER_ERROR backend unavailable\r\n");
    assert_eq!(router.stats().backend_errors.get(), 1);
    assert_eq!(sim.live_threads(), threads, "fan-in forked no helper");
}

// ---------------------------------------------------------------------------
// Determinism of a Server<S>-hosted service across CPU counts.
// ---------------------------------------------------------------------------

/// Runs a KV workload on the framework-hosted server and returns the
/// service-visible result plus the report fingerprint.
fn kv_workload(cpus: usize) -> (u64, u64, String) {
    let sim = SimRuntime::new(
        SimClock::new(),
        SimConfig {
            cost: CostModel::monadic(),
            slice: 32,
            cpus,
            ..SimConfig::default()
        },
    );
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    let server = KvServer::new(
        fabric.stack(HostId(1)),
        KvConfig {
            port: 11211,
            store: StoreConfig {
                shards: 4,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    sim.spawn(server.run());
    let stats = Arc::new(KvLoadStats::default());
    let cfg = Arc::new(KvLoadConfig {
        server: Endpoint::new(HostId(1), 11211),
        batches_per_conn: 10,
        pipeline_depth: 4,
        keys: 64,
        zipf_s: 0.9,
        set_percent: 40,
        value_bytes: 48,
        ttl_secs: 0,
        seed: 11,
    });
    let zipf = Arc::new(Zipf::new(cfg.keys, cfg.zipf_s));
    for id in 0..3 {
        sim.spawn(client_thread(
            fabric.stack(HostId(2 + id as u32)) as Arc<dyn NetStack>,
            Arc::clone(&cfg),
            Arc::clone(&zipf),
            Arc::clone(&stats),
            id,
        ));
    }
    let report = sim.run_until(Some(2 * SECS));
    (
        stats.responses(),
        server.store_snapshot().sets,
        format!("{report:?}"),
    )
}

#[test]
fn server_hosted_service_is_deterministic_across_runs_and_cpu_counts() {
    let mut results = Vec::new();
    for cpus in [1usize, 4] {
        let (resp_a, sets_a, rep_a) = kv_workload(cpus);
        let (resp_b, sets_b, rep_b) = kv_workload(cpus);
        assert_eq!(
            rep_a, rep_b,
            "SimReport must be byte-identical across runs (cpus={cpus})"
        );
        assert_eq!((resp_a, sets_a), (resp_b, sets_b), "cpus={cpus}");
        assert_eq!(resp_a, 3 * 10 * 4, "every batch answered (cpus={cpus})");
        results.push((resp_a, sets_a));
    }
    assert_eq!(
        results[0], results[1],
        "service-visible outcome identical across cpu counts"
    );
}
