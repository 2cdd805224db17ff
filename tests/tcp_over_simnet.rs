//! Integration: the application-level TCP stack over the simulated packet
//! network, across latency, bandwidth and loss regimes — and, on the one
//! link model both stacks share, the kernel-socket fabric beside it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use eveth::core::net::{recv_exact, recv_to_end, send_all, Endpoint, HostId, NetError, NetStack};
use eveth::core::syscall::{sys_fork, sys_nbio, sys_sleep, sys_time};
use eveth::core::telemetry::metrics::Registry;
use eveth::core::time::{MILLIS, SECS};
use eveth::glue;
use eveth::simos::net::{LinkParams, SimNet};
use eveth::simos::sockets::SocketFabric;
use eveth::simos::SimRuntime;
use eveth::tcp::tcb::TcpConfig;
use eveth::tcp::TcpHost;
use eveth::{do_m, loop_m, poll_until, Loop, ThreadM};

/// Two hosts over `link`, both on `cfg`.
fn hosts(
    link: LinkParams,
    seed: u64,
    cfg: TcpConfig,
) -> (SimRuntime, Arc<SimNet>, [Arc<TcpHost>; 2]) {
    let sim = SimRuntime::new_default();
    let net = SimNet::new(sim.clock(), link, seed);
    let a = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(1), cfg.clone());
    let b = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(2), cfg);
    (sim, net, [a, b])
}

fn run_transfer(bytes: usize, loss: f64, seed: u64) -> (u64, u64) {
    let link = LinkParams::ethernet_100mbps().with_loss(loss);
    let (sim, net, [a, b]) = hosts(link, seed, TcpConfig::default());
    let payload = Bytes::from(vec![0xAB; bytes]);
    let server = do_m! {
        let lst <- b.listen(80);
        let conn <- lst.unwrap().accept();
        let conn = conn.unwrap();
        let got <- recv_exact(&conn, bytes);
        let echoed <- send_all(&conn, got.unwrap().slice(..128));
        let _ = echoed.unwrap();
        ThreadM::pure(())
    };
    let back = sim
        .block_on(do_m! {
            sys_fork(server);
            let conn <- a.connect(Endpoint::new(HostId(2), 80));
            let conn = conn.unwrap();
            let sent <- send_all(&conn, payload);
            let _ = sent.unwrap();
            recv_exact(&conn, 128)
        })
        .unwrap()
        .unwrap();
    assert_eq!(back.len(), 128);
    assert!(back.iter().all(|&x| x == 0xAB));
    (sim.now(), net.stats().dropped.get())
}

#[test]
fn small_transfer_lossless() {
    let (t, dropped) = run_transfer(4 * 1024, 0.0, 1);
    assert_eq!(dropped, 0);
    assert!(t > 0);
}

#[test]
fn large_transfer_lossless() {
    let (t, _) = run_transfer(200_000, 0.0, 1);
    // 200 KB over 100 Mbps ≥ 16 ms of serialization.
    assert!(t >= 16_000_000, "virtual time {t}");
}

#[test]
fn large_transfer_with_loss_retransmits() {
    let (t, dropped) = run_transfer(200_000, 0.02, 42);
    assert!(dropped > 0, "lossy link must drop something");
    assert!(t >= 16_000_000);
}

/// What TCP did during a partition, read off one `Registry`: the cut link
/// counts what it dropped, the sender's retransmission timer fires until
/// the link heals, and the transfer still completes.
#[test]
fn a_cut_link_shows_its_drops_and_the_senders_rto_fires_on_one_registry() {
    const BYTES: usize = 200_000;
    let (sim, net, [a, b]) = hosts(LinkParams::ethernet_100mbps(), 3, TcpConfig::default());
    let registry = Registry::new();
    net.register_metrics(&registry, &[]);
    a.register_metrics(&registry, &[("host", "1")]);
    b.register_metrics(&registry, &[("host", "2")]);
    // Mid-transfer (200 KB needs 16 ms on the wire), cut the data
    // direction; heal after the first RTO has fired.
    let (cut, heal) = (Arc::clone(&net), Arc::clone(&net));
    sim.clock()
        .schedule_at(4 * MILLIS, move || cut.set_link_down(HostId(1), HostId(2)));
    sim.clock()
        .schedule_at(300 * MILLIS, move || heal.set_link_up(HostId(1), HostId(2)));

    let server = do_m! {
        let lst <- b.listen(80);
        let conn <- lst.unwrap().accept();
        let conn = conn.unwrap();
        let got <- recv_exact(&conn, BYTES);
        send_all(&conn, got.unwrap().slice(..1))
    };
    let done = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&done);
    sim.spawn(do_m! {
        sys_fork(server.map(|_| ()));
        let conn <- a.connect(Endpoint::new(HostId(2), 80));
        let conn = conn.unwrap();
        let sent <- send_all(&conn, Bytes::from(vec![0xAB; BYTES]));
        let _ = sent.unwrap();
        let echo <- recv_exact(&conn, 1);
        let now <- sys_time();
        sys_nbio(move || *slot.lock().unwrap() = Some((echo.unwrap(), now)))
    });
    sim.run_until(Some(10 * SECS));
    let (echo, finished) = done.lock().unwrap().take().expect("the transfer completed");
    assert_eq!(&echo[..], &[0xAB]);
    assert!(finished >= 300 * MILLIS, "the transfer outlived the cut");

    let dropped = registry.counter_value("eveth_link_dropped_total", &[]);
    assert!(
        dropped > Some(0),
        "the cut link dropped segments: {dropped:?}"
    );
    let fired = registry.counter_value("eveth_tcp_rto_fires_total", &[("host", "1")]);
    assert!(fired > Some(0), "the sender's RTO fired: {fired:?}");
}

/// The server writes `bytes` and closes over a 5 % lossy link; the client
/// reads to the end. `None` if the end has not arrived within a minute of
/// virtual time.
fn close_under_loss(bytes: usize, seed: u64) -> Option<Bytes> {
    let link = LinkParams::ethernet_100mbps().with_loss(0.05);
    let (sim, _net, [a, b]) = hosts(link, seed, TcpConfig::default());
    let server = do_m! {
        let lst <- b.listen(80);
        let conn <- lst.unwrap().accept();
        let conn = conn.unwrap();
        let sent <- send_all(&conn, Bytes::from(vec![0x5c; bytes]));
        let _ = sent.unwrap();
        conn.close()
    };
    let got = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&got);
    sim.spawn(do_m! {
        sys_fork(server);
        let conn <- a.connect(Endpoint::new(HostId(2), 80));
        let data <- recv_to_end(&conn.unwrap(), bytes + 1);
        sys_nbio(move || *slot.lock().unwrap() = Some(data.unwrap()))
    });
    sim.run_until(Some(60 * SECS));
    let got = got.lock().unwrap().take();
    got
}

#[test]
fn data_written_before_close_reaches_the_reader_over_a_lossy_link() {
    const BYTES: usize = 16 * 1024;
    for seed in 1..=24 {
        let got = close_under_loss(BYTES, seed)
            .unwrap_or_else(|| panic!("seed {seed}: the reader never saw the end"));
        assert_eq!(got.len(), BYTES, "seed {seed}");
        assert!(got.iter().all(|&byte| byte == 0x5c), "seed {seed}");
    }
}

#[test]
fn connect_to_a_port_with_no_listener_is_refused() {
    let (sim, _net, [a, b]) = hosts(LinkParams::loopback(), 1, TcpConfig::default());
    let res = sim
        .block_on(
            a.connect(Endpoint::new(HostId(2), 81))
                .map(|c| c.map(|_| ())),
        )
        .unwrap();
    assert_eq!(res, Err(NetError::ConnectionRefused));
    assert_eq!((a.conn_count(), b.conn_count()), (0, 0));
}

#[test]
fn connect_to_a_black_holed_host_times_out() {
    let cfg = TcpConfig {
        min_rto: MILLIS,
        initial_rto: MILLIS,
        max_syn_retries: 2,
        ..TcpConfig::default()
    };
    let (sim, net, [a, b]) = hosts(LinkParams::loopback(), 1, cfg);
    net.set_host_down(HostId(2));
    let res = sim
        .block_on(
            a.connect(Endpoint::new(HostId(2), 80))
                .map(|c| c.map(|_| ())),
        )
        .unwrap();
    assert_eq!(res, Err(NetError::Timeout));
    assert!(sim.now() < SECS, "gave up after {} ns", sim.now());
    assert_eq!((a.conn_count(), b.conn_count()), (0, 0));
}

#[test]
fn a_listener_shut_down_mid_handshake_resets_the_client() {
    // 10 ms each way: the SYN arrives at 10 ms, the final ACK at 30 ms, and
    // the listener is gone in between.
    let link = LinkParams::loopback().with_latency(10 * MILLIS);
    let (sim, _net, [a, b]) = hosts(link, 1, TcpConfig::default());
    let server = do_m! {
        let lst <- b.listen(80);
        let lst = lst.unwrap();
        sys_sleep(15 * MILLIS);
        sys_nbio(move || lst.shutdown())
    };
    let client = Arc::clone(&a);
    let res = sim
        .block_on(do_m! {
            sys_fork(server);
            let conn <- client.connect(Endpoint::new(HostId(2), 80));
            match conn {
                Ok(conn) => conn.recv(16).map(|r| r.map(|_| ())),
                Err(e) => ThreadM::pure(Err(e)),
            }
        })
        .unwrap();
    assert_eq!(res, Err(NetError::Reset));
    assert_eq!((a.conn_count(), b.conn_count()), (0, 0));
}

/// `conns` connections from host 1 to host 2, each sending `bytes`; the
/// server reads each to its end. Returns when the last byte was received.
fn parallel_transfers(
    sim: &SimRuntime,
    client: Arc<dyn NetStack>,
    server: Arc<dyn NetStack>,
    conns: u64,
    bytes: usize,
) -> u64 {
    let (received, last_byte) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let (done, last) = (Arc::clone(&received), Arc::clone(&last_byte));
    sim.spawn(server.listen(80).bind(move |lst| {
        let lst = lst.unwrap();
        loop_m(0, move |n| {
            if n == conns {
                return ThreadM::pure(Loop::Break(()));
            }
            let (done, last) = (Arc::clone(&done), Arc::clone(&last));
            lst.accept().bind(move |conn| {
                let conn = conn.unwrap();
                sys_fork(do_m! {
                    let got <- recv_exact(&conn, bytes);
                    let _ = got.unwrap();
                    let t <- sys_time();
                    sys_nbio(move || {
                        last.fetch_max(t, Ordering::SeqCst);
                        done.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .map(move |()| Loop::Continue(n + 1))
            })
        })
    }));
    for _ in 0..conns {
        let payload = Bytes::from(vec![0x5A; bytes]);
        sim.spawn(
            client
                .connect(Endpoint::new(HostId(2), 80))
                .bind(move |conn| send_all(&conn.unwrap(), payload))
                .map(|sent| sent.unwrap()),
        );
    }
    sim.block_on(poll_until(MILLIS, move || {
        received.load(Ordering::SeqCst) == conns
    }))
    .unwrap();
    last_byte.load(Ordering::SeqCst)
}

#[test]
fn connections_between_two_hosts_share_one_link_on_both_stacks() {
    // Four 1 MB transfers on one 100 Mbps host pair need at least
    // 4 × 8 Mbit / 100 Mbps = 320 ms, whichever stack carries them.
    let link = LinkParams::ethernet_100mbps();
    let (conns, bytes) = (4, 1_000_000);
    let line_rate = link.tx_time(conns as usize * bytes);
    assert_eq!(line_rate, 320 * MILLIS);

    let sim = SimRuntime::new_default();
    let fabric = SocketFabric::new(sim.clock(), link);
    let (a, b) = (fabric.stack(HostId(1)), fabric.stack(HostId(2)));
    let sockets = parallel_transfers(&sim, a, b, conns, bytes);

    let (sim, _net, [a, b]) = hosts(link, 1, TcpConfig::default());
    let app_tcp = parallel_transfers(&sim, a, b, conns, bytes);

    assert!(
        sockets >= line_rate && app_tcp >= line_rate,
        "last byte at {sockets} ns on the socket fabric and {app_tcp} ns on \
         app-level TCP; the link's line rate allows no earlier than {line_rate} ns"
    );
}
