//! A concurrent echo server over the application-level TCP stack, on the
//! deterministic simulated network — written as a [`Service`] on the
//! event-native service framework.
//!
//! Run with: `cargo run --example echo_server`
//!
//! The framework's generic `Server<S>` owns the whole lifecycle (listen,
//! the accept/shutdown `choose`, one monadic thread per client, graceful
//! drain); the service below is just "send every chunk back". The TCP
//! stack's `worker_tcp_input` and `worker_tcp_timer` event loops run
//! beside the sessions in the same runtime — the whole "operating system"
//! is application code (paper §6.3). The link drops 3% of segments to
//! show retransmission at work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use eveth::core::net::{recv_exact, send_all, Conn, Endpoint, HostId, NetStack};
use eveth::core::service::{Server, ServerConfig, Service, Step};
use eveth::core::syscall::*;
use eveth::glue;
use eveth::simos::net::{LinkParams, SimNet};
use eveth::simos::SimRuntime;
use eveth::tcp::tcb::TcpConfig;
use eveth::{do_m, loop_m, poll_until, Loop, ThreadM};

const CLIENTS: u32 = 16;
const ROUNDS: usize = 8;
const MSG: usize = 2_000;

/// The whole echo protocol: stateless sessions, every chunk sent back.
struct EchoService {
    echoed_chunks: AtomicU64,
}

impl Service for EchoService {
    type Session = ();

    fn open(&self, _conn: &Arc<dyn Conn>) {}

    fn on_chunk(&self, conn: Arc<dyn Conn>, _session: (), chunk: Bytes) -> ThreadM<Step<()>> {
        self.echoed_chunks.fetch_add(1, Ordering::Relaxed);
        send_all(&conn, chunk).map(|sent| match sent {
            Ok(()) => Step::Continue(()),
            Err(_) => Step::Close,
        })
    }
}

fn main() {
    let sim = SimRuntime::new_default();
    let net = SimNet::new(
        sim.clock(),
        LinkParams::ethernet_100mbps().with_loss(0.03),
        2024,
    );
    let server_host = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(1), TcpConfig::default());
    let client_host = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(2), TcpConfig::default());

    // --- Server: the framework owns accept fan-out and session lifecycle.
    let server = Server::new(
        server_host as Arc<dyn NetStack>,
        EchoService {
            echoed_chunks: AtomicU64::new(0),
        },
        ServerConfig {
            port: 7,
            ..Default::default()
        },
    );
    sim.spawn(server.run());

    // --- Clients: each sends MSG bytes ROUNDS times and checks the echo.
    let done = Arc::new(AtomicU64::new(0));
    let echoed_bytes = Arc::new(AtomicU64::new(0));
    for id in 0..CLIENTS {
        let stack = Arc::clone(&client_host);
        let done = Arc::clone(&done);
        let echoed = Arc::clone(&echoed_bytes);
        sim.spawn(do_m! {
            let conn <- stack.connect(Endpoint::new(HostId(1), 7));
            let conn = conn.expect("connect");
            loop_m(0usize, move |round| {
                if round == ROUNDS {
                    let done = Arc::clone(&done);
                    return conn.close().bind(move |_| {
                        sys_nbio(move || { done.fetch_add(1, Ordering::SeqCst); })
                            .map(|_| Loop::Break(()))
                    });
                }
                let payload = Bytes::from(vec![(id as u8).wrapping_add(round as u8); MSG]);
                let expect = payload.clone();
                let conn2 = Arc::clone(&conn);
                let echoed = Arc::clone(&echoed);
                do_m! {
                    let sent <- send_all(&conn2, payload);
                    let _ = sent.expect("send");
                    let back <- recv_exact(&conn2, MSG);
                    let back = back.expect("echo back");
                    let _ = assert_eq!(back, expect, "echo must be byte-identical");
                    sys_nbio(move || { echoed.fetch_add(MSG as u64, Ordering::SeqCst); })
                        .map(move |_| Loop::Continue(round + 1))
                }
            })
        });
    }

    // Drive the simulation until every client finished, then shut the
    // server down gracefully and wait on the framework's drain barrier.
    let watch = Arc::clone(&done);
    let srv = Arc::clone(&server);
    sim.block_on(do_m! {
        poll_until(10 * eveth::core::time::MILLIS, move || {
            watch.load(Ordering::SeqCst) == CLIENTS as u64
        });
        let _ = srv.shutdown();
        eveth::core::event::sync(srv.drained_signal().wait_evt())
    })
    .expect("simulation completed");

    let retr: u64 = net.stats().dropped.get();
    println!(
        "echoed {} KB across {CLIENTS} clients in {:.1} ms of virtual time",
        echoed_bytes.load(Ordering::SeqCst) / 1024,
        sim.now() as f64 / 1e6
    );
    println!(
        "network: {} segments sent, {} dropped by the lossy link (recovered by retransmission)",
        net.stats().sent.get(),
        retr
    );
    println!(
        "server: {} connections accepted, {} chunks echoed, drained with {} sessions left",
        server.stats().accepted.get(),
        server.service().echoed_chunks.load(Ordering::Relaxed),
        server.active()
    );
    assert_eq!(
        echoed_bytes.load(Ordering::SeqCst),
        (CLIENTS as u64) * (ROUNDS as u64) * MSG as u64
    );
    assert!(
        retr > 0,
        "with 3% loss some segments must have been dropped"
    );
    assert_eq!(server.active(), 0, "graceful drain left no session behind");
}
