//! The paper's case study (§5.2): a static web server with its own AIO
//! cache, switchable between the kernel-socket model and the
//! application-level TCP stack by one line. `WebServer` is a thin
//! `Service` implementation hosted on the generic `Server<S>` of
//! `eveth_core::service`, so this demo also exercises the event-native
//! framework end to end (accept fan-out, per-session `choose`, graceful
//! drain).
//!
//! The telemetry fabric rides along: a [`DebugService`] on port 9990
//! serves `GET /metrics`, `/threads` and `/trace` beside the web server,
//! and the example fetches the live span table over a real (virtual)
//! connection before draining.
//!
//! Run with:
//! ```text
//! cargo run --example web_server            # kernel-socket model
//! cargo run --example web_server -- tcp     # application-level TCP stack
//! ```

use std::sync::Arc;

use eveth::core::net::{send_all, Endpoint, HostId, NetStack};
use eveth::core::service::{Server, ServerConfig as DebugConfig};
use eveth::core::telemetry::{DebugService, Telemetry};
use eveth::glue;
use eveth::http::loadgen::{client_thread, corpus_paths, LoadConfig, LoadStats};
use eveth::http::server::{ServerConfig, WebServer};
use eveth::simos::disk::{DiskGeometry, DiskSched, SimDisk};
use eveth::simos::fs::SimFs;
use eveth::simos::net::{LinkParams, SimNet};
use eveth::simos::sockets::SocketFabric;
use eveth::simos::SimRuntime;
use eveth::tcp::tcb::TcpConfig;
use eveth::{do_m, loop_m, poll_until, Loop, ThreadM};

const FILES: usize = 512;
const FILE_BYTES: u64 = 16 * 1024;
const CONNECTIONS: u64 = 32;
const REQUESTS_PER_CONN: usize = 12;
const DEBUG_PORT: u16 = 9990;

/// One `GET` against the debug service (it closes after one response).
fn debug_get(stack: &Arc<dyn NetStack>, ep: Endpoint, target: &str) -> ThreadM<String> {
    let stack = Arc::clone(stack);
    let req = bytes::Bytes::from(format!("GET {target} HTTP/1.0\r\n\r\n"));
    do_m! {
        let conn <- stack.connect(ep);
        let conn = conn.expect("debug service reachable");
        let sent <- send_all(&conn, req);
        let _ = sent.expect("request sent");
        let raw <- loop_m((Vec::new(), conn), move |(mut acc, conn)| {
            conn.recv(16 * 1024).map(move |res| match res {
                Ok(chunk) if chunk.is_empty() => Loop::Break(acc),
                Ok(chunk) => {
                    acc.extend_from_slice(&chunk);
                    Loop::Continue((acc, conn))
                }
                Err(_) => Loop::Break(acc),
            })
        });
        let text = String::from_utf8_lossy(&raw).into_owned();
        ThreadM::pure(match text.split_once("\r\n\r\n") {
            Some((_, body)) => body.to_string(),
            None => text,
        })
    }
}

fn main() {
    let use_app_tcp = std::env::args().any(|a| a == "tcp");

    let sim = SimRuntime::new_default();
    let telemetry = Telemetry::new();
    assert!(sim.set_telemetry(Arc::clone(&telemetry)));

    // A simulated 7200 RPM disk with C-LOOK head scheduling and a corpus
    // of 16 KB files, exactly the shape of the paper's workload.
    let disk = SimDisk::new(
        sim.clock(),
        DiskGeometry::eide_7200_80gb(),
        DiskSched::CLook,
        7,
    );
    let fs = SimFs::new(disk);
    for path in corpus_paths(FILES) {
        fs.add_file(path, FILE_BYTES);
    }

    // ---- THE one-line switch (paper §5.2) -------------------------------
    let (server_stack, client_stack): (Arc<dyn NetStack>, Arc<dyn NetStack>) = if use_app_tcp {
        let net = SimNet::new(sim.clock(), LinkParams::ethernet_100mbps(), 99);
        (
            glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(1), TcpConfig::default()),
            glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(2), TcpConfig::default()),
        )
    } else {
        let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
        (fabric.stack(HostId(1)), fabric.stack(HostId(2)))
    };
    // ----------------------------------------------------------------------

    let server = WebServer::new(
        Arc::clone(&server_stack),
        fs,
        ServerConfig {
            port: 80,
            cache_bytes: 2 * 1024 * 1024, // small cache: visible hit/miss mix
            ..Default::default()
        },
    );
    server.attach_telemetry(&telemetry);
    sim.spawn(server.run());

    // Live introspection beside the web server: same host, own port.
    let debug = Server::new(
        Arc::clone(&server_stack),
        DebugService::new(&telemetry),
        DebugConfig {
            port: DEBUG_PORT,
            ..Default::default()
        },
    );
    debug.attach_telemetry(&telemetry, "debug");
    sim.spawn(debug.run());

    // Load generator: CONNECTIONS keep-alive clients on the other host.
    let stats = Arc::new(LoadStats::default());
    let cfg = Arc::new(LoadConfig {
        server: Endpoint::new(HostId(1), 80),
        requests_per_conn: REQUESTS_PER_CONN,
        paths: Arc::new(corpus_paths(FILES)),
        seed: 4242,
    });
    for id in 0..CONNECTIONS {
        sim.spawn(client_thread(
            Arc::clone(&client_stack),
            Arc::clone(&cfg),
            Arc::clone(&stats),
            id,
        ));
    }

    // Drive until every client finished.
    let watch = Arc::clone(&stats);
    sim.block_on(poll_until(20 * eveth::core::time::MILLIS, move || {
        watch.clients_done.get() == CONNECTIONS
    }))
    .expect("load completed");

    // Peek at the live span table and metrics over the wire while the
    // web server is still up — the debug service shares its runtime.
    let threads = sim
        .block_on(debug_get(
            &client_stack,
            Endpoint::new(HostId(1), DEBUG_PORT),
            "/threads",
        ))
        .expect("threads fetched");
    let metrics = sim
        .block_on(debug_get(
            &client_stack,
            Endpoint::new(HostId(1), DEBUG_PORT),
            "/metrics",
        ))
        .expect("metrics fetched");

    // Graceful drain through the framework: close the listener via the
    // acceptor's choose, let every keep-alive session observe the
    // broadcast, and wait on the drain barrier.
    server.shutdown();
    sim.block_on(eveth::core::event::sync(server.drained_signal().wait_evt()))
        .expect("drain barrier");
    assert_eq!(server.server().active(), 0, "drained");

    let secs = sim.now() as f64 / 1e9;
    let bytes = stats.bytes.get();
    println!(
        "stack: {}",
        if use_app_tcp {
            "application-level TCP (eveth-tcp)"
        } else {
            "kernel-socket model"
        }
    );
    println!(
        "served {} responses ({} not found, {} errors) in {:.2}s virtual",
        stats.responses(),
        stats.non_200.get(),
        stats.errors.get(),
        secs
    );
    println!(
        "throughput: {:.2} MB/s | cache: {:.0}% hits | server stats: {:?}",
        bytes as f64 / (1024.0 * 1024.0) / secs,
        server.cache().hit_ratio() * 100.0,
        server.stats()
    );
    assert_eq!(stats.ok.get(), CONNECTIONS * REQUESTS_PER_CONN as u64);

    println!("\nGET /metrics (debug service, port {DEBUG_PORT}) — http lines:");
    for line in metrics
        .lines()
        .filter(|l| l.starts_with("eveth_http_") || l.starts_with("eveth_server_session_"))
    {
        println!("  {line}");
    }
    println!(
        "GET /threads: {} live spans at fetch time (also /trace for Perfetto)",
        threads.lines().filter(|l| l.contains("tid=")).count()
    );
}
