//! The second workload: a sharded, memcached-style KV service over the
//! hybrid runtime, switchable between the kernel-socket model and the
//! application-level TCP stack by one line — the same switch as the web
//! server, on a completely different protocol.
//!
//! A [`DebugService`] is mounted beside the KV server (same host, port
//! 11280) with the telemetry fabric attached: after the load drains, the
//! example fetches `GET /metrics` over a real (virtual) connection and
//! prints the server-side counters next to the client's view.
//!
//! Run with:
//! ```text
//! cargo run --example kv_server             # kernel-socket model
//! cargo run --example kv_server -- tcp      # application-level TCP stack
//! cargo run --example kv_server -- stm      # TVar-backed shards
//! cargo run --example kv_server -- tcp stm  # both
//! ```

use std::sync::Arc;

use eveth::core::net::{send_all, Endpoint, HostId, NetStack};
use eveth::core::service::{Server, ServerConfig as DebugConfig};
use eveth::core::telemetry::{DebugService, Telemetry};
use eveth::glue;
use eveth::kv::loadgen::{client_thread, KvLoadConfig, KvLoadStats, Zipf};
use eveth::kv::server::{KvConfig, KvServer};
use eveth::kv::store::{Backend, StoreConfig};
use eveth::simos::net::{LinkParams, SimNet};
use eveth::simos::sockets::SocketFabric;
use eveth::simos::SimRuntime;
use eveth::tcp::tcb::TcpConfig;

const CLIENTS: u64 = 24;
const BATCHES_PER_CONN: usize = 16;
const PIPELINE_DEPTH: usize = 8;
const DEBUG_PORT: u16 = 11280;

/// One `GET` against the debug service: connect, send the request line,
/// read to EOF (it closes after one response), return the body.
fn debug_get(stack: &Arc<dyn NetStack>, ep: Endpoint, target: &str) -> eveth::ThreadM<String> {
    let stack = Arc::clone(stack);
    let req = bytes::Bytes::from(format!("GET {target} HTTP/1.0\r\n\r\n"));
    eveth::do_m! {
        let conn <- stack.connect(ep);
        let conn = conn.expect("debug service reachable");
        let sent <- send_all(&conn, req);
        let _ = sent.expect("request sent");
        let raw <- eveth::loop_m((Vec::new(), conn), move |(mut acc, conn)| {
            conn.recv(16 * 1024).map(move |res| match res {
                Ok(chunk) if chunk.is_empty() => eveth::Loop::Break(acc),
                Ok(chunk) => {
                    acc.extend_from_slice(&chunk);
                    eveth::Loop::Continue((acc, conn))
                }
                Err(_) => eveth::Loop::Break(acc),
            })
        });
        let text = String::from_utf8_lossy(&raw).into_owned();
        eveth::ThreadM::pure(match text.split_once("\r\n\r\n") {
            Some((_, body)) => body.to_string(),
            None => text,
        })
    }
}

fn main() {
    let use_app_tcp = std::env::args().any(|a| a == "tcp");
    let use_stm = std::env::args().any(|a| a == "stm");

    let sim = SimRuntime::new_default();
    let telemetry = Telemetry::new();
    assert!(sim.set_telemetry(Arc::clone(&telemetry)));

    // ---- THE one-line switch (paper §5.2) -------------------------------
    let (server_stack, client_stack): (Arc<dyn NetStack>, Arc<dyn NetStack>) = if use_app_tcp {
        let net = SimNet::new(sim.clock(), LinkParams::ethernet_100mbps(), 7);
        (
            glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(1), TcpConfig::default()),
            glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(2), TcpConfig::default()),
        )
    } else {
        let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
        (fabric.stack(HostId(1)), fabric.stack(HostId(2)))
    };
    // ----------------------------------------------------------------------

    let server = KvServer::new(
        Arc::clone(&server_stack),
        KvConfig {
            port: 11211,
            store: StoreConfig {
                shards: 8,
                backend: if use_stm {
                    Backend::Stm
                } else {
                    Backend::Mutex
                },
                ..Default::default()
            },
            ..Default::default()
        },
    );
    server.attach_telemetry(&telemetry);
    sim.spawn(server.run());

    // Live introspection beside the KV server: same host, own port.
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

    // Load: pipelined get/set mix over zipfian keys.
    let stats = Arc::new(KvLoadStats::default());
    let cfg = Arc::new(KvLoadConfig {
        server: Endpoint::new(HostId(1), 11211),
        batches_per_conn: BATCHES_PER_CONN,
        pipeline_depth: PIPELINE_DEPTH,
        keys: 512,
        zipf_s: 0.99,
        set_percent: 20,
        value_bytes: 100,
        ttl_secs: 0,
        seed: 4242,
    });
    let zipf = Arc::new(Zipf::new(cfg.keys, cfg.zipf_s));
    for id in 0..CLIENTS {
        sim.spawn(client_thread(
            Arc::clone(&client_stack),
            Arc::clone(&cfg),
            Arc::clone(&zipf),
            Arc::clone(&stats),
            id,
        ));
    }

    // Drive until every client finished (the server and its janitor run
    // forever, so block on the clients, not on quiescence).
    let watch = Arc::clone(&stats);
    sim.block_on(eveth::poll_until(
        10 * eveth::core::time::MILLIS,
        move || watch.clients_done.get() == CLIENTS,
    ))
    .expect("load completed");

    // Introspect over the wire while everything is still mounted: the
    // debug service renders the same registry the servers write into.
    let metrics = sim
        .block_on(debug_get(
            &client_stack,
            Endpoint::new(HostId(1), DEBUG_PORT),
            "/metrics",
        ))
        .expect("metrics fetched");

    let secs = sim.now() as f64 / 1e9;
    let snap = server.store_snapshot();
    println!(
        "stack: {} | shards: {} ({:?} backend)",
        if use_app_tcp {
            "application-level TCP (eveth-tcp)"
        } else {
            "kernel-socket model"
        },
        server.store().shard_count(),
        server.store().config().backend,
    );
    println!(
        "{} commands answered in {:.3}s virtual ({:.0} commands/s)",
        stats.responses(),
        secs,
        stats.responses() as f64 / secs
    );
    println!("client view : {stats}");
    println!("server view : {snap}");
    println!(
        "store       : {} live entries, hit ratio {:.0}%",
        server.store().len_now(),
        snap.hit_ratio() * 100.0
    );
    assert_eq!(
        stats.responses(),
        CLIENTS * (BATCHES_PER_CONN * PIPELINE_DEPTH) as u64,
        "every pipelined command must be answered"
    );

    println!("\nGET /metrics (debug service, port {DEBUG_PORT}) — server-side lines:");
    for line in metrics.lines().filter(|l| {
        l.starts_with("eveth_kv_commands")
            || l.starts_with("eveth_server_")
            || l.starts_with("eveth_runtime_io_wait")
    }) {
        println!("  {line}");
    }
    println!("  (also try /threads for the live span table, /trace for Perfetto)");
}
