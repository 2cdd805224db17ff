//! The cluster layer: four KV nodes behind a consistent-hash router,
//! hot-key replication, and a mid-run crash that loses nothing.
//!
//! The router is just another [`Service`](eveth::core::service::Service)
//! on the hybrid runtime — the same monadic threads, the same
//! [`NetStack`](eveth::core::net::NetStack) switch as the KV server and
//! the web server. This example tells the durability story end to end:
//!
//! 1. spawn four KV nodes and a router with `R = 2` replication for
//!    keys prefixed `hot:`;
//! 2. ack 64 hot writes through the router (each lands on two ring
//!    successors before `STORED` comes back);
//! 3. crash one node — sockets die mid-conversation;
//! 4. read every acked key back: the router fails over to the replica,
//!    zero acknowledged writes lost, zero `SERVER_ERROR`;
//! 5. swap the crashed node out of the ring and keep serving.
//!
//! Run with:
//! ```text
//! cargo run --example cluster            # kernel-socket model
//! cargo run --example cluster -- tcp     # application-level TCP stack
//! ```

use std::sync::Arc;

use bytes::Bytes;
use eveth::cluster::{HashRing, Router, RouterConfig};
use eveth::core::net::{Conn, Endpoint, HostId, NetStack};
use eveth::glue;
use eveth::kv::client::KvClient;
use eveth::kv::server::{KvConfig, KvServer};
use eveth::simos::net::{LinkParams, SimNet};
use eveth::simos::sockets::SocketFabric;
use eveth::simos::SimRuntime;
use eveth::tcp::tcb::TcpConfig;
use eveth::{do_m, ThreadM};

const NODES: u32 = 4;
const KEYS: usize = 64;
const KV_PORT: u16 = 11211;
const ROUTER_PORT: u16 = 11311;

fn backend(h: u32) -> Endpoint {
    Endpoint::new(HostId(h), KV_PORT)
}

/// Sends `wire` and reads the responses to `expected` commands through
/// the shared wire client; returns their raw bytes.
fn pipelined(conn: Arc<dyn Conn>, wire: Bytes, expected: usize) -> ThreadM<Vec<u8>> {
    KvClient::from_conn(conn)
        .request(wire, expected)
        .map(|framed| {
            let framed = framed.expect("well-formed reply stream");
            framed
                .iter()
                .flat_map(|f| &f.bytes)
                .flat_map(|b| b.to_vec())
                .collect()
        })
}

fn main() {
    let use_app_tcp = std::env::args().any(|a| a == "tcp");
    let sim = SimRuntime::new_default();

    // ---- the one-line stack switch, now for a whole cluster ------------
    // The fabric handle doubles as the fault injector (crash_host); TCP
    // hosts share a SimNet, whose lever is set_link_down instead — the
    // crash is the sharper demo, so the tcp variant skips that phase.
    let mut fabric = None;
    let stack: Box<dyn Fn(u32) -> Arc<dyn NetStack>> = if use_app_tcp {
        let net = SimNet::new(sim.clock(), LinkParams::ethernet_100mbps(), 7);
        let ctx = sim.ctx();
        Box::new(move |h| {
            glue::tcp_host_over_simnet(Arc::clone(&ctx), &net, HostId(h), TcpConfig::default())
                as Arc<dyn NetStack>
        })
    } else {
        let f = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
        fabric = Some(Arc::clone(&f));
        Box::new(move |h| f.stack(HostId(h)) as Arc<dyn NetStack>)
    };
    // --------------------------------------------------------------------

    for h in 1..=NODES {
        let server = KvServer::new(
            stack(h),
            KvConfig {
                port: KV_PORT,
                ..Default::default()
            },
        );
        sim.spawn(server.run());
    }

    let router = Router::new(
        stack(10),
        RouterConfig {
            port: ROUTER_PORT,
            backends: (1..=NODES).map(backend).collect(),
            replication: 2,
            hot_prefix: Some(b"hot:".to_vec()),
            ..Default::default()
        },
    );
    sim.spawn(router.run());

    // Which node owns the probe key? That's the one we'll kill.
    let ring = HashRing::new((1..=NODES).map(backend).collect(), 64);
    let victim = ring.primary(b"hot:k0").host;
    println!(
        "cluster: {NODES} nodes, R=2 on \"hot:\", stack: {}",
        if use_app_tcp {
            "application-level TCP"
        } else {
            "kernel-socket model"
        }
    );

    let client = stack(20);
    let conn = sim
        .block_on(do_m! {
            let conn <- client.connect(Endpoint::new(HostId(10), ROUTER_PORT));
            ThreadM::pure(conn.expect("router reachable"))
        })
        .expect("connected");

    // Phase 1: acked, replicated writes.
    let mut wire = Vec::new();
    for k in 0..KEYS {
        wire.extend_from_slice(format!("set hot:k{k} 0 0 6\r\nv{k:05}\r\n").as_bytes());
    }
    let acks = sim
        .block_on(pipelined(Arc::clone(&conn), Bytes::from(wire), KEYS))
        .expect("writes acked");
    assert_eq!(String::from_utf8(acks).unwrap(), "STORED\r\n".repeat(KEYS));
    println!(
        "phase 1: {KEYS} writes acked, {} fanned to both replicas",
        router.stats().replicated_writes.get()
    );

    // Phase 2: kill the probe key's primary mid-run.
    if let Some(f) = &fabric {
        f.crash_host(victim);
        println!(
            "phase 2: crashed node {} (primary for hot:k0) — sockets dead",
            victim.0
        );
    } else {
        println!("phase 2: (tcp mode: skipping the crash, the ring swap below still runs)");
    }

    // Phase 3: every acked key still answers through the survivor.
    let mut wire = Vec::new();
    for k in 0..KEYS {
        wire.extend_from_slice(format!("get hot:k{k}\r\n").as_bytes());
    }
    let got = sim
        .block_on(pipelined(Arc::clone(&conn), Bytes::from(wire), KEYS))
        .expect("reads answered");
    let text = String::from_utf8(got).unwrap();
    let mut hits = 0;
    for k in 0..KEYS {
        if text.contains(&format!("VALUE hot:k{k} 0 6\r\nv{k:05}\r\n")) {
            hits += 1;
        }
    }
    assert_eq!(hits, KEYS, "acknowledged writes lost: {hits}/{KEYS}");
    assert!(!text.contains("SERVER_ERROR"), "unavailability window");
    println!(
        "phase 3: {hits}/{KEYS} acked keys read back, 0 SERVER_ERROR \
         ({} failovers, {} backend errors)",
        router.stats().read_retries.get(),
        router.stats().backend_errors.get()
    );

    // Phase 4: administratively swap the dead node out; the ring remaps
    // only its arcs (consistent hashing), service continues.
    let rest: Vec<Endpoint> = (1..=NODES)
        .filter(|&h| HostId(h) != victim)
        .map(backend)
        .collect();
    router.set_ring(rest);
    let again = sim
        .block_on(pipelined(
            Arc::clone(&conn),
            Bytes::from("get hot:k0\r\n".as_bytes().to_vec()),
            1,
        ))
        .expect("post-swap read");
    let again = String::from_utf8(again).unwrap();
    assert!(again.contains("VALUE hot:k0"), "replica serves after swap");
    println!(
        "phase 4: ring swapped to {} nodes, hot:k0 still answers: {}",
        NODES - 1,
        again.lines().next().unwrap_or("")
    );

    println!(
        "done in {:.3} ms virtual ({} commands routed)",
        sim.now() as f64 / 1e6,
        router.stats().commands.get()
    );
}
