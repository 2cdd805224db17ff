//! Integration: the KV service + load generator over BOTH socket layers —
//! the simulated kernel sockets and the application-level TCP stack on the
//! simulated packet network — asserting the paper's one-line `NetStack`
//! swap carries to the second workload unchanged (mirror of
//! `tcp_over_simnet.rs` for HTTP→KV).

use std::sync::Arc;

use bytes::Bytes;
use eveth::core::net::{recv_to_end, send_all, Endpoint, HostId, NetStack};
use eveth::core::time::MILLIS;
use eveth::glue;
use eveth::kv::client::KvClient;
use eveth::kv::loadgen::{client_thread, KvLoadConfig, KvLoadStats, Zipf};
use eveth::kv::server::{KvConfig, KvServer};
use eveth::kv::store::{Backend, StoreConfig};
use eveth::simos::net::{LinkParams, SimNet};
use eveth::simos::sockets::SocketFabric;
use eveth::simos::SimRuntime;
use eveth::tcp::tcb::TcpConfig;
use eveth::{do_m, loop_m, poll_until, Loop};

const CLIENTS: u64 = 8;
const BATCHES: usize = 8;
const DEPTH: usize = 4;

/// Runs the identical server + workload over the given stacks; returns
/// (client stats, server hit/miss snapshot, virtual nanos).
fn run_workload(
    sim: &SimRuntime,
    server_stack: Arc<dyn NetStack>,
    client_stack: Arc<dyn NetStack>,
    backend: Backend,
) -> (Arc<KvLoadStats>, eveth::kv::StatsSnapshot, u64) {
    let server = KvServer::new(
        server_stack,
        KvConfig {
            port: 11211,
            store: StoreConfig {
                shards: 4,
                backend,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    sim.spawn(server.run());

    let stats = Arc::new(KvLoadStats::default());
    let cfg = Arc::new(KvLoadConfig {
        server: Endpoint::new(HostId(1), 11211),
        batches_per_conn: BATCHES,
        pipeline_depth: DEPTH,
        keys: 64,
        zipf_s: 0.9,
        set_percent: 30,
        value_bytes: 64,
        ttl_secs: 0,
        seed: 99,
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
    let watch = Arc::clone(&stats);
    sim.block_on(poll_until(5 * MILLIS, move || {
        watch.clients_done.get() == CLIENTS
    }))
    .expect("clients finished");
    (stats, server.store_snapshot(), sim.now())
}

#[test]
fn kv_over_kernel_socket_model() {
    let sim = SimRuntime::new_default();
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    let (stats, snap, _) = run_workload(
        &sim,
        fabric.stack(HostId(1)),
        fabric.stack(HostId(2)),
        Backend::Mutex,
    );
    assert_eq!(stats.responses(), CLIENTS * (BATCHES * DEPTH) as u64);
    assert_eq!(stats.errors.get(), 0);
    assert_eq!(stats.transport_errors.get(), 0);
    assert_eq!(snap.sets, stats.stored.get());
    assert_eq!(
        snap.hits,
        stats.hits.get(),
        "client and server agree on hits"
    );
}

#[test]
fn kv_over_application_level_tcp() {
    // THE one-line change: build the stacks from the app-level TCP hosts
    // instead of the socket fabric. Everything else is byte-identical.
    let sim = SimRuntime::new_default();
    let net = SimNet::new(sim.clock(), LinkParams::ethernet_100mbps(), 17);
    let a = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(1), TcpConfig::default());
    let b = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(2), TcpConfig::default());
    let (stats, snap, now) = run_workload(&sim, a, b, Backend::Mutex);
    assert_eq!(stats.responses(), CLIENTS * (BATCHES * DEPTH) as u64);
    assert_eq!(stats.errors.get(), 0);
    assert_eq!(stats.transport_errors.get(), 0);
    assert_eq!(snap.hits, stats.hits.get());
    assert!(
        now > 0,
        "TCP handshakes and serialization take virtual time"
    );
}

#[test]
fn kv_over_lossy_application_level_tcp() {
    // The app-level stack's retransmission machinery serves the KV
    // workload through a 1% lossy link with zero client-visible errors.
    let sim = SimRuntime::new_default();
    let net = SimNet::new(
        sim.clock(),
        LinkParams::ethernet_100mbps().with_loss(0.01),
        23,
    );
    let a = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(1), TcpConfig::default());
    let b = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(2), TcpConfig::default());
    let (stats, _snap, _) = run_workload(&sim, a, b, Backend::Mutex);
    assert_eq!(stats.responses(), CLIENTS * (BATCHES * DEPTH) as u64);
    assert_eq!(stats.errors.get(), 0);
    assert_eq!(stats.transport_errors.get(), 0);
}

#[test]
fn stm_backend_behaves_identically_over_simnet() {
    let sim = SimRuntime::new_default();
    let net = SimNet::new(sim.clock(), LinkParams::ethernet_100mbps(), 31);
    let a = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(1), TcpConfig::default());
    let b = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(2), TcpConfig::default());
    let (stats, snap, _) = run_workload(&sim, a, b, Backend::Stm);
    assert_eq!(stats.responses(), CLIENTS * (BATCHES * DEPTH) as u64);
    assert_eq!(stats.errors.get(), 0);
    assert_eq!(snap.sets, stats.stored.get());
}

#[test]
fn a_client_that_fails_a_read_closes_its_connection() {
    // A raw server answers the first batch with a malformed reply line,
    // then waits on its next recv. The client's read fails on the parse
    // error, and the client must close on that path too: the server's
    // wait ends in EOF rather than never.
    let sim = SimRuntime::new_default();
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    let listener = sim
        .block_on(fabric.stack(HostId(1)).listen(11211))
        .expect("listen ran")
        .expect("port free");
    let stats = Arc::new(KvLoadStats::default());
    let cfg = Arc::new(KvLoadConfig {
        server: Endpoint::new(HostId(1), 11211),
        batches_per_conn: 4,
        pipeline_depth: 1,
        set_percent: 0,
        ..KvLoadConfig::default()
    });
    let zipf = Arc::new(Zipf::new(cfg.keys, cfg.zipf_s));
    sim.spawn(client_thread(
        fabric.stack(HostId(2)),
        cfg,
        zipf,
        Arc::clone(&stats),
        0,
    ));
    let after_error = sim.block_on(do_m! {
        let conn <- listener.accept();
        let conn = conn.expect("client connected");
        let batch <- conn.recv(64 * 1024);
        let _ = batch.expect("first batch arrived");
        let sent <- send_all(&conn, Bytes::from_static(b"VALUE k x 2\r\n"));
        let _ = sent.expect("malformed reply sent");
        conn.recv(64 * 1024)
    });
    let after_error = after_error.expect("the server's wait ends");
    assert_eq!(after_error.expect("orderly close"), Bytes::new(), "EOF");
    assert_eq!(stats.errors.get(), 1, "the parse failure is counted");
    assert_eq!(stats.clients_done.get(), 1);
}

/// A deterministic 64-command session script mixing every reply shape
/// the server can gather: sets (scratch-only replies), single- and
/// multi-key gets and gets (value segments aliasing store entries),
/// appends, counter ops, and deletes. Each element is one wire blob and
/// the number of commands it carries.
fn command_script() -> Vec<(Bytes, usize)> {
    let mut cmds = vec![Bytes::from_static(b"set ctr 0 0 1\r\n0\r\n")];
    for i in 0..63usize {
        let k = i % 8;
        let cmd = match i % 7 {
            0 => {
                let len = (i % 24) + 1;
                let mut v = format!("set k{k} 0 0 {len}\r\n").into_bytes();
                v.extend(std::iter::repeat_n(b'a' + (i % 26) as u8, len));
                v.extend_from_slice(b"\r\n");
                Bytes::from(v)
            }
            1 => Bytes::from(format!("get k{k}\r\n")),
            2 => Bytes::from(format!("gets k{k}\r\n")),
            3 => Bytes::from(format!("append k{k} 0 0 2\r\nxy\r\n")),
            4 => Bytes::from_static(b"incr ctr 7\r\n"),
            5 => Bytes::from_static(b"get k0 k1 k2 k3\r\n"),
            _ => Bytes::from(format!("delete k{}\r\n", (i + 1) % 8)),
        };
        cmds.push(cmd);
    }
    cmds.into_iter().map(|c| (c, 1)).collect()
}

/// Ships each wire blob in lockstep — waiting until its commands are
/// fully answered before sending the next — and returns the raw reply
/// byte stream, including the drain after `quit`.
fn session_reply_bytes(
    sim: &SimRuntime,
    client_stack: Arc<dyn NetStack>,
    wires: Vec<(Bytes, usize)>,
) -> Vec<u8> {
    let wires = Arc::new(wires);
    sim.block_on(do_m! {
        let conn <- client_stack.connect(Endpoint::new(HostId(1), 11211));
        let conn = conn.unwrap();
        loop_m((0usize, Vec::<u8>::new()), move |(idx, acc)| {
            if idx == wires.len() {
                let conn = Arc::clone(&conn);
                return send_all(&conn, Bytes::from_static(b"quit\r\n")).bind(move |sent| {
                    sent.unwrap();
                    recv_to_end(&conn, 64 * 1024).map(move |tail| {
                        let mut acc = acc;
                        acc.extend_from_slice(&tail.unwrap());
                        Loop::Break(acc)
                    })
                });
            }
            let (wire, expected) = wires[idx].clone();
            KvClient::from_conn(Arc::clone(&conn))
                .request(wire, expected)
                .map(move |framed| {
                    let mut acc = acc;
                    let framed = framed.expect("well-formed reply stream");
                    for frame in framed.iter().flat_map(|f| &f.bytes) {
                        acc.extend_from_slice(frame);
                    }
                    Loop::Continue((idx + 1, acc))
                })
        })
    })
    .expect("session ran")
}

/// Runs the script against a fresh server over the given stacks and
/// returns the reply bytes.
fn run_session(
    sim: SimRuntime,
    server_stack: Arc<dyn NetStack>,
    client_stack: Arc<dyn NetStack>,
    wires: Vec<(Bytes, usize)>,
) -> Vec<u8> {
    let server = KvServer::new(server_stack, KvConfig::default());
    sim.spawn(server.run());
    session_reply_bytes(&sim, client_stack, wires)
}

#[test]
fn pipelined_batch_replies_are_byte_identical_to_per_command() {
    // The gather-write path coalesces a whole batch's replies — scratch
    // header segments plus value segments aliasing store entries — into
    // one vectored send. The bytes on the wire must be exactly what 64
    // strict request/response round trips would have produced, on both
    // socket stacks and through a lossy link.
    let script = command_script();
    assert_eq!(script.len(), 64, "a 64-deep pipelined session");
    let batch = {
        let mut wire = Vec::new();
        for (w, _) in &script {
            wire.extend_from_slice(w);
        }
        vec![(Bytes::from(wire), script.len())]
    };

    let fabric_run = |wires: Vec<(Bytes, usize)>| {
        let sim = SimRuntime::new_default();
        let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
        run_session(sim, fabric.stack(HostId(1)), fabric.stack(HostId(2)), wires)
    };
    let tcp_run = |loss: f64, seed: u64, wires: Vec<(Bytes, usize)>| {
        let sim = SimRuntime::new_default();
        let params = if loss > 0.0 {
            LinkParams::ethernet_100mbps().with_loss(loss)
        } else {
            LinkParams::ethernet_100mbps()
        };
        let net = SimNet::new(sim.clock(), params, seed);
        let a = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(1), TcpConfig::default());
        let b = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(2), TcpConfig::default());
        run_session(sim, a, b, wires)
    };

    let per_fabric = fabric_run(script.clone());
    assert_eq!(
        per_fabric,
        fabric_run(batch.clone()),
        "kernel sockets: batched replies must match per-command bytes"
    );
    let per_tcp = tcp_run(0.0, 41, script.clone());
    assert_eq!(
        per_tcp,
        tcp_run(0.0, 41, batch.clone()),
        "app-level TCP: batched replies must match per-command bytes"
    );
    let per_lossy = tcp_run(0.01, 43, script);
    assert_eq!(
        per_lossy,
        tcp_run(0.01, 43, batch),
        "lossy link: retransmission must not perturb the gathered bytes"
    );
    // The reply stream is a pure function of the commands — identical
    // across every transport.
    assert_eq!(per_fabric, per_tcp);
    assert_eq!(per_fabric, per_lossy);
    // And it actually carried aliased value payloads.
    let text = String::from_utf8(per_fabric).unwrap();
    assert!(text.contains("VALUE k"), "gets hit");
    assert!(text.contains("STORED"), "sets acknowledged");
}

#[test]
fn raw_protocol_session_over_app_tcp() {
    // Drive the wire protocol by hand over the app-level stack: pipelined
    // set/get/incr/delete in one write, one coalesced reply.
    let sim = SimRuntime::new_default();
    let net = SimNet::new(sim.clock(), LinkParams::ethernet_100mbps(), 5);
    let srv_stack = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(1), TcpConfig::default());
    let cli_stack = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(2), TcpConfig::default());

    let server = KvServer::new(srv_stack, KvConfig::default());
    sim.spawn(server.run());

    let reply = sim
        .block_on(do_m! {
            let conn <- cli_stack.connect(Endpoint::new(HostId(1), 11211));
            let conn = conn.unwrap();
            let pipelined = Bytes::from_static(
                b"set a 0 0 2\r\nhi\r\nset n 0 0 1\r\n5\r\nget a\r\nincr n 10\r\ndelete a\r\nget a missing\r\nquit\r\n",
            );
            let sent <- send_all(&conn, pipelined);
            let _ = sent.unwrap();
            recv_to_end(&conn, 64 * 1024)
        })
        .unwrap()
        .unwrap();
    let text = String::from_utf8(reply.to_vec()).unwrap();
    assert_eq!(
        text,
        "STORED\r\nSTORED\r\nVALUE a 0 2\r\nhi\r\nEND\r\n15\r\nDELETED\r\nEND\r\n"
    );
}
