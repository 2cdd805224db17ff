//! Integration: the cluster layer — consistent-hash router, hot-key
//! replication, failover — over both socket stacks and under injected
//! faults.
//!
//! The load-bearing claims:
//!
//! * transparency: a 3-node cluster behind the router serves the *same
//!   reply bytes* as a single node, on the kernel-socket model, the
//!   app-level TCP stack, and through a 1%-lossy link;
//! * durability: with R=2 replication, crashing one replica mid-run
//!   loses zero acknowledged writes;
//! * elasticity: swapping ring membership mid-run keeps the cluster
//!   serving (remapped keys miss, nothing errors);
//! * bounded failure: a partitioned backend turns into `SERVER_ERROR`
//!   after the backend timeout instead of a hung client, and service
//!   resumes once the partition heals.

use std::sync::Arc;

use bytes::Bytes;
use eveth::cluster::{HashRing, Router, RouterConfig};
use eveth::core::net::{recv_to_end, send_all, Conn, Endpoint, HostId, NetStack};
use eveth::core::time::MILLIS;
use eveth::glue;
use eveth::kv::client::KvClient;
use eveth::kv::server::{KvConfig, KvServer};
use eveth::simos::net::{LinkParams, SimNet};
use eveth::simos::sockets::SocketFabric;
use eveth::simos::SimRuntime;
use eveth::tcp::tcb::TcpConfig;
use eveth::{do_m, loop_m, Loop, ThreadM};

const KV_PORT: u16 = 11211;
const ROUTER_PORT: u16 = 11311;

fn backend(h: u32) -> Endpoint {
    Endpoint::new(HostId(h), KV_PORT)
}

/// Spawns one KV node per host on its stack.
fn spawn_backends(sim: &SimRuntime, stacks: Vec<Arc<dyn NetStack>>) {
    for stack in stacks {
        let server = KvServer::new(
            stack,
            KvConfig {
                port: KV_PORT,
                ..Default::default()
            },
        );
        sim.spawn(server.run());
    }
}

/// Sends `wire` and reads the responses to `expected` commands through
/// the shared wire client; appends their raw bytes to `acc`.
fn pipelined(conn: Arc<dyn Conn>, wire: Bytes, expected: usize, acc: Vec<u8>) -> ThreadM<Vec<u8>> {
    KvClient::from_conn(conn)
        .request(wire, expected)
        .map(move |framed| {
            let mut acc = acc;
            let framed = framed.expect("well-formed reply stream");
            for frame in framed.iter().flat_map(|f| &f.bytes) {
                acc.extend_from_slice(frame);
            }
            acc
        })
}

/// A deterministic 67-command script: 64 single-key commands plus
/// `version` and two multi-key gets (the router splits those per
/// shard and stitches the VALUE runs back in key order, so the bytes
/// still match a single node). The transparency contract excludes only
/// `gets` cas uniques: version stamps are per-node sequence numbers,
/// so a cluster's differ from a single node's even for identical data.
fn cluster_script() -> Vec<(Bytes, usize)> {
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
            2 => Bytes::from(format!("touch k{k} 0\r\n")),
            3 => Bytes::from(format!("append k{k} 0 0 2\r\nxy\r\n")),
            4 => Bytes::from_static(b"incr ctr 7\r\n"),
            5 => Bytes::from(format!("get k{}\r\n", (i + 3) % 8)),
            _ => Bytes::from(format!("delete k{}\r\n", (i + 1) % 8)),
        };
        cmds.push(cmd);
    }
    // Keyless single-line command: must pass through the router without
    // wedging the frame (VERSION closes its command).
    cmds.push(Bytes::from_static(b"version\r\n"));
    // Multi-key gets spanning every shard, including a miss in the
    // middle: one END closes the whole command on both sides.
    cmds.push(Bytes::from_static(b"get k0 k1 k2 k3 k4 k5 k6 k7\r\n"));
    cmds.push(Bytes::from_static(b"get k2 nosuchkey k5\r\n"));
    cmds.into_iter().map(|c| (c, 1)).collect()
}

/// Runs the script in lockstep against `target` and returns the raw
/// reply byte stream, including the drain after `quit`.
fn session_reply_bytes(
    sim: &SimRuntime,
    client_stack: Arc<dyn NetStack>,
    target: Endpoint,
    wires: Vec<(Bytes, usize)>,
) -> Vec<u8> {
    let wires = Arc::new(wires);
    sim.block_on(do_m! {
        let conn <- client_stack.connect(target);
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
            pipelined(Arc::clone(&conn), wire, expected, acc)
                .map(move |acc| Loop::Continue((idx + 1, acc)))
        })
    })
    .expect("session ran")
}

/// Script bytes against a single KV node, no router.
fn single_node_bytes(
    sim: &SimRuntime,
    server_stack: Arc<dyn NetStack>,
    client_stack: Arc<dyn NetStack>,
    wires: Vec<(Bytes, usize)>,
) -> Vec<u8> {
    spawn_backends(sim, vec![server_stack]);
    session_reply_bytes(sim, client_stack, backend(1), wires)
}

/// Script bytes against a 3-node cluster behind the router.
fn routed_bytes(
    sim: &SimRuntime,
    backend_stacks: Vec<Arc<dyn NetStack>>,
    router_stack: Arc<dyn NetStack>,
    client_stack: Arc<dyn NetStack>,
    wires: Vec<(Bytes, usize)>,
) -> Vec<u8> {
    let n = backend_stacks.len() as u32;
    spawn_backends(sim, backend_stacks);
    let router = Router::new(
        router_stack,
        RouterConfig {
            port: ROUTER_PORT,
            backends: (1..=n).map(backend).collect(),
            ..Default::default()
        },
    );
    sim.spawn(router.run());
    session_reply_bytes(
        sim,
        client_stack,
        Endpoint::new(HostId(10), ROUTER_PORT),
        wires,
    )
}

#[test]
fn routed_replies_are_byte_identical_to_a_single_node() {
    let script = cluster_script();

    // Kernel-socket model.
    let single_fabric = {
        let sim = SimRuntime::new_default();
        let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
        single_node_bytes(
            &sim,
            fabric.stack(HostId(1)),
            fabric.stack(HostId(20)),
            script.clone(),
        )
    };
    let routed_fabric = {
        let sim = SimRuntime::new_default();
        let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
        routed_bytes(
            &sim,
            (1..=3)
                .map(|h| fabric.stack(HostId(h)) as Arc<dyn NetStack>)
                .collect(),
            fabric.stack(HostId(10)),
            fabric.stack(HostId(20)),
            script.clone(),
        )
    };
    assert_eq!(
        single_fabric, routed_fabric,
        "kernel sockets: routing must be invisible in the reply bytes"
    );

    // App-level TCP on the simulated packet network, clean and lossy.
    let tcp_run = |loss: f64, seed: u64, routed: bool| {
        let sim = SimRuntime::new_default();
        let params = if loss > 0.0 {
            LinkParams::ethernet_100mbps().with_loss(loss)
        } else {
            LinkParams::ethernet_100mbps()
        };
        let net = SimNet::new(sim.clock(), params, seed);
        let stack = |h: u32| -> Arc<dyn NetStack> {
            glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(h), TcpConfig::default())
        };
        if routed {
            routed_bytes(
                &sim,
                (1..=3).map(stack).collect(),
                stack(10),
                stack(20),
                script.clone(),
            )
        } else {
            single_node_bytes(&sim, stack(1), stack(20), script.clone())
        }
    };
    assert_eq!(
        tcp_run(0.0, 41, false),
        tcp_run(0.0, 41, true),
        "app-level TCP: routing must be invisible in the reply bytes"
    );
    assert_eq!(
        tcp_run(0.01, 43, false),
        tcp_run(0.01, 43, true),
        "lossy link: retransmission under the router must not perturb the bytes"
    );
    // And the stream is a pure function of the commands across every
    // transport and topology.
    assert_eq!(single_fabric, tcp_run(0.0, 41, true));
    let text = String::from_utf8(single_fabric).unwrap();
    assert!(text.contains("VALUE k"), "gets hit");
    assert!(text.contains("STORED"), "sets acknowledged");
}

#[test]
fn acked_writes_survive_a_replica_crash() {
    // R=2 over two nodes: every key lives on both. Ack 40 writes, crash
    // one node, read every key back through the router — zero lost.
    const KEYS: usize = 40;
    let sim = SimRuntime::new_default();
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    spawn_backends(
        &sim,
        (1..=2)
            .map(|h| fabric.stack(HostId(h)) as Arc<dyn NetStack>)
            .collect(),
    );
    let router = Router::new(
        fabric.stack(HostId(10)),
        RouterConfig {
            port: ROUTER_PORT,
            backends: (1..=2).map(backend).collect(),
            replication: 2,
            ..Default::default()
        },
    );
    sim.spawn(router.run());

    let client = fabric.stack(HostId(20));
    let conn = sim
        .block_on(do_m! {
            let conn <- client.connect(Endpoint::new(HostId(10), ROUTER_PORT));
            ThreadM::pure(conn.unwrap())
        })
        .unwrap();

    // Phase 1: pipelined acked writes.
    let mut wire = Vec::new();
    for k in 0..KEYS {
        wire.extend_from_slice(format!("set hot:k{k} 0 0 6\r\nv{k:05}\r\n").as_bytes());
    }
    let acks = sim
        .block_on(pipelined(
            Arc::clone(&conn),
            Bytes::from(wire),
            KEYS,
            Vec::new(),
        ))
        .unwrap();
    assert_eq!(
        String::from_utf8(acks).unwrap(),
        "STORED\r\n".repeat(KEYS),
        "every write acknowledged by both replicas"
    );
    assert!(router.stats().replicated_writes.get() >= KEYS as u64);

    // Mid-run crash: one of the two replicas dies with its sockets.
    fabric.crash_host(HostId(2));

    // Phase 2: read every acked key back; the router fails over to the
    // survivor for keys whose primary died.
    let mut wire = Vec::new();
    for k in 0..KEYS {
        wire.extend_from_slice(format!("get hot:k{k}\r\n").as_bytes());
    }
    let got = sim
        .block_on(pipelined(
            Arc::clone(&conn),
            Bytes::from(wire),
            KEYS,
            Vec::new(),
        ))
        .unwrap();
    let text = String::from_utf8(got).unwrap();
    for k in 0..KEYS {
        assert!(
            text.contains(&format!("VALUE hot:k{k} 0 6\r\nv{k:05}\r\n")),
            "acked write hot:k{k} lost after replica crash"
        );
    }
    assert!(!text.contains("SERVER_ERROR"), "no unavailability: {text}");
    // The crash actually exercised failover (unless every primary
    // happened to be the survivor, which vnode spreading rules out).
    assert!(router.stats().backend_errors.get() >= 1);
}

#[test]
fn ring_swap_mid_run_keeps_serving() {
    // R=1, 4 nodes; write 40 keys, shrink membership to 3 mid-session:
    // keys owned by the departed node miss, everything else still hits,
    // nothing errors.
    const KEYS: usize = 40;
    let sim = SimRuntime::new_default();
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    spawn_backends(
        &sim,
        (1..=4)
            .map(|h| fabric.stack(HostId(h)) as Arc<dyn NetStack>)
            .collect(),
    );
    let router = Router::new(
        fabric.stack(HostId(10)),
        RouterConfig {
            port: ROUTER_PORT,
            backends: (1..=4).map(backend).collect(),
            ..Default::default()
        },
    );
    sim.spawn(router.run());

    let client = fabric.stack(HostId(20));
    let conn = sim
        .block_on(do_m! {
            let conn <- client.connect(Endpoint::new(HostId(10), ROUTER_PORT));
            ThreadM::pure(conn.unwrap())
        })
        .unwrap();

    let mut wire = Vec::new();
    for k in 0..KEYS {
        wire.extend_from_slice(format!("set k{k} 0 0 3\r\nval\r\n").as_bytes());
    }
    sim.block_on(pipelined(
        Arc::clone(&conn),
        Bytes::from(wire),
        KEYS,
        Vec::new(),
    ))
    .unwrap();

    // Rebalance: node 4 leaves the ring (it stays up — this is a
    // membership change, not a failure).
    router.set_ring((1..=3).map(backend).collect());

    let mut wire = Vec::new();
    for k in 0..KEYS {
        wire.extend_from_slice(format!("get k{k}\r\n").as_bytes());
    }
    let got = sim
        .block_on(pipelined(
            Arc::clone(&conn),
            Bytes::from(wire),
            KEYS,
            Vec::new(),
        ))
        .unwrap();
    let text = String::from_utf8(got).unwrap();
    let hits = text.matches("VALUE ").count();
    assert!(!text.contains("SERVER_ERROR"), "rebalance must not error");
    assert!(hits > 0, "keys still on surviving owners must hit");
    assert!(
        hits < KEYS,
        "keys remapped off node 4 must miss (≈1/4 of them)"
    );
    // Consistent hashing: the move fraction is about 1/N, not a reshuffle.
    let misses = KEYS - hits;
    assert!(
        misses <= KEYS / 2,
        "only the departed node's share may move (got {misses}/{KEYS})"
    );
}

#[test]
fn partitioned_backend_degrades_to_server_error_and_heals() {
    // App-level TCP over the packet network: partition the router from
    // one backend. In-flight commands to it time out into SERVER_ERROR
    // (bounded, not hung); after the partition heals the next batch
    // reconnects and serves normally.
    let sim = SimRuntime::new_default();
    let net = SimNet::new(sim.clock(), LinkParams::ethernet_100mbps(), 7);
    let stack = |h: u32| -> Arc<dyn NetStack> {
        glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(h), TcpConfig::default())
    };
    spawn_backends(&sim, (1..=3).map(stack).collect());
    let router = Router::new(
        stack(10),
        RouterConfig {
            port: ROUTER_PORT,
            backends: (1..=3).map(backend).collect(),
            backend_timeout: 50 * MILLIS,
            ..Default::default()
        },
    );
    sim.spawn(router.run());

    // A key owned by node 2, computed from the same ring the router uses.
    let ring = HashRing::new((1..=3).map(backend).collect(), 64);
    let key = (0..)
        .map(|i| format!("p{i}"))
        .find(|k| ring.primary(k.as_bytes()).host == HostId(2))
        .unwrap();

    let client = stack(20);
    let conn = sim
        .block_on(do_m! {
            let conn <- client.connect(Endpoint::new(HostId(10), ROUTER_PORT));
            ThreadM::pure(conn.unwrap())
        })
        .unwrap();

    // Warm path: store and read the key through node 2.
    let wire = Bytes::from(format!("set {key} 0 0 2\r\nhi\r\nget {key}\r\n"));
    let ok = sim
        .block_on(pipelined(Arc::clone(&conn), wire, 2, Vec::new()))
        .unwrap();
    assert_eq!(
        String::from_utf8(ok).unwrap(),
        format!("STORED\r\nVALUE {key} 0 2\r\nhi\r\nEND\r\n")
    );

    // Partition router ↔ node 2 both ways.
    net.set_link_down(HostId(10), HostId(2));
    net.set_link_down(HostId(2), HostId(10));
    let degraded = sim
        .block_on(pipelined(
            Arc::clone(&conn),
            Bytes::from(format!("get {key}\r\n")),
            1,
            Vec::new(),
        ))
        .unwrap();
    assert_eq!(
        String::from_utf8(degraded).unwrap(),
        "SERVER_ERROR backend unavailable\r\n",
        "a partitioned shard is an error, not a hang"
    );

    // Heal; the router redials and the key is still there.
    net.set_link_up(HostId(10), HostId(2));
    net.set_link_up(HostId(2), HostId(10));
    let healed = sim
        .block_on(pipelined(
            Arc::clone(&conn),
            Bytes::from(format!("get {key}\r\n")),
            1,
            Vec::new(),
        ))
        .unwrap();
    assert_eq!(
        String::from_utf8(healed).unwrap(),
        format!("VALUE {key} 0 2\r\nhi\r\nEND\r\n"),
        "service resumes after the partition heals"
    );
}

#[test]
fn replicated_conditional_writes_stay_on_the_primary() {
    // R=2 over two nodes: cas stamps are per-node sequence numbers, so
    // fanning a cas to both replicas would ack the client while the
    // copies silently diverge (STORED on the primary, EXISTS on the
    // secondary). The router therefore keeps conditional writes
    // primary-only; the secondary's copy goes stale until the next
    // plain set or read-repair refreshes it.
    let sim = SimRuntime::new_default();
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    spawn_backends(
        &sim,
        (1..=2)
            .map(|h| fabric.stack(HostId(h)) as Arc<dyn NetStack>)
            .collect(),
    );
    let router = Router::new(
        fabric.stack(HostId(10)),
        RouterConfig {
            port: ROUTER_PORT,
            backends: (1..=2).map(backend).collect(),
            replication: 2,
            ..Default::default()
        },
    );
    sim.spawn(router.run());

    let client = fabric.stack(HostId(20));
    let conn = sim
        .block_on(do_m! {
            let conn <- client.connect(Endpoint::new(HostId(10), ROUTER_PORT));
            ThreadM::pure(conn.unwrap())
        })
        .unwrap();

    // A plain set fans out to both replicas…
    let stored = sim
        .block_on(pipelined(
            Arc::clone(&conn),
            Bytes::from_static(b"set hot:c 0 0 2\r\nv1\r\n"),
            1,
            Vec::new(),
        ))
        .unwrap();
    assert_eq!(String::from_utf8(stored).unwrap(), "STORED\r\n");
    assert_eq!(router.stats().replicated_writes.get(), 1);

    // …and a routed gets surfaces the primary's cas stamp.
    let got = sim
        .block_on(pipelined(
            Arc::clone(&conn),
            Bytes::from_static(b"gets hot:c\r\n"),
            1,
            Vec::new(),
        ))
        .unwrap();
    let text = String::from_utf8(got).unwrap();
    let stamp: u64 = text
        .lines()
        .next()
        .expect("VALUE line")
        .rsplit(' ')
        .next()
        .expect("cas stamp")
        .parse()
        .expect("numeric stamp");

    // The cas is acked without being counted as a fan-out write.
    let cased = sim
        .block_on(pipelined(
            Arc::clone(&conn),
            Bytes::from(format!("cas hot:c 0 0 2 {stamp}\r\nv2\r\n")),
            1,
            Vec::new(),
        ))
        .unwrap();
    assert_eq!(String::from_utf8(cased).unwrap(), "STORED\r\n");
    assert_eq!(
        router.stats().replicated_writes.get(),
        1,
        "cas must not fan out to replicas"
    );

    // Routed reads (primary-first failover order) see the new value…
    let read = sim
        .block_on(pipelined(
            Arc::clone(&conn),
            Bytes::from_static(b"get hot:c\r\n"),
            1,
            Vec::new(),
        ))
        .unwrap();
    assert_eq!(
        String::from_utf8(read).unwrap(),
        "VALUE hot:c 0 2\r\nv2\r\nEND\r\n"
    );

    // …while the secondary still holds the pre-cas copy, proving the
    // conditional write never reached it.
    let ring = HashRing::new((1..=2).map(backend).collect(), 64);
    let secondary = ring.replicas(b"hot:c", 2)[1];
    let direct = sim
        .block_on(do_m! {
            let conn <- client.connect(secondary);
            pipelined(conn.unwrap(), Bytes::from_static(b"get hot:c\r\n"), 1, Vec::new())
        })
        .unwrap();
    assert_eq!(
        String::from_utf8(direct).unwrap(),
        "VALUE hot:c 0 2\r\nv1\r\nEND\r\n"
    );
}

#[test]
fn silent_backend_times_out_into_server_error_on_kernel_sockets() {
    // A black-hole backend accepts and reads but never replies.
    // backend_timeout must bound the fan-in wait on the kernel-socket
    // model (the partition test covers app-TCP): the client gets
    // SERVER_ERROR instead of a wedged session.
    let sim = SimRuntime::new_default();
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());

    // Black hole on host 1: accept once, discard everything, never write.
    let hole = fabric.stack(HostId(1));
    sim.spawn(do_m! {
        let listener <- hole.listen(KV_PORT);
        let listener = listener.unwrap();
        let conn <- listener.accept();
        let conn = conn.unwrap();
        loop_m((), move |()| {
            let conn = Arc::clone(&conn);
            conn.recv(4096).map(|got| match got {
                Ok(chunk) if !chunk.is_empty() => Loop::Continue(()),
                _ => Loop::Break(()),
            })
        })
    });

    let router = Router::new(
        fabric.stack(HostId(10)),
        RouterConfig {
            port: ROUTER_PORT,
            backends: vec![backend(1)],
            backend_timeout: 50 * MILLIS,
            ..Default::default()
        },
    );
    sim.spawn(router.run());

    let client = fabric.stack(HostId(20));
    let got = sim
        .block_on(do_m! {
            let conn <- client.connect(Endpoint::new(HostId(10), ROUTER_PORT));
            pipelined(conn.unwrap(), Bytes::from_static(b"get k\r\n"), 1, Vec::new())
        })
        .unwrap();
    assert_eq!(
        String::from_utf8(got).unwrap(),
        "SERVER_ERROR backend unavailable\r\n",
        "a silent backend must time out, not hang"
    );
}

#[test]
fn router_answers_error_for_an_unknown_verb_and_client_error_for_a_malformed_one() {
    // The router parses what it forwards, so it owes the client the same
    // error lines a single node sends (`ProtoError::to_reply`): the
    // commands ahead of the bad line are routed and answered, then the
    // error line, then the session closes — the trailing `get` is never
    // answered.
    for (bad, line) in [
        (&b"bogus\r\n"[..], "ERROR\r\n"),
        (&b"incr k notanumber\r\n"[..], "CLIENT_ERROR bad delta\r\n"),
    ] {
        let sim = SimRuntime::new_default();
        let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
        let backends: Vec<Arc<dyn NetStack>> = (1..=3)
            .map(|h| fabric.stack(HostId(h)) as Arc<dyn NetStack>)
            .collect();
        spawn_backends(&sim, backends);
        let router = Router::new(
            fabric.stack(HostId(10)),
            RouterConfig {
                port: ROUTER_PORT,
                backends: (1..=3).map(backend).collect(),
                ..Default::default()
            },
        );
        sim.spawn(router.run());

        let mut wire = b"set k 0 0 1\r\nx\r\n".to_vec();
        wire.extend_from_slice(bad);
        wire.extend_from_slice(b"get k\r\n");
        let client = fabric.stack(HostId(20));
        let got = sim
            .block_on(do_m! {
                let conn <- client.connect(Endpoint::new(HostId(10), ROUTER_PORT));
                let conn = conn.unwrap();
                let sent <- send_all(&conn, Bytes::from(wire));
                let _ = sent.unwrap();
                recv_to_end(&conn, 64 * 1024)
            })
            .unwrap()
            .unwrap();
        assert_eq!(
            String::from_utf8(got.to_vec()).unwrap(),
            format!("STORED\r\n{line}")
        );
        assert_eq!(router.stats().protocol_errors.get(), 1);
    }
}

#[test]
fn a_router_fan_in_leaves_no_read_entry_on_a_backend_connection() {
    // App-level TCP; node 3 sits behind a 20 ms link. A multi-key get
    // naming node 3's key first makes the router's fan-in register on
    // node 3 in every round, while nodes 1 and 2 win the first two.
    let sim = SimRuntime::new_default();
    let net = SimNet::new(sim.clock(), LinkParams::ethernet_100mbps(), 11);
    let slow = LinkParams {
        latency: 20 * MILLIS,
        ..LinkParams::ethernet_100mbps()
    };
    net.set_link(HostId(10), HostId(3), slow);
    net.set_link(HostId(3), HostId(10), slow);
    let stack =
        |h: u32| glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(h), TcpConfig::default());
    spawn_backends(
        &sim,
        (1..=3).map(|h| stack(h) as Arc<dyn NetStack>).collect(),
    );
    let router_host = stack(10);
    let router = Router::new(
        Arc::clone(&router_host) as Arc<dyn NetStack>,
        RouterConfig {
            port: ROUTER_PORT,
            backends: (1..=3).map(backend).collect(),
            backend_timeout: 500 * MILLIS,
            ..Default::default()
        },
    );
    sim.spawn(router.run());
    let ring = HashRing::new((1..=3).map(backend).collect(), 64);
    let key_on = |h: u32| {
        (0..)
            .map(|i| format!("f{i}"))
            .find(|k| ring.primary(k.as_bytes()).host == HostId(h))
            .unwrap()
    };
    let wire = Bytes::from(format!("get {} {} {}\r\n", key_on(3), key_on(1), key_on(2)));
    let backend_entries = || {
        let mut v: Vec<_> = router_host
            .read_waiters()
            .into_iter()
            .filter(|(peer, _)| peer.port == KV_PORT)
            .map(|(peer, n)| (peer.host.0, n))
            .collect();
        v.sort_unstable();
        v
    };

    // Warm the router's pool: one connection per backend.
    let client = stack(20);
    let conn = sim
        .block_on(do_m! {
            let conn <- client.connect(Endpoint::new(HostId(10), ROUTER_PORT));
            ThreadM::pure(conn.unwrap())
        })
        .unwrap();
    let warm = sim
        .block_on(pipelined(Arc::clone(&conn), wire.clone(), 1, Vec::new()))
        .unwrap();
    assert_eq!(String::from_utf8(warm).unwrap(), "END\r\n");
    assert_eq!(backend_entries(), vec![(1, 0), (2, 0), (3, 0)]);

    // Mid fan-in: nodes 1 and 2 have answered; node 3's connection holds
    // the one live entry of the wait in flight, no spent ones.
    let reply = Arc::new(std::sync::Mutex::new(None));
    let slot = Arc::clone(&reply);
    sim.spawn(pipelined(conn, wire, 1, Vec::new()).map(move |b| *slot.lock().unwrap() = Some(b)));
    sim.run_until(Some(sim.clock().now() + 10 * MILLIS));
    assert!(
        reply.lock().unwrap().is_none(),
        "node 3 has not answered yet"
    );
    assert_eq!(backend_entries(), vec![(1, 0), (2, 0), (3, 1)]);

    // After the fan-in no backend connection holds a read entry.
    sim.run_until(Some(sim.clock().now() + 200 * MILLIS));
    assert_eq!(
        reply.lock().unwrap().take().as_deref(),
        Some(&b"END\r\n"[..])
    );
    assert_eq!(backend_entries(), vec![(1, 0), (2, 0), (3, 0)]);
}

#[test]
fn a_read_that_hits_only_on_the_secondary_repairs_the_primary() {
    // R=2 over two nodes; the key is stored on its secondary only,
    // through a direct connection. The routed get misses on the primary,
    // falls back to the secondary, forwards its hit and copies it back to
    // the primary.
    let sim = SimRuntime::new_default();
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    spawn_backends(
        &sim,
        (1..=2)
            .map(|h| fabric.stack(HostId(h)) as Arc<dyn NetStack>)
            .collect(),
    );
    let router = Router::new(
        fabric.stack(HostId(10)),
        RouterConfig {
            port: ROUTER_PORT,
            backends: (1..=2).map(backend).collect(),
            replication: 2,
            ..Default::default()
        },
    );
    sim.spawn(router.run());
    let ring = HashRing::new((1..=2).map(backend).collect(), 64);
    let [primary, secondary] = ring.replicas(b"hot:r", 2)[..] else {
        panic!("two replicas")
    };
    let client = fabric.stack(HostId(20));
    let direct = |ep: Endpoint, wire: &'static [u8]| {
        let client = Arc::clone(&client);
        let got = sim
            .block_on(do_m! {
                let conn <- client.connect(ep);
                pipelined(conn.unwrap(), Bytes::from_static(wire), 1, Vec::new())
            })
            .unwrap();
        String::from_utf8(got).unwrap()
    };
    assert_eq!(
        direct(secondary, b"set hot:r 5 0 2\r\nv1\r\n"),
        "STORED\r\n"
    );
    assert_eq!(direct(primary, b"get hot:r\r\n"), "END\r\n");

    let routed = sim
        .block_on(do_m! {
            let conn <- client.connect(Endpoint::new(HostId(10), ROUTER_PORT));
            pipelined(conn.unwrap(), Bytes::from_static(b"get hot:r\r\n"), 1, Vec::new())
        })
        .unwrap();
    assert_eq!(
        String::from_utf8(routed).unwrap(),
        "VALUE hot:r 5 2\r\nv1\r\nEND\r\n"
    );
    assert_eq!(router.stats().read_retries.get(), 1);
    assert_eq!(router.stats().read_repairs.get(), 1);
    assert_eq!(
        direct(primary, b"get hot:r\r\n"),
        "VALUE hot:r 5 2\r\nv1\r\nEND\r\n",
        "the repair set reached the primary"
    );
}

#[test]
fn a_multi_key_get_across_a_partitioned_shard_fails_whole_and_stitches_after_the_heal() {
    // App-level TCP, R=1 over three nodes, one key per node. While node 2
    // is partitioned the whole command answers one SERVER_ERROR — never
    // the other shards' VALUE runs closed by an END. After the heal the
    // runs are stitched in key order under one END.
    let sim = SimRuntime::new_default();
    let net = SimNet::new(sim.clock(), LinkParams::ethernet_100mbps(), 13);
    let stack = |h: u32| -> Arc<dyn NetStack> {
        glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(h), TcpConfig::default())
    };
    spawn_backends(&sim, (1..=3).map(stack).collect());
    let router = Router::new(
        stack(10),
        RouterConfig {
            port: ROUTER_PORT,
            backends: (1..=3).map(backend).collect(),
            backend_timeout: 50 * MILLIS,
            ..Default::default()
        },
    );
    sim.spawn(router.run());
    let ring = HashRing::new((1..=3).map(backend).collect(), 64);
    let key_on = |h: u32| {
        (0..)
            .map(|i| format!("m{i}"))
            .find(|k| ring.primary(k.as_bytes()).host == HostId(h))
            .unwrap()
    };
    let keys = [key_on(1), key_on(2), key_on(3)];

    let client = stack(20);
    let conn = sim
        .block_on(do_m! {
            let conn <- client.connect(Endpoint::new(HostId(10), ROUTER_PORT));
            ThreadM::pure(conn.unwrap())
        })
        .unwrap();
    let request = |wire: String, expected: usize| {
        let got = sim
            .block_on(pipelined(
                Arc::clone(&conn),
                Bytes::from(wire),
                expected,
                Vec::new(),
            ))
            .unwrap();
        String::from_utf8(got).unwrap()
    };
    let sets: String = keys
        .iter()
        .enumerate()
        .map(|(i, k)| format!("set {k} 0 0 2\r\nv{i}\r\n"))
        .collect();
    assert_eq!(request(sets, 3), "STORED\r\n".repeat(3));
    let multi_get = format!("get {} {} {}\r\n", keys[0], keys[1], keys[2]);

    net.set_link_down(HostId(10), HostId(2));
    net.set_link_down(HostId(2), HostId(10));
    assert_eq!(
        request(multi_get.clone(), 1),
        "SERVER_ERROR backend unavailable\r\n",
        "a partitioned shard fails the whole command"
    );

    net.set_link_up(HostId(10), HostId(2));
    net.set_link_up(HostId(2), HostId(10));
    let stitched: String = keys
        .iter()
        .enumerate()
        .map(|(i, k)| format!("VALUE {k} 0 2\r\nv{i}\r\n"))
        .chain(["END\r\n".to_string()])
        .collect();
    assert_eq!(request(multi_get, 1), stitched);
}
