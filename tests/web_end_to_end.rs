//! End-to-end web-server integration: byte-exact content over both socket
//! stacks, keep-alive sessions, 404s, and malformed-request handling.

use std::sync::Arc;

use bytes::Bytes;
use eveth::core::io::ramdisk::MemStore;
use eveth::core::net::{recv_exact, send_all, Conn, Endpoint, HostId, NetStack};
use eveth::core::syscall::sys_nbio;
use eveth::glue;
use eveth::http::loadgen::http_get;
use eveth::http::parser::parse_response_head;
use eveth::http::server::{ServerConfig, WebServer};
use eveth::simos::net::{LinkParams, SimNet};
use eveth::simos::sockets::SocketFabric;
use eveth::simos::SimRuntime;
use eveth::tcp::tcb::TcpConfig;
use eveth::{do_m, ThreadM};

fn store_with_files() -> Arc<MemStore> {
    let files = Arc::new(MemStore::new());
    files.insert_bytes("/index.html", b"<html>hello</html>".to_vec());
    files.insert_bytes(
        "/big.bin",
        (0..50_000u32).map(|i| i as u8).collect::<Vec<u8>>(),
    );
    files
}

fn stacks(sim: &SimRuntime, use_tcp: bool) -> (Arc<dyn NetStack>, Arc<dyn NetStack>) {
    if use_tcp {
        let net = SimNet::new(sim.clock(), LinkParams::ethernet_100mbps(), 77);
        (
            glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(1), TcpConfig::default()),
            glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(2), TcpConfig::default()),
        )
    } else {
        let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
        (fabric.stack(HostId(1)), fabric.stack(HostId(2)))
    }
}

fn fetch_body(conn: &Arc<dyn Conn>, path: &str) -> ThreadM<(u16, Bytes)> {
    let request = Bytes::from(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"));
    let conn = Arc::clone(conn);
    do_m! {
        let sent <- send_all(&conn, request);
        let _ = sent.expect("request sent");
        // Read the head incrementally, then exactly the body.
        eveth::loop_m(Vec::new(), move |mut acc: Vec<u8>| {
            if let Some(head) = parse_response_head(&acc).expect("valid head") {
                let total = head.head_len + head.content_length;
                if acc.len() >= total {
                    let body = Bytes::from(acc).slice(head.head_len..total);
                    return ThreadM::pure(eveth::Loop::Break((head.status, body)));
                }
            }
            let conn = Arc::clone(&conn);
            conn.recv(16 * 1024).map(move |r| {
                let chunk = r.expect("recv");
                assert!(!chunk.is_empty(), "server closed mid-response");
                acc.extend_from_slice(&chunk);
                eveth::Loop::Continue(acc)
            })
        })
    }
}

fn end_to_end(use_tcp: bool) {
    let sim = SimRuntime::new_default();
    let (server_stack, client_stack) = stacks(&sim, use_tcp);
    let server = WebServer::new(
        server_stack,
        store_with_files(),
        ServerConfig {
            port: 80,
            cache_bytes: 1024 * 1024,
            ..Default::default()
        },
    );
    sim.spawn(server.run());

    let results = sim
        .block_on(do_m! {
            let conn <- client_stack.connect(Endpoint::new(HostId(1), 80));
            let conn = conn.expect("connected");
            // Three requests over ONE keep-alive connection.
            let index <- fetch_body(&conn, "/index.html");
            let big <- fetch_body(&conn, "/big.bin");
            let missing <- fetch_body(&conn, "/nope");
            let again <- fetch_body(&conn, "/index.html");
            ThreadM::pure((index, big, missing, again))
        })
        .expect("simulation completed");

    let (index, big, missing, again) = results;
    assert_eq!(index.0, 200);
    assert_eq!(&index.1[..], b"<html>hello</html>");
    assert_eq!(big.0, 200);
    assert_eq!(big.1.len(), 50_000);
    let expect: Vec<u8> = (0..50_000u32).map(|i| i as u8).collect();
    assert_eq!(&big.1[..], &expect[..], "body must be byte-exact");
    assert_eq!(missing.0, 404);
    assert_eq!(again.0, 200, "keep-alive session survives a 404");
    assert_eq!(&again.1[..], b"<html>hello</html>");
}

#[test]
fn content_exact_over_kernel_sockets() {
    end_to_end(false);
}

#[test]
fn content_exact_over_app_level_tcp() {
    end_to_end(true);
}

#[test]
fn second_fetch_hits_the_cache() {
    let sim = SimRuntime::new_default();
    let (server_stack, client_stack) = stacks(&sim, false);
    let server = WebServer::new(
        server_stack,
        store_with_files(),
        ServerConfig {
            port: 80,
            cache_bytes: 1024 * 1024,
            ..Default::default()
        },
    );
    let cache = Arc::clone(server.cache());
    sim.spawn(server.run());
    sim.block_on(do_m! {
        let conn <- client_stack.connect(Endpoint::new(HostId(1), 80));
        let conn = conn.expect("connected");
        let first <- http_get(&conn, "/big.bin");
        let _ = first.expect("fetch 1");
        let second <- http_get(&conn, "/big.bin");
        let _ = second.expect("fetch 2");
        sys_nbio(move || ())
    })
    .expect("done");
    assert!(
        cache
            .stats()
            .hits
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1,
        "second fetch must be served from the cache"
    );
}

#[test]
fn malformed_request_gets_400_and_close() {
    let sim = SimRuntime::new_default();
    let (server_stack, client_stack) = stacks(&sim, false);
    let server = WebServer::new(
        server_stack,
        store_with_files(),
        ServerConfig {
            port: 80,
            ..Default::default()
        },
    );
    sim.spawn(server.run());
    let status = sim
        .block_on(do_m! {
            let conn <- client_stack.connect(Endpoint::new(HostId(1), 80));
            let conn = conn.expect("connected");
            let sent <- send_all(&conn, Bytes::from_static(b"NONSENSE\r\n\r\n"));
            let _ = sent.expect("sent");
            let head <- recv_exact(&conn, 12);
            ThreadM::pure(head.expect("status line"))
        })
        .expect("done");
    assert_eq!(&status[..], b"HTTP/1.1 400");
}
