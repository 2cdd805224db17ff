//! Protocol edge cases, each asserted under BOTH socket layers — the
//! simulated kernel-socket fabric and the application-level TCP stack over
//! the simulated packet network:
//!
//! * a `set` whose declared size sits exactly at the value cap (and one
//!   byte over it);
//! * `noreply` split across a receive-chunk boundary;
//! * one pipelined command straddling three separate reads;
//! * `incr` wraparound at `u64::MAX` and `decr` flooring at zero;
//! * an unknown verb (`ERROR`) versus a malformed known one
//!   (`CLIENT_ERROR <reason>`), each closing the session.
//!
//! Plus the client-side cases with no socket under them: hostile `VALUE`
//! lengths and an unterminated line fed straight to the reply parser, and
//! the field forms both directions of the one line grammar must agree on.
//!
//! The wire bytes are shipped in deliberately awkward chunks with virtual
//! sleeps between them, so the server's incremental parser actually sees
//! the split input.

use std::sync::{Arc, Weak};

use bytes::Bytes;
use eveth_core::engine::RuntimeCtx;
use eveth_core::net::{recv_to_end, send_all, Endpoint, HostId, NetStack};
use eveth_core::syscall::sys_sleep;
use eveth_core::time::MILLIS;
use eveth_core::{do_m, for_each_m};
use eveth_kv::client::ReplyFramer;
use eveth_kv::protocol::{CommandParser, ProtoError, ReplyParser};
use eveth_kv::server::{KvConfig, KvServer};
use eveth_kv::store::StoreConfig;
use eveth_simos::net::{LinkParams, SimNet};
use eveth_simos::sockets::SocketFabric;
use eveth_simos::SimRuntime;
use eveth_tcp::host::TcpHost;
use eveth_tcp::segment::Segment;
use eveth_tcp::tcb::TcpConfig;
use eveth_tcp::transport::SegmentTransport;

/// Minimal local copy of the facade's SimNet glue (the `eveth` crate is
/// not visible from here): segments travel as SimNet packets.
struct NetTransport {
    net: Arc<SimNet>,
}

impl SegmentTransport for NetTransport {
    fn send(&self, src: HostId, dst: HostId, seg: Segment) {
        let wire = seg.wire_len();
        self.net.send(src, dst, wire, Box::new(seg));
    }
}

fn tcp_host(ctx: Arc<dyn RuntimeCtx>, net: &Arc<SimNet>, host: HostId) -> Arc<TcpHost> {
    let tcp = TcpHost::start(
        ctx,
        host,
        Arc::new(NetTransport {
            net: Arc::clone(net),
        }),
        TcpConfig::default(),
    );
    let weak: Weak<TcpHost> = Arc::downgrade(&tcp);
    net.register_host(
        host,
        Arc::new(move |src, pkt| {
            if let (Some(host), Ok(seg)) = (weak.upgrade(), pkt.downcast::<Segment>()) {
                host.inject(src, *seg);
            }
        }),
    );
    tcp
}

#[derive(Clone, Copy, Debug)]
enum Stack {
    KernelSockets,
    AppTcp,
}

const STACKS: [Stack; 2] = [Stack::KernelSockets, Stack::AppTcp];

/// Starts a KV server on a fresh simulation over the given stack, ships
/// `chunks` with 5 ms virtual gaps between them (so each arrives as its
/// own read), and returns everything the server replied until it closed.
fn run_session(stack: Stack, max_value_bytes: usize, chunks: &[&[u8]]) -> String {
    let sim = SimRuntime::new_default();
    let (server_stack, client_stack): (Arc<dyn NetStack>, Arc<dyn NetStack>) = match stack {
        Stack::KernelSockets => {
            let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
            (fabric.stack(HostId(1)), fabric.stack(HostId(2)))
        }
        Stack::AppTcp => {
            let net = SimNet::new(sim.clock(), LinkParams::ethernet_100mbps(), 7);
            (
                tcp_host(sim.ctx(), &net, HostId(1)),
                tcp_host(sim.ctx(), &net, HostId(2)),
            )
        }
    };

    let server = KvServer::new(
        server_stack,
        KvConfig {
            port: 11211,
            store: StoreConfig {
                shards: 2,
                max_value_bytes,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    sim.spawn(server.run());

    let chunks: Arc<Vec<Bytes>> =
        Arc::new(chunks.iter().map(|c| Bytes::from(c.to_vec())).collect());
    let reply = sim
        .block_on(do_m! {
            let conn <- client_stack.connect(Endpoint::new(HostId(1), 11211));
            let conn = conn.unwrap();
            let conn2 = Arc::clone(&conn);
            for_each_m(0..chunks.len(), move |i| {
                let conn = Arc::clone(&conn);
                let chunk = chunks[i].clone();
                do_m! {
                    let sent <- send_all(&conn, chunk);
                    let _ = sent.expect("send");
                    sys_sleep(5 * MILLIS)
                }
            });
            recv_to_end(&conn2, 64 * 1024)
        })
        .expect("session completed")
        .expect("recv");
    String::from_utf8(reply.to_vec()).expect("replies are ASCII")
}

#[test]
fn declared_size_exactly_at_value_cap_is_stored() {
    for stack in STACKS {
        let value = vec![b'v'; 64];
        let mut set = b"set k 0 0 64\r\n".to_vec();
        set.extend_from_slice(&value);
        set.extend_from_slice(b"\r\n");
        let reply = run_session(stack, 64, &[&set, b"get k\r\nquit\r\n"]);
        let expect = format!("STORED\r\nVALUE k 0 64\r\n{}\r\nEND\r\n", "v".repeat(64));
        assert_eq!(reply, expect, "{stack:?}");
    }
}

#[test]
fn declared_size_one_over_the_cap_is_rejected_before_buffering() {
    for stack in STACKS {
        // The command line alone declares 65 bytes: the server answers
        // CLIENT_ERROR and closes without ever reading the payload.
        let reply = run_session(stack, 64, &[b"set k 0 0 65\r\n"]);
        assert_eq!(reply, "CLIENT_ERROR value too large\r\n", "{stack:?}");
    }
}

#[test]
fn noreply_split_across_chunk_boundary_suppresses_the_reply() {
    for stack in STACKS {
        // The token "noreply" (and the payload) straddle the boundary:
        // the only reply on the wire must be the get's.
        let reply = run_session(
            stack,
            1024,
            &[b"set k 0 0 3 norep", b"ly\r\nabc\r\n", b"get k\r\nquit\r\n"],
        );
        assert_eq!(reply, "VALUE k 0 3\r\nabc\r\nEND\r\n", "{stack:?}");
    }
}

#[test]
fn pipelined_command_straddles_three_reads() {
    for stack in STACKS {
        // One `set` split across three reads, with the trailing `get`
        // itself split over the last two.
        let reply = run_session(
            stack,
            1024,
            &[b"set kk 0 0 5\r\nhe", b"llo\r\nget k", b"k\r\nquit\r\n"],
        );
        assert_eq!(
            reply, "STORED\r\nVALUE kk 0 5\r\nhello\r\nEND\r\n",
            "{stack:?}"
        );
    }
}

#[test]
fn incr_wraps_at_u64_max_and_decr_floors_at_zero() {
    for stack in STACKS {
        let wire = b"set n 0 0 20\r\n18446744073709551615\r\nincr n 1\r\nset m 0 0 1\r\n3\r\ndecr m 5\r\nquit\r\n";
        let reply = run_session(stack, 1024, &[wire]);
        // memcached semantics: incr wraps modulo 2^64, decr saturates at 0.
        assert_eq!(reply, "STORED\r\n0\r\nSTORED\r\n0\r\n", "{stack:?}");
    }
}

#[test]
fn wrapped_counter_remains_usable() {
    for stack in STACKS {
        // After wrapping to 0, further incrs count up from zero again.
        let wire = b"set n 0 0 20\r\n18446744073709551615\r\nincr n 6\r\nget n\r\nquit\r\n";
        let reply = run_session(stack, 1024, &[wire]);
        assert_eq!(
            reply, "STORED\r\n5\r\nVALUE n 0 1\r\n5\r\nEND\r\n",
            "{stack:?}"
        );
    }
}

#[test]
fn append_prepend_touch_over_the_wire() {
    for stack in STACKS {
        let reply = run_session(
            stack,
            1024,
            &[
                b"set k 5 0 3\r\nmid\r\n",
                b"append k 0 0 4\r\n-end\r\n",
                b"prepend k 9 0 4\r\npre-\r\n",
                b"append missing 0 0 1\r\nx\r\n",
                b"touch k 120\r\n",
                b"touch missing 5\r\n",
                b"get k\r\nquit\r\n",
            ],
        );
        // Concatenation preserves the entry's own flags (5) even though
        // the append/prepend lines carried 0 and 9.
        assert_eq!(
            reply,
            "STORED\r\nSTORED\r\nSTORED\r\nNOT_STORED\r\nTOUCHED\r\nNOT_FOUND\r\n\
             VALUE k 5 11\r\npre-mid-end\r\nEND\r\n",
            "{stack:?}"
        );
    }
}

#[test]
fn append_over_the_value_cap_is_rejected_without_storing() {
    for stack in STACKS {
        let reply = run_session(
            stack,
            8,
            &[
                b"set k 0 0 6\r\nsixsix\r\n",
                b"append k 0 0 4\r\nmore\r\n", // 6 + 4 > 8: rejected
                b"append k 0 0 2\r\nok\r\n",   // 6 + 2 == 8: at the cap
                b"get k\r\nquit\r\n",
            ],
        );
        assert_eq!(
            reply,
            "STORED\r\nCLIENT_ERROR value too large\r\nSTORED\r\n\
             VALUE k 0 8\r\nsixsixok\r\nEND\r\n",
            "{stack:?}"
        );
    }
}

/// The error→reply rule end to end: an unknown verb answers exactly
/// `ERROR`, a malformed line of a known verb `CLIENT_ERROR <reason>`, and
/// either way the replies of the commands before it are flushed and the
/// session closes (`run_session` reads to EOF; the trailing `get` is
/// never answered).
#[test]
fn unknown_verb_answers_error_and_a_malformed_known_verb_client_error() {
    for stack in STACKS {
        let reply = run_session(stack, 64, &[b"bogus\r\n", b"get k\r\n"]);
        assert_eq!(reply, "ERROR\r\n", "{stack:?}");
        let reply = run_session(
            stack,
            64,
            &[b"set k 0 0 1\r\nx\r\nincr k notanumber\r\n", b"get k\r\n"],
        );
        assert_eq!(reply, "STORED\r\nCLIENT_ERROR bad delta\r\n", "{stack:?}");
    }
}

/// A `VALUE` header's length field is the peer's word. Each of these used
/// to reach the `line_end + 2 + len + 2` offset arithmetic unchecked: the
/// first wraps to a slice whose start exceeds its end (a release-build
/// panic), the second overflows outright (a debug-build panic), the third
/// merely asks the client to buffer more than any store will hold.
#[test]
fn hostile_value_lengths_in_a_reply_are_malformed_not_a_panic() {
    for len in ["18446744073709551582", "18446744073709551615", "1048577"] {
        let wire = format!("VALUE k 0 {len}\r\n");
        assert_eq!(
            ReplyParser::new().feed(wire.as_bytes()).unwrap_err(),
            ProtoError::Malformed("VALUE length"),
            "declared length {len}"
        );
    }
    // At the cap exactly the header is fine: the parser waits for the block.
    assert_eq!(
        ReplyParser::new().feed(b"VALUE k 0 1048576\r\n").unwrap(),
        None
    );
}

/// A reply line is bounded like a command line. A backend that never
/// sends a CRLF is refused once it has sent more than 8 KiB, instead of
/// growing the reader's buffer without limit and making every new chunk
/// rescan it from the first byte.
#[test]
fn an_unterminated_reply_line_past_8_kib_is_too_large() {
    let mut p = ReplyParser::new();
    assert_eq!(p.feed(&[b'x'; 8 * 1024]).unwrap(), None, "at the limit");
    assert_eq!(p.feed(b"x").unwrap_err(), ProtoError::TooLarge);
    // What a router session sees: its backend framer fails, and the
    // router writes the backend off.
    let mut f = ReplyFramer::new();
    assert_eq!(
        f.feed(Bytes::from(vec![b'x'; 4 << 20])),
        Err(ProtoError::TooLarge)
    );
}

/// Commands and replies are cut by one grammar, so each field form is
/// accepted by both directions or refused by both: digits only (no `+`),
/// no field the grammar does not name, and a run of spaces counts as one
/// separator.
#[test]
fn commands_and_replies_accept_the_same_field_forms() {
    type Row = (&'static str, &'static [u8], &'static [u8], bool);
    let table: [Row; 4] = [
        (
            "canonical fields",
            b"set k 7 0 2\r\nhi\r\n",
            b"VALUE k 7 2\r\nhi\r\n",
            true,
        ),
        (
            "a + sign",
            b"set k +0 0 2\r\nhi\r\n",
            b"VALUE k +7 +2\r\nhi\r\n",
            false,
        ),
        (
            "a trailing extra field",
            b"set k 0 0 2 junk\r\nhi\r\n",
            b"VALUE k 0 2 9 junk\r\nhi\r\n",
            false,
        ),
        (
            "a doubled space",
            b"set  k 0 0 2\r\nhi\r\n",
            b"VALUE k  0 2\r\nhi\r\n",
            true,
        ),
    ];
    for (form, command, reply, accepted) in table {
        let command = CommandParser::new().feed(command);
        let reply = ReplyParser::new().feed(reply);
        assert_eq!(
            command.is_ok(),
            accepted,
            "a command with {form}: {command:?}"
        );
        assert_eq!(reply.is_ok(), accepted, "a reply with {form}: {reply:?}");
        if accepted {
            assert!(command.unwrap().is_some(), "a command with {form}");
            assert!(reply.unwrap().is_some(), "a reply with {form}");
        }
    }
}
