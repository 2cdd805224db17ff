//! The protocol's canonical bytes, pinned: one line per verb (with and
//! without `noreply` where the verb takes it) and one per reply kind,
//! asserted byte for byte.
//!
//! Everything here goes through bytes — parse, re-encode, compare — and
//! names no `Command` variant and no `VALUE`-carrying `Reply` variant, so
//! the file compiles unchanged whatever shape those enums take: a
//! refactor of the vocabulary is shown not to move a byte a router sends
//! a backend or a server sends a client.

use eveth_kv::protocol::{CommandParser, Reply, ReplyParser, ReplyQueue};

/// Every command in canonical form, in the grammar's order.
const COMMANDS: &[&[u8]] = &[
    b"get alpha\r\n",
    b"get alpha beta gamma\r\n",
    b"gets alpha\r\n",
    b"gets alpha beta\r\n",
    b"set k 7 60 5\r\nhello\r\n",
    b"set k 0 0 2 noreply\r\nhi\r\n",
    b"add k 1 2 1\r\nx\r\n",
    b"add k 1 2 1 noreply\r\nx\r\n",
    b"replace k 4294967295 0 1\r\ny\r\n",
    b"replace k 0 0 0 noreply\r\n\r\n",
    b"append k 0 0 2\r\nab\r\n",
    b"append k 0 0 2 noreply\r\nab\r\n",
    b"prepend k 9 60 2\r\ncd\r\n",
    b"prepend k 0 0 2 noreply\r\ncd\r\n",
    b"cas k 1 0 3 99\r\nxyz\r\n",
    b"cas k 1 0 1 18446744073709551615 noreply\r\nz\r\n",
    b"touch k 120\r\n",
    b"touch k 0 noreply\r\n",
    b"delete k\r\n",
    b"delete k noreply\r\n",
    b"incr n 5\r\n",
    b"incr n 18446744073709551615 noreply\r\n",
    b"decr n 2\r\n",
    b"decr n 0 noreply\r\n",
    b"stats\r\n",
    b"version\r\n",
    b"quit\r\n",
];

/// Every reply the client-side parser reads back in full, in canonical
/// form (`VERSION`/`CLIENT_ERROR`/`SERVER_ERROR` keep only their shape
/// through the parser and are pinned from the encoder side below).
const REPLIES: &[&[u8]] = &[
    b"VALUE k 7 5\r\nhello\r\n",
    b"VALUE k 0 0\r\n\r\n",
    b"VALUE k 2 7 12345\r\npayload\r\n",
    b"END\r\n",
    b"STORED\r\n",
    b"NOT_STORED\r\n",
    b"EXISTS\r\n",
    b"TOUCHED\r\n",
    b"DELETED\r\n",
    b"NOT_FOUND\r\n",
    b"18446744073709551615\r\n",
    b"STAT get_hits 42\r\n",
    b"ERROR\r\n",
];

fn gathered(reply: &Reply) -> Vec<u8> {
    let mut q = ReplyQueue::new();
    reply.encode_gather(&mut q);
    q.finish().iter().flat_map(|s| s.to_vec()).collect()
}

#[test]
fn every_verb_reencodes_to_its_canonical_bytes() {
    for raw in COMMANDS {
        let shown = String::from_utf8_lossy(raw);
        let mut parser = CommandParser::new();
        let cmd = parser
            .feed(raw)
            .unwrap_or_else(|e| panic!("{shown:?}: {e}"))
            .unwrap_or_else(|| panic!("{shown:?}: incomplete"));
        assert_eq!(parser.buffered(), 0, "{shown:?} left bytes behind");
        let mut wire = Vec::new();
        cmd.encode_into(&mut wire);
        assert_eq!(wire.as_slice(), *raw, "encode(parse({shown:?}))");
        assert_eq!(
            cmd.noreply(),
            shown.contains(" noreply\r\n"),
            "{shown:?} noreply"
        );
    }
}

#[test]
fn the_whole_transcript_pipelines_through_one_parser() {
    let stream: Vec<u8> = COMMANDS.concat();
    let mut parser = CommandParser::new();
    let mut wire = Vec::new();
    let mut next = parser.feed(&stream).unwrap();
    let mut n = 0;
    while let Some(cmd) = next {
        cmd.encode_into(&mut wire);
        n += 1;
        next = parser.try_next().unwrap();
    }
    assert_eq!(n, COMMANDS.len());
    assert_eq!(wire, stream);
}

#[test]
fn every_parsed_reply_reencodes_to_its_canonical_bytes() {
    for raw in REPLIES {
        let shown = String::from_utf8_lossy(raw);
        let reply = ReplyParser::new()
            .feed(raw)
            .unwrap_or_else(|e| panic!("{shown:?}: {e}"))
            .unwrap_or_else(|| panic!("{shown:?}: incomplete"));
        let mut flat = Vec::new();
        reply.encode_into(&mut flat);
        assert_eq!(flat.as_slice(), *raw, "encode_into(parse({shown:?}))");
        assert_eq!(gathered(&reply), *raw, "encode_gather(parse({shown:?}))");
        let streamed = raw.starts_with(b"VALUE ") || raw.starts_with(b"STAT ");
        assert_eq!(reply.closes_command(), !streamed, "{shown:?} closes");
    }
}

#[test]
fn text_carrying_replies_encode_their_canonical_bytes() {
    let cases: [(Reply, &[u8]); 3] = [
        (Reply::Version("1.6.0-sim"), b"VERSION 1.6.0-sim\r\n"),
        (
            Reply::ClientError("value too large"),
            b"CLIENT_ERROR value too large\r\n",
        ),
        (
            Reply::ServerError("backend unavailable"),
            b"SERVER_ERROR backend unavailable\r\n",
        ),
    ];
    for (reply, raw) in cases {
        let mut flat = Vec::new();
        reply.encode_into(&mut flat);
        assert_eq!(flat.as_slice(), raw);
        assert_eq!(gathered(&reply), raw);
        // The parser keeps the kind, not the text.
        let back = ReplyParser::new().feed(raw).unwrap().unwrap();
        assert_eq!(
            std::mem::discriminant(&back),
            std::mem::discriminant(&reply)
        );
        assert!(back.closes_command());
    }
}
