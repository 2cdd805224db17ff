//! The reusable KV wire client: connect, ship pipelined command bytes,
//! read replies until the batch is answered.
//!
//! Extracted from the load generator so every consumer of the memcached
//! wire protocol — the loadgen, the cluster router, examples — shares
//! one client instead of each re-implementing the read loop. The shape
//! is the loadgen's original: one [`ReplyParser`] per batch, drain
//! buffered replies before touching the socket, attribute each closed
//! command the virtual time between the batch send and the chunk that
//! answered it. Consumers observe the stream through a [`ReadEvent`]
//! callback (counters, latency histograms) while transport and protocol
//! failures come back as typed [`KvClientError`]s.
//!
//! For consumers that must *forward* response bytes verbatim rather than
//! interpret them — the cluster router — [`ReplyFramer`] splits a raw
//! response stream into per-command byte runs (zero-copy windows of the
//! received chunks) using the same parser for framing only.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use eveth_core::net::{send_all, Conn, Endpoint, NetError, NetStack};
use eveth_core::syscall::sys_time;
use eveth_core::time::Nanos;
use eveth_core::{loop_m, Loop, ThreadM};

use crate::protocol::{ProtoError, Reply, ReplyParser};

/// Why a pipelined exchange failed.
#[derive(Debug, Clone, PartialEq)]
pub enum KvClientError {
    /// The transport failed (connect, send, recv, or premature EOF).
    Transport(NetError),
    /// The server sent bytes the reply parser rejected.
    Protocol(ProtoError),
}

impl fmt::Display for KvClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvClientError::Transport(e) => write!(f, "transport error: {e}"),
            KvClientError::Protocol(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for KvClientError {}

/// One observable event while reading a batch's replies; consumers fold
/// these into their own accounting (the loadgen's counters, the router's
/// stats) without owning the read loop.
#[derive(Debug)]
pub enum ReadEvent<'a> {
    /// A chunk of this many bytes arrived from the socket.
    Chunk(usize),
    /// One parsed reply.
    Reply {
        /// The reply itself.
        reply: &'a Reply,
        /// Virtual time between the batch send and the chunk that
        /// carried this reply.
        lat: Nanos,
        /// True when this reply completes a command
        /// ([`Reply::closes_command`]); exactly the replies that advance
        /// the answered count.
        closes: bool,
    },
    /// The transport failed or the server closed mid-batch; the read
    /// returns [`KvClientError::Transport`] right after.
    TransportError,
    /// The response bytes were malformed; the read returns
    /// [`KvClientError::Protocol`] right after.
    ProtocolError,
}

/// Reads from `conn` until `expected` commands are fully answered,
/// folding every event into `observe` (threaded through the loop as
/// `state`). Returns the final state, or the first failure.
///
/// This is the loadgen's original read loop, verbatim: buffered replies
/// drain before each recv, and latency is attributed per *chunk arrival*
/// (`sys_time` once per chunk, not per reply). The observer must be
/// `Clone` because the loop re-enters it each iteration; closures over
/// refcounted stats handles clone for free.
pub fn read_pipelined<S, F>(
    conn: Arc<dyn Conn>,
    expected: usize,
    sent_at: Nanos,
    init: S,
    observe: F,
) -> ThreadM<Result<S, KvClientError>>
where
    S: Send + 'static,
    F: Fn(&mut S, ReadEvent<'_>) + Clone + Send + Sync + 'static,
{
    loop_m(
        (ReplyParser::new(), 0usize, init, sent_at),
        move |(mut parser, mut answered, mut st, arrived_at)| {
            let observe = observe.clone();
            let conn = Arc::clone(&conn);
            // Drain everything already buffered before touching the
            // socket; these replies came in with the previous chunk.
            let lat = arrived_at.saturating_sub(sent_at);
            loop {
                match parser.try_next() {
                    Err(e) => {
                        observe(&mut st, ReadEvent::ProtocolError);
                        return ThreadM::pure(Loop::Break(Err(KvClientError::Protocol(e))));
                    }
                    Ok(None) => break,
                    Ok(Some(reply)) => answered += note(&observe, &mut st, &reply, lat),
                }
            }
            if answered >= expected {
                return ThreadM::pure(Loop::Break(Ok(st)));
            }
            conn.recv(64 * 1024).bind(move |chunk| match chunk {
                Err(e) => {
                    observe(&mut st, ReadEvent::TransportError);
                    ThreadM::pure(Loop::Break(Err(KvClientError::Transport(e))))
                }
                Ok(chunk) if chunk.is_empty() => {
                    observe(&mut st, ReadEvent::TransportError);
                    ThreadM::pure(Loop::Break(Err(KvClientError::Transport(NetError::Closed))))
                }
                Ok(chunk) => sys_time().bind(move |now| {
                    observe(&mut st, ReadEvent::Chunk(chunk.len()));
                    match parser.feed_bytes(chunk) {
                        Err(e) => {
                            observe(&mut st, ReadEvent::ProtocolError);
                            ThreadM::pure(Loop::Break(Err(KvClientError::Protocol(e))))
                        }
                        Ok(first) => {
                            if let Some(reply) = first {
                                let lat = now.saturating_sub(sent_at);
                                answered += note(&observe, &mut st, &reply, lat);
                            }
                            ThreadM::pure(Loop::Continue((parser, answered, st, now)))
                        }
                    }
                }),
            })
        },
    )
}

/// Reports one parsed reply to the observer; returns how many commands it
/// answered (1 if it closes its command, else 0).
fn note<S>(
    observe: &impl Fn(&mut S, ReadEvent<'_>),
    st: &mut S,
    reply: &Reply,
    lat: Nanos,
) -> usize {
    let closes = reply.closes_command();
    observe(st, ReadEvent::Reply { reply, lat, closes });
    usize::from(closes)
}

/// A connected KV wire client over any [`Conn`]. Cloning is cheap
/// (refcount bump) and shares the connection.
#[derive(Clone)]
pub struct KvClient {
    conn: Arc<dyn Conn>,
}

impl KvClient {
    /// Connects to `server` over `stack`.
    pub fn connect(
        stack: Arc<dyn NetStack>,
        server: Endpoint,
    ) -> ThreadM<Result<KvClient, NetError>> {
        stack
            .connect(server)
            .map(|connected| connected.map(KvClient::from_conn))
    }

    /// Wraps an already-established connection.
    pub fn from_conn(conn: Arc<dyn Conn>) -> KvClient {
        KvClient { conn }
    }

    /// The underlying connection.
    pub fn conn(&self) -> &Arc<dyn Conn> {
        &self.conn
    }

    /// Ships one batch of pre-encoded command bytes.
    pub fn send(&self, wire: Bytes) -> ThreadM<Result<(), NetError>> {
        send_all(&self.conn, wire)
    }

    /// Reads until `expected` commands are answered — see
    /// [`read_pipelined`].
    pub fn read_pipelined<S, F>(
        &self,
        expected: usize,
        sent_at: Nanos,
        init: S,
        observe: F,
    ) -> ThreadM<Result<S, KvClientError>>
    where
        S: Send + 'static,
        F: Fn(&mut S, ReadEvent<'_>) + Clone + Send + Sync + 'static,
    {
        read_pipelined(Arc::clone(&self.conn), expected, sent_at, init, observe)
    }

    /// One full exchange: timestamp, send, read `expected` replies,
    /// collecting them. The convenience entry point for scripted
    /// clients; the loadgen drives [`KvClient::send`] and
    /// [`KvClient::read_pipelined`] separately to own its accounting.
    pub fn request(
        &self,
        wire: Bytes,
        expected: usize,
    ) -> ThreadM<Result<Vec<Reply>, KvClientError>> {
        let this = self.clone();
        sys_time().bind(move |t_send| {
            this.send(wire).bind(move |sent| match sent {
                Err(e) => ThreadM::pure(Err(KvClientError::Transport(e))),
                Ok(()) => this.read_pipelined(
                    expected,
                    t_send,
                    Vec::with_capacity(expected),
                    |acc: &mut Vec<Reply>, ev| {
                        if let ReadEvent::Reply { reply, .. } = ev {
                            acc.push(reply.clone());
                        }
                    },
                ),
            })
        })
    }

    /// Closes the connection.
    pub fn close(&self) -> ThreadM<()> {
        self.conn.close()
    }
}

impl fmt::Debug for KvClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KvClient(peer={})", self.conn.peer())
    }
}

/// One command's complete response, framed out of the raw stream.
#[derive(Debug)]
pub struct Framed {
    /// The exact response bytes, as zero-copy windows of the received
    /// chunks — forwardable verbatim.
    pub bytes: Vec<Bytes>,
    /// The reply that closed the command (`END`, `STORED`, …).
    pub closing: Reply,
    /// `VALUE` lines inside this response — zero means a clean miss for
    /// a single-key `get`.
    pub values: usize,
    /// The first parsed `VALUE`/`VALUE …cas` reply, kept so a consumer
    /// can act on the payload (the router's read-repair re-`set`s it)
    /// without reparsing the raw bytes.
    pub first_value: Option<Reply>,
}

/// Splits a raw response stream into per-command byte runs without
/// interpreting them: the parser is used for *framing only*, so the
/// bytes forwarded downstream are exactly the bytes the backend sent
/// (including reply payloads the parsed [`Reply`] does not retain, like
/// `VERSION`/`CLIENT_ERROR` text).
#[derive(Debug, Default)]
pub struct ReplyFramer {
    parser: ReplyParser,
    /// Received chunks not yet fully claimed into framed commands.
    chunks: VecDeque<Bytes>,
    /// Bytes of `chunks.front()` already claimed.
    head_consumed: usize,
    /// Total bytes fed / claimed; `fed - parser.buffered()` is the
    /// stream offset just past the last fully parsed reply.
    fed: usize,
    claimed: usize,
    /// `VALUE` lines seen since the last command boundary.
    values_open: usize,
    first_value_open: Option<Reply>,
    ready: VecDeque<Framed>,
}

impl ReplyFramer {
    /// An empty framer.
    pub fn new() -> ReplyFramer {
        ReplyFramer::default()
    }

    /// Completed commands waiting in [`ReplyFramer::pop`] order.
    pub fn ready(&self) -> usize {
        self.ready.len()
    }

    /// Feeds one received chunk; returns how many commands completed.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] if the stream is not a valid reply sequence.
    pub fn feed(&mut self, chunk: Bytes) -> Result<usize, ProtoError> {
        self.fed += chunk.len();
        self.chunks.push_back(chunk.clone());
        let mut completed = 0;
        let mut next = self.parser.feed_bytes(chunk)?;
        while let Some(reply) = next {
            if reply.closes_command() {
                let boundary = self.fed - self.parser.buffered();
                let bytes = self.claim(boundary);
                self.ready.push_back(Framed {
                    bytes,
                    closing: reply,
                    values: self.values_open,
                    first_value: self.first_value_open.take(),
                });
                self.values_open = 0;
                completed += 1;
            } else if matches!(reply, Reply::Value { .. }) {
                if self.values_open == 0 {
                    self.first_value_open = Some(reply);
                }
                self.values_open += 1;
            }
            next = self.parser.try_next()?;
        }
        Ok(completed)
    }

    /// Pops the next completed command's response.
    pub fn pop(&mut self) -> Option<Framed> {
        self.ready.pop_front()
    }

    /// Claims stream bytes `[claimed, upto)` as zero-copy windows.
    fn claim(&mut self, upto: usize) -> Vec<Bytes> {
        let mut need = upto - self.claimed;
        let mut segs = Vec::new();
        while need > 0 {
            let front = self.chunks.front().expect("claimed past fed bytes");
            let avail = front.len() - self.head_consumed;
            let take = avail.min(need);
            segs.push(front.slice(self.head_consumed..self.head_consumed + take));
            self.head_consumed += take;
            need -= take;
            if self.head_consumed == front.len() {
                self.chunks.pop_front();
                self.head_consumed = 0;
            }
        }
        self.claimed = upto;
        segs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(segs: &[Bytes]) -> Vec<u8> {
        segs.iter().flat_map(|s| s.iter().copied()).collect()
    }

    #[test]
    fn framer_splits_commands_and_preserves_bytes() {
        let wire = b"VALUE k 0 5\r\nhello\r\nEND\r\nSTORED\r\nEND\r\n";
        let mut f = ReplyFramer::new();
        // Feed in awkward splits to exercise chunk-straddling claims.
        let (a, b) = wire.split_at(17);
        assert_eq!(f.feed(Bytes::from(a.to_vec())).unwrap(), 0);
        assert_eq!(f.feed(Bytes::from(b.to_vec())).unwrap(), 3);
        let first = f.pop().unwrap();
        assert_eq!(flat(&first.bytes), b"VALUE k 0 5\r\nhello\r\nEND\r\n");
        assert_eq!(first.closing, Reply::End);
        assert_eq!(first.values, 1);
        match first.first_value {
            Some(Reply::Value { ref data, .. }) => assert_eq!(&data[..], b"hello"),
            other => panic!("expected the parsed VALUE, got {other:?}"),
        }
        let second = f.pop().unwrap();
        assert_eq!(flat(&second.bytes), b"STORED\r\n");
        assert_eq!(second.closing, Reply::Stored);
        let third = f.pop().unwrap();
        assert_eq!(flat(&third.bytes), b"END\r\n");
        assert_eq!(third.values, 0, "a miss has no VALUE lines");
        assert!(f.pop().is_none());
    }

    #[test]
    fn framer_forwards_payloads_the_parser_drops() {
        // VERSION/CLIENT_ERROR text is collapsed by ReplyParser but must
        // survive verbatim through the framer.
        let wire = b"VERSION 1.6.0-sim\r\nCLIENT_ERROR bad delta\r\n";
        let mut f = ReplyFramer::new();
        // Both lines are complete single-line responses, so each closes
        // its own frame — a `version` forwarded by the router frames
        // exactly one reply instead of waiting for a terminator.
        assert_eq!(f.feed(Bytes::from(wire.to_vec())).unwrap(), 2);
        let version = f.pop().unwrap();
        assert_eq!(flat(&version.bytes), b"VERSION 1.6.0-sim\r\n");
        assert_eq!(version.closing, Reply::Version(""));
        let err = f.pop().unwrap();
        assert_eq!(flat(&err.bytes), b"CLIENT_ERROR bad delta\r\n");
        assert_eq!(err.closing, Reply::ClientError(""));
    }

    #[test]
    fn framer_windows_alias_the_chunks() {
        let chunk = Bytes::from(b"STORED\r\n".to_vec());
        let ptr = chunk.as_ref().as_ptr();
        let mut f = ReplyFramer::new();
        f.feed(chunk).unwrap();
        let framed = f.pop().unwrap();
        assert!(std::ptr::eq(framed.bytes[0].as_ref().as_ptr(), ptr));
    }

    #[test]
    fn framer_rejects_garbage() {
        let mut f = ReplyFramer::new();
        assert!(f.feed(Bytes::from_static(b"WHAT\r\n")).is_err());
    }

    #[test]
    fn framer_rejects_a_wrapping_value_length_instead_of_panicking() {
        // What a router session sees from a hostile (or corrupted)
        // backend: the declared length wraps the frame-size arithmetic.
        let mut f = ReplyFramer::new();
        assert_eq!(
            f.feed(Bytes::from_static(b"VALUE k 0 18446744073709551582\r\n")),
            Err(ProtoError::Malformed("VALUE length"))
        );
    }
}
