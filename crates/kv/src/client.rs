//! The reusable KV wire client: connect, ship pipelined command bytes,
//! read replies until the batch is answered.
//!
//! Extracted from the load generator so every consumer of the memcached
//! wire protocol — the loadgen, the cluster router, examples — shares
//! one client instead of each re-implementing the read loop. Replies are
//! grouped into commands in one place, [`ReplyFramer`]: a fold over the
//! frames the [`ReplyParser`] cuts, which closes a command at each reply
//! that [`Reply::closes_command`] and hands it out as a [`Framed`] — the
//! reply that closed it, its `VALUE` count and its raw frames.
//! [`read_pipelined`] reports every command a chunk closes before the
//! next recv and attributes each the virtual time between the batch send
//! and the chunk that answered it. Consumers observe the stream through a
//! [`ReadEvent`] callback (counters, latency histograms) while transport
//! and protocol failures come back as typed [`KvClientError`]s.
//!
//! A consumer that must *forward* response bytes verbatim rather than
//! interpret them — the cluster router — sends on the frames the parser
//! handed out: zero-copy windows of the received chunks, or of the
//! parser's staging buffer where a reply straddled two chunks.

use std::collections::VecDeque;
use std::fmt;
use std::mem;
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
/// these into their own accounting (the loadgen's counters, a scripted
/// client's reply list) without owning the read loop.
#[derive(Debug)]
pub enum ReadEvent<'a> {
    /// A chunk of this many bytes arrived from the socket.
    Chunk(usize),
    /// One command answered in full.
    Command {
        /// Its response.
        framed: &'a Framed,
        /// Virtual time between the batch send and the chunk that
        /// closed this command.
        lat: Nanos,
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
/// Every command a chunk closes is reported before the next recv, and
/// latency is attributed per *chunk arrival* (`sys_time` once per chunk,
/// not per reply). The observer must be `Clone` because the loop
/// re-enters it each iteration; closures over refcounted stats handles
/// clone for free.
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
        (ReplyFramer::new(), 0usize, init),
        move |(mut framer, mut answered, mut st)| {
            if answered >= expected {
                return ThreadM::pure(Loop::Break(Ok(st)));
            }
            let observe = observe.clone();
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
                    framer.parser.push(chunk);
                    let lat = now.saturating_sub(sent_at);
                    loop {
                        match framer.next_command() {
                            Err(e) => {
                                observe(&mut st, ReadEvent::ProtocolError);
                                return ThreadM::pure(Loop::Break(Err(KvClientError::Protocol(e))));
                            }
                            Ok(None) => {
                                return ThreadM::pure(Loop::Continue((framer, answered, st)));
                            }
                            Ok(Some(framed)) => {
                                observe(
                                    &mut st,
                                    ReadEvent::Command {
                                        framed: &framed,
                                        lat,
                                    },
                                );
                                answered += 1;
                            }
                        }
                    }
                }),
            })
        },
    )
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

    /// One full exchange: timestamp, send, read the responses to
    /// `expected` commands, collecting them. The convenience entry point
    /// for scripted clients; the loadgen sends and calls
    /// [`read_pipelined`] itself to own its accounting.
    pub fn request(
        &self,
        wire: Bytes,
        expected: usize,
    ) -> ThreadM<Result<Vec<Framed>, KvClientError>> {
        let this = self.clone();
        sys_time().bind(move |t_send| {
            this.send(wire).bind(move |sent| match sent {
                Err(e) => ThreadM::pure(Err(KvClientError::Transport(e))),
                Ok(()) => this.read_pipelined(
                    expected,
                    t_send,
                    Vec::with_capacity(expected),
                    |acc: &mut Vec<Framed>, ev| {
                        if let ReadEvent::Command { framed, .. } = ev {
                            acc.push(framed.clone());
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
#[derive(Debug, Clone)]
pub struct Framed {
    /// The raw frame of each reply in the response, in order, exactly as
    /// the [`ReplyParser`] cut it — forwardable verbatim.
    pub bytes: Vec<Bytes>,
    /// The reply that closed the command (`END`, `STORED`, …); its frame
    /// is the last of `bytes`.
    pub closing: Reply,
    /// `VALUE` lines inside this response — zero means a clean miss for
    /// a `get`.
    pub values: usize,
    /// The first parsed `VALUE`/`VALUE …cas` reply, kept so a consumer
    /// can act on the payload (the router's read-repair re-`set`s it)
    /// without reparsing the raw bytes.
    pub first_value: Option<Reply>,
}

/// Groups a raw response stream into commands: a fold over the frames
/// the [`ReplyParser`] cuts, closing a command at each reply that
/// [`Reply::closes_command`]. The frames are kept as cut, so the bytes a
/// consumer forwards are exactly the bytes the backend sent (including
/// reply text the parsed [`Reply`] does not retain, like
/// `VERSION`/`CLIENT_ERROR`).
#[derive(Debug, Default)]
pub struct ReplyFramer {
    parser: ReplyParser,
    /// The open command: its frames so far, its `VALUE` count and its
    /// first `VALUE`.
    frames: Vec<Bytes>,
    values: usize,
    first_value: Option<Reply>,
    ready: VecDeque<Framed>,
}

impl ReplyFramer {
    /// An empty framer.
    pub fn new() -> ReplyFramer {
        ReplyFramer::default()
    }

    /// Feeds one received chunk; returns how many commands it closed,
    /// now waiting in [`ReplyFramer::pop`] order.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] if the stream is not a valid reply sequence.
    pub fn feed(&mut self, chunk: Bytes) -> Result<usize, ProtoError> {
        self.parser.push(chunk);
        let before = self.ready.len();
        while let Some(framed) = self.next_command()? {
            self.ready.push_back(framed);
        }
        Ok(self.ready.len() - before)
    }

    /// Pops the next completed command's response.
    pub fn pop(&mut self) -> Option<Framed> {
        self.ready.pop_front()
    }

    /// Folds buffered frames into the open command until a reply closes
    /// it.
    fn next_command(&mut self) -> Result<Option<Framed>, ProtoError> {
        while let Some((reply, frame)) = self.parser.next_frame()? {
            self.frames.push(frame);
            if reply.closes_command() {
                return Ok(Some(Framed {
                    bytes: mem::take(&mut self.frames),
                    closing: reply,
                    values: mem::take(&mut self.values),
                    first_value: self.first_value.take(),
                }));
            }
            if matches!(reply, Reply::Value { .. }) {
                self.values += 1;
                self.first_value.get_or_insert(reply);
            }
        }
        Ok(None)
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
