//! The socket abstraction network services program against.
//!
//! The paper's web server switches between the standard socket library and
//! the application-level TCP stack "by editing one line of code" (§5.2).
//! [`NetStack`] is that line: servers and clients are written against it,
//! and both the simulated kernel sockets (`eveth-simos`) and the
//! application-level TCP stack (`eveth-tcp`) implement it.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;

use crate::engine::WaitKind;
use crate::event::{
    branch_waiter, choose, never, readiness_evt, sync, timeout_evt, Branch, Event, Registration,
    Signal,
};
use crate::reactor::{AcceptQueue, Fd, Interest, Pollable};
use crate::syscall::{sys_nbio, sys_time};
use crate::telemetry::metrics::Counter;
use crate::thread::{loop_m, Loop, ThreadM};
use crate::time::Nanos;

/// Identifies a host on a (simulated) network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// A (host, port) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Endpoint {
    /// The host.
    pub host: HostId,
    /// The port on that host.
    pub port: u16,
}

impl Endpoint {
    /// Convenience constructor.
    pub fn new(host: HostId, port: u16) -> Self {
        Endpoint { host, port }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.host, self.port)
    }
}

/// Errors reported by socket operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No listener at the remote endpoint.
    ConnectionRefused,
    /// The connection was closed in an orderly fashion.
    Closed,
    /// The connection was reset by the peer.
    Reset,
    /// The operation timed out.
    Timeout,
    /// The local port is already bound.
    AddrInUse,
    /// The destination host cannot be reached.
    Unreachable,
    /// A protocol-level failure, with a description.
    Protocol(Arc<str>),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::ConnectionRefused => f.write_str("connection refused"),
            NetError::Closed => f.write_str("connection closed"),
            NetError::Reset => f.write_str("connection reset"),
            NetError::Timeout => f.write_str("operation timed out"),
            NetError::AddrInUse => f.write_str("address in use"),
            NetError::Unreachable => f.write_str("host unreachable"),
            NetError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

/// A bidirectional byte-stream connection usable from monadic threads.
pub trait Conn: Send + Sync {
    /// Receives up to `max` bytes, blocking (the monadic thread) until data
    /// is available. An empty buffer signals end-of-stream.
    fn recv(&self, max: usize) -> ThreadM<Result<Bytes, NetError>>;

    /// The connection's readiness descriptor — the one thing every wait on
    /// a connection goes through. A server races I/O against timers and
    /// shutdown signals in a single [`choose`]:
    /// `readiness_evt(&fd, Interest::Read)` commits when `recv` would not
    /// block (data, EOF or error), after which `recv` completes promptly;
    /// `Interest::Write` is the send-side twin. Both bundled socket stacks
    /// return `Some`. There is no second way to wait: the composed helpers
    /// ([`session_input`], [`send_all_within`]) answer `None` with a
    /// [`NetError::Protocol`] instead of blocking or forking a helper.
    fn readiness_fd(&self) -> Option<crate::reactor::Fd>;

    /// Sends a prefix of `data`, blocking until at least one byte is
    /// accepted; returns the number of bytes taken. The default is a
    /// one-buffer [`Conn::sendv`].
    fn send(&self, data: Bytes) -> ThreadM<Result<usize, NetError>> {
        self.sendv(vec![data])
    }

    /// Gather-write: sends a prefix of the concatenation of `bufs`,
    /// blocking until at least one byte is accepted; returns the number
    /// of bytes taken (counted across buffers, in order). The vectored
    /// reply path queues each reply as refcounted windows and ships a
    /// whole pipelined batch through one call — no flattening copy.
    /// Returns `Ok(0)` only when every buffer is empty.
    fn sendv(&self, bufs: Vec<Bytes>) -> ThreadM<Result<usize, NetError>>;

    /// Closes the sending direction (further `recv`s by the peer will see
    /// end-of-stream once in-flight data drains).
    fn close(&self) -> ThreadM<()>;

    /// The remote endpoint.
    fn peer(&self) -> Endpoint;

    /// The local endpoint.
    fn local(&self) -> Endpoint;
}

/// A passive socket accepting inbound connections.
pub trait Listener: Send + Sync {
    /// The accept event: commits by dequeuing the next inbound connection
    /// from the backlog (or with [`NetError::Closed`] once the listener is
    /// shut down). Because accepting is an event, an acceptor thread
    /// composes it with a shutdown broadcast — or anything else — in one
    /// [`choose`], with no listener-closing
    /// supervisor thread. A win is charged as I/O wait.
    ///
    /// Implementations over a reactor [`AcceptQueue`] can delegate to
    /// [`queue_accept_evt`].
    fn accept_evt(&self) -> Event<Result<Arc<dyn Conn>, NetError>>;

    /// Waits for and returns the next inbound connection — the thread
    /// view of [`Listener::accept_evt`]: literally
    /// `sync(self.accept_evt())`.
    fn accept(&self) -> ThreadM<Result<Arc<dyn Conn>, NetError>> {
        sync(self.accept_evt())
    }

    /// The bound local endpoint.
    fn local(&self) -> Endpoint;

    /// Stops accepting; queued and future `accept`s fail with
    /// [`NetError::Closed`].
    fn shutdown(&self);
}

/// Builds a [`Listener::accept_evt`] implementation over a reactor
/// [`AcceptQueue`]: the event polls the backlog (pop wins; a closed,
/// drained backlog commits [`NetError::Closed`]) and parks accept waiters
/// with the queue otherwise. Both bundled socket stacks' listeners are
/// this event with `convert` casting their concrete connection type to
/// `Arc<dyn Conn>`.
pub fn queue_accept_evt<T, A>(
    queue: Arc<AcceptQueue<T>>,
    convert: impl Fn(T) -> A + Send + Sync + 'static,
) -> Event<Result<A, NetError>>
where
    T: Send + 'static,
    A: Send + 'static,
{
    Event::from_fn(move |_t0, out| {
        let poll_q = Arc::clone(&queue);
        out.push(Branch::new(
            WaitKind::Io,
            move |_now| {
                // Still-queued connections stay acceptable after close,
                // matching the blocking accept loops this replaces.
                if let Some(c) = poll_q.pop() {
                    return Some(Ok(convert(c)));
                }
                poll_q.is_closed().then_some(Err(NetError::Closed))
            },
            move |u| {
                // Backlog pushes wake *all* registered acceptors, so a
                // loser withdraws its entry and has no wake to pass on.
                let dev = Arc::clone(&queue) as Arc<dyn Pollable>;
                Registration::wait(dev, Interest::Read, branch_waiter(u, WaitKind::Io))
            },
        ));
    })
}

/// A per-host network stack: the "one line" a server changes to swap kernel
/// sockets for the application-level TCP stack.
pub trait NetStack: Send + Sync {
    /// Binds a listener on `port`.
    fn listen(&self, port: u16) -> ThreadM<Result<Arc<dyn Listener>, NetError>>;

    /// Opens a connection to `remote`.
    fn connect(&self, remote: Endpoint) -> ThreadM<Result<Arc<dyn Conn>, NetError>>;

    /// The host this stack belongs to.
    fn host(&self) -> HostId;
}

/// What ended a server session's composed wait: bytes (or stream
/// end/error), the idle deadline, or the shutdown broadcast.
#[derive(Debug)]
pub enum SessionInput {
    /// `recv` completed — a chunk, end-of-stream (empty), or a transport
    /// error.
    Data(Result<Bytes, NetError>),
    /// The connection stayed silent for the whole idle window.
    IdleTimeout,
    /// The server-wide shutdown signal fired.
    Shutdown,
}

/// A server session's single wait point, shared by every bundled service:
/// one [`choose`] over socket readiness, an
/// optional idle deadline (`idle_timeout`, `0` disables it) and a
/// shutdown broadcast — "receive OR time out OR shut down" as one
/// composed event, no helper threads.
///
/// Branch order is the deterministic tie-break and doubles as policy: at
/// equal virtual time, pending bytes beat shutdown beat the idle
/// deadline, so a shutting-down server still drains input that has
/// already arrived. A connection without a readiness descriptor cannot
/// join the `choose` and is answered with a transport error
/// ([`SessionInput::Data`] of `Err`).
pub fn session_input(
    conn: &Arc<dyn Conn>,
    recv_chunk: usize,
    idle_timeout: Nanos,
    shutdown: &Signal,
) -> ThreadM<SessionInput> {
    let Some(fd) = conn.readiness_fd() else {
        return ThreadM::pure(SessionInput::Data(Err(no_readiness_fd())));
    };
    #[derive(Clone, Copy)]
    enum Wake {
        Ready,
        Idle,
        Shutdown,
    }
    let idle = if idle_timeout > 0 {
        timeout_evt(idle_timeout)
    } else {
        never()
    };
    let conn = Arc::clone(conn);
    sync(choose(vec![
        readiness_evt(&fd, Interest::Read).wrap(|()| Wake::Ready),
        shutdown.wait_evt().wrap(|()| Wake::Shutdown),
        idle.wrap(|()| Wake::Idle),
    ]))
    .bind(move |wake| match wake {
        Wake::Ready => conn.recv(recv_chunk).map(SessionInput::Data),
        Wake::Idle => ThreadM::pure(SessionInput::IdleTimeout),
        Wake::Shutdown => ThreadM::pure(SessionInput::Shutdown),
    })
}

/// The error every composed wait answers a connection with when
/// [`Conn::readiness_fd`] is `None`.
fn no_readiness_fd() -> NetError {
    NetError::Protocol("transport exposes no readiness descriptor".into())
}

/// Sends all of `data`, looping over partial [`Conn::send`]s.
pub fn send_all(conn: &Arc<dyn Conn>, data: Bytes) -> ThreadM<Result<(), NetError>> {
    let conn = Arc::clone(conn);
    loop_m(data, move |remaining| {
        if remaining.is_empty() {
            return ThreadM::pure(Loop::Break(Ok(())));
        }
        let rest = remaining.clone();
        conn.send(remaining).map(move |r| match r {
            Ok(n) => {
                let rest = rest.slice(n..);
                if rest.is_empty() {
                    Loop::Break(Ok(()))
                } else {
                    Loop::Continue(rest)
                }
            }
            Err(e) => Loop::Break(Err(e)),
        })
    })
}

/// One closed-loop client (the load generator of paper §5.2): connects to
/// `server`, then runs `step` on the connection, threading its state,
/// until a step returns `None` — the client is through, or the step
/// failed and counted its own failure. The connection is closed on
/// every exit path. A failed connect is counted in `connect_failed`;
/// either way the client ends by counting itself in `done`.
pub fn closed_loop<S, F>(
    stack: &Arc<dyn NetStack>,
    server: Endpoint,
    init: S,
    connect_failed: Counter,
    done: Counter,
    step: F,
) -> ThreadM<()>
where
    S: Send + 'static,
    F: Fn(&Arc<dyn Conn>, S) -> ThreadM<Option<S>> + Send + Sync + 'static,
{
    let client = stack
        .connect(server)
        .bind(move |connected| match connected {
            Err(_) => sys_nbio(move || connect_failed.incr()),
            Ok(conn) => step_until_done(conn, init, Arc::new(step)),
        });
    client.bind(move |()| sys_nbio(move || done.incr()))
}

/// [`closed_loop`]'s loop: one bind per step, like `loop_m`, so a long
/// run stays in constant continuation space.
fn step_until_done<S, F>(conn: Arc<dyn Conn>, state: S, step: Arc<F>) -> ThreadM<()>
where
    S: Send + 'static,
    F: Fn(&Arc<dyn Conn>, S) -> ThreadM<Option<S>> + Send + Sync + 'static,
{
    step(&conn, state).bind(move |next| match next {
        Some(state) => step_until_done(conn, state, step),
        None => conn.close(),
    })
}

/// Drops `n` accepted bytes from the front of the segment list: consumed
/// buffers are removed, a partially consumed head is advanced O(1) (the
/// windows share their regions; nothing is copied).
fn advance_bufs(bufs: &mut Vec<Bytes>, mut n: usize) {
    let mut drop_prefix = 0;
    for b in bufs.iter_mut() {
        if n == 0 && !b.is_empty() {
            break;
        }
        let take = n.min(b.len());
        if take > 0 {
            *b = b.slice(take..);
            n -= take;
        }
        if b.is_empty() {
            drop_prefix += 1;
        } else {
            break;
        }
    }
    bufs.drain(..drop_prefix);
}

/// Sends every byte of every buffer, looping over partial
/// [`Conn::sendv`]s — the vectored [`send_all`]. Buffer windows are
/// advanced in place; no flattening copy is ever made.
pub fn send_all_vectored(
    conn: &Arc<dyn Conn>,
    mut bufs: Vec<Bytes>,
) -> ThreadM<Result<(), NetError>> {
    let conn = Arc::clone(conn);
    bufs.retain(|b| !b.is_empty());
    loop_m(bufs, move |mut remaining| {
        if remaining.is_empty() {
            return ThreadM::pure(Loop::Break(Ok(())));
        }
        let attempt = remaining.clone();
        conn.sendv(attempt).map(move |r| match r {
            Ok(n) => {
                advance_bufs(&mut remaining, n);
                if remaining.is_empty() {
                    Loop::Break(Ok(()))
                } else {
                    Loop::Continue(remaining)
                }
            }
            Err(e) => Loop::Break(Err(e)),
        })
    })
}

/// What ended a [`send_all_within`] composed write: completion (or a
/// transport error), the deadline, or the shutdown broadcast.
#[derive(Debug)]
pub enum SendInput {
    /// The transfer finished: every byte was accepted, or the transport
    /// failed.
    Done(Result<(), NetError>),
    /// The deadline passed with bytes still unsent (a zero-window or
    /// pathologically slow peer).
    Timeout,
    /// The shutdown broadcast fired with bytes still unsent.
    Shutdown,
}

/// What woke one round of a bounded send.
enum SendWake {
    Writable,
    Timeout,
    Shutdown,
}

/// One round's wait of a bounded send: a [`choose`] over write
/// readiness, the shutdown broadcast and what is left of the overall
/// deadline. Branch order mirrors [`session_input`]: at equal virtual
/// time, writability beats shutdown beats the deadline, so
/// already-possible progress is made even while shutting down.
fn send_wait(fd: &Fd, shutdown: &Signal, deadline: Option<Nanos>) -> ThreadM<SendWake> {
    let fd = fd.clone();
    let shutdown = shutdown.clone();
    sys_time().bind(move |now| {
        let deadline_evt = match deadline {
            Some(d) => timeout_evt(d.saturating_sub(now)),
            None => never(),
        };
        sync(choose(vec![
            readiness_evt(&fd, Interest::Write).wrap(|()| SendWake::Writable),
            shutdown.wait_evt().wrap(|()| SendWake::Shutdown),
            deadline_evt.wrap(|()| SendWake::Timeout),
        ]))
    })
}

/// Sends every byte of every buffer like [`send_all_vectored`], but as a
/// composed event wait: each round is one [`choose`] over write
/// readiness, an overall deadline (`timeout` nanoseconds from the start;
/// `0` disables it) and a shutdown broadcast — so a server never commits
/// to a blocking `send` against a zero-window peer that will stall
/// shutdown forever. A single buffer is a one-element `Vec`.
///
/// A connection without a readiness descriptor is answered with a
/// transport error ([`SendInput::Done`] of `Err`).
pub fn send_all_within(
    conn: &Arc<dyn Conn>,
    mut bufs: Vec<Bytes>,
    timeout: Nanos,
    shutdown: &Signal,
) -> ThreadM<SendInput> {
    let Some(fd) = conn.readiness_fd() else {
        return ThreadM::pure(SendInput::Done(Err(no_readiness_fd())));
    };
    let conn = Arc::clone(conn);
    let shutdown = shutdown.clone();
    bufs.retain(|b| !b.is_empty());
    sys_time().bind(move |t0| {
        let deadline = (timeout > 0).then(|| t0.saturating_add(timeout));
        loop_m(bufs, move |mut remaining| {
            if remaining.is_empty() {
                return ThreadM::pure(Loop::Break(SendInput::Done(Ok(()))));
            }
            let conn = Arc::clone(&conn);
            send_wait(&fd, &shutdown, deadline).bind(move |wake| match wake {
                SendWake::Timeout => ThreadM::pure(Loop::Break(SendInput::Timeout)),
                SendWake::Shutdown => ThreadM::pure(Loop::Break(SendInput::Shutdown)),
                SendWake::Writable => {
                    let attempt = remaining.clone();
                    conn.sendv(attempt).map(move |r| match r {
                        Ok(n) => {
                            advance_bufs(&mut remaining, n);
                            if remaining.is_empty() {
                                Loop::Break(SendInput::Done(Ok(())))
                            } else {
                                Loop::Continue(remaining)
                            }
                        }
                        Err(e) => Loop::Break(SendInput::Done(Err(e))),
                    })
                }
            })
        })
    })
}

/// Receives exactly `n` bytes; fails with [`NetError::Closed`] if the stream
/// ends early.
pub fn recv_exact(conn: &Arc<dyn Conn>, n: usize) -> ThreadM<Result<Bytes, NetError>> {
    let conn = Arc::clone(conn);
    loop_m(Vec::with_capacity(n), move |mut acc| {
        if acc.len() == n {
            return ThreadM::pure(Loop::Break(Ok(Bytes::from(acc))));
        }
        let want = n - acc.len();
        conn.recv(want).map(move |r| match r {
            Ok(chunk) if chunk.is_empty() => Loop::Break(Err(NetError::Closed)),
            Ok(chunk) => {
                acc.extend_from_slice(&chunk);
                if acc.len() == n {
                    Loop::Break(Ok(Bytes::from(acc)))
                } else {
                    Loop::Continue(acc)
                }
            }
            Err(e) => Loop::Break(Err(e)),
        })
    })
}

/// Receives until end-of-stream, up to `limit` bytes.
pub fn recv_to_end(conn: &Arc<dyn Conn>, limit: usize) -> ThreadM<Result<Bytes, NetError>> {
    let conn = Arc::clone(conn);
    loop_m(Vec::new(), move |mut acc| {
        if acc.len() >= limit {
            return ThreadM::pure(Loop::Break(Ok(Bytes::from(acc))));
        }
        let want = (limit - acc.len()).min(64 * 1024);
        conn.recv(want).map(move |r| match r {
            Ok(chunk) if chunk.is_empty() => Loop::Break(Ok(Bytes::from(acc))),
            Ok(chunk) => {
                acc.extend_from_slice(&chunk);
                Loop::Continue(acc)
            }
            Err(NetError::Closed) => Loop::Break(Ok(Bytes::from(acc))),
            Err(e) => Loop::Break(Err(e)),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_display() {
        let e = Endpoint::new(HostId(3), 80);
        assert_eq!(e.to_string(), "host3:80");
    }

    #[test]
    fn net_error_display() {
        assert_eq!(NetError::Closed.to_string(), "connection closed");
        assert_eq!(
            NetError::Protocol("bad segment".into()).to_string(),
            "protocol error: bad segment"
        );
    }

    #[test]
    fn advance_bufs_drops_consumed_windows() {
        let mut bufs = vec![
            Bytes::from_static(b"abc"),
            Bytes::from_static(b""),
            Bytes::from_static(b"defgh"),
            Bytes::from_static(b"ij"),
        ];
        advance_bufs(&mut bufs, 5);
        assert_eq!(bufs.len(), 2);
        assert_eq!(&bufs[0][..], b"fgh");
        assert_eq!(&bufs[1][..], b"ij");
        advance_bufs(&mut bufs, 0);
        assert_eq!(bufs.len(), 2);
        advance_bufs(&mut bufs, 5);
        assert!(bufs.is_empty());
    }

    #[test]
    fn endpoint_ordering_is_total() {
        let a = Endpoint::new(HostId(1), 2);
        let b = Endpoint::new(HostId(1), 3);
        let c = Endpoint::new(HostId(2), 0);
        assert!(a < b && b < c);
    }
}
