//! The event-native service framework: a [`Service`] trait plus a generic
//! [`Server<S>`] that owns every piece of connection lifecycle the event
//! layer already knows how to express.
//!
//! The paper's central claim is that one set of application-level
//! concurrency primitives can express a whole network service — yet each
//! service used to hand-roll the same ~100 lines of plumbing: an accept
//! loop, a per-session wait, an idle-timeout/shutdown `choose`, and a
//! listener-closing supervisor thread. Concurrent ML's lesson (Reppy;
//! Chaudhuri) is that synchronization *protocols* — accept, serve, drain —
//! belong in first-class events owned by the framework, not in per-server
//! boilerplate. So:
//!
//! * the **acceptor** is one `choose` over
//!   [`Listener::accept_evt`] and the
//!   shutdown broadcast — no supervisor thread closes the listener; the
//!   losing branch simply is the shutdown;
//! * each **session** waits on
//!   [`session_input`] — one `choose` over
//!   socket readiness, the idle deadline and the same broadcast;
//! * the server tracks connection counts and exposes a **graceful drain**
//!   signal that fires once shutdown has been requested and the last
//!   session has ended.
//!
//! A service supplies only what is actually service-specific: per-session
//! state (typically a protocol parser), a chunk handler that parses /
//! executes / replies, and an optional exception-recovery hook. Both
//! bundled services (`eveth-kv`'s `KvServer`,
//! `eveth-http`'s `WebServer`) are thin [`Service`] implementations over
//! this module.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use bytes::Bytes;
//! use eveth_core::net::{send_all, Conn};
//! use eveth_core::service::{Server, ServerConfig, Service, Step};
//! use eveth_core::ThreadM;
//!
//! /// An echo service: per-session state is nothing, every chunk is sent
//! /// straight back.
//! struct Echo;
//!
//! impl Service for Echo {
//!     type Session = ();
//!     fn open(&self, _conn: &Arc<dyn Conn>) {}
//!     fn on_chunk(
//!         &self,
//!         conn: Arc<dyn Conn>,
//!         _session: (),
//!         chunk: Bytes,
//!     ) -> ThreadM<Step<()>> {
//!         send_all(&conn, chunk).map(|sent| match sent {
//!             Ok(()) => Step::Continue(()),
//!             Err(_) => Step::Close,
//!         })
//!     }
//! }
//! # let _ = |stack: Arc<dyn eveth_core::net::NetStack>| {
//! let server = Server::new(stack, Echo, ServerConfig { port: 7, ..Default::default() });
//! let run = server.run(); // spawn on a runtime
//! # let _ = run; };
//! ```

use std::fmt;
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::do_m;
use crate::event::{choose, sync, Signal};
use crate::exception::Exception;
use crate::net::{
    send_all, send_all_vectored, send_all_within, session_input, Conn, Listener, NetError,
    NetStack, SendInput, SessionInput,
};
use crate::syscall::{span, sys_catch, sys_fork, sys_nbio, sys_throw};
use crate::telemetry::metrics::{Counter, Gauge};
use crate::telemetry::Telemetry;
use crate::thread::{loop_m, Loop, ThreadM};
use crate::time::Nanos;

/// What a [`Service::on_chunk`] handler decides about the session.
#[derive(Debug)]
pub enum Step<S> {
    /// Keep the session alive with this state for the next chunk.
    Continue(S),
    /// End the session; the server closes the connection.
    Close,
}

/// A network service, expressed as pure protocol logic over the framework's
/// lifecycle: the server owns listening, accepting, the per-session
/// readiness/idle/shutdown `choose`, connection tracking and draining; the
/// service owns parsing and replying. The lifecycle is counted once, in
/// the server's [`ServerStats`]; a service counts only its protocol.
pub trait Service: Send + Sync + 'static {
    /// Per-connection state, created by [`Service::open`] — typically an
    /// incremental protocol parser.
    type Session: Send + 'static;

    /// Called once per accepted connection; returns the fresh session
    /// state.
    fn open(&self, conn: &Arc<dyn Conn>) -> Self::Session;

    /// Handles one received chunk: parse, execute every complete request
    /// already buffered (pipelining), send replies, and decide whether the
    /// session continues. Runs as straight-line monadic code on the
    /// session's thread.
    fn on_chunk(
        &self,
        conn: Arc<dyn Conn>,
        session: Self::Session,
        chunk: Bytes,
    ) -> ThreadM<Step<Self::Session>>;

    /// Recovery hook: the session thread threw. The default closes the
    /// connection; services may first attempt a protocol-level error
    /// reply (the web server sends a 500). The server counts the error
    /// either way.
    fn on_exception(&self, conn: Arc<dyn Conn>, error: &Exception) -> ThreadM<()> {
        let _ = error;
        conn.close()
    }

    /// Wiring hook, called once from [`Server::new`]: hands the service
    /// the server's [`ReplyHandle`] to keep for its reply paths. The
    /// default keeps nothing (a service that replies with plain
    /// [`send_all`] ignores [`ServerConfig::send_timeout`]).
    fn attach_lifecycle(&self, replies: &ReplyHandle) {
        let _ = replies;
    }
}

/// The framework-owned reply path of one [`Server`]: every reply a
/// service sends through it obeys the server's lifecycle, so no service
/// re-implements that policy. With [`ServerConfig::send_timeout`] set, a
/// send races the transfer against the deadline and the shutdown
/// broadcast — a transfer that cannot complete in time (a zero-window
/// peer) counts one [`ServerStats::send_timeouts`] and fails with
/// [`NetError::Timeout`], one that straddles shutdown fails with
/// [`NetError::Closed`], and either way the service closes the session
/// instead of wedging its thread. With `send_timeout == 0` it is the plain
/// unbounded send.
#[derive(Debug, Clone)]
pub struct ReplyHandle {
    shutdown: Signal,
    send_timeout: Nanos,
    stats: Arc<ServerStats>,
}

impl ReplyHandle {
    /// Sends all of `data` (see the type docs for the policy).
    pub fn send(&self, conn: &Arc<dyn Conn>, data: Bytes) -> ThreadM<Result<(), NetError>> {
        if self.send_timeout == 0 {
            return send_all(conn, data);
        }
        let bounded = send_all_within(conn, vec![data], self.send_timeout, &self.shutdown);
        self.settle(bounded)
    }

    /// Sends every buffer as one gather-write — the vectored
    /// [`ReplyHandle::send`].
    pub fn send_vectored(
        &self,
        conn: &Arc<dyn Conn>,
        bufs: Vec<Bytes>,
    ) -> ThreadM<Result<(), NetError>> {
        if self.send_timeout == 0 {
            return send_all_vectored(conn, bufs);
        }
        let bounded = send_all_within(conn, bufs, self.send_timeout, &self.shutdown);
        self.settle(bounded)
    }

    /// The hosting server's lifecycle counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// Folds a bounded send's outcome into the transport result services
    /// act on.
    fn settle(&self, bounded: ThreadM<SendInput>) -> ThreadM<Result<(), NetError>> {
        let stats = Arc::clone(&self.stats);
        bounded.map(move |out| match out {
            SendInput::Done(r) => r,
            SendInput::Timeout => {
                stats.send_timeouts.incr();
                Err(NetError::Timeout)
            }
            SendInput::Shutdown => Err(NetError::Closed),
        })
    }
}

/// Lifecycle tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listening port.
    pub port: u16,
    /// Socket receive granularity.
    pub recv_chunk: usize,
    /// Reap a connection that stays silent this long between chunks
    /// (virtual nanoseconds); `0` disables idle reaping. A `timeout_evt`
    /// branch of the per-session `choose` — no helper thread, no polling.
    pub idle_timeout: Nanos,
    /// Abandon a reply send that cannot complete within this long
    /// (virtual nanoseconds); `0` keeps plain unbounded sends. Honoured
    /// by every reply sent through the server's [`ReplyHandle`], which
    /// counts occurrences in [`ServerStats::send_timeouts`].
    pub send_timeout: Nanos,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 8080,
            recv_chunk: 16 * 1024,
            idle_timeout: 0,
            send_timeout: 0,
        }
    }
}

/// Lifecycle counters every [`Server`] keeps, independent of the service's
/// own protocol statistics.
///
/// The handles are [`telemetry`](crate::telemetry) metrics, so
/// [`Server::attach_telemetry`] can register the *same* cells into a
/// [`Registry`](crate::telemetry::metrics::Registry) — the `/metrics`
/// exposition and these fields cannot drift.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: Counter,
    /// Sessions currently running.
    pub active: Gauge,
    /// Sessions reaped by the idle deadline.
    pub idle_reaped: Counter,
    /// Sessions terminated by an exception.
    pub session_errors: Counter,
    /// Reply sends abandoned by [`ServerConfig::send_timeout`].
    pub send_timeouts: Counter,
    /// Total nanoseconds session threads spent parked on I/O, rolled up
    /// from span wait attribution at session exit. Stays `0` until
    /// [`Server::attach_telemetry`] — the per-span data comes from the
    /// runtime's park/wake hooks.
    pub session_io_wait_ns: Counter,
    /// Total nanoseconds session threads spent parked on locks, rolled up
    /// like [`ServerStats::session_io_wait_ns`].
    pub session_lock_wait_ns: Counter,
}

/// The generic server: listening, accept fan-out, per-session waits,
/// connection tracking and graceful drain for any [`Service`].
pub struct Server<S: Service> {
    stack: Arc<dyn NetStack>,
    service: Arc<S>,
    cfg: ServerConfig,
    stats: Arc<ServerStats>,
    shutdown: Signal,
    drained: Signal,
    /// True once the acceptor has exited. Gates the drain barrier: while
    /// the acceptor runs, a connection may have been dequeued by
    /// `accept_evt` but not yet counted in `stats.active`, so `active ==
    /// 0` alone must not fire `drained`.
    acceptor_done: std::sync::atomic::AtomicBool,
    /// Attached telemetry hub plus the span label sessions are annotated
    /// with; unset until [`Server::attach_telemetry`].
    telemetry: OnceLock<(Arc<Telemetry>, Arc<str>)>,
    /// Serializes drain-barrier checks. The lifecycle counters are plain
    /// Relaxed metrics cells; every transition updates *then* takes this
    /// lock to re-check, so the last transition's checker observes all
    /// earlier updates through the lock's ordering.
    drain_check: Mutex<()>,
}

impl<S: Service> Server<S> {
    /// Builds a server hosting `service` on a socket stack.
    pub fn new(stack: Arc<dyn NetStack>, service: S, cfg: ServerConfig) -> Arc<Self> {
        let srv = Arc::new(Server {
            stack,
            service: Arc::new(service),
            cfg,
            stats: Arc::new(ServerStats::default()),
            shutdown: Signal::new(),
            drained: Signal::new(),
            acceptor_done: std::sync::atomic::AtomicBool::new(false),
            telemetry: OnceLock::new(),
            drain_check: Mutex::new(()),
        });
        srv.service.attach_lifecycle(&ReplyHandle {
            shutdown: srv.shutdown.clone(),
            send_timeout: srv.cfg.send_timeout,
            stats: Arc::clone(&srv.stats),
        });
        srv
    }

    /// Attaches a telemetry hub: the server's lifecycle counters are
    /// registered into the hub's [`Registry`](crate::telemetry::metrics::Registry)
    /// as `eveth_server_*{service="<label>"}`, every subsequent session
    /// thread is annotated with the span name `label`, and session span
    /// waits are rolled up into [`ServerStats::session_io_wait_ns`] /
    /// [`ServerStats::session_lock_wait_ns`] at session exit.
    ///
    /// Attach *before* spawning [`Server::run`] so no session escapes the
    /// annotation. First attach wins; later calls return `false` and
    /// change nothing (a second exit hook would count every session's
    /// waits twice).
    pub fn attach_telemetry(&self, telemetry: &Arc<Telemetry>, service_label: &str) -> bool {
        if self
            .telemetry
            .set((Arc::clone(telemetry), Arc::from(service_label)))
            .is_err()
        {
            return false;
        }
        let reg = telemetry.registry();
        let labels: &[(&str, &str)] = &[("service", service_label)];
        let s = &self.stats;
        reg.register_gauge("eveth_server_active_sessions", labels, &s.active);
        for (name, cell) in [
            ("eveth_server_accepted_total", &s.accepted),
            ("eveth_server_idle_reaped_total", &s.idle_reaped),
            ("eveth_server_session_errors_total", &s.session_errors),
            ("eveth_server_send_timeouts_total", &s.send_timeouts),
            (
                "eveth_server_session_io_wait_ns_total",
                &s.session_io_wait_ns,
            ),
            (
                "eveth_server_session_lock_wait_ns_total",
                &s.session_lock_wait_ns,
            ),
        ] {
            reg.register_counter(name, labels, cell);
        }
        let io_roll = s.session_io_wait_ns.clone();
        let lock_roll = s.session_lock_wait_ns.clone();
        telemetry.on_span_exit(service_label, move |span| {
            io_roll.add(span.io_wait_ns);
            lock_roll.add(span.lock_wait_ns);
        });
        true
    }

    /// The telemetry hub attached via [`Server::attach_telemetry`], if
    /// any.
    pub fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.telemetry.get().map(|(t, _)| Arc::clone(t))
    }

    /// The hosted service (for its protocol-level statistics and state).
    pub fn service(&self) -> &Arc<S> {
        &self.service
    }

    /// Lifecycle counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// The configuration this server was built with.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Sessions currently running.
    pub fn active(&self) -> u64 {
        self.stats.active.get().max(0) as u64
    }

    /// Initiates graceful shutdown (callable from any context): the
    /// acceptor's `choose` sees the broadcast and closes the listener —
    /// there is no supervisor thread — and every session's `choose` sees
    /// the same broadcast on its next wait and closes its connection.
    /// [`Server::drained_signal`] fires once the last session ends.
    pub fn shutdown(&self) {
        self.shutdown.fire();
        // The acceptor may already be gone (listener failed or closed
        // externally): the barrier fires here rather than hanging every
        // drain waiter.
        self.maybe_drained();
    }

    /// The shutdown broadcast (for composing with other events).
    pub fn shutdown_signal(&self) -> &Signal {
        &self.shutdown
    }

    /// Fires once shutdown has been requested, the acceptor has exited
    /// *and* every session has ended — the graceful-drain barrier.
    /// `sync(drained_signal().wait_evt())` after [`Server::shutdown`] to
    /// wait for quiescence. The barrier assumes [`Server::run`] was
    /// spawned: on a server that never ran (or whose `listen` failed by
    /// exception) there is no acceptor to exit and the signal never
    /// fires.
    pub fn drained_signal(&self) -> &Signal {
        &self.drained
    }

    /// The main server thread: listen, then run the acceptor `choose`
    /// until shutdown or listener failure, forking one monadic thread per
    /// accepted connection.
    ///
    /// Runs until the listener closes; spawn it with `Runtime::spawn` /
    /// `SimRuntime::spawn`.
    pub fn run(self: &Arc<Self>) -> ThreadM<()> {
        let srv = Arc::clone(self);
        do_m! {
            let listener <- srv.stack.listen(srv.cfg.port);
            let listener = match listener {
                Ok(l) => l,
                Err(e) => {
                    // The server is dead on arrival: broadcast shutdown so
                    // anything tied to this server's lifecycle (service
                    // helper threads, drain waiters) is released rather
                    // than leaked, then surface the failure.
                    srv.shutdown.fire();
                    srv.acceptor_exited();
                    return sys_throw(Exception::with_payload("listen failed", e));
                }
            };
            accept_loop(srv, listener)
        }
    }

    /// One session finished: release its slot and re-check the drain
    /// barrier.
    fn session_exited(&self) {
        self.stats.active.decr();
        self.maybe_drained();
    }

    /// The acceptor exited (shutdown branch won, or the listener failed):
    /// no further connection can be dequeued, so the drain barrier is
    /// armed.
    fn acceptor_exited(&self) {
        self.acceptor_done
            .store(true, std::sync::atomic::Ordering::SeqCst);
        self.maybe_drained();
    }

    /// Fires the drain barrier iff shutdown was requested, the acceptor
    /// can no longer introduce sessions, and none is running. Called from
    /// every transition that can complete the condition (shutdown
    /// request, acceptor exit, session end); `Signal::fire` is
    /// idempotent, so concurrent callers are harmless. The `drain_check`
    /// lock orders each update (sequenced before its own check) with the
    /// other transitions' checks — without it, Relaxed counter cells would
    /// permit both of two racing finishers to read the other's stale
    /// state and neither to fire.
    fn maybe_drained(&self) {
        let _serialize = self.drain_check.lock();
        if self.shutdown.is_fired()
            && self.acceptor_done.load(std::sync::atomic::Ordering::SeqCst)
            && self.stats.active.get() == 0
        {
            self.drained.fire();
        }
    }
}

impl<S: Service> fmt::Debug for Server<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Server(port={}, active={}, shutdown={})",
            self.cfg.port,
            self.active(),
            self.shutdown.is_fired()
        )
    }
}

/// What woke the acceptor's `choose`.
enum AcceptWake {
    Inbound(Result<Arc<dyn Conn>, NetError>),
    Shutdown,
}

/// The acceptor: one `choose` over the shutdown broadcast and the backlog
/// event. Branch order is policy — shutdown beats a pending accept, so
/// intake stops at the shutdown instant even under a sustained connect
/// stream (with accept polled first, a never-empty backlog would starve
/// the shutdown branch and the server would keep admitting sessions
/// forever). Connections still queued in the backlog are dropped by
/// `listener.shutdown()`, exactly as the old supervisor thread dropped
/// them.
fn accept_loop<S: Service>(srv: Arc<Server<S>>, listener: Arc<dyn Listener>) -> ThreadM<()> {
    loop_m((), move |()| {
        let srv = Arc::clone(&srv);
        let listener = Arc::clone(&listener);
        sync(choose(vec![
            srv.shutdown.wait_evt().wrap(|()| AcceptWake::Shutdown),
            listener.accept_evt().wrap(AcceptWake::Inbound),
        ]))
        .bind(move |wake| match wake {
            AcceptWake::Shutdown => {
                listener.shutdown();
                srv.acceptor_exited();
                ThreadM::pure(Loop::Break(()))
            }
            AcceptWake::Inbound(Err(_)) => {
                // Listener failed or was closed externally.
                srv.acceptor_exited();
                ThreadM::pure(Loop::Break(()))
            }
            AcceptWake::Inbound(Ok(conn)) => {
                srv.stats.accepted.incr();
                srv.stats.active.incr();
                let body = session(Arc::clone(&srv), Arc::clone(&conn));
                // Name the session's span after the service so telemetry
                // can attribute its waits (and roll them up at exit).
                let body = match srv.telemetry.get() {
                    Some((_, label)) => span(Arc::clone(label), body),
                    None => body,
                };
                // An exception ends the session, never the server; the
                // service may answer with a protocol-level error first.
                let catcher = Arc::clone(&srv);
                let guarded = sys_catch(body, move |e| {
                    catcher.stats.session_errors.incr();
                    catcher.service.on_exception(conn, &e)
                });
                // The slot is released on every exit — including an
                // exception thrown by `on_exception` itself, which is
                // re-thrown afterwards so it still surfaces as an
                // uncaught-exception report rather than silently
                // vanishing (or leaking `active` and wedging the drain
                // barrier).
                let tracker = Arc::clone(&srv);
                let escape_tracker = Arc::clone(&srv);
                let tracked = sys_catch(
                    guarded.bind(move |_| sys_nbio(move || tracker.session_exited())),
                    move |e| {
                        escape_tracker.session_exited();
                        sys_throw(e)
                    },
                );
                sys_fork(tracked).map(|_| Loop::Continue(()))
            }
        })
    })
}

/// One session: wait on the composed input, hand data chunks to the
/// service, end on peer close / transport error / idle reap / shutdown /
/// service decision.
fn session<S: Service>(srv: Arc<Server<S>>, conn: Arc<dyn Conn>) -> ThreadM<()> {
    let state = srv.service.open(&conn);
    loop_m(state, move |state| {
        let srv = Arc::clone(&srv);
        let conn = Arc::clone(&conn);
        session_input(
            &conn,
            srv.cfg.recv_chunk,
            srv.cfg.idle_timeout,
            &srv.shutdown,
        )
        .bind(move |input| match input {
            SessionInput::Data(Ok(chunk)) if chunk.is_empty() => {
                conn.close().map(|_| Loop::Break(()))
            }
            SessionInput::Data(Ok(chunk)) => {
                let conn2 = Arc::clone(&conn);
                srv.service
                    .on_chunk(conn, state, chunk)
                    .bind(move |step| match step {
                        Step::Continue(next) => ThreadM::pure(Loop::Continue(next)),
                        Step::Close => conn2.close().map(|_| Loop::Break(())),
                    })
            }
            SessionInput::Data(Err(_)) => ThreadM::pure(Loop::Break(())),
            SessionInput::IdleTimeout => {
                // The stalled connection is reaped; live sessions are
                // untouched (each races its own deadline).
                srv.stats.idle_reaped.incr();
                conn.close().map(|_| Loop::Break(()))
            }
            SessionInput::Shutdown => conn.close().map(|_| Loop::Break(())),
        })
    })
}
