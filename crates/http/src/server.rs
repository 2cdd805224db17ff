//! The static-content web server — the paper's case study (§5.2) — as a
//! thin [`Service`] implementation over the generic event-native
//! [`Server`] of `eveth_core::service`.
//!
//! Per-client code is an ordinary monadic thread (parse → cache/AIO →
//! respond, in a keep-alive loop); the application as a whole is the
//! event-driven system underneath. The framework owns the lifecycle
//! (listening, the accept/shutdown `choose`, the per-session
//! readiness/idle/shutdown `choose`, graceful drain); this module owns
//! the HTTP-specific half: the request parser as per-session state,
//! cache/AIO response assembly, and the 500-on-exception recovery. I/O
//! failures are handled with `sys_catch`, file opens go through the
//! blocking-I/O pool (`sys_blio`), file reads use AIO, and the server
//! maintains its own LRU byte cache because the paper's server
//! "implements its own caching" to exploit Linux AIO. The socket stack is
//! injected ([`NetStack`]), so switching to the application-level TCP
//! stack is the paper's one-line change: every wait on a connection goes
//! through its readiness descriptor (`Conn::readiness_fd`), which both
//! stacks expose.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use eveth_core::aio::{AioFile, FileStore};
use eveth_core::event::Signal;
use eveth_core::net::{Conn, NetError, NetStack};
use eveth_core::service::{ReplyHandle, Server, ServerConfig as LifecycleConfig, Service, Step};
use eveth_core::syscall::{sys_aio_read, sys_blio, sys_nbio, sys_throw};
use eveth_core::telemetry::metrics::Counter;
use eveth_core::telemetry::Telemetry;
use eveth_core::time::Nanos;
use eveth_core::{do_m, loop_m, Exception, Loop, ThreadM};

use crate::cache::FileCache;
use crate::parser::{Method, Request, RequestParser};
use crate::response::Response;

/// Web server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listening port.
    pub port: u16,
    /// Byte budget of the server's own file cache (the paper used 100 MB).
    pub cache_bytes: usize,
    /// AIO read granularity.
    pub read_chunk: usize,
    /// Socket receive granularity.
    pub recv_chunk: usize,
    /// Reap a keep-alive connection that stays silent this long between
    /// requests (virtual nanoseconds); `0` disables idle reaping.
    /// Implemented as a `timeout_evt` branch of the per-session `choose`.
    pub idle_timeout: Nanos,
    /// Abandon a response send that cannot complete within this long
    /// (virtual nanoseconds); `0` keeps plain unbounded sends. Passed
    /// through to the framework's `send_timeout`, whose [`ReplyHandle`]
    /// every response goes out on: a timed-out send counts in the
    /// framework's `send_timeouts` and the session closes.
    pub send_timeout: Nanos,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 80,
            cache_bytes: 100 * 1024 * 1024,
            read_chunk: 64 * 1024,
            recv_chunk: 4 * 1024,
            idle_timeout: 0,
            send_timeout: 0,
        }
    }
}

/// Aggregate protocol counters (telemetry metrics cells, registered as-is
/// by [`WebServer::attach_telemetry`]). The connection lifecycle is counted
/// by the framework's `ServerStats`.
#[derive(Debug, Default)]
pub struct HttpStats {
    /// Requests served (any status).
    pub requests: Counter,
    /// Response bytes written (heads + bodies).
    pub bytes_sent: Counter,
    /// 404 responses.
    pub not_found: Counter,
}

/// The HTTP-specific state shared by every session thread (file store,
/// cache, counters, configuration), split out of [`WebServer`] so the
/// [`Service`] implementation and the response-assembly free functions
/// can hold it without the server wrapper.
struct WebShared {
    files: Arc<dyn FileStore>,
    cache: Arc<FileCache>,
    cfg: ServerConfig,
    stats: Arc<HttpStats>,
    /// The framework's reply path, handed down once by
    /// [`Service::attach_lifecycle`].
    replies: std::sync::OnceLock<ReplyHandle>,
}

impl WebShared {
    fn send_response(&self, conn: &Arc<dyn Conn>, data: Bytes) -> ThreadM<Result<(), NetError>> {
        self.replies
            .get()
            .expect("Server::new attaches the reply handle")
            .send(conn, data)
    }
}

/// The HTTP [`Service`]: per-session state is the incremental
/// [`RequestParser`]; each chunk is fed to it and every complete
/// pipelined request is served (cache → blocking open → AIO reads)
/// before the session waits again. Lifecycle — accepting, idle reaping,
/// shutdown, draining — is the framework's ([`Server`]).
pub struct WebService {
    shared: Arc<WebShared>,
}

impl Service for WebService {
    type Session = RequestParser;

    fn open(&self, _conn: &Arc<dyn Conn>) -> RequestParser {
        RequestParser::new()
    }

    fn on_chunk(
        &self,
        conn: Arc<dyn Conn>,
        mut parser: RequestParser,
        chunk: Bytes,
    ) -> ThreadM<Step<RequestParser>> {
        match parser.feed(&chunk) {
            Err(_) => bad_request(Arc::clone(&self.shared), conn),
            Ok(None) => ThreadM::pure(Step::Continue(parser)),
            Ok(Some(req)) => serve_requests(Arc::clone(&self.shared), conn, parser, req),
        }
    }

    /// Exceptions end the session but never the server: the handler
    /// attempts a 500 and closes (paper §5.2: "I/O errors are handled
    /// gracefully using exceptions").
    fn on_exception(&self, conn: Arc<dyn Conn>, _error: &Exception) -> ThreadM<()> {
        do_m! {
            conn.send(Response::internal_error().into_bytes());
            conn.close()
        }
    }

    fn attach_lifecycle(&self, replies: &ReplyHandle) {
        let _ = self.shared.replies.set(replies.clone());
    }
}

impl fmt::Debug for WebService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WebService(cache={:?})", self.shared.cache)
    }
}

/// The web server: [`WebService`] hosted on the generic event-native
/// [`Server`].
pub struct WebServer {
    server: Arc<Server<WebService>>,
    shared: Arc<WebShared>,
}

impl WebServer {
    /// Builds a server on a socket stack and a file store.
    pub fn new(
        stack: Arc<dyn NetStack>,
        files: Arc<dyn FileStore>,
        cfg: ServerConfig,
    ) -> Arc<Self> {
        let shared = Arc::new(WebShared {
            files,
            cache: Arc::new(FileCache::new(cfg.cache_bytes)),
            stats: Arc::new(HttpStats::default()),
            cfg: cfg.clone(),
            replies: std::sync::OnceLock::new(),
        });
        let server = Server::new(
            stack,
            WebService {
                shared: Arc::clone(&shared),
            },
            LifecycleConfig {
                port: cfg.port,
                recv_chunk: cfg.recv_chunk,
                idle_timeout: cfg.idle_timeout,
                send_timeout: cfg.send_timeout,
            },
        );
        Arc::new(WebServer { server, shared })
    }

    /// Attaches a telemetry hub: session threads are annotated with the
    /// span name `"http"` (so their I/O and lock waits roll up into the
    /// framework's `session_*_wait_ns` counters at exit), the framework's
    /// lifecycle counters register as `eveth_server_*{service="http"}`,
    /// and the HTTP protocol counters register as `eveth_http_*`. Call
    /// before spawning [`WebServer::run`]. First attach wins; later calls
    /// change nothing.
    pub fn attach_telemetry(&self, telemetry: &Arc<Telemetry>) {
        if !self.server.attach_telemetry(telemetry, "http") {
            return;
        }
        let reg = telemetry.registry();
        let s = &self.shared.stats;
        reg.register_counter("eveth_http_requests_total", &[], &s.requests);
        reg.register_counter("eveth_http_bytes_sent_total", &[], &s.bytes_sent);
        reg.register_counter("eveth_http_not_found_total", &[], &s.not_found);
    }

    /// Initiates graceful shutdown (callable from any context): the
    /// acceptor's `choose` closes the listener — no supervisor thread —
    /// and every keep-alive session's `choose` sees the broadcast on its
    /// next wait and closes the connection.
    pub fn shutdown(&self) {
        self.server.shutdown();
    }

    /// The shutdown broadcast (for composing with other events).
    pub fn shutdown_signal(&self) -> &Signal {
        self.server.shutdown_signal()
    }

    /// Fires once shutdown has been requested and the last session ended
    /// (the framework's graceful-drain barrier).
    pub fn drained_signal(&self) -> &Signal {
        self.server.drained_signal()
    }

    /// The generic server hosting this service (lifecycle counters,
    /// active-session count).
    pub fn server(&self) -> &Arc<Server<WebService>> {
        &self.server
    }

    /// Protocol counters. The connection lifecycle is counted by the
    /// framework: [`Server::stats`] on [`WebServer::server`].
    pub fn stats(&self) -> &Arc<HttpStats> {
        &self.shared.stats
    }

    /// The file cache (exposed for the cache-size ablation).
    pub fn cache(&self) -> &Arc<FileCache> {
        &self.shared.cache
    }

    /// The main server thread: the framework server (listen + accept
    /// fan-out + session lifecycle).
    ///
    /// Runs until the listener closes; spawn it with `Runtime::spawn` /
    /// `SimRuntime::spawn`.
    pub fn run(self: &Arc<Self>) -> ThreadM<()> {
        self.server.run()
    }
}

impl fmt::Debug for WebServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WebServer(port={}, cache={:?})",
            self.shared.cfg.port, self.shared.cache
        )
    }
}

/// Answers a malformed request with 400 and ends the session (the server
/// closes the connection).
fn bad_request(shared: Arc<WebShared>, conn: Arc<dyn Conn>) -> ThreadM<Step<RequestParser>> {
    shared
        .send_response(&conn, Response::bad_request().into_bytes())
        .map(|_| Step::Close)
}

/// Serves `req` and then every further complete request already buffered
/// in `parser` (pipelining), before handing the session back to the
/// framework's wait.
fn serve_requests(
    shared: Arc<WebShared>,
    conn: Arc<dyn Conn>,
    mut parser: RequestParser,
    req: Request,
) -> ThreadM<Step<RequestParser>> {
    let shared2 = Arc::clone(&shared);
    let conn2 = Arc::clone(&conn);
    serve_one(shared, Arc::clone(&conn), req).bind(move |keep_alive| {
        if !keep_alive {
            return ThreadM::pure(Step::Close);
        }
        match parser.feed(&[]) {
            Err(_) => bad_request(shared2, conn2),
            Ok(None) => ThreadM::pure(Step::Continue(parser)),
            Ok(Some(next)) => serve_requests(shared2, conn2, parser, next),
        }
    })
}

/// Serves one request; returns whether the session continues (response
/// sent successfully on a keep-alive connection).
fn serve_one(shared: Arc<WebShared>, conn: Arc<dyn Conn>, req: Request) -> ThreadM<bool> {
    let keep_alive = req.keep_alive();
    let head_only = req.method == Method::Head;
    let shared2 = Arc::clone(&shared);
    let replier = Arc::clone(&shared);
    do_m! {
        let mut response <- build_response(shared, req);
        let _ = if head_only {
            response = Response::new(response.status(), Bytes::new());
        };
        let response = response.keep_alive(keep_alive);
        let body = response.into_bytes();
        let n = body.len() as u64;
        let sent <- replier.send_response(&conn, body);
        sys_nbio(move || {
            shared2.stats.requests.incr();
            shared2.stats.bytes_sent.add(n);
            sent.is_ok() && keep_alive
        })
    }
}

/// Computes the response for a request: cache, then blocking open, then
/// AIO reads (each failure path is an exception or an error status).
fn build_response(srv: Arc<WebShared>, req: Request) -> ThreadM<Response> {
    if !matches!(req.method, Method::Get | Method::Head) {
        return ThreadM::pure(Response::bad_request());
    }
    let path = req.target;
    if let Some(data) = srv.cache.get(&path) {
        return ThreadM::pure(Response::ok(data));
    }
    let lookup_files = Arc::clone(&srv.files);
    let lookup_path = path.clone();
    do_m! {
        // Opening / stat-ing a file is a blocking OS interface: route it
        // through the blocking-I/O pool exactly as the paper's §4.6.
        let file <- sys_blio(move || lookup_files.lookup(&lookup_path));
        match file {
            None => {
                srv.stats.not_found.incr();
                ThreadM::pure(Response::not_found())
            }
            Some(file) => do_m! {
                let data <- read_whole_file(file, srv.cfg.read_chunk);
                match data {
                    Ok(data) => {
                        srv.cache.insert(path, data.clone());
                        ThreadM::pure(Response::ok(data))
                    }
                    Err(e) => sys_throw(Exception::with_payload("file read failed", e)),
                }
            },
        }
    }
}

/// Reads an entire file via repeated `sys_aio_read`s.
fn read_whole_file(
    file: Arc<dyn AioFile>,
    chunk: usize,
) -> ThreadM<Result<Bytes, eveth_core::aio::IoError>> {
    let total = file.len();
    loop_m(
        (0u64, Vec::with_capacity(total as usize)),
        move |(offset, mut acc)| {
            if offset >= total {
                return ThreadM::pure(Loop::Break(Ok(Bytes::from(acc))));
            }
            let want = chunk.min((total - offset) as usize);
            sys_aio_read(&file, offset, want).map(move |res| match res {
                Ok(data) if data.is_empty() => Loop::Break(Ok(Bytes::from(acc))),
                Ok(data) => {
                    acc.extend_from_slice(&data);
                    Loop::Continue((offset + data.len() as u64, acc))
                }
                Err(e) => Loop::Break(Err(e)),
            })
        },
    )
}
