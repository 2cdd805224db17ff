//! The KV server: a thin [`Service`] implementation over the generic
//! event-native [`Server`] of `eveth_core::service`.
//!
//! Mirrors the shape of `eveth_http::server::WebServer` — the paper's
//! architecture applied to a second protocol. The framework owns the
//! lifecycle (listening, the accept/shutdown `choose`, the per-session
//! readiness/idle/shutdown `choose`, connection tracking and graceful
//! drain); this module owns only what is KV-specific: the incremental
//! command parser as per-session state, batch execution against the
//! sharded store, and the janitor thread. The socket layer is the paper's
//! one-line [`NetStack`] switch, so the same server runs over simulated
//! kernel sockets or the application-level TCP stack without any code
//! change: every wait on a connection goes through its readiness
//! descriptor (`Conn::readiness_fd`), which both stacks expose.
//!
//! Pipelining falls out of the incremental parser: every complete command
//! already buffered is executed and its replies are coalesced into a
//! single `send`, so a client that ships N commands per round trip gets N
//! replies per round trip.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use eveth_core::event::Signal;
use eveth_core::net::{Conn, NetStack};
use eveth_core::service::{ReplyHandle, Server, ServerConfig, Service, Step};
use eveth_core::syscall::{sys_fork, sys_time};
use eveth_core::telemetry::Telemetry;
use eveth_core::time::{Nanos, MILLIS};
use eveth_core::{do_m, ThreadM};

use crate::expiry::janitor_until;
use crate::protocol::{Command, CommandParser, ProtoError, Reply, ReplyQueue, StoreMode};
use crate::stats::{KvStats, StatsSnapshot};
use crate::store::{CasOutcome, ConcatOutcome, CounterResult, Entry, ShardedStore, StoreConfig};

/// KV server tunables.
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// Listening port.
    pub port: u16,
    /// Store layout and backend.
    pub store: StoreConfig,
    /// Socket receive granularity.
    pub recv_chunk: usize,
    /// Janitor wake interval (one shard swept per wake); `0` disables the
    /// janitor (lazy expiry still applies).
    pub janitor_interval: Nanos,
    /// Reap a connection that stays silent this long between requests
    /// (virtual nanoseconds); `0` disables idle reaping. Implemented as a
    /// `timeout_evt` branch of the per-session `choose` — no helper
    /// thread, no polling.
    pub idle_timeout: Nanos,
    /// Abandon a reply send that cannot complete within this long
    /// (virtual nanoseconds); `0` keeps plain unbounded sends. Passed
    /// through to the framework's [`ServerConfig::send_timeout`], whose
    /// [`ReplyHandle`] every reply goes out on: a timed-out send counts
    /// in the framework's `send_timeouts` and the session closes.
    pub send_timeout: Nanos,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            port: 11211,
            store: StoreConfig::default(),
            recv_chunk: 16 * 1024,
            janitor_interval: 100 * MILLIS,
            idle_timeout: 0,
            send_timeout: 0,
        }
    }
}

/// The KV-specific state shared by every session thread (the store, the
/// protocol counters, the configuration). Split out of [`KvServer`] so the
/// [`Service`] implementation and the batch-execution free functions can
/// hold it without the server wrapper.
struct KvShared {
    store: Arc<ShardedStore>,
    cfg: KvConfig,
    stats: Arc<KvStats>,
    /// The framework's reply path, handed down once by
    /// [`Service::attach_lifecycle`].
    replies: std::sync::OnceLock<ReplyHandle>,
}

impl KvShared {
    fn store_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::gather(self.store.shard_stats())
    }

    fn replies(&self) -> &ReplyHandle {
        self.replies
            .get()
            .expect("Server::new attaches the reply handle")
    }
}

/// The memcached-protocol [`Service`]: per-session state is the
/// incremental [`CommandParser`]; each chunk is parsed, executed as a
/// batch against the sharded store, and answered with one coalesced send.
/// Everything else — accepting, idle reaping, shutdown, draining — is the
/// framework's ([`Server`]).
pub struct KvService {
    shared: Arc<KvShared>,
}

impl Service for KvService {
    type Session = CommandParser;

    fn open(&self, _conn: &Arc<dyn Conn>) -> CommandParser {
        // The parser rejects a declared `set` payload over the store's cap
        // before buffering it, so a hostile byte count cannot balloon
        // memory.
        CommandParser::with_limits(8 * 1024, self.shared.cfg.store.max_value_bytes)
    }

    fn on_chunk(
        &self,
        conn: Arc<dyn Conn>,
        parser: CommandParser,
        chunk: Bytes,
    ) -> ThreadM<Step<CommandParser>> {
        let shared = Arc::clone(&self.shared);
        shared.stats.bytes_in.add(chunk.len() as u64);
        let out_stats = Arc::clone(&shared.stats);
        let replier = Arc::clone(&self.shared);
        do_m! {
            let outcome <- run_batch(shared, parser, chunk);
            let (parser, outcome) = match outcome {
                Ok(v) => v,
                Err(flush) => {
                    // Protocol error: flush what we have + the error line,
                    // then end the session (the server closes the conn).
                    return replier.replies().send_vectored(&conn, flush).map(|_| Step::Close);
                }
            };
            let mut outcome = outcome;
            let n = outcome.queue.len() as u64;
            let segs = outcome.queue.finish();
            let sent <- if segs.is_empty() {
                ThreadM::pure(Ok(()))
            } else {
                replier.replies().send_vectored(&conn, segs)
            };
            match sent {
                Err(_) => ThreadM::pure(Step::Close),
                Ok(()) => {
                    out_stats.bytes_out.add(n);
                    if outcome.quit {
                        ThreadM::pure(Step::Close)
                    } else {
                        ThreadM::pure(Step::Continue(parser))
                    }
                }
            }
        }
    }

    fn attach_lifecycle(&self, replies: &ReplyHandle) {
        let _ = self.shared.replies.set(replies.clone());
    }
}

impl fmt::Debug for KvService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KvService(store={:?})", self.shared.store)
    }
}

/// The KV server: [`KvService`] hosted on the generic event-native
/// [`Server`], plus the janitor thread.
pub struct KvServer {
    server: Arc<Server<KvService>>,
    shared: Arc<KvShared>,
}

impl KvServer {
    /// Builds a server on a socket stack.
    pub fn new(stack: Arc<dyn NetStack>, cfg: KvConfig) -> Arc<Self> {
        let shared = Arc::new(KvShared {
            store: ShardedStore::new(cfg.store.clone()),
            stats: Arc::new(KvStats::default()),
            cfg: cfg.clone(),
            replies: std::sync::OnceLock::new(),
        });
        let server = Server::new(
            stack,
            KvService {
                shared: Arc::clone(&shared),
            },
            ServerConfig {
                port: cfg.port,
                recv_chunk: cfg.recv_chunk,
                idle_timeout: cfg.idle_timeout,
                send_timeout: cfg.send_timeout,
            },
        );
        Arc::new(KvServer { server, shared })
    }

    /// Attaches a telemetry hub: session threads are annotated with the
    /// span name `"kv"` (so their I/O and lock waits roll up into the
    /// framework's `session_*_wait_ns` counters at exit), the framework's
    /// lifecycle counters register as `eveth_server_*{service="kv"}`, and
    /// the KV protocol, per-shard and store contention counters register
    /// as `eveth_kv_*` / `eveth_stm_*`. Call before spawning
    /// [`KvServer::run`]. First attach wins; later calls change nothing.
    pub fn attach_telemetry(&self, telemetry: &Arc<Telemetry>) {
        if !self.server.attach_telemetry(telemetry, "kv") {
            return;
        }
        let reg = telemetry.registry();
        let s = &self.shared.stats;
        reg.register_counter("eveth_kv_commands_total", &[], &s.commands);
        reg.register_counter("eveth_kv_bytes_in_total", &[], &s.bytes_in);
        reg.register_counter("eveth_kv_bytes_out_total", &[], &s.bytes_out);
        reg.register_counter("eveth_kv_protocol_errors_total", &[], &s.protocol_errors);
        reg.register_counter("eveth_kv_janitor_sweeps_total", &[], &s.janitor_sweeps);
        for (i, sh) in self.shared.store.shard_stats().iter().enumerate() {
            let shard = i.to_string();
            let labels: &[(&str, &str)] = &[("shard", shard.as_str())];
            for (name, cell) in sh.cells() {
                // `stats` keeps memcached's `get_` prefix on the two
                // lookup counters; the metric names never had it.
                let name = name.strip_prefix("get_").unwrap_or(name);
                reg.register_counter(&format!("eveth_kv_shard_{name}_total"), labels, cell);
            }
        }
        let stm = self.shared.store.stm_stats();
        let labels: &[(&str, &str)] = &[("store", "kv")];
        reg.register_counter("eveth_stm_conflicts_total", labels, &stm.conflicts);
        reg.register_counter("eveth_stm_retry_waits_total", labels, &stm.retry_waits);
        reg.register_counter("eveth_stm_commits_total", labels, &stm.commits);
        // Counts computed from the store (its lock gates, the sum of two
        // STM cells) are polled at exposition time.
        let store = Arc::clone(&self.shared.store);
        reg.register_counter_fn("eveth_kv_store_lock_wait_ns_total", &[], move || {
            store.lock_wait_ns()
        });
        let store = Arc::clone(&self.shared.store);
        reg.register_counter_fn("eveth_kv_store_lock_contentions_total", &[], move || {
            store.lock_contentions()
        });
        let store = Arc::clone(&self.shared.store);
        reg.register_counter_fn("eveth_stm_retries_total", labels, move || {
            store.stm_retries()
        });
    }

    /// Initiates graceful shutdown (callable from any context): the
    /// acceptor's `choose` closes the listener — no supervisor thread —
    /// and every session's `choose` sees the broadcast on its next wait,
    /// closing the connection.
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
    pub fn server(&self) -> &Arc<Server<KvService>> {
        &self.server
    }

    /// Aggregate protocol counters. The connection lifecycle is counted
    /// by the framework: [`Server::stats`] on [`KvServer::server`].
    pub fn stats(&self) -> &Arc<KvStats> {
        &self.shared.stats
    }

    /// The underlying store (exposed for tests and benches).
    pub fn store(&self) -> &Arc<ShardedStore> {
        &self.shared.store
    }

    /// A point-in-time aggregate of the per-shard counters.
    pub fn store_snapshot(&self) -> StatsSnapshot {
        self.shared.store_snapshot()
    }

    /// The main server thread: spawn the janitor, then run the framework
    /// server (listen + accept fan-out + session lifecycle).
    ///
    /// Runs until the listener closes; spawn it with `Runtime::spawn` /
    /// `SimRuntime::spawn`.
    pub fn run(self: &Arc<Self>) -> ThreadM<()> {
        if self.shared.cfg.janitor_interval > 0 {
            // The janitor is an ordinary monadic thread on the same
            // scheduler, woken by the timer wheel. It watches the
            // server's shutdown broadcast, so it also exits if `listen`
            // fails (the framework fires the broadcast on that path) or
            // after a graceful drain — no immortal timer client is left
            // behind.
            let sweep = janitor_until(
                Arc::clone(&self.shared.store),
                self.shared.cfg.janitor_interval,
                Some(self.shared.stats.janitor_sweeps.clone()),
                self.server.shutdown_signal().clone(),
            );
            let server = Arc::clone(&self.server);
            do_m! {
                sys_fork(sweep);
                server.run()
            }
        } else {
            self.server.run()
        }
    }
}

impl fmt::Debug for KvServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KvServer(port={}, store={:?})",
            self.shared.cfg.port, self.shared.store
        )
    }
}

/// Everything one execution batch produced: the gathered reply segments
/// (value payloads alias store entries; everything else lives in one
/// pooled scratch region) and whether the client asked to quit.
struct BatchOutcome {
    queue: ReplyQueue,
    quit: bool,
}

/// Feeds `chunk`, executes every command that completes, and coalesces
/// replies into one gather list for a single vectored send. `Err`
/// carries segments to flush before closing on a protocol error.
///
/// The chunk is handed to the parser by ownership ([`CommandParser::
/// feed_bytes`]) so commands that arrive whole are parsed in place —
/// zero copies between the socket recv and the store. One timestamp is
/// taken for the whole batch: every command in a pipelined burst shares
/// the instant the bytes were drained, which is both cheaper (no
/// per-command `sys_time` continuation) and a more honest arrival time.
fn run_batch(
    srv: Arc<KvShared>,
    mut parser: CommandParser,
    chunk: Bytes,
) -> ThreadM<Result<(CommandParser, BatchOutcome), Vec<Bytes>>> {
    sys_time().bind(move |now| {
        // First drain on the fed chunk, then on the remainder,
        // monadically so each command's store access can block (shard
        // mutex / STM retry) without holding anything else up.
        let first = parser.feed_bytes(chunk);
        step_batch(
            srv,
            parser,
            now,
            first,
            BatchOutcome {
                queue: ReplyQueue::new(),
                quit: false,
            },
        )
    })
}

fn step_batch(
    srv: Arc<KvShared>,
    parser: CommandParser,
    now: Nanos,
    parsed: Result<Option<Command>, ProtoError>,
    mut acc: BatchOutcome,
) -> ThreadM<Result<(CommandParser, BatchOutcome), Vec<Bytes>>> {
    match parsed {
        Err(e) => {
            srv.stats.protocol_errors.incr();
            e.to_reply().encode_gather(&mut acc.queue);
            ThreadM::pure(Err(acc.queue.finish()))
        }
        Ok(None) => ThreadM::pure(Ok((parser, acc))),
        Ok(Some(cmd)) => {
            srv.stats.commands.incr();
            if cmd == Command::Quit {
                acc.quit = true;
                return ThreadM::pure(Ok((parser, acc)));
            }
            let suppress = cmd.noreply();
            let srv2 = Arc::clone(&srv);
            execute(Arc::clone(&srv), cmd, now).bind(move |replies| {
                let mut parser = parser;
                if !suppress {
                    for r in &replies {
                        r.encode_gather(&mut acc.queue);
                    }
                }
                let next = parser.try_next();
                step_batch(srv2, parser, now, next, acc)
            })
        }
    }
}

/// Builds a `VALUE` reply whose data segment is the store entry's own
/// refcounted window — no byte of the value is copied between the store
/// and the socket's gather list.
fn value_reply(key: Bytes, e: Entry, with_cas: bool) -> Reply {
    Reply::Value {
        key,
        flags: e.flags,
        data: e.value,
        cas: with_cas.then_some(e.version),
    }
}

/// Multi-key lookup shared by `get` (plain `VALUE` lines) and `gets`
/// (`VALUE` lines carrying the cas-unique version stamp).
fn lookup_reply(
    srv: Arc<KvShared>,
    keys: Vec<Bytes>,
    with_cas: bool,
    now: Nanos,
) -> ThreadM<Vec<Reply>> {
    let store = Arc::clone(&srv.store);
    // Single-key gets dominate real traffic; skip the shared key list
    // and `map_m`'s per-element continuation plumbing for that shape.
    if keys.len() == 1 {
        let key = keys.into_iter().next().expect("one key");
        let key2 = key.clone();
        return store.get(key, now).map(move |found| {
            let mut replies = Vec::with_capacity(2);
            if let Some(e) = found {
                replies.push(value_reply(key2, e, with_cas));
            }
            replies.push(Reply::End);
            replies
        });
    }
    let keys = Arc::new(keys);
    eveth_core::map_m(keys.len(), move |i| {
        let store = Arc::clone(&store);
        let key = keys[i].clone();
        let key2 = key.clone();
        store
            .get(key, now)
            .map(move |found| found.map(|e| value_reply(key2, e, with_cas)))
    })
    .map(|found: Vec<Option<Reply>>| {
        let mut replies: Vec<Reply> = found.into_iter().flatten().collect();
        replies.push(Reply::End);
        replies
    })
}

/// Builds the store entry for a storage command's fields at time `now`.
///
/// The payload is [`Bytes::compact`]ed on the way in: a value parsed out
/// of a recv chunk is a window into that chunk, and storing the window
/// as-is would pin the whole chunk (and its slab region) for the
/// entry's lifetime. Compaction copies exactly the value bytes once —
/// the single copy a set fundamentally requires — and releases the
/// chunk as soon as the batch drains.
fn proto_entry(now: Nanos, flags: u32, exptime: u64, value: Bytes) -> Entry {
    Entry {
        value: value.compact(),
        flags,
        expires_at: ShardedStore::deadline(now, exptime),
        version: 0, // stamped by the store
    }
}

/// Executes one command against the store at batch timestamp `now`.
fn execute(srv: Arc<KvShared>, cmd: Command, now: Nanos) -> ThreadM<Vec<Reply>> {
    let store = &srv.store;
    match cmd {
        Command::Get { keys, with_cas } => lookup_reply(srv, keys, with_cas, now),
        Command::Store {
            mode,
            key,
            flags,
            exptime,
            value,
            ..
        } => {
            if value.len() > store.config().max_value_bytes {
                return ThreadM::pure(vec![Reply::ClientError("value too large")]);
            }
            let stored = |ok| vec![if ok { Reply::Stored } else { Reply::NotStored }];
            match mode {
                StoreMode::Set => store
                    .set(key, proto_entry(now, flags, exptime, value))
                    .map(|()| vec![Reply::Stored]),
                StoreMode::Add => store
                    .add(key, proto_entry(now, flags, exptime, value), now)
                    .map(stored),
                StoreMode::Replace => store
                    .replace(key, proto_entry(now, flags, exptime, value), now)
                    .map(stored),
                StoreMode::Cas(stamp) => store
                    .cas(key, proto_entry(now, flags, exptime, value), stamp, now)
                    .map(|outcome| {
                        vec![match outcome {
                            CasOutcome::Stored => Reply::Stored,
                            CasOutcome::Exists => Reply::Exists,
                            CasOutcome::NotFound => Reply::NotFound,
                        }]
                    }),
                // Concatenation keeps the entry's own flags and deadline,
                // so no entry is built from the line's.
                StoreMode::Append | StoreMode::Prepend => store
                    .concat(key, value, mode == StoreMode::Prepend, now)
                    .map(|outcome| {
                        vec![match outcome {
                            ConcatOutcome::Stored => Reply::Stored,
                            ConcatOutcome::Missing => Reply::NotStored,
                            ConcatOutcome::TooLarge => Reply::ClientError("value too large"),
                        }]
                    }),
            }
        }
        Command::Touch { key, exptime, .. } => store
            .touch(key, ShardedStore::deadline(now, exptime), now)
            .map(|touched| {
                vec![if touched {
                    Reply::Touched
                } else {
                    Reply::NotFound
                }]
            }),
        Command::Delete { key, .. } => store.delete(key, now).map(|removed| {
            vec![if removed {
                Reply::Deleted
            } else {
                Reply::NotFound
            }]
        }),
        Command::Arith {
            key, delta, decr, ..
        } => store.counter_op(key, delta, decr, now).map(|res| {
            vec![match res {
                CounterResult::Ok(v) => Reply::Number(v),
                CounterResult::NotFound => Reply::NotFound,
                CounterResult::NotNumeric => {
                    Reply::ClientError("cannot increment or decrement non-numeric value")
                }
            }]
        }),
        Command::Stats => {
            let stat = |name: &str, value: u64| Reply::Stat(name.into(), value.to_string());
            let server = &srv.stats;
            let framework = srv.replies().stats();
            let mut replies = vec![
                stat("connections", framework.accepted.get()),
                stat("commands", server.commands.get()),
                stat("bytes_in", server.bytes_in.get()),
                stat("bytes_out", server.bytes_out.get()),
            ];
            // Every store counter, summed over the shards.
            let shards = store.shard_stats();
            for (i, (name, _)) in shards[0].cells().iter().enumerate() {
                let total = shards.iter().map(|sh| sh.cells()[i].1.get()).sum();
                replies.push(stat(name, total));
            }
            replies.extend([
                stat("janitor_sweeps", server.janitor_sweeps.get()),
                stat("idle_reaped", framework.idle_reaped.get()),
                stat("curr_items", store.len_now() as u64),
                stat("shards", store.shard_count() as u64),
                stat("lock_wait_ns", store.lock_wait_ns()),
                stat("stm_retries", store.stm_retries()),
                // Wait attribution rolled up from session spans by the
                // framework (zero until a telemetry hub is attached — the
                // per-span data comes from the runtime's park/wake hooks).
                stat("session_io_wait_ns", framework.session_io_wait_ns.get()),
                stat("session_lock_wait_ns", framework.session_lock_wait_ns.get()),
                stat("send_timeouts", framework.send_timeouts.get()),
            ]);
            for (i, sh) in shards.iter().enumerate() {
                replies.push(stat(&format!("shard{i}_hits"), sh.hits.get()));
                replies.push(stat(&format!("shard{i}_misses"), sh.misses.get()));
            }
            replies.push(Reply::End);
            ThreadM::pure(replies)
        }
        Command::Version => ThreadM::pure(vec![Reply::Version(env!("CARGO_PKG_VERSION"))]),
        Command::Quit => ThreadM::pure(Vec::new()),
    }
}
