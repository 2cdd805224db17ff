//! The cluster router: a [`Service`] that fronts N backend KV nodes.
//!
//! The router is deliberately *just another service* on the same hybrid
//! runtime — per-client code is a straight-line monadic thread, fan-out /
//! fan-in across backends is a CML [`choose`] over backend socket
//! readiness and a per-round timeout, and the socket layer is the usual
//! [`NetStack`] injection (so the router runs unchanged over simulated
//! kernel sockets or the application-level TCP stack, with faults
//! injected by `eveth_simos::hub`).
//!
//! Per batch of pipelined client commands:
//!
//! 1. every complete command is parsed ([`CommandParser`]) and routed by
//!    key hash on the current [`HashRing`] snapshot; a multi-key
//!    `get`/`gets` is split per key so each key is answered by its own
//!    shard, and the parts are stitched back into one response (VALUE
//!    runs in key order under a single `END`) before the client sees it;
//! 2. commands are re-encoded ([`Command::encode_into`]) into one wire
//!    buffer per backend and shipped with one send each (pipelining is
//!    preserved end-to-end);
//! 3. replies are fanned back in: one [`choose`] over every pending
//!    backend's readiness plus a timeout branch; response bytes are
//!    framed per command by [`ReplyFramer`] and forwarded to the client
//!    *verbatim* — the router never re-encodes a backend reply;
//! 4. the client gets one coalesced vectored send, replies in command
//!    order.
//!
//! ## Hot-key replication
//!
//! Keys matching [`RouterConfig::hot_prefix`] (all keys when `None`)
//! are replicated when `replication > 1`: a write fans out to the key's
//! R ring successors and is acknowledged to the client only when *every*
//! replica has answered — so an acked write survives the crash of any
//! R−1 replicas. A read goes to the primary and fails over (crash,
//! timeout) or falls back (miss) to the next replica; a hit found on a
//! fallback replica is written back to the replicas that missed
//! (read-repair, a `noreply` set bounded by
//! [`RouterConfig::repair_ttl`]) so the hot key converges.
//!
//! Only *state-independent* writes fan out — the verbs whose row of the
//! protocol's verb table ([`VERBS`](eveth_kv::protocol::VERBS)) sets
//! `fanout`, where the reason each other write is held back is stated
//! too. A conditional write goes to the key's primary only; the
//! trade-off is that it is not crash-durable until a later replicated
//! write or read-repair copies it — replication's zero-loss guarantee
//! covers the fanned-out commands.
//!
//! ## Failure semantics
//!
//! A backend that refuses connections, resets, times out or sends
//! garbage is dropped from the session's connection pool for the batch;
//! commands that have no live replica left answer `SERVER_ERROR backend
//! unavailable`. Replication only masks failures for replicated keys —
//! a non-replicated key's shard being down is an error the client sees,
//! exactly like memcached behind a routing proxy.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use eveth_core::event::{choose, readiness_evt, sync, timeout_evt, Signal};
use eveth_core::net::{send_all, Conn, Endpoint, NetError, NetStack};
use eveth_core::reactor::Interest;
use eveth_core::service::{ReplyHandle, Server, ServerConfig, Service, Step};
use eveth_core::syscall::sys_time;
use eveth_core::telemetry::metrics::Counter;
use eveth_core::telemetry::Telemetry;
use eveth_core::time::Nanos;
use eveth_core::{loop_m, map_m, Loop, ThreadM};
use eveth_kv::client::{Framed, ReplyFramer};
use eveth_kv::protocol::{wire, Command, CommandParser, Reply, StoreMode};
use parking_lot::Mutex;

use crate::ring::HashRing;

/// Router tunables.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listening port.
    pub port: u16,
    /// Initial ring membership (backend KV endpoints).
    pub backends: Vec<Endpoint>,
    /// Virtual nodes per backend on the ring.
    pub vnodes: usize,
    /// Replica count R for hot keys; `1` disables replication.
    pub replication: usize,
    /// Keys with this prefix are hot (replicated); `None` replicates
    /// every key when `replication > 1`.
    pub hot_prefix: Option<Vec<u8>>,
    /// Expiry (seconds, memcached `exptime` semantics) stamped on
    /// read-repair `set`s. The wire `get` that discovered the hit does
    /// not carry the entry's remaining TTL, so a repaired copy cannot
    /// inherit it; a fixed TTL keeps the repaired copy of an *expiring*
    /// hot key from living forever on the replicas — once it lapses, the
    /// next read falls back to a live replica and re-repairs if the key
    /// is still hot. `0` makes repaired copies immortal.
    pub repair_ttl: u64,
    /// Per-round backend inactivity deadline (virtual nanoseconds): a
    /// fan-in wait that stays silent this long declares every pending
    /// backend dead. `0` waits forever (crash faults still fail fast —
    /// a reset/refused connection does not need the timer).
    pub backend_timeout: Nanos,
    /// After a backend fails (refused dial, transport error, timeout),
    /// skip it for this long instead of re-dialing on every batch — a
    /// time-based circuit breaker. Without it, a partitioned backend
    /// re-stalls each batch for the transport's full connect timeout
    /// (TCP SYN backoff); with it only one probe per cooldown pays that
    /// price and everything else fails over immediately. `0` disables
    /// (every batch re-dials). A ring swap clears the breaker.
    pub backend_cooldown: Nanos,
    /// Socket receive granularity (client and backend side).
    pub recv_chunk: usize,
    /// Reap a silent client connection after this long; `0` disables.
    pub idle_timeout: Nanos,
    /// Abandon a client reply send after this long; `0` disables.
    pub send_timeout: Nanos,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            port: 11311,
            backends: Vec::new(),
            vnodes: 64,
            replication: 1,
            hot_prefix: None,
            repair_ttl: 60,
            backend_timeout: 0,
            backend_cooldown: 0,
            recv_chunk: 16 * 1024,
            idle_timeout: 0,
            send_timeout: 0,
        }
    }
}

/// Router counters (telemetry metrics cells, so they can be registered
/// into a [`Registry`](eveth_core::telemetry::metrics::Registry)).
#[derive(Debug, Default)]
pub struct RouterStats {
    /// Commands routed.
    pub commands: Counter,
    /// Client batches forwarded.
    pub batches: Counter,
    /// Writes fanned out to more than one replica.
    pub replicated_writes: Counter,
    /// Replicated reads retried on another replica (failover or miss
    /// fallback).
    pub read_retries: Counter,
    /// Read-repair sets shipped to replicas that missed.
    pub read_repairs: Counter,
    /// Backends dropped mid-batch (connect failure, transport error,
    /// timeout, protocol garbage).
    pub backend_errors: Counter,
    /// `SERVER_ERROR` replies synthesized because no live replica could
    /// answer.
    pub server_errors: Counter,
    /// Malformed client commands.
    pub protocol_errors: Counter,
}

/// State shared by every router session.
struct RouterShared {
    stack: Arc<dyn NetStack>,
    cfg: RouterConfig,
    ring: Mutex<Arc<HashRing>>,
    stats: Arc<RouterStats>,
    /// Circuit breaker: backends written off until the stored virtual
    /// time (a small linear list, like the pool — N is the ring size).
    down: Mutex<Vec<(Endpoint, Nanos)>>,
    /// The framework's reply path, handed down once by
    /// [`Service::attach_lifecycle`].
    replies: std::sync::OnceLock<ReplyHandle>,
}

impl RouterShared {
    fn ring(&self) -> Arc<HashRing> {
        Arc::clone(&self.ring.lock())
    }

    /// Is `ep` inside its failure cooldown at virtual time `now`?
    fn backend_down(&self, ep: Endpoint, now: Nanos) -> bool {
        self.cfg.backend_cooldown > 0
            && self
                .down
                .lock()
                .iter()
                .any(|&(e, until)| e == ep && now < until)
    }

    /// Starts (or refreshes) `ep`'s failure cooldown.
    fn mark_backend_down(&self, ep: Endpoint, now: Nanos) {
        if self.cfg.backend_cooldown == 0 {
            return;
        }
        let until = now.saturating_add(self.cfg.backend_cooldown);
        let mut down = self.down.lock();
        match down.iter_mut().find(|(e, _)| *e == ep) {
            Some(entry) => entry.1 = until,
            None => down.push((ep, until)),
        }
    }

    /// Is this key hot (replicated)?
    fn replicated(&self, key: &[u8]) -> bool {
        self.cfg.replication > 1
            && self
                .cfg
                .hot_prefix
                .as_ref()
                .is_none_or(|p| key.starts_with(p))
    }

    /// Sends the assembled client reply on the framework's reply path.
    fn send_client(&self, conn: &Arc<dyn Conn>, bufs: Vec<Bytes>) -> ThreadM<Result<(), NetError>> {
        self.replies
            .get()
            .expect("Server::new attaches the reply handle")
            .send_vectored(conn, bufs)
    }
}

/// Per-session pool of backend connections, lazily established and
/// dropped on failure. A `Vec` keyed by endpoint: N is small and linear
/// scans keep iteration order deterministic.
type Pool = Vec<(Endpoint, Arc<dyn Conn>)>;

fn pool_get(pool: &Mutex<Pool>, ep: Endpoint) -> Option<Arc<dyn Conn>> {
    pool.lock()
        .iter()
        .find(|(e, _)| *e == ep)
        .map(|(_, c)| Arc::clone(c))
}

fn pool_remove(pool: &Mutex<Pool>, ep: Endpoint) {
    pool.lock().retain(|(e, _)| *e != ep);
}

/// Per-client-session state: the incremental command parser plus the
/// backend connection pool.
pub struct RouterSession {
    parser: CommandParser,
    pool: Arc<Mutex<Pool>>,
}

impl fmt::Debug for RouterSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RouterSession(backends={})", self.pool.lock().len())
    }
}

/// What each client command is waiting for.
enum SlotState {
    /// Reply bytes ready to forward.
    Ready(Vec<Bytes>),
    /// A plain forward: the next framed reply from its backend queue.
    AwaitOne,
    /// A replicated write: acked to the client only when every replica
    /// answered; the primary's reply bytes are the ones forwarded.
    AwaitWrite {
        pending: usize,
        failed: bool,
        bytes: Option<Vec<Bytes>>,
    },
    /// A replicated read working down its replica list.
    AwaitRead {
        /// The command's canonical wire bytes (re-sent on each retry).
        wire: Bytes,
        /// Replica endpoints, primary first.
        tries: Vec<Endpoint>,
        /// Next replica to consult.
        next: usize,
        /// Live replicas that answered a miss — read-repair targets if a
        /// later replica hits.
        missed_live: Vec<Endpoint>,
    },
    /// Head of a split multi-key `get`/`gets`: the next `parts` slots
    /// are its per-key sub-reads, stitched into one response (VALUE runs
    /// concatenated in key order, one final `END`) at reply time.
    MultiHead {
        /// How many sub-read slots follow this one.
        parts: usize,
    },
}

/// Mutable state of one batch while its rounds run.
struct BatchState {
    slots: Vec<SlotState>,
    /// Scheduled read-repairs: `noreply` sets shipped after the reads
    /// settle.
    repairs: Vec<(Endpoint, Command)>,
}

/// What a backend owes us for one queued job.
#[derive(Clone, Copy)]
enum Role {
    /// Reply forwarded verbatim to the client.
    Deliver,
    /// Replicated-write primary: ack + keep the bytes.
    AckPrimary,
    /// Replicated-write secondary: ack only.
    Ack,
    /// One try of a replicated read.
    Read,
}

/// One fan-out round: per-backend wire bytes plus the in-order queue of
/// jobs whose replies come back on that connection.
struct Round {
    eps: Vec<Endpoint>,
    wires: Vec<Vec<u8>>,
    queues: Vec<VecDeque<(usize, Role)>>,
}

impl Round {
    fn new() -> Round {
        Round {
            eps: Vec::new(),
            wires: Vec::new(),
            queues: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.eps.is_empty()
    }

    /// Index of `ep`'s lane, adding one on first use (first-use order is
    /// the deterministic send order).
    fn lane(&mut self, ep: Endpoint) -> usize {
        if let Some(i) = self.eps.iter().position(|&e| e == ep) {
            return i;
        }
        self.eps.push(ep);
        self.wires.push(Vec::new());
        self.queues.push(VecDeque::new());
        self.eps.len() - 1
    }
}

/// The `SERVER_ERROR` reply synthesized when no live replica can answer.
fn server_error_bytes() -> Vec<Bytes> {
    let mut out = Vec::new();
    Reply::ServerError("backend unavailable").encode_into(&mut out);
    vec![Bytes::from(out)]
}

fn closing_is_error(r: &Reply) -> bool {
    matches!(
        r,
        Reply::Error | Reply::ClientError(_) | Reply::ServerError(_)
    )
}

/// Folds one ack (or failure) into a replicated-write slot; finalizes it
/// once every replica has been heard from (or written off).
fn write_ack(
    slots: &mut [SlotState],
    stats: &RouterStats,
    slot: usize,
    ok_bytes: Option<Vec<Bytes>>,
    errored: bool,
) {
    if let SlotState::AwaitWrite {
        pending,
        failed,
        bytes,
    } = &mut slots[slot]
    {
        *pending -= 1;
        *failed |= errored;
        if ok_bytes.is_some() {
            *bytes = ok_bytes;
        }
        if *pending == 0 {
            let done = if *failed || bytes.is_none() {
                stats.server_errors.incr();
                server_error_bytes()
            } else {
                bytes.take().expect("primary bytes present")
            };
            slots[slot] = SlotState::Ready(done);
        }
    }
}

/// Folds one replicated-read attempt: `framed` is the backend's framed
/// response, or `None` if the backend failed. A hit (or any non-`END`
/// closing) is forwarded and schedules read-repair for the live replicas
/// that missed; a miss advances to the next replica; running out of
/// replicas forwards the final miss or synthesizes `SERVER_ERROR`.
fn read_result(
    slots: &mut [SlotState],
    repairs: &mut Vec<(Endpoint, Command)>,
    shared: &RouterShared,
    slot: usize,
    ep: Endpoint,
    framed: Option<Framed>,
) {
    if let SlotState::AwaitRead {
        tries,
        next,
        missed_live,
        ..
    } = &mut slots[slot]
    {
        match framed {
            Some(f) if f.values > 0 || !matches!(f.closing, Reply::End) => {
                if f.values > 0 {
                    if let Some(Reply::Value {
                        key, flags, data, ..
                    }) = f.first_value
                    {
                        for target in missed_live.drain(..) {
                            shared.stats.read_repairs.incr();
                            repairs.push((
                                target,
                                Command::Store {
                                    mode: StoreMode::Set,
                                    key: key.clone(),
                                    flags,
                                    exptime: shared.cfg.repair_ttl,
                                    value: data.clone(),
                                    noreply: true,
                                },
                            ));
                        }
                    }
                }
                slots[slot] = SlotState::Ready(f.bytes);
            }
            Some(f) => {
                missed_live.push(ep);
                *next += 1;
                if *next >= tries.len() {
                    slots[slot] = SlotState::Ready(f.bytes);
                }
            }
            None => {
                *next += 1;
                if *next >= tries.len() {
                    shared.stats.server_errors.incr();
                    slots[slot] = SlotState::Ready(server_error_bytes());
                }
            }
        }
    }
}

/// Resolves one job with its backend's framed response.
fn resolve_ok(st: &mut BatchState, shared: &RouterShared, slot: usize, role: Role, f: Framed) {
    let BatchState { slots, .. } = st;
    match role {
        Role::Deliver => slots[slot] = SlotState::Ready(f.bytes),
        Role::AckPrimary => {
            let errored = closing_is_error(&f.closing);
            write_ack(slots, &shared.stats, slot, Some(f.bytes), errored);
        }
        Role::Ack => {
            let errored = closing_is_error(&f.closing);
            write_ack(slots, &shared.stats, slot, None, errored);
        }
        Role::Read => {
            // `ep` only matters for miss bookkeeping; resolve_ok callers
            // pass it through read_result directly.
            unreachable!("Read jobs resolve through read_result")
        }
    }
}

/// Resolves one job whose backend failed.
fn resolve_fail(st: &mut BatchState, shared: &RouterShared, slot: usize, role: Role, ep: Endpoint) {
    let BatchState { slots, repairs } = st;
    match role {
        Role::Deliver => {
            shared.stats.server_errors.incr();
            slots[slot] = SlotState::Ready(server_error_bytes());
        }
        Role::AckPrimary | Role::Ack => write_ack(slots, &shared.stats, slot, None, true),
        Role::Read => read_result(slots, repairs, shared, slot, ep, None),
    }
}

/// Built once per batch from the parsed commands and a ring snapshot.
struct Plan {
    state: BatchState,
    first: Round,
    quit: bool,
}

/// Routes one single-key read (a whole `get`/`gets`, or one key split
/// out of a multi-key one): a replicated key starts a failover-capable
/// replica walk, anything else forwards to the key's shard.
fn route_read(
    shared: &RouterShared,
    ring: &HashRing,
    round: &mut Round,
    slots: &mut Vec<SlotState>,
    cmd: &Command,
) {
    let key = cmd.key().expect("reads carry a key");
    if shared.replicated(key) {
        let tries = ring.replicas(key, shared.cfg.replication);
        let mut wire = Vec::new();
        cmd.encode_into(&mut wire);
        let lane = round.lane(tries[0]);
        round.wires[lane].extend_from_slice(&wire);
        round.queues[lane].push_back((slots.len(), Role::Read));
        slots.push(SlotState::AwaitRead {
            wire: Bytes::from(wire),
            tries,
            next: 0,
            missed_live: Vec::new(),
        });
    } else {
        let ep = ring.primary(key);
        let lane = round.lane(ep);
        cmd.encode_into(&mut round.wires[lane]);
        round.queues[lane].push_back((slots.len(), Role::Deliver));
        slots.push(SlotState::AwaitOne);
    }
}

/// Routes a batch of commands: one slot per reply the client expects (in
/// command order), grouped into per-backend lanes for round 0.
fn build_plan(shared: &RouterShared, ring: &HashRing, cmds: Vec<Command>) -> Plan {
    let mut slots = Vec::new();
    let mut round = Round::new();
    let mut quit = false;
    for cmd in cmds {
        shared.stats.commands.incr();
        if cmd == Command::Quit {
            // Honour quit without forwarding it: backends stay pooled for
            // other sessions; the framework closes the client side.
            quit = true;
            break;
        }
        // A multi-key get/gets is split per key so every key is answered
        // by the shard that owns it — routing the whole command by its
        // first key would turn other shards' keys into spurious misses.
        // The parts are stitched back into one response at reply time.
        if let Command::Get { keys, with_cas } = &cmd {
            if keys.len() > 1 {
                slots.push(SlotState::MultiHead { parts: keys.len() });
                for key in keys {
                    let sub = Command::Get {
                        keys: vec![key.clone()],
                        with_cas: *with_cas,
                    };
                    route_read(shared, ring, &mut round, &mut slots, &sub);
                }
                continue;
            }
        }
        let noreply = cmd.noreply();
        let verb = cmd.verb().info();
        match cmd.key() {
            None => {
                // Keyless commands (stats, version) go to the first ring
                // member: per-node introspection through the router.
                let lane = round.lane(ring.nodes()[0]);
                cmd.encode_into(&mut round.wires[lane]);
                round.queues[lane].push_back((slots.len(), Role::Deliver));
                slots.push(SlotState::AwaitOne);
            }
            Some(key) if shared.replicated(key) && verb.fanout => {
                let eps = ring.replicas(key, shared.cfg.replication);
                if eps.len() > 1 {
                    shared.stats.replicated_writes.incr();
                }
                for (i, &ep) in eps.iter().enumerate() {
                    let lane = round.lane(ep);
                    cmd.encode_into(&mut round.wires[lane]);
                    if !noreply {
                        let role = if i == 0 { Role::AckPrimary } else { Role::Ack };
                        round.queues[lane].push_back((slots.len(), role));
                    }
                }
                if noreply {
                    slots.push(SlotState::Ready(Vec::new()));
                } else {
                    slots.push(SlotState::AwaitWrite {
                        pending: eps.len(),
                        failed: false,
                        bytes: None,
                    });
                }
            }
            Some(key) if shared.replicated(key) && !verb.write => {
                route_read(shared, ring, &mut round, &mut slots, &cmd);
            }
            Some(key) => {
                // Non-replicated keys, plus conditional writes on
                // replicated ones (the verb table's `fanout` column): the
                // key's primary — `ring.primary` is `replicas(key, r)[0]`.
                let ep = ring.primary(key);
                let lane = round.lane(ep);
                cmd.encode_into(&mut round.wires[lane]);
                if noreply {
                    slots.push(SlotState::Ready(Vec::new()));
                } else {
                    round.queues[lane].push_back((slots.len(), Role::Deliver));
                    slots.push(SlotState::AwaitOne);
                }
            }
        }
    }
    Plan {
        state: BatchState {
            slots,
            repairs: Vec::new(),
        },
        first: round,
        quit,
    }
}

/// Ensures a pooled connection to `ep`, dialing on first use. A backend
/// inside its failure cooldown is not dialed at all — the lane fails
/// immediately and replicated reads fall straight over.
fn ensure_conn(
    shared: &Arc<RouterShared>,
    pool: &Arc<Mutex<Pool>>,
    ep: Endpoint,
    now: Nanos,
) -> ThreadM<Option<Arc<dyn Conn>>> {
    if let Some(conn) = pool_get(pool, ep) {
        return ThreadM::pure(Some(conn));
    }
    if shared.backend_down(ep, now) {
        return ThreadM::pure(None);
    }
    let shared = Arc::clone(shared);
    let pool = Arc::clone(pool);
    shared.stack.connect(ep).map(move |dialed| match dialed {
        Ok(conn) => {
            pool.lock().push((ep, Arc::clone(&conn)));
            Some(conn)
        }
        Err(_) => {
            shared.stats.backend_errors.incr();
            shared.mark_backend_down(ep, now);
            None
        }
    })
}

/// What woke the fan-in `choose`.
enum Wake {
    Ready(usize),
    Timeout,
}

/// One pending backend during fan-in.
struct PendingEp {
    ep: Endpoint,
    conn: Arc<dyn Conn>,
    framer: ReplyFramer,
    jobs: VecDeque<(usize, Role)>,
}

/// Fails everything a dead backend still owes and evicts it from the
/// pool.
fn fail_pending(
    shared: &RouterShared,
    pool: &Mutex<Pool>,
    st: &Mutex<BatchState>,
    p: &mut PendingEp,
    now: Nanos,
) {
    shared.stats.backend_errors.incr();
    shared.mark_backend_down(p.ep, now);
    pool_remove(pool, p.ep);
    let mut guard = st.lock();
    while let Some((slot, role)) = p.jobs.pop_front() {
        resolve_fail(&mut guard, shared, slot, role, p.ep);
    }
}

/// Applies every framed response already buffered for `p`; returns false
/// if the backend sent garbage (protocol error → treated as dead).
fn drain_framed(
    shared: &RouterShared,
    st: &Mutex<BatchState>,
    p: &mut PendingEp,
    chunk: Bytes,
) -> bool {
    if p.framer.feed(chunk).is_err() {
        return false;
    }
    let mut guard = st.lock();
    while let Some(framed) = p.framer.pop() {
        let Some((slot, role)) = p.jobs.pop_front() else {
            // More replies than questions: protocol violation.
            return false;
        };
        match role {
            Role::Read => {
                let BatchState { slots, repairs } = &mut *guard;
                read_result(slots, repairs, shared, slot, p.ep, Some(framed));
            }
            other => resolve_ok(&mut guard, shared, slot, other, framed),
        }
    }
    true
}

/// Folds one lane's receive result into the batch: drains framed
/// replies on success, writes the backend off on EOF/error/garbage.
fn settle_lane(
    shared: Arc<RouterShared>,
    pool: Arc<Mutex<Pool>>,
    st: Arc<Mutex<BatchState>>,
    mut pending: Vec<PendingEp>,
    i: usize,
    got: Result<Bytes, NetError>,
    now: Nanos,
) -> ThreadM<Loop<Vec<PendingEp>, ()>> {
    let healthy = match got {
        Ok(chunk) if !chunk.is_empty() => drain_framed(&shared, &st, &mut pending[i], chunk),
        _ => false,
    };
    if healthy {
        ThreadM::pure(Loop::Continue(pending))
    } else {
        fail_pending(&shared, &pool, &st, &mut pending[i], now);
        let dead = pending.swap_remove(i);
        // swap_remove perturbs lane order only among still-pending
        // lanes of one batch — acceptable, and it keeps removal O(1).
        dead.conn.close().map(move |()| Loop::Continue(pending))
    }
}

/// The fan-in wait: one `choose` over every pending backend's readiness
/// plus the inactivity timeout, until every job is resolved.
fn fan_in(
    shared: Arc<RouterShared>,
    pool: Arc<Mutex<Pool>>,
    st: Arc<Mutex<BatchState>>,
    pending: Vec<PendingEp>,
    now: Nanos,
) -> ThreadM<()> {
    loop_m(pending, move |mut pending| {
        pending.retain(|p| !p.jobs.is_empty());
        if pending.is_empty() {
            return ThreadM::pure(Loop::Break(()));
        }
        let shared = Arc::clone(&shared);
        let pool = Arc::clone(&pool);
        let st = Arc::clone(&st);
        // Compose the wait: declaration order is the deterministic
        // tie-break, so lane order (first-use order) decides races.
        let mut evts = Vec::with_capacity(pending.len() + 1);
        for (i, p) in pending.iter().enumerate() {
            let Some(fd) = p.conn.readiness_fd() else {
                // No descriptor, no way to wait on the lane: write the
                // backend off like any other transport failure.
                let err = NetError::Protocol("backend exposes no readiness descriptor".into());
                return settle_lane(shared, pool, st, pending, i, Err(err), now);
            };
            evts.push(readiness_evt(&fd, Interest::Read).wrap(move |()| Wake::Ready(i)));
        }
        if shared.cfg.backend_timeout > 0 {
            evts.push(timeout_evt(shared.cfg.backend_timeout).wrap(|()| Wake::Timeout));
        }
        sync(choose(evts)).bind(move |wake| match wake {
            Wake::Timeout => {
                // Every still-pending backend is written off at once; the
                // deadline is per-wait inactivity, not per-byte pacing.
                let mut conns = Vec::with_capacity(pending.len());
                for p in &mut pending {
                    fail_pending(&shared, &pool, &st, p, now);
                    conns.push(Arc::clone(&p.conn));
                }
                map_m(conns.len(), move |i| conns[i].close()).map(|_| Loop::Break(()))
            }
            Wake::Ready(i) => {
                let conn = Arc::clone(&pending[i].conn);
                let chunk_max = shared.cfg.recv_chunk;
                conn.recv(chunk_max)
                    .bind(move |got| settle_lane(shared, pool, st, pending, i, got, now))
            }
        })
    })
}

/// Runs one round: connect + send per lane (sequential, lane order),
/// then fan replies back in.
fn run_round(
    shared: Arc<RouterShared>,
    pool: Arc<Mutex<Pool>>,
    st: Arc<Mutex<BatchState>>,
    round: Round,
) -> ThreadM<()> {
    let Round { eps, wires, queues } = round;
    let wires: Vec<Bytes> = wires.into_iter().map(Bytes::from).collect();
    let lanes = Arc::new(Mutex::new(
        eps.iter()
            .copied()
            .zip(wires)
            .zip(queues)
            .map(|((ep, wire), jobs)| Some((ep, wire, jobs)))
            .collect::<Vec<_>>(),
    ));
    let n = lanes.lock().len();
    let sh = Arc::clone(&shared);
    let pl = Arc::clone(&pool);
    let stt = Arc::clone(&st);
    let dial_lanes = Arc::clone(&lanes);
    // One timestamp for the whole round: every cooldown decision in it
    // (skip-or-dial, mark-on-failure) keys off the round's start, which
    // is deterministic and costs a single clock read.
    sys_time().bind(move |now| {
        map_m(n, move |i| {
            let (ep, wire, jobs) = dial_lanes.lock()[i].take().expect("lane visited once");
            let shared = Arc::clone(&sh);
            let pool = Arc::clone(&pl);
            let st = Arc::clone(&stt);
            ensure_conn(&shared, &pool, ep, now).bind(move |conn| {
                let fail_all = move |shared: Arc<RouterShared>,
                                     st: Arc<Mutex<BatchState>>,
                                     jobs: VecDeque<(usize, Role)>| {
                    let mut guard = st.lock();
                    for (slot, role) in jobs {
                        resolve_fail(&mut guard, &shared, slot, role, ep);
                    }
                };
                match conn {
                    None => {
                        fail_all(shared, st, jobs);
                        ThreadM::pure(None)
                    }
                    Some(conn) => send_all(&conn, wire).bind(move |sent| match sent {
                        Ok(()) => ThreadM::pure(Some(PendingEp {
                            ep,
                            conn,
                            framer: ReplyFramer::new(),
                            jobs,
                        })),
                        Err(_) => {
                            shared.stats.backend_errors.incr();
                            shared.mark_backend_down(ep, now);
                            pool_remove(&pool, ep);
                            fail_all(shared, st, jobs);
                            conn.close().map(|()| None)
                        }
                    }),
                }
            })
        })
        .bind(move |pending: Vec<Option<PendingEp>>| {
            fan_in(
                shared,
                pool,
                st,
                pending.into_iter().flatten().collect(),
                now,
            )
        })
    })
}

/// The next round owed after `run_round`: retry lanes for replicated
/// reads still working down their replica lists, then one final
/// fire-and-forget lane set for scheduled read-repairs.
fn build_next_round(shared: &RouterShared, st: &Mutex<BatchState>) -> Option<Round> {
    let mut guard = st.lock();
    let mut round = Round::new();
    for (i, slot) in guard.slots.iter().enumerate() {
        if let SlotState::AwaitRead {
            wire, tries, next, ..
        } = slot
        {
            shared.stats.read_retries.incr();
            let lane = round.lane(tries[*next]);
            round.wires[lane].extend_from_slice(wire);
            round.queues[lane].push_back((i, Role::Read));
        }
    }
    if round.is_empty() {
        // Reads settled: ship the read-repairs (noreply — no jobs, the
        // fan-in has nothing to wait for).
        for (ep, cmd) in guard.repairs.drain(..) {
            let lane = round.lane(ep);
            cmd.encode_into(&mut round.wires[lane]);
        }
    }
    (!round.is_empty()).then_some(round)
}

/// Runs rounds until every slot is ready and all repairs are shipped.
fn execute_batch(
    shared: Arc<RouterShared>,
    pool: Arc<Mutex<Pool>>,
    st: Arc<Mutex<BatchState>>,
    first: Round,
) -> ThreadM<()> {
    loop_m(Some(first), move |round| {
        let Some(round) = round else {
            return ThreadM::pure(Loop::Break(()));
        };
        let shared = Arc::clone(&shared);
        let pool = Arc::clone(&pool);
        let st = Arc::clone(&st);
        let shared2 = Arc::clone(&shared);
        let st2 = Arc::clone(&st);
        run_round(shared, pool, st, round)
            .map(move |()| Loop::Continue(build_next_round(&shared2, &st2)))
    })
}

/// The routing [`Service`]: thin glue between the framework's session
/// lifecycle and the batch machinery above.
pub struct RouterService {
    shared: Arc<RouterShared>,
}

impl Service for RouterService {
    type Session = RouterSession;

    fn open(&self, _conn: &Arc<dyn Conn>) -> RouterSession {
        RouterSession {
            parser: CommandParser::new(),
            pool: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn on_chunk(
        &self,
        conn: Arc<dyn Conn>,
        session: RouterSession,
        chunk: Bytes,
    ) -> ThreadM<Step<RouterSession>> {
        let RouterSession { mut parser, pool } = session;
        let shared = Arc::clone(&self.shared);
        // Parse everything buffered (pure — routing needs no store access).
        let mut cmds = Vec::new();
        let mut trailing: Option<Reply> = None;
        let mut next = parser.feed_bytes(chunk);
        loop {
            match next {
                Err(e) => {
                    shared.stats.protocol_errors.incr();
                    trailing = Some(e.to_reply());
                    break;
                }
                Ok(None) => break,
                Ok(Some(cmd)) => {
                    cmds.push(cmd);
                    next = parser.try_next();
                }
            }
        }
        if !cmds.is_empty() {
            shared.stats.batches.incr();
        }
        let ring = shared.ring();
        let Plan { state, first, quit } = build_plan(&shared, &ring, cmds);
        let st = Arc::new(Mutex::new(state));
        let close_after = quit || trailing.is_some();
        let shared2 = Arc::clone(&shared);
        let st2 = Arc::clone(&st);
        let pool2 = Arc::clone(&pool);
        execute_batch(shared, Arc::clone(&pool), st, first).bind(move |()| {
            let mut segs: Vec<Bytes> = Vec::new();
            let drained: Vec<SlotState> = st2.lock().slots.drain(..).collect();
            let mut slots = drained.into_iter();
            while let Some(slot) = slots.next() {
                match slot {
                    SlotState::Ready(bytes) => segs.extend(bytes),
                    // A split multi-key get: the next `parts` slots each
                    // hold one sub-get's reply frames. Stitch them back
                    // into one response by dropping each part's last
                    // frame, its END, and emitting a single final END —
                    // sub-slots were pushed in key order, and a single
                    // node answers VALUEs in key order too, so the
                    // stitched bytes match the unsplit reply. Any part
                    // that did not end in END (e.g. SERVER_ERROR from an
                    // exhausted shard) fails the whole command: a routed
                    // miss must never masquerade as a store miss.
                    SlotState::MultiHead { parts } => {
                        let mut body: Vec<Bytes> = Vec::new();
                        let mut dead = false;
                        for _ in 0..parts {
                            match slots.next() {
                                Some(SlotState::Ready(mut frames))
                                    if frames.last().is_some_and(|f| f[..] == *wire::END) =>
                                {
                                    frames.pop();
                                    body.extend(frames);
                                }
                                _ => dead = true,
                            }
                        }
                        if dead {
                            segs.extend(server_error_bytes());
                        } else {
                            segs.extend(body);
                            segs.push(Bytes::from_static(wire::END));
                        }
                    }
                    // Unresolvable states were finalized by the rounds;
                    // anything else is a routing bug — answer SERVER_ERROR
                    // rather than desynchronize the client.
                    _ => segs.extend(server_error_bytes()),
                }
            }
            if let Some(reply) = trailing {
                let mut out = Vec::new();
                reply.encode_into(&mut out);
                segs.push(Bytes::from(out));
            }
            let sent = if segs.is_empty() {
                ThreadM::pure(Ok(()))
            } else {
                shared2.send_client(&conn, segs)
            };
            sent.bind(move |sent| {
                if sent.is_err() || close_after {
                    close_pool(pool2).map(|()| Step::Close)
                } else {
                    ThreadM::pure(Step::Continue(RouterSession {
                        parser,
                        pool: pool2,
                    }))
                }
            })
        })
    }

    fn attach_lifecycle(&self, replies: &ReplyHandle) {
        let _ = self.shared.replies.set(replies.clone());
    }
}

impl fmt::Debug for RouterService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RouterService(nodes={}, r={})",
            self.shared.ring().nodes().len(),
            self.shared.cfg.replication
        )
    }
}

/// Closes every pooled backend connection (clean client quit / error
/// paths; framework-initiated session ends drop the pool, whose
/// connections the backends reap by their own idle/shutdown policies).
fn close_pool(pool: Arc<Mutex<Pool>>) -> ThreadM<()> {
    let conns: Vec<Arc<dyn Conn>> = pool.lock().drain(..).map(|(_, c)| c).collect();
    map_m(conns.len(), move |i| conns[i].close()).map(|_| ())
}

/// The cluster router server: [`RouterService`] hosted on the generic
/// event-native [`Server`].
pub struct Router {
    server: Arc<Server<RouterService>>,
    shared: Arc<RouterShared>,
}

impl Router {
    /// Builds a router over `stack`, dialing backends through the same
    /// stack.
    ///
    /// # Panics
    ///
    /// If `cfg.backends` is empty (the ring would be meaningless).
    pub fn new(stack: Arc<dyn NetStack>, cfg: RouterConfig) -> Arc<Router> {
        let ring = HashRing::new(cfg.backends.clone(), cfg.vnodes);
        let shared = Arc::new(RouterShared {
            stack: Arc::clone(&stack),
            ring: Mutex::new(Arc::new(ring)),
            stats: Arc::new(RouterStats::default()),
            down: Mutex::new(Vec::new()),
            replies: std::sync::OnceLock::new(),
            cfg: cfg.clone(),
        });
        let server = Server::new(
            stack,
            RouterService {
                shared: Arc::clone(&shared),
            },
            ServerConfig {
                port: cfg.port,
                recv_chunk: cfg.recv_chunk,
                idle_timeout: cfg.idle_timeout,
                send_timeout: cfg.send_timeout,
            },
        );
        Arc::new(Router { server, shared })
    }

    /// Swaps ring membership mid-run (rebalance): sessions pick up the
    /// new ring at their next batch; pooled connections to departed
    /// backends are simply never used again. Clears the failure
    /// cooldowns — new membership is the operator's word that the
    /// survivors are worth dialing again.
    pub fn set_ring(&self, backends: Vec<Endpoint>) {
        let ring = HashRing::new(backends, self.shared.cfg.vnodes);
        *self.shared.ring.lock() = Arc::new(ring);
        self.shared.down.lock().clear();
    }

    /// The current ring snapshot.
    pub fn ring(&self) -> Arc<HashRing> {
        self.shared.ring()
    }

    /// Router counters.
    pub fn stats(&self) -> &Arc<RouterStats> {
        &self.shared.stats
    }

    /// The generic server hosting the service (lifecycle counters,
    /// active-session count).
    pub fn server(&self) -> &Arc<Server<RouterService>> {
        &self.server
    }

    /// Registers the router's counters and the framework's lifecycle
    /// counters into an attached telemetry hub. Call before spawning
    /// [`Router::run`]. First attach wins; later calls change nothing.
    pub fn attach_telemetry(&self, telemetry: &Arc<Telemetry>) {
        if !self.server.attach_telemetry(telemetry, "router") {
            return;
        }
        let reg = telemetry.registry();
        let s = &self.shared.stats;
        reg.register_counter("eveth_router_commands_total", &[], &s.commands);
        reg.register_counter("eveth_router_batches_total", &[], &s.batches);
        reg.register_counter(
            "eveth_router_replicated_writes_total",
            &[],
            &s.replicated_writes,
        );
        reg.register_counter("eveth_router_read_retries_total", &[], &s.read_retries);
        reg.register_counter("eveth_router_read_repairs_total", &[], &s.read_repairs);
        reg.register_counter("eveth_router_backend_errors_total", &[], &s.backend_errors);
        reg.register_counter("eveth_router_server_errors_total", &[], &s.server_errors);
        reg.register_counter(
            "eveth_router_protocol_errors_total",
            &[],
            &s.protocol_errors,
        );
    }

    /// Initiates graceful shutdown (see [`Server::shutdown`]).
    pub fn shutdown(&self) {
        self.server.shutdown();
    }

    /// The shutdown broadcast.
    pub fn shutdown_signal(&self) -> &Signal {
        self.server.shutdown_signal()
    }

    /// Fires once shutdown was requested and the last session ended.
    pub fn drained_signal(&self) -> &Signal {
        self.server.drained_signal()
    }

    /// The main router thread; spawn it on a runtime.
    pub fn run(self: &Arc<Self>) -> ThreadM<()> {
        self.server.run()
    }
}

impl fmt::Debug for Router {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Router(port={}, nodes={}, r={})",
            self.shared.cfg.port,
            self.shared.ring().nodes().len(),
            self.shared.cfg.replication
        )
    }
}
