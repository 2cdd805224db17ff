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
//! 2. each command is re-encoded ([`Command::encode_into`]) onto its
//!    backend's *lane* — the backend's wire bytes plus the in-order queue
//!    of jobs its replies answer — and every lane is shipped with one send
//!    (pipelining is preserved end-to-end);
//! 3. replies are fanned back in: one [`choose`] over every pending
//!    backend's readiness plus a timeout branch; response bytes are
//!    framed per command by [`ReplyFramer`] and forwarded to the client
//!    *verbatim* — the router never re-encodes a backend reply;
//! 4. the client gets one coalesced vectored send, replies in command
//!    order.
//!
//! ## The replication protocol, stated once
//!
//! Every job a lane carries has a role, and every outcome of a job — a
//! framed reply, or `None` when its backend is written off — goes through
//! one resolve step, which settles the job's slot:
//!
//! | role | reply | written off |
//! |---|---|---|
//! | deliver | forwarded | `SERVER_ERROR` |
//! | replicated write (primary or secondary) | ack; the last ack forwards the primary's bytes | failed ack |
//! | replicated read | hit: forwarded, repairs the replicas that missed; miss: next replica | next replica |
//!
//! Keys matching [`RouterConfig::hot_prefix`] (all keys when `None`)
//! are replicated when `replication > 1`: a write fans out to the key's
//! R ring successors and is acknowledged to the client only when *every*
//! replica has answered without error — so an acked write survives the
//! crash of any R−1 replicas. A read goes to the primary and fails over
//! (crash, timeout) or falls back (miss) to the next replica, one replica
//! per round; a hit found on a fallback replica is written back to the
//! replicas that missed (read-repair, a `noreply` set that expires after
//! `REPAIR_TTL` seconds, shipped once the reads settle) so the hot key
//! converges. A replica list that runs out forwards the last miss, or
//! `SERVER_ERROR` if the last replica failed.
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
//! garbage is *written off*, always by the same path: its error is
//! counted, its cooldown starts ([`RouterConfig::backend_cooldown`]), it
//! leaves the session's connection pool, every job it still owes
//! resolves as failed, and its connection is closed. A backend inside
//! its cooldown is not dialed; its jobs fail at once. Commands that have
//! no live replica left answer `SERVER_ERROR backend unavailable`.
//! Replication only masks failures for replicated keys — a
//! non-replicated key's shard being down is an error the client sees,
//! exactly like memcached behind a routing proxy.
//!
//! The ring's `VNODES`, `REPAIR_TTL`, the receive size `RECV_CHUNK` and
//! `IDLE_TIMEOUT` are constants; [`RouterConfig`] holds only what a
//! deployment sets.

use std::collections::VecDeque;
use std::fmt;
use std::iter;
use std::sync::Arc;

use bytes::Bytes;
use eveth_core::event::{choose, readiness_evt, sync, timeout_evt, Signal};
use eveth_core::net::{send_all, Conn, Endpoint, NetStack};
use eveth_core::reactor::Interest;
use eveth_core::service::{ReplyHandle, Server, ServerConfig, Service, Step};
use eveth_core::syscall::sys_time;
use eveth_core::telemetry::metrics::Counter;
use eveth_core::telemetry::Telemetry;
use eveth_core::time::Nanos;
use eveth_core::{for_each_m, loop_m, Loop, ThreadM};
use eveth_kv::client::{Framed, ReplyFramer};
use eveth_kv::protocol::{wire, Command, CommandParser, Reply, StoreMode};
use parking_lot::Mutex;

use crate::ring::HashRing;

/// Virtual nodes per backend on the ring.
const VNODES: usize = 64;

/// Expiry (seconds, memcached `exptime` semantics) stamped on read-repair
/// `set`s. The wire `get` that discovered the hit does not carry the
/// entry's remaining TTL, so a repaired copy cannot inherit it; a fixed
/// TTL keeps the repaired copy of an *expiring* hot key from living
/// forever on the replicas — once it lapses, the next read falls back to
/// a live replica and re-repairs if the key is still hot.
const REPAIR_TTL: u64 = 60;

/// Socket receive granularity, client and backend side.
const RECV_CHUNK: usize = 16 * 1024;

/// Client connections are not reaped for silence: a session ends when its
/// client closes, errs or quits.
const IDLE_TIMEOUT: Nanos = 0;

/// Router tunables.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listening port.
    pub port: u16,
    /// Initial ring membership (backend KV endpoints).
    pub backends: Vec<Endpoint>,
    /// Replica count R for hot keys; `1` disables replication.
    pub replication: usize,
    /// Keys with this prefix are hot (replicated); `None` replicates
    /// every key when `replication > 1`.
    pub hot_prefix: Option<Vec<u8>>,
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
    /// Abandon a client reply send after this long; `0` disables.
    pub send_timeout: Nanos,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            port: 11311,
            backends: Vec::new(),
            replication: 1,
            hot_prefix: None,
            backend_timeout: 0,
            backend_cooldown: 0,
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
}

/// Per-session pool of backend connections, lazily established and
/// dropped on failure. A `Vec` keyed by endpoint: N is small and linear
/// scans keep iteration order deterministic.
type Pool = Vec<(Endpoint, Arc<dyn Conn>)>;

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
        /// The command, encoded again for each retry.
        cmd: Command,
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

/// One queued job: the slot its reply settles, and how.
type Job = (usize, Role);

/// The `SERVER_ERROR` reply synthesized when no live replica can answer.
fn server_error_bytes() -> Vec<Bytes> {
    let mut out = Vec::new();
    Reply::ServerError("backend unavailable").encode_into(&mut out);
    vec![Bytes::from(out)]
}

/// Mutable state of one batch while its rounds run.
struct BatchState {
    slots: Vec<SlotState>,
    /// Scheduled read-repairs: `noreply` sets shipped after the reads
    /// settle.
    repairs: Vec<(Endpoint, Command)>,
}

impl BatchState {
    /// The one resolve step: folds a job's outcome into its slot.
    /// `framed` is the reply `ep` sent for it, or `None` if `ep` was
    /// written off. A slot that settles with nothing to forward answers
    /// `SERVER_ERROR`.
    fn resolve(&mut self, shared: &RouterShared, job: Job, ep: Endpoint, framed: Option<Framed>) {
        let (slot, role) = job;
        let BatchState { slots, repairs } = self;
        let settled = match (role, &mut slots[slot]) {
            (Role::Deliver, _) => framed.map(|f| f.bytes),
            (
                Role::AckPrimary | Role::Ack,
                SlotState::AwaitWrite {
                    pending,
                    failed,
                    bytes,
                },
            ) => {
                *pending -= 1;
                *failed |= framed.as_ref().is_none_or(|f| {
                    matches!(
                        f.closing,
                        Reply::Error | Reply::ClientError(_) | Reply::ServerError(_)
                    )
                });
                if let (Role::AckPrimary, Some(f)) = (role, framed) {
                    *bytes = Some(f.bytes);
                }
                if *pending > 0 {
                    return;
                }
                if *failed {
                    None
                } else {
                    bytes.take()
                }
            }
            (
                Role::Read,
                SlotState::AwaitRead {
                    tries,
                    next,
                    missed_live,
                    ..
                },
            ) => match framed {
                // A hit (or any closing but END) is forwarded, and copied
                // back to the live replicas that missed.
                Some(f) if f.values > 0 || !matches!(f.closing, Reply::End) => {
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
                                    exptime: REPAIR_TTL,
                                    value: data.clone(),
                                    noreply: true,
                                },
                            ));
                        }
                    }
                    Some(f.bytes)
                }
                // A miss or a failure moves on to the next replica; the
                // last replica's miss is forwarded.
                miss => {
                    if miss.is_some() {
                        missed_live.push(ep);
                    }
                    *next += 1;
                    if *next < tries.len() {
                        return;
                    }
                    miss.map(|f| f.bytes)
                }
            },
            _ => return,
        };
        slots[slot] = SlotState::Ready(settled.unwrap_or_else(|| {
            shared.stats.server_errors.incr();
            server_error_bytes()
        }));
    }

    /// The next round owed: a retry lane for every replicated read still
    /// working down its replica list, else one fire-and-forget round of
    /// the scheduled read-repairs.
    fn next_round(&mut self, shared: &RouterShared) -> Option<Round> {
        let mut round = Round::default();
        for (i, slot) in self.slots.iter().enumerate() {
            if let SlotState::AwaitRead {
                cmd, tries, next, ..
            } = slot
            {
                shared.stats.read_retries.incr();
                round.push(tries[*next], cmd, Some((i, Role::Read)));
            }
        }
        if round.0.is_empty() {
            for (ep, cmd) in self.repairs.drain(..) {
                round.push(ep, &cmd, None);
            }
        }
        (!round.0.is_empty()).then_some(round)
    }
}

/// One backend's share of a round: the wire bytes it is sent and the
/// in-order queue of jobs its replies answer.
struct Lane {
    ep: Endpoint,
    wire: Vec<u8>,
    jobs: VecDeque<Job>,
}

/// One fan-out round: a lane per backend, in first-use order (the
/// deterministic send order).
#[derive(Default)]
struct Round(Vec<Lane>);

impl Round {
    /// Encodes `cmd` onto `ep`'s lane, opening the lane on first use, and
    /// queues `job` for a command that expects a reply.
    fn push(&mut self, ep: Endpoint, cmd: &Command, job: Option<Job>) {
        let i = match self.0.iter().position(|l| l.ep == ep) {
            Some(i) => i,
            None => {
                self.0.push(Lane {
                    ep,
                    wire: Vec::new(),
                    jobs: VecDeque::new(),
                });
                self.0.len() - 1
            }
        };
        cmd.encode_into(&mut self.0[i].wire);
        self.0[i].jobs.extend(job);
    }
}

/// Routes one single-key read (a whole `get`/`gets`, or one key split
/// out of a multi-key one): a replicated key starts a failover-capable
/// replica walk, anything else forwards to the key's shard.
fn route_read(
    shared: &RouterShared,
    ring: &HashRing,
    round: &mut Round,
    slots: &mut Vec<SlotState>,
    cmd: Command,
) {
    let key = cmd.key().expect("reads carry a key");
    let slot = slots.len();
    if shared.replicated(key) {
        let tries = ring.replicas(key, shared.cfg.replication);
        round.push(tries[0], &cmd, Some((slot, Role::Read)));
        slots.push(SlotState::AwaitRead {
            cmd,
            tries,
            next: 0,
            missed_live: Vec::new(),
        });
    } else {
        round.push(ring.primary(key), &cmd, Some((slot, Role::Deliver)));
        slots.push(SlotState::AwaitOne);
    }
}

/// Routes a batch of commands: one slot per reply the client expects (in
/// command order), grouped into per-backend lanes for round 0. The flag
/// is set when the batch ends in `quit`.
fn build_plan(
    shared: &RouterShared,
    ring: &HashRing,
    cmds: Vec<Command>,
) -> (BatchState, Round, bool) {
    let mut slots = Vec::new();
    let mut round = Round::default();
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
                    route_read(shared, ring, &mut round, &mut slots, sub);
                }
                continue;
            }
        }
        let slot = slots.len();
        let reply = !cmd.noreply();
        let verb = cmd.verb().info();
        match cmd.key() {
            // Keyless commands (stats, version) go to the first ring
            // member: per-node introspection through the router.
            None => {
                round.push(ring.nodes()[0], &cmd, Some((slot, Role::Deliver)));
                slots.push(SlotState::AwaitOne);
            }
            Some(key) if shared.replicated(key) && verb.fanout => {
                let eps = ring.replicas(key, shared.cfg.replication);
                if eps.len() > 1 {
                    shared.stats.replicated_writes.incr();
                }
                for (i, &ep) in eps.iter().enumerate() {
                    let role = if i == 0 { Role::AckPrimary } else { Role::Ack };
                    round.push(ep, &cmd, reply.then_some((slot, role)));
                }
                slots.push(if reply {
                    SlotState::AwaitWrite {
                        pending: eps.len(),
                        failed: false,
                        bytes: None,
                    }
                } else {
                    SlotState::Ready(Vec::new())
                });
            }
            Some(key) if shared.replicated(key) && !verb.write => {
                route_read(shared, ring, &mut round, &mut slots, cmd);
            }
            // Non-replicated keys, plus conditional writes on replicated
            // ones (the verb table's `fanout` column): the key's primary
            // — `ring.primary` is `replicas(key, r)[0]`.
            Some(key) => {
                round.push(
                    ring.primary(key),
                    &cmd,
                    reply.then_some((slot, Role::Deliver)),
                );
                slots.push(if reply {
                    SlotState::AwaitOne
                } else {
                    SlotState::Ready(Vec::new())
                });
            }
        }
    }
    let state = BatchState {
        slots,
        repairs: Vec::new(),
    };
    (state, round, quit)
}

/// One backend whose replies the fan-in still waits for.
struct PendingEp {
    ep: Endpoint,
    conn: Arc<dyn Conn>,
    framer: ReplyFramer,
    jobs: VecDeque<Job>,
}

/// One batch in flight: what every monadic step of its rounds shares.
struct Batch {
    shared: Arc<RouterShared>,
    pool: Arc<Mutex<Pool>>,
    st: Mutex<BatchState>,
}

impl Batch {
    /// The one write-off path. For each failed backend: count the error,
    /// start its cooldown, evict it from the pool and fail the jobs it
    /// still owes; then close the connections, in order.
    fn write_off(
        &self,
        dead: impl IntoIterator<Item = (Endpoint, VecDeque<Job>, Option<Arc<dyn Conn>>)>,
        now: Nanos,
    ) -> ThreadM<()> {
        let mut conns = Vec::new();
        for (ep, jobs, conn) in dead {
            self.shared.stats.backend_errors.incr();
            self.shared.mark_backend_down(ep, now);
            self.pool.lock().retain(|(e, _)| *e != ep);
            self.fail(ep, jobs);
            conns.extend(conn);
        }
        for_each_m(conns, |conn| conn.close())
    }

    /// Resolves every job in `jobs` as failed by `ep`.
    fn fail(&self, ep: Endpoint, jobs: VecDeque<Job>) {
        let mut st = self.st.lock();
        for job in jobs {
            st.resolve(&self.shared, job, ep, None);
        }
    }

    /// Connects (a pooled connection, else a dial) and sends one lane. A
    /// backend inside its cooldown is not dialed: its jobs fail at once,
    /// so replicated reads fall straight over.
    fn send_lane(self: Arc<Self>, lane: Lane, now: Nanos) -> ThreadM<Option<PendingEp>> {
        let Lane { ep, wire, jobs } = lane;
        let pooled = self
            .pool
            .lock()
            .iter()
            .find(|(e, _)| *e == ep)
            .map(|(_, c)| Arc::clone(c));
        let dialed = match pooled {
            Some(conn) => ThreadM::pure(Ok(conn)),
            None if self.shared.backend_down(ep, now) => {
                self.fail(ep, jobs);
                return ThreadM::pure(None);
            }
            None => {
                let pool = Arc::clone(&self.pool);
                self.shared.stack.connect(ep).map(move |dialed| {
                    if let Ok(conn) = &dialed {
                        pool.lock().push((ep, Arc::clone(conn)));
                    }
                    dialed
                })
            }
        };
        dialed.bind(move |dialed| match dialed {
            Err(_) => self
                .write_off(iter::once((ep, jobs, None)), now)
                .map(|()| None),
            Ok(conn) => send_all(&conn, Bytes::from(wire)).bind(move |sent| match sent {
                Ok(()) => ThreadM::pure(Some(PendingEp {
                    ep,
                    conn,
                    framer: ReplyFramer::new(),
                    jobs,
                })),
                Err(_) => self
                    .write_off(iter::once((ep, jobs, Some(conn))), now)
                    .map(|()| None),
            }),
        })
    }

    /// Folds one lane's receive into the batch: resolves its framed
    /// replies, or writes the backend off on EOF, error or garbage.
    fn settle(
        self: Arc<Self>,
        mut pending: Vec<PendingEp>,
        i: usize,
        got: Option<Bytes>,
        now: Nanos,
    ) -> ThreadM<Loop<Vec<PendingEp>, ()>> {
        let healthy = match got {
            Some(chunk) if !chunk.is_empty() => self.drain(&mut pending[i], chunk),
            _ => false,
        };
        if healthy {
            return ThreadM::pure(Loop::Continue(pending));
        }
        // swap_remove perturbs lane order only among still-pending lanes
        // of one batch — acceptable, and it keeps removal O(1).
        let p = pending.swap_remove(i);
        self.write_off(iter::once((p.ep, p.jobs, Some(p.conn))), now)
            .map(move |()| Loop::Continue(pending))
    }

    /// Resolves every framed reply buffered for `p`; false if the backend
    /// sent garbage or more replies than it was asked for.
    fn drain(&self, p: &mut PendingEp, chunk: Bytes) -> bool {
        if p.framer.feed(chunk).is_err() {
            return false;
        }
        let mut st = self.st.lock();
        while let Some(framed) = p.framer.pop() {
            let Some(job) = p.jobs.pop_front() else {
                return false;
            };
            st.resolve(&self.shared, job, p.ep, Some(framed));
        }
        true
    }

    /// The fan-in wait: one `choose` over every pending backend's
    /// readiness plus the inactivity timeout, until every job is
    /// resolved.
    fn fan_in(self: Arc<Self>, pending: Vec<PendingEp>, now: Nanos) -> ThreadM<()> {
        loop_m(pending, move |mut pending| {
            pending.retain(|p| !p.jobs.is_empty());
            if pending.is_empty() {
                return ThreadM::pure(Loop::Break(()));
            }
            let batch = Arc::clone(&self);
            // Compose the wait: declaration order is the deterministic
            // tie-break, so lane order (first-use order) decides races.
            // `None` is the timeout.
            let mut evts = Vec::with_capacity(pending.len() + 1);
            for (i, p) in pending.iter().enumerate() {
                let Some(fd) = p.conn.readiness_fd() else {
                    // No descriptor, no way to wait on the lane: write the
                    // backend off like any other transport failure.
                    return batch.settle(pending, i, None, now);
                };
                evts.push(readiness_evt(&fd, Interest::Read).wrap(move |()| Some(i)));
            }
            let deadline = batch.shared.cfg.backend_timeout;
            if deadline > 0 {
                evts.push(timeout_evt(deadline).wrap(|()| None));
            }
            sync(choose(evts)).bind(move |wake| match wake {
                // Every still-pending backend is written off at once; the
                // deadline is per-wait inactivity, not per-byte pacing.
                None => {
                    let dead = pending.into_iter().map(|p| (p.ep, p.jobs, Some(p.conn)));
                    batch.write_off(dead, now).map(|()| Loop::Break(()))
                }
                Some(i) => {
                    let conn = Arc::clone(&pending[i].conn);
                    conn.recv(RECV_CHUNK)
                        .bind(move |got| batch.settle(pending, i, got.ok(), now))
                }
            })
        })
    }

    /// Runs one round: connect + send per lane (sequential, lane order),
    /// then fan replies back in.
    fn run_round(self: Arc<Self>, round: Round) -> ThreadM<()> {
        // One timestamp for the whole round: every cooldown decision in it
        // (skip-or-dial, mark-on-failure) keys off the round's start, which
        // is deterministic and costs a single clock read.
        sys_time().bind(move |now| {
            let lanes = round.0.into_iter();
            loop_m((lanes, Vec::new()), move |(mut lanes, mut pending)| {
                let batch = Arc::clone(&self);
                match lanes.next() {
                    None => batch.fan_in(pending, now).map(Loop::Break),
                    Some(lane) => batch.send_lane(lane, now).map(move |sent| {
                        pending.extend(sent);
                        Loop::Continue((lanes, pending))
                    }),
                }
            })
        })
    }

    /// Runs rounds until every slot is ready and all repairs are shipped.
    fn execute(self: Arc<Self>, first: Round) -> ThreadM<()> {
        loop_m(Some(first), move |round| {
            let Some(round) = round else {
                return ThreadM::pure(Loop::Break(()));
            };
            let batch = Arc::clone(&self);
            Arc::clone(&self)
                .run_round(round)
                .map(move |()| Loop::Continue(batch.st.lock().next_round(&batch.shared)))
        })
    }
}

/// Assembles the client reply from the settled slots, in command order.
///
/// A split multi-key get's `parts` slots each hold one sub-get's reply
/// frames. They are stitched back into one response by dropping each
/// part's last frame, its END, and emitting a single final END —
/// sub-slots were pushed in key order, and a single node answers VALUEs
/// in key order too, so the stitched bytes match the unsplit reply. Any
/// part that did not end in END (e.g. SERVER_ERROR from an exhausted
/// shard) fails the whole command: a routed miss must never masquerade as
/// a store miss.
fn stitch(slots: Vec<SlotState>) -> Vec<Bytes> {
    let mut segs: Vec<Bytes> = Vec::new();
    let mut slots = slots.into_iter();
    while let Some(slot) = slots.next() {
        match slot {
            SlotState::Ready(bytes) => segs.extend(bytes),
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
            // Unresolvable states were finalized by the rounds; anything
            // else is a routing bug — answer SERVER_ERROR rather than
            // desynchronize the client.
            _ => segs.extend(server_error_bytes()),
        }
    }
    segs
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
        let (state, first, quit) = build_plan(&shared, &ring, cmds);
        let close_after = quit || trailing.is_some();
        let batch = Arc::new(Batch {
            shared,
            pool,
            st: Mutex::new(state),
        });
        Arc::clone(&batch).execute(first).bind(move |()| {
            let mut segs = stitch(std::mem::take(&mut batch.st.lock().slots));
            if let Some(reply) = trailing {
                let mut out = Vec::new();
                reply.encode_into(&mut out);
                segs.push(Bytes::from(out));
            }
            let sent = if segs.is_empty() {
                ThreadM::pure(Ok(()))
            } else {
                let replies = batch.shared.replies.get();
                let replies = replies.expect("Server::new attaches the reply handle");
                replies.send_vectored(&conn, segs)
            };
            let pool = Arc::clone(&batch.pool);
            sent.bind(move |sent| {
                if sent.is_err() || close_after {
                    close_pool(pool).map(|()| Step::Close)
                } else {
                    ThreadM::pure(Step::Continue(RouterSession { parser, pool }))
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
    for_each_m(conns, |conn| conn.close())
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
        let ring = HashRing::new(cfg.backends.clone(), VNODES);
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
                recv_chunk: RECV_CHUNK,
                idle_timeout: IDLE_TIMEOUT,
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
        let ring = HashRing::new(backends, VNODES);
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
