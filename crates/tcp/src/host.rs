//! The per-host TCP engine: demultiplexing, the `worker_tcp_input` and
//! `worker_tcp_timer` event loops, and the socket interface.
//!
//! This is the glue the paper describes in §4.8: the generic TCP state
//! machine ([`Tcb`]) is plugged into the event-driven system as two monadic
//! threads — one draining the inbound packet queue, one driving timers —
//! and a library of socket operations that park/resume application threads
//! on TCB state changes. [`TcpHost`] implements
//! [`NetStack`] — so a server switches from
//! kernel sockets to this stack by changing one line.
//!
//! `connect` is the non-blocking-connect convention: it inserts the TCB,
//! sends the SYN and builds the [`TcpConn`] at once, then waits for write
//! readiness on that connection's own descriptor — a handshaking TCB is
//! not writable, so the wait ends when the handshake resolves either way.
//! There is no separate connect gate. A passive open needs no record of
//! its listener either: it is the one on its demux key's local port, and
//! only a TCB that leaves `SynRcvd` is promoted to it.
//!
//! A connection that reaches TIME_WAIT leaves the demux table in the same
//! step: its [`TimeWait`] record lingers beside the table, so the timer
//! loop scans open connections only and a closed one's TCB is freed at
//! once.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Weak};

use bytes::Bytes;
use eveth_core::engine::{spawn_thread, RuntimeCtx};
use eveth_core::net::{queue_accept_evt, Conn, Endpoint, HostId, Listener, NetError, NetStack};
use eveth_core::reactor::{AcceptQueue, Fd, Interest, Pollable, WaitKey, Waiter};
use eveth_core::sync::Chan;
use eveth_core::syscall::{sys_epoll_wait, sys_nbio, sys_sleep, sys_time};
use eveth_core::telemetry::metrics::Registry;
use eveth_core::time::Nanos;
use eveth_core::{loop_m, Loop, ThreadM};
use parking_lot::Mutex;

use crate::segment::{Flags, Segment};
use crate::tcb::{State, Tcb, TcpConfig, TcpStats, TimeWait};
use crate::transport::SegmentTransport;

/// Demux key: local port + remote endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct ConnKey {
    local_port: u16,
    peer: Endpoint,
}

/// Closed connections in TIME_WAIT: their records by key, for demux and
/// port choice, and their keys in expiry order — the linger is constant,
/// so arrival order is deadline order.
#[derive(Default)]
struct Lingering {
    records: HashMap<ConnKey, TimeWait>,
    expiry: VecDeque<(Nanos, ConnKey)>,
}

impl Lingering {
    fn insert(&mut self, key: ConnKey, record: TimeWait) {
        self.expiry.push_back((record.until(), key));
        self.records.insert(key, record);
    }

    /// Answers `seg` for `key`, if it is lingering (`None` if not): the
    /// record's reply, and a RST ends the record.
    fn on_segment(&mut self, key: &ConnKey, seg: &Segment) -> Option<Option<Segment>> {
        let (reply, lingers) = self.records.get(key)?.on_segment(seg);
        if !lingers {
            self.records.remove(key);
        }
        Some(reply)
    }

    /// Ends every linger due by `now`. An entry whose record a RST ended
    /// early ends nothing, even if its key lingers again since.
    fn expire(&mut self, now: Nanos) {
        while let Some(&(until, key)) = self.expiry.front() {
            if until > now {
                break;
            }
            self.expiry.pop_front();
            if self.records.get(&key).is_some_and(|r| r.until() == until) {
                self.records.remove(&key);
            }
        }
    }
}

/// Most segments `worker_tcp_input` processes between two releases of the
/// held ACKs: under sustained arrival a sender hears from the receiver at
/// least this often.
pub const ACK_BATCH: usize = 64;

enum Input {
    Seg(HostId, Segment),
    Stop,
}

struct ListenerInner {
    port: u16,
    queue: Arc<AcceptQueue<Arc<TcpConn>>>,
}

/// One host's application-level TCP stack.
///
/// Create with [`TcpHost::start`]; it spawns its two event-loop threads on
/// the supplied runtime context and serves sockets until
/// [`TcpHost::shutdown`].
pub struct TcpHost {
    self_weak: Weak<TcpHost>,
    host: HostId,
    cfg: TcpConfig,
    transport: Arc<dyn SegmentTransport>,
    /// Open connections. Locked before `lingering` wherever both are held.
    conns: Mutex<HashMap<ConnKey, Arc<Mutex<Tcb>>>>,
    lingering: Mutex<Lingering>,
    listeners: Mutex<HashMap<u16, Arc<ListenerInner>>>,
    /// Connections that started holding an ACK since the last batch end.
    ack_holders: Mutex<Vec<Arc<Mutex<Tcb>>>>,
    rx: Chan<Input>,
    stopped: AtomicBool,
    next_ephemeral: AtomicU32,
    next_iss: AtomicU32,
    stats: Arc<TcpStats>,
}

impl TcpHost {
    /// Starts a TCP host: registers nothing with the transport (callers
    /// wire delivery to [`TcpHost::inject`]) and spawns the
    /// `worker_tcp_input` / `worker_tcp_timer` threads on `ctx`.
    pub fn start(
        ctx: Arc<dyn RuntimeCtx>,
        host: HostId,
        transport: Arc<dyn SegmentTransport>,
        cfg: TcpConfig,
    ) -> Arc<Self> {
        let this = Arc::new_cyclic(|weak| TcpHost {
            self_weak: weak.clone(),
            host,
            cfg,
            transport,
            conns: Mutex::new(HashMap::new()),
            lingering: Mutex::default(),
            listeners: Mutex::new(HashMap::new()),
            ack_holders: Mutex::new(Vec::with_capacity(ACK_BATCH)),
            rx: Chan::new(),
            stopped: AtomicBool::new(false),
            next_ephemeral: AtomicU32::new(0),
            next_iss: AtomicU32::new(0x1d37_5a11),
            stats: Arc::default(),
        });
        spawn_thread(&ctx, worker_tcp_input(Arc::clone(&this)));
        spawn_thread(&ctx, worker_tcp_timer(Arc::clone(&this)));
        this
    }

    /// This host's network identity.
    pub fn host_id(&self) -> HostId {
        self.host
    }

    /// Counters.
    pub fn stats(&self) -> &TcpStats {
        &self.stats
    }

    /// Registers this host's counters on `registry` as
    /// `eveth_tcp_*_total{labels}`, and the connections it holds as the
    /// gauges `eveth_tcp_conns_open` and `eveth_tcp_conns_time_wait`,
    /// polled at exposition time. Opt-in, like
    /// `Telemetry::register_buffer_pool_metrics`: a hub that never calls
    /// this exposes exactly what it did before.
    pub fn register_metrics(&self, registry: &Registry, labels: &[(&str, &str)]) {
        let s = &self.stats;
        for (name, cell) in [
            ("eveth_tcp_segs_sent_total", &s.segs_sent),
            ("eveth_tcp_segs_received_total", &s.segs_received),
            ("eveth_tcp_conns_opened_total", &s.conns_opened),
            ("eveth_tcp_conns_accepted_total", &s.conns_accepted),
            ("eveth_tcp_resets_sent_total", &s.resets_sent),
            (
                "eveth_tcp_payload_bytes_aliased_total",
                &s.payload_bytes_aliased,
            ),
            (
                "eveth_tcp_payload_bytes_copied_total",
                &s.payload_bytes_copied,
            ),
            ("eveth_tcp_retransmits_total", &s.retransmits),
            ("eveth_tcp_pure_acks_total", &s.pure_acks),
            ("eveth_tcp_acks_coalesced_total", &s.acks_coalesced),
            ("eveth_tcp_acks_on_tick_total", &s.acks_on_tick),
            ("eveth_tcp_rto_fires_total", &s.rto_fires),
            ("eveth_tcp_dup_acks_received_total", &s.dup_acks_received),
        ] {
            registry.register_counter(name, labels, cell);
        }
        type Level = fn(&TcpHost) -> usize;
        let gauges: [(&str, Level); 2] = [
            ("eveth_tcp_conns_open", TcpHost::conn_count),
            ("eveth_tcp_conns_time_wait", TcpHost::time_wait_count),
        ];
        for (name, level) in gauges {
            let host = Weak::clone(&self.self_weak);
            registry.register_gauge_fn(name, labels, move || {
                host.upgrade().map_or(0, |h| level(&h) as i64)
            });
        }
    }

    /// Open connections: the demux table. A connection in TIME_WAIT is
    /// not one of them (see [`TcpHost::time_wait_count`]).
    pub fn conn_count(&self) -> usize {
        self.conns.lock().len()
    }

    /// Each open connection's peer and the entries in its TCB's read
    /// table: the readers parked on it right now. A losing readiness wait
    /// withdraws its entry, so an idle connection holds at most its one
    /// parked reader.
    pub fn read_waiters(&self) -> Vec<(Endpoint, usize)> {
        let conns = self.conns.lock();
        conns
            .iter()
            .map(|(key, tcb)| (key.peer, tcb.lock().waiters(Interest::Read).len()))
            .collect()
    }

    /// Closed connections whose TIME_WAIT record still lingers.
    pub fn time_wait_count(&self) -> usize {
        self.lingering.lock().records.len()
    }

    /// Prints every connection's state — a debugging aid for stuck
    /// exchanges.
    pub fn debug_dump(&self) {
        for (key, tcb) in self.conns.lock().iter() {
            println!("  {} {:?} -> {:?}", self.host, key, &*tcb.lock());
        }
    }

    /// Delivers an inbound segment (called by transports).
    pub fn inject(&self, src: HostId, seg: Segment) {
        if !self.stopped.load(Ordering::SeqCst) {
            self.rx.push_now(Input::Seg(src, seg));
        }
    }

    /// Stops both event loops; existing sockets error out over time.
    pub fn shutdown(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.rx.push_now(Input::Stop);
    }

    fn arc(&self) -> Arc<TcpHost> {
        self.self_weak.upgrade().expect("host alive")
    }

    /// The demux key of the next ephemeral port with no open or lingering
    /// connection to `remote` — the counter wraps, and a long-lived
    /// connection may still own the port it was given a lap ago, or a
    /// closed one still linger on it. `None` once every port has been
    /// tried.
    fn ephemeral(
        &self,
        conns: &HashMap<ConnKey, Arc<Mutex<Tcb>>>,
        lingering: &Lingering,
        remote: Endpoint,
    ) -> Option<ConnKey> {
        const PORTS: u32 = 25_000;
        (0..PORTS)
            .map(|_| ConnKey {
                local_port: 40_000
                    + (self.next_ephemeral.fetch_add(1, Ordering::Relaxed) % PORTS) as u16,
                peer: remote,
            })
            .find(|key| !conns.contains_key(key) && !lingering.records.contains_key(key))
    }

    fn fresh_iss(&self) -> u32 {
        self.next_iss
            .fetch_add(0x0001_f3d7, Ordering::Relaxed)
            .wrapping_mul(2_654_435_761)
    }

    fn send_segs(&self, peer_host: HostId, segs: Vec<Segment>) {
        for seg in segs {
            self.stats.segs_sent.incr();
            if seg.payload.is_empty() && seg.flags == Flags::ack() {
                self.stats.pure_acks.incr();
            }
            self.transport.send(self.host, peer_host, seg);
        }
    }

    fn process_segment(&self, src: HostId, seg: Segment, now: Nanos) {
        self.stats.segs_received.incr();
        let key = ConnKey {
            local_port: seg.dst_port,
            peer: Endpoint::new(src, seg.src_port),
        };
        let existing = self.conns.lock().get(&key).cloned();
        if let Some(tcb_arc) = existing {
            let (out, accepted, began_hold, record) = {
                let mut tcb = tcb_arc.lock();
                let (passive, held) = (tcb.state() == State::SynRcvd, tcb.ack_held());
                let (out, became_established) = tcb.on_segment(seg, now);
                let accepted = passive && became_established;
                (out, accepted, !held && tcb.ack_held(), tcb.time_wait(now))
            };
            if began_hold {
                self.ack_holders.lock().push(Arc::clone(&tcb_arc));
            }
            self.send_segs(src, out);
            if accepted {
                self.promote_passive(&key, &tcb_arc);
            }
            match record {
                Some(record) => self.linger(key, record),
                None => self.gc_if_closed(&key, &tcb_arc),
            }
            return;
        }
        let lingered = self.lingering.lock().on_segment(&key, &seg);
        if let Some(reply) = lingered {
            self.send_segs(src, Vec::from_iter(reply));
            return;
        }
        // No connection: maybe a SYN for a listener.
        if seg.flags.syn && !seg.flags.ack {
            let listener = self.listeners.lock().get(&seg.dst_port).cloned();
            if let Some(listener) = listener {
                if !listener.queue.is_closed() {
                    let local = Endpoint::new(self.host, seg.dst_port);
                    let mut tcb = Tcb::new_passive(
                        self.cfg.clone(),
                        local,
                        key.peer,
                        self.fresh_iss(),
                        &seg,
                        now,
                    );
                    tcb.report_to(Arc::clone(&self.stats));
                    let syn_ack = tcb.syn_ack_segment();
                    self.conns.lock().insert(key, Arc::new(Mutex::new(tcb)));
                    self.send_segs(src, vec![syn_ack]);
                    return;
                }
            }
        }
        // Otherwise: refuse with RST (unless it *is* a RST).
        if !seg.flags.rst {
            self.stats.resets_sent.incr();
            let rst = Segment {
                src_port: seg.dst_port,
                dst_port: seg.src_port,
                seq: if seg.flags.ack { seg.ack } else { 0 },
                ack: seg.seq_end(),
                flags: Flags {
                    rst: true,
                    ack: true,
                    ..Default::default()
                },
                wnd: 0,
                payload: Bytes::new(),
            };
            self.send_segs(src, vec![rst]);
        }
    }

    /// Hands a passive open that just completed to the listener on its
    /// local port.
    fn promote_passive(&self, key: &ConnKey, tcb_arc: &Arc<Mutex<Tcb>>) {
        let listener = self.listeners.lock().get(&key.local_port).cloned();
        let pushed = match listener {
            Some(listener) => listener
                .queue
                .push(TcpConn::attach(self.arc(), *key, Arc::clone(tcb_arc)))
                .is_ok(),
            None => false,
        };
        if pushed {
            self.stats.conns_accepted.incr();
        } else {
            // Listener vanished or shut down: abort the orphan.
            let rst = tcb_arc.lock().app_abort();
            self.send_segs(key.peer.host, vec![rst]);
            self.conns.lock().remove(key);
        }
    }

    fn gc_if_closed(&self, key: &ConnKey, tcb_arc: &Arc<Mutex<Tcb>>) {
        if tcb_arc.lock().state() == State::Closed {
            self.conns.lock().remove(key);
        }
    }

    /// Swaps a TCB that reached TIME_WAIT for its record. Both tables are
    /// held across the swap, so the port is never free to a concurrent
    /// `connect` in between.
    fn linger(&self, key: ConnKey, record: TimeWait) {
        let mut conns = self.conns.lock();
        conns.remove(&key);
        self.lingering.lock().insert(key, record);
    }

    /// Ends a batch of arrivals: every ACK still held leaves (one that
    /// rode out on a reply since is no longer held).
    fn release_held_acks(&self) {
        for tcb_arc in self.ack_holders.lock().drain(..) {
            let mut tcb = tcb_arc.lock();
            let Some(ack) = tcb.flush_ack() else { continue };
            let peer_host = tcb.peer().host;
            drop(tcb);
            self.send_segs(peer_host, vec![ack]);
        }
    }

    fn process_ticks(&self, now: Nanos) {
        self.lingering.lock().expire(now);
        let mut conns: Vec<(ConnKey, Arc<Mutex<Tcb>>)> = self
            .conns
            .lock()
            .iter()
            .map(|(k, v)| (*k, Arc::clone(v)))
            .collect();
        // Hash order varies between processes; when several connections
        // retransmit on the same tick, segment emission order must not.
        conns.sort_unstable_by_key(|(k, _)| *k);
        for (key, tcb_arc) in conns {
            let (out, peer_host) = {
                let mut tcb = tcb_arc.lock();
                (tcb.on_tick(now), tcb.peer().host)
            };
            self.send_segs(peer_host, out);
            self.gc_if_closed(&key, &tcb_arc);
        }
    }
}

impl fmt::Debug for TcpHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TcpHost({}, conns={}, time_wait={}, listeners={})",
            self.host,
            self.conn_count(),
            self.time_wait_count(),
            self.listeners.lock().len()
        )
    }
}

/// One segment per trip, as the paper's loop; the ACKs held along the way
/// leave in the trip that finds `rx` dry or completes [`ACK_BATCH`]. An ACK
/// delayed to the reply stays owed: the reply or the tick takes it.
fn worker_tcp_input(host: Arc<TcpHost>) -> ThreadM<()> {
    loop_m(0, move |batched: usize| {
        let h = Arc::clone(&host);
        host.rx.read().bind(move |input| match input {
            Input::Stop => ThreadM::pure(Loop::Break(())),
            Input::Seg(src, seg) => sys_time().bind(move |now| {
                sys_nbio(move || {
                    h.process_segment(src, seg, now);
                    if batched + 1 < ACK_BATCH && !h.rx.is_empty() {
                        return batched + 1;
                    }
                    h.release_held_acks();
                    0
                })
                .map(Loop::Continue)
            }),
        })
    })
}

fn worker_tcp_timer(host: Arc<TcpHost>) -> ThreadM<()> {
    let tick = host.cfg.tick;
    loop_m((), move |()| {
        let h = Arc::clone(&host);
        sys_sleep(tick).bind(move |_| {
            let h2 = Arc::clone(&h);
            sys_time().bind(move |now| {
                sys_nbio(move || {
                    if h2.stopped.load(Ordering::SeqCst) {
                        return Loop::Break(());
                    }
                    h2.process_ticks(now);
                    Loop::Continue(())
                })
            })
        })
    })
}

// ---------------------------------------------------------------------------
// Socket objects.
// ---------------------------------------------------------------------------

/// The pollable device behind a [`TcpConn`]'s descriptor: readiness is
/// answered by the TCB itself, under its own lock (so the check-then-park
/// of `register` cannot lose a wakeup to a concurrent segment arrival).
struct TcbSock {
    tcb: Arc<Mutex<Tcb>>,
}

impl Pollable for TcbSock {
    fn register(&self, interest: Interest, waiter: Waiter) -> Option<WaitKey> {
        self.tcb.lock().register(interest, waiter)
    }

    fn deregister(&self, interest: Interest, key: WaitKey) -> bool {
        self.tcb.lock().waiters(interest).withdraw(key)
    }
}

/// A TCP connection exposed through the generic [`Conn`] interface.
pub struct TcpConn {
    host: Arc<TcpHost>,
    key: ConnKey,
    tcb: Arc<Mutex<Tcb>>,
    /// Readiness descriptor over the TCB; every blocking socket operation
    /// is a non-blocking attempt + `sys_epoll_wait` on this fd.
    fd: Fd,
}

impl TcpConn {
    fn attach(host: Arc<TcpHost>, key: ConnKey, tcb: Arc<Mutex<Tcb>>) -> Arc<Self> {
        let fd = Fd::new(Arc::new(TcbSock {
            tcb: Arc::clone(&tcb),
        }));
        Arc::new(TcpConn { host, key, tcb, fd })
    }

    /// Retransmission count (for tests and the loss benchmarks).
    pub fn retransmits(&self) -> u64 {
        self.tcb.lock().retransmits()
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u32 {
        self.tcb.lock().cwnd()
    }
}

impl Conn for TcpConn {
    fn readiness_fd(&self) -> Option<Fd> {
        Some(self.fd.clone())
    }

    fn recv(&self, max: usize) -> ThreadM<Result<Bytes, NetError>> {
        let tcb = Arc::clone(&self.tcb);
        let host = Arc::clone(&self.host);
        let fd = self.fd.clone();
        let peer = self.key.peer.host;
        loop_m((), move |()| {
            let try_tcb = Arc::clone(&tcb);
            let fd = fd.clone();
            let h = Arc::clone(&host);
            sys_nbio(move || {
                let mut t = try_tcb.lock();
                match t.app_read(max) {
                    Err(e) => Some(Err(e)),
                    Ok((Some(data), reopened)) => {
                        if reopened {
                            let ack = t.ack_segment();
                            drop(t);
                            h.send_segs(peer, vec![ack]);
                        }
                        Some(Ok(data))
                    }
                    Ok((None, _)) => None,
                }
            })
            .bind(move |res| match res {
                Some(r) => ThreadM::pure(Loop::Break(r)),
                None => sys_epoll_wait(&fd, Interest::Read).map(|_| Loop::Continue(())),
            })
        })
    }

    fn sendv(&self, bufs: Vec<Bytes>) -> ThreadM<Result<usize, NetError>> {
        if bufs.iter().all(|b| b.is_empty()) {
            return ThreadM::pure(Ok(0));
        }
        let tcb = Arc::clone(&self.tcb);
        let host = Arc::clone(&self.host);
        let fd = self.fd.clone();
        let peer = self.key.peer.host;
        loop_m(bufs, move |bufs| {
            let try_tcb = Arc::clone(&tcb);
            let fd = fd.clone();
            let h = Arc::clone(&host);
            sys_time()
                .bind(move |now| {
                    sys_nbio(move || {
                        // One locked pass: windows of every buffer go into
                        // the send queue, then a single output flush for
                        // the whole batch. A full queue hands the buffers
                        // back for the retry.
                        let mut t = try_tcb.lock();
                        match t.app_writev(&bufs) {
                            Err(e) => Ok(Err(e)),
                            Ok(0) => Err(bufs),
                            Ok(n) => {
                                let out = t.output(now);
                                drop(t);
                                h.send_segs(peer, out);
                                Ok(Ok(n))
                            }
                        }
                    })
                })
                .bind(move |res| match res {
                    Ok(r) => ThreadM::pure(Loop::Break(r)),
                    Err(bufs) => {
                        sys_epoll_wait(&fd, Interest::Write).map(move |_| Loop::Continue(bufs))
                    }
                })
        })
    }

    fn close(&self) -> ThreadM<()> {
        let tcb = Arc::clone(&self.tcb);
        let host = Arc::clone(&self.host);
        let peer = self.key.peer.host;
        sys_time().bind(move |now| {
            sys_nbio(move || {
                let mut t = tcb.lock();
                t.app_close();
                let out = t.output(now);
                drop(t);
                host.send_segs(peer, out);
            })
        })
    }

    fn peer(&self) -> Endpoint {
        self.tcb.lock().peer()
    }

    fn local(&self) -> Endpoint {
        self.tcb.lock().local()
    }
}

impl fmt::Debug for TcpConn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TcpConn({:?})", &*self.tcb.lock())
    }
}

/// A listening TCP socket.
pub struct TcpListener {
    host: Arc<TcpHost>,
    inner: Arc<ListenerInner>,
}

/// Accept is the composable backlog event ([`queue_accept_evt`]): ready
/// when the backlog holds an established connection or the listener was
/// shut down ([`AcceptQueue`] synchronizes push/close/register on one
/// lock, so no wakeup is lost to a concurrent promotion *or* shutdown).
/// The blocking `accept` is the trait-provided `sync(accept_evt())`.
impl Listener for TcpListener {
    fn accept_evt(&self) -> eveth_core::event::Event<Result<Arc<dyn Conn>, NetError>> {
        queue_accept_evt(Arc::clone(&self.inner.queue), |c| c as Arc<dyn Conn>)
    }

    fn local(&self) -> Endpoint {
        Endpoint::new(self.host.host, self.inner.port)
    }

    fn shutdown(&self) {
        self.inner.queue.close();
        self.host.listeners.lock().remove(&self.inner.port);
    }
}

impl fmt::Debug for TcpListener {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TcpListener(port={})", self.inner.port)
    }
}

impl NetStack for TcpHost {
    fn listen(&self, port: u16) -> ThreadM<Result<Arc<dyn Listener>, NetError>> {
        let host = self.arc();
        sys_nbio(move || {
            let mut listeners = host.listeners.lock();
            if listeners.contains_key(&port) {
                return Err(NetError::AddrInUse);
            }
            let inner = Arc::new(ListenerInner {
                port,
                queue: Arc::new(AcceptQueue::new()),
            });
            listeners.insert(port, Arc::clone(&inner));
            drop(listeners);
            Ok(Arc::new(TcpListener {
                host: Arc::clone(&host),
                inner,
            }) as Arc<dyn Listener>)
        })
    }

    fn connect(&self, remote: Endpoint) -> ThreadM<Result<Arc<dyn Conn>, NetError>> {
        let host = self.arc();
        sys_time().bind(move |now| {
            // Create the TCB, fire the SYN, then wait until the handshake
            // resolves (the timer thread retries lost SYNs).
            sys_nbio(move || {
                // Port choice and demux insert share one critical section,
                // so two concurrent connects cannot pick the same port.
                let mut conns = host.conns.lock();
                let key = host
                    .ephemeral(&conns, &host.lingering.lock(), remote)
                    .ok_or(NetError::AddrInUse)?;
                let local = Endpoint::new(host.host, key.local_port);
                let mut tcb =
                    Tcb::new_active(host.cfg.clone(), local, remote, host.fresh_iss(), now);
                tcb.report_to(Arc::clone(&host.stats));
                let syn = tcb.syn_segment();
                let tcb = Arc::new(Mutex::new(tcb));
                conns.insert(key, Arc::clone(&tcb));
                drop(conns);
                host.stats.conns_opened.incr();
                host.send_segs(remote.host, vec![syn]);
                Ok(TcpConn::attach(Arc::clone(&host), key, tcb))
            })
            .bind(|setup: Result<Arc<TcpConn>, NetError>| match setup {
                Err(e) => ThreadM::pure(Err(e)),
                // The handshake wait is Write readiness on the connection's
                // own descriptor (non-blocking `connect` convention).
                Ok(conn) => loop_m((), move |()| {
                    let check = Arc::clone(&conn);
                    let conn = Arc::clone(&conn);
                    sys_nbio(move || {
                        let t = check.tcb.lock();
                        match t.state() {
                            s if s.handshaking() => None,
                            State::Closed => {
                                Some(Err(t.error().unwrap_or(NetError::ConnectionRefused)))
                            }
                            _ => Some(Ok(())),
                        }
                    })
                    .bind(move |res| match res {
                        Some(Ok(())) => ThreadM::pure(Loop::Break(Ok(conn as Arc<dyn Conn>))),
                        Some(Err(e)) => {
                            conn.host.conns.lock().remove(&conn.key);
                            ThreadM::pure(Loop::Break(Err(e)))
                        }
                        None => {
                            sys_epoll_wait(&conn.fd, Interest::Write).map(|_| Loop::Continue(()))
                        }
                    })
                }),
            })
        })
    }

    fn host(&self) -> HostId {
        self.host
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LoopbackNet;
    use eveth_core::do_m;
    use eveth_core::net::{recv_exact, send_all, send_all_vectored};
    use eveth_core::syscall::sys_fork;
    use eveth_core::time::MILLIS;
    use eveth_simos::SimRuntime;
    use std::collections::HashSet;

    /// Two hosts on a lossless loopback, both on `cfg`.
    fn pair(cfg: TcpConfig) -> (SimRuntime, Arc<TcpHost>, Arc<TcpHost>) {
        let sim = SimRuntime::new_default();
        let net = LoopbackNet::new();
        let a = TcpHost::start(sim.ctx(), HostId(1), net.clone(), cfg.clone());
        let b = TcpHost::start(sim.ctx(), HostId(2), net.clone(), cfg);
        net.register(&a);
        net.register(&b);
        (sim, a, b)
    }

    /// Accepts forever; each connection is read to its end, then closed.
    fn close_on_eof(lst: Arc<dyn Listener>) -> ThreadM<()> {
        loop_m((), move |()| {
            lst.accept().bind(|conn| {
                let conn = conn.expect("accept");
                sys_fork(do_m! {
                    let eof <- conn.recv(16);
                    let _ = eof.expect("read to the end");
                    conn.close()
                })
                .map(|_| Loop::Continue(()))
            })
        })
    }

    #[test]
    fn losing_read_waits_on_an_idle_connection_leave_no_entry() {
        use eveth_core::event::{choose, readiness_evt, sync, timeout_evt};
        let (sim, a, b) = pair(TcpConfig::default());
        let server_ep = Endpoint::new(HostId(2), 80);
        // The server accepts and never sends: every read wait times out.
        let server = do_m! {
            let lst <- b.listen(80);
            let held <- lst.expect("listen").accept();
            let held = held.expect("accept");
            sys_sleep(60_000 * MILLIS).map(move |()| drop(held))
        };
        let client = Arc::clone(&a);
        let timeouts = sim
            .block_on(do_m! {
                sys_fork(server);
                let conn <- client.connect(server_ep);
                let conn = conn.expect("connect");
                let fd = conn.readiness_fd().expect("a readiness descriptor");
                loop_m(0u32, move |round| {
                    if round == 10_000 {
                        return ThreadM::pure(Loop::Break(round));
                    }
                    sync(choose(vec![
                        readiness_evt(&fd, Interest::Read).wrap(|()| false),
                        timeout_evt(MILLIS).wrap(|()| true),
                    ]))
                    .map(move |timed_out| {
                        assert!(timed_out, "the idle connection became readable");
                        Loop::Continue(round + 1)
                    })
                })
            })
            .expect("client ran");
        assert_eq!(timeouts, 10_000);
        assert_eq!(a.read_waiters(), vec![(server_ep, 0)]);
    }

    #[test]
    fn ephemeral_ports_skip_a_connection_held_open_across_the_wrap() {
        let (sim, a, b) = pair(TcpConfig::default());
        let server_ep = Endpoint::new(HostId(2), 80);

        // The server echoes one byte on its first connection, and closes
        // the second on its end of stream.
        let server = do_m! {
            let lst <- b.listen(80);
            let lst = lst.expect("listen");
            let held <- lst.accept();
            let held = held.expect("accept held");
            sys_fork(close_on_eof(lst));
            let byte <- recv_exact(&held, 1);
            send_all(&held, byte.expect("recv on held")).map(|sent| sent.expect("echo"))
        };
        let client = Arc::clone(&a);
        let (ports, lingering, echoed) = sim
            .block_on(do_m! {
                sys_fork(server);
                let held <- client.connect(server_ep);
                let held = held.expect("first connect");
                // The next port's connection closes first: it lingers.
                let closed <- client.connect(server_ep);
                let closed = closed.expect("second connect");
                closed.close();
                let eof <- closed.recv(16);
                let _ = eof.expect("the peer's FIN");
                let lingering = client.time_wait_count();
                // A full lap later the allocator is back at the held port.
                let _ = client.next_ephemeral.fetch_add(25_000 - 2, Ordering::Relaxed);
                let third <- client.connect(server_ep);
                let third = third.expect("third connect");
                let sent <- send_all(&held, Bytes::from_static(b"x"));
                let _ = sent.expect("send on held");
                let echoed <- recv_exact(&held, 1);
                let ports = [&held, &closed, &third].map(|c| c.local().port);
                ThreadM::pure((ports, lingering, echoed))
            })
            .expect("the held connection still reaches its peer");
        assert_eq!(&echoed.expect("echo")[..], b"x");
        let [held_port, closed_port, third_port] = ports;
        assert_eq!((closed_port, lingering), (held_port + 1, 1));
        assert_eq!(
            third_port,
            held_port + 2,
            "the open port and the lingering one are skipped"
        );
    }

    /// Records every segment on its way through a lossless loopback.
    struct Tap {
        net: Arc<LoopbackNet>,
        seen: Mutex<Vec<(HostId, Segment)>>,
    }

    impl SegmentTransport for Tap {
        fn send(&self, src: HostId, dst: HostId, seg: Segment) {
            self.seen.lock().push((src, seg.clone()));
            self.net.send(src, dst, seg);
        }
    }

    impl Tap {
        /// The last segment `src` sent, and how many it has sent.
        fn last_from(&self, src: HostId) -> (Segment, usize) {
            let seen = self.seen.lock();
            let mut sent = seen.iter().filter(|(from, _)| *from == src);
            let count = sent.clone().count();
            (sent.next_back().expect("a segment").1.clone(), count)
        }
    }

    /// What a segment says on the wire, payload aside.
    fn header(seg: &Segment) -> (u16, u16, u32, u32, Flags, u32) {
        (
            seg.src_port,
            seg.dst_port,
            seg.seq,
            seg.ack,
            seg.flags,
            seg.wnd,
        )
    }

    /// Host 1 dials host 2 and closes first; host 2 closes on the end of
    /// stream. Returns once host 1 has read host 2's FIN.
    fn close_actively(cfg: TcpConfig) -> (SimRuntime, Arc<Tap>, Arc<TcpHost>, Arc<TcpHost>) {
        let sim = SimRuntime::new_default();
        let net = LoopbackNet::new();
        let tap = Arc::new(Tap {
            net: net.clone(),
            seen: Mutex::new(Vec::new()),
        });
        let a = TcpHost::start(sim.ctx(), HostId(1), tap.clone(), cfg.clone());
        let b = TcpHost::start(sim.ctx(), HostId(2), tap.clone(), cfg);
        net.register(&a);
        net.register(&b);
        let server = b.listen(80).bind(|lst| close_on_eof(lst.expect("listen")));
        let client = Arc::clone(&a);
        sim.block_on(do_m! {
            sys_fork(server);
            let conn <- client.connect(Endpoint::new(HostId(2), 80));
            let conn = conn.expect("connect");
            conn.close();
            conn.recv(16).map(|eof| assert!(eof.expect("the peer's FIN").is_empty()))
        })
        .expect("orderly close");
        (sim, tap, a, b)
    }

    #[test]
    fn an_orderly_close_leaves_the_active_closer_a_record_not_a_tcb() {
        let cfg = TcpConfig {
            time_wait: 100 * MILLIS,
            ..TcpConfig::default()
        };
        let (sim, _tap, a, b) = close_actively(cfg.clone());
        let registry = Registry::new();
        a.register_metrics(&registry, &[("host", "1")]);
        let gauges = || {
            ["eveth_tcp_conns_open", "eveth_tcp_conns_time_wait"]
                .map(|name| registry.counter_value(name, &[("host", "1")]))
        };
        // At once: the TCB is gone from the demux table, the record is in.
        assert_eq!((a.conn_count(), a.time_wait_count()), (0, 1));
        assert_eq!(gauges(), [Some(0), Some(1)]);
        // The passive closer keeps nothing once the last ACK is in.
        let closed_at = sim.now();
        sim.run_until(Some(closed_at + cfg.time_wait / 2));
        assert_eq!((b.conn_count(), b.time_wait_count()), (0, 0));
        assert_eq!(a.time_wait_count(), 1, "still lingering");
        sim.run_until(Some(closed_at + cfg.time_wait + 2 * cfg.tick));
        assert_eq!(a.time_wait_count(), 0, "2MSL is over");
        assert_eq!(gauges(), [Some(0), Some(0)]);
    }

    #[test]
    fn a_lingering_connection_acks_a_retransmitted_fin_as_its_tcb_did() {
        let (sim, tap, a, b) = close_actively(TcpConfig::default());
        let (fin, _) = tap.last_from(HostId(2));
        let (ack, sent) = tap.last_from(HostId(1));
        assert!(fin.flags.fin);
        assert_eq!(ack.flags, Flags::ack());
        // The FIN again, as if that ACK had been lost. The peer is stopped:
        // its closed side would answer the ACK with a RST.
        b.shutdown();
        a.inject(HostId(2), fin);
        sim.run_until(Some(sim.now() + MILLIS));
        let (again, sent_now) = tap.last_from(HostId(1));
        assert_eq!(sent_now, sent + 1, "one reply");
        assert_eq!(header(&again), header(&ack));
        assert_eq!(a.time_wait_count(), 1);
    }

    #[test]
    fn a_reset_ends_a_lingering_connection() {
        let (sim, tap, a, _b) = close_actively(TcpConfig::default());
        let (fin, _) = tap.last_from(HostId(2));
        let (_, sent) = tap.last_from(HostId(1));
        let rst = Segment {
            seq: fin.seq_end(),
            flags: Flags::rst(),
            ..fin
        };
        a.inject(HostId(2), rst);
        sim.run_until(Some(sim.now() + MILLIS));
        assert_eq!(a.time_wait_count(), 0);
        assert_eq!(tap.last_from(HostId(1)).1, sent, "a RST is not answered");
    }

    #[test]
    fn a_host_holding_1000_connections_dials_26000_more_across_the_port_wrap() {
        const HELD: usize = 1_000;
        const CHURNED: usize = 26_000;
        // A dial takes about 6 µs of virtual time here, so about 16 k records
        // still linger when the counter wraps: far more than none, and
        // fewer than the 24 k ports the held connections leave.
        let cfg = TcpConfig {
            time_wait: 100 * MILLIS,
            ..TcpConfig::default()
        };
        let (sim, a, b) = pair(cfg);
        let server_ep = Endpoint::new(HostId(2), 80);
        let server = b.listen(80).bind(|lst| close_on_eof(lst.expect("listen")));
        let holder = Arc::clone(&a);
        let hold = loop_m(
            Vec::with_capacity(HELD),
            move |mut held: Vec<Arc<dyn Conn>>| {
                if held.len() == HELD {
                    return ThreadM::pure(Loop::Break(held));
                }
                holder.connect(server_ep).map(move |conn| {
                    held.push(conn.expect("held dial"));
                    Loop::Continue(held)
                })
            },
        );
        let client = Arc::clone(&a);
        let churn = move |held_ports: Arc<HashSet<u16>>| {
            // (dials so far, the last port, records lingering at the wrap)
            loop_m(
                (0, 0, None),
                move |(dialed, last_port, at_wrap): (usize, u16, Option<usize>)| {
                    if dialed == CHURNED {
                        return ThreadM::pure(Loop::Break(at_wrap));
                    }
                    let host = Arc::clone(&client);
                    let held_ports = Arc::clone(&held_ports);
                    client.connect(server_ep).bind(move |conn| {
                        let conn = conn.expect("every dial succeeds");
                        let key = ConnKey {
                            local_port: conn.local().port,
                            peer: server_ep,
                        };
                        assert!(
                            !held_ports.contains(&key.local_port),
                            "dial {dialed} got a held port"
                        );
                        assert!(
                            !host.lingering.lock().records.contains_key(&key),
                            "dial {dialed} got a lingering port"
                        );
                        let at_wrap = at_wrap
                            .or((key.local_port < last_port).then(|| host.time_wait_count()));
                        conn.close()
                            .map(move |()| Loop::Continue((dialed + 1, key.local_port, at_wrap)))
                    })
                },
            )
        };
        let (held, at_wrap) = sim
            .block_on(do_m! {
                sys_fork(server);
                let held <- hold;
                let ports = Arc::new(held.iter().map(|c| c.local().port).collect::<HashSet<_>>());
                let at_wrap <- churn(ports);
                ThreadM::pure((held, at_wrap))
            })
            .expect("every dial succeeds");
        let at_wrap = at_wrap.expect("the port counter wrapped");
        assert!(
            at_wrap > 0,
            "records were lingering when the counter wrapped"
        );
        sim.run_until(Some(sim.now() + 10 * MILLIS));
        assert_eq!(a.conn_count(), held.len());
    }

    #[test]
    fn a_32k_reply_travels_as_windows_and_the_counters_say_so() {
        const VALUE: usize = 32 * 1024;
        let (sim, a, b) = pair(TcpConfig::default());
        let registry = Registry::new();
        assert!(!registry.expose().contains("eveth_tcp_"), "opt-in");
        b.register_metrics(&registry, &[("host", "2")]);

        // A `get` reply: a short header staged in a pool slab, the stored
        // value, a `'static` trailer.
        let mut header = bytes::BufferPool::global().acquire();
        header.extend_from_slice(b"VALUE k 0 32768\r\n");
        let reply = vec![
            header.freeze(),
            Bytes::from(vec![0x5a; VALUE]),
            Bytes::from_static(b"\r\nEND\r\n"),
        ];
        let (head, total) = (reply[0].len(), reply.iter().map(Bytes::len).sum());
        let server = do_m! {
            let lst <- b.listen(80);
            let conn <- lst.expect("listen").accept();
            send_all_vectored(&conn.expect("accept"), reply).map(|sent| sent.expect("reply"))
        };
        let client = Arc::clone(&a);
        let got = sim
            .block_on(do_m! {
                sys_fork(server);
                let conn <- client.connect(Endpoint::new(HostId(2), 80));
                recv_exact(&conn.expect("connect"), total)
            })
            .expect("transfer completes")
            .expect("reply received");
        assert_eq!(got.len(), total);
        assert!(got[head..head + VALUE].iter().all(|&byte| byte == 0x5a));

        // Send side: the value went into the queue and out in segments as
        // windows; only the header's copy-break and the two segments that
        // straddle header/value and value/trailer were copied.
        let sent = b.stats();
        let aliased = sent.payload_bytes_aliased.get();
        let copied = sent.payload_bytes_copied.get();
        assert!(aliased >= 30 * 1024, "aliased {aliased}");
        assert!(copied <= 2 * 1460, "copied {copied}");
        assert_eq!(sent.retransmits.get(), 0);
        assert_eq!(sent.pure_acks.get(), 0);
        // The receiver acknowledged each burst, not each segment: the
        // handshake, one ACK per slow-start window (2, 4, 8 segments) and
        // one for the PSH that ends the reply. Every data segment is
        // accounted for, by an ACK of its own or by a later one.
        let segments = total.div_ceil(1460) as u64;
        let acks = a.stats().pure_acks.get();
        let coalesced = a.stats().acks_coalesced.get();
        assert!(
            acks <= 6 && acks < segments / 2,
            "{acks} bare ACKs for {segments} segments"
        );
        assert!(
            coalesced + acks >= segments,
            "{coalesced} coalesced + {acks} sent for {segments} segments"
        );

        let label = [("host", "2")];
        for (name, want) in [
            ("eveth_tcp_payload_bytes_aliased_total", aliased),
            ("eveth_tcp_payload_bytes_copied_total", copied),
            ("eveth_tcp_retransmits_total", 0),
            ("eveth_tcp_rto_fires_total", 0),
            ("eveth_tcp_dup_acks_received_total", 0),
            ("eveth_tcp_acks_coalesced_total", 0),
            // The server received no data after the handshake: it owed
            // no ACK for the tick to send.
            ("eveth_tcp_acks_on_tick_total", 0),
            ("eveth_tcp_conns_accepted_total", 1),
            // Neither side has closed: one open connection, none lingering.
            ("eveth_tcp_conns_open", 1),
            ("eveth_tcp_conns_time_wait", 0),
        ] {
            assert_eq!(registry.counter_value(name, &label), Some(want), "{name}");
        }
        assert!(registry
            .expose()
            .contains("eveth_tcp_pure_acks_total{host=\"2\"} 0"));
    }

    #[test]
    fn a_burst_longer_than_the_batch_is_acknowledged_inside_it() {
        // 100 segments leave in one burst (an open congestion window, room
        // in both buffers): the receiver's `rx` is never dry before the
        // last, so only the batch bound releases an ACK on the way.
        const BURST: usize = 100;
        let cfg = TcpConfig {
            initial_cwnd_mss: BURST as u32,
            send_buf: 256 * 1024,
            recv_window: 256 * 1024,
            ..TcpConfig::default()
        };
        let total = BURST * cfg.mss;
        let (sim, a, b) = pair(cfg);
        let server = do_m! {
            let lst <- b.listen(80);
            let conn <- lst.expect("listen").accept();
            send_all(&conn.expect("accept"), Bytes::from(vec![0x33; total])).map(|sent| sent.expect("burst"))
        };
        let client = Arc::clone(&a);
        let got = sim
            .block_on(do_m! {
                sys_fork(server);
                let conn <- client.connect(Endpoint::new(HostId(2), 80));
                recv_exact(&conn.expect("connect"), total)
            })
            .expect("transfer completes")
            .expect("burst received");
        assert_eq!(got.len(), total);
        // The handshake, segment 64, and the PSH that ends the burst.
        let stats = a.stats();
        assert_eq!(stats.pure_acks.get(), 3);
        assert_eq!(stats.acks_coalesced.get(), BURST as u64 - 2);
        assert_eq!(b.stats().retransmits.get(), 0);
    }
}
