//! The per-connection TCP control block and state machine.
//!
//! A pure(ish) transition system in the spirit of the HOL-derived stack the
//! paper describes (§4.8): `on_segment` and `on_tick` consume events and
//! produce reply segments; all timing comes in as arguments, so the same
//! machine runs under real and virtual clocks and can be unit-tested by
//! feeding it segments directly — no sockets, threads or clocks required.
//!
//! The state rules are stated once, on [`State`]: which states are still
//! handshaking, which accept writes, which still owe the peer data or a
//! FIN, and where sending our FIN, having it acknowledged and consuming the
//! peer's FIN lead. Everything else reads them. [`Tcb::output`] is the only
//! transmit path for data and FIN segments, first sends and go-back-N
//! resends after a timeout alike; its one segment builder also makes the
//! fast retransmit's head segment, and counts every segment that starts
//! below `snd_max` as one retransmission.
//!
//! A `Tcb` stops at [`State::TimeWait`]. What that state still needs — the
//! bare ACK a retransmitted FIN gets, and the instant 2MSL ends — is a
//! [`TimeWait`] record of its own, which the host keeps in the TCB's place.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use eveth_core::io::queue::{copy_break, ByteQueue};
use eveth_core::net::{Endpoint, NetError};
use eveth_core::reactor::{Interest, WaitKey, WaitTable, Waiter};
use eveth_core::telemetry::metrics::Counter;
use eveth_core::time::{Nanos, MILLIS};

use crate::congestion::{CcAction, Reno};
use crate::rtt::RttEstimator;
use crate::segment::{Flags, Segment};
use crate::seq::{seq_diff, seq_ge, seq_gt, seq_le, seq_lt};

/// Tunables for one TCP stack instance.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per segment).
    pub mss: usize,
    /// Send-buffer capacity (unsent + unacknowledged bytes).
    pub send_buf: usize,
    /// Receive window (assembled + out-of-order bytes).
    pub recv_window: usize,
    /// Retransmission timeout clamp, lower bound.
    pub min_rto: Nanos,
    /// Retransmission timeout clamp, upper bound.
    pub max_rto: Nanos,
    /// RTO before the first RTT sample (RFC 6298's conservative start).
    /// A fresh connection's first lost segment — a SYN into a partition,
    /// typically — waits this long before retransmitting, so LAN-class
    /// deployments tune it far below the WAN-safe default.
    pub initial_rto: Nanos,
    /// Period of the `worker_tcp_timer` loop.
    pub tick: Nanos,
    /// How long a closed connection lingers in TIME_WAIT.
    pub time_wait: Nanos,
    /// Initial congestion window, in MSS units.
    pub initial_cwnd_mss: u32,
    /// Connection attempts give up after this many SYN retransmissions.
    pub max_syn_retries: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            send_buf: 64 * 1024,
            recv_window: 64 * 1024,
            min_rto: 200 * MILLIS,
            max_rto: 60_000 * MILLIS,
            initial_rto: 200 * MILLIS,
            tick: 10 * MILLIS,
            time_wait: 1_000 * MILLIS,
            initial_cwnd_mss: 2,
            max_syn_retries: 6,
        }
    }
}

/// Counters for one TCP host, shared by its connections.
#[derive(Debug, Default)]
pub struct TcpStats {
    /// Segments handed to the transport.
    pub segs_sent: Counter,
    /// Segments received from the transport.
    pub segs_received: Counter,
    /// Connections actively opened.
    pub conns_opened: Counter,
    /// Connections accepted from listeners.
    pub conns_accepted: Counter,
    /// RSTs emitted for unmatched segments.
    pub resets_sent: Counter,
    /// Payload bytes that entered or left a TCB queue as a refcounted
    /// window of the buffer they already were in.
    pub payload_bytes_aliased: Counter,
    /// Payload bytes that entered or left a TCB queue by being copied: a
    /// segment or read gathered across chunks, a piece under the
    /// copy-break.
    pub payload_bytes_copied: Counter,
    /// Segments retransmitted (RTO and fast retransmit).
    pub retransmits: Counter,
    /// Bare ACKs sent: no payload, no SYN, FIN or RST.
    pub pure_acks: Counter,
    /// Data segments that got no ACK of their own: a later segment's ACK
    /// covered them.
    pub acks_coalesced: Counter,
    /// ACKs owed for received data that no outgoing segment carried and no
    /// batch end released, so the tick sent them: what the delay to the
    /// reply costs in latency.
    pub acks_on_tick: Counter,
    /// Retransmission timeouts that fired (handshake included).
    pub rto_fires: Counter,
    /// Duplicate ACKs received while data was in flight.
    pub dup_acks_received: Counter,
}

/// TCP connection states (RFC 793 §3.2; LISTEN lives at the host level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Active open: SYN sent, awaiting SYN+ACK.
    SynSent,
    /// Passive open: SYN received, SYN+ACK sent, awaiting ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, awaiting its ACK.
    FinWait1,
    /// Our FIN acknowledged; awaiting the peer's FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Simultaneous close: FIN exchanged, awaiting our FIN's ACK.
    Closing,
    /// Passive close finished sending; awaiting final ACK.
    LastAck,
    /// Both FINs acknowledged, ours last. The TCB's part ends here: a
    /// [`TimeWait`] record lingers in its place.
    TimeWait,
    /// Gone.
    Closed,
}

impl State {
    /// The TCB has nothing left to do: the connection is gone, or its
    /// TIME_WAIT record answers for it.
    fn ended(self) -> bool {
        matches!(self, State::TimeWait | State::Closed)
    }

    /// The three-way handshake is still running: no data moves, and a
    /// timeout resends the SYN (or SYN+ACK).
    pub(crate) fn handshaking(self) -> bool {
        matches!(self, State::SynSent | State::SynRcvd)
    }

    /// The application may still queue data: our FIN is not due yet.
    fn accepts_writes(self) -> bool {
        matches!(
            self,
            State::SynSent | State::SynRcvd | State::Established | State::CloseWait
        )
    }

    /// Data or our FIN may still be owed to the peer — unsent, or sent and
    /// unacknowledged and so resent after a timeout.
    fn owes_output(self) -> bool {
        matches!(
            self,
            State::Established
                | State::CloseWait
                | State::FinWait1
                | State::Closing
                | State::LastAck
        )
    }

    /// Where sending our FIN the first time leads.
    fn on_fin_sent(self) -> Option<State> {
        match self {
            State::Established => Some(State::FinWait1),
            State::CloseWait => Some(State::LastAck),
            _ => None,
        }
    }

    /// Where the acknowledgement of our FIN leads.
    fn on_fin_acked(self) -> Option<State> {
        match self {
            State::FinWait1 => Some(State::FinWait2),
            State::Closing => Some(State::TimeWait),
            State::LastAck => Some(State::Closed),
            _ => None,
        }
    }

    /// Where consuming the peer's FIN leads.
    fn on_peer_fin(self) -> Option<State> {
        match self {
            State::Established => Some(State::CloseWait),
            State::FinWait1 => Some(State::Closing),
            State::FinWait2 => Some(State::TimeWait),
            _ => None,
        }
    }
}

/// The ACK this side owes for accepted payload and no segment has carried
/// yet — the one ACK state a [`Tcb`] keeps. Ordered by how soon it leaves,
/// so a new debt and an old one combine with `max`: the earliest release
/// wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum AckOwed {
    /// Nothing owed.
    Nothing,
    /// The end of a short write: the reply carries it, else the tick.
    Reply,
    /// The middle of a burst: the batch end releases it, if nothing sooner.
    BatchEnd,
}

/// A connection in TIME_WAIT: what outlives its [`Tcb`] for 2MSL. No
/// queues, timers or waiter lists — one bare ACK and one deadline.
#[derive(Debug)]
pub struct TimeWait {
    /// The bare ACK the TCB last sent: a retransmitted FIN gets it again.
    ack: Segment,
    until: Nanos,
}

impl TimeWait {
    /// When the linger ends.
    pub fn until(&self) -> Nanos {
        self.until
    }

    /// Answers a segment for the lingering connection. A retransmitted FIN
    /// — our ACK of it was lost — gets the same bare ACK again; anything
    /// else is absorbed. The flag is false when the segment ends the
    /// linger: a RST.
    pub(crate) fn on_segment(&self, seg: &Segment) -> (Option<Segment>, bool) {
        if seg.flags.rst {
            return (None, false);
        }
        (seg.flags.fin.then(|| self.ack.clone()), true)
    }
}

/// The TCP control block: all state for one connection.
pub struct Tcb {
    cfg: TcpConfig,
    local: Endpoint,
    peer: Endpoint,
    state: State,

    // Send side.
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    /// Highest sequence ever sent; survives go-back-N rollbacks so ACKs for
    /// pre-rollback data are still acceptable.
    snd_max: u32,
    snd_wnd: u32,
    /// Written and not yet acknowledged; offset 0 is `snd_una`.
    snd_buf: ByteQueue,
    /// The application closed: our FIN follows the last byte written.
    fin_queued: bool,
    cc: Reno,
    rtt: RttEstimator,
    rto_deadline: Option<Nanos>,
    rtt_sample: Option<(u32, Nanos)>,
    syn_retries: u32,

    // Receive side.
    irs: u32,
    rcv_nxt: u32,
    /// Payload bytes accepted in order so far: `rcv_nxt` as a stream
    /// offset that never wraps.
    rcv_pos: u64,
    readable: ByteQueue,
    /// Out-of-order payloads by stream offset — not by raw sequence
    /// number, whose numeric order is not arrival order within a window
    /// of 2³².
    ooo: BTreeMap<u64, Bytes>,
    ooo_bytes: usize,
    peer_fin: Option<u32>,
    fin_received: bool,
    /// Payload was accepted and its ACK has not left: it rides on the next
    /// segment this side builds, or leaves on [`Tcb::flush_ack`] or the tick.
    ack_owed: AckOwed,

    // Lifecycle.
    error: Option<NetError>,
    retransmit_count: u64,
    /// The owning host's counters (none for a bare TCB in unit tests).
    stats: Option<Arc<TcpStats>>,

    // Readiness registrations from blocked application threads
    // (`sys_epoll_wait` waiters, routed through the runtime's event port
    // on wake). A connector waits among the writers: a handshaking TCB is
    // not writable.
    recv_waiters: WaitTable,
    send_waiters: WaitTable,
}

impl Tcb {
    /// Creates a TCB performing an active open. The caller must transmit
    /// [`Tcb::syn_segment`]; the retransmission timer is already armed.
    pub fn new_active(
        cfg: TcpConfig,
        local: Endpoint,
        peer: Endpoint,
        iss: u32,
        now: Nanos,
    ) -> Self {
        let mut tcb = Self::new_raw(cfg, local, peer, iss, State::SynSent);
        tcb.snd_nxt = iss.wrapping_add(1); // SYN occupies one position
        tcb.snd_max = tcb.snd_nxt;
        tcb.rto_deadline = Some(now + tcb.rtt.rto());
        tcb
    }

    /// Creates a TCB for a passive open in response to `syn`. The caller
    /// must transmit [`Tcb::syn_ack_segment`].
    pub fn new_passive(
        cfg: TcpConfig,
        local: Endpoint,
        peer: Endpoint,
        iss: u32,
        syn: &Segment,
        now: Nanos,
    ) -> Self {
        let mut tcb = Self::new_raw(cfg, local, peer, iss, State::SynRcvd);
        tcb.snd_nxt = iss.wrapping_add(1);
        tcb.snd_max = tcb.snd_nxt;
        tcb.irs = syn.seq;
        tcb.rcv_nxt = syn.seq.wrapping_add(1);
        tcb.snd_wnd = syn.wnd;
        tcb.rto_deadline = Some(now + tcb.rtt.rto());
        tcb
    }

    fn new_raw(cfg: TcpConfig, local: Endpoint, peer: Endpoint, iss: u32, state: State) -> Self {
        let cc = Reno::new(cfg.mss as u32, cfg.initial_cwnd_mss);
        let rtt = RttEstimator::with_initial(cfg.min_rto, cfg.max_rto, cfg.initial_rto);
        Tcb {
            cfg,
            local,
            peer,
            state,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_max: iss,
            snd_wnd: 0,
            snd_buf: ByteQueue::new(),
            fin_queued: false,
            cc,
            rtt,
            rto_deadline: None,
            rtt_sample: None,
            syn_retries: 0,
            irs: 0,
            rcv_nxt: 0,
            rcv_pos: 0,
            readable: ByteQueue::new(),
            ooo: BTreeMap::new(),
            ooo_bytes: 0,
            peer_fin: None,
            fin_received: false,
            ack_owed: AckOwed::Nothing,
            error: None,
            retransmit_count: 0,
            stats: None,
            recv_waiters: WaitTable::new(),
            send_waiters: WaitTable::new(),
        }
    }

    /// Reports this connection's payload and retransmission counts into
    /// `stats` from now on.
    pub fn report_to(&mut self, stats: Arc<TcpStats>) {
        self.stats = Some(stats);
    }

    fn count(&self, cell: impl Fn(&TcpStats) -> &Counter) {
        if let Some(stats) = &self.stats {
            cell(stats).incr();
        }
    }

    /// Accounts `total` payload bytes crossing a queue boundary, `copied`
    /// of them physically.
    fn note_payload(&self, total: usize, copied: usize) {
        if let Some(stats) = &self.stats {
            stats.payload_bytes_aliased.add((total - copied) as u64);
            stats.payload_bytes_copied.add(copied as u64);
        }
    }

    // -- Accessors ----------------------------------------------------------

    /// Current state.
    pub fn state(&self) -> State {
        self.state
    }

    /// The local endpoint.
    pub fn local(&self) -> Endpoint {
        self.local
    }

    /// The remote endpoint.
    pub fn peer(&self) -> Endpoint {
        self.peer
    }

    /// The fatal error that closed this connection, if any.
    pub fn error(&self) -> Option<NetError> {
        self.error.clone()
    }

    /// Retransmitted segments so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmit_count
    }

    /// Current congestion window in bytes (exposed for tests/benches).
    pub fn cwnd(&self) -> u32 {
        self.cc.cwnd()
    }

    /// Bytes queued in the send buffer (sent-unacked + unsent).
    pub fn send_buffered(&self) -> usize {
        self.snd_buf.len()
    }

    /// Bytes assembled and readable by the application.
    pub fn recv_buffered(&self) -> usize {
        self.readable.len()
    }

    fn in_flight(&self) -> u32 {
        seq_diff(self.snd_nxt, self.snd_una)
    }

    fn recv_window(&self) -> u32 {
        let used = self.readable.len() + self.ooo_bytes;
        self.cfg.recv_window.saturating_sub(used) as u32
    }

    /// Where our FIN sits once the application closed: right after the
    /// last byte written.
    fn fin_seq(&self) -> u32 {
        self.snd_una.wrapping_add(self.snd_buf.len() as u32)
    }

    fn segment(&self, seq: u32, ack: u32, flags: Flags, payload: Bytes) -> Segment {
        Segment {
            src_port: self.local.port,
            dst_port: self.peer.port,
            seq,
            ack,
            flags,
            wnd: self.recv_window(),
            payload,
        }
    }

    /// Builds a post-handshake segment. Each one carries the cumulative
    /// ACK, so whatever was held leaves with it.
    fn make_seg(&mut self, seq: u32, flags: Flags, payload: Bytes) -> Segment {
        self.ack_owed = AckOwed::Nothing;
        self.segment(seq, self.rcv_nxt, flags, payload)
    }

    /// A bare ACK, now: the current `rcv_nxt` and receive window. Every
    /// immediate acknowledgement, the release of a held or delayed one and
    /// the window update after a read reopens a closed window are this
    /// call.
    pub fn ack_segment(&mut self) -> Segment {
        self.make_seg(self.snd_nxt, Flags::ack(), Bytes::new())
    }

    /// The ACK held for the middle of a burst (see [`Tcb::on_segment`]), if
    /// no outgoing segment has carried it yet. The host calls this when a
    /// batch of arrivals ends. The ACK of a short write's end is not
    /// released here: it waits for the reply, with [`Tcb::on_tick`] as the
    /// backstop for both.
    pub fn flush_ack(&mut self) -> Option<Segment> {
        self.ack_held().then(|| self.ack_segment())
    }

    /// True while an ACK is held for the batch end: [`Tcb::flush_ack`]
    /// would send it.
    pub fn ack_held(&self) -> bool {
        self.ack_owed == AckOwed::BatchEnd
    }

    /// The initial SYN (active open).
    pub fn syn_segment(&self) -> Segment {
        self.segment(self.iss, 0, Flags::syn(), Bytes::new())
    }

    /// The SYN+ACK (passive open).
    pub fn syn_ack_segment(&self) -> Segment {
        self.segment(self.iss, self.rcv_nxt, Flags::syn_ack(), Bytes::new())
    }

    /// The record that takes this TCB's place once it reached TIME_WAIT at
    /// `now`; `None` in any other state.
    pub fn time_wait(&self, now: Nanos) -> Option<TimeWait> {
        (self.state == State::TimeWait).then(|| TimeWait {
            ack: self.segment(self.snd_nxt, self.rcv_nxt, Flags::ack(), Bytes::new()),
            until: now + self.cfg.time_wait,
        })
    }

    // -- Wakeups -------------------------------------------------------------

    fn wake_all(&mut self) {
        self.recv_waiters.wake_all();
        self.send_waiters.wake_all();
    }

    /// Moves to `next`; CLOSED wakes everyone.
    fn enter(&mut self, next: State) {
        self.state = next;
        if next == State::Closed {
            self.wake_all();
        }
    }

    /// Registers a readiness waiter and returns its entry's key; wakes it
    /// immediately instead (`None`) if `interest` already holds
    /// (lost-wakeup-free: callers hold the TCB lock). Readable means
    /// data, EOF or an error is available. A handshaking TCB is not
    /// writable — the non-blocking `connect` convention: the socket
    /// signals writable once the three-way handshake resolves, either way.
    pub fn register(&mut self, interest: Interest, w: Waiter) -> Option<WaitKey> {
        let ready = match interest {
            Interest::Read => self.read_ready(),
            Interest::Write => self.write_ready(),
        };
        if ready {
            w.wake();
            None
        } else {
            Some(self.waiters(interest).push(w))
        }
    }

    /// The waiters registered for `interest`.
    pub(crate) fn waiters(&mut self, interest: Interest) -> &mut WaitTable {
        match interest {
            Interest::Read => &mut self.recv_waiters,
            Interest::Write => &mut self.send_waiters,
        }
    }

    fn read_ready(&self) -> bool {
        !self.readable.is_empty() || self.fin_received || self.error.is_some()
    }

    fn write_ready(&self) -> bool {
        self.error.is_some()
            || !self.state.accepts_writes()
            || (!self.state.handshaking() && self.snd_buf.len() < self.cfg.send_buf)
    }

    // -- Application interface ------------------------------------------------

    /// Queues application data for transmission; returns the bytes accepted
    /// (0 = buffer full, caller should park). The queue keeps a window of
    /// `data`, not a copy.
    ///
    /// # Errors
    ///
    /// The connection's fatal error, or [`NetError::Closed`] after the
    /// sending direction was shut down.
    pub fn app_write(&mut self, data: Bytes) -> Result<usize, NetError> {
        self.app_writev(&[data])
    }

    /// Gather form of [`Tcb::app_write`]: queues a prefix of the
    /// concatenation of `pieces` and returns its length.
    ///
    /// # Errors
    ///
    /// As [`Tcb::app_write`].
    pub fn app_writev(&mut self, pieces: &[Bytes]) -> Result<usize, NetError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        if self.fin_queued || !self.state.accepts_writes() {
            return Err(NetError::Closed);
        }
        let room = self.cfg.send_buf.saturating_sub(self.snd_buf.len());
        let (accepted, copied) = self.snd_buf.write(pieces, room);
        self.note_payload(accepted, copied);
        Ok(accepted)
    }

    /// Takes up to `max` assembled bytes — a window of the arrived payload
    /// whenever one queued chunk covers the read. `Ok(None)` means no data
    /// yet (park); `Ok(Some(empty))` means end-of-stream. The boolean is true
    /// when this read reopened a zero receive window (caller should send a
    /// window-update ACK).
    ///
    /// # Errors
    ///
    /// The connection's fatal error (reset, timeout).
    #[allow(clippy::type_complexity)]
    pub fn app_read(&mut self, max: usize) -> Result<(Option<Bytes>, bool), NetError> {
        if self.readable.is_empty() {
            if let Some(e) = &self.error {
                return Err(e.clone());
            }
        }
        if !self.readable.is_empty() {
            let was_zero = self.recv_window() == 0;
            let n = max.min(self.readable.len());
            let (out, copied) = self.readable.take(n);
            self.note_payload(n, copied);
            let reopened = was_zero && self.recv_window() > 0;
            return Ok((Some(out), reopened));
        }
        if self.fin_received {
            return Ok((Some(Bytes::new()), false)); // EOF
        }
        Ok((None, false))
    }

    /// Application close: no further writes; a FIN is emitted once queued
    /// data drains.
    pub fn app_close(&mut self) {
        self.fin_queued = true;
        self.send_waiters.wake_all();
    }

    /// Hard abort: emits a RST (returned) and kills the connection.
    pub fn app_abort(&mut self) -> Segment {
        let seg = self.make_seg(self.snd_nxt, Flags::rst(), Bytes::new());
        self.error = Some(NetError::Reset);
        self.state = State::Closed;
        self.wake_all();
        seg
    }

    // -- Transmission ----------------------------------------------------------

    /// Emits everything the windows allow from `snd_nxt` — data, then the
    /// FIN once the data before it is out — in every state that still owes
    /// output. After a timeout rewinds `snd_nxt` this is also the go-back-N
    /// resend. Arms/disarms the RTO.
    pub fn output(&mut self, now: Nanos) -> Vec<Segment> {
        let mut out = Vec::new();
        if !self.state.owes_output() {
            return out;
        }
        let wnd = self.cc.cwnd().min(self.snd_wnd.max(self.cfg.mss as u32)) as usize;
        while let Some(seg) =
            self.segment_at(self.snd_nxt, wnd.saturating_sub(self.in_flight() as usize))
        {
            self.snd_nxt = seg.seq_end();
            if seq_gt(self.snd_nxt, self.snd_max) {
                self.snd_max = self.snd_nxt;
            }
            if seg.flags.fin {
                if let Some(next) = self.state.on_fin_sent() {
                    self.state = next;
                }
            } else if self.rtt_sample.is_none() {
                self.rtt_sample = Some((self.snd_nxt, now));
            }
            out.push(seg);
        }
        // RTO management.
        if self.in_flight() > 0 {
            if self.rto_deadline.is_none() {
                self.rto_deadline = Some(now + self.rtt.rto());
            }
        } else {
            self.rto_deadline = None;
        }
        out
    }

    /// The one builder of data and FIN segments: the segment starting at
    /// `seq` — up to `room` bytes (at most an MSS) of the send queue, or
    /// our FIN when `seq` is its place. One starting below `snd_max`
    /// repeats sequence space already sent: a retransmission.
    fn segment_at(&mut self, seq: u32, room: usize) -> Option<Segment> {
        let offset = seq_diff(seq, self.snd_una) as usize; // snd_buf[0] is at snd_una
        let n = self
            .cfg
            .mss
            .min(room)
            .min(self.snd_buf.len().saturating_sub(offset));
        let mut flags = Flags::ack();
        let payload = if n > 0 {
            let (chunk, copied) = self.snd_buf.range(offset, n);
            self.note_payload(n, copied);
            // PSH marks the end of what was written — the receiver
            // acknowledges there, at once or with its reply to a short
            // write, and holds its ACK before — and every resend, so that
            // recovery is clocked segment by segment.
            flags.psh = offset + n == self.snd_buf.len() || seq_lt(seq, self.snd_max);
            chunk
        } else if self.fin_queued && seq == self.fin_seq() {
            flags.fin = true;
            Bytes::new()
        } else {
            return None;
        };
        if seq_lt(seq, self.snd_max) {
            self.note_retransmit();
        }
        Some(self.make_seg(seq, flags, payload))
    }

    fn note_retransmit(&mut self) {
        self.retransmit_count += 1;
        self.count(|s| &s.retransmits);
    }

    // -- Timers ---------------------------------------------------------------

    /// Advances timers to `now`; returns segments to (re)transmit.
    pub fn on_tick(&mut self, now: Nanos) -> Vec<Segment> {
        // Backstop: an ACK no batch end and no outgoing segment released.
        let mut out = Vec::new();
        if self.ack_owed != AckOwed::Nothing {
            self.count(|s| &s.acks_on_tick);
            out.push(self.ack_segment());
        }
        if self.rto_deadline.is_none_or(|d| now < d) {
            return out;
        }
        // Retransmission timeout.
        self.count(|s| &s.rto_fires);
        if self.state.handshaking() {
            self.syn_retries += 1;
            if self.syn_retries > self.cfg.max_syn_retries {
                self.error = Some(NetError::Timeout);
                self.rto_deadline = None;
                self.enter(State::Closed);
                return out;
            }
        }
        self.cc.on_timeout(self.in_flight());
        self.rtt.backoff();
        self.rtt_sample = None; // Karn's rule
        match self.state {
            State::SynSent => {
                self.note_retransmit();
                out.push(self.syn_segment());
            }
            State::SynRcvd => {
                self.note_retransmit();
                out.push(self.syn_ack_segment());
            }
            _ => {
                // Go-back-N: rewind the send frontier; output resends from it.
                self.snd_nxt = self.snd_una;
                out.extend(self.output(now));
            }
        }
        self.rto_deadline = Some(now + self.rtt.rto());
        out
    }

    // -- Segment arrival --------------------------------------------------------

    /// Processes an arriving segment; returns replies to transmit. The
    /// returned flag is true if the connection just became `Established`
    /// (the host promotes a passive one to its listener's accept queue).
    ///
    /// Payload is acknowledged in the replies, with two exceptions for an
    /// in-order segment (nothing missing, no FIN):
    /// - the middle of a burst (full-sized, no PSH) holds its ACK for the
    ///   next outgoing segment or [`Tcb::flush_ack`] at the batch end;
    /// - the end of a short write (PSH, under an MSS, at least an MSS of
    ///   receive window left, and this side still able to write) delays its
    ///   ACK to the next outgoing segment — normally the reply — or the
    ///   next [`Tcb::on_tick`].
    pub fn on_segment(&mut self, seg: Segment, now: Nanos) -> (Vec<Segment>, bool) {
        let mut became_established = false;
        let mut out = Vec::new();
        if self.state.ended() {
            return (out, false);
        }

        if seg.flags.rst {
            // One answering our SYN means nobody is listening.
            self.error = Some(if self.state == State::SynSent {
                NetError::ConnectionRefused
            } else {
                NetError::Reset
            });
            self.ack_owed = AckOwed::Nothing; // nobody is left to acknowledge to
            self.enter(State::Closed);
            return (out, false);
        }

        match self.state {
            State::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == self.iss.wrapping_add(1) {
                    self.irs = seg.seq;
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.establish(&seg);
                    out.push(self.ack_segment());
                    out.extend(self.output(now));
                    return (out, true);
                }
                return (out, false);
            }
            State::SynRcvd => {
                if seg.flags.syn && !seg.flags.ack {
                    // Duplicate SYN: our SYN+ACK was lost.
                    out.push(self.syn_ack_segment());
                    return (out, false);
                }
                if !(seg.flags.ack && seg.ack == self.iss.wrapping_add(1)) {
                    return (out, false);
                }
                self.establish(&seg);
                became_established = true;
                // Fall through: the ACK may carry data.
            }
            _ => {}
        }

        // A SYN+ACK after the handshake was resent: our ACK of it was lost.
        let mut need_ack = seg.flags.syn;

        // ---- ACK processing.
        if seg.flags.ack {
            let in_flight_before = self.in_flight();
            if seq_gt(seg.ack, self.snd_una) && seq_le(seg.ack, self.snd_max) {
                if seq_gt(seg.ack, self.snd_nxt) {
                    // The ACK covers data sent before a go-back-N rollback.
                    self.snd_nxt = seg.ack;
                }
                let acked = seq_diff(seg.ack, self.snd_una);
                // An acceptable ACK past the FIN's place covers the FIN.
                let fin_acked = self.fin_queued && seg.ack == self.fin_seq().wrapping_add(1);
                self.snd_buf
                    .advance((acked - u32::from(fin_acked)) as usize);
                self.snd_una = seg.ack;
                self.cc.on_new_ack(acked, self.snd_una, in_flight_before);
                if let Some((sample_seq, sent_at)) = self.rtt_sample {
                    if seq_ge(seg.ack, sample_seq) {
                        self.rtt.sample(now.saturating_sub(sent_at));
                        self.rtt_sample = None;
                    }
                }
                self.rto_deadline = if self.in_flight() > 0 {
                    Some(now + self.rtt.rto())
                } else {
                    None
                };
                self.send_waiters.wake_all();
                if let Some(next) = self.state.on_fin_acked().filter(|_| fin_acked) {
                    self.enter(next);
                }
            } else if seg.ack == self.snd_una
                && self.in_flight() > 0
                && seg.payload.is_empty()
                && !seg.flags.fin
            {
                self.count(|s| &s.dup_acks_received);
                if let CcAction::FastRetransmit = self.cc.on_dup_ack(self.snd_nxt, in_flight_before)
                {
                    // Resend the head: data, or the FIN if nothing else is out.
                    self.rtt_sample = None; // Karn's rule
                    out.extend(self.segment_at(self.snd_una, self.in_flight() as usize));
                }
            }
            self.snd_wnd = seg.wnd;
        }

        // ---- Payload processing.
        if !seg.payload.is_empty() {
            if self.ack_owed != AckOwed::Nothing {
                self.count(|s| &s.acks_coalesced); // this segment's ACK covers it
            }
            let in_order = seg.seq == self.rcv_nxt && self.ooo.is_empty() && !seg.flags.fin;
            let full = seg.payload.len() >= self.cfg.mss;
            self.ingest_payload(seg.seq, seg.payload.clone());
            // The middle of a burst is acknowledged with what follows it.
            // The end of a short write is acknowledged by the answer to it,
            // while an answer can still come and the window the sender
            // sees stays open. Anything else — what loss recovery or a
            // sender held back by its windows waits for — is acknowledged
            // now.
            let owed = match (in_order, full, seg.flags.psh) {
                (true, true, false) => AckOwed::BatchEnd,
                (true, false, true)
                    if self.state.accepts_writes()
                        && !self.fin_queued
                        && self.recv_window() as usize >= self.cfg.mss =>
                {
                    AckOwed::Reply
                }
                _ => AckOwed::Nothing,
            };
            if owed == AckOwed::Nothing {
                need_ack = true;
            }
            self.ack_owed = self.ack_owed.max(owed);
        }

        // ---- FIN processing.
        if seg.flags.fin {
            need_ack = true;
            let fin_pos = seg.seq.wrapping_add(seg.payload.len() as u32);
            self.peer_fin = Some(fin_pos);
        }
        self.maybe_consume_fin();

        // ---- Replies: data (carrying the ACK) or a bare ACK.
        let data_out = self.output(now);
        let sent_data = !data_out.is_empty();
        out.extend(data_out);
        if need_ack && !sent_data {
            out.push(self.ack_segment());
        }
        (out, became_established)
    }

    fn ingest_payload(&mut self, seq: u32, payload: Bytes) {
        let seg_end = seq.wrapping_add(payload.len() as u32);
        if seq_le(seg_end, self.rcv_nxt) {
            return; // pure duplicate
        }
        if seq_lt(seq, self.rcv_nxt) {
            // Partial overlap: take the new suffix.
            let skip = seq_diff(self.rcv_nxt, seq) as usize;
            self.accept_in_order(payload.slice(skip..));
            return;
        }
        if seq == self.rcv_nxt {
            self.accept_in_order(payload);
            return;
        }
        // Out of order: hold if it fits the window.
        let window_end = self.rcv_nxt.wrapping_add(self.cfg.recv_window as u32);
        if seq_lt(seq, window_end) {
            let pos = self.rcv_pos + u64::from(seq_diff(seq, self.rcv_nxt));
            if !self.ooo.contains_key(&pos) {
                // Held for as long as the gap stays open: under the
                // copy-break like any queued piece.
                let (held, copied) = copy_break(payload);
                self.note_payload(held.len(), copied);
                self.ooo_bytes += held.len();
                self.ooo.insert(pos, held);
            }
        }
    }

    /// Queues `payload`, whose first byte is at `rcv_nxt`, for the reader.
    fn deliver(&mut self, payload: Bytes) {
        let n = payload.len();
        let copied = self.readable.push(payload);
        self.note_payload(n, copied);
        self.rcv_nxt = self.rcv_nxt.wrapping_add(n as u32);
        self.rcv_pos += n as u64;
    }

    fn accept_in_order(&mut self, payload: Bytes) {
        self.deliver(payload);
        // Drain any now-contiguous out-of-order segments.
        while let Some(entry) = self.ooo.first_entry() {
            let pos = *entry.key();
            if pos > self.rcv_pos {
                break;
            }
            let chunk = entry.remove();
            self.ooo_bytes -= chunk.len();
            let end = pos + chunk.len() as u64;
            if end <= self.rcv_pos {
                continue; // fully duplicate
            }
            let skip = (self.rcv_pos - pos) as usize;
            self.deliver(chunk.slice(skip..));
        }
        self.recv_waiters.wake_all();
    }

    fn maybe_consume_fin(&mut self) {
        let Some(fin_pos) = self.peer_fin else { return };
        if self.fin_received || self.rcv_nxt != fin_pos {
            return;
        }
        self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
        self.fin_received = true;
        self.recv_waiters.wake_all();
        if let Some(next) = self.state.on_peer_fin() {
            self.enter(next);
        }
    }

    /// Completes the handshake, on either side: `seg` acknowledges our SYN.
    fn establish(&mut self, seg: &Segment) {
        self.snd_una = seg.ack;
        self.snd_wnd = seg.wnd;
        self.state = State::Established;
        self.rto_deadline = None;
        self.send_waiters.wake_all(); // a waiting connector
    }
}

impl fmt::Debug for Tcb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tcb[{} -> {} {:?} una={} nxt={} rcv={} buf={} readable={}]",
            self.local,
            self.peer,
            self.state,
            self.snd_una,
            self.snd_nxt,
            self.rcv_nxt,
            self.snd_buf.len(),
            self.readable.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eveth_core::net::HostId;

    fn pair() -> (Tcb, Tcb) {
        pair_with(TcpConfig::default())
    }

    fn pair_with(cfg: TcpConfig) -> (Tcb, Tcb) {
        let a = Endpoint::new(HostId(1), 1000);
        let b = Endpoint::new(HostId(2), 80);
        let mut client = Tcb::new_active(cfg.clone(), a, b, 100, 0);
        let syn = client.syn_segment();
        let mut server = Tcb::new_passive(cfg, b, a, 5000, &syn, 0);
        let syn_ack = server.syn_ack_segment();
        let (acks, est_c) = client.on_segment(syn_ack, 1000);
        assert!(est_c);
        assert_eq!(client.state(), State::Established);
        let mut est_s = false;
        for seg in acks {
            let (_replies, est) = server.on_segment(seg, 2000);
            est_s |= est;
        }
        assert!(est_s);
        assert_eq!(server.state(), State::Established);
        (client, server)
    }

    /// Delivers all of `segs` from one side to the other, returning replies.
    fn deliver(to: &mut Tcb, segs: Vec<Segment>, now: Nanos) -> Vec<Segment> {
        let mut replies = Vec::new();
        for seg in segs {
            let (r, _) = to.on_segment(seg, now);
            replies.extend(r);
        }
        replies
    }

    /// Ping-pongs segments until both sides go silent.
    fn settle(a: &mut Tcb, b: &mut Tcb, first: Vec<Segment>, mut now: Nanos) {
        let mut from_a = first;
        let mut from_b = Vec::new();
        for _ in 0..100 {
            if from_a.is_empty() && from_b.is_empty() {
                return;
            }
            now += 1000;
            from_b = deliver(b, std::mem::take(&mut from_a), now);
            now += 1000;
            from_a = deliver(a, std::mem::take(&mut from_b), now);
        }
        panic!("segment exchange did not settle");
    }

    #[test]
    fn three_way_handshake_establishes_both() {
        let _ = pair();
    }

    #[test]
    fn data_transfer_in_order() {
        let (mut c, mut s) = pair();
        assert_eq!(c.app_write(Bytes::from_static(b"hello tcp")).unwrap(), 9);
        let segs = c.output(10_000);
        assert_eq!(segs.len(), 1);
        settle(&mut c, &mut s, segs, 10_000);
        let (data, _) = s.app_read(100).unwrap();
        assert_eq!(&data.unwrap()[..], b"hello tcp");
    }

    #[test]
    fn large_write_fans_out_into_mss_segments() {
        let (mut c, _s) = pair();
        let big = Bytes::from(vec![7u8; 10_000]);
        assert_eq!(c.app_write(big).unwrap(), 10_000);
        let segs = c.output(10_000);
        // cwnd = 2 MSS initially: exactly two segments go out.
        assert_eq!(segs.len(), 2);
        assert!(segs.iter().all(|s| s.payload.len() == 1460));
    }

    #[test]
    fn out_of_order_segments_reassemble() {
        let (mut c, mut s) = pair();
        c.app_write(Bytes::from_static(b"aaaabbbb")).unwrap();
        let mut segs = {
            // Force two small segments by draining output at mss=4.
            let cfg = TcpConfig {
                mss: 4,
                ..Default::default()
            };
            // Rebuild client with small MSS for this test.
            let _ = cfg;
            c.output(10_000)
        };
        // Only one segment here (8 bytes < MSS); manually split it.
        assert_eq!(segs.len(), 1);
        let seg = segs.remove(0);
        let first = Segment {
            payload: seg.payload.slice(..4),
            ..seg.clone()
        };
        let second = Segment {
            seq: seg.seq.wrapping_add(4),
            payload: seg.payload.slice(4..),
            ..seg.clone()
        };
        // Deliver out of order.
        deliver(&mut s, vec![second], 20_000);
        let (none, _) = s.app_read(64).unwrap();
        assert!(none.is_none(), "gap: nothing readable yet");
        deliver(&mut s, vec![first], 21_000);
        let (data, _) = s.app_read(64).unwrap();
        assert_eq!(&data.unwrap()[..], b"aaaabbbb");
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let (mut c, mut s) = pair();
        c.app_write(Bytes::from_static(b"once")).unwrap();
        let segs = c.output(10_000);
        let dup = segs.clone();
        settle(&mut c, &mut s, segs, 10_000);
        deliver(&mut s, dup, 30_000);
        let (data, _) = s.app_read(64).unwrap();
        assert_eq!(&data.unwrap()[..], b"once");
        let (after, _) = s.app_read(64).unwrap();
        assert!(after.is_none(), "duplicate must not re-deliver");
    }

    #[test]
    fn rto_retransmits_lost_segment() {
        let (mut c, mut s) = pair();
        c.app_write(Bytes::from_static(b"lost")).unwrap();
        let segs = c.output(10_000);
        assert_eq!(segs.len(), 1);
        drop(segs); // the network ate it
                    // Fire the retransmission timeout.
        let rto_at = 10_000 + 300 * MILLIS;
        let resent = c.on_tick(rto_at);
        assert!(!resent.is_empty(), "RTO must retransmit");
        assert!(c.retransmits() >= 1);
        settle(&mut c, &mut s, resent, rto_at);
        let (data, _) = s.app_read(64).unwrap();
        assert_eq!(&data.unwrap()[..], b"lost");
    }

    #[test]
    fn triple_dup_ack_fast_retransmits() {
        // Start with a 10-MSS congestion window so six segments depart at
        // once and the lost head produces a burst of duplicate ACKs.
        let cfg = TcpConfig {
            initial_cwnd_mss: 10,
            ..Default::default()
        };
        let (mut c, mut s) = pair_with(cfg);
        let chunk = Bytes::from(vec![1u8; 1460]);
        for _ in 0..6 {
            c.app_write(chunk.clone()).unwrap();
        }
        let mut sent = c.output(10_000);
        // Lose the first segment, deliver the rest: receiver dup-acks.
        sent.remove(0);
        let dup_acks = deliver(&mut s, sent, 20_000);
        assert!(
            dup_acks.len() >= 3,
            "receiver should emit dup ACKs for the gap"
        );
        let before = c.retransmits();
        let replies = deliver(&mut c, dup_acks, 30_000);
        assert!(
            c.retransmits() > before,
            "third dup ACK triggers fast retransmit"
        );
        assert!(replies.iter().any(|sg| sg.seq == c.snd_una));
    }

    #[test]
    fn orderly_close_reaches_closed_and_time_wait() {
        let (mut c, mut s) = pair();
        c.app_close();
        let fin = c.output(10_000);
        assert!(fin.iter().any(|sg| sg.flags.fin));
        assert_eq!(c.state(), State::FinWait1);
        settle(&mut c, &mut s, fin, 10_000);
        assert_eq!(s.state(), State::CloseWait);
        // Server reads EOF.
        let (eof, _) = s.app_read(16).unwrap();
        assert_eq!(eof.unwrap().len(), 0);
        // Server closes too.
        s.app_close();
        let fin2 = s.output(50_000);
        assert!(s.time_wait(50_000).is_none(), "only TIME_WAIT has a record");
        settle(&mut s, &mut c, fin2.clone(), 50_000);
        assert_eq!(s.state(), State::Closed);
        assert_eq!(c.state(), State::TimeWait);
        // TIME_WAIT is a record: it expires 2MSL after it began, and answers
        // the FIN again with the ACK the TCB sent.
        let record = c.time_wait(60_000).expect("the active closer lingers");
        assert_eq!(record.until(), 60_000 + TcpConfig::default().time_wait);
        let (again, lingers) = record.on_segment(&fin2[0]);
        let again = again.expect("a retransmitted FIN is acknowledged");
        assert!(lingers);
        assert_eq!(
            (again.flags, again.seq, again.ack),
            (Flags::ack(), c.snd_nxt, c.rcv_nxt)
        );
        // The TCB itself is done: it neither ticks nor answers any more.
        assert!(c
            .on_tick(60_000 + 10 * TcpConfig::default().time_wait)
            .is_empty());
        assert!(c.on_segment(fin2[0].clone(), 70_000).0.is_empty());
        assert_eq!(c.state(), State::TimeWait);
    }

    #[test]
    fn rst_wakes_and_errors() {
        let (mut c, mut s) = pair();
        let rst = c.app_abort();
        deliver(&mut s, vec![rst], 10_000);
        assert_eq!(s.state(), State::Closed);
        assert_eq!(s.error(), Some(NetError::Reset));
        assert_eq!(s.app_read(16).unwrap_err(), NetError::Reset);
    }

    #[test]
    fn syn_retransmission_then_give_up() {
        let a = Endpoint::new(HostId(1), 1000);
        let b = Endpoint::new(HostId(9), 80); // nobody home
        let cfg = TcpConfig {
            max_syn_retries: 2,
            ..Default::default()
        };
        let mut c = Tcb::new_active(cfg, a, b, 100, 0);
        let mut now = 0;
        let mut retries = 0;
        for _ in 0..10 {
            now += 10_000 * MILLIS;
            let segs = c.on_tick(now);
            if c.state() == State::Closed {
                break;
            }
            if !segs.is_empty() {
                retries += 1;
            }
        }
        assert_eq!(c.state(), State::Closed);
        assert_eq!(c.error(), Some(NetError::Timeout));
        assert!(retries >= 2);
    }

    #[test]
    fn send_buffer_backpressure() {
        let (mut c, _s) = pair();
        let huge = Bytes::from(vec![0u8; 100_000]);
        let n = c.app_write(huge.clone()).unwrap();
        assert_eq!(n, TcpConfig::default().send_buf, "accepts only the buffer");
        assert_eq!(c.app_write(huge).unwrap(), 0, "then blocks");
    }

    #[test]
    fn write_after_close_fails() {
        let (mut c, _s) = pair();
        c.app_close();
        assert_eq!(
            c.app_write(Bytes::from_static(b"x")).unwrap_err(),
            NetError::Closed
        );
    }

    #[test]
    fn flow_control_respects_peer_window() {
        let (mut c, _s) = pair();
        // Peer advertises a tiny window.
        let tiny_wnd = Segment {
            src_port: 80,
            dst_port: 1000,
            seq: c.rcv_nxt,
            ack: c.snd_una,
            flags: Flags::ack(),
            wnd: 1000,
            payload: Bytes::new(),
        };
        c.on_segment(tiny_wnd, 5_000);
        c.app_write(Bytes::from(vec![0u8; 8000])).unwrap();
        let segs = c.output(6_000);
        let sent: usize = segs.iter().map(|s| s.payload.len()).sum();
        assert!(
            sent <= 1460,
            "must respect the advertised window, sent {sent}"
        );
    }
}
