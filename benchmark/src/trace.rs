//! The stage ledger: a `TracedStack` decorator around a host's
//! `NetStack`/`Listener`/`Conn`, taken entirely from outside the layers.
//!
//! The generator announces every batch's request and reply byte ranges
//! before sending. The wrapper on the serving host counts the bytes its
//! application receives and hands back, and stamps the instant a batch's
//! last request byte is returned by `recv` and the instant its last reply
//! byte is handed to `send`/`sendv`. With the generator's own send-start
//! and verified-reply stamps that splits every round trip into
//! client→server transit, service residence and server→client transit.
//! Connections the generator did not announce (the router's dials to its
//! backends) fall back to "first byte in → next reply handed out".
//!
//! Spans stay in memory and are written as Chrome trace-event JSON when
//! the run ends.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use eveth_core::engine::RuntimeCtx;
use eveth_core::event::Event;
use eveth_core::net::{Conn, Endpoint, Listener, NetError, NetStack};
use eveth_core::reactor::Fd;
use eveth_core::time::Nanos;
use eveth_core::ThreadM;

use crate::stats::{summarize_ns, LatSummary};

/// Span names, also the stems of the per-layer metric names.
pub const CONNECT: &str = "net.connect";
pub const ACCEPT_WAIT: &str = "net.accept_wait";
pub const C2S: &str = "net.c2s_transit";
pub const RESIDENCE: &str = "service.residence";
pub const S2C: &str = "net.s2c_transit";
pub const CLOSE: &str = "net.close";
pub const BACKEND_RESIDENCE: &str = "cluster.backend.residence";

/// Events written to the trace file; the statistics always use every span.
const TRACE_FILE_SPANS: usize = 60_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The host that did the work: `client`, `service` or `backend`.
    pub role: &'static str,
    pub conn: u32,
    pub batch: u32,
    pub t0: Nanos,
    pub t1: Nanos,
}

/// One announced batch on a connection.
#[derive(Debug)]
struct Mark {
    req_end: u64,
    rep_end: u64,
    t_req_in: Option<Nanos>,
    t_rep_out: Option<Nanos>,
}

#[derive(Debug, Default)]
struct TrackState {
    /// True once the generator announced a batch: byte ranges rule.
    announced: bool,
    marks: VecDeque<Mark>,
    /// Request bytes announced / reply bytes announced so far.
    req_total: u64,
    rep_total: u64,
    /// Bytes `recv` has returned to the serving application.
    rx: u64,
    /// Bytes the transport accepted from the serving application.
    tx: u64,
    t_accept: Option<Nanos>,
    /// Unannounced connections: when the current request started arriving.
    pending_in: Option<Nanos>,
}

/// Per-connection meeting point of the generator and the serving host's
/// wrapper, keyed by the connection's two endpoints.
#[derive(Debug)]
pub struct ConnTrack {
    pub id: u32,
    state: Mutex<TrackState>,
}

impl ConnTrack {
    fn state(&self) -> std::sync::MutexGuard<'_, TrackState> {
        self.state.lock().expect("ledger state poisoned")
    }

    /// Generator side: announce the next batch before its first byte is
    /// sent.
    pub fn begin_batch(&self, request_len: usize, reply_len: usize) {
        let mut st = self.state();
        st.announced = true;
        st.req_total += request_len as u64;
        st.rep_total += reply_len as u64;
        let (req_end, rep_end) = (st.req_total, st.rep_total);
        st.marks.push_back(Mark {
            req_end,
            rep_end,
            t_req_in: None,
            t_rep_out: None,
        });
    }

    /// Generator side: the oldest batch is verified; take its server-side
    /// stamps (request fully received, reply fully handed out).
    pub fn end_batch(&self) -> (Option<Nanos>, Option<Nanos>) {
        self.state()
            .marks
            .pop_front()
            .map_or((None, None), |m| (m.t_req_in, m.t_rep_out))
    }

    pub fn accepted_at(&self) -> Option<Nanos> {
        self.state().t_accept
    }

    /// Serving side: `recv` returned `n` bytes at `now`. Returns a
    /// residence start for unannounced connections.
    fn on_rx(&self, n: usize, now: Nanos) {
        let mut st = self.state();
        st.rx += n as u64;
        if !st.announced {
            st.pending_in.get_or_insert(now);
            return;
        }
        let rx = st.rx;
        for m in st.marks.iter_mut() {
            if m.req_end <= rx && m.t_req_in.is_none() {
                m.t_req_in = Some(now);
            }
        }
    }

    /// Serving side: `len` bytes are being handed to the transport at
    /// `now` (a retry after a partial accept hands over the remainder, so
    /// the high-water mark is accepted-so-far plus this call).
    fn on_tx_call(&self, len: usize, now: Nanos) -> Option<Nanos> {
        let mut st = self.state();
        if !st.announced {
            return st.pending_in.take();
        }
        let handed = st.tx + len as u64;
        for m in st.marks.iter_mut() {
            if m.rep_end <= handed && m.t_rep_out.is_none() {
                m.t_rep_out = Some(now);
            }
        }
        None
    }

    fn on_tx_done(&self, accepted: usize) {
        self.state().tx += accepted as u64;
    }
}

/// The run's span store and connection registry.
pub struct Ledger {
    ctx: Arc<dyn RuntimeCtx>,
    conns: Mutex<HashMap<(Endpoint, Endpoint), Arc<ConnTrack>>>,
    next_conn: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Client-observed op time, and the part of it no stage covers.
    rtt_ns: AtomicU64,
    unattributed_ns: AtomicU64,
}

impl Ledger {
    pub fn new(ctx: Arc<dyn RuntimeCtx>) -> Arc<Ledger> {
        Arc::new(Ledger {
            ctx,
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            rtt_ns: AtomicU64::new(0),
            unattributed_ns: AtomicU64::new(0),
        })
    }

    pub fn now(&self) -> Nanos {
        self.ctx.now()
    }

    /// The track of the connection between `client` and `server`,
    /// created by whichever side asks first.
    pub fn track(&self, client: Endpoint, server: Endpoint) -> Arc<ConnTrack> {
        let mut conns = self.conns.lock().expect("ledger registry poisoned");
        Arc::clone(conns.entry((client, server)).or_insert_with(|| {
            Arc::new(ConnTrack {
                id: self.next_conn.fetch_add(1, Ordering::Relaxed) as u32,
                state: Mutex::new(TrackState::default()),
            })
        }))
    }

    /// Drops a closed connection's registry entry (its ephemeral port
    /// will be reused).
    pub fn untrack(&self, client: Endpoint, server: Endpoint) {
        self.conns
            .lock()
            .expect("ledger registry poisoned")
            .remove(&(client, server));
    }

    pub fn record_all(&self, spans: impl IntoIterator<Item = Span>) {
        self.spans
            .lock()
            .expect("span store poisoned")
            .extend(spans);
    }

    /// Records one client op: its stages as spans, and how much of
    /// `[t0, t1]` they leave uncovered. Stages whose stamps are missing
    /// or out of order contribute nothing, so a broken ledger shows up as
    /// residual instead of hiding.
    pub fn record_op(&self, t0: Nanos, t1: Nanos, stages: &[Span]) {
        let rtt = t1.saturating_sub(t0);
        let covered: u64 = stages.iter().map(|s| s.t1.saturating_sub(s.t0)).sum();
        self.rtt_ns.fetch_add(rtt, Ordering::Relaxed);
        self.unattributed_ns
            .fetch_add(rtt.abs_diff(covered), Ordering::Relaxed);
        self.record_all(stages.iter().copied());
    }

    /// Σ|RTT − Σ stages| / Σ RTT over every recorded op.
    pub fn residual_ratio(&self) -> f64 {
        let rtt = self.rtt_ns.load(Ordering::Relaxed);
        if rtt == 0 {
            return 1.0;
        }
        self.unattributed_ns.load(Ordering::Relaxed) as f64 / rtt as f64
    }

    /// Median / p99 / count of every span named `name` that started at or
    /// after `since`.
    pub fn summary(&self, name: &str, since: Nanos) -> LatSummary {
        let mut d: Vec<u64> = self
            .spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name && s.t0 >= since)
            .map(|s| s.t1.saturating_sub(s.t0))
            .collect();
        summarize_ns(&mut d)
    }

    /// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing):
    /// one complete (`"ph":"X"`) event per span, `pid` = host role,
    /// `tid` = connection.
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = String::with_capacity(spans.len().min(TRACE_FILE_SPANS) * 120 + 256);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (pid, role) in ROLES.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"{role}\"}}}},",
                pid + 1
            );
        }
        let mut first = true;
        for s in spans.iter().take(TRACE_FILE_SPANS) {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let pid = ROLES.iter().position(|r| *r == s.role).unwrap_or(0) + 1;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{},\"args\":{{\"batch\":{}}}}}",
                s.name,
                s.role,
                s.t0 as f64 / 1e3,
                s.t1.saturating_sub(s.t0) as f64 / 1e3,
                s.conn,
                s.batch
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

const ROLES: [&str; 3] = ["client", "service", "backend"];

/// Splits one verified round trip into its three stages from the four
/// stamps. A missing server-side stamp yields no stage for that part.
pub fn batch_stages(
    conn: u32,
    batch: u32,
    t_send: Nanos,
    stamps: (Option<Nanos>, Option<Nanos>),
    t_done: Nanos,
) -> Vec<Span> {
    let mut out = Vec::with_capacity(3);
    let mut push = |name, role, t0: Nanos, t1: Nanos| {
        if t1 >= t0 {
            out.push(Span {
                name,
                role,
                conn,
                batch,
                t0,
                t1,
            });
        }
    };
    if let (Some(t_in), Some(t_out)) = stamps {
        push(C2S, "client", t_send, t_in);
        push(RESIDENCE, "service", t_in, t_out);
        push(S2C, "client", t_out, t_done);
    }
    out
}

/// The `NetStack` decorator installed on serving hosts in a traced run.
pub struct TracedStack {
    inner: Arc<dyn NetStack>,
    ledger: Arc<Ledger>,
    role: &'static str,
}

impl TracedStack {
    pub fn wrap(
        inner: Arc<dyn NetStack>,
        ledger: &Arc<Ledger>,
        role: &'static str,
    ) -> Arc<dyn NetStack> {
        Arc::new(TracedStack {
            inner,
            ledger: Arc::clone(ledger),
            role,
        })
    }
}

impl NetStack for TracedStack {
    fn listen(&self, port: u16) -> ThreadM<Result<Arc<dyn Listener>, NetError>> {
        let ledger = Arc::clone(&self.ledger);
        let role = self.role;
        self.inner.listen(port).map(move |r| {
            r.map(|inner| {
                Arc::new(TracedListener {
                    inner,
                    ledger,
                    role,
                }) as Arc<dyn Listener>
            })
        })
    }

    /// Outbound dials (the router's backend pool) pass through: the far
    /// end's wrapper observes them.
    fn connect(&self, remote: Endpoint) -> ThreadM<Result<Arc<dyn Conn>, NetError>> {
        self.inner.connect(remote)
    }

    fn host(&self) -> eveth_core::net::HostId {
        self.inner.host()
    }
}

struct TracedListener {
    inner: Arc<dyn Listener>,
    ledger: Arc<Ledger>,
    role: &'static str,
}

impl Listener for TracedListener {
    fn accept_evt(&self) -> Event<Result<Arc<dyn Conn>, NetError>> {
        let ledger = Arc::clone(&self.ledger);
        let role = self.role;
        self.inner.accept_evt().wrap(move |r| {
            r.map(|inner| {
                let track = ledger.track(inner.peer(), inner.local());
                track.state().t_accept = Some(ledger.now());
                Arc::new(TracedConn {
                    inner,
                    ledger: Arc::clone(&ledger),
                    track,
                    role,
                }) as Arc<dyn Conn>
            })
        })
    }

    fn local(&self) -> Endpoint {
        self.inner.local()
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

/// An accepted connection: counts application bytes both ways.
struct TracedConn {
    inner: Arc<dyn Conn>,
    ledger: Arc<Ledger>,
    track: Arc<ConnTrack>,
    role: &'static str,
}

impl TracedConn {
    /// Stamps the hand-over of `len` reply bytes. On a backend, whose
    /// connections (the router's dials) nobody announces, that closes a
    /// residence span; the front service's only unannounced connection
    /// is set-up's preload, which is not part of the ledger.
    fn hand_over(&self, len: usize) {
        let now = self.ledger.now();
        if let (Some(t_in), "backend") = (self.track.on_tx_call(len, now), self.role) {
            self.ledger.record_all([Span {
                name: BACKEND_RESIDENCE,
                role: self.role,
                conn: self.track.id,
                batch: 0,
                t0: t_in,
                t1: now,
            }]);
        }
    }
}

impl Conn for TracedConn {
    fn recv(&self, max: usize) -> ThreadM<Result<Bytes, NetError>> {
        let ledger = Arc::clone(&self.ledger);
        let track = Arc::clone(&self.track);
        self.inner.recv(max).map(move |r| {
            if let Ok(chunk) = &r {
                if !chunk.is_empty() {
                    track.on_rx(chunk.len(), ledger.now());
                }
            }
            r
        })
    }

    fn readiness_fd(&self) -> Option<Fd> {
        self.inner.readiness_fd()
    }

    fn send(&self, data: Bytes) -> ThreadM<Result<usize, NetError>> {
        self.hand_over(data.len());
        let track = Arc::clone(&self.track);
        self.inner.send(data).map(move |r| {
            if let Ok(n) = &r {
                track.on_tx_done(*n);
            }
            r
        })
    }

    fn sendv(&self, bufs: Vec<Bytes>) -> ThreadM<Result<usize, NetError>> {
        self.hand_over(bufs.iter().map(Bytes::len).sum());
        let track = Arc::clone(&self.track);
        self.inner.sendv(bufs).map(move |r| {
            if let Ok(n) = &r {
                track.on_tx_done(*n);
            }
            r
        })
    }

    fn close(&self) -> ThreadM<()> {
        self.inner.close()
    }

    fn peer(&self) -> Endpoint {
        self.inner.peer()
    }

    fn local(&self) -> Endpoint {
        self.inner.local()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eveth_core::engine::testing::noop_ctx;
    use eveth_core::net::HostId;

    fn ledger() -> Arc<Ledger> {
        Ledger::new(noop_ctx() as Arc<dyn RuntimeCtx>)
    }

    fn eps() -> (Endpoint, Endpoint) {
        (
            Endpoint::new(HostId(1), 40_000),
            Endpoint::new(HostId(2), 11211),
        )
    }

    #[test]
    fn synthetic_stages_sum_to_the_round_trip() {
        let l = ledger();
        // send 100, request in 130, reply out 190, verified 250.
        let stages = batch_stages(1, 0, 100, (Some(130), Some(190)), 250);
        let sum: u64 = stages.iter().map(|s| s.t1 - s.t0).sum();
        assert_eq!(sum, 150);
        assert_eq!(
            stages.iter().map(|s| s.name).collect::<Vec<_>>(),
            vec![C2S, RESIDENCE, S2C]
        );
        l.record_op(100, 250, &stages);
        assert_eq!(l.residual_ratio(), 0.0);
        assert_eq!(l.summary(RESIDENCE, 0).p50_us, 0.06);
        assert_eq!(l.summary(RESIDENCE, 0).samples, 1);
    }

    #[test]
    fn missing_or_misordered_stamps_show_as_residual() {
        let l = ledger();
        let none = batch_stages(1, 0, 100, (None, Some(190)), 250);
        assert!(none.is_empty());
        l.record_op(100, 250, &none);
        assert_eq!(l.residual_ratio(), 1.0);

        let l = ledger();
        // Reply stamped before the request: residence is dropped, the two
        // transits overlap, and the residual says so.
        let bad = batch_stages(1, 0, 100, (Some(200), Some(150)), 250);
        assert_eq!(bad.len(), 2);
        l.record_op(100, 250, &bad);
        assert!(l.residual_ratio() > 0.3);
    }

    #[test]
    fn byte_ranges_stamp_the_right_batch() {
        let l = ledger();
        let (c, s) = eps();
        let track = l.track(c, s);
        assert!(Arc::ptr_eq(&track, &l.track(c, s)));
        track.begin_batch(10, 100);
        track.begin_batch(20, 50);
        // First request arrives in two pieces; only the second completes it.
        track.on_rx(4, 1_000);
        track.on_rx(6, 2_000);
        // Reply 1 is accepted in two sends; the stamp is the hand-over of
        // the call that carries its last byte.
        assert_eq!(track.on_tx_call(100, 3_000), None);
        track.on_tx_done(60);
        assert_eq!(track.on_tx_call(40, 3_500), None);
        track.on_tx_done(40);
        assert_eq!(track.end_batch(), (Some(2_000), Some(3_000)));
        // Second batch: request in one piece, reply in one.
        track.on_rx(20, 4_000);
        track.on_tx_call(50, 5_000);
        track.on_tx_done(50);
        assert_eq!(track.end_batch(), (Some(4_000), Some(5_000)));
        assert_eq!(track.end_batch(), (None, None));
        l.untrack(c, s);
        assert!(!Arc::ptr_eq(&track, &l.track(c, s)));
    }

    #[test]
    fn unannounced_connections_pair_first_byte_with_next_reply() {
        let l = ledger();
        let (c, s) = eps();
        let track = l.track(c, s);
        track.on_rx(5, 100);
        track.on_rx(5, 200);
        assert_eq!(track.on_tx_call(9, 700), Some(100));
        assert_eq!(track.on_tx_call(9, 800), None);
    }

    #[test]
    fn chrome_trace_is_well_formed_json_shape() {
        let l = ledger();
        l.record_op(0, 300, &batch_stages(3, 7, 0, (Some(100), Some(200)), 300));
        let json = l.chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.trim_end().ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"name\":\"service.residence\""));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"batch\":7"));
        // Balanced braces and brackets: cheap structural check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
