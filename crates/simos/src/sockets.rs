//! The "standard socket library": a kernel-TCP model over in-memory
//! streams on the simulator's one link model.
//!
//! This is the *other half* of the paper's one-line switch (§5.2): servers
//! written against [`NetStack`] run either on these kernel-model sockets or
//! on the application-level TCP stack of `eveth-tcp`. The model provides
//! reliable, ordered byte streams with connection handshake latency, a
//! flow-control window, and orderly close — the observable behaviour of
//! kernel TCP on a healthy LAN — while all loss/retransmission machinery
//! is assumed to live "in the kernel". Bytes travel on the same wires as
//! [`crate::net::SimNet`]'s packets (`net::Wires`): every connection between
//! two hosts queues its sends and its FIN on that host pair's one link.

use std::collections::HashMap;
use std::fmt;
use std::slice;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Weak};

use bytes::Bytes;
use eveth_core::hash::DetHashSet;
use eveth_core::io::queue::ByteQueue;
use eveth_core::net::{queue_accept_evt, Conn, Endpoint, HostId, Listener, NetError, NetStack};
use eveth_core::reactor::{AcceptQueue, Fd, Interest, Pollable, WaitKey, WaitTable, Waiter};
use eveth_core::syscall::{sys_epoll_wait, sys_nbio, sys_sleep};
use eveth_core::time::Nanos;
use eveth_core::{loop_m, Loop, ThreadM};
use parking_lot::Mutex;

use crate::des::SimClock;
use crate::net::{LinkParams, Wires};

/// Per-direction flow-control window (bytes sent and not yet read).
const WINDOW: usize = 64 * 1024;

/// What every direction of every connection on a fabric shares: the
/// clock, the link between any two hosts, and the wires it is queued on.
struct Link {
    clock: SimClock,
    params: LinkParams,
    wires: Mutex<Wires>,
}

impl Link {
    /// Queues `bytes` on the wire `src → dst` now; returns their arrival.
    fn arrival(&self, src: HostId, dst: HostId, bytes: usize) -> Nanos {
        let now = self.clock.now();
        self.wires
            .lock()
            .arrival(src, dst, &self.params, now, bytes)
    }
}

/// Both directions of one established connection, kept as weak refs so
/// fault injection ([`SocketFabric::crash_host`]) can find and reset the
/// streams touching a host without extending their lifetime.
struct ConnTrack {
    client: HostId,
    server: HostId,
    a2b: Weak<Dir>,
    b2a: Weak<Dir>,
}

struct FabricState {
    listeners: HashMap<Endpoint, Arc<ListenerInner>>,
    /// Every live connection, for crash-time resets. Entries whose
    /// directions have been dropped are swept on each crash.
    conns: Vec<ConnTrack>,
    /// Hosts currently crashed: their listeners are gone, connects to or
    /// from them are refused, and their established streams were reset.
    crashed: DetHashSet<HostId>,
}

/// The shared "internet" connecting every [`SimSocketStack`] built from it.
pub struct SocketFabric {
    link: Arc<Link>,
    state: Mutex<FabricState>,
    next_ephemeral: AtomicU32,
}

impl SocketFabric {
    /// Creates a fabric on the given virtual clock where every host pair
    /// is joined by `link` (its loss is ignored: kernel TCP hides it).
    pub fn new(clock: SimClock, link: LinkParams) -> Arc<Self> {
        Arc::new(SocketFabric {
            link: Arc::new(Link {
                clock,
                params: link,
                wires: Mutex::default(),
            }),
            state: Mutex::new(FabricState {
                listeners: HashMap::new(),
                conns: Vec::new(),
                crashed: DetHashSet::default(),
            }),
            next_ephemeral: AtomicU32::new(40_000),
        })
    }

    /// A per-host [`NetStack`] view of this fabric.
    pub fn stack(self: &Arc<Self>, host: HostId) -> Arc<SimSocketStack> {
        Arc::new(SimSocketStack {
            fabric: Arc::clone(self),
            host,
        })
    }

    fn ephemeral_port(&self) -> u16 {
        let p = self.next_ephemeral.fetch_add(1, Ordering::Relaxed);
        40_000 + (p % 25_000) as u16
    }

    /// Crashes `host` abruptly: every established stream touching it is
    /// reset *now* (no FIN flight time — the process is gone), its
    /// listeners' backlogs are closed and the ports released, and until
    /// [`SocketFabric::restart_host`] any connect to or from it is
    /// refused. A server whose listener backlog closes sees an accept
    /// error and winds down; its sessions die on [`NetError::Reset`].
    pub fn crash_host(&self, host: HostId) {
        let (reset_dirs, closed_listeners) = {
            let mut st = self.state.lock();
            st.crashed.insert(host);
            let mut closed = Vec::new();
            st.listeners.retain(|ep, inner| {
                if ep.host == host {
                    closed.push(Arc::clone(inner));
                    false
                } else {
                    true
                }
            });
            let mut reset = Vec::new();
            st.conns.retain(|track| {
                let (a2b, b2a) = (track.a2b.upgrade(), track.b2a.upgrade());
                if a2b.is_none() && b2a.is_none() {
                    return false; // both sides long gone; sweep
                }
                if track.client == host || track.server == host {
                    reset.extend(a2b);
                    reset.extend(b2a);
                    return false;
                }
                true
            });
            (reset, closed)
        };
        // Resets and backlog closes run outside the fabric lock: waking a
        // parked thread re-enters the reactor, not the fabric, but the
        // less held across foreign callbacks the better.
        for dir in reset_dirs {
            dir.reset();
        }
        for inner in closed_listeners {
            inner.queue.close();
        }
    }

    /// Clears the crashed mark: the host may listen and connect again.
    /// Streams reset by the crash stay dead — reconnection is the
    /// application's job, exactly as after a real crash.
    pub fn restart_host(&self, host: HostId) {
        self.state.lock().crashed.remove(&host);
    }
}

impl fmt::Debug for SocketFabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SocketFabric(listeners={})",
            self.state.lock().listeners.len()
        )
    }
}

// ---------------------------------------------------------------------------
// One reliable direction of a connection.
// ---------------------------------------------------------------------------

struct DirState {
    /// Every byte sent and not yet read, on the one byte FIFO the TCB and
    /// the pipe use too: the sender's buffers queue as windows
    /// ([`ByteQueue::push_window`]), and a read takes a window of them or
    /// gathers across them, uncounted ([`ByteQueue::take_kernel`]).
    readable: ByteQueue,
    /// The tail of `readable` still on the wire.
    in_flight: usize,
    closed: bool, // sender closed; EOF once drained
    reset: bool,  // hard failure
    /// Readiness registrations, one table per interest: `Read` waiters
    /// are the receiving side blocked for data/EOF, `Write` waiters the
    /// sending side blocked on window space.
    waiters: [WaitTable; 2],
}

/// The direction `src → dst` of one connection.
struct Dir {
    st: Mutex<DirState>,
    link: Arc<Link>,
    src: HostId,
    dst: HostId,
}

enum TryIo<T> {
    Done(T),
    WouldBlock,
}

impl Dir {
    fn new(link: &Arc<Link>, src: HostId, dst: HostId) -> Arc<Self> {
        Arc::new(Dir {
            st: Mutex::new(DirState {
                readable: ByteQueue::new(),
                in_flight: 0,
                closed: false,
                reset: false,
                waiters: [WaitTable::new(), WaitTable::new()],
            }),
            link: Arc::clone(link),
            src,
            dst,
        })
    }

    /// Queues a window-limited prefix across *all* buffers under one lock,
    /// as windows of them, and puts it on the wire as one transmission
    /// with one arrival event — a pipelined batch of replies costs one
    /// pass instead of one per segment. The bytes wait in `readable` from
    /// now on; the arrival only moves them out of the in-flight tail.
    /// That tail is exact because arrivals on one host pair's wire are
    /// monotone and same-time events fire in the order they were queued.
    /// Callers offer at least one byte.
    fn try_sendv(self: &Arc<Self>, bufs: &[Bytes]) -> Result<TryIo<usize>, NetError> {
        let mut st = self.st.lock();
        if st.reset {
            return Err(NetError::Reset);
        }
        if st.closed {
            return Err(NetError::Closed);
        }
        let avail = WINDOW.saturating_sub(st.readable.len());
        if avail == 0 {
            return Ok(TryIo::WouldBlock);
        }
        let mut total = 0;
        for b in bufs {
            let n = (avail - total).min(b.len());
            st.readable.push_window(b.slice(..n));
            total += n;
        }
        st.in_flight += total;
        let arrive = self.link.arrival(self.src, self.dst, total);
        drop(st);

        let dir = Arc::clone(self);
        self.link.clock.schedule_at(arrive, move || {
            let mut st = dir.st.lock();
            st.in_flight -= total;
            st.waiters[Interest::Read as usize].wake_all();
        });
        Ok(TryIo::Done(total))
    }

    fn try_recv(&self, max: usize) -> Result<TryIo<Bytes>, NetError> {
        let mut st = self.st.lock();
        if st.reset {
            return Err(NetError::Reset);
        }
        let arrived = st.readable.len() - st.in_flight;
        if arrived > 0 {
            let out = st.readable.take_kernel(max.min(arrived));
            st.waiters[Interest::Write as usize].wake_all();
            return Ok(TryIo::Done(out));
        }
        if st.closed && st.in_flight == 0 {
            return Ok(TryIo::Done(Bytes::new())); // EOF
        }
        Ok(TryIo::WouldBlock)
    }

    /// Hard failure, effective immediately: both the reader and any
    /// parked sender wake into [`NetError::Reset`], and buffered bytes
    /// are never delivered. This is crash semantics, so unlike
    /// [`Dir::close`] it takes no flight time.
    fn reset(self: &Arc<Self>) {
        let mut st = self.st.lock();
        st.reset = true;
        st.waiters.iter_mut().for_each(WaitTable::wake_all);
    }

    /// Sender closes: the FIN queues behind every byte already on this
    /// host pair's wire and arrives one propagation delay after the last.
    fn close(self: &Arc<Self>) {
        let arrive = self.link.arrival(self.src, self.dst, 0);
        let dir = Arc::clone(self);
        self.link.clock.schedule_at(arrive, move || {
            let mut st = dir.st.lock();
            st.closed = true;
            st.waiters.iter_mut().for_each(WaitTable::wake_all);
        });
    }

    /// The readiness condition for `interest` on this direction.
    fn is_ready(st: &DirState, interest: Interest) -> bool {
        match interest {
            Interest::Read => {
                st.readable.len() > st.in_flight || (st.closed && st.in_flight == 0) || st.reset
            }
            Interest::Write => st.readable.len() < WINDOW || st.closed || st.reset,
        }
    }

    /// Registers a readiness waiter, waking it immediately if `interest`
    /// already holds (checked and parked under the direction lock, so no
    /// wakeup can be lost).
    fn register(&self, interest: Interest, waiter: Waiter) -> Option<WaitKey> {
        let mut st = self.st.lock();
        if Self::is_ready(&st, interest) {
            drop(st);
            waiter.wake();
            None
        } else {
            Some(st.waiters[interest as usize].push(waiter))
        }
    }

    fn deregister(&self, interest: Interest, key: WaitKey) -> bool {
        self.st.lock().waiters[interest as usize].withdraw(key)
    }
}

/// The pollable device behind a [`SimConn`]'s descriptor: `Read` readiness
/// comes from the inbound direction, `Write` readiness from the outbound
/// one — one epoll-style registration point per connection, as the
/// paper's `sock_recv`/`sock_send` wrappers assume (Figure 10/15).
/// Indexed by interest: `[rx, tx]`.
struct ConnReady([Arc<Dir>; 2]);

impl Pollable for ConnReady {
    fn register(&self, interest: Interest, waiter: Waiter) -> Option<WaitKey> {
        self.0[interest as usize].register(interest, waiter)
    }

    fn deregister(&self, interest: Interest, key: WaitKey) -> bool {
        self.0[interest as usize].deregister(interest, key)
    }
}

// ---------------------------------------------------------------------------
// Connections, listeners, stack.
// ---------------------------------------------------------------------------

struct SimConn {
    local: Endpoint,
    peer: Endpoint,
    tx: Arc<Dir>, // local → peer
    rx: Arc<Dir>, // peer → local
    /// Readiness descriptor over both directions; every blocking socket
    /// operation is a non-blocking attempt + `sys_epoll_wait` on this fd
    /// (the paper's Figure 10 wrapper pattern).
    fd: Fd,
}

impl SimConn {
    fn new(local: Endpoint, peer: Endpoint, tx: Arc<Dir>, rx: Arc<Dir>) -> Arc<Self> {
        let fd = Fd::new(Arc::new(ConnReady([Arc::clone(&rx), Arc::clone(&tx)])));
        Arc::new(SimConn {
            local,
            peer,
            tx,
            rx,
            fd,
        })
    }

    /// The one blocking send behind [`Conn::send`] and [`Conn::sendv`]:
    /// a non-blocking [`Dir::try_sendv`] of `as_slice(&bufs)`, parked on
    /// write readiness while the window is full.
    fn send_bufs<B>(
        &self,
        bufs: B,
        as_slice: fn(&B) -> &[Bytes],
    ) -> ThreadM<Result<usize, NetError>>
    where
        B: Clone + Send + Sync + 'static,
    {
        let tx = Arc::clone(&self.tx);
        let fd = self.fd.clone();
        loop_m(bufs, move |bufs| {
            let try_tx = Arc::clone(&tx);
            let fd = fd.clone();
            let attempt = bufs.clone();
            sys_nbio(move || try_tx.try_sendv(as_slice(&attempt))).bind(move |r| match r {
                Ok(TryIo::Done(n)) => ThreadM::pure(Loop::Break(Ok(n))),
                Ok(TryIo::WouldBlock) => {
                    sys_epoll_wait(&fd, Interest::Write).map(move |_| Loop::Continue(bufs))
                }
                Err(e) => ThreadM::pure(Loop::Break(Err(e))),
            })
        })
    }
}

impl Conn for SimConn {
    fn readiness_fd(&self) -> Option<Fd> {
        Some(self.fd.clone())
    }

    fn recv(&self, max: usize) -> ThreadM<Result<Bytes, NetError>> {
        let rx = Arc::clone(&self.rx);
        let fd = self.fd.clone();
        loop_m((), move |()| {
            let try_rx = Arc::clone(&rx);
            let fd = fd.clone();
            sys_nbio(move || try_rx.try_recv(max)).bind(move |r| match r {
                Ok(TryIo::Done(b)) => ThreadM::pure(Loop::Break(Ok(b))),
                Ok(TryIo::WouldBlock) => {
                    sys_epoll_wait(&fd, Interest::Read).map(|_| Loop::Continue(()))
                }
                Err(e) => ThreadM::pure(Loop::Break(Err(e))),
            })
        })
    }

    fn send(&self, data: Bytes) -> ThreadM<Result<usize, NetError>> {
        if data.is_empty() {
            return ThreadM::pure(Ok(0));
        }
        self.send_bufs(data, slice::from_ref)
    }

    fn sendv(&self, bufs: Vec<Bytes>) -> ThreadM<Result<usize, NetError>> {
        if bufs.iter().all(|b| b.is_empty()) {
            return ThreadM::pure(Ok(0));
        }
        self.send_bufs(bufs, Vec::as_slice)
    }

    fn close(&self) -> ThreadM<()> {
        let tx = Arc::clone(&self.tx);
        sys_nbio(move || tx.close())
    }

    fn peer(&self) -> Endpoint {
        self.peer
    }

    fn local(&self) -> Endpoint {
        self.local
    }
}

impl fmt::Debug for SimConn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimConn({} -> {})", self.local, self.peer)
    }
}

struct ListenerInner {
    endpoint: Endpoint,
    queue: Arc<AcceptQueue<Arc<SimConn>>>,
}

struct SimListener {
    inner: Arc<ListenerInner>,
    fabric: Arc<SocketFabric>,
}

/// A listening socket's accept is the composable backlog event
/// ([`queue_accept_evt`]): ready when the backlog holds a connection or
/// the listener was shut down, so an acceptor `choose`s accept against a
/// shutdown broadcast with no supervisor thread. [`AcceptQueue`]
/// synchronizes push/close/register on one lock, so no wakeup is lost to
/// a concurrent connect *or* shutdown; the blocking `accept` is the
/// trait-provided `sync(accept_evt())`.
impl Listener for SimListener {
    fn accept_evt(&self) -> eveth_core::event::Event<Result<Arc<dyn Conn>, NetError>> {
        queue_accept_evt(Arc::clone(&self.inner.queue), |c| c as Arc<dyn Conn>)
    }

    fn local(&self) -> Endpoint {
        self.inner.endpoint
    }

    fn shutdown(&self) {
        self.inner.queue.close();
        self.fabric
            .state
            .lock()
            .listeners
            .remove(&self.inner.endpoint);
    }
}

impl fmt::Debug for SimListener {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimListener({})", self.inner.endpoint)
    }
}

/// A per-host socket interface to a [`SocketFabric`] — the "standard socket
/// library" side of the paper's one-line switch.
pub struct SimSocketStack {
    fabric: Arc<SocketFabric>,
    host: HostId,
}

impl NetStack for SimSocketStack {
    fn listen(&self, port: u16) -> ThreadM<Result<Arc<dyn Listener>, NetError>> {
        let fabric = Arc::clone(&self.fabric);
        let endpoint = Endpoint::new(self.host, port);
        sys_nbio(move || {
            let mut st = fabric.state.lock();
            if st.crashed.contains(&endpoint.host) {
                return Err(NetError::Unreachable);
            }
            if st.listeners.contains_key(&endpoint) {
                return Err(NetError::AddrInUse);
            }
            let inner = Arc::new(ListenerInner {
                endpoint,
                queue: Arc::new(AcceptQueue::new()),
            });
            st.listeners.insert(endpoint, Arc::clone(&inner));
            Ok(Arc::new(SimListener {
                inner,
                fabric: Arc::clone(&fabric),
            }) as Arc<dyn Listener>)
        })
    }

    fn connect(&self, remote: Endpoint) -> ThreadM<Result<Arc<dyn Conn>, NetError>> {
        let fabric = Arc::clone(&self.fabric);
        let host = self.host;
        // Model the three-way handshake as one round trip before data flows.
        let rtt = 2 * fabric.link.params.latency;
        sys_sleep(rtt).bind(move |_| {
            sys_nbio(move || {
                let st = fabric.state.lock();
                if st.crashed.contains(&host) || st.crashed.contains(&remote.host) {
                    return Err(NetError::ConnectionRefused);
                }
                let Some(listener) = st.listeners.get(&remote).cloned() else {
                    return Err(NetError::ConnectionRefused);
                };
                drop(st);
                let local = Endpoint::new(host, fabric.ephemeral_port());
                let a2b = Dir::new(&fabric.link, host, remote.host);
                let b2a = Dir::new(&fabric.link, remote.host, host);
                let client = SimConn::new(local, remote, Arc::clone(&a2b), Arc::clone(&b2a));
                let server = SimConn::new(remote, local, Arc::clone(&b2a), Arc::clone(&a2b));
                if listener.queue.push(server).is_err() {
                    // Shut down between the lookup and the push.
                    return Err(NetError::ConnectionRefused);
                }
                fabric.state.lock().conns.push(ConnTrack {
                    client: host,
                    server: remote.host,
                    a2b: Arc::downgrade(&a2b),
                    b2a: Arc::downgrade(&b2a),
                });
                Ok(client as Arc<dyn Conn>)
            })
        })
    }

    fn host(&self) -> HostId {
        self.host
    }
}

impl fmt::Debug for SimSocketStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimSocketStack({})", self.host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desrt::SimRuntime;
    use eveth_core::net::{recv_exact, send_all};
    use eveth_core::syscall::sys_fork;

    fn fixture() -> (SimRuntime, Arc<SimSocketStack>, Arc<SimSocketStack>) {
        let sim = SimRuntime::new_default();
        let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
        (sim, fabric.stack(HostId(1)), fabric.stack(HostId(2)))
    }

    #[test]
    fn connect_refused_without_listener() {
        let (sim, client, _server) = fixture();
        let err = sim
            .block_on(client.connect(Endpoint::new(HostId(2), 80)))
            .unwrap()
            .err()
            .expect("must be refused");
        assert_eq!(err, NetError::ConnectionRefused);
    }

    #[test]
    fn echo_roundtrip() {
        let (sim, client, server) = fixture();
        let server_prog = eveth_core::do_m! {
            let lst <- server.listen(7);
            let lst = lst.unwrap();
            let conn <- lst.accept();
            let conn = conn.unwrap();
            let data <- recv_exact(&conn, 5);
            let reply <- send_all(&conn, data.unwrap());
            let _ = reply.unwrap();
            conn.close()
        };
        let got = sim
            .block_on(eveth_core::do_m! {
                sys_fork(server_prog);
                let conn <- client.connect(Endpoint::new(HostId(2), 7));
                let conn = conn.unwrap();
                let sent <- send_all(&conn, Bytes::from_static(b"hello"));
                let _ = sent.unwrap();
                let back <- recv_exact(&conn, 5);
                ThreadM::pure(back.unwrap())
            })
            .unwrap();
        assert_eq!(&got[..], b"hello");
    }

    #[test]
    fn transfers_cost_virtual_time() {
        let (sim, client, server) = fixture();
        let payload = Bytes::from(vec![1u8; 1_000_000]); // 1 MB at 100 Mbps ≈ 80 ms
        let expect = payload.len();
        let server_prog = eveth_core::do_m! {
            let lst <- server.listen(8);
            let conn <- lst.unwrap().accept();
            let conn = conn.unwrap();
            let got <- recv_exact(&conn, expect);
            let _ = got.unwrap();
            ThreadM::pure(())
        };
        sim.spawn(server_prog);
        let t = sim
            .block_on(eveth_core::do_m! {
                let conn <- client.connect(Endpoint::new(HostId(2), 8));
                let conn = conn.unwrap();
                let sent <- send_all(&conn, payload);
                let _ = sent.unwrap();
                eveth_core::syscall::sys_time()
            })
            .unwrap();
        // Sending alone finishes once the last chunk is accepted, but at
        // least the serialization of (window-limited) traffic has passed.
        assert!(t >= 50 * eveth_core::time::MILLIS, "t = {t}");
    }

    #[test]
    fn eof_after_close_and_drain() {
        let (sim, client, server) = fixture();
        let server_prog = eveth_core::do_m! {
            let lst <- server.listen(9);
            let conn <- lst.unwrap().accept();
            let conn = conn.unwrap();
            let sent <- send_all(&conn, Bytes::from_static(b"bye"));
            let _ = sent.unwrap();
            conn.close()
        };
        let (data, eof) = sim
            .block_on(eveth_core::do_m! {
                sys_fork(server_prog);
                let conn <- client.connect(Endpoint::new(HostId(2), 9));
                let conn = conn.unwrap();
                let data <- recv_exact(&conn, 3);
                let eof <- conn.recv(16);
                ThreadM::pure((data.unwrap(), eof.unwrap()))
            })
            .unwrap();
        assert_eq!(&data[..], b"bye");
        assert!(eof.is_empty());
    }

    /// The client sends `first` then `second`; once both have arrived the
    /// server reads up to `max` bytes with one `recv`. Returns what it
    /// read and how far `bytes_copied_total` moved over the exchange.
    fn two_sends_then_one_recv(first: Bytes, second: Bytes, max: usize) -> (Bytes, u64) {
        let (sim, client, server) = fixture();
        let want = first.len() + second.len();
        let sender = eveth_core::do_m! {
            let conn <- client.connect(Endpoint::new(HostId(2), 13));
            let conn = conn.unwrap();
            let a <- conn.send(first);
            let b <- conn.send(second);
            ThreadM::pure(a.unwrap() + b.unwrap()).map(move |sent| assert_eq!(sent, want))
        };
        let copied0 = bytes::bytes_copied_total();
        let got = sim
            .block_on(eveth_core::do_m! {
                sys_fork(sender);
                let lst <- server.listen(13);
                let conn <- lst.unwrap().accept();
                let conn = conn.unwrap();
                sys_sleep(10 * eveth_core::time::MILLIS);
                conn.recv(max)
            })
            .unwrap()
            .unwrap();
        (got, bytes::bytes_copied_total() - copied0)
    }

    #[test]
    fn a_recv_inside_one_arrived_send_is_a_window_of_the_senders_buffer() {
        let data = Bytes::from(vec![3u8; 1000]);
        let (got, _) = two_sends_then_one_recv(data.clone(), Bytes::new(), 600);
        assert_eq!((got.len(), got.as_ptr()), (600, data.as_ptr()));
    }

    #[test]
    fn a_recv_across_two_arrived_sends_gathers_both_without_a_counted_copy() {
        let (a, b) = (Bytes::from(vec![1u8; 300]), Bytes::from(vec![2u8; 500]));
        let want = [&a[..], &b[..]].concat();
        // The copy counter is process-wide and other tests copy beside
        // this one: the exchange counts nothing if any attempt sees it
        // stand still (a counted gather would move it every time).
        let uncounted = (0..20).any(|_| {
            let (got, copied) = two_sends_then_one_recv(a.clone(), b.clone(), 4096);
            assert_eq!(&got[..], &want[..], "one recv returns both sends");
            copied == 0
        });
        assert!(uncounted, "the fabric's copy-out is the kernel's copy");
    }

    #[test]
    fn addr_in_use_detected() {
        let (sim, _client, server) = fixture();
        let s2 = Arc::clone(&server);
        let err = sim
            .block_on(eveth_core::do_m! {
                let first <- server.listen(10);
                let _keep = first.unwrap();
                let second <- s2.listen(10);
                ThreadM::pure(second.err().unwrap())
            })
            .unwrap();
        assert_eq!(err, NetError::AddrInUse);
    }

    #[test]
    fn crash_resets_streams_and_restart_revives_the_port() {
        let sim = SimRuntime::new_default();
        let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
        let client = fabric.stack(HostId(1));
        let server = fabric.stack(HostId(2));
        let server_prog = eveth_core::do_m! {
            let lst <- server.listen(12);
            let conn <- lst.unwrap().accept();
            let _hold = conn.unwrap();
            eveth_core::syscall::sys_sleep(3_600 * eveth_core::time::SECS)
        };
        sim.spawn(server_prog);
        let crash_at = Arc::clone(&fabric);
        sim.clock()
            .schedule_at(10 * eveth_core::time::MILLIS, move || {
                crash_at.crash_host(HostId(2));
            });
        let client2 = Arc::clone(&client);
        let err = sim
            .block_on(eveth_core::do_m! {
                let conn <- client.connect(Endpoint::new(HostId(2), 12));
                let conn = conn.unwrap();
                // Parked in recv when the crash lands: must wake into Reset.
                let got <- conn.recv(16);
                let refused <- client2.connect(Endpoint::new(HostId(2), 12));
                ThreadM::pure((got.err().unwrap(), refused.err().unwrap()))
            })
            .unwrap();
        assert_eq!(err, (NetError::Reset, NetError::ConnectionRefused));

        // Restart: the port is free again and a fresh server accepts.
        fabric.restart_host(HostId(2));
        let server2 = fabric.stack(HostId(2));
        let revived = eveth_core::do_m! {
            let lst <- server2.listen(12);
            let conn <- lst.unwrap().accept();
            let sent <- send_all(&conn.unwrap(), Bytes::from_static(b"ok"));
            let _ = sent.unwrap();
            ThreadM::pure(())
        };
        sim.spawn(revived);
        let back = sim
            .block_on(eveth_core::do_m! {
                let conn <- client.connect(Endpoint::new(HostId(2), 12));
                let conn = conn.unwrap();
                let back <- recv_exact(&conn, 2);
                ThreadM::pure(back.unwrap())
            })
            .unwrap();
        assert_eq!(&back[..], b"ok");
    }

    #[test]
    fn window_backpressure_blocks_sender() {
        let (sim, client, server) = fixture();
        // Server accepts but never reads; client tries to push 1 MB through
        // a 64 KB window and must park. The sim goes quiescent with the
        // sender still blocked — which block_on reports as deadlock.
        let server_prog = eveth_core::do_m! {
            let lst <- server.listen(11);
            let conn <- lst.unwrap().accept();
            let _hold = conn.unwrap();
            eveth_core::syscall::sys_sleep(3_600 * eveth_core::time::SECS)
        };
        sim.spawn(server_prog);
        let res = sim.block_on(eveth_core::do_m! {
            let conn <- client.connect(Endpoint::new(HostId(2), 11));
            let conn = conn.unwrap();
            send_all(&conn, Bytes::from(vec![0u8; 1_000_000]))
        });
        // The one-hour sleep fires first; after that the sim is quiescent
        // while the sender is still parked on the full window.
        assert!(res.is_err(), "sender must still be blocked on the window");
    }
}
