//! A simulated packet network: hosts, links with latency / bandwidth /
//! loss, and type-erased datagram delivery.
//!
//! This is the substrate under the application-level TCP stack: the paper
//! reads raw packets through an iptables queue; here segments travel
//! through seeded, deterministic links that can drop, delay and reorder —
//! which is what lets the TCP tests exercise retransmission and congestion
//! control reproducibly.
//!
//! It also holds the simulator's one link model, `Wires`: each directed
//! host pair is one wire that serialises what is queued on it at the
//! link's rate. [`SimNet`] queues every packet on it, and the kernel-socket
//! model ([`crate::sockets::SocketFabric`]) every send and close, so N
//! connections between two hosts share one link on either stack.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Weak};

use eveth_core::hash::DetHashSet;
use eveth_core::net::HostId;
use eveth_core::telemetry::metrics::{Counter, Registry};
use eveth_core::time::{Nanos, SECS};
use parking_lot::Mutex;

use crate::des::SimClock;

/// Transmission characteristics of a directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// One-way propagation delay.
    pub latency: Nanos,
    /// Serialization rate in bits per second.
    pub bandwidth_bps: u64,
    /// Probability in [0, 1) that a packet is silently dropped.
    pub loss: f64,
}

impl LinkParams {
    /// The paper's client↔server link: 100 Mbps Ethernet, ~0.1 ms one-way.
    pub fn ethernet_100mbps() -> Self {
        LinkParams {
            latency: 100_000,
            bandwidth_bps: 100_000_000,
            loss: 0.0,
        }
    }

    /// A fast, lossless loopback-style link.
    pub fn loopback() -> Self {
        LinkParams {
            latency: 10_000,
            bandwidth_bps: 10_000_000_000,
            loss: 0.0,
        }
    }

    /// Same link with the given loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0,1)");
        self.loss = loss;
        self
    }

    /// Same link with the given one-way latency.
    pub fn with_latency(mut self, latency: Nanos) -> Self {
        self.latency = latency;
        self
    }

    /// Nanoseconds to serialize `bytes` onto the wire.
    pub fn tx_time(&self, bytes: usize) -> Nanos {
        (bytes as u64).saturating_mul(8).saturating_mul(SECS) / self.bandwidth_bps
    }
}

/// The link model: one wire per directed host pair. What is queued on a
/// wire leaves in FIFO order, each transmission starting once the wire is
/// idle and taking [`LinkParams::tx_time`]; it arrives one
/// [`LinkParams::latency`] after its last bit left.
#[derive(Debug, Default)]
pub(crate) struct Wires {
    busy_until: HashMap<(HostId, HostId), Nanos>,
}

impl Wires {
    /// Queues `bytes` on the wire `src → dst` at `now` and returns when
    /// the last of them arrives at `dst`.
    pub(crate) fn arrival(
        &mut self,
        src: HostId,
        dst: HostId,
        link: &LinkParams,
        now: Nanos,
        bytes: usize,
    ) -> Nanos {
        let busy = self.busy_until.entry((src, dst)).or_insert(0);
        let depart = (*busy).max(now) + link.tx_time(bytes);
        *busy = depart;
        depart + link.latency
    }
}

/// Called on the destination host for each delivered packet: source host
/// plus the type-erased payload.
pub type PacketHandler = Arc<dyn Fn(HostId, Box<dyn Any + Send>) + Send + Sync>;

/// Delivery counters, registered on a telemetry `Registry` by
/// [`SimNet::register_metrics`].
#[derive(Debug, Default)]
pub struct NetStats {
    /// Packets handed to [`SimNet::send`].
    pub sent: Counter,
    /// Packets delivered to a handler.
    pub delivered: Counter,
    /// Packets dropped by loss, downed links, or crashed hosts.
    pub dropped: Counter,
    /// Packets addressed to unregistered hosts.
    pub unroutable: Counter,
    /// Wire bytes sent.
    pub bytes: Counter,
}

struct NetState {
    hosts: HashMap<HostId, PacketHandler>,
    default_link: LinkParams,
    links: HashMap<(HostId, HostId), LinkParams>,
    wires: Wires,
    /// Directed links administratively down ([`SimNet::set_link_down`]);
    /// every packet queued on one is dropped with `stats.dropped`
    /// accounting. Deterministic layout: fault scenarios interleave
    /// insert/remove, and a `RandomState` set would perturb allocation
    /// counts across processes.
    downed: DetHashSet<(HostId, HostId)>,
    /// Hosts that are crashed ([`SimNet::set_host_down`]); packets to or
    /// from one are dropped at the sender.
    crashed: DetHashSet<HostId>,
    rng: u64,
}

/// The simulated network.
///
/// # Examples
///
/// ```
/// use eveth_core::net::HostId;
/// use eveth_simos::{des::SimClock, net::{LinkParams, SimNet}};
/// use std::sync::{Arc, Mutex};
///
/// let clock = SimClock::new();
/// let net = SimNet::new(clock.clone(), LinkParams::loopback(), 1);
/// let inbox = Arc::new(Mutex::new(Vec::new()));
/// let sink = inbox.clone();
/// net.register_host(HostId(2), Arc::new(move |src, pkt| {
///     let msg = *pkt.downcast::<&str>().unwrap();
///     sink.lock().unwrap().push((src, msg));
/// }));
/// net.send(HostId(1), HostId(2), 100, Box::new("ping"));
/// while clock.fire_next() {}
/// assert_eq!(*inbox.lock().unwrap(), vec![(HostId(1), "ping")]);
/// ```
pub struct SimNet {
    clock: SimClock,
    state: Mutex<NetState>,
    stats: NetStats,
    self_weak: Weak<SimNet>,
}

impl SimNet {
    /// Creates a network where every host pair uses `default_link` unless
    /// overridden. `seed` drives the deterministic loss sequence.
    pub fn new(clock: SimClock, default_link: LinkParams, seed: u64) -> Arc<Self> {
        Arc::new_cyclic(|weak| SimNet {
            clock,
            state: Mutex::new(NetState {
                hosts: HashMap::new(),
                default_link,
                links: HashMap::new(),
                wires: Wires::default(),
                downed: DetHashSet::default(),
                crashed: DetHashSet::default(),
                rng: seed | 1,
            }),
            stats: NetStats::default(),
            self_weak: weak.clone(),
        })
    }

    /// Attaches a host; packets addressed to `id` invoke `handler` at their
    /// arrival time.
    pub fn register_host(&self, id: HostId, handler: PacketHandler) {
        self.state.lock().hosts.insert(id, handler);
    }

    /// Overrides the link parameters for the directed pair `src → dst`.
    pub fn set_link(&self, src: HostId, dst: HostId, params: LinkParams) {
        self.state.lock().links.insert((src, dst), params);
    }

    /// Takes the directed link `src → dst` down: every packet queued on
    /// it is dropped (and counted in [`NetStats::dropped`]) until
    /// [`SimNet::set_link_up`]. Packets already in flight still arrive —
    /// like pulling a cable, not rewriting history. Down one direction
    /// for an asymmetric fault; down both for a full partition.
    pub fn set_link_down(&self, src: HostId, dst: HostId) {
        self.state.lock().downed.insert((src, dst));
    }

    /// Restores a downed directed link. A no-op if the link was up.
    pub fn set_link_up(&self, src: HostId, dst: HostId) {
        self.state.lock().downed.remove(&(src, dst));
    }

    /// Marks `host` crashed: packets to *or* from it are dropped at the
    /// sender (counted in [`NetStats::dropped`]) until
    /// [`SimNet::set_host_up`]. The handler registration survives, so a
    /// restart is just `set_host_up`. [`crate::hub::Hub::crash_host`]
    /// drives this together with the socket-fabric side.
    pub fn set_host_down(&self, host: HostId) {
        self.state.lock().crashed.insert(host);
    }

    /// Clears the crashed mark set by [`SimNet::set_host_down`].
    pub fn set_host_up(&self, host: HostId) {
        self.state.lock().crashed.remove(&host);
    }

    /// Delivery counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Registers the delivery counters on `registry` as
    /// `eveth_link_{sent,delivered,dropped,unroutable,bytes}_total{labels}`.
    /// Opt-in, like `TcpHost::register_metrics`.
    pub fn register_metrics(&self, registry: &Registry, labels: &[(&str, &str)]) {
        let s = &self.stats;
        for (name, cell) in [
            ("eveth_link_sent_total", &s.sent),
            ("eveth_link_delivered_total", &s.delivered),
            ("eveth_link_dropped_total", &s.dropped),
            ("eveth_link_unroutable_total", &s.unroutable),
            ("eveth_link_bytes_total", &s.bytes),
        ] {
            registry.register_counter(name, labels, cell);
        }
    }

    /// Sends a packet of `wire_bytes` from `src` to `dst`. The payload is
    /// delivered (or dropped) according to the link's parameters; FIFO
    /// ordering holds per directed link.
    pub fn send(&self, src: HostId, dst: HostId, wire_bytes: usize, payload: Box<dyn Any + Send>) {
        self.stats.sent.incr();
        self.stats.bytes.add(wire_bytes as u64);

        let arrive = {
            let mut st = self.state.lock();
            // Fault checks precede the loss lottery so downed-link drops
            // never consume RNG draws: downing a link mid-run leaves the
            // loss sequence seen by every other link untouched.
            if st.downed.contains(&(src, dst))
                || st.crashed.contains(&src)
                || st.crashed.contains(&dst)
            {
                self.stats.dropped.incr();
                return;
            }
            let params = *st.links.get(&(src, dst)).unwrap_or(&st.default_link);
            // xorshift64 loss lottery.
            st.rng ^= st.rng << 13;
            st.rng ^= st.rng >> 7;
            st.rng ^= st.rng << 17;
            let roll = (st.rng >> 11) as f64 / (1u64 << 53) as f64;
            if roll < params.loss {
                self.stats.dropped.incr();
                return;
            }
            st.wires
                .arrival(src, dst, &params, self.clock.now(), wire_bytes)
        };

        let weak = self.self_weak.clone();
        self.clock.schedule_at(arrive, move || {
            let Some(net) = weak.upgrade() else { return };
            let handler = net.state.lock().hosts.get(&dst).cloned();
            match handler {
                Some(h) => {
                    net.stats.delivered.incr();
                    h(src, payload);
                }
                None => {
                    net.stats.unroutable.incr();
                }
            }
        });
    }
}

impl fmt::Debug for SimNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SimNet(hosts={}, sent={}, dropped={})",
            self.state.lock().hosts.len(),
            self.stats.sent.get(),
            self.stats.dropped.get()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_net(params: LinkParams, seed: u64) -> (SimClock, Arc<SimNet>, Arc<Mutex<Vec<u32>>>) {
        let clock = SimClock::new();
        let net = SimNet::new(clock.clone(), params, seed);
        let inbox = Arc::new(Mutex::new(Vec::new()));
        let sink = inbox.clone();
        net.register_host(
            HostId(9),
            Arc::new(move |_src, pkt| {
                sink.lock().push(*pkt.downcast::<u32>().unwrap());
            }),
        );
        (clock, net, inbox)
    }

    #[test]
    fn per_link_fifo_ordering() {
        let (clock, net, inbox) = collect_net(LinkParams::ethernet_100mbps(), 5);
        for i in 0..50u32 {
            net.send(HostId(1), HostId(9), 1500, Box::new(i));
        }
        while clock.fire_next() {}
        assert_eq!(*inbox.lock(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn bandwidth_serializes_packets() {
        let (clock, net, inbox) = collect_net(LinkParams::ethernet_100mbps(), 5);
        // 100 packets × 1500 B at 100 Mbps = 120 µs each of serialization.
        for i in 0..100u32 {
            net.send(HostId(1), HostId(9), 1500, Box::new(i));
        }
        while clock.fire_next() {}
        assert_eq!(inbox.lock().len(), 100);
        let expected = LinkParams::ethernet_100mbps().tx_time(1500) * 100
            + LinkParams::ethernet_100mbps().latency;
        assert_eq!(clock.now(), expected);
    }

    #[test]
    fn loss_drops_deterministically() {
        let (clock, net, inbox) = collect_net(LinkParams::loopback().with_loss(0.5), 1234);
        for i in 0..1000u32 {
            net.send(HostId(1), HostId(9), 100, Box::new(i));
        }
        while clock.fire_next() {}
        let delivered = inbox.lock().len();
        assert!(
            (350..650).contains(&delivered),
            "≈half should arrive, got {delivered}"
        );
        // Deterministic: same seed, same survivors.
        let (clock2, net2, inbox2) = collect_net(LinkParams::loopback().with_loss(0.5), 1234);
        for i in 0..1000u32 {
            net2.send(HostId(1), HostId(9), 100, Box::new(i));
        }
        while clock2.fire_next() {}
        assert_eq!(*inbox.lock(), *inbox2.lock());
    }

    #[test]
    fn unroutable_packets_are_counted() {
        let (clock, net, _inbox) = collect_net(LinkParams::loopback(), 5);
        net.send(HostId(1), HostId(77), 100, Box::new(0u32));
        while clock.fire_next() {}
        assert_eq!(net.stats().unroutable.get(), 1);
    }

    #[test]
    fn downed_link_drops_everything_and_time_still_advances() {
        let (clock, net, inbox) = collect_net(LinkParams::ethernet_100mbps(), 5);
        net.set_link_down(HostId(1), HostId(9));
        for i in 0..20u32 {
            net.send(HostId(1), HostId(9), 1500, Box::new(i));
        }
        // An unrelated timer: the world keeps turning while the link is down.
        let fired = Arc::new(Mutex::new(false));
        let fired2 = fired.clone();
        clock.schedule_at(1_000_000, move || *fired2.lock() = true);
        while clock.fire_next() {}
        assert!(inbox.lock().is_empty(), "downed link must drop everything");
        assert_eq!(net.stats().dropped.get(), 20);
        assert!(*fired.lock(), "virtual time must still advance");
        assert_eq!(clock.now(), 1_000_000);

        // Back up: traffic flows again, and the drop counter stays put.
        net.set_link_up(HostId(1), HostId(9));
        net.send(HostId(1), HostId(9), 1500, Box::new(99u32));
        while clock.fire_next() {}
        assert_eq!(*inbox.lock(), vec![99]);
        assert_eq!(net.stats().dropped.get(), 20);
    }

    #[test]
    fn crashed_host_drops_both_directions() {
        let (clock, net, inbox) = collect_net(LinkParams::loopback(), 5);
        net.set_host_down(HostId(9));
        net.send(HostId(1), HostId(9), 100, Box::new(1u32));
        net.send(HostId(9), HostId(1), 100, Box::new(2u32));
        while clock.fire_next() {}
        assert!(inbox.lock().is_empty());
        assert_eq!(net.stats().dropped.get(), 2);
        net.set_host_up(HostId(9));
        net.send(HostId(1), HostId(9), 100, Box::new(3u32));
        while clock.fire_next() {}
        assert_eq!(*inbox.lock(), vec![3]);
    }

    #[test]
    fn downed_link_does_not_perturb_loss_sequence() {
        // Survivors on a lossy link a→b must be identical whether or not
        // an unrelated link was downed and used in between.
        let run = |down_other: bool| {
            let (clock, net, inbox) = collect_net(LinkParams::loopback().with_loss(0.5), 77);
            if down_other {
                net.set_link_down(HostId(3), HostId(4));
            }
            for i in 0..200u32 {
                net.send(HostId(1), HostId(9), 100, Box::new(i));
                if down_other {
                    net.send(HostId(3), HostId(4), 100, Box::new(i));
                }
            }
            while clock.fire_next() {}
            let got = inbox.lock().clone();
            drop(net);
            got
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn link_override_changes_latency() {
        let (clock, net, inbox) = collect_net(LinkParams::loopback(), 5);
        net.set_link(
            HostId(1),
            HostId(9),
            LinkParams::loopback().with_latency(5_000_000),
        );
        net.send(HostId(1), HostId(9), 10, Box::new(1u32));
        while clock.fire_next() {}
        assert_eq!(inbox.lock().len(), 1);
        assert!(clock.now() >= 5_000_000);
    }
}
