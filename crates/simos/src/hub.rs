//! Cluster-level fault injection: one switchboard over every simulated
//! network layer.
//!
//! The simulator has two transports over one link model
//! ([`crate::net`]'s per-host-pair wires) — [`crate::net::SimNet`]
//! carries raw packets under the application-level TCP stack, while
//! [`crate::sockets::SocketFabric`] models kernel-TCP streams directly —
//! and a scenario usually runs hosts on one or the other. Fault scripts
//! should not care which: a [`Hub`] holds weak references to any number
//! of attached layers and fans each fault out to all of them, so
//! "partition A from B at t=2s, crash node 3 at t=5s" reads the same in
//! every scenario.
//!
//! Faults are deliberately *mechanism-level*:
//!
//! * [`Hub::set_link_down`] / [`Hub::set_link_up`] drop packets on a
//!   directed link ([`Hub::partition`] / [`Hub::heal`] down both
//!   directions) — the transport above sees silence, and TCP's
//!   retransmission machinery owns recovery. The socket fabric shares
//!   the link's timing but not its faults or loss: it models kernel TCP,
//!   which hides both;
//! * [`Hub::crash_host`] / [`Hub::restart_host`] model a process dying:
//!   streams reset, listeners vanish, connects are refused. Restart
//!   revives the *host*; relistening and reconnecting is the
//!   application's job.
//!
//! Everything stays deterministic: drops are counted in
//! [`crate::net::NetStats`], and downed-link drops never consume loss-RNG
//! draws, so injecting a fault perturbs nothing it does not touch.

use std::fmt;
use std::sync::{Arc, Weak};

use eveth_core::net::HostId;
use parking_lot::Mutex;

use crate::net::SimNet;
use crate::sockets::SocketFabric;

/// A fault-injection switchboard over attached network layers.
///
/// Holds its attachments weakly: a `Hub` in a long-lived scenario driver
/// never keeps a torn-down network alive, and faults on a dropped layer
/// are silently skipped.
#[derive(Default)]
pub struct Hub {
    nets: Mutex<Vec<Weak<SimNet>>>,
    fabrics: Mutex<Vec<Weak<SocketFabric>>>,
}

impl Hub {
    /// An empty hub; attach layers with [`Hub::attach_net`] /
    /// [`Hub::attach_fabric`].
    pub fn new() -> Arc<Hub> {
        Arc::new(Hub::default())
    }

    /// Attaches a packet network; subsequent faults apply to it.
    pub fn attach_net(&self, net: &Arc<SimNet>) {
        self.nets.lock().push(Arc::downgrade(net));
    }

    /// Attaches a socket fabric; subsequent faults apply to it.
    pub fn attach_fabric(&self, fabric: &Arc<SocketFabric>) {
        self.fabrics.lock().push(Arc::downgrade(fabric));
    }

    fn each_net(&self, f: impl Fn(&SimNet)) {
        for net in self.nets.lock().iter().filter_map(Weak::upgrade) {
            f(&net);
        }
    }

    fn each_fabric(&self, f: impl Fn(&SocketFabric)) {
        for fabric in self.fabrics.lock().iter().filter_map(Weak::upgrade) {
            f(&fabric);
        }
    }

    /// Downs the directed link `src → dst` on every attached packet
    /// network (the fabric's streams, which model kernel TCP, are only
    /// affected by host crashes — see the module docs).
    pub fn set_link_down(&self, src: HostId, dst: HostId) {
        self.each_net(|net| net.set_link_down(src, dst));
    }

    /// Restores the directed link `src → dst`.
    pub fn set_link_up(&self, src: HostId, dst: HostId) {
        self.each_net(|net| net.set_link_up(src, dst));
    }

    /// Full bidirectional partition between `a` and `b`.
    pub fn partition(&self, a: HostId, b: HostId) {
        self.set_link_down(a, b);
        self.set_link_down(b, a);
    }

    /// Heals a [`Hub::partition`].
    pub fn heal(&self, a: HostId, b: HostId) {
        self.set_link_up(a, b);
        self.set_link_up(b, a);
    }

    /// Crashes `host` on every attached layer: packet networks drop its
    /// traffic, socket fabrics reset its streams and close its listeners.
    pub fn crash_host(&self, host: HostId) {
        self.each_net(|net| net.set_host_down(host));
        self.each_fabric(|fabric| fabric.crash_host(host));
    }

    /// Revives `host` everywhere; the application must relisten and
    /// reconnect, exactly as after a real reboot.
    pub fn restart_host(&self, host: HostId) {
        self.each_net(|net| net.set_host_up(host));
        self.each_fabric(|fabric| fabric.restart_host(host));
    }
}

impl fmt::Debug for Hub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Hub(nets={}, fabrics={})",
            self.nets.lock().len(),
            self.fabrics.lock().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::SimClock;
    use crate::net::LinkParams;

    #[test]
    fn hub_fans_out_to_attached_net_and_holds_weakly() {
        let clock = SimClock::new();
        let net = SimNet::new(clock.clone(), LinkParams::loopback(), 1);
        net.register_host(HostId(2), Arc::new(|_src, _pkt| {}));
        let hub = Hub::new();
        hub.attach_net(&net);

        hub.partition(HostId(1), HostId(2));
        net.send(HostId(1), HostId(2), 10, Box::new(0u32));
        net.send(HostId(2), HostId(1), 10, Box::new(0u32));
        while clock.fire_next() {}
        assert_eq!(net.stats().dropped.get(), 2);

        hub.heal(HostId(1), HostId(2));
        net.send(HostId(1), HostId(2), 10, Box::new(1u32));
        while clock.fire_next() {}
        assert_eq!(net.stats().delivered.get(), 1);

        // Dropping the net must not wedge the hub: faults become no-ops.
        drop(net);
        hub.crash_host(HostId(1));
    }
}
