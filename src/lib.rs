//! # eveth — combining events and threads for scalable network services
//!
//! The facade crate of a full Rust reproduction of Li & Zdancewic,
//! *"Combining Events and Threads for Scalable Network Services:
//! Implementation and Evaluation of Monadic, Application-level Concurrency
//! Primitives"* (PLDI 2007). It re-exports the workspace crates and adds
//! the glue that wires the application-level TCP stack onto the simulated
//! packet network.
//!
//! * [`core`] (`eveth-core`) — the CPS concurrency monad, traces, system
//!   calls, the SMP event-driven runtime, sync primitives and devices;
//! * [`simos`] (`eveth-simos`) — the deterministic simulated substrate:
//!   virtual clock, elevator-scheduled disk, file store, packet network,
//!   kernel-socket model, and the virtual-time runtime with NPTL/monadic
//!   cost models;
//! * [`tcp`] (`eveth-tcp`) — the application-level TCP stack (§4.8);
//! * [`stm`] (`eveth-stm`) — software transactional memory (§4.7);
//! * [`http`] (`eveth-http`) — the web-server case study (§5.2);
//! * [`kv`] (`eveth-kv`) — a sharded, memcached-style key-value service,
//!   the second workload proving the runtime generalizes beyond HTTP;
//! * [`glue`] — adapters connecting the pieces across crates.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! reproduction of every figure and table in the paper's evaluation.

#![warn(missing_docs)]

pub use eveth_cluster as cluster;
pub use eveth_core as core;
pub use eveth_http as http;
pub use eveth_kv as kv;
pub use eveth_simos as simos;
pub use eveth_stm as stm;
pub use eveth_tcp as tcp;

pub use eveth_core::{
    do_m, for_each_m, forever_m, loop_m, map_m, poll_until, while_m, Loop, ThreadM,
};

/// Cross-crate adapters: wiring the application-level TCP stack over the
/// simulated packet network — segments become `SimNet` packets (with
/// modelled wire length), and deliveries are injected back into the
/// destination host's `worker_tcp_input` queue.
pub mod glue {
    use std::sync::{Arc, Weak};

    use eveth_core::engine::RuntimeCtx;
    use eveth_core::net::HostId;
    use eveth_simos::net::SimNet;
    use eveth_tcp::host::TcpHost;
    use eveth_tcp::segment::Segment;
    use eveth_tcp::tcb::TcpConfig;
    use eveth_tcp::transport::SegmentTransport;

    /// A [`SegmentTransport`] that ships segments through a simulated
    /// packet network, inheriting its latency, bandwidth and loss.
    #[derive(Debug)]
    pub struct SimNetTransport {
        net: Arc<SimNet>,
    }

    impl SimNetTransport {
        /// Wraps a simulated network.
        pub fn new(net: Arc<SimNet>) -> Arc<Self> {
            Arc::new(SimNetTransport { net })
        }
    }

    impl SegmentTransport for SimNetTransport {
        fn send(&self, src: HostId, dst: HostId, seg: Segment) {
            let wire = seg.wire_len();
            self.net.send(src, dst, wire, Box::new(seg));
        }
    }

    /// Registers `host` with the network so packets addressed to it are
    /// injected into its input queue. The registration holds the host
    /// weakly.
    pub fn attach_tcp_host(net: &Arc<SimNet>, host: &Arc<TcpHost>) {
        let weak: Weak<TcpHost> = Arc::downgrade(host);
        net.register_host(
            host.host_id(),
            Arc::new(move |src, pkt| {
                if let (Some(host), Ok(seg)) = (weak.upgrade(), pkt.downcast::<Segment>()) {
                    host.inject(src, *seg);
                }
            }),
        );
    }

    /// One-call convenience: start a TCP host on `ctx`, transported over
    /// `net`, and attach its receive path.
    pub fn tcp_host_over_simnet(
        ctx: Arc<dyn RuntimeCtx>,
        net: &Arc<SimNet>,
        host: HostId,
        cfg: TcpConfig,
    ) -> Arc<TcpHost> {
        let transport = SimNetTransport::new(Arc::clone(net));
        let tcp = TcpHost::start(ctx, host, transport, cfg);
        attach_tcp_host(net, &tcp);
        tcp
    }
}

#[cfg(test)]
mod tests {
    use super::glue;
    use bytes::Bytes;
    use eveth_core::net::{recv_exact, send_all, Endpoint, HostId, NetStack};
    use eveth_core::syscall::sys_fork;
    use eveth_core::{do_m, ThreadM};
    use eveth_simos::net::LinkParams;
    use eveth_simos::net::SimNet;
    use eveth_simos::SimRuntime;
    use eveth_tcp::tcb::TcpConfig;

    #[test]
    fn tcp_over_simnet_with_latency_and_loss() {
        let sim = SimRuntime::new_default();
        let net = SimNet::new(
            sim.clock(),
            LinkParams::ethernet_100mbps().with_loss(0.02),
            42,
        );
        let a = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(1), TcpConfig::default());
        let b = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(2), TcpConfig::default());

        let payload = Bytes::from(vec![0xAB; 200_000]);
        let expect = payload.len();
        let server = do_m! {
            let lst <- b.listen(80);
            let conn <- lst.unwrap().accept();
            let conn = conn.unwrap();
            let got <- recv_exact(&conn, expect);
            let echoed <- send_all(&conn, got.unwrap().slice(..1024));
            let _ = echoed.unwrap();
            ThreadM::pure(())
        };
        let back = sim
            .block_on(do_m! {
                sys_fork(server);
                let conn <- a.connect(Endpoint::new(HostId(2), 80));
                let conn = conn.unwrap();
                let sent <- send_all(&conn, payload);
                let _ = sent.unwrap();
                recv_exact(&conn, 1024)
            })
            .unwrap()
            .unwrap();
        assert_eq!(back.len(), 1024);
        assert!(back.iter().all(|&x| x == 0xAB));
        assert!(
            net.stats().dropped.get() > 0,
            "the lossy link must actually drop segments for this test to bite"
        );
        // 200 KB over 100 Mbps is ≥ 16 ms of serialization alone.
        assert!(sim.now() >= 16_000_000, "virtual time = {}", sim.now());
    }
}
