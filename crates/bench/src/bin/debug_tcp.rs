//! Diagnostic harness: drives a lossy TCP-over-SimNet transfer in 100 ms
//! virtual slices and dumps every TCB between slices. Useful when a
//! protocol change stalls an exchange (run with `cargo run -p eveth-bench
//! --bin debug_tcp`).

use bytes::Bytes;
use eveth_core::net::{recv_exact, send_all, Endpoint, HostId, NetStack};
use eveth_core::{do_m, ThreadM};
use eveth_simos::net::{LinkParams, SimNet};
use eveth_simos::SimRuntime;
use eveth_tcp::host::TcpHost;
use eveth_tcp::tcb::TcpConfig;
use eveth_tcp::transport::SegmentTransport;
use std::sync::Arc;

struct SimNetTransport {
    net: Arc<SimNet>,
}
impl SegmentTransport for SimNetTransport {
    fn send(&self, src: HostId, dst: HostId, seg: eveth_tcp::segment::Segment) {
        let wire = seg.wire_len();
        self.net.send(src, dst, wire, Box::new(seg));
    }
}

fn attach(net: &Arc<SimNet>, host: &Arc<TcpHost>) {
    let weak = Arc::downgrade(host);
    net.register_host(
        host.host_id(),
        Arc::new(move |src, pkt| {
            if let (Some(h), Ok(seg)) = (
                weak.upgrade(),
                pkt.downcast::<eveth_tcp::segment::Segment>(),
            ) {
                h.inject(src, *seg);
            }
        }),
    );
}

fn main() {
    let bytes = 200_000usize;
    let sim = SimRuntime::new_default();
    let net = SimNet::new(
        sim.clock(),
        LinkParams::ethernet_100mbps().with_loss(0.02),
        42,
    );
    let a = TcpHost::start(
        sim.ctx(),
        HostId(1),
        Arc::new(SimNetTransport { net: net.clone() }),
        TcpConfig::default(),
    );
    let b = TcpHost::start(
        sim.ctx(),
        HostId(2),
        Arc::new(SimNetTransport { net: net.clone() }),
        TcpConfig::default(),
    );
    attach(&net, &a);
    attach(&net, &b);

    let payload = Bytes::from(vec![0xAB; bytes]);
    let server = do_m! {
        let lst <- b.listen(80);
        let conn <- lst.unwrap().accept();
        let conn = conn.unwrap();
        let got <- recv_exact(&conn, bytes);
        let echoed <- send_all(&conn, got.unwrap().slice(..128));
        let _ = echoed.unwrap();
        ThreadM::pure(())
    };
    sim.spawn(server);
    let a2 = Arc::clone(&a);
    sim.spawn(do_m! {
        let conn <- a2.connect(Endpoint::new(HostId(2), 80));
        let conn = conn.unwrap();
        let sent <- send_all(&conn, payload);
        let _ = sent.unwrap();
        let back <- recv_exact(&conn, 128);
        let back = back.unwrap();
        eveth_core::syscall::sys_nbio(move || println!("CLIENT DONE, got {} bytes", back.len()))
    });

    // Run in 100ms virtual slices, dumping state. The wait columns use
    // the runtime's split accounting: `io` is time blocked on socket
    // readiness (`sys_epoll_wait`), `lock` is pure synchronization wait
    // (`sys_park`) — a stall that grows `io` without moving segments
    // points at the protocol, one that grows `lock` points at the host's
    // internal queues.
    for slice in 1..=50u64 {
        let report = sim.run_until(Some(slice * 100_000_000));
        println!(
            "t={:>6}ms a={:?} b={:?} sent={} dropped={} io={}us/{} lock={}us/{}",
            sim.now() / 1_000_000,
            a,
            b,
            net.stats().sent.get(),
            net.stats().dropped.get(),
            report.io_wait_ns / 1_000,
            report.io_waits,
            report.lock_wait_ns / 1_000,
            report.lock_waits,
        );
        a.debug_dump();
        b.debug_dump();
    }
}
