//! TCB scenario tests beyond the unit suite: simultaneous close, rollback
//! recovery, window dynamics, RTO backoff, reordering and the ACK policy —
//! each driven by hand-delivering segments to a pair of state machines.

use std::sync::Arc;

use bytes::{BufferPool, Bytes};
use eveth_core::net::{Endpoint, HostId, NetError};
use eveth_core::time::MILLIS;
use eveth_tcp::segment::{Flags, Segment};
use eveth_tcp::tcb::{State, Tcb, TcpConfig, TcpStats};

fn pair(cfg: TcpConfig) -> (Tcb, Tcb) {
    pair_from(cfg, 100)
}

/// A connected pair whose client starts at sequence number `client_iss`.
fn pair_from(cfg: TcpConfig, client_iss: u32) -> (Tcb, Tcb) {
    let a = Endpoint::new(HostId(1), 1000);
    let b = Endpoint::new(HostId(2), 80);
    let mut client = Tcb::new_active(cfg.clone(), a, b, client_iss, 0);
    let syn = client.syn_segment();
    let mut server = Tcb::new_passive(cfg, b, a, 5000, &syn, 0);
    let syn_ack = server.syn_ack_segment();
    let (acks, _) = client.on_segment(syn_ack, 1000);
    for seg in acks {
        server.on_segment(seg, 2000);
    }
    assert_eq!(client.state(), State::Established);
    assert_eq!(server.state(), State::Established);
    (client, server)
}

fn exchange(a: &mut Tcb, b: &mut Tcb, first_from_a: Vec<Segment>, mut now: u64) -> u64 {
    let mut from_a = first_from_a;
    let mut from_b: Vec<Segment> = Vec::new();
    for _ in 0..200 {
        if from_a.is_empty() && from_b.is_empty() {
            return now;
        }
        now += 500;
        let mut new_from_b = Vec::new();
        for seg in from_a.drain(..) {
            new_from_b.extend(b.on_segment(seg, now).0);
        }
        now += 500;
        let mut new_from_a = Vec::new();
        for seg in from_b.drain(..) {
            new_from_a.extend(a.on_segment(seg, now).0);
        }
        from_a = new_from_a;
        from_b = new_from_b;
    }
    panic!("exchange did not quiesce");
}

#[test]
fn simultaneous_close_reaches_time_wait_on_both() {
    let (mut c, mut s) = pair(TcpConfig::default());
    // Both sides close before seeing the other's FIN.
    c.app_close();
    s.app_close();
    let fin_c = c.output(10_000);
    let fin_s = s.output(10_000);
    assert!(fin_c.iter().any(|x| x.flags.fin));
    assert!(fin_s.iter().any(|x| x.flags.fin));
    assert_eq!(c.state(), State::FinWait1);
    assert_eq!(s.state(), State::FinWait1);
    // Cross-deliver the FINs, then the resulting ACKs.
    let mut to_c = Vec::new();
    let mut to_s = Vec::new();
    for seg in fin_s {
        to_c.push(seg);
    }
    for seg in fin_c {
        to_s.push(seg);
    }
    let mut now = 20_000;
    for _ in 0..10 {
        if to_c.is_empty() && to_s.is_empty() {
            break;
        }
        now += 1_000;
        let mut nc = Vec::new();
        for seg in to_s.drain(..) {
            nc.extend(s.on_segment(seg, now).0);
        }
        let mut ns = Vec::new();
        for seg in to_c.drain(..) {
            ns.extend(c.on_segment(seg, now).0);
        }
        to_c = nc;
        to_s = ns;
    }
    // Simultaneous close: FIN crossed FIN → Closing → TimeWait.
    assert_eq!(c.state(), State::TimeWait);
    assert_eq!(s.state(), State::TimeWait);
    // Each side's record takes its place and ends 2MSL later.
    for tcb in [&c, &s] {
        let record = tcb.time_wait(now).expect("both sides linger");
        assert_eq!(record.until(), now + TcpConfig::default().time_wait);
    }
}

#[test]
fn rto_backoff_doubles_under_repeated_loss() {
    let (mut c, _s) = pair(TcpConfig::default());
    c.app_write(Bytes::from_static(b"doomed")).unwrap();
    let _lost = c.output(0);
    // Fire several consecutive RTOs; the retransmission gaps must grow.
    let mut now = 0u64;
    let mut gaps = Vec::new();
    let mut last_fire = 0u64;
    for _ in 0..4 {
        // March time forward until a retransmission happens.
        let mut fired_at = None;
        for _ in 0..100_000 {
            now += 10 * MILLIS;
            if !c.on_tick(now).is_empty() {
                fired_at = Some(now);
                break;
            }
        }
        let t = fired_at.expect("RTO must fire");
        if last_fire > 0 {
            gaps.push(t - last_fire);
        }
        last_fire = t;
    }
    assert!(gaps.len() >= 2);
    for w in gaps.windows(2) {
        assert!(
            w[1] >= w[0] * 2 - 20 * MILLIS,
            "backoff must roughly double: {:?}",
            gaps
        );
    }
    assert!(c.retransmits() >= 4);
}

#[test]
fn receiver_window_closes_and_reopens() {
    let cfg = TcpConfig {
        recv_window: 4096,
        send_buf: 64 * 1024,
        ..Default::default()
    };
    let (mut c, mut s) = pair(cfg);
    // Push far more than the window; receiver does not read.
    c.app_write(Bytes::from(vec![9u8; 32 * 1024])).unwrap();
    let mut to_s = c.output(10_000);
    let mut now = 10_000;
    // Drive until the sender is window-throttled.
    for _ in 0..50 {
        if to_s.is_empty() {
            break;
        }
        now += 1_000;
        let mut to_c = Vec::new();
        for seg in to_s.drain(..) {
            to_c.extend(s.on_segment(seg, now).0);
        }
        // The round's arrivals end here, the way a host's batch does.
        to_c.extend(s.flush_ack());
        now += 1_000;
        for seg in to_c {
            to_s.extend(c.on_segment(seg, now).0);
        }
    }
    // Receiver has at most a window's worth buffered and unread.
    let (first, reopened_early) = s.app_read(2048).unwrap();
    assert!(first.is_some());
    assert!(!reopened_early || first.is_some());
    // Drain everything receiver-side; eventually a read reopens a zero
    // window and asks for a window-update ACK.
    let mut reopened = false;
    let mut drained = first.unwrap().len();
    loop {
        let (chunk, r) = s.app_read(4096).unwrap();
        reopened |= r;
        match chunk {
            Some(c2) if !c2.is_empty() => drained += c2.len(),
            _ => break,
        }
    }
    assert!(drained >= 4096 - 2048, "drained {drained}");
    // Window update lets the sender move again.
    let update = s.ack_segment();
    let before = c.send_buffered();
    let more = c.on_segment(update, now + 1_000);
    let _ = more;
    let after_out = c.output(now + 2_000);
    assert!(
        !after_out.is_empty() || before == 0,
        "sender must resume after the window reopens (reopened={reopened})"
    );
}

#[test]
fn heavy_reordering_still_delivers_in_order() {
    let cfg = TcpConfig {
        initial_cwnd_mss: 16,
        mss: 1000,
        ..Default::default()
    };
    let (mut c, mut s) = pair(cfg);
    let payload: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
    c.app_write(Bytes::from(payload.clone())).unwrap();
    let mut segs = c.output(10_000);
    assert!(segs.len() >= 8, "want many segments, got {}", segs.len());
    // Deliver in reverse order.
    segs.reverse();
    let mut acks = Vec::new();
    for seg in segs {
        acks.extend(s.on_segment(seg, 20_000).0);
    }
    for ack in acks {
        c.on_segment(ack, 30_000);
    }
    let mut got = Vec::new();
    while let (Some(chunk), _) = s.app_read(64 * 1024).unwrap() {
        if chunk.is_empty() {
            break;
        }
        got.extend_from_slice(&chunk);
        if got.len() >= payload.len() {
            break;
        }
    }
    assert_eq!(got, payload, "reassembly must restore exact order");
}

#[test]
fn data_after_peer_close_is_still_deliverable() {
    // Half-close: client closes its direction; server may keep sending.
    let (mut c, mut s) = pair(TcpConfig::default());
    c.app_close();
    let fin = c.output(10_000);
    let now = exchange(&mut c, &mut s, fin, 10_000);
    assert_eq!(s.state(), State::CloseWait);
    assert_eq!(c.state(), State::FinWait2);
    // Server writes after receiving the FIN.
    s.app_write(Bytes::from_static(b"parting words")).unwrap();
    let mut to_c = s.output(now + 1_000);
    let mut to_s = Vec::new();
    let mut t = now + 1_000;
    for _ in 0..20 {
        if to_c.is_empty() && to_s.is_empty() {
            break;
        }
        t += 1_000;
        let mut ns = Vec::new();
        for seg in to_c.drain(..) {
            ns.extend(c.on_segment(seg, t).0);
        }
        t += 1_000;
        let mut nc = Vec::new();
        for seg in to_s.drain(..) {
            nc.extend(s.on_segment(seg, t).0);
        }
        to_s = ns;
        to_c = nc;
    }
    let (data, _) = c.app_read(64).unwrap();
    assert_eq!(&data.unwrap()[..], b"parting words");
}

/// Loses `lost` — a 100-byte write and the FIN behind it — and fires the
/// retransmission timeout, which must resend both.
fn resend_after_rto(tcb: &mut Tcb, lost: Vec<Segment>, now: u64) -> Vec<Segment> {
    let shape = |segs: &[Segment]| {
        segs.iter()
            .map(|s| (s.payload.len(), s.flags.psh, s.flags.fin))
            .collect::<Vec<_>>()
    };
    let want = [(100, true, false), (0, false, true)];
    assert_eq!(shape(&lost), want);
    let resent = tcb.on_tick(now + 300 * MILLIS);
    assert_eq!(
        shape(&resent),
        want,
        "the timeout resends the data, then the FIN"
    );
    assert_eq!(tcb.retransmits(), 2);
    resent
}

#[test]
fn data_written_before_close_survives_losing_it_and_the_fin_in_fin_wait_1() {
    let (mut c, mut s) = pair(TcpConfig::default());
    c.app_write(Bytes::from(vec![7u8; 100])).unwrap();
    c.app_close();
    let lost = c.output(10_000);
    assert_eq!(c.state(), State::FinWait1);
    let resent = resend_after_rto(&mut c, lost, 10_000);
    exchange(&mut c, &mut s, resent, 10_000 + 300 * MILLIS);
    let (data, _) = s.app_read(1000).unwrap();
    assert_eq!(&data.unwrap()[..], &[7u8; 100][..]);
    assert_eq!((s.state(), c.state()), (State::CloseWait, State::FinWait2));
}

#[test]
fn a_reply_written_before_close_survives_losing_it_and_the_fin_in_last_ack() {
    let (mut c, mut s) = pair(TcpConfig::default());
    // The peer's FIN arrives first; the server replies and closes.
    c.app_close();
    let fin = c.output(10_000);
    let now = exchange(&mut c, &mut s, fin, 10_000);
    assert_eq!((c.state(), s.state()), (State::FinWait2, State::CloseWait));
    s.app_write(Bytes::from(vec![9u8; 100])).unwrap();
    s.app_close();
    let lost = s.output(now);
    assert_eq!(s.state(), State::LastAck);
    let resent = resend_after_rto(&mut s, lost, now);
    exchange(&mut s, &mut c, resent, now + 300 * MILLIS);
    let (data, _) = c.app_read(1000).unwrap();
    assert_eq!(&data.unwrap()[..], &[9u8; 100][..]);
    assert_eq!((s.state(), c.state()), (State::Closed, State::TimeWait));
}

#[test]
fn a_resent_syn_ack_is_acknowledged_again() {
    // The client's ACK of the SYN+ACK is lost: the server resends it, and
    // the established client must answer, or the server gives up while the
    // client waits in `Established` forever.
    let cfg = TcpConfig::default();
    let (a, b) = (Endpoint::new(HostId(1), 1000), Endpoint::new(HostId(2), 80));
    let mut c = Tcb::new_active(cfg.clone(), a, b, 100, 0);
    let mut s = Tcb::new_passive(cfg, b, a, 5000, &c.syn_segment(), 0);
    let _lost = c.on_segment(s.syn_ack_segment(), 1000).0;
    assert_eq!(c.state(), State::Established);
    let resent = s.on_tick(300 * MILLIS);
    assert!(resent.iter().all(|seg| seg.flags.syn && seg.flags.ack));
    let mut acks = Vec::new();
    for seg in resent {
        acks.extend(c.on_segment(seg, 301 * MILLIS).0);
    }
    assert_eq!(acks.len(), 1);
    assert!(s.on_segment(acks.remove(0), 302 * MILLIS).1, "established");
    assert_eq!(s.state(), State::Established);
}

#[test]
fn connect_to_dead_host_times_out_with_error() {
    let cfg = TcpConfig {
        max_syn_retries: 3,
        ..Default::default()
    };
    let a = Endpoint::new(HostId(1), 1000);
    let b = Endpoint::new(HostId(9), 80);
    let mut c = Tcb::new_active(cfg, a, b, 100, 0);
    let _syn = c.syn_segment();
    let mut now = 0;
    for _ in 0..20_000 {
        now += 10 * MILLIS;
        c.on_tick(now);
        if c.state() == State::Closed {
            break;
        }
    }
    assert_eq!(c.state(), State::Closed);
    assert_eq!(c.error(), Some(NetError::Timeout));
}

#[test]
fn reassembly_across_the_sequence_wrap_drains_what_the_receiver_holds() {
    // The first data byte sits 1500 below 2³²: segment 0 ends short of the
    // wrap, segment 1 straddles it, segments 2 and 3 carry numerically
    // small sequence numbers. Ordered by raw sequence number, the held
    // segments would read 2, 3, 1 and the drain would stop at 2.
    let cfg = TcpConfig {
        mss: 1000,
        initial_cwnd_mss: 8,
        ..Default::default()
    };
    let (mut c, mut s) = pair_from(cfg, u32::MAX - 1500);
    let payload: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
    c.app_write(Bytes::from(payload.clone())).unwrap();
    let mut segs = c.output(10_000);
    assert_eq!(segs.len(), 4);
    assert!(segs[1].seq > segs[2].seq, "the sequence space wraps here");
    // The head is lost; its three followers arrive reordered.
    let _lost = segs.remove(0);
    segs.rotate_left(2);
    let mut dup_acks = Vec::new();
    for seg in segs {
        dup_acks.extend(s.on_segment(seg, 20_000).0);
    }
    assert_eq!(s.recv_buffered(), 0, "nothing is in order yet");
    // Three duplicate ACKs: the sender fast-retransmits the head, once.
    let mut resent = Vec::new();
    for ack in dup_acks {
        resent.extend(c.on_segment(ack, 30_000).0);
    }
    assert_eq!((c.retransmits(), resent.len()), (1, 1));
    // The head closes the gap; everything held drains behind it and the
    // ACK covers all four segments, so nothing the receiver already held
    // is sent again.
    let mut acks = Vec::new();
    for seg in resent {
        acks.extend(s.on_segment(seg, 40_000).0);
    }
    assert_eq!(s.recv_buffered(), 4000);
    let mut again = Vec::new();
    for ack in acks {
        again.extend(c.on_segment(ack, 50_000).0);
    }
    assert!(
        again.is_empty(),
        "nothing left to send: {} segment(s)",
        again.len()
    );
    assert_eq!((c.send_buffered(), c.retransmits()), (0, 1));
    let (data, _) = s.app_read(8000).unwrap();
    assert_eq!(&data.unwrap()[..], &payload[..]);
}

#[test]
fn short_replies_waiting_for_an_ack_or_a_reader_pin_no_pool_slab() {
    // 64 eight-byte replies, each encoded in a pool slab of its own (the
    // way a server stages one reply per request), written to a peer that
    // neither acknowledges nor reads in time.
    let pool = BufferPool::new(16 * 1024, 64);
    let (mut c, mut s) = pair(TcpConfig::default());
    let replies: Vec<Bytes> = (0..64u8)
        .map(|i| {
            let mut staged = pool.acquire();
            staged.extend_from_slice(&[i; 8]);
            staged.freeze()
        })
        .collect();
    assert_eq!((pool.slabs_carved(), pool.free_slabs()), (64, 0));
    for reply in replies {
        assert_eq!(s.app_write(reply).unwrap(), 8);
    }
    assert_eq!(s.send_buffered(), 512);
    assert_eq!(pool.free_slabs(), 64, "the send queue holds no slab");
    // Delivered, assembled — and left unread. A short write waits for its
    // reply to carry the ACK; none comes, so the tick sends it.
    let first = s.output(10_000);
    let now = exchange(&mut s, &mut c, first, 10_000);
    assert_eq!((s.send_buffered(), c.recv_buffered()), (512, 512));
    assert_eq!(pool.free_slabs(), 64, "the send queue still holds no slab");
    let ack = c.on_tick(now + 10 * MILLIS);
    exchange(&mut c, &mut s, ack, now + 10 * MILLIS);
    assert_eq!((s.send_buffered(), c.recv_buffered()), (0, 512));
    assert_eq!(pool.free_slabs(), 64, "the receive queue holds no slab");
    let (data, _) = c.app_read(4096).unwrap();
    let data = data.unwrap();
    assert!(data
        .chunks(8)
        .enumerate()
        .all(|(i, reply)| reply == [i as u8; 8]));
}

/// A pair whose sender may put `cwnd_mss` full segments in flight at once.
fn burst_pair(cwnd_mss: u32) -> (Tcb, Tcb) {
    pair(TcpConfig {
        initial_cwnd_mss: cwnd_mss,
        ..Default::default()
    })
}

const MSS: usize = 1460;

/// A pair whose server holds the ACK of two segments: three segments' worth
/// written behind a two-segment window, so both segments that left are
/// full-sized and neither ends the write.
fn pair_holding_an_ack() -> (Tcb, Tcb) {
    let (mut c, mut s) = burst_pair(2);
    c.app_write(Bytes::from(vec![4u8; 3 * MSS])).unwrap();
    let segs = c.output(10_000);
    assert_eq!(segs.len(), 2);
    for seg in segs {
        assert!(s.on_segment(seg, 20_000).0.is_empty(), "held, not sent");
    }
    assert!(s.ack_held());
    (c, s)
}

#[test]
fn a_held_ack_does_not_delay_the_dup_acks_a_fast_retransmit_needs() {
    let (mut c, mut s) = burst_pair(10);
    c.app_write(Bytes::from(vec![3u8; 6 * MSS])).unwrap();
    let mut segs = c.output(10_000);
    assert_eq!(segs.len(), 6);
    // The head arrives and its ACK is held; the second segment is lost.
    let head = segs.remove(0);
    let _lost = segs.remove(0);
    assert!(s.on_segment(head, 20_000).0.is_empty());
    assert!(s.ack_held());
    // Its followers arrive out of order: each is answered at once, and
    // the first answer takes the held ACK with it.
    let mut acks = Vec::new();
    for seg in segs {
        let replies = s.on_segment(seg, 21_000).0;
        assert_eq!(replies.len(), 1, "one immediate ACK per arrival");
        assert!(!s.ack_held());
        acks.extend(replies);
    }
    assert!(acks
        .iter()
        .all(|a| a.payload.is_empty() && a.ack == acks[0].ack));
    // To the sender that is one new ACK (the head) and three duplicates.
    let mut resent = Vec::new();
    for ack in acks {
        resent.extend(c.on_segment(ack, 30_000).0);
    }
    assert_eq!((c.retransmits(), resent.len()), (1, 1));
    assert!(resent[0].flags.psh, "recovery asks for its ACK at once");
    // The retransmission fills the gap and is acknowledged at once, up to
    // the end of what the receiver held.
    let acks = s.on_segment(resent.remove(0), 40_000).0;
    assert_eq!((acks.len(), s.recv_buffered()), (1, 6 * MSS));
    c.on_segment(acks[0].clone(), 50_000);
    assert_eq!(c.send_buffered(), 0);
}

#[test]
fn a_held_ack_with_no_batch_end_leaves_on_the_tick() {
    let (mut c, mut s) = pair_holding_an_ack();
    let acks = s.on_tick(10 * MILLIS);
    assert_eq!(acks.len(), 1);
    assert!(!s.ack_held());
    assert!(s.on_tick(20 * MILLIS).is_empty(), "released once");
    // One ACK for two segments opens the window by two: byte counting.
    let rest = c.on_segment(acks[0].clone(), 11 * MILLIS).0;
    assert_eq!(c.cwnd() as usize, 4 * MSS);
    assert_eq!((rest.len(), c.send_buffered()), (1, MSS));
}

#[test]
fn a_reply_written_while_an_ack_is_held_carries_it() {
    let (mut c, mut s) = pair_holding_an_ack();
    s.app_write(Bytes::from_static(b"reply")).unwrap();
    let reply = s.output(21_000);
    assert_eq!(reply.len(), 1);
    assert!(!s.ack_held());
    // Nothing is left for the batch end or the tick to send.
    assert!(s.flush_ack().is_none());
    assert!(s.on_tick(10 * MILLIS).is_empty());
    // The reply acknowledges both request segments.
    c.on_segment(reply[0].clone(), 22_000);
    assert_eq!(c.send_buffered(), MSS);
}

#[test]
fn psh_marks_the_end_of_a_write_and_every_retransmission() {
    let psh = |segs: &[Segment]| segs.iter().map(|s| s.flags.psh).collect::<Vec<_>>();
    let (mut c, _s) = burst_pair(10);
    c.app_write(Bytes::from(vec![6u8; 3 * MSS + 10])).unwrap();
    assert_eq!(psh(&c.output(10_000)), [false, false, false, true]);
    // A write that ends on a segment boundary still ends with PSH, and a
    // window that cuts a write short does not.
    let (mut c, _s) = burst_pair(10);
    c.app_write(Bytes::from(vec![6u8; 2 * MSS])).unwrap();
    assert_eq!(psh(&c.output(10_000)), [false, true]);
    let (mut c, _s) = burst_pair(2);
    c.app_write(Bytes::from(vec![6u8; 3 * MSS])).unwrap();
    assert_eq!(psh(&c.output(10_000)), [false, false]);
    // All of it is lost: the timeout resends the head of the write, PSH set.
    let resent = c.on_tick(10_000 + 300 * MILLIS);
    assert_eq!(c.retransmits(), 1);
    assert!(resent[0].flags.psh && resent[0].payload.len() == MSS);
}

#[test]
fn a_reset_drops_the_held_ack() {
    let (mut c, mut s) = pair_holding_an_ack();
    s.on_segment(c.app_abort(), 21_000);
    assert_eq!(s.state(), State::Closed);
    assert!(s.flush_ack().is_none(), "no ACK to a peer that reset");
}

fn is_pure_ack(seg: &Segment) -> bool {
    seg.payload.is_empty() && seg.flags == Flags::ack()
}

/// `from` writes `len` bytes and `to` reads them; every answer is delivered
/// back. Returns each segment either side sent.
fn write_and_read(from: &mut Tcb, to: &mut Tcb, len: usize, now: u64) -> Vec<Segment> {
    assert_eq!(from.app_write(Bytes::from(vec![7u8; len])).unwrap(), len);
    let mut wire = from.output(now);
    let mut answers = Vec::new();
    for seg in &wire {
        answers.extend(to.on_segment(seg.clone(), now + 500).0);
    }
    for seg in &answers {
        wire.extend(from.on_segment(seg.clone(), now + 1_000).0);
    }
    wire.extend(answers);
    let (data, _) = to.app_read(len).unwrap();
    assert_eq!(data.map(|d| d.len()), Some(len));
    wire
}

#[test]
fn fifty_requests_and_replies_cost_a_hundred_segments_and_no_bare_ack() {
    const EXCHANGES: u64 = 50;
    let stats = Arc::new(TcpStats::default());
    let (mut c, mut s) = pair(TcpConfig::default());
    c.report_to(Arc::clone(&stats));
    s.report_to(Arc::clone(&stats));
    let mut wire = Vec::new();
    for i in 0..EXCHANGES {
        let now = 10_000 + i * 4_000;
        wire.extend(write_and_read(&mut c, &mut s, 100, now));
        assert_eq!(
            s.send_buffered(),
            0,
            "request {i} acknowledged the reply before it"
        );
        wire.extend(write_and_read(&mut s, &mut c, 8, now + 2_000));
        assert_eq!(c.send_buffered(), 0, "the reply acknowledged request {i}");
    }
    assert_eq!(wire.len() as u64, 2 * EXCHANGES);
    assert_eq!(wire.iter().filter(|seg| is_pure_ack(seg)).count(), 0);
    assert_eq!(stats.acks_on_tick.get(), 0);
}

#[test]
fn a_short_write_is_acknowledged_by_the_reply_or_else_by_the_tick() {
    let tick = TcpConfig::default().tick;
    let request = |c: &mut Tcb, s: &mut Tcb| {
        c.app_write(Bytes::from(vec![5u8; 100])).unwrap();
        let sent = c.output(10_000);
        assert_eq!(sent.len(), 1);
        assert!(
            s.on_segment(sent[0].clone(), 11_000).0.is_empty(),
            "no bare ACK"
        );
        sent[0].seq_end()
    };

    // No reply: the batch end releases nothing, the tick one bare ACK.
    let stats = Arc::new(TcpStats::default());
    let (mut c, mut s) = pair(TcpConfig::default());
    s.report_to(Arc::clone(&stats));
    let end = request(&mut c, &mut s);
    assert!(!s.ack_held());
    assert!(s.flush_ack().is_none(), "not the batch end's to send");
    let acks = s.on_tick(tick);
    assert_eq!(acks.len(), 1);
    assert!(is_pure_ack(&acks[0]) && acks[0].ack == end);
    assert_eq!(stats.acks_on_tick.get(), 1);
    assert!(s.on_tick(2 * tick).is_empty(), "sent once");
    c.on_segment(acks[0].clone(), tick + 1_000);
    assert_eq!(c.send_buffered(), 0);

    // A reply written before the tick carries it; the tick sends nothing.
    let (mut c, mut s) = pair(TcpConfig::default());
    s.report_to(Arc::clone(&stats));
    let end = request(&mut c, &mut s);
    s.app_write(Bytes::from_static(b"STORED\r\n")).unwrap();
    let reply = s.output(12_000);
    assert_eq!((reply.len(), reply[0].ack), (1, end));
    assert!(s.on_tick(tick).is_empty());
    assert_eq!(stats.acks_on_tick.get(), 1);
    c.on_segment(reply[0].clone(), 13_000);
    assert_eq!(c.send_buffered(), 0);
}

/// A connected pair, and what the client sends once it wrote `len` bytes
/// with room for `cwnd_mss` segments in flight.
fn written(cwnd_mss: u32, len: usize) -> (Tcb, Tcb, Vec<Segment>) {
    let (mut c, s) = burst_pair(cwnd_mss);
    c.app_write(Bytes::from(vec![2u8; len])).unwrap();
    let segs = c.output(10_000);
    (c, s, segs)
}

#[test]
fn everything_but_a_short_write_or_a_burst_is_still_acknowledged_at_once() {
    type Case = fn() -> (Tcb, Vec<Segment>);
    // Each case: a receiver and the segments it gets in turn. The last one
    // must be answered with a bare ACK there and then.
    let cases: [(&str, Case); 10] = [
        ("out-of-order payload", || {
            let (_, s, segs) = written(10, 2 * MSS + 100);
            (s, vec![segs[1].clone()])
        }),
        ("the segment that fills a gap", || {
            let (_, s, segs) = written(10, 2 * MSS + 100);
            (s, vec![segs[1].clone(), segs[0].clone()])
        }),
        ("duplicate payload", || {
            let (_, s, segs) = written(2, 100);
            (s, vec![segs[0].clone(), segs[0].clone()])
        }),
        ("a FIN", || {
            let (mut c, s) = pair(TcpConfig::default());
            c.app_close();
            (s, c.output(10_000))
        }),
        ("a resent SYN+ACK", || {
            let (c, s) = pair(TcpConfig::default());
            (c, vec![s.syn_ack_segment()])
        }),
        ("the handshake's final ACK", || {
            let (a, b) = (Endpoint::new(HostId(1), 1000), Endpoint::new(HostId(2), 80));
            let cfg = TcpConfig::default();
            let c = Tcb::new_active(cfg.clone(), a, b, 100, 0);
            let s = Tcb::new_passive(cfg, b, a, 5000, &c.syn_segment(), 0);
            (c, vec![s.syn_ack_segment()])
        }),
        ("a full-sized write ending in PSH", || {
            let (_, s, segs) = written(2, MSS);
            assert!(segs[0].flags.psh);
            (s, segs)
        }),
        ("a short segment without PSH", || {
            let (_, s, mut segs) = written(2, 100);
            segs[0].flags.psh = false;
            (s, segs)
        }),
        ("a short write that leaves under an MSS of window", || {
            let (mut c, s) = pair(TcpConfig {
                recv_window: MSS + 50,
                ..Default::default()
            });
            c.app_write(Bytes::from(vec![2u8; 100])).unwrap();
            (s, c.output(10_000))
        }),
        ("a short write to a side that closed", || {
            let (mut c, mut s) = pair(TcpConfig::default());
            s.app_close();
            let fin = s.output(10_000);
            let now = exchange(&mut s, &mut c, fin, 10_000);
            c.app_write(Bytes::from(vec![2u8; 100])).unwrap();
            (s, c.output(now))
        }),
    ];
    for (name, case) in cases {
        let (mut rx, segs) = case();
        let mut answer = Vec::new();
        for seg in segs {
            answer = rx.on_segment(seg, 20_000).0;
        }
        assert!(
            answer.len() == 1 && is_pure_ack(&answer[0]),
            "{name}: answered with {answer:?}"
        );
    }
}

#[test]
fn a_lost_short_tail_is_resent_and_acknowledged_within_an_rto_and_a_tick() {
    let cfg = TcpConfig::default();
    let (mut c, mut s) = burst_pair(10);
    c.app_write(Bytes::from(vec![8u8; 2 * MSS + 100])).unwrap();
    let mut segs = c.output(10_000);
    assert_eq!(segs.len(), 3);
    let _lost = segs.pop();
    for seg in segs {
        assert!(s.on_segment(seg, 20_000).0.is_empty());
    }
    let acked_at = 30_000;
    let ack = s.flush_ack().expect("the batch end acknowledges the burst");
    c.on_segment(ack, acked_at);
    assert_eq!(c.send_buffered(), 100);
    // Both sides tick, the receiver first: the resent tail arrives just
    // after its tick, so its delayed ACK waits for the next one.
    let mut now = acked_at;
    while c.send_buffered() > 0 {
        now += cfg.tick;
        assert!(now <= acked_at + cfg.min_rto + cfg.tick, "stalled");
        for ack in s.on_tick(now) {
            c.on_segment(ack, now);
        }
        for seg in c.on_tick(now) {
            for ack in s.on_segment(seg, now).0 {
                c.on_segment(ack, now);
            }
        }
    }
    assert_eq!(c.retransmits(), 1);
    assert_eq!(s.recv_buffered(), 2 * MSS + 100);
}
