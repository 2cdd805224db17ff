//! Differential property test for the TCB's data path: a `Tcb` pair on a
//! lossy, duplicating link, shadowed by a byte-queue model of the
//! `VecDeque<u8>` send buffer and reassembly queue the stack used before
//! its queues held `Bytes` windows. Whatever the write sizes, piece
//! boundaries, MSS, read sizes and faults, the stack must accept the same
//! byte counts, cut segments that are exactly the model's bytes at that
//! sequence number, acknowledge and advertise what the model would, and
//! hand the reader the same lengths and the same stream. Arrivals are
//! delivered the way `worker_tcp_input` delivers them: held ACKs leave when
//! a round of arrivals ends or [`ACK_BATCH`] segments were processed.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use eveth_core::net::{Endpoint, HostId};
use eveth_core::time::{Nanos, MILLIS};
use eveth_tcp::host::ACK_BATCH;
use eveth_tcp::segment::Segment;
use eveth_tcp::seq::{seq_diff, seq_gt, seq_le, seq_lt};
use eveth_tcp::tcb::{State, Tcb, TcpConfig};
use proptest::prelude::*;

/// The sender's buffer as a plain byte queue: `buf[0]` is at `una`.
struct TxModel {
    buf: VecDeque<u8>,
    una: u32,
    max: u32,
    send_buf: usize,
    mss: usize,
}

impl TxModel {
    fn write(&mut self, data: &[u8]) -> usize {
        let n = (self.send_buf - self.buf.len()).min(data.len());
        self.buf.extend(&data[..n]);
        n
    }

    /// A data segment leaves the sender: it is the model's bytes at `seq`.
    fn sent(&mut self, seg: &Segment) {
        if seg.payload.is_empty() {
            return;
        }
        assert!(seg.payload.len() <= self.mss, "segment over MSS");
        let off = seq_diff(seg.seq, self.una) as usize;
        assert!(
            off + seg.payload.len() <= self.buf.len(),
            "segment past the buffer"
        );
        let want: Vec<u8> = self
            .buf
            .iter()
            .skip(off)
            .take(seg.payload.len())
            .copied()
            .collect();
        assert_eq!(
            &seg.payload[..],
            &want[..],
            "segment bytes at seq {}",
            seg.seq
        );
        let end = seg.seq.wrapping_add(seg.payload.len() as u32);
        if seq_gt(end, self.max) {
            self.max = end;
        }
    }

    /// An ACK reaches the sender.
    fn acked(&mut self, ack: u32) {
        if seq_gt(ack, self.una) && seq_le(ack, self.max) {
            self.buf.drain(..seq_diff(ack, self.una) as usize);
            self.una = ack;
        }
    }
}

/// The receiver's reassembly as plain byte queues.
struct RxModel {
    readable: VecDeque<u8>,
    nxt: u32,
    ooo: BTreeMap<u32, Vec<u8>>,
    window: usize,
}

impl RxModel {
    fn wnd(&self) -> u32 {
        let held = self.readable.len() + self.ooo.values().map(Vec::len).sum::<usize>();
        self.window.saturating_sub(held) as u32
    }

    fn ingest(&mut self, seq: u32, payload: &[u8]) {
        let end = seq.wrapping_add(payload.len() as u32);
        if seq_le(end, self.nxt) {
            return;
        }
        if seq_le(seq, self.nxt) {
            let skip = seq_diff(self.nxt, seq) as usize;
            self.readable.extend(&payload[skip..]);
            self.nxt = end;
            // Sequence numbers stay far from the wrap here, so numeric
            // order is arrival order.
            while let Some((&held_seq, _)) = self.ooo.iter().next() {
                if seq_gt(held_seq, self.nxt) {
                    break;
                }
                let held = self.ooo.remove(&held_seq).expect("present");
                let held_end = held_seq.wrapping_add(held.len() as u32);
                if seq_gt(held_end, self.nxt) {
                    let skip = seq_diff(self.nxt, held_seq) as usize;
                    self.readable.extend(&held[skip..]);
                    self.nxt = held_end;
                }
            }
        } else if seq_lt(seq, self.nxt.wrapping_add(self.window as u32)) {
            self.ooo.entry(seq).or_insert_with(|| payload.to_vec());
        }
    }

    fn read(&mut self, max: usize) -> Vec<u8> {
        let n = max.min(self.readable.len());
        self.readable.drain(..n).collect()
    }
}

/// `LoopbackNet`'s fault model: seeded loss, every n-th survivor doubled.
struct Link {
    rng: u64,
    loss: f64,
    duplicate_every: Option<u64>,
    survivors: u64,
}

impl Link {
    fn carry(&mut self, segs: Vec<Segment>) -> Vec<Segment> {
        let mut out = Vec::new();
        for seg in segs {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            if ((self.rng >> 11) as f64 / (1u64 << 53) as f64) < self.loss {
                continue;
            }
            self.survivors += 1;
            if matches!(self.duplicate_every, Some(n) if self.survivors.is_multiple_of(n)) {
                out.push(seg.clone());
            }
            out.push(seg);
        }
        out
    }
}

#[derive(Debug, Clone)]
struct Scenario {
    mss: usize,
    send_buf: usize,
    recv_window: usize,
    initial_cwnd_mss: u32,
    /// Gather writes, each a list of piece lengths.
    writes: Vec<Vec<usize>>,
    /// Read sizes, cycled.
    reads: Vec<usize>,
    loss: f64,
    duplicate_every: Option<u64>,
    seed: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let piece = prop_oneof![0usize..64, 200usize..400, 1000usize..5000];
    (
        (90usize..1500, 1500usize..20_000, 1500usize..20_000),
        proptest::collection::vec(proptest::collection::vec(piece, 1..5), 1..12),
        proptest::collection::vec(1usize..6000, 1..6),
        (0.0f64..0.15, proptest::option::of(2u64..9), 1u64..u64::MAX),
    )
        .prop_map(|(sizes, writes, reads, faults)| Scenario {
            mss: sizes.0,
            send_buf: sizes.1,
            recv_window: sizes.2,
            initial_cwnd_mss: TcpConfig::default().initial_cwnd_mss,
            writes,
            reads,
            loss: faults.0,
            duplicate_every: faults.1,
            seed: faults.2,
        })
}

/// Small segments behind large buffers and an open congestion window, on
/// a link that always loses and duplicates: one round of arrivals is longer
/// than [`ACK_BATCH`].
fn burst_scenario() -> impl Strategy<Value = Scenario> {
    (
        (90usize..180, 16_000usize..20_000, 16_000usize..20_000),
        proptest::collection::vec(proptest::collection::vec(14_000usize..20_000, 1..3), 1..4),
        proptest::collection::vec(1usize..6000, 1..6),
        (0.01f64..0.1, 2u64..9, 1u64..u64::MAX),
    )
        .prop_map(|(sizes, writes, reads, faults)| Scenario {
            mss: sizes.0,
            send_buf: sizes.1,
            recv_window: sizes.2,
            initial_cwnd_mss: 256,
            writes,
            reads,
            loss: faults.0,
            duplicate_every: Some(faults.1),
            seed: faults.2,
        })
}

/// Runs `sc` to completion; returns the most segments the receiver was
/// handed in one round.
fn run(sc: &Scenario) -> usize {
    let cfg = TcpConfig {
        mss: sc.mss,
        send_buf: sc.send_buf,
        recv_window: sc.recv_window,
        initial_cwnd_mss: sc.initial_cwnd_mss,
        min_rto: 20 * MILLIS,
        max_rto: 80 * MILLIS,
        initial_rto: 20 * MILLIS,
        ..Default::default()
    };
    let (a, b) = (Endpoint::new(HostId(1), 1000), Endpoint::new(HostId(2), 80));
    let (c_iss, s_iss) = (100, 5000);
    let mut c = Tcb::new_active(cfg.clone(), a, b, c_iss, 0);
    let mut s = Tcb::new_passive(cfg, b, a, s_iss, &c.syn_segment(), 0);
    for seg in c.on_segment(s.syn_ack_segment(), 1).0 {
        s.on_segment(seg, 2);
    }
    assert_eq!(
        (c.state(), s.state()),
        (State::Established, State::Established)
    );

    let mut tx = TxModel {
        buf: VecDeque::new(),
        una: c_iss + 1,
        max: c_iss + 1,
        send_buf: sc.send_buf,
        mss: sc.mss,
    };
    let mut rx = RxModel {
        readable: VecDeque::new(),
        nxt: c_iss + 1,
        ooo: BTreeMap::new(),
        window: sc.recv_window,
    };
    let mut link = Link {
        rng: sc.seed | 1,
        loss: sc.loss,
        duplicate_every: sc.duplicate_every,
        survivors: 0,
    };

    // The stream: every write's pieces are windows of one shared region,
    // the way a reply's header, value and trailer are.
    let total: usize = sc.writes.iter().flatten().sum();
    let stream = Bytes::from(
        (0..total)
            .map(|i| (i * 7 + i / 253) as u8)
            .collect::<Vec<u8>>(),
    );
    let mut at = 0;
    let mut writes: VecDeque<Vec<Bytes>> = sc
        .writes
        .iter()
        .map(|lens| {
            lens.iter()
                .map(|&n| {
                    at += n;
                    stream.slice(at - n..at)
                })
                .collect()
        })
        .collect();
    writes.retain(|w| w.iter().any(|p| !p.is_empty()));

    let mut got: Vec<u8> = Vec::with_capacity(total);
    let mut reads = sc.reads.iter().cycle();
    let mut now: Nanos = 10;
    let mut to_s: Vec<Segment> = Vec::new();
    let mut to_c: Vec<Segment> = Vec::new();
    let mut longest_round = 0;
    // What the receiver sends is checked against the model as it leaves.
    let check_rx = |rx: &RxModel, segs: &[Segment]| {
        for seg in segs {
            assert_eq!(seg.ack, rx.nxt, "receiver acknowledges the model's rcv_nxt");
            assert_eq!(seg.wnd, rx.wnd(), "receiver advertises the model's window");
        }
    };
    for _ in 0..50_000 {
        if got.len() == total && writes.is_empty() {
            break;
        }
        // Writer: one gather write of whatever is left of the front batch.
        if let Some(pieces) = writes.front_mut() {
            let accepted = c.app_writev(pieces).expect("write");
            assert_eq!(accepted, tx.write(&pieces.concat()), "accepted count");
            let mut left = accepted;
            pieces.retain_mut(|p| {
                let n = left.min(p.len());
                *p = p.slice(n..);
                left -= n;
                !p.is_empty()
            });
            if pieces.is_empty() {
                writes.pop_front();
            }
            let out = c.output(now);
            out.iter().for_each(|seg| tx.sent(seg));
            to_s.extend(out);
        }
        // Link → receiver, under the host's batch rule.
        let arrivals = link.carry(std::mem::take(&mut to_s));
        let round = arrivals.len();
        longest_round = longest_round.max(round);
        for (i, seg) in arrivals.into_iter().enumerate() {
            rx.ingest(seg.seq, &seg.payload);
            let mut replies = s.on_segment(seg, now).0;
            if (i + 1) % ACK_BATCH == 0 || i + 1 == round {
                replies.extend(s.flush_ack());
            }
            check_rx(&rx, &replies);
            to_c.extend(replies);
        }
        assert_eq!(s.recv_buffered(), rx.readable.len(), "assembled bytes");
        // Reader.
        let max = *reads.next().expect("cycle");
        let (data, reopened) = s.app_read(max).expect("read");
        let want = rx.read(max);
        match data {
            None => assert!(want.is_empty(), "stack parked with {} readable", want.len()),
            Some(data) => {
                assert_eq!(&data[..], &want[..], "read of {max}");
                got.extend_from_slice(&data);
            }
        }
        if reopened {
            let update = s.ack_segment();
            check_rx(&rx, std::slice::from_ref(&update));
            to_c.push(update);
        }
        // Link → sender.
        for seg in link.carry(std::mem::take(&mut to_c)) {
            tx.acked(seg.ack);
            let out = c.on_segment(seg, now).0;
            out.iter().for_each(|seg| tx.sent(seg));
            to_s.extend(out);
        }
        assert_eq!(c.send_buffered(), tx.buf.len(), "unacknowledged bytes");
        // Timers.
        now += 5 * MILLIS;
        let out = c.on_tick(now);
        out.iter().for_each(|seg| tx.sent(seg));
        to_s.extend(out);
        let acks = s.on_tick(now);
        check_rx(&rx, &acks);
        to_c.extend(acks);
    }
    assert_eq!(got.len(), total, "transfer did not finish");
    assert_eq!(&got[..], &stream[..], "stream");
    longest_round
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn framing_matches_the_byte_queue_model(sc in scenario()) {
        run(&sc);
    }

    #[test]
    fn framing_holds_across_bursts_longer_than_the_ack_batch(sc in burst_scenario()) {
        let longest_round = run(&sc);
        prop_assert!(longest_round > ACK_BATCH, "longest round {}", longest_round);
    }
}
