//! TCP Reno congestion control: slow start, congestion avoidance, fast
//! retransmit and fast recovery (RFC 5681).

use std::fmt;

/// What the sender should do after feeding an event to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcAction {
    /// Nothing special; transmit as the window allows.
    None,
    /// Third duplicate ACK: retransmit the first unacknowledged segment now.
    FastRetransmit,
}

/// Reno controller state for one connection.
#[derive(Clone)]
pub struct Reno {
    mss: u32,
    cwnd: u32,
    ssthresh: u32,
    dup_acks: u32,
    /// In fast recovery until `snd_una` passes this point.
    recover: Option<u32>,
    /// Congestion-avoidance byte accumulator.
    bytes_acked: u32,
}

impl Reno {
    /// Creates a controller with an initial window of `initial_mss` MSS.
    pub fn new(mss: u32, initial_mss: u32) -> Self {
        Reno {
            mss,
            cwnd: mss * initial_mss,
            ssthresh: u32::MAX / 2,
            dup_acks: 0,
            recover: None,
            bytes_acked: 0,
        }
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> u32 {
        self.ssthresh
    }

    /// True while recovering from a fast retransmit.
    pub fn in_recovery(&self) -> bool {
        self.recover.is_some()
    }

    /// True while in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh && !self.in_recovery()
    }

    /// A new ACK advanced `snd_una` by `acked` bytes to `snd_una`.
    /// `in_flight` is the amount outstanding *before* this ACK.
    pub fn on_new_ack(&mut self, acked: u32, snd_una: u32, in_flight: u32) {
        self.dup_acks = 0;
        if let Some(recover) = self.recover {
            if crate::seq::seq_ge(snd_una, recover) {
                // Full ACK: leave recovery, deflate to ssthresh.
                self.recover = None;
                self.cwnd = self.ssthresh.max(self.mss);
                return;
            } else {
                // Partial ACK: stay in recovery, window partially deflates.
                self.cwnd = self.cwnd.saturating_sub(acked).max(self.mss);
                return;
            }
        }
        if self.cwnd < self.ssthresh {
            // Slow start, counting bytes (RFC 3465): one cumulative ACK for
            // N segments opens the window as N ACKs would, as far as the
            // threshold (a single-segment ACK always adds itself whole).
            let room = (self.ssthresh - self.cwnd).max(self.mss);
            self.cwnd = self.cwnd.saturating_add(acked.min(room));
        } else {
            // Congestion avoidance: one MSS per window's worth of ACKs.
            self.bytes_acked = self.bytes_acked.saturating_add(acked);
            if self.bytes_acked >= self.cwnd {
                self.bytes_acked -= self.cwnd;
                self.cwnd = self.cwnd.saturating_add(self.mss);
            }
        }
        let _ = in_flight;
    }

    /// A duplicate ACK arrived; `snd_nxt` is the current send frontier and
    /// `in_flight` the outstanding bytes.
    pub fn on_dup_ack(&mut self, snd_nxt: u32, in_flight: u32) -> CcAction {
        if self.in_recovery() {
            // Window inflation: each dup ACK signals one departed segment.
            self.cwnd = self.cwnd.saturating_add(self.mss);
            return CcAction::None;
        }
        self.dup_acks += 1;
        if self.dup_acks == 3 {
            self.ssthresh = (in_flight / 2).max(2 * self.mss);
            self.cwnd = self.ssthresh + 3 * self.mss;
            self.recover = Some(snd_nxt);
            CcAction::FastRetransmit
        } else {
            CcAction::None
        }
    }

    /// The retransmission timer fired; `in_flight` is the outstanding bytes.
    pub fn on_timeout(&mut self, in_flight: u32) {
        self.ssthresh = (in_flight / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.dup_acks = 0;
        self.recover = None;
        self.bytes_acked = 0;
    }
}

impl fmt::Debug for Reno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Reno(cwnd={}, ssthresh={}, dup={}, recovery={})",
            self.cwnd,
            self.ssthresh,
            self.dup_acks,
            self.in_recovery()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    const MSS: u32 = 1460;

    #[test]
    fn slow_start_doubles_per_window() {
        let mut cc = Reno::new(MSS, 2);
        let start = cc.cwnd();
        // ACK a full window's worth in MSS chunks: cwnd roughly doubles.
        let mut acked = 0;
        let mut una = 0u32;
        while acked < start {
            una = una.wrapping_add(MSS);
            cc.on_new_ack(MSS, una, start);
            acked += MSS;
        }
        assert!(
            cc.cwnd() >= start * 2 - MSS,
            "slow start must double: {} -> {}",
            start,
            cc.cwnd()
        );
    }

    #[test]
    fn slow_start_counts_bytes_not_acks() {
        let mut cc = Reno::new(MSS, 2);
        cc.on_new_ack(8 * MSS, 8 * MSS, 8 * MSS);
        assert_eq!(cc.cwnd(), 10 * MSS, "one ACK for 8 segments opens 8 MSS");
        // Up to the threshold, not past it.
        cc.ssthresh = 12 * MSS;
        cc.on_new_ack(8 * MSS, 16 * MSS, 8 * MSS);
        assert_eq!(cc.cwnd(), 12 * MSS);
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut cc = Reno::new(MSS, 2);
        cc.ssthresh = cc.cwnd(); // force CA immediately
        let start = cc.cwnd();
        let mut una = 0u32;
        // One full window of ACKs → exactly one MSS growth.
        let mut acked = 0;
        while acked < start {
            una = una.wrapping_add(MSS);
            cc.on_new_ack(MSS, una, start);
            acked += MSS;
        }
        assert_eq!(cc.cwnd(), start + MSS);
    }

    #[test]
    fn three_dup_acks_trigger_fast_retransmit() {
        let mut cc = Reno::new(MSS, 10);
        let in_flight = 10 * MSS;
        assert_eq!(cc.on_dup_ack(in_flight, in_flight), CcAction::None);
        assert_eq!(cc.on_dup_ack(in_flight, in_flight), CcAction::None);
        assert_eq!(
            cc.on_dup_ack(in_flight, in_flight),
            CcAction::FastRetransmit
        );
        assert!(cc.in_recovery());
        assert_eq!(cc.ssthresh(), 5 * MSS);
        assert_eq!(cc.cwnd(), 5 * MSS + 3 * MSS);
    }

    #[test]
    fn recovery_exits_on_full_ack() {
        let mut cc = Reno::new(MSS, 10);
        let snd_nxt = 10 * MSS;
        for _ in 0..3 {
            cc.on_dup_ack(snd_nxt, 10 * MSS);
        }
        assert!(cc.in_recovery());
        cc.on_new_ack(10 * MSS, snd_nxt, 10 * MSS);
        assert!(!cc.in_recovery());
        assert_eq!(cc.cwnd(), cc.ssthresh());
    }

    #[test]
    fn timeout_collapses_to_one_mss() {
        let mut cc = Reno::new(MSS, 10);
        cc.on_timeout(10 * MSS);
        assert_eq!(cc.cwnd(), MSS);
        assert_eq!(cc.ssthresh(), 5 * MSS);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn new_ack_resets_dup_count() {
        let mut cc = Reno::new(MSS, 10);
        cc.on_dup_ack(10 * MSS, 10 * MSS);
        cc.on_dup_ack(10 * MSS, 10 * MSS);
        cc.on_new_ack(MSS, MSS, 10 * MSS);
        // Two more dups should NOT trigger (count restarted).
        assert_eq!(cc.on_dup_ack(10 * MSS, 9 * MSS), CcAction::None);
        assert_eq!(cc.on_dup_ack(10 * MSS, 9 * MSS), CcAction::None);
        assert_eq!(
            cc.on_dup_ack(10 * MSS, 9 * MSS),
            CcAction::FastRetransmit,
            "third dup after reset fires"
        );
    }
}
