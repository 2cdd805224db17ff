//! TCP segments as they travel over the (simulated) wire.
//!
//! Buffers are [`Bytes`], so fan-out into MSS-sized segments and
//! retransmissions are zero-copy slices of the application's data — the
//! paper's "IO vectors to represent data buffers indirectly" (§5.2).

use std::fmt;

use bytes::Bytes;

/// TCP header flags (the subset the stack uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Synchronize sequence numbers (connection setup).
    pub syn: bool,
    /// Acknowledgement field is valid.
    pub ack: bool,
    /// Sender has finished sending.
    pub fin: bool,
    /// Hard reset.
    pub rst: bool,
    /// Push — the sender's buffer is empty after this segment (or it is a
    /// retransmission): acknowledge now, or with the reply if the segment
    /// is shorter than an MSS.
    pub psh: bool,
}

impl Flags {
    /// Just `ACK`.
    pub fn ack() -> Self {
        Flags {
            ack: true,
            ..Flags::default()
        }
    }

    /// `SYN` alone (active open).
    pub fn syn() -> Self {
        Flags {
            syn: true,
            ..Flags::default()
        }
    }

    /// `SYN+ACK` (passive open reply).
    pub fn syn_ack() -> Self {
        Flags {
            syn: true,
            ack: true,
            ..Flags::default()
        }
    }

    /// `RST` (optionally with ACK).
    pub fn rst() -> Self {
        Flags {
            rst: true,
            ..Flags::default()
        }
    }
}

impl fmt::Display for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        for (set, name) in [
            (self.syn, "SYN"),
            (self.ack, "ACK"),
            (self.fin, "FIN"),
            (self.rst, "RST"),
            (self.psh, "PSH"),
        ] {
            if set {
                if any {
                    f.write_str("|")?;
                }
                f.write_str(name)?;
                any = true;
            }
        }
        if !any {
            f.write_str("-")?;
        }
        Ok(())
    }
}

/// One TCP segment.
#[derive(Clone)]
pub struct Segment {
    /// Sender's port.
    pub src_port: u16,
    /// Receiver's port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of SYN/FIN).
    pub seq: u32,
    /// Acknowledgement number (valid if `flags.ack`).
    pub ack: u32,
    /// Header flags.
    pub flags: Flags,
    /// Advertised receive window in bytes.
    pub wnd: u32,
    /// Payload (zero-copy slice of application data).
    pub payload: Bytes,
}

/// Modelled TCP/IP header overhead per segment on the wire.
pub const HEADER_BYTES: usize = 40;

impl Segment {
    /// Number of sequence positions this segment occupies (payload plus one
    /// for SYN and one for FIN).
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + self.flags.syn as u32 + self.flags.fin as u32
    }

    /// Bytes this segment occupies on the wire (header + payload).
    pub fn wire_len(&self) -> usize {
        HEADER_BYTES + self.payload.len()
    }

    /// The sequence number one past this segment's data.
    pub fn seq_end(&self) -> u32 {
        self.seq.wrapping_add(self.seq_len())
    }
}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Segment[{}->{} {} seq={} ack={} wnd={} len={}]",
            self.src_port,
            self.dst_port,
            self.flags,
            self.seq,
            self.ack,
            self.wnd,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(flags: Flags, payload: &'static [u8]) -> Segment {
        Segment {
            src_port: 1,
            dst_port: 2,
            seq: 100,
            ack: 0,
            flags,
            wnd: 65535,
            payload: Bytes::from_static(payload),
        }
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        assert_eq!(seg(Flags::syn(), b"").seq_len(), 1);
        assert_eq!(seg(Flags::ack(), b"abc").seq_len(), 3);
        let mut f = Flags::ack();
        f.fin = true;
        assert_eq!(seg(f, b"abc").seq_len(), 4);
        assert_eq!(seg(f, b"abc").seq_end(), 104);
    }

    #[test]
    fn wire_len_includes_header() {
        assert_eq!(seg(Flags::ack(), b"xyz").wire_len(), HEADER_BYTES + 3);
    }

    #[test]
    fn flags_display() {
        assert_eq!(Flags::syn_ack().to_string(), "SYN|ACK");
        assert_eq!(Flags::default().to_string(), "-");
    }

    #[test]
    fn debug_mentions_ports_and_seq() {
        let s = format!("{:?}", seg(Flags::ack(), b"abc"));
        assert!(s.contains("1->2") && s.contains("seq=100"));
    }
}
