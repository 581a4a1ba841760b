//! The simulator's TCP segment representation.

use serde::{Deserialize, Serialize};

use crate::flow::FlowTuple;

/// TCP flag bits, as they appear in the header's flags byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// No flags set.
    pub const NONE: TcpFlags = TcpFlags(0);
    /// FIN: sender has finished sending.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: acknowledgment field is significant.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// ECE: ECN-echo — the receiver is echoing a congestion mark back
    /// to the sender (RFC 3168).
    pub const ECE: TcpFlags = TcpFlags(0x40);
    /// CE: congestion experienced. On the real wire this is the IP
    /// header's ECN CE codepoint; the simulator's merged L3/L4 segment
    /// carries it in the spare top flag bit (CWR's position, which the
    /// model does not otherwise use).
    pub const CE: TcpFlags = TcpFlags(0x80);

    /// Whether every flag in `other` is set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Convenience accessors.
    pub fn syn(self) -> bool {
        self.contains(TcpFlags::SYN)
    }
    /// True if ACK is set.
    pub fn ack(self) -> bool {
        self.contains(TcpFlags::ACK)
    }
    /// True if FIN is set.
    pub fn fin(self) -> bool {
        self.contains(TcpFlags::FIN)
    }
    /// True if RST is set.
    pub fn rst(self) -> bool {
        self.contains(TcpFlags::RST)
    }
    /// True if ECE (ECN echo) is set.
    pub fn ece(self) -> bool {
        self.contains(TcpFlags::ECE)
    }
    /// True if CE (congestion experienced) is set.
    pub fn ce(self) -> bool {
        self.contains(TcpFlags::CE)
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl std::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts = Vec::new();
        if self.syn() {
            parts.push("SYN");
        }
        if self.ack() {
            parts.push("ACK");
        }
        if self.fin() {
            parts.push("FIN");
        }
        if self.rst() {
            parts.push("RST");
        }
        if self.contains(TcpFlags::PSH) {
            parts.push("PSH");
        }
        if self.ece() {
            parts.push("ECE");
        }
        if self.ce() {
            parts.push("CE");
        }
        if parts.is_empty() {
            parts.push("-");
        }
        f.write_str(&parts.join("|"))
    }
}

/// A TCP segment in flight.
///
/// Payload bytes are represented by their length only: the simulation
/// never inspects payload contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Packet {
    /// Sender-perspective connection tuple.
    pub flow: FlowTuple,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Payload length in bytes.
    pub payload_len: u16,
    /// Advertised receive window.
    pub wnd: u16,
}

impl Packet {
    /// Creates a payload-less segment with the given flags.
    pub fn new(flow: FlowTuple, flags: TcpFlags) -> Packet {
        Packet {
            flow,
            seq: 0,
            ack: 0,
            flags,
            payload_len: 0,
            wnd: 65_535,
        }
    }

    /// Sets the sequence number (builder style).
    pub fn with_seq(mut self, seq: u32) -> Packet {
        self.seq = seq;
        self
    }

    /// Sets the acknowledgment number (builder style).
    pub fn with_ack(mut self, ack: u32) -> Packet {
        self.ack = ack;
        self
    }

    /// Sets the payload length (builder style).
    pub fn with_payload(mut self, len: u16) -> Packet {
        self.payload_len = len;
        self
    }

    /// Sets the advertised receive window (builder style).
    pub fn with_wnd(mut self, wnd: u16) -> Packet {
        self.wnd = wnd;
        self
    }

    /// Sequence space consumed by this segment (payload plus SYN/FIN).
    pub fn seq_len(&self) -> u32 {
        u32::from(self.payload_len) + u32::from(self.flags.syn()) + u32::from(self.flags.fin())
    }
}

impl std::fmt::Display for Packet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} {} seq={} ack={} len={}]",
            self.flow, self.flags, self.seq, self.ack, self.payload_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn flow() -> FlowTuple {
        FlowTuple::new(
            Ipv4Addr::new(10, 0, 0, 2),
            40_000,
            Ipv4Addr::new(10, 0, 0, 1),
            80,
        )
    }

    #[test]
    fn seq_len_counts_syn_fin_and_payload() {
        let f = flow();
        assert_eq!(Packet::new(f, TcpFlags::SYN).seq_len(), 1);
        assert_eq!(Packet::new(f, TcpFlags::ACK).seq_len(), 0);
        assert_eq!(Packet::new(f, TcpFlags::FIN).with_payload(10).seq_len(), 11);
        assert_eq!(Packet::new(f, TcpFlags::SYN | TcpFlags::FIN).seq_len(), 2);
    }

    #[test]
    fn flags_display_and_contains() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.syn() && f.ack());
        assert!(!f.fin());
        assert!(f.contains(TcpFlags::SYN));
        assert!(!f.contains(TcpFlags::SYN | TcpFlags::FIN));
        assert_eq!(f.to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::NONE.to_string(), "-");
        let marked = Packet::new(flow(), TcpFlags::ACK | TcpFlags::CE).with_payload(1_448);
        assert!(marked.to_string().contains("CE"));
    }

    #[test]
    fn display_packet() {
        let p = Packet::new(flow(), TcpFlags::SYN).with_seq(7);
        let s = p.to_string();
        assert!(s.contains("SYN"), "{s}");
        assert!(s.contains("seq=7"), "{s}");
    }
}
