//! The simulator's TCP segment representation.

use bytes::BytesMut;
use serde::{Deserialize, Serialize};

use crate::flow::FlowTuple;
use crate::headers::{Ipv4Header, ParseHeaderError, TcpHeader, IPV4_HEADER_LEN, TCP_HEADER_LEN};

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
/// Payload bytes are represented by their length only (the simulation
/// never inspects payload contents), but headers encode and parse to
/// real wire bytes via [`Packet::to_wire`] / [`Packet::parse`].
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

/// Errors from [`Packet::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsePacketError(ParseHeaderError);

impl std::fmt::Display for ParsePacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid packet: {}", self.0)
    }
}

impl std::error::Error for ParsePacketError {}

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

    /// Encodes the segment to wire bytes (IPv4 + TCP + zeroed payload).
    pub fn to_wire(&self) -> BytesMut {
        let payload = vec![0u8; usize::from(self.payload_len)];
        let total = IPV4_HEADER_LEN + TCP_HEADER_LEN + payload.len();
        let mut buf = BytesMut::with_capacity(total);
        Ipv4Header {
            src: self.flow.src_ip,
            dst: self.flow.dst_ip,
            total_len: total as u16,
            ttl: 64,
        }
        .encode(&mut buf);
        TcpHeader {
            src_port: self.flow.src_port,
            dst_port: self.flow.dst_port,
            seq: self.seq,
            ack: self.ack,
            flags: self.flags.0,
            window: self.wnd,
        }
        .encode(&mut buf, self.flow.src_ip, self.flow.dst_ip, &payload);
        buf.extend_from_slice(&payload);
        buf
    }

    /// Parses wire bytes back into a segment.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePacketError`] when either header is malformed or a
    /// checksum fails.
    pub fn parse(data: &[u8]) -> Result<Packet, ParsePacketError> {
        let ip = Ipv4Header::decode(data).map_err(ParsePacketError)?;
        let tcp_bytes = &data[IPV4_HEADER_LEN..];
        let tcp = TcpHeader::decode(tcp_bytes, ip.src, ip.dst).map_err(ParsePacketError)?;
        let payload_len = (usize::from(ip.total_len) - IPV4_HEADER_LEN - TCP_HEADER_LEN) as u16;
        Ok(Packet {
            flow: FlowTuple::new(ip.src, tcp.src_port, ip.dst, tcp.dst_port),
            seq: tcp.seq,
            ack: tcp.ack,
            flags: TcpFlags(tcp.flags),
            payload_len,
            wnd: tcp.window,
        })
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
    fn wire_round_trip() {
        let p = Packet::new(flow(), TcpFlags::SYN | TcpFlags::ACK)
            .with_seq(123)
            .with_ack(456)
            .with_payload(600);
        let wire = p.to_wire();
        assert_eq!(Packet::parse(&wire).unwrap(), p);
    }

    #[test]
    fn wire_round_trip_keeps_window_and_ecn_bits() {
        let p = Packet::new(flow(), TcpFlags::ACK | TcpFlags::ECE)
            .with_seq(1)
            .with_ack(2)
            .with_wnd(12_345);
        let wire = p.to_wire();
        assert_eq!(Packet::parse(&wire).unwrap(), p);
        let marked = Packet::new(flow(), TcpFlags::ACK | TcpFlags::CE).with_payload(1_448);
        assert_eq!(Packet::parse(&marked.to_wire()).unwrap(), marked);
        assert!(marked.to_string().contains("CE"));
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
    fn parse_rejects_corruption() {
        let p = Packet::new(flow(), TcpFlags::ACK).with_payload(8);
        let mut raw = p.to_wire().to_vec();
        raw[IPV4_HEADER_LEN + 4] ^= 0x40; // flip a seq bit
        assert!(Packet::parse(&raw).is_err());
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
    }

    #[test]
    fn display_packet() {
        let p = Packet::new(flow(), TcpFlags::SYN).with_seq(7);
        let s = p.to_string();
        assert!(s.contains("SYN"), "{s}");
        assert!(s.contains("seq=7"), "{s}");
    }
}
