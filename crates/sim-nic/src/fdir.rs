//! Intel Flow Director: ATR signature filters and Perfect-Filtering.

use serde::{Deserialize, Serialize};
use sim_net::{FlowTuple, Packet};

use crate::toeplitz::RSS_TABLE;

/// Configuration of Application Target Routing (ATR) mode.
///
/// ATR watches *transmitted* packets: SYN and FIN segments always
/// install a filter for their flow (pointing at the transmitting
/// queue); other segments install one every `sample_rate` transmissions
/// per queue. Filters live in a direct-mapped signature table — a
/// collision silently overwrites the previous flow, which is the
/// hardware reason ATR gives only best-effort locality (the paper
/// measures 76.5%).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AtrConfig {
    /// Number of slots in the signature table (power of two).
    pub table_slots: usize,
    /// Install a filter for every Nth non-SYN/FIN transmitted packet.
    pub sample_rate: u32,
}

impl Default for AtrConfig {
    fn default() -> Self {
        AtrConfig {
            // The 82599 dedicates a few tens of KB of packet-buffer RAM
            // to FDir in ATR mode; with signature-filter overhead this
            // yields on the order of 2K usable slots under churn.
            table_slots: 8_192,
            sample_rate: 20,
        }
    }
}

/// Configuration of Perfect-Filtering mode, programmed by Receive Flow
/// Deliver: packets destined to an ephemeral port are steered to
/// `dst_port & port_mask`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerfectFilterConfig {
    /// Bit mask applied to the destination port (the paper's
    /// `ROUND_UP_POWER_OF_2(n) - 1`).
    pub port_mask: u16,
    /// Bit offset of the core field (RFD's security shift).
    pub shift: u8,
    /// Lowest port covered by the filters (start of the ephemeral
    /// range); packets below fall through to RSS.
    pub min_port: u16,
}

impl PerfectFilterConfig {
    /// Filters for `queues` RX queues, covering the standard Linux
    /// ephemeral range.
    pub fn for_queues(queues: u16) -> Self {
        Self::for_queues_shifted(queues, 0)
    }

    /// Filters matching the RFD hash with a security bit-shift.
    pub fn for_queues_shifted(queues: u16, shift: u8) -> Self {
        PerfectFilterConfig {
            port_mask: (queues.next_power_of_two()).saturating_sub(1),
            shift,
            min_port: 32_768,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct AtrSlot {
    valid: bool,
    signature: u16,
    queue: u16,
}

/// Statistics kept by the Flow Director model.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct FdirStats {
    /// ATR filters installed.
    pub installs: u64,
    /// ATR installs that overwrote a different live flow.
    pub overwrites: u64,
    /// RX lookups that matched a filter.
    pub matches: u64,
    /// RX lookups that missed (fell back to RSS).
    pub misses: u64,
}

/// The Flow Director engine (both modes).
#[derive(Debug)]
pub struct FlowDirector {
    atr: AtrConfig,
    perfect: Option<PerfectFilterConfig>,
    table: Vec<AtrSlot>,
    tx_counters: Vec<u32>,
    stats: FdirStats,
}

impl FlowDirector {
    /// Creates an engine with the given ATR configuration for `queues`
    /// TX/RX queues. Perfect filters are absent until programmed.
    pub fn new(atr: AtrConfig, queues: u16) -> Self {
        assert!(
            atr.table_slots.is_power_of_two(),
            "ATR table size must be a power of two"
        );
        FlowDirector {
            atr,
            perfect: None,
            table: vec![AtrSlot::default(); atr.table_slots],
            tx_counters: vec![0; queues as usize],
            stats: FdirStats::default(),
        }
    }

    /// Programs (or clears) the perfect filters.
    pub fn program_perfect(&mut self, config: Option<PerfectFilterConfig>) {
        self.perfect = config;
    }

    fn slot_and_sig(&self, flow: &FlowTuple) -> (usize, u16) {
        let h = RSS_TABLE.hash_flow(flow);
        let slot = (h as usize) & (self.atr.table_slots - 1);
        let sig = (h >> 16) as u16;
        (slot, sig)
    }

    /// Observes a transmitted packet on `queue`; may install an ATR
    /// filter for the flow's incoming direction.
    pub fn observe_tx(&mut self, pkt: &Packet, queue: u16) {
        let counter = &mut self.tx_counters[queue as usize];
        let forced = pkt.flags.syn() || pkt.flags.fin();
        if !forced {
            *counter += 1;
            if *counter < self.atr.sample_rate {
                return;
            }
            *counter = 0;
        }
        // Key the filter by the direction in which matching packets
        // will be *received*.
        let (slot, sig) = self.slot_and_sig(&pkt.flow.reversed());
        let entry = &mut self.table[slot];
        if entry.valid && (entry.signature != sig || entry.queue != queue) {
            self.stats.overwrites += 1;
        }
        *entry = AtrSlot {
            valid: true,
            signature: sig,
            queue,
        };
        self.stats.installs += 1;
    }

    /// ATR lookup for a received packet. `queues` bounds the answer.
    pub fn atr_lookup(&mut self, pkt: &Packet) -> Option<u16> {
        let (slot, sig) = self.slot_and_sig(&pkt.flow);
        let entry = self.table[slot];
        if entry.valid && entry.signature == sig {
            self.stats.matches += 1;
            Some(entry.queue)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Perfect-filter lookup for a received packet.
    ///
    /// Returns the masked destination port when the packet falls in the
    /// programmed ephemeral range; `queues` guards against masks wider
    /// than the queue count.
    pub fn perfect_lookup(&self, pkt: &Packet, queues: u16) -> Option<u16> {
        let cfg = self.perfect?;
        let dst = pkt.flow.dst_port;
        if dst < cfg.min_port {
            return None;
        }
        let q = (dst >> cfg.shift) & cfg.port_mask;
        (q < queues).then_some(q)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> FdirStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_net::TcpFlags;
    use std::net::Ipv4Addr;

    fn flow(src_port: u16, dst_port: u16) -> FlowTuple {
        FlowTuple::new(
            Ipv4Addr::new(10, 0, 0, 9),
            src_port,
            Ipv4Addr::new(10, 0, 0, 1),
            dst_port,
        )
    }

    #[test]
    fn syn_tx_installs_filter_for_reply_direction() {
        let mut fd = FlowDirector::new(AtrConfig::default(), 8);
        let f = flow(40_000, 80);
        fd.observe_tx(&Packet::new(f, TcpFlags::SYN), 5);
        let reply = Packet::new(f.reversed(), TcpFlags::SYN | TcpFlags::ACK);
        assert_eq!(fd.atr_lookup(&reply), Some(5));
        assert_eq!(fd.stats().installs, 1);
        assert_eq!(fd.stats().matches, 1);
    }

    #[test]
    fn data_packets_sampled_at_rate() {
        let cfg = AtrConfig {
            sample_rate: 4,
            ..AtrConfig::default()
        };
        let mut fd = FlowDirector::new(cfg, 2);
        // Three data packets: below the sample rate, nothing installed.
        for i in 0..3 {
            fd.observe_tx(&Packet::new(flow(40_000 + i, 80), TcpFlags::ACK), 0);
        }
        assert_eq!(fd.stats().installs, 0);
        // Fourth hits the rate and installs.
        fd.observe_tx(&Packet::new(flow(40_003, 80), TcpFlags::ACK), 0);
        assert_eq!(fd.stats().installs, 1);
    }

    #[test]
    fn fin_always_installs() {
        let mut fd = FlowDirector::new(AtrConfig::default(), 2);
        fd.observe_tx(
            &Packet::new(flow(40_000, 80), TcpFlags::FIN | TcpFlags::ACK),
            1,
        );
        assert_eq!(fd.stats().installs, 1);
    }

    #[test]
    fn collision_overwrites_previous_flow() {
        let cfg = AtrConfig {
            table_slots: 1, // force every flow into the same slot
            sample_rate: 20,
        };
        let mut fd = FlowDirector::new(cfg, 8);
        let f1 = flow(40_000, 80);
        let f2 = flow(40_001, 80);
        fd.observe_tx(&Packet::new(f1, TcpFlags::SYN), 2);
        fd.observe_tx(&Packet::new(f2, TcpFlags::SYN), 3);
        assert_eq!(fd.stats().overwrites, 1);
        // f1's reply now misses (signature overwritten).
        let miss = fd.atr_lookup(&Packet::new(f1.reversed(), TcpFlags::ACK));
        assert_eq!(miss, None);
        let hit = fd.atr_lookup(&Packet::new(f2.reversed(), TcpFlags::ACK));
        assert_eq!(hit, Some(3));
    }

    #[test]
    fn perfect_filter_masks_ephemeral_ports_only() {
        let mut fd = FlowDirector::new(AtrConfig::default(), 16);
        fd.program_perfect(Some(PerfectFilterConfig::for_queues(16)));
        // Active incoming packet: destination is an RFD-chosen port.
        let active = Packet::new(flow(80, 40_005), TcpFlags::SYN | TcpFlags::ACK);
        assert_eq!(fd.perfect_lookup(&active, 16), Some(40_005 & 15));
        // Passive incoming packet: destination 80 is below the range.
        let passive = Packet::new(flow(40_000, 80), TcpFlags::SYN);
        assert_eq!(fd.perfect_lookup(&passive, 16), None);
    }

    #[test]
    fn perfect_filter_rejects_out_of_range_queue() {
        let mut fd = FlowDirector::new(AtrConfig::default(), 24);
        // 24 queues -> mask 31; masked values 24..=31 are invalid.
        fd.program_perfect(Some(PerfectFilterConfig::for_queues(24)));
        let bad_port = 32_768 + 28; // & 31 == 28 >= 24
        let pkt = Packet::new(flow(80, bad_port), TcpFlags::ACK);
        assert_eq!(fd.perfect_lookup(&pkt, 24), None);
        let good_port = 32_768 + 7;
        let pkt = Packet::new(flow(80, good_port), TcpFlags::ACK);
        assert_eq!(fd.perfect_lookup(&pkt, 24), Some(7));
    }

    #[test]
    fn unprogrammed_perfect_filter_matches_nothing() {
        let fd = FlowDirector::new(AtrConfig::default(), 8);
        let pkt = Packet::new(flow(80, 40_000), TcpFlags::ACK);
        assert_eq!(fd.perfect_lookup(&pkt, 8), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_table_rejected() {
        let cfg = AtrConfig {
            table_slots: 1000,
            sample_rate: 20,
        };
        let _ = FlowDirector::new(cfg, 8);
    }
}
