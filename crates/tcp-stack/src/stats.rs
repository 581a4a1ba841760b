//! Stack-level counters used by the experiment harnesses.

use serde::{Deserialize, Serialize};

/// Counters the TCP stack accumulates during a run.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StackStats {
    /// Passive connections fully established (3-way handshake done).
    pub passive_established: u64,
    /// Active connections fully established.
    pub active_established: u64,
    /// Connections that reached CLOSED (both directions finished).
    pub closed: u64,
    /// RST segments sent.
    pub rst_sent: u64,
    /// SYNs dropped because the listen backlog was full.
    pub syn_drops: u64,
    /// Segments dropped because no matching socket existed.
    pub no_match_drops: u64,
    /// `accept()`s served from a Fastsocket *local* listen table.
    pub accepts_local: u64,
    /// `accept()`s served from the global listen socket (slow path, or
    /// the only path for non-Fastsocket kernels).
    pub accepts_global: u64,
    /// Listen-bucket entries walked by `inet_lookup_listener` (for the
    /// SO_REUSEPORT O(n) analysis).
    pub listen_entries_walked: u64,
    /// Listen lookups performed.
    pub listen_lookups: u64,
    /// Incoming packets belonging to *active* connections.
    pub active_in_packets: u64,
    /// Of those, packets the NIC delivered to the owning app's core
    /// (measured before any RFD software steering) — Figure 5b's "local
    /// packet proportion".
    pub active_in_local: u64,
    /// Packets RFD re-steered to another core in software.
    pub steered_packets: u64,
    /// Packets classified by RFD rule 1 (well-known source port).
    pub rfd_rule1: u64,
    /// Packets classified by RFD rule 2 (well-known destination port).
    pub rfd_rule2: u64,
    /// Packets classified by RFD rule 3 (listen-table probe).
    pub rfd_rule3: u64,
    /// Segments retransmitted after an RTO.
    pub retransmits: u64,
    /// Duplicate segments re-ACKed and dropped.
    pub duplicate_segments: u64,
    /// SYN cookies sent (backlog full).
    pub syn_cookies_sent: u64,
    /// Connections established by validating a SYN cookie.
    pub syn_cookies_ok: u64,
    /// Connections aborted after exhausting retransmission attempts.
    pub rtx_abandoned: u64,
    /// TIME_WAIT sockets recycled early by a fresh SYN (tcp_tw_reuse).
    pub tw_reused: u64,
    /// SYNs answered with RST because no listener was bound to the
    /// destination port (connection refused).
    pub syn_refusals: u64,
    /// SYNs dropped by the TCB memory-pressure cap (admission control
    /// under orphan/embryo buildup; Linux's `tcp_max_orphans` analogue).
    pub mem_pressure_drops: u64,
    /// Data-plane (sliding-window bulk transfer) counters. `None`
    /// unless `StackConfig::cc` armed the data plane and a counter
    /// fired, and elided from the serialized form when `None`, so
    /// legacy report digests are unchanged.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub dp: Option<DataPlaneStats>,
    /// Memory-pressure reaction counters (`sim-res`), the only copy a
    /// run report carries. `None` until a counter fires (only an armed
    /// `StackConfig::mem` fires them), and elided from the serialized
    /// form when `None`, so legacy report digests are unchanged.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub mem: Option<sim_res::MemStats>,
}

/// Counters specific to the sliding-window data plane.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct DataPlaneStats {
    /// Segments retransmitted by dup-ACK fast retransmit (as opposed to
    /// the RTO-driven `StackStats::retransmits`).
    pub fast_retransmits: u64,
    /// Data segments dropped because they arrived beyond `rcv_nxt` (no
    /// reassembly queue is modeled) or overran the receive budget.
    pub out_of_order_segments: u64,
    /// ACKs carrying an ECN echo (ECE) consumed by the congestion
    /// controller.
    pub ecn_echoes: u64,
    /// Payload bytes emitted by the sliding-window send path.
    pub bytes_streamed: u64,
}

impl StackStats {
    /// Figure 5b's metric: fraction of active-connection incoming
    /// packets that were NIC-delivered to the right core.
    pub fn local_packet_proportion(&self) -> f64 {
        if self.active_in_packets == 0 {
            0.0
        } else {
            self.active_in_local as f64 / self.active_in_packets as f64
        }
    }

    /// Average listen-bucket entries walked per lookup.
    pub fn avg_listen_walk(&self) -> f64 {
        if self.listen_lookups == 0 {
            0.0
        } else {
            self.listen_entries_walked as f64 / self.listen_lookups as f64
        }
    }

    /// Total connections established.
    pub fn established(&self) -> u64 {
        self.passive_established + self.active_established
    }

    /// The data-plane counters, materializing them on first use.
    pub fn dp_mut(&mut self) -> &mut DataPlaneStats {
        self.dp.get_or_insert_with(DataPlaneStats::default)
    }

    /// The memory-pressure counters, materializing them on first use.
    pub fn mem_mut(&mut self) -> &mut sim_res::MemStats {
        self.mem.get_or_insert_with(sim_res::MemStats::default)
    }

    /// Folds `other`'s counters into `self`. Used when per-lane stacks
    /// are merged into one machine-wide report; `dp` stays `None` only
    /// if no lane armed the data plane, preserving legacy digests.
    pub fn merge(&mut self, other: &StackStats) {
        self.passive_established += other.passive_established;
        self.active_established += other.active_established;
        self.closed += other.closed;
        self.rst_sent += other.rst_sent;
        self.syn_drops += other.syn_drops;
        self.no_match_drops += other.no_match_drops;
        self.accepts_local += other.accepts_local;
        self.accepts_global += other.accepts_global;
        self.listen_entries_walked += other.listen_entries_walked;
        self.listen_lookups += other.listen_lookups;
        self.active_in_packets += other.active_in_packets;
        self.active_in_local += other.active_in_local;
        self.steered_packets += other.steered_packets;
        self.rfd_rule1 += other.rfd_rule1;
        self.rfd_rule2 += other.rfd_rule2;
        self.rfd_rule3 += other.rfd_rule3;
        self.retransmits += other.retransmits;
        self.duplicate_segments += other.duplicate_segments;
        self.syn_cookies_sent += other.syn_cookies_sent;
        self.syn_cookies_ok += other.syn_cookies_ok;
        self.rtx_abandoned += other.rtx_abandoned;
        self.tw_reused += other.tw_reused;
        self.syn_refusals += other.syn_refusals;
        self.mem_pressure_drops += other.mem_pressure_drops;
        if let Some(odp) = &other.dp {
            let dp = self.dp_mut();
            dp.fast_retransmits += odp.fast_retransmits;
            dp.out_of_order_segments += odp.out_of_order_segments;
            dp.ecn_echoes += odp.ecn_echoes;
            dp.bytes_streamed += odp.bytes_streamed;
        }
        if let Some(omem) = &other.mem {
            self.mem_mut().merge(omem);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportions_handle_zero() {
        let s = StackStats::default();
        assert_eq!(s.local_packet_proportion(), 0.0);
        assert_eq!(s.avg_listen_walk(), 0.0);
    }

    #[test]
    fn proportions_compute() {
        let s = StackStats {
            active_in_packets: 200,
            active_in_local: 50,
            listen_lookups: 10,
            listen_entries_walked: 240,
            passive_established: 3,
            active_established: 4,
            ..StackStats::default()
        };
        assert!((s.local_packet_proportion() - 0.25).abs() < 1e-12);
        assert!((s.avg_listen_walk() - 24.0).abs() < 1e-12);
        assert_eq!(s.established(), 7);
    }

    #[test]
    fn merge_sums_counters_and_dp() {
        let mut a = StackStats {
            passive_established: 2,
            retransmits: 1,
            ..StackStats::default()
        };
        let b = StackStats {
            passive_established: 3,
            tw_reused: 4,
            dp: Some(DataPlaneStats {
                fast_retransmits: 5,
                bytes_streamed: 100,
                ..DataPlaneStats::default()
            }),
            ..StackStats::default()
        };
        a.merge(&b);
        assert_eq!(a.passive_established, 5);
        assert_eq!(a.retransmits, 1);
        assert_eq!(a.tw_reused, 4);
        let dp = a.dp.expect("dp materialized by merge");
        assert_eq!(dp.fast_retransmits, 5);
        assert_eq!(dp.bytes_streamed, 100);
    }

    #[test]
    fn merge_without_dp_keeps_none() {
        let mut a = StackStats::default();
        a.merge(&StackStats::default());
        assert!(a.dp.is_none());
        assert!(a.mem.is_none());
    }

    #[test]
    fn merge_sums_mem_counters() {
        let mut a = StackStats::default();
        a.mem_mut().window_clamps = 2;
        let mut b = StackStats::default();
        b.mem_mut().window_clamps = 3;
        b.mem_mut().orphans_killed = 1;
        a.merge(&b);
        let mem = a.mem.expect("mem block survives merge");
        assert_eq!(mem.window_clamps, 5);
        assert_eq!(mem.orphans_killed, 1);
    }
}
