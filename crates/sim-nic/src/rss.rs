//! Receive-side scaling: Toeplitz hash plus indirection table.

use sim_net::FlowTuple;

use crate::toeplitz::RSS_TABLE;

/// Number of entries in the 82599's RSS indirection table.
pub const INDIRECTION_ENTRIES: usize = 128;

/// The RSS engine: hashes a flow and maps it to an RX queue through the
/// indirection table.
///
/// # Example
///
/// ```
/// # use sim_nic::rss::RssEngine;
/// # use sim_net::FlowTuple;
/// # use std::net::Ipv4Addr;
/// let rss = RssEngine::new(8);
/// let flow = FlowTuple::new(
///     Ipv4Addr::new(10, 0, 0, 2), 41000,
///     Ipv4Addr::new(10, 0, 0, 1), 80,
/// );
/// // Per-flow consistency: the same flow always maps to the same queue.
/// assert_eq!(rss.queue_for(&flow), rss.queue_for(&flow));
/// assert!(rss.queue_for(&flow) < 8);
/// ```
#[derive(Debug, Clone)]
pub struct RssEngine {
    table: [u16; INDIRECTION_ENTRIES],
    queues: u16,
}

impl RssEngine {
    /// Creates an engine spreading over `queues` RX queues with the
    /// default round-robin indirection table and standard key.
    ///
    /// # Panics
    ///
    /// Panics if `queues == 0`.
    pub fn new(queues: u16) -> Self {
        assert!(queues > 0, "need at least one RX queue");
        let mut table = [0u16; INDIRECTION_ENTRIES];
        for (i, e) in table.iter_mut().enumerate() {
            *e = (i as u16) % queues;
        }
        RssEngine { table, queues }
    }

    /// Hash of a flow under the standard key.
    pub fn hash(&self, flow: &FlowTuple) -> u32 {
        RSS_TABLE.hash_flow(flow)
    }

    /// The RX queue the indirection table assigns to `flow`.
    pub fn queue_for(&self, flow: &FlowTuple) -> u16 {
        let h = self.hash(flow);
        self.table[(h as usize) & (INDIRECTION_ENTRIES - 1)]
    }

    /// Number of configured queues.
    pub fn queues(&self) -> u16 {
        self.queues
    }

    /// Reprograms one indirection-table entry (as `ethtool -X` would).
    ///
    /// # Panics
    ///
    /// Panics if `entry >= 128` or `queue >= self.queues()`.
    pub fn set_indirection(&mut self, entry: usize, queue: u16) {
        assert!(
            entry < INDIRECTION_ENTRIES,
            "indirection entry out of range"
        );
        assert!(queue < self.queues, "queue out of range");
        self.table[entry] = queue;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn flow(port: u16) -> FlowTuple {
        FlowTuple::new(
            Ipv4Addr::new(10, 0, 0, 2),
            port,
            Ipv4Addr::new(10, 0, 0, 1),
            80,
        )
    }

    #[test]
    fn spreads_roughly_evenly() {
        let rss = RssEngine::new(8);
        let mut counts = [0u32; 8];
        for port in 32_768..32_768 + 8_000 {
            counts[rss.queue_for(&flow(port)) as usize] += 1;
        }
        let expected = 1_000.0;
        for (q, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.15, "queue {q} got {c} of 8000");
        }
    }

    #[test]
    fn queue_always_in_range() {
        for queues in [1u16, 3, 8, 16, 24] {
            let rss = RssEngine::new(queues);
            for port in (1_024..60_000).step_by(517) {
                assert!(rss.queue_for(&flow(port)) < queues);
            }
        }
    }

    #[test]
    fn indirection_reprogramming_takes_effect() {
        let mut rss = RssEngine::new(4);
        let f = flow(45_000);
        let entry = (rss.hash(&f) as usize) & (INDIRECTION_ENTRIES - 1);
        rss.set_indirection(entry, 2);
        assert_eq!(rss.queue_for(&f), 2);
    }

    #[test]
    #[should_panic(expected = "at least one RX queue")]
    fn zero_queues_rejected() {
        let _ = RssEngine::new(0);
    }
}
