//! Lane-boundary flow routing for the parallel simulation engine.
//!
//! When the simulated machine is partitioned into lanes (contiguous
//! blocks of cores, each with its own NIC replica), client→server
//! packets must be dispatched to the lane whose NIC would have
//! received them. The router asks the full machine's RSS engine which
//! RX queue the flow hashes to and picks the lane whose core block
//! holds that queue. A lane's replica, spreading the same hash over its
//! own `cores/lanes` queues, then picks exactly the core the whole
//! machine would have: the indirection table is round-robin, so the
//! replica's queue is the machine's queue minus the block offset. It
//! is a pure function of the flow, so serial and threaded lane
//! executors route identically — which the bit-identical-digest tests
//! depend on.

use sim_net::FlowTuple;

use crate::rss::RssEngine;

/// Deterministic flow → lane dispatcher.
#[derive(Debug, Clone)]
pub struct LaneRouter {
    lanes: u16,
    /// RX queues (= cores) per lane.
    block: u16,
    /// The full machine's RSS engine, one queue per core.
    rss: RssEngine,
}

impl LaneRouter {
    /// A router spreading the flows of a `cores`-core machine over
    /// `lanes` equal core blocks.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0` or `lanes` does not divide `cores`.
    pub fn new(cores: u16, lanes: u16) -> LaneRouter {
        assert!(lanes > 0, "need at least one lane");
        assert!(
            cores.is_multiple_of(lanes),
            "lanes must divide the core count"
        );
        LaneRouter {
            lanes,
            block: cores / lanes,
            rss: RssEngine::new(cores),
        }
    }

    /// The lane owning `flow`'s server-side state. All packets of one
    /// flow (client→server orientation) map to the same lane.
    pub fn lane_for_flow(&self, flow: &FlowTuple) -> u16 {
        if self.lanes == 1 {
            return 0;
        }
        self.rss.queue_for(flow) / self.block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn flow(n: u32) -> FlowTuple {
        FlowTuple::new(
            Ipv4Addr::new(10, (1 + n / 250) as u8, (n % 250) as u8, 2),
            40_000 + (n % 20_000) as u16,
            Ipv4Addr::new(10, 0, 0, 1),
            80,
        )
    }

    #[test]
    fn per_flow_consistency() {
        let r = LaneRouter::new(6, 3);
        for n in 0..64 {
            assert_eq!(r.lane_for_flow(&flow(n)), r.lane_for_flow(&flow(n)));
            assert!(r.lane_for_flow(&flow(n)) < 3);
        }
    }

    #[test]
    fn spreads_over_all_lanes() {
        let r = LaneRouter::new(8, 4);
        let mut seen = [0u32; 4];
        for n in 0..4_000 {
            seen[usize::from(r.lane_for_flow(&flow(n)))] += 1;
        }
        for (lane, &count) in seen.iter().enumerate() {
            assert!(count > 500, "lane {lane} starved: {count}/4000");
        }
    }

    #[test]
    fn single_lane_routes_everything_home() {
        let r = LaneRouter::new(8, 1);
        for n in 0..32 {
            assert_eq!(r.lane_for_flow(&flow(n)), 0);
        }
    }

    /// Every (lane, replica queue) pair is the machine's queue: routing
    /// by lane, then steering on the lane's own `cores/lanes`-queue RSS
    /// replica, lands each flow on the core the whole machine's RSS
    /// picks — so no core of any lane sits idle.
    #[test]
    fn lane_replicas_pick_the_machine_core() {
        for (cores, lanes) in [(8u16, 2u16), (8, 4), (24, 2), (24, 4), (24, 6), (24, 12)] {
            let machine = RssEngine::new(cores);
            let replica = RssEngine::new(cores / lanes);
            let r = LaneRouter::new(cores, lanes);
            let mut hit = vec![false; usize::from(cores)];
            for n in 0..4_000 {
                let f = flow(n);
                let core = r.lane_for_flow(&f) * (cores / lanes) + replica.queue_for(&f);
                assert_eq!(core, machine.queue_for(&f), "{cores}c/{lanes} lanes");
                hit[usize::from(core)] = true;
            }
            assert!(
                hit.iter().all(|&h| h),
                "{cores}c/{lanes} lanes left a core idle"
            );
        }
    }
}
