//! Lane-boundary flow routing for the parallel simulation engine.
//!
//! When the simulated machine is partitioned into lanes (contiguous
//! blocks of cores, each with its own NIC replica), client→server
//! packets must be dispatched to the lane whose NIC would have
//! received them. The router is a pre-steering ECMP stage: it hashes
//! the flow tuple with the standard Toeplitz key and spreads flows
//! uniformly over lanes, exactly as a top-of-rack switch spreads flows
//! over the ports of a LAG. It is a pure function of the flow, so
//! serial and threaded lane executors route identically — which the
//! bit-identical-digest tests depend on.

use sim_net::FlowTuple;

use crate::toeplitz::RSS_TABLE;

/// Deterministic flow → lane dispatcher.
#[derive(Debug, Clone)]
pub struct LaneRouter {
    lanes: u16,
}

impl LaneRouter {
    /// A router spreading flows over `lanes` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(lanes: u16) -> LaneRouter {
        assert!(lanes > 0, "need at least one lane");
        LaneRouter { lanes }
    }

    /// Number of lanes this router spreads over.
    pub fn lanes(&self) -> u16 {
        self.lanes
    }

    /// The lane owning `flow`'s server-side state. All packets of one
    /// flow (client→server orientation) map to the same lane.
    pub fn lane_for_flow(&self, flow: &FlowTuple) -> u16 {
        (RSS_TABLE.hash_flow(flow) % u32::from(self.lanes)) as u16
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
        let r = LaneRouter::new(3);
        for n in 0..64 {
            assert_eq!(r.lane_for_flow(&flow(n)), r.lane_for_flow(&flow(n)));
            assert!(r.lane_for_flow(&flow(n)) < 3);
        }
    }

    #[test]
    fn spreads_over_all_lanes() {
        let r = LaneRouter::new(4);
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
        let r = LaneRouter::new(1);
        for n in 0..32 {
            assert_eq!(r.lane_for_flow(&flow(n)), 0);
        }
    }
}
