//! Property tests for flow tuples and segment sequence length.

use proptest::prelude::*;
use sim_net::{FlowTuple, Packet, TcpFlags};
use std::net::Ipv4Addr;

fn arb_flow() -> impl Strategy<Value = FlowTuple> {
    (any::<u32>(), any::<u16>(), any::<u32>(), any::<u16>())
        .prop_map(|(s, sp, d, dp)| FlowTuple::new(Ipv4Addr::from(s), sp, Ipv4Addr::from(d), dp))
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        arb_flow(),
        any::<u32>(),
        any::<u32>(),
        any::<u8>(),
        0u16..4_000,
        any::<u16>(),
    )
        .prop_map(|(flow, seq, ack, flags, len, wnd)| Packet {
            flow,
            seq,
            ack,
            flags: TcpFlags(flags),
            payload_len: len,
            wnd,
        })
}

proptest! {
    #[test]
    fn reversed_is_involution(flow in arb_flow()) {
        prop_assert_eq!(flow.reversed().reversed(), flow);
    }

    #[test]
    fn canonical_is_direction_independent(flow in arb_flow()) {
        prop_assert_eq!(flow.canonical(), flow.reversed().canonical());
    }

    #[test]
    fn seq_len_is_payload_plus_ctrl_flags(pkt in arb_packet()) {
        let expect = u32::from(pkt.payload_len)
            + u32::from(pkt.flags.syn())
            + u32::from(pkt.flags.fin());
        prop_assert_eq!(pkt.seq_len(), expect);
    }
}
