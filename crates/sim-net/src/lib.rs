//! Segments and flow tuples for the simulated network.
//!
//! The model never encodes or parses packet bytes: the NIC steers by
//! hashing [`FlowTuple`] fields in RSS input order, and the stack reads
//! a segment's fields directly. This crate provides:
//!
//! * [`flow::FlowTuple`] — the 4-tuple that identifies a connection,
//! * [`packet::Packet`] and [`packet::TcpFlags`] — the simulator's
//!   segment representation.
//!
//! # Example
//!
//! ```
//! use sim_net::{FlowTuple, Packet, TcpFlags};
//! use std::net::Ipv4Addr;
//!
//! let flow = FlowTuple::new(
//!     Ipv4Addr::new(10, 0, 0, 2), 40000,
//!     Ipv4Addr::new(10, 0, 0, 1), 80,
//! );
//! let syn = Packet::new(flow, TcpFlags::SYN).with_seq(1000);
//! assert_eq!(syn.seq_len(), 1);
//! assert_eq!(syn.flow.reversed().canonical(), flow.canonical());
//! ```

pub mod flow;
pub mod packet;

pub use flow::FlowTuple;
pub use packet::{Packet, TcpFlags};
