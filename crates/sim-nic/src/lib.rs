//! NIC model: receive-side steering exactly as the Intel 82599 does it.
//!
//! The paper's connection-locality design (Section 3.3) interacts with
//! three NIC packet-delivery mechanisms, all modelled here:
//!
//! * **RSS** ([`rss`]) — the Toeplitz hash over the 4-tuple selects an
//!   RX queue through a 128-entry indirection table. Per-flow
//!   consistent, but blind to where the application runs.
//! * **Flow Director ATR** ([`fdir`]) — the NIC samples *transmitted*
//!   packets (SYN and FIN always, every Nth data packet otherwise) and
//!   installs a signature filter mapping the flow to the transmitting
//!   queue. The signature table is direct-mapped and finite, so
//!   collisions evict older flows — which is why the paper measures only
//!   76.5% locality from ATR.
//! * **Flow Director Perfect-Filtering** ([`fdir`]) — match rules
//!   programmed by software. Fastsocket programs the Receive Flow
//!   Deliver hash `queue = dst_port & (roundup_pow2(n)-1)` for ephemeral
//!   destination ports, achieving 100% locality for active connections.
//!
//! [`nic::Nic`] composes these with per-queue interrupt affinity and
//! XPS-style TX queue selection.
//!
//! # Example
//!
//! ```
//! use sim_nic::{Nic, NicConfig, SteeringMode, QueueId};
//! use sim_net::{FlowTuple, Packet, TcpFlags};
//! use std::net::Ipv4Addr;
//!
//! let mut nic = Nic::new(NicConfig::new(8, SteeringMode::FdirAtr));
//! let flow = FlowTuple::new(
//!     Ipv4Addr::new(10, 0, 0, 9), 40000,
//!     Ipv4Addr::new(10, 0, 0, 1), 80,
//! );
//! // The server transmits a SYN from queue 3: ATR learns the flow.
//! nic.tx(&Packet::new(flow, TcpFlags::SYN), QueueId(3));
//! // The peer's reply is steered back to queue 3.
//! let rx = nic.rx_queue(&Packet::new(flow.reversed(), TcpFlags::SYN | TcpFlags::ACK));
//! assert_eq!(rx, QueueId(3));
//! ```

pub mod batch;
pub mod fdir;
pub mod lane;
pub mod nic;
pub mod rss;
pub mod toeplitz;

pub use batch::BatchConfig;
pub use fdir::{AtrConfig, FlowDirector, PerfectFilterConfig};
pub use lane::LaneRouter;
pub use nic::{DropFilter, Nic, NicConfig, NicStats, QueueId, SteeringMode};
pub use rss::RssEngine;
pub use toeplitz::{toeplitz_hash, RSS_KEY, RSS_TABLE};
