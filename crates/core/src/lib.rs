//! # Fastsocket reproduction
//!
//! A full-system simulation of *Scalable Kernel TCP Design and
//! Implementation for Short-Lived Connections* (ASPLOS 2016): the
//! Fastsocket partitioned TCP stack (Local Listen Table, Local
//! Established Table, Receive Flow Deliver, Fastsocket-aware VFS)
//! together with the two baselines the paper compares against (stock
//! Linux 2.6.32 and Linux 3.13 with `SO_REUSEPORT`), running nginx-like
//! and HAProxy-like workloads on a simulated multicore server with an
//! Intel-82599-style NIC.
//!
//! The crate's central type is [`Simulation`]: configure a kernel, an
//! application and a workload, run it, and read a [`RunReport`] with
//! connections/sec, per-core utilization, lockstat contention counts,
//! L3 miss rates and the local-packet proportion — the exact metrics
//! the paper's evaluation section reports.
//!
//! ```no_run
//! use fastsocket::{AppSpec, KernelSpec, SimConfig, Simulation};
//!
//! let config = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 8)
//!     .warmup_secs(0.2)
//!     .measure_secs(1.0);
//! let report = Simulation::new(config).run();
//! println!("{} connections/sec", report.throughput_cps);
//! ```
//!
//! The `fastsocket-bench` crate regenerates every table and figure of
//! the paper on top of this API; see `EXPERIMENTS.md` at the repository
//! root for paper-vs-measured results.

pub mod config;
pub mod experiments;
pub mod par;
pub mod report;
pub mod sim;

pub use config::{AppSpec, DataPlaneConfig, KernelSpec, ParConfig, SimConfig};
pub use par::{effective_lanes, run_sharded};
pub use report::{EdgeReport, LockReport, RunReport};
pub use sim::Simulation;
pub use sim_check::{CheckReport, ShardClass, ShardReport};
pub use sim_fault::{FaultEvent, FaultKind, FaultRecord, FaultSchedule, RobustnessReport};
pub use sim_load::{
    ArrivalProcess, LoadReport, LongLivedMix, MmppPhase, OpenLoopConfig, RateProfile,
    DEFAULT_DIURNAL,
};
pub use sim_res::{MemConfig, MemReport, MemStats, PressureLevel};
pub use tcp_stack::FaultInjection;
