//! Discrete-event simulation engine for the Fastsocket reproduction.
//!
//! This crate provides the foundations every other simulation crate builds
//! on:
//!
//! * a cycle-granularity clock ([`Cycles`], [`time`]) modelled on the
//!   paper's evaluation machine (2.7 GHz Xeon E5-2697 v2),
//! * a deterministic [`event::EventQueue`] with stable FIFO tie-breaking,
//! * a multicore CPU model ([`cpu::Cpu`]) that accounts busy time per core
//!   and per kernel-function class, which is how the reproduction recovers
//!   the paper's `perf`-style figures (e.g. "`inet_lookup_listener`
//!   consumes 24.2% of per-core cycles"),
//! * a seeded deterministic RNG ([`rng::SimRng`]).
//!
//! # Example
//!
//! ```
//! use sim_core::{cpu::{Cpu, CoreId, CostSheet, CycleClass}, event::EventQueue};
//!
//! let mut cpu = Cpu::new(4);
//! let mut sheet = CostSheet::new();
//! sheet.add(CycleClass::AppWork, 1_000);
//! let span = cpu.execute(CoreId(0), 0, &sheet);
//! assert_eq!(span.end, 1_000);
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(span.end, "done");
//! assert_eq!(q.pop(), Some((1_000, "done")));
//! ```

pub mod cpu;
pub mod event;
pub mod lane;
pub mod rng;
pub mod time;

pub use cpu::{CoreId, CostSheet, Cpu, CycleClass};
pub use event::{EventQueue, TimerKey};
pub use lane::{run_lanes_serial, run_lanes_threads, LaneSchedule, LaneSim};
pub use rng::SimRng;
pub use time::{cycles_to_secs, secs_to_cycles, usecs_to_cycles, Cycles, CYCLES_PER_SEC};
