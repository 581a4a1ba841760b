//! Simulated kernel lock models with lockstat-style accounting.
//!
//! The Fastsocket paper diagnoses the base kernel's scalability problems
//! through lock contention (`lockstat`) and eliminates them through
//! partitioning. This crate models the locks the paper names — the VFS
//! `dcache_lock` and `inode_lock`, the per-socket `slock`, the epoll
//! `ep.lock`, the timer `base.lock`, and the established-table per-bucket
//! `ehash.lock` — as timed resources:
//!
//! * an acquisition that finds the lock free pays a small atomic-op cost,
//!   plus a cache-line transfer penalty when the previous holder was a
//!   different core;
//! * an acquisition that finds the lock held **spins** until the holder
//!   releases, and its hold is stretched by the cache-line storm of
//!   ticket spinlocks: `handoff_per_waiter` cycles for every other core
//!   in the lock's poller census (the distinct cores seen in the current
//!   or the previous 64-acquisition period, whichever is more). This
//!   term grows with the cores hammering the lock, and it is what makes
//!   the base kernel's throughput *collapse* beyond 12 cores in Figure
//!   4a rather than merely flatten;
//! * every acquisition that found the lock held increments the class's
//!   `contentions` counter — exactly lockstat's definition, which is what
//!   Table 1 reports.
//!
//! # Example
//!
//! ```
//! use sim_core::CoreId;
//! use sim_sync::{LockClass, LockCosts, LockTable};
//!
//! let mut locks = LockTable::new(LockCosts::default());
//! let slock = locks.register(LockClass::Slock);
//! // Core 0 takes the lock at t=0 and holds it for 1000 cycles.
//! let a = locks.acquire(slock, CoreId(0), 0, 1_000);
//! assert_eq!(a.spin, 0);
//! // Core 1 arrives at t=500 while the lock is held: contention.
//! let b = locks.acquire(slock, CoreId(1), 500, 1_000);
//! assert!(b.spin >= 500);
//! assert_eq!(locks.stats(LockClass::Slock).contentions, 1);
//! ```

pub mod lock;
pub mod stats;

pub use lock::{Acquisition, LockCosts, LockId, LockTable};
pub use stats::{ClassStats, LockClass};
