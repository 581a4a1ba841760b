//! Cache-coherence and L3-miss model for the simulated multicore machine.
//!
//! The paper's connection-locality argument is a cache argument: when the
//! NET_RX softirq half and the application half of a connection run on
//! different cores, the connection's kernel objects (TCB, epoll entries,
//! timers) bounce between private caches, and the shared L3 miss rate
//! rises (Figure 5a). This crate models that at *object* granularity:
//!
//! * every shared kernel object is registered as a [`ObjId`] with a
//!   current **owner core** (the core whose private cache holds its
//!   lines);
//! * a same-core re-access is a hit, except for a capacity-miss
//!   probability that grows with the total live-object footprint versus
//!   the L3 size (this reproduces Fastsocket's mild sub-linearity at 24
//!   cores — more in-flight connections, more pressure);
//! * a cross-core access always pays a coherence-transfer penalty and
//!   counts as an L3 miss with a calibrated probability (dirty lines are
//!   often serviced cache-to-cache; clean evicted lines come from DRAM),
//!   and migrates ownership to the accessing core.
//!
//! The reported **L3 miss rate** is misses / tracked accesses, the same
//! ratio the paper reads from hardware counters.
//!
//! # Example
//!
//! ```
//! use sim_core::{CoreId, SimRng};
//! use sim_mem::{CacheCosts, CacheModel, ObjKind};
//!
//! let mut rng = SimRng::seed(1);
//! let mut cache = CacheModel::new(CacheCosts::default());
//! let tcb = cache.alloc(ObjKind::Tcb, CoreId(0));
//! let local = cache.access(tcb, CoreId(0), &mut rng);
//! let remote = cache.access(tcb, CoreId(5), &mut rng);
//! assert!(remote.cost > local.cost);
//! assert!(remote.remote);
//! ```

use serde::{Deserialize, Serialize};
use sim_core::{CoreId, Cycles, SimRng};

/// Kinds of tracked kernel objects, for per-kind accounting and
/// footprint estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(usize)]
pub enum ObjKind {
    /// A TCP control block (socket).
    Tcb,
    /// A listen socket (global or local copy).
    ListenSock,
    /// A bucket head of a listen or established hash table.
    TableBucket,
    /// An epoll instance (ready list head and wait queue).
    Epoll,
    /// A per-core timer wheel base.
    TimerBase,
    /// A VFS dentry.
    Dentry,
    /// A VFS inode.
    Inode,
    /// Socket receive/transmit buffer pages.
    SockBuf,
    /// Per-process file-descriptor table.
    FdTable,
}

impl ObjKind {
    /// Number of kinds.
    pub const COUNT: usize = 9;

    /// All kinds in declaration order.
    pub const ALL: [ObjKind; Self::COUNT] = [
        ObjKind::Tcb,
        ObjKind::ListenSock,
        ObjKind::TableBucket,
        ObjKind::Epoll,
        ObjKind::TimerBase,
        ObjKind::Dentry,
        ObjKind::Inode,
        ObjKind::SockBuf,
        ObjKind::FdTable,
    ];

    /// Approximate resident footprint of one object, in bytes, used for
    /// L3 pressure estimation (Linux 2.6.32 struct sizes, rounded).
    pub fn footprint(self) -> u64 {
        match self {
            ObjKind::Tcb => 1_664,        // struct tcp_sock
            ObjKind::ListenSock => 1_664, // listen sockets are sockets
            ObjKind::TableBucket => 64,
            ObjKind::Epoll => 256,
            ObjKind::TimerBase => 512,
            ObjKind::Dentry => 192,
            ObjKind::Inode => 592,
            ObjKind::SockBuf => 4_096,
            ObjKind::FdTable => 1_024,
        }
    }

    /// Number of hot cache lines one access typically touches (a TCB
    /// access reads/writes state spread over several lines; a table
    /// bucket is a single line). Coherence and DRAM penalties scale
    /// with this.
    pub fn lines(self) -> u64 {
        match self {
            ObjKind::Tcb => 4,
            ObjKind::ListenSock => 1, // bucket-chain walk reads one line
            ObjKind::TableBucket => 1,
            ObjKind::Epoll => 2,
            ObjKind::TimerBase => 2,
            ObjKind::Dentry => 2,
            ObjKind::Inode => 2,
            ObjKind::SockBuf => 6,
            ObjKind::FdTable => 1,
        }
    }

    /// Stable short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ObjKind::Tcb => "tcb",
            ObjKind::ListenSock => "listen_sock",
            ObjKind::TableBucket => "table_bucket",
            ObjKind::Epoll => "epoll",
            ObjKind::TimerBase => "timer_base",
            ObjKind::Dentry => "dentry",
            ObjKind::Inode => "inode",
            ObjKind::SockBuf => "sock_buf",
            ObjKind::FdTable => "fd_table",
        }
    }
}

/// Cycle costs and probabilities of the cache model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheCosts {
    /// Cost of a private-cache hit (charged on every tracked access).
    pub hit: Cycles,
    /// Extra cost of pulling lines from another core's cache.
    pub remote_transfer: Cycles,
    /// Extra cost of an L3/DRAM miss.
    pub dram: Cycles,
    /// Baseline capacity-miss probability for same-core re-accesses.
    pub capacity_miss_base: f64,
    /// Additional capacity-miss probability at 100% L3 footprint
    /// pressure (scales linearly, saturating at 150% pressure).
    pub capacity_miss_slope: f64,
    /// Probability that a cross-core access misses L3 and goes to DRAM
    /// (the rest are cache-to-cache transfers).
    pub remote_dram_p: f64,
    /// Shared L3 capacity in bytes (per socket; the testbed's E5-2697 v2
    /// has 30 MB per package).
    pub l3_bytes: u64,
}

impl Default for CacheCosts {
    fn default() -> Self {
        CacheCosts {
            hit: 6,
            remote_transfer: 420,
            dram: 580,
            capacity_miss_base: 0.042,
            capacity_miss_slope: 0.022,
            remote_dram_p: 0.30,
            l3_bytes: 30 * 1024 * 1024,
        }
    }
}

/// Handle to a tracked cache object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ObjId(u32);

impl ObjId {
    /// Raw slab-slot index. Combined with [`CacheModel::gen_of`] this
    /// forms a stable identity across slot recycling (used by the
    /// sim-check lockset detector to key per-object state).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Outcome of one tracked access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Cycles this access stalls the core.
    pub cost: Cycles,
    /// Whether the object was owned by a different core.
    pub remote: bool,
    /// Whether this access counted as an L3 miss (DRAM).
    pub l3_miss: bool,
}

#[derive(Debug, Clone, Copy)]
struct Obj {
    kind: ObjKind,
    owner: CoreId,
    live: bool,
    /// Allocation generation of this slot, bumped every time the slot
    /// is (re)used, so deferred consumers can tell recycled objects
    /// apart from the ones they first saw.
    gen: u64,
}

/// Aggregate access statistics.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Tracked accesses.
    pub accesses: u64,
    /// Accesses that found the object on another core.
    pub remote: u64,
    /// Accesses that went to DRAM.
    pub l3_misses: u64,
}

impl CacheStats {
    /// L3 miss rate = misses / accesses, in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l3_misses as f64 / self.accesses as f64
        }
    }

    /// Fraction of accesses that were cross-core.
    pub fn remote_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.remote as f64 / self.accesses as f64
        }
    }

    /// Folds `other`'s counters into `self`. Used when per-lane cache
    /// models are merged into one machine-wide report.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.remote += other.remote;
        self.l3_misses += other.l3_misses;
    }
}

/// The object-granularity cache-coherence model.
#[derive(Debug)]
pub struct CacheModel {
    objs: Vec<Obj>,
    free: Vec<u32>,
    costs: CacheCosts,
    footprint: u64,
    global: CacheStats,
}

impl CacheModel {
    /// Creates an empty model with the given cost parameters.
    pub fn new(costs: CacheCosts) -> Self {
        CacheModel {
            objs: Vec::new(),
            free: Vec::new(),
            costs,
            footprint: 0,
            global: CacheStats::default(),
        }
    }

    /// Registers a new object homed on `core`.
    pub fn alloc(&mut self, kind: ObjKind, core: CoreId) -> ObjId {
        self.footprint += kind.footprint();
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.objs[idx as usize];
            *slot = Obj {
                kind,
                owner: core,
                live: true,
                gen: slot.gen + 1,
            };
            ObjId(idx)
        } else {
            let idx = self.objs.len() as u32;
            self.objs.push(Obj {
                kind,
                owner: core,
                live: true,
                gen: 0,
            });
            ObjId(idx)
        }
    }

    /// Unregisters an object.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on double free.
    pub fn free(&mut self, id: ObjId) {
        let obj = &mut self.objs[id.0 as usize];
        debug_assert!(obj.live, "double free of cache object {id:?}");
        obj.live = false;
        self.footprint -= obj.kind.footprint();
        self.free.push(id.0);
    }

    /// Performs a tracked access to `id` from `core`, migrating
    /// ownership to `core`.
    pub fn access(&mut self, id: ObjId, core: CoreId, rng: &mut SimRng) -> Access {
        let pressure = (self.footprint as f64 / self.costs.l3_bytes as f64).min(1.5);
        let obj = &mut self.objs[id.0 as usize];
        debug_assert!(obj.live, "access to freed cache object {id:?}");

        let remote = obj.owner != core;
        obj.owner = core;

        let lines = obj.kind.lines();
        let mut cost = self.costs.hit * lines;
        let l3_miss = if remote {
            cost += self.costs.remote_transfer * lines;
            rng.chance(self.costs.remote_dram_p)
        } else {
            let p = self.costs.capacity_miss_base + self.costs.capacity_miss_slope * pressure;
            rng.chance(p)
        };
        if l3_miss {
            cost += self.costs.dram * lines;
        }

        let g = &mut self.global;
        g.accesses += 1;
        g.remote += remote as u64;
        g.l3_misses += l3_miss as u64;

        Access {
            cost,
            remote,
            l3_miss,
        }
    }

    /// Current owner core of an object (diagnostics and tests).
    pub fn owner(&self, id: ObjId) -> CoreId {
        self.objs[id.0 as usize].owner
    }

    /// Kind of a tracked object.
    pub fn kind_of(&self, id: ObjId) -> ObjKind {
        self.objs[id.0 as usize].kind
    }

    /// Allocation generation of an object's slot (see [`ObjId::index`]).
    pub fn gen_of(&self, id: ObjId) -> u64 {
        self.objs[id.0 as usize].gen
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> CacheStats {
        self.global
    }

    /// Current live footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.footprint
    }

    /// Resets statistics (e.g. after warmup), keeping objects.
    pub fn reset_stats(&mut self) {
        self.global = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> (CacheModel, SimRng) {
        (CacheModel::new(CacheCosts::default()), SimRng::seed(9))
    }

    #[test]
    fn local_access_is_cheap_remote_is_not() {
        let (mut m, mut rng) = model();
        let o = m.alloc(ObjKind::Tcb, CoreId(0));
        let local = m.access(o, CoreId(0), &mut rng);
        assert!(!local.remote);
        let remote = m.access(o, CoreId(1), &mut rng);
        assert!(remote.remote);
        assert!(remote.cost >= CacheCosts::default().remote_transfer);
    }

    #[test]
    fn ownership_migrates_on_access() {
        let (mut m, mut rng) = model();
        let o = m.alloc(ObjKind::Tcb, CoreId(0));
        m.access(o, CoreId(3), &mut rng);
        assert_eq!(m.owner(o), CoreId(3));
        // Re-access from the new owner is local again.
        let a = m.access(o, CoreId(3), &mut rng);
        assert!(!a.remote);
    }

    #[test]
    fn footprint_tracks_alloc_free() {
        let (mut m, _) = model();
        let a = m.alloc(ObjKind::Tcb, CoreId(0));
        let b = m.alloc(ObjKind::SockBuf, CoreId(0));
        assert_eq!(
            m.footprint(),
            ObjKind::Tcb.footprint() + ObjKind::SockBuf.footprint()
        );
        m.free(a);
        m.free(b);
        assert_eq!(m.footprint(), 0);
    }

    #[test]
    fn miss_rate_rises_with_remote_accesses() {
        let (mut m, mut rng) = model();
        let objs: Vec<ObjId> = (0..64).map(|_| m.alloc(ObjKind::Tcb, CoreId(0))).collect();
        // Phase 1: purely local traffic.
        for _ in 0..200 {
            for &o in &objs {
                m.access(o, CoreId(0), &mut rng);
            }
        }
        let local_rate = m.stats().miss_rate();
        m.reset_stats();
        // Phase 2: ping-pong between two cores.
        for round in 0..200 {
            let core = CoreId((round % 2) as u16);
            for &o in &objs {
                m.access(o, core, &mut rng);
            }
        }
        let pingpong_rate = m.stats().miss_rate();
        assert!(
            pingpong_rate > local_rate + 0.02,
            "local={local_rate:.3} pingpong={pingpong_rate:.3}"
        );
    }

    #[test]
    fn capacity_pressure_raises_local_miss_rate() {
        let costs = CacheCosts::default();
        let mut m = CacheModel::new(costs);
        let mut rng = SimRng::seed(11);
        let o = m.alloc(ObjKind::Tcb, CoreId(0));
        for _ in 0..40_000 {
            m.access(o, CoreId(0), &mut rng);
        }
        let low = m.stats().miss_rate();
        // Blow up the footprint past the L3 size.
        let ballast: Vec<ObjId> = (0..10_000)
            .map(|_| m.alloc(ObjKind::SockBuf, CoreId(1)))
            .collect();
        m.reset_stats();
        let mut rng2 = SimRng::seed(12);
        for _ in 0..40_000 {
            m.access(o, CoreId(0), &mut rng2);
        }
        let high = m.stats().miss_rate();
        assert!(high > low, "low={low:.4} high={high:.4}");
        for b in ballast {
            m.free(b);
        }
    }

    #[test]
    fn slots_are_recycled() {
        let (mut m, _) = model();
        let a = m.alloc(ObjKind::Tcb, CoreId(0));
        m.free(a);
        let b = m.alloc(ObjKind::Epoll, CoreId(1));
        // Same backing slot reused, distinguishable by generation.
        assert_eq!(a.0, b.0);
        assert_eq!(a.index(), b.index());
        assert_eq!(m.owner(b), CoreId(1));
        assert_eq!(m.gen_of(b), 1);
        assert_eq!(m.kind_of(b), ObjKind::Epoll);
    }

    #[test]
    fn stats_rate_helpers() {
        let s = CacheStats {
            accesses: 100,
            remote: 25,
            l3_misses: 10,
        };
        assert!((s.miss_rate() - 0.10).abs() < 1e-12);
        assert!((s.remote_rate() - 0.25).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }
}
