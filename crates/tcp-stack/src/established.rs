//! The established table: global `ehash` vs Local Established Table.
//!
//! Every established (and actively-opening) connection is registered
//! here so NET_RX can demultiplex incoming segments. The stock kernel
//! uses one global hash table with per-bucket locks taken on insert and
//! remove; lookups are lock-free (RCU) but still pull the bucket's cache
//! line. Fastsocket gives each core its own table (§3.2.2): all
//! operations touch core-local memory and the per-table lock is only
//! ever taken by its home core — never contended, and its lock word
//! never leaves the home core's cache — *provided* Receive Flow Deliver
//! guarantees that a connection's packets are always processed on its
//! home core (§3.3). The lock still exists (the tables are ordinary
//! inet hashtables underneath) and matters on the one path that breaks
//! the partition: crash-recovery teardown of migrated connections,
//! where a surviving core must remove entries from the dead core's
//! table.

use std::collections::HashMap;

use sim_core::{CoreId, CycleClass};
use sim_mem::{ObjId, ObjKind};
use sim_net::FlowTuple;
use sim_os::{KernelCtx, Op};
use sim_sync::{LockClass, LockId};

use crate::costs::StackCosts;
use crate::tcb::SockId;

/// Which established-table design is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstVariant {
    /// One global table, per-bucket locks (`ehash.lock`).
    Global,
    /// Fastsocket's per-core Local Established Table.
    Local,
}

/// Number of buckets in the global table (Linux sizes `ehash` by
/// memory; 64Ki is typical for the testbed's RAM class).
pub const GLOBAL_BUCKETS: usize = 65_536;

/// FNV-1a hasher for the flow-keyed demux maps. Flow tuples are small
/// fixed-size keys: FNV beats SipHash on them, and seeding no
/// per-process randomness keeps the tables deterministic across runs
/// (the simulator's reproducibility contract).
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Zero-seed build-hasher producing [`FnvHasher`]s.
pub type FnvBuild = std::hash::BuildHasherDefault<FnvHasher>;

type FlowMap = HashMap<FlowTuple, SockId, FnvBuild>;

fn flow_map(capacity: usize) -> FlowMap {
    FlowMap::with_capacity_and_hasher(capacity, FnvBuild::default())
}

/// FNV-1a hash of a flow tuple (deterministic across runs).
pub fn flow_hash(flow: &FlowTuple) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in flow.src_ip.octets() {
        eat(b);
    }
    for b in flow.dst_ip.octets() {
        eat(b);
    }
    for b in flow.src_port.to_be_bytes() {
        eat(b);
    }
    for b in flow.dst_port.to_be_bytes() {
        eat(b);
    }
    h
}

/// The established table.
#[derive(Debug)]
pub struct EstTable {
    variant: EstVariant,
    // Global variant state.
    map: FlowMap,
    bucket_locks: Vec<LockId>,
    bucket_objs: Vec<ObjId>,
    // Local variant state.
    local_maps: Vec<FlowMap>,
    local_objs: Vec<ObjId>,
    local_locks: Vec<LockId>,
}

impl EstTable {
    /// Creates the table for `cores` cores, registering bucket locks
    /// and cache objects. `capacity` is the expected peak connection
    /// count — the maps are pre-sized for it (split across cores in the
    /// Local variant) so the hot demux path never pays a rehash.
    pub fn new(ctx: &mut KernelCtx, variant: EstVariant, cores: usize, capacity: usize) -> Self {
        match variant {
            EstVariant::Global => {
                let bucket_locks = (0..GLOBAL_BUCKETS)
                    .map(|_| ctx.locks.register(LockClass::EhashLock))
                    .collect();
                let bucket_objs = (0..GLOBAL_BUCKETS)
                    .map(|i| {
                        ctx.cache
                            .alloc(ObjKind::TableBucket, CoreId((i % cores) as u16))
                    })
                    .collect();
                EstTable {
                    variant,
                    map: flow_map(capacity),
                    bucket_locks,
                    bucket_objs,
                    local_maps: Vec::new(),
                    local_objs: Vec::new(),
                    local_locks: Vec::new(),
                }
            }
            EstVariant::Local => {
                let per_core = capacity.div_ceil(cores.max(1));
                let local_maps = (0..cores).map(|_| flow_map(per_core)).collect();
                let local_objs = (0..cores)
                    .map(|i| ctx.cache.alloc(ObjKind::TableBucket, CoreId(i as u16)))
                    .collect();
                let local_locks = (0..cores)
                    .map(|_| ctx.locks.register(LockClass::LocalEstLock))
                    .collect();
                EstTable {
                    variant,
                    map: flow_map(0),
                    bucket_locks: Vec::new(),
                    bucket_objs: Vec::new(),
                    local_maps,
                    local_objs,
                    local_locks,
                }
            }
        }
    }

    /// The active variant.
    pub fn variant(&self) -> EstVariant {
        self.variant
    }

    fn bucket(&self, flow: &FlowTuple) -> usize {
        (flow_hash(flow) as usize) & (GLOBAL_BUCKETS - 1)
    }

    /// Looks up the socket for a connection (local-perspective `flow`),
    /// from `core`. Lock-free in both variants (RCU-style read), but
    /// the global variant pulls a shared bucket line.
    pub fn lookup(
        &mut self,
        ctx: &mut KernelCtx,
        op: &mut Op,
        core: CoreId,
        flow: &FlowTuple,
        costs: &StackCosts,
    ) -> Option<SockId> {
        op.trace_enter(sim_trace::TraceLabel::EstLookup);
        op.work(CycleClass::EstLookup, costs.est_lookup);
        let found = match self.variant {
            EstVariant::Global => {
                let b = self.bucket(flow);
                op.touch(ctx, self.bucket_objs[b]);
                self.map.get(flow).copied()
            }
            EstVariant::Local => {
                op.touch(ctx, self.local_objs[core.index()]);
                self.local_maps[core.index()].get(flow).copied()
            }
        };
        op.trace_exit(sim_trace::TraceLabel::EstLookup);
        found
    }

    /// Inserts a connection, from `core`. Returns the home table core
    /// (`None` for the global table).
    pub fn insert(
        &mut self,
        ctx: &mut KernelCtx,
        op: &mut Op,
        core: CoreId,
        flow: FlowTuple,
        sock: SockId,
        costs: &StackCosts,
    ) -> Option<CoreId> {
        let prev = match self.variant {
            EstVariant::Global => {
                let b = self.bucket(&flow);
                op.touch_mut(ctx, self.bucket_objs[b]);
                op.lock_do(
                    &mut ctx.locks,
                    self.bucket_locks[b],
                    CycleClass::TcbManage,
                    costs.ehash_hold,
                );
                self.map.insert(flow, sock)
            }
            EstVariant::Local => {
                // A core only ever inserts into its own table; the
                // per-table lock is core-local and never contended.
                op.checker()
                    .lint(sim_check::PartitionLint::LocalEst, op.core().0, core.0);
                op.touch_mut(ctx, self.local_objs[core.index()]);
                op.lock_do(
                    &mut ctx.locks,
                    self.local_locks[core.index()],
                    CycleClass::TcbManage,
                    costs.ehash_hold,
                );
                self.local_maps[core.index()].insert(flow, sock)
            }
        };
        if prev.is_some() {
            op.checker().invariant_violation(
                "established",
                op.core().0,
                format!("duplicate established insert for {flow}"),
            );
        }
        match self.variant {
            EstVariant::Global => None,
            EstVariant::Local => Some(core),
        }
    }

    /// Removes a connection. `home` must be the core returned by
    /// [`EstTable::insert`] for the Local variant.
    pub fn remove(
        &mut self,
        ctx: &mut KernelCtx,
        op: &mut Op,
        home: Option<CoreId>,
        flow: &FlowTuple,
        costs: &StackCosts,
    ) {
        let removed = match self.variant {
            EstVariant::Global => {
                let b = self.bucket(flow);
                op.touch_mut(ctx, self.bucket_objs[b]);
                op.lock_do(
                    &mut ctx.locks,
                    self.bucket_locks[b],
                    CycleClass::TcbManage,
                    costs.ehash_hold,
                );
                self.map.remove(flow)
            }
            EstVariant::Local => {
                let home = home.expect("local established entries have a home core");
                // Teardown normally happens on the entry's home core —
                // RFD's delivery guarantee extends to removal. The one
                // legitimate exception is crash recovery, where a
                // survivor reaps a dead worker's migrated connections
                // under the home table's (otherwise core-local) lock.
                op.checker()
                    .lint(sim_check::PartitionLint::LocalEst, op.core().0, home.0);
                op.touch_mut(ctx, self.local_objs[home.index()]);
                op.lock_do(
                    &mut ctx.locks,
                    self.local_locks[home.index()],
                    CycleClass::TcbManage,
                    costs.ehash_hold,
                );
                self.local_maps[home.index()].remove(flow)
            }
        };
        if removed.is_none() {
            op.checker().invariant_violation(
                "established",
                op.core().0,
                format!("removing unknown connection {flow}"),
            );
        }
    }

    /// Total live entries across all tables.
    pub fn len(&self) -> usize {
        self.map.len() + self.local_maps.iter().map(FlowMap::len).sum::<usize>()
    }

    /// Spare pre-sized slots left before any table would rehash (the
    /// smallest per-table headroom; capacity-hint plumbing test hook).
    pub fn spare_capacity(&self) -> usize {
        if self.variant == EstVariant::Global {
            self.map.capacity() - self.map.len()
        } else {
            self.local_maps
                .iter()
                .map(|m| m.capacity() - m.len())
                .min()
                .unwrap_or(0)
        }
    }

    /// Whether no connections are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimRng;
    use sim_mem::{CacheCosts, CacheModel};
    use sim_sync::{LockCosts, LockTable};
    use std::net::Ipv4Addr;

    fn ctx(cores: usize) -> KernelCtx {
        KernelCtx::new(
            cores,
            LockTable::new(LockCosts::default()),
            CacheModel::new(CacheCosts::default()),
            SimRng::seed(31),
        )
    }

    fn flow(p: u16) -> FlowTuple {
        FlowTuple::new(
            Ipv4Addr::new(10, 0, 0, 1),
            80,
            Ipv4Addr::new(10, 0, 0, 2),
            p,
        )
    }

    #[test]
    fn global_insert_lookup_remove() {
        let mut c = ctx(4);
        let mut t = EstTable::new(&mut c, EstVariant::Global, 4, 1_024);
        let costs = StackCosts::default();
        let mut op = c.begin(CoreId(0), 0);
        let home = t.insert(&mut c, &mut op, CoreId(0), flow(40_000), SockId(7), &costs);
        assert_eq!(home, None);
        // Lookup from another core still finds it (global table).
        let hit = t.lookup(&mut c, &mut op, CoreId(3), &flow(40_000), &costs);
        assert_eq!(hit, Some(SockId(7)));
        t.remove(&mut c, &mut op, home, &flow(40_000), &costs);
        assert!(t.is_empty());
        op.commit(&mut c.cpu);
        assert!(c.locks.stats(LockClass::EhashLock).acquisitions >= 2);
    }

    #[test]
    fn local_tables_are_partitioned_per_core() {
        let mut c = ctx(4);
        let mut t = EstTable::new(&mut c, EstVariant::Local, 4, 1_024);
        let costs = StackCosts::default();
        let mut op = c.begin(CoreId(1), 0);
        let home = t.insert(&mut c, &mut op, CoreId(1), flow(40_000), SockId(9), &costs);
        assert_eq!(home, Some(CoreId(1)));
        // The home core finds it...
        assert_eq!(
            t.lookup(&mut c, &mut op, CoreId(1), &flow(40_000), &costs),
            Some(SockId(9))
        );
        // ...another core does NOT: this is why naive partition breaks
        // TCP without RFD's delivery guarantee (§2.1).
        assert_eq!(
            t.lookup(&mut c, &mut op, CoreId(2), &flow(40_000), &costs),
            None
        );
        t.remove(&mut c, &mut op, home, &flow(40_000), &costs);
        op.commit(&mut c.cpu);
        // No global-table traffic; the per-core table lock is taken but
        // never contended (only the home core touches it).
        assert_eq!(c.locks.stats(LockClass::EhashLock).acquisitions, 0);
        let local = c.locks.stats(LockClass::LocalEstLock);
        assert_eq!(local.acquisitions, 2);
        assert_eq!(local.contentions, 0);
        assert_eq!(local.line_transfers, 0);
    }

    #[test]
    fn flow_hash_is_deterministic_and_spreads() {
        let a = flow_hash(&flow(40_000));
        assert_eq!(a, flow_hash(&flow(40_000)));
        // Distribution over buckets should be roughly uniform.
        let mut counts = [0u32; 16];
        for p in 32_768..(32_768 + 16_000) {
            counts[(flow_hash(&flow(p)) as usize) % 16] += 1;
        }
        for (i, &n) in counts.iter().enumerate() {
            assert!((800..1_200).contains(&n), "bucket {i}: {n}");
        }
    }

    #[test]
    fn fnv_hasher_matches_flow_hash_and_is_seedless() {
        use std::hash::{BuildHasher, Hasher};
        let f = flow(40_000);
        let mut h = FnvHasher::default();
        for b in f.src_ip.octets() {
            h.write(&[b]);
        }
        for b in f.dst_ip.octets() {
            h.write(&[b]);
        }
        h.write(&f.src_port.to_be_bytes());
        h.write(&f.dst_port.to_be_bytes());
        assert_eq!(h.finish(), flow_hash(&f), "one FNV-1a, two spellings");
        // Two independently built maps agree on layout (no random seed).
        let a = flow_map(16);
        let b = flow_map(16);
        assert_eq!(
            a.hasher().hash_one(f),
            b.hasher().hash_one(f),
            "seedless build-hasher"
        );
    }

    #[test]
    fn capacity_hint_presizes_tables() {
        let mut c = ctx(4);
        let mut t = EstTable::new(&mut c, EstVariant::Local, 4, 4_000);
        assert!(
            t.spare_capacity() >= 1_000,
            "each local table pre-sized for its share: {}",
            t.spare_capacity()
        );
        let costs = StackCosts::default();
        let mut op = c.begin(CoreId(0), 0);
        for p in 0..500u16 {
            t.insert(
                &mut c,
                &mut op,
                CoreId(0),
                flow(30_000 + p),
                SockId(u32::from(p)),
                &costs,
            );
        }
        op.commit(&mut c.cpu);
        assert!(
            t.spare_capacity() >= 500,
            "no rehash below the hint: {}",
            t.spare_capacity()
        );
    }

    #[test]
    fn len_counts_both_variants() {
        let mut c = ctx(2);
        let mut t = EstTable::new(&mut c, EstVariant::Local, 2, 64);
        let costs = StackCosts::default();
        let mut op = c.begin(CoreId(0), 0);
        t.insert(&mut c, &mut op, CoreId(0), flow(1_025), SockId(1), &costs);
        t.insert(&mut c, &mut op, CoreId(1), flow(1_026), SockId(2), &costs);
        op.commit(&mut c.cpu);
        assert_eq!(t.len(), 2);
    }
}
