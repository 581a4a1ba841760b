//! Timed spinlock model and the lock registry.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use sim_core::{CoreId, Cycles};

use crate::stats::{ClassStats, LockClass};

/// Cycle costs of the lock model.
///
/// Defaults are calibrated against measured costs of atomic operations on
/// Ivy Bridge-class hardware: an uncontended `lock cmpxchg` on an owned
/// line is tens of cycles; pulling the lock word from another core's
/// cache costs a coherence round-trip (~hundreds of cycles); a ticket
/// spinlock release broadcasts an invalidation to every spinning core,
/// so handoff cost grows linearly with the number of polling cores.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LockCosts {
    /// Cost of an uncontended acquisition on a core-local line.
    pub uncontended: Cycles,
    /// Extra cost when the lock word must be transferred from another
    /// core's cache.
    pub remote_line: Cycles,
    /// Extra serialization per *polling core* on a contended
    /// acquisition (ticket-lock cache-line storm: every spinning core
    /// re-reads the lock word on each release, so handoff cost grows
    /// with the number of cores recently hammering the lock).
    pub handoff_per_waiter: Cycles,
    /// Poller census length: the distinct-core count is re-sampled
    /// every this many acquisitions (robust to per-core clock skew).
    pub poller_census: u32,
}

impl Default for LockCosts {
    fn default() -> Self {
        LockCosts {
            uncontended: 40,
            remote_line: 360,
            handoff_per_waiter: 210,
            poller_census: 64,
        }
    }
}

/// Handle to a registered lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LockId(u32);

/// Outcome of one acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acquisition {
    /// Cycles spent spinning before the lock was obtained (0 when
    /// uncontended).
    pub spin: Cycles,
    /// Fixed acquisition cost (atomic op, plus line transfer if the
    /// previous holder was another core).
    pub acquire_cost: Cycles,
    /// Absolute time at which the caller holds the lock.
    pub acquired_at: Cycles,
    /// Whether the acquisition found the lock held (lockstat contention).
    pub contended: bool,
    /// Whether the lock word had to be transferred from another core.
    pub line_transfer: bool,
}

impl Acquisition {
    /// Total cycles the acquisition added to the caller's operation
    /// (spin + fixed cost).
    pub fn cost(&self) -> Cycles {
        self.spin + self.acquire_cost
    }
}

#[derive(Debug)]
struct SimLock {
    class: LockClass,
    last_owner: Option<CoreId>,
    /// Bitmask of cores seen in the current census period, the number
    /// of acquisitions into it, and the previous period's count.
    pollers: u64,
    census_cnt: u32,
    census_prev: u32,
    /// Hold intervals `(start, end)` reserved by in-flight operations.
    /// Operations execute at per-core virtual times that may run ahead
    /// of the event clock, so the lock is modelled as a timed resource:
    /// an acquisition at time `t` takes the first gap that fits,
    /// spinning until then.
    ///
    /// Invariant: the holds are pairwise disjoint and sorted by start
    /// (`end[i] <= start[i + 1]`), so their ends are sorted too. An
    /// insert lands after holds that end at or before its start and
    /// before holds that start at or after its end, and retirement
    /// only pops the front, so both keep it. The holds that ended by
    /// any time `t` are therefore a prefix, which `acquire` skips by
    /// binary search.
    reservations: VecDeque<(Cycles, Cycles)>,
    live: bool,
}

/// Registry of all simulated locks, with per-class statistics.
///
/// Locks are created per kernel object (per socket, per epoll instance,
/// per table bucket) and recycled when the object dies.
#[derive(Debug)]
pub struct LockTable {
    locks: Vec<SimLock>,
    free: Vec<u32>,
    stats: [ClassStats; LockClass::COUNT],
    costs: LockCosts,
    epoch: Cycles,
}

impl LockTable {
    /// Creates an empty registry with the given cost model.
    pub fn new(costs: LockCosts) -> Self {
        LockTable {
            locks: Vec::new(),
            free: Vec::new(),
            stats: [ClassStats::default(); LockClass::COUNT],
            costs,
            epoch: 0,
        }
    }

    /// Advances the global retirement watermark. Operations execute at
    /// per-core virtual times that can lag the event clock, so hold
    /// reservations may only be discarded once the *event* clock has
    /// passed them — no future acquisition can then have an earlier
    /// virtual time. The simulation driver calls this with the event
    /// time as it dispatches.
    pub fn set_epoch(&mut self, epoch: Cycles) {
        debug_assert!(epoch >= self.epoch, "epoch must be monotonic");
        self.epoch = epoch;
    }

    /// Registers a new lock of the given class.
    pub fn register(&mut self, class: LockClass) -> LockId {
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.locks[idx as usize];
            debug_assert!(!slot.live, "free list corrupted");
            let mut reservations = std::mem::take(&mut slot.reservations);
            reservations.clear();
            *slot = SimLock {
                class,
                last_owner: None,
                pollers: 0,
                census_cnt: 0,
                census_prev: 0,
                reservations,
                live: true,
            };
            LockId(idx)
        } else {
            let idx = self.locks.len() as u32;
            self.locks.push(SimLock {
                class,
                last_owner: None,
                pollers: 0,
                census_cnt: 0,
                census_prev: 0,
                reservations: VecDeque::new(),
                live: true,
            });
            LockId(idx)
        }
    }

    /// Returns the class a lock was registered under.
    pub fn class_of(&self, id: LockId) -> LockClass {
        self.locks[id.0 as usize].class
    }

    /// Destroys a lock, recycling its slot.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the lock was already destroyed.
    pub fn destroy(&mut self, id: LockId) {
        let slot = &mut self.locks[id.0 as usize];
        debug_assert!(slot.live, "double destroy of lock {id:?}");
        slot.live = false;
        self.free.push(id.0);
    }

    /// Acquires lock `id` on `core` at time `now`, holding it for `hold`
    /// cycles of protected work. Returns the acquisition outcome; the
    /// caller is responsible for charging [`Acquisition::cost`] (spin to
    /// `CycleClass::LockSpin`, `acquire_cost` wherever the enclosing
    /// function's cycles go) and for doing `hold` cycles of work.
    ///
    /// The lock is a timed resource: the acquisition reserves the first
    /// interval at or after `now` that does not overlap an existing
    /// hold. A contended acquisition additionally pays the ticket-lock
    /// cache-line storm, `handoff_per_waiter × (pollers − 1)`, where
    /// `pollers` counts the distinct cores in the poller census. The
    /// search costs O(log n + waiters) in the lock's n holds.
    pub fn acquire(&mut self, id: LockId, core: CoreId, now: Cycles, hold: Cycles) -> Acquisition {
        let costs = self.costs;
        let lock = &mut self.locks[id.0 as usize];
        debug_assert!(lock.live, "acquire on destroyed lock {id:?}");

        // Retire holds that released before the epoch watermark (NOT
        // before `now`: another core's clock may lag `now`, and its
        // acquisition must still collide with these holds).
        let epoch = self.epoch;
        while let Some(&(_, end)) = lock.reservations.front() {
            if end <= epoch {
                lock.reservations.pop_front();
            } else {
                break;
            }
        }

        let line_transfer = lock.last_owner.is_some() && lock.last_owner != Some(core);
        let acquire_cost = costs.uncontended + if line_transfer { costs.remote_line } else { 0 };

        // Track how many distinct cores hammer this lock: on a
        // contended handoff, every one of them re-reads the line. The
        // census is re-sampled every `poller_census` acquisitions,
        // which is robust to per-core virtual-clock skew.
        lock.pollers |= 1u64 << (core.0 % 64);
        lock.census_cnt += 1;
        if lock.census_cnt >= costs.poller_census {
            lock.census_prev = lock.pollers.count_ones();
            lock.pollers = 1u64 << (core.0 % 64);
            lock.census_cnt = 0;
        }
        let pollers = u64::from(lock.pollers.count_ones().max(lock.census_prev));

        // Find the first gap that fits, queueing behind overlapping
        // reservations; once queued, every later gap must also fit the
        // storm term. Reservations that ended before our arrival are
        // dead history (kept only so cores whose clocks lag can still
        // collide with them): they neither block us nor count as
        // waiters. Ends are sorted, so the dead holds are a prefix,
        // found by binary search.
        let first_live = lock.reservations.partition_point(|&(_, end)| end <= now);
        let mut cursor = now;
        let mut waiters: u64 = 0;
        let mut insert_at = first_live;
        // A contended handoff triggers the ticket-lock line storm: all
        // polling cores re-read the line, which both delays the grant
        // and occupies the line — it extends the *service* interval, so
        // a saturated lock's capacity degrades as pollers grow (this is
        // what makes the base kernel's Figure 4 curve fall past its
        // peak instead of flattening).
        let storm = costs.handoff_per_waiter * pollers.saturating_sub(1);
        let need_free = acquire_cost + hold;
        let need_contended = need_free + storm;
        for (i, &(start, end)) in (first_live..).zip(lock.reservations.range(first_live..)) {
            if end <= cursor {
                insert_at = i + 1;
                continue;
            }
            let need = if waiters > 0 {
                need_contended
            } else {
                need_free
            };
            if cursor + need <= start {
                break;
            }
            cursor = cursor.max(end);
            waiters += 1;
            insert_at = i + 1;
        }
        let acquired_at = cursor;
        let spin = acquired_at - now;
        let contended = spin > 0;

        let release_at = acquired_at + if contended { need_contended } else { need_free };
        // The new hold is disjoint from both neighbours; by induction
        // the whole list keeps the invariant the search relies on.
        debug_assert!(
            insert_at == 0 || lock.reservations[insert_at - 1].1 <= acquired_at,
            "hold ({acquired_at}, {release_at}) overlaps its predecessor {:?}",
            lock.reservations[insert_at - 1]
        );
        debug_assert!(
            lock.reservations
                .get(insert_at)
                .is_none_or(|&(start, _)| release_at <= start),
            "hold ({acquired_at}, {release_at}) overlaps its successor {:?}",
            lock.reservations[insert_at]
        );
        lock.reservations
            .insert(insert_at, (acquired_at, release_at));
        lock.last_owner = Some(core);

        let st = &mut self.stats[lock.class as usize];
        st.acquisitions += 1;
        if contended {
            st.contentions += 1;
            st.wait_cycles += spin;
        }
        if line_transfer {
            st.line_transfers += 1;
        }
        st.hold_cycles += release_at - acquired_at;

        Acquisition {
            spin,
            acquire_cost,
            acquired_at,
            contended,
            line_transfer,
        }
    }

    /// Statistics for one class.
    pub fn stats(&self, class: LockClass) -> ClassStats {
        self.stats[class as usize]
    }

    /// Statistics for all classes, in [`LockClass::ALL`] order.
    pub fn all_stats(&self) -> [(LockClass, ClassStats); LockClass::COUNT] {
        let mut out = [(LockClass::Other, ClassStats::default()); LockClass::COUNT];
        for (i, class) in LockClass::ALL.iter().enumerate() {
            out[i] = (*class, self.stats[*class as usize]);
        }
        out
    }

    /// Total cycles spent spinning across all classes.
    pub fn total_wait_cycles(&self) -> Cycles {
        self.stats.iter().map(|s| s.wait_cycles).sum()
    }

    /// Resets all statistics (e.g. after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = [ClassStats::default(); LockClass::COUNT];
    }

    /// Number of live locks (diagnostics).
    pub fn live_locks(&self) -> usize {
        self.locks.iter().filter(|l| l.live).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> LockTable {
        LockTable::new(LockCosts::default())
    }

    #[test]
    fn uncontended_acquire_is_cheap() {
        let mut t = table();
        let l = t.register(LockClass::Slock);
        let a = t.acquire(l, CoreId(0), 100, 50);
        assert_eq!(a.spin, 0);
        assert!(!a.contended);
        assert!(!a.line_transfer, "first acquisition has no prior owner");
        assert_eq!(a.acquire_cost, LockCosts::default().uncontended);
        assert_eq!(a.acquired_at, 100);
    }

    #[test]
    fn same_core_reacquire_has_no_transfer() {
        let mut t = table();
        let l = t.register(LockClass::Slock);
        t.acquire(l, CoreId(3), 0, 10);
        let a = t.acquire(l, CoreId(3), 1_000, 10);
        assert!(!a.line_transfer);
        assert_eq!(t.stats(LockClass::Slock).line_transfers, 0);
    }

    #[test]
    fn cross_core_uncontended_pays_line_transfer() {
        let mut t = table();
        let l = t.register(LockClass::EhashLock);
        t.acquire(l, CoreId(0), 0, 10);
        let a = t.acquire(l, CoreId(1), 10_000, 10);
        assert!(!a.contended);
        assert!(a.line_transfer);
        let c = LockCosts::default();
        assert_eq!(a.acquire_cost, c.uncontended + c.remote_line);
        assert_eq!(t.stats(LockClass::EhashLock).contentions, 0);
        assert_eq!(t.stats(LockClass::EhashLock).line_transfers, 1);
    }

    #[test]
    fn contended_acquire_spins_until_release() {
        let mut t = table();
        let l = t.register(LockClass::Slock);
        let a = t.acquire(l, CoreId(0), 0, 1_000);
        let release = a.acquired_at + a.acquire_cost + 1_000;
        let b = t.acquire(l, CoreId(1), 400, 100);
        assert!(b.contended);
        assert_eq!(
            b.acquired_at, release,
            "no other waiters: no handoff penalty"
        );
        assert_eq!(b.spin, release - 400);
        assert_eq!(t.stats(LockClass::Slock).contentions, 1);
        assert_eq!(t.stats(LockClass::Slock).wait_cycles, b.spin);
    }

    #[test]
    fn handoff_grows_with_waiters() {
        let costs = LockCosts::default();
        let mut t = LockTable::new(costs);
        let l = t.register(LockClass::Slock);
        t.acquire(l, CoreId(0), 0, 10_000);
        let spins: Vec<Cycles> = (1..=6)
            .map(|i| t.acquire(l, CoreId(i as u16), 0, 10_000).spin)
            .collect();
        // Each successive waiter queues behind the previous and pays a
        // growing handoff; spins are strictly increasing.
        for w in spins.windows(2) {
            assert!(w[1] > w[0], "spins should grow: {spins:?}");
        }
    }

    #[test]
    fn waiter_queue_drains_over_time() {
        let mut t = table();
        let l = t.register(LockClass::BaseLock);
        t.acquire(l, CoreId(0), 0, 100);
        // Far in the future everything has drained; acquisition is
        // uncontended with no handoff.
        let a = t.acquire(l, CoreId(1), 1_000_000, 100);
        assert!(!a.contended);
        assert_eq!(a.spin, 0);
    }

    #[test]
    fn recycled_lock_starts_fresh() {
        let mut t = table();
        let l = t.register(LockClass::Slock);
        t.acquire(l, CoreId(0), 0, 1_000_000);
        t.destroy(l);
        let l2 = t.register(LockClass::EpLock);
        // Recycled slot must not inherit the old hold.
        let a = t.acquire(l2, CoreId(1), 10, 10);
        assert!(!a.contended);
        assert!(!a.line_transfer);
    }

    #[test]
    fn per_class_stats_are_separate() {
        let mut t = table();
        let a = t.register(LockClass::DcacheLock);
        let b = t.register(LockClass::InodeLock);
        t.acquire(a, CoreId(0), 0, 10);
        t.acquire(a, CoreId(1), 0, 10); // contends
        t.acquire(b, CoreId(0), 0, 10);
        assert_eq!(t.stats(LockClass::DcacheLock).acquisitions, 2);
        assert_eq!(t.stats(LockClass::DcacheLock).contentions, 1);
        assert_eq!(t.stats(LockClass::InodeLock).acquisitions, 1);
        assert_eq!(t.stats(LockClass::InodeLock).contentions, 0);
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let mut t = table();
        let l = t.register(LockClass::Slock);
        t.acquire(l, CoreId(0), 0, 10);
        t.reset_stats();
        assert_eq!(t.stats(LockClass::Slock).acquisitions, 0);
        assert_eq!(t.total_wait_cycles(), 0);
    }

    #[test]
    fn live_lock_count_tracks_register_destroy() {
        let mut t = table();
        let a = t.register(LockClass::Slock);
        let _b = t.register(LockClass::Slock);
        assert_eq!(t.live_locks(), 2);
        t.destroy(a);
        assert_eq!(t.live_locks(), 1);
    }
}
